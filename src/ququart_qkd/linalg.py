"""Dense complex linear algebra over registers of four-level systems.

Everything here is small and exact-friendly: states are normalized and
live on 4**n amplitudes (n <= 4 in practice), operators are plain numpy
matrices, and projective measurement draws from an explicit seeded
generator, so a seed fixes every result.  An ``OperatorStack`` is a
read-only stack of 4x4 operators on one ququart, named by its position,
or of full-register operators at position 0.  ``apply_stacked`` is the
one product of an operator and a state: it applies all of a stack's k
operators to a batch of state rows by one ``matmul`` against the stack
folded into a (k*4, 4) operator, contracting only the acted-on axis, so
no register operator is built.  Every operator a session applies has
entries in {0, +/-1/2, +/-1} with at most two nonzeros per row
(``observables.key_basis``), so each product entry is one rounding of
exact terms, whatever order the product sums them in: a branch cut from
one product and the same branch built by another have the same bytes.
A measurement is a ``ProjectorSet``: a stack whose completeness is
checked once, when the set is built, so a draw is one stacked product
and no identity sum.

A protocol phase measures the same few states with the same few sets
thousands of times, so it samples a branch tree (``Tree``): its nodes are
the distinct states, one row each of one amplitude array (a built state
equal in bytes to a node is that node), and per level it keeps tables of
branch probabilities, their cumulative law and child ids, so each (state,
set) pair is computed once per level.  A tree may outlive its phase: attack-free
phases on the built-in channels share one per party count for the life of
the process (``protocol``), while attacked and corrupt-channel phases
build their own.  A tree is sampled one level at a time for all rounds at
once, by one inverse-CDF rule on a column of uniforms, one per row.  A
level fills each row it has not met by one stacked product per set
(``apply_stacked``), and on a level that descends that product gives the
row's children too, one per live branch (``LIVE_NORM``), so every other
call is a gather (``Tree._fill``).  ``measure_projective`` is a one-row
tree, so the tree is the one place that computes a branch law or a
post-measurement state.  Input a user can reach (state shapes and norms,
operator shapes, positions) is checked by raising ``ValueError``, so the
checks hold under ``python -O``.

Basis convention: the most significant ququart comes first, so the basis
ket |k l m> of a three-ququart register sits at index 16*k + 4*l + m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DIM = 4

NORM_TOL = 1e-12
COMPLETENESS_TOL = 1e-10
# a branch is live when its norm, the square root of its probability, is
# at least this: only a live branch is drawn, and only a live branch has
# a post-measurement state
LIVE_NORM = 1e-9


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of ``num_ququarts`` four-level systems.

    Amplitudes are stored as a read-only complex vector of length
    4**num_ququarts whose norm lies within NORM_TOL of 1; every state the
    library builds is normalized, so there is no unnormalized kind.
    """

    num_ququarts: int
    amplitudes: np.ndarray

    def __post_init__(self):
        # user-reachable through state_from_amplitudes: checked by raising,
        # since python -O strips asserts
        if self.num_ququarts < 1:
            raise ValueError("a state needs at least one ququart")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (DIM**self.num_ququarts,):
            raise ValueError(f"amplitude shape must be (4**n,), got {amps.shape}")
        nrm2 = float(np.vdot(amps, amps).real)
        # written so that a NaN amplitude fails the check too
        if not abs(nrm2 - 1.0) < NORM_TOL:
            raise ValueError(f"state not normalized: |psi|^2 = {nrm2}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return DIM**self.num_ququarts


@dataclass(frozen=True)
class MeasurementResult:
    """One projective-measurement draw: branch index, its probability, and
    the normalized post-measurement state."""

    outcome_index: int
    probability: float
    post_state: StateVector

    def __post_init__(self):
        assert 0.0 <= self.probability <= 1.0 + NORM_TOL


def state_from_amplitudes(amplitudes: Sequence[complex], num_ququarts: int) -> StateVector:
    amps = np.asarray(amplitudes, dtype=complex)
    return StateVector(num_ququarts, amps / np.linalg.norm(amps))


@dataclass(frozen=True, eq=False)
class OperatorStack:
    """A read-only (k, d, d) complex stack of operators on the ququart at
    ``position`` (d = 4), or on a whole register (position 0, d its
    dimension).  Its shape is checked once, here, by raising ValueError,
    so it holds under ``python -O``; ``apply_stacked`` checks that a
    register holds it."""

    stack: np.ndarray
    position: int = 0

    def __post_init__(self):
        stack = np.array(self.stack, dtype=complex)
        if stack.ndim != 3 or stack.shape[0] < 1 or stack.shape[1] != stack.shape[2]:
            raise ValueError(f"operators must stack to (k, d, d), got {stack.shape}")
        if self.position < 0 or (self.position and stack.shape[1] != DIM):
            raise ValueError(f"a {stack.shape} stack cannot act at position {self.position}")
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)


@dataclass(frozen=True, eq=False)
class ProjectorSet(OperatorStack):
    """A complete projective measurement: a stack of projectors whose sum
    lies within COMPLETENESS_TOL of the identity, checked once, here."""

    def __post_init__(self):
        super().__post_init__()
        stack = self.stack
        # written so that a NaN entry fails the check too
        if not np.max(np.abs(stack.sum(axis=0) - np.eye(stack.shape[1]))) < COMPLETENESS_TOL:
            raise ValueError("projectors do not sum to identity")


def apply_stacked(stack: np.ndarray, position: int, rows: np.ndarray) -> np.ndarray:
    """Every operator of a (k, d, d) stack acting at ``position`` on each
    of (m, n) state rows, as an (m, k, n) array of branches.  The acted-on
    axis is moved last and the stack folded into one (k*d, d) operator,
    so one ``matmul`` against its transpose covers every row and slice.
    A stack that does not act on n amplitudes at ``position`` raises
    ValueError."""
    k, d = stack.shape[:2]
    m, n = rows.shape
    before = DIM**position
    after = n // (before * d)
    if before * d * after != n:
        raise ValueError(f"a ({d}, {d}) operator at position {position} does not act on dimension {n}")
    moved = rows.reshape(m, before, d, after).swapaxes(2, 3).reshape(-1, d)
    out = moved @ stack.reshape(k * d, d).T
    return out.reshape(m, before, after, k, d).transpose(0, 3, 1, 4, 2).reshape(m, k, n)


def measure_projective(
    psi: StateVector,
    projectors: ProjectorSet | Sequence[np.ndarray],
    rng: np.random.Generator,
) -> MeasurementResult:
    """Sample one outcome of a complete projective measurement.

    A one-row ``Tree`` rooted at ``psi``, drawn by ``Tree.descend``:
    outcome k is drawn with probability |P_k psi|^2 on a single uniform
    draw, so the sequence of results is a pure function of the generator
    state, and the drawn branch, normalized, is the post-measurement
    state.  The probability is read from the level the draw filled.
    Completeness is checked once per ``ProjectorSet``; a plain sequence
    of projectors is wrapped, and so checked, on every call.
    """
    if not isinstance(projectors, ProjectorSet):
        projectors = ProjectorSet(projectors)
    tree, root = Tree(psi), np.zeros(1, dtype=np.intp)
    outcomes, kids = tree.descend(root, [projectors], rng.random(1))
    k = int(outcomes[0])
    p = float(tree._levels[(projectors,), True].probs[0, k])
    return MeasurementResult(k, p, tree.state(int(kids[0])))


def _inverse_cdf(laws, cdf, keys, u) -> np.ndarray:
    """Outcome per row from its uniform ``u`` and its law ``laws[key]``,
    whose cumulative probabilities below the last branch are
    ``cdf[key]``: the count of those at or below ``u``.  That is the first
    branch whose running sum exceeds ``u``, with a uniform above the
    rounded total falling through to the last branch.  The cumulative
    probabilities are gathered one branch at a time, so a draw holds one
    of them per row, not its whole row of ``cdf``.  A row that drew a
    branch that is not live (``LIVE_NORM``) raises RuntimeError."""
    outcomes = np.zeros(len(u), dtype=np.intp)
    for b in range(cdf.shape[1]):
        outcomes += u >= cdf[:, b].take(keys)
    # sqrt is monotone, so the least drawn probability decides
    if math.sqrt(laws.ravel().take(keys * laws.shape[1] + outcomes).min()) < LIVE_NORM:
        # zero-probability branch cannot be drawn from a complete set
        raise RuntimeError("sampled a zero-probability measurement branch")
    return outcomes


class _Level:
    """One level's tables (``Tree``), a row per key ``node * width + code``:
    branch probabilities (NaN until filled), their cumulative law below the
    last branch, and child ids, -1 where there is none; grown from ``old``.
    A level that ``descends`` holds a child for every live branch of each
    filled row, made by the same fill (``Tree._fill``); a level that only
    draws holds none, but for the identity slot's."""

    def __init__(self, sets: tuple, descends: bool, nodes: int, old=None):
        self.sets, self.descends = sets, descends
        self.width, self.branches = len(sets), _branch_count(sets)
        rows = nodes * self.width
        self.probs = np.full((rows, self.branches), np.nan)
        self.cdf = np.empty((rows, self.branches - 1))
        self.kids = np.full((rows, self.branches), -1, dtype=np.intp)
        if old is not None:
            for table, kept in zip((self.probs, self.cdf, self.kids), (old.probs, old.cdf, old.kids)):
                table[: len(kept)] = kept


class Tree:
    """A phase's branch tree, sampled one level at a time for all rounds.

    Nodes are the rows of one amplitude array (``amplitudes[:size]``),
    named by their row index; row 0 is the root.  Rows are rounds, each at
    a node.  A level is the tuple of sets one call uses (a party's menu of
    sign sets, a key set, an attack readout, a shift stack), picked per
    row by a code (``sets[0]`` without codes), and whether the call
    descends: ``draw`` and ``probabilities`` read laws only, while
    ``descend``, ``children`` and ``evolved`` read children too.  The sets
    of a level have equal branch counts.  A None set is the identity
    slot: it reads outcome 0 and keeps the node.  Per level the tree keeps
    a (node x code) table of branch probabilities and their cumulative
    law, and a (node x code x branch) table of child ids (``_Level``).

    A row is filled once, whole, by one stacked product per set
    (``_fill``): its law and, on a level that descends, the child of each
    live branch, cut from the same product (a ``ProjectorSet``'s branch
    over the square root of its probability, an ``OperatorStack``'s
    branch as it is).  So every call is a fill of the rows it reaches
    that are not yet filled, then a gather, and every row is an
    ``apply_stacked`` branch.  A tree holds the nodes a walk of its
    rounds reaches, the live siblings of every branch measured on a level
    that descends, and every branch of an evolved node; each is built
    once.  A built row equal in bytes to an existing node reuses its id,
    so no two rows are equal and a node may have several parents.
    """

    def __init__(self, root: StateVector):
        self.root = root
        self.amplitudes = np.empty((16, root.dim), dtype=complex)
        self.amplitudes[0] = root.amplitudes
        self.size = 1
        self._index = {self.amplitudes[0].tobytes(): 0}  # row bytes -> node id
        self._levels = {}  # (tuple of sets, descends) -> _Level

    def state(self, node: int) -> StateVector:
        """The normalized state of a node; the root is the one given.  An
        id outside ``[0, size)`` raises IndexError."""
        if not 0 <= node < self.size:
            raise IndexError(f"no node {node} in a tree of {self.size} nodes")
        if node == 0:
            return self.root
        return StateVector(self.root.num_ququarts, self.amplitudes[node].copy())

    def _filled(self, sets, descends: bool, ids, codes) -> tuple:
        """The level of ``(sets, descends)``, with rows for every node the
        amplitude array has room for (made, or grown after the array
        grew), and the keys of ``ids`` on it, filled (``_fill``)."""
        at = tuple(sets), descends
        level = self._levels.get(at)
        if level is None or len(level.probs) < len(self.amplitudes) * level.width:
            level = self._levels[at] = _Level(*at, len(self.amplitudes), level)
        keys = ids if codes is None else ids * level.width + codes
        self._fill(level, keys)
        return level, keys

    def _fill(self, level: _Level, keys):
        """Fill the level's rows of ``keys`` that are not yet filled: a
        set's from one stacked product (``apply_stacked``), its children
        too on a level that descends, and the identity slot's as a sure
        outcome 0 whose child is the node itself."""
        missing = keys[np.isnan(level.probs[:, 0].take(keys))]
        if not len(missing):
            return
        # distinct and sorted; np.unique would import numpy.ma on first use
        missing = np.flatnonzero(np.bincount(missing))
        nodes, codes = np.divmod(missing, level.width)
        for code in np.flatnonzero(np.bincount(codes)).tolist():
            rows, at = missing[codes == code], nodes[codes == code]
            ops = level.sets[code]
            if ops is None:
                level.probs[rows] = 0.0
                level.probs[rows, 0] = 1.0
                level.kids[rows, 0] = at
                continue
            branches = apply_stacked(ops.stack, ops.position, self.amplitudes[at])
            # the squared real and imaginary parts of each branch, summed
            probs = level.probs[rows] = np.square(branches.view(float)).sum(axis=-1)
            if level.descends:
                norms = np.sqrt(probs)
                row, pick = np.nonzero(norms >= LIVE_NORM)
                kids = branches[row, pick]
                if isinstance(ops, ProjectorSet):
                    # the same product as the branch's probability, so the same bits
                    kids /= norms[row, pick, None]
                level.kids[rows[row], pick] = self._intern(kids)
        level.cdf[missing] = np.cumsum(level.probs[missing, :-1], axis=1)

    def _intern(self, rows) -> np.ndarray:
        """Node ids of built rows: a row whose exact bytes already belong
        to a node is that node, and the others are appended once each."""
        index, start = self._index, self.size
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
        ids = np.array([index.setdefault(key, len(index)) for key in keys], dtype=np.intp)
        fresh, end = ids >= start, len(index)
        if end > len(self.amplitudes):
            grown = np.empty((end + end // 4, rows.shape[1]), dtype=complex)
            grown[:start] = self.amplitudes[:start]
            self.amplitudes = grown
        # a new node repeated in the batch writes equal bytes twice
        self.amplitudes[ids[fresh]] = rows[fresh]
        self.size = end
        return ids

    def probabilities(self, ids, projectors: ProjectorSet) -> np.ndarray:
        """|P_k psi|^2 for every branch of each id's node, a row per id."""
        level, keys = self._filled((projectors,), False, ids, None)
        return level.probs[keys]

    def draw(self, ids, sets, u, codes=None) -> np.ndarray:
        """Outcome index per row from its uniform ``u`` (``_inverse_cdf``):
        a row that drew a zero-probability branch raises RuntimeError,
        however often its node was measured before."""
        if not len(ids):
            return np.zeros(0, dtype=np.intp)
        level, keys = self._filled(sets, False, ids, codes)
        return _inverse_cdf(level.probs, level.cdf, keys, u)

    def descend(self, ids, sets, u, codes=None) -> tuple:
        """``draw``'s outcome per row, and the node id of its drawn
        outcome's post-measurement state: the drawn branch over the square
        root of the probability the draw used."""
        if not len(ids):
            return np.zeros(0, dtype=np.intp), ids
        level, keys = self._filled(sets, True, ids, codes)
        outcomes = _inverse_cdf(level.probs, level.cdf, keys, u)
        return outcomes, level.kids.ravel().take(keys * level.branches + outcomes)

    def children(self, ids, sets, outcomes, codes=None) -> np.ndarray:
        """Node id per row of the post-measurement state of a given
        outcome, as ``descend`` reaches it; -1 for an outcome that is not
        live."""
        level, keys = self._filled(sets, True, ids, codes)
        return level.kids.ravel().take(keys * level.branches + outcomes)

    def evolved(self, ids, operators: OperatorStack, picks) -> np.ndarray:
        """Node id per row of ``operators.stack[pick]`` applied to its node's
        state, which must stay normalized; every pick of a node is built
        when the node is first evolved."""
        return self.children(ids, [operators], picks)


def _branch_count(sets) -> int:
    return next(s for s in sets if s is not None).stack.shape[0]
