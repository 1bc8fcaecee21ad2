"""Dense complex linear algebra over registers of four-level systems.

Everything here is small and exact-friendly: states are normalized and
live on 4**n amplitudes (n <= 4 in practice), operators are plain numpy
matrices, and projective measurement draws from an explicit seeded
generator, so a seed fixes every result.  An ``OperatorStack`` is a
read-only stack of 4x4 operators on one ququart, named by its position,
or of full-register operators at position 0.  ``apply_stacked`` applies
all of a stack's k operators to a batch of state rows by one ``matmul``
of the stack folded into a (k*4, 4) operator, and ``apply_at`` one
operator per row; both contract only the acted-on axis, so no register
operator is built, and both give the same bytes.  A measurement is a
``ProjectorSet``: a stack whose completeness is checked once, when the
set is built, so a draw is one stacked product and no identity sum.

A protocol phase measures the same few states with the same few sets
thousands of times, so it samples a branch tree (``Tree``): its nodes are
the distinct states, one row each of one amplitude array (a built state
equal in bytes to a node is that node), and per level it keeps tables of
branch probabilities, their cumulative law and child ids, so each (state,
set) pair is computed once.  A tree may outlive its phase: attack-free
phases on the built-in channels share one per party count for the life of
the process (``protocol``), while attacked and corrupt-channel phases
build their own.  A tree is sampled one level at a time for all rounds at
once, by one inverse-CDF rule on a column of uniforms, one per row.  A
level computes its missing rows by one stacked product per set
(``apply_stacked``), and the call that draws from them cuts each drawn
child from the same product (``Tree.descend``).  ``measure_projective``
is one row of such a level, by the same rule and product.  Input a user
can reach (state shapes and norms, operator shapes, positions) is checked
by raising ``ValueError``, so the checks hold under ``python -O``.

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
    so it holds under ``python -O``; ``apply_at`` checks that a register
    holds it."""

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


def apply_at(stack: np.ndarray, position: int, rows: np.ndarray) -> np.ndarray:
    """A (..., d, d) operator stack acting at ``position`` on (..., n) state
    rows, leading axes broadcast.  Each row is viewed as a (4**position, d,
    rest) array, so one ``matmul`` contracts the acted-on axis and no
    register operator is built.  A tree builds by it the rows no fill of
    the same call computed: evolved rows and children of rows filled
    earlier (``Tree._build``)."""
    d, n = stack.shape[-1], rows.shape[-1]
    before, after = _around(position, d, n)
    out = np.matmul(stack[..., None, :, :], rows.reshape(*rows.shape[:-1], before, d, after))
    return out.reshape(*out.shape[:-3], n)


def apply_stacked(stack: np.ndarray, position: int, rows: np.ndarray) -> np.ndarray:
    """Every operator of a (k, d, d) stack acting at ``position`` on each
    of (m, n) state rows, as an (m, k, n) array of branches.  The stack is
    folded into one (k*d, d) operator, so each row slice costs one
    ``matmul`` for all k operators; each entry is the same sum of products
    as ``apply_at``'s, so the bytes are equal."""
    k, d = stack.shape[:2]
    m, n = rows.shape
    before, after = _around(position, d, n)
    out = np.matmul(stack.reshape(k * d, d), rows.reshape(m, before, d, after))
    return out.reshape(m, before, k, d, after).swapaxes(1, 2).reshape(m, k, n)


def _around(position: int, d: int, n: int) -> tuple:
    """The sizes of the axes before and after a (d, d) operator's at
    ``position`` in a row of n amplitudes."""
    before = DIM**position
    after = n // (before * d)
    if before * d * after != n:
        raise ValueError(f"a ({d}, {d}) operator at position {position} does not act on dimension {n}")
    return before, after


def measure_projective(
    psi: StateVector,
    projectors: ProjectorSet | Sequence[np.ndarray],
    rng: np.random.Generator,
) -> MeasurementResult:
    """Sample one outcome of a complete projective measurement.

    A one-row tree level, by ``Tree.draw``'s inverse-CDF rule on the
    tree's product (``apply_at``): outcome k is drawn with probability
    |P_k psi|^2 on a single uniform draw, so the sequence of results is a
    pure function of the generator state, and the drawn branch,
    normalized, is the post-measurement state.  No ``Tree`` is built,
    since a one-off measurement never reuses its tables.  Completeness is
    checked once per ``ProjectorSet``; a plain sequence of projectors is
    wrapped, and so checked, on every call.
    """
    if not isinstance(projectors, ProjectorSet):
        projectors = ProjectorSet(projectors)
    branches = apply_stacked(projectors.stack, projectors.position, psi.amplitudes[None])[0]
    # the squared real and imaginary parts of each branch, summed
    law = np.square(branches.view(float)).sum(axis=-1)[None]
    k = int(_inverse_cdf(law, np.cumsum(law[:, :-1], axis=1), _ONE_ROW, rng.random(1))[0])
    p = float(law[0, k])
    return MeasurementResult(k, p, StateVector(psi.num_ququarts, branches[k] / math.sqrt(p)))


_ONE_ROW = np.zeros(1, dtype=np.intp)
_ONE_ROW.setflags(write=False)


def _inverse_cdf(laws, cdf, keys, u) -> np.ndarray:
    """Outcome per row from its uniform ``u`` and its law ``laws[key]``,
    whose cumulative probabilities below the last branch are
    ``cdf[key]``: the count of those at or below ``u``.  That is the first
    branch whose running sum exceeds ``u``, with a uniform above the
    rounded total falling through to the last branch.  A row that drew a
    zero-probability branch raises RuntimeError."""
    outcomes = np.zeros(len(u), dtype=np.intp)
    for column in cdf.take(keys, axis=0).T:
        outcomes += u >= column
    # sqrt is monotone, so the least drawn probability decides
    if math.sqrt(laws.ravel().take(keys * laws.shape[1] + outcomes).min()) < 1e-9:
        # zero-probability branch cannot be drawn from a complete set
        raise RuntimeError("sampled a zero-probability measurement branch")
    return outcomes


class _Level:
    """One level's tables (``Tree``), a row per key ``node * width + code``:
    branch probabilities (NaN until filled), their cumulative law below the
    last branch, and child ids (-1 until built); grown from ``old``.  A row
    is filled from its set's stacked product, and a child is cut from that
    product when the same call draws it, else built by ``apply_at``."""

    def __init__(self, sets: tuple, nodes: int, old=None):
        self.sets, self.width, self.branches = sets, len(sets), _branch_count(sets)
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
    a node.  A level is the tuple of sets one ``draw``, ``descend``,
    ``children`` or ``evolved`` call uses (a party's menu of sign sets, a key set, an
    attack readout, a shift stack), picked per row by a code (``sets[0]``
    without codes); they have equal branch counts.  A None set is the
    identity slot: it reads outcome 0 and keeps the node.  Per level the
    tree keeps a (node x code) table of branch probabilities and their
    cumulative law, filled once per row, and a (node x code x branch)
    table of child ids, the identity slot's being its node (``_Level``).
    So a call on filled rows is a gather.  The missing rows that some row
    reaches are computed in one stacked product per set (``_fill``), and
    ``descend`` cuts each drawn child from that product, over the square
    root of the probability the draw used; only evolved rows and children
    of rows filled in an earlier call are built by a product of their own
    (``_build``).  So the tree never holds more rows than a walk of the
    same rounds builds; a built row equal in bytes to an existing node
    reuses its id, so no two rows are equal and a node may have several
    parents.
    """

    def __init__(self, root: StateVector):
        self.root = root
        self.amplitudes = np.empty((16, root.dim), dtype=complex)
        self.amplitudes[0] = root.amplitudes
        self.size = 1
        self._index = {self.amplitudes[0].tobytes(): 0}  # row bytes -> node id
        self._levels = {}  # tuple of sets -> _Level

    def state(self, node: int) -> StateVector:
        """The normalized state of a node; the root is the one given.  An
        id outside ``[0, size)`` raises IndexError."""
        if not 0 <= node < self.size:
            raise IndexError(f"no node {node} in a tree of {self.size} nodes")
        if node == 0:
            return self.root
        return StateVector(self.root.num_ququarts, self.amplitudes[node].copy())

    def _level(self, sets) -> _Level:
        """The level of ``sets``, with rows for every node the amplitude
        array has room for: made, or grown after the array grew."""
        sets = tuple(sets)
        level = self._levels.get(sets)
        if level is None or len(level.kids) < len(self.amplitudes) * level.width:
            level = self._levels[sets] = _Level(sets, len(self.amplitudes), level)
        return level

    def _fill(self, level: _Level, keys):
        """Fill the level's rows of ``keys`` that are not yet filled: a
        set's from one stacked product (``apply_stacked``), the identity
        slot's as a sure outcome 0 whose child is the node itself.  Returns
        the branches it computed, per code: (the code's filled keys,
        ascending; their (key, branch, amplitude) array), from which the
        same call's children are cut."""
        missing = keys[np.isnan(level.probs[:, 0].take(keys))]
        fresh = {}
        if not len(missing):
            return fresh
        # distinct and sorted; np.unique would import numpy.ma on first use
        missing = np.flatnonzero(np.bincount(missing))
        nodes, codes = np.divmod(missing, level.width)
        for code in np.flatnonzero(np.bincount(codes)).tolist():
            rows, at = missing[codes == code], nodes[codes == code]
            projectors = level.sets[code]
            if projectors is None:
                level.probs[rows] = 0.0
                level.probs[rows, 0] = 1.0
                level.kids[rows] = at[:, None]
                continue
            branches = apply_stacked(projectors.stack, projectors.position, self.amplitudes[at])
            # the squared real and imaginary parts of each branch, summed
            level.probs[rows] = np.square(branches.view(float)).sum(axis=-1)
            fresh[code] = rows, branches
        level.cdf[missing] = np.cumsum(level.probs[missing, :-1], axis=1)
        return fresh

    def probabilities(self, ids, projectors: ProjectorSet) -> np.ndarray:
        """|P_k psi|^2 for every branch of each id's node, a row per id."""
        level = self._level((projectors,))
        self._fill(level, ids)
        return level.probs[ids]

    def _kids(self, level: _Level, slots, normalized: bool, needed, fresh: dict) -> np.ndarray:
        """Child id of each slot ``key * branches + pick``: the set's
        ``stack[pick]`` applied to the key's node, over the branch's norm
        if ``normalized`` (the key filled).  Missing children are built
        where the boolean mask ``needed`` (all, if None) says, and read -1
        elsewhere; ``fresh`` holds the branches the call's fill computed
        (``_fill``, ``_rows``)."""
        kids = level.kids.ravel()
        found = kids.take(slots)
        unbuilt = found < 0
        if needed is not None:
            unbuilt &= needed
        if not unbuilt.any():
            return found
        build = np.flatnonzero(np.bincount(slots[unbuilt]))
        keys, picks = np.divmod(build, level.branches)
        codes = keys % level.width
        for code in np.flatnonzero(np.bincount(codes)).tolist():
            at = codes == code
            these = build[at]
            rows = self._rows(level.sets[code], keys[at], picks[at], level.width, fresh.get(code))
            if normalized:
                # the same product as that branch's probability, so the same bits
                rows /= np.sqrt(level.probs.ravel()[these])[:, None]
            kids[these] = self._intern(rows)
        return kids.take(slots)

    def _rows(self, ops: OperatorStack, keys, picks, width: int, fresh) -> np.ndarray:
        """``ops.stack[pick]`` applied to each key's node: cut from
        ``fresh``, this call's (filled keys, branches) of the set
        (``_fill``), where it holds the key, and built by ``_build``
        elsewhere."""
        if fresh is None:
            return self._build(ops, keys // width, picks)
        filled, branches = fresh
        at = np.minimum(np.searchsorted(filled, keys), len(filled) - 1)
        cut = filled[at] == keys
        if cut.all():
            return branches[at, picks]
        rows = np.empty((len(keys), branches.shape[2]), dtype=complex)
        rows[cut] = branches[at[cut], picks[cut]]
        rows[~cut] = self._build(ops, keys[~cut] // width, picks[~cut])
        return rows

    def _build(self, ops: OperatorStack, nodes, picks) -> np.ndarray:
        """``ops.stack[pick]`` applied to each node's state, by one
        ``apply_at`` product."""
        return apply_at(ops.stack[picks], ops.position, self.amplitudes[nodes])

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

    def _drawn(self, ids, sets, u, codes):
        """The level, keys, fresh branches (``_fill``) and outcomes of a
        ``draw``."""
        level = self._level(sets)
        keys = ids if codes is None else ids * level.width + codes
        fresh = self._fill(level, keys)
        return level, keys, fresh, _inverse_cdf(level.probs, level.cdf, keys, u)

    def draw(self, ids, sets, u, codes=None) -> np.ndarray:
        """Outcome index per row from its uniform ``u`` (``_inverse_cdf``):
        a row that drew a zero-probability branch raises RuntimeError,
        however often its node was measured before."""
        if not len(ids):
            return np.zeros(0, dtype=np.intp)
        return self._drawn(ids, sets, u, codes)[3]

    def descend(self, ids, sets, u, codes=None, needed=None) -> tuple:
        """``draw``'s outcome per row, and the node id of its drawn
        outcome's post-measurement state: the drawn branch over the square
        root of the probability the draw used.  A branch this call's fill
        computed is cut from that product; the others are built once, by
        ``_build``.  Rows outside the boolean mask ``needed`` keep their
        node, and their children are not built."""
        if not len(ids):
            return np.zeros(0, dtype=np.intp), ids
        level, keys, fresh, outcomes = self._drawn(ids, sets, u, codes)
        kids = self._kids(level, keys * level.branches + outcomes, True, needed, fresh)
        return outcomes, (kids if needed is None else np.where(needed, kids, ids))

    def children(self, ids, sets, outcomes, codes=None, needed=None) -> np.ndarray:
        """Node id per row of the post-measurement state of a given
        outcome, as ``descend`` builds it.  Rows outside the boolean mask
        ``needed`` keep their node, and their children are not built."""
        level = self._level(sets)
        keys = ids if codes is None else ids * level.width + codes
        fresh = self._fill(level, keys if needed is None else keys[needed])
        kids = self._kids(level, keys * level.branches + outcomes, True, needed, fresh)
        return kids if needed is None else np.where(needed, kids, ids)

    def evolved(self, ids, operators: OperatorStack, picks) -> np.ndarray:
        """Node id per row of ``operators.stack[pick]`` applied to its node's
        state, which must stay normalized; built once per (node, pick)."""
        level = self._level((operators,))
        return self._kids(level, ids * level.branches + picks, False, None, {})


def _branch_count(sets) -> int:
    return next(s for s in sets if s is not None).stack.shape[0]
