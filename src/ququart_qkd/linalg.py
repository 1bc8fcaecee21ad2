"""Dense complex linear algebra over registers of four-level systems.

Everything here is small and exact-friendly: states are normalized and
live on 4**n amplitudes (n <= 4 in practice), operators are plain numpy
matrices, and projective measurement draws from an explicit seeded
generator so runs replay bit-for-bit.  An ``OperatorStack`` is a read-only stack of 4x4 operators
on one ququart, named by its position, or of full-register operators at
position 0; ``apply_at`` applies it to a batch of state rows by one
``matmul`` over the acted-on axis, so no register operator is built
(``embed`` builds one, for references and tests).  A measurement is a
``ProjectorSet``: a stack whose completeness is checked once, when the set
is built, so a draw is one stacked product and no identity sum.

A protocol phase measures the same few states with the same few sets
thousands of times, so it samples a branch tree (``Tree``): its nodes are
rows of one amplitude array, and per stack it keeps a table of branch
probabilities and of child ids, so each (state, stack) pair is computed
once.  A tree is sampled one level at a time for all rounds at once, by
one inverse-CDF rule, and a level computes its missing rows of one stack
in batched products.  ``measure_projective`` is one row of such a level,
by the same rule and product.  The uniforms are a stream's bulk draws,
or ``RawWords`` replays them from a PCG64 generator's raw words, so the
draws equal per-round calls.  Input a user can reach (state shapes and
norms, operator and local shapes, basis indices, positions) is checked
by raising ``ValueError``, so the checks hold under ``python -O``.

Basis convention: the most significant ququart comes first, so the basis
ket |k l m> of a three-ququart register sits at index 16*k + 4*l + m.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DIM = 4

NORM_TOL = 1e-12
COMPLETENESS_TOL = 1e-10

# glibc's malloc maps requests of 128 KiB or more directly; freeing a
# mapped block raises that threshold to the block's size and lets the
# heap keep up to twice as much freed memory resident.  So a tree
# batches its products in chunks of at most MAP_BYTES per array, and maps
# an amplitude array of MAP_BYTES or more itself, unmapping it when the
# array is dropped.
MAP_BYTES = 1 << 17


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
        # user-reachable through ket and state_from_amplitudes: checked by
        # raising, since python -O strips asserts
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


def ket(index: int, num_ququarts: int = 1) -> StateVector:
    """Computational basis state |index> on the given register size."""
    if not 0 <= index < DIM**num_ququarts:
        raise ValueError(f"basis index {index} out of range for {num_ququarts} ququarts")
    amps = np.zeros(DIM**num_ququarts, dtype=complex)
    amps[index] = 1.0
    return StateVector(num_ququarts, amps)


def state_from_amplitudes(amplitudes: Sequence[complex], num_ququarts: int) -> StateVector:
    amps = np.asarray(amplitudes, dtype=complex)
    return StateVector(num_ququarts, amps / np.linalg.norm(amps))


def tensor(a, b):
    """Kronecker product with ``a`` as the more significant factor.

    Accepts two StateVectors or two operator matrices; mixing kinds is an
    error.  Matches the global index convention, e.g.
    tensor(|0>, |1>) = |01> (amplitude 1 at index 1).
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(a.num_ququarts + b.num_ququarts, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return np.kron(a, b)
    raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


def embed(local: np.ndarray, position: int, num_ququarts: int) -> np.ndarray:
    """Lift a single-ququart operator to the full register.

    Returns I x ... x local x ... x I with ``local`` acting on the ququart
    at ``position`` (0 = most significant).
    """
    if local.shape != (DIM, DIM):
        raise ValueError(f"a local operator must be (4, 4), got {local.shape}")
    if not 0 <= position < num_ququarts:
        raise ValueError(f"position {position} out of range for {num_ququarts} ququarts")
    out = np.eye(1, dtype=complex)
    for slot in range(num_ququarts):
        out = np.kron(out, local if slot == position else np.eye(DIM, dtype=complex))
    return out


def uniforms(words):
    """The ``random()`` value of each raw word: its top 53 bits times
    2**-53, exactly numpy's conversion."""
    return (words >> 11) * 2.0**-53


def halves(words) -> tuple:
    """The low and high 32-bit halves of each raw word."""
    return words & 0xFFFFFFFF, words >> 32


def quarter(half):
    """The ``integers(4)`` value of each 32-bit half-word: its top two bits."""
    return half >> 30


class RawWords:
    """The next ``count`` raw 64-bit words of a PCG64 generator, for
    replaying its scalar draws in bulk.

    numpy (2.4.6, pinned by the tests) makes ``random()`` from one full
    word (``uniforms``) and ``integers(4)`` from one 32-bit half-word
    (``halves``, ``quarter``): the buffered half if ``buffered``, else the
    low half of a fresh word, whose high half becomes the buffered ``half``.  A read
    clears ``buffered`` and leaves ``half`` as it was.  ``release`` gives
    back the words a replay did not use and writes the half-word buffer,
    so the generator goes on exactly as if the replayed calls had been
    made.
    """

    def __init__(self, rng: np.random.Generator, count: int):
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError(
                f"replayed draws need a PCG64 generator, got {type(bit_generator).__name__}"
            )
        state = bit_generator.state
        self.buffered = bool(state["has_uint32"])
        self.half = state["uinteger"]
        self.words = bit_generator.random_raw(count)
        self._bit_generator = bit_generator

    def release(self, used: int, half: int, buffered: bool):
        """Rewind past the first ``used`` words and set the buffer."""
        bit_generator = self._bit_generator
        # advancing clears the half-word buffer, which is then written back
        bit_generator.advance(int(used) - len(self.words))
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = int(buffered), int(half)
        bit_generator.state = state


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


def apply_at(stack: np.ndarray, position: int, rows: np.ndarray, out=None) -> np.ndarray:
    """A (..., d, d) operator stack acting at ``position`` on (..., n) state
    rows, leading axes broadcast, written to the (..., n) array ``out`` if
    given.  Each row is viewed as a (4**position, d, rest) array, so one
    ``matmul`` contracts the acted-on axis and no register operator is
    built."""
    d, n = stack.shape[-1], rows.shape[-1]
    before = DIM**position
    after = n // (before * d)
    if before * d * after != n:
        raise ValueError(f"a ({d}, {d}) operator at position {position} does not act on dimension {n}")
    if out is not None:
        out = out.reshape(*out.shape[:-1], before, d, after)
    out = np.matmul(stack[..., None, :, :], rows.reshape(*rows.shape[:-1], before, d, after), out=out)
    return out.reshape(*out.shape[:-3], n)


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
    branches = apply_at(projectors.stack, projectors.position, psi.amplitudes)
    # the squared real and imaginary parts of each branch, summed
    law = np.square(branches.view(float)).sum(axis=-1)[None]
    k = int(_inverse_cdf(law, _ONE_ROW, rng.random(1))[0])
    p = float(law[0, k])
    return MeasurementResult(k, p, StateVector(psi.num_ququarts, branches[k] / math.sqrt(p)))


_ONE_ROW = np.zeros(1, dtype=np.intp)
_ONE_ROW.setflags(write=False)


def _inverse_cdf(laws, group, u) -> np.ndarray:
    """Outcome per row from its uniform ``u`` and its law ``laws[group]``:
    the count of the cumulative probabilities below the last that are at
    or below ``u``.  That is the first branch whose running sum exceeds
    ``u``, with a uniform above the rounded total falling through to the
    last branch.  A row that drew a zero-probability branch raises
    RuntimeError."""
    outcomes = np.zeros(len(u), dtype=np.intp)
    for column in np.cumsum(laws[:, :-1], axis=1)[group].T:
        outcomes += u >= column
    # sqrt is monotone, so the least drawn probability decides
    if math.sqrt(laws[group, outcomes].min()) < 1e-9:
        # zero-probability branch cannot be drawn from a complete set
        raise RuntimeError("sampled a zero-probability measurement branch")
    return outcomes


class Tree:
    """A phase's branch tree, sampled one level at a time for all rounds.

    Nodes are the rows of one amplitude array (``amplitudes[:size]``),
    named by their row index; row 0 is the root.  Each ``OperatorStack``
    the tree meets gets a table of branch probabilities and a table of
    child ids, a row per node, so each (node, stack) pair is measured
    once and each child is built once, however often rounds revisit them.
    A level computes all its missing rows of one stack in batched products
    (``apply_at``) of at most MAP_BYTES per array.

    Rows are rounds, each at a node.  A level measures each row's node
    with a projector set, picked per row by a code into ``sets``
    (``sets[0]`` without codes), and moves rows to the nodes they reach.
    A None set is the identity slot: it reads outcome 0 and keeps the
    node.  Only the (node, set) pairs and the children that some row
    reaches are computed, so the tree grows exactly as a walk of the same
    rounds grows it.  The sets of one level have equal branch counts.
    """

    def __init__(self, root: StateVector):
        self.root = root
        self.amplitudes = _rows(16, root.dim)
        self.amplitudes[0] = root.amplitudes
        self.size = 1
        # per OperatorStack, (node, k) tables of branch probabilities and
        # of child ids, NaN and 0 where not yet computed (no child is the root)
        self._probs, self._kids = {}, {}

    def state(self, node: int) -> StateVector:
        """The normalized state of a node; the root is the one given."""
        if node == 0:
            return self.root
        return StateVector(self.root.num_ququarts, self.amplitudes[node].copy())

    def _table(self, tables: dict, ops: OperatorStack, dtype, blank) -> np.ndarray:
        """``ops``'s (node, k) table in ``tables``, ``blank`` where not yet
        computed, with a row for every node the amplitude array has room
        for: made, or grown, on first use after the array grew."""
        table = tables.get(ops)
        if table is None or len(table) < len(self.amplitudes):
            grown = np.empty((len(self.amplitudes), len(ops.stack)), dtype=dtype)
            grown.fill(blank)
            if table is not None:
                grown[: len(table)] = table
            table = tables[ops] = grown
        return table

    def probabilities(self, ids, projectors: ProjectorSet) -> np.ndarray:
        """|P_k psi|^2 for every branch of each id's node, a row per id; the
        missing rows come from batched products."""
        probs = self._table(self._probs, projectors, float, np.nan)
        missing = ids[np.isnan(probs[:, 0][ids])]
        step = max(1, MAP_BYTES // (len(projectors.stack) * self.amplitudes.shape[1] * 16))
        for at in range(0, len(missing), step):
            nodes = missing[at : at + step]
            branches = apply_at(projectors.stack[:, None], projectors.position, self.amplitudes[nodes])
            # the squared real and imaginary parts of each branch, summed;
            # squared in place, since the branches are not kept
            parts = branches.view(float)
            probs[nodes] = np.square(parts, out=parts).sum(axis=-1).T
        return probs[ids]

    def _children(self, ops: OperatorStack, keys, normalized: bool) -> np.ndarray:
        """Child id of each distinct (node, pick) pair, keyed ``node * k +
        pick``: ``ops.stack[pick]`` applied to the node's state, divided by
        the branch's norm if ``normalized``; the missing children come from
        batched products written straight into their new rows."""
        kids = self._table(self._kids, ops, np.intp, 0).ravel()
        found = kids[keys]
        unbuilt = np.flatnonzero(found == 0)
        if len(unbuilt):
            keys = keys[unbuilt]
            nodes, picks = np.divmod(keys, len(ops.stack))
            start, end = self.size, self.size + len(keys)
            if end > len(self.amplitudes):
                # grown by a quarter before the product, so that only the old
                # and the new array are held at once
                grown = _rows(end + end // 4, self.amplitudes.shape[1])
                grown[:start] = self.amplitudes[:start]
                self.amplitudes = grown
            rows = self.amplitudes[start:end]
            # a chunk gathers a state row and an operator per pair
            step = max(1, MAP_BYTES // (max(self.amplitudes.shape[1], ops.stack.shape[1] ** 2) * 16))
            for at in range(0, len(keys), step):
                part = slice(at, at + step)
                apply_at(ops.stack[picks[part]], ops.position, self.amplitudes[nodes[part]], out=rows[part])
                if normalized:
                    # the same product as that branch's probability, so the same bits
                    rows[part] /= np.sqrt(self._probs[ops].ravel()[keys[part]])[:, None]
            self.size = end
            found[unbuilt] = kids[keys] = np.arange(start, end)
        return found

    def draw(self, ids, sets, u, codes=None) -> np.ndarray:
        """Outcome index per row from its uniform ``u`` (``_inverse_cdf``):
        a row that drew a zero-probability branch raises RuntimeError,
        however often its node was measured before."""
        if not len(ids):
            return np.zeros(0, dtype=np.intp)
        width = len(sets)
        keys = ids if codes is None else ids * width + codes
        present = np.flatnonzero(np.bincount(keys))
        if width == 1:
            laws = self.probabilities(present, sets[0])
        else:
            nodes, picks = np.divmod(present, width)
            laws = np.zeros((len(present), _branch_count(sets)))
            # the codes in use; np.unique would import numpy.ma on first use
            for code in np.flatnonzero(np.bincount(picks)).tolist():
                rows = picks == code
                if sets[code] is None:
                    laws[rows, 0] = 1.0  # the identity slot
                else:
                    laws[rows] = self.probabilities(nodes[rows], sets[code])
        return _inverse_cdf(laws, np.searchsorted(present, keys), u)

    def children(self, ids, sets, outcomes, codes=None, needed=None) -> np.ndarray:
        """Node id per row of its drawn outcome's post-measurement state.
        Rows outside the boolean mask ``needed`` keep their node, and
        their children are not built."""
        if not len(ids):
            return ids
        width, branches = len(sets), _branch_count(sets)
        keys = (ids if codes is None else ids * width + codes) * branches + outcomes
        counts = np.bincount(keys, weights=needed)
        table = np.arange(len(counts)) // (width * branches)  # the row's own node
        present = np.flatnonzero(counts)
        if width == 1:
            table[present] = self._children(sets[0], present, True)
            return table[keys]
        pairs, picks = np.divmod(present, branches)
        nodes, codes = np.divmod(pairs, width)
        for code in np.flatnonzero(np.bincount(codes)).tolist():
            if sets[code] is not None:
                rows = codes == code
                table[present[rows]] = self._children(sets[code], nodes[rows] * branches + picks[rows], True)
        return table[keys]

    def evolved(self, ids, operators: OperatorStack, picks) -> np.ndarray:
        """Node id per row of ``operators.stack[pick]`` applied to its node's
        state, which must stay normalized; built once per (node, pick)."""
        if not len(ids):
            return ids
        keys = ids * len(operators.stack) + picks
        table = np.zeros(keys.max() + 1, dtype=np.intp)
        present = np.flatnonzero(np.bincount(keys))
        table[present] = self._children(operators, present, False)
        return table[keys]


def _rows(count: int, dim: int) -> np.ndarray:
    """An uninitialised (count, dim) complex array, in its own anonymous
    memory map from MAP_BYTES on."""
    size = count * dim * 16  # complex128
    if size < MAP_BYTES:
        return np.empty((count, dim), dtype=complex)
    return np.frombuffer(mmap.mmap(-1, size), dtype=complex).reshape(count, dim)


def _branch_count(sets) -> int:
    return next(s for s in sets if s is not None).stack.shape[0]
