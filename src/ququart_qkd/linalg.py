"""Dense complex linear algebra over registers of four-level systems.

Everything here is small and exact-friendly: states live on 4**n amplitudes
(n <= 4 in practice), operators are plain numpy matrices, and projective
measurement draws from an explicit seeded generator so runs replay
bit-for-bit.  A measurement is a ``ProjectorSet``: its projectors are
stacked once and their completeness is checked once, when the set is
built, so a draw is one stacked product and no identity sum.

A protocol phase measures the same few states with the same few sets
thousands of times, so it walks a branch tree of ``Node`` objects, where a
draw on a visited node is one uniform and no matrix work;
``measure_projective`` is a one-shot walk on a fresh node.  A ``Tree``
samples such a tree one level at a time for all rounds at once, with
uniforms that ``RawWords`` replays from a PCG64 generator's raw words, so
its draws equal the per-round calls.  Input a user can reach (state
shapes and norms, basis indices, positions) is checked by raising
``ValueError``, so the checks hold under ``python -O``.

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
    """Pure state of ``num_ququarts`` four-level systems.

    Amplitudes are stored as a read-only complex vector of length
    4**num_ququarts.  Unnormalized vectors are only legal when flagged
    explicitly (the subspace solver and raw operator application need
    them); every protocol-facing state is normalized.
    """

    num_ququarts: int
    amplitudes: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        # user-reachable through ket and state_from_amplitudes: checked by
        # raising, since python -O strips asserts
        if self.num_ququarts < 1:
            raise ValueError("a state needs at least one ququart")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (DIM**self.num_ququarts,):
            raise ValueError(f"amplitude shape must be (4**n,), got {amps.shape}")
        if self.normalized:
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
        return StateVector(
            a.num_ququarts + b.num_ququarts,
            np.kron(a.amplitudes, b.amplitudes),
            normalized=a.normalized and b.normalized,
        )
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return np.kron(a, b)
    raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


def apply(op: np.ndarray, psi: StateVector) -> StateVector:
    """Matrix-vector product without renormalization.

    The result is flagged unnormalized unless its norm happens to be 1,
    so eigen-equation residuals can be formed without tripping the
    normalization invariant.
    """
    assert op.shape == (psi.dim, psi.dim), "operator/state dimension mismatch"
    out = op @ psi.amplitudes
    nrm2 = float(np.vdot(out, out).real)
    return StateVector(psi.num_ququarts, out, normalized=abs(nrm2 - 1.0) < NORM_TOL)


def inner(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b>, conjugate-linear in the first argument."""
    assert a.dim == b.dim, "dimension mismatch"
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def embed(local: np.ndarray, position: int, num_ququarts: int) -> np.ndarray:
    """Lift a single-ququart operator to the full register.

    Returns I x ... x local x ... x I with ``local`` acting on the ququart
    at ``position`` (0 = most significant).
    """
    assert local.shape == (DIM, DIM)
    if not 0 <= position < num_ququarts:
        raise ValueError(f"position {position} out of range for {num_ququarts} ququarts")
    out = np.eye(1, dtype=complex)
    for slot in range(num_ququarts):
        out = np.kron(out, local if slot == position else np.eye(DIM, dtype=complex))
    return out


def draw_index(probs: Sequence[float], rng: np.random.Generator) -> int:
    """Inverse-CDF draw of an index with the given probabilities from a
    single uniform; a uniform above the rounded total falls to the last
    index."""
    u = rng.random()
    acc = 0.0
    for k, pk in enumerate(probs):
        acc += pk
        if u < acc:
            return k
    return len(probs) - 1


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
class ProjectorSet:
    """A complete projective measurement: a read-only (k, d, d) complex
    stack of projectors.  Its shape and completeness (a sum within
    COMPLETENESS_TOL of the identity) are checked once, here, by raising
    ValueError, so they hold under ``python -O``."""

    stack: np.ndarray

    def __post_init__(self):
        stack = np.array(self.stack, dtype=complex)
        if stack.ndim != 3 or stack.shape[0] < 1 or stack.shape[1] != stack.shape[2]:
            raise ValueError(f"projectors must stack to (k, d, d), got {stack.shape}")
        # written so that a NaN entry fails the check too
        if not np.max(np.abs(stack.sum(axis=0) - np.eye(stack.shape[1]))) < COMPLETENESS_TOL:
            raise ValueError("projectors do not sum to identity")
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)


class Node:
    """One state of a phase's branch tree.

    A node computes its branch probabilities once per ``ProjectorSet`` and
    builds a drawn branch's node on first use, so a phase measures each
    (state, projector set) pair once, however often its rounds revisit it.
    Only probabilities are kept, never branch stacks, and a tree lives for
    one phase.
    """

    __slots__ = ("state", "_probs", "_next")

    def __init__(self, state: StateVector):
        self.state = state
        self._probs = {}  # ProjectorSet -> branch probabilities
        self._next = {}  # (ProjectorSet, outcome) or a caller's key -> Node

    def probabilities(self, projectors: ProjectorSet) -> list:
        """|P_k psi|^2 for every branch, from one stacked product."""
        probs = self._probs.get(projectors)
        if probs is None:
            branches = projectors.stack @ self.state.amplitudes
            # the squared real and imaginary parts of each branch, summed
            probs = self._probs[projectors] = np.square(branches.view(float)).sum(axis=1).tolist()
        return probs

    def draw(self, projectors: ProjectorSet, rng: np.random.Generator) -> int:
        """Outcome index of one measurement, drawn from a single uniform."""
        probs = self.probabilities(projectors)
        outcome = draw_index(probs, rng)
        if math.sqrt(probs[outcome]) < 1e-9:
            # zero-probability branch cannot be drawn from a complete set
            raise RuntimeError("sampled a zero-probability measurement branch")
        return outcome

    def child(self, projectors: ProjectorSet, outcome: int) -> Node:
        """The node of outcome's normalized post-measurement state."""
        node = self._next.get((projectors, outcome))
        if node is None:
            # the same matrix-vector product as that branch's row of the
            # stacked product in ``probabilities``, so the same bits
            branch = projectors.stack[outcome] @ self.state.amplitudes
            nrm = math.sqrt(self.probabilities(projectors)[outcome])
            node = Node(StateVector(self.state.num_ququarts, branch / nrm))
            self._next[projectors, outcome] = node
        return node

    def evolved(self, key, unitary: np.ndarray) -> Node:
        """The node of ``unitary @ state``, kept under ``key``, which must
        not be a (ProjectorSet, outcome) pair."""
        node = self._next.get(key)
        if node is None:
            amps = unitary @ self.state.amplitudes
            node = self._next[key] = Node(StateVector(self.state.num_ququarts, amps))
        return node


def measure_projective(
    psi: StateVector,
    projectors: ProjectorSet | Sequence[np.ndarray],
    rng: np.random.Generator,
) -> MeasurementResult:
    """Sample one outcome of a complete projective measurement.

    A one-shot walk on a fresh ``Node``: outcome k is drawn with
    probability |P_k psi|^2 by inverse-CDF on a single uniform draw, so the
    sequence of results is a pure function of the generator state, and
    the drawn branch, normalized, is the post-measurement state.
    Completeness is checked once per ``ProjectorSet``; a plain sequence of
    projectors is wrapped, and so checked, on every call.
    """
    if not isinstance(projectors, ProjectorSet):
        projectors = ProjectorSet(projectors)
    node = Node(psi)
    outcome = node.draw(projectors, rng)
    return MeasurementResult(
        outcome, node.probabilities(projectors)[outcome], node.child(projectors, outcome).state
    )


class Tree:
    """A phase's branch tree, sampled one level at a time for all rounds.

    Rows are rounds, each at a node, named by its id (``nodes[id]``).  A
    level measures each row's node with a projector set, picked per row by
    a code into ``sets`` (``sets[0]`` without codes), and moves rows to the
    nodes they reach.  A None set is the identity slot: it reads outcome 0
    and keeps the node.  Only the (node, set) pairs and the children that
    some row reaches are computed, so the tree grows exactly as a walk of
    the same rounds grows it.  The sets of one level have equal branch
    counts.
    """

    def __init__(self, root: Node):
        self.nodes = [root]
        self._ids = {root: 0}

    def _id(self, node: Node) -> int:
        index = self._ids.get(node)
        if index is None:
            index = self._ids[node] = len(self.nodes)
            self.nodes.append(node)
        return index

    def draw(self, ids, sets, u, codes=None) -> np.ndarray:
        """Outcome index per row from its uniform ``u``: the count of the
        cumulative probabilities below the last that are at or below it.
        That is ``draw_index``'s rule, fall-through to the last index
        included, and ``cumsum`` adds in the same order.  A row that drew
        a zero-probability branch raises RuntimeError."""
        if not len(ids):
            return np.zeros(0, dtype=np.intp)
        width = len(sets)
        keys = ids if codes is None else ids * width + codes
        present = np.bincount(keys).nonzero()[0]
        certain = [1.0] + [0.0] * (_branch_count(sets) - 1)  # the identity slot
        laws = np.array(
            [
                certain if sets[key % width] is None
                else self.nodes[key // width].probabilities(sets[key % width])
                for key in present.tolist()
            ]
        )
        group = np.searchsorted(present, keys)
        cums = np.cumsum(laws[:, :-1], axis=1)[group]
        outcomes = np.zeros(len(keys), dtype=np.intp)
        for column in cums.T:
            outcomes += u >= column
        # sqrt is monotone, so the least drawn probability decides
        if math.sqrt(laws[group, outcomes].min()) < 1e-9:
            # zero-probability branch cannot be drawn from a complete set
            raise RuntimeError("sampled a zero-probability measurement branch")
        return outcomes

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
        for key in counts.nonzero()[0].tolist():
            pair, outcome = divmod(key, branches)
            projectors = sets[pair % width]
            if projectors is not None:
                table[key] = self._id(self.nodes[pair // width].child(projectors, outcome))
        return table[keys]

    def evolved(self, ids, picks, keys, unitaries) -> np.ndarray:
        """Node id per row of ``unitaries[pick] @ state``, kept on the node
        under ``keys[pick]`` (``Node.evolved``)."""
        if not len(ids):
            return ids
        width = len(keys)
        rows = ids * width + picks
        table = np.zeros(rows.max() + 1, dtype=np.intp)
        for key in np.bincount(rows).nonzero()[0].tolist():
            node, pick = divmod(key, width)
            table[key] = self._id(self.nodes[node].evolved(keys[pick], unitaries[pick]))
        return table[rows]


def _branch_count(sets) -> int:
    return next(s for s in sets if s is not None).stack.shape[0]
