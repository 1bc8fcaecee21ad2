"""Entangled channel states, their verification checks, and the
stabilized-subspace uniqueness certificate.

A "channel" here is the shared entangled resource state itself.  Each
channel carries a fixed list of joint check measurements (one observable
per party, one expected product value); a clean channel satisfies every
check as an exact eigen-equation.  The uniqueness certificate shows the
check list pins the state completely: the joint eigenspace intersection
is one-dimensional, so any global state passing every check factorizes
as channel x environment and carries no eavesdropper correlations.

Each party count has one channel spec, built once by ``make_channel`` and
shared frozen: its amplitudes and its joint check matrices are read-only.
The check observables are real, so the joint check matrices are real.
The certificate splits its penalty matrix into the blocks that the checks'
nonzero entries link, and solves the blocks of each size by one batched
real symmetric eigensolve: the three-party sets give 8 blocks of 8 or 16
of 4 in place of one 64 x 64 problem.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import DIM, StateVector, state_from_amplitudes
from .observables import check_observable

CHECK_TOL = 1e-12
RANK_TOL = 1e-8
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class ChannelCheck:
    """One joint check: a named observable per party and the expected
    outcome product (+1 or -1)."""

    operators: tuple
    expected: int

    def __post_init__(self):
        # user-reachable input: checked by raising, since python -O strips asserts
        if self.expected not in (+1, -1):
            raise ValueError(f"expected outcome product must be +1 or -1, got {self.expected!r}")
        if not all(isinstance(n, str) for n in self.operators):
            raise ValueError(f"check operators must be observable names, got {self.operators!r}")

    @functools.cached_property
    def name(self) -> str:
        """The operator names joined by "_", built on the first read."""
        return "_".join(self.operators)

    def joint_matrix(self) -> np.ndarray:
        return _joint_matrix(self.operators)


@functools.lru_cache(maxsize=None)
def _joint_matrix(operators: tuple) -> np.ndarray:
    """The tensor product of the named observables, built once per tuple;
    real, since every check observable is, and read-only because every
    caller shares it."""
    out = functools.reduce(np.kron, (check_observable(name).matrix for name in operators))
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ChannelSpec:
    """A channel state together with its verification check list."""

    party_count: int
    state: StateVector
    checks: tuple

    def __post_init__(self):
        if self.party_count not in (2, 3):
            raise ValueError(f"a channel has 2 or 3 parties, got {self.party_count!r}")
        if self.state.num_ququarts != self.party_count:
            raise ValueError(
                f"{self.party_count} parties need {self.party_count} ququarts, "
                f"got {self.state.num_ququarts}"
            )
        for check in self.checks:
            if len(check.operators) != self.party_count:
                raise ValueError(f"check {check.name} needs one operator per party")


def two_party_channel() -> ChannelSpec:
    """The two-party channel state (|01> + |10> - |23> - |32>)/2 with its
    four checks."""
    amps = np.zeros(DIM**2, dtype=complex)
    amps[1] = 0.5    # |01>
    amps[4] = 0.5    # |10>
    amps[11] = -0.5  # |23>
    amps[14] = -0.5  # |32>
    checks = (
        ChannelCheck(("sx", "sx"), -1),
        ChannelCheck(("ux", "ux"), -1),
        ChannelCheck(("sz", "sz"), -1),
        ChannelCheck(("uz", "uz"), +1),
    )
    return ChannelSpec(2, StateVector(2, amps), checks)


THREE_PARTY_KETS = (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3, 3)


def three_party_channel() -> ChannelSpec:
    """The three-party channel state: equal weight 1/(2 sqrt 2) on the
    eight kets of THREE_PARTY_KETS, with its four checks."""
    amps = np.zeros(DIM**3, dtype=complex)
    for k, l, m in THREE_PARTY_KETS:
        amps[16 * k + 4 * l + m] = 1.0 / (2.0 * np.sqrt(2.0))
    checks = (
        ChannelCheck(("sx", "sx", "sx"), +1),
        ChannelCheck(("oz", "oz", "oz"), +1),
        ChannelCheck(("ex", "ex", "id"), +1),
        ChannelCheck(("id", "ex", "ex"), +1),
    )
    return ChannelSpec(3, StateVector(3, amps), checks)


@functools.cache
def make_channel(party_count: int) -> ChannelSpec:
    """The channel of 2 or 3 parties: one frozen spec per party count,
    built on the first call and shared by every caller."""
    if party_count == 2:
        return two_party_channel()
    if party_count == 3:
        return three_party_channel()
    raise ValueError(f"a channel has 2 or 3 parties, got {party_count!r}")


def corrupt_channel(spec: ChannelSpec, basis_index: int | None = None) -> ChannelSpec:
    """Negative control: flip the sign of one nonzero amplitude.

    The result keeps the original check list but is no longer an
    eigenstate of every check, so verification must flag it.  Default
    flips the last nonzero amplitude (|32> for two parties, |333> for
    three).
    """
    amps = np.array(spec.state.amplitudes, dtype=complex)
    nonzero = np.flatnonzero(np.abs(amps) > 0).tolist()
    if basis_index is None:
        basis_index = nonzero[-1]
    # user-reachable input: checked by raising, since python -O strips asserts
    is_index = isinstance(basis_index, (int, np.integer)) and not isinstance(basis_index, bool)
    if not (is_index and basis_index in nonzero):
        raise ValueError(
            f"basis index must be one of the nonzero amplitudes {nonzero}, got {basis_index!r}"
        )
    amps[basis_index] = -amps[basis_index]
    return ChannelSpec(spec.party_count, state_from_amplitudes(amps, spec.party_count), spec.checks)


def real_amplitudes(spec: ChannelSpec) -> np.ndarray:
    """The channel's amplitudes, as float64 when every imaginary part is
    exactly zero (every built-in and corrupted channel), else as they are;
    real amplitudes let the residuals and the attack oracle work in real
    arithmetic."""
    psi = spec.state.amplitudes
    return psi if psi.imag.any() else psi.real


def check_residuals(spec: ChannelSpec) -> dict[str, float]:
    """Per-check eigen-equation residuals ||O psi - expected psi||, in real
    arithmetic on a real channel (``real_amplitudes``)."""
    psi = real_amplitudes(spec)
    out = {}
    for check in spec.checks:
        op = check.joint_matrix()
        out[check.name] = float(np.linalg.norm(op @ psi - check.expected * psi))
    return out


@dataclass(frozen=True)
class SubspaceCertificate:
    """Orthonormal basis of the joint eigenspace intersection.

    dimension == 1 is the uniqueness statement: the constraint list
    admits a single state ray, so any global eigenstate of all checks is
    that ray tensored with an arbitrary environment state.
    """

    dimension: int
    basis: tuple
    residual: float

    def __post_init__(self):
        assert self.dimension == len(self.basis)
        assert self.residual < RESIDUAL_TOL, f"certificate residual too large: {self.residual}"
        if __debug__ and self.basis:  # asserts only: skipped under python -O
            rows = np.array([v.amplitudes for v in self.basis])
            gram = rows.conj() @ rows.T
            gram.flat[:: self.dimension + 1] -= 1.0
            assert np.abs(gram).max() < RESIDUAL_TOL, "basis not orthonormal"


def constraint_matrices(spec: ChannelSpec) -> list[tuple[np.ndarray, int]]:
    """The (joint check matrix, expected value) pairs of the channel's
    checks, in a new list on every call so a caller may edit it."""
    return [(c.joint_matrix(), c.expected) for c in spec.checks]


def stabilized_subspace(
    constraints: Sequence[tuple[np.ndarray, int]],
    dim: int,
) -> SubspaceCertificate:
    """Intersection of the expected eigenspaces of involution constraints.

    Each constraint is (operator, expected eigenvalue) with the operator a
    Hermitian involution on the dim-dimensional space, dim a power of 4.
    The subspace is the kernel of the positive semidefinite sum of the
    violating projectors, sum_i (I - expected_i*O_i)/2: a vector is
    annihilated by the sum exactly when every term annihilates it, i.e.
    when it lies in every expected eigenspace.  This needs no commutation,
    so it holds for the three-party check set, whose checks do not commute
    pairwise.

    The sum is solved block by block (``_blocks``, kept per nonzero
    pattern).  Two indices share a block when a chain of nonzero
    constraint entries links them, so every constraint, and the sum with
    them, is block-diagonal up to a permutation.  The sum's spectrum is
    then the union of its blocks' spectra, split at the 1e-8 rank
    threshold as a whole.  The built-in check sets split into blocks of
    2, 4 or 8 indices.  The blocks of one size are solved by one batched
    Hermitian eigendecomposition, and the basis lists the kernel vectors
    block by block: smaller blocks first, blocks of one size by their
    smallest index, and within a block by ascending eigenvalue.  The
    blocks take their dtype from the constraints, so real constraints
    (the built-in checks) get LAPACK's real symmetric solver and complex
    ones the complex Hermitian solver.

    dim is checked first, and then every constraint on every call, by
    raising ValueError so the checks hold under ``python -O``: each
    constraint's shape and expected value, and then, on the stacked
    blocks of each size, that every constraint is Hermitian and then an
    involution.  Off the blocks a constraint is exactly 0, so its
    Hermitian check there is exact; and a Hermitian constraint has no
    infinite or NaN entry, so off the blocks O @ O is exactly 0 too.

    Returns a certificate whose basis residual is re-verified against the
    raw constraints in one stacked product, independent of the algebra
    above.
    """
    num_ququarts = _num_ququarts(dim)
    for op, expected in constraints:
        if expected not in (+1, -1):
            raise ValueError(f"expected eigenvalue must be +1 or -1, got {expected!r}")
        if op.shape != (dim, dim):
            raise ValueError(f"constraint must be {(dim, dim)}, got {op.shape}")
    ops = np.array([op for op, _ in constraints]).reshape(-1, dim, dim)
    # the basis is real for real, integer or no constraints, complex for complex ones
    dtype = np.result_type(float, ops)
    expected = np.array([e for _, e in constraints], dtype=float)

    rows, vectors = [], []
    for idx in _blocks(ops):
        size = idx.shape[1]
        block_ops = ops[:, idx[:, :, None], idx[:, None, :]]
        eye = np.eye(size)
        # written so that a NaN entry fails the checks too
        if not np.abs(block_ops - block_ops.conj().swapaxes(2, 3)).max(initial=0.0) < CHECK_TOL:
            raise ValueError("constraint not Hermitian")
        if not np.abs(block_ops @ block_ops - eye).max(initial=0.0) < CHECK_TOL:
            raise ValueError("constraint not an involution")
        violated = (expected @ block_ops.reshape(len(ops), idx.size * size)).reshape(-1, size, size)
        values, vecs = np.linalg.eigh((len(ops) * eye - violated) / 2)
        block, k = np.nonzero(values < RANK_TOL)
        rows.append(idx[block])
        vectors.append(vecs[block, :, k])

    # row j of the basis is the j-th kernel vector in _blocks' order
    count = sum(map(len, rows))
    basis = np.zeros((count, dim), dtype=dtype)
    at = 0
    for r, v in zip(rows, vectors):
        basis[np.arange(at, at + len(r))[:, None], r] = v
        at += len(r)
    columns = basis.T
    violation = ops @ columns - expected[:, None, None] * columns
    residual = float(np.sqrt((violation.conj() * violation).real.sum(axis=1).max(initial=0.0)))
    basis = tuple(StateVector(num_ququarts, v) for v in basis)
    return SubspaceCertificate(len(basis), basis, residual)


def _num_ququarts(dim) -> int:
    """The n with dim == 4**n, n >= 1; ValueError for any other dim."""
    if isinstance(dim, (int, np.integer)) and not isinstance(dim, bool):
        n = 1
        while DIM**n < dim:
            n += 1
        if DIM**n == dim:
            return n
    raise ValueError(f"dim must be a power of 4 (4, 16, 64, ...), got {dim!r}")


def _blocks(ops: np.ndarray) -> tuple:
    """The blocks of the constraints' joint nonzero pattern, as one (m, s)
    index array per block size s, smallest s first: its m blocks in the
    order of their smallest index, each an ascending row of s indices.  An
    entry and its transpose link the same two indices, so a constraint
    that is not Hermitian keeps its nonzero entries in its blocks too."""
    pattern = ops.any(axis=0)
    return _linked_blocks((pattern | pattern.T).tobytes(), ops.shape[1])


@functools.lru_cache(maxsize=32)
def _linked_blocks(links: bytes, dim: int) -> tuple:
    """``_blocks`` of a symmetric link relation, given as the bytes of a
    (dim, dim) bool array.  The blocks depend on the pattern alone, and a
    check set is certified again and again (drop-one sets, repeated
    verification), so they are kept per pattern; the arrays are read-only
    because every caller shares them."""
    reach = np.frombuffer(links, dtype=bool).reshape(dim, dim) | np.eye(dim, dtype=bool)
    # square the relation until it is closed: after t squarings it holds
    # every chain of up to 2**t links.  The symmetric relation is closed
    # once each index's row equals the row of its smallest related index.
    while True:
        first = reach.argmax(axis=1)
        if (reach[first] == reach).all():
            break
        step = reach.astype(np.float32)
        reach = step @ step > 0
    size = np.bincount(first)[first]
    order = np.lexsort((first, size))  # by block size, then by block; stable
    size = size[order]
    blocks = tuple(order[size == s].reshape(-1, s) for s in sorted(set(size.tolist())))
    for idx in blocks:
        idx.setflags(write=False)
    return blocks
