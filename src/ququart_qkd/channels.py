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
The check observables are real, so the joint check matrices are real and
the certificate is one real symmetric eigensolve.
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

    @property
    def name(self) -> str:
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


def make_channel(party_count: int) -> ChannelSpec:
    """The channel of 2 or 3 parties: one frozen spec per party count,
    shared by every caller."""
    if party_count not in (2, 3):
        raise ValueError(f"a channel has 2 or 3 parties, got {party_count!r}")
    return _channel(party_count)


@functools.cache
def _channel(party_count: int) -> ChannelSpec:
    return two_party_channel() if party_count == 2 else three_party_channel()


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


def check_residuals(spec: ChannelSpec) -> dict[str, float]:
    """Per-check eigen-equation residuals ||O psi - expected psi||."""
    psi = spec.state.amplitudes
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
        for i, u in enumerate(self.basis):
            for j, v in enumerate(self.basis):
                want = 1.0 if i == j else 0.0
                assert abs(np.vdot(u.amplitudes, v.amplitudes) - want) < RESIDUAL_TOL


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
    Hermitian involution on the dim-dimensional space.  The subspace is
    the kernel of the positive semidefinite sum of the violating
    projectors, sum_i (I - expected_i*O_i)/2: a vector is annihilated by
    the sum exactly when every term annihilates it, i.e. when it lies in
    every expected eigenspace.  This needs no commutation, so it holds for
    the three-party check set, whose checks do not commute pairwise.  One
    Hermitian eigendecomposition splits the spectrum at the 1e-8 rank
    threshold.  The penalty takes its dtype from the constraints, so real
    constraints (the built-in checks) get LAPACK's real symmetric solver
    and complex ones the complex Hermitian solver.

    Every constraint is checked on every call, by raising ValueError so
    the checks hold under ``python -O``: its shape, its expected value,
    and that it is a Hermitian involution.

    Returns a certificate whose basis residual is re-verified against the
    raw constraints, independent of the algebra above.
    """
    eye = np.eye(dim)
    for op, expected in constraints:
        _check_constraint(op, expected, eye)

    # float first, so an empty constraint list gives a real penalty too
    penalty = np.zeros((dim, dim), dtype=np.result_type(float, *(op for op, _ in constraints)))
    for op, expected in constraints:
        penalty += (eye - expected * op) / 2
    values, vectors = np.linalg.eigh(penalty)
    dimension = int(np.sum(values < RANK_TOL))

    n = int(round(np.log(dim) / np.log(DIM)))
    basis = []
    residual = 0.0
    for k in range(dimension):
        vec = vectors[:, k]
        for op, expected in constraints:
            residual = max(residual, float(np.linalg.norm(op @ vec - expected * vec)))
        basis.append(StateVector(n, vec))
    return SubspaceCertificate(dimension, tuple(basis), residual)


def _check_constraint(op: np.ndarray, expected, eye: np.ndarray):
    """Raise ValueError unless ``op`` is a Hermitian involution of
    ``eye``'s shape and ``expected`` is +1 or -1."""
    if expected not in (+1, -1):
        raise ValueError(f"expected eigenvalue must be +1 or -1, got {expected!r}")
    if op.shape != eye.shape:
        raise ValueError(f"constraint must be {eye.shape}, got {op.shape}")
    # written so that a NaN entry fails the checks too
    if not np.max(np.abs(op - op.conj().T)) < CHECK_TOL:
        raise ValueError("constraint not Hermitian")
    if not np.max(np.abs(op @ op - eye)) < CHECK_TOL:
        raise ValueError("constraint not an involution")
