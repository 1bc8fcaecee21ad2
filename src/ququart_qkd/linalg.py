"""Dense complex linear algebra over registers of four-level systems.

Everything here is small and exact-friendly: states live on 4**n amplitudes
(n <= 4 in practice), operators are plain numpy matrices, and projective
measurement draws from an explicit seeded generator so runs replay
bit-for-bit.  A measurement is a ``ProjectorSet``: its projectors are
stacked once and their completeness is checked once, when the set is
built, so a draw is one stacked product and no identity sum.

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
        assert self.num_ququarts >= 1
        amps = np.asarray(self.amplitudes, dtype=complex)
        assert amps.shape == (DIM**self.num_ququarts,), "amplitude length must be 4**n"
        if self.normalized:
            nrm2 = float(np.vdot(amps, amps).real)
            assert abs(nrm2 - 1.0) < NORM_TOL, f"state not normalized: |psi|^2 = {nrm2}"
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
    assert 0 <= index < DIM**num_ququarts
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
    assert 0 <= position < num_ququarts, "position out of range"
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


def measure_projective(
    psi: StateVector,
    projectors: ProjectorSet | Sequence[np.ndarray],
    rng: np.random.Generator,
) -> MeasurementResult:
    """Sample one outcome of a complete projective measurement.

    Every branch P_k|psi> comes from one stacked product; outcome k is
    drawn with probability |P_k psi|^2 by inverse-CDF on a single uniform
    draw, so the sequence of results is a pure function of the generator
    state, and the drawn branch, normalized, is the post-measurement
    state.  Completeness is checked once per ``ProjectorSet``; a plain
    sequence of projectors is wrapped, and so checked, on every call.
    """
    if not isinstance(projectors, ProjectorSet):
        projectors = ProjectorSet(projectors)
    branches = projectors.stack @ psi.amplitudes
    # |P_k psi|^2: the squared real and imaginary parts of each branch, summed
    probs = np.square(branches.view(float)).sum(axis=1).tolist()
    outcome = draw_index(probs, rng)

    nrm = math.sqrt(probs[outcome])
    if nrm < 1e-9:
        # zero-probability branch cannot be drawn from a complete set
        raise RuntimeError("sampled a zero-probability measurement branch")
    post = StateVector(psi.num_ququarts, branches[outcome] / nrm)
    return MeasurementResult(outcome, probs[outcome], post)
