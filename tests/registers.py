"""Basis kets, Kronecker products and embedded register operators, kept
as the tests' helpers.

The library applies 4x4 operators at a ququart position
(``apply_stacked``) and never builds a full-register operator; the tests
build them here, so that products by the embedded operators are an
independent check.
"""

import numpy as np

from ququart_qkd.linalg import DIM, StateVector


def ket(index: int, num_ququarts: int = 1) -> StateVector:
    """Computational basis state |index> on the given register size."""
    if not 0 <= index < DIM**num_ququarts:
        raise ValueError(f"basis index {index} out of range for {num_ququarts} ququarts")
    amps = np.zeros(DIM**num_ququarts, dtype=complex)
    amps[index] = 1.0
    return StateVector(num_ququarts, amps)


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
