"""Check observables and the key-measurement basis on a single ququart.

Six named Hermitian involutions with spectrum {+1, -1} drive channel
verification.  Each is a signed permutation matrix, so it is stored as a
real ``float64`` matrix; the joint check matrices built from them are real
too, which lets the uniqueness certificate use a real symmetric solver.
The four-vector key basis {phi+, phi-, psi+, psi-} drives key generation;
it is built once and shared, with every array read-only.  A key outcome
is its index in that order, coded into two classical bits: the parity bit
(phi = 0, psi = 1, ``index >> 1``) and the phase bit (+ = 0, - = 1,
``index & 1``).  ``KEY_BITS`` is that coding, the one read-only table that
key sifting (``protocol.sift_key``), ``outcome_from_index`` and
``KeyOutcome`` read.  The sifting rule of both protocols (``sift``) works
on these indices, one or a column at a time; ``outcome_from_index`` labels
a single index.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import DIM

HERMITIAN_TOL = 1e-12

# Fixed key-basis order, and the (parity, phase) bits of each index, a row per index
KEY_LABELS = ("phi+", "phi-", "psi+", "psi-")
KEY_BITS = np.array([(i >> 1, i & 1) for i in range(len(KEY_LABELS))], dtype=np.uint8)
KEY_BITS.setflags(write=False)

OBSERVABLE_NAMES = ("sx", "ux", "sz", "uz", "ex", "oz", "id")


@dataclass(frozen=True)
class Observable:
    """A named single-ququart check observable.

    The matrix is a Hermitian involution, so its spectral projectors are
    available in closed form as (I +/- M)/2; no eigensolver is involved.
    The identity is the degenerate member: fixed outcome +1, empty minus
    projector.  A real matrix stays real; the stored copy is read-only.
    Its shape, Hermiticity and involution are checked by raising
    ValueError, so they hold under ``python -O``.
    """

    name: str
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.result_type(float, self.matrix))
        if m.shape != (DIM, DIM):
            raise ValueError(f"an observable must be (4, 4), got {m.shape}")
        # written so that a NaN entry fails the checks too
        if not np.max(np.abs(m - m.conj().T)) < HERMITIAN_TOL:
            raise ValueError(f"observable {self.name!r} is not Hermitian")
        if not np.max(np.abs(m @ m - np.eye(DIM))) < HERMITIAN_TOL:
            raise ValueError(f"observable {self.name!r} is not an involution")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def plus_projector(self) -> np.ndarray:
        return (np.eye(DIM) + self.matrix) / 2

    @property
    def minus_projector(self) -> np.ndarray:
        return (np.eye(DIM) - self.matrix) / 2


def _ketbra(i: int, j: int) -> np.ndarray:
    m = np.zeros((DIM, DIM))
    m[i, j] = 1.0
    return m


def _build_matrix(name: str) -> np.ndarray:
    if name == "sx":
        return _ketbra(3, 0) + _ketbra(0, 3) + _ketbra(1, 2) + _ketbra(2, 1)
    if name == "ux":
        return _ketbra(2, 0) + _ketbra(0, 2) + _ketbra(3, 1) + _ketbra(1, 3)
    if name == "sz":
        return _ketbra(3, 3) + _ketbra(1, 1) - _ketbra(0, 0) - _ketbra(2, 2)
    if name == "uz":
        return _ketbra(2, 2) + _ketbra(3, 3) - _ketbra(0, 0) - _ketbra(1, 1)
    if name == "ex":
        return _ketbra(2, 3) + _ketbra(3, 2) + _ketbra(0, 1) + _ketbra(1, 0)
    if name == "oz":
        return _ketbra(3, 3) - _ketbra(1, 1) + _ketbra(0, 0) + _ketbra(2, 2)
    if name == "id":
        return np.eye(DIM)
    raise ValueError(f"unknown observable name: {name!r}")


def check_observable(name: str) -> Observable:
    """Build one of the named check observables (or the identity)."""
    return Observable(name, _build_matrix(name))


@dataclass(frozen=True)
class KeyOutcome:
    """One key-basis measurement outcome with its two-bit coding."""

    label: str
    parity_bit: int
    phase_bit: int

    def __post_init__(self):
        assert self.label in KEY_LABELS
        assert [self.parity_bit, self.phase_bit] == KEY_BITS[self.index].tolist()

    @property
    def index(self) -> int:
        return KEY_LABELS.index(self.label)


def outcome_from_index(index: int) -> KeyOutcome:
    """Map a key-basis outcome index (0..3) to its labeled bit pair."""
    if not 0 <= index < 4:
        raise ValueError(f"outcome index {index} out of range")
    return KeyOutcome(KEY_LABELS[index], *KEY_BITS[index].tolist())


def sift(indices):
    """The key both ends should hold after one key round, as the pair
    (reference, estimate) of key-basis indices, whose bits are (parity,
    phase).  The indices may be ints or equal-length int columns, one per
    party, which sifts every round at once.

    Two parties (a, b): the channel pairs each outcome with the opposite
    parity and opposite phase, so the receiver flips both bits, giving
    (a, b ^ 3).  Three parties (a, b, c): the XOR law, so Bob's estimate
    of Charlie's outcome is a ^ b, giving (c, a ^ b).
    """
    if len(indices) == 2:
        a, b = indices
        return a, b ^ 3
    a, b, c = indices
    return c, a ^ b


def key_bit_errors(indices):
    """Key bits (0, 1 or 2) on which a round's estimate misses its
    reference; per round for int columns, as ``sift``."""
    reference, estimate = sift(indices)
    x = reference ^ estimate
    return (x & 1) + (x >> 1)


@dataclass(frozen=True)
class KeyBasis:
    """Ordered orthonormal key basis [phi+, phi-, psi+, psi-] with rank-1
    projectors."""

    vectors: tuple
    projectors: tuple

    def __post_init__(self):
        gram = np.array(
            [[np.vdot(u, v) for v in self.vectors] for u in self.vectors]
        )
        assert np.max(np.abs(gram - np.eye(4))) < HERMITIAN_TOL, "basis not orthonormal"


@functools.cache
def key_basis() -> KeyBasis:
    """The four key-measurement vectors in their fixed order, built once;
    every vector and projector is read-only because all callers share
    them.  Each projector is w w^T / 2 over its vector's +/-1 signs w, so
    its halves are exact, where the rounded vectors' outer product gives
    0.4999999999999999; exact operators make a product's bytes independent
    of its summation order (``linalg``)."""
    s = 1.0 / np.sqrt(2.0)
    e = np.eye(DIM, dtype=complex)
    signs = (e[0] + e[3], e[0] - e[3], e[1] + e[2], e[1] - e[2])  # phi+, phi-, psi+, psi-
    vectors = tuple(s * w for w in signs)
    projectors = tuple(np.outer(w, w) / 2 for w in signs)
    for array in vectors + projectors:
        array.setflags(write=False)
    return KeyBasis(vectors, projectors)
