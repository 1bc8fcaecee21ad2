"""Eavesdropping models and the exact prediction oracle.

Two semantics live side by side, on purpose:

* ``attack_levels`` samples an attack on pure-state trajectories inside
  a simulated session: it draws the attack's columns for every round of
  a phase, and then walks given rounds from the root of the phase's
  branch tree (``linalg.Tree``) to the node of each round's attacked
  state, one target at a time.  Readouts and shifts are 4x4 operators
  at the target's position, built once per (kind, target); randomness
  comes from the session's seeded attack stream, and every readout and
  shift is memoised on the tree, so sessions stay cheap and deterministic.
  Every draw is a bulk column with a row per round and a column per
  target: a measuring attack's readout uniforms, and depolarize's gate
  uniforms, readout uniforms and fresh digits, of which only a gated
  (round, target)'s are read.  ``make_attack_hook`` is the same code
  for one round, as a map from state to state.  The entangle-probe's
  trajectory is the computational readout: its probe copies the
  target's computational digit, so reading the probe makes the same draw
  and the same collapse.
* ``predict`` evolves the channel's density matrix through the exact
  attack channel and integrates the outcome statistics in closed form.
  It is the ground truth the Monte-Carlo sessions are validated against.
  Each attack acts on one ququart, so the channel only touches that
  ququart's row and column axes of rho viewed as a (4,)*2n tensor; no
  full-register operator is built.  Its qber applies the same sifting
  rule as the sessions (``observables.sift``) to the key-basis joint
  distribution.  A channel whose amplitudes have an exactly zero
  imaginary part (every built-in and corrupted channel) is evolved in
  real float64 arithmetic; any other in complex.  The n-fold key
  rotation (real), the stacked transposed check matrices and the table
  of key-bit errors per outcome tuple are constants, built once; the
  density matrix and its statistics are computed afresh on every call.

Targets are in-transit ququart positions: in a round, position 1 travels
to Bob and position 2 to Charlie.  Position 0 stays with the source
party (Alice) and is never attackable.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import DIM, OperatorStack, ProjectorSet, StateVector, Tree

# attacks measure on tree levels; measure_projective stays bound for benchmark tracing
from .linalg import measure_projective  # noqa: F401
from .channels import ChannelSpec, real_amplitudes
from .observables import key_basis, key_bit_errors

ATTACK_KINDS = (
    "none",
    "intercept-computational",
    "intercept-key",
    "entangle-probe",
    "depolarize",
)

PROBABILITY_TOL = 1e-12


@dataclass(frozen=True)
class AttackModel:
    """An eavesdropping strategy applied to in-transit ququarts.

    kind "none" carries no targets; every other kind needs at least one
    target position.  strength is only meaningful for "depolarize"; it is
    stored as a float, so equal models report equal bytes.
    """

    kind: str = "none"
    targets: tuple = ()
    strength: float = 0.0

    def __post_init__(self):
        # user-reachable input: checked by raising, since python -O strips asserts
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind: {self.kind!r}")
        if isinstance(self.strength, bool) or not isinstance(self.strength, (int, float)):
            raise ValueError(f"strength must be a number, got {self.strength!r}")
        if not isinstance(self.targets, tuple):
            raise ValueError(f"targets must be a tuple, got {self.targets!r}")
        if not all(isinstance(t, int) and not isinstance(t, bool) for t in self.targets):
            raise ValueError(f"targets must be ints, got {self.targets!r}")
        if not 0.0 <= self.strength <= 1.0:
            raise ValueError("strength must lie in [0, 1]")
        if self.kind == "none":
            if self.targets:
                raise ValueError("kind none takes no targets")
        elif not self.targets:
            raise ValueError("attack needs at least one target")
        elif not all(t >= 1 for t in self.targets):
            raise ValueError("position 0 never transits")
        elif tuple(sorted(set(self.targets))) != self.targets:
            raise ValueError("targets must be sorted and unique")
        object.__setattr__(self, "strength", float(self.strength))


@dataclass(frozen=True)
class AttackPrediction:
    """Exact per-check violation probabilities and key-phase qber."""

    violation: dict
    qber: float

    def __post_init__(self):
        for name, p in self.violation.items():
            assert -PROBABILITY_TOL <= p <= 1.0 + PROBABILITY_TOL, (name, p)
        assert -PROBABILITY_TOL <= self.qber <= 1.0 + PROBABILITY_TOL


def _validate_targets(model: AttackModel, num_parties: int):
    if model.kind == "none":
        return
    for t in model.targets:
        if not 1 <= t < num_parties:
            raise ValueError(f"invalid attack target {t} for {num_parties} parties")


@functools.cache
def _attack_operators(kind: str, target: int) -> tuple:
    """The readout set on ``target`` (the key basis for a key intercept,
    else the computational basis) and, for depolarize, the cyclic shifts
    of ``target`` by 0..3 (else None), each a stack of 4x4 operators at
    that position.  Local operators do not depend on the party count, so
    they are built once per (kind, target) and shared read-only."""
    if kind == "intercept-key":
        local = key_basis().projectors
    else:
        local = [np.outer(e, e.conj()) for e in np.eye(DIM, dtype=complex)]
    shifts = None
    if kind == "depolarize":
        # shift a maps |j> to |j + a mod 4>
        shifts = OperatorStack([np.roll(np.eye(DIM), a, axis=0) for a in range(DIM)], target)
    return ProjectorSet(local, target), shifts


def attack_levels(
    model: AttackModel, num_parties: int
) -> Callable[[np.random.Generator, int], Callable[[Tree, np.ndarray], np.ndarray]]:
    """The attack as a map (rng, num_rounds) -> walk.  The call draws the
    attack's bulk columns for that many rounds from ``rng``; ``walk(tree,
    rows)`` gives the node ids of the attacked copies of the tree's root
    state in the rounds ``rows`` (an index array), read from those
    columns.  A round's node depends only on its row of the columns and
    the bytes of the nodes it passes, so rows walked apart, in any order
    and on any tree rooted at that state, reach the nodes one walk of
    them all reaches.  Its operators are built once per (kind, target),
    so that every walk measures on the same ``ProjectorSet`` objects, and
    so on the same levels of the tree, whose tables then hold each
    readout and shift once.

    The rows are walked one target at a time (``Tree``).  For N rounds
    and T targets a measuring attack draws ``rng.random((N, T))`` readout
    uniforms; depolarize draws ``rng.random((N, T))`` gates, then as many
    readout uniforms and then ``rng.integers(4, size=(N, T))`` fresh
    digits.  The entangle-probe is its computational readout (module
    docstring).
    """
    _validate_targets(model, num_parties)
    if model.kind == "none":
        return lambda rng, num_rounds: lambda tree, rows: np.zeros(len(rows), dtype=np.intp)
    targets = model.targets
    sets, shifts = zip(*(_attack_operators(model.kind, t) for t in targets))
    depolarize = model.kind == "depolarize"

    def draw(rng, num_rounds):
        shape = num_rounds, len(targets)
        hit = rng.random(shape) < model.strength if depolarize else None
        u = rng.random(shape)
        fresh = rng.integers(DIM, size=shape) if depolarize else None

        def walk(tree, rows):
            ids = np.zeros(len(rows), dtype=np.intp)
            for j, (readout, shift) in enumerate(zip(sets, shifts)):
                if hit is None:
                    ids = tree.descend(ids, [readout], u[rows, j])[1]
                    continue
                # decouple a gated target by a computational readout, then
                # re-prepare a uniformly random basis state in its place;
                # averaged over rounds this replaces the target's marginal
                # with the maximally mixed state
                gated = np.flatnonzero(hit[rows, j])
                at = rows[gated]
                outcomes, ids[gated] = tree.descend(ids[gated], [readout], u[at, j])
                ids[gated] = tree.evolved(ids[gated], shift, (fresh[at, j] - outcomes) % DIM)
            return ids

        return walk

    return draw


def make_attack_hook(
    model: AttackModel, num_parties: int
) -> Callable[[StateVector, np.random.Generator], StateVector]:
    """The attack as a one-round map from state to state: the hook draws
    one round of ``attack_levels`` and walks it on a tree rooted at the
    state it is given, returning the attacked state (the given one, if
    untouched)."""
    levels = attack_levels(model, num_parties)

    def hook(state, rng):
        tree = Tree(state)
        return tree.state(int(levels(rng, 1)(tree, np.zeros(1, dtype=np.intp))[0]))

    return hook


# ---------------------------------------------------------------------------
# density-matrix oracle


def _conjugate(rho: np.ndarray, local: np.ndarray, t: int, n: int) -> np.ndarray:
    """rho -> L rho L^dagger with the single-ququart L acting on position t."""
    rho = np.moveaxis(np.tensordot(local, rho, axes=(1, t)), 0, t)
    return np.moveaxis(np.tensordot(rho, local.conj(), axes=(n + t, 1)), -1, n + t)


def _delta(t: int, n: int) -> np.ndarray:
    """delta(i_t, j_t), broadcastable against a (4,)*2n tensor."""
    shape = [1] * (2 * n)
    shape[t] = shape[n + t] = DIM
    return np.eye(DIM).reshape(shape)


@functools.cache
def _key_rotations(num_parties: int) -> np.ndarray:
    """The n-fold tensor power of the key rotation U, whose columns are the
    key vectors (U^dagger = U^T maps to key-basis coordinates).  The key
    vectors are real, so U is float64; built once per party count and
    shared read-only."""
    u = functools.reduce(np.kron, [np.column_stack(key_basis().vectors).real] * num_parties)
    u.setflags(write=False)
    return u


@functools.cache
def _transposed_checks(checks: tuple) -> np.ndarray:
    """The checks' joint matrices, transposed, as one (k, d, d) stack;
    built once per check list and shared read-only."""
    stack = np.array([check.joint_matrix().T for check in checks])
    stack.setflags(write=False)
    return stack


@functools.cache
def _bit_error_weights(num_parties: int) -> np.ndarray:
    """key_bit_errors of every key-outcome tuple, as a (4,)*n table in
    np.ndindex order; built once per party count and shared read-only."""
    shape = (DIM,) * num_parties
    weights = np.array([key_bit_errors(idx) for idx in np.ndindex(shape)], dtype=float)
    weights = weights.reshape(shape)
    weights.setflags(write=False)
    return weights


def attack_channel(model: AttackModel, rho: np.ndarray, num_parties: int) -> np.ndarray:
    """Apply the exact (generally mixing) channel of an attack model.

    A computational intercept keeps the diagonal of the target's axes.
    The entangle-probe is the same channel: its controlled shift copies
    the target's computational digit into the probe, so tracing the probe
    out removes exactly the target's computational coherences.  A key
    intercept dephases in the key basis.  Depolarizing mixes in
    Tr_target(rho) x I/4 with weight strength.
    """
    _validate_targets(model, num_parties)
    if model.kind == "none":
        return rho
    n = num_parties
    out = rho.reshape((DIM,) * (2 * n))
    for t in model.targets:
        delta = _delta(t, n)
        if model.kind == "depolarize":
            reduced = np.expand_dims(np.trace(out, axis1=t, axis2=n + t), (t, n + t))
            out = (1.0 - model.strength) * out + model.strength * reduced * delta / DIM
        elif model.kind == "intercept-key":
            key = _key_rotations(1)
            out = _conjugate(_conjugate(out, key.conj().T, t, n) * delta, key, t, n)
        else:
            out = out * delta
    return out.reshape(rho.shape)


def _probability(p: float) -> float:
    """Clamp to [0, 1]; a value below PROBABILITY_TOL is the rounding
    residue of an exact zero and is reported as exactly 0."""
    return 0.0 if p < PROBABILITY_TOL else min(float(p), 1.0)


def predict(model: AttackModel, spec: ChannelSpec) -> AttackPrediction:
    """Exact detection and error statistics for an attacked channel.

    Per check (O, expected), the violation probability is
    tr(rho' (I - expected*O)/2) = (tr rho' - expected * sum(rho' * O^T))/2:
    the joint product-measurement outcome disagrees with the expected
    eigenvalue exactly on that projector's support.  The qber is the
    expected share of key bits in error, sum(joint * key_bit_errors) / 2,
    over the key-basis joint distribution diag(U^dagger rho' U), U the
    n-fold tensor power of the key rotation.

    When the channel's amplitudes have an exactly zero imaginary part,
    rho' is built and evolved in float64, and the key-basis distribution
    is a real product; otherwise all of it is complex.  Either way the
    trace and the check overlaps are summed as complex numbers: numpy
    adds complex and real arrays in different pairwise orders, and the
    oracle's pinned bytes (``tools/report_grid.py --oracle``) are those of
    the complex sums.  The real path changes no output bit there; real
    sums would change the last bits of 285 of its 844 predict cases.
    """
    n = spec.party_count
    psi = real_amplitudes(spec)
    rho = attack_channel(model, np.outer(psi, psi.conj()), n)

    # summed as complex numbers on both paths (docstring)
    total = np.trace(rho, dtype=complex).real
    overlaps = np.sum(rho * _transposed_checks(spec.checks), axis=(1, 2), dtype=complex).real
    violation = {
        check.name: _probability((total - check.expected * overlap) / 2.0)
        for check, overlap in zip(spec.checks, overlaps.tolist())
    }

    u = _key_rotations(n)
    joint = np.sum(u * (rho @ u), axis=0).real.reshape((DIM,) * n)
    # one left-to-right float sum in np.ndindex order, the order the
    # per-index sum(joint[idx] * key_bit_errors(idx)) adds in, so the
    # qber keeps its bits
    terms = (joint * _bit_error_weights(n)).ravel().tolist()
    qber = functools.reduce(operator.add, terms, 0.0) / 2.0
    return AttackPrediction(violation, _probability(qber))
