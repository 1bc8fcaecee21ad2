"""Message-driven protocol engine: verification and key phases.

A session is a single logical thread.  Parties never share state; all
classical coupling is posted to a message bus whose transcript makes runs
auditable.  Each round consumes one fresh copy of the channel state,
optionally filtered through an attack hook on the in-transit ququarts.
Each phase walks one branch tree (``linalg.Node``) rooted at the channel
state: a round descends from the root through the hook and the parties'
measurements, so each (state, projector set) pair is measured once per
phase, while every party still draws from its own stream, round by
round, in the same order.

Verification phase: every party picks a check observable at random from
its menu and measures it; announcements are compared against the channel's
expected outcome products, and rounds whose operator choices match no
listed check are discarded.  Key phase: every party measures in the key
basis; a random sample of rounds is revealed and consumed to estimate the
error rate, and the rest become key bits by the sifting rule
``observables.sift``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

# rounds measure on tree nodes; measure_projective stays bound for benchmark tracing
from .linalg import Node, ProjectorSet, embed, measure_projective  # noqa: F401
from .observables import (
    KEY_LABELS,
    KeyOutcome,
    check_observable,
    key_basis,
    key_bit_errors,
    outcome_from_index,
    sift,
)
from .channels import ChannelSpec
from .attacks import AttackModel, make_attack_hook

ALICE = "alice"
BOB = "bob"
CHARLIE = "charlie"
PARTY_ORDER = (ALICE, BOB, CHARLIE)

TWO_PARTY_MENU = ("sx", "ux", "sz", "uz")
THREE_PARTY_MENU = ("sx", "ex", "oz", "id")

DISCARD_MISMATCH = "operator-mismatch"
DISCARD_SAMPLE = "sample-consumed"


@dataclass(frozen=True)
class ClassicalMessage:
    """One classical announcement with a canonical serialized form."""

    sender: str
    kind: str
    payload: dict

    def serialize(self) -> str:
        parts = [f"sender={self.sender}", f"kind={self.kind}"]
        for k in sorted(self.payload):
            parts.append(f"{k}={_fmt_payload(self.payload[k])}")
        return " ".join(parts)


def _fmt_payload(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    if isinstance(value, dict):
        return ";".join(f"{k}:{value[k]}" for k in sorted(value))
    return str(value)


@dataclass
class MessageBus:
    """The transcript of every message posted, in posting order."""

    transcript: list = field(default_factory=list)

    def post(self, message: ClassicalMessage):
        self.transcript.append(message)


@dataclass(frozen=True)
class RoundRecord:
    """Per-round log entry; kept=False always carries a discard reason."""

    index: int
    phase: str
    choices: tuple
    outcomes: tuple
    kept: bool
    discard_reason: str | None = None

    def __post_init__(self):
        assert self.phase in ("verify", "key")
        if not self.kept:
            assert self.discard_reason in (DISCARD_MISMATCH, DISCARD_SAMPLE)


@dataclass(frozen=True)
class SiftedKey:
    """Key material: two bits per kept key round, parity bit first."""

    bits: tuple

    def __post_init__(self):
        assert len(self.bits) % 2 == 0
        assert all(b in (0, 1) for b in self.bits)

    def __len__(self) -> int:
        return len(self.bits)


def sift_key(outcomes) -> SiftedKey:
    """Serialize key outcomes to bits in round order, parity then phase."""
    bits = []
    for o in outcomes:
        assert o is not None, "missing outcome in a kept round"
        bits.extend((o.parity_bit, o.phase_bit))
    return SiftedKey(tuple(bits))


def compare_keys(a: SiftedKey, b: SiftedKey) -> list:
    """Positions where the two keys disagree (diagnostic)."""
    assert len(a) == len(b)
    return [i for i, (x, y) in enumerate(zip(a.bits, b.bits)) if x != y]


@dataclass(frozen=True)
class CheckTally:
    rounds: int
    violations: int

    @property
    def frequency(self) -> float:
        return self.violations / self.rounds if self.rounds else 0.0


@dataclass(frozen=True)
class VerificationSummary:
    records: tuple
    passed: bool
    tallies: dict  # check name -> CheckTally, in channel check order
    matched: int
    discarded: int
    vacuous: bool

    @property
    def total_violations(self) -> int:
        return sum(t.violations for t in self.tallies.values())


def _party_positions(spec: ChannelSpec):
    return PARTY_ORDER[: spec.party_count]


def _menu(party_count: int):
    return TWO_PARTY_MENU if party_count == 2 else THREE_PARTY_MENU


@functools.cache
def _sign_projector_sets(party_count: int) -> MappingProxyType:
    """Embedded (+1, -1) eigenprojector pairs per (position, observable);
    None for the identity, which is never measured.  Built once per party
    count and shared read-only."""
    sets = {}
    for pos in range(party_count):
        for name in _menu(party_count):
            if name == "id":
                sets[pos, name] = None
                continue
            obs = check_observable(name)
            pair = (obs.plus_projector, obs.minus_projector)
            sets[pos, name] = ProjectorSet([embed(p, pos, party_count) for p in pair])
    return MappingProxyType(sets)


@functools.cache
def _key_projector_sets(party_count: int) -> tuple:
    """Embedded key-basis projectors per position, built once per party
    count."""
    kb = key_basis()
    return tuple(
        ProjectorSet([embed(p, pos, party_count) for p in kb.projectors])
        for pos in range(party_count)
    )


def _measure_round(node, projector_sets, parties, rngs) -> tuple:
    """Outcome indices of one round: each party in turn measures the node
    its predecessors left, drawing from its own stream.  A None set is the
    identity slot: it reads outcome 0 and draws nothing.  A drawn branch's
    node is built only when a later party measures it."""
    outcomes = []
    last = None  # (projector set, outcome) of the previous measurement
    for projectors, party in zip(projector_sets, parties):
        if projectors is None:
            outcomes.append(0)
            continue
        if last is not None:
            node = node.child(*last)
        outcome = node.draw(projectors, rngs[party])
        outcomes.append(outcome)
        last = projectors, outcome
    return tuple(outcomes)


def run_verification_phase(
    spec: ChannelSpec,
    num_rounds: int,
    attack: AttackModel,
    rngs: dict,
    bus: MessageBus,
) -> VerificationSummary:
    """Random-check phase over ``num_rounds`` fresh channel copies.

    Each party draws uniformly from its menu.  A round counts toward a
    check only when the joint choice equals that check's operator tuple;
    the identity contributes a fixed +1 announcement without touching the
    state.  pass means zero violations among matched rounds; zero matched
    rounds passes vacuously and is flagged.
    """
    if num_rounds < 0:
        raise ValueError("num_rounds must be >= 0")
    parties = _party_positions(spec)
    menu = _menu(spec.party_count)
    sign_sets = _sign_projector_sets(spec.party_count)
    hook = make_attack_hook(attack, spec.party_count)
    root = Node(spec.state)
    expected = {c.operators: c.expected for c in spec.checks}

    tallies = {c.name: [0, 0] for c in spec.checks}
    records = []
    matched = 0
    announcements = {p: [] for p in parties}

    for index in range(num_rounds):
        node = hook(root, rngs["attack"])
        choices = tuple(menu[int(rngs[p].integers(len(menu)))] for p in parties)
        sets = [sign_sets[pos, name] for pos, name in enumerate(choices)]
        outcomes = tuple(-1 if k else +1 for k in _measure_round(node, sets, parties, rngs))
        for p, name, value in zip(parties, choices, outcomes):
            announcements[p].append((index, name, value))

        if choices in expected:
            matched += 1
            check_name = "_".join(choices)
            product = int(np.prod(outcomes))
            tallies[check_name][0] += 1
            if product != expected[choices]:
                tallies[check_name][1] += 1
            records.append(RoundRecord(index, "verify", choices, outcomes, True))
        else:
            records.append(
                RoundRecord(index, "verify", choices, outcomes, False, DISCARD_MISMATCH)
            )

    # batch announcement at end of phase; per-round would be equivalent
    for p in parties:
        bus.post(ClassicalMessage(p, "operator-announcement", {"rounds": announcements[p]}))

    final = {name: CheckTally(r, v) for name, (r, v) in tallies.items()}
    violations = sum(t.violations for t in final.values())
    return VerificationSummary(
        records=tuple(records),
        passed=violations == 0,
        tallies=final,
        matched=matched,
        discarded=num_rounds - matched,
        vacuous=matched == 0,
    )


def _key_phase(spec, num_rounds, sample_fraction, attack, rngs, bus, reveal):
    """The key phase both protocols share.

    Every party measures ``num_rounds`` fresh channel copies in the key
    basis.  ``reveal`` is (requester, revealing positions, control
    position or None): the control party first reveals every outcome, the
    requester asks for a public random sample, and the revealing parties
    reveal their sampled outcomes.  The sample is consumed; its per-bit
    mismatch between the sifting rule's reference and estimate is the
    qber, and the other rounds give the reference and estimate keys.
    With ``reveal`` None nothing is posted or sampled.

    Returns (outcome-index tuples, records, qber, reference key, estimate
    key, sample size).
    """
    if not 0.0 <= sample_fraction < 1.0:
        raise ValueError("sample_fraction must lie in [0, 1)")
    if num_rounds < 0:
        raise ValueError("num_rounds must be >= 0")
    parties = _party_positions(spec)
    projs = _key_projector_sets(spec.party_count)
    hook = make_attack_hook(attack, spec.party_count)
    root = Node(spec.state)
    rounds = [
        _measure_round(hook(root, rngs["attack"]), projs, parties, rngs)
        for _ in range(num_rounds)
    ]
    sample = []
    if reveal is not None:
        requester, revealers, control = reveal
        if control is not None:
            bus.post(
                ClassicalMessage(
                    parties[control],
                    "control-reveal",
                    {"outcomes": {i: KEY_LABELS[r[control]] for i, r in enumerate(rounds)}},
                )
            )
        count = int(round(sample_fraction * num_rounds))
        if count:
            drawn = rngs["public"].choice(num_rounds, size=count, replace=False)
            sample = sorted(int(i) for i in drawn)
        bus.post(ClassicalMessage(requester, "sample-check-request", {"rounds": sample}))
        for pos in revealers:
            bus.post(
                ClassicalMessage(
                    parties[pos],
                    "sample-check-reveal",
                    {"outcomes": {i: KEY_LABELS[rounds[i][pos]] for i in sample}},
                )
            )
    bit_errors = sum(key_bit_errors(rounds[i]) for i in sample)
    qber = bit_errors / (2 * len(sample)) if sample else 0.0

    coded = [outcome_from_index(i) for i in range(len(KEY_LABELS))]
    choices = ("key",) * len(parties)
    sample_set = set(sample)
    records, reference, estimate = [], [], []
    for index, r in enumerate(rounds):
        outcomes = tuple(coded[k] for k in r)
        if index in sample_set:
            records.append(RoundRecord(index, "key", choices, outcomes, False, DISCARD_SAMPLE))
            continue
        records.append(RoundRecord(index, "key", choices, outcomes, True))
        ref, est = sift(r)
        reference.append(coded[ref])
        estimate.append(coded[est])
    return rounds, tuple(records), qber, sift_key(reference), sift_key(estimate), len(sample)


@dataclass(frozen=True)
class KeyPhaseTwoParty:
    records: tuple
    alice_key: SiftedKey
    bob_key: SiftedKey
    qber: float
    passed: bool
    sampled: int
    kept: int


def run_key_phase_two_party(
    spec: ChannelSpec,
    num_rounds: int,
    sample_fraction: float,
    qber_threshold: float,
    attack: AttackModel,
    rngs: dict,
    bus: MessageBus,
) -> KeyPhaseTwoParty:
    """Key-basis rounds, public sample re-examination, and sifting.

    The channel pairs every outcome with the opposite parity and opposite
    phase on the other side, so the receiver flips both bits; attack-free
    the two sifted keys are identical.  The publicly revealed sample is
    consumed and its per-bit mismatch fraction is the qber.
    """
    assert spec.party_count == 2
    _, records, qber, alice_key, bob_key, sampled = _key_phase(
        spec, num_rounds, sample_fraction, attack, rngs, bus, (ALICE, (0, 1), None)
    )
    return KeyPhaseTwoParty(
        records=records,
        alice_key=alice_key,
        bob_key=bob_key,
        qber=qber,
        passed=qber <= qber_threshold,
        sampled=sampled,
        kept=num_rounds - sampled,
    )


def deduce_third_outcome(a: KeyOutcome, b: KeyOutcome) -> KeyOutcome:
    """XOR law of the three-party channel: the third party's bits are the
    XOR of the other two parties' bits, bitwise."""
    return outcome_from_index(a.index ^ b.index)


@dataclass(frozen=True)
class KeyPhaseControlled:
    records: tuple
    bob_key: SiftedKey
    charlie_key: SiftedKey
    qber: float
    passed: bool
    sampled: int
    kept: int
    deduction_accuracy: float
    alice_permitted: bool


def run_key_phase_controlled(
    spec: ChannelSpec,
    num_rounds: int,
    sample_fraction: float,
    qber_threshold: float,
    alice_permits: bool,
    attack: AttackModel,
    rngs: dict,
    bus: MessageBus,
) -> KeyPhaseControlled:
    """Controlled key phase: the shared secret is the third party's bits.

    With the controller's reveal, Bob reconstructs Charlie's outcome by
    the XOR law round for round; a public sample of reconstructed-versus-
    actual bits estimates the qber and is consumed.  Without permission
    nothing is revealed: Bob's best guess is uniform (his marginal is
    independent of Charlie's outcome), the accuracy of that guess is
    reported, and no key material is produced.
    """
    assert spec.party_count == 3
    # the controller reveals everything first; without permission she
    # stays silent and no message ever enters the bus
    reveal = (BOB, (2,), 0) if alice_permits else None
    rounds, records, qber, charlie_key, bob_key, sampled = _key_phase(
        spec, num_rounds, sample_fraction, attack, rngs, bus, reveal
    )
    if alice_permits:
        hits = sum(ref == est for ref, est in map(sift, rounds))
    else:
        # Bob's estimate needs Alice's outcomes, so he can only guess
        bob_key = charlie_key = SiftedKey(())
        hits = sum(int(rngs[BOB].integers(4)) == c for _, _, c in rounds)
    return KeyPhaseControlled(
        records=records,
        bob_key=bob_key,
        charlie_key=charlie_key,
        qber=qber,
        passed=qber <= qber_threshold,
        sampled=sampled,
        kept=num_rounds - sampled,
        deduction_accuracy=hits / num_rounds if num_rounds else float(alice_permits),
        alice_permitted=alice_permits,
    )
