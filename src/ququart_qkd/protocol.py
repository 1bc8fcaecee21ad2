"""Message-driven protocol engine: verification and key phases.

A session is a single logical thread.  Parties never share state; all
classical coupling is posted to a message bus whose transcript makes runs
auditable.  Each round consumes one fresh copy of the channel state,
optionally filtered through an attack on the in-transit ququarts.  Each
phase measures on one branch tree (``linalg.Node``) rooted at the channel
state, so each (state, projector set) pair is measured once per phase,
while every party draws from its own stream exactly the values a
round-by-round run would draw.  The key phase walks the tree round by
round; the verification phase samples it one level at a time for all
rounds (``linalg.Tree``), from draws replayed in bulk, and tallies its
rounds from columns.

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

from .linalg import Node, ProjectorSet, RawWords, Tree, embed, halves, quarter, uniforms

# rounds measure on tree nodes; measure_projective stays bound for benchmark tracing
from .linalg import measure_projective  # noqa: F401
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
from .attacks import AttackModel, attack_levels, make_attack_hook

ALICE = "alice"
BOB = "bob"
CHARLIE = "charlie"
PARTY_ORDER = (ALICE, BOB, CHARLIE)

TWO_PARTY_MENU = ("sx", "ux", "sz", "uz")
THREE_PARTY_MENU = ("sx", "ex", "oz", "id")

# the announced sign of a check's outcome index; the identity reads 0
SIGNS = (+1, -1)

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


@dataclass(frozen=True, eq=False)
class VerificationSummary:
    """A verification phase's outcome, held as columns: per party, the
    menu code of its choice and its outcome index in every round, and per
    round whether it matched a check.  ``records`` are built from them
    on first read."""

    menu: tuple
    choices: tuple  # per party, (rounds,) menu codes
    outcomes: tuple  # per party, (rounds,) outcome indices: SIGNS[k] is announced
    kept: np.ndarray  # (rounds,) matched a check
    passed: bool
    tallies: dict  # check name -> CheckTally, in channel check order
    matched: int
    discarded: int
    vacuous: bool

    @property
    def rounds(self) -> int:
        return len(self.kept)

    @property
    def total_violations(self) -> int:
        return sum(t.violations for t in self.tallies.values())

    @functools.cached_property
    def records(self) -> tuple:
        choices = zip(*(codes.tolist() for codes in self.choices))
        outcomes = zip(*(column.tolist() for column in self.outcomes))
        return tuple(
            RoundRecord(
                index,
                "verify",
                tuple(self.menu[c] for c in codes),
                tuple(SIGNS[k] for k in signs),
                kept,
                None if kept else DISCARD_MISMATCH,
            )
            for index, (codes, signs, kept) in enumerate(
                zip(choices, outcomes, self.kept.tolist())
            )
        )


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


def _menu_draws(rng: np.random.Generator, num_rounds: int, idle: int):
    """One party's verification draws, replayed from raw words (``RawWords``).

    Per round the party draws its menu code by ``integers(4)`` and then,
    unless the code is ``idle`` (the identity, which measures nothing),
    one uniform by ``random()``.  So two rounds form a block: one word
    whose low and high halves give the two codes, then 0-2 words of
    uniforms, as many as the codes ask for; a chase from block to block
    finds every word.  A half-word buffered at the start is round 0's
    code, and an odd last block leaves its high half buffered.

    Returns the codes and the uniforms per round; an idle round's uniform
    is any word's and is never read.
    """
    words = RawWords(rng, num_rounds + (num_rounds + 1) // 2)
    raw, half, buffered = words.words, words.half, words.buffered
    first = 0  # rounds before the first block: one if it reads the buffer
    codes = np.zeros(num_rounds, dtype=np.intp)
    at = np.zeros(num_rounds, dtype=np.intp)  # word of each round's uniform
    if buffered and num_rounds:
        codes[0] = quarter(half)
        first, buffered = 1, False
    start = int(first and codes[0] != idle)  # words round 0 used
    blocks = (num_rounds - first + 1) // 2
    low, high = (quarter(h) for h in halves(raw))
    uniforms_of = np.array([int(c != idle) for c in range(4)])  # per code
    steps = (1 + uniforms_of[low] + uniforms_of[high]).tolist()
    chase = [start]
    for _ in range(blocks - 1):
        chase.append(chase[-1] + steps[chase[-1]])
    starts = np.array(chase[:blocks], dtype=np.intp)
    pairs = num_rounds - first - blocks  # blocks with a second round
    firsts = low[starts]
    codes[first::2] = firsts
    codes[first + 1 :: 2] = high[starts[:pairs]]
    at[first::2] = starts + 1
    # the second round's uniform follows the first's, if that one measured
    at[first + 1 :: 2] = at[first::2][:pairs] + (firsts[:pairs] != idle)
    end = start
    if blocks:
        last = int(starts[-1])
        half = int(halves(raw[last])[1])
        buffered = pairs < blocks  # an odd last block keeps its high half
        end = last + 1 + sum(c != idle for c in codes[first + 2 * blocks - 2 :].tolist())
    words.release(end, half, buffered)
    return codes, uniforms(raw[at])


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

    All rounds are sampled together, one level of the phase's branch tree
    at a time: the attack's targets, then each party (``linalg.Tree``).
    Each stream's draws are exactly those of a per-round walk that calls
    ``integers`` and ``random`` round by round; the party and attack
    streams must be distinct PCG64 generators.
    """
    if num_rounds < 0:
        raise ValueError("num_rounds must be >= 0")
    parties = _party_positions(spec)
    streams = [rngs[p] for p in parties] + [rngs["attack"]]
    if len({id(s) for s in streams}) != len(streams):
        raise ValueError("the party and attack streams must be distinct generators")
    menu = _menu(spec.party_count)
    idle = menu.index("id") if "id" in menu else -1
    tree = Tree(Node(spec.state))
    ids = attack_levels(attack, spec.party_count, tree, rngs["attack"], num_rounds)

    draws = [_menu_draws(rngs[p], num_rounds, idle) for p in parties]
    choices = [codes for codes, _ in draws]
    # per party, the rounds in which a later party measures: only there is
    # the drawn branch's node built
    later = [np.zeros(num_rounds, dtype=bool)]
    for codes in choices[:0:-1]:
        later.insert(0, later[0] | (codes != idle))
    sign_sets = _sign_projector_sets(spec.party_count)
    outcomes = []
    for j, (codes, u) in enumerate(draws):
        sets = [sign_sets[j, name] for name in menu]
        outcomes.append(tree.draw(ids, sets, u, codes))
        if j + 1 < len(parties):
            ids = tree.children(ids, sets, outcomes[j], codes, later[j])

    # rounds are tallied per joint choice, a base-4 number; the outcome
    # product is -1 exactly when an odd number of outcomes is 1 (the
    # identity reads 0)
    def joint(codes):
        return functools.reduce(lambda acc, code: acc * len(menu) + code, codes)

    choice = joint(choices)
    odd = functools.reduce(np.bitwise_xor, outcomes)
    size = len(menu) ** len(parties)
    counts = np.bincount(choice, minlength=size).tolist()
    odd_counts = np.bincount(choice, weights=odd, minlength=size).tolist()
    listed = np.zeros(size, dtype=bool)
    tallies = {}
    for check in spec.checks:
        if not set(check.operators) <= set(menu):
            tallies[check.name] = CheckTally(0, 0)  # a choice no party can make
            continue
        code = joint([menu.index(name) for name in check.operators])
        rounds, odd_rounds = counts[code], int(odd_counts[code])
        violations = odd_rounds if check.expected == 1 else rounds - odd_rounds
        tallies[check.name] = CheckTally(rounds, violations)
        listed[code] = True
    kept = listed[choice]
    matched = sum(n for n, hit in zip(counts, listed.tolist()) if hit)

    # batch announcement at end of phase; per-round would be equivalent
    for p, codes, column in zip(parties, choices, outcomes):
        names = map(menu.__getitem__, codes.tolist())
        signs = map(SIGNS.__getitem__, column.tolist())
        announcements = list(zip(range(num_rounds), names, signs))
        bus.post(ClassicalMessage(p, "operator-announcement", {"rounds": announcements}))

    violations = sum(t.violations for t in tallies.values())
    return VerificationSummary(
        menu=menu,
        choices=tuple(choices),
        outcomes=tuple(outcomes),
        kept=kept,
        passed=violations == 0,
        tallies=tallies,
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
