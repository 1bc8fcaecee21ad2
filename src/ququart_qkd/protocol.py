"""Message-driven protocol engine: verification and key phases.

A session is a single logical thread.  Parties never share state; all
classical coupling is posted to a message bus whose transcript makes runs
auditable.  Each round consumes one fresh copy of the channel state,
optionally filtered through an attack on the in-transit ququarts.  Each
phase samples a branch tree (``linalg.Tree``) rooted at the channel
state one level at a time for all rounds: the attack's targets
(``attacks.attack_levels``), then each party.  Both phases take one
set-up from their inputs (``_phase``: the checks on the round count and
streams, the tree and the attack's draws) and reach the tree only by one
walk (``_walk``); ``_phase`` states the draws each stream makes in
each phase.  Every party measures its own ququart, so its projector
sets are 4x4 stacks at its position, built once per party count.  Each
(state, projector set) pair is measured once per tree.  Both phases keep
their outcomes only as one int column per party, a row per round:
verification tallies them, and the key phase sifts, samples, scores and
keys them whole.  What verification reads of its party count and check
list (the menu, each check's joint choice, the table of listed joint
choices and each party's level of sign sets) is a read-only plan, built
once per (party count, check tuple) and shared by the built-in and
corrupt channels.  The key phase walks every round down its tree at
once.  Verification makes all its draws first; the menu codes
alone say which rounds match a check, and only those are walked then.
The discarded rounds, which no tally reads (12 of 16 joint choices for
two parties, 60 of 64 for three), are walked by the same walk on the
first read of the summary's ``outcomes``, from the draws already made,
so they read as they would have read then; a session never reads them.

Attack-free phases on a built-in channel (``make_channel``) measure the
same state with the same sets in every session, so they share one tree
per party count, kept for the life of the process; it stops growing at
13 rows for two parties and 63 for three (the menus allow 69, but a
state reached by two paths is one row), after which a phase's draws and
children are gathers from its levels' tables.  Attacked and
corrupt-channel phases build their own tree.  A tree only caches
products, so a session's draws and report do not depend on what ran
before it; but the shared tree is process state, so sessions in one
process must run one at a time (``run --repeat`` runs a share of its
seeds in the calling process and the rest in worker processes, each
process one session at a time).

A phase posts each per-round announcement (the operator announcements,
the control reveal and the sample reveals) as a message holding the
read-only columns it announces, or the verification summary whose
columns it announces; the message builds its payload once, on the first
read of ``payload`` or ``serialize()``.  A session only counts its
messages, so it builds none of these.

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
from typing import Callable

import numpy as np

from .linalg import ProjectorSet, Tree

# phases measure on tree levels; measure_projective stays bound for benchmark tracing
from .linalg import measure_projective  # noqa: F401
from .observables import KEY_BITS, KEY_LABELS, check_observable, key_basis, key_bit_errors, sift

# phases code key outcomes as indices; outcome_from_index stays bound for benchmark tracing
from .observables import outcome_from_index  # noqa: F401
from .channels import ChannelSpec, make_channel
from .attacks import AttackModel, attack_levels

# phases sample attack levels; make_attack_hook stays bound for benchmark tracing
from .attacks import make_attack_hook  # noqa: F401

ALICE = "alice"
BOB = "bob"
CHARLIE = "charlie"
PARTY_ORDER = (ALICE, BOB, CHARLIE)

TWO_PARTY_MENU = ("sx", "ux", "sz", "uz")
THREE_PARTY_MENU = ("sx", "ex", "oz", "id")

# the announced sign of a check's outcome index; the identity reads 0
SIGNS = (+1, -1)


@dataclass(frozen=True, eq=False)
class ClassicalMessage:
    """One classical announcement with a canonical serialized form.

    ``content`` is the payload dict, or a function of no arguments that
    builds it.  ``payload`` is that dict, built on its first read and then
    kept, so a message built from read-only columns announces what they
    held when it was posted, while a run that never reads it never pays
    for it.  Messages are equal when their sender, kind and payload are.
    """

    sender: str
    kind: str
    content: dict | Callable[[], dict]

    @functools.cached_property
    def payload(self) -> dict:
        return self.content() if callable(self.content) else self.content

    def __eq__(self, other):
        if not isinstance(other, ClassicalMessage):
            return NotImplemented
        return (self.sender, self.kind, self.payload) == (other.sender, other.kind, other.payload)

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


@dataclass(frozen=True, eq=False)
class SiftedKey:
    """Key material: two bits per kept key round, parity bit first, held
    as a read-only uint8 column; ``bits`` reads them as a tuple.  Keys are
    equal when their bits are."""

    column: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.column)
        if bits.ndim != 1 or len(bits) % 2 or not ((bits == 0) | (bits == 1)).all():
            raise ValueError("a key holds two bits, each 0 or 1, per round")
        column = bits.astype(np.uint8)
        column.setflags(write=False)
        object.__setattr__(self, "column", column)

    @property
    def bits(self) -> tuple:
        return tuple(self.column.tolist())

    def __len__(self) -> int:
        return len(self.column)

    def __eq__(self, other):
        if not isinstance(other, SiftedKey):
            return NotImplemented
        return np.array_equal(self.column, other.column)


def sift_key(indices) -> SiftedKey:
    """Serialize key-basis outcome indices to bits in round order, parity
    (``index >> 1``) then phase (``index & 1``), gathered from the
    read-only (4, 2) table ``observables.KEY_BITS``; an index outside 0..3
    raises ValueError."""
    indices = np.asarray(indices, dtype=np.intp)
    if (indices >> 2).any():
        raise ValueError("key-basis outcome indices lie in 0..3")
    return SiftedKey(KEY_BITS.take(indices, axis=0).ravel())


def compare_keys(a: SiftedKey, b: SiftedKey) -> list:
    """Positions where the two keys disagree (diagnostic)."""
    if len(a) != len(b):
        raise ValueError(f"keys of {len(a)} and {len(b)} bits cannot be compared")
    return np.flatnonzero(a.column != b.column).tolist()


@dataclass(frozen=True)
class CheckTally:
    rounds: int
    violations: int

    @property
    def frequency(self) -> float:
        return self.violations / self.rounds if self.rounds else 0.0


@dataclass(frozen=True, eq=False)
class VerificationSummary:
    """A verification phase's outcome, held as read-only columns: per
    party, the menu code of its choice and its outcome index in every
    round, and per round whether it matched a check; a round that matched
    none is discarded.

    The phase walks only the matched rounds, whose outcomes give the
    tallies.  ``outcomes`` holds every round's: its first read walks the
    discarded rounds by ``walk`` (a map from rows to their outcome
    columns: ``_walk`` on the phase's tree and draws), and each later
    read returns the same columns.  A session never reads them, so it
    never walks a discarded round."""

    menu: tuple
    choices: tuple  # per party, (rounds,) menu codes
    kept: np.ndarray  # (rounds,) matched a check
    kept_outcomes: tuple  # per party, (matched,) outcome indices of the kept rounds
    passed: bool
    tallies: dict  # check name -> CheckTally, in channel check order
    matched: int
    discarded: int
    vacuous: bool
    walk: Callable[[np.ndarray], list] = field(repr=False)

    @functools.cached_property
    def outcomes(self) -> tuple:
        """Per party, (rounds,) outcome indices: SIGNS[k] is announced."""
        discarded = np.flatnonzero(~self.kept)
        columns = []
        for kept, drawn in zip(self.kept_outcomes, self.walk(discarded)):
            column = np.empty(self.rounds, dtype=np.intp)
            column[self.kept] = kept
            column[discarded] = drawn
            columns.append(_read_only(column))
        return tuple(columns)

    @property
    def rounds(self) -> int:
        return len(self.kept)

    @property
    def total_violations(self) -> int:
        return sum(t.violations for t in self.tallies.values())


def _read_only(column: np.ndarray) -> np.ndarray:
    column.setflags(write=False)
    return column


def _announcements(summary: VerificationSummary, j: int) -> dict:
    """Party ``j``'s operator announcement payload: per round, its index,
    the party's choice by name and its announced sign."""
    codes, column = summary.choices[j], summary.outcomes[j]
    names = map(summary.menu.__getitem__, codes.tolist())
    signs = map(SIGNS.__getitem__, column.tolist())
    return {"rounds": list(zip(range(len(codes)), names, signs))}


def _reveal(column: np.ndarray, sample=None) -> dict:
    """A reveal's payload: the key outcome label of every round of
    ``column``, or of the ``sample`` rounds only, by round."""
    if sample is None:
        rows, values = range(len(column)), column
    else:
        rows, values = sample.tolist(), column[sample]
    return {"outcomes": dict(zip(rows, map(KEY_LABELS.__getitem__, values.tolist())))}


def _menu(party_count: int):
    return TWO_PARTY_MENU if party_count == 2 else THREE_PARTY_MENU


def _joint(width: int, codes):
    """The joint choice of the parties' menu codes, a base-``width``
    number with the first party's code most significant: of ints, or of
    equal-length int columns, one per party."""
    joint = codes[0]
    for column in codes[1:]:
        joint = joint * width + column
    return joint


@functools.cache
def _sign_projector_sets(party_count: int) -> MappingProxyType:
    """(+1, -1) eigenprojector pairs per (position, observable), each a
    (2, 4, 4) set at its position; None for the identity, which is never
    measured.  Built once per party count and shared read-only."""
    sets = {}
    for pos in range(party_count):
        for name in _menu(party_count):
            if name == "id":
                sets[pos, name] = None
                continue
            obs = check_observable(name)
            pair = (obs.plus_projector, obs.minus_projector)
            sets[pos, name] = ProjectorSet(pair, pos)
    return MappingProxyType(sets)


@functools.cache
def _key_projector_sets(party_count: int) -> tuple:
    """The key-basis projectors as a (4, 4, 4) set per position, built once
    per party count."""
    return tuple(ProjectorSet(key_basis().projectors, pos) for pos in range(party_count))


@functools.cache
def _attack_free_tree(party_count: int) -> Tree:
    """The branch tree of every attack-free phase on the built-in channel
    of ``party_count`` parties, kept for the life of the process.  Only
    the cached projector sets measure it, so it stops growing within the
    menus' bound: at 13 rows for two parties, and 63 of 69 for three."""
    return Tree(make_channel(party_count).state)


def _phase_tree(spec: ChannelSpec, attack: AttackModel) -> Tree:
    """The tree a phase samples: the shared attack-free tree of a built-in
    channel, else a fresh one.  Every probability and child is the same
    product on the same bytes in either, so the draws are the same."""
    if attack.kind == "none" and spec is make_channel(spec.party_count):
        return _attack_free_tree(spec.party_count)
    return Tree(spec.state)


def _phase(spec: ChannelSpec, num_rounds: int, attack: AttackModel, rngs: dict) -> tuple:
    """A phase's set-up from its inputs: its parties in position order,
    its tree (``_phase_tree``) and the attack's walk of its ``num_rounds``
    rounds, a map from rows (an index array) to the node ids of their
    attacked copies of the root (``attacks.attack_levels``).  A negative
    round count raises ValueError, and so do two parties, or a party and
    the attack, that share a generator: the parties' choices and outcomes
    are independent of each other and of the attack's only when their
    streams are distinct.  An attack stream not in ``rngs`` is shared
    with no party, since a session builds each stream on its first read.

    Every stream draws a phase's values in bulk, one call per kind of
    draw, a row per round; for N rounds, in this order per stream:

    * attack: the attack's columns, drawn here (``attacks.attack_levels``:
      a measuring attack's readout uniforms, and depolarize's gates,
      readout uniforms and fresh digits, each N x T for T targets).
      Attack-free, nothing is drawn, the stream is not read, and the walk
      leaves every round at the root.
    * each party, verification: its menu codes by ``integers(4,
      size=N)``, then one uniform per round by ``random(N)``, all before
      any round is walked (``run_verification_phase``); an idle round's
      uniform is drawn but never read.
    * each party, key phase: one uniform per round by ``random(N)``,
      drawn when the walk reaches the party (``_walk``); without the
      controller's permission, Bob then guesses by ``integers(4, size=N)``
      (``run_key_phase_controlled``).
    * public: a key phase's sample, ``choice(N, size=count,
      replace=False)`` for the ``count = round(sample_fraction * N)`` it
      reveals, drawn only when a reveal is posted and ``count`` is not 0.
    """
    if num_rounds < 0:
        raise ValueError("num_rounds must be >= 0")
    parties = PARTY_ORDER[: spec.party_count]
    streams = [rngs[p] for p in parties]
    if "attack" in rngs:
        streams.append(rngs["attack"])
    if len({id(s) for s in streams}) != len(streams):
        raise ValueError("the party and attack streams must be distinct generators")
    # an attack-free walk draws nothing, so its stream is not read
    stream = None if attack.kind == "none" else rngs["attack"]
    attacked = attack_levels(attack, spec.party_count)(stream, num_rounds)
    return parties, _phase_tree(spec, attack), attacked


def _walk(tree, ids, levels, draws) -> list:
    """Outcome indices of the rounds that start at the nodes ``ids``, a
    column per party: each party on its level of ``levels`` in turn.
    ``draws`` is an iterator of each party's (uniforms, codes): a uniform
    per round, and per round a code into the party's level, or None for a
    level of one set.  A party's pair is taken when the walk reaches it,
    so it may be drawn or gathered then (``_phase``), and is dropped when
    the party is done.  Every party but the last descends to its drawn
    branch's node; the last party only draws.  A round's outcomes depend
    only on its rows of the draws and the bytes of the nodes it passes, so
    rows walked apart read as one walk of them all."""
    *earlier, last = levels
    columns = []
    for sets in earlier:
        drawn, ids = tree.descend(ids, sets, *next(draws))
        columns.append(drawn)
    columns.append(tree.draw(ids, last, *next(draws)))
    return columns


@dataclass(frozen=True, eq=False)
class _VerificationPlan:
    """What a verification phase reads of its party count and check list:
    the menu, per check its joint choice (``_joint``, or None for a
    choice no party can make), per joint choice whether a check lists it,
    and per party its menu of sign sets, the level it measures on.  Built
    once per (party count, check tuple) and shared read-only."""

    menu: tuple
    check_codes: tuple
    listed: np.ndarray  # (len(menu) ** party count,) bool
    sign_levels: tuple  # per party, its menu's sign sets in menu order


# plans kept: one per built-in party count, and room for custom check lists
VERIFICATION_PLANS = 16


@functools.lru_cache(maxsize=VERIFICATION_PLANS)
def _verification_plan(party_count: int, checks: tuple) -> _VerificationPlan:
    """The plan of ``party_count`` parties and the check list ``checks``:
    the built-in and corrupt channels of a party count share one."""
    menu = _menu(party_count)
    code = {name: k for k, name in enumerate(menu)}
    check_codes = tuple(
        _joint(len(menu), [code[name] for name in check.operators])
        if code.keys() >= set(check.operators)
        else None
        for check in checks
    )
    listed = np.zeros(len(menu) ** party_count, dtype=bool)
    listed[[c for c in check_codes if c is not None]] = True
    sign_sets = _sign_projector_sets(party_count)
    return _VerificationPlan(
        menu=menu,
        check_codes=check_codes,
        listed=_read_only(listed),
        sign_levels=tuple(tuple(sign_sets[j, name] for name in menu) for j in range(party_count)),
    )


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

    Every draw is made first, in the layout of ``_phase``.  The codes
    alone say which rounds match a check (the joint choice, by column
    arithmetic, against the plan's ``listed`` table), and only those
    rounds are walked down the phase's branch tree now, one level at a
    time for all of them: the attack's targets, then each party
    (``_walk``), its draws gathered for those rows when the walk reaches
    it.  The tallies come from them alone.  The discarded rounds are
    walked by the same walk when the summary's ``outcomes`` are first
    read, and read as they would have read now.  The menu, the check
    codes, the listed table and the parties' levels are the plan of the
    party count and check list (``_verification_plan``), built once.
    """
    parties, tree, attacked = _phase(spec, num_rounds, attack, rngs)
    plan = _verification_plan(spec.party_count, spec.checks)
    width = len(plan.menu)

    codes = np.empty((len(parties), num_rounds), dtype=np.int64)
    uniforms = np.empty((len(parties), num_rounds))
    for j, p in enumerate(parties):
        codes[j] = rngs[p].integers(width, size=num_rounds)
        uniforms[j] = rngs[p].random(num_rounds)
    choices = tuple(_read_only(codes))

    def walk(rows):
        gathered = ((u.take(rows), c.take(rows)) for u, c in zip(uniforms, codes))
        return _walk(tree, attacked(tree, rows), plan.sign_levels, gathered)

    # rounds are tallied per joint choice
    choice = _joint(width, choices)
    kept = _read_only(plan.listed[choice])
    matched = kept.nonzero()[0]

    # the outcome product is -1 exactly when an odd number of outcomes is
    # 1 (the identity reads 0)
    kept_outcomes = tuple(map(_read_only, walk(matched)))
    odd = kept_outcomes[0]
    for column in kept_outcomes[1:]:
        odd = odd ^ column
    # per joint choice, its matched rounds with an even and an odd product
    counts = np.bincount(2 * choice[matched] + odd, minlength=2 * len(plan.listed)).tolist()
    tallies = {}
    for check, code in zip(spec.checks, plan.check_codes):
        if code is None:
            tallies[check.name] = CheckTally(0, 0)
            continue
        even_rounds, odd_rounds = counts[2 * code], counts[2 * code + 1]
        violations = odd_rounds if check.expected == 1 else even_rounds
        tallies[check.name] = CheckTally(even_rounds + odd_rounds, violations)

    violations = sum(t.violations for t in tallies.values())
    summary = VerificationSummary(
        menu=plan.menu,
        choices=choices,
        kept=kept,
        kept_outcomes=kept_outcomes,
        passed=violations == 0,
        tallies=tallies,
        matched=len(matched),
        discarded=num_rounds - len(matched),
        vacuous=len(matched) == 0,
        walk=walk,
    )
    # batch announcement at end of phase; per-round would be equivalent
    for j, p in enumerate(parties):
        payload = functools.partial(_announcements, summary, j)
        bus.post(ClassicalMessage(p, "operator-announcement", payload))
    return summary


@dataclass(frozen=True, eq=False)
class KeyPhase:
    """A key phase's outcome, held as read-only columns: per party its
    key-basis outcome index in every round, and per round whether the
    public sample consumed it; the rounds not consumed give the keys."""

    outcomes: tuple  # per party, (rounds,) key-basis outcome indices
    consumed: np.ndarray  # (rounds,) revealed in the public sample
    qber: float
    passed: bool

    @property
    def rounds(self) -> int:
        return len(self.consumed)

    @functools.cached_property
    def sampled(self) -> int:
        """The rounds the sample consumed, counted on the first read."""
        return int(np.count_nonzero(self.consumed))

    @property
    def kept(self) -> int:
        return self.rounds - self.sampled


def _key_phase(spec, num_rounds, sample_fraction, qber_threshold, attack, rngs, bus, reveal):
    """The key phase both protocols share.

    Every party measures ``num_rounds`` fresh channel copies in the key
    basis.  ``reveal`` is (requester, revealing positions, control
    position or None): the control party first reveals every outcome, the
    requester asks for a public random sample, and the revealing parties
    reveal their sampled outcomes.  The sample is consumed; its per-bit
    mismatch between the sifting rule's reference and estimate is the
    qber, and the other rounds give the reference and estimate keys.
    With ``reveal`` None nothing is posted or sampled.

    All rounds are walked together, one level of the phase's branch tree
    at a time: the attack's targets, then each party in the key basis
    (``_walk``), its uniforms drawn in the layout of ``_phase`` when the
    walk reaches it.  Sifting, the qber and the keys work on the outcome
    columns whole.

    Returns the ``KeyPhase`` fields as a dict, the reference key and the
    estimate key.
    """
    if not 0.0 <= sample_fraction < 1.0:
        raise ValueError("sample_fraction must lie in [0, 1)")
    parties, tree, attacked = _phase(spec, num_rounds, attack, rngs)
    levels = [(projectors,) for projectors in _key_projector_sets(spec.party_count)]
    draws = ((rngs[p].random(num_rounds), None) for p in parties)
    ids = attacked(tree, np.arange(num_rounds))
    del attacked  # its columns are read by that walk alone: release them before the parties draw
    columns = list(map(_read_only, _walk(tree, ids, levels, draws)))
    sample = _read_only(np.zeros(0, dtype=np.intp))
    if reveal is not None:
        requester, revealers, control = reveal
        if control is not None:
            payload = functools.partial(_reveal, columns[control])
            bus.post(ClassicalMessage(parties[control], "control-reveal", payload))
        count = int(round(sample_fraction * num_rounds))
        if count:
            drawn = rngs["public"].choice(num_rounds, size=count, replace=False)
            sample = _read_only(np.sort(drawn))
        bus.post(ClassicalMessage(requester, "sample-check-request", {"rounds": sample.tolist()}))
        for pos in revealers:
            payload = functools.partial(_reveal, columns[pos], sample)
            bus.post(ClassicalMessage(parties[pos], "sample-check-reveal", payload))
    bit_errors = int(key_bit_errors([column[sample] for column in columns]).sum())
    qber = bit_errors / (2 * len(sample)) if len(sample) else 0.0
    consumed = np.zeros(num_rounds, dtype=bool)
    consumed[sample] = True
    consumed.setflags(write=False)
    unsampled = ~consumed
    reference, estimate = (sift_key(column[unsampled]) for column in sift(columns))
    phase = dict(outcomes=tuple(columns), consumed=consumed, qber=qber)
    return dict(phase, passed=qber <= qber_threshold), reference, estimate


@dataclass(frozen=True, eq=False)
class KeyPhaseTwoParty(KeyPhase):
    alice_key: SiftedKey
    bob_key: SiftedKey


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
    if spec.party_count != 2:
        raise ValueError("the two-party key phase needs a two-party channel")
    phase, alice_key, bob_key = _key_phase(
        spec, num_rounds, sample_fraction, qber_threshold, attack, rngs, bus, (ALICE, (0, 1), None)
    )
    return KeyPhaseTwoParty(**phase, alice_key=alice_key, bob_key=bob_key)


@dataclass(frozen=True, eq=False)
class KeyPhaseControlled(KeyPhase):
    bob_key: SiftedKey
    charlie_key: SiftedKey
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
    reported, and no key material is produced.  Bob's guesses are drawn
    from his stream in the layout of ``_phase``.
    """
    if spec.party_count != 3:
        raise ValueError("the controlled key phase needs a three-party channel")
    # the controller reveals everything first; without permission she
    # stays silent and no message ever enters the bus
    reveal = (BOB, (2,), 0) if alice_permits else None
    phase, charlie_key, bob_key = _key_phase(
        spec, num_rounds, sample_fraction, qber_threshold, attack, rngs, bus, reveal
    )
    outcomes = phase["outcomes"]
    if alice_permits:
        hit = np.equal(*sift(outcomes))
    else:
        # Bob's estimate needs Alice's outcomes, so he can only guess
        bob_key = charlie_key = SiftedKey(())
        hit = rngs[BOB].integers(4, size=num_rounds) == outcomes[2]
    hits = int(np.count_nonzero(hit))  # an int, so the accuracy is a float
    return KeyPhaseControlled(
        **phase,
        bob_key=bob_key,
        charlie_key=charlie_key,
        deduction_accuracy=hits / num_rounds if num_rounds else float(alice_permits),
        alice_permitted=alice_permits,
    )
