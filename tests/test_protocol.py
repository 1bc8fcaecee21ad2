import dataclasses
import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ququart_qkd import observables, protocol
from ququart_qkd.attacks import AttackModel
from ququart_qkd.channels import (
    ChannelCheck,
    ChannelSpec,
    corrupt_channel,
    make_channel,
    three_party_channel,
    two_party_channel,
)
from ququart_qkd.observables import KEY_LABELS, outcome_from_index, sift
from ququart_qkd.protocol import (
    PARTY_ORDER,
    SIGNS,
    THREE_PARTY_MENU,
    TWO_PARTY_MENU,
    ClassicalMessage,
    MessageBus,
    SiftedKey,
    compare_keys,
    run_key_phase_controlled,
    run_key_phase_two_party,
    run_verification_phase,
    sift_key,
)
from ququart_qkd.session import _named_streams

NONE = AttackModel()
IRC_BOB = AttackModel("intercept-computational", targets=(1,))


def streams(seed):
    names = ("alice", "bob", "charlie", "attack", "public")
    seqs = np.random.SeedSequence(seed).spawn(len(names))
    return {n: np.random.default_rng(s) for n, s in zip(names, seqs)}


def verification_rounds(summary):
    """Per round, read from the summary's columns: the parties' choices by
    name, their announced signs and whether the round matched a check."""
    names = zip(*(map(summary.menu.__getitem__, c.tolist()) for c in summary.choices))
    signs = zip(*(map(SIGNS.__getitem__, c.tolist()) for c in summary.outcomes))
    return list(zip(names, signs, summary.kept.tolist()))


def test_message_serialization_is_canonical():
    payload = {"b": [1, 2], "a": {2: "x", 1: "y"}}
    msg = ClassicalMessage("alice", "sample-check-reveal", payload)
    assert msg.serialize() == "sender=alice kind=sample-check-reveal a=1:y;2:x b=1,2"
    # a dict is the payload as given; a builder is called on first read
    assert msg.payload is payload
    built = ClassicalMessage("alice", "sample-check-reveal", lambda: dict(payload))
    assert built.serialize() == msg.serialize() and built == msg


def test_bus_is_fifo_and_keeps_transcript():
    bus = MessageBus()
    first = ClassicalMessage("alice", "k", {})
    second = ClassicalMessage("bob", "k", {})
    bus.post(first)
    bus.post(second)
    assert bus.transcript == [first, second]


def test_sifted_key_validation():
    SiftedKey((0, 1, 1, 0))
    for bad in ((0, 1, 1), (0, 2), (0, 2, 1), (-1, 0), (0.5, 1), ((0, 1), (1, 0)), 1):
        with pytest.raises(ValueError):
            SiftedKey(bad)


def test_sifted_key_is_a_read_only_column_equal_by_bits():
    bits = np.array([1, 0, 0, 1])
    key = SiftedKey(bits)
    bits[0] = 0  # the key holds its own copy
    assert key.bits == (1, 0, 0, 1)
    assert key.column.dtype == np.uint8 and not key.column.flags.writeable
    assert key == SiftedKey((1, 0, 0, 1)) and key != SiftedKey((1, 0, 0, 0))
    assert key != SiftedKey(()) and len(key) == 4


def test_sift_key_bit_order():
    outcomes = [outcome_from_index(0), outcome_from_index(3)]  # phi+, psi-
    bits = sift_key([o.index for o in outcomes]).bits
    assert bits == (0, 0, 1, 1)
    assert bits == tuple(b for o in outcomes for b in (o.parity_bit, o.phase_bit))
    assert sift_key([]).bits == ()
    assert sift_key(np.arange(4)).bits == (0, 0, 0, 1, 1, 0, 1, 1)


def stacked_sift_key(indices) -> SiftedKey:
    """``sift_key`` as parity and phase columns stacked per round."""
    indices = np.asarray(indices, dtype=np.intp)
    return SiftedKey(np.stack((indices >> 1, indices & 1), axis=-1).ravel())


def test_sift_key_equals_the_stacked_bit_form():
    rng = np.random.default_rng(5)
    columns = [np.arange(4), np.arange(4)[::-1], np.zeros(0, dtype=np.intp), [], rng.integers(4, size=999)]
    columns += [np.full(7, k) for k in range(4)]
    for column in columns:
        key = sift_key(column)
        assert key == stacked_sift_key(column)
        assert key.column.dtype == np.uint8 and not key.column.flags.writeable
    for bad in ([4], [0, -1], [2**40]):
        with pytest.raises(ValueError):
            sift_key(bad)
    # the table is shared, so it cannot be written
    with pytest.raises(ValueError):
        observables.KEY_BITS[0, 0] = 1


def reduced_joint(width, codes):
    """The joint choice as a fold over the parties' codes."""
    return functools.reduce(lambda acc, code: acc * width + code, codes)


@pytest.mark.parametrize("parties", [2, 3])
def test_verification_plan_is_shared_and_read_only(parties):
    spec = make_channel(parties)
    plan = protocol._verification_plan(parties, spec.checks)
    assert protocol._verification_plan(parties, corrupt_channel(spec).checks) is plan
    assert not plan.listed.flags.writeable
    with pytest.raises(ValueError):
        plan.listed[0] = True
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.menu = ()
    assert isinstance(plan.check_codes, tuple) and isinstance(plan.sign_levels, tuple)
    assert all(isinstance(level, tuple) for level in plan.sign_levels)
    # the joint choices, listed table and levels the phase used to build per call
    menu = TWO_PARTY_MENU if parties == 2 else THREE_PARTY_MENU
    codes = [reduced_joint(len(menu), [menu.index(n) for n in c.operators]) for c in spec.checks]
    assert list(plan.check_codes) == codes
    assert np.flatnonzero(plan.listed).tolist() == sorted(codes)
    assert plan.menu == menu
    sign_sets = protocol._sign_projector_sets(parties)
    assert plan.sign_levels == tuple(tuple(sign_sets[j, n] for n in menu) for j in range(parties))
    choices = [np.random.default_rng(j).integers(len(menu), size=50) for j in range(parties)]
    assert np.array_equal(protocol._joint(len(menu), choices), reduced_joint(len(menu), choices))


def test_a_custom_check_list_gets_its_own_plan():
    spec = make_channel(2)
    checks = (spec.checks[2], spec.checks[0], ChannelCheck(("sx", "id"), +1))
    custom = ChannelSpec(2, spec.state, checks)
    plan = protocol._verification_plan(2, checks)
    assert plan is not protocol._verification_plan(2, spec.checks)
    # ("sx", "id") is no joint choice of the two-party menu
    assert plan.check_codes == (10, 0, None)
    summary = run_verification_phase(custom, 400, NONE, streams(3), MessageBus())
    assert list(summary.tallies) == ["sz_sz", "sx_sx", "sx_id"]
    assert summary.tallies["sx_id"].rounds == 0
    full = run_verification_phase(spec, 400, NONE, streams(3), MessageBus())
    for name in ("sz_sz", "sx_sx"):
        assert summary.tallies[name] == full.tallies[name]
    # the rounds of the dropped checks are discarded
    assert summary.matched == full.tallies["sz_sz"].rounds + full.tallies["sx_sx"].rounds


def test_compare_keys_reports_positions():
    a = SiftedKey((0, 0, 1, 1))
    b = SiftedKey((0, 1, 1, 1))
    assert compare_keys(a, b) == [1]
    assert compare_keys(a, a) == []
    assert compare_keys(SiftedKey(()), SiftedKey(())) == []
    with pytest.raises(ValueError):
        compare_keys(a, SiftedKey((0, 0)))


def test_xor_law_table_and_worked_examples():
    # Bob's estimate of Charlie's outcome is Alice's and his own, bitwise XORed
    for a in range(4):
        for b in range(4):
            d = outcome_from_index(sift((a, b, 0))[1])
            assert d.parity_bit == (a // 2) ^ (b // 2)
            assert d.phase_bit == (a % 2) ^ (b % 2)
    # worked example: phi+ with psi- deduces psi-
    assert KEY_LABELS[sift((0, 3, 0))[1]] == "psi-"


def test_two_party_verification_attack_free():
    spec = two_party_channel()
    bus = MessageBus()
    summary = run_verification_phase(spec, 1500, NONE, streams(11), bus)
    assert summary.passed and not summary.vacuous
    assert summary.total_violations == 0
    assert summary.matched + summary.discarded == 1500
    assert summary.rounds == 1500 and np.count_nonzero(summary.kept) == summary.matched
    assert all(len(c) == 1500 for c in summary.choices + summary.outcomes)
    expected = {c.operators: c.expected for c in spec.checks}
    for choices, signs, kept in verification_rounds(summary):
        # a round is kept exactly when its choices are a listed check
        assert kept == (choices in expected)
        if kept:
            assert int(np.prod(signs)) == expected[choices]


def test_two_party_mismatch_rate_matches_menu_model():
    # only 4 of the 16 operator pairs are listed checks
    n = 4000
    summary = run_verification_phase(two_party_channel(), n, NONE, streams(12), MessageBus())
    sigma = np.sqrt(0.75 * 0.25 / n)
    assert abs(summary.discarded / n - 0.75) <= 4 * sigma


def test_verification_choices_come_from_the_menus():
    two = run_verification_phase(two_party_channel(), 300, NONE, streams(13), MessageBus())
    for choices, _, _ in verification_rounds(two):
        assert all(name in TWO_PARTY_MENU for name in choices)
    three = run_verification_phase(three_party_channel(), 300, NONE, streams(13), MessageBus())
    for choices, _, _ in verification_rounds(three):
        assert all(name in THREE_PARTY_MENU for name in choices)


def test_three_party_verification_attack_free():
    summary = run_verification_phase(three_party_channel(), 2000, NONE, streams(14), MessageBus())
    assert summary.passed
    assert summary.total_violations == 0
    # identity slots always announce +1
    rounds = verification_rounds(summary)
    for choices, signs, _ in rounds:
        for name, value in zip(choices, signs):
            assert value in (-1, +1)
            if name == "id":
                assert value == +1
    kept_kinds = {choices for choices, _, kept in rounds if kept}
    assert kept_kinds <= {
        ("sx", "sx", "sx"),
        ("oz", "oz", "oz"),
        ("ex", "ex", "id"),
        ("id", "ex", "ex"),
    }


def test_verification_announces_every_party_once():
    bus = MessageBus()
    run_verification_phase(two_party_channel(), 50, NONE, streams(15), bus)
    kinds = [(m.sender, m.kind) for m in bus.transcript]
    assert kinds == [("alice", "operator-announcement"), ("bob", "operator-announcement")]


def test_verification_zero_rounds_is_vacuous_pass():
    summary = run_verification_phase(two_party_channel(), 0, NONE, streams(16), MessageBus())
    assert summary.passed and summary.vacuous
    assert summary.matched == 0


def test_verification_detects_computational_intercept():
    summary = run_verification_phase(two_party_channel(), 800, IRC_BOB, streams(17), MessageBus())
    assert not summary.passed
    assert summary.tallies["sz_sz"].violations == 0
    assert summary.tallies["uz_uz"].violations == 0
    assert summary.tallies["sx_sx"].violations > 0
    assert summary.tallies["ux_ux"].violations > 0


def test_two_party_key_phase_attack_free():
    spec = two_party_channel()
    bus = MessageBus()
    phase = run_key_phase_two_party(spec, 2000, 0.1, 0.0, NONE, streams(18), bus)
    assert phase.passed
    assert phase.qber == 0.0
    assert phase.sampled == 200
    assert phase.kept == 1800
    assert len(phase.alice_key) == 2 * phase.kept
    assert phase.alice_key == phase.bob_key
    a, b = phase.outcomes
    # the channel only ever pairs opposite parity with opposite phase
    assert len(a) == len(b) == 2000
    assert (a ^ b == 3).all()
    assert (b[a == KEY_LABELS.index("psi-")] == KEY_LABELS.index("phi+")).all()
    kinds = [m.kind for m in bus.transcript]
    assert kinds == ["sample-check-request", "sample-check-reveal", "sample-check-reveal"]


@pytest.mark.parametrize(
    "parties,permits,attack",
    [(2, True, NONE), (2, True, IRC_BOB), (3, True, NONE), (3, False, NONE)],
    ids=["two-party", "two-party-intercept", "controlled", "controlled-no-permission"],
)
def test_key_columns_match_the_transcript(parties, permits, attack):
    spec, bus = make_channel(parties), MessageBus()
    if parties == 2:
        phase = run_key_phase_two_party(spec, 301, 0.2, 0.0, attack, streams(27), bus)
    else:
        phase = run_key_phase_controlled(spec, 301, 0.2, 0.0, permits, attack, streams(27), bus)
    # the consumed rounds are the sample the transcript requested
    requests = [m.payload["rounds"] for m in bus.transcript if m.kind == "sample-check-request"]
    sample = requests[0] if requests else []
    assert np.flatnonzero(phase.consumed).tolist() == sample
    assert len(sample) == phase.sampled == (60 if permits else 0)
    assert (phase.rounds, phase.kept) == (301, 301 - phase.sampled)
    assert [len(column) for column in phase.outcomes] == [301] * parties
    # every revealed label is the outcome column's entry of its sender
    for message in bus.transcript:
        if message.kind.endswith("reveal"):
            pos = PARTY_ORDER.index(message.sender)
            for index, label in message.payload["outcomes"].items():
                assert KEY_LABELS[phase.outcomes[pos][index]] == label


@pytest.mark.parametrize("parties", [2, 3])
def test_posted_columns_are_read_only(parties):
    # a message builds its payload when first read, so every column it
    # reads must still hold what it held when the message was posted
    spec, bus, rngs = make_channel(parties), MessageBus(), streams(29)
    summary = run_verification_phase(spec, 40, NONE, rngs, bus)
    if parties == 2:
        phase = run_key_phase_two_party(spec, 40, 0.25, 0.0, NONE, rngs, bus)
    else:
        phase = run_key_phase_controlled(spec, 40, 0.25, 0.0, True, NONE, rngs, bus)
    columns = [*summary.choices, *summary.outcomes, summary.kept, *phase.outcomes, phase.consumed]
    # the sampled rows are held only by the messages that announce them
    builders = [m.content for m in bus.transcript if callable(m.content)]
    posted = [a for build in builders for a in build.args if isinstance(a, np.ndarray)]
    sample = np.flatnonzero(phase.consumed)
    assert len(sample) == 10 and any(np.array_equal(a, sample) for a in posted)
    for column in columns + posted:
        with pytest.raises(ValueError):
            column[0] = column[0]


def test_two_party_key_phase_sampling_accounting():
    phase = run_key_phase_two_party(
        two_party_channel(), 1000, 0.25, 0.0, NONE, streams(19), MessageBus()
    )
    assert phase.sampled == 250
    assert phase.sampled + phase.kept == 1000
    assert np.count_nonzero(phase.consumed) == 250
    assert len(phase.alice_key) == len(phase.bob_key) == 2 * 750


@pytest.mark.parametrize(
    "run_phase,spec,permits",
    [
        (run_key_phase_two_party, two_party_channel(), ()),
        (run_key_phase_controlled, three_party_channel(), (True,)),
    ],
    ids=["two-party", "controlled"],
)
def test_key_phases_reject_full_sampling(run_phase, spec, permits):
    with pytest.raises(ValueError):
        run_phase(spec, 10, 1.0, 0.0, *permits, NONE, streams(20), MessageBus())


def test_shared_streams_are_rejected():
    # parties draw independently of each other and of the attack only from
    # distinct streams
    phases = (
        lambda rngs: run_verification_phase(make_channel(2), 10, AttackModel(), rngs, MessageBus()),
        lambda rngs: run_key_phase_two_party(
            make_channel(2), 10, 0.1, 0.0, AttackModel(), rngs, MessageBus()
        ),
        lambda rngs: run_key_phase_controlled(
            make_channel(3), 10, 0.1, 0.0, True, AttackModel(), rngs, MessageBus()
        ),
    )
    for phase in phases:
        for a, b in (("alice", "bob"), ("bob", "attack")):
            rngs = _named_streams(0)
            rngs[b] = rngs[a]
            with pytest.raises(ValueError):
                phase(rngs)
    rngs = _named_streams(0)
    rngs["charlie"] = rngs["attack"]
    with pytest.raises(ValueError):
        phases[2](rngs)


def test_round_and_sample_checks_survive_optimized_mode():
    # python -O strips asserts; these checks must raise ValueError anyway
    script = (
        "import numpy as np\n"
        "from ququart_qkd.attacks import AttackModel\n"
        "from ququart_qkd.channels import three_party_channel, two_party_channel\n"
        "from registers import embed, ket\n"
        "from ququart_qkd.linalg import (OperatorStack, ProjectorSet, apply_stacked,\n"
        "    measure_projective, state_from_amplitudes)\n"
        "from ququart_qkd.observables import Observable, outcome_from_index\n"
        "from ququart_qkd.protocol import (MessageBus, SiftedKey, compare_keys,\n"
        "    run_key_phase_controlled, run_key_phase_two_party, run_verification_phase)\n"
        "from ququart_qkd.session import ConfigError, SessionConfig, _named_streams, hex_to_bits\n"
        "two, three, none = two_party_channel(), three_party_channel(), AttackModel()\n"
        "calls = {\n"
        "    'key two-party sample 1.0': lambda: run_key_phase_two_party(\n"
        "        two, 10, 1.0, 0.0, none, _named_streams(0), MessageBus()),\n"
        "    'key controlled rounds -1': lambda: run_key_phase_controlled(\n"
        "        three, -1, 0.1, 0.0, True, none, _named_streams(0), MessageBus()),\n"
        "    'key two-party on the three-party channel': lambda: run_key_phase_two_party(\n"
        "        three, 100, 0.1, 0.0, none, _named_streams(0), MessageBus()),\n"
        "    'key controlled on the two-party channel': lambda: run_key_phase_controlled(\n"
        "        two, 100, 0.1, 0.0, True, none, _named_streams(0), MessageBus()),\n"
        "    'key of three bits': lambda: SiftedKey((0, 2, 1)),\n"
        "    'key bit 2': lambda: SiftedKey((0, 2)),\n"
        "    'keys of 4 and 2 bits': lambda: compare_keys(\n"
        "        SiftedKey((0, 1, 1, 0)), SiftedKey((0, 1))),\n"
        "    'verification rounds -1': lambda: run_verification_phase(\n"
        "        two, -1, none, _named_streams(0), MessageBus()),\n"
        "    'short hex': lambda: hex_to_bits('c', 6),\n"
        "    'nonzero padding': lambda: hex_to_bits('c1', 2),\n"
        "    'incomplete projector set': lambda: measure_projective(\n"
        "        ket(0), [np.diag(np.eye(4)[k]) for k in range(3)], _named_streams(0)['alice']),\n"
        "    'ket index 4 of one ququart': lambda: ket(4),\n"
        "    'three amplitudes for one ququart': lambda: state_from_amplitudes([1, 0, 0], 1),\n"
        "    'all-zero amplitudes': lambda: state_from_amplitudes([0, 0, 0, 0], 1),\n"
        "    'embed position 2 of 2': lambda: embed(np.eye(4), 2, 2),\n"
        "    'embed a 2x2 local operator': lambda: embed(np.eye(2), 0, 2),\n"
        "    'a register stack at position 1': lambda: ProjectorSet([np.eye(16)], 1),\n"
        "    'a stack at position -1': lambda: OperatorStack([np.eye(4)], -1),\n"
        "    'a stack at position 2 of 2': lambda: apply_stacked(\n"
        "        np.eye(4)[None], 2, ket(0, 2).amplitudes[None]),\n"
        "    'measure at position 2 of 2': lambda: measure_projective(\n"
        "        ket(0, 2), ProjectorSet([np.eye(4)], 2), _named_streams(0)['alice']),\n"
        "    'observable of shape 2x2': lambda: Observable('bad', np.eye(2)),\n"
        "    'non-Hermitian observable': lambda: Observable(\n"
        "        'bad', np.roll(np.eye(4), 1, axis=0)),\n"
        "    'observable squaring to 4': lambda: Observable('bad', 2 * np.eye(4)),\n"
        "    'outcome index 4': lambda: outcome_from_index(4),\n"
        "    'attack target 1.5': lambda: AttackModel('intercept-key', (1.5,)),\n"
        "    'attack target True': lambda: AttackModel('intercept-key', (True,)),\n"
        "    'attack strength \"0.5\"': lambda: AttackModel('depolarize', (1,), '0.5'),\n"
        "}\n"
        "configs = {\n"
        "    'corrupt \"false\"': dict(corrupt='false'),\n"
        "    'alice_permits \"no\"': dict(protocol='three-party', alice_permits='no'),\n"
        "    'verification_rounds 2.5': dict(verification_rounds=2.5),\n"
        "    'verification_rounds True': dict(verification_rounds=True),\n"
        "    'seed 1.5': dict(seed=1.5),\n"
        "    'sample_fraction \"0.1\"': dict(sample_fraction='0.1'),\n"
        "    'attack \"intercept-key\"': dict(attack='intercept-key'),\n"
        "}\n"
        "checks = [(name, call, ValueError) for name, call in calls.items()]\n"
        "checks += [(name, lambda kwargs=kwargs: SessionConfig(**kwargs), ConfigError)\n"
        "           for name, kwargs in configs.items()]\n"
        "for name, call, error in checks:\n"
        "    try:\n"
        "        call()\n"
        "    except error:\n"
        "        continue\n"
        "    raise SystemExit(f'accepted {name}')\n"
    )
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(map(str, (here.parent / "src", here)))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_two_party_key_phase_flags_disturbed_channel():
    phase = run_key_phase_two_party(
        two_party_channel(), 2000, 0.25, 0.0, IRC_BOB, streams(21), MessageBus()
    )
    assert not phase.passed
    sigma = np.sqrt(0.25 * 0.75 / (2 * phase.sampled))
    assert abs(phase.qber - 0.25) <= 4 * sigma


def test_key_intercept_slips_through_the_key_phase():
    # the key-basis intercept never disturbs key rounds, only verification
    attack = AttackModel("intercept-key", targets=(1,))
    phase = run_key_phase_two_party(
        two_party_channel(), 1000, 0.25, 0.0, attack, streams(22), MessageBus()
    )
    assert phase.qber == 0.0
    assert phase.alice_key == phase.bob_key
    summary = run_verification_phase(two_party_channel(), 800, attack, streams(22), MessageBus())
    assert not summary.passed


def test_controlled_key_phase_with_permission():
    spec = three_party_channel()
    bus = MessageBus()
    phase = run_key_phase_controlled(spec, 1500, 0.1, 0.0, True, NONE, streams(23), bus)
    assert phase.alice_permitted
    assert phase.passed
    assert phase.qber == 0.0
    assert phase.deduction_accuracy == 1.0
    assert phase.bob_key == phase.charlie_key
    assert len(phase.charlie_key) == 2 * phase.kept
    a, b, c = phase.outcomes
    assert (a ^ b == c).all()  # the XOR law, round for round
    kinds = [m.kind for m in bus.transcript]
    assert kinds == ["control-reveal", "sample-check-request", "sample-check-reveal"]


def test_controlled_key_phase_law_worked_example():
    phase = run_key_phase_controlled(
        three_party_channel(), 2000, 0.1, 0.0, True, NONE, streams(24), MessageBus()
    )
    a, b, c = phase.outcomes
    hits = (a == KEY_LABELS.index("phi+")) & (b == KEY_LABELS.index("psi-"))
    assert (c[hits] == KEY_LABELS.index("psi-")).all()
    assert np.count_nonzero(hits) > 50  # each (a, b) pair lands with probability 1/16


def test_controlled_key_phase_without_permission():
    spec = three_party_channel()
    bus = MessageBus()
    n = 4000
    phase = run_key_phase_controlled(spec, n, 0.1, 0.0, False, NONE, streams(25), bus)
    assert not phase.alice_permitted
    assert phase.bob_key.bits == () and phase.charlie_key.bits == ()
    assert phase.sampled == 0
    assert bus.transcript == []  # the controller never reveals anything
    sigma = np.sqrt(0.25 * 0.75 / n)
    assert abs(phase.deduction_accuracy - 0.25) <= 4 * sigma


def test_bob_marginal_is_flat_without_the_control_value():
    # Bob's outcome alone carries no information about Charlie's: every
    # (bob, charlie) pair appears with the same frequency
    phase = run_key_phase_controlled(
        three_party_channel(), 8000, 0.1, 0.0, True, NONE, streams(26), MessageBus()
    )
    _, b, c = phase.outcomes
    counts = np.bincount(4 * b + c, minlength=16).reshape(4, 4)
    freqs = counts / counts.sum()
    sigma = np.sqrt((1 / 16) * (15 / 16) / counts.sum())
    assert np.all(np.abs(freqs - 1 / 16) <= 4 * sigma)


def test_phase_runs_are_reproducible():
    def run(seed):
        return run_key_phase_two_party(
            two_party_channel(), 300, 0.1, 0.0, NONE, streams(seed), MessageBus()
        )

    def columns(phase):
        return [column.tolist() for column in (*phase.outcomes, phase.consumed)]

    assert columns(run(42)) == columns(run(42))
    assert run(42).alice_key == run(42).alice_key
    assert columns(run(42)) != columns(run(43))


def documented_attack_draws(model, rng, rounds):
    """The attack stream's bulk calls for one phase: N x T readout
    uniforms for a measuring attack; N x T gates, readout uniforms and
    fresh digits for depolarize; none attack-free."""
    shape = rounds, len(model.targets)
    if model.kind == "depolarize":
        rng.random(shape)
        rng.random(shape)
        rng.integers(4, size=shape)
    elif model.kind != "none":
        rng.random(shape)


ADVANCE_PHASES = ("verification", "two-party key", "controlled key", "blind guess")


@pytest.mark.parametrize("phase", ADVANCE_PHASES)
@pytest.mark.parametrize(
    "kind,strength",
    [
        ("none", 0.0),
        ("intercept-computational", 0.0),
        ("intercept-key", 0.0),
        ("entangle-probe", 0.0),
        ("depolarize", 0.4),
    ],
)
def test_streams_advance_by_the_documented_bulk_draws(phase, kind, strength):
    # every named stream ends where a twin ends after the documented bulk
    # calls, so a phase of N rounds draws 2N values per party in
    # verification, N per party in a key phase and N more for Bob's blind
    # guess, N x T for a measuring attack on T targets and 3N x T for
    # depolarize
    parties = 2 if phase == "two-party key" else 3
    spec = make_channel(parties)
    targets = (1,) if parties == 2 else (1, 2)
    model = NONE if kind == "none" else AttackModel(kind, targets, strength)
    for rounds in (0, 1, 37):
        rngs, twins = streams(31), streams(31)
        names = PARTY_ORDER[:parties]
        if phase == "verification":
            summary = run_verification_phase(spec, rounds, model, rngs, MessageBus())
            documented_attack_draws(model, twins["attack"], rounds)
            for p, choices in zip(names, summary.choices):
                assert np.array_equal(choices, twins[p].integers(4, size=rounds))
                twins[p].random(rounds)
        else:
            bus = MessageBus()
            if phase == "two-party key":
                run_key_phase_two_party(spec, rounds, 0.25, 1.0, model, rngs, bus)
            else:
                permits = phase == "controlled key"
                result = run_key_phase_controlled(
                    spec, rounds, 0.25, 1.0, permits, model, rngs, bus
                )
            documented_attack_draws(model, twins["attack"], rounds)
            for p in names:
                twins[p].random(rounds)
            if phase == "blind guess":
                hits = np.count_nonzero(twins["bob"].integers(4, size=rounds) == result.outcomes[2])
                assert result.deduction_accuracy == (hits / rounds if rounds else 0.0)
            elif round(0.25 * rounds):
                twins["public"].choice(rounds, size=round(0.25 * rounds), replace=False)
        for name in rngs:
            assert rngs[name].bit_generator.state == twins[name].bit_generator.state, (name, rounds)


def test_outcome_composition_example():
    # a psi+ reading composed with a psi+ reading deduces phi+
    psi_plus = KEY_LABELS.index("psi+")
    assert KEY_LABELS[sift((psi_plus, psi_plus, 0))[1]] == "phi+"


def test_benchmark_tracer_bindings_still_resolve():
    # the benchmark's tracer patches these module attributes; a deletion
    # that breaks one would otherwise show only under its --trace 1 runs.
    # The tracer's source is run here, so no byte code is written for it.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tracing = {"__name__": "tracing"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracing)
    bindings = [(module, attr) for module, attr, _ in tracing["BINDINGS"]]
    bindings.append((protocol, "make_attack_hook"))
    for module, attr in bindings:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
