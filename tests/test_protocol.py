import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ququart_qkd.attacks import AttackModel
from ququart_qkd.channels import make_channel, three_party_channel, two_party_channel
from ququart_qkd.observables import outcome_from_bits, outcome_from_index
from ququart_qkd.protocol import (
    DISCARD_MISMATCH,
    DISCARD_SAMPLE,
    PARTY_ORDER,
    THREE_PARTY_MENU,
    TWO_PARTY_MENU,
    ClassicalMessage,
    MessageBus,
    RoundRecord,
    SiftedKey,
    compare_keys,
    deduce_third_outcome,
    run_key_phase_controlled,
    run_key_phase_two_party,
    run_verification_phase,
    sift_key,
)

NONE = AttackModel()
IRC_BOB = AttackModel("intercept-computational", targets=(1,))


def streams(seed):
    names = ("alice", "bob", "charlie", "attack", "public")
    seqs = np.random.SeedSequence(seed).spawn(len(names))
    return {n: np.random.default_rng(s) for n, s in zip(names, seqs)}


def test_message_serialization_is_canonical():
    msg = ClassicalMessage("alice", "sample-check-reveal", {"b": [1, 2], "a": {2: "x", 1: "y"}})
    assert msg.serialize() == "sender=alice kind=sample-check-reveal a=1:y;2:x b=1,2"


def test_bus_is_fifo_and_keeps_transcript():
    bus = MessageBus()
    first = ClassicalMessage("alice", "k", {})
    second = ClassicalMessage("bob", "k", {})
    bus.post(first)
    bus.post(second)
    assert bus.transcript == [first, second]


def test_round_record_requires_discard_reason():
    RoundRecord(0, "verify", ("sx", "sx"), (1, -1), True)
    with pytest.raises(AssertionError):
        RoundRecord(0, "verify", ("sx", "sx"), (1, -1), False)
    with pytest.raises(AssertionError):
        RoundRecord(0, "spooky", ("sx", "sx"), (1, -1), True)


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


def test_compare_keys_reports_positions():
    a = SiftedKey((0, 0, 1, 1))
    b = SiftedKey((0, 1, 1, 1))
    assert compare_keys(a, b) == [1]
    assert compare_keys(a, a) == []
    assert compare_keys(SiftedKey(()), SiftedKey(())) == []
    with pytest.raises(ValueError):
        compare_keys(a, SiftedKey((0, 0)))


def test_deduce_third_outcome_xor_table():
    for a in range(4):
        for b in range(4):
            d = deduce_third_outcome(outcome_from_index(a), outcome_from_index(b))
            assert d.parity_bit == (a // 2) ^ (b // 2)
            assert d.phase_bit == (a % 2) ^ (b % 2)
    # worked example: phi+ with psi- deduces psi-
    assert deduce_third_outcome(outcome_from_index(0), outcome_from_index(3)).label == "psi-"


def test_two_party_verification_attack_free():
    spec = two_party_channel()
    bus = MessageBus()
    summary = run_verification_phase(spec, 1500, NONE, streams(11), bus)
    assert summary.passed and not summary.vacuous
    assert summary.total_violations == 0
    assert summary.matched + summary.discarded == 1500
    assert len(summary.records) == 1500
    expected = {c.operators: c.expected for c in spec.checks}
    for record in summary.records:
        if record.kept:
            assert record.choices in expected
            assert int(np.prod(record.outcomes)) == expected[record.choices]
        else:
            assert record.discard_reason == DISCARD_MISMATCH
            assert record.choices not in expected


def test_two_party_mismatch_rate_matches_menu_model():
    # only 4 of the 16 operator pairs are listed checks
    n = 4000
    summary = run_verification_phase(two_party_channel(), n, NONE, streams(12), MessageBus())
    sigma = np.sqrt(0.75 * 0.25 / n)
    assert abs(summary.discarded / n - 0.75) <= 4 * sigma


def test_verification_choices_come_from_the_menus():
    two = run_verification_phase(two_party_channel(), 300, NONE, streams(13), MessageBus())
    for record in two.records:
        assert all(name in TWO_PARTY_MENU for name in record.choices)
    three = run_verification_phase(three_party_channel(), 300, NONE, streams(13), MessageBus())
    for record in three.records:
        assert all(name in THREE_PARTY_MENU for name in record.choices)


def test_three_party_verification_attack_free():
    summary = run_verification_phase(three_party_channel(), 2000, NONE, streams(14), MessageBus())
    assert summary.passed
    assert summary.total_violations == 0
    # identity slots always announce +1
    for record in summary.records:
        for name, value in zip(record.choices, record.outcomes):
            assert value in (-1, +1)
            if name == "id":
                assert value == +1
    kept_kinds = {r.choices for r in summary.records if r.kept}
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
    for record in phase.records:
        a, b = record.outcomes
        # the channel only ever pairs opposite parity with opposite phase
        assert a.parity_bit != b.parity_bit
        assert a.phase_bit != b.phase_bit
        if not record.kept:
            assert record.discard_reason == DISCARD_SAMPLE
        if a.label == "psi-":
            assert b.label == "phi+"
    kinds = [m.kind for m in bus.transcript]
    assert kinds == ["sample-check-request", "sample-check-reveal", "sample-check-reveal"]


@pytest.mark.parametrize(
    "parties,permits,attack",
    [(2, True, NONE), (2, True, IRC_BOB), (3, True, NONE), (3, False, NONE)],
    ids=["two-party", "two-party-intercept", "controlled", "controlled-no-permission"],
)
def test_key_records_match_the_per_round_construction(parties, permits, attack):
    spec, bus = make_channel(parties), MessageBus()
    if parties == 2:
        phase = run_key_phase_two_party(spec, 301, 0.2, 0.0, attack, streams(27), bus)
    else:
        phase = run_key_phase_controlled(spec, 301, 0.2, 0.0, permits, attack, streams(27), bus)
    assert "records" not in vars(phase)  # built on first read only
    # the per-round construction the columns replaced: the sample is the
    # one the transcript requested
    requests = [m.payload["rounds"] for m in bus.transcript if m.kind == "sample-check-request"]
    sample = set(requests[0]) if requests else set()
    coded = [outcome_from_index(i) for i in range(4)]
    choices = ("key",) * parties
    want = []
    for index, r in enumerate(zip(*(column.tolist() for column in phase.outcomes))):
        outcomes = tuple(coded[k] for k in r)
        if index in sample:
            want.append(RoundRecord(index, "key", choices, outcomes, False, DISCARD_SAMPLE))
        else:
            want.append(RoundRecord(index, "key", choices, outcomes, True))
    assert phase.records == tuple(want)
    assert phase.records is phase.records
    assert len(sample) == phase.sampled == (60 if permits else 0)
    assert (phase.rounds, phase.kept) == (301, 301 - phase.sampled)
    # every revealed label is the recorded outcome of its sender
    for message in bus.transcript:
        if message.kind.endswith("reveal"):
            pos = PARTY_ORDER.index(message.sender)
            for index, label in message.payload["outcomes"].items():
                assert phase.records[index].outcomes[pos].label == label


def test_two_party_key_phase_sampling_accounting():
    phase = run_key_phase_two_party(
        two_party_channel(), 1000, 0.25, 0.0, NONE, streams(19), MessageBus()
    )
    assert phase.sampled == 250
    assert phase.sampled + phase.kept == 1000
    sampled_records = [r for r in phase.records if not r.kept]
    assert len(sampled_records) == 250


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


def test_round_and_sample_checks_survive_optimized_mode():
    # python -O strips asserts; these checks must raise ValueError anyway
    script = (
        "import numpy as np\n"
        "from ququart_qkd.attacks import AttackModel\n"
        "from ququart_qkd.channels import three_party_channel, two_party_channel\n"
        "from ququart_qkd.linalg import (OperatorStack, ProjectorSet, apply, apply_at, embed,\n"
        "    inner, ket, measure_projective, state_from_amplitudes)\n"
        "from ququart_qkd.observables import Observable, outcome_from_index\n"
        "from ququart_qkd.protocol import (MessageBus, SiftedKey, compare_keys,\n"
        "    run_key_phase_controlled, run_key_phase_two_party, run_verification_phase)\n"
        "from ququart_qkd.session import _named_streams, hex_to_bits\n"
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
        "    'a stack at position 2 of 2': lambda: apply_at(\n"
        "        np.eye(4)[None], 2, ket(0, 2).amplitudes),\n"
        "    'measure at position 2 of 2': lambda: measure_projective(\n"
        "        ket(0, 2), ProjectorSet([np.eye(4)], 2), _named_streams(0)['alice']),\n"
        "    'apply a 16x16 operator to one ququart': lambda: apply(np.eye(16), ket(0)),\n"
        "    'inner of one and two ququarts': lambda: inner(ket(0), ket(0, 2)),\n"
        "    'observable of shape 2x2': lambda: Observable('bad', np.eye(2)),\n"
        "    'non-Hermitian observable': lambda: Observable(\n"
        "        'bad', np.roll(np.eye(4), 1, axis=0)),\n"
        "    'observable squaring to 4': lambda: Observable('bad', 2 * np.eye(4)),\n"
        "    'outcome index 4': lambda: outcome_from_index(4),\n"
        "}\n"
        "for name, call in calls.items():\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'accepted {name}')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
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
    for record in phase.records:
        a, b, c = record.outcomes
        assert deduce_third_outcome(a, b) == c
    kinds = [m.kind for m in bus.transcript]
    assert kinds == ["control-reveal", "sample-check-request", "sample-check-reveal"]


def test_controlled_key_phase_law_worked_example():
    phase = run_key_phase_controlled(
        three_party_channel(), 2000, 0.1, 0.0, True, NONE, streams(24), MessageBus()
    )
    hits = 0
    for record in phase.records:
        a, b, c = record.outcomes
        if a.label == "phi+" and b.label == "psi-":
            hits += 1
            assert c.label == "psi-"
    assert hits > 50  # each (a, b) pair lands with probability 1/16


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
    counts = np.zeros((4, 4))
    for record in phase.records:
        _, b, c = record.outcomes
        counts[b.index, c.index] += 1
    freqs = counts / counts.sum()
    sigma = np.sqrt((1 / 16) * (15 / 16) / counts.sum())
    assert np.all(np.abs(freqs - 1 / 16) <= 4 * sigma)


def test_phase_runs_are_reproducible():
    def run(seed):
        return run_key_phase_two_party(
            two_party_channel(), 300, 0.1, 0.0, NONE, streams(seed), MessageBus()
        )

    assert run(42).records == run(42).records
    assert run(42).alice_key == run(42).alice_key
    assert run(42).records != run(43).records


def test_outcome_composition_example():
    # a psi+ reading composed with a psi+ reading deduces phi+
    psi_plus = outcome_from_bits(1, 0)
    assert deduce_third_outcome(psi_plus, psi_plus).label == "phi+"
