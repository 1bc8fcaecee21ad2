"""Transcript bytes against payloads built when a message is posted.

A phase posts each per-round announcement (operator announcements,
control and sample reveals) as a message that holds the read-only
columns it announces and builds its payload on first read.  The
reference below is the eager form: it builds every payload from the
phase's returned columns right after the phase, as the phases once did
when posting.  Every message's ``serialize()`` must equal the reference's
byte for byte, also when it is first read after later phases ran on the
same shared trees and streams, and a payload, once built, is kept.
"""

import numpy as np
import pytest

from ququart_qkd.attacks import AttackModel
from ququart_qkd.channels import make_channel
from ququart_qkd.observables import KEY_LABELS
from ququart_qkd.protocol import (
    ALICE,
    BOB,
    PARTY_ORDER,
    SIGNS,
    ClassicalMessage,
    MessageBus,
    run_key_phase_controlled,
    run_key_phase_two_party,
    run_verification_phase,
)
from ququart_qkd.session import _named_streams


def eager_announcements(summary, parties):
    for p, codes, column in zip(parties, summary.choices, summary.outcomes):
        names = map(summary.menu.__getitem__, codes.tolist())
        signs = map(SIGNS.__getitem__, column.tolist())
        announcements = list(zip(range(summary.rounds), names, signs))
        yield ClassicalMessage(p, "operator-announcement", {"rounds": announcements})


def eager_key_messages(phase, parties, requester, revealers, control):
    columns, num_rounds = phase.outcomes, phase.rounds
    if control is not None:
        labels = map(KEY_LABELS.__getitem__, columns[control].tolist())
        payload = {"outcomes": dict(zip(range(num_rounds), labels))}
        yield ClassicalMessage(parties[control], "control-reveal", payload)
    sample = np.flatnonzero(phase.consumed)
    rows = sample.tolist()
    yield ClassicalMessage(requester, "sample-check-request", {"rounds": rows})
    for pos in revealers:
        labels = map(KEY_LABELS.__getitem__, columns[pos][sample].tolist())
        payload = {"outcomes": dict(zip(rows, labels))}
        yield ClassicalMessage(parties[pos], "sample-check-reveal", payload)


def session_messages(parties, permits, attack, rounds, fraction, seed):
    """The bus of a verification phase and a key phase, and the reference
    messages, built eagerly right after each phase."""
    spec, bus, rngs = make_channel(parties), MessageBus(), _named_streams(seed)
    positions = PARTY_ORDER[:parties]
    summary = run_verification_phase(spec, rounds, attack, rngs, bus)
    reference = list(eager_announcements(summary, positions))
    if parties == 2:
        phase = run_key_phase_two_party(spec, rounds, fraction, 1.0, attack, rngs, bus)
        reference += eager_key_messages(phase, positions, ALICE, (0, 1), None)
    else:
        phase = run_key_phase_controlled(spec, rounds, fraction, 1.0, permits, attack, rngs, bus)
        if permits:
            reference += eager_key_messages(phase, positions, BOB, (2,), 0)
    return bus, reference


CASES = {
    "two-party": (2, True, AttackModel(), 301, 0.1),
    "controlled": (3, True, AttackModel(), 300, 0.1),
    "controlled-no-permission": (3, False, AttackModel(), 300, 0.1),
    "two-party-intercept-key": (2, True, AttackModel("intercept-key", (1,)), 200, 0.2),
    "controlled-depolarize": (3, True, AttackModel("depolarize", (1, 2), 0.3), 200, 0.2),
    # round(0.2 * 37) = 7 sampled rounds
    "odd-sample": (3, True, AttackModel(), 37, 0.2),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_transcript_bytes_equal_eager_payloads(case):
    bus, reference = session_messages(*case, seed=41)
    # later sessions on the same shared trees before the payloads are read
    for parties in (2, 3):
        session_messages(parties, True, AttackModel(), 100, 0.5, seed=42)
    assert [m.serialize() for m in bus.transcript] == [m.serialize() for m in reference]
    for message in bus.transcript:
        assert message.payload is message.payload
        # a per-round payload is built on read, not when posted
        assert callable(message.content) == (message.kind != "sample-check-request")
    # messages are equal by sender, kind and payload, however posted
    assert bus.transcript == reference
    assert bus.transcript == session_messages(*case, seed=41)[0].transcript
    assert bus.transcript != session_messages(*case, seed=43)[0].transcript


def test_sampled_rows_count_is_odd():
    bus, _ = session_messages(*CASES["odd-sample"], seed=41)
    (request,) = [m for m in bus.transcript if m.kind == "sample-check-request"]
    assert len(request.payload["rounds"]) == 7
