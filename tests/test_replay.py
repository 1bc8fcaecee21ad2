"""Draws replayed from raw PCG64 words against numpy's per-call draws.

The verification phase reads each stream's raw words and converts them
itself, so these tests pin that conversion to numpy's: the replayed
values must equal per-call ``integers(4)`` and ``random()``, and the
generator must be left in an identical state, its buffered half-word
included, so that every later draw agrees too.  A numpy release that
changes its conversions fails here.  The controlled key phase draws Bob's
blind guesses as one ``integers(4, size=N)``, which is pinned the same
way against N per-call ``integers(4)``.
"""

import numpy as np
import pytest

from ququart_qkd.attacks import AttackModel, _depolarize_draws
from ququart_qkd.channels import make_channel
from ququart_qkd.linalg import DIM, ProjectorSet, Tree, ket
from ququart_qkd.protocol import (
    MessageBus,
    _menu_draws,
    run_key_phase_controlled,
    run_key_phase_two_party,
    run_verification_phase,
)
from ququart_qkd.session import _named_streams

ROUNDS = (0, 1, 2, 3, 7, 60, 61)


def twin_generators(seed, buffered):
    """Two equal generators; ``buffered`` leaves a half-word in each."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:
        for rng in pair:
            rng.integers(4)
    return pair


def assert_same_future(a, b):
    assert a.bit_generator.state == b.bit_generator.state
    assert [a.integers(4), a.random(), a.integers(4)] == [b.integers(4), b.random(), b.integers(4)]


@pytest.mark.parametrize("idle", [-1, 3], ids=["two-party menu", "three-party menu"])
@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
def test_menu_draws_equal_per_call_draws(idle, buffered):
    for seed in range(4):
        for rounds in ROUNDS:
            replayed, called = twin_generators(seed, buffered)
            codes, u = _menu_draws(replayed, rounds, idle)
            want_codes, want_u = [], []
            for _ in range(rounds):
                code = int(called.integers(4))
                want_codes.append(code)
                if code != idle:
                    want_u.append(called.random())
            assert codes.tolist() == want_codes, (seed, rounds)
            # an idle round draws no uniform
            assert u[codes != idle].tolist() == want_u, (seed, rounds)
            assert_same_future(replayed, called)


@pytest.mark.parametrize("strength", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
def test_depolarize_draws_equal_per_call_draws(strength, buffered):
    for seed in range(4):
        for rounds in ROUNDS:
            for targets in (1, 2):
                replayed, called = twin_generators(seed, buffered)
                hit, u, fresh = _depolarize_draws(replayed, rounds, targets, strength)
                for i in range(rounds):
                    for j in range(targets):
                        if called.random() >= strength:
                            assert not hit[i, j]
                            continue
                        assert hit[i, j]
                        assert u[i, j] == called.random()
                        assert fresh[i, j] == called.integers(DIM)
                assert_same_future(replayed, called)


@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
def test_bulk_guess_draw_equals_per_call_draws(buffered):
    # the controlled phase's blind guess without permission is one
    # integers(4, size=N) where a round-by-round run calls integers(4)
    for seed in range(4):
        for rounds in ROUNDS:
            bulk, called = twin_generators(seed, buffered)
            guesses = bulk.integers(4, size=rounds)
            assert guesses.tolist() == [int(called.integers(4)) for _ in range(rounds)]
            assert_same_future(bulk, called)


def test_non_pcg64_generators_are_rejected():
    rngs = _named_streams(0)
    rngs["alice"] = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match="PCG64"):
        run_verification_phase(make_channel(2), 10, AttackModel(), rngs, MessageBus())
    rngs = _named_streams(0)
    rngs["attack"] = np.random.Generator(np.random.Philox(0))
    model = AttackModel("depolarize", (1,), 0.5)
    with pytest.raises(TypeError, match="PCG64"):
        run_verification_phase(make_channel(2), 10, model, rngs, MessageBus())


def test_shared_streams_are_rejected():
    # bulk draws per stream equal per-round draws only for distinct streams
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


def test_level_draw_raises_on_a_zero_weight_last_branch():
    # |0> under the computational set: a uniform of 1.0 lies above the
    # rounded total and falls through to the zero-weight last branch
    comp = ProjectorSet([np.outer(e, e.conj()) for e in np.eye(DIM, dtype=complex)])
    tree = Tree(ket(0))
    rows = np.zeros(3, dtype=np.intp)
    for _ in range(2):
        # a cached law must not turn the first failure into a silent hit
        with pytest.raises(RuntimeError):
            tree.draw(rows, [comp], np.array([0.5, 1.0, 0.25]))
    assert tree.draw(rows, [comp], np.array([0.5, 0.0, 0.999])).tolist() == [0, 0, 0]
