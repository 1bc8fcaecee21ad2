"""The phases' branch tree against the per-round sampler it replaced.

The reference below is the session path as it was before the tree: every
round drew its choices and uniforms by per-call ``integers`` and
``random``, measured fresh ``StateVector`` objects with a per-call
stacked product, and the attack hooks mapped states to states.  From
equal seeds the level-by-level verification phase and the key phase's
walk must give identical records, tallies, transcripts and outcomes, and
leave every named stream in an identical state.
"""

import math

import numpy as np
import pytest

from ququart_qkd import protocol
from ququart_qkd.attacks import AttackModel, make_attack_hook
from ququart_qkd.channels import make_channel
from ququart_qkd.linalg import (
    DIM,
    MeasurementResult,
    Node,
    ProjectorSet,
    StateVector,
    Tree,
    draw_index,
    embed,
    ket,
    measure_projective,
)
from ququart_qkd.observables import key_basis
from ququart_qkd.protocol import (
    DISCARD_MISMATCH,
    PARTY_ORDER,
    THREE_PARTY_MENU,
    TWO_PARTY_MENU,
    CheckTally,
    ClassicalMessage,
    MessageBus,
    RoundRecord,
    _key_projector_sets,
    _measure_round,
    _sign_projector_sets,
    run_key_phase_controlled,
    run_key_phase_two_party,
    run_verification_phase,
)
from ququart_qkd.session import _named_streams

# ---------------------------------------------------------------------------
# reference: the per-round sampler and state-to-state hooks


def per_call_measure_projective(psi, projectors, rng):
    """One stacked product per call; the drawn branch, normalized, is a
    fresh post-measurement state."""
    branches = projectors.stack @ psi.amplitudes
    probs = np.square(branches.view(float)).sum(axis=1).tolist()
    outcome = draw_index(probs, rng)
    nrm = math.sqrt(probs[outcome])
    if nrm < 1e-9:
        raise RuntimeError("sampled a zero-probability measurement branch")
    post = StateVector(psi.num_ququarts, branches[outcome] / nrm)
    return MeasurementResult(outcome, probs[outcome], post)


def reference_measure_round(state, projector_sets, parties, rngs):
    outcomes = []
    for projectors, party in zip(projector_sets, parties):
        if projectors is None:
            outcomes.append(0)
            continue
        result = per_call_measure_projective(state, projectors, rngs[party])
        outcomes.append(result.outcome_index)
        state = result.post_state
    return tuple(outcomes)


def shift_matrix(amount):
    m = np.zeros((DIM, DIM), dtype=complex)
    for j in range(DIM):
        m[(j + amount) % DIM, j] = 1.0
    return m


def reference_hook(model, num_parties):
    if model.kind == "none":
        return lambda state, rng: state
    if model.kind == "intercept-key":
        local = key_basis().projectors
    else:
        local = [np.outer(e, e.conj()) for e in np.eye(DIM, dtype=complex)]
    sets = {t: ProjectorSet([embed(p, t, num_parties) for p in local]) for t in model.targets}

    if model.kind != "depolarize":

        def hook(state, rng):
            for t in model.targets:
                state = per_call_measure_projective(state, sets[t], rng).post_state
            return state

        return hook

    shifts = {t: [embed(shift_matrix(a), t, num_parties) for a in range(DIM)] for t in model.targets}

    def hook(state, rng):
        for t in model.targets:
            if rng.random() >= model.strength:
                continue
            measured = per_call_measure_projective(state, sets[t], rng)
            fresh = int(rng.integers(DIM))
            amount = (fresh - measured.outcome_index) % DIM
            state = StateVector(
                state.num_ququarts, shifts[t][amount] @ measured.post_state.amplitudes
            )
        return state

    return hook


def per_round_verification_phase(spec, rounds, model, rngs, bus):
    """The verification phase as a loop over rounds, each drawing its
    choices and uniforms by per-call ``integers`` and ``random``: records,
    tallies and matched count, with the announcements posted to ``bus``."""
    n = spec.party_count
    parties = PARTY_ORDER[:n]
    menu = TWO_PARTY_MENU if n == 2 else THREE_PARTY_MENU
    sign_sets = _sign_projector_sets(n)
    hook = reference_hook(model, n)
    expected = {c.operators: c.expected for c in spec.checks}
    tallies = {c.name: [0, 0] for c in spec.checks}
    records = []
    matched = 0
    announcements = {p: [] for p in parties}
    for index in range(rounds):
        state = hook(spec.state, rngs["attack"])
        choices = tuple(menu[int(rngs[p].integers(len(menu)))] for p in parties)
        sets = [sign_sets[pos, name] for pos, name in enumerate(choices)]
        indices = reference_measure_round(state, sets, parties, rngs)
        outcomes = tuple(-1 if k else +1 for k in indices)
        for p, name, value in zip(parties, choices, outcomes):
            announcements[p].append((index, name, value))
        if choices in expected:
            matched += 1
            tallies["_".join(choices)][0] += 1
            if int(np.prod(outcomes)) != expected[choices]:
                tallies["_".join(choices)][1] += 1
            records.append(RoundRecord(index, "verify", choices, outcomes, True))
        else:
            records.append(
                RoundRecord(index, "verify", choices, outcomes, False, DISCARD_MISMATCH)
            )
    for p in parties:
        bus.post(ClassicalMessage(p, "operator-announcement", {"rounds": announcements[p]}))
    tallies = {name: CheckTally(r, v) for name, (r, v) in tallies.items()}
    return tuple(records), tallies, matched


def reference_phases(spec, rounds, model, rngs, permits):
    """The verification phase's records, tallies, matched count and
    transcript, then the key outcome indices (and, without permission,
    Bob's blind guesses)."""
    bus = MessageBus()
    verify = per_round_verification_phase(spec, rounds, model, rngs, bus)
    n = spec.party_count
    hook = reference_hook(model, n)
    parties = PARTY_ORDER[:n]
    key = [
        reference_measure_round(hook(spec.state, rngs["attack"]), _key_projector_sets(n), parties, rngs)
        for _ in range(rounds)
    ]
    if not permits:
        [rngs["bob"].integers(4) for _ in range(rounds)]
    return verify, [m.serialize() for m in bus.transcript], key


def tree_phases(spec, rounds, model, rngs, permits):
    bus = MessageBus()
    summary = run_verification_phase(spec, rounds, model, rngs, bus)
    verify = summary.records, summary.tallies, summary.matched
    assert summary.rounds == rounds
    assert summary.discarded == rounds - summary.matched
    transcript = [m.serialize() for m in bus.transcript]
    # sample fraction 0 reveals nothing, so the public stream stays unused
    if spec.party_count == 2:
        phase = run_key_phase_two_party(spec, rounds, 0.0, 1.0, model, rngs, bus)
    else:
        phase = run_key_phase_controlled(spec, rounds, 0.0, 1.0, permits, model, rngs, bus)
    key = [tuple(o.index for o in r.outcomes) for r in phase.records]
    return verify, transcript, key


KINDS = [
    ("intercept-computational", 0.0),
    ("intercept-key", 0.0),
    ("entangle-probe", 0.0),
    ("depolarize", 0.3),
    ("depolarize", 1.0),
]
CASES = [(2, AttackModel()), (3, AttackModel())] + [
    (parties, AttackModel(kind, targets, strength))
    for parties, target_sets in ((2, [(1,)]), (3, [(1,), (2,), (1, 2)]))
    for targets in target_sets
    for kind, strength in KINDS
]


@pytest.mark.parametrize(
    "parties,model",
    CASES,
    ids=[f"{p}-{m.kind}{list(m.targets)}s{m.strength}" for p, m in CASES],
)
def test_tree_walk_matches_per_round_reference(parties, model):
    spec = make_channel(parties)
    # (seed, rounds, streams start with a buffered half-word); an odd
    # verification phase leaves one buffered, which only Bob's blind guess
    # without permission reads
    for seed, rounds, buffered in ((5, 500, False), (6, 501, True), (7, 37, False), (8, 36, True)):
        tree_rngs, ref_rngs = _named_streams(seed), _named_streams(seed)
        if buffered:
            for rngs in (tree_rngs, ref_rngs):
                for rng in rngs.values():
                    rng.integers(4)
        permits = parties == 2 or rounds % 2 == 0
        tree = tree_phases(spec, rounds, model, tree_rngs, permits)
        reference = reference_phases(spec, rounds, model, ref_rngs, permits)
        assert tree[0] == reference[0], "verification records or tallies differ"
        assert tree[1] == reference[1], "transcripts differ"
        assert tree[2] == reference[2], "key outcomes differ"
        for name in ref_rngs:
            assert tree_rngs[name].bit_generator.state == ref_rngs[name].bit_generator.state, name


def test_measure_projective_matches_per_call_reference():
    spec = make_channel(3)
    sets = [s for s in _sign_projector_sets(3).values() if s is not None]
    for seed, projectors in enumerate(sets + list(_key_projector_sets(3))):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            a = measure_projective(spec.state, projectors, fast)
            b = per_call_measure_projective(spec.state, projectors, slow)
            assert (a.outcome_index, a.probability) == (b.outcome_index, b.probability)
            np.testing.assert_array_equal(a.post_state.amplitudes, b.post_state.amplitudes)


# ---------------------------------------------------------------------------
# the tree itself


def count_nodes(node):
    return 1 + sum(count_nodes(child) for child in node._next.values())


def test_children_are_memoised_and_built_only_when_measured_again():
    spec = make_channel(2)
    key_sets = _key_projector_sets(2)
    root = Node(spec.state)
    rngs = _named_streams(1)
    for _ in range(200):
        _measure_round(root, key_sets, PARTY_ORDER[:2], rngs)
    # Alice's four outcomes each lead to one node; Bob's last measurement
    # of each round builds none
    assert count_nodes(root) == 1 + 4
    k = root.draw(key_sets[0], rngs["alice"])
    assert root.child(key_sets[0], k) is root.child(key_sets[0], k)


def walk_verification(root, spec, rounds, model, rngs):
    """The verification phase's rounds as a walk down ``root``'s tree, one
    round at a time."""
    n = spec.party_count
    parties = PARTY_ORDER[:n]
    menu = TWO_PARTY_MENU if n == 2 else THREE_PARTY_MENU
    hook = make_attack_hook(model, n)
    for _ in range(rounds):
        node = hook(root, rngs["attack"])
        choices = [menu[int(rngs[p].integers(len(menu)))] for p in parties]
        sets = [_sign_projector_sets(n)[pos, name] for pos, name in enumerate(choices)]
        _measure_round(node, sets, parties, rngs)


@pytest.mark.parametrize(
    "parties,model",
    [
        (2, AttackModel()),
        (3, AttackModel()),
        (3, AttackModel("intercept-key", (1, 2))),
        (3, AttackModel("depolarize", (2,), 0.5)),
    ],
    ids=["2-none", "3-none", "3-intercept-key", "3-depolarize"],
)
def test_level_sampler_builds_the_nodes_a_walk_builds(parties, model, monkeypatch):
    spec = make_channel(parties)
    trees = []

    def recording_tree(root):
        trees.append(Tree(root))
        return trees[-1]

    monkeypatch.setattr(protocol, "Tree", recording_tree)
    run_verification_phase(spec, 300, model, _named_streams(3), MessageBus())
    root = Node(spec.state)
    walk_verification(root, spec, 300, model, _named_streams(3))
    assert count_nodes(trees[0].nodes[0]) == len(trees[0].nodes) == count_nodes(root)


class AboveTotal:
    """Generator stub whose uniform, 1.0, lies above any rounded total."""

    def random(self):
        return 1.0


def test_zero_probability_branch_raises_on_every_draw():
    # |0> under the computational set: the draw falls through to the
    # zero-weight last branch
    comp = ProjectorSet([np.outer(e, e.conj()) for e in np.eye(DIM, dtype=complex)])
    for sample in (measure_projective, per_call_measure_projective):
        with pytest.raises(RuntimeError):
            sample(ket(0), comp, AboveTotal())
    node = Node(ket(0))
    for _ in range(3):
        # memoisation must not turn the first failure into a silent hit
        with pytest.raises(RuntimeError):
            node.draw(comp, AboveTotal())
        with pytest.raises(RuntimeError):
            _measure_round(node, [comp], ("alice",), {"alice": AboveTotal()})
    assert node.draw(comp, np.random.default_rng(0)) == 0
