"""The phases' branch tree walk against the per-round sampler it replaced.

The reference below is the session path as it was before the tree: every
round measured fresh ``StateVector`` objects with a per-call stacked
product, and the attack hooks mapped states to states.  From equal seeds
the tree walk must give identical outcomes and leave every named stream
in an identical state.
"""

import math

import numpy as np
import pytest

from ququart_qkd.attacks import AttackModel
from ququart_qkd.channels import make_channel
from ququart_qkd.linalg import (
    DIM,
    MeasurementResult,
    Node,
    ProjectorSet,
    StateVector,
    draw_index,
    embed,
    ket,
    measure_projective,
)
from ququart_qkd.observables import key_basis
from ququart_qkd.protocol import (
    PARTY_ORDER,
    THREE_PARTY_MENU,
    TWO_PARTY_MENU,
    MessageBus,
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


def reference_phases(spec, rounds, model, rngs):
    """Verification (choices, sign outcomes) and key outcome indices."""
    n = spec.party_count
    parties = PARTY_ORDER[:n]
    menu = TWO_PARTY_MENU if n == 2 else THREE_PARTY_MENU
    sign_sets = _sign_projector_sets(n)
    hook = reference_hook(model, n)
    verify = []
    for _ in range(rounds):
        state = hook(spec.state, rngs["attack"])
        choices = tuple(menu[int(rngs[p].integers(len(menu)))] for p in parties)
        sets = [sign_sets[pos, name] for pos, name in enumerate(choices)]
        indices = reference_measure_round(state, sets, parties, rngs)
        verify.append((choices, tuple(-1 if k else +1 for k in indices)))
    hook = reference_hook(model, n)
    key = [
        reference_measure_round(hook(spec.state, rngs["attack"]), _key_projector_sets(n), parties, rngs)
        for _ in range(rounds)
    ]
    return verify, key


def tree_phases(spec, rounds, model, rngs):
    bus = MessageBus()
    summary = run_verification_phase(spec, rounds, model, rngs, bus)
    verify = [(r.choices, r.outcomes) for r in summary.records]
    # sample fraction 0 reveals nothing, so the public stream stays unused
    if spec.party_count == 2:
        phase = run_key_phase_two_party(spec, rounds, 0.0, 1.0, model, rngs, bus)
    else:
        phase = run_key_phase_controlled(spec, rounds, 0.0, 1.0, True, model, rngs, bus)
    key = [tuple(o.index for o in r.outcomes) for r in phase.records]
    return verify, key


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
    for seed in (5, 6):
        tree_rngs, ref_rngs = _named_streams(seed), _named_streams(seed)
        tree = tree_phases(spec, 500, model, tree_rngs)
        reference = reference_phases(spec, 500, model, ref_rngs)
        assert tree[0] == reference[0], "verification outcomes differ"
        assert tree[1] == reference[1], "key outcomes differ"
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
