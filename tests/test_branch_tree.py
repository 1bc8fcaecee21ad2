"""The phases' branch tree against the per-round sampler it replaced.

The reference below is the session path as it was before the tree: every
round drew its choices and uniforms by per-call ``integers`` and
``random``, measured fresh ``StateVector`` objects with a per-call
stacked product of full-register operators built here with ``embed``,
and the attack hooks mapped states to states.  From equal seeds the
level-by-level verification and key phases, which apply 4x4 operators
at a position, must give outcome columns that read as the reference's
rounds (each round's choices, announced signs and kept flag, and the key
outcomes), identical tallies and transcripts, and leave every named
stream in an identical state.  Every
row of the trees that sessions grow has bit-identical branches,
probabilities and children under the library's local operators and
their ``embed``-ed counterparts.  A per-round walk down the tree
(``walk_round``) shows that the level sampler builds only the nodes a
walk builds, and the key tree's exact leaf weights give ``predict``'s
qber.
"""

import functools
import math

import numpy as np
import pytest
from inverse_cdf import draw_index

from ququart_qkd import attacks, protocol
from ququart_qkd.attacks import ATTACK_KINDS, AttackModel, attack_levels, predict
from ququart_qkd.channels import make_channel
from ququart_qkd.linalg import (
    DIM,
    MeasurementResult,
    ProjectorSet,
    StateVector,
    Tree,
    apply_at,
    embed,
    ket,
    measure_projective,
)
from ququart_qkd.observables import check_observable, key_basis, key_bit_errors
from ququart_qkd.protocol import (
    PARTY_ORDER,
    SIGNS,
    THREE_PARTY_MENU,
    TWO_PARTY_MENU,
    CheckTally,
    ClassicalMessage,
    MessageBus,
    _key_projector_sets,
    _sign_projector_sets,
    run_key_phase_controlled,
    run_key_phase_two_party,
    run_verification_phase,
)
from ququart_qkd.session import _named_streams

# ---------------------------------------------------------------------------
# reference: the per-round sampler and state-to-state hooks


@functools.cache
def dense_sign_sets(num_parties):
    """Embedded (+1, -1) eigenprojector pairs per (position, observable);
    None for the identity."""
    menu = TWO_PARTY_MENU if num_parties == 2 else THREE_PARTY_MENU
    sets = {}
    for pos in range(num_parties):
        for name in menu:
            if name == "id":
                sets[pos, name] = None
                continue
            obs = check_observable(name)
            pair = (obs.plus_projector, obs.minus_projector)
            sets[pos, name] = ProjectorSet([embed(p, pos, num_parties) for p in pair])
    return sets


@functools.cache
def dense_key_sets(num_parties):
    """Embedded key-basis projectors per position."""
    return tuple(
        ProjectorSet([embed(p, pos, num_parties) for p in key_basis().projectors])
        for pos in range(num_parties)
    )


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
    choices and uniforms by per-call ``integers`` and ``random``: each
    round's (choices, announced signs, kept), the tallies and the matched
    count, with the announcements posted to ``bus``."""
    n = spec.party_count
    parties = PARTY_ORDER[:n]
    menu = TWO_PARTY_MENU if n == 2 else THREE_PARTY_MENU
    sign_sets = dense_sign_sets(n)
    hook = reference_hook(model, n)
    expected = {c.operators: c.expected for c in spec.checks}
    tallies = {c.name: [0, 0] for c in spec.checks}
    rounds_read = []
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
        kept = choices in expected
        if kept:
            matched += 1
            tallies["_".join(choices)][0] += 1
            if int(np.prod(outcomes)) != expected[choices]:
                tallies["_".join(choices)][1] += 1
        rounds_read.append((choices, outcomes, kept))
    for p in parties:
        bus.post(ClassicalMessage(p, "operator-announcement", {"rounds": announcements[p]}))
    tallies = {name: CheckTally(r, v) for name, (r, v) in tallies.items()}
    return rounds_read, tallies, matched


def reference_phases(spec, rounds, model, rngs, permits):
    """The verification phase's rounds, tallies, matched count and
    transcript, then the key outcome indices (and, without permission,
    Bob's blind guesses)."""
    bus = MessageBus()
    verify = per_round_verification_phase(spec, rounds, model, rngs, bus)
    n = spec.party_count
    hook = reference_hook(model, n)
    parties = PARTY_ORDER[:n]
    key = [
        reference_measure_round(hook(spec.state, rngs["attack"]), dense_key_sets(n), parties, rngs)
        for _ in range(rounds)
    ]
    if not permits:
        [rngs["bob"].integers(4) for _ in range(rounds)]
    return verify, [m.serialize() for m in bus.transcript], key


def tree_phases(spec, rounds, model, rngs, permits):
    bus = MessageBus()
    summary = run_verification_phase(spec, rounds, model, rngs, bus)
    # each round's choices by name, announced signs and kept flag
    names = zip(*(map(summary.menu.__getitem__, c.tolist()) for c in summary.choices))
    signs = zip(*(map(SIGNS.__getitem__, c.tolist()) for c in summary.outcomes))
    verify = list(zip(names, signs, summary.kept.tolist())), summary.tallies, summary.matched
    assert summary.rounds == rounds
    assert summary.discarded == rounds - summary.matched
    transcript = [m.serialize() for m in bus.transcript]
    # sample fraction 0 reveals nothing, so the public stream stays unused
    if spec.party_count == 2:
        phase = run_key_phase_two_party(spec, rounds, 0.0, 1.0, model, rngs, bus)
    else:
        phase = run_key_phase_controlled(spec, rounds, 0.0, 1.0, permits, model, rngs, bus)
    key = list(zip(*(column.tolist() for column in phase.outcomes)))
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
        assert tree[0] == reference[0], "verification rounds or tallies differ"
        assert tree[1] == reference[1], "transcripts differ"
        assert tree[2] == reference[2], "key outcomes differ"
        for name in ref_rngs:
            assert tree_rngs[name].bit_generator.state == ref_rngs[name].bit_generator.state, name


def test_measure_projective_matches_per_call_reference():
    # the library's 4x4 sets at a position against the embedded sets
    spec = make_channel(3)
    local = _sign_projector_sets(3)
    pairs = [(s, dense_sign_sets(3)[key]) for key, s in local.items() if s is not None]
    pairs += zip(_key_projector_sets(3), dense_key_sets(3))
    for seed, (projectors, dense) in enumerate(pairs):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            a = measure_projective(spec.state, projectors, fast)
            b = per_call_measure_projective(spec.state, dense, slow)
            assert (a.outcome_index, a.probability) == (b.outcome_index, b.probability)
            np.testing.assert_array_equal(a.post_state.amplitudes, b.post_state.amplitudes)


def built_in_stacks(num_parties):
    """Every operator stack a session of ``num_parties`` measures or
    applies: the check pairs and key sets per position, and each attack
    kind's readout set and shifts per target."""
    stacks = [s for s in _sign_projector_sets(num_parties).values() if s is not None]
    stacks += _key_projector_sets(num_parties)
    for kind in ATTACK_KINDS[1:]:
        for target in range(1, num_parties):
            stacks += [s for s in attacks._attack_operators(kind, target) if s is not None]
    return stacks


@pytest.mark.parametrize("parties", [2, 3])
def test_cached_session_operators_are_read_only_local_stacks(parties):
    stacks = built_in_stacks(parties)
    assert len(stacks) == len(set(map(id, stacks)))
    for stack in stacks:
        assert stack.stack.ndim == 3 and stack.stack.shape[1:] == (DIM, DIM)
        assert not stack.stack.flags.writeable
        assert 0 <= stack.position < parties
    # built once: a second call returns the same objects
    assert [id(s) for s in built_in_stacks(parties)] == [id(s) for s in stacks]


@pytest.mark.parametrize(
    "parties,model",
    CASES,
    ids=[f"{p}-{m.kind}{list(m.targets)}s{m.strength}" for p, m in CASES],
)
def test_local_products_equal_embedded_products_on_session_trees(parties, model, monkeypatch):
    spec = make_channel(parties)
    trees = []

    def recording_tree(root):
        trees.append(Tree(root))
        return trees[-1]

    monkeypatch.setattr(protocol, "Tree", recording_tree)
    rngs = _named_streams(2)
    verification_phase(spec, 300, model, rngs)
    run_key_phase(spec, 300, model, rngs)
    stacks = built_in_stacks(parties)
    dense = {s: np.array([embed(m, s.position, parties) for m in s.stack]) for s in stacks}
    for tree in trees:
        rows = tree.amplitudes[: tree.size]
        ids = np.arange(tree.size)
        for stack in stacks:
            # (k, rows, 4**n) under both operators; the embedded stack acts on
            # one state at a time, as the session path once did
            local = apply_at(stack.stack[:, None], stack.position, rows)
            embedded = np.stack([dense[stack] @ row for row in rows], axis=1)
            assert np.array_equal(local, embedded)
            if isinstance(stack, ProjectorSet):
                probs = np.square(embedded.view(float)).sum(axis=-1).T
                assert np.array_equal(tree.probabilities(ids, stack), probs)
        # every child the session built, from its node by the dense product
        for stack, kids in tree._kids.items():
            nodes, picks = np.nonzero(kids[: tree.size])
            for node, pick, kid in zip(nodes, picks, kids[nodes, picks]):
                child = dense[stack][pick] @ rows[node]
                if isinstance(stack, ProjectorSet):
                    child = child / math.sqrt(np.square(child.view(float)).sum())
                assert np.array_equal(rows[kid], child)


# ---------------------------------------------------------------------------
# the tree itself


def draw(tree, node, projectors, rng):
    """One measurement of ``node``: a one-row level of ``tree``."""
    return int(tree.draw(np.array([node]), [projectors], rng.random(1))[0])


def child(tree, node, projectors, outcome):
    """The node of ``outcome``'s post-measurement state of ``node``."""
    return int(tree.children(np.array([node]), [projectors], np.array([outcome]))[0])


def walk_round(tree, node, projector_sets, parties, rngs) -> tuple:
    """Outcome indices of one round as a walk down ``tree`` from ``node``:
    each party in turn measures the node its predecessors left, drawing
    from its own stream.  A None set is the identity slot: it reads
    outcome 0 and draws nothing.  A drawn branch's node is built only when
    a later party measures it."""
    outcomes = []
    last = None  # (projector set, outcome) of the previous measurement
    for projectors, party in zip(projector_sets, parties):
        if projectors is None:
            outcomes.append(0)
            continue
        if last is not None:
            node = child(tree, node, *last)
        outcome = draw(tree, node, projectors, rngs[party])
        outcomes.append(outcome)
        last = projectors, outcome
    return tuple(outcomes)


def test_children_are_memoised_and_built_only_when_measured_again():
    spec = make_channel(2)
    key_sets = _key_projector_sets(2)
    tree = Tree(spec.state)
    rngs = _named_streams(1)
    for _ in range(200):
        walk_round(tree, 0, key_sets, PARTY_ORDER[:2], rngs)
    # Alice's four outcomes each lead to one node; Bob's last measurement
    # of each round builds none
    assert tree.size == 1 + 4
    k = draw(tree, 0, key_sets[0], rngs["alice"])
    assert child(tree, 0, key_sets[0], k) == child(tree, 0, key_sets[0], k)
    assert tree.size == 1 + 4


def walk_verification(tree, spec, rounds, model, rngs):
    """The verification phase's rounds as a walk down ``tree``, one round
    at a time, each attacked by a one-row attack level from the root."""
    n = spec.party_count
    parties = PARTY_ORDER[:n]
    menu = TWO_PARTY_MENU if n == 2 else THREE_PARTY_MENU
    levels = attack_levels(model, n)
    for _ in range(rounds):
        node = int(levels(tree, rngs["attack"], 1)[0])
        choices = [menu[int(rngs[p].integers(len(menu)))] for p in parties]
        sets = [_sign_projector_sets(n)[pos, name] for pos, name in enumerate(choices)]
        walk_round(tree, node, sets, parties, rngs)


def walk_key(tree, spec, rounds, model, rngs):
    """The key phase's rounds as a walk down ``tree``, one round at a
    time."""
    n = spec.party_count
    levels = attack_levels(model, n)
    for _ in range(rounds):
        node = int(levels(tree, rngs["attack"], 1)[0])
        walk_round(tree, node, _key_projector_sets(n), PARTY_ORDER[:n], rngs)


def run_key_phase(spec, rounds, model, rngs):
    """The key phase of the channel's protocol, sampling nothing."""
    if spec.party_count == 2:
        return run_key_phase_two_party(spec, rounds, 0.0, 1.0, model, rngs, MessageBus())
    return run_key_phase_controlled(spec, rounds, 0.0, 1.0, True, model, rngs, MessageBus())


def verification_phase(spec, rounds, model, rngs):
    return run_verification_phase(spec, rounds, model, rngs, MessageBus())


LEVEL_MODELS = [
    ("2-none", 2, AttackModel()),
    ("3-none", 3, AttackModel()),
    ("3-intercept-key", 3, AttackModel("intercept-key", (1, 2))),
    ("3-depolarize", 3, AttackModel("depolarize", (2,), 0.5)),
]


@pytest.mark.parametrize(
    "phase,walk,parties,model",
    [(verification_phase, walk_verification, p, m) for _, p, m in LEVEL_MODELS]
    + [(run_key_phase, walk_key, p, m) for _, p, m in LEVEL_MODELS],
    ids=[name for name, _, _ in LEVEL_MODELS] + [f"key-{name}" for name, _, _ in LEVEL_MODELS],
)
def test_level_sampler_builds_the_nodes_a_walk_builds(parties, model, phase, walk, monkeypatch):
    spec = make_channel(parties)
    trees = []

    def recording_tree(root):
        trees.append(Tree(root))
        return trees[-1]

    monkeypatch.setattr(protocol, "Tree", recording_tree)
    phase(spec, 300, model, _named_streams(3))
    walked = Tree(spec.state)
    walk(walked, spec, 300, model, _named_streams(3))
    assert trees[0].size == walked.size
    # the same states, built in another order
    rows = [sorted(map(bytes, t.amplitudes[: t.size])) for t in (trees[0], walked)]
    assert rows[0] == rows[1]


class AboveTotal:
    """Generator stub whose uniforms, 1.0, lie above any rounded total."""

    def random(self, size=None):
        return 1.0 if size is None else np.ones(size)


def test_zero_probability_branch_raises_on_every_draw():
    # |0> under the computational set: the draw falls through to the
    # zero-weight last branch
    comp = ProjectorSet([np.outer(e, e.conj()) for e in np.eye(DIM, dtype=complex)])
    for sample in (measure_projective, per_call_measure_projective):
        with pytest.raises(RuntimeError):
            sample(ket(0), comp, AboveTotal())
    tree = Tree(ket(0))
    for _ in range(3):
        # memoisation must not turn the first failure into a silent hit
        with pytest.raises(RuntimeError):
            draw(tree, 0, comp, AboveTotal())
        with pytest.raises(RuntimeError):
            walk_round(tree, 0, [comp], ("alice",), {"alice": AboveTotal()})
    assert draw(tree, 0, comp, np.random.default_rng(0)) == 0


@pytest.mark.parametrize("parties", [2, 3])
def test_key_phase_level_draw_raises_on_a_zero_weight_last_branch(parties):
    # a uniform of 1.0 reads the last key outcome, psi-; after Alice's
    # (and Bob's) psi- the last party's outcome is pinned to phi+, so its
    # uniform of 1.0 falls through to a zero-weight last branch
    spec = make_channel(parties)
    rngs = _named_streams(0)
    for party in PARTY_ORDER[:parties]:
        rngs[party] = AboveTotal()
    with pytest.raises(RuntimeError):
        run_key_phase(spec, 3, AttackModel(), rngs)


# ---------------------------------------------------------------------------
# the key tree's exact law


def branches(tree, node, projectors):
    """(outcome, probability) of every branch the sampler can draw: one
    whose amplitude is below 1e-9 raises there, and weighs under 1e-18."""
    probs = tree.probabilities(np.array([node]), projectors)[0].tolist()
    return [(k, p) for k, p in enumerate(probs) if math.sqrt(p) >= 1e-9]


def key_leaf_weights(spec, model):
    """(weight, key outcome indices) of every leaf of the key phase's
    branch tree: a measuring attack's readout branches and the parties'
    key branches carry their probabilities, and a depolarized target
    keeps its state with weight 1 - s or, with weight s, is read out and
    re-prepared as each fresh digit with weight 1/4."""
    n = spec.party_count
    tree = Tree(spec.state)
    attacked = [(1.0, 0)]
    for t in model.targets:
        readout, shifts = attacks._attack_operators(model.kind, t)
        spread = []
        for weight, node in attacked:
            if model.kind == "depolarize":
                spread.append(((1.0 - model.strength) * weight, node))
            for k, p in branches(tree, node, readout):
                measured = child(tree, node, readout, k)
                if model.kind != "depolarize":
                    spread.append((weight * p, measured))
                    continue
                for fresh in range(DIM):
                    amount = np.array([(fresh - k) % DIM])
                    shifted = int(tree.evolved(np.array([measured]), shifts, amount)[0])
                    spread.append((weight * p * model.strength / DIM, shifted))
        attacked = spread
    leaves = [(weight, node, ()) for weight, node in attacked]
    *earlier, last = _key_projector_sets(n)
    for projectors in earlier:
        leaves = [
            (weight * p, child(tree, node, projectors, k), outcomes + (k,))
            for weight, node, outcomes in leaves
            for k, p in branches(tree, node, projectors)
        ]
    return [
        (weight * p, outcomes + (k,))
        for weight, node, outcomes in leaves
        for k, p in branches(tree, node, last)
    ]


@pytest.mark.parametrize(
    "parties,model",
    CASES,
    ids=[f"{p}-{m.kind}{list(m.targets)}s{m.strength}" for p, m in CASES],
)
def test_key_tree_leaf_weights_give_the_predicted_qber(parties, model):
    spec = make_channel(parties)
    leaves = key_leaf_weights(spec, model)
    assert sum(weight for weight, _ in leaves) == pytest.approx(1.0, abs=1e-12)
    qber = sum(weight * key_bit_errors(outcomes) for weight, outcomes in leaves) / 2
    assert abs(qber - predict(model, spec).qber) < 1e-12
