"""The phases' branch tree against the per-round sampler it replaced.

The reference below is the session path as it was before the tree: it
walks the rounds one at a time, measures fresh ``StateVector`` objects
with a per-call stacked product of full-register operators built here
with ``embed`` and draws each outcome by the scalar ``draw_index``, and
the attack hooks map states to states.  Its randomness is the phases'
own: every stream draws the same bulk columns (``attack_columns``,
``menu_columns``), and the reference hands them out round by round.
From equal seeds the level-by-level verification and key phases, which
apply 4x4 operators at a position, must give outcome columns that read
as the reference's rounds (each round's choices, announced signs and
kept flag, and the key outcomes), identical tallies and transcripts, and
leave every named stream in an identical state.  Every
row of the trees that sessions grow has bit-identical branches,
probabilities and children under the library's local operators and
their ``embed``-ed counterparts.  A tree fills a row once, whole: its
law and, on a level that descends, a child for exactly each live branch,
cut from the one product, which no other code makes.  A per-round walk
down the tree (``walk_round``) shows that the level sampler builds the
nodes a walk builds, and the key tree's exact leaf weights give
``predict``'s qber.  A tree interns its rows by their exact bytes: no two
rows are equal, and an attacked phase's rows are exactly the distinct
states the per-round reference reaches, their live siblings and the
shifts of each shifted state.  Verification walks only its matched
rounds until its ``outcomes`` are read, so a tree compared with the
reference holds a subset of its rows before that read and all of them
after it.
"""

import functools
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from inverse_cdf import draw_index
from registers import embed, ket

from ququart_qkd import attacks, linalg, protocol
from ququart_qkd.attacks import ATTACK_KINDS, AttackModel, attack_levels, predict
from ququart_qkd.channels import make_channel
from ququart_qkd.linalg import (
    DIM,
    LIVE_NORM,
    NORM_TOL,
    MeasurementResult,
    OperatorStack,
    ProjectorSet,
    StateVector,
    Tree,
    apply_stacked,
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
from ququart_qkd.session import SessionConfig, _named_streams, run_session

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


class Draws:
    """Generator stub whose every ``random`` or ``integers`` call returns
    the next of the given values, whatever it asks for: a round's share
    of a stream's bulk columns, handed out call by call."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self, *args, **kwargs):
        return next(self.values)

    integers = random


def attack_columns(model, rng, rounds) -> list:
    """The attack stream's bulk columns for ``rounds`` rounds, a row per
    round and a column per target, in draw order: a measuring attack's
    readout uniforms, or depolarize's gates, readout uniforms and fresh
    digits; none attack-free."""
    shape = rounds, len(model.targets)
    if model.kind == "none":
        return []
    if model.kind != "depolarize":
        return [rng.random(shape)]
    return [rng.random(shape), rng.random(shape), rng.integers(DIM, size=shape)]


def menu_columns(rng, rounds) -> tuple:
    """A party's verification columns: its menu codes, then a uniform per
    round, an idle round's unread."""
    return rng.integers(4, size=rounds), rng.random(rounds)


def round_of(columns, index) -> list:
    """Row ``index`` of each column."""
    return [column[index] for column in columns]


def reference_measure_round(state, projector_sets, uniforms):
    """Outcome indices of one round: each party in turn measures the state
    its predecessors left, drawing by its uniform of the round."""
    outcomes = []
    for projectors, u in zip(projector_sets, uniforms):
        if projectors is None:
            outcomes.append(0)
            continue
        result = per_call_measure_projective(state, projectors, Draws([u]))
        outcomes.append(result.outcome_index)
        state = result.post_state
    return tuple(outcomes)


def shift_matrix(amount):
    m = np.zeros((DIM, DIM), dtype=complex)
    for j in range(DIM):
        m[(j + amount) % DIM, j] = 1.0
    return m


def reference_hook(model, num_parties):
    """The attack as a one-round map (state, the round's ``attack_columns``
    rows) -> state: each target in turn is read out, and under depolarize
    only where its gate hits, then re-prepared as its fresh digit."""
    if model.kind == "intercept-key":
        local = key_basis().projectors
    else:
        local = [np.outer(e, e.conj()) for e in np.eye(DIM, dtype=complex)]
    sets = {t: ProjectorSet([embed(p, t, num_parties) for p in local]) for t in model.targets}
    shifts = {t: [embed(shift_matrix(a), t, num_parties) for a in range(DIM)] for t in model.targets}
    depolarize = model.kind == "depolarize"

    def hook(state, draws):
        for j, t in enumerate(model.targets):
            if depolarize and draws[0][j] >= model.strength:
                continue
            # the readout uniforms: depolarize's second column, else the only one
            u = Draws([draws[int(depolarize)][j]])
            measured = per_call_measure_projective(state, sets[t], u)
            state = measured.post_state
            if depolarize:
                amount = (int(draws[2][j]) - measured.outcome_index) % DIM
                state = StateVector(state.num_ququarts, shifts[t][amount] @ state.amplitudes)
        return state

    return hook


def per_round_verification_phase(spec, rounds, model, rngs, bus):
    """The verification phase as a loop over rounds, each handed its row
    of the streams' bulk columns: each round's (choices, announced signs,
    kept), the tallies and the matched count, with the announcements
    posted to ``bus``."""
    n = spec.party_count
    parties = PARTY_ORDER[:n]
    menu = TWO_PARTY_MENU if n == 2 else THREE_PARTY_MENU
    sign_sets = dense_sign_sets(n)
    hook = reference_hook(model, n)
    attack = attack_columns(model, rngs["attack"], rounds)
    columns = [menu_columns(rngs[p], rounds) for p in parties]
    expected = {c.operators: c.expected for c in spec.checks}
    tallies = {c.name: [0, 0] for c in spec.checks}
    rounds_read = []
    matched = 0
    announcements = {p: [] for p in parties}
    for index in range(rounds):
        state = hook(spec.state, round_of(attack, index))
        choices = tuple(menu[int(codes[index])] for codes, _ in columns)
        sets = [sign_sets[pos, name] for pos, name in enumerate(choices)]
        indices = reference_measure_round(state, sets, [u[index] for _, u in columns])
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
    transcript, then the key outcome indices; without permission Bob's
    stream then draws his blind guesses."""
    bus = MessageBus()
    verify = per_round_verification_phase(spec, rounds, model, rngs, bus)
    n = spec.party_count
    hook = reference_hook(model, n)
    attack = attack_columns(model, rngs["attack"], rounds)
    uniforms = [rngs[p].random(rounds) for p in PARTY_ORDER[:n]]
    key = [
        reference_measure_round(
            hook(spec.state, round_of(attack, index)), dense_key_sets(n), round_of(uniforms, index)
        )
        for index in range(rounds)
    ]
    if not permits:
        rngs["bob"].integers(4, size=rounds)
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
    # odd round counts run the three-party key phase without permission
    for seed, rounds in ((5, 500), (6, 501), (7, 37), (8, 36)):
        tree_rngs, ref_rngs = _named_streams(seed), _named_streams(seed)
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


@pytest.mark.parametrize("parties", [2, 3])
def test_session_operators_are_exact_with_two_nonzeros_per_row(parties):
    # each product entry is then one rounding of exact terms, so a
    # product's bytes do not depend on the order it sums them in
    for stack in built_in_stacks(parties):
        assert np.isin(stack.stack, (0.0, 0.5, -0.5, 1.0, -1.0)).all()
        assert np.count_nonzero(stack.stack, axis=2).max() <= 2
    kb = key_basis()
    for vector, projector in zip(kb.vectors, kb.projectors):
        assert np.max(np.abs(projector - np.outer(vector, vector.conj()))) < NORM_TOL


def record_trees(monkeypatch) -> list:
    """Every tree the phases build from now on, in build order.  The
    attack-free trees are emptied first, so that an attack-free phase
    builds its shared tree anew, and so records it."""
    trees = []

    def recording_tree(root):
        trees.append(Tree(root))
        return trees[-1]

    monkeypatch.setattr(protocol, "Tree", recording_tree)
    protocol._attack_free_tree.cache_clear()
    return trees


@pytest.mark.parametrize(
    "parties,model",
    CASES,
    ids=[f"{p}-{m.kind}{list(m.targets)}s{m.strength}" for p, m in CASES],
)
def test_local_products_equal_embedded_products_on_session_trees(parties, model, monkeypatch):
    spec = make_channel(parties)
    trees = record_trees(monkeypatch)
    rngs = _named_streams(2)
    verification_phase(spec, 300, model, rngs)
    run_key_phase(spec, 300, model, rngs)
    # attack-free, both phases sample the one shared tree
    assert len(trees) == (1 if model.kind == "none" else 2)
    stacks = built_in_stacks(parties)
    dense = {s: np.array([embed(m, s.position, parties) for m in s.stack]) for s in stacks}
    for tree in trees:
        rows = tree.amplitudes[: tree.size]
        ids = np.arange(tree.size)
        for stack in stacks:
            for position in range(parties):
                # (rows, k, 4**n) under the local product and the embedded
                # stack, which acts on one state at a time, as the session
                # path once did
                at = np.array([embed(m, position, parties) for m in stack.stack])
                embedded = np.stack([at @ row for row in rows])
                assert np.array_equal(apply_stacked(stack.stack, position, rows), embedded)
            embedded = np.stack([dense[stack] @ row for row in rows], axis=1)
            if isinstance(stack, ProjectorSet):
                probs = np.square(embedded.view(float)).sum(axis=-1).T
                assert np.array_equal(tree.probabilities(ids, stack), probs)
        check_levels(tree, dense)


def check_levels(tree, dense):
    """Every level of ``tree`` against the dense products ``dense`` (by
    stack): each filled row's cumulative law is its probabilities' running
    sum, and every child is its node's branch by the dense product,
    normalized for a projector set; the identity slot's child is its
    node."""
    rows = tree.amplitudes[: tree.size]
    for (sets, _), level in tree._levels.items():
        filled = ~np.isnan(level.probs[:, 0])
        assert np.array_equal(level.cdf[filled], np.cumsum(level.probs[filled, :-1], axis=1))
        keys, picks = np.nonzero(level.kids[: tree.size * len(sets)] >= 0)
        for key, pick in zip(keys.tolist(), picks.tolist()):
            node, code = divmod(key, len(sets))
            stack, kid = sets[code], level.kids[key, pick]
            if stack is None:
                assert kid == node
                continue
            child = dense[stack][pick] @ rows[node]
            if isinstance(stack, ProjectorSet):
                child = child / math.sqrt(np.square(child.view(float)).sum())
            assert np.array_equal(rows[kid], child)


def check_live_children(tree):
    """The fill's invariant: each filled row of a level that descends has
    a child for exactly its live branches, and every other row of any
    level has none but the identity slot's."""
    for (sets, descends), level in tree._levels.items():
        filled = ~np.isnan(level.probs[:, 0])
        live = np.sqrt(level.probs[filled]) >= LIVE_NORM
        if descends:
            assert np.array_equal(level.kids[filled] >= 0, live)
        else:
            # a draw-only level: the identity slot keeps its node
            idle = [code for code, stack in enumerate(sets) if stack is None]
            built = np.flatnonzero((level.kids >= 0).any(axis=1)) % len(sets)
            assert set(built.tolist()) <= set(idle)
        assert (level.kids[~filled] == -1).all()
        assert (level.kids < tree.size).all()


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
    outcome 0 and draws nothing.  Every party but the last goes on to its
    drawn branch's node, as the phases do."""
    outcomes = []
    for j, (projectors, party) in enumerate(zip(projector_sets, parties)):
        if projectors is None:
            outcomes.append(0)
            continue
        outcome = draw(tree, node, projectors, rngs[party])
        outcomes.append(outcome)
        if j + 1 < len(projector_sets):
            node = child(tree, node, projectors, outcome)
    return tuple(outcomes)


def test_state_of_an_id_outside_the_tree_raises_index_error():
    tree = Tree(make_channel(2).state)
    # the amplitude array has room beyond its one node
    for node in (1, -1, len(tree.amplitudes)):
        with pytest.raises(IndexError, match=f"no node {node} "):
            tree.state(node)
    assert tree.state(0) is tree.root
    [kid] = tree.children(np.array([0]), [_key_projector_sets(2)[0]], np.array([0])).tolist()
    assert tree.state(kid).num_ququarts == 2
    with pytest.raises(IndexError):
        tree.state(tree.size)


def count_products(monkeypatch) -> list:
    """The row count of every ``apply_stacked`` product from now on, each
    checked to be made by ``Tree._fill``."""
    calls = []

    def counted(stack, position, rows):
        assert sys._getframe(1).f_code is Tree._fill.__code__, "a product outside Tree._fill"
        calls.append(len(rows))
        return apply_stacked(stack, position, rows)

    monkeypatch.setattr(linalg, "apply_stacked", counted)
    return calls


def filled_rows(tree) -> int:
    """The filled rows of every level but the identity slot's, which no
    product fills."""
    rows = 0
    for (sets, _), level in tree._levels.items():
        keys = np.flatnonzero(~np.isnan(level.probs[:, 0]))
        rows += sum(sets[code] is not None for code in (keys % len(sets)).tolist())
    return rows


def test_children_are_memoised_and_cut_from_the_fill(monkeypatch):
    calls = count_products(monkeypatch)
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
    made = len(calls)
    assert child(tree, 0, key_sets[0], k) == child(tree, 0, key_sets[0], k)
    assert (tree.size, len(calls)) == (1 + 4, made)
    check_levels(tree, dense_stacks(2))
    # children asked for before any draw: their rows are filled first,
    # and the identity slot keeps its node
    fresh = Tree(spec.state)
    ids, outcomes = np.zeros(2, dtype=np.intp), np.array([0, k])
    kids = fresh.children(ids, [None, key_sets[0]], outcomes, np.array([0, 1]))
    assert kids[0] == 0
    assert np.array_equal(fresh.amplitudes[kids[1]], tree.amplitudes[child(tree, 0, key_sets[0], k)])
    check_levels(fresh, dense_stacks(2))
    # each row filled once, by one product
    assert sum(calls) == filled_rows(tree) + filled_rows(fresh)


@functools.cache
def dense_stacks(num_parties):
    """Every built-in stack's embedded counterpart, by stack."""
    return {
        s: np.array([embed(m, s.position, num_parties) for m in s.stack])
        for s in built_in_stacks(num_parties)
    }


def check_level(tree, ids, sets, u, codes, descends):
    """One ``descend`` level of ``tree``, or with ``descends`` false one
    ``draw`` level, against the scalar rule: per row, ``draw_index`` on
    the dense branch probabilities of its node's state, the identity slot
    reading outcome 0 and keeping its node.  A descending row's child
    holds the drawn branch by the dense product, normalized; a drawing
    row keeps its node.  Returns the children."""
    if descends:
        outcomes, kids = tree.descend(ids, sets, u, codes)
    else:
        outcomes, kids = tree.draw(ids, sets, u, codes), ids
    dense = dense_stacks(tree.root.num_ququarts)
    picks = np.zeros(len(ids), dtype=np.intp) if codes is None else codes
    for row, (node, code) in enumerate(zip(ids.tolist(), picks.tolist())):
        projectors = sets[code]
        if projectors is None:
            assert (outcomes[row], kids[row]) == (0, node)
            continue
        branches = dense[projectors] @ tree.amplitudes[node]
        probs = np.square(branches.view(float)).sum(axis=-1).tolist()
        k = draw_index(probs, Draws([u[row]]))
        assert outcomes[row] == k
        if descends:
            assert np.array_equal(tree.amplitudes[kids[row]], branches[k] / math.sqrt(probs[k]))
        else:
            assert kids[row] == node
    check_live_children(tree)
    return kids


def check_party_levels(tree, ids, rng, as_phases=True):
    """A verification phase's and a key phase's party levels from the
    nodes ``ids``, each checked by ``check_level``: every party draws its
    menu code and uniforms from ``rng``.  Every party but the last
    descends, as the phases do; unless ``as_phases``, the last one too."""
    n = tree.root.num_ququarts
    menu = TWO_PARTY_MENU if n == 2 else THREE_PARTY_MENU
    codes = rng.integers(len(menu), size=(n, len(ids)))
    at = ids
    for j in range(n):
        sets = [_sign_projector_sets(n)[j, name] for name in menu]
        descends = j + 1 < n or not as_phases
        at = check_level(tree, at, sets, rng.random(len(ids)), codes[j], descends)
    at = ids
    for j, projectors in enumerate(_key_projector_sets(n)):
        descends = j + 1 < n or not as_phases
        at = check_level(tree, at, [projectors], rng.random(len(ids)), None, descends)


def filled_keys(tree) -> dict:
    """The keys of every level's filled rows."""
    levels = tree._levels.items()
    return {at: np.flatnonzero(~np.isnan(level.probs[:, 0])).tolist() for at, level in levels}


@pytest.mark.parametrize("parties", [2, 3])
def test_level_tables_draw_by_the_scalar_rule_on_the_shared_tree(parties):
    tree = protocol._attack_free_tree(parties)
    # enough rounds to reach every node's identity slot on the last level
    check_party_levels(tree, np.zeros(2000, dtype=np.intp), np.random.default_rng(0))
    # saturated for these rounds: the levels below only read filled rows
    size, filled = tree.size, filled_keys(tree)
    check_party_levels(tree, np.zeros(300, dtype=np.intp), np.random.default_rng(1))
    assert (tree.size, filled_keys(tree)) == (size, filled)


def test_level_tables_draw_by_the_scalar_rule_on_a_growing_attacked_tree():
    tree = Tree(make_channel(3).state)
    rng = np.random.default_rng(2)
    for rounds in (40, 300):
        ids = np.zeros(rounds, dtype=np.intp)
        for target in (1, 2):
            readout = attacks._attack_operators("intercept-key", target)[0]
            ids = check_level(tree, ids, [readout], rng.random(rounds), None, True)
        size = tree.size
        check_party_levels(tree, ids, rng, as_phases=False)
        assert tree.size > size


def test_drawn_children_are_cut_from_the_fill_on_a_growing_attacked_tree(monkeypatch):
    calls = count_products(monkeypatch)
    tree = Tree(make_channel(3).state)
    rng = np.random.default_rng(4)
    for rounds in (40, 300):
        ids = np.zeros(rounds, dtype=np.intp)
        levels = [([attacks._attack_operators("intercept-key", t)[0]], None) for t in (1, 2)]
        codes = rng.integers(len(THREE_PARTY_MENU), size=(3, rounds))
        for j in range(3):
            levels.append(([_sign_projector_sets(3)[j, name] for name in THREE_PARTY_MENU], codes[j]))
        for sets, level_codes in levels:
            ids = check_level(tree, ids, sets, rng.random(rounds), level_codes, True)
        check_levels(tree, dense_stacks(3))
        # the second pass meets rows the first one filled, and fills only
        # the others, each by one product
        assert sum(calls) == filled_rows(tree)


INVARIANT_SESSIONS = [
    SessionConfig("two-party", 200, 100, seed=12),
    SessionConfig("three-party", 300, 100, seed=12, alice_permits=False),
    SessionConfig("three-party", 0, 100, seed=12, corrupt=True),
    SessionConfig("three-party", 300, seed=12, attack=AttackModel("depolarize", (1, 2), 0.5)),
    SessionConfig("two-party", 200, seed=12, attack=AttackModel("intercept-key", (1,))),
]


def test_every_call_leaves_each_descending_row_with_its_live_children(monkeypatch):
    record_trees(monkeypatch)
    checked_calls = []
    for name in ("draw", "descend", "children", "evolved", "probabilities"):

        def checked(tree, *args, _name=name, _method=getattr(Tree, name), **kwargs):
            result = _method(tree, *args, **kwargs)
            check_live_children(tree)
            checked_calls.append(_name)
            return result

        monkeypatch.setattr(Tree, name, checked)
    for config in INVARIANT_SESSIONS:
        run_session(config)
    # the per-round walk and the key tree's exact law call the others
    spec, model = make_channel(3), AttackModel("depolarize", (2,), 0.5)
    walk_key(Tree(spec.state), spec, 20, model, _named_streams(1))
    key_leaf_weights(spec, model)
    assert set(checked_calls) == {"draw", "descend", "children", "evolved", "probabilities"}


ROOT_ROW = np.zeros(1, dtype=np.intp)  # the one round an attack walk is handed


def walk_verification(tree, spec, rounds, model, rngs):
    """The verification phase's rounds as a walk down ``tree``, one round
    at a time, each attacked by a one-row attack level from the root and
    handed its row of the streams' bulk columns."""
    n = spec.party_count
    parties = PARTY_ORDER[:n]
    menu = TWO_PARTY_MENU if n == 2 else THREE_PARTY_MENU
    levels = attack_levels(model, n)
    attack = attack_columns(model, rngs["attack"], rounds)
    columns = {p: menu_columns(rngs[p], rounds) for p in parties}
    for i in range(rounds):
        node = int(levels(Draws(c[i : i + 1] for c in attack), 1)(tree, ROOT_ROW)[0])
        choices = [menu[int(codes[i])] for codes, _ in columns.values()]
        sets = [_sign_projector_sets(n)[pos, name] for pos, name in enumerate(choices)]
        uniforms = {p: Draws([u[i : i + 1]]) for p, (_, u) in columns.items()}
        walk_round(tree, node, sets, parties, uniforms)


def walk_key(tree, spec, rounds, model, rngs):
    """The key phase's rounds as a walk down ``tree``, one round at a
    time, each handed its row of the streams' bulk columns."""
    n = spec.party_count
    parties = PARTY_ORDER[:n]
    levels = attack_levels(model, n)
    attack = attack_columns(model, rngs["attack"], rounds)
    uniforms = {p: rngs[p].random(rounds) for p in parties}
    for i in range(rounds):
        node = int(levels(Draws(c[i : i + 1] for c in attack), 1)(tree, ROOT_ROW)[0])
        draws = {p: Draws([u[i : i + 1]]) for p, u in uniforms.items()}
        walk_round(tree, node, _key_projector_sets(n), parties, draws)


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
    trees = record_trees(monkeypatch)
    result = phase(spec, 300, model, _named_streams(3))
    assert len(trees) == 1
    walked = Tree(spec.state)
    walk(walked, spec, 300, model, _named_streams(3))
    if phase is verification_phase:
        # the matched rounds alone, until the discarded ones are read
        assert row_bytes(trees[0]) <= row_bytes(walked)
        result.outcomes
    assert trees[0].size == walked.size
    # the same states, built in another order
    rows = [sorted(map(bytes, t.amplitudes[: t.size])) for t in (trees[0], walked)]
    assert rows[0] == rows[1]


class AboveTotal:
    """Generator stub whose uniforms, 2.0, lie above any rounded total."""

    def random(self, size=None):
        return 2.0 if size is None else np.full(size, 2.0)


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
    # a row an earlier call filled without failing: a level in which one
    # row falls through to its zero-weight last branch raises, with the
    # identity slot beside it
    tree = Tree(ket(0))
    assert draw(tree, 0, comp, np.random.default_rng(0)) == 0
    assert not np.isnan(tree._levels[(comp,), False].probs[0]).any()
    ids, u = np.zeros(3, dtype=np.intp), np.array([0.5, 1.0, 0.25])
    codes = np.array([1, 0, 1])  # the first and last rows read the identity slot
    for level, level_codes in (([comp], None), ([comp, None], codes)):
        with pytest.raises(RuntimeError):
            tree.draw(ids, level, u, level_codes)
    assert tree.draw(ids, [comp, None], np.array([0.5, 0.75, 0.25]), codes).tolist() == [0, 0, 0]


@pytest.mark.parametrize("parties", [2, 3])
def test_key_phase_level_draw_raises_on_a_zero_weight_last_branch(parties):
    # a uniform of 2.0 reads the last key outcome, psi-; after Alice's
    # (and Bob's) psi- the last party's outcome is pinned to phi+, so its
    # uniform of 2.0 falls through to a zero-weight last branch (the pinned
    # law's rounded total may lie above 1.0)
    spec = make_channel(parties)
    rngs = _named_streams(0)
    for party in PARTY_ORDER[:parties]:
        rngs[party] = AboveTotal()
    with pytest.raises(RuntimeError):
        run_key_phase(spec, 3, AttackModel(), rngs)


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


# ---------------------------------------------------------------------------
# interning: one row per distinct state


def row_bytes(tree) -> set:
    return set(map(bytes, tree.amplitudes[: tree.size]))


def assert_rows_distinct(tree):
    rows = tree.amplitudes[: tree.size]
    assert len(set(map(bytes, rows))) == tree.size


def test_built_rows_equal_in_bytes_share_one_id():
    # cyclic shifts of one ququart: two paths to |2>, and back to the root
    shifts = OperatorStack([np.roll(np.eye(DIM), a, axis=0) for a in range(DIM)])
    tree = Tree(ket(0))

    def evolved(ids, picks):
        return tree.evolved(np.array(ids), shifts, np.array(picks)).tolist()

    [two] = tree.evolved(np.array([0]), OperatorStack([np.roll(np.eye(DIM), 2, axis=0)]), np.array([0]))
    assert tree.size == 2
    # one product shifts the root and |2> alike: |1> and |3> are each built
    # twice in it, and each is one new node
    [one, also] = evolved([0, two], [1, 3])
    assert one == also and tree.size == 4
    np.testing.assert_array_equal(tree.state(one).amplitudes, ket(1).amplitudes)
    assert evolved([one, two, 0, two], [1, 2, 0, 0]) == [two, 0, 0, two]
    assert tree.size == 4
    check_live_children(tree)
    # a measurement's normalized branch equal to the root is the root
    comp = ProjectorSet([np.outer(e, e) for e in np.eye(DIM, dtype=complex)])
    assert child(tree, 0, comp, 0) == 0 and child(tree, two, comp, 2) == two
    assert tree.size == 4
    # a row one rounding apart from the root is a node of its own, and a
    # second level that builds the same bytes finds it
    nudge = 1 + 2.0**-52
    near = OperatorStack([np.eye(DIM) * nudge])
    [apart] = tree.evolved(np.array([0]), near, np.array([0])).tolist()
    assert apart == 4 and np.allclose(tree.amplitudes[apart], tree.amplitudes[0])
    again = OperatorStack([np.eye(DIM) * nudge])
    assert tree.evolved(np.array([0]), again, np.array([0])).tolist() == [apart]
    assert tree.size == 5
    assert_rows_distinct(tree)


def report_grid_configs():
    """``tools/report_grid.py``'s session configs."""
    path = Path(__file__).resolve().parents[1] / "tools" / "report_grid.py"
    spec = importlib.util.spec_from_file_location("report_grid", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for protocol_name, kind, targets, strength, permits, corrupt, ver, key, frac, seed in module.grid():
        yield SessionConfig(
            protocol=protocol_name,
            verification_rounds=ver,
            key_rounds=key,
            sample_fraction=frac,
            qber_threshold=0.6,
            attack=AttackModel(kind, targets, strength),
            alice_permits=permits,
            seed=seed,
            corrupt=corrupt,
        )


def test_report_grid_trees_hold_distinct_rows(monkeypatch):
    trees = record_trees(monkeypatch)
    attacked = 0
    for config in report_grid_configs():
        count = len(trees)
        run_session(config)
        for tree in trees[count:]:
            assert_rows_distinct(tree)
        attacked += config.attack.kind != "none"
    assert attacked == 280
    shared = [protocol._attack_free_tree(n) for n in (2, 3)]
    for tree in shared:
        assert any(tree is t for t in trees)
        assert_rows_distinct(tree)


def reference_rows(spec, rounds, model, rngs) -> list:
    """Per phase (verification, then key), the bytes of every row a
    phase's tree holds beside its root, as the per-round reference builds
    them: each live branch (``LIVE_NORM``) of a measurement that a later
    one follows, normalized (an attack readout, or a party's measurement
    on every level but the last), which holds the state the round goes
    on from, and every shift of a depolarized target's measured state.
    The draws are ``reference_phases``'."""
    n = spec.party_count
    parties = PARTY_ORDER[:n]
    menu = TWO_PARTY_MENU if n == 2 else THREE_PARTY_MENU
    if model.kind == "intercept-key":
        local = key_basis().projectors
    else:
        local = [np.outer(e, e.conj()) for e in np.eye(DIM, dtype=complex)]
    readouts = {t: ProjectorSet([embed(p, t, n) for p in local]) for t in model.targets}
    shifts = {t: [embed(shift_matrix(a), t, n) for a in range(DIM)] for t in model.targets}

    depolarize = model.kind == "depolarize"

    def measure(state, projectors, u, built):
        # the drawn branch's state, and every live branch normalized
        branches = projectors.stack @ state.amplitudes
        probs = np.square(branches.view(float)).sum(axis=1).tolist()
        for branch, p in zip(branches, probs):
            if math.sqrt(p) >= LIVE_NORM:
                built.add((branch / math.sqrt(p)).tobytes())
        return per_call_measure_projective(state, projectors, Draws([u]))

    def attacked(draws, built):
        state = spec.state
        for j, t in enumerate(model.targets):
            if depolarize and draws[0][j] >= model.strength:
                continue
            measured = measure(state, readouts[t], draws[int(depolarize)][j], built)
            state = measured.post_state
            if depolarize:
                built.update((shift @ state.amplitudes).tobytes() for shift in shifts[t])
                amount = (int(draws[2][j]) - measured.outcome_index) % DIM
                state = StateVector(n, shifts[t][amount] @ state.amplitudes)
        return state

    def measured(state, sets, uniforms, built):
        *earlier, _ = zip(sets, uniforms)
        for projectors, u in earlier:
            if projectors is not None:
                state = measure(state, projectors, u, built).post_state

    verification, key = set(), set()
    attack = attack_columns(model, rngs["attack"], rounds)
    columns = [menu_columns(rngs[p], rounds) for p in parties]
    for index in range(rounds):
        state = attacked(round_of(attack, index), verification)
        choices = [menu[int(codes[index])] for codes, _ in columns]
        sets = [dense_sign_sets(n)[pos, name] for pos, name in enumerate(choices)]
        measured(state, sets, [u[index] for _, u in columns], verification)
    attack = attack_columns(model, rngs["attack"], rounds)
    uniforms = [rngs[p].random(rounds) for p in parties]
    for index in range(rounds):
        state = attacked(round_of(attack, index), key)
        measured(state, dense_key_sets(n), round_of(uniforms, index), key)
    return [verification, key]


ATTACKED_CASES = [(p, m) for p, m in CASES if m.kind != "none"]


@pytest.mark.parametrize(
    "parties,model",
    ATTACKED_CASES,
    ids=[f"{p}-{m.kind}{list(m.targets)}s{m.strength}" for p, m in ATTACKED_CASES],
)
def test_attacked_phases_build_no_more_rows_than_the_reference_walk(parties, model, monkeypatch):
    spec = make_channel(parties)
    trees = record_trees(monkeypatch)
    rngs = _named_streams(4)
    summary = verification_phase(spec, 300, model, rngs)
    run_key_phase(spec, 300, model, rngs)
    assert len(trees) == 2
    root = {spec.state.amplitudes.tobytes()}
    expected = [root | rows for rows in reference_rows(spec, 300, model, _named_streams(4))]
    # the verification tree holds the matched rounds' rows until the
    # discarded rounds are read
    assert row_bytes(trees[0]) <= expected[0]
    summary.outcomes
    for tree, reached in zip(trees, expected):
        rows = row_bytes(tree)
        # exactly the distinct states the reference reaches and their
        # live siblings, the root included
        assert len(rows) == tree.size
        assert rows == reached


def test_unchunked_products_equal_embedded_products(monkeypatch):
    # a three-party tree of several hundred rows; the old products went in
    # chunks of 64 rows for a two-branch fill and 128 rows for a build
    # on 64 amplitudes
    spec = make_channel(3)
    trees = record_trees(monkeypatch)
    # the discarded rounds' rows too
    verification_phase(spec, 1000, AttackModel("depolarize", (1, 2), 1.0), _named_streams(5)).outcomes
    tree = trees[0]
    ids = np.arange(tree.size)
    assert tree.size > 2 * 128
    stack = _sign_projector_sets(3)[1, "sx"]  # a two-branch set
    dense = dense_stacks(3)[stack]
    rows = tree.amplitudes[: tree.size].copy()
    embedded = np.stack([dense @ row for row in rows], axis=1)
    probs = np.square(embedded.view(float)).sum(axis=-1).T
    # fresh one-set levels: every row is filled by one product
    assert ((stack,), False) not in tree._levels and ((stack,), True) not in tree._levels
    assert np.array_equal(tree.probabilities(ids, stack), probs)
    # and every row's branches are built by one product
    picks = np.argmax(probs, axis=1)
    kids = tree.children(ids, [stack], picks)
    for node, (pick, kid) in enumerate(zip(picks.tolist(), kids.tolist())):
        branch = embedded[pick, node]
        assert np.array_equal(tree.amplitudes[kid], branch / math.sqrt(probs[node, pick]))
    assert_rows_distinct(tree)


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


# ---------------------------------------------------------------------------
# verification walks the matched rounds, and the discarded ones on first read


def count_walked_rows(monkeypatch) -> list:
    """(method, rows) of every ``Tree.descend`` and ``Tree.draw`` call from
    now on.  A phase's last party only draws, so the draws' rows are the
    rounds a phase walked."""
    calls = []
    for name in ("descend", "draw"):

        def counted(tree, ids, *args, _name=name, _method=getattr(Tree, name), **kwargs):
            calls.append((_name, len(ids)))
            return _method(tree, ids, *args, **kwargs)

        monkeypatch.setattr(Tree, name, counted)
    return calls


def read_signs(outcomes) -> list:
    """Each round's announced signs."""
    return list(zip(*(map(SIGNS.__getitem__, column.tolist()) for column in outcomes)))


DEFERRED_CASES = [
    (2, AttackModel()),
    (3, AttackModel()),
    (2, AttackModel("intercept-key", (1,))),
    (3, AttackModel("entangle-probe", (2,))),
    (3, AttackModel("depolarize", (1, 2), 0.3)),
]


@pytest.mark.parametrize(
    "parties,model",
    DEFERRED_CASES,
    ids=[f"{p}-{m.kind}{list(m.targets)}" for p, m in DEFERRED_CASES],
)
def test_verification_walks_matched_rounds_and_the_rest_on_first_read(parties, model, monkeypatch):
    spec = make_channel(parties)
    trees = record_trees(monkeypatch)
    calls = count_walked_rows(monkeypatch)
    summary = verification_phase(spec, 301, model, _named_streams(9))
    assert 0 < summary.matched < summary.rounds == 301
    # no call saw a discarded round, and the last party drew the matched ones
    assert max(rows for _, rows in calls) == summary.matched
    assert [rows for name, rows in calls if name == "draw"] == [summary.matched]
    root = {spec.state.amplitudes.tobytes()}
    reached = root | reference_rows(spec, 301, model, _named_streams(9))[0]
    assert row_bytes(trees[0]) <= reached

    calls.clear()
    outcomes = summary.outcomes
    assert [rows for name, rows in calls if name == "draw"] == [summary.discarded]
    reference = per_round_verification_phase(spec, 301, model, _named_streams(9), MessageBus())
    assert read_signs(outcomes) == [signs for _, signs, _ in reference[0]]
    assert row_bytes(trees[0]) == reached
    for column, kept in zip(outcomes, summary.kept_outcomes):
        assert not column.flags.writeable
        assert np.array_equal(column[summary.kept], kept)

    calls.clear()
    assert summary.outcomes is outcomes
    assert calls == []


@pytest.mark.parametrize("parties", [2, 3])
def test_a_late_read_on_the_grown_shared_tree_gives_the_same_columns(parties):
    spec = make_channel(parties)
    protocol._attack_free_tree.cache_clear()
    summary = verification_phase(spec, 400, AttackModel(), _named_streams(11))
    tree = protocol._attack_free_tree(parties)
    size = tree.size
    protocol_name = "two-party" if parties == 2 else "three-party"
    for seed in range(3):
        config = SessionConfig(protocol=protocol_name, verification_rounds=200, key_rounds=200, seed=seed)
        assert run_session(config).outcome == "key-established"
    assert tree.size > size
    reference = per_round_verification_phase(spec, 400, AttackModel(), _named_streams(11), MessageBus())
    assert read_signs(summary.outcomes) == [signs for _, signs, _ in reference[0]]


SESSION_CASES = [
    SessionConfig(protocol="two-party", verification_rounds=200, key_rounds=150, seed=3),
    SessionConfig(protocol="three-party", verification_rounds=400, key_rounds=150, seed=3),
    SessionConfig(protocol="three-party", verification_rounds=400, key_rounds=150, seed=3, alice_permits=False),
    SessionConfig(
        protocol="three-party", verification_rounds=400, seed=3, attack=AttackModel("intercept-key", (1, 2))
    ),
]


@pytest.mark.parametrize("config", SESSION_CASES, ids=["2", "3", "3-withheld", "3-attacked"])
def test_a_session_walks_only_its_matched_verification_rounds(config, monkeypatch):
    calls = count_walked_rows(monkeypatch)
    report = run_session(config)
    assert report.verify["discarded"] > 0
    walked = [report.verify["matched"]] + ([config.key_rounds] if report.key["rounds"] else [])
    assert [rows for name, rows in calls if name == "draw"] == walked
    assert (config.attack.kind == "none") == (report.outcome != "aborted-verification")
