"""The attack-free branch trees that outlive their sessions.

Every attack-free phase on a built-in channel samples one tree per party
count, kept for the life of the process (``protocol._attack_free_tree``).
A session's report must not depend on what that tree, or the session's
oracle memo, already holds: the reports of a fresh process, where every
phase samples a tree of its own and every oracle is predicted anew, equal
those of a process in which attacked and attack-free sessions of both
channels ran first.  The shared trees stop growing at a bound that
follows from the menus; once there, an attack-free session only reads
their tables and makes no product.  Attacked or corrupt-channel
sessions, which build their own trees, leave them as they are.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ququart_qkd import linalg, protocol
from ququart_qkd.attacks import ATTACK_KINDS, AttackModel
from ququart_qkd.observables import key_basis
from ququart_qkd.protocol import SIGNS, THREE_PARTY_MENU, TWO_PARTY_MENU
from ququart_qkd.session import SessionConfig, _built_in_oracle, format_report, run_session

PROTOCOLS = {2: "two-party", 3: "three-party"}

# session configs as keyword arguments, the attack as AttackModel's
# (kind, targets, strength)
CONFIGS = [
    dict(protocol=name, verification_rounds=61, key_rounds=keys, seed=seed)
    for name in PROTOCOLS.values()
    for keys, seed in ((0, 31), (1, 32), (1000, 33))
] + [
    dict(protocol="three-party", verification_rounds=rounds, key_rounds=keys, seed=seed, alice_permits=False)
    for rounds, keys, seed in ((60, 1000, 34), (61, 1, 35))
] + [
    # no verification rounds pass vacuously, so the key phase runs on the
    # corrupt channel too
    dict(protocol="two-party", verification_rounds=0, key_rounds=1000, seed=36, corrupt=True),
    dict(protocol="three-party", verification_rounds=0, key_rounds=1000, seed=37, corrupt=True),
    dict(protocol="three-party", verification_rounds=200, key_rounds=10, seed=38, corrupt=True),
    dict(
        protocol="three-party",
        verification_rounds=0,
        key_rounds=1000,
        seed=39,
        attack=("depolarize", (1, 2), 0.5),
    ),
] + [
    # attacks of run_other_sessions, whose oracles the warm reports read
    # from the session's memo; a fresh process predicts them
    dict(
        protocol="two-party",
        verification_rounds=61,
        key_rounds=100,
        seed=40,
        attack=("intercept-key", (1,), 0.5),
    ),
    dict(
        protocol="two-party",
        verification_rounds=0,
        key_rounds=300,
        qber_threshold=0.9,
        seed=41,
        attack=("depolarize", (1,), 0.5),
    ),
    dict(
        protocol="three-party",
        verification_rounds=61,
        key_rounds=100,
        seed=42,
        attack=("entangle-probe", (1, 2), 0.5),
    ),
    dict(
        protocol="three-party",
        verification_rounds=0,
        key_rounds=300,
        qber_threshold=0.9,
        seed=43,
        attack=("intercept-computational", (1, 2), 0.5),
    ),
]

# the configs' reports in a process of their own, where every phase
# samples a new tree of its own and nothing is shared
FRESH_SCRIPT = """
import json
from ququart_qkd import linalg, protocol
from ququart_qkd.attacks import AttackModel
from ququart_qkd.session import SessionConfig, format_report, run_session
protocol._phase_tree = lambda spec, attack: protocol.Tree(spec.state)
reports = []
for kwargs in {configs!r}:
    attack = AttackModel(*kwargs.pop("attack", ("none",)))
    reports.append(format_report(run_session(SessionConfig(attack=attack, **kwargs))))
print(json.dumps(reports))
"""


def session(kwargs) -> SessionConfig:
    kwargs = dict(kwargs)
    attack = AttackModel(*kwargs.pop("attack", ("none",)))
    return SessionConfig(attack=attack, **kwargs)


def attacked_models(parties):
    """One model per attack kind on every target."""
    targets = tuple(range(1, parties))
    return [AttackModel(kind, targets, 0.5) for kind in ATTACK_KINDS[1:]]


def run_other_sessions(parties, seed):
    """Attacked sessions of every kind and corrupt-channel sessions, none
    of them attack-free on a built-in channel."""
    name = PROTOCOLS[parties]
    for model in attacked_models(parties):
        run_session(SessionConfig(name, 300, 300, qber_threshold=0.9, attack=model, seed=seed))
    run_session(SessionConfig(name, verification_rounds=0, key_rounds=300, corrupt=True, seed=seed))
    run_session(SessionConfig(name, verification_rounds=300, corrupt=True, seed=seed))


@pytest.fixture(scope="module")
def warm_reports():
    """The configs' reports in this process, last config first, after
    attacked and attack-free sessions of both channels have grown the
    shared trees and filled the session's oracle memo; and the count of
    memo misses among them."""
    for parties in (2, 3):
        run_other_sessions(parties, 0)
        for seed in range(4):
            run_session(SessionConfig(PROTOCOLS[parties], verification_rounds=500, seed=seed))
    misses = _built_in_oracle.cache_info().misses
    reports = [format_report(run_session(session(c))) for c in reversed(CONFIGS)][::-1]
    return reports, _built_in_oracle.cache_info().misses - misses


def test_reports_equal_those_of_a_fresh_process(warm_reports):
    warm_reports, predicted = warm_reports
    # every built-in channel's oracle came from the memo here
    assert predicted == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", FRESH_SCRIPT.format(configs=CONFIGS)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    fresh = json.loads(result.stdout)
    assert len(fresh) == len(CONFIGS)
    for kwargs, want, got in zip(CONFIGS, fresh, warm_reports):
        assert got == want, kwargs


def attack_free_rows(parties) -> int:
    """The most rows an attack-free tree can hold, from the menus: the
    root; per verification level, both sign branches of every menu pair at
    each node that party measures, built only where a later party measures
    (the identity measures nothing and keeps its node); and per key level,
    every key branch of the level before, the last party building none."""
    menu = TWO_PARTY_MENU if parties == 2 else THREE_PARTY_MENU
    pairs = sum(name != "id" for name in menu)
    rows = measured = 1
    for _ in range(parties - 1):
        built = measured * pairs * len(SIGNS)
        rows += built
        measured = built + (measured if "id" in menu else 0)
    built = 1
    for _ in range(parties - 1):
        built *= len(key_basis().projectors)
        rows += built
    return rows


def test_attack_free_rows_follow_from_the_menus():
    assert [attack_free_rows(n) for n in (2, 3)] == [13, 69]


@pytest.mark.parametrize("parties", [2, 3])
def test_shared_trees_stay_within_the_menu_bound(parties, warm_reports):
    tree = protocol._attack_free_tree(parties)
    assert 1 < tree.size <= attack_free_rows(parties)
    # only the protocol's cached projector sets measure it: one level per
    # party of each phase, its menu of sign sets or its key set
    sign_sets = protocol._sign_projector_sets(parties)
    menu = TWO_PARTY_MENU if parties == 2 else THREE_PARTY_MENU
    levels = {tuple(sign_sets[pos, name] for name in menu) for pos in range(parties)}
    levels |= {(s,) for s in protocol._key_projector_sets(parties)}
    assert set(tree._levels) <= levels


def tree_tables(tree):
    """A tree's size, room, and every level's tables as bytes."""
    levels = {
        sets: tuple(table.tobytes() for table in (level.probs, level.cdf, level.kids))
        for sets, level in tree._levels.items()
    }
    return tree.size, len(tree.amplitudes), levels


def test_attacked_and_corrupt_sessions_leave_the_shared_trees_alone():
    trees = [protocol._attack_free_tree(n) for n in (2, 3)]
    for parties in (2, 3):
        # grown first, so that a change would show
        run_session(SessionConfig(protocol=PROTOCOLS[parties], seed=9))
    before = [tree_tables(t) for t in trees]
    for parties in (2, 3):
        # seeds the other tests' sessions did not use, so that a shared
        # tree would meet new states
        run_other_sessions(parties, 100)
    after = [tree_tables(t) for t in trees]
    assert after == before
    assert trees == [protocol._attack_free_tree(n) for n in (2, 3)]


def test_saturated_shared_trees_make_no_product(monkeypatch):
    # warmed by long sessions until every (node, set) pair and child a
    # session can reach is in the tables
    for name in PROTOCOLS.values():
        for seed in (50, 51):
            run_session(SessionConfig(name, 3000, 3000, seed=seed))
    trees = [protocol._attack_free_tree(n) for n in PROTOCOLS]
    before = [tree_tables(t) for t in trees]

    def no_product(*args):
        raise AssertionError("a product on a saturated shared tree")

    monkeypatch.setattr(linalg, "apply_stacked", no_product)
    monkeypatch.setattr(linalg, "apply_at", no_product)
    for name in PROTOCOLS.values():
        for seed in range(60, 64):
            run_session(SessionConfig(name, 500, 500, seed=seed))
    run_session(SessionConfig("three-party", 500, 500, alice_permits=False, seed=64))
    assert [tree_tables(t) for t in trees] == before
