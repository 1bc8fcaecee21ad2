"""Acceptance gate: eight end-to-end criteria with explicit budgets.

Each test prints one ``acceptance criterion N (...): PASS|FAIL`` line
(run with ``pytest -s`` to watch them live; captured output of a failed
test shows its FAIL line).
"""

import time

import numpy as np
import pytest
from registers import embed

from ququart_qkd.attacks import AttackModel, predict
from ququart_qkd.channels import (
    check_residuals,
    constraint_matrices,
    corrupt_channel,
    make_channel,
    stabilized_subspace,
    three_party_channel,
    two_party_channel,
)
from ququart_qkd.linalg import ProjectorSet, Tree
from ququart_qkd.observables import key_basis
from ququart_qkd.protocol import (
    MessageBus,
    run_key_phase_controlled,
    run_key_phase_two_party,
    run_verification_phase,
)
from ququart_qkd.session import (
    OUTCOME_ABORT_VERIFY,
    OUTCOME_ESTABLISHED,
    OUTCOME_NO_PERMISSION,
    SessionConfig,
    emit_report,
    format_report,
    run_session,
)

IRC_BOB = AttackModel("intercept-computational", targets=(1,))


class _Criterion:
    """Times a criterion and prints its single verdict line."""

    def __init__(self, number, summary):
        self.number = number
        self.summary = summary

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    @property
    def elapsed(self):
        return time.perf_counter() - self.start

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"acceptance criterion {self.number} ({self.summary}): {verdict}")
        return False


def streams(seed):
    names = ("alice", "bob", "charlie", "attack", "public")
    seqs = np.random.SeedSequence(seed).spawn(len(names))
    return {n: np.random.default_rng(s) for n, s in zip(names, seqs)}


def test_criterion_1_eigen_equations():
    with _Criterion(1, "channel eigen-equations") as crit:
        for parties in (2, 3):
            spec = make_channel(parties)
            residuals = check_residuals(spec)
            assert len(residuals) == 4
            for value in residuals.values():
                assert value < 1e-12
        assert crit.elapsed < 1.0


def test_criterion_2_uniqueness_certificates():
    with _Criterion(2, "stabilized-subspace uniqueness") as crit:
        for parties in (2, 3):
            spec = make_channel(parties)
            dim = spec.state.dim
            constraints = constraint_matrices(spec)
            certificate = stabilized_subspace(constraints, dim)
            assert certificate.dimension == 1
            overlap = abs(
                np.vdot(spec.state.amplitudes, certificate.basis[0].amplitudes)
            )
            assert abs(overlap - 1.0) < 1e-10
            for skip in range(len(constraints)):
                subset = [c for i, c in enumerate(constraints) if i != skip]
                weakened = stabilized_subspace(subset, dim)
                assert weakened.dimension > 1
        assert crit.elapsed < 5.0


def test_criterion_3_attack_free_two_party_session():
    with _Criterion(3, "attack-free two-party session") as crit:
        config = SessionConfig(
            protocol="two-party",
            verification_rounds=10000,
            key_rounds=10000,
            seed=101,
        )
        report = run_session(config)
        assert report.outcome == OUTCOME_ESTABLISHED
        assert report.verify["violations"] == 0
        assert report.key["qber"] == 0.0
        assert report.key["keys_equal"] is True
        assert report.key["mismatch_count"] == 0

        # round-level view of the same law: every sampled pair carries
        # opposite parity and opposite phase bits
        phase = run_key_phase_two_party(
            two_party_channel(), 10000, 0.1, 0.0, AttackModel(), streams(101), MessageBus()
        )
        a, b = (column[phase.consumed] for column in phase.outcomes)
        assert len(a) == 1000
        assert (a >> 1 != b >> 1).all() and (a & 1 != b & 1).all()
        assert phase.qber == 0.0
        assert phase.alice_key == phase.bob_key
        assert crit.elapsed < 30.0


def test_criterion_4_attack_free_controlled_session():
    with _Criterion(4, "attack-free controlled session") as crit:
        config = SessionConfig(
            protocol="three-party",
            verification_rounds=10000,
            key_rounds=10000,
            seed=202,
        )
        report = run_session(config)
        assert report.outcome == OUTCOME_ESTABLISHED
        assert report.verify["violations"] == 0  # every matched product was +1
        assert report.key["deduction_accuracy"] == 1.0
        assert report.key["keys_equal"] is True

        withheld = run_key_phase_controlled(
            three_party_channel(),
            10000,
            0.1,
            0.0,
            False,
            AttackModel(),
            streams(202),
            MessageBus(),
        )
        sigma = np.sqrt(0.25 * 0.75 / 10000)
        assert abs(withheld.deduction_accuracy - 0.25) <= 4 * sigma
        assert len(withheld.bob_key) == 0
        assert crit.elapsed < 30.0


def test_criterion_5_oracle_agreement_under_interception():
    with _Criterion(5, "oracle agreement under interception") as crit:
        spec = two_party_channel()
        oracle = predict(IRC_BOB, spec)
        # the oracle itself must reproduce the closed forms before its
        # values are used as Monte-Carlo targets
        targets = {"sx_sx": 0.5, "ux_ux": 0.5, "sz_sz": 0.0, "uz_uz": 0.0}
        for name, want in targets.items():
            assert oracle.violation[name] == pytest.approx(want, abs=1e-12)

        summary = run_verification_phase(spec, 20000, IRC_BOB, streams(303), MessageBus())
        for name, p in targets.items():
            tally = summary.tallies[name]
            assert tally.rounds > 0
            if p == 0.0:
                assert tally.violations == 0
            else:
                sigma = np.sqrt(p * (1.0 - p) / tally.rounds)
                assert abs(tally.frequency - p) <= 4 * sigma
        assert crit.elapsed < 60.0


def test_criterion_6_key_marginal_statistics():
    with _Criterion(6, "uniform key-basis marginal"):
        spec = two_party_channel()
        projs = ProjectorSet([embed(p, 0, 2) for p in key_basis().projectors])
        rng = np.random.default_rng(404)
        n = 100000
        # one tree level of n rounds on one bulk column of n uniforms
        outcomes = Tree(spec.state).draw(np.zeros(n, dtype=np.intp), [projs], rng.random(n))
        counts = np.bincount(outcomes, minlength=4)
        sigma = np.sqrt(0.25 * 0.75 / n)
        for count in counts:
            assert abs(count / n - 0.25) <= 4 * sigma


def test_criterion_7_deterministic_reports(tmp_path):
    with _Criterion(7, "byte-identical reports"):
        config = SessionConfig(
            protocol="two-party", verification_rounds=1000, key_rounds=1000, seed=505
        )
        first = run_session(config)
        second = run_session(config)
        assert format_report(first) == format_report(second)
        path_a, path_b = tmp_path / "a.report", tmp_path / "b.report"
        emit_report(format_report(first), str(path_a))
        emit_report(format_report(second), str(path_b))
        assert path_a.read_bytes() == path_b.read_bytes()


def test_criterion_8_corrupted_channel_negative_control():
    with _Criterion(8, "corrupted-channel negative control"):
        for parties in (2, 3):
            bad = corrupt_channel(make_channel(parties))
            assert max(check_residuals(bad).values()) > 0.1
        report = run_session(
            SessionConfig(
                protocol="two-party",
                verification_rounds=2000,
                key_rounds=100,
                seed=606,
                corrupt=True,
            )
        )
        assert report.outcome == OUTCOME_ABORT_VERIFY
        assert report.verify["violations"] > 0
