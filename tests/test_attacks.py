import functools
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from registers import embed

from ququart_qkd import attacks
from ququart_qkd.attacks import (
    AttackModel,
    attack_channel,
    make_attack_hook,
    predict,
)
from ququart_qkd.channels import (
    ChannelSpec,
    corrupt_channel,
    make_channel,
    three_party_channel,
    two_party_channel,
)
from ququart_qkd.linalg import DIM, measure_projective, state_from_amplitudes
from ququart_qkd.observables import key_basis, key_bit_errors
from ququart_qkd.protocol import (
    MessageBus,
    run_key_phase_controlled,
    run_key_phase_two_party,
    run_verification_phase,
)
from test_branch_tree import key_leaf_weights

IRC = "intercept-computational"
IRK = "intercept-key"
EP = "entangle-probe"
DEP = "depolarize"


def streams(seed):
    names = ("alice", "bob", "charlie", "attack", "public")
    seqs = np.random.SeedSequence(seed).spawn(len(names))
    return {n: np.random.default_rng(s) for n, s in zip(names, seqs)}


def density(spec):
    psi = spec.state.amplitudes
    return np.outer(psi, psi.conj())


# ---------------------------------------------------------------------------
# reference oracle: Kraus sums over embedded full-register operators, the
# explicit probe register, and the key joint distribution term by term.
# Derived independently of the library's one-ququart tensor contractions.


def ketbra(i, j):
    m = np.zeros((DIM, DIM), dtype=complex)
    m[i, j] = 1.0
    return m


def controlled_shift():
    """|j>|k> -> |j>|k + j mod 4> on a (target, probe) ququart pair."""
    m = np.zeros((DIM * DIM, DIM * DIM), dtype=complex)
    for j in range(DIM):
        for k in range(DIM):
            m[DIM * j + (k + j) % DIM, DIM * j + k] = 1.0
    return m


def digits(index, n):
    return [(index // DIM ** (n - 1 - p)) % DIM for p in range(n)]


def pair_coupling(pair_unitary, first, n):
    """Embed a two-ququart unitary acting on positions (first, last)."""
    dim = DIM**n
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        ds = digits(col, n)
        pair_in = DIM * ds[first] + ds[-1]
        for pair_out in range(DIM * DIM):
            amp = pair_unitary[pair_out, pair_in]
            if amp == 0:
                continue
            out_digits = list(ds)
            out_digits[first], out_digits[-1] = divmod(pair_out, DIM)
            out[int(np.ravel_multi_index(out_digits, (DIM,) * n)), col] += amp
    return out


def probe_channel(rho, target, parties):
    """Couple a fresh probe to the target, then trace the probe out."""
    big = np.kron(rho, ketbra(0, 0))
    u = pair_coupling(controlled_shift(), target, parties + 1)
    big = u @ big @ u.conj().T
    d = DIM**parties
    return np.einsum("ikjk->ij", big.reshape(d, DIM, d, DIM))


def dephase(rho, projs):
    return sum(p @ rho @ p for p in projs)


def reference_channel(model, rho, parties):
    for t in model.targets:
        if model.kind == IRC:
            rho = dephase(rho, [embed(ketbra(k, k), t, parties) for k in range(DIM)])
        elif model.kind == IRK:
            rho = dephase(rho, [embed(p, t, parties) for p in key_basis().projectors])
        elif model.kind == EP:
            rho = probe_channel(rho, t, parties)
        else:
            krauses = [embed(ketbra(j, k), t, parties) / 2.0 for j in range(DIM) for k in range(DIM)]
            mixed = sum(kraus @ rho @ kraus.conj().T for kraus in krauses)
            rho = (1.0 - model.strength) * rho + model.strength * mixed
    return rho


def reference_predict(model, spec):
    """(violation per check, qber) from the reference channel."""
    parties = spec.party_count
    rho = reference_channel(model, density(spec), parties)
    eye = np.eye(rho.shape[0])
    violation = {}
    for check in spec.checks:
        p = float(np.real(np.trace(rho @ (eye - check.expected * check.joint_matrix()) / 2.0)))
        violation[check.name] = min(max(p, 0.0), 1.0)
    kb = key_basis()
    err = 0.0
    for idx in itertools.product(range(DIM), repeat=parties):
        proj = np.eye(1, dtype=complex)
        for outcome in idx:
            proj = np.kron(proj, kb.projectors[outcome])
        weight = float(np.real(np.trace(rho @ proj)))
        parity = [o // 2 for o in idx]
        phase = [o % 2 for o in idx]
        if parties == 2:
            # the receiver flips both bits before comparing
            wrong = (parity[0] == parity[1]) + (phase[0] == phase[1])
        else:
            wrong = (parity[0] ^ parity[1] != parity[2]) + (phase[0] ^ phase[1] != phase[2])
        err += weight * wrong / 2.0
    return violation, min(max(err, 0.0), 1.0)


def test_model_validation():
    with pytest.raises(ValueError):
        AttackModel("none", targets=(1,))
    with pytest.raises(ValueError):
        AttackModel(IRC, targets=())
    with pytest.raises(ValueError):
        AttackModel(IRC, targets=(0,))
    with pytest.raises(ValueError):
        AttackModel(IRC, targets=(2, 1))
    with pytest.raises(ValueError):
        AttackModel(DEP, targets=(1,), strength=1.5)
    with pytest.raises(ValueError):
        AttackModel("jam", targets=(1,))
    AttackModel(IRC, targets=(1, 2))  # fine


def test_model_validation_survives_optimized_mode():
    script = (
        "from ququart_qkd.attacks import AttackModel\n"
        "for kwargs in ({'kind': 'bogus', 'targets': (1,)},\n"
        "               {'kind': 'depolarize', 'targets': (1,), 'strength': 2.0}):\n"
        "    try:\n"
        "        AttackModel(**kwargs)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'accepted {kwargs}')\n"
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


def test_target_outside_channel_rejected():
    with pytest.raises(ValueError):
        predict(AttackModel(IRC, targets=(2,)), two_party_channel())
    with pytest.raises(ValueError):
        make_attack_hook(AttackModel(IRC, targets=(2,)), 2)


def test_none_hook_is_identity():
    spec = two_party_channel()
    hook = make_attack_hook(AttackModel(), 2)
    assert hook(spec.state, np.random.default_rng(0)) is spec.state


ALL_MODELS = [
    AttackModel(IRC, targets=(1,)),
    AttackModel(IRK, targets=(1,)),
    AttackModel(EP, targets=(1,)),
    AttackModel(DEP, targets=(1,), strength=0.5),
]


@pytest.mark.parametrize("parties", [2, 3])
@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
def test_trajectories_stay_normalized(parties, model):
    spec = make_channel(parties)
    hook = make_attack_hook(model, parties)
    rng = np.random.default_rng(31)
    for _ in range(40):
        out = hook(spec.state, rng)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_multi_target_trajectories_stay_normalized():
    spec = three_party_channel()
    rng = np.random.default_rng(8)
    for kind in (IRC, IRK, EP):
        hook = make_attack_hook(AttackModel(kind, targets=(1, 2)), 3)
        for _ in range(20):
            out = hook(spec.state, rng)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_computational_intercept_collapses_to_basis_state():
    spec = two_party_channel()
    rng = np.random.default_rng(4)
    hook = make_attack_hook(AttackModel(IRC, targets=(1,)), 2)
    counts = {}
    for _ in range(2000):
        out = hook(spec.state, rng)
        support = np.flatnonzero(np.abs(out.amplitudes) > 1e-12)
        assert len(support) == 1  # both sides collapse: the state is a product ket
        counts[int(support[0])] = counts.get(int(support[0]), 0) + 1
    assert set(counts) == {1, 4, 11, 14}
    sigma = np.sqrt(0.25 * 0.75 / 2000)
    for c in counts.values():
        assert abs(c / 2000 - 0.25) <= 4 * sigma


def test_entangle_probe_trajectory_reads_out_computational_value():
    # the probe coupling copies the target's computational digit, so the
    # trajectory collapse is identical in kind to a computational intercept
    spec = two_party_channel()
    rng = np.random.default_rng(5)
    hook = make_attack_hook(AttackModel(EP, targets=(1,)), 2)
    for _ in range(200):
        out = hook(spec.state, rng)
        assert out.num_ququarts == 2
        support = np.flatnonzero(np.abs(out.amplitudes) > 1e-12)
        assert len(support) == 1
        assert int(support[0]) in (1, 4, 11, 14)


def test_key_intercept_pins_target_key_outcome():
    # after the eavesdropper's key-basis readout, the target's own
    # key measurement is deterministic: the intercept learns the value
    spec = two_party_channel()
    kb = key_basis()
    bob_projs = [embed(p, 1, 2) for p in kb.projectors]
    rng = np.random.default_rng(6)
    hook = make_attack_hook(AttackModel(IRK, targets=(1,)), 2)
    for _ in range(200):
        out = hook(spec.state, rng)
        result = measure_projective(out, bob_projs, rng)
        assert result.probability == pytest.approx(1.0, abs=1e-12)


def test_depolarize_strength_zero_is_identity():
    spec = two_party_channel()
    rho = density(spec)
    model = AttackModel(DEP, targets=(1,), strength=0.0)
    np.testing.assert_allclose(attack_channel(model, rho, 2), rho, atol=1e-15)
    out = make_attack_hook(model, 2)(spec.state, np.random.default_rng(0))
    np.testing.assert_allclose(out.amplitudes, spec.state.amplitudes, atol=1e-15)


def test_attack_channels_preserve_trace_and_hermiticity():
    for parties in (2, 3):
        rho = density(make_channel(parties))
        for model in ALL_MODELS:
            out = attack_channel(model, rho, parties)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(out, out.conj().T, atol=1e-12)


@st.composite
def attack_models(draw, parties):
    """A random attack kind on a random sorted set of a ``parties``
    channel's transit positions, at a random strength."""
    kind = draw(st.sampled_from(attacks.ATTACK_KINDS))
    if kind == "none":
        return AttackModel()
    targets = draw(st.sets(st.integers(1, parties - 1), min_size=1))
    return AttackModel(kind, tuple(sorted(targets)), draw(st.floats(0.0, 1.0)))


@settings(deadline=None, max_examples=100)
@given(attack_models(2), attack_models(3))
def test_attacked_states_and_predictions_stay_physical(two, three):
    for parties, model in ((2, two), (3, three)):
        spec = make_channel(parties)
        out = attack_channel(model, density(spec), parties)
        assert abs(np.trace(out) - 1.0) <= 1e-12
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(out).min() >= -1e-12
        pred = predict(model, spec)
        for p in [*pred.violation.values(), pred.qber]:
            assert 0.0 <= p <= 1.0


@functools.cache
def embedded_key_projectors(parties):
    """Each party's four key-basis projectors lifted to the full register."""
    return [[embed(p, pos, parties) for p in key_basis().projectors] for pos in range(parties)]


def key_basis_law(model, spec):
    """{key outcome indices: tr(rho' P_k)}, with rho' the attacked channel
    state and P_k the product of the parties' embedded key projectors."""
    parties = spec.party_count
    rho = attack_channel(model, density(spec), parties)
    law = {}
    for outcomes in itertools.product(range(DIM), repeat=parties):
        projector = functools.reduce(
            np.matmul, (embedded_key_projectors(parties)[pos][k] for pos, k in enumerate(outcomes))
        )
        law[outcomes] = float(np.trace(rho @ projector).real)
    return law


@settings(deadline=None, max_examples=40)
@given(attack_models(2), attack_models(3))
def test_key_tree_leaves_sum_to_the_key_basis_law(two, three):
    # the branch tree's leaves against the density-matrix channel: two
    # independent computations of the key phase's joint outcome law
    for parties, model in ((2, two), (3, three)):
        spec = make_channel(parties)
        law = dict.fromkeys(itertools.product(range(DIM), repeat=parties), 0.0)
        for weight, outcomes in key_leaf_weights(spec, model):
            law[outcomes] += weight
        want = key_basis_law(model, spec)
        assert max(abs(law[k] - want[k]) for k in want) <= 1e-12, model


def test_dephasing_channels_are_idempotent():
    rho = density(two_party_channel())
    for kind in (IRC, IRK):
        model = AttackModel(kind, targets=(1,))
        once = attack_channel(model, rho, 2)
        twice = attack_channel(model, once, 2)
        np.testing.assert_allclose(twice, once, atol=1e-13)


def test_probe_channel_equals_computational_dephasing():
    # the explicit probe register, traced out, against the library channel
    for parties, target in ((2, 1), (3, 1), (3, 2)):
        rho = density(make_channel(parties))
        probed = probe_channel(rho, target, parties)
        for kind in (EP, IRC):
            dephased = attack_channel(AttackModel(kind, targets=(target,)), rho, parties)
            np.testing.assert_allclose(probed, dephased, atol=1e-12)


ORACLE_GRID = [(parties, AttackModel()) for parties in (2, 3)] + [
    (parties, AttackModel(kind, targets=targets, strength=strength))
    for parties, target_sets in ((2, [(1,)]), (3, [(1,), (2,), (1, 2)]))
    for kind in (IRC, IRK, EP, DEP)
    for targets in target_sets
    for strength in (0.0, 0.25, 0.5, 0.75, 1.0)
]


@pytest.mark.parametrize(
    "parties,model",
    ORACLE_GRID,
    ids=[f"{p}-{m.kind}{m.targets}s{m.strength}" for p, m in ORACLE_GRID],
)
def test_predict_matches_reference_oracle(parties, model):
    # exact zeros matter: reports key z-scores and forbidden checks on 0.0
    spec = make_channel(parties)
    pred = predict(model, spec)
    violation, qber = reference_predict(model, spec)
    for name, want in violation.items():
        assert abs(pred.violation[name] - want) <= 1e-12
        if want == 0.0:
            assert pred.violation[name] == 0.0
    assert abs(pred.qber - qber) <= 1e-12
    if qber == 0.0:
        assert pred.qber == 0.0


def per_index_qber(model, spec):
    """predict's qber as the per-index loop over np.ndindex, term by term."""
    n = spec.party_count
    psi = spec.state.amplitudes
    rho = attack_channel(model, np.outer(psi, psi.conj()), n)
    u = functools.reduce(np.kron, [np.column_stack(key_basis().vectors)] * n)
    joint = np.sum(u.conj() * (rho @ u), axis=0).real.reshape((DIM,) * n)
    qber = sum(joint[idx] * key_bit_errors(idx) for idx in np.ndindex(joint.shape)) / 2.0
    return 0.0 if qber < 1e-12 else min(float(qber), 1.0)


DEPOLARIZE_GRID = [
    (parties, AttackModel(DEP, targets=targets, strength=i / 100))
    for parties, target_sets in ((2, [(1,)]), (3, [(1,), (2,), (1, 2)]))
    for targets in target_sets
    for i in range(101)
]


def test_qber_keeps_the_bits_of_the_per_index_loop():
    for parties, model in ORACLE_GRID + DEPOLARIZE_GRID:
        spec = make_channel(parties)
        assert predict(model, spec).qber == per_index_qber(model, spec), (parties, model)


@pytest.mark.parametrize("parties", [2, 3])
def test_oracle_constants_are_built_once_and_read_only(parties):
    rotation = attacks._key_rotations(parties)
    weights = attacks._bit_error_weights(parties)
    assert attacks._key_rotations(parties) is rotation
    assert rotation.shape == (DIM**parties, DIM**parties)
    assert weights.shape == (DIM,) * parties
    for idx in np.ndindex(weights.shape):
        assert weights[idx] == key_bit_errors(idx)
    checks = make_channel(parties).checks
    transposed = attacks._transposed_checks(checks)
    assert attacks._transposed_checks(checks) is transposed
    assert rotation.dtype == transposed.dtype == np.float64
    for check, matrix in zip(checks, transposed):
        assert np.array_equal(matrix, check.joint_matrix().T)
    for array in (rotation, weights, transposed):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 2.0


def with_amplitudes(spec, amplitudes):
    return ChannelSpec(spec.party_count, state_from_amplitudes(amplitudes, spec.party_count), spec.checks)


def oracle_dtypes(monkeypatch):
    """Patch attack_channel to record the dtype of each rho it is given."""
    seen = []
    real = attacks.attack_channel

    def recorded(model, rho, num_parties):
        seen.append(rho.dtype)
        return real(model, rho, num_parties)

    monkeypatch.setattr(attacks, "attack_channel", recorded)
    return seen


@pytest.mark.parametrize("parties", [2, 3])
@pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "corrupt"])
def test_a_global_phase_takes_the_complex_path_and_predicts_the_same(parties, corrupt, monkeypatch):
    spec = make_channel(parties)
    if corrupt:
        spec = corrupt_channel(spec)
    seen = oracle_dtypes(monkeypatch)
    for theta in (0.3, np.pi / 2, 2.0):
        phased = with_amplitudes(spec, np.exp(1j * theta) * spec.state.amplitudes)
        for model in (m for p, m in ORACLE_GRID if p == parties):
            seen.clear()
            want = predict(model, spec)
            got = predict(model, phased)
            assert seen == [np.float64, np.complex128]
            for name, value in want.violation.items():
                assert abs(got.violation[name] - value) <= 1e-14, (theta, model, name)
            assert abs(got.qber - want.qber) <= 1e-14, (theta, model)


def test_the_real_path_needs_an_exactly_zero_imaginary_part(monkeypatch):
    seen = oracle_dtypes(monkeypatch)
    for parties in (2, 3):
        spec = make_channel(parties)
        amplitudes = np.array(spec.state.amplitudes)
        amplitudes[amplitudes.nonzero()[0][0]] += 1e-300j
        predict(AttackModel(), spec)
        predict(AttackModel(), with_amplitudes(spec, amplitudes))
        # a real state handed over as complex with zero imaginary parts is real
        predict(AttackModel(), with_amplitudes(spec, spec.state.amplitudes.astype(complex)))
    assert seen == [np.float64, np.complex128, np.float64] * 2


def test_predict_without_attack_is_silent():
    for parties in (2, 3):
        pred = predict(AttackModel(), make_channel(parties))
        assert all(v == 0.0 for v in pred.violation.values())
        assert pred.qber == 0.0


TWO_PARTY_ORACLE = {
    (IRC, (1,), 0.0): ([0.5, 0.5, 0.0, 0.0], 0.25),
    (IRK, (1,), 0.0): ([0.0, 0.5, 0.5, 0.5], 0.0),
    (EP, (1,), 0.0): ([0.5, 0.5, 0.0, 0.0], 0.25),
    (DEP, (1,), 0.5): ([0.25, 0.25, 0.25, 0.25], 0.25),
    (DEP, (1,), 1.0): ([0.5, 0.5, 0.5, 0.5], 0.5),
}

THREE_PARTY_ORACLE = {
    (IRC, (1,), 0.0): ([0.5, 0.0, 0.5, 0.5], 0.25),
    (IRC, (2,), 0.0): ([0.5, 0.0, 0.0, 0.5], 0.25),
    (IRK, (1,), 0.0): ([0.0, 0.25, 0.5, 0.5], 0.0),
    (IRK, (2,), 0.0): ([0.0, 0.25, 0.0, 0.5], 0.0),
    (DEP, (1,), 1.0): ([0.5, 0.375, 0.5, 0.5], 0.5),
}


@pytest.mark.parametrize("key", sorted(TWO_PARTY_ORACLE), ids=lambda k: f"{k[0]}@{k[1]}s{k[2]}")
def test_two_party_oracle_closed_forms(key):
    kind, targets, strength = key
    spec = two_party_channel()
    pred = predict(AttackModel(kind, targets=targets, strength=strength), spec)
    expected_viol, expected_qber = TWO_PARTY_ORACLE[key]
    for check, want in zip(spec.checks, expected_viol):
        assert pred.violation[check.name] == pytest.approx(want, abs=1e-12)
    assert pred.qber == pytest.approx(expected_qber, abs=1e-12)


@pytest.mark.parametrize("key", sorted(THREE_PARTY_ORACLE), ids=lambda k: f"{k[0]}@{k[1]}s{k[2]}")
def test_three_party_oracle_closed_forms(key):
    kind, targets, strength = key
    spec = three_party_channel()
    pred = predict(AttackModel(kind, targets=targets, strength=strength), spec)
    expected_viol, expected_qber = THREE_PARTY_ORACLE[key]
    for check, want in zip(spec.checks, expected_viol):
        assert pred.violation[check.name] == pytest.approx(want, abs=1e-12)
    assert pred.qber == pytest.approx(expected_qber, abs=1e-12)


def test_depolarize_statistics_scale_linearly():
    spec = two_party_channel()
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    previous = -1.0
    for p in grid:
        pred = predict(AttackModel(DEP, targets=(1,), strength=p), spec)
        for value in pred.violation.values():
            assert value == pytest.approx(p / 2.0, abs=1e-12)
        assert pred.qber == pytest.approx(p / 2.0, abs=1e-12)
        assert pred.qber >= previous
        previous = pred.qber


MC_MATRIX = [
    (2, AttackModel(IRC, targets=(1,))),
    (2, AttackModel(IRK, targets=(1,))),
    (2, AttackModel(EP, targets=(1,))),
    (2, AttackModel(DEP, targets=(1,), strength=0.5)),
    (3, AttackModel(IRC, targets=(2,))),
    (3, AttackModel(IRK, targets=(1,))),
    (3, AttackModel(EP, targets=(1,))),
    (3, AttackModel(DEP, targets=(1,), strength=0.5)),
    (3, AttackModel(IRC, targets=(1, 2))),
]


@pytest.mark.parametrize(
    "parties,model", MC_MATRIX, ids=lambda v: v.kind + str(v.targets) if isinstance(v, AttackModel) else str(v)
)
def test_monte_carlo_matches_oracle(parties, model):
    # every built-in model against every channel: empirical violation
    # frequencies and qber must sit within 4 binomial sigma of predict()
    n = 20000
    spec = make_channel(parties)
    pred = predict(model, spec)
    rngs = streams(1000 + parties)
    bus = MessageBus()

    summary = run_verification_phase(spec, n, model, rngs, bus)
    for check in spec.checks:
        tally = summary.tallies[check.name]
        p = pred.violation[check.name]
        assert tally.rounds > 0
        if p in (0.0, 1.0):
            assert tally.frequency == p
        else:
            sigma = np.sqrt(p * (1.0 - p) / tally.rounds)
            assert abs(tally.frequency - p) <= 4 * sigma

    if parties == 2:
        phase = run_key_phase_two_party(spec, n, 0.5, 1.0, model, rngs, bus)
    else:
        phase = run_key_phase_controlled(spec, n, 0.5, 1.0, True, model, rngs, bus)
    bits = 2 * phase.sampled
    if pred.qber in (0.0, 1.0):
        assert phase.qber == pred.qber
    else:
        sigma = np.sqrt(pred.qber * (1.0 - pred.qber) / bits)
        assert abs(phase.qber - pred.qber) <= 4 * sigma
