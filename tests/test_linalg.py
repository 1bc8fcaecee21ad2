import numpy as np
import pytest
from inverse_cdf import draw_index
from registers import embed, ket, tensor

from ququart_qkd.linalg import (
    COMPLETENESS_TOL,
    DIM,
    MeasurementResult,
    ProjectorSet,
    StateVector,
    Tree,
    apply_stacked,
    measure_projective,
)
from ququart_qkd.observables import check_observable, key_basis
from ququart_qkd.channels import three_party_channel, two_party_channel
from ququart_qkd.protocol import THREE_PARTY_MENU, TWO_PARTY_MENU

SX = check_observable("sx").matrix
SZ = check_observable("sz").matrix


def test_ket_places_unit_amplitude():
    psi = ket(1, 1)
    assert psi.amplitudes[1] == 1.0
    assert np.count_nonzero(psi.amplitudes) == 1


def test_state_vector_rejects_wrong_length():
    with pytest.raises(ValueError):
        StateVector(2, np.zeros(4, dtype=complex))


def test_state_vector_rejects_unnormalized():
    amps = np.zeros(4, dtype=complex)
    amps[0] = 2.0
    with pytest.raises(ValueError):
        StateVector(1, amps)


def test_amplitudes_are_read_only():
    psi = ket(0, 1)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


def test_tensor_basis_index_convention():
    # |0> x |1> = |01>, amplitude 1 at index 1
    joint = tensor(ket(0, 1), ket(1, 1))
    assert joint.num_ququarts == 2
    assert joint.amplitudes[1] == 1.0


def test_tensor_identity_operators():
    eye4 = np.eye(DIM, dtype=complex)
    np.testing.assert_array_equal(tensor(eye4, eye4), np.eye(16))


def test_tensor_sx_sx_maps_01_to_32():
    # sx|0> = |3>, sx|1> = |2>, so (sx x sx)|01> = |32> at index 14
    out = tensor(SX, SX) @ ket(1, 2).amplitudes
    expected = np.zeros(16, dtype=complex)
    expected[14] = 1.0
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_tensor_rejects_kind_mismatch():
    with pytest.raises(TypeError):
        tensor(ket(0, 1), np.eye(DIM, dtype=complex))


def test_tensor_is_associative():
    rng = np.random.default_rng(5)
    states = []
    for _ in range(3):
        amps = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
        states.append(StateVector(1, amps / np.linalg.norm(amps)))
    a, b, c = states
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    np.testing.assert_allclose(left.amplitudes, right.amplitudes, atol=1e-15)


def test_apply_identity_and_dimension_check():
    identity = np.eye(DIM, dtype=complex)[None]
    rows = ket(2, 1).amplitudes[None]
    np.testing.assert_array_equal(apply_stacked(identity, 0, rows), rows[:, None])
    pairs = np.stack([ket(6, 2).amplitudes, ket(9, 2).amplitudes])
    for position in (0, 1):
        np.testing.assert_array_equal(apply_stacked(identity, position, pairs), pairs[:, None])
    with pytest.raises(ValueError):
        apply_stacked(np.eye(16, dtype=complex)[None], 0, rows)
    with pytest.raises(ValueError):
        apply_stacked(identity, 1, rows)


def test_embed_positions():
    np.testing.assert_array_equal(embed(SZ, 0, 1), SZ)
    np.testing.assert_array_equal(embed(SX, 1, 2), np.kron(np.eye(DIM), SX))
    np.testing.assert_array_equal(embed(SX, 0, 2), np.kron(SX, np.eye(DIM)))
    with pytest.raises(ValueError):
        embed(SX, 2, 2)
    with pytest.raises(ValueError):
        embed(np.eye(2), 0, 2)


def test_measure_definite_state():
    projs = [np.outer(e, e.conj()) for e in np.eye(DIM, dtype=complex)]
    result = measure_projective(ket(0, 1), projs, np.random.default_rng(0))
    assert result.outcome_index == 0
    assert result.probability == pytest.approx(1.0)
    np.testing.assert_allclose(result.post_state.amplitudes, ket(0, 1).amplitudes)


def test_measure_rejects_incomplete_projector_set():
    projs = [np.outer(e, e.conj()) for e in np.eye(DIM, dtype=complex)[:3]]
    with pytest.raises(ValueError):
        measure_projective(ket(0, 1), projs, np.random.default_rng(0))


def test_measure_is_deterministic_under_a_seed():
    spec = two_party_channel()
    kb = key_basis()
    projs = [embed(p, 0, 2) for p in kb.projectors]

    def draws(seed):
        rng = np.random.default_rng(seed)
        return [
            measure_projective(spec.state, projs, rng).outcome_index for _ in range(50)
        ]

    assert draws(123) == draws(123)
    assert draws(123) != draws(124)


def test_measure_probability_matches_projected_norm():
    spec = two_party_channel()
    kb = key_basis()
    projs = [embed(p, 0, 2) for p in kb.projectors]
    result = measure_projective(spec.state, projs, np.random.default_rng(9))
    branch = projs[result.outcome_index] @ spec.state.amplitudes
    assert result.probability == pytest.approx(float(np.vdot(branch, branch).real), abs=1e-12)
    assert abs(np.linalg.norm(result.post_state.amplitudes) - 1.0) < 1e-12


def test_projector_branches_are_orthogonal():
    kb = key_basis()
    psi = StateVector(1, np.ones(DIM, dtype=complex) / 2.0)
    crossed = kb.projectors[1] @ (kb.projectors[0] @ psi.amplitudes)
    assert np.linalg.norm(crossed) < 1e-10


def test_conditional_collapse_pins_partner_outcome():
    # after one side sees psi-, the other side's state is exactly phi+
    spec = two_party_channel()
    kb = key_basis()
    alice_projs = [embed(p, 0, 2) for p in kb.projectors]
    bob_projs = [embed(p, 1, 2) for p in kb.projectors]
    rng = np.random.default_rng(77)
    seen = 0
    for _ in range(200):
        first = measure_projective(spec.state, alice_projs, rng)
        if first.outcome_index != 3:  # psi-
            continue
        seen += 1
        second = measure_projective(first.post_state, bob_projs, rng)
        assert second.outcome_index == 0  # phi+
        assert second.probability == pytest.approx(1.0, abs=1e-12)
    assert seen > 10


def test_key_marginal_frequencies_match_binomial_model():
    spec = two_party_channel()
    projs = ProjectorSet([embed(p, 0, 2) for p in key_basis().projectors])
    rng = np.random.default_rng(2024)
    n = 20000
    # one tree level of n rounds on one bulk column of n uniforms
    outcomes = Tree(spec.state).draw(np.zeros(n, dtype=np.intp), [projs], rng.random(n))
    counts = np.bincount(outcomes, minlength=4)
    sigma = np.sqrt(0.25 * 0.75 / n)
    for c in counts:
        assert abs(c / n - 0.25) <= 4 * sigma


# ---------------------------------------------------------------------------
# ProjectorSet against the per-call dense measurement it replaced


def reference_measure_projective(psi, projectors, rng):
    """The dense measurement as it was before ProjectorSet: an identity sum
    per call, one mat-vec per projector, vdot probabilities, and one more
    mat-vec for the drawn branch."""
    total = np.zeros((psi.dim, psi.dim), dtype=complex)
    for p in projectors:
        total = total + p
    assert np.max(np.abs(total - np.eye(psi.dim))) < COMPLETENESS_TOL
    probs = np.array(
        [float(np.real(np.vdot(psi.amplitudes, p @ psi.amplitudes))) for p in projectors]
    )
    probs = np.clip(probs, 0.0, None)
    outcome = draw_index(probs, rng)
    branch = projectors[outcome] @ psi.amplitudes
    post = StateVector(psi.num_ququarts, branch / np.linalg.norm(branch))
    return MeasurementResult(outcome, float(probs[outcome]), post)


def session_projector_sets(n):
    """Every projector set a session measures on n parties: the sign pair
    of each menu observable and the key set at each position, and the
    computational set at each attack target."""
    menu = TWO_PARTY_MENU if n == 2 else THREE_PARTY_MENU
    comp = [np.outer(e, e.conj()) for e in np.eye(DIM, dtype=complex)]
    sets = {}
    for pos in range(n):
        for name in menu:
            if name != "id":
                obs = check_observable(name)
                pair = (obs.plus_projector, obs.minus_projector)
                sets[f"{name}@{pos}"] = [embed(p, pos, n) for p in pair]
        sets[f"key@{pos}"] = [embed(p, pos, n) for p in key_basis().projectors]
        if pos >= 1:
            sets[f"computational@{pos}"] = [embed(p, pos, n) for p in comp]
    return sets


@pytest.mark.parametrize("channel", [two_party_channel, three_party_channel])
def test_projector_set_measurement_matches_dense_reference(channel):
    spec = channel()
    n = spec.party_count
    sets = session_projector_sets(n)
    # a post-measurement state: the channel collapsed by a key readout at 0
    collapsed = reference_measure_projective(spec.state, sets["key@0"], np.random.default_rng(3))
    for seed, (label, projs) in enumerate(sets.items()):
        stacked = ProjectorSet(projs)
        for state in (spec.state, collapsed.post_state):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            a = [measure_projective(state, stacked, fast) for _ in range(1000)]
            b = [reference_measure_projective(state, projs, slow) for _ in range(1000)]
            assert [r.outcome_index for r in a] == [r.outcome_index for r in b], label
            np.testing.assert_allclose(
                [r.probability for r in a], [r.probability for r in b], rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                [r.post_state.amplitudes for r in a],
                [r.post_state.amplitudes for r in b],
                rtol=0,
                atol=1e-12,
            )
            assert fast.random() == slow.random()  # one uniform per draw on both paths


def test_projector_set_rejects_incomplete_or_misshaped_sets():
    comp = [np.outer(e, e.conj()) for e in np.eye(DIM, dtype=complex)]
    with pytest.raises(ValueError):
        ProjectorSet(comp[:3])  # sums to less than the identity
    with pytest.raises(ValueError):
        ProjectorSet(comp + comp[:1])  # over-complete
    with pytest.raises(ValueError):
        ProjectorSet([np.eye(DIM, dtype=complex)[:, :3]])  # not square
    with pytest.raises(ValueError):
        ProjectorSet(np.eye(DIM, dtype=complex))  # a matrix, not a stack
    with pytest.raises(ValueError):
        ProjectorSet([])
    with pytest.raises(ValueError):
        ProjectorSet([np.full((DIM, DIM), np.nan)] + comp)


def test_projector_set_holds_a_read_only_copy():
    comp = [np.outer(e, e.conj()) for e in np.eye(DIM, dtype=complex)]
    stacked = ProjectorSet(comp)
    assert stacked.stack.shape == (DIM, DIM, DIM)
    with pytest.raises(ValueError):
        stacked.stack[0, 0, 0] = 0.0
    comp[0][0, 0] = 0.0  # the caller's matrices are not aliased
    assert stacked.stack[0, 0, 0] == 1.0
