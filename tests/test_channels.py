import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from registers import tensor

from ququart_qkd.channels import (
    ChannelCheck,
    ChannelSpec,
    check_residuals,
    constraint_matrices,
    corrupt_channel,
    make_channel,
    stabilized_subspace,
    three_party_channel,
    two_party_channel,
)
from ququart_qkd.observables import check_observable, key_basis

HALF_ROOT2 = 1.0 / (2.0 * np.sqrt(2.0))


def nullspace_dimension(constraints, dim):
    """Independent reference: stack (O - expected*I) rows and count the
    joint nullspace with one SVD."""
    if not constraints:
        return dim
    stacked = np.vstack([op - val * np.eye(dim) for op, val in constraints])
    svals = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(svals < 1e-8 * svals[0]))


def squaring_dimension(constraints, dim):
    """Second independent reference: the product of the eigenprojectors
    (I + expected*O)/2, squared until its singular spectrum splits at {1}
    versus {0}.  Vectors in the intersection are fixed at every step and
    everything else contracts, so the limit is the intersection projector
    even for non-commuting constraints (Halperin's theorem)."""
    product = np.eye(dim, dtype=complex)
    for op, expected in constraints:
        product = product @ (np.eye(dim) + expected * op) / 2
    for _ in range(80):
        singulars = np.linalg.svd(product, compute_uv=False)
        leaking = singulars[singulars < 1.0 - 1e-6]
        if leaking.size == 0 or float(leaking.max()) < 1e-10:
            break
        product = product @ product
    return int(np.sum(np.linalg.svd(product, compute_uv=False) > 1e-8))


def check_sets(spec):
    """The full check set and every drop-one set of a channel."""
    full = constraint_matrices(spec)
    return [full] + [full[:i] + full[i + 1 :] for i in range(len(full))]


def run_optimized(script):
    """Run ``script`` under python -O (asserts stripped) against src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_two_party_state_amplitudes():
    spec = two_party_channel()
    amps = spec.state.amplitudes
    assert amps[1] == pytest.approx(0.5)
    assert amps[4] == pytest.approx(0.5)
    assert amps[11] == pytest.approx(-0.5)
    assert amps[14] == pytest.approx(-0.5)
    assert np.count_nonzero(amps) == 4


def test_three_party_state_amplitudes():
    spec = three_party_channel()
    amps = spec.state.amplitudes
    kets = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3, 3)]
    for k, l, m in kets:
        assert amps[16 * k + 4 * l + m] == pytest.approx(HALF_ROOT2)
    assert np.count_nonzero(amps) == 8


def test_make_channel_dispatch():
    assert make_channel(2).party_count == 2
    assert make_channel(3).party_count == 3
    with pytest.raises(ValueError):
        make_channel(4)


def test_channel_input_is_rejected_with_value_error():
    two = two_party_channel()
    bad = {
        "expected 0": lambda: ChannelCheck(("sx", "sx"), 0),
        "operator not a name": lambda: ChannelCheck(("sx", 3), 1),
        "four parties": lambda: ChannelSpec(4, two.state, ()),
        "state of the wrong size": lambda: ChannelSpec(3, two.state, ()),
        "check of the wrong arity": lambda: ChannelSpec(2, two.state, (ChannelCheck(("sx",), 1),)),
        "make_channel(1)": lambda: make_channel(1),
    }
    for name, call in bad.items():
        with pytest.raises(ValueError):
            call()
            pytest.fail(f"accepted {name}")


def test_channel_input_checks_survive_optimized_mode():
    # python -O strips asserts; these checks must raise ValueError anyway
    script = (
        "from ququart_qkd.channels import ChannelCheck, ChannelSpec, make_channel,"
        " two_party_channel\n"
        "two = two_party_channel()\n"
        "calls = {\n"
        "    'expected 0': lambda: ChannelCheck(('sx', 'sx'), 0),\n"
        "    'operator not a name': lambda: ChannelCheck(('sx', 3), 1),\n"
        "    'four parties': lambda: ChannelSpec(4, two.state, ()),\n"
        "    'state of the wrong size': lambda: ChannelSpec(3, two.state, ()),\n"
        "    'check of the wrong arity': lambda: ChannelSpec(\n"
        "        2, two.state, (ChannelCheck(('sx',), 1),)),\n"
        "    'make_channel(4)': lambda: make_channel(4),\n"
        "}\n"
        "for name, call in calls.items():\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'accepted {name}')\n"
    )
    done = run_optimized(script)
    assert done.returncode == 0, done.stdout + done.stderr


def test_check_names_and_expected_signs():
    two = two_party_channel()
    assert [c.name for c in two.checks] == ["sx_sx", "ux_ux", "sz_sz", "uz_uz"]
    assert [c.expected for c in two.checks] == [-1, -1, -1, 1]
    three = three_party_channel()
    assert [c.name for c in three.checks] == ["sx_sx_sx", "oz_oz_oz", "ex_ex_id", "id_ex_ex"]
    assert all(c.expected == 1 for c in three.checks)


@pytest.mark.parametrize("parties", [2, 3])
def test_channel_states_satisfy_all_checks(parties):
    residuals = check_residuals(make_channel(parties))
    assert len(residuals) == 4
    for value in residuals.values():
        assert value < 1e-12


def test_two_party_key_basis_expansion():
    # the shared state decomposes into anti-correlated key pairs, each
    # with weight 1/2: (phi+, psi-), (phi-, psi+), (psi+, phi-), (psi-, phi+)
    spec = two_party_channel()
    kb = key_basis()
    for a in range(4):
        for b in range(4):
            joint = tensor(kb.vectors[a], kb.vectors[b])
            coeff = np.vdot(joint, spec.state.amplitudes)
            opposite = (a // 2 != b // 2) and (a % 2 != b % 2)
            expect = 0.5 if opposite else 0.0
            assert abs(coeff - expect) < 1e-12


def test_three_party_key_basis_expansion():
    # fixing Alice's key vector leaves Bob and Charlie perfectly
    # correlated through the bitwise sum rule, weight 1/4 per term
    spec = three_party_channel()
    kb = key_basis()
    for a in range(4):
        for b in range(4):
            for c in range(4):
                joint = tensor(tensor(kb.vectors[a], kb.vectors[b]), kb.vectors[c])
                coeff = np.vdot(joint, spec.state.amplitudes)
                ab = (a // 2) ^ (b // 2), (a % 2) ^ (b % 2)
                expect = 0.25 if ab == (c // 2, c % 2) else 0.0
                assert abs(coeff - expect) < 1e-12


def test_corrupt_channel_default_flips_last_component():
    clean = two_party_channel()
    bad = corrupt_channel(clean)
    diff = np.flatnonzero(bad.state.amplitudes != clean.state.amplitudes)
    assert list(diff) == [14]
    assert bad.state.amplitudes[14] == -clean.state.amplitudes[14]
    assert [c.name for c in bad.checks] == [c.name for c in clean.checks]


def test_corrupt_two_party_residual_pattern():
    residuals = check_residuals(corrupt_channel(two_party_channel()))
    assert residuals["sx_sx"] == pytest.approx(np.sqrt(2.0))
    assert residuals["ux_ux"] == pytest.approx(np.sqrt(2.0))
    assert residuals["sz_sz"] == pytest.approx(0.0, abs=1e-15)
    assert residuals["uz_uz"] == pytest.approx(0.0, abs=1e-15)


def test_corrupt_three_party_residual_pattern():
    # flipping the |223> component breaks every check except oz_oz_oz
    spec = corrupt_channel(three_party_channel(), basis_index=43)
    residuals = check_residuals(spec)
    assert residuals["sx_sx_sx"] == pytest.approx(1.0)
    assert residuals["oz_oz_oz"] == pytest.approx(0.0, abs=1e-15)
    assert residuals["ex_ex_id"] == pytest.approx(1.0)
    assert residuals["id_ex_ex"] == pytest.approx(1.0)


def test_corrupt_channel_rejects_zero_amplitude_target():
    with pytest.raises(ValueError):
        corrupt_channel(two_party_channel(), basis_index=0)


@pytest.mark.parametrize("index", [0, 2, 15, 16, -1, 1.0, True, "1"])
def test_corrupt_channel_rejects_bad_basis_indices(index):
    # zero amplitudes, out-of-range and non-integer indices
    with pytest.raises(ValueError):
        corrupt_channel(two_party_channel(), basis_index=index)


def test_corrupt_channel_check_survives_optimized_mode():
    # without the check, corrupt_channel(spec, 0) returns the clean channel
    # and the negative control silently stops being one
    script = (
        "from ququart_qkd.channels import corrupt_channel, two_party_channel\n"
        "for index in (0, 16):\n"
        "    try:\n"
        "        corrupt_channel(two_party_channel(), index)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'accepted basis index {index}')\n"
    )
    done = run_optimized(script)
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("parties", [2, 3])
def test_subspace_is_one_dimensional_and_matches_state(parties):
    spec = make_channel(parties)
    dim = spec.state.dim
    cert = stabilized_subspace(constraint_matrices(spec), dim)
    assert cert.dimension == 1
    overlap = abs(np.vdot(spec.state.amplitudes, cert.basis[0].amplitudes))
    assert abs(overlap - 1.0) < 1e-10
    assert cert.residual < 1e-10


@pytest.mark.parametrize(
    "parties,drop_dims",
    [(2, [2, 2, 2, 2]), (3, [3, 8, 3, 3])],
)
def test_drop_one_constraint_dimensions(parties, drop_dims):
    spec = make_channel(parties)
    dim = spec.state.dim
    constraints = constraint_matrices(spec)
    for skip, expected in enumerate(drop_dims):
        subset = [c for i, c in enumerate(constraints) if i != skip]
        cert = stabilized_subspace(subset, dim)
        assert cert.dimension == expected
        assert cert.dimension > 1


@pytest.mark.parametrize("parties", [2, 3])
def test_subspace_agrees_with_stacked_nullspace(parties):
    spec = make_channel(parties)
    dim = spec.state.dim
    constraints = constraint_matrices(spec)
    assert stabilized_subspace(constraints, dim).dimension == nullspace_dimension(
        constraints, dim
    )
    for skip in range(len(constraints)):
        subset = [c for i, c in enumerate(constraints) if i != skip]
        assert stabilized_subspace(subset, dim).dimension == nullspace_dimension(
            subset, dim
        )


@pytest.mark.parametrize("parties", [2, 3])
def test_subspace_agrees_with_repeated_squaring(parties):
    spec = make_channel(parties)
    dim = spec.state.dim
    for subset in check_sets(spec):
        assert stabilized_subspace(subset, dim).dimension == squaring_dimension(subset, dim)


def test_subspace_order_invariance():
    spec = three_party_channel()
    dim = spec.state.dim
    constraints = constraint_matrices(spec)
    reference = stabilized_subspace(constraints, dim)
    for perm in itertools.permutations(range(4)):
        cert = stabilized_subspace([constraints[i] for i in perm], dim)
        assert cert.dimension == reference.dimension
        overlap = abs(np.vdot(cert.basis[0].amplitudes, reference.basis[0].amplitudes))
        assert abs(overlap - 1.0) < 1e-10


def test_subspace_basis_is_orthonormal():
    spec = two_party_channel()
    constraints = constraint_matrices(spec)[:2]
    cert = stabilized_subspace(constraints, 16)
    mat = np.column_stack([v.amplitudes for v in cert.basis])
    np.testing.assert_allclose(mat.conj().T @ mat, np.eye(cert.dimension), atol=1e-10)


def test_subspace_with_no_constraints_is_everything():
    cert = stabilized_subspace([], 16)
    assert cert.dimension == 16


def test_subspace_of_contradictory_constraints_is_empty():
    sz = check_observable("sz").matrix
    op = tensor(sz, np.eye(4, dtype=complex))
    cert = stabilized_subspace([(op, 1), (op, -1)], 16)
    assert cert.dimension == 0
    assert cert.basis == ()


def test_subspace_rejects_non_involutions():
    bad = np.diag([2.0, 1.0, 1.0, 1.0]).astype(complex)
    with pytest.raises(ValueError):
        stabilized_subspace([(bad, 1)], 4)


def bad_constraint_sets():
    """(name, constraints) pairs that stabilized_subspace must reject on a
    16-dimensional space; each holds one good check and one bad one."""
    good = constraint_matrices(two_party_channel())[0]
    sx = good[0]
    skew = np.array(sx, dtype=complex)
    skew[0, 15] = 1j
    return {
        "wrong shape": [good, (np.eye(4), 1)],
        "expected 0": [good, (sx, 0)],
        "expected 2": [good, (sx, 2)],
        "not Hermitian": [good, (skew, 1)],
        "not an involution": [good, (2 * sx, 1)],
        "NaN entry": [good, (np.full((16, 16), np.nan), 1)],
    }


@pytest.mark.parametrize("name", sorted(bad_constraint_sets()))
def test_subspace_rejects_bad_constraints_with_value_error(name):
    with pytest.raises(ValueError):
        stabilized_subspace(bad_constraint_sets()[name], 16)


def test_subspace_checks_survive_optimized_mode():
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "from test_channels import bad_constraint_sets\n"
        "from ququart_qkd.channels import stabilized_subspace\n"
        "for name, constraints in bad_constraint_sets().items():\n"
        "    try:\n"
        "        stabilized_subspace(constraints, 16)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'accepted {name}')\n"
    )
    done = run_optimized(script)
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("parties", [2, 3])
def test_real_and_complex_constraints_give_the_same_certificate(parties):
    # the built-in checks are real and take the real symmetric solver; the
    # same checks cast to complex take the complex Hermitian solver
    spec = make_channel(parties)
    dim = spec.state.dim
    for constraints in check_sets(spec):
        assert all(op.dtype == np.float64 for op, _ in constraints)
        as_complex = [(op.astype(complex), expected) for op, expected in constraints]
        real = stabilized_subspace(constraints, dim)
        cplx = stabilized_subspace(as_complex, dim)
        assert real.dimension == cplx.dimension
        b = np.column_stack([v.amplitudes for v in real.basis])
        c = np.column_stack([v.amplitudes for v in cplx.basis])
        assert np.linalg.norm(b @ b.conj().T - c @ c.conj().T) < 1e-12


def test_constraint_matrices_returns_a_new_list_per_call():
    spec = make_channel(3)
    first = constraint_matrices(spec)
    second = constraint_matrices(spec)
    assert first is not second
    del first[0]
    assert len(constraint_matrices(spec)) == len(second) == 4


@pytest.mark.parametrize("parties", [2, 3])
def test_shared_channel_arrays_are_read_only(parties):
    spec = make_channel(parties)
    assert make_channel(parties) is spec
    with pytest.raises(ValueError):
        spec.state.amplitudes[0] = 1.0
    for op, _ in constraint_matrices(spec):
        with pytest.raises(ValueError):
            op[0, 0] = 2.0
    for check in spec.checks:
        with pytest.raises(ValueError):
            check.joint_matrix()[0, 0] = 2.0
