from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ybcawo4 import spinham as sh
from ybcawo4.constants import CONSTANTS
from ybcawo4.errors import DomainError, ValidationError
from ybcawo4.params import (PRESET_NAMES, Manifold, a_tensor, default_params,
                            g_tensor)

PARAMS = default_params()
NO_NUCLEAR_ZEEMAN = replace(PARAMS, g_n=0.0)


def test_spin_half_operators_algebra():
    sx, sy, sz = sh.spin_half_operators()
    assert np.allclose(np.diag(sz), [0.5, -0.5])
    casimir = sx @ sx + sy @ sy + sz @ sz
    assert np.allclose(casimir, 0.75 * np.eye(2))
    for a, b, c in ((sx, sy, sz), (sy, sz, sx), (sz, sx, sy)):
        assert np.allclose(a @ b - b @ a, 1j * c, atol=1e-15)
    for op in (sx, sy, sz):
        assert np.allclose(op, op.conj().T)
        assert np.allclose(sorted(np.linalg.eigvalsh(op)), [-0.5, 0.5])


def test_operator_built_hamiltonian_matches_assembled_matrix():
    (sx, sy, sz), (ix, iy, iz) = sh.S_OPS, sh.I_OPS
    rng = np.random.default_rng(0)
    for _ in range(25):
        ap, aq = rng.uniform(-5, 5, 2)
        b = rng.uniform(-500, 500, 3)
        p = replace(PARAMS, a_ground=a_tensor(ap, aq))
        g = p.g_ground
        bt = b * 1e-3
        href = (aq * (sx @ ix + sy @ iy) + ap * (sz @ iz)
                + CONSTANTS.mu_b_ghz_per_t * (g.perpendicular * (bt[0] * sx + bt[1] * sy)
                                              + g.parallel * bt[2] * sz)
                - CONSTANTS.mu_n_ghz_per_t * p.g_n * (bt[0] * ix + bt[1] * iy + bt[2] * iz))
        h = sh.hamiltonians(p, Manifold.GROUND, b[None])[0]
        assert np.allclose(h, href, atol=1e-12)


def test_zero_field_eigenvalues_default_parameters():
    eg = sh.eigensystem(PARAMS, Manifold.GROUND)
    assert np.allclose(eg.energies, [-1.3436725, -0.1972625, -0.1972625, 1.7381975],
                       atol=1e-9)
    ee = sh.eigensystem(PARAMS, Manifold.EXCITED)
    assert np.allclose(ee.energies, [-0.7175, -0.7175, -0.6425, 2.0775], atol=1e-9)


def test_hamiltonian_traceless_and_hermitian_any_field():
    fields = np.random.default_rng(1).uniform(-2000, 2000, size=(100, 3))
    for m in Manifold:
        h = sh.hamiltonians(PARAMS, m, fields)
        assert np.abs(np.trace(h, axis1=1, axis2=2)).max() < 1e-12
        assert np.linalg.norm(h - h.conj().transpose(0, 2, 1), axis=(1, 2)).max() < 1e-12


def test_diagonalize_trace_identity_random_hermitian():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (m + m.conj().T) / 2
        energies, states = (a[0] for a in sh._eigh_stack(h[None]))
        assert abs(energies.sum() - np.trace(h).real) < 1e-9
        # residual of the eigenproblem
        for k in range(4):
            r = h @ states[:, k] - energies[k] * states[:, k]
            assert np.linalg.norm(r) < 1e-9 * max(1.0, np.linalg.norm(h))
        overlap = states.conj().T @ states
        assert np.allclose(overlap, np.eye(4), atol=1e-12)


def test_eigenvector_phase_convention():
    rng = np.random.default_rng(3)
    for _ in range(20):
        b = rng.uniform(-300, 300, 3)
        eig = sh.eigensystem(PARAMS, Manifold.GROUND, b)
        for k in range(4):
            v = eig.states[:, k]
            anchor = v[int(np.argmax(np.abs(v)))]
            assert anchor.imag == pytest.approx(0.0, abs=1e-12)
            assert anchor.real > 0


def test_analytic_numeric_agreement_random_hyperfine():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        ap, aq = rng.uniform(-10, 10, 2)
        p = replace(PARAMS, a_ground=a_tensor(ap, aq))
        numeric = sh.eigensystem(p, Manifold.GROUND).energies
        analytic = []
        for grp in sh.zero_field_levels(p.a_ground):
            analytic.extend([grp.energy_ghz] * grp.multiplicity)
        assert np.allclose(numeric, sorted(analytic), atol=1e-9)


def test_perpendicular_sign_flip_leaves_spectrum_invariant():
    rng = np.random.default_rng(5)
    for _ in range(50):
        ap, aq = rng.uniform(-8, 8, 2)
        bz = rng.uniform(-500, 500)
        for b in ((0.0, 0.0, 0.0), (0.0, 0.0, bz)):
            p_plus = replace(PARAMS, a_ground=a_tensor(ap, aq))
            p_minus = replace(PARAMS, a_ground=a_tensor(ap, -aq))
            e_plus = sh.eigensystem(p_plus, Manifold.GROUND, b).energies
            e_minus = sh.eigensystem(p_minus, Manifold.GROUND, b).energies
            assert np.allclose(e_plus, e_minus, atol=1e-9)


def test_exactly_one_zero_field_doublet_per_manifold():
    for m in Manifold:
        eig = sh.eigensystem(PARAMS, m)
        pairs = eig.degenerate_pairs(tol_ghz=1e-9)
        assert len(pairs) == 1
        i, j = pairs[0]
        assert eig.energies[j - 1] - eig.energies[i - 1] < 1e-9
    assert sh.eigensystem(PARAMS, Manifold.GROUND).degenerate_pairs() == [(2, 3)]
    assert sh.eigensystem(PARAMS, Manifold.EXCITED).degenerate_pairs() == [(1, 2)]


def test_doublet_basis_convention():
    eig = sh.eigensystem(PARAMS, Manifold.GROUND)
    assert abs(eig.state(2)[0]) == pytest.approx(1.0, abs=1e-9)  # up-Up
    assert abs(eig.state(3)[3]) == pytest.approx(1.0, abs=1e-9)  # dn-Dn


def test_zero_field_level_splittings():
    levels = sh.zero_field_levels(PARAMS.a_ground)
    assert [g.label for g in levels] == ["singlet-", "doublet", "singlet+"]
    doublet_gap, full_gap = (g.energy_ghz - levels[0].energy_ghz for g in levels[1:])
    assert full_gap == pytest.approx(3.08187, abs=1e-9)
    assert doublet_gap == pytest.approx(1.146410, abs=1e-6)
    # measured value of the full gap is 3.08387 GHz; the tabulated tensor
    # reproduces it to 0.07 percent
    assert abs(full_gap - 3.08387) / 3.08387 < 1e-3


def test_checked_zero_field_levels_follow_the_level_layout():
    for preset in PRESET_NAMES:
        params = default_params(preset)
        for m in Manifold:
            assert (sh.checked_zero_field_levels(params, m)
                    == sh.zero_field_levels(params.a(m)))
    # A_par = 10, A_perp = 1 GHz: singlets at -3 and -2 GHz, doublet on top
    for m, attribute, layout in (
            (Manifold.GROUND, "a_ground", "('1', '23', '4') needs (1, 2, 1)"),
            (Manifold.EXCITED, "a_excited", "('12', '3', '4') needs (2, 1, 1)")):
        params = replace(PARAMS, **{attribute: a_tensor(10.0, 1.0)})
        with pytest.raises(DomainError) as err:
            sh.checked_zero_field_levels(params, m)
        assert str(err.value) == (f"the {m.value} hyperfine tensor gives zero-field "
                                  f"multiplicities (1, 1, 2) in ascending energy, "
                                  f"but the level layout {layout}")


def test_zero_field_levels_all_zero_tensor():
    levels = sh.zero_field_levels(a_tensor(0.0, 0.0))
    assert all(g.energy_ghz == 0.0 for g in levels)


# Zero-field eigenvectors |1>..|4> in the product basis (up-Up, up-Dn,
# dn-Up, dn-Dn), by the conventional level numbering of each manifold
_SQ2 = 1.0 / np.sqrt(2.0)
SINGLET_MINUS = np.array([0, _SQ2, -_SQ2, 0])   # (up-Dn - dn-Up)/sqrt2
SINGLET_PLUS = np.array([0, _SQ2, _SQ2, 0])     # (up-Dn + dn-Up)/sqrt2
UP_UP, DN_DN = np.eye(4)[0], np.eye(4)[3]
GROUND_ZERO_FIELD = (SINGLET_MINUS, UP_UP, DN_DN, SINGLET_PLUS)
EXCITED_ZERO_FIELD = (UP_UP, DN_DN, SINGLET_PLUS, SINGLET_MINUS)


def test_zero_field_states_ground_match_numerics():
    eig = sh.eigensystem(PARAMS, Manifold.GROUND)
    for k, vec in enumerate(GROUND_ZERO_FIELD):
        assert abs(np.vdot(vec, eig.states[:, k])) == pytest.approx(1.0, abs=1e-9)


def test_excited_entangled_states_have_schmidt_rank_two():
    eig = sh.eigensystem(PARAMS, Manifold.EXCITED)
    for index in (3, 4):
        singular = np.linalg.svd(eig.state(index).reshape(2, 2), compute_uv=False)
        assert np.allclose(singular, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)


def test_excited_zero_field_labels_follow_printed_sign_convention():
    # The conventional |3>/|4> assignment of the excited manifold pairs with
    # a negative perpendicular hyperfine component; the canonical defaults
    # carry the positive sign, which swaps the two entangled combinations.
    p_neg = replace(PARAMS, a_excited=a_tensor(-2.87, -2.72))
    eig = sh.eigensystem(p_neg, Manifold.EXCITED)
    for k, vec in enumerate(EXCITED_ZERO_FIELD):
        assert abs(np.vdot(vec, eig.states[:, k])) == pytest.approx(1.0, abs=1e-9)


def test_high_field_overlaps_approach_one():
    # along c, each eigenvector tends to one product state, a different one
    # for each level, as the electron Zeeman term outgrows the hyperfine one
    previous = 0.0
    for b_mt in (1e3, 1e4, 1e5):
        states = sh.eigensystem(PARAMS, Manifold.GROUND, (0.0, 0.0, b_mt)).states
        overlaps = np.abs(states)
        assert sorted(np.argmax(overlaps, axis=0)) == [0, 1, 2, 3]
        worst = overlaps.max(axis=0).min()
        assert worst > previous
        previous = worst
    assert previous > 1 - 1e-6


def test_degenerate_block_ordered_by_sz_then_iz():
    # no hyperfine coupling: all four states are degenerate at zero field
    params = replace(PARAMS, a_ground=a_tensor(0.0, 0.0),
                     a_excited=a_tensor(0.0, 0.0))
    for manifold in Manifold:
        states = sh.eigensystem(params, manifold).states
        # columns up-Up, up-Dn, dn-Up, dn-Dn: Sz descending, then Iz
        assert np.abs(states - np.eye(4)).max() <= 1e-15


def test_sensitivity_protected_states_zero():
    eig = sh.eigensystem(PARAMS, Manifold.GROUND)
    for axis in np.eye(3):
        assert abs(sh.first_order_sensitivity(eig.state(1), axis, PARAMS,
                                              Manifold.GROUND)) < 1e-10
        assert abs(sh.first_order_sensitivity(eig.state(4), axis, PARAMS,
                                              Manifold.GROUND)) < 1e-10


def test_sensitivity_doublet_member_along_c():
    # (mu_B g_par - mu_n g_n) / 2h for the pure up-Up state
    expected = 0.5 * (PARAMS.g_ground.parallel * CONSTANTS.mu_b_ghz_per_t
                      - PARAMS.g_n * CONSTANTS.mu_n_ghz_per_t)
    eig = sh.eigensystem(PARAMS, Manifold.GROUND)
    got = sh.first_order_sensitivity(eig.state(2), (0, 0, 1), PARAMS, Manifold.GROUND)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(7.3652375469, abs=1e-9)
    assert abs(sh.first_order_sensitivity(eig.state(2), (1, 0, 0), PARAMS,
                                          Manifold.GROUND)) < 1e-12


def test_sensitivity_matches_finite_difference():
    rng = np.random.default_rng(6)
    step = 1e-3
    for _ in range(12):
        b0 = rng.uniform(20, 400, 3)  # away from zero-field degeneracies
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        for m in Manifold:
            eig = sh.eigensystem(PARAMS, m, b0)
            if eig.degenerate_pairs(tol_ghz=1e-6):
                continue
            for k in range(4):
                analytic = sh.first_order_sensitivity(eig.states[:, k], direction,
                                                      PARAMS, m)
                e_plus = sh.eigensystem(PARAMS, m, b0 + step * direction).energies[k]
                e_minus = sh.eigensystem(PARAMS, m, b0 - step * direction).energies[k]
                numeric = (e_plus - e_minus) / (2 * step) * 1e3  # GHz/mT -> MHz/mT
                assert abs(analytic - numeric) < 1e-4


def test_sensitivity_requires_normalized_state():
    with pytest.raises(ValidationError):
        sh.first_order_sensitivity(np.array([1.0, 1.0, 0, 0]), (0, 0, 1),
                                   PARAMS, Manifold.GROUND)


def test_clock_dipole_along_c_only():
    eig = sh.eigensystem(PARAMS, Manifold.GROUND)
    along_c = sh.transition_magnetic_dipole(eig.state(1), eig.state(4), (0, 0, 1),
                                            PARAMS, Manifold.GROUND)
    # electron part g_par/2 plus the small nuclear correction
    expected = -(0.5 * PARAMS.g_ground.parallel
                 + 0.5 * CONSTANTS.mu_n_over_mu_b * PARAMS.g_n)
    assert along_c == pytest.approx(expected, abs=1e-12)
    assert abs(along_c) == pytest.approx(0.5267687696, abs=1e-9)
    for axis in ((1, 0, 0), (0, 1, 0)):
        assert abs(sh.transition_magnetic_dipole(eig.state(1), eig.state(4), axis,
                                                 PARAMS, Manifold.GROUND)) < 1e-12


def test_doublet_pair_dipole_vanishes():
    eig = sh.eigensystem(PARAMS, Manifold.GROUND)
    for axis in np.eye(3):
        assert abs(sh.transition_magnetic_dipole(eig.state(2), eig.state(3), axis,
                                                 PARAMS, Manifold.GROUND)) < 1e-12


def test_dipole_completeness_sum_rule():
    rng = np.random.default_rng(7)
    eig = sh.eigensystem(PARAMS, Manifold.GROUND)
    for _ in range(10):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        op = sh.magnetic_dipole_operator(PARAMS, Manifold.GROUND, direction)
        for i in range(4):
            vi = eig.states[:, i]
            total = sum(abs(np.vdot(eig.states[:, j], op @ vi)) ** 2 for j in range(4))
            expected = np.real(vi.conj() @ (op @ op) @ vi)
            assert abs(total - expected) < 1e-9


def test_clock_transitions_zero_field():
    assert sh.find_clock_transitions(PARAMS) == [(1, 4)]
    optical = sh.find_clock_transitions(PARAMS, pairs="optical")
    assert (4, 4) in optical
    # all four combinations of the non-degenerate, zero-moment levels
    assert set(optical) == {(1, 3), (1, 4), (4, 3), (4, 4)}


def test_clock_protection_lifted_at_high_field():
    assert sh.find_clock_transitions(PARAMS, (0.0, 0.0, 100.0)) == []


def test_batched_energies_match_single_calls():
    rng = np.random.default_rng(8)
    fields = rng.uniform(-400, 400, size=(32, 3))
    batch = sh.manifold_energies(PARAMS, Manifold.GROUND, fields)
    for k in range(32):
        single = sh.eigensystem(PARAMS, Manifold.GROUND, fields[k]).energies
        assert np.allclose(batch[k], single, atol=1e-12)


def test_eigensystems_equal_per_row_diagonalize():
    # eigensystem is the one-row case of eigensystems
    rng = np.random.default_rng(9)
    axis = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    fields = np.concatenate([rng.uniform(-400, 400, size=(40, 3)),
                             np.zeros((2, 3)),  # degenerate rows
                             np.linspace(-60, 60, 13)[:, None] * axis])
    for manifold in Manifold:
        for params in (PARAMS, NO_NUCLEAR_ZEEMAN):
            energies, states = sh.eigensystems(params, manifold, fields)
            assert energies.shape == (fields.shape[0], 4)
            assert states.shape == (fields.shape[0], 4, 4)
            for row, b in enumerate(fields):
                ref = sh.eigensystem(params, manifold, b)
                assert np.array_equal(energies[row], ref.energies)
                assert np.array_equal(states[row], ref.states)


def test_eigensystems_rejects_bad_field_stacks():
    with pytest.raises(ValidationError, match="finite"):
        sh.eigensystems(PARAMS, Manifold.GROUND, [[0.0, np.nan, 1.0]])
    with pytest.raises(ValidationError, match="3-vectors"):
        sh.eigensystems(PARAMS, Manifold.GROUND, [0.0, 0.0, 1.0])
    with pytest.raises(ValidationError, match="finite"):
        sh.eigensystem(PARAMS, Manifold.GROUND, (0.0, np.inf, 1.0))
    with pytest.raises(ValidationError, match="3-vector"):
        sh.eigensystem(PARAMS, Manifold.GROUND, (0.0, 1.0))


def test_hamiltonian_stack_equals_single_builds():
    rng = np.random.default_rng(10)
    fields = np.concatenate([rng.uniform(-400, 400, size=(16, 3)), np.zeros((1, 3))])
    for manifold in Manifold:
        for params in (PARAMS, NO_NUCLEAR_ZEEMAN):
            stack = sh.hamiltonians(params, manifold, fields)
            assert stack.shape == (fields.shape[0], 4, 4)
            for row, b in enumerate(fields):
                assert np.array_equal(
                    stack[row], sh.hamiltonians(params, manifold, b[None])[0])
            assert np.array_equal(np.linalg.eigvalsh(stack),
                                  sh.manifold_energies(params, manifold, fields))


def test_stack_builder_and_energies_reject_bad_fields():
    for fn in (sh.hamiltonians, sh.manifold_energies):
        with pytest.raises(ValidationError, match="finite"):
            fn(PARAMS, Manifold.EXCITED, [[0.0, np.nan, 1.0]])
        with pytest.raises(ValidationError, match="3-vectors"):
            fn(PARAMS, Manifold.EXCITED, [[0.0, 1.0]])
    with pytest.raises(ValidationError, match="3-vectors"):
        sh.hamiltonians(PARAMS, Manifold.EXCITED, [0.0, 0.0, 1.0])


def test_product_operators_are_read_only_constants():
    for op in sh.S_OPS + sh.I_OPS:
        with pytest.raises(ValueError):
            op[0, 0] = 1.0


def _reference_fix_phase(vec):
    """The per-column phase convention, one eigenvector at a time."""
    k = int(np.argmax(np.abs(vec)))
    out = vec / (vec[k] / abs(vec[k]))
    out[k] = out[k].real
    return out


def test_vectorised_phase_convention_equals_per_column_loop():
    rng = np.random.default_rng(10)
    fields = rng.uniform(-400, 400, size=(200, 3))
    h = sh.hamiltonians(PARAMS, Manifold.EXCITED, fields)
    _, vectors = np.linalg.eigh(h)
    fixed = sh._fix_phases(vectors)
    for row in range(fields.shape[0]):
        for k in range(4):
            assert np.array_equal(fixed[row, :, k],
                                  _reference_fix_phase(vectors[row, :, k]))


def _reference_fix_phases(vectors):
    """The take_along_axis / put_along_axis body of _fix_phases that the
    single anchor index replaced, kept as its reference."""
    magnitude = np.hypot(vectors.real, vectors.imag)
    anchor = np.argmax(magnitude, axis=-2)[..., None, :]
    peak = np.take_along_axis(vectors, anchor, axis=-2)
    out = vectors / (peak / np.take_along_axis(magnitude, anchor, axis=-2))
    np.put_along_axis(out, anchor, np.take_along_axis(out, anchor, axis=-2).real,
                      axis=-2)
    return out


def test_fix_phases_equals_the_take_along_axis_body():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 2001))
        vectors = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
        assert np.array_equal(sh._fix_phases(vectors), _reference_fix_phases(vectors))
    single = vectors[0]
    assert np.array_equal(sh._fix_phases(single), _reference_fix_phases(single))


# --- the Zeeman forms that zeeman_operators replaced, kept as references ----

def _reference_hamiltonians(a_par, a_perp, ze_par, ze_perp, zn, fields_t):
    """The hand-typed stack builder: ze = g mu_B/h, zn = g_n mu_n/h (GHz/T)."""
    fields_t = np.atleast_2d(np.asarray(fields_t, dtype=np.float64))
    n = fields_t.shape[0]
    bx, by, bz = fields_t[:, 0], fields_t[:, 1], fields_t[:, 2]
    h = np.zeros((n, 4, 4), dtype=np.complex128)
    gz = ze_par * bz
    nz = zn * bz
    h[:, 0, 0] = a_par / 4.0 + gz / 2.0 - nz / 2.0
    h[:, 1, 1] = -a_par / 4.0 + gz / 2.0 + nz / 2.0
    h[:, 2, 2] = -a_par / 4.0 - gz / 2.0 - nz / 2.0
    h[:, 3, 3] = a_par / 4.0 - gz / 2.0 + nz / 2.0
    # electron-nuclear flip-flop
    h[:, 1, 2] = a_perp / 2.0
    h[:, 2, 1] = a_perp / 2.0
    # transverse electron Zeeman (electron flip, nucleus spectator)
    et = ze_perp * (bx - 1j * by) / 2.0
    h[:, 0, 2] = et
    h[:, 2, 0] = np.conj(et)
    h[:, 1, 3] = et
    h[:, 3, 1] = np.conj(et)
    # transverse nuclear Zeeman (nucleus flip, electron spectator)
    nt = -zn * (bx - 1j * by) / 2.0
    h[:, 0, 1] = nt
    h[:, 1, 0] = np.conj(nt)
    h[:, 2, 3] = nt
    h[:, 3, 2] = np.conj(nt)
    return h


def _reference_field_derivative(params, manifold, direction):
    """dH/dB along a unit direction as a sum of S and I operators (GHz/T)."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    g = params.g(manifold)
    ze_par = g.parallel * CONSTANTS.mu_b_ghz_per_t
    ze_perp = g.perpendicular * CONSTANTS.mu_b_ghz_per_t
    zn = params.g_n * CONSTANTS.mu_n_ghz_per_t
    sx, sy, sz = sh.S_OPS
    ix, iy, iz = sh.I_OPS
    return (ze_perp * (d[0] * sx + d[1] * sy) + ze_par * d[2] * sz
            - zn * (d[0] * ix + d[1] * iy + d[2] * iz))


def _reference_dipole(params, manifold, direction):
    """-(g-weighted d.S - (mu_n/mu_B) g_n d.I) for a unit direction, in mu_B."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    g = params.g(manifold)
    sx, sy, sz = sh.S_OPS
    ix, iy, iz = sh.I_OPS
    nuclear = CONSTANTS.mu_n_over_mu_b * params.g_n
    return -(g.perpendicular * (d[0] * sx + d[1] * sy) + g.parallel * d[2] * sz
             - nuclear * (d[0] * ix + d[1] * iy + d[2] * iz))


def _assert_rows_close(got, ref, rel=1e-14):
    """Each matrix of got within rel times the Frobenius norm of ref's."""
    got, ref = np.atleast_3d(got), np.atleast_3d(ref)
    assert got.shape == ref.shape
    diff = np.linalg.norm(got - ref, axis=(-2, -1))
    assert np.all(diff <= rel * np.linalg.norm(ref, axis=(-2, -1))), diff.max()


def _random_params(rng):
    return replace(PARAMS,
                   g_ground=g_tensor(*rng.uniform(-4, 4, 2)),
                   g_excited=g_tensor(*rng.uniform(-4, 4, 2)),
                   a_ground=a_tensor(*rng.uniform(-5, 5, 2)),
                   a_excited=a_tensor(*rng.uniform(-5, 5, 2)),
                   g_n=rng.uniform(-2, 2))


def test_operator_pair_matches_hand_typed_forms():
    rng = np.random.default_rng(11)
    for _ in range(20):
        params = _random_params(rng)
        fields = np.concatenate([rng.uniform(-500, 500, size=(16, 3)),
                                 rng.uniform(-0.5, 0.5, size=(4, 3))])
        direction = rng.normal(size=3)
        for manifold in Manifold:
            a, g = params.a(manifold), params.g(manifold)
            mu_b = CONSTANTS.mu_b_ghz_per_t
            for variant in (params, replace(params, g_n=0.0)):
                zn = variant.g_n * CONSTANTS.mu_n_ghz_per_t
                ref = _reference_hamiltonians(a.parallel, a.perpendicular,
                                              g.parallel * mu_b, g.perpendicular * mu_b,
                                              zn, fields * 1e-3)
                _assert_rows_close(sh.hamiltonians(variant, manifold, fields), ref)
            _assert_rows_close(sh.field_derivative_operator(params, manifold, direction),
                               _reference_field_derivative(params, manifold, direction))
            _assert_rows_close(sh.magnetic_dipole_operator(params, manifold, direction),
                               _reference_dipole(params, manifold, direction))


def test_zeeman_operators_are_the_read_only_zero_field_and_slope_pair():
    h0, zeeman = sh.zeeman_operators(PARAMS, Manifold.EXCITED)
    assert h0.shape == (4, 4) and zeeman.shape == (3, 4, 4)
    assert np.array_equal(h0, sh.hamiltonians(PARAMS, Manifold.EXCITED,
                                              np.zeros((1, 3)))[0])
    for a, axis in enumerate(np.eye(3)):
        assert np.array_equal(zeeman[a], sh.field_derivative_operator(
            PARAMS, Manifold.EXCITED, axis))
    with pytest.raises(ValueError):
        zeeman[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        h0[0, 0] = 1.0
    _, electronic = sh.zeeman_operators(NO_NUCLEAR_ZEEMAN, Manifold.EXCITED)
    g = PARAMS.g_excited
    assert np.array_equal(electronic[2], CONSTANTS.mu_b_ghz_per_t * g.parallel
                          * sh.S_OPS[2])


# Field components up to 1e12 mT: any larger and H(B1 + B2) may overflow
_FIELD_COMPONENTS = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(b1=hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(3)),
                    elements=_FIELD_COMPONENTS),
       data=st.data(), manifold=st.sampled_from(Manifold), nuclear=st.booleans())
def test_hamiltonians_hermitian_and_affine_in_field(b1, data, manifold, nuclear):
    b2 = data.draw(hnp.arrays(np.float64, b1.shape, elements=_FIELD_COMPONENTS))
    params = PARAMS if nuclear else NO_NUCLEAR_ZEEMAN
    h0 = sh.zeeman_operators(params, manifold)[0]
    h1, h2, h12 = (sh.hamiltonians(params, manifold, b) for b in (b1, b2, b1 + b2))
    scale = max(np.abs(h).max() for h in (h0, h1, h2, h12))
    eps = np.finfo(float).eps
    for h in (h1, h2, h12):
        assert np.abs(h - h.conj().transpose(0, 2, 1)).max() <= 4 * eps * scale
    assert np.abs(h1 + h2 - h12 - h0).max() <= 16 * eps * scale


# Rows of eigensystems: random fields, zero fields (a degenerate doublet in
# each manifold) and fields along c, where the pure product states mix least
_FIELD_ROWS = st.one_of(
    hnp.arrays(np.float64, 3, elements=st.floats(-500, 500)),
    st.just(np.zeros(3)),
    st.floats(-500, 500).map(lambda b: np.array([0.0, 0.0, b])))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(rows=st.lists(_FIELD_ROWS, min_size=1, max_size=8),
       preset=st.sampled_from(["yb171-cawo4", "field-sweep-fit"]),
       manifold=st.sampled_from(Manifold), nuclear=st.booleans())
def test_eigensystems_rows_follow_the_conventions(rows, preset, manifold, nuclear):
    fields = np.stack(rows)
    params = default_params(preset)
    if not nuclear:
        params = replace(params, g_n=0.0)
    energies, states = sh.eigensystems(params, manifold, fields)
    eye = np.eye(4)
    sz, iz = sh.S_OPS[2], sh.I_OPS[2]
    for h, e, v in zip(sh.hamiltonians(params, manifold, fields), energies, states):
        assert np.all(np.diff(e) >= 0.0)
        assert np.abs(v.conj().T @ v - eye).max() <= 1e-14
        # H v = E v, up to the spread of a degenerate block that was rotated
        gaps = np.abs(e[:, None] - e[None, :])
        spread = np.where(gaps < sh._DEGENERACY_TOL_GHZ, gaps, 0.0).max(axis=1)
        residual = np.linalg.norm(h @ v - v * e, axis=0)
        assert np.all(residual <= spread + 1e-12 * max(1.0, np.linalg.norm(h)))
        # the largest-magnitude component of each column is real and positive;
        # components tied to rounding may each be the one chosen
        magnitude = np.abs(v)
        top = magnitude >= (1.0 - 1e-12) * magnitude.max(axis=0)
        assert np.all(np.any(top & (v.imag == 0.0) & (v.real > 0.0), axis=0))
        for k in range(3):
            if e[k + 1] - e[k] >= sh._DEGENERACY_TOL_GHZ:
                continue
            # a degenerate pair diagonalizes Sz (then Iz), in descending order
            pair = v[:, k:k + 2]
            for op in (sz, iz):
                m = pair.conj().T @ op @ pair
                assert abs(m[0, 1]) <= 1e-12
            s_diag = np.diag(pair.conj().T @ sz @ pair).real
            i_diag = np.diag(pair.conj().T @ iz @ pair).real
            assert (s_diag[0] > s_diag[1] + 1e-12
                    or (abs(s_diag[0] - s_diag[1]) <= 1e-12
                        and i_diag[0] >= i_diag[1] - 1e-12))
