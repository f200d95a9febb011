import warnings
from dataclasses import replace

import numpy as np
import pytest

from ybcawo4 import dynamics as dyn
from ybcawo4 import fitting as ft
from ybcawo4.errors import ValidationError
from ybcawo4.params import Manifold, default_params, g_tensor

PARAMS = default_params()


class TestLeastSquaresEngine:
    def test_linear_model_exact_recovery(self):
        x = np.linspace(0, 1, 20)
        result = ft.least_squares(lambda p: p[0] * x, 3.5 * x, [1.0])
        assert result.converged
        assert result.values[0] == pytest.approx(3.5, abs=1e-12)
        assert result.residual_norm < 1e-12

    def test_quadratic_bowl_converges_quickly(self):
        x = np.linspace(-2, 2, 30)
        target = 1.2 * x**2 - 0.7 * x + 0.3
        rng = np.random.default_rng(0)
        start = rng.uniform(-5, 5, 3)
        result = ft.least_squares(
            lambda p: p[0] * x**2 + p[1] * x + p[2], target, start)
        assert result.converged
        assert result.iterations < 50
        assert np.allclose(result.values, [1.2, -0.7, 0.3], atol=1e-8)

    def test_monotone_damping(self):
        x = np.linspace(0, 4, 50)
        rng = np.random.default_rng(1)
        y = 2.0 * np.exp(-1.3 * x) + rng.normal(0, 0.01, x.size)
        result = ft.least_squares(lambda p: p[0] * np.exp(-p[1] * x), y, [1.0, 0.5])
        assert result.converged
        assert all(b <= a + 1e-15 for a, b in zip(result.cost_history,
                                                  result.cost_history[1:]))

    def test_nan_model_rejected(self):
        with pytest.raises(ValidationError):
            ft.least_squares(lambda p: np.array([np.nan, 1.0]),
                             np.zeros(2), [1.0])

    def test_singular_jacobian_flagged(self):
        # second parameter has no effect: J^T J is singular
        x = np.linspace(0, 1, 10)
        result = ft.least_squares(lambda p: p[0] * x + 0.0 * p[1], 2 * x,
                                  [1.0, 1.0])
        assert not result.converged or "singular jacobian" in result.flags

    def test_bounds_respected(self):
        x = np.linspace(0, 1, 10)
        result = ft.least_squares(lambda p: p[0] * x, 5 * x, [1.0],
                                  bounds=[(0.0, 2.0)])
        assert result.values[0] <= 2.0

    def test_initial_outside_bounds_rejected(self):
        with pytest.raises(ValidationError):
            ft.least_squares(lambda p: p, np.zeros(1), [3.0], bounds=[(0, 1)])

    def test_center_within_two_sigma_in_most_trials(self):
        x = np.linspace(-3, 3, 101)
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            y = ft.gaussian_profile(x, 0.2, 1.0, 1.0, 0.0) \
                + rng.normal(0, 0.01, x.size)
            result = ft.fit_gaussian_line(x, y)
            if abs(result["center"] - 0.2) < 2 * result.uncertainty("center"):
                hits += 1
        assert hits >= 90

    def test_one_sigma_coverage_calibration(self):
        x = np.linspace(-3, 3, 101)
        hits = 0
        for seed in range(200):
            rng = np.random.default_rng(1000 + seed)
            y = ft.gaussian_profile(x, -0.1, 0.8, 1.0, 0.05) \
                + rng.normal(0, 0.01, x.size)
            result = ft.fit_gaussian_line(x, y)
            if abs(result["center"] + 0.1) < result.uncertainty("center"):
                hits += 1
        assert 0.60 <= hits / 200 <= 0.75


class TestJacobians:
    def test_gaussian_analytic_matches_forward_difference(self):
        rng = np.random.default_rng(2)
        x = np.linspace(-2, 2, 40)
        for _ in range(10):
            p = [rng.uniform(-1, 1), rng.uniform(0.3, 2), rng.uniform(0.5, 2),
                 rng.uniform(-0.5, 0.5)]
            analytic = ft.gaussian_jacobian(x, *p)
            numeric = np.empty_like(analytic)
            for k in range(4):
                step = 1e-7 * max(abs(p[k]), 1e-3)
                shifted = list(p)
                shifted[k] += step
                numeric[:, k] = (ft.gaussian_profile(x, *shifted)
                                 - ft.gaussian_profile(x, *p)) / step
            scale = np.max(np.abs(analytic))
            assert np.max(np.abs(analytic - numeric)) < 1e-5 * scale

    def test_echo_analytic_matches_forward_difference(self):
        rng = np.random.default_rng(3)
        tau = np.linspace(0, 0.5, 25)
        for _ in range(10):
            p = [rng.uniform(0.5, 2), rng.uniform(0.05, 0.4)]
            analytic = ft.echo_decay_jacobian(tau, *p)
            numeric = np.empty_like(analytic)
            for k in range(2):
                step = 1e-7 * max(abs(p[k]), 1e-3)
                shifted = list(p)
                shifted[k] += step
                numeric[:, k] = (ft.echo_decay_profile(tau, *shifted)
                                 - ft.echo_decay_profile(tau, *p)) / step
            scale = np.max(np.abs(analytic))
            assert np.max(np.abs(analytic - numeric)) < 1e-5 * scale


class TestGaussianLine:
    def test_spin_linewidth_recovery(self):
        # synthetic 5 kHz FWHM spin line with 1 percent noise
        x = np.linspace(-30, 30, 241)
        rng = np.random.default_rng(4)
        y = ft.gaussian_profile(x, 0.0, 5.0, 1.0, 0.02) + rng.normal(0, 0.01, x.size)
        result = ft.fit_gaussian_line(x, y)
        assert result.converged
        assert abs(result["fwhm"] - 5.0) / 5.0 < 0.05

    def test_optical_linewidth_recovery(self):
        x = np.linspace(-700, 700, 301)
        rng = np.random.default_rng(5)
        y = ft.gaussian_profile(x, 20.0, 185.0, 1.5, 0.1) \
            + rng.normal(0, 0.015, x.size)
        result = ft.fit_gaussian_line(x, y)
        assert abs(result["fwhm"] - 185.0) / 185.0 < 0.02

    def test_flat_data_flagged(self):
        x = np.linspace(-5, 5, 80)
        rng = np.random.default_rng(6)
        result = ft.fit_gaussian_line(x, 0.3 + rng.normal(0, 0.01, x.size))
        assert "low-confidence amplitude" in result.flags

    def test_too_few_points_rejected(self):
        with pytest.raises(ValidationError):
            ft.fit_gaussian_line([0, 1, 2], [1, 2, 1])

    def test_non_finite_rejected(self):
        x = np.linspace(0, 1, 10)
        y = np.ones(10)
        y[3] = np.inf
        with pytest.raises(ValidationError):
            ft.fit_gaussian_line(x, y)


class TestEchoDecay:
    @pytest.mark.parametrize("t2_true,t_max", [(0.15, 0.5), (0.75e-3, 2.5e-3),
                                               (0.54e-3, 1.8e-3)])
    def test_noisy_recovery_within_five_percent(self, t2_true, t_max):
        tau = np.linspace(t_max / 40, t_max, 20)
        rng = np.random.default_rng(int(t2_true * 1e6))
        signal = ft.echo_decay_profile(tau, 1.0, t2_true) \
            * (1 + 0.03 * rng.normal(size=tau.size))
        result = ft.fit_echo_decay(tau, signal)
        assert result.converged
        assert abs(result["t2"] - t2_true) / t2_true < 0.05

    def test_noiseless_exact(self):
        tau = np.linspace(0.0, 0.4, 15)
        result = ft.fit_echo_decay(tau, ft.echo_decay_profile(tau, 2.0, 0.15))
        assert abs(result["t2"] / 0.15 - 1) < 1e-6
        assert abs(result["e0"] / 2.0 - 1) < 1e-6

    def test_non_decaying_flagged(self, monkeypatch):
        def no_differences(*args):
            raise AssertionError("forward differences where the exact "
                                 "Jacobian exists")

        monkeypatch.setattr(ft, "_forward_jacobian", no_differences)
        tau = np.linspace(0, 1, 10)
        result = ft.fit_echo_decay(tau, np.linspace(1, 2, 10))
        assert not result.converged
        assert "non-decaying data" in result.flags


def _synthetic_recovery(temperature, delays, start, noise=0.0, seed=0):
    """Exact relaxation curves from the eigendecomposition of the generator."""
    gen = dyn.slr_generator(PARAMS, temperature)
    w, v = np.linalg.eig(gen)
    v_inv = np.linalg.inv(v)
    curves = np.real(np.einsum("ik,tk,kj,j->ti", v,
                               np.exp(np.outer(delays, w)), v_inv, start))
    if noise:
        rng = np.random.default_rng(seed)
        curves = np.clip(curves + rng.normal(0, noise, curves.shape), 0, 1)
    return curves


class TestSlrRecovery:
    def test_equilibrium_temperature_recovery(self):
        delays = np.geomspace(3e2, 4e5, 14)
        curves = _synthetic_recovery(0.14, delays, np.array([1.0, 0.0, 0.0]),
                                     noise=0.004)
        result = ft.fit_slr_recovery(delays, curves,
                                     dyn.ground_group_energies(PARAMS))
        assert abs(result["t_eq"] - 0.14) / 0.14 < 0.10

    def test_equilibrium_start_unidentifiable(self):
        delays = np.geomspace(1e2, 1e5, 10)
        eq = dyn.boltzmann_populations(dyn.ground_group_energies(PARAMS), 0.14,
                                       degeneracies=(1, 2, 1))
        curves = np.tile(eq, (delays.size, 1))
        result = ft.fit_slr_recovery(delays, curves,
                                     dyn.ground_group_energies(PARAMS))
        assert any("unidentifiable" in flag for flag in result.flags)

    def test_rates_vs_temperature_refit_matches_polynomial(self):
        # round trip: recovery rates synthesized from the rate law with 5
        # percent scatter, then refit by R0 + a1 T^2 + a2 T^9
        temperatures = np.array([0.1, 0.3, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8, 3.2, 3.6])
        rng = np.random.default_rng(11)
        rates = np.array([dyn.slr_rate(t, dyn.SLR_UPPER) for t in temperatures])
        rates = rates * (1 + 0.05 * rng.normal(size=rates.size))

        def model(p):
            return np.log(p[0] + p[1] * temperatures**2 + p[2] * temperatures**9)

        result = ft.least_squares(model, np.log(rates),
                                  [1e-5, 1e-3, 1e-4],
                                  bounds=[(1e-12, 1.0)] * 3,
                                  names=("r0", "a1", "a2"))
        assert abs(result["a1"] - dyn.SLR_UPPER.a1_hz_k2) / dyn.SLR_UPPER.a1_hz_k2 < 0.2
        assert abs(result["a2"] - dyn.SLR_UPPER.a2_hz_k9) / dyn.SLR_UPPER.a2_hz_k9 < 0.2

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            ft.fit_slr_recovery([1, 2, 3], np.zeros((3, 3)),
                                dyn.ground_group_energies(PARAMS))
        with pytest.raises(ValidationError):
            ft.fit_slr_recovery([1, 2, 3, 4], np.full((4, 3), 1.5),
                                dyn.ground_group_energies(PARAMS))


def _noisy_sweeps(rng, params, spec_truth):
    grid = (-4.5, 5.0, 500)
    currents = np.linspace(0.5, 10.0, 18)
    perp = ft.simulate_current_sweep(params, (1, 0, 0), currents, 166.20, grid)
    para = ft.simulate_current_sweep(params, (0, 0, 1), currents, 143.64, grid)
    sweeps = []
    for sweep in (perp, para):
        noise = 0.02 * sweep.absorption.max()
        sweeps.append(ft.SweepData(
            sweep.currents_a, sweep.axis, sweep.detuning_ghz,
            sweep.absorption + rng.normal(0, noise, sweep.absorption.shape)))
    return sweeps


class TestFieldSweepFit:
    def test_round_trip_with_noise(self):
        params = default_params("field-sweep-fit")
        rng = np.random.default_rng(7)
        sweeps = _noisy_sweeps(rng, params, None)
        spec = ft.FieldSweepFitSpec(g_e_parallel=-1.40, g_e_perpendicular=1.30,
                                    scales_g_per_a=(160.0, 150.0),
                                    amplitude_171=0.9, amplitude_i0=0.8,
                                    offset_ghz=0.05)
        result = ft.fit_field_sweep(sweeps, spec, params)
        assert result.converged
        assert abs(result["g_e_parallel"] / -1.451 - 1) < 0.01
        assert abs(result["g_e_perpendicular"] / 1.361 - 1) < 0.01
        assert abs(result["scale_0"] / 166.20 - 1) < 0.01
        assert abs(result["scale_1"] / 143.64 - 1) < 0.01

    def test_noiseless_round_trip_exact(self):
        params = default_params("field-sweep-fit")
        grid = (-4.0, 4.5, 300)
        currents = np.linspace(1.0, 9.0, 9)
        sweep = ft.simulate_current_sweep(params, (1, 0, 0), currents, 166.20, grid)
        spec = ft.FieldSweepFitSpec(g_e_parallel=-1.451, g_e_perpendicular=1.34,
                                    scales_g_per_a=(162.0,))
        result = ft.fit_field_sweep(sweep, spec, params)
        assert abs(result["g_e_perpendicular"] / 1.361 - 1) < 1e-4
        assert abs(result["scale_0"] / 166.20 - 1) < 1e-4

    def test_parallel_axis_scale_recovery(self):
        params = default_params("field-sweep-fit")
        grid = (-4.0, 4.5, 300)
        currents = np.linspace(1.0, 10.0, 10)
        rng = np.random.default_rng(8)
        sweep = ft.simulate_current_sweep(params, (0, 0, 1), currents, 143.63, grid)
        noisy = ft.SweepData(sweep.currents_a, sweep.axis, sweep.detuning_ghz,
                             sweep.absorption + rng.normal(
                                 0, 0.02 * sweep.absorption.max(),
                                 sweep.absorption.shape))
        spec = ft.FieldSweepFitSpec(g_e_parallel=-1.40, g_e_perpendicular=1.361,
                                    scales_g_per_a=(150.0,))
        result = ft.fit_field_sweep(noisy, spec, params)
        assert abs(result["scale_0"] / 143.63 - 1) < 0.01

    def test_scale_count_must_match(self):
        params = default_params()
        sweep = ft.simulate_current_sweep(params, (1, 0, 0),
                                          np.linspace(1, 5, 5), 166.2,
                                          (-2, 2, 50))
        with pytest.raises(ValidationError):
            ft.fit_field_sweep([sweep], ft.FieldSweepFitSpec(
                scales_g_per_a=(160.0, 140.0)), params)

    @pytest.mark.parametrize("axis", [(0.0, 0.0, 0.0), (np.nan, 0.0, 1.0),
                                      (0.0, -np.inf, 0.0), (1.0, 0.0)])
    def test_simulation_rejects_a_bad_axis_by_name(self, axis):
        with warnings.catch_warnings():
            warnings.simplefilter("error")    # no RuntimeWarning on the way
            with pytest.raises(ValidationError,
                               match="axis must be a finite, non-zero 3-vector"):
                ft.simulate_current_sweep(PARAMS, axis, np.linspace(1, 5, 5),
                                          166.2, (-2, 2, 50))

    @pytest.mark.parametrize("grid", [(-1, 1, 1), (1, -1, 100), (1, 1, 100)])
    def test_simulation_rejects_a_bad_grid(self, grid):
        with pytest.raises(ValidationError, match="grid"):
            ft.simulate_current_sweep(PARAMS, (1, 0, 0), np.linspace(1, 5, 5),
                                      166.2, grid)


class TestRoundTripIdentifiability:
    def test_all_models_recover_noiseless_truth(self):
        x = np.linspace(-2, 2, 60)
        gauss_truth = [0.3, 0.9, 1.4, 0.2]
        result = ft.fit_gaussian_line(x, ft.gaussian_profile(x, *gauss_truth))
        for name, value in zip(("center", "fwhm", "amplitude", "offset"),
                               gauss_truth):
            assert abs(result[name] - value) <= 1e-6 * max(abs(value), 1e-9)

        tau = np.linspace(0, 1.0, 25)
        echo = ft.fit_echo_decay(tau, ft.echo_decay_profile(tau, 1.7, 0.3))
        assert abs(echo["t2"] / 0.3 - 1) < 1e-6

        # recovery model round trip: data generated by the fit model itself
        delays = np.geomspace(1e3, 5e5, 12)
        energies = dyn.ground_group_energies(PARAMS)
        truth = np.array([0.2, 0.9, 2.4e4, 0.08, 3.1e4, 0.02, 2.0e4])
        stacked = ft.recovery_profiles(delays, truth, energies, (1, 2, 1))
        recovery = ft.fit_slr_recovery(delays, stacked.reshape(3, -1).T, energies)
        assert abs(recovery["t_eq"] / 0.2 - 1) < 1e-4
        for k, name in enumerate(("t_r_1", "t_r_23", "t_r_4")):
            assert abs(recovery[name] / truth[2 + 2 * k] - 1) < 1e-3


# --- batched sweep model against the per-current reference -----------------

def _reference_sweep_prediction(sweeps, params, p_vector):
    """The sweep model as one eigvalsh and two Gaussian calls per current:
    the loop the batched ft._sweep_model replaced, kept as its reference."""
    from ybcawo4 import _kernels, spectra, spinham
    from ybcawo4.constants import CONSTANTS

    n_sweeps = len(sweeps)
    g_par_e, g_perp_e = p_vector[0], p_vector[1]
    scales = p_vector[2:2 + n_sweeps]
    amp171, amp_i0, offset = p_vector[2 + n_sweeps:5 + n_sweeps]
    trial = replace(params, g_excited=g_tensor(g_par_e, g_perp_e), g_n=0.0)
    mu = CONSTANTS.mu_b_ghz_per_t
    blocks = []
    for sweep, scale in zip(sweeps, scales):
        fields_mt = (0.1 * scale * sweep.currents_a)[:, None] * sweep.axis[None, :]
        e_g = spinham.manifold_energies(trial, Manifold.GROUND, fields_mt)
        e_e = spinham.manifold_energies(trial, Manifold.EXCITED, fields_mt)
        d = sweep.axis
        g_eff_g = np.sqrt((params.g_ground.parallel * d[2]) ** 2
                          + params.g_ground.perpendicular**2 * (d[0]**2 + d[1]**2))
        g_eff_e = np.sqrt((g_par_e * d[2]) ** 2
                          + abs(g_perp_e) ** 2 * (d[0]**2 + d[1]**2))
        b_mags_t = 0.1 * scale * sweep.currents_a * 1e-3
        for k in range(sweep.currents_a.size):
            detunings = (e_e[k][None, :] - e_g[k][:, None]).ravel() + offset
            split_g = g_eff_g * mu * b_mags_t[k]
            split_e = g_eff_e * mu * b_mags_t[k]
            i0_centers = np.array([(se - sg) / 2.0 + offset
                                   for sg in (-split_g, split_g)
                                   for se in (-split_e, split_e)])
            y = _kernels.gaussian_profile(sweep.detuning_ghz, detunings,
                                          np.full(16, amp171),
                                          spectra.SWEEP_FWHM_171_MHZ * 1e-3)
            y = y + _kernels.gaussian_profile(sweep.detuning_ghz, i0_centers,
                                              np.full(4, amp_i0 / 4.0),
                                              spectra.SWEEP_FWHM_I0_MHZ * 1e-3)
            blocks.append(y)
    return np.concatenate(blocks)


SWEEP_AXES = {"a": (1.0, 0.0, 0.0), "c": (0.0, 0.0, 1.0),
              "oblique": (0.6, 0.3, 0.742)}
# along c, two excited-manifold levels cross near 0.47955 A at 150 G/A
CROSSING_CURRENT_A = 0.4795535


def _blank_sweep(axis, currents, grid=(-4.5, 5.0, 240)):
    axis = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    x = np.linspace(*grid[:2], grid[2])
    return ft.SweepData(np.asarray(currents, dtype=float), axis, x,
                        np.zeros((len(currents), x.size)))


def _sweep_p_vector(n_sweeps):
    scales = [166.2, 143.6, 150.0][:n_sweeps]
    return np.array([-1.451, 1.361, *scales, 1.1, 0.9, 0.03])


def _reference_sweep_centres(sweeps, params, scales):
    """The centre assembly _sweep_lines made before spectra.optical_lines:
    one raw eigh per manifold over every row, e_e[j] - e_g[i] in column
    4 i + j and the I = 0 centres after them, kept as its reference."""
    from ybcawo4 import spectra, spinham

    currents = np.concatenate([sweep.currents_a for sweep in sweeps])
    sizes = [sweep.currents_a.size for sweep in sweeps]
    axes = np.repeat([sweep.axis for sweep in sweeps], sizes, axis=0)
    fields_mt = (0.1 * np.repeat(scales, sizes) * currents)[:, None] * axes
    e_g, _ = np.linalg.eigh(spinham.hamiltonians(params, Manifold.GROUND, fields_mt))
    e_e, _ = np.linalg.eigh(spinham.hamiltonians(params, Manifold.EXCITED, fields_mt))
    n = currents.size
    centres = np.empty((n, 20))
    centres[:, :16] = (e_e[:, None, :] - e_g[:, :, None]).reshape(n, 16)
    centres[:, 16:] = spectra.zero_spin_centers(params, fields_mt)
    return centres


class TestBatchedSweepModel:
    PARAMS = default_params("field-sweep-fit")

    @pytest.mark.parametrize("axis", sorted(SWEEP_AXES))
    def test_matches_per_current_reference(self, axis):
        sweeps = [_blank_sweep(SWEEP_AXES[axis], np.linspace(0.5, 10.0, 13),
                               (-4.5, 5.0, 600))]
        p = _sweep_p_vector(1)
        reference = _reference_sweep_prediction(sweeps, self.PARAMS, p)
        batched = ft._sweep_model(sweeps, self.PARAMS, p)
        # summation order and eigh vs eigvalsh differ in the last bits only
        assert np.max(np.abs(batched - reference)) <= 1e-13 * np.max(reference)

    def test_line_centres_equal_the_raw_eigh_assembly(self):
        currents = np.sort(np.append(np.linspace(0.5, 10.0, 7), CROSSING_CURRENT_A))
        sweeps = [_blank_sweep(SWEEP_AXES[name], currents)
                  for name in ("a", "c", "oblique")]
        p = _sweep_p_vector(3)
        trial = replace(self.PARAMS, g_excited=g_tensor(p[0], p[1]), g_n=0.0)
        reference = _reference_sweep_centres(sweeps, trial, p[2:5])
        for derivatives in (False, True):
            centres, _ = ft._sweep_lines(sweeps, trial, p[2:5], derivatives)
            assert np.array_equal(centres, reference)

    def test_jacobian_matches_central_differences(self):
        currents = np.sort(np.append(np.linspace(0.5, 10.0, 7), CROSSING_CURRENT_A))
        sweeps = [_blank_sweep(SWEEP_AXES[name], currents)
                  for name in ("a", "c", "oblique")]
        p = _sweep_p_vector(3)
        jac = ft._sweep_model(sweeps, self.PARAMS, p, jacobian=True)
        assert jac.shape == (sum(s.absorption.size for s in sweeps), p.size)

        def central(k, h):
            up, down = p.copy(), p.copy()
            up[k] += h
            down[k] -= h
            return (ft._sweep_model(sweeps, self.PARAMS, up)
                    - ft._sweep_model(sweeps, self.PARAMS, down)) / (2 * h)

        for k in range(p.size):
            h = 1e-4 * max(abs(p[k]), 1e-2)
            # Richardson extrapolation removes the O(h^2) term
            numeric = (4.0 * central(k, h / 2) - central(k, h)) / 3.0
            scale = np.max(np.abs(jac[:, k]))
            assert scale > 0
            assert np.max(np.abs(numeric - jac[:, k])) <= 1e-8 * scale, k

    def test_crossing_current_is_near_a_level_crossing(self):
        from ybcawo4 import spinham
        energies = spinham.manifold_energies(
            replace(self.PARAMS, g_n=0.0), Manifold.EXCITED,
            [(0.0, 0.0, 0.1 * 150.0 * CROSSING_CURRENT_A)])
        assert np.min(np.diff(energies[0])) < 1e-4

    def test_block_size_does_not_change_results(self, monkeypatch):
        sweeps = [_blank_sweep(SWEEP_AXES["oblique"], np.linspace(0.5, 10.0, 9))]
        p = _sweep_p_vector(1)
        one = ft._sweep_model(sweeps, self.PARAMS, p)
        one_jac = ft._sweep_model(sweeps, self.PARAMS, p, jacobian=True)
        monkeypatch.setattr(ft, "_BLOCK_CELLS", 4 * 20 * 240)
        many = ft._sweep_model(sweeps, self.PARAMS, p)
        many_jac = ft._sweep_model(sweeps, self.PARAMS, p, jacobian=True)
        assert np.allclose(many, one, rtol=0, atol=1e-13 * np.max(one))
        assert np.allclose(many_jac, one_jac, rtol=0,
                           atol=1e-13 * np.max(np.abs(one_jac)))


class TestIdentifiability:
    def test_full_rank_uncertainties_equal_normal_equations(self):
        x = np.linspace(0, 4, 50)
        rng = np.random.default_rng(1)
        y = 2.0 * np.exp(-1.3 * x) + rng.normal(0, 0.01, x.size)
        result = ft.least_squares(lambda p: p[0] * np.exp(-p[1] * x), y,
                                  [1.0, 0.5],
                                  jacobian=lambda p: np.column_stack(
                                      [np.exp(-p[1] * x),
                                       -p[0] * x * np.exp(-p[1] * x)]))
        p = result.values
        jac = np.column_stack([np.exp(-p[1] * x), -p[0] * x * np.exp(-p[1] * x)])
        sigma_sq = result.residual_norm ** 2 / (x.size - 2)
        expected = np.sqrt(np.diag(sigma_sq * np.linalg.inv(jac.T @ jac)))
        assert result.converged and not result.flags
        assert np.allclose(result.uncertainties, expected, rtol=1e-9)

    def test_collinear_pair_both_unidentifiable(self):
        x = np.linspace(0, 1, 10)
        result = ft.least_squares(lambda p: p[0] * x + p[1] * x + p[2], 2 * x + 1,
                                  [1.0, 1.0, 0.0], names=("a", "b", "c"))
        assert not result.converged
        assert result.flags == ("singular jacobian", "a unidentifiable",
                                "b unidentifiable")
        assert np.isinf(result.uncertainties[:2]).all()
        assert np.isfinite(result.uncertainties[2])

    def test_fewer_points_than_parameters(self):
        result = ft.least_squares(lambda p: np.array([p[0] + p[1]]),
                                  np.array([1.0]), [0.0, 0.0],
                                  names=("a", "b"))
        assert not result.converged
        assert result.flags == ("singular jacobian", "a unidentifiable",
                                "b unidentifiable")
        assert np.isinf(result.uncertainties).all()

    def test_single_perpendicular_sweep_leaves_only_g_parallel_open(self):
        params = default_params("field-sweep-fit")
        sweep = ft.simulate_current_sweep(params, (1, 0, 0),
                                          np.linspace(1.0, 9.0, 9), 166.20,
                                          (-4.0, 4.5, 300))
        rng = np.random.default_rng(3)
        noisy = ft.SweepData(sweep.currents_a, sweep.axis, sweep.detuning_ghz,
                             sweep.absorption + rng.normal(
                                 0, 0.02 * sweep.absorption.max(),
                                 sweep.absorption.shape))
        result = ft.fit_field_sweep(noisy, ft.FieldSweepFitSpec(
            g_e_perpendicular=1.34, scales_g_per_a=(162.0,)), params)
        assert not result.converged
        assert result.flags == ("singular jacobian", "g_e_parallel unidentifiable")
        assert np.isinf(result.uncertainty("g_e_parallel"))
        for name in result.names[1:]:
            assert 0.0 < result.uncertainty(name) < np.inf
        assert abs(result["g_e_perpendicular"] / 1.361 - 1) < 0.01
