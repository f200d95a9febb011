import math
from dataclasses import replace

import numpy as np
import pytest

from ybcawo4 import dynamics as dyn
from ybcawo4.constants import DIPOLE_HZ_CM3, thermal_occupation_factor
from ybcawo4.errors import DomainError, ValidationError
from ybcawo4.params import (EXCITED_GROUPS, EXCITED_LEVEL_GROUP,
                            EXCITED_MULTIPLICITIES, GROUND_GROUPS,
                            GROUND_LEVEL_GROUP, GROUND_MULTIPLICITIES,
                            a_tensor, default_params, g_tensor)
from ybcawo4.spectra import MEASURED_BRANCHING, BranchingTable

PARAMS = default_params()


class TestDopantDistance:
    def test_five_ppm_distance(self):
        got = dyn.average_dopant_distance(0.2795, 4, 5e-6)
        assert abs(got - 24.2) / 24.2 < 0.01
        assert got == pytest.approx(24.087, abs=1e-3)

    def test_fully_occupied_lattice(self):
        got = dyn.average_dopant_distance(0.2795, 4, 1.0)
        assert abs(got - 0.411) / 0.411 < 0.01
        assert got == pytest.approx(0.41188, abs=1e-5)

    def test_cube_root_scaling(self):
        base = dyn.average_dopant_distance(0.2795, 4, 8e-6)
        assert dyn.average_dopant_distance(0.2795, 4, 1e-6) == \
            pytest.approx(2 * base, rel=1e-12)

    def test_zero_occupancy_rejected(self):
        with pytest.raises(DomainError):
            dyn.average_dopant_distance(0.2795, 4, 0.0)


def _spherical_quadrature_of_dipolar_coupling(g4_scale, prefactor_inv, r_cm,
                                              n_theta=64, n_phi=64):
    """Independent oracle: integrate the squared pair coupling over the sphere.

    Integrand: (dipole coupling)^2 * g^4 * (l^2 + m^2 - 2 n^2)^2
    / (prefactor_inv * r^6), with (l, m, n) the direction cosines of the
    pair separation; Gauss-Legendre in cos(theta), midpoint in phi.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    phis = (np.arange(n_phi) + 0.5) * 2 * np.pi / n_phi
    total = 0.0
    for u, w in zip(nodes, weights):
        sin_t = math.sqrt(1 - u * u)
        for phi in phis:
            l = sin_t * math.cos(phi)
            m = sin_t * math.sin(phi)
            n = u
            total += w * (l * l + m * m - 2 * n * n) ** 2
    total *= 2 * np.pi / n_phi
    return DIPOLE_HZ_CM3**2 * g4_scale * total / (prefactor_inv * r_cm**6)


class TestFlipFlopAngularIntegrals:
    def test_prefactors_against_quadrature(self):
        rng = np.random.default_rng(0)
        r_nm = 24.087
        for _ in range(100):
            g = g_tensor(rng.uniform(0.2, 6.0), rng.uniform(0.2, 6.0))
            numeric_par = _spherical_quadrature_of_dipolar_coupling(
                g.parallel**4, 32.0, r_nm * 1e-7)
            numeric_perp = _spherical_quadrature_of_dipolar_coupling(
                g.perpendicular**4, 128.0, r_nm * 1e-7)
            closed_par = dyn.flipflop_beta_integrated((1, 4), g, r_nm)
            closed_perp = dyn.flipflop_beta_integrated((1, 2), g, r_nm)
            assert abs(numeric_par / closed_par - 1) < 1e-6
            assert abs(numeric_perp / closed_perp - 1) < 1e-6

    def test_channel_ratio_with_default_tensors(self):
        ratio = (dyn.flipflop_coupling((1, 2), PARAMS.g_ground)
                 / dyn.flipflop_coupling((1, 4), PARAMS.g_ground))
        expected = (PARAMS.g_ground.perpendicular / PARAMS.g_ground.parallel) ** 4 / 4
        assert ratio == pytest.approx(expected, rel=1e-12)
        assert ratio == pytest.approx(47.8, abs=0.1)

    def test_isotropic_ratio_is_one_quarter(self):
        g = g_tensor(2.0, 2.0)
        assert dyn.flipflop_coupling((1, 2), g) / dyn.flipflop_coupling((1, 4), g) \
            == pytest.approx(0.25, rel=1e-12)

    def test_doublet_internal_pair_rejected(self):
        with pytest.raises(ValidationError):
            dyn.flipflop_coupling((2, 3), PARAMS.g_ground)

    def test_distance_scaling(self):
        g = PARAMS.g_ground
        assert dyn.flipflop_beta_integrated((1, 4), g, 10.0) == \
            pytest.approx(64 * dyn.flipflop_beta_integrated((1, 4), g, 20.0),
                          rel=1e-12)


class TestFlipFlopRate:
    def test_thermal_factor_unity_at_zero_splitting(self):
        p = dyn.FlipFlopParams((1, 4), 1.0, 1.0, 1.0, 0.0, 0.0, 0.3)
        q = dyn.FlipFlopParams((1, 4), 1.0, 1.0, 1.0, 0.0, 0.0, 300.0)
        assert dyn.flipflop_rate(p) == pytest.approx(dyn.flipflop_rate(q), rel=1e-9)
        assert thermal_occupation_factor(0.0, 0.1) == 1.0

    def test_thermal_factor_clock_splitting(self):
        assert thermal_occupation_factor(3.08187, 0.14) == \
            pytest.approx(0.766, abs=1e-3)

    def test_thermal_factor_bounds_and_monotonicity(self):
        previous = 0.0
        for t in (0.05, 0.1, 0.3, 1.0, 4.0):
            value = thermal_occupation_factor(1.2, t)
            assert previous < value <= 1.0
            previous = value

    def test_doublet_channel_rate_scale(self):
        beta = dyn.flipflop_coupling((1, 2), PARAMS.g_ground)
        p = dyn.FlipFlopParams((1, 2), beta, PARAMS.spin_density_cm3(),
                               5.0, 0.0, 1.146410, 1.0)
        rate = dyn.flipflop_rate(p)
        assert 1e3 <= rate < 1e4  # order-of-magnitude statement only

    def test_zero_linewidth_rejected(self):
        p = dyn.FlipFlopParams((1, 4), 1.0, 1.0, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            dyn.flipflop_rate(p)


class TestTemperatureChecks:
    """Every temperature check fails NaN, not only zero and negative values."""

    @pytest.mark.parametrize("temperature", [0.0, -1.0, math.nan])
    def test_non_positive_temperature_rejected(self, temperature):
        with pytest.raises(ValidationError, match="temperature must be positive"):
            dyn.slr_rate(temperature, dyn.SLR_DOUBLET)
        with pytest.raises(ValidationError, match="temperature must be positive"):
            dyn.boltzmann_populations([0.0, 1.0], temperature)
        with pytest.raises(ValidationError, match="temperature must be positive"):
            dyn.FlipFlopParams((1, 4), 1.0, 1.0, 1.0, 0.0, 0.0, temperature)
        with pytest.raises(ValidationError, match="temperature must be positive"):
            dyn.pump_simulation(dyn.PumpConfig(temperature_k=temperature), PARAMS)
        with pytest.raises(ValidationError, match="temperature grid"):
            dyn.t2_vs_temperature(PARAMS, [1.0, temperature])

    @pytest.mark.parametrize("duration", [0.0, math.nan])
    def test_non_positive_pump_duration_rejected(self, duration):
        with pytest.raises(ValidationError, match="duration must be positive"):
            dyn.PumpConfig(duration_s=duration)


class TestSpinLatticeRelaxation:
    def test_rate_at_one_kelvin(self):
        assert dyn.slr_rate(1.0, dyn.SLR_UPPER) == pytest.approx(9.45e-4, rel=1e-12)

    def test_crossover_temperature(self):
        assert dyn.slr_crossover_temperature(dyn.SLR_UPPER) == \
            pytest.approx((9.0 / 0.25) ** (1 / 7), rel=1e-12)
        assert dyn.slr_crossover_temperature(dyn.SLR_UPPER) == \
            pytest.approx(1.67, abs=0.01)

    def test_low_temperature_limit(self):
        assert dyn.slr_rate(1e-6, dyn.SLR_UPPER) == pytest.approx(0.2e-4, rel=1e-6)

    def test_raman_term_dominates_at_high_temperature(self):
        assert dyn.slr_rate(3.0, dyn.SLR_DOUBLET) == \
            pytest.approx(0.55e-4 * 3**9, rel=0.05)


class TestBoltzmann:
    def test_equilibrium_at_140_mk(self):
        pops = dyn.boltzmann_populations(dyn.ground_level_energies(PARAMS), 0.14)
        assert np.allclose(pops, [0.3707, 0.2502, 0.2502, 0.1289], atol=5e-4)

    def test_infinite_temperature_limit(self):
        pops = dyn.boltzmann_populations(dyn.ground_level_energies(PARAMS), 1e6)
        assert np.allclose(pops, 0.25, atol=1e-6)

    def test_zero_temperature_limit(self):
        pops = dyn.boltzmann_populations(dyn.ground_level_energies(PARAMS), 1e-3)
        assert np.allclose(pops, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_degeneracy_weighting(self):
        pops = dyn.boltzmann_populations([0.0, 1.0], 1e5, degeneracies=(1, 2))
        assert pops[1] == pytest.approx(2 / 3, abs=1e-4)


class TestDetailedBalance:
    @pytest.mark.parametrize("temperature", [0.05, 0.14, 0.5, 1.0, 3.0])
    def test_stationary_state_is_boltzmann(self, temperature):
        gen = dyn.slr_generator(PARAMS, temperature)
        pi = dyn.boltzmann_populations(dyn.ground_group_energies(PARAMS),
                                       temperature, degeneracies=(1, 2, 1))
        assert np.max(np.abs(gen @ pi)) < 1e-6 * np.max(np.abs(gen))
        assert np.max(np.abs(dyn.stationary_state(gen) - pi)) < 1e-6

    def test_columns_conserve_population(self):
        gen = dyn.slr_generator(PARAMS, 0.3)
        assert np.allclose(gen.sum(axis=0), 0.0, atol=1e-18)


class TestPumpSimulation:
    def test_default_pump_polarizes_into_level_one(self):
        result = dyn.pump_simulation(dyn.PumpConfig(), PARAMS)
        assert result.times_s[-1] == pytest.approx(0.3, rel=1e-9)
        assert result.final()[0] > 0.99

    def test_population_conservation_and_bounds(self):
        result = dyn.pump_simulation(dyn.PumpConfig(), PARAMS)
        sums = result.populations.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-6
        assert result.populations.min() > -1e-9
        assert result.populations.max() < 1 + 1e-9

    def test_zero_pump_equilibrium_is_stationary(self):
        config = dyn.PumpConfig(transitions=(), duration_s=5.0, temperature_k=0.14)
        start = dyn.equilibrium_populations(PARAMS, 0.14)
        _, populations = dyn._integrate_linear(
            dyn._pump_rate_matrix(config, PARAMS), start, config.duration_s)
        assert np.max(np.abs(populations - start[None, :])) < 1e-9

    def test_zero_pump_relaxes_toward_equilibrium(self):
        # polarized start decays toward the thermal state at roughly the
        # tabulated recovery rate
        temperature = 0.14
        config = dyn.PumpConfig(transitions=(), duration_s=2e5,
                                temperature_k=temperature)
        start = np.zeros(8)
        start[0] = 1.0
        times, populations = dyn._integrate_linear(
            dyn._pump_rate_matrix(config, PARAMS), start, config.duration_s)
        eq = dyn.equilibrium_populations(PARAMS, temperature)
        assert np.max(np.abs(populations[-1] - eq)) < 0.02
        # single-exponential fit of the level-1 approach
        n1 = populations[:, 0]
        mask = (n1 - eq[0]) > 1e-3
        slope = np.polyfit(times[mask],
                           np.log(n1[mask] - eq[0]), 1)[0]
        recovery = dyn.slr_rate(temperature, dyn.SLR_DOUBLET)
        assert 0.2 * recovery < -slope < 5 * recovery

    def test_branching_without_decay_path_rejected(self):
        table = BranchingTable(np.array([[0.0, 1.0, 1.0],
                                         [0.0, 1.0, 1.0],
                                         [0.0, 1.0, 1.0]]))
        with pytest.raises(ValidationError):
            dyn.pump_simulation(dyn.PumpConfig(branching=table), PARAMS)


# The level-group lifting as it was written before the layout moved to
# params: hand-typed member lists and nested loops.  Kept as the reference
# for dynamics._into_ground_levels, which must equal it bit for bit.
def _reference_expand_ground_generator(group_gen):
    members = {0: [0], 1: [1, 2], 2: [3]}
    g4 = np.zeros((4, 4))
    for src_grp, src_levels in members.items():
        for dst_grp, dst_levels in members.items():
            if src_grp == dst_grp:
                continue
            per_level = group_gen[dst_grp, src_grp] / len(dst_levels)
            for s in src_levels:
                for d in dst_levels:
                    g4[d, s] += per_level
    for k in range(4):
        g4[k, k] = -(g4[:, k].sum() - g4[k, k])
    return g4


def _reference_pump_rate_matrix(config, params):
    excited_group_of_level = {1: 0, 2: 0, 3: 1, 4: 2}
    m = np.zeros((8, 8))
    decay = 1.0 / params.t1_optical_s
    w = config.branching.weights
    members = {0: [0], 1: [1, 2], 2: [3]}
    for j in range(4):
        col = w[:, excited_group_of_level[j + 1]]
        fractions = col / col.sum()
        src = 4 + j
        for grp, frac in enumerate(fractions):
            for level in members[grp]:
                m[level, src] += decay * frac / len(members[grp])
        m[src, src] -= decay
    for (g_level, e_level), rate in config.transitions:
        gi, ei = g_level - 1, 4 + e_level - 1
        m[ei, gi] += rate
        m[gi, gi] -= rate
        m[gi, ei] += rate
        m[ei, ei] -= rate
    group_gen = dyn.slr_generator(params, config.temperature_k)
    m[:4, :4] += _reference_expand_ground_generator(group_gen)
    return m


def _random_branching(rng):
    """3x3 table with some exact zeros and no all-zero column."""
    w = rng.uniform(0.0, 1.0, (3, 3)) * (rng.uniform(size=(3, 3)) > 0.3)
    w[rng.integers(3, size=3), np.arange(3)] = rng.uniform(0.05, 1.0, 3)
    return BranchingTable(w)


class TestLevelGroupLifting:
    def test_layout_multiplicities(self):
        assert GROUND_MULTIPLICITIES == (1, 2, 1)
        assert EXCITED_MULTIPLICITIES == (2, 1, 1)
        assert GROUND_LEVEL_GROUP == (0, 1, 1, 2)
        assert EXCITED_LEVEL_GROUP == (0, 0, 1, 2)
        for groups, level_group in ((GROUND_GROUPS, GROUND_LEVEL_GROUP),
                                    (EXCITED_GROUPS, EXCITED_LEVEL_GROUP)):
            assert [str(level + 1) in groups[k]
                    for level, k in enumerate(level_group)] == [True] * 4
        assert np.array_equal(dyn.ground_level_energies(PARAMS),
                              dyn.ground_group_energies(PARAMS)[[0, 1, 1, 2]])

    def test_expand_generator_equals_the_loops(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            gen = rng.uniform(0.0, 10.0, (3, 3)) * 10.0 ** rng.uniform(-6, 3)
            gen[rng.uniform(size=(3, 3)) < 0.2] = 0.0
            assert np.array_equal(dyn._expand_ground_generator(gen),
                                  _reference_expand_ground_generator(gen))

    def test_pump_rate_matrix_equals_the_loops(self):
        rng = np.random.default_rng(12)
        temperatures = np.geomspace(0.01, 5.0, 12)
        for k in range(60):
            rates = rng.uniform(0.0, 1e4, 6) * (rng.uniform(size=6) > 0.25)
            if k % 3 == 0:
                rates[:] = 0.0
            transitions = tuple(((int(g), int(e)), float(r)) for g, e, r in
                                zip(rng.integers(1, 5, 6), rng.integers(1, 5, 6),
                                    rates))
            branching = _random_branching(rng)
            params = replace(PARAMS, t1_optical_s=rng.uniform(1e-5, 1e-2))
            config = dyn.PumpConfig(transitions=transitions, branching=branching,
                                    temperature_k=float(temperatures[k % 12]))
            assert np.array_equal(dyn._pump_rate_matrix(config, params),
                                  _reference_pump_rate_matrix(config, params))

    def test_measured_tables_equal_the_loops(self):
        for table in MEASURED_BRANCHING.values():
            for temperature in (0.01, 0.05, 0.1234, 1.0, 5.0):
                config = dyn.PumpConfig(branching=table, temperature_k=temperature)
                got = dyn._pump_rate_matrix(config, PARAMS)
                assert np.array_equal(got, _reference_pump_rate_matrix(config, PARAMS))
                assert np.max(np.abs(got.sum(axis=0))) < 1e-9 * np.max(np.abs(got))


class TestGroundLayoutCheck:
    def test_reordered_layout_rejected_by_name(self):
        # A_par = 10, A_perp = 1 GHz puts the doublet on top:
        # levels at -3, -2, 2.5, 2.5 GHz
        params = replace(PARAMS, a_ground=a_tensor(10.0, 1.0))
        with pytest.raises(DomainError) as err:
            dyn.ground_group_energies(params)
        message = str(err.value)
        assert "(1, 1, 2)" in message and "(1, 2, 1)" in message
        assert "('1', '23', '4')" in message
        with pytest.raises(DomainError):
            dyn.pump_simulation(dyn.PumpConfig(duration_s=1e-3), params)
        with pytest.raises(DomainError):
            dyn.t2_vs_temperature(params, [0.1, 1.0])

    def test_reordered_excited_layout_rejected_by_the_pump(self):
        # the same tensor in the excited manifold puts its doublet on top
        params = replace(PARAMS, a_excited=a_tensor(10.0, 1.0))
        with pytest.raises(DomainError, match=r"the excited hyperfine tensor "
                           r".*\(1, 1, 2\).*\('12', '3', '4'\) needs \(2, 1, 1\)"):
            dyn.pump_simulation(dyn.PumpConfig(duration_s=1e-3), params)
        # the spin-lattice side reads the ground layout only
        assert np.array_equal(dyn.ground_group_energies(params),
                              dyn.ground_group_energies(PARAMS))

    def test_default_and_larger_a_perp_accepted(self):
        for params in (PARAMS, default_params("field-sweep-fit"),
                       replace(PARAMS, a_ground=a_tensor(-0.78905, 2.5))):
            energies = dyn.ground_group_energies(params)
            assert np.all(np.diff(energies) > 0)


class TestCoherenceBudgets:
    def test_lifetime_limit(self):
        budget = dyn.coherence_budget_optical(0.385e-3)
        assert budget.t2_s == pytest.approx(0.77e-3, rel=1e-12)

    def test_optical_inversion(self):
        total = dyn.optical_flipflop_from_t2(0.54e-3, 0.385e-3)
        assert total == pytest.approx(1106.3, abs=0.5)
        # round trip: feeding the inferred rate back reproduces T2
        budget = dyn.coherence_budget_optical(0.385e-3, {"(4, 2)": total})
        assert budget.t2_s == pytest.approx(0.54e-3, rel=1e-9)

    def test_budget_inversion_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rates = {f"ch{k}": rng.uniform(0, 2e3) for k in range(3)}
            budget = dyn.coherence_budget_optical(0.385e-3, rates)
            recovered = dyn.optical_flipflop_from_t2(budget.t2_s, 0.385e-3)
            assert recovered == pytest.approx(sum(rates.values()), rel=1e-9, abs=1e-9)

    def test_optical_inversion_stops_at_the_radiative_limit(self):
        t1 = 0.385e-3
        assert dyn.optical_flipflop_from_t2(2 * t1, t1) == 0.0
        assert dyn.optical_flipflop_from_t2(0.75e-3, t1) > 0.0
        for t2 in (2 * t1 * (1 + 1e-12), 1e-3, math.inf):
            with pytest.raises(ValidationError, match="t2_s"):
                dyn.optical_flipflop_from_t2(t2, t1)

    @pytest.mark.parametrize("t2", [0.0, -1.0, math.nan])
    def test_inversions_reject_a_non_positive_t2(self, t2):
        with pytest.raises(ValidationError, match="t2_s must be positive"):
            dyn.spin_flipflop_from_t2(t2)
        with pytest.raises(ValidationError, match="t2_s must be positive"):
            dyn.optical_flipflop_from_t2(t2, 0.385e-3)

    def test_spin_budget_lower_bound(self):
        rate = dyn.spin_flipflop_from_t2(0.15)
        assert rate == pytest.approx(13.3, abs=0.1)
        budget = dyn.coherence_budget_spin({(1, 4): rate})
        assert budget.t2_s == pytest.approx(0.15, rel=1e-9)

    def test_all_rates_zero_is_unbounded(self):
        budget = dyn.coherence_budget_spin({})
        assert budget.unbounded
        assert math.isinf(budget.t2_s)

    def test_added_rate_strictly_decreases_t2(self):
        base = dyn.coherence_budget_optical(0.385e-3, {"a": 100.0})
        more = dyn.coherence_budget_optical(0.385e-3, {"a": 100.0, "b": 50.0})
        assert more.t2_s < base.t2_s

    def test_optical_linewidth_never_beats_lifetime_limit(self):
        rng = np.random.default_rng(9)
        t1 = 0.385e-3
        floor = 1.0 / (2.0 * math.pi * (2.0 * t1))
        for _ in range(30):
            rates = {f"ch{k}": rng.uniform(0, 5e3) for k in range(3)}
            budget = dyn.coherence_budget_optical(t1, rates)
            assert budget.gamma_h_hz >= floor - 1e-12
            assert budget.t2_s <= 2 * t1 + 1e-15


class TestTemperatureCurves:
    def test_spin_plateau_below_one_kelvin(self):
        temps = np.array([0.05, 0.14, 0.5, 1.0])
        t2 = dyn.t2_vs_temperature(PARAMS, temps, "spin")
        assert np.allclose(t2, 2.0 / 13.3, rtol=0.05)

    def test_spin_coherence_collapses_by_three_kelvin(self):
        t2 = dyn.t2_vs_temperature(PARAMS, np.array([0.5, 3.0]), "spin")
        assert t2[1] < t2[0] / 10
        assert 10e-3 / 3 < t2[1] < 10e-3 * 3

    def test_optical_at_four_kelvin(self):
        t2 = dyn.t2_vs_temperature(PARAMS, np.array([4.0]), "optical")
        assert 0.2e-3 / 2 < t2[0] < 0.2e-3 * 2

    def test_monotonicity(self):
        temps = np.linspace(0.05, 5.0, 40)
        for mode in ("spin", "optical"):
            t2 = dyn.t2_vs_temperature(PARAMS, temps, mode)
            assert np.all(np.diff(t2) <= 1e-12)

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            dyn.t2_vs_temperature(PARAMS, np.array([0.5, 6.0]), "spin")

    def test_scalar_temperature(self):
        for mode in ("spin", "optical"):
            t2 = dyn.t2_vs_temperature(PARAMS, 1.0, mode)
            assert t2.shape == ()
            assert t2 == dyn.t2_vs_temperature(PARAMS, [1.0], mode)[0]

    def test_flipflop_linewidth_is_the_spin_linewidth(self):
        # Gamma_inh of the doublet flip-flops is params.fwhm_spin_khz: a
        # 100x wider line slows them 100x
        narrow = dyn.t2_vs_temperature(PARAMS, [4.0])[0]
        wide = dyn.t2_vs_temperature(replace(PARAMS, fwhm_spin_khz=500.0),
                                     [4.0])[0]
        floor = dyn.CLOCK_FLIPFLOP_HZ
        assert (2.0 / narrow - floor) == pytest.approx(
            100.0 * (2.0 / wide - floor), rel=1e-9)
