import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from ybcawo4 import spectra as sp
from ybcawo4 import spinham
from ybcawo4.constants import CONSTANTS
from ybcawo4.errors import DomainError, NumericalError, ValidationError
from ybcawo4.params import Manifold, a_tensor, default_params, g_tensor

PARAMS = default_params()
NO_NUCLEAR_ZEEMAN = replace(PARAMS, g_n=0.0)


def _yb_lines(lines):
    return [ln for ln in lines if ln.isotope == "171Yb"]


class TestTransitionCatalog:
    def test_line_counts(self):
        lines = sp.transition_catalog(PARAMS)
        yb = [ln for ln in lines if ln.isotope == "171Yb"]
        assert len(yb) == 16
        # at zero field all four zero-spin lines coincide in one entry
        assert sum(ln.isotope == "I0" for ln in lines) == 1
        at_field = sp.transition_catalog(PARAMS, (0, 0, 50.0))
        assert sum(ln.isotope == "I0" for ln in at_field) == 4
        assert len(at_field) == 20

    def test_zero_field_landmark_detunings(self):
        yb = _yb_lines(sp.transition_catalog(PARAMS))
        by_pair = {(ln.ground_index, ln.excited_index): ln.detuning_ghz for ln in yb}
        assert by_pair[(4, 4)] == pytest.approx(0.33930, abs=1e-5)
        assert by_pair[(1, 4)] == pytest.approx(3.42117, abs=1e-5)
        detunings = sorted(by_pair.values())
        assert detunings[-1] - detunings[0] == pytest.approx(5.88, abs=0.01)

    def test_nine_distinct_detunings_with_multiplicities(self):
        yb = _yb_lines(sp.transition_catalog(PARAMS))
        counts = Counter(round(ln.detuning_ghz, 9) for ln in yb)
        assert len(counts) == 9
        # 4 lines between non-degenerate levels, 4 doubled singlet-doublet
        # detunings, 1 quadruple doublet-doublet detuning
        assert sorted(counts.values()) == [1, 1, 1, 1, 2, 2, 2, 2, 4]

    def test_zero_spin_line_at_configured_offset(self):
        lines = sp.transition_catalog(PARAMS, zero_spin_offset_ghz=0.7)
        i0 = [ln for ln in lines if ln.isotope == "I0"]
        assert len(i0) == 1
        assert i0[0].detuning_ghz == pytest.approx(0.7, abs=1e-12)

    def test_zero_spin_weight_fraction(self):
        lines = sp.transition_catalog(PARAMS, zero_spin_fraction=0.05)
        total_yb = sum(ln.weight for ln in lines if ln.isotope == "171Yb")
        total_i0 = sum(ln.weight for ln in lines if ln.isotope == "I0")
        assert total_i0 == pytest.approx(0.05 * total_yb, rel=1e-12)

    def test_branching_weights_applied(self):
        lines = _yb_lines(sp.transition_catalog(PARAMS, weights="sigma"))
        by_pair = {(ln.ground_index, ln.excited_index): ln.weight for ln in lines}
        assert by_pair[(1, 1)] == pytest.approx(0.3)
        assert by_pair[(1, 4)] == 0.0
        assert by_pair[(2, 1)] == pytest.approx(1.0)
        assert by_pair[(4, 4)] == pytest.approx(0.3)

    def test_unknown_branching_name_rejected(self):
        with pytest.raises(ValidationError):
            sp.transition_catalog(PARAMS, weights="chiral")


class TestBranchingTable:
    def test_line_weight_reads_the_level_groups(self):
        weights = np.arange(9.0).reshape(3, 3) / 10.0
        table = sp.BranchingTable(weights)
        ground = {1: 0, 2: 1, 3: 1, 4: 2}    # |1>g, |2,3>g, |4>g
        excited = {1: 0, 2: 0, 3: 1, 4: 2}   # |1,2>e, |3>e, |4>e
        for i in range(1, 5):
            for j in range(1, 5):
                assert table.line_weight(i, j) == weights[ground[i], excited[j]]

    @pytest.mark.parametrize("levels", [(0, 1), (1, 0), (5, 1), (1, 5)])
    def test_line_weight_rejects_levels_outside_1_to_4(self, levels):
        with pytest.raises(ValidationError, match="1..4"):
            sp.MEASURED_BRANCHING["sigma"].line_weight(*levels)


class TestLevelLayoutCheck:
    """A table is mapped to levels by the layout, so a tensor that reorders
    the zero-field groups of either manifold is rejected; without a table
    no line depends on the layout."""

    REORDERED = {"a_ground": a_tensor(10.0, 1.0), "a_excited": a_tensor(10.0, 1.0)}

    @pytest.mark.parametrize("attribute", ["a_ground", "a_excited"])
    def test_catalog_and_sweep_reject_a_reordered_tensor(self, attribute):
        params = replace(PARAMS, **{attribute: self.REORDERED[attribute]})
        manifold = attribute.split("_")[1]
        with pytest.raises(DomainError, match=f"the {manifold} hyperfine tensor"):
            sp.transition_catalog(params, (0.0, 0.0, 10.0), weights="sigma")
        with pytest.raises(DomainError, match=f"the {manifold} hyperfine tensor"):
            sp.field_sweep_map(params, (0, 0, 1), [0.0, 5.0], (-3.0, 3.0, 31),
                               weights="pi", mixed_weights=True)
        assert len(sp.transition_catalog(params, (0.0, 0.0, 10.0))) == 20


class TestSynthesizeSpectrum:
    def test_unit_area_peak_height(self):
        line = sp.TransitionLine(1, 1, 0.0, 1.0)
        spec = sp.synthesize_spectrum([line], 185.0, (-2.0, 2.0, 8001))
        assert spec.absorption.max() == pytest.approx(5.078, abs=2e-3)
        assert spec.area() == pytest.approx(1.0, rel=1e-4)

    def test_two_separated_lines_resolve(self):
        lines = [sp.TransitionLine(1, 1, -1.0, 1.0), sp.TransitionLine(1, 2, 1.0, 1.0)]
        spec = sp.synthesize_spectrum(lines, 100.0, (-2.0, 2.0, 2001))
        y = spec.absorption
        interior_maxima = np.nonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]))[0]
        assert len(interior_maxima) == 2

    def test_area_equals_total_weight(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            lines = [sp.TransitionLine(1, 1, float(rng.uniform(-2, 2)),
                                       float(rng.uniform(0, 3)))
                     for _ in range(12)]
            spec = sp.synthesize_spectrum(lines, 150.0, (-4.0, 4.0, 16001))
            assert spec.area() == pytest.approx(sum(ln.weight for ln in lines),
                                                rel=1e-3)

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            sp.synthesize_spectrum([], 100.0, (0.0, 1.0, 1))
        with pytest.raises(ValidationError):
            sp.synthesize_spectrum([], -1.0, (0.0, 1.0, 100))


class TestPeakLabels:
    def test_sigma_polarized_zero_field_pattern(self):
        lines = sp.transition_catalog(PARAMS, weights="sigma")
        clusters = sp.label_line_clusters(lines, PARAMS.fwhm_optical_mhz * 1e-3)
        assert [c.label for c in clusters] == list("ABCDEF")
        pairs = {c.label: {(ln.isotope, ln.ground_index, ln.excited_index)
                           for ln in c.lines} for c in clusters}
        # lowest peak addresses |4>g, the echo line D is |4>g-|4>e, the
        # zero-spin isotopes sit at C, and E addresses |1>g
        assert pairs["A"] == {("171Yb", 4, 1), ("171Yb", 4, 2)}
        assert pairs["C"] == {("I0", 1, 1)}
        assert pairs["D"] == {("171Yb", 4, 4)}
        assert all(iso == "171Yb" and g == 1 for iso, g, _ in pairs["E"])
        # the pumping lines A and E share excited levels split by the clock gap
        centers = {c.label: c.center_ghz for c in clusters}
        line_a = min(ln.detuning_ghz for ln in clusters[0].lines)
        line_e = min(ln.detuning_ghz for ln in clusters[4].lines)
        assert line_e - line_a == pytest.approx(3.08187, abs=1e-5)
        assert centers["D"] == pytest.approx(0.33930, abs=1e-5)

    def test_echo_line_dark_for_pi_polarization(self):
        lines = sp.transition_catalog(PARAMS, weights="pi")
        clusters = sp.label_line_clusters(lines, PARAMS.fwhm_optical_mhz * 1e-3)
        centers = [c.center_ghz for c in clusters]
        assert not any(abs(c - 0.33930) < 0.05 for c in centers)

    def test_sigma_spectrum_has_six_maxima(self):
        lines = sp.transition_catalog(PARAMS, weights="sigma")
        spec = sp.synthesize_spectrum(lines, PARAMS.fwhm_optical_mhz,
                                      (-3.2, 4.2, 4001))
        y = spec.absorption
        floor = 0.02 * y.max()
        maxima = np.nonzero((y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:])
                            & (y[1:-1] > floor))[0]
        assert len(maxima) == 6


class TestFieldSweepMap:
    def test_zero_field_column_matches_spectrum(self):
        grid = (-3.2, 4.2, 1501)
        sweep = sp.field_sweep_map(PARAMS, (1, 0, 0), [0.0, 40.0], grid,
                                   fwhm_171_mhz=136.0, fwhm_i0_mhz=153.0)
        lines = sp.transition_catalog(PARAMS, (0, 0, 0))
        yb = [ln for ln in lines if ln.isotope == "171Yb"]
        i0 = [ln for ln in lines if ln.isotope == "I0"]
        direct = (sp.synthesize_spectrum(yb, 136.0, grid).absorption
                  + sp.synthesize_spectrum(i0, 153.0, grid).absorption)
        assert np.allclose(sweep.absorption[0], direct, atol=1e-12)

    def test_line_positions_continuous_in_field(self):
        fields = np.linspace(0.0, 200.0, 41)
        step = fields[1] - fields[0]
        energies_g = spinham.manifold_energies(
            PARAMS, Manifold.GROUND, fields[:, None] * np.array([[1.0, 0, 0]]))
        energies_e = spinham.manifold_energies(
            PARAMS, Manifold.EXCITED, fields[:, None] * np.array([[1.0, 0, 0]]))
        detunings = energies_e[:, None, :] - energies_g[:, :, None]
        max_slope = 0.5 * CONSTANTS.mu_b_ghz_per_t * 1e-3 * (
            abs(PARAMS.g_ground.perpendicular) + abs(PARAMS.g_excited.perpendicular))
        jumps = np.abs(np.diff(detunings, axis=0))
        assert jumps.max() <= max_slope * step * 1.05

    def test_high_field_splitting_grows_linearly(self):
        fields = np.array([400.0, 800.0])
        energies = spinham.manifold_energies(
            PARAMS, Manifold.GROUND, fields[:, None] * np.array([[1.0, 0, 0]]))
        spread = energies[:, 3] - energies[:, 0]
        assert spread[1] / spread[0] == pytest.approx(2.0, rel=0.05)

    def test_mixed_weights_reduce_to_table_at_zero_field(self):
        grid = (-3.2, 4.2, 1201)
        plain = sp.field_sweep_map(PARAMS, (1, 0, 0), [0.0, 10.0], grid,
                                   weights="sigma")
        mixed = sp.field_sweep_map(PARAMS, (1, 0, 0), [0.0, 10.0], grid,
                                   weights="sigma", mixed_weights=True)
        assert np.allclose(plain.absorption[0], mixed.absorption[0], atol=1e-9)

    def test_sweep_needs_multiple_fields(self):
        with pytest.raises(ValidationError):
            sp.field_sweep_map(PARAMS, (1, 0, 0), [0.0], (-1, 1, 100))


def _reference_mixed_weight_table(params, b_mt, table):
    """Per-field mixed weights, as field_sweep_map computed them field by field."""
    eg0 = spinham.eigensystem(params, Manifold.GROUND, (0, 0, 0))
    ee0 = spinham.eigensystem(params, Manifold.EXCITED, (0, 0, 0))
    eg = spinham.eigensystem(params, Manifold.GROUND, b_mt)
    ee = spinham.eigensystem(params, Manifold.EXCITED, b_mt)
    og = np.abs(eg.states.conj().T @ eg0.states) ** 2
    oe = np.abs(ee.states.conj().T @ ee0.states) ** 2
    w0 = np.empty((4, 4))
    for k in range(4):
        for l in range(4):
            w0[k, l] = table.line_weight(k + 1, l + 1)
    return og @ w0 @ oe.T


# --- the per-field catalog that optical_lines replaced, kept as a reference --

def _reference_zero_spin_lines(params, b_mt, offset_ghz, total_weight):
    """The old zero_spin_lines: four lines of total_weight / 4 at the per-field
    I = 0 centres, or one line of the whole weight at the offset at zero field."""
    b = np.asarray(b_mt, dtype=float)
    if np.linalg.norm(b) == 0.0:
        return [sp.TransitionLine(1, 1, offset_ghz, total_weight, isotope="I0")]
    centers = _reference_zero_spin_centers(params, b, offset_ghz)
    return [sp.TransitionLine(i, j, float(centers[2 * i + j - 3]),
                              total_weight / 4.0, isotope="I0")
            for i in (1, 2) for j in (1, 2)]


def _reference_catalog(params, b_mt=(0.0, 0.0, 0.0), weights=None,
                       include_zero_spin=True, zero_spin_offset_ghz=0.0,
                       zero_spin_fraction=sp.DEFAULT_I0_FRACTION):
    """The old transition_catalog body: one eigensystem per manifold at one
    field, a nested loop over the level pairs and a running weight total."""
    if isinstance(weights, str):
        weights = sp.MEASURED_BRANCHING[weights]
    e_g = spinham.eigensystem(params, Manifold.GROUND, b_mt).energies
    e_e = spinham.eigensystem(params, Manifold.EXCITED, b_mt).energies
    pol = weights.polarization if weights is not None else None
    lines = []
    total = 0.0
    for i in range(1, 5):
        for j in range(1, 5):
            w = weights.line_weight(i, j) if weights is not None else 1.0
            total += w
            lines.append(sp.TransitionLine(i, j, float(e_e[j - 1] - e_g[i - 1]), w, pol))
    if include_zero_spin:
        lines.extend(_reference_zero_spin_lines(params, b_mt, zero_spin_offset_ghz,
                                                zero_spin_fraction * total))
    return lines


def _reference_sweep_map(params, axis, field_values_mt, grid, weights=None,
                         mixed_weights=False, fwhm_171_mhz=136.0,
                         fwhm_i0_mhz=153.0,
                         zero_spin_fraction=sp.DEFAULT_I0_FRACTION):
    """The per-field loop over the old catalog and synthesize_spectrum."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    fields = np.asarray(field_values_mt, dtype=float)
    lo, hi, n = grid
    x = np.linspace(lo, hi, int(n))
    if isinstance(weights, str):
        weights = sp.MEASURED_BRANCHING[weights]
    block = np.empty((fields.size, x.size))
    for k, b in enumerate(fields):
        b_vec = b * axis
        if mixed_weights and weights is not None:
            w = _reference_mixed_weight_table(params, b_vec, weights)
            lines = _reference_catalog(params, b_vec, None, include_zero_spin=False)
            lines = [sp.TransitionLine(
                ln.ground_index, ln.excited_index, ln.detuning_ghz,
                float(w[ln.ground_index - 1, ln.excited_index - 1]),
                weights.polarization) for ln in lines]
            total = sum(ln.weight for ln in lines)
            lines += _reference_zero_spin_lines(params, b_vec, 0.0,
                                                zero_spin_fraction * total)
        else:
            lines = _reference_catalog(
                params, b_vec, weights, zero_spin_fraction=zero_spin_fraction)
        yb = [ln for ln in lines if ln.isotope == "171Yb"]
        i0 = [ln for ln in lines if ln.isotope == "I0"]
        y = sp.synthesize_spectrum(yb, fwhm_171_mhz, x).absorption
        if i0:
            y = y + sp.synthesize_spectrum(i0, fwhm_i0_mhz, x).absorption
        block[k] = y
    return x, block


_CUSTOM_TABLE = sp.BranchingTable(np.array([[0.1, 0.9, 0.25],
                                            [0.5, 0.0, 1.0],
                                            [0.75, 0.3, 0.6]]), "custom")


class TestBatchedSweepMapEqualsPerFieldLoop:
    """The batched map must reproduce the per-field path exactly, no tolerance."""

    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("weights", [None, "sigma", _CUSTOM_TABLE],
                             ids=["none", "name", "table"])
    def test_fields_along_a_from_zero(self, weights, mixed):
        grid = (-4.5, 5.0, 400)
        fields = np.linspace(0.0, 200.0, 21)   # row 0: degenerate zero field
        sweep = sp.field_sweep_map(PARAMS, (1, 0, 0), fields, grid,
                                   weights=weights, mixed_weights=mixed)
        x, block = _reference_sweep_map(PARAMS, (1, 0, 0), fields, grid,
                                        weights=weights, mixed_weights=mixed)
        assert np.array_equal(sweep.detuning_ghz, x)
        assert np.array_equal(sweep.absorption, block)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_oblique_axis_through_zero_without_nuclear_zeeman(self, mixed):
        grid = (-3.0, 4.0, 300)
        fields = np.linspace(-50.0, 50.0, 11)  # row 5 is the zero field
        params = replace(default_params("field-sweep-fit"), g_n=0.0)
        kwargs = dict(weights="pi", mixed_weights=mixed, fwhm_171_mhz=90.0,
                      fwhm_i0_mhz=120.0, zero_spin_fraction=0.2)
        sweep = sp.field_sweep_map(params, (1, 1, 1), fields, grid, **kwargs)
        x, block = _reference_sweep_map(params, (1, 1, 1), fields, grid, **kwargs)
        assert np.array_equal(sweep.absorption, block)


def _reference_zero_spin_centers(params, b_mt, offset_ghz):
    """The per-field I = 0 formula the vectorised helper replaced, in its
    scalar arithmetic (np.linalg.norm, scalar ** 2), kept as its reference."""
    b = np.asarray(b_mt, dtype=float)
    norm = np.linalg.norm(b)
    direction = b / norm

    def effective_g(g):
        d = direction / np.linalg.norm(direction)
        return float(np.sqrt((g.parallel * d[2]) ** 2
                             + g.perpendicular**2 * (d[0] ** 2 + d[1] ** 2)))

    b_t = norm * 1e-3
    split_g = effective_g(params.g_ground) * CONSTANTS.mu_b_ghz_per_t * b_t
    split_e = effective_g(params.g_excited) * CONSTANTS.mu_b_ghz_per_t * b_t
    e_g = (-split_g / 2.0, split_g / 2.0)
    e_e = (-split_e / 2.0, split_e / 2.0)
    return [offset_ghz + e_e[j] - e_g[i] for i in (0, 1) for j in (0, 1)]


class TestZeroSpinCenters:
    """The vectorised I = 0 centres must round exactly as the per-field formula."""

    def test_bit_for_bit_on_random_oblique_fields(self):
        # enough rows that a last-bit difference in 1 of 1000 squares shows
        rng = np.random.default_rng(12)
        for trial in range(200):
            params = replace(PARAMS, g_ground=g_tensor(*rng.uniform(-5, 5, 2)),
                             g_excited=g_tensor(*rng.uniform(-5, 5, 2)))
            axis = rng.normal(size=3)
            fields = rng.uniform(-300, 300, size=(50, 1)) * axis / np.linalg.norm(axis)
            offset = float(rng.normal()) if trial % 2 else 0.0
            got = sp.zero_spin_centers(params, fields, offset)
            assert got.shape == (50, 4)
            for row, b in enumerate(fields):
                reference = _reference_zero_spin_centers(params, b, offset)
                assert got[row].tolist() == reference
            lines = [ln for ln in sp.transition_catalog(
                params, fields[0], zero_spin_offset_ghz=offset,
                zero_spin_fraction=0.125) if ln.isotope == "I0"]
            assert [ln.detuning_ghz for ln in lines] == got[0].tolist()
            assert [(ln.ground_index, ln.excited_index, ln.weight) for ln in lines] == \
                [(1, 1, 0.5), (1, 2, 0.5), (2, 1, 0.5), (2, 2, 0.5)]

    def test_recorded_sweep_axis_bit_for_bit(self):
        axis = np.array([0.95, 0.0, 0.31])
        axis /= np.linalg.norm(axis)
        axis /= np.linalg.norm(axis)     # the CLI and field_sweep_map both normalize
        fields = np.linspace(0.0, 213.7, 101)[1:, None] * axis
        got = sp.zero_spin_centers(PARAMS, fields)
        for row, b in enumerate(fields):
            assert got[row].tolist() == _reference_zero_spin_centers(PARAMS, b, 0.0)

    def test_zero_field(self):
        got = sp.zero_spin_centers(PARAMS, [[0.0, 0.0, 0.0], [0.0, 0.0, 10.0]], 0.25)
        assert got[0].tolist() == [0.25] * 4
        assert np.all(np.isfinite(got))
        lines = [ln for ln in sp.transition_catalog(
            PARAMS, (0.0, 0.0, 0.0), zero_spin_offset_ghz=0.25,
            zero_spin_fraction=0.125) if ln.isotope == "I0"]
        assert [(ln.detuning_ghz, ln.weight) for ln in lines] == [(0.25, 2.0)]


class TestOpticalLines:
    """The one line engine against the per-field code it replaced."""

    def test_column_layout_and_states_equal_per_field_eigensystems(self):
        rng = np.random.default_rng(21)
        fields = np.concatenate([rng.uniform(-300, 300, size=(12, 3)),
                                 np.zeros((1, 3))])
        for params in (PARAMS, NO_NUCLEAR_ZEEMAN):
            centres, (s_g, s_e) = sp.optical_lines(params, fields, 0.3)
            assert centres.shape == (fields.shape[0], 20)
            for row, b in enumerate(fields):
                eg = spinham.eigensystem(params, Manifold.GROUND, b)
                ee = spinham.eigensystem(params, Manifold.EXCITED, b)
                assert np.array_equal(s_g[row], eg.states)
                assert np.array_equal(s_e[row], ee.states)
                for i in range(4):
                    for j in range(4):
                        assert centres[row, 4 * i + j] == ee.energies[j] - eg.energies[i]
                expected = ([0.3] * 4 if not b.any()
                            else _reference_zero_spin_centers(params, b, 0.3))
                assert centres[row, 16:].tolist() == expected

    @pytest.mark.parametrize("weights", [None, "sigma", "pi", _CUSTOM_TABLE],
                             ids=["none", "sigma", "pi", "table"])
    def test_catalog_equals_frozen_per_field_catalog(self, weights):
        rng = np.random.default_rng(22)
        fields = [(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (0.0, 0.0, 50.0),
                  *rng.uniform(-200, 200, size=(8, 3))]
        for k, b in enumerate(fields):
            kwargs = dict(weights=weights,
                          zero_spin_offset_ghz=float(rng.normal()) if k % 2 else 0.0,
                          zero_spin_fraction=float(rng.uniform(0, 0.3)))
            params = NO_NUCLEAR_ZEEMAN if k % 4 == 1 else PARAMS
            with_zero_spin = k % 3 != 2
            got = sp.transition_catalog(params, b, **kwargs)
            if not with_zero_spin:
                got = _yb_lines(got)
            assert got == _reference_catalog(params, b, include_zero_spin=with_zero_spin,
                                             **kwargs)

    def test_catalog_rejects_a_bad_field(self):
        with pytest.raises(ValidationError, match="3-vector"):
            sp.transition_catalog(PARAMS, (0.0, 1.0))
        with pytest.raises(ValidationError, match="finite"):
            sp.transition_catalog(PARAMS, (0.0, np.nan, 1.0))


class TestSweepMapValidation:
    def test_unknown_branching_name_rejected(self):
        with pytest.raises(ValidationError, match="unknown branching table"):
            sp.field_sweep_map(PARAMS, (1, 0, 0), [0.0, 10.0], (-1, 1, 100),
                               weights="delta")

    @pytest.mark.parametrize("grid", [(-1, 1, 1), (1, -1, 100), (1, 1, 100),
                                      np.array([0.0]), np.array([0.0, 0.5, 0.6])])
    def test_bad_grid_rejected(self, grid):
        with pytest.raises(ValidationError, match="grid"):
            sp.field_sweep_map(PARAMS, (1, 0, 0), [0.0, 10.0], grid)

    @pytest.mark.parametrize("axis", [(0.0, 0.0, 0.0), (np.nan, 0.0, 1.0),
                                      (np.inf, 0.0, 0.0), (1.0, 0.0)])
    def test_bad_axis_rejected_by_name(self, axis):
        with warnings.catch_warnings():
            warnings.simplefilter("error")    # no RuntimeWarning on the way
            with pytest.raises(ValidationError,
                               match="axis must be a finite, non-zero 3-vector"):
                sp.field_sweep_map(PARAMS, axis, [0.0, 10.0], (-1, 1, 100))

    @pytest.mark.parametrize("fwhm", [dict(fwhm_171_mhz=0.0),
                                      dict(fwhm_i0_mhz=-5.0)])
    def test_non_positive_fwhm_rejected(self, fwhm):
        with pytest.raises(ValidationError, match="fwhm"):
            sp.field_sweep_map(PARAMS, (1, 0, 0), [0.0, 10.0], (-1, 1, 100),
                               **fwhm)


def _reference_perpendicular_dipole_weight(params, manifold, eig, pair, direction):
    """RMS ac-dipole magnitude over two orthogonal drive directions perp B."""
    ref = np.array([0.0, 0.0, 1.0])
    if abs(np.dot(ref, direction)) > 0.99:
        ref = np.array([1.0, 0.0, 0.0])
    e1 = np.cross(direction, ref)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(direction, e1)
    i, j = pair
    total = 0.0
    for e_ac in (e1, e2):
        amp = spinham.transition_magnetic_dipole(eig.state(i), eig.state(j), e_ac,
                                                 params, manifold)
        total += abs(amp) ** 2
    return float(np.sqrt(total))


def _reference_scan_resonances(params, microwave_freq_ghz, theta_deg,
                               phi_deg=0.0, b_range_mt=(1.0, 1000.0),
                               tol_mt=1e-3, manifold=Manifold.GROUND):
    """The field scan plus bisection that epr_resonance_fields used to run.

    Sign changes of (splitting - frequency) are bracketed on a scan of 2000
    samples per decade and bisected to tol_mt; two crossings of one pair
    inside one sample interval are missed.
    """
    lo, hi = float(b_range_mt[0]), float(b_range_mt[1])
    direction = sp._direction_from_angles(theta_deg, phi_deg)
    decades = np.log10(hi / max(lo, hi * 1e-3))
    scan = np.linspace(lo, hi, int(2000 * max(1.0, decades)))
    energies = spinham.manifold_energies(params, manifold,
                                         scan[:, None] * direction[None, :])

    def gap(i, j, b_mt):
        e = spinham.manifold_energies(params, manifold, [b_mt * direction])[0]
        return (e[j] - e[i]) - microwave_freq_ghz

    found = []
    for i in range(4):
        for j in range(i + 1, 4):
            g = (energies[:, j] - energies[:, i]) - microwave_freq_ghz
            crossings = np.nonzero((np.sign(g[:-1]) * np.sign(g[1:]) < 0)
                                   | (g[:-1] == 0.0))[0]
            pair_fields = []
            for k in crossings:
                a, b = scan[k], scan[k + 1]
                fa = g[k]
                while b - a > tol_mt:
                    mid = 0.5 * (a + b)
                    fm = gap(i, j, mid)
                    if fa * fm <= 0:
                        b = mid
                    else:
                        a, fa = mid, fm
                b_res = 0.5 * (a + b)
                if pair_fields and abs(b_res - pair_fields[-1]) < 2 * tol_mt:
                    continue  # the same root detected from both sides of a node
                pair_fields.append(b_res)
                eig = spinham.eigensystem(params, manifold, b_res * direction)
                weight = _reference_perpendicular_dipole_weight(
                    params, manifold, eig, (i + 1, j + 1), direction)
                found.append(sp.EprResonance(b_res, (i + 1, j + 1), weight))
    return sorted(found, key=lambda r: r.field_mt)


# bisection stops within tol_mt, so its midpoint is within tol_mt / 2 of the root
_SCAN_FIELD_TOL_MT = 5e-4


def _assert_matches_scan(got, ref, weight_rtol=1e-5):
    assert [r.pair for r in sorted(got, key=lambda r: (r.pair, r.field_mt))] == \
        [r.pair for r in sorted(ref, key=lambda r: (r.pair, r.field_mt))]
    for g, r in zip(sorted(got, key=lambda r: (r.pair, r.field_mt)),
                    sorted(ref, key=lambda r: (r.pair, r.field_mt))):
        assert abs(g.field_mt - r.field_mt) <= _SCAN_FIELD_TOL_MT
        assert g.weight == pytest.approx(r.weight, rel=weight_rtol, abs=1e-9)


def _assert_on_resonance(resonances, params, nu, theta, phi=0.0,
                         manifold=Manifold.GROUND):
    direction = sp._direction_from_angles(theta, phi)
    for res in resonances:
        e = spinham.manifold_energies(params, manifold,
                                      [res.field_mt * direction])[0]
        i, j = res.pair
        assert abs(e[j - 1] - e[i - 1] - nu) <= sp.EPR_RESIDUAL_BOUND_GHZ


class TestEigenfieldAgainstScan:
    """The eigenfield solver against the scan-and-bisect reference above."""

    @pytest.mark.parametrize("nu", [9.0, 9.4, 9.8])
    @pytest.mark.parametrize("plane", ["c-a", "a-b"])
    def test_rosette_planes(self, plane, nu):
        for angle in np.linspace(0.0, 180.0, 19):
            theta, phi = (angle, 0.0) if plane == "c-a" else (90.0, angle)
            got = sp.epr_resonance_fields(PARAMS, nu, theta, phi, (10.0, 900.0))
            ref = _reference_scan_resonances(PARAMS, nu, theta, phi, (10.0, 900.0))
            assert got
            _assert_matches_scan(got, ref)
            _assert_on_resonance(got, PARAMS, nu, theta, phi)

    def test_coincident_roots_get_both_pairs(self):
        p0 = replace(PARAMS, a_ground=a_tensor(0.0, 0.0))
        got = sp.epr_resonance_fields(p0, 9.4, 90.0, b_range_mt=(100, 400))
        ref = _reference_scan_resonances(p0, 9.4, 90.0, b_range_mt=(100, 400))
        electron = [r for r in got if r.weight > 0.1]
        assert sorted(r.pair for r in electron) == [(1, 3), (2, 4)]
        assert abs(electron[0].field_mt - electron[1].field_mt) < 1e-9
        _assert_matches_scan(got, ref)
        _assert_on_resonance(got, p0, 9.4, 90.0)

    @pytest.mark.parametrize("nu", [1.14641, 3.08187])
    def test_zero_field_gap_frequencies(self, nu):
        # an unshifted pencil (L0 - nu)^-1 L1 is singular at these frequencies
        got = sp.epr_resonance_fields(PARAMS, nu, 45.0, b_range_mt=(10.0, 900.0))
        ref = _reference_scan_resonances(PARAMS, nu, 45.0, b_range_mt=(10.0, 900.0))
        assert got
        _assert_matches_scan(got, ref)
        _assert_on_resonance(got, PARAMS, nu, 45.0)

    def test_close_pair_the_scan_misses(self):
        nu = 1.0891768755708135
        got = sp.epr_resonance_fields(PARAMS, nu, 30.0, b_range_mt=(20.70, 900))
        ref = _reference_scan_resonances(PARAMS, nu, 30.0, b_range_mt=(20.70, 900))
        assert [r.pair for r in ref] == [(2, 3)]
        assert [r.pair for r in got] == [(1, 2), (1, 2), (2, 3)]
        assert got[0].field_mt == pytest.approx(20.7012, abs=1e-4)
        assert got[1].field_mt == pytest.approx(20.7087, abs=1e-4)
        # a scan that starts lower does bracket both crossings
        wide = _reference_scan_resonances(PARAMS, nu, 30.0, b_range_mt=(10, 900))
        _assert_matches_scan(got, [r for r in wide if r.field_mt >= 20.70])
        _assert_on_resonance(got, PARAMS, nu, 30.0)

    def test_excited_manifold(self):
        got = sp.epr_resonance_fields(PARAMS, 9.4, 60.0, 20.0, (10.0, 900.0),
                                      manifold=Manifold.EXCITED)
        ref = _reference_scan_resonances(PARAMS, 9.4, 60.0, 20.0, (10.0, 900.0),
                                         manifold=Manifold.EXCITED)
        assert got
        _assert_matches_scan(got, ref)
        _assert_on_resonance(got, PARAMS, 9.4, 60.0, 20.0, Manifold.EXCITED)

    def test_second_shift_when_the_first_is_a_resonance(self):
        lo, hi = 10.0, 900.0
        direction = sp._direction_from_angles(60.0, 0.0)
        e = spinham.manifold_energies(PARAMS, Manifold.GROUND,
                                      [0.5 * (lo + hi) * direction])[0]
        nu = e[3] - e[0]
        got = sp.epr_resonance_fields(PARAMS, nu, 60.0, b_range_mt=(lo, hi))
        ref = _reference_scan_resonances(PARAMS, nu, 60.0, b_range_mt=(lo, hi))
        assert any(abs(r.field_mt - 0.5 * (lo + hi)) < 1e-6 for r in got)
        _assert_matches_scan(got, ref)
        _assert_on_resonance(got, PARAMS, nu, 60.0)

    def test_no_usable_shift_raises(self, monkeypatch):
        direction = sp._direction_from_angles(60.0, 0.0)
        e = spinham.manifold_energies(PARAMS, Manifold.GROUND,
                                      [455.0 * direction])[0]
        monkeypatch.setattr(sp, "_EIGENFIELD_SHIFTS", (0.5, 0.5))
        with pytest.raises(NumericalError, match="shift"):
            sp.epr_resonance_fields(PARAMS, e[3] - e[0], 60.0,
                                    b_range_mt=(10.0, 900.0))


class TestEprInputValidation:
    @pytest.mark.parametrize("nu", [np.nan, np.inf, -np.inf])
    def test_non_finite_frequency(self, nu):
        with pytest.raises(ValidationError, match="frequency must be finite"):
            sp.epr_resonance_fields(PARAMS, nu, 90.0)

    @pytest.mark.parametrize("b_range", [(10.0, np.inf), (np.nan, 900.0),
                                         (10.0, np.nan), (-np.inf, 900.0)])
    def test_non_finite_field_range(self, b_range):
        with pytest.raises(ValidationError, match="field range must be finite"):
            sp.epr_resonance_fields(PARAMS, 9.4, 90.0, b_range_mt=b_range)

    @pytest.mark.parametrize("angles", [(np.nan, 0.0), (90.0, np.inf),
                                        (-np.inf, 0.0)])
    def test_non_finite_angle(self, angles):
        with pytest.raises(ValidationError, match="angles must be finite"):
            sp.epr_resonance_fields(PARAMS, 9.4, *angles)

    def test_non_finite_rosette_angle(self):
        with pytest.raises(ValidationError, match="angles must be finite"):
            sp.angular_rosette(PARAMS, "c-a", [0.0, np.nan], 9.4)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, np.nan])
    def test_bad_tolerance(self, tol):
        with pytest.raises(ValidationError, match="tol_mt"):
            sp.epr_resonance_fields(PARAMS, 9.4, 90.0, tol_mt=tol)


class TestEprSearch:
    def test_resonances_satisfy_the_resonance_condition(self):
        for theta in (0.0, 35.0, 90.0):
            for res in sp.epr_resonance_fields(PARAMS, 9.4, theta,
                                               b_range_mt=(20, 900)):
                direction = sp._direction_from_angles(theta, 0.0)
                energies = spinham.manifold_energies(
                    PARAMS, Manifold.GROUND, [res.field_mt * direction])[0]
                gap = energies[res.pair[1] - 1] - energies[res.pair[0] - 1]
                assert abs(gap - 9.4) < 1e-4

    def test_isotropic_electron_doublet_positions(self):
        p0 = replace(PARAMS, a_ground=a_tensor(0.0, 0.0))
        perp = sp.epr_resonance_fields(p0, 9.4, 90.0, b_range_mt=(100, 400))
        strong = [r for r in perp if r.weight > 0.1]
        expected = 9.4 / (PARAMS.g_ground.perpendicular * CONSTANTS.mu_b_ghz_per_t) * 1e3
        for r in strong:
            assert r.field_mt == pytest.approx(expected, abs=0.1)
        para = sp.epr_resonance_fields(p0, 9.4, 0.0, b_range_mt=(400, 900))
        strong_para = [r for r in para if r.weight > 0.1]
        expected_para = 9.4 / (PARAMS.g_ground.parallel * CONSTANTS.mu_b_ghz_per_t) * 1e3
        for r in strong_para:
            assert r.field_mt == pytest.approx(expected_para, abs=0.4)

    def test_hyperfine_doublet_positions(self):
        res = sp.epr_resonance_fields(PARAMS, 9.4, 90.0, b_range_mt=(50, 800))
        strong = sorted((r for r in res if r.weight > 0.5),
                        key=lambda r: -r.weight)[:2]
        fields = sorted(r.field_mt for r in strong)
        assert fields[0] == pytest.approx(143.0, abs=5.0)
        assert fields[1] == pytest.approx(201.0, abs=5.0)

    def test_empty_range_returns_no_resonances(self):
        assert sp.epr_resonance_fields(PARAMS, 9.4, 90.0, b_range_mt=(900, 999)) == []

    def test_azimuthal_invariance(self):
        a = sp.epr_resonance_fields(PARAMS, 9.4, 90.0, 0.0, b_range_mt=(100, 300))
        b = sp.epr_resonance_fields(PARAMS, 9.4, 90.0, 90.0, b_range_mt=(100, 300))
        for ra, rb in zip(a, b):
            assert ra.pair == rb.pair
            assert abs(ra.field_mt - rb.field_mt) < 1e-3


class TestEprOperatorPair:
    """The resonance fields are roots of the pencil H0 + B H1 of the public
    operator functions and the weights are the RMS drive amplitudes of
    magnetic_dipole_operator, bit for bit."""

    def test_fields_and_weights_equal_the_operator_functions(self):
        for manifold in (Manifold.GROUND, Manifold.EXCITED):
            for theta, phi in ((0.0, 0.0), (35.0, 10.0), (62.5, 200.0),
                               (90.0, 0.0), (90.0, 45.0)):
                got = sp.epr_resonance_fields(PARAMS, 9.4, theta, phi,
                                              (10.0, 900.0), manifold=manifold)
                direction = sp._direction_from_angles(theta, phi)
                h0 = spinham.zeeman_operators(PARAMS, manifold)[0]
                h1 = spinham.field_derivative_operator(
                    PARAMS, manifold, direction) * 1e-3
                roots = set(sp._eigenfield_roots(h0, h1, 9.4, 10.0, 900.0))
                drive = np.stack([
                    spinham.magnetic_dipole_operator(PARAMS, manifold, e)
                    for e in sp._drive_directions(direction)])
                fields = np.array([res.field_mt for res in got])
                assert fields.size and set(fields) <= roots
                _, states = spinham.eigensystems(PARAMS, manifold,
                                                 fields[:, None] * direction)
                rows = np.arange(fields.size)
                i, j = (np.array([res.pair[k] - 1 for res in got]) for k in (0, 1))
                amps = np.einsum("ra,kab,rb->rk", states[rows, :, i].conj(),
                                 drive, states[rows, :, j])
                assert np.array_equal([res.weight for res in got],
                                      np.sqrt(np.sum(np.abs(amps) ** 2, axis=1)))


class TestAngularRosette:
    def test_ab_plane_is_flat(self):
        rosette = sp.angular_rosette(PARAMS, "a-b", np.linspace(0, 90, 5), 9.4,
                                     b_range_mt=(100, 300))
        reference = rosette[0][1]
        for _, resonances in rosette[1:]:
            assert len(resonances) == len(reference)
            for ra, rb in zip(resonances, reference):
                assert abs(ra.field_mt - rb.field_mt) < 1e-3

    def test_ca_plane_ordering_by_g_components(self):
        rosette = sp.angular_rosette(PARAMS, "c-a", [0.0, 90.0], 9.4,
                                     b_range_mt=(50, 900))
        para = [r.field_mt for r in rosette[0][1] if r.weight > 0.5]
        perp = [r.field_mt for r in rosette[1][1] if r.weight > 0.5]
        # g_par < g_perp, so resonances along c sit at higher field
        assert min(para) > max(perp)

    def test_periodicity_under_field_reversal(self):
        rosette = sp.angular_rosette(PARAMS, "c-a", [30.0, 210.0], 9.4,
                                     b_range_mt=(50, 900))
        first, second = rosette[0][1], rosette[1][1]
        assert len(first) == len(second)
        for ra, rb in zip(first, second):
            assert abs(ra.field_mt - rb.field_mt) < 1e-3

    def test_unknown_plane_rejected(self):
        with pytest.raises(ValidationError):
            sp.angular_rosette(PARAMS, "b-c", [0.0, 10.0], 9.4)
