import itertools
import math

import numpy as np
import pytest

from ybcawo4 import grouptheory as gt
from ybcawo4.errors import DomainError, NumericalError, ValidationError
from ybcawo4.params import EXCITED_GROUPS, GROUND_GROUPS

ALPHA, SIGMA, PI = gt.ALPHA, gt.SIGMA, gt.PI


def _counts(seq):
    out = {}
    for item in seq:
        out[item] = out.get(item, 0) + 1
    return out


class TestGroupAxioms:
    @pytest.mark.parametrize("group", [gt.S4, gt.D2D], ids=["S4", "D2d"])
    def test_identity_irrep(self, group):
        for x in group.irreps:
            assert gt.irrep_product(group, "G1", x) == (x,)

    @pytest.mark.parametrize("group", [gt.S4, gt.D2D], ids=["S4", "D2d"])
    def test_commutative(self, group):
        for x, y in itertools.product(group.irreps, repeat=2):
            assert gt.irrep_product(group, x, y) == gt.irrep_product(group, y, x)

    @pytest.mark.parametrize("group", [gt.S4, gt.D2D], ids=["S4", "D2d"])
    def test_dimension_bookkeeping(self, group):
        for x, y in itertools.product(group.irreps, repeat=2):
            product = gt.irrep_product(group, x, y)
            assert group.dims[x] * group.dims[y] == sum(group.dims[p] for p in product)

    @pytest.mark.parametrize("group", [gt.S4, gt.D2D], ids=["S4", "D2d"])
    def test_associative(self, group):
        for x, y, z in itertools.product(group.irreps, repeat=3):
            left = gt.irrep_product(group, gt.irrep_product(group, x, y), z)
            right = gt.irrep_product(group, x, gt.irrep_product(group, y, z))
            assert left == right

    def test_s4_rows_are_permutations(self):
        for x in gt.S4.irreps:
            row = [gt.irrep_product(gt.S4, x, y)[0] for y in gt.S4.irreps]
            assert sorted(row) == sorted(gt.S4.irreps)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            gt.irrep_product(gt.S4, "G9", "G1")
        with pytest.raises(ValidationError):
            gt.irrep_product(gt.D2D, "G8", "G1")


class TestProductsAndHyperfineIrreps:
    def test_s4_spinor_family_products(self):
        assert gt.irrep_product(gt.S4, "G56", "G78") == ("G2", "G2", "G3", "G4")
        assert gt.irrep_product(gt.S4, "G78", "G78") == ("G1", "G1", "G3", "G4")
        assert gt.irrep_product(gt.S4, "G56", "G56") == ("G1", "G1", "G3", "G4")

    def test_d2d_spinor_products(self):
        assert gt.irrep_product(gt.D2D, "G6", "G7") == ("G3", "G4", "G5")
        assert gt.irrep_product(gt.D2D, "G7", "G7") == ("G1", "G2", "G5")
        assert gt.irrep_product(gt.D2D, "G6", "G6") == ("G1", "G2", "G5")

    def test_accepts_greek_labels(self):
        assert gt.irrep_product(gt.D2D, "Γ6", "Γ7") == ("G3", "G4", "G5")

    @pytest.mark.parametrize("group,family", [(gt.S4, "G56"), (gt.S4, "G78"),
                                              (gt.D2D, "G6"), (gt.D2D, "G7")])
    def test_exactly_one_twofold_level(self, group, family):
        info = gt.hyperfine_level_irreps(group, family)
        assert len(info.singlets) == 2
        assert info.doublet == group.hyperfine_doublet

    def test_hyperfine_irreps_values(self):
        assert gt.hyperfine_level_irreps(gt.S4, "G56").singlets == ("G2", "G2")
        assert gt.hyperfine_level_irreps(gt.S4, "G78").singlets == ("G1", "G1")
        assert gt.hyperfine_level_irreps(gt.D2D, "G6").singlets == ("G3", "G4")
        assert gt.hyperfine_level_irreps(gt.D2D, "G7").singlets == ("G1", "G2")

    def test_non_spinor_family_rejected(self):
        with pytest.raises(ValidationError):
            gt.hyperfine_level_irreps(gt.S4, "G3")


# Golden copies of the published dipole rules between level irreps
# (ED set, MD set); regenerated by the library from the product tables.
S4_DIPOLE_GOLDEN = {
    ("G1", "G1"): (set(), {SIGMA}),
    ("G1", "G2"): ({PI}, set()),
    ("G1", "G34"): ({ALPHA, SIGMA}, {ALPHA, PI}),
    ("G2", "G2"): (set(), {SIGMA}),
    ("G2", "G34"): ({ALPHA, SIGMA}, {ALPHA, PI}),
    ("G34", "G34"): ({PI}, {SIGMA}),
    ("G56", "G56"): ({ALPHA, SIGMA}, {ALPHA, SIGMA, PI}),
    ("G56", "G78"): ({ALPHA, SIGMA, PI}, {ALPHA, PI}),
    ("G78", "G78"): ({ALPHA, SIGMA}, {ALPHA, SIGMA, PI}),
}

D2D_DIPOLE_GOLDEN = {
    ("G1", "G1"): (set(), set()),
    ("G1", "G2"): (set(), {SIGMA}),
    ("G1", "G3"): (set(), set()),
    ("G1", "G4"): ({PI}, set()),
    ("G1", "G5"): ({ALPHA, SIGMA}, {ALPHA, PI}),
    ("G2", "G2"): (set(), set()),
    ("G2", "G3"): ({PI}, set()),
    ("G2", "G4"): (set(), set()),
    ("G2", "G5"): ({ALPHA, SIGMA}, {ALPHA, PI}),
    ("G3", "G3"): (set(), set()),
    ("G3", "G4"): (set(), {SIGMA}),
    ("G3", "G5"): ({ALPHA, SIGMA}, {ALPHA, PI}),
    ("G4", "G4"): (set(), set()),
    ("G4", "G5"): ({ALPHA, SIGMA}, {ALPHA, PI}),
    ("G5", "G5"): ({PI}, {SIGMA}),
    ("G6", "G6"): ({ALPHA, SIGMA}, {ALPHA, SIGMA, PI}),
    ("G6", "G7"): ({ALPHA, SIGMA, PI}, {ALPHA, PI}),
    ("G7", "G7"): ({ALPHA, SIGMA}, {ALPHA, SIGMA, PI}),
}


class TestDipoleSelectionRules:
    @pytest.mark.parametrize("pair", sorted(S4_DIPOLE_GOLDEN))
    def test_s4_rules_regenerated(self, pair):
        ed, md = gt.dipole_selection_rules(gt.S4, *pair)
        assert (set(ed), set(md)) == S4_DIPOLE_GOLDEN[pair]

    @pytest.mark.parametrize("pair", sorted(D2D_DIPOLE_GOLDEN))
    def test_d2d_rules_regenerated(self, pair):
        ed, md = gt.dipole_selection_rules(gt.D2D, *pair)
        assert (set(ed), set(md)) == D2D_DIPOLE_GOLDEN[pair]

    def test_rules_symmetric(self):
        for group in (gt.S4, gt.D2D):
            labels = group.irreps + tuple(group.aliases)
            for x, y in itertools.product(labels, repeat=2):
                assert gt.dipole_selection_rules(group, x, y) == \
                    gt.dipole_selection_rules(group, y, x)


# Golden copies of the published hyperfine-level selection tables.
# Keys: (ground level, excited level) -> (ED, MD).  The library must
# regenerate these cell-for-cell from the product tables.
HYPERFINE_GOLDEN = {
    "s4-different": {
        ("1", "12"): ({ALPHA, SIGMA}, {ALPHA, PI}),
        ("1", "3"): ({PI}, set()),
        ("1", "4"): ({PI}, set()),
        ("23", "12"): ({PI}, {SIGMA}),
        ("23", "3"): ({ALPHA, SIGMA}, {ALPHA, PI}),
        ("23", "4"): ({ALPHA, SIGMA}, {ALPHA, PI}),
        ("4", "12"): ({ALPHA, SIGMA}, {ALPHA, PI}),
        ("4", "3"): ({PI}, set()),
        ("4", "4"): ({PI}, set()),
    },
    "s4-same": {
        ("1", "12"): ({ALPHA, SIGMA}, {ALPHA, PI}),
        ("1", "3"): (set(), {SIGMA}),
        ("1", "4"): (set(), {SIGMA}),
        ("23", "12"): ({PI}, {SIGMA}),
        ("23", "3"): ({ALPHA, SIGMA}, {ALPHA, PI}),
        ("23", "4"): ({ALPHA, SIGMA}, {ALPHA, PI}),
        ("4", "12"): ({ALPHA, SIGMA}, {ALPHA, PI}),
        ("4", "3"): (set(), {SIGMA}),
        ("4", "4"): (set(), {SIGMA}),
    },
    "d2d-different": {
        ("1", "12"): ({ALPHA, SIGMA}, {ALPHA, PI}),
        ("1", "3"): ({PI}, set()),
        ("1", "4"): (set(), set()),
        ("23", "12"): ({PI}, {SIGMA}),
        ("23", "3"): ({ALPHA, SIGMA}, {ALPHA, PI}),
        ("23", "4"): ({ALPHA, SIGMA}, {ALPHA, PI}),
        ("4", "12"): ({ALPHA, SIGMA}, {ALPHA, PI}),
        ("4", "3"): (set(), set()),
        ("4", "4"): ({PI}, set()),
    },
    "d2d-same": {
        ("1", "12"): ({ALPHA, SIGMA}, {ALPHA, PI}),
        ("1", "3"): (set(), {SIGMA}),
        ("1", "4"): (set(), set()),
        ("23", "12"): ({PI}, {SIGMA}),
        ("23", "3"): ({ALPHA, SIGMA}, {ALPHA, PI}),
        ("23", "4"): ({ALPHA, SIGMA}, {ALPHA, PI}),
        ("4", "12"): ({ALPHA, SIGMA}, {ALPHA, PI}),
        ("4", "3"): (set(), set()),
        ("4", "4"): (set(), {SIGMA}),
    },
}


class TestHyperfineSelectionTables:
    @pytest.mark.parametrize("name", sorted(HYPERFINE_GOLDEN))
    def test_tables_regenerated_cell_for_cell(self, name):
        table = gt.named_selection_table(name)
        for (g, e), (ed, md) in HYPERFINE_GOLDEN[name].items():
            assert set(table.ed(g, e)) == ed, (name, g, e)
            assert set(table.md(g, e)) == md, (name, g, e)

    def test_exactly_one_ed_predicted_unobserved(self):
        table = gt.named_selection_table("d2d-same")
        assert gt.ed_predicted_unobserved(table) == [("23", "12", PI)]

    def test_different_family_tables_predict_more_ed_lines(self):
        same = gt.named_selection_table("d2d-same")
        diff = gt.named_selection_table("d2d-different")
        assert len(gt.ed_predicted_unobserved(diff)) > \
            len(gt.ed_predicted_unobserved(same))

    def test_inconsistent_assignment_rejected(self):
        with pytest.raises(ValidationError):
            gt.hyperfine_selection_table(
                gt.D2D, {"1": "G1", "23": "G5", "4": "G4"},
                gt.ASSIGNMENTS["d2d-same"][1])
        with pytest.raises(ValidationError):
            gt.hyperfine_selection_table(
                gt.D2D, {"1": "G3", "23": "G4", "4": "G5"},
                gt.ASSIGNMENTS["d2d-same"][1])

    def test_text_rendering_contains_all_cells(self):
        text = gt.format_selection_table(gt.named_selection_table())
        assert "pi (sigma)" in text
        assert "alpha+sigma (alpha+pi)" in text


class TestLevelLayout:
    def test_named_tables_are_keyed_by_the_params_layout(self):
        assert set(gt.OBSERVED_POLARIZATIONS) == {
            (g, e) for g in GROUND_GROUPS for e in EXCITED_GROUPS}
        for ground, excited in gt.ASSIGNMENTS.values():
            assert tuple(ground) == GROUND_GROUPS
            assert tuple(excited) == EXCITED_GROUPS

    def test_doublet_slot_is_the_two_level_group(self):
        ground, excited = gt.ASSIGNMENTS["d2d-same"]
        with pytest.raises(ValidationError, match="two-fold level '23'"):
            gt.hyperfine_selection_table(gt.D2D, {**ground, "23": "G3"}, excited)
        with pytest.raises(ValidationError, match="two-fold level '12'"):
            gt.hyperfine_selection_table(gt.D2D, ground, {**excited, "12": "G3"})


class TestDoubletGFactors:
    def test_ground_doublet_amplitudes(self):
        coeffs = gt.DoubletCoefficients.normalized(0.700, 0.714, j=3.5, family="G56")
        g_par, g_perp = gt.doublet_g_factors(coeffs)
        assert g_par == pytest.approx(1.0523, abs=2e-4)
        assert g_perp == pytest.approx(3.9582, abs=2e-4)
        # measured values for comparison: 1.053 and 3.916
        assert g_par == pytest.approx(1.053, abs=0.01)

    def test_pure_high_m_state(self):
        coeffs = gt.DoubletCoefficients(1.0, 0.0, j=3.5, family="G56")
        g_par, g_perp = gt.doublet_g_factors(coeffs)
        assert g_par == pytest.approx(5 * 8 / 7, abs=1e-12)
        assert g_perp == 0.0

    def test_pure_m_half_doublet(self):
        coeffs = gt.DoubletCoefficients(1.0, 0.0, j=2.5, family="G78")
        g_par, g_perp = gt.doublet_g_factors(coeffs)
        assert g_par == pytest.approx(6 / 7, abs=1e-12)
        assert g_perp == pytest.approx(18 / 7, abs=1e-12)

    def test_d2d_family_names_accepted(self):
        c1 = gt.DoubletCoefficients.normalized(0.7, 0.714, j=3.5, family="G6")
        c2 = gt.DoubletCoefficients.normalized(0.7, 0.714, j=3.5, family="G56")
        assert gt.doublet_g_factors(c1) == gt.doublet_g_factors(c2)

    def test_normalization_enforced(self):
        with pytest.raises(ValidationError):
            gt.DoubletCoefficients(0.700, 0.714, j=3.5)

    def test_g_factors_satisfy_consistency_relation(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = rng.uniform(0, np.pi)
            a, b = math.cos(t), math.sin(t)
            for j in (2.5, 3.5):
                for family in ("G56", "G78"):
                    for order in ("upper", "lower"):
                        coeffs = gt.DoubletCoefficients.normalized(
                            a, b, j=j, family=family, order=order)
                        g_par, g_perp = gt.doublet_g_factors(coeffs)
                        predicted = gt.g_consistency_relation(j, family, order, g_par)
                        assert abs(abs(g_perp) - predicted) < 1e-9


    def test_g_perp_is_a_magnitude_on_every_branch(self):
        rng = np.random.default_rng(3)
        seen_negative_product = False
        for _ in range(200):
            a, b = rng.normal(size=2)
            seen_negative_product |= a * b < 0
            for j in (2.5, 3.5):
                for family in ("G56", "G78"):
                    for order in ("upper", "lower"):
                        coeffs = gt.DoubletCoefficients.normalized(
                            a, b, j=j, family=family, order=order)
                        assert gt.doublet_g_factors(coeffs)[1] >= 0.0
            mixed = gt.DoubletCoefficients.normalized(a, b, *rng.normal(size=2),
                                                      j=2.5)
            assert gt.doublet_g_factors(mixed)[1] >= 0.0
        assert seen_negative_product

    def test_order_flips_the_sign_of_g_parallel_on_every_branch(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b, c, d = rng.normal(size=4)
            branches = [dict(j=j, family=family) for j in (2.5, 3.5)
                        for family in ("G56", "G78")]
            branches.append(dict(c=c, d=d, j=2.5))
            for branch in branches:
                upper, lower = (gt.doublet_g_factors(gt.DoubletCoefficients.normalized(
                    a, b, order=order, **branch)) for order in ("upper", "lower"))
                assert lower == (-upper[0], upper[1])

    def test_unmixed_52_doublet_is_the_mixed_formula_at_zero_mixing(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            a, b = rng.normal(size=2)
            coeffs = gt.DoubletCoefficients.normalized(a, b, j=2.5)
            assert gt.doublet_g_factors(coeffs) == \
                gt._g_mixed_52(coeffs.a, coeffs.b, 0.0, 0.0)

    def test_quadratic_forms_match_the_scalar_formulas(self):
        def reference(a, b, c, d):
            # the J-mixed 5/2 doublet written out term by term
            g_par = (gt.G_52 * (5 * a * a - 3 * b * b)
                     - (2 * math.sqrt(6) / 7) * 2 * a * c
                     - (2 * math.sqrt(10) / 7) * 2 * b * d
                     + gt.G_72 * (5 * c * c - 3 * d * d))
            g_perp = (-2 * math.sqrt(5) * gt.G_52 * a * b
                      - (2 * math.sqrt(30) / 7) * b * c
                      - (2 * math.sqrt(2) / 7) * a * d
                      + 4 * math.sqrt(3) * gt.G_72 * c * d)
            return g_par, g_perp

        rng = np.random.default_rng(6)
        for v in rng.normal(size=(200, 4)):
            g_par, g_perp = reference(*v)
            assert v @ gt._P_52 @ v == pytest.approx(g_par, rel=1e-12, abs=1e-12)
            assert v @ gt._Q_52 @ v == pytest.approx(g_perp, rel=1e-12, abs=1e-12)
            assert gt._g_mixed_52(*v) == pytest.approx((g_par, abs(g_perp)),
                                                       rel=1e-12, abs=1e-12)


class TestConsistencyRelation:
    def test_excited_state_prediction(self):
        # both equivalent routes to the published theory value 1.42:
        # signed negative g_par in the upper branch, or its magnitude in the
        # lower branch
        assert gt.g_consistency_relation(2.5, "G56", "upper", -1.44) == \
            pytest.approx(1.4228, abs=1e-4)
        assert gt.g_consistency_relation(2.5, "G56", "lower", 1.44) == \
            pytest.approx(1.4228, abs=1e-4)

    def test_ground_state_prediction(self):
        predicted = gt.g_consistency_relation(3.5, "G56", "upper", 1.053)
        assert predicted == pytest.approx(3.958, abs=2e-3)
        assert predicted == pytest.approx(3.916, abs=0.05)  # measured

    def test_linear_relation_for_g78(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = rng.uniform(0, np.pi / 2)
            coeffs = gt.DoubletCoefficients.normalized(math.cos(t), math.sin(t),
                                                       j=3.5, family="G78")
            g_par, g_perp = gt.doublet_g_factors(coeffs)
            assert abs(2 * abs(g_perp) - abs(g_par - 7 * gt.G_72)) < 1e-9

    def test_negative_discriminant_raises(self):
        with pytest.raises(DomainError):
            gt.g_consistency_relation(2.5, "G56", "upper", 10.0)


class TestLabelSpellings:
    """Every label-taking function reads " G6 ", "Γ6" and "G6" alike."""

    SPELLINGS = ("G56", " G56 ", "Γ56", "G6", " Γ6")

    def test_components(self):
        for label in self.SPELLINGS[:3]:
            assert gt.S4.components(label) == ("G5", "G6")

    def test_hyperfine_level_irreps(self):
        reference = gt.hyperfine_level_irreps(gt.D2D, "G6")
        for label in (" G6 ", "Γ6", "\tΓ6\n"):
            assert gt.hyperfine_level_irreps(gt.D2D, label) == reference

    def test_doublet_coefficients_store_the_canonical_family(self):
        for family in self.SPELLINGS:
            coeffs = gt.DoubletCoefficients(1.0, 0.0, j=3.5, family=family)
            assert coeffs.family == "G56"
        assert gt.DoubletCoefficients(1.0, 0.0, j=2.5, family=" Γ7").family == "G78"

    def test_consistency_relation(self):
        for family in self.SPELLINGS:
            assert gt.g_consistency_relation(2.5, family, "upper", -1.44) == \
                gt.g_consistency_relation(2.5, "G56", "upper", -1.44)

    def test_unknown_family_rejected_by_name(self):
        for call in (lambda: gt.DoubletCoefficients(1.0, 0.0, family="G9"),
                     lambda: gt.g_consistency_relation(2.5, "G9", "upper", 1.0)):
            with pytest.raises(ValidationError, match="unknown doublet family 'G9'"):
                call()

    def test_j_outside_the_two_doublets_rejected(self):
        for call in (lambda: gt.g_consistency_relation(3.0, "G56", "upper", 1.0),
                     lambda: gt.DoubletCoefficients(1.0, 0.0, j=3.0)):
            with pytest.raises(ValidationError, match="j must be 2.5 or 3.5"):
                call()


class TestJMixingFit:
    def test_targets_reproduced_exactly(self):
        coeffs = gt.fit_j_mixing(-1.446, 1.293)
        g_par, g_perp = gt._g_mixed_52(coeffs.a, coeffs.b, coeffs.c, coeffs.d)
        assert g_par == pytest.approx(-1.446, abs=1e-6)
        assert g_perp == pytest.approx(1.293, abs=1e-6)
        norm = coeffs.a**2 + coeffs.b**2 + coeffs.c**2 + coeffs.d**2
        assert norm == pytest.approx(1.0, abs=1e-9)

    def test_minimal_mixing_selection(self):
        # two g values leave a one-parameter family of exact solutions; the
        # fit returns the least-mixed member
        coeffs = gt.fit_j_mixing(-1.446, 1.293)
        assert 0.0 < coeffs.mixing_ratio < 0.01
        assert coeffs.mixing_ratio == pytest.approx(0.0028, abs=5e-4)

    def test_published_mixing_ratio_is_on_the_solution_family(self):
        coeffs = gt.fit_j_mixing(-1.446, 1.293, mixing_ratio=0.04)
        g_par, g_perp = gt._g_mixed_52(coeffs.a, coeffs.b, coeffs.c, coeffs.d)
        assert g_par == pytest.approx(-1.446, abs=1e-6)
        assert g_perp == pytest.approx(1.293, abs=1e-6)
        assert coeffs.mixing_ratio == pytest.approx(0.04, abs=1e-9)

    def test_no_mixing_needed(self):
        a, b = gt.fit_doublet_amplitudes(-1.446)
        g_par, g_perp = gt.doublet_g_factors(
            gt.DoubletCoefficients(a, b, j=2.5, family="G56"))
        coeffs = gt.fit_j_mixing(g_par, abs(g_perp))
        assert coeffs.mixing_ratio < 1e-6

    def test_least_mixed_point_of_the_excited_doublet(self):
        # R_min from the tangency of the two g equations; the amplitudes of
        # the earlier random search, with b and d negated by the sign rule
        coeffs = gt.fit_j_mixing(-1.446, 1.293)
        assert coeffs.mixing_ratio == pytest.approx(0.0028012763104484, rel=1e-12)
        assert np.allclose([coeffs.a, coeffs.b, coeffs.c, coeffs.d],
                           [0.3893341793140597, 0.9195789502461117,
                            -0.045500468144866274, -0.026891606138438176],
                           rtol=0.0, atol=1e-8)

    def test_no_local_optimizer_finds_less_mixing(self):
        # SLSQP from the generating vector and from random starts finds
        # local minima of c^2 + d^2 on the target curve; none lies below the
        # Newton answer
        from scipy.optimize import minimize
        rng = np.random.default_rng(17)
        for _ in range(20):
            v0 = rng.normal(size=4)
            v0 /= np.linalg.norm(v0)
            t_par, t_perp = v0 @ gt._P_52 @ v0, v0 @ gt._Q_52 @ v0
            fit = gt.fit_j_mixing(t_par, t_perp)
            g_par, g_perp = gt.doublet_g_factors(fit)
            assert g_par == pytest.approx(t_par, abs=1e-9)
            assert g_perp == pytest.approx(abs(t_perp), abs=1e-9)
            constraints = [{"type": "eq", "fun": lambda v, m=m, t=t: v @ m @ v - t,
                            "jac": lambda v, m=m: 2.0 * m @ v}
                           for m, t in ((gt._P_52, t_par), (gt._Q_52, t_perp),
                                        (np.eye(4), 1.0))]
            oracle = []
            for start in [v0, *rng.normal(size=(4, 4))]:
                result = minimize(lambda v: v @ gt._D_52 @ v, start,
                                  jac=lambda v: 2.0 * gt._D_52 @ v,
                                  method="SLSQP", constraints=constraints,
                                  options={"ftol": 1e-15, "maxiter": 500})
                if result.success:
                    weight = result.x @ gt._D_52 @ result.x
                    oracle.append(weight / (1.0 - weight))
            assert oracle
            assert fit.mixing_ratio <= min(oracle) * (1.0 + 1e-9)

    def test_pinned_ratio_solvable_only_above_the_least_mixed_one(self):
        r_min = gt.fit_j_mixing(-1.446, 1.293).mixing_ratio
        with pytest.raises(NumericalError):
            gt.fit_j_mixing(-1.446, 1.293, mixing_ratio=r_min * (1.0 - 1e-6))
        above = gt.fit_j_mixing(-1.446, 1.293, mixing_ratio=r_min * (1.0 + 1e-3))
        assert above.mixing_ratio == pytest.approx(r_min * (1.0 + 1e-3), rel=1e-9)

    def test_sign_rule(self):
        for ratio in (None, 0.04, 1.0):
            coeffs = gt.fit_j_mixing(-1.446, 1.293, mixing_ratio=ratio)
            assert coeffs.a >= 0.0 and coeffs.b >= 0.0

    @pytest.mark.parametrize("ratio", [-0.1, math.nan, math.inf])
    def test_bad_mixing_ratio_rejected(self, ratio):
        with pytest.raises(ValidationError, match="mixing_ratio"):
            gt.fit_j_mixing(-1.446, 1.293, mixing_ratio=ratio)

    def test_unreachable_targets_raise(self):
        with pytest.raises(NumericalError) as err:
            gt.fit_j_mixing(0.0, 50.0)
        assert "residual" in str(err.value)
