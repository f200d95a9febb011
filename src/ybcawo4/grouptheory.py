"""Point-group data for the S4 and D2d double groups and what follows from it:
irrep products, electric/magnetic dipole selection rules for the hyperfine
levels, crystal-field g-factor relations and the J-mixing fit.

Everything downstream of the two multiplication tables is derived, not
transcribed: selection rules come from operator-irrep membership in the
product decomposition, hyperfine-level tables from the electronic x nuclear
spinor products.

Irrep labels are ASCII ("G1".."G8"); "G56"/"G78" denote the time-reversal
conjugate 1-dim pairs of S4 that act as two-fold levels, "G34" the paired
complex-conjugate singlets that form the degenerate hyperfine doublet.
Polarizations: "pi" (E parallel c), "sigma" (E perp c, k perp c), "alpha"
(k parallel c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, ValidationError
from .params import EXCITED_GROUPS, GROUND_GROUPS

PI, SIGMA, ALPHA = "pi", "sigma", "alpha"
POLARIZATIONS = (ALPHA, SIGMA, PI)


def _label(label: str) -> str:
    """An irrep label in its ASCII form: surrounding blanks stripped and the
    Greek Gamma written as G."""
    return label.strip().replace("Γ", "G")


@dataclass(frozen=True)
class PointGroup:
    name: str
    irreps: tuple[str, ...]
    dims: dict[str, int]
    products: dict[tuple[str, str], tuple[str, ...]]
    aliases: dict[str, tuple[str, ...]]   # composite labels -> base irreps
    ed_z: tuple[str, ...]                 # irrep(s) of the z electric dipole
    ed_xy: tuple[str, ...]
    md_z: tuple[str, ...]                 # irrep(s) of R_z
    md_xy: tuple[str, ...]
    spinor_families: tuple[str, ...]      # electronic Kramers-doublet labels
    nuclear_spinor: str                   # irrep family of the I=1/2 spin
    hyperfine_doublet: str                # two-fold hyperfine level label

    def components(self, label: str) -> tuple[str, ...]:
        label = _label(label)
        if label in self.aliases:
            return self.aliases[label]
        if label in self.irreps:
            return (label,)
        raise ValidationError(f"unknown irrep label {label!r} for {self.name}")


def _symmetrize(upper: dict[tuple[str, str], tuple[str, ...]]):
    table = {}
    for (x, y), prod in upper.items():
        table[(x, y)] = tuple(sorted(prod))
        table[(y, x)] = tuple(sorted(prod))
    return table


# Upper-triangular product tables of the two double groups.  Both are
# verified against the group axioms in the test suite.
_S4_UPPER = {
    ("G1", "G1"): ("G1",), ("G1", "G2"): ("G2",), ("G1", "G3"): ("G3",),
    ("G1", "G4"): ("G4",), ("G1", "G5"): ("G5",), ("G1", "G6"): ("G6",),
    ("G1", "G7"): ("G7",), ("G1", "G8"): ("G8",),
    ("G2", "G2"): ("G1",), ("G2", "G3"): ("G4",), ("G2", "G4"): ("G3",),
    ("G2", "G5"): ("G7",), ("G2", "G6"): ("G8",), ("G2", "G7"): ("G5",),
    ("G2", "G8"): ("G6",),
    ("G3", "G3"): ("G2",), ("G3", "G4"): ("G1",), ("G3", "G5"): ("G8",),
    ("G3", "G6"): ("G5",), ("G3", "G7"): ("G6",), ("G3", "G8"): ("G7",),
    ("G4", "G4"): ("G2",), ("G4", "G5"): ("G6",), ("G4", "G6"): ("G7",),
    ("G4", "G7"): ("G8",), ("G4", "G8"): ("G5",),
    ("G5", "G5"): ("G3",), ("G5", "G6"): ("G1",), ("G5", "G7"): ("G4",),
    ("G5", "G8"): ("G2",),
    ("G6", "G6"): ("G4",), ("G6", "G7"): ("G2",), ("G6", "G8"): ("G3",),
    ("G7", "G7"): ("G3",), ("G7", "G8"): ("G1",),
    ("G8", "G8"): ("G4",),
}

_D2D_UPPER = {
    ("G1", "G1"): ("G1",), ("G1", "G2"): ("G2",), ("G1", "G3"): ("G3",),
    ("G1", "G4"): ("G4",), ("G1", "G5"): ("G5",), ("G1", "G6"): ("G6",),
    ("G1", "G7"): ("G7",),
    ("G2", "G2"): ("G1",), ("G2", "G3"): ("G4",), ("G2", "G4"): ("G3",),
    ("G2", "G5"): ("G5",), ("G2", "G6"): ("G6",), ("G2", "G7"): ("G7",),
    ("G3", "G3"): ("G1",), ("G3", "G4"): ("G2",), ("G3", "G5"): ("G5",),
    ("G3", "G6"): ("G7",), ("G3", "G7"): ("G6",),
    ("G4", "G4"): ("G1",), ("G4", "G5"): ("G5",), ("G4", "G6"): ("G7",),
    ("G4", "G7"): ("G6",),
    ("G5", "G5"): ("G1", "G2", "G3", "G4"), ("G5", "G6"): ("G6", "G7"),
    ("G5", "G7"): ("G6", "G7"),
    ("G6", "G6"): ("G1", "G2", "G5"), ("G6", "G7"): ("G3", "G4", "G5"),
    ("G7", "G7"): ("G1", "G2", "G5"),
}

S4 = PointGroup(
    name="S4",
    irreps=tuple(f"G{k}" for k in range(1, 9)),
    dims={f"G{k}": 1 for k in range(1, 9)},
    products=_symmetrize(_S4_UPPER),
    aliases={"G34": ("G3", "G4"), "G56": ("G5", "G6"), "G78": ("G7", "G8")},
    ed_z=("G2",), ed_xy=("G3", "G4"),
    md_z=("G1",), md_xy=("G3", "G4"),
    spinor_families=("G56", "G78"),
    nuclear_spinor="G78",
    hyperfine_doublet="G34",
)

D2D = PointGroup(
    name="D2d",
    irreps=tuple(f"G{k}" for k in range(1, 8)),
    dims={"G1": 1, "G2": 1, "G3": 1, "G4": 1, "G5": 2, "G6": 2, "G7": 2},
    products=_symmetrize(_D2D_UPPER),
    aliases={},
    ed_z=("G4",), ed_xy=("G5",),
    md_z=("G2",), md_xy=("G5",),
    spinor_families=("G6", "G7"),
    nuclear_spinor="G7",
    hyperfine_doublet="G5",
)

def irrep_product(group: PointGroup, x, y) -> tuple[str, ...]:
    """Decomposition of x (x) y as a sorted multiset of base irreps.

    x and y may be base labels, composite aliases ("G56") or iterables of
    labels; composite inputs distribute over the product.
    """
    def expand(label):
        if isinstance(label, str):
            return group.components(label)
        out = []
        for item in label:
            out.extend(group.components(item))
        return tuple(out)

    result = []
    for xi in expand(x):
        for yi in expand(y):
            result.extend(group.products[(xi, yi)])
    return tuple(sorted(result))


@dataclass(frozen=True)
class HyperfineIrreps:
    """Irrep content of the four hyperfine levels of one manifold."""

    decomposition: tuple[str, ...]
    singlets: tuple[str, str]
    doublet: str


def hyperfine_level_irreps(group: PointGroup, electronic_family: str) -> HyperfineIrreps:
    """Electronic spinor family x nuclear spinor, split into level irreps."""
    family = _label(electronic_family)
    if family not in group.spinor_families:
        raise ValidationError(
            f"{family!r} is not a spinor family of {group.name}; "
            f"expected one of {group.spinor_families}")
    decomposition = irrep_product(group, family, group.nuclear_spinor)
    doublet_parts = group.components(group.hyperfine_doublet)
    remaining = list(decomposition)
    for part in doublet_parts:
        remaining.remove(part)
    if len(remaining) != 2:
        raise ValidationError("unexpected hyperfine decomposition")
    return HyperfineIrreps(decomposition=decomposition,
                           singlets=(remaining[0], remaining[1]),
                           doublet=group.hyperfine_doublet)


def dipole_selection_rules(group: PointGroup, irrep_g, irrep_e):
    """(ED polarizations, MD polarizations) allowed between two level irreps."""
    product = irrep_product(group, irrep_g, irrep_e)
    ed, md = set(), set()
    if any(op in product for op in group.ed_z):
        ed.add(PI)
    if any(op in product for op in group.ed_xy):
        ed.update((SIGMA, ALPHA))
    if any(op in product for op in group.md_z):
        md.add(SIGMA)
    if any(op in product for op in group.md_xy):
        md.update((PI, ALPHA))
    return frozenset(ed), frozenset(md)


@dataclass(frozen=True)
class SelectionRuleTable:
    """Per (ground level, excited level) the allowed ED and MD polarizations."""

    group: str
    ground_irreps: dict[str, str]
    excited_irreps: dict[str, str]
    cells: dict[tuple[str, str], tuple[frozenset, frozenset]]

    def ed(self, ground: str, excited: str) -> frozenset:
        return self.cells[(ground, excited)][0]

    def md(self, ground: str, excited: str) -> frozenset:
        return self.cells[(ground, excited)][1]

    def rows(self):
        for g in GROUND_GROUPS:
            for e in EXCITED_GROUPS:
                yield g, e, self.cells[(g, e)]


def _format_pols(pols: frozenset) -> str:
    if not pols:
        return "-"
    return "+".join(p for p in POLARIZATIONS if p in pols)


def format_selection_table(table: SelectionRuleTable) -> str:
    """Aligned text rendering, MD rules in parentheses."""
    header = ["g\\e"] + [f"|{e}>e ({table.excited_irreps[e]})"
                         for e in EXCITED_GROUPS]
    lines = [header]
    for g in GROUND_GROUPS:
        row = [f"<{g}|g ({table.ground_irreps[g]})"]
        for e in EXCITED_GROUPS:
            ed, md = table.cells[(g, e)]
            row.append(f"{_format_pols(ed)} ({_format_pols(md)})")
        lines.append(row)
    widths = [max(len(r[i]) for r in lines) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                     for row in lines)


def _validate_assignment(group, assignment, level_groups):
    doublet_slot = next(name for name in level_groups if len(name) == 2)
    got = {}
    for k, v in assignment.items():
        label = _label(v)
        group.components(label)  # raises on unknown labels
        got[k] = label
    if set(got) != set(level_groups):
        raise ValidationError(f"assignment must cover levels {level_groups}")
    if got[doublet_slot] != group.hyperfine_doublet:
        raise ValidationError(
            f"the two-fold level {doublet_slot!r} must carry "
            f"{group.hyperfine_doublet}, got {got[doublet_slot]!r}")
    multiset = sorted(
        part for v in got.values() for part in group.components(v))
    valid = {tuple(sorted(hyperfine_level_irreps(group, fam).decomposition))
             for fam in group.spinor_families}
    if tuple(multiset) not in valid:
        raise ValidationError(
            f"assignment {assignment} is not a hyperfine decomposition of any "
            f"{group.name} spinor family")
    return got


def hyperfine_selection_table(group: PointGroup, ground_assignment: dict,
                              excited_assignment: dict) -> SelectionRuleTable:
    """3x3 selection-rule table over the hyperfine level groups.

    Assignments map the ground and excited level groups (params.GROUND_GROUPS,
    params.EXCITED_GROUPS) to level irreps consistent with
    hyperfine_level_irreps; the two-level group carries the hyperfine doublet.
    """
    g_ir = _validate_assignment(group, ground_assignment, GROUND_GROUPS)
    e_ir = _validate_assignment(group, excited_assignment, EXCITED_GROUPS)
    cells = {}
    for g in GROUND_GROUPS:
        for e in EXCITED_GROUPS:
            cells[(g, e)] = dipole_selection_rules(group, g_ir[g], e_ir[e])
    return SelectionRuleTable(group=group.name, ground_irreps=g_ir,
                              excited_irreps=e_ir, cells=cells)


# Named level-irrep assignments.  "same"/"different" states whether ground
# and excited manifolds carry the same spinor family; the D2d same-family
# variant is the best fit to the observed optical polarizations.
ASSIGNMENTS = {
    "s4-different": ({"1": "G2", "23": "G34", "4": "G2"},
                     {"12": "G34", "3": "G1", "4": "G1"}),
    "s4-same": ({"1": "G2", "23": "G34", "4": "G2"},
                {"12": "G34", "3": "G2", "4": "G2"}),
    "d2d-different": ({"1": "G3", "23": "G5", "4": "G4"},
                      {"12": "G5", "3": "G2", "4": "G1"}),
    "d2d-same": ({"1": "G3", "23": "G5", "4": "G4"},
                 {"12": "G5", "3": "G4", "4": "G3"}),
}
DEFAULT_ASSIGNMENT = "d2d-same"


def named_selection_table(name: str = DEFAULT_ASSIGNMENT) -> SelectionRuleTable:
    try:
        ground, excited = ASSIGNMENTS[name]
    except KeyError:
        raise ValidationError(f"unknown assignment {name!r}; "
                              f"choose from {sorted(ASSIGNMENTS)}") from None
    group = S4 if name.startswith("s4") else D2D
    return hyperfine_selection_table(group, ground, excited)


# Observed optical-absorption polarizations between hyperfine level groups.
OBSERVED_POLARIZATIONS = {
    ("1", "12"): frozenset((ALPHA, SIGMA, PI)),
    ("1", "3"): frozenset((SIGMA,)),
    ("1", "4"): frozenset(),
    ("23", "12"): frozenset((SIGMA,)),
    ("23", "3"): frozenset((ALPHA, SIGMA, PI)),
    ("23", "4"): frozenset((ALPHA, SIGMA, PI)),
    ("4", "12"): frozenset((ALPHA, SIGMA, PI)),
    ("4", "3"): frozenset(),
    ("4", "4"): frozenset((SIGMA,)),
}


def ed_predicted_unobserved(table: SelectionRuleTable,
                            observed=None) -> list[tuple[str, str, str]]:
    """ED-allowed polarizations that do not appear in the observed spectra."""
    observed = OBSERVED_POLARIZATIONS if observed is None else observed
    missing = []
    for g, e, (ed, _) in table.rows():
        for pol in sorted(ed - observed[(g, e)]):
            missing.append((g, e, pol))
    return missing


# --- g factors of Kramers doublets -------------------------------------

def lande_g(j: float, l: int = 3, s: float = 0.5) -> float:
    return 1.0 + (j * (j + 1) + s * (s + 1) - l * (l + 1)) / (2 * j * (j + 1))


G_52 = lande_g(2.5)   # 6/7
G_72 = lande_g(3.5)   # 8/7

_FAMILY_CANON = {"G56": "G56", "G78": "G78", "G6": "G56", "G7": "G78"}


def _doublet_family(family: str) -> str:
    """The canonical S4 name ("G56" or "G78") of a doublet family label;
    the D2d names "G6"/"G7" and any _label spelling are accepted."""
    canon = _FAMILY_CANON.get(_label(family))
    if canon is None:
        raise ValidationError(f"unknown doublet family {family!r}")
    return canon


def _check_j(j: float) -> None:
    if j not in (2.5, 3.5):
        raise ValidationError(f"j must be 2.5 or 3.5, got {j!r}")


@dataclass(frozen=True)
class DoubletCoefficients:
    """Wavefunction amplitudes of a Kramers doublet.

    (a, b) are the in-manifold amplitudes; (c, d) an optional admixture of
    the other J manifold (J-mixing).  `order` states whether the first
    member of the irrep pair lies above ("upper") or below ("lower") its
    conjugate in energy, which fixes the sign convention of g_parallel.
    `family` is stored in its canonical S4 form ("G56" or "G78").
    """

    a: float
    b: float
    c: float = 0.0
    d: float = 0.0
    j: float = 3.5
    family: str = "G56"
    order: str = "upper"

    def __post_init__(self):
        norm = self.a**2 + self.b**2 + self.c**2 + self.d**2
        if abs(norm - 1.0) > 1e-9:
            raise ValidationError(f"coefficients must be normalized, |.|^2 = {norm}")
        _check_j(self.j)
        object.__setattr__(self, "family", _doublet_family(self.family))
        if self.order not in ("upper", "lower"):
            raise ValidationError("order must be 'upper' or 'lower'")

    @classmethod
    def normalized(cls, a, b, c=0.0, d=0.0, **kwargs):
        """Build from unnormalized amplitudes, rescaling to unit norm."""
        norm = math.sqrt(a * a + b * b + c * c + d * d)
        if norm == 0.0:
            raise ValidationError("coefficients cannot all vanish")
        return cls(a / norm, b / norm, c / norm, d / norm, **kwargs)

    @property
    def mixing_ratio(self) -> float:
        return (self.c**2 + self.d**2) / (self.a**2 + self.b**2)


def _g_mixed_52(a, b, c, d):
    g_par = (G_52 * (5 * a * a - 3 * b * b)
             - (2 * math.sqrt(6) / 7) * 2 * a * c
             - (2 * math.sqrt(10) / 7) * 2 * b * d
             + G_72 * (5 * c * c - 3 * d * d))
    g_perp = abs(-2 * math.sqrt(5) * G_52 * a * b
                 - (2 * math.sqrt(30) / 7) * b * c
                 - (2 * math.sqrt(2) / 7) * a * d
                 + 4 * math.sqrt(3) * G_72 * c * d)
    return g_par, g_perp


def doublet_g_factors(coeffs: DoubletCoefficients) -> tuple[float, float]:
    """(g_parallel, |g_perpendicular|) of the doublet from its amplitudes.

    g_perp is returned as a magnitude on every branch, as _g_mixed_52,
    g_consistency_relation and fit_j_mixing treat it; the sign of g_parallel
    follows `order`.
    """
    sign = 1.0 if coeffs.order == "upper" else -1.0
    a, b = coeffs.a, coeffs.b
    if coeffs.j == 2.5:
        if coeffs.family == "G78":
            # pure |5/2, -+1/2> doublet: no free amplitudes
            return sign * G_52, 3.0 * G_52
        g_par, g_perp = _g_mixed_52(a, b, coeffs.c, coeffs.d)
        return sign * g_par, g_perp
    if coeffs.c or coeffs.d:
        raise ValidationError("J mixing is only implemented for the 5/2 doublet")
    if coeffs.family == "G56":
        return sign * G_72 * (5 * a * a - 3 * b * b), abs(4 * math.sqrt(3) * G_72 * a * b)
    return sign * G_72 * (7 * a * a - b * b), 4 * G_72 * b * b


def g_consistency_relation(j: float, family: str, order: str, g_parallel: float) -> float:
    """Predicted |g_perp| from g_parallel via the closed-form doublet relations.

    The sign convention matches doublet_g_factors: 'upper' pairs with the
    positive g_parallel expression.  Quadratic branches raise DomainError
    when the discriminant goes negative.
    """
    _check_j(j)
    family = _doublet_family(family)
    if order not in ("upper", "lower"):
        raise ValidationError("order must be 'upper' or 'lower'")
    s = 1.0 if order == "upper" else -1.0
    if j == 3.5:
        if family == "G56":
            rhs = -3 * g_parallel**2 + s * 6 * G_72 * g_parallel + 45 * G_72**2
            if rhs < 0:
                raise DomainError(f"no real g_perp for g_parallel = {g_parallel}")
            return math.sqrt(rhs) / 2.0
        return abs(s * g_parallel - 7 * G_72) / 2.0
    if family == "G56":
        rhs = -5 * g_parallel**2 + s * 10 * G_52 * g_parallel + 75 * G_52**2
        if rhs < 0:
            raise DomainError(f"no real g_perp for g_parallel = {g_parallel}")
        return math.sqrt(rhs) / 4.0
    return 3.0 * G_52


def _nelder_mead(f, x0, scale=0.4, max_iter=4000, ftol=1e-14, xtol=1e-12):
    """Minimal Nelder-Mead simplex; returns (x_best, f_best)."""
    n = len(x0)
    simplex = [np.asarray(x0, dtype=float)]
    for i in range(n):
        x = simplex[0].copy()
        x[i] += scale
        simplex.append(x)
    values = [f(x) for x in simplex]
    for _ in range(max_iter):
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if (values[-1] - values[0] < ftol
                and max(np.max(np.abs(s - simplex[0])) for s in simplex) < xtol):
            break
        centroid = np.mean(simplex[:-1], axis=0)
        reflected = centroid + (centroid - simplex[-1])
        fr = f(reflected)
        if fr < values[0]:
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            fe = f(expanded)
            simplex[-1], values[-1] = ((expanded, fe) if fe < fr else (reflected, fr))
        elif fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
        else:
            contracted = centroid + 0.5 * (simplex[-1] - centroid)
            fc = f(contracted)
            if fc < values[-1]:
                simplex[-1], values[-1] = contracted, fc
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = f(simplex[i])
    best = int(np.argmin(values))
    return simplex[best], values[best]


def _angles_to_coeffs(theta):
    t1, t2, t3 = theta
    a = math.cos(t1)
    b = math.sin(t1) * math.cos(t2)
    c = math.sin(t1) * math.sin(t2) * math.cos(t3)
    d = math.sin(t1) * math.sin(t2) * math.sin(t3)
    return a, b, c, d


# Random restarts of the J-mixing fit, and the g residual it must reach.
_JMIX_RESTARTS = 10
_JMIX_TOL = 1e-6


def _fit_at_fixed_mixing(t_par, t_perp, ratio, rng):
    """Best (a,b,c,d) with (c^2+d^2)/(a^2+b^2) pinned to `ratio`."""
    n_ab = 1.0 / math.sqrt(1.0 + ratio)
    n_cd = math.sqrt(ratio) / math.sqrt(1.0 + ratio)

    def coeffs(v):
        t, p = v
        return (math.cos(t) * n_ab, math.sin(t) * n_ab,
                math.cos(p) * n_cd, math.sin(p) * n_cd)

    def objective(v):
        g_par, g_perp = _g_mixed_52(*coeffs(v))
        return (g_par - t_par) ** 2 + (g_perp - t_perp) ** 2

    best_v, best_val = None, np.inf
    for _ in range(_JMIX_RESTARTS * 4):
        v, val = _nelder_mead(objective, rng.uniform(0, 2 * np.pi, 2))
        if val < best_val:
            best_v, best_val = v, val
    return coeffs(best_v), best_val


def fit_j_mixing(target_g_parallel: float, target_g_perpendicular: float,
                 seed: int = 0, mixing_ratio: float | None = None
                 ) -> DoubletCoefficients:
    """Amplitudes (a, b, c, d) reproducing the target g pair of the 5/2 doublet.

    Minimizes the squared residual of the J-mixing g expressions over the
    normalized coefficient vector (three free angles) with _JMIX_RESTARTS
    random restarts.  Two g values do not pin down four amplitudes: when the
    targets are exactly attainable the solutions form a one-parameter family
    along which the mixing ratio varies, so among all restarts that reach
    the residual tolerance _JMIX_TOL the one with the smallest admixture is
    returned (J mixing treated as a perturbation).  Pass `mixing_ratio` to pin
    (c^2+d^2)/(a^2+b^2) instead and probe whether a solution with that much
    mixing reproduces the targets.

    Raises NumericalError when no restart reaches the tolerance.
    """
    if not (math.isfinite(target_g_parallel) and math.isfinite(target_g_perpendicular)):
        raise ValidationError("targets must be finite")
    t_par, t_perp = target_g_parallel, abs(target_g_perpendicular)
    rng = np.random.default_rng(seed)

    if mixing_ratio is not None:
        if mixing_ratio < 0:
            raise ValidationError("mixing_ratio must be non-negative")
        (a, b, c, d), best_val = _fit_at_fixed_mixing(t_par, t_perp, mixing_ratio,
                                                      rng)
        best = (a, b, c, d)
    else:
        def objective(theta):
            g_par, g_perp = _g_mixed_52(*_angles_to_coeffs(theta))
            return (g_par - t_par) ** 2 + (g_perp - t_perp) ** 2

        # deterministic start at the unmixed solution, then random restarts
        try:
            unmixed = fit_doublet_amplitudes(t_par, j=2.5, family="G56")
            starts = [np.array([math.acos(unmixed[0]), 0.0, 0.0])]
        except DomainError:
            starts = [np.array([0.8, 0.4, 0.4])]
        starts += [rng.uniform(0, np.pi, 3) for _ in range(_JMIX_RESTARTS - 1)]
        best, best_val = None, np.inf
        converged = []
        for theta0 in starts:
            theta, value = _nelder_mead(objective, theta0)
            if value < best_val:
                best, best_val = _angles_to_coeffs(theta), value
            if value <= _JMIX_TOL**2:
                converged.append(_angles_to_coeffs(theta))
        if converged:
            best = min(converged, key=lambda x: x[2] ** 2 + x[3] ** 2)
            # slide along the solution family to the least-mixed point
            theta0 = np.array([math.acos(np.clip(best[0], -1, 1)),
                               math.atan2(math.hypot(best[2], best[3]), best[1]),
                               math.atan2(best[3], best[2])])
            for penalty in (1e6, 1e9, 1e12):
                theta0, _ = _nelder_mead(
                    lambda th: penalty * objective(th)
                    + _angles_to_coeffs(th)[2] ** 2 + _angles_to_coeffs(th)[3] ** 2,
                    theta0, scale=0.05)
            polished = _angles_to_coeffs(theta0)
            if objective(theta0) <= _JMIX_TOL**2:
                best = polished
            g_par, g_perp = _g_mixed_52(*best)
            best_val = (g_par - t_par) ** 2 + (g_perp - t_perp) ** 2

    if best_val > _JMIX_TOL**2:
        raise NumericalError(
            f"J-mixing fit did not converge: best residual {math.sqrt(best_val):.3e}")
    a, b, c, d = best
    if a < 0:  # global sign freedom
        a, b, c, d = -a, -b, -c, -d
    norm = math.sqrt(a * a + b * b + c * c + d * d)
    return DoubletCoefficients(a / norm, b / norm, c / norm, d / norm,
                               j=2.5, family="G56", order="upper")


def fit_doublet_amplitudes(g_parallel: float, j: float = 2.5,
                           family: str = "G56") -> tuple[float, float]:
    """(a, b) >= 0 of the unmixed doublet reproducing g_parallel exactly.

    j must be 2.5 or 3.5; family may be any spelling _doublet_family takes.
    """
    _check_j(j)
    if _doublet_family(family) != "G56":
        raise ValidationError("closed-form inversion implemented for the G56 family")
    g_j = G_52 if j == 2.5 else G_72
    # g_par = g_j (5a^2 - 3b^2) = g_j (8a^2 - 3)
    a_sq = (g_parallel / g_j + 3.0) / 8.0
    if not 0.0 <= a_sq <= 1.0:
        raise DomainError(f"g_parallel = {g_parallel} is outside the doublet range")
    return math.sqrt(a_sq), math.sqrt(1.0 - a_sq)
