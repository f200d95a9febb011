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

from .errors import (DomainError, NumericalError, ValidationError, check_finite,
                     check_non_negative)
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


def ed_predicted_unobserved(table: SelectionRuleTable) -> list[tuple[str, str, str]]:
    """ED-allowed polarizations that do not appear in the observed spectra."""
    missing = []
    for g, e, (ed, _) in table.rows():
        for pol in sorted(ed - OBSERVED_POLARIZATIONS[(g, e)]):
            missing.append((g, e, pol))
    return missing


# --- g factors of Kramers doublets -------------------------------------

def lande_g(j: float) -> float:
    """Lande g of the 4f13 level j: L = 3, S = 1/2, so S(S+1) - L(L+1) = 0.75 - 12."""
    return 1.0 + (j * (j + 1) + 0.75 - 12) / (2 * j * (j + 1))


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
        if not abs(norm - 1.0) <= 1e-9:
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


# The g factors of the J-mixed 5/2 G56 doublet are quadratic forms on its
# amplitude vector v = (a, b, c, d): g_par = v^T P v and the signed
# g_perp = v^T Q v.
_P_52 = np.array([
    [5 * G_52, 0.0, -2 * math.sqrt(6) / 7, 0.0],
    [0.0, -3 * G_52, 0.0, -2 * math.sqrt(10) / 7],
    [-2 * math.sqrt(6) / 7, 0.0, 5 * G_72, 0.0],
    [0.0, -2 * math.sqrt(10) / 7, 0.0, -3 * G_72]])
_Q_52 = np.array([
    [0.0, -math.sqrt(5) * G_52, 0.0, -math.sqrt(2) / 7],
    [-math.sqrt(5) * G_52, 0.0, -math.sqrt(30) / 7, 0.0],
    [0.0, -math.sqrt(30) / 7, 0.0, 2 * math.sqrt(3) * G_72],
    [-math.sqrt(2) / 7, 0.0, 2 * math.sqrt(3) * G_72, 0.0]])
# v^T D v = c^2 + d^2, the weight of the J = 7/2 admixture
_D_52 = np.diag([0.0, 0.0, 1.0, 1.0])


def _g_mixed_52(a, b, c, d):
    v = np.array([a, b, c, d], dtype=float)
    return float(v @ _P_52 @ v), abs(float(v @ _Q_52 @ v))


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
    check_finite("g_parallel", g_parallel)
    s = 1.0 if order == "upper" else -1.0
    if family == "G78":
        return abs(s * g_parallel - 7 * G_72) / 2.0 if j == 3.5 else 3.0 * G_52
    if j == 3.5:
        rhs = -3 * g_parallel**2 + s * 6 * G_72 * g_parallel + 45 * G_72**2
        scale = 2.0
    else:
        rhs = -5 * g_parallel**2 + s * 10 * G_52 * g_parallel + 75 * G_52**2
        scale = 4.0
    if not rhs >= 0:
        raise DomainError(f"no real g_perp for g_parallel = {g_parallel}")
    return math.sqrt(rhs) / scale


# Newton steps per start, and the largest equation residual that counts as
# a solution.
_NEWTON_STEPS = 40
_JMIX_TOL = 1e-12


def _start_grid() -> np.ndarray:
    """Unit vectors (a, b, c, d) at 6 x 6 x 6 hyperspherical angles; negating
    b and d maps the grid onto itself."""
    k = (np.arange(6) + 0.5) / 6
    t1, t2, t3 = np.meshgrid(np.pi * k, np.pi * k, 2 * np.pi * k, indexing="ij")
    return np.stack([np.cos(t1), np.sin(t1) * np.cos(t2),
                     np.sin(t1) * np.sin(t2) * np.cos(t3),
                     np.sin(t1) * np.sin(t2) * np.sin(t3)], axis=-1).reshape(-1, 4)


_JMIX_STARTS = _start_grid()


def _newton(system, x):
    """Newton's method from starts x (n, k); system(x) returns the residuals
    (n, k) and Jacobians (n, k, k).  Returns the finite end points and the
    largest absolute residual of each."""
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            f, jac = system(x)
            live = np.isfinite(f).all(axis=1) & np.isfinite(jac).all(axis=(1, 2))
            x, f, jac = x[live], f[live], jac[live]
            x = x - np.linalg.solve(jac, f[..., None])[..., 0]
        residual = np.max(np.abs(system(x)[0]), axis=1)
    keep = np.isfinite(residual)
    return x[keep], residual[keep]


def _g_constraints(v, t_par, t_perp):
    """Rows (v^T P, v^T Q, v^T) per vector, and the residuals of
    g_par = t_par, signed g_perp = t_perp and |v|^2 = 1."""
    rows = np.stack([v @ _P_52, v @ _Q_52, v], axis=1)
    return rows, np.einsum("nkj,nj->nk", rows, v) - [t_par, t_perp, 1.0]


def _pinned_solutions(t_par, t_perp, ratio):
    """Vectors with the target g pair and (c^2+d^2)/(a^2+b^2) = ratio: four
    quadratic equations in (a, b, c, d), Jacobian rows 2 v^T (P, Q, 1, D)."""
    weight = ratio / (1.0 + ratio)

    def system(v):
        rows, residual = _g_constraints(v, t_par, t_perp)
        dv = v @ _D_52
        return (np.column_stack([residual, (dv * v).sum(axis=1) - weight]),
                2.0 * np.concatenate([rows, dv[:, None, :]], axis=1))

    return _newton(system, _JMIX_STARTS)


def _least_mixed_solutions(t_par, t_perp):
    """Stationary points of v^T D v on the target curve: the KKT system
    (D - lam P - mu Q - nu I) v = 0 plus the three constraints, started
    from least-squares multipliers."""
    forms = np.stack([_P_52, _Q_52, np.eye(4)])

    def system(x):
        v, multipliers = x[:, :4], x[:, 4:]
        rows, residual = _g_constraints(v, t_par, t_perp)
        jac = np.zeros((len(x), 7, 7))
        jac[:, :4, :4] = _D_52 - np.einsum("nk,kij->nij", multipliers, forms)
        jac[:, :4, 4:] = -rows.transpose(0, 2, 1)
        jac[:, 4:, :4] = 2.0 * rows
        gradient = v @ _D_52 - np.einsum("nk,nkj->nj", multipliers, rows)
        return np.column_stack([gradient, residual]), jac

    rows, _ = _g_constraints(_JMIX_STARTS, t_par, t_perp)
    multipliers = np.einsum("nkj,nj->nk", np.linalg.pinv(rows.transpose(0, 2, 1)),
                            _JMIX_STARTS @ _D_52)
    x, residual = _newton(system, np.column_stack([_JMIX_STARTS, multipliers]))
    return x[:, :4], residual


def fit_j_mixing(target_g_parallel: float, target_g_perpendicular: float,
                 mixing_ratio: float | None = None) -> DoubletCoefficients:
    """Amplitudes (a, b, c, d) reproducing the target g pair of the 5/2 doublet.

    A deterministic polynomial solve: Newton's method with the exact
    Jacobian from the fixed start grid.  Two g values leave a one-parameter
    family of solutions along which R = (c^2+d^2)/(a^2+b^2) varies; the
    least-mixed member is returned (J mixing treated as a perturbation).
    Pass `mixing_ratio` to pin R instead; of the (at most two) solutions
    left, the one with the larger a is returned.  Only g_perp = +|target|
    is solved, as negating b and d maps it onto -|target|.  Signs follow
    the rule a >= 0, then b >= 0.  Raises NumericalError when no start
    converges.
    """
    check_finite("targets", target_g_parallel, target_g_perpendicular)
    t_par, t_perp = target_g_parallel, abs(target_g_perpendicular)
    if mixing_ratio is None:
        v, residual = _least_mixed_solutions(t_par, t_perp)
    else:
        check_non_negative("mixing_ratio", mixing_ratio)
        v, residual = _pinned_solutions(t_par, t_perp, mixing_ratio)
    solved = residual <= _JMIX_TOL
    if not solved.any():
        g_residual = np.abs(_g_constraints(v, t_par, t_perp)[1]).max(axis=1)
        raise NumericalError("J-mixing fit did not converge: best residual "
                             f"{g_residual.min(initial=np.inf):.3e}")
    # negating v, or b and d alone, changes neither g_par nor |g_perp|
    v = v[solved]
    v = np.where(v[:, :1] < 0, -v, v)
    v = np.where(v[:, 1:2] < 0, v * [1.0, -1.0, 1.0, -1.0], v)
    if mixing_ratio is None:
        best = v[np.argmin(v[:, 2] ** 2 + v[:, 3] ** 2)]
    else:
        best = v[np.argmax(v[:, 0])]
    return DoubletCoefficients.normalized(*best.tolist(), j=2.5, family="G56",
                                          order="upper")


def fit_doublet_amplitudes(g_parallel: float) -> tuple[float, float]:
    """(a, b) >= 0 of the unmixed J = 5/2 G56 doublet reproducing g_parallel
    exactly."""
    # g_par = G_52 (5a^2 - 3b^2) = G_52 (8a^2 - 3)
    a_sq = (g_parallel / G_52 + 3.0) / 8.0
    if not 0.0 <= a_sq <= 1.0:
        raise DomainError(f"g_parallel = {g_parallel} is outside the doublet range")
    return math.sqrt(a_sq), math.sqrt(1.0 - a_sq)
