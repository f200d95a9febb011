"""Optical transition catalogs, Gaussian-broadened absorption spectra,
magnetic-field sweep maps and EPR resonance-field searches.

Detunings are quoted in GHz relative to the optical center (the electronic
transition frequency with all hyperfine splittings removed); the zero-spin
isotope line sits at a configurable offset, 0 by default.
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, spinham
from .constants import CONSTANTS
from .errors import NumericalError, ValidationError
from .params import (EXCITED_LEVEL_GROUP, GROUND_LEVEL_GROUP, Manifold,
                     SpinSystemParams)

DEFAULT_I0_FRACTION = 0.05  # zero-spin isotope weight as a fraction of the total
# Gaussian FWHM (MHz) of the 171Yb and I = 0 lines in the field-sweep data
SWEEP_FWHM_171_MHZ = 136.0
SWEEP_FWHM_I0_MHZ = 153.0


@dataclass(frozen=True)
class BranchingTable:
    """Relative optical weights between ground and excited level groups.

    Rows: ground groups (params.GROUND_GROUPS); columns: excited groups
    (params.EXCITED_GROUPS).  Values are relative intensities in [0, 1].
    """

    weights: np.ndarray
    polarization: str | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (3, 3):
            raise ValidationError("branching table must be 3x3")
        if np.any(w < 0) or np.any(w > 1):
            raise ValidationError("branching weights must lie in [0, 1]")
        object.__setattr__(self, "weights", w)

    def line_weight(self, ground_level: int, excited_level: int) -> float:
        """Table weight of the line between two 1-based levels.

        Levels map to groups by the layout alone; the params-taking callers
        check a tensor against it (spinham.checked_zero_field_levels).
        """
        if not (1 <= ground_level <= 4 and 1 <= excited_level <= 4):
            raise ValidationError("line levels must be 1..4")
        return float(self.weights[GROUND_LEVEL_GROUP[ground_level - 1],
                                  EXCITED_LEVEL_GROUP[excited_level - 1]])


# Measured relative branching ratios of the tetragonal site, one table per
# polarization (sigma: E perp c, pi: E parallel c, alpha: k parallel c).
MEASURED_BRANCHING = {
    "sigma": BranchingTable(np.array([[0.3, 0.7, 0.0],
                                      [1.0, 0.3, 0.7],
                                      [0.7, 0.0, 0.3]]), "sigma"),
    "pi": BranchingTable(np.array([[1.0, 0.0, 0.0],
                                   [0.0, 1.0, 1.0],
                                   [1.0, 0.0, 0.0]]), "pi"),
    "alpha": BranchingTable(np.array([[1.0, 0.0, 0.0],
                                      [0.0, 1.0, 1.0],
                                      [1.0, 0.0, 0.0]]), "alpha"),
}


@dataclass(frozen=True)
class TransitionLine:
    ground_index: int
    excited_index: int
    detuning_ghz: float
    weight: float
    polarization: str | None = None
    isotope: str = "171Yb"

    def __post_init__(self):
        if self.weight < 0:
            raise ValidationError("line weight must be non-negative")
        upper = 4 if self.isotope == "171Yb" else 2
        if not (1 <= self.ground_index <= upper and 1 <= self.excited_index <= upper):
            raise ValidationError("level index out of range")


@dataclass(frozen=True)
class Spectrum:
    """Absorption trace on a uniform, strictly increasing detuning grid."""

    detuning_ghz: np.ndarray
    absorption: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.detuning_ghz, dtype=float)
        y = np.asarray(self.absorption, dtype=float)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValidationError("grid and absorption must be 1-d arrays of one length")
        if x.size < 2:
            raise ValidationError("spectrum needs at least two grid points")
        steps = np.diff(x)
        if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9):
            raise ValidationError("detuning grid must be uniform and increasing")
        if np.any(y < -1e-12):
            raise ValidationError("absorption must be non-negative")
        object.__setattr__(self, "detuning_ghz", x)
        object.__setattr__(self, "absorption", y)

    def area(self) -> float:
        return float(np.trapezoid(self.absorption, self.detuning_ghz))


@dataclass(frozen=True)
class SweepMap:
    """One spectrum per field value, all sharing a single detuning grid."""

    field_values_mt: np.ndarray
    axis: np.ndarray
    detuning_ghz: np.ndarray
    absorption: np.ndarray        # (n_fields, n_grid)

    def __post_init__(self):
        if self.absorption.shape != (self.field_values_mt.size, self.detuning_ghz.size):
            raise ValidationError("absorption block does not match the grid")


def _row_norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, rounded as np.linalg.norm rounds one
    vector (a BLAS dot; a sum of squares rounds differently)."""
    return np.sqrt(np.vecdot(vectors, vectors))


def _pow_square(x: np.ndarray) -> np.ndarray:
    """x ** 2 of each element through libm pow, as Python and numpy scalars
    compute it; numpy's array square (x * x) differs from it in the last bit
    for about one value in a thousand, which would move recorded CSV bytes."""
    return np.fromiter(map(math.pow, x.ravel(), itertools.repeat(2.0)), float,
                       x.size).reshape(x.shape)


_HALF_SPLIT = np.array([-0.5, 0.5])   # levels 1 and 2 of a Zeeman doublet


def zero_spin_centers(params: SpinSystemParams, fields_mt,
                      offset_ghz: float = 0.0) -> np.ndarray:
    """Line centers (n, 4) in GHz of the I=0 isotopes over an (n, 3) field
    stack in mT.

    The I=0 isotopes have pure electron Zeeman doublets, split by
    g_eff mu_B |B| with g_eff = |g . d| along the field direction d.  Column
    2 (i - 1) + (j - 1) is the ground level i -> excited level j line,
    (offset + e_e[j]) - e_g[i], with e[1] = -split / 2 and e[2] = split / 2.
    A zero field gives four lines at the offset.
    """
    fields = np.atleast_2d(np.asarray(fields_mt, dtype=float))
    norm = _row_norms(fields)
    with np.errstate(invalid="ignore", divide="ignore"):   # zero rows: set below
        # normalized twice, as the per-field formula always did
        direction = fields / norm[:, None]
        direction /= _row_norms(direction)[:, None]
    axial = _pow_square(direction)
    g_par = np.array([params.g_ground.parallel, params.g_excited.parallel])
    g_perp_sq = np.array([params.g_ground.perpendicular**2,
                          params.g_excited.perpendicular**2])
    # columns: ground, excited
    g_eff = np.sqrt(_pow_square(g_par * direction[:, 2:])
                    + g_perp_sq * (axial[:, :1] + axial[:, 1:2]))
    split = g_eff * CONSTANTS.mu_b_ghz_per_t * (norm * 1e-3)[:, None]
    levels = split[:, :, None] * _HALF_SPLIT           # [row, manifold, level]
    centers = ((offset_ghz + levels[:, 1, None, :])
               - levels[:, 0, :, None]).reshape(-1, 4)
    centers[norm == 0.0] = offset_ghz
    return centers


def _unit_axis(axis) -> np.ndarray:
    """A sweep axis as a unit 3-vector; rejects a zero, non-finite or
    wrongly shaped one by name before normalising it."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis) if axis.shape == (3,) else 0.0
    if not (np.isfinite(norm) and norm > 0.0):
        raise ValidationError("axis must be a finite, non-zero 3-vector")
    return axis / norm


def _branching_table(weights: BranchingTable | str | None) -> BranchingTable | None:
    """The table itself, or the measured table of that polarization name."""
    if not isinstance(weights, str):
        return weights
    try:
        return MEASURED_BRANCHING[weights]
    except KeyError:
        raise ValidationError(f"unknown branching table {weights!r}") from None


def optical_lines(params: SpinSystemParams, fields_mt, offset_ghz: float = 0.0):
    """Optical line centres (n, 20) in GHz over an (n, 3) field stack in mT,
    and the eigenvector stacks (s_g, s_e) of the two manifolds.

    Column 4 (i - 1) + (j - 1) is the 171Yb line from ground level i to
    excited level j, e_e[j] - e_g[i]; columns 16-19 are the I = 0 lines of
    zero_spin_centers at offset_ghz.  One spinham.eigensystems call per
    manifold, so s_g[r, :, i - 1] is ground level i of row r.  The one place
    that forms e_e - e_g; the catalog, the sweep map and the sweep fit all
    read their lines from it.
    """
    e_g, s_g = spinham.eigensystems(params, Manifold.GROUND, fields_mt)
    e_e, s_e = spinham.eigensystems(params, Manifold.EXCITED, fields_mt)
    n = e_g.shape[0]
    centres = np.empty((n, 20))
    centres[:, :16] = (e_e[:, None, :] - e_g[:, :, None]).reshape(n, 16)
    centres[:, 16:] = zero_spin_centers(params, fields_mt, offset_ghz)
    return centres, (s_g, s_e)


def _line_weights(params: SpinSystemParams, table: BranchingTable | None,
                  fields_mt: np.ndarray, zero_spin_fraction: float,
                  mixed_states=None) -> np.ndarray:
    """Weights (n, 20) of the optical_lines columns over an (n, 3) field stack.

    171Yb lines carry the table weight of their level groups (1 with no
    table).  With mixed_states, the (s_g, s_e) of optical_lines, the weights
    follow the field-induced mixing incoherently:
    w_ij(B) = sum_kl |<i(B)|k(0)>|^2 |<j(B)|l(0)>|^2 w_kl(0).  The I = 0
    lines share zero_spin_fraction times the left-to-right sum of the 16
    weights (cumsum is sequential; np.sum's pairwise order would round
    differently), a quarter each, or all of it on column 16 at a zero field,
    where the four I = 0 lines coincide.  A table needs both hyperfine
    tensors to fit the level layout that maps it to levels (DomainError).
    """
    n = fields_mt.shape[0]
    if table is None:
        w0 = np.ones((4, 4))
    else:
        for manifold in Manifold:
            spinham.checked_zero_field_levels(params, manifold)
        w0 = table.weights[np.ix_(GROUND_LEVEL_GROUP, EXCITED_LEVEL_GROUP)]
    weights = np.empty((n, 20))
    if mixed_states is not None and table is not None:
        s_g, s_e = mixed_states
        g0 = spinham.eigensystem(params, Manifold.GROUND).states
        x0 = spinham.eigensystem(params, Manifold.EXCITED).states
        og = np.abs(s_g.conj().transpose(0, 2, 1) @ g0) ** 2   # [i(B), k(0)]
        oe = np.abs(s_e.conj().transpose(0, 2, 1) @ x0) ** 2
        weights[:, :16] = (og @ w0 @ oe.transpose(0, 2, 1)).reshape(n, 16)
    else:
        weights[:, :16] = w0.reshape(16)
    share = zero_spin_fraction * np.cumsum(weights[:, :16], axis=1)[:, -1]
    weights[:, 16:] = (share / 4.0)[:, None]
    zero_field = _row_norms(fields_mt) == 0.0
    weights[zero_field, 16] = share[zero_field]
    weights[zero_field, 17:] = 0.0
    return weights


def transition_catalog(params: SpinSystemParams, b_mt=(0.0, 0.0, 0.0),
                       weights: BranchingTable | str | None = None,
                       zero_spin_offset_ghz: float = 0.0,
                       zero_spin_fraction: float = DEFAULT_I0_FRACTION
                       ) -> list[TransitionLine]:
    """All optical lines at one field: 16 hyperfine lines plus 4 zero-spin
    ones, or one zero-spin line of the whole I = 0 weight at zero field.

    weights: None for equal line strengths, a BranchingTable, or one of the
    measured-polarization names ("sigma", "pi", "alpha").  One row of
    optical_lines and _line_weights; callers that want one isotope filter on
    TransitionLine.isotope.
    """
    table = _branching_table(weights)
    b = np.asarray(b_mt, dtype=float)
    if b.shape != (3,):
        raise ValidationError("magnetic field must be a 3-vector")
    centres, _ = optical_lines(params, b[None], zero_spin_offset_ghz)
    line_weights = _line_weights(params, table, b[None], zero_spin_fraction)
    pol = table.polarization if table is not None else None
    lines = [TransitionLine(k // 4 + 1, k % 4 + 1, float(centres[0, k]),
                            float(line_weights[0, k]), pol) for k in range(16)]
    n_i0 = 1 if _row_norms(b[None])[0] == 0.0 else 4
    lines += [TransitionLine(k // 2 + 1, k % 2 + 1, float(centres[0, 16 + k]),
                             float(line_weights[0, 16 + k]), isotope="I0")
              for k in range(n_i0)]
    return lines


def _grid_points(grid) -> np.ndarray:
    """Detuning grid from (min_ghz, max_ghz, points) or an explicit array."""
    if isinstance(grid, tuple) and len(grid) == 3:
        lo, hi, n = grid
        if n < 2 or not hi > lo:
            raise ValidationError("grid must span a positive range with >= 2 points")
        return np.linspace(lo, hi, int(n))
    x = np.asarray(grid, dtype=float)
    if x.size < 2:
        raise ValidationError("grid must have at least two points")
    return x


def synthesize_spectrum(lines, fwhm_mhz: float, grid) -> Spectrum:
    """Sum of unit-area Gaussians of common FWHM, one per line, times weights.

    grid: (min_ghz, max_ghz, points) or an explicit uniform array.
    """
    if fwhm_mhz <= 0:
        raise ValidationError("fwhm must be positive")
    x = _grid_points(grid)
    centers = np.array([ln.detuning_ghz for ln in lines], dtype=float)
    weights = np.array([ln.weight for ln in lines], dtype=float)
    if centers.size == 0:
        return Spectrum(x, np.zeros_like(x))
    y = _kernels.gaussian_profile(x, centers, weights, fwhm_mhz * 1e-3)
    return Spectrum(x, y)


@dataclass(frozen=True)
class LineCluster:
    label: str
    center_ghz: float
    weight: float
    lines: tuple[TransitionLine, ...]


def label_line_clusters(lines, resolution_ghz: float) -> list[LineCluster]:
    """Merge lines closer than the resolution and letter them by detuning.

    Zero-weight lines are dropped; letters run A, B, C ... with ascending
    detuning, the convention used for the absorption peak names.
    """
    visible = sorted((ln for ln in lines if ln.weight > 0),
                     key=lambda ln: ln.detuning_ghz)
    clusters: list[list[TransitionLine]] = []
    for ln in visible:
        if clusters and ln.detuning_ghz - clusters[-1][-1].detuning_ghz <= resolution_ghz:
            clusters[-1].append(ln)
        else:
            clusters.append([ln])
    out = []
    for k, group in enumerate(clusters):
        weight = sum(ln.weight for ln in group)
        center = sum(ln.weight * ln.detuning_ghz for ln in group) / weight
        label = string.ascii_uppercase[k] if k < 26 else f"Z{k}"
        out.append(LineCluster(label, center, weight, tuple(group)))
    return out


def field_sweep_map(params: SpinSystemParams, axis, field_values_mt, grid,
                    weights: BranchingTable | str | None = None,
                    mixed_weights: bool = False,
                    fwhm_171_mhz: float = SWEEP_FWHM_171_MHZ,
                    fwhm_i0_mhz: float = SWEEP_FWHM_I0_MHZ,
                    zero_spin_fraction: float = DEFAULT_I0_FRACTION) -> SweepMap:
    """Spectra over a field sweep along a fixed axis, on a common grid.

    With mixed_weights the zero-field branching weights follow the
    field-induced state mixing; otherwise they are applied as-is at every
    field (with weights=None all lines have equal strength, the convention
    used for simulated sweep overlays).  Mixing is incoherent:
    w_ij(B) = sum_kl |<i(B)|k(0)>|^2 |<j(B)|l(0)>|^2 w_kl(0), per level.

    The lines are one optical_lines call over the field stack, weighted by
    _line_weights; only the two Gaussian sums (171Yb, I = 0) run once per
    field.  The result equals, bit for bit, the per-field loop over the old
    catalog and synthesize_spectrum that tests/test_spectra.py keeps as
    _reference_sweep_map.
    """
    axis = _unit_axis(axis)
    if np.isscalar(field_values_mt):
        raise ValidationError("field_values_mt must be a sequence")
    fields = np.asarray(field_values_mt, dtype=float)
    if fields.size < 2:
        raise ValidationError("a sweep needs at least two field values")
    if fwhm_171_mhz <= 0 or fwhm_i0_mhz <= 0:
        raise ValidationError("fwhm must be positive")
    x = _grid_points(grid)
    steps = np.diff(x)
    if (x.ndim != 1 or np.any(steps <= 0)
            or not np.allclose(steps, steps[0], rtol=1e-9)):
        raise ValidationError("detuning grid must be uniform and increasing")
    table = _branching_table(weights)

    b_vecs = fields[:, None] * axis[None, :]
    centres, states = optical_lines(params, b_vecs)
    line_weights = _line_weights(params, table, b_vecs, zero_spin_fraction,
                                 states if mixed_weights else None)
    block = np.empty((fields.size, x.size))
    for k, (c, w) in enumerate(zip(centres, line_weights)):
        block[k] = (_kernels.gaussian_profile(x, c[:16], w[:16], fwhm_171_mhz * 1e-3)
                    + _kernels.gaussian_profile(x, c[16:], w[16:], fwhm_i0_mhz * 1e-3))
    return SweepMap(fields, axis, x, block)


# --- EPR resonance-field search -----------------------------------------

# Largest |E_j - E_i - nu| (GHz) of a returned resonance, checked on the
# exact eigensystem at that field.
EPR_RESIDUAL_BOUND_GHZ = 1e-6

# Where in the field range the eigenfield problem is shifted to, as fractions
# of the range; the second point is used when the first lies on a resonance.
_EIGENFIELD_SHIFTS = (0.5, 0.381966)

# An eigenfield root B counts as real when |Im B| <= this times |B - B_s|.
# Over 2000 random orientations and frequencies (0-1000 mT) the real roots
# had |Im B| < 3e-11 mT and the in-range complex roots a ratio above 3e-3;
# rounding splits a double (tangent) root by about sqrt(machine epsilon).
_REAL_ROOT_RTOL = 1e-6

_EYE4 = np.eye(4)
_UPPER_I, _UPPER_J = np.triu_indices(4, k=1)   # level pairs i < j, 0-based


@dataclass(frozen=True)
class EprResonance:
    field_mt: float
    pair: tuple[int, int]
    weight: float


def _direction_from_angles(theta_deg: float, phi_deg: float) -> np.ndarray:
    t, p = np.radians(theta_deg), np.radians(phi_deg)
    return np.array([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])


def _drive_directions(direction: np.ndarray):
    """Two orthonormal ac-field directions perpendicular to the static field."""
    ref = np.array([0.0, 0.0, 1.0])
    if abs(np.dot(ref, direction)) > 0.99:
        ref = np.array([1.0, 0.0, 0.0])
    e1 = np.cross(direction, ref)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(direction, e1)


def _liouvillian(h: np.ndarray) -> np.ndarray:
    """L = H (x) 1 - 1 (x) H^T; its 16 eigenvalues are all the differences E_a - E_b.

    L[(a, b), (c, d)] = H[a, c] 1[b, d] - 1[a, c] H[d, b], written as one
    broadcast (np.kron costs more than the arithmetic at this size).
    """
    return (h[:, None, :, None] * _EYE4[None, :, None, :]
            - _EYE4[:, None, :, None] * h.T[None, :, None, :]).reshape(16, 16)


def _eigenfield_roots(h0: np.ndarray, h1: np.ndarray, nu: float,
                      lo: float, hi: float) -> np.ndarray:
    """Ascending real fields in [lo, hi] where some E_a - E_b of H0 + B H1 is nu.

    det(L0 + B L1 - nu) = 0 is a generalized eigenproblem in B.  Shifted to
    B_s it reads M x = mu x with M = (L0 + B_s L1 - nu)^-1 L1 and
    B = B_s - 1/mu.  L0 + B_s L1 - nu is Hermitian with eigenvalues
    E_a - E_b - nu at B_s, so it is singular exactly when B_s is a resonance.
    """
    for fraction in _EIGENFIELD_SHIFTS:
        shift = lo + fraction * (hi - lo)
        e = np.linalg.eigvalsh(h0 + shift * h1)
        if np.min(np.abs(e[:, None] - e[None, :] - nu)) > EPR_RESIDUAL_BOUND_GHZ:
            break
    else:
        raise NumericalError("every shift of the eigenfield problem lies on a "
                             "resonance; cannot invert it")
    l1 = _liouvillian(h1)
    a = _liouvillian(h0) + shift * l1 - nu * np.eye(16)
    mu = np.linalg.eigvals(np.linalg.solve(a, l1))
    # |B - B_s| = 1/|mu| <= hi - lo for every field in range
    mu = mu[np.abs(mu) * (hi - lo) >= 1.0]
    mu = mu[np.abs(mu.imag) <= _REAL_ROOT_RTOL * np.abs(mu)]
    fields = shift - (1.0 / mu).real
    return np.sort(fields[(fields >= lo) & (fields <= hi)])


def epr_resonance_fields(params: SpinSystemParams, microwave_freq_ghz: float,
                         theta_deg: float, phi_deg: float = 0.0,
                         b_range_mt=(1.0, 1000.0), tol_mt: float = 1e-3,
                         manifold: Manifold = Manifold.GROUND) -> list[EprResonance]:
    """Fields where a level-pair splitting equals the microwave frequency.

    The field enters linearly, H(B) = H0 + B H1, so every resonance field
    along the direction is a real eigenvalue of one 16x16 problem in
    Liouville space, L = H (x) 1 - 1 (x) H^T (the eigenfield method of
    Belford, Belford & Burkhalter, J. Magn. Reson. 11, 251 (1973)).  The
    roots are exact to rounding; no field scan is made, so close crossings
    of one pair are not missed.

    Every real root in the range is checked on the exact eigensystem at that
    field: its level pair (i, j) is the one with |E_j - E_i - nu| below
    EPR_RESIDUAL_BOUND_GHZ (1e-6 GHz).  Roots that coincide (pairs 1-3 and
    2-4 without hyperfine coupling) get distinct pairs.  Two roots of one
    pair closer than tol_mt count as one root (a tangency).  A root that no
    pair explains raises NumericalError.

    Weights are ac magnetic dipole magnitudes, RMS over two drive directions
    perpendicular to the static field.  Results are sorted by field; an
    empty list means no resonance in range.
    """
    lo, hi = float(b_range_mt[0]), float(b_range_mt[1])
    nu = float(microwave_freq_ghz)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValidationError("field range must be finite")
    if not (hi > lo >= 0.0):
        raise ValidationError("field range must satisfy 0 <= low < high")
    if not np.isfinite(nu):
        raise ValidationError("microwave frequency must be finite")
    if nu <= 0:
        raise ValidationError("microwave frequency must be positive")
    if not (np.isfinite(theta_deg) and np.isfinite(phi_deg)):
        raise ValidationError("field angles must be finite")
    if not (np.isfinite(tol_mt) and tol_mt > 0):
        raise ValidationError("tol_mt must be positive and finite")
    direction = _direction_from_angles(theta_deg, phi_deg)
    h0 = spinham.zeeman_operators(params, manifold)[0]
    h1 = spinham.field_derivative_operator(params, manifold, direction) * 1e-3
    fields = _eigenfield_roots(h0, h1, nu, lo, hi)
    if fields.size == 0:
        return []

    energies, states = spinham.eigensystems(params, manifold,
                                            fields[:, None] * direction)
    residual = np.abs(energies[:, _UPPER_J] - energies[:, _UPPER_I] - nu)
    rows, pairs = [], []
    last_field = {}   # pair -> field of its latest accepted root
    for r, b in enumerate(fields):
        matching = [k for k in np.argsort(residual[r], kind="stable")
                    if residual[r, k] <= EPR_RESIDUAL_BOUND_GHZ]
        if not matching:
            raise NumericalError(
                f"eigenfield root at {b:.6f} mT misses the resonance condition "
                f"by {residual[r].min():.3g} GHz")
        free = [k for k in matching if b - last_field.get(k, -np.inf) > tol_mt]
        if free:   # otherwise a root within tol_mt already carries each pair
            rows.append(r)
            pairs.append(free[0])
            last_field[free[0]] = b
    rows, pairs = np.array(rows), np.array(pairs)

    drive = np.stack([spinham.magnetic_dipole_operator(params, manifold, e)
                      for e in _drive_directions(direction)])
    amps = np.einsum("ra,kab,rb->rk", states[rows, :, _UPPER_I[pairs]].conj(),
                     drive, states[rows, :, _UPPER_J[pairs]])
    weights = np.sqrt(np.sum(np.abs(amps) ** 2, axis=1))
    found = [EprResonance(float(fields[r]), (int(_UPPER_I[k]) + 1, int(_UPPER_J[k]) + 1),
                          float(w)) for r, k, w in zip(rows, pairs, weights)]
    return sorted(found, key=lambda res: (res.field_mt, res.pair))


def angular_rosette(params: SpinSystemParams, plane: str, angles_deg,
                    microwave_freq_ghz: float, b_range_mt=(1.0, 1000.0),
                    **kwargs) -> list[tuple[float, list[EprResonance]]]:
    """EPR resonance fields versus rotation angle in the c-a or a-b plane.

    In the c-a plane the angle is measured from the c axis; in the a-b
    plane from the a axis (where the uniaxial model is angle-independent).
    """
    angles = np.asarray(angles_deg, dtype=float)
    if angles.size < 2:
        raise ValidationError("need at least two angles")
    out = []
    for angle in angles:
        if plane == "c-a":
            theta, phi = angle, 0.0
        elif plane == "a-b":
            theta, phi = 90.0, angle
        else:
            raise ValidationError("plane must be 'c-a' or 'a-b'")
        out.append((float(angle),
                    epr_resonance_fields(params, microwave_freq_ghz, theta, phi,
                                         b_range_mt, **kwargs)))
    return out
