"""Damped least-squares engine and the concrete fit models: Gaussian lines,
exponential echo decays, spin-lattice recovery with a shared equilibrium
temperature, and field-sweep g-tensor extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import spectra, spinham
from .constants import CONSTANTS
from .errors import ValidationError
from .params import (FIELD_SWEEP_SCALE_G_PER_A, GROUND_GROUPS,
                     GROUND_MULTIPLICITIES, Manifold, SpinSystemParams,
                     default_params, g_tensor)
from .dynamics import boltzmann_populations


@dataclass
class FitResult:
    names: tuple
    values: np.ndarray
    uncertainties: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    cost_history: list = field(default_factory=list)
    flags: tuple = ()

    def __getitem__(self, name: str) -> float:
        return float(self.values[self.names.index(name)])

    def uncertainty(self, name: str) -> float:
        return float(self.uncertainties[self.names.index(name)])

    def describe(self) -> str:
        lines = []
        for name, value, sigma in zip(self.names, self.values, self.uncertainties):
            lines.append(f"{name} = {value:.8g} +- {sigma:.3g}")
        lines.append(f"residual norm = {self.residual_norm:.6g}")
        lines.append(f"iterations = {self.iterations}")
        lines.append(f"converged = {self.converged}")
        for flag in self.flags:
            lines.append(f"flag: {flag}")
        return "\n".join(lines)


def _forward_jacobian(model, params, f0):
    n, p = f0.size, params.size
    jac = np.empty((n, p))
    for k in range(p):
        step = 1e-7 * max(abs(params[k]), 1e-3)
        shifted = params.copy()
        shifted[k] += step
        jac[:, k] = (model(shifted) - f0) / step
    return jac


# Iteration cap of least_squares.
_MAX_ITER = 200

# A parameter is unidentifiable when more than this share of its unit
# vector's squared length lies in the numerical null space of J.
_NULL_SHARE = 1e-6


def _svd_uncertainties(jac, sigma_sq):
    """Standard errors from the SVD of the column-scaled Jacobian.

    Columns are scaled to unit norm so the rank decision does not depend on
    parameter units.  The singular values and right vectors are those of the
    p x p factor R of J = QR, which keeps the working set at one copy of J.
    Singular values at or below s_max * max(n, p) * eps (numpy's
    matrix_rank bound) span the numerical null space.  Returns the
    uncertainties, infinite for parameters in the null space, and the mask
    of those parameters.  Raises LinAlgError if a factorization fails.
    """
    r = np.linalg.qr(jac, mode="r")
    norms = np.linalg.norm(r, axis=0)
    _, found, vt = np.linalg.svd(r / np.where(norms > 0.0, norms, 1.0))
    sing = np.zeros(vt.shape[0])     # fewer rows than parameters: zeros
    sing[:found.size] = found
    bound = sing[0] * max(jac.shape) * np.finfo(float).eps
    kept = sing > bound
    null = np.sum(vt[~kept] ** 2, axis=0) > _NULL_SHARE
    variance = np.sum((vt[kept] / sing[kept, None]) ** 2, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        uncertainties = np.sqrt(sigma_sq * variance) / norms
    uncertainties[null] = np.inf
    return uncertainties, null


def least_squares(model, data, initial, bounds=None, tol: float = 1e-10,
                  names: tuple | None = None) -> FitResult:
    """Levenberg-style damped least squares.

    model(params) returns the prediction compared against `data`, or the
    pair (prediction, jacobian) with the exact (n_data, n_params) Jacobian
    at params; the residual is prediction - data.  Each trial point is
    evaluated once, and an accepted trial's Jacobian serves the next step.
    A model that returns only the prediction gets forward differences,
    taken at accepted points only and at most once per point.  The damping
    parameter grows until a step reduces the cost, so accepted iterations
    are monotone in the residual norm.  Covariance comes from the SVD of J
    at the last accepted point (see _svd_uncertainties), scaled by the
    residual variance.  A Jacobian with a numerical null space is flagged
    "singular jacobian", each parameter in that null space
    "<name> unidentifiable" with an infinite uncertainty, and the fit does
    not count as converged.
    """
    params = np.asarray(initial, dtype=float).copy()
    data = np.asarray(data, dtype=float)
    if bounds is not None:
        lo = np.asarray([b[0] for b in bounds], dtype=float)
        hi = np.asarray([b[1] for b in bounds], dtype=float)
        if not (np.all(params >= lo) and np.all(params <= hi)):
            raise ValidationError("initial parameters violate the bounds")
    names = names or tuple(f"p{k}" for k in range(params.size))

    def evaluate(p):
        """The residual at p and the model's Jacobian there, or None."""
        out = model(p)
        prediction, jac = out if isinstance(out, tuple) else (out, None)
        prediction = np.asarray(prediction, dtype=float)
        if not np.all(np.isfinite(prediction)):
            raise ValidationError("model returned non-finite values")
        return prediction - data, None if jac is None else np.asarray(jac, dtype=float)

    def differences(p, residual):
        return _forward_jacobian(lambda q: evaluate(q)[0] + data, p, residual + data)

    residual, jac = evaluate(params)
    cost = float(residual @ residual)
    history = [cost]
    lam = 1e-3
    converged = False
    iterations = 0
    singular = False
    for iterations in range(1, _MAX_ITER + 1):
        if jac is None:
            jac = differences(params, residual)
        gradient = jac.T @ residual
        if np.max(np.abs(gradient)) < tol * max(1.0, math.sqrt(cost)):
            converged = True
            break
        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = 1e-30
        stepped = False
        for _ in range(40):
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(diag), -gradient)
            except np.linalg.LinAlgError:
                singular = True
                break
            trial = params + delta
            if bounds is not None:
                trial = np.clip(trial, lo, hi)
            trial_residual, trial_jac = evaluate(trial)
            trial_cost = float(trial_residual @ trial_residual)
            if trial_cost <= cost:
                rel_drop = (cost - trial_cost) / max(cost, 1e-300)
                step_size = np.max(np.abs(trial - params)
                                   / np.maximum(np.abs(params), 1e-12))
                params, residual, cost = trial, trial_residual, trial_cost
                jac = trial_jac
                history.append(cost)
                lam = max(lam / 3.0, 1e-14)
                stepped = True
                if rel_drop < tol or step_size < tol:
                    converged = True
                break
            lam *= 10.0
            if lam > 1e14:
                break
        if singular or not stepped or converged:
            break

    if jac is None:
        jac = differences(params, residual)
    dof = max(data.size - params.size, 1)
    try:
        uncertainties, null = _svd_uncertainties(jac, cost / dof)
    except np.linalg.LinAlgError:
        uncertainties, null = np.full(params.size, np.inf), np.zeros(params.size, bool)
        singular = True
    flags = [f"{name} unidentifiable" for name, flagged in zip(names, null) if flagged]
    if singular or flags:
        flags.insert(0, "singular jacobian")
        converged = False
    return FitResult(tuple(names), params, uncertainties, math.sqrt(cost),
                     iterations, converged, history, tuple(flags))


# --- Gaussian line -------------------------------------------------------

def gaussian_profile(x, center, fwhm, amplitude, offset):
    """Peak-normalized Gaussian: amplitude is the height above the offset."""
    z = (x - center) / fwhm
    return offset + amplitude * np.exp(-4.0 * math.log(2.0) * z * z)


def gaussian_jacobian(x, center, fwhm, amplitude, offset):
    z = (x - center) / fwhm
    core = np.exp(-4.0 * math.log(2.0) * z * z)
    d_center = amplitude * core * 8.0 * math.log(2.0) * z / fwhm
    d_fwhm = amplitude * core * 8.0 * math.log(2.0) * z * z / fwhm
    d_amp = core
    d_off = np.ones_like(np.asarray(x, dtype=float))
    return np.column_stack([d_center, d_fwhm, d_amp, d_off])


def fit_gaussian_line(x, y) -> FitResult:
    """Fit center, FWHM, peak amplitude and offset to a single line."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 5:
        raise ValidationError("need at least 5 points for a line fit")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("data must be finite")
    offset0 = float(np.median(np.concatenate([y[:3], y[-3:]])))
    amp0 = float(y.max() - offset0)
    center0 = float(x[np.argmax(y)])
    above = x[y > offset0 + amp0 / 2.0]
    fwhm0 = float(above.max() - above.min()) if above.size >= 2 else \
        (x[-1] - x[0]) / 4.0
    fwhm0 = max(fwhm0, (x[1] - x[0]) * 2)

    def model(p):
        jac = gaussian_jacobian(x, *p)
        return p[3] + p[2] * jac[:, 2], jac     # column 2 is the unit profile

    result = least_squares(model, y, [center0, fwhm0, amp0, offset0],
                           names=("center", "fwhm", "amplitude", "offset"))
    if abs(result["amplitude"]) < 3.0 * result.uncertainty("amplitude"):
        result.flags = result.flags + ("low-confidence amplitude",)
    return result


# --- echo decay ----------------------------------------------------------

def echo_decay_profile(tau, e0, t2):
    return e0 * np.exp(-2.0 * np.asarray(tau, dtype=float) / t2)


def echo_decay_jacobian(tau, e0, t2):
    tau = np.asarray(tau, dtype=float)
    core = np.exp(-2.0 * tau / t2)
    return np.column_stack([core, e0 * core * 2.0 * tau / t2**2])


def fit_echo_decay(tau_s, intensity) -> FitResult:
    """Two-parameter fit of E(tau) = E0 exp(-2 tau / T2)."""
    tau = np.asarray(tau_s, dtype=float)
    y = np.asarray(intensity, dtype=float)
    if tau.size < 4:
        raise ValidationError("need at least 4 delays")
    if not np.all(tau >= 0):
        raise ValidationError("delays must be non-negative")

    def model(p):
        jac = echo_decay_jacobian(tau, *p)
        return p[0] * jac[:, 0], jac            # column 0 is the unit decay

    positive = y > 0
    if positive.sum() >= 2:
        slope, intercept = np.polyfit(tau[positive], np.log(y[positive]), 1)
    else:
        slope, intercept = -1.0, 0.0
    if slope >= 0:  # non-decaying data: flag and bail out with the raw guess
        result = least_squares(model, y,
                               [max(y.max(), 1e-12), tau.max() * 10 + 1.0],
                               names=("e0", "t2"))
        result.converged = False
        result.flags = result.flags + ("non-decaying data",)
        return result
    t2_0 = -2.0 / slope
    e0_0 = math.exp(intercept)

    return least_squares(model, y, [e0_0, t2_0],
                         bounds=[(0.0, np.inf), (1e-12, np.inf)],
                         names=("e0", "t2"))


# --- spin-lattice recovery ------------------------------------------------

def recovery_profiles(delays, params_vector, energies_ghz, degeneracies):
    """Stacked n_i(tau) curves with a shared equilibrium temperature.

    params_vector = (T_eq, n0_1, T_R1, n0_2, T_R2, n0_3, T_R3) over the
    level groups; equilibrium populations follow the Boltzmann weights of
    the group energies at T_eq.
    """
    t_eq = params_vector[0]
    eq = boltzmann_populations(energies_ghz, max(t_eq, 1e-6), degeneracies)
    delays = np.asarray(delays, dtype=float)
    out = []
    for k in range(3):
        n0 = params_vector[1 + 2 * k]
        t_r = max(params_vector[2 + 2 * k], 1e-9)
        out.append(eq[k] + (n0 - eq[k]) * np.exp(-delays / t_r))
    return np.concatenate(out)


def fit_slr_recovery(delays_s, populations, energies_ghz) -> FitResult:
    """Simultaneous exponential recovery fits tied to one temperature.

    populations: (n_delays, 3) occupations of the ground level groups
    (params.GROUND_GROUPS), weighted by their multiplicities at equilibrium.
    Returns T_eq plus per-group initial populations and recovery times;
    flags groups whose recovery amplitude is too small to date.
    """
    delays = np.asarray(delays_s, dtype=float)
    pops = np.asarray(populations, dtype=float)
    if delays.size < 4:
        raise ValidationError("need at least 4 delays")
    if pops.shape != (delays.size, 3):
        raise ValidationError("populations must be (n_delays, 3)")
    if not np.all((pops >= 0) & (pops <= 1)):
        raise ValidationError("populations must lie in [0, 1]")
    energies = np.asarray(energies_ghz, dtype=float)

    t_eq0 = 0.2
    guess = [t_eq0]
    t_r0 = max(delays.max() / 3.0, 1e-6)
    for k in range(3):
        guess.extend([float(pops[0, k]), t_r0])
    names = ("t_eq",) + tuple(f"{p}_{g}" for g in GROUND_GROUPS
                              for p in ("n0", "t_r"))
    bounds = [(1e-3, 10.0)]
    for _ in range(3):
        bounds.extend([(0.0, 1.0), (1e-9, np.inf)])

    result = least_squares(
        lambda p: recovery_profiles(delays, p, energies, GROUND_MULTIPLICITIES),
        pops.T.reshape(-1), guess, bounds=bounds, names=names)

    eq = boltzmann_populations(energies, result["t_eq"], GROUND_MULTIPLICITIES)
    spread = pops.std(axis=0)
    for k, group in enumerate(GROUND_GROUPS):
        amplitude = abs(result[f"n0_{group}"] - eq[k])
        flag = f"t_r_{group} unidentifiable"
        if (amplitude < max(3.0 * spread[k] / math.sqrt(delays.size), 1e-4)
                and flag not in result.flags):
            result.flags = result.flags + (flag,)
    return result


# --- field-sweep g-tensor fit ---------------------------------------------

@dataclass(frozen=True)
class SweepData:
    """One measured (or synthesized) current sweep: spectra vs coil current."""

    currents_a: np.ndarray
    axis: np.ndarray              # unit vector of the field direction
    detuning_ghz: np.ndarray
    absorption: np.ndarray        # (n_currents, n_grid)

    def __post_init__(self):
        if self.absorption.shape != (self.currents_a.size, self.detuning_ghz.size):
            raise ValidationError("absorption block does not match grid/currents")


_SWEEP_FIT_G = default_params("field-sweep-fit").g_excited


@dataclass(frozen=True)
class FieldSweepFitSpec:
    """Free parameters of the sweep fit and their starting values.

    Free: the excited-state g components, one current-to-field scale per
    sweep (G/A), the two isotope amplitudes, and a global frequency offset.
    The ground tensors and the two Gaussian widths stay fixed.  The g and
    scale defaults are those of the "field-sweep-fit" preset and its
    perpendicular coil.
    """

    g_e_parallel: float = _SWEEP_FIT_G.parallel
    g_e_perpendicular: float = _SWEEP_FIT_G.perpendicular
    scales_g_per_a: tuple = (FIELD_SWEEP_SCALE_G_PER_A["perpendicular"],)
    amplitude_171: float = 1.0
    amplitude_i0: float = 1.0
    offset_ghz: float = 0.0


# Lines x grid cells per Gaussian pass of the sweep model (at least one
# current per pass), so its temporaries stay small whatever the sweep size.
_BLOCK_CELLS = 1 << 13


def _expectations(states, operator) -> np.ndarray:
    """<k|O|k> (n, 4) for the eigenvector columns k of each stacked state matrix."""
    return np.einsum("nak,nak->nk", states.conj(), operator @ states).real


def _sweep_lines(sweeps, params: SpinSystemParams, scales, derivatives: bool):
    """Line centres (n_rows, 20) before the offset, one row per current of
    every sweep in order, and if asked their derivatives (n_rows, 20, 3) with
    respect to the excited g_parallel, g_perpendicular and the scale of the
    row's own sweep.

    params carry the trial excited g tensor and g_n = 0.  The columns are
    those of spectra.optical_lines (one call over every row).  The field is
    B = 0.1 scale I (mT) along the sweep's axis, and every Zeeman term is
    linear in B and in the g values, so Hellmann-Feynman gives each 171Yb
    derivative as an expectation value <k|dH/dtheta|k>: per unit excited g
    component, mu_B S along the axis times B; for the scale,
    field_derivative_operator times dB/dscale.  All sixteen 171Yb lines
    carry one weight, so their summed profile stays differentiable where
    levels cross, whichever eigenvectors span a degenerate pair.
    """
    sizes = [sweep.currents_a.size for sweep in sweeps]
    currents = np.concatenate([sweep.currents_a for sweep in sweeps])
    axes = np.repeat([sweep.axis for sweep in sweeps], sizes, axis=0)
    row_scales = np.repeat(scales, sizes)
    fields_mt = (0.1 * row_scales * currents)[:, None] * axes
    centres, (v_g, v_e) = spectra.optical_lines(params, fields_mt)
    n = currents.size
    if not derivatives:
        return centres, None

    g_e = params.g_excited
    b_unit_t = 1e-4 * currents                  # dB/dscale, tesla
    b_t = b_unit_t * row_scales
    # dH/dB along each row's unit axis d: per unit excited g_par and g_perp,
    # mu_B d_z S_z and mu_B (d_x S_x + d_y S_y); then the ground manifold's
    sx, sy, sz = spinham.S_OPS
    mu_b = CONSTANTS.mu_b_ghz_per_t
    per_sweep = []
    for sweep in sweeps:
        d = sweep.axis / np.linalg.norm(sweep.axis)
        per_sweep.append((mu_b * d[2] * sz, mu_b * (d[0] * sx + d[1] * sy),
                          spinham.field_derivative_operator(params, Manifold.GROUND,
                                                            sweep.axis)))
    operators = np.repeat(per_sweep, sizes, axis=0)
    par_e = _expectations(v_e, operators[:, 0])
    perp_e = _expectations(v_e, operators[:, 1])
    de_e = np.stack([b_t[:, None] * par_e, b_t[:, None] * perp_e,
                     b_unit_t[:, None] * (g_e.parallel * par_e
                                          + g_e.perpendicular * perp_e)], axis=-1)
    de_g = np.zeros((n, 4, 3))
    de_g[:, :, 2] = b_unit_t[:, None] * _expectations(v_g, operators[:, 2])
    slopes = np.empty((n, 20, 3))
    slopes[:, :16] = (de_e[:, None, :, :] - de_g[:, :, None, :]).reshape(n, 16, 3)
    # I = 0 lines: linear in |B| and so in the scale; the excited splitting
    # s = g_eff mu_B |B| (column 1 - column 0) has ds/dg = per_g g d_g^2 with
    # per_g = (mu_B B)^2 / s, for each g component and its axis share d_g^2
    i0 = centres[:, 16:]
    split_e = i0[:, 1] - i0[:, 0]
    per_g = np.divide((CONSTANTS.mu_b_ghz_per_t * b_t) ** 2, split_e,
                     out=np.zeros(n), where=split_e > 0.0)
    half_e = np.array([-0.5, 0.5, -0.5, 0.5])
    slopes[:, 16:, 0] = (per_g * g_e.parallel * axes[:, 2] ** 2)[:, None] * half_e
    slopes[:, 16:, 1] = (per_g * g_e.perpendicular
                         * (axes[:, 0] ** 2 + axes[:, 1] ** 2))[:, None] * half_e
    slopes[:, 16:, 2] = i0 / row_scales[:, None]
    return centres, slopes


def _sweep_model(sweeps, params: SpinSystemParams, p_vector,
                 jacobian: bool = False):
    """Stacked model spectra of all sweeps, and if asked their exact Jacobian.

    Every line has unit area and its isotope's FWHM spectra.SWEEP_FWHM_*;
    the 16 171Yb lines share amplitude_171, the four I = 0 lines
    amplitude_i0 / 4.  The spin Hamiltonian drops the nuclear Zeeman term,
    the convention used when fitting field sweeps.  With jacobian=True the
    result is the pair (model, jacobian), the Jacobian (n_points, n_params):
    the model and the amplitude and offset columns come from the same
    Gaussian block, and the g and scale columns are the centre derivatives
    of _sweep_lines chained through d/dcentre.  The model has the same bits
    either way.  Every sweep's lines come from one _sweep_lines call.  The
    outputs are allocated once and filled in passes of at most _BLOCK_CELLS
    line-grid cells (one current at least).
    """
    n_sweeps = len(sweeps)
    params = replace(params, g_excited=g_tensor(p_vector[0], p_vector[1]), g_n=0.0)
    scales = p_vector[2:2 + n_sweeps]
    amplitudes = p_vector[2 + n_sweeps:4 + n_sweeps]
    offset = p_vector[4 + n_sweeps]
    i_amp, i_offset = 2 + n_sweeps, 4 + n_sweeps
    fwhm = np.repeat([spectra.SWEEP_FWHM_171_MHZ * 1e-3,
                      spectra.SWEEP_FWHM_I0_MHZ * 1e-3], [16, 4])
    inv = 4.0 * math.log(2.0) / (fwhm * fwhm)
    area = 2.0 / fwhm * math.sqrt(math.log(2.0) / math.pi)
    # per-line weight of each amplitude: unit-area Gaussians, I = 0 split 4 ways
    line_amps = np.zeros((2, 20))
    line_amps[0, :16] = area[:16]
    line_amps[1, 16:] = area[16:] / 4.0
    weights = amplitudes @ line_amps
    total = sum(sweep.absorption.size for sweep in sweeps)
    model = np.empty(total)
    jac = np.zeros((p_vector.size, total)) if jacobian else None
    centres, slopes = _sweep_lines(sweeps, params, scales, jacobian)
    centres += offset
    start = row = 0
    for s, sweep in enumerate(sweeps):
        x = sweep.detuning_ghz
        n, m = sweep.absorption.shape
        step = max(1, _BLOCK_CELLS // (20 * m))
        for k in range(0, n, step):
            stop = min(k + step, n)
            block = slice(row + k, row + stop)
            cells = slice(start + k * m, start + stop * m)
            u = x - centres[block, :, None]
            core = np.exp(-inv[:, None] * u * u)
            per_amp = line_amps @ core              # (b, 2, m)
            model[cells] = (amplitudes @ per_amp).ravel()
            if not jacobian:
                continue
            # d(model)/d(centre) of each line
            d_centre = (2.0 * weights * inv)[:, None] * u * core
            g_cols = slopes[block].transpose(0, 2, 1) @ d_centre
            jac[0, cells] = g_cols[:, 0].ravel()
            jac[1, cells] = g_cols[:, 1].ravel()
            jac[2 + s, cells] = g_cols[:, 2].ravel()
            jac[i_amp, cells] = per_amp[:, 0].ravel()
            jac[i_amp + 1, cells] = per_amp[:, 1].ravel()
            jac[i_offset, cells] = d_centre.sum(axis=1).ravel()
        start += n * m
        row += n
    return (model, jac.T) if jacobian else model


def simulate_current_sweep(params: SpinSystemParams, axis, currents_a,
                           scale_g_per_a: float, grid) -> SweepData:
    """Forward model of a current sweep with the given true parameters, unit
    isotope amplitudes and no frequency offset."""
    axis = spectra._unit_axis(axis)
    currents = np.asarray(currents_a, dtype=float)
    x = spectra._grid_points(grid)
    sweep = SweepData(currents, axis, x, np.zeros((currents.size, x.size)))
    p_vector = np.array([params.g_excited.parallel, params.g_excited.perpendicular,
                         scale_g_per_a, 1.0, 1.0, 0.0])
    prediction = _sweep_model([sweep], params, p_vector)
    return SweepData(currents, axis, x,
                     prediction.reshape(currents.size, x.size))


def fit_field_sweep(sweeps, spec: FieldSweepFitSpec,
                    params: SpinSystemParams) -> FitResult:
    """Joint fit of one or more current sweeps.

    Free parameters: excited g components, one field-calibration scale per
    sweep, the two isotope amplitudes and the frequency offset.  Sweeps
    along a single axis cannot constrain both g components (a sweep
    perpendicular to c never probes the parallel one); pass sweeps for both
    orientations to extract the full tensor.
    """
    if isinstance(sweeps, SweepData):
        sweeps = [sweeps]
    if not sweeps:
        raise ValidationError("need at least one sweep")
    for sweep in sweeps:
        if sweep.currents_a.size < 3:
            raise ValidationError("each sweep needs at least 3 field values")
    if len(spec.scales_g_per_a) != len(sweeps):
        raise ValidationError("one scale factor per sweep required")
    data = np.concatenate([s.absorption.reshape(-1) for s in sweeps])
    initial = np.array([spec.g_e_parallel, spec.g_e_perpendicular,
                        *spec.scales_g_per_a, spec.amplitude_171,
                        spec.amplitude_i0, spec.offset_ghz])
    names = (["g_e_parallel", "g_e_perpendicular"]
             + [f"scale_{k}" for k in range(len(sweeps))]
             + ["amplitude_171", "amplitude_i0", "offset_ghz"])
    return least_squares(
        lambda p: _sweep_model(sweeps, params, p, jacobian=True), data, initial,
        names=tuple(names), tol=1e-12)

