"""Relaxation and decoherence modeling: dopant-pair flip-flops, spin-lattice
relaxation, thermal populations, optical-pumping rate equations and the
coherence-time budgets they imply.

Unit conventions (documented once, used everywhere):
  * flip-flop coupling C is quoted in Hz^2 cm^6: the pair matrix element is
    divided by h before squaring, so C * n^2 / linewidth is a rate in s^-1
    for a number density n in cm^-3;
  * the distance-integrated coupling beta = C / r_avg^6 is in Hz^2, with
    1/r_avg^6 identically n^2;
  * all rates are angular-frequency-free (ordinary Hz / s^-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import CONSTANTS, DIPOLE_HZ_CM3, thermal_occupation_factor
from .errors import DomainError, NumericalError, ValidationError
from .params import (EXCITED_LEVEL_GROUP, GROUND_LEVEL_GROUP,
                     GROUND_MULTIPLICITIES, Manifold, SpinSystemParams,
                     UniaxialTensor)
from .spectra import BranchingTable, MEASURED_BRANCHING
from . import spinham


def _into_ground_levels(rates: np.ndarray, source_group: tuple[int, ...]) -> np.ndarray:
    """Lift rates into the ground groups (rows) to the four ground levels.

    Entry (level, k) is rates[group of level, source_group[k]] split evenly
    over the level's group, i.e. divided by its multiplicity, as a share
    matrix product would give it.  Indexing, because the first matrix-matrix
    product in a process adds about 0.3 MB to its peak memory (the BLAS
    buffer), and `pump` makes no other.
    """
    shared = rates / np.array(GROUND_MULTIPLICITIES, dtype=float)[:, None]
    return shared[np.ix_(GROUND_LEVEL_GROUP, source_group)]


def average_dopant_distance(volume_nm3: float, sites_per_cell: int,
                            occupied_fraction: float) -> float:
    """Mean dopant separation (V / (Z n))^(1/3) in nm for site occupancy n."""
    if volume_nm3 <= 0 or sites_per_cell <= 0:
        raise ValidationError("cell volume and site count must be positive")
    if occupied_fraction <= 0 or occupied_fraction > 1:
        raise DomainError("occupied fraction must lie in (0, 1]")
    return (volume_nm3 / (sites_per_cell * occupied_fraction)) ** (1.0 / 3.0)


# Flip-flop channels: the clock pair couples through Sz only (parallel g),
# every transition in or out of the doublet through Sx/Sy (perpendicular g);
# the pair inside the doublet has no single-spin matrix element at all.
_PARALLEL_PAIRS = {(1, 4)}
_PERPENDICULAR_PAIRS = {(1, 2), (1, 3), (2, 4), (3, 4)}


def _channel(pair) -> str:
    key = tuple(sorted(pair))
    if key in _PARALLEL_PAIRS:
        return "parallel"
    if key in _PERPENDICULAR_PAIRS:
        return "perpendicular"
    raise ValidationError(f"no single-spin flip-flop channel for pair {pair}")


def flipflop_coupling(pair, g: UniaxialTensor) -> float:
    """Orientation-averaged pair coupling C in Hz^2 cm^6.

    The sphere average of the dipolar angular factor contributes pi/10 for
    the Sz channel and pi/40 for the Sx/Sy channel (including each channel's
    matrix-element prefactor).
    """
    channel = _channel(pair)
    if channel == "parallel":
        return DIPOLE_HZ_CM3**2 * math.pi * g.parallel**4 / 10.0
    return DIPOLE_HZ_CM3**2 * math.pi * g.perpendicular**4 / 40.0


def flipflop_beta_integrated(pair, g: UniaxialTensor, r_avg_nm: float) -> float:
    """Coupling at the average dopant distance, in Hz^2 (= C / r_avg^6)."""
    if r_avg_nm <= 0:
        raise ValidationError("average distance must be positive")
    r_cm = r_avg_nm * 1e-7
    return flipflop_coupling(pair, g) / r_cm**6


@dataclass(frozen=True)
class FlipFlopParams:
    """Inputs of the mutual spin-exchange rate for one transition."""

    pair: tuple[int, int]
    beta_ff: float               # coupling C, Hz^2 cm^6
    density_cm3: float           # partner spin density, cm^-3
    gamma_inh_khz: float
    gamma_h_khz: float
    delta_e_ghz: float
    temperature_k: float

    def __post_init__(self):
        if self.beta_ff < 0 or self.density_cm3 < 0:
            raise ValidationError("coupling and density must be non-negative")
        if self.gamma_inh_khz < 0 or self.gamma_h_khz < 0:
            raise ValidationError("linewidths must be non-negative")
        if not self.temperature_k > 0:
            raise ValidationError("temperature must be positive")


def flipflop_rate(p: FlipFlopParams) -> float:
    """beta n^2 / (Gamma_h + Gamma_inh) * sech^2(dE / 2 kT), in s^-1."""
    gamma_hz = (p.gamma_h_khz + p.gamma_inh_khz) * 1e3
    if gamma_hz <= 0:
        raise DomainError("total linewidth must be positive")
    thermal = thermal_occupation_factor(p.delta_e_ghz, p.temperature_k)
    return p.beta_ff * p.density_cm3**2 / gamma_hz * thermal


@dataclass(frozen=True)
class SlrParams:
    """Spin-lattice recovery-rate polynomial R0 + a1 T^2 + a2 T^9 (Hz)."""

    r0_hz: float
    a1_hz_k2: float
    a2_hz_k9: float

    def __post_init__(self):
        if min(self.r0_hz, self.a1_hz_k2, self.a2_hz_k9) < 0:
            raise ValidationError("rate coefficients must be non-negative")


# Fitted recovery parameters of the two upper ground level groups.
SLR_DOUBLET = SlrParams(0.2e-4, 3.8e-4, 0.55e-4)
SLR_UPPER = SlrParams(0.2e-4, 9e-4, 0.25e-4)


def slr_rate(temperature_k: float, p: SlrParams) -> float:
    if not temperature_k > 0:
        raise ValidationError("temperature must be positive")
    t = temperature_k
    return p.r0_hz + p.a1_hz_k2 * t**2 + p.a2_hz_k9 * t**9


def slr_crossover_temperature(p: SlrParams) -> float:
    """Temperature where the T^2 and T^9 terms are equal."""
    if p.a1_hz_k2 <= 0 or p.a2_hz_k9 <= 0:
        raise DomainError("crossover needs both power-law terms")
    return (p.a1_hz_k2 / p.a2_hz_k9) ** (1.0 / 7.0)


def boltzmann_populations(energies_ghz, temperature_k: float,
                          degeneracies=None) -> np.ndarray:
    """Normalized thermal weights g_i exp(-E_i h / kB T)."""
    if not temperature_k > 0:
        raise ValidationError("temperature must be positive")
    e = np.asarray(energies_ghz, dtype=float)
    g = np.ones_like(e) if degeneracies is None else np.asarray(degeneracies, float)
    x = -(e - e.min()) * CONSTANTS.h_over_kb_k_per_ghz / temperature_k
    w = g * np.exp(x)
    return w / w.sum()


def ground_group_energies(params: SpinSystemParams) -> np.ndarray:
    """Zero-field energies (GHz) of the ground level groups GROUND_GROUPS.

    Raises DomainError when the ground hyperfine tensor does not fit the
    level layout (spinham.checked_zero_field_levels).
    """
    groups = spinham.checked_zero_field_levels(params, Manifold.GROUND)
    return np.array([g.energy_ghz for g in groups])


def ground_level_energies(params: SpinSystemParams) -> np.ndarray:
    return np.take(ground_group_energies(params), GROUND_LEVEL_GROUP)


def slr_generator(params: SpinSystemParams, temperature_k: float) -> np.ndarray:
    """Rate matrix G for the group populations (n1, n23, n4), dn/dt = G n.

    Downhill channel rates equal the measured per-level recovery rates
    SLR_DOUBLET and SLR_UPPER (the upper level's rate is split over its two
    exit channels); uphill rates follow detailed balance, so the stationary
    state is the Boltzmann distribution with the doublet's twofold
    degeneracy.
    """
    energies = ground_group_energies(params)
    pi = boltzmann_populations(energies, temperature_k,
                               degeneracies=GROUND_MULTIPLICITIES)
    r23 = slr_rate(temperature_k, SLR_DOUBLET)
    r4 = slr_rate(temperature_k, SLR_UPPER)
    down = {(1, 0): r23, (2, 1): 0.5 * r4, (2, 0): 0.5 * r4}
    g = np.zeros((3, 3))
    for (src, dst), rate in down.items():
        g[dst, src] += rate
        g[src, dst] += rate * pi[src] / pi[dst]
    for k in range(3):
        g[k, k] = -(g[:, k].sum() - g[k, k])
    return g


def _expand_ground_generator(group_gen: np.ndarray) -> np.ndarray:
    """Lift the 3-group generator to the 4 individual ground levels.

    Each level of a source group feeds every other group at the group rate,
    split evenly over the destination's levels; the diagonal then makes
    every column sum to zero.
    """
    off_diagonal = np.array(group_gen, dtype=float)
    np.fill_diagonal(off_diagonal, 0.0)
    g4 = _into_ground_levels(off_diagonal, GROUND_LEVEL_GROUP)
    for k in range(4):
        g4[k, k] = -(g4[:, k].sum() - g4[k, k])
    return g4


@dataclass(frozen=True)
class PumpConfig:
    """Optical-pumping run: driven lines, duration and relaxation inputs."""

    transitions: tuple = (((4, 1), 1e3), ((4, 2), 1e3),
                          ((2, 1), 1e3), ((2, 2), 1e3),
                          ((3, 1), 1e3), ((3, 2), 1e3))
    duration_s: float = 0.3
    branching: BranchingTable = field(
        default_factory=lambda: MEASURED_BRANCHING["sigma"])
    temperature_k: float = 0.05

    def __post_init__(self):
        if not self.duration_s > 0:
            raise ValidationError("duration must be positive")
        for (g_level, e_level), rate in self.transitions:
            if not (1 <= g_level <= 4 and 1 <= e_level <= 4):
                raise ValidationError("pumped transition indices must be 1..4")
            if rate < 0:
                raise ValidationError("pump rates must be non-negative")


def _pump_rate_matrix(config: PumpConfig, params: SpinSystemParams) -> np.ndarray:
    """8x8 generator over (n1g..n4g, n1e..n4e); columns sum to zero.

    Raises DomainError when either hyperfine tensor does not fit the level
    layout that lifts the branching table and the relaxation to levels.
    """
    spinham.checked_zero_field_levels(params, Manifold.EXCITED)
    m = np.zeros((8, 8))
    # optical decay with branching: excited level j decays at 1/T1, split
    # over ground groups by the table column of j's group, then equally over
    # the group members
    decay = 1.0 / params.t1_optical_s
    w = config.branching.weights
    totals = w.sum(axis=0)
    if np.any(totals <= 0):
        raise ValidationError("branching table leaves an excited level "
                              "with no decay path")
    m[:4, 4:] = _into_ground_levels(decay * (w / totals), EXCITED_LEVEL_GROUP)
    np.fill_diagonal(m[4:, 4:], -decay)
    # pump: symmetric stimulated coupling of each driven pair
    for (g_level, e_level), rate in config.transitions:
        gi, ei = g_level - 1, 4 + e_level - 1
        m[ei, gi] += rate
        m[gi, gi] -= rate
        m[gi, ei] += rate
        m[ei, ei] -= rate
    # ground-manifold spin-lattice relaxation
    group_gen = slr_generator(params, config.temperature_k)
    m[:4, :4] += _expand_ground_generator(group_gen)
    return m


# Names of the eight populations of the pump state vector, in order.
PUMP_LEVEL_NAMES = ("n1g", "n2g", "n3g", "n4g", "n1e", "n2e", "n3e", "n4e")


@dataclass(frozen=True)
class PumpResult:
    times_s: np.ndarray
    populations: np.ndarray      # (n_times, 8), columns PUMP_LEVEL_NAMES

    def final(self) -> np.ndarray:
        return self.populations[-1]


# Cash-Karp embedded Runge-Kutta pair (orders 4 and 5); the generator is
# constant, so the stage nodes never enter
_CK_B = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_C5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_C4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)
_CK_REL_TOL = 1e-8   # step control: relative error per accepted step


def _integrate_linear(matrix, y0, duration):
    """Adaptive Cash-Karp integration of dy/dt = M y, recording every step."""
    t, y = 0.0, np.asarray(y0, dtype=float).copy()
    times, states = [0.0], [y.copy()]
    rates = np.abs(np.diag(matrix))
    h = 0.1 / max(rates.max(), 1.0 / duration)
    h = min(h, duration)
    floor = duration * 1e-12
    while t < duration:
        h = min(h, duration - t)
        k = []
        for stage in range(6):
            yk = y.copy()
            for idx, b in enumerate(_CK_B[stage]):
                yk += h * b * k[idx]
            k.append(matrix @ yk)
        y5 = y + h * sum(c * kk for c, kk in zip(_CK_C5, k))
        y4 = y + h * sum(c * kk for c, kk in zip(_CK_C4, k))
        scale = np.maximum(np.abs(y5), 1e-3)
        err = np.max(np.abs(y5 - y4) / scale) / _CK_REL_TOL
        if err <= 1.0:
            t += h
            y = y5
            times.append(t)
            states.append(y.copy())
            h *= min(5.0, 0.9 * err ** -0.2 if err > 0 else 5.0)
        else:
            h *= max(0.1, 0.9 * err ** -0.25)
        if h < floor:
            raise NumericalError("step size underflow in the rate-equation solver")
    return np.array(times), np.array(states)


def pump_simulation(config: PumpConfig, params: SpinSystemParams,
                    initial: np.ndarray | None = None) -> PumpResult:
    """Population trajectories of the 4 ground + 4 excited levels.

    Starts from the ground-manifold thermal distribution unless `initial`
    is given.  Populations are conserved by construction (the generator's
    columns sum to zero) and stay within [0, 1].
    """
    matrix = _pump_rate_matrix(config, params)
    if initial is None:
        y0 = equilibrium_populations(params, config.temperature_k)
    else:
        y0 = np.asarray(initial, dtype=float)
        if y0.shape != (8,) or abs(y0.sum() - 1.0) > 1e-9 or np.any(y0 < 0):
            raise ValidationError("initial populations must be 8 non-negative "
                                  "values summing to 1")
    times, states = _integrate_linear(matrix, y0, config.duration_s)
    return PumpResult(times, states)


def equilibrium_populations(params: SpinSystemParams,
                            temperature_k: float) -> np.ndarray:
    """Thermal ground-manifold distribution over the 8-level state vector."""
    y = np.zeros(8)
    y[:4] = boltzmann_populations(ground_level_energies(params), temperature_k)
    return y


def stationary_state(matrix: np.ndarray) -> np.ndarray:
    """Normalized null vector of a conservative rate matrix."""
    _, _, vh = np.linalg.svd(matrix)
    state = vh[-1].real
    if state.sum() < 0:
        state = -state
    return state / state.sum()


# --- coherence budgets ---------------------------------------------------

@dataclass(frozen=True)
class RateBudget:
    """Named population-decay channels and the linewidth/T2 they imply."""

    channels: dict
    gamma_h_hz: float
    t2_s: float
    unbounded: bool = False

    def describe(self) -> str:
        lines = [f"{name}: {rate:.6g} s^-1" for name, rate in self.channels.items()]
        if self.unbounded:
            lines.append("homogeneous linewidth: 0 (no decay channels)")
            lines.append("predicted T2: unbounded")
        else:
            lines.append(f"homogeneous linewidth: {self.gamma_h_hz:.6g} Hz")
            lines.append(f"predicted T2: {self.t2_s:.6g} s")
        return "\n".join(lines)


def coherence_budget_optical(t1_s: float, flipflop: dict | None = None,
                             slr: dict | None = None) -> RateBudget:
    """pi Gamma_h = 1/(2 T1) + sum(R_ff)/2 + sum(R_slr)/2 for the optical line.

    The rate maps list population-decay channels out of the ground level of
    the optical transition; with no spin channels T2 = 2 T1 exactly.
    """
    if t1_s <= 0:
        raise ValidationError("optical lifetime must be positive")
    flipflop = flipflop or {}
    slr = slr or {}
    pi_gamma = 1.0 / (2.0 * t1_s) + 0.5 * sum(flipflop.values()) + 0.5 * sum(slr.values())
    channels = {"optical_decay": 1.0 / t1_s}
    channels.update({f"flipflop_{k}": v for k, v in flipflop.items()})
    channels.update({f"slr_{k}": v for k, v in slr.items()})
    return RateBudget(channels, pi_gamma / math.pi, 1.0 / pi_gamma)


def coherence_budget_spin(flipflop: dict | None = None, slr: dict | None = None,
                          polarized: bool = True) -> RateBudget:
    """Spin-transition budget from flip-flop and spin-lattice channels.

    Unpolarized: every channel out of either clock level contributes half
    its rate.  Polarized with a small excited fraction: only the flip-flop
    on the clock pair itself survives, pi Gamma_h = R_ff(clock)/2.
    """
    flipflop = flipflop or {}
    slr = slr or {}
    if polarized:
        clock = [v for k, v in flipflop.items() if tuple(sorted(k)) == (1, 4)] or [0.0]
        pi_gamma = 0.5 * clock[0]
        channels = {"flipflop_(1, 4)": clock[0]}
    else:
        pi_gamma = 0.5 * (sum(flipflop.values()) + sum(slr.values()))
        channels = {f"flipflop_{k}": v for k, v in flipflop.items()}
        channels.update({f"slr_{k}": v for k, v in slr.items()})
    if pi_gamma <= 0:
        return RateBudget(channels, 0.0, math.inf, unbounded=True)
    return RateBudget(channels, pi_gamma / math.pi, 1.0 / pi_gamma)


def spin_flipflop_from_t2(t2_s: float) -> float:
    """Invert the polarized spin budget: R_ff(clock) = 2 / T2."""
    if t2_s <= 0:
        raise ValidationError("coherence time must be positive")
    return 2.0 / t2_s


def optical_flipflop_from_t2(t2_s: float, t1_s: float) -> float:
    """Invert the optical budget: total spin decay rate 2 (1/T2 - 1/(2 T1))."""
    if t2_s <= 0 or t1_s <= 0:
        raise ValidationError("times must be positive")
    return 2.0 * (1.0 / t2_s - 1.0 / (2.0 * t1_s))


# --- temperature dependence of the coherence times ----------------------

# Inputs of the temperature model for the predicted T2(T) curves.
# Polarized clock-pair flip-flop rate, Hz (a measured lower bound).
CLOCK_FLIPFLOP_HZ = 13.3
# How long spin-lattice relaxation refills the doublet between pumping
# cycles, s.
REPOLARIZATION_WINDOW_S = 0.4
# T^9 phonon dephasing coefficient, Hz K^-9; it reproduces the measured
# optical coherence near 4 K.
PHONON_T9_HZ_K9 = 0.0126


def _doublet_population(energies, temperature_k, polarized: bool) -> float:
    """Residual doublet occupation during a coherence measurement, from the
    ground group energies (GHz)."""
    if not polarized:
        return 0.5  # populations reshuffled evenly over the four levels
    eq = boltzmann_populations(energies, temperature_k,
                               degeneracies=GROUND_MULTIPLICITIES)
    refill = 1.0 - math.exp(-slr_rate(temperature_k, SLR_DOUBLET)
                            * REPOLARIZATION_WINDOW_S)
    # cap at the infinite-temperature occupancy: the thermal weight passes
    # through a percent-level hump while the upper level is still frozen out,
    # which would otherwise break the monotone decrease of the predicted T2
    return min(float(eq[1]), 0.5) * refill


def _doublet_flipflop_rate(params, temperature_k, population,
                           delta_e_ghz) -> float:
    """Doublet-mediated flip-flop rate, s^-1, at the spin ensemble linewidth
    params.fwhm_spin_khz and no homogeneous width."""
    beta = flipflop_coupling((1, 2), params.g_ground)
    n_eff = params.spin_density_cm3() * population
    if n_eff <= 0:
        return 0.0
    p = FlipFlopParams((1, 2), beta, n_eff, params.fwhm_spin_khz, 0.0,
                       delta_e_ghz, temperature_k)
    return flipflop_rate(p)


def t2_vs_temperature(params: SpinSystemParams, temperatures_k,
                      mode: str = "spin", polarized: bool = True) -> np.ndarray:
    """Predicted coherence time versus temperature, s.

    spin mode: the clock-pair flip-flop floor plus doublet-mediated
    flip-flops weighted by the residual doublet population (squared, both
    partners must occupy the doublet channel); it models a polarized
    ensemble only.  optical mode: radiative decay plus the same spin
    channels out of the optical ground level plus a T^9 phonon term.
    Monotonically non-increasing in temperature.
    """
    temps = np.asarray(temperatures_k, dtype=float)
    if not np.all((temps > 0) & (temps <= 5.0)):
        raise ValidationError("temperature grid must lie in (0, 5] K")
    if mode not in ("spin", "optical"):
        raise ValidationError("mode must be 'spin' or 'optical'")
    if mode == "spin" and not polarized:
        raise ValidationError("spin mode models a polarized ensemble; "
                              "polarized=False is an optical-mode input")
    energies = ground_group_energies(params)
    e1, e23, e4 = energies
    out = np.empty(temps.shape)
    for k, t in np.ndenumerate(temps):
        p23 = _doublet_population(energies, t, polarized)
        r_4_23 = _doublet_flipflop_rate(params, t, p23, e4 - e23)
        if mode == "spin":
            r_1_23 = _doublet_flipflop_rate(params, t, p23, e23 - e1)
            pi_gamma = 0.5 * (CLOCK_FLIPFLOP_HZ + r_1_23 + r_4_23)
        else:
            pi_gamma = (1.0 / (2.0 * params.t1_optical_s) + 0.5 * r_4_23
                        + PHONON_T9_HZ_K9 * t**9)
        out[k] = 1.0 / pi_gamma
    return out
