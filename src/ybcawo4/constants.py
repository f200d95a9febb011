"""Physical constants shared by every module.

Working units throughout the package: energies in GHz (E/h), magnetic
fields in mT at API boundaries and tesla internally, temperatures in K.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PhysicalConstants:
    """Single source of truth for the magnetic/thermal conversion factors."""

    mu_b_ghz_per_t: float = 13.9962      # Bohr magneton / h
    mu_n_mhz_per_t: float = 7.6226       # nuclear magneton / h
    h_over_kb_k_per_ghz: float = 0.0479924

    @property
    def mu_n_ghz_per_t(self) -> float:
        return self.mu_n_mhz_per_t * 1e-3

    @property
    def mu_n_over_mu_b(self) -> float:
        return self.mu_n_ghz_per_t / self.mu_b_ghz_per_t


CONSTANTS = PhysicalConstants()

# SI values of the dipolar coupling.
H_PLANCK_J_S = 6.62607015e-34
MU0_OVER_4PI_T2M3_J = 1e-7

# Bohr magneton in J/T, derived from the pinned mu_B/h so the two never drift.
MU_B_J_PER_T = CONSTANTS.mu_b_ghz_per_t * 1e9 * H_PLANCK_J_S

# (mu0/4pi) mu_B^2 / h: dipolar coupling of two Bohr magnetons at 1 cm, in Hz cm^3.
DIPOLE_HZ_CM3 = MU0_OVER_4PI_T2M3_J * MU_B_J_PER_T**2 / H_PLANCK_J_S * 1e6


def thermal_occupation_factor(delta_e_ghz: float, temperature_k: float) -> float:
    """sech^2(dE / 2 kT) for a splitting in GHz; 1 at dE = 0, -> 0 as T -> 0."""
    x = abs(delta_e_ghz) * CONSTANTS.h_over_kb_k_per_ghz / (2.0 * temperature_k)
    return float(1.0 / np.cosh(x) ** 2)
