"""Parameter containers for the two-manifold effective spin-1/2 system.

The default parameter set describes the tetragonal site of 171Yb3+ in
CaWO4; a second preset carries the excited-state tensor extracted from
magnetic-field-sweep fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from .errors import ValidationError, check_count, check_finite, check_positive


class Manifold(Enum):
    GROUND = "ground"
    EXCITED = "excited"


# Zero-field level groups of each manifold, in ascending energy.  A group's
# name lists its 1-based levels, so its length is its multiplicity: the
# ground doublet is |2,3>g, the excited one |1,2>e.  The one place this
# layout is written; every other module derives what it needs from it.
GROUND_GROUPS = ("1", "23", "4")
EXCITED_GROUPS = ("12", "3", "4")

# Derived: each group's multiplicity (the length of its name) and the group
# index of each 1-based level, in level order.
GROUND_MULTIPLICITIES = tuple(len(name) for name in GROUND_GROUPS)
EXCITED_MULTIPLICITIES = tuple(len(name) for name in EXCITED_GROUPS)
GROUND_LEVEL_GROUP = tuple(k for k, name in enumerate(GROUND_GROUPS) for _ in name)
EXCITED_LEVEL_GROUP = tuple(k for k, name in enumerate(EXCITED_GROUPS) for _ in name)


@dataclass(frozen=True)
class UniaxialTensor:
    """Axial tensor with one parallel and two identical perpendicular components.

    The symmetry axis is the crystal c axis (z).  `unit` is fixed at
    construction: "dimensionless" for g tensors, "GHz" for hyperfine tensors.
    """

    parallel: float
    perpendicular: float
    unit: str = "dimensionless"

    def __post_init__(self):
        check_finite("tensor components", self.parallel, self.perpendicular)
        if self.unit not in ("dimensionless", "GHz"):
            raise ValidationError(f"unknown tensor unit {self.unit!r}")


def g_tensor(parallel: float, perpendicular: float) -> UniaxialTensor:
    return UniaxialTensor(parallel, perpendicular, "dimensionless")


def a_tensor(parallel_ghz: float, perpendicular_ghz: float) -> UniaxialTensor:
    return UniaxialTensor(parallel_ghz, perpendicular_ghz, "GHz")


@dataclass(frozen=True)
class SpinSystemParams:
    """All scalar/tensor parameters of the coupled S=1/2, I=1/2 system."""

    g_ground: UniaxialTensor = field(default_factory=lambda: g_tensor(1.053, 3.916))
    g_excited: UniaxialTensor = field(default_factory=lambda: g_tensor(-1.446, 1.293))
    a_ground: UniaxialTensor = field(default_factory=lambda: a_tensor(-0.78905, 3.08187))
    a_excited: UniaxialTensor = field(default_factory=lambda: a_tensor(-2.87, 2.72))
    g_n: float = 0.987
    t1_optical_s: float = 0.385e-3
    fwhm_optical_mhz: float = 185.0
    fwhm_spin_khz: float = 5.0
    concentration_ppm: float = 4.96
    unit_cell_volume_nm3: float = 0.2795
    sites_per_cell: int = 4

    def __post_init__(self):
        if not 0.0 < self.concentration_ppm < 1e6:
            raise ValidationError(
                f"concentration_ppm must lie in (0, 1e6), got {self.concentration_ppm}")
        check_finite("g_n", self.g_n)
        check_positive("t1_optical_s", self.t1_optical_s)
        check_positive("fwhm_optical_mhz", self.fwhm_optical_mhz)
        check_positive("fwhm_spin_khz", self.fwhm_spin_khz)
        check_positive("unit_cell_volume_nm3", self.unit_cell_volume_nm3)
        check_count("sites_per_cell", self.sites_per_cell, 1)
        if self.a_ground.unit != "GHz" or self.a_excited.unit != "GHz":
            raise ValidationError("hyperfine tensors must carry the GHz unit tag")

    def g(self, manifold: Manifold) -> UniaxialTensor:
        return self.g_ground if manifold is Manifold.GROUND else self.g_excited

    def a(self, manifold: Manifold) -> UniaxialTensor:
        return self.a_ground if manifold is Manifold.GROUND else self.a_excited

    def spin_density_cm3(self) -> float:
        """Volumetric dopant density implied by the site concentration."""
        cell_cm3 = self.unit_cell_volume_nm3 * 1e-21
        return self.sites_per_cell * self.concentration_ppm * 1e-6 / cell_cm3


def default_params(preset: str = "yb171-cawo4") -> SpinSystemParams:
    """Named parameter presets.

    "yb171-cawo4"   tabulated EPR/optical values (canonical defaults)
    "field-sweep-fit"  excited tensor from the field-sweep fit (E perp c dataset)
    """
    base = SpinSystemParams()
    if preset == "yb171-cawo4":
        return base
    if preset == "field-sweep-fit":
        return replace(base, g_excited=g_tensor(-1.451, 1.361))
    raise ValidationError(f"unknown preset {preset!r}")


PRESET_NAMES = ("yb171-cawo4", "field-sweep-fit")

# Current-to-field scale factors (G/A) of the two coil orientations used with
# the "field-sweep-fit" preset.
FIELD_SWEEP_SCALE_G_PER_A = {"parallel": 143.64, "perpendicular": 166.20}
