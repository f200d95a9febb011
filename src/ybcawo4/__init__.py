"""Modeling toolkit for the coupled electron-nuclear spin system of
171Yb3+ in CaWO4: energy levels, optical/EPR spectra, selection rules,
relaxation and decoherence budgets, and fits of the matching observables.
"""

__version__ = "0.1.0"

from .constants import CONSTANTS, PhysicalConstants
from .errors import DomainError, NumericalError, ValidationError
from .params import (Manifold, SpinSystemParams, UniaxialTensor, a_tensor,
                     default_params, g_tensor)
from .spinham import (EigenSystem, eigensystem, eigensystems,
                      find_clock_transitions, first_order_sensitivity,
                      spin_half_operators, transition_magnetic_dipole,
                      zero_field_levels)
from .spectra import (BranchingTable, Spectrum, SweepMap, TransitionLine,
                      angular_rosette, epr_resonance_fields, field_sweep_map,
                      synthesize_spectrum, transition_catalog)
from .grouptheory import (D2D, S4, DoubletCoefficients, SelectionRuleTable,
                          dipole_selection_rules, doublet_g_factors,
                          fit_j_mixing, g_consistency_relation,
                          hyperfine_level_irreps, hyperfine_selection_table,
                          irrep_product, named_selection_table)
from .dynamics import (FlipFlopParams, PumpConfig, RateBudget, SlrParams,
                       average_dopant_distance, boltzmann_populations,
                       coherence_budget_optical, coherence_budget_spin,
                       flipflop_beta_integrated, flipflop_coupling,
                       flipflop_rate, pump_simulation, slr_rate,
                       t2_vs_temperature)
from .fitting import (FieldSweepFitSpec, FitResult, fit_echo_decay,
                      fit_field_sweep, fit_gaussian_line, fit_slr_recovery,
                      least_squares)
