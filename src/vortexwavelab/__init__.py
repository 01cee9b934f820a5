"""Pseudo-spectral laboratory for 2D gravity water waves coupled to
submerged point vortices, in Riemann-mapping variables.

The wave state is the pair of real fields (W, U) -- the real parts of the
interface displacement Z - alpha and of the velocity trace F -- together
with the vortex positions.  Everything else (the full interface, the
transport coefficient b, the Taylor-sign coefficient A1, the forcing felt
by the wave) is derived per state.  Closed-form results for the flat
interface + vortex pair configuration live in :mod:`vortexwavelab.taylor`
and double as oracles for the discrete operators.
"""

from .grid import GridSpec, Field, field_from_function, zero_field
from .gevrey import GevreyParams, GevreyReport, gevrey_norm, energy
from .taylor import (PairConfig, a1_flat_pair, g_profile, f_reduced, inf_a1_flat,
                     inf_a1_flat_rows, crossing_depth, residue_pair_integral,
                     interaction_sum)
from .waves import Vortex, WaveState, rhs
from .sim import (IntegratorConfig, StepRecord, make_initial, monitor,
                  run_simulation, step_rk4)
from .config import ScenarioConfig, run_scenario

__all__ = [
    "GridSpec", "Field", "field_from_function", "zero_field",
    "GevreyParams", "GevreyReport", "gevrey_norm", "energy",
    "PairConfig", "a1_flat_pair", "g_profile",
    "f_reduced", "inf_a1_flat", "inf_a1_flat_rows", "crossing_depth",
    "residue_pair_integral", "interaction_sum",
    "Vortex", "WaveState", "rhs",
    "IntegratorConfig", "StepRecord", "make_initial", "monitor",
    "run_simulation", "step_rk4",
    "ScenarioConfig", "run_scenario",
]

__version__ = "0.1.0"
