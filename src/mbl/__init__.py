"""Steady-state quantum correlations of a driven, damped coupled mode.

A two-level system exchange-coupled to a bosonic mode, with weak coherent
drives and Lindblad damping. The package computes the equal-time
second-order correlation g²(0) of the mode two ways (closed-form
perturbative amplitudes and a full master-equation steady state), the
dressed level ladder, time evolution, and parameter sweeps for a bundled
set of figure presets.
"""

__version__ = "0.1.0"

from .analytic import (
    amplitude_g2,
    analytic_g2,
    closed_form_amplitudes,
    optimal_detuning,
    solve_steady_linear,
)
from .core import Space
from .errors import NumericalError, ParameterError
from .lindblad import (
    build_liouvillian,
    evolve,
    fock_populations,
    g2_zero,
    steady_state,
)
from .model import (
    DressedLevel,
    SystemParams,
    build_h_nonhermitian,
    dressed_spectrum,
)
from .sweep import (
    FIGURE_NAMES,
    EvolutionJob,
    ResultGrid,
    SweepAxis,
    SweepSpec,
    TimeSeries,
    figure_preset,
    run_evolution,
    run_sweep,
)

__all__ = [
    "__version__",
    "DressedLevel",
    "EvolutionJob",
    "FIGURE_NAMES",
    "NumericalError",
    "ParameterError",
    "ResultGrid",
    "Space",
    "SweepAxis",
    "SweepSpec",
    "SystemParams",
    "TimeSeries",
    "amplitude_g2",
    "analytic_g2",
    "build_h_nonhermitian",
    "build_liouvillian",
    "closed_form_amplitudes",
    "dressed_spectrum",
    "evolve",
    "figure_preset",
    "fock_populations",
    "g2_zero",
    "optimal_detuning",
    "run_evolution",
    "run_sweep",
    "solve_steady_linear",
    "steady_state",
]
