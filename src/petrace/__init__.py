"""petrace: numerical laboratory for self-similar blow-up in the reduced
inviscid primitive-equations trace system with non-constant temperature.

Layout:

- ``grid``        uniform grids, fields, derivatives, integrals, diffusion
- ``trace``       physical-frame solver on Z in [0, 1] (sigma = 0 or 1)
- ``selfsim``     dynamic-rescaling frame with modulated scales (lam, nu)
- ``diagnostics`` weighted energies, closeness/trapped verdicts, Hardy check
- ``params``      framework-parameter algebra and admissibility validation
- ``initial_data`` profile-adapted initial states and re-decomposition
- ``fitting``     blow-up time and rate estimation from trajectories
- ``cli``         batch front end (config-file driven)
"""

from .grid import Field, Grid, antiderivative, derivative, integral
from .params import FrameworkParams, Verdict, alpha0, fixed_diffusive_choice, validate_params
from .trace import SolverConfig, TraceState, Trajectory, run_to_blowup, run_to_time, step
from .selfsim import (
    SelfsimConfig,
    SelfSimilarState,
    build_state,
    decompose,
    reconstruct,
    run_selfsim,
    s_from_lambda,
    step_selfsim,
)
from .diagnostics import (
    EnergyReport,
    check_initial_closeness,
    check_trapped,
    energy_report,
    hardy_check,
    vanishing_exponent,
)
from .initial_data import InitialDataSpec, build_profile_data, redecompose
from .fitting import BlowupFit, estimate_T, fit_rates, temperature_rates

__version__ = "0.1.0"
