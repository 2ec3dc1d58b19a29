"""Quantum light statistics in pumped two-guide Raman/Brillouin couplers.

The package propagates Gaussian field states through the linear operator
dynamics of a two-waveguide nonlinear coupler with classical pumping and
extracts photon statistics: intensity moments, photon-number
distributions, quadrature variances and principal squeeze variances.
Three mutually validating solution routes are provided (numerical matrix
exponential, closed form on the matched-coupling manifold, second-order
short-length expansion) plus a truncated Fock-space oracle.
"""

__version__ = "0.1.0"

from .exceptions import (
    NumericalError,
    ParameterRegimeWarning,
    PrecisionWarning,
    QcouplerError,
    ScenarioParseError,
    TruncationError,
    TruncationWarning,
    UnsupportedConfigurationError,
    ValidationError,
)
from .model import (
    CouplerParams,
    GaussianState,
    InputSpec,
    ModeId,
    ModeSelection,
    ScenarioConfig,
    VACUUM_INPUT,
    build_input_state,
    parse_scenario,
    serialize_scenario,
    validate_params,
)
from .dynamics import (
    BogoliubovTransform,
    EvolutionMatrix,
    SymplecticCheck,
    build_drift_matrix,
    conservation_residual,
    evolve_state,
    photon_number_balance,
    propagator,
    rk4_propagator,
    symplectic_check,
)
from .analytic import AnalyticFrame, analytic_propagator, conditions_satisfied
from .shortlen import (
    short_propagator,
    shortlen_coefficients,
    shortlen_mean_amplitudes,
    shortlen_state,
)
from .gaussian_stats import StatsReport, stats_report
from .fock_oracle import (
    FockConfig,
    FockEnsemble,
    FockLevel,
    build_hamiltonian,
    evolve_fock,
    fock_statistics,
)
from .presets import PRESET_NAMES, load_preset
from .cli import SweepResult, emit_csv, run_checks, run_scenario
