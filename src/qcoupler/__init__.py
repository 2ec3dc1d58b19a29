"""Quantum light statistics in pumped two-guide Raman/Brillouin couplers.

The package propagates Gaussian field states through the linear operator
dynamics of a two-waveguide nonlinear coupler with classical pumping and
extracts photon statistics: intensity moments, photon-number
distributions, quadrature variances and principal squeeze variances.
Three mutually validating solution routes are provided (numerical matrix
exponential, closed form on the matched-coupling manifold, second-order
short-length expansion) plus a truncated Fock-space oracle.

Only the numerical route serves ``qcoupler run``; the other two and the
oracle cross-check it.  Their public names, such as
``analytic_propagator`` and ``FockConfig``, are importable from here,
but their modules load on the first access to one of them, so a fresh
``import qcoupler`` compiles and runs the sweep path alone.
"""

import importlib
import types

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
    SymplecticCheck,
    build_drift_matrix,
    conservation_residual,
    evolve_state,
    photon_number_balance,
    propagator,
    rk4_propagator,
    symplectic_check,
)
from .gaussian_stats import StatsReport, stats_report
from .presets import PRESET_NAMES, load_preset
from .cli import SweepResult, emit_csv, run_checks, run_scenario

# the public names of the check-only modules, and the module of each
_CHECK_ONLY = {
    "analytic_propagator": "analytic",
    "conditions_satisfied": "analytic",
    "short_propagator": "shortlen",
    "shortlen_state": "shortlen",
    "FockConfig": "fock_oracle",
    "FockEnsemble": "fock_oracle",
    "FockLevel": "fock_oracle",
    "build_hamiltonian": "fock_oracle",
    "evolve_fock": "fock_oracle",
    "fock_statistics": "fock_oracle",
}

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
__all__ += _CHECK_ONLY


def __getattr__(name):
    """Load a check-only name's module on first access (PEP 562)."""
    if name not in _CHECK_ONLY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_CHECK_ONLY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_CHECK_ONLY})
