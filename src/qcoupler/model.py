"""Domain model of the pumped two-guide nonlinear coupler.

Six modes live on a fixed canonical axis: Stokes, anti-Stokes and
vibration (phonon) modes of guide 1, followed by the same triple for
guide 2.  The pump lasers are classical and already folded into the
effective nonlinear couplings, so they never appear as modes here.

Field states are the Gaussian family "coherent signal plus quantum
noise", parameterized by coherent amplitudes ``xi`` and the normally
ordered noise functions

    B_j    = <dA_j^+ dA_j>          (real, >= 0)
    C_j    = <(dA_j)^2>
    D_jk   = <dA_j dA_k>            (j != k, symmetric)
    Dbar_jk = -<dA_j^+ dA_k>        (j != k, conjugate-symmetric)

with ``dA = A - <A>``.  Inputs are specified in the squeezed-plus-noise
form and converted to normal ordering at construction.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import (
    ParameterRegimeWarning,
    ScenarioParseError,
    UnsupportedConfigurationError,
    ValidationError,
)

N_MODES = 6


class ModeId(enum.IntEnum):
    """The six modes in canonical order."""

    S1 = 0
    A1 = 1
    V1 = 2
    S2 = 3
    A2 = 4
    V2 = 5


MODE_NAMES = tuple(m.name for m in ModeId)

# Canonical index permutation realizing the guide-1 <-> guide-2 exchange.
EXCHANGE_PERMUTATION = (3, 4, 5, 0, 1, 2)


def _as_complex(value, name):
    try:
        c = complex(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} is not a complex scalar: {value!r}")
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ValidationError(f"{name} must be finite, got {c}")
    return c


@dataclass(frozen=True)
class CouplerParams:
    """Effective couplings of the two-guide system, in units of 1/length.

    ``gS*``/``gA*`` are the Stokes/anti-Stokes nonlinear couplings with
    the classical pump amplitude already absorbed; ``kappaS``/``kappaA``
    are the evanescent couplings between like radiation modes of the two
    guides.  The phase mismatches are carried for completeness but must
    all be exactly zero: only the mismatch-free coupler is supported.
    """

    gS1: complex = 0j
    gA1: complex = 0j
    gS2: complex = 0j
    gA2: complex = 0j
    kappaS: complex = 0j
    kappaA: complex = 0j
    dkS1: float = 0.0
    dkA1: float = 0.0
    dkS2: float = 0.0
    dkA2: float = 0.0
    dKS: float = 0.0
    dKA: float = 0.0

    def swapped(self) -> "CouplerParams":
        """Parameters of the guide-exchanged coupler (kappas conjugated)."""
        return replace(
            self,
            gS1=self.gS2, gA1=self.gA2, gS2=self.gS1, gA2=self.gA1,
            kappaS=self.kappaS.conjugate(), kappaA=self.kappaA.conjugate(),
            dkS1=self.dkS2, dkA1=self.dkA2, dkS2=self.dkS1, dkA2=self.dkA1,
        )


# A validated parameter set is an ordinary CouplerParams that has passed
# validate_params; the alias documents intent in signatures.
ValidatedParams = CouplerParams

_COUPLING_FIELDS = ("gS1", "gA1", "gS2", "gA2", "kappaS", "kappaA")
_MISMATCH_FIELDS = ("dkS1", "dkA1", "dkS2", "dkA2", "dKS", "dKA")


def validate_params(params: CouplerParams) -> ValidatedParams:
    """Validate a parameter set, returning a normalized copy.

    Raises
    ------
    ValidationError
        If any magnitude is non-finite.
    UnsupportedConfigurationError
        If any phase mismatch is nonzero; mismatched propagation is out
        of scope for this package.

    Warns with :class:`ParameterRegimeWarning` when a driven guide has
    ``|gA| <= |gS|``, since nonclassical regimes favor the opposite.
    """
    kwargs = {}
    for name in _COUPLING_FIELDS:
        kwargs[name] = _as_complex(getattr(params, name), name)
    for name in _MISMATCH_FIELDS:
        value = getattr(params, name)
        try:
            value = float(value)
        except (TypeError, ValueError):
            raise ValidationError(f"{name} is not a real scalar: {value!r}")
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
        if value != 0.0:
            raise UnsupportedConfigurationError(
                f"nonzero phase mismatch {name}={value}; only the "
                "mismatch-free coupler is supported"
            )
        kwargs[name] = value
    validated = CouplerParams(**kwargs)
    for guide, (gs, ga) in enumerate(
        [(validated.gS1, validated.gA1), (validated.gS2, validated.gA2)], start=1
    ):
        if (gs != 0 or ga != 0) and abs(ga) <= abs(gs):
            warnings.warn(
                f"guide {guide} has |gA| <= |gS|; nonclassical regimes "
                "favor |gA| > |gS|",
                ParameterRegimeWarning,
                stacklevel=2,
            )
    return validated


@dataclass(frozen=True)
class InputSpec:
    """Input state of one mode: squeezed coherent light plus chaotic noise.

    ``xi`` is the coherent amplitude, ``r``/``theta`` the squeeze
    parameter and phase, ``n_ch`` the mean number of chaotic quanta.
    A plain coherent state is ``r = 0, n_ch = 0``; a chaotic (thermal)
    phonon mode is ``xi = 0, r = 0, n_ch > 0``.
    """

    xi: complex = 0j
    r: float = 0.0
    theta: float = 0.0
    n_ch: float = 0.0

    def validate(self, name="input"):
        _as_complex(self.xi, f"{name}.xi")
        for attr in ("r", "theta", "n_ch"):
            value = getattr(self, attr)
            if not math.isfinite(float(value)):
                raise ValidationError(f"{name}.{attr} must be finite")
        if self.r < 0:
            raise ValidationError(f"{name}.r must be >= 0, got {self.r}")
        if self.n_ch < 0:
            raise ValidationError(f"{name}.n_ch must be >= 0, got {self.n_ch}")


VACUUM_INPUT = InputSpec()


@dataclass(frozen=True)
class GaussianState:
    """Gaussian field state in normally ordered noise parameterization.

    All arrays are frozen at construction.  ``D`` and ``Dbar`` carry the
    cross-mode moments on the off-diagonal and are zero on the diagonal;
    the diagonal information lives in ``B`` and ``C``.

    Leading axes stack states, one per point of a z-grid say: ``xi`` is
    then (Z, 6) and ``D`` (Z, 6, 6), and every method and statistic acts
    per state.  ``z`` is the propagation length (stacked like the
    states), or None for a state that was not propagated.
    """

    xi: np.ndarray      # (..., 6) complex
    B: np.ndarray       # (..., 6) real
    C: np.ndarray       # (..., 6) complex
    D: np.ndarray       # (..., 6, 6) complex, symmetric, zero diagonal
    Dbar: np.ndarray    # (..., 6, 6) complex, conjugate-symmetric, zero diagonal
    z: np.ndarray | float | None = None

    def __post_init__(self):
        xi = _frozen(self.xi, complex, np.shape(self.xi)[:-1] + (N_MODES,))
        batch = xi.shape[:-1]
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "B", _frozen(self.B, float, batch + (N_MODES,)))
        object.__setattr__(self, "C", _frozen(self.C, complex, batch + (N_MODES,)))
        object.__setattr__(self, "D", _frozen(self.D, complex, batch + (N_MODES, N_MODES)))
        object.__setattr__(self, "Dbar", _frozen(self.Dbar, complex, batch + (N_MODES, N_MODES)))
        if self.z is not None:
            object.__setattr__(self, "z", _frozen(self.z, float, batch))

    def normal_moment_matrix(self) -> np.ndarray:
        """The 6x6 matrix N with N[j,k] = <dA_j^+ dA_k> (Hermitian)."""
        n = -self.Dbar
        n[..., _DIAG, _DIAG] = self.B
        return n

    def pair_moment_matrix(self) -> np.ndarray:
        """The 6x6 matrix with entries <dA_j dA_k> (symmetric)."""
        m = self.D.copy()
        m[..., _DIAG, _DIAG] = self.C
        return m

    def antinormal_covariance(self) -> np.ndarray:
        """Antinormally ordered 12x12 covariance over the doubled basis.

        Positive semidefiniteness of this matrix is the physicality
        condition for the state.
        """
        n = self.normal_moment_matrix()
        m = self.pair_moment_matrix()
        return np.block([[n.swapaxes(-1, -2) + np.eye(N_MODES), m], [m.conj(), n]])

    def min_covariance_eigenvalue(self):
        gamma = self.antinormal_covariance()
        gamma = 0.5 * (gamma + gamma.swapaxes(-1, -2).conj())
        return np.linalg.eigvalsh(gamma)[..., 0]

    def mean_photon_numbers(self) -> np.ndarray:
        """<n_j> = B_j + |xi_j|^2 per mode."""
        return self.B + np.abs(self.xi) ** 2

    def check_physical(self, tol=1e-9):
        """Raise ValidationError if the state violates its invariants."""
        if np.any(self.B < -tol):
            raise ValidationError(f"negative noise variance B: {self.B}")
        if not np.allclose(self.D, self.D.swapaxes(-1, -2), atol=tol, rtol=0.0):
            raise ValidationError("D is not symmetric")
        if not np.allclose(self.Dbar, self.Dbar.swapaxes(-1, -2).conj(), atol=tol, rtol=0.0):
            raise ValidationError("Dbar is not conjugate-symmetric")
        scale = max(1.0, float(np.max(self.B)) if self.B.size else 1.0)
        if np.min(self.min_covariance_eigenvalue()) < -tol * scale:
            raise ValidationError("antinormal covariance is not positive semidefinite")


_DIAG = np.arange(N_MODES)


def noise_functions(n: np.ndarray, m: np.ndarray) -> tuple:
    """(B, C, D, Dbar) from the normal and pair moment matrices N and M."""
    d = m.copy()
    d[..., _DIAG, _DIAG] = 0j
    dbar = -n
    dbar[..., _DIAG, _DIAG] = 0j
    return np.real(n[..., _DIAG, _DIAG]), m[..., _DIAG, _DIAG], d, dbar


def _frozen(array, dtype, shape):
    out = np.array(array, dtype=dtype)
    if out.shape != shape:
        raise ValidationError(f"expected array of shape {shape}, got {out.shape}")
    out.setflags(write=False)
    return out


def build_input_state(inputs) -> GaussianState:
    """Assemble the six-mode Gaussian input state from per-mode specs.

    The input convention carries antinormally ordered noise; storage is
    normally ordered, so a coherent mode comes out with ``B = 0`` and a
    chaotic mode with ``B = n_ch``.  All cross-mode moments are zero:
    input modes are independent.
    """
    inputs = tuple(inputs)
    if len(inputs) != N_MODES:
        raise ValidationError(f"expected {N_MODES} input specs, got {len(inputs)}")
    xi = np.zeros(N_MODES, dtype=complex)
    b = np.zeros(N_MODES)
    c = np.zeros(N_MODES, dtype=complex)
    for j, spec in enumerate(inputs):
        spec.validate(MODE_NAMES[j])
        xi[j] = complex(spec.xi)
        b[j] = math.cosh(spec.r) ** 2 + spec.n_ch - 1.0
        c[j] = 0.5 * np.exp(1j * spec.theta) * math.sinh(2.0 * spec.r)
    state = GaussianState(
        xi=xi, B=b, C=c,
        D=np.zeros((N_MODES, N_MODES), dtype=complex),
        Dbar=np.zeros((N_MODES, N_MODES), dtype=complex),
    )
    state.check_physical()
    return state


def permute_state(state: GaussianState, perm=EXCHANGE_PERMUTATION) -> GaussianState:
    """Relabel modes of a state by an index permutation."""
    p = np.asarray(perm)
    return GaussianState(
        xi=state.xi[..., p], B=state.B[..., p], C=state.C[..., p],
        D=state.D[..., p[:, None], p], Dbar=state.Dbar[..., p[:, None], p], z=state.z,
    )


@dataclass(frozen=True)
class ModeSelection:
    """One or two distinct modes whose joint statistics are requested.

    Two-mode selections are stored in canonical index order regardless
    of how they were written.
    """

    modes: tuple

    def __post_init__(self):
        modes = tuple(ModeId(m) for m in self.modes)
        if len(modes) not in (1, 2):
            raise ValidationError("a mode selection holds one or two modes")
        if len(modes) == 2:
            if modes[0] == modes[1]:
                raise ValidationError("compound selection needs two distinct modes")
            modes = tuple(sorted(modes))
        object.__setattr__(self, "modes", modes)

    @property
    def name(self) -> str:
        return "".join(m.name for m in self.modes)

    @property
    def is_compound(self) -> bool:
        return len(self.modes) == 2

    def permuted(self, perm=EXCHANGE_PERMUTATION) -> "ModeSelection":
        return ModeSelection(tuple(ModeId(perm[m]) for m in self.modes))

    @classmethod
    def parse(cls, text: str) -> "ModeSelection":
        parts = [p.strip() for p in text.split(",")] if "," in text else None
        if parts is None:
            # compact form like "S1V1"
            s = text.strip()
            parts = [s[i:i + 2] for i in range(0, len(s), 2)]
        try:
            return cls(tuple(ModeId[p] for p in parts))
        except KeyError as exc:
            raise ValidationError(f"unknown mode name {exc.args[0]!r} in {text!r}")


QUANTITY_TAGS = ("moments", "variance", "squeeze", "quadratures", "pn")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation run.

    Numerical-stability limits: n_max <= 512 (jet differentiation of the
    generating function) and k_max <= 8 (reduced moments amplify the
    high-order derivatives); z_steps >= 2 so the grid reaches z_max.
    """

    params: CouplerParams
    inputs: tuple = (VACUUM_INPUT,) * N_MODES
    z_max: float = 1.0
    z_steps: int = 101
    observables: tuple = ()   # of (quantity tag, ModeSelection)
    n_max: int = 64
    k_max: int = 5

    def __post_init__(self):
        if len(self.inputs) != N_MODES:
            raise ValidationError(f"expected {N_MODES} inputs, got {len(self.inputs)}")
        if not (self.z_max > 0 and math.isfinite(self.z_max)):
            raise ValidationError(f"z_max must be positive and finite, got {self.z_max}")
        if int(self.z_steps) != self.z_steps or self.z_steps < 2:
            raise ValidationError(f"z_steps must be an integer >= 2, got {self.z_steps}")
        if not 1 <= self.n_max <= 512:
            raise ValidationError(f"n_max must be in [1, 512], got {self.n_max}")
        if not 1 <= self.k_max <= 8:
            raise ValidationError(f"k_max must be in [1, 8], got {self.k_max}")
        for tag, sel in self.observables:
            if tag not in QUANTITY_TAGS:
                raise ValidationError(f"unknown observable quantity {tag!r}")
            if not isinstance(sel, ModeSelection):
                raise ValidationError("observable selections must be ModeSelection")

    def z_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.z_max, int(self.z_steps))

    def effective_observables(self) -> tuple:
        """Requested observables, or the documented default of all six
        single modes with moments and squeeze columns."""
        if self.observables:
            return self.observables
        default = []
        for m in ModeId:
            default.append(("moments", ModeSelection((m,))))
        for m in ModeId:
            default.append(("squeeze", ModeSelection((m,))))
        return tuple(default)


# --------------------------------------------------------------------------
# Scenario document parsing.
#
# The format is a small INI-like text:
#
#   [params]
#   gS1 = 1
#   kappaS = -10
#   [inputs.S1]
#   xi = 2i
#   [run]
#   z_max = 5
#   z_steps = 500
#   [observables]
#   moments: S1,A1
#   squeeze: S1V1
#
# Complex values use the "a+bi" form.

def parse_complex(text: str, *, line=None, key=None) -> complex:
    s = text.strip()
    if not s or " " in s or any(ch in s for ch in "jJ()"):
        raise ScenarioParseError(f"malformed complex literal {text!r}", line=line, key=key)
    try:
        value = complex(s.replace("i", "j").replace("I", "j"))
    except ValueError:
        raise ScenarioParseError(f"malformed complex literal {text!r}", line=line, key=key)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ScenarioParseError(f"non-finite complex literal {text!r}", line=line, key=key)
    return value


def format_complex(value: complex) -> str:
    value = complex(value)
    if value.imag == 0.0:
        return repr(value.real)
    if value.real == 0.0:
        return f"{value.imag!r}i"
    sign = "+" if value.imag >= 0 else "-"
    return f"{value.real!r}{sign}{abs(value.imag)!r}i"


_PARAM_KEYS = _COUPLING_FIELDS + _MISMATCH_FIELDS
_INPUT_KEYS = ("xi", "r", "theta", "n_ch")
_RUN_KEYS = ("z_max", "z_steps", "n_max", "k_max")


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse a scenario document into a validated :class:`ScenarioConfig`.

    Unknown keys, malformed values, and a missing ``[params]`` section
    raise :class:`ScenarioParseError` with line/key context.
    """
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not (name in ("params", "run", "observables") or name.startswith("inputs.")):
                raise ScenarioParseError(f"unknown section [{name}]", line=lineno)
            if name in sections:
                raise ScenarioParseError(f"duplicate section [{name}]", line=lineno)
            current = sections.setdefault(name, [])
            continue
        if current is None:
            raise ScenarioParseError("content before any section header", line=lineno)
        current.append((lineno, line))

    if "params" not in sections:
        raise ScenarioParseError("missing [params] section")

    def split_kv(lineno, line, sep="="):
        if sep not in line:
            raise ScenarioParseError(f"expected 'key {sep} value'", line=lineno)
        key, _, value = line.partition(sep)
        return key.strip(), value.strip()

    param_kwargs = {}
    for lineno, line in sections["params"]:
        key, value = split_kv(lineno, line)
        if key not in _PARAM_KEYS:
            raise ScenarioParseError(f"unknown parameter key {key!r}", line=lineno, key=key)
        if key in param_kwargs:
            raise ScenarioParseError(f"duplicate key {key!r}", line=lineno, key=key)
        c = parse_complex(value, line=lineno, key=key)
        if key in _MISMATCH_FIELDS:
            if c.imag != 0.0:
                raise ScenarioParseError(f"mismatch {key} must be real", line=lineno, key=key)
            param_kwargs[key] = c.real
        else:
            param_kwargs[key] = c
    params = CouplerParams(**param_kwargs)

    inputs = [VACUUM_INPUT] * N_MODES
    for name, entries in sections.items():
        if not name.startswith("inputs."):
            continue
        mode_name = name.split(".", 1)[1]
        if mode_name not in MODE_NAMES:
            raise ScenarioParseError(f"unknown mode {mode_name!r} in [{name}]")
        kwargs = {}
        for lineno, line in entries:
            key, value = split_kv(lineno, line)
            if key not in _INPUT_KEYS:
                raise ScenarioParseError(f"unknown input key {key!r}", line=lineno, key=key)
            if key in kwargs:
                raise ScenarioParseError(f"duplicate key {key!r}", line=lineno, key=key)
            c = parse_complex(value, line=lineno, key=key)
            if key == "xi":
                kwargs[key] = c
            else:
                if c.imag != 0.0:
                    raise ScenarioParseError(f"{key} must be real", line=lineno, key=key)
                kwargs[key] = c.real
        inputs[ModeId[mode_name]] = InputSpec(**kwargs)

    run_kwargs = {}
    for lineno, line in sections.get("run", []):
        key, value = split_kv(lineno, line)
        if key not in _RUN_KEYS:
            raise ScenarioParseError(f"unknown run key {key!r}", line=lineno, key=key)
        if key in run_kwargs:
            raise ScenarioParseError(f"duplicate key {key!r}", line=lineno, key=key)
        c = parse_complex(value, line=lineno, key=key)
        if c.imag != 0.0:
            raise ScenarioParseError(f"{key} must be real", line=lineno, key=key)
        if key == "z_max":
            run_kwargs[key] = c.real
        else:
            if c.real != int(c.real):
                raise ScenarioParseError(f"{key} must be an integer", line=lineno, key=key)
            run_kwargs[key] = int(c.real)

    observables = []
    for lineno, line in sections.get("observables", []):
        if ":" not in line:
            raise ScenarioParseError("expected 'quantity: modes'", line=lineno)
        tag, _, modes = line.partition(":")
        tag = tag.strip()
        if tag not in QUANTITY_TAGS:
            raise ScenarioParseError(f"unknown observable quantity {tag!r}", line=lineno, key=tag)
        try:
            sel = ModeSelection.parse(modes)
        except ValidationError as exc:
            raise ScenarioParseError(str(exc), line=lineno, key=tag)
        observables.append((tag, sel))

    try:
        return ScenarioConfig(
            params=params,
            inputs=tuple(inputs),
            observables=tuple(observables),
            **run_kwargs,
        )
    except ValidationError:
        raise
    except TypeError as exc:
        raise ScenarioParseError(str(exc))


def serialize_scenario(cfg: ScenarioConfig) -> str:
    """Render a config back to document form; parse(serialize(c)) == c."""
    lines = ["[params]"]
    for key in _PARAM_KEYS:
        value = getattr(cfg.params, key)
        if value != 0:
            lines.append(f"{key} = {format_complex(value)}")
    for j, spec in enumerate(cfg.inputs):
        if spec == VACUUM_INPUT:
            continue
        lines.append(f"[inputs.{MODE_NAMES[j]}]")
        if spec.xi != 0:
            lines.append(f"xi = {format_complex(spec.xi)}")
        for key in ("r", "theta", "n_ch"):
            value = getattr(spec, key)
            if value != 0.0:
                lines.append(f"{key} = {value!r}")
    lines.append("[run]")
    lines.append(f"z_max = {cfg.z_max!r}")
    lines.append(f"z_steps = {cfg.z_steps}")
    lines.append(f"n_max = {cfg.n_max}")
    lines.append(f"k_max = {cfg.k_max}")
    if cfg.observables:
        lines.append("[observables]")
        for tag, sel in cfg.observables:
            lines.append(f"{tag}: {','.join(m.name for m in sel.modes)}")
    return "\n".join(lines) + "\n"
