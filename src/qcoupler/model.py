"""Domain model of the pumped two-guide nonlinear coupler.

Six modes live on a fixed canonical axis: Stokes, anti-Stokes and
vibration (phonon) modes of guide 1, followed by the same triple for
guide 2.  The pump lasers are classical and already folded into the
effective nonlinear couplings, so they never appear as modes here.

Field states are the Gaussian family "coherent signal plus quantum
noise", stored as coherent amplitudes ``xi`` and the normally ordered
moment matrices

    N[j,k] = <dA_j^+ dA_k>          (Hermitian)
    M[j,k] = <dA_j dA_k>            (symmetric)

with ``dA = A - <A>``.  The noise functions of the paper are their
entries, read off on demand:

    B_j    = N[j,j]                 (real, >= 0)
    C_j    = M[j,j]
    D_jk   = M[j,k]                 (j != k)
    Dbar_jk = -N[j,k]               (j != k)

Inputs are specified in the squeezed-plus-noise form and converted to
normal ordering at construction.  Every value object checks and
normalises its own fields when it is made and raises ValidationError
otherwise, so a parameter set, input spec or scenario that exists is valid.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ScenarioParseError, ValidationError

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


def _as_int(value, name, low, high=None):
    """``value`` as an int in [low, high], without an upper end for None."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or n < low or high is not None and n > high:
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValidationError(f"{name} must be an integer {bounds}, got {value!r}")
    return n


def _as_scalar(value, name, kind=float):
    """``value`` as a finite ``kind``, float or complex."""
    try:
        if kind is float and isinstance(value, np.complexfloating):
            raise TypeError  # float() would drop its imaginary part with a warning
        x = kind(value)
    except (TypeError, ValueError):
        what = "real" if kind is float else "complex"
        raise ValidationError(f"{name} is not a {what} scalar: {value!r}") from None
    if not (math.isfinite(x.real) and math.isfinite(x.imag)):
        raise ValidationError(f"{name} must be finite, got {x}")
    return x


def _as_reals(value, name) -> np.ndarray:
    """``value`` as a float array of finite reals, of any shape.

    A real numeric array keeps its values exactly.  Text, objects and
    complex numbers are read entry by entry as :func:`_as_scalar` reads a
    real scalar, so a complex entry is rejected even with a zero
    imaginary part, and so are ragged nesting and non-finite entries."""
    try:
        x = np.asarray(value)
    except ValueError:  # ragged nesting
        raise ValidationError(f"{name} is not a real array: {value!r}") from None
    if x.dtype.kind not in "biuf":
        entry = f"{name} entry" if x.ndim else name
        return np.array([_as_scalar(v, entry) for v in x.ravel().tolist()],
                        dtype=float).reshape(x.shape)
    x = x.astype(float, copy=False)
    if not np.isfinite(x).all():
        i = int(np.argmax(~np.isfinite(x)))
        at = f" at flat index {i}" if x.ndim else ""
        raise ValidationError(f"{name} must be finite, got {x.ravel()[i]}{at}")
    return x


_COUPLING_FIELDS = ("gS1", "gA1", "gS2", "gA2", "kappaS", "kappaA")


@dataclass(frozen=True)
class CouplerParams:
    """Effective couplings of the two-guide system, in units of 1/length.

    ``gS*``/``gA*`` are the Stokes/anti-Stokes nonlinear couplings with
    the classical pump amplitude already absorbed; ``kappaS``/``kappaA``
    are the evanescent couplings between like radiation modes of the two
    guides.  The coupler is phase-matched: these six couplings are the
    whole parameter set, each checked and stored as a finite complex.
    """

    gS1: complex = 0j
    gA1: complex = 0j
    gS2: complex = 0j
    gA2: complex = 0j
    kappaS: complex = 0j
    kappaA: complex = 0j

    def __post_init__(self):
        for name in _COUPLING_FIELDS:
            object.__setattr__(self, name, _as_scalar(getattr(self, name), name, complex))

    def swapped(self) -> "CouplerParams":
        """Parameters of the guide-exchanged coupler (kappas conjugated)."""
        return replace(
            self,
            gS1=self.gS2, gA1=self.gA2, gS2=self.gS1, gA2=self.gA1,
            kappaS=self.kappaS.conjugate(), kappaA=self.kappaA.conjugate(),
        )


def _input_noise(r: float, theta: float, n_ch: float):
    """B = sinh^2 r + n_ch and C = (1/2) e^(i theta) sinh 2r of an input."""
    return math.sinh(r) ** 2 + n_ch, 0.5 * np.exp(1j * theta) * math.sinh(2.0 * r)


@dataclass(frozen=True)
class InputSpec:
    """Input state of one mode: squeezed coherent light plus chaotic noise.

    ``xi`` is the coherent amplitude, ``r``/``theta`` the squeeze
    parameter and phase, ``n_ch`` the mean number of chaotic quanta.
    A plain coherent state is ``r = 0, n_ch = 0``; a chaotic (thermal)
    phonon mode is ``xi = 0, r = 0, n_ch > 0``.  The fields are checked
    and stored as a complex and floats: r, n_ch >= 0, and B = sinh^2 r
    + n_ch, |C| = sinh(2r)/2 and |xi|^2 finite doubles.
    """

    xi: complex = 0j
    r: float = 0.0
    theta: float = 0.0
    n_ch: float = 0.0

    def __post_init__(self):
        xi = _as_scalar(self.xi, "xi", complex)
        r, theta, n_ch = (_as_scalar(getattr(self, name), name) for name in ("r", "theta", "n_ch"))
        for name, value in (("r", r), ("n_ch", n_ch)):
            if value < 0:
                raise ValidationError(f"{name} must be >= 0, got {value}")
        try:  # sinh and ** raise OverflowError beyond the double range, a sum gives inf
            finite = math.isfinite(_input_noise(r, theta, n_ch)[0]) and abs(xi) ** 2 < math.inf
        except OverflowError:
            finite = False
        if not finite:
            raise ValidationError(f"xi={xi}, r={r}, n_ch={n_ch} give a moment B = sinh^2 r "
                                  "+ n_ch, |C| = sinh(2r)/2 or |xi|^2 beyond the double range")
        for name, value in (("xi", xi), ("r", r), ("theta", theta), ("n_ch", n_ch)):
            object.__setattr__(self, name, value)


VACUUM_INPUT = InputSpec()

# absolute slack of GaussianState.check_physical, relative to max(1, max B)
# for the covariance eigenvalue
_PHYSICAL_TOL = 1e-9


@dataclass(frozen=True)
class GaussianState:
    """Gaussian field state: means ``xi`` and the normally ordered moment
    matrices ``N`` (Hermitian) and ``M`` (symmetric).

    All arrays are frozen at construction.  The noise functions ``B``,
    ``C``, ``D`` and ``Dbar`` are read-only arrays read off N and M: the
    diagonals of N (real part) and M, and the off-diagonals of M and -N.

    Leading axes stack states, one per point of a z-grid say: ``xi`` is
    then (Z, 6) and ``N`` (Z, 6, 6), and every method and statistic acts
    per state.  ``z`` is the propagation length (stacked like the
    states), or None for a state that was not propagated.
    """

    xi: np.ndarray      # (..., 6) complex
    N: np.ndarray       # (..., 6, 6) complex, Hermitian: <dA_j^+ dA_k>
    M: np.ndarray       # (..., 6, 6) complex, symmetric: <dA_j dA_k>
    z: np.ndarray | float | None = None

    def __post_init__(self):
        xi = _frozen(self.xi, complex, np.shape(self.xi)[:-1] + (N_MODES,))
        batch = xi.shape[:-1]
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "N", _frozen(self.N, complex, batch + (N_MODES, N_MODES)))
        object.__setattr__(self, "M", _frozen(self.M, complex, batch + (N_MODES, N_MODES)))
        if self.z is not None:
            object.__setattr__(self, "z", _frozen(self.z, float, batch))

    @property
    def B(self) -> np.ndarray:
        """B_j = <dA_j^+ dA_j>, the real diagonal of N."""
        return self.N.diagonal(axis1=-2, axis2=-1).real

    @property
    def C(self) -> np.ndarray:
        """C_j = <(dA_j)^2>, the diagonal of M."""
        return self.M.diagonal(axis1=-2, axis2=-1)

    @property
    def D(self) -> np.ndarray:
        """D_jk = <dA_j dA_k> for j != k: M with its diagonal zeroed."""
        return _zero_diagonal(self.M.copy())

    @property
    def Dbar(self) -> np.ndarray:
        """Dbar_jk = -<dA_j^+ dA_k> for j != k: -N with its diagonal zeroed."""
        return _zero_diagonal(-self.N)

    def antinormal_covariance(self) -> np.ndarray:
        """Antinormally ordered 12x12 covariance over the doubled basis.

        Positive semidefiniteness of this matrix is the physicality
        condition for the state.
        """
        gamma = _doubled_covariance(self.N, self.M)
        gamma[..., :N_MODES, :N_MODES] += np.eye(N_MODES)
        return gamma

    def min_covariance_eigenvalue(self):
        """The smallest eigenvalue of the antinormal covariance per state,
        taken of the covariance over max(1, max B): near B = 1e308 its own
        eigenvalues overflow."""
        scale = np.maximum(1.0, np.max(self.B, axis=-1))[..., None, None]
        gamma = self.antinormal_covariance() / scale
        gamma = 0.5 * (gamma + gamma.swapaxes(-1, -2).conj())
        return np.linalg.eigvalsh(gamma)[..., 0] * scale[..., 0, 0]

    def mean_photon_numbers(self) -> np.ndarray:
        """<n_j> = B_j + |xi_j|^2 per mode."""
        return self.B + np.abs(self.xi) ** 2

    def check_physical(self):
        """Raise ValidationError if the state violates its invariants, to
        within ``_PHYSICAL_TOL``."""
        b = self.B
        if np.any(b < -_PHYSICAL_TOL):
            raise ValidationError(f"negative noise variance B: {b}")
        if not np.allclose(self.N, self.N.swapaxes(-1, -2).conj(), atol=_PHYSICAL_TOL, rtol=0.0):
            raise ValidationError("N is not Hermitian")
        if not np.allclose(self.M, self.M.swapaxes(-1, -2), atol=_PHYSICAL_TOL, rtol=0.0):
            raise ValidationError("M is not symmetric")
        scale = float(np.max(b, initial=1.0))
        if np.min(self.min_covariance_eigenvalue(), initial=0.0) < -_PHYSICAL_TOL * scale:
            raise ValidationError("antinormal covariance is not positive semidefinite")


_DIAG = np.arange(N_MODES)


def _doubled_covariance(n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The normally ordered doubled covariance Gamma = [[n^T, m], [m*, n]]
    of moment blocks n and m (or stacks of them), as a fresh array."""
    return np.concatenate([np.concatenate([n.swapaxes(-1, -2), m], axis=-1),
                           np.concatenate([m.conj(), n], axis=-1)], axis=-2)


def _zero_diagonal(a: np.ndarray) -> np.ndarray:
    """Zero the diagonals of a fresh stack of 6x6 matrices and freeze it."""
    a[..., _DIAG, _DIAG] = 0j
    a.setflags(write=False)
    return a


def _frozen(array, dtype, shape):
    """``array`` as a read-only array of ``dtype``.  A read-only array whose
    memory no writeable array holds is taken as it is; anything else is
    copied, so that later writes to the caller's array cannot reach it."""
    base = getattr(array, "base", None)
    if (isinstance(array, np.ndarray) and array.dtype == dtype and not array.flags.writeable
            and (base is None or isinstance(base, np.ndarray) and not base.flags.writeable)):
        out = array
    else:
        out = np.array(array, dtype=dtype)
    if out.shape != shape:
        raise ValidationError(f"expected array of shape {shape}, got {out.shape}")
    out.setflags(write=False)
    return out


def _first_flagged(z, bad) -> tuple:
    """(i, text): the flat index i of the first flagged entry of the stack
    ``bad``, and ' at z=...' for it from ``z``, stacked alike, or '' for None."""
    i = int(np.argmax(np.ravel(bad)))
    return i, "" if z is None else f" at z={float(np.ravel(z)[i])}"


def _as_tuple(items, what) -> tuple:
    """The iterable ``items`` as a tuple; ``what`` names it in the error."""
    try:
        return tuple(items)
    except TypeError:
        raise ValidationError(f"{what} must be an iterable, got {items!r}") from None


def _checked_inputs(inputs) -> tuple:
    """``inputs`` as a tuple of one InputSpec per mode, else ValidationError."""
    inputs = _as_tuple(inputs, "inputs")
    if len(inputs) != N_MODES:
        raise ValidationError(f"expected {N_MODES} input specs, got {len(inputs)}")
    for name, spec in zip(MODE_NAMES, inputs):
        if not isinstance(spec, InputSpec):
            raise ValidationError(f"{name} input must be an InputSpec, got {spec!r}")
    return inputs


def build_input_state(inputs) -> GaussianState:
    """Assemble the six-mode Gaussian input state from per-mode specs.

    The input convention carries antinormally ordered noise; storage is
    normally ordered, so a coherent mode comes out with ``B = 0`` and a
    chaotic mode with ``B = n_ch``.  Input modes are independent, so N
    and M are diagonal.
    """
    specs = _checked_inputs(inputs)
    b, c = zip(*(_input_noise(spec.r, spec.theta, spec.n_ch) for spec in specs))
    state = GaussianState(xi=[spec.xi for spec in specs], N=np.diag(b), M=np.diag(c))
    state.check_physical()
    return state


def _as_mode(entry) -> ModeId:
    try:
        return ModeId(entry)
    except (ValueError, TypeError):
        raise ValidationError(f"mode {entry!r} is not a ModeId") from None


@dataclass(frozen=True)
class ModeSelection:
    """One or two distinct modes whose joint statistics are requested.

    ``modes`` is a sequence of ``ModeId`` members or their indices; a bare
    string is rejected (``parse`` reads mode names).  Two-mode selections
    are stored in canonical index order regardless of how they were
    written.
    """

    modes: tuple

    def __post_init__(self):
        if isinstance(self.modes, str):
            raise ValidationError(f"a mode selection is a sequence of modes, not the string "
                                  f"{self.modes!r}; ModeSelection.parse reads names")
        modes = tuple(map(_as_mode, _as_tuple(self.modes, "a mode selection")))
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

    def permuted(self) -> "ModeSelection":
        """The selection of the same modes in the other guide."""
        return ModeSelection(tuple(ModeId(EXCHANGE_PERMUTATION[m]) for m in self.modes))

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


def _check_orders(k_max, n_max) -> tuple:
    """(k_max, n_max) as ints; ValidationError unless k_max is an integer in
    [1, 8] and n_max one in [1, 512], the limits documented on ScenarioConfig."""
    return _as_int(k_max, "k_max", 1, 8), _as_int(n_max, "n_max", 1, 512)


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
        if not isinstance(self.params, CouplerParams):
            raise ValidationError(f"params must be a CouplerParams, got {self.params!r}")
        object.__setattr__(self, "inputs", _checked_inputs(self.inputs))
        z_max = _as_scalar(self.z_max, "z_max")
        if not z_max > 0:
            raise ValidationError(f"z_max must be positive and finite, got {z_max}")
        object.__setattr__(self, "z_max", z_max)
        object.__setattr__(self, "z_steps", _as_int(self.z_steps, "z_steps", 2))
        k_max, n_max = _check_orders(self.k_max, self.n_max)
        object.__setattr__(self, "k_max", k_max)
        object.__setattr__(self, "n_max", n_max)
        observables = _as_tuple(self.observables, "observables")
        for i, entry in enumerate(observables):
            if not (isinstance(entry, tuple) and len(entry) == 2):
                raise ValidationError(f"an observable is a (quantity tag, ModeSelection) "
                                      f"pair, got {entry!r}")
            tag, sel = entry
            if tag not in QUANTITY_TAGS:
                raise ValidationError(f"unknown observable quantity {tag!r}")
            if not isinstance(sel, ModeSelection):
                raise ValidationError("observable selections must be ModeSelection")
            if entry in observables[:i]:
                raise ValidationError(f"observable {tag}: {sel.name} is requested twice")
        object.__setattr__(self, "observables", observables)

    def z_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.z_max, self.z_steps)

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
# _KEY_TYPES is the one table of the keys of [params], [inputs.X] and
# [run] and their value types; _read_keys and serialize_scenario read it.
# Every value is an "a+bi" complex literal: a real key must have no
# imaginary part, an integer key an integral value.

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


_KEY_TYPES = {
    "parameter": dict.fromkeys(_COUPLING_FIELDS, complex),
    "input": {"xi": complex, "r": float, "theta": float, "n_ch": float},
    "run": {"z_max": float, "z_steps": int, "n_max": int, "k_max": int},
}


def _read_keys(entries, what) -> dict:
    """Keyword arguments from a section's (line number, text) entries,
    each key checked and converted against ``_KEY_TYPES[what]``."""
    types = _KEY_TYPES[what]
    kwargs = {}
    for lineno, line in entries:
        if "=" not in line:
            raise ScenarioParseError("expected 'key = value'", line=lineno)
        key, _, text = line.partition("=")
        key = key.strip()
        kind = types.get(key)
        if kind is None:
            raise ScenarioParseError(f"unknown {what} key {key!r}", line=lineno, key=key)
        if key in kwargs:
            raise ScenarioParseError(f"duplicate key {key!r}", line=lineno, key=key)
        value = parse_complex(text.strip(), line=lineno, key=key)
        if kind is not complex and value.imag != 0.0:
            raise ScenarioParseError(f"{key} must be real", line=lineno, key=key)
        if kind is int and value.real != int(value.real):
            raise ScenarioParseError(f"{key} must be an integer", line=lineno, key=key)
        kwargs[key] = value if kind is complex else kind(value.real)
    return kwargs


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse a scenario document into a validated :class:`ScenarioConfig`.

    Unknown keys, malformed values, and a missing ``[params]`` section
    raise :class:`ScenarioParseError` with line/key context, and an input
    spec that rejects its values with its ``[inputs.X]`` section.
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

    params = CouplerParams(**_read_keys(sections["params"], "parameter"))
    inputs = [VACUUM_INPUT] * N_MODES
    for name, entries in sections.items():
        if not name.startswith("inputs."):
            continue
        mode_name = name.split(".", 1)[1]
        if mode_name not in MODE_NAMES:
            raise ScenarioParseError(f"unknown mode {mode_name!r} in [{name}]")
        try:
            inputs[ModeId[mode_name]] = InputSpec(**_read_keys(entries, "input"))
        except ValidationError as exc:
            raise ScenarioParseError(f"{exc} in [{name}]") from None
    run = _read_keys(sections.get("run", []), "run")

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

    return ScenarioConfig(params=params, inputs=tuple(inputs),
                          observables=tuple(observables), **run)


def serialize_scenario(cfg: ScenarioConfig) -> str:
    """Render a config back to document form; parse(serialize(c)) == c."""
    sections = [("params", cfg.params, "parameter")]
    sections += [(f"inputs.{MODE_NAMES[j]}", spec, "input")
                 for j, spec in enumerate(cfg.inputs) if spec != VACUUM_INPUT]
    sections.append(("run", cfg, "run"))
    lines = []
    for header, obj, what in sections:
        lines.append(f"[{header}]")
        for key, kind in _KEY_TYPES[what].items():
            value = getattr(obj, key)
            if value == 0 and what != "run":  # zero is the default
                continue
            if kind is complex:
                value = format_complex(value)
            lines.append(f"{key} = {value}")
    if cfg.observables:
        lines.append("[observables]")
        for tag, sel in cfg.observables:
            lines.append(f"{tag}: {','.join(m.name for m in sel.modes)}")
    return "\n".join(lines) + "\n"
