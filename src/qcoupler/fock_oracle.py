"""Brute-force truncated Fock-space evolution of small subsystems.

Ground truth for the Gaussian pipeline: the interaction Hamiltonian of a
dynamically closed subset of modes acts on a truncated occupation basis,
and states are advanced by its exact exponential action.  Only subsystems
that the couplings do not leak out of are supported.  Every input starts
as Fock members (the levels of its chaotic mixture, or the vacuum alone),
which its own squeeze and displacement generators then move.

Everything is numpy.  A state vector is viewed with one axis per mode,
and an operator is held as a few terms, each a coefficient times ladder
steps of one or two quanta on distinct modes; a term acts on the whole
view as one sliced product.  exp(izH) acts on the whole ensemble at
once, as a (members, dimension) array, through a Taylor series scaled by
H's exact 1-norm.  The statistics read <a_j>, <a_j^+ a_k> and <a_j a_k>
through one-step terms.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    NumericalError,
    TruncationError,
    TruncationWarning,
    ValidationError,
)
from .model import (CouplerParams, InputSpec, ModeId, ModeSelection, _as_int, _as_mode,
                    _as_scalar, _as_tuple)

MAX_DIMENSION = 200_000
MAX_CUTOFF = 16
_THERMAL_TAIL_MASS = 1e-8
_LEAK_ALARM = 1e-6
_LEAK_LIMIT = 1e-4
_FACTORIAL_ORDERS = 4
# exp(izH): steps of |zH/s|_1 <= 4, at most 30 Taylor terms each
_STEP_NORM = 4.0
_TAYLOR_TERMS = 30
_EPS = 2.0**-53

# Subsystems that are closed under some subset of the couplings; every
# cross-method check in this package uses one of these.
CLOSED_SUBSYSTEMS = (
    (ModeId.S1, ModeId.V1),
    (ModeId.A1, ModeId.V1),
    (ModeId.S1, ModeId.A1, ModeId.V1),
    (ModeId.S1, ModeId.V1, ModeId.S2, ModeId.V2),
    (ModeId.A1, ModeId.V1, ModeId.A2, ModeId.V2),
)

# Each coupling's term of H as its two ladder steps (mode, shift): shift
# +1 raises the mode's occupation by one, -1 lowers it.
_TERMS = {
    "gS1": ((ModeId.V1, 1), (ModeId.S1, 1)),
    "gA1": ((ModeId.V1, -1), (ModeId.A1, 1)),
    "gS2": ((ModeId.V2, 1), (ModeId.S2, 1)),
    "gA2": ((ModeId.V2, -1), (ModeId.A2, 1)),
    "kappaS": ((ModeId.S1, -1), (ModeId.S2, 1)),
    "kappaA": ((ModeId.A1, -1), (ModeId.A2, 1)),
}


@dataclass(frozen=True)
class FockConfig:
    """A closed mode subset, per-mode cutoffs, and the active couplings."""

    modes: tuple
    cutoffs: tuple
    params: CouplerParams

    def __post_init__(self):
        if not isinstance(self.params, CouplerParams):
            raise ValidationError(f"params must be a CouplerParams, got {self.params!r}")
        modes = tuple(sorted(map(_as_mode, _as_tuple(self.modes, "modes"))))
        object.__setattr__(self, "modes", modes)
        if modes not in CLOSED_SUBSYSTEMS:
            raise ValidationError(
                f"unsupported subsystem {tuple(m.name for m in modes)}; "
                f"supported: {[tuple(m.name for m in s) for s in CLOSED_SUBSYSTEMS]}"
            )
        cutoffs = tuple(_as_int(c, "a cutoff", 1, MAX_CUTOFF)
                        for c in _as_tuple(self.cutoffs, "cutoffs"))
        if len(cutoffs) != len(modes):
            raise ValidationError("one cutoff per mode required")
        object.__setattr__(self, "cutoffs", cutoffs)
        if self.dimension > MAX_DIMENSION:
            raise ValidationError(
                f"Hilbert dimension {self.dimension} exceeds {MAX_DIMENSION}"
            )
        for name, steps in _TERMS.items():
            if getattr(self.params, name) != 0 and any(m not in modes for m, _ in steps):
                raise ValidationError(
                    f"coupling {name} references modes outside the subsystem"
                )

    @property
    def dims(self) -> tuple:
        return tuple(c + 1 for c in self.cutoffs)

    @property
    def dimension(self) -> int:
        out = 1
        for d in self.dims:
            out *= d
        return out

    def mode_index(self, mode) -> int:
        mode = _as_mode(mode)
        if mode not in self.modes:
            raise ValidationError(f"mode {mode.name} is outside the subsystem "
                                  f"{tuple(m.name for m in self.modes)}")
        return self.modes.index(mode)


def build_hamiltonian(cfg: FockConfig) -> tuple:
    """Interaction Hamiltonian of the subsystem (Hermitian), as its terms.

    Terms: gS a_V^+ a_S^+, gA a_V a_A^+, kappaS a_S1 a_S2^+,
    kappaA a_A1 a_A2^+, plus Hermitian conjugates.  Free-propagation
    terms vanish in the interaction picture at zero mismatch.  Each
    nonzero coupling gives a ``(coefficient, steps)`` term, followed by
    its conjugate: the coefficient conjugated and every step reversed.
    """
    terms = []
    for name, steps in _TERMS.items():
        g = complex(getattr(cfg.params, name))
        if g != 0:
            terms.append((g, steps))
            terms.append((g.conjugate(), tuple((mode, -shift) for mode, shift in steps)))
    return tuple(terms)


def _apply(cfg: FockConfig, terms, v: np.ndarray) -> np.ndarray:
    """The sum of ``terms`` applied along the last axis of ``v``.

    The last axis is viewed with one axis per mode, so a step on a mode
    moves its occupation by k = |shift|, with factor sqrt((m+1)...(m+k))
    for the smaller occupation m; a step off either end of an axis is
    dropped.  Each term is then one sliced product.
    """
    dims = cfg.dims
    w = v.reshape(v.shape[:-1] + dims)
    out = np.zeros(w.shape, dtype=complex)
    for g, steps in terms:
        dst = [slice(None)] * len(dims)
        src = list(dst)
        amp = g
        for mode, shift in steps:
            pos = cfg.mode_index(mode)
            k = abs(shift)
            smaller = np.arange(dims[pos] - k, dtype=float)
            shape = [1] * len(dims)
            shape[pos] = smaller.size
            amp = amp * np.sqrt(math.prod(smaller + i for i in range(1, k + 1))).reshape(shape)
            up, down = slice(k, None), slice(None, -k)
            dst[pos], src[pos] = (up, down) if shift > 0 else (down, up)
        out[(..., *dst)] += amp * w[(..., *src)]
    return out.reshape(v.shape)


def _norm1(cfg: FockConfig, terms) -> float:
    """H's exact 1-norm.  No two terms meet in one entry and the ladder
    factors are nonnegative, so |H| applied to ones gives its row sums,
    which equal its column sums because H is Hermitian."""
    sums = _apply(cfg, [(abs(g), steps) for g, steps in terms], np.ones(cfg.dimension))
    return float(np.max(sums.real))


def _exp_action(cfg: FockConfig, terms, z: float, vectors: np.ndarray) -> np.ndarray:
    """exp(izH) applied to each row of ``vectors``, a (members, dimension) array.

    A Taylor series with scaling: s = ceil(|z| |H|_1 / 4) steps of z/s,
    so each step's |zH/s|_1 <= 4 and 30 terms leave a remainder below
    4^31 / 31! < 1e-15.  A step stops early once two consecutive terms
    are below the unit roundoff of its input.
    """
    steps = math.ceil(abs(z) * _norm1(cfg, terms) / _STEP_NORM)
    out = vectors
    for _ in range(steps):
        tol = _EPS * np.max(np.abs(out))
        term, out = out, out.copy()
        previous = np.inf
        for k in range(1, _TAYLOR_TERMS + 1):
            term = (1j * z / (steps * k)) * _apply(cfg, terms, term)
            out += term
            size = np.max(np.abs(term))
            if size + previous <= tol:
                break
            previous = size
    return out


@dataclass(frozen=True)
class FockLevel:
    """Oracle input: exactly n quanta in one mode, n checked as an int >= 0."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _as_int(self.n, "a Fock level", 0))


@dataclass(frozen=True)
class FockEnsemble:
    """Weighted mixture of pure states over the truncated basis."""

    cfg: FockConfig
    weights: np.ndarray       # (members,)
    vectors: np.ndarray       # (members, dimension)
    leak: float               # weighted boundary occupation mass

    def expectation(self, left: np.ndarray, right: np.ndarray) -> complex:
        """Weighted sum over the members of <left|right>, for (members,
        dimension) arrays such as operators applied to ``vectors``."""
        return complex(self.weights @ np.sum(left.conj() * right, axis=-1))


def _thermal_weights(n_mean: float, dim: int):
    """Geometric occupation weights truncated at tail mass 1e-8 and
    renormalized."""
    if n_mean == 0.0:
        return np.array([1.0])
    q = n_mean / (1.0 + n_mean)
    levels = np.arange(dim)
    w = (1.0 - q) * q**levels
    keep = int(np.searchsorted(np.cumsum(w), 1.0 - _THERMAL_TAIL_MASS) + 1)
    keep = min(max(keep, 1), dim)
    w = w[:keep]
    return w / w.sum()


def _generator(mode, k: int, c: complex) -> list:
    """The terms of H = -i c a^+k + i c* a^k on one mode, whose exp(iH)
    displaces by c (k = 1) or squeezes by zeta = 2c (k = 2)."""
    return [(-1j * c, ((mode, k),)), (1j * c.conjugate(), ((mode, -k),))] if c != 0 else []


def evolve_fock(cfg: FockConfig, inputs, z: float) -> FockEnsemble:
    """Evolve the subsystem over length z.

    ``inputs`` holds one :class:`InputSpec` or :class:`FockLevel` per
    subsystem mode, in the order of ``cfg.modes``.  Each input is a set
    of Fock members, the level of a FockLevel or the levels of an
    InputSpec's ``n_ch`` chaotic mixture (the vacuum alone for
    ``n_ch = 0``), which is then squeezed and displaced by the exact action of its generators: S with
    H = -(i/2) zeta a^+2 + (i/2) zeta* a^2, zeta = r e^(i theta), then D
    with H = -i xi a^+ + i xi* a, each as exp(iH).  A mode with both
    r > 0 and n_ch > 0 is rejected: the package adds chaotic noise to
    squeezed light (B = sinh^2 r + n_ch), while a squeezed chaotic
    mixture has B = n_ch cosh 2r + sinh^2 r.

    Accuracy envelope: with cutoffs <= 12 keep |xi| <= 1 and
    z * max|coupling| <= 1, otherwise probability piles up at the
    truncation boundary.  Raises :class:`TruncationError` when the
    weighted occupation mass at any cutoff boundary exceeds 1e-4;
    results with boundary mass beyond 1e-6 should already be treated
    with suspicion.
    """
    z = _as_scalar(z, "z")
    specs = _as_tuple(inputs, "inputs")
    if len(specs) != len(cfg.modes):
        raise ValidationError(
            f"expected one input per subsystem mode "
            f"({', '.join(m.name for m in cfg.modes)}), got {len(specs)}")
    dims = cfg.dims
    # the members' weights and basis indices, the first mode slowest
    weights, index = np.ones(1), np.zeros(1, dtype=int)
    squeeze, displace = [], []
    for m, spec, d in zip(cfg.modes, specs, dims):
        if isinstance(spec, FockLevel):
            if spec.n >= d:
                raise ValidationError(f"Fock level {spec.n} outside cutoff {d - 1}")
            w, levels = np.ones(1), np.array([spec.n])
        elif isinstance(spec, InputSpec):
            if spec.r != 0.0 and spec.n_ch != 0.0:
                raise ValidationError(
                    f"{m.name} is both squeezed and chaotic; the oracle prepares one or the other")
            w = _thermal_weights(spec.n_ch, d)
            levels = np.arange(len(w))
            squeeze += _generator(m, 2, 0.5 * spec.r * cmath.exp(1j * spec.theta))
            displace += _generator(m, 1, spec.xi)
        else:
            raise ValidationError(
                f"{m.name} input must be an InputSpec or a FockLevel, got {spec!r}")
        weights = np.outer(weights, w).ravel()
        index = np.add.outer(index * d, levels).ravel()

    occupations = np.indices(dims).reshape(len(dims), -1)
    boundary = np.any(occupations == np.array(dims)[:, None] - 1, axis=0)

    vectors = np.zeros((len(index), cfg.dimension), dtype=complex)
    vectors[np.arange(len(index)), index] = 1.0
    # the generators of different modes commute: all squeezes act at once,
    # then all displacements
    for terms in (squeeze, displace):
        vectors = _exp_action(cfg, terms, 1.0, vectors)
    vectors = _exp_action(cfg, build_hamiltonian(cfg), z, vectors)
    drift = float(np.max(np.abs(np.linalg.norm(vectors, axis=1) - 1.0)))
    if drift > 1e-10:
        raise NumericalError(f"norm drift {drift:.3e} in exponential action")
    total_leak = float(weights @ np.sum(np.abs(vectors[:, boundary]) ** 2, axis=1))
    if total_leak > _LEAK_LIMIT:
        raise TruncationError(
            f"boundary occupation mass {total_leak:.3e} exceeds {_LEAK_LIMIT}; "
            "raise the cutoffs"
        )
    if total_leak > _LEAK_ALARM:
        warnings.warn(
            f"boundary occupation mass {total_leak:.3e} above {_LEAK_ALARM}",
            TruncationWarning, stacklevel=2,
        )
    return FockEnsemble(cfg=cfg, weights=weights, vectors=vectors, leak=total_leak)


@dataclass(frozen=True)
class FockStats:
    """Exact statistics extracted from a truncated ensemble."""

    p_n: np.ndarray
    mean_w: float
    factorial_moments: np.ndarray   # <W(W-1)...(W-k+1)> for k = 1..4
    lam: float
    var_p: float
    var_q: float


def fock_statistics(ensemble: FockEnsemble, sel) -> FockStats:
    """Photon distribution, factorial moments and squeeze variance for a
    selection of subsystem modes."""
    cfg = ensemble.cfg
    sel = sel if isinstance(sel, ModeSelection) else ModeSelection(sel)
    positions = [cfg.mode_index(m) for m in sel.modes]
    occupations = np.indices(cfg.dims).reshape(len(cfg.dims), -1)
    total = occupations[positions].sum(axis=0)
    n_max = int(total.max())
    p_n = np.zeros(n_max + 1)
    for w, vec in zip(ensemble.weights, ensemble.vectors):
        p_n += w * np.bincount(total, weights=np.abs(vec) ** 2, minlength=n_max + 1)

    levels = np.arange(n_max + 1, dtype=float)
    mean_w = float(np.dot(p_n, levels))
    moments = np.empty(_FACTORIAL_ORDERS)
    falling = np.ones_like(levels)
    for k in range(1, _FACTORIAL_ORDERS + 1):
        falling = falling * (levels - (k - 1))
        moments[k - 1] = float(np.dot(p_n, falling))

    # the quadrature variances from sums over the selected pairs: the
    # symmetric noise S = sum Re(<a_j^+ a_k> - m_j* m_k) and the pair term
    # P = sum (<a_j a_k> - m_j m_k), with vacuum level the number of modes;
    # a_j a_k chains two lowerings, as j = k is among the pairs
    def lower(mode, v):
        return _apply(cfg, [(1.0, ((mode, -1),))], v)

    v = ensemble.vectors
    av = {m: lower(m, v) for m in sel.modes}
    mean = {m: ensemble.expectation(v, av[m]) for m in sel.modes}
    pairs = list(itertools.product(sel.modes, repeat=2))
    s = sum(float(np.real(ensemble.expectation(av[j], av[k]) - np.conj(mean[j]) * mean[k]))
            for j, k in pairs)
    pair = sum(ensemble.expectation(v, lower(j, av[k])) - mean[j] * mean[k] for j, k in pairs)
    vac = float(len(sel.modes))
    lam = vac + 2.0 * (s - abs(pair))
    var_p = vac + 2.0 * s + 2.0 * float(np.real(pair))
    var_q = vac + 2.0 * s - 2.0 * float(np.real(pair))
    return FockStats(
        p_n=p_n,
        mean_w=mean_w,
        factorial_moments=moments,
        lam=float(lam),
        var_p=var_p,
        var_q=var_q,
    )
