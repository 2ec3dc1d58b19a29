"""Brute-force truncated Fock-space evolution of small subsystems.

Ground truth for the Gaussian pipeline: the interaction Hamiltonian of a
dynamically closed subset of modes acts on a truncated occupation basis,
and states are advanced by its exact exponential action.  Only subsystems
that the couplings do not leak out of are supported; thermal phonons
enter as a classical mixture over Fock inputs.

Everything is numpy.  A state vector is viewed with one axis per mode,
and H is held as a few terms, each a coefficient times one ladder step
on each of two modes; a term acts on the whole view as one sliced
product.  exp(izH) acts on the whole ensemble at once, as a
(members, dimension) array, through a Taylor series scaled by H's exact
1-norm.  The statistics read <a_j>, <a_j^+ a_k> and <a_j a_k> through
one-step terms.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    NumericalError,
    TruncationError,
    TruncationWarning,
    ValidationError,
)
from .model import CouplerParams, InputSpec, ModeId, ModeSelection

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

# Each coupling's term of H as its two ladder steps (mode, raises).
_TERMS = {
    "gS1": ((ModeId.V1, True), (ModeId.S1, True)),
    "gA1": ((ModeId.V1, False), (ModeId.A1, True)),
    "gS2": ((ModeId.V2, True), (ModeId.S2, True)),
    "gA2": ((ModeId.V2, False), (ModeId.A2, True)),
    "kappaS": ((ModeId.S1, False), (ModeId.S2, True)),
    "kappaA": ((ModeId.A1, False), (ModeId.A2, True)),
}


@dataclass(frozen=True)
class FockConfig:
    """A closed mode subset, per-mode cutoffs, and the active couplings."""

    modes: tuple
    cutoffs: tuple
    params: CouplerParams

    def __post_init__(self):
        modes = tuple(sorted(ModeId(m) for m in self.modes))
        object.__setattr__(self, "modes", modes)
        if modes not in CLOSED_SUBSYSTEMS:
            raise ValidationError(
                f"unsupported subsystem {tuple(m.name for m in modes)}; "
                f"supported: {[tuple(m.name for m in s) for s in CLOSED_SUBSYSTEMS]}"
            )
        try:
            cutoffs = tuple(operator.index(c) for c in self.cutoffs)
        except TypeError:
            raise ValidationError(f"cutoffs must be integers, got {self.cutoffs!r}") from None
        if len(cutoffs) != len(modes):
            raise ValidationError("one cutoff per mode required")
        if any(c < 1 or c > MAX_CUTOFF for c in cutoffs):
            raise ValidationError(f"cutoffs must be in [1, {MAX_CUTOFF}]")
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
        mode = ModeId(mode)
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
            terms.append((g.conjugate(), tuple((mode, not raises) for mode, raises in steps)))
    return tuple(terms)


def _apply(cfg: FockConfig, terms, v: np.ndarray) -> np.ndarray:
    """The sum of ``terms`` applied along the last axis of ``v``.

    The last axis is viewed with one axis per mode, so a step on a mode
    moves its occupation by one, with factor sqrt(n) for the larger
    occupation n; a step off either end of an axis is dropped.  Each term
    is then one sliced product.
    """
    dims = cfg.dims
    up, down = slice(1, None), slice(None, -1)
    w = v.reshape(v.shape[:-1] + dims)
    out = np.zeros(w.shape, dtype=complex)
    for g, steps in terms:
        dst = [slice(None)] * len(dims)
        src = list(dst)
        amp = g
        for mode, raises in steps:
            pos = cfg.mode_index(mode)
            shape = [1] * len(dims)
            shape[pos] = dims[pos] - 1
            amp = amp * np.sqrt(np.arange(1.0, dims[pos])).reshape(shape)
            dst[pos], src[pos] = (up, down) if raises else (down, up)
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
    """Oracle input: exactly n quanta in one mode."""

    n: int


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


def _coherent_amplitudes(xi: complex, dim: int) -> np.ndarray:
    if xi == 0:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        return amps
    n = np.arange(dim)
    log_fact = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, dim))]))
    return np.exp(-0.5 * abs(xi) ** 2) * np.power(complex(xi), n) * np.exp(-0.5 * log_fact)


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


def evolve_fock(cfg: FockConfig, inputs, z: float) -> FockEnsemble:
    """Evolve the subsystem over length z.

    ``inputs`` maps each subsystem mode to an :class:`InputSpec` or a
    :class:`FockLevel`; coherent amplitudes seed truncated coherent
    vectors and phonon ``n_ch`` seeds a classical mixture over Fock
    levels.  Squeezed inputs are not supported here.

    Accuracy envelope: with cutoffs <= 12 keep |xi| <= 1 and
    z * max|coupling| <= 1, otherwise probability piles up at the
    truncation boundary.  Raises :class:`TruncationError` when the
    weighted occupation mass at any cutoff boundary exceeds 1e-4;
    results with boundary mass beyond 1e-6 should already be treated
    with suspicion.
    """
    if isinstance(inputs, dict):
        for m in cfg.modes:
            if m not in inputs:
                raise ValidationError(f"no input given for subsystem mode {m.name}")
        specs = [inputs[m] for m in cfg.modes]
    else:
        specs = list(inputs)
        if len(specs) != len(cfg.modes):
            raise ValidationError(
                f"expected one input per subsystem mode "
                f"({', '.join(m.name for m in cfg.modes)}), got {len(specs)}")
    for i, (m, spec) in enumerate(zip(cfg.modes, specs)):
        if not isinstance(spec, (InputSpec, FockLevel)):
            raise ValidationError(
                f"{m.name} input must be an InputSpec or a FockLevel, got {spec!r}")
        if isinstance(spec, FockLevel):
            try:
                specs[i] = FockLevel(operator.index(spec.n))
            except TypeError:
                raise ValidationError(
                    f"{m.name} Fock level must be an integer, got {spec.n!r}") from None
            continue
        spec = specs[i] = spec.validate(m.name)
        if spec.r != 0.0:
            raise ValidationError("squeezed inputs are outside the oracle's scope")
        if spec.n_ch != 0.0 and m not in (ModeId.V1, ModeId.V2):
            raise ValidationError("chaotic input is only supported on phonon modes")

    dims = cfg.dims
    # per-mode factor lists: [(weight, vector), ...]
    factors = []
    for spec, d in zip(specs, dims):
        if isinstance(spec, FockLevel):
            if not 0 <= spec.n < d:
                raise ValidationError(f"Fock level {spec.n} outside cutoff {d - 1}")
            vec = np.zeros(d, dtype=complex)
            vec[spec.n] = 1.0
            factors.append([(1.0, vec)])
        elif spec.n_ch > 0.0:
            if spec.xi != 0:
                # would need a mixture of displaced Fock states; no
                # cross-method check requires it
                raise ValidationError(
                    "simultaneous coherent and chaotic phonon input is not "
                    "supported by the oracle"
                )
            weights = _thermal_weights(spec.n_ch, d)
            members = []
            for level, w in enumerate(weights):
                vec = np.zeros(d, dtype=complex)
                vec[level] = 1.0
                members.append((float(w), vec))
            factors.append(members)
        else:
            factors.append([(1.0, _coherent_amplitudes(complex(spec.xi), d))])

    occupations = np.indices(dims).reshape(len(dims), -1)
    boundary = np.any(occupations == np.array(dims)[:, None] - 1, axis=0)

    stack = [(1.0, np.array([1.0 + 0j]))]
    for members in factors:
        stack = [(w1 * w2, np.kron(v1, v2)) for w1, v1 in stack for w2, v2 in members]
    weights = np.array([w for w, _ in stack])
    start = np.array([v for _, v in stack])
    vectors = _exp_action(cfg, build_hamiltonian(cfg), float(z), start)
    drift = float(np.max(np.abs(np.linalg.norm(vectors, axis=1) - np.linalg.norm(start, axis=1))))
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
        return _apply(cfg, [(1.0, ((mode, False),))], v)

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
