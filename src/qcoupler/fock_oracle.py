"""Brute-force truncated Fock-space evolution of small subsystems.

Ground truth for the Gaussian pipeline: the interaction Hamiltonian of a
dynamically closed subset of modes acts on a truncated occupation basis,
and states are advanced by its exact exponential action.  Only subsystems
that the couplings do not leak out of are supported; thermal phonons
enter as a classical mixture over Fock inputs.

Everything is numpy.  In the lexicographic basis a ladder operator, and
any product of them, moves each basis state by one fixed offset, so an
operator is a few shifts (:class:`FockOperator`) and H v is a few sliced
products.  exp(izH) acts on the whole ensemble at once, as a
(members, dimension) array, through a Taylor series scaled by H's exact
1-norm.  The statistics read <a>, <a^+ a>, <a a>, <a_j a_k> and
<a_j^+ a_k> through the same shifts.
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
from .model import CouplerParams, ModeId, ModeSelection

MAX_DIMENSION = 200_000
MAX_CUTOFF = 16
_THERMAL_TAIL_MASS = 1e-8
_LEAK_ALARM = 1e-6
_LEAK_LIMIT = 1e-4
_DENSE_LIMIT = 4096
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

# Couplings and the pair of modes each one ties together.
_COUPLING_MODES = {
    "gS1": (ModeId.S1, ModeId.V1),
    "gA1": (ModeId.A1, ModeId.V1),
    "gS2": (ModeId.S2, ModeId.V2),
    "gA2": (ModeId.A2, ModeId.V2),
    "kappaS": (ModeId.S1, ModeId.S2),
    "kappaA": (ModeId.A1, ModeId.A2),
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
        for name, (ma, mb) in _COUPLING_MODES.items():
            if getattr(self.params, name) != 0 and not (ma in modes and mb in modes):
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


class FockOperator:
    """An operator on the truncated occupation basis, as a sum of shifts.

    A ladder operator, or a product of them, takes each basis state to
    the state a fixed offset away (the basis is lexicographic, so one
    quantum in a mode is a fixed stride), times an amplitude that depends
    on the occupations.  The operator is held as ``{offset: amp}``, where
    ``amp[src]`` is the amplitude from basis state ``src`` to
    ``src + offset`` and is zero wherever that step leaves the basis or
    crosses a cutoff.  ``op @ v`` applies it along the last axis of
    ``v``, ``op @ other`` composes, ``op.H`` is the adjoint and
    ``toarray()`` is the dense matrix of a small operator.
    """

    def __init__(self, dimension: int, shifts=None):
        self.dimension = int(dimension)
        self.shifts = dict(shifts or {})

    def __add__(self, other: FockOperator) -> FockOperator:
        out = dict(self.shifts)
        for offset, amp in other.shifts.items():
            out[offset] = out[offset] + amp if offset in out else amp
        return FockOperator(self.dimension, out)

    def __rmul__(self, scalar) -> FockOperator:
        return FockOperator(self.dimension,
                            {offset: scalar * amp for offset, amp in self.shifts.items()})

    def __matmul__(self, other):
        if isinstance(other, FockOperator):
            product = FockOperator(self.dimension)
            for off_a, amp_a in self.shifts.items():
                for off_b, amp_b in other.shifts.items():
                    product += FockOperator(self.dimension,
                                            {off_a + off_b: _taken(amp_a, off_b) * amp_b})
            return product
        v = np.asarray(other)
        out = np.zeros(v.shape, dtype=complex)
        for offset, amp in self.shifts.items():
            dst, src = _shift_slices(offset, self.dimension)
            out[..., dst] += amp[src] * v[..., src]
        return out

    @property
    def H(self) -> FockOperator:
        """The adjoint: amplitude conj(amp[src]) from src + offset back to src."""
        return FockOperator(self.dimension, {-offset: np.conj(_taken(amp, -offset))
                                             for offset, amp in self.shifts.items()})

    def norm1(self) -> float:
        """The exact 1-norm, the largest column sum of |entries|: the
        shifts of one operator have distinct offsets, so no two of them
        meet in one entry."""
        column = np.zeros(self.dimension)
        for amp in self.shifts.values():
            column += np.abs(amp)
        return float(np.max(column, initial=0.0))

    def toarray(self) -> np.ndarray:
        """The dense (dimension, dimension) matrix, for small dimensions."""
        if self.dimension > _DENSE_LIMIT:
            raise ValidationError(
                f"dense view of dimension {self.dimension} exceeds {_DENSE_LIMIT}")
        out = np.zeros((self.dimension, self.dimension), dtype=complex)
        src = np.arange(self.dimension)
        for offset, amp in self.shifts.items():
            keep = amp != 0
            out[src[keep] + offset, src[keep]] += amp[keep]
        return out


def _shift_slices(offset: int, dim: int) -> tuple:
    """(dst, src) slices of the basis indices with dst = src + offset."""
    if offset >= 0:
        return slice(min(offset, dim), dim), slice(0, max(dim - offset, 0))
    return slice(0, max(dim + offset, 0)), slice(min(-offset, dim), dim)


def _taken(amp: np.ndarray, offset: int) -> np.ndarray:
    """``out[i] = amp[i + offset]``, zero where i + offset leaves the basis."""
    out = np.zeros_like(amp)
    dst, src = _shift_slices(-offset, len(amp))
    out[dst] = amp[src]
    return out


def _annihilator(cfg: FockConfig, position: int) -> FockOperator:
    """Ladder operator for the mode at the given position.

    Basis ordering is lexicographic in the canonical mode order, so a
    mode with local dimension d acts with stride prod(dims[position+1:]).
    """
    stride = int(np.prod(cfg.dims[position + 1:], dtype=np.int64))
    amp = np.sqrt(_occupation_table(cfg)[:, position]).astype(complex)
    return FockOperator(cfg.dimension, {-stride: amp})


def _occupation_table(cfg: FockConfig) -> np.ndarray:
    """Array of shape (dimension, n_modes) with the occupation of each
    basis state."""
    dims = cfg.dims
    idx = np.arange(cfg.dimension)
    table = np.empty((cfg.dimension, len(dims)), dtype=np.int64)
    for pos in range(len(dims) - 1, -1, -1):
        table[:, pos] = idx % dims[pos]
        idx //= dims[pos]
    return table


def build_hamiltonian(cfg: FockConfig) -> FockOperator:
    """Interaction Hamiltonian of the subsystem (Hermitian).

    Terms: gS a_V^+ a_S^+, gA a_V a_A^+, kappaS a_S1 a_S2^+,
    kappaA a_A1 a_A2^+, plus Hermitian conjugates.  Free-propagation
    terms vanish in the interaction picture at zero mismatch.
    """
    a = {m: _annihilator(cfg, cfg.mode_index(m)) for m in cfg.modes}
    half = FockOperator(cfg.dimension)
    p = cfg.params
    if p.gS1 != 0:
        half = half + p.gS1 * (a[ModeId.V1].H @ a[ModeId.S1].H)
    if p.gS2 != 0:
        half = half + p.gS2 * (a[ModeId.V2].H @ a[ModeId.S2].H)
    if p.gA1 != 0:
        half = half + p.gA1 * (a[ModeId.V1] @ a[ModeId.A1].H)
    if p.gA2 != 0:
        half = half + p.gA2 * (a[ModeId.V2] @ a[ModeId.A2].H)
    if p.kappaS != 0:
        half = half + p.kappaS * (a[ModeId.S1] @ a[ModeId.S2].H)
    if p.kappaA != 0:
        half = half + p.kappaA * (a[ModeId.A1] @ a[ModeId.A2].H)
    return half + half.H


def _exp_action(h: FockOperator, z: float, vectors: np.ndarray) -> np.ndarray:
    """exp(izH) applied to each row of ``vectors``, a (members, dimension) array.

    A Taylor series with scaling: s = ceil(|z| |H|_1 / 4) steps of z/s,
    so each step's |zH/s|_1 <= 4 and 30 terms leave a remainder below
    4^31 / 31! < 1e-15.  A step stops early once two consecutive terms
    are below the unit roundoff of its input.
    """
    steps = math.ceil(abs(z) * h.norm1() / _STEP_NORM)
    out = vectors
    for _ in range(steps):
        tol = _EPS * np.max(np.abs(out))
        term, out = out, out.copy()
        previous = np.inf
        for k in range(1, _TAYLOR_TERMS + 1):
            term = (1j * z / (steps * k)) * (h @ term)
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

    def expectation(self, op: FockOperator) -> complex:
        """Weighted sum of <v|op|v> over the members."""
        return complex(self.weights @ np.sum(self.vectors.conj() * (op @ self.vectors), axis=-1))


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

    ``inputs`` maps each subsystem mode to an :class:`InputSpec`-like
    object; coherent amplitudes seed truncated coherent vectors and
    phonon ``n_ch`` seeds a classical mixture over Fock levels.  Squeezed
    inputs are not supported here.

    Accuracy envelope: with cutoffs <= 12 keep |xi| <= 1 and
    z * max|coupling| <= 1, otherwise probability piles up at the
    truncation boundary.  Raises :class:`TruncationError` when the
    weighted occupation mass at any cutoff boundary exceeds 1e-4;
    results with boundary mass beyond 1e-6 should already be treated
    with suspicion.
    """
    specs = [inputs[m] if isinstance(inputs, dict) else inputs[i]
             for i, m in enumerate(cfg.modes)]
    for m, spec in zip(cfg.modes, specs):
        if isinstance(spec, FockLevel):
            continue
        if getattr(spec, "r", 0.0) != 0.0:
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

    occupations = _occupation_table(cfg)
    boundary = np.zeros(cfg.dimension, dtype=bool)
    for pos, d in enumerate(dims):
        boundary |= occupations[:, pos] == d - 1

    stack = [(1.0, np.array([1.0 + 0j]))]
    for members in factors:
        stack = [(w1 * w2, np.kron(v1, v2)) for w1, v1 in stack for w2, v2 in members]
    weights = np.array([w for w, _ in stack])
    start = np.array([v for _, v in stack])
    vectors = _exp_action(build_hamiltonian(cfg), float(z), start)
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
    factorial_moments: np.ndarray   # <W(W-1)...(W-k+1)> for k = 1..k_max
    lam: float
    var_p: float
    var_q: float


def fock_statistics(ensemble: FockEnsemble, sel, k_max: int = 4) -> FockStats:
    """Photon distribution, factorial moments and squeeze variance for a
    selection of subsystem modes."""
    cfg = ensemble.cfg
    sel = sel if isinstance(sel, ModeSelection) else ModeSelection(tuple(sel))
    positions = [cfg.mode_index(m) for m in sel.modes]
    occupations = _occupation_table(cfg)
    total = occupations[:, positions].sum(axis=1)
    n_max = int(total.max())
    p_n = np.zeros(n_max + 1)
    for w, vec in zip(ensemble.weights, ensemble.vectors):
        p_n += w * np.bincount(total, weights=np.abs(vec) ** 2, minlength=n_max + 1)

    levels = np.arange(n_max + 1, dtype=float)
    mean_w = float(np.dot(p_n, levels))
    moments = np.empty(k_max)
    falling = np.ones_like(levels)
    for k in range(1, k_max + 1):
        falling = falling * (levels - (k - 1))
        moments[k - 1] = float(np.dot(p_n, falling))

    # the quadrature variances from sums over the selected pairs: the
    # symmetric noise S = sum Re(<a_j^+ a_k> - m_j* m_k) and the pair term
    # P = sum (<a_j a_k> - m_j m_k), with vacuum level the number of modes
    a_ops = [_annihilator(cfg, pos) for pos in positions]
    pairs = list(itertools.product([(op, ensemble.expectation(op)) for op in a_ops], repeat=2))
    s = sum(float(np.real(ensemble.expectation(aj.H @ ak) - np.conj(mj) * mk))
            for (aj, mj), (ak, mk) in pairs)
    pair = sum(ensemble.expectation(aj @ ak) - mj * mk for (aj, mj), (ak, mk) in pairs)
    vac = float(len(a_ops))
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
