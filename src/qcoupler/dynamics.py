"""Spatial dynamics: drift matrix, propagator, and state evolution.

The six mode operators A = (S1, A1, V1, S2, A2, V2) and their
conjugates are stacked into the 12-vector (A; A^+), the package's one
operator order.  The linear equations of motion read
dA/dz = i (K A + L A^+), so the drift matrix is M = [[K, L], [-L*, -K*]]
and the propagator exp(i M z).  Its annihilator rows [U V] define a
Bogoliubov transform,

    A_j(z) = sum_k U[j,k] A_k(0) + V[j,k] A_k^+(0),

which preserves the bosonic commutators: U U^H - V V^H = I and
U V^T - V U^T = 0.  ``build_drift_matrix`` is the one source of M, and
every solution route takes the couplings and a length, (params, z):
``propagator`` here, ``rk4_propagator`` as its 12x12 reference, and the
closed form and the short-length expansion in their own modules.

The pumped couplings join each Stokes mode only to the conjugates of
its phonon and of the other guide's Stokes mode, so over
x = (S1^+, A1, V1, S2^+, A2, V2) the equations close: x(z) = T(z) x(0)
with the 6x6 T = exp(i M_B z), M_B = M[_BLOCK][:, _BLOCK], and the
conjugates of x obey conj(T).  T is pseudo-unitary, T eta T^H = eta with
eta = diag(-1, 1, 1, -1, 1, 1), and is the whole solution, which a
:class:`BogoliubovTransform` holds: [U V] is T~, T with its two Stokes
rows conjugated, placed into known slots, and exact zeros elsewhere.

An array of lengths gives the transforms of a whole z-grid at once,
stacked along a leading axis, and ``evolve_state`` turns them into one
stacked :class:`~qcoupler.model.GaussianState`.  A scalar length has
no leading axes and takes the same route.

A grid is evolved with a few large arrays of (Z, 6, 6) planes, each
written in place: ``propagator`` writes T, which the transform takes
over, ``symplectic_check`` checks it in a workspace of six planes, and
``evolve_state`` reuses that memory for F = [U V] and G = F S^T and for
the N and M that the state takes over.  With a workspace of two or four
planes, a loop of 2000-point sweeps faulted about 5000 pages per pass.

Every product is a stack of small ones, one per head or per point.  A
single (Z*6, 12) @ (12, 12) GEMM is faster alone, but it is big enough
for OpenBLAS to start its thread pool, whose worker then spins between
calls on a core the rest of the sweep, and any other process, needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import NumericalError, ValidationError
from .model import (CouplerParams, GaussianState, N_MODES, _as_reals, _as_scalar, _first_flagged,
                    _frozen)

_DIM = 2 * N_MODES
# x = (S1^+, A1, V1, S2^+, A2, V2): the positions in (A; A^+) of six
# operators that the drift matrix couples only among themselves; the
# other six are their conjugates.  eta holds their commutators [x, x^+].
_BLOCK = np.array([6, 1, 2, 9, 4, 5])
_BLOCK_IX = np.ix_(_BLOCK, _BLOCK)
_ETA = np.array([-1.0, 1.0, 1.0, -1.0, 1.0, 1.0])
# where row j of [U V] holds T~[j, k]: in U where x_j and x_k are both
# annihilators or both creators, in V otherwise; (6, 2, 6), [U V] = T~ o _SLOTS
_SLOTS = np.stack([_ETA[:, None] == _ETA, _ETA[:, None] != _ETA], axis=1).astype(float)


def _rows(block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """[U V] = T~ o _SLOTS of the transforms T in ``block`` (..., 6, 6),
    written into ``out`` (..., 6, 12); T~ is T with its Stokes rows conjugated."""
    tilde = block.copy()
    np.conjugate(tilde[..., ::3, :], out=tilde[..., ::3, :])
    np.multiply(tilde[..., None, :], _SLOTS, out=out.reshape(block.shape[:-1] + (2, N_MODES)))
    return out


def build_drift_matrix(params: CouplerParams) -> np.ndarray:
    """The drift matrix M = [[K, L], [-L*, -K*]] over (A; A^+), a read-only
    12x12 array.

    In each guide (S, A, V), K[A, V] = gA and L[S, V] = L[V, S] = gS.
    Across the guides K[S1, S2] = kappaS* and K[A1, A2] = kappaA*; K is
    Hermitian, which realizes the guide-exchange symmetry.  Over
    (x; conj x) M is [[M_B, 0], [0, -conj(M_B)]]: the pumped couplings
    join the block's six operators only among themselves.
    """
    k = np.zeros((N_MODES, N_MODES), dtype=complex)
    l = np.zeros_like(k)
    for s, gs, ga in ((0, params.gS1, params.gA1), (3, params.gS2, params.gA2)):
        k[s + 1, s + 2] = ga
        l[s, s + 2] = l[s + 2, s] = gs
    k[0, 3], k[1, 4] = np.conj(params.kappaS), np.conj(params.kappaA)
    k += k.conj().T
    m = np.block([[k, l], [-l.conj(), -k.conj()]])
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class BogoliubovTransform:
    """The operator solution at length z: ``block`` is T, the (..., 6, 6)
    propagator of x = (S1^+, A1, V1, S2^+, A2, V2).  The annihilator rows
    ``rows`` = [U V] (..., 6, 12), U and V are derived from it, read-only.

    Leading axes stack transforms: over a z-grid, ``block`` is (Z, 6, 6)
    and z is the grid.  Both are frozen as a GaussianState's arrays are.
    """

    block: np.ndarray
    z: np.ndarray | float

    def __post_init__(self):
        block = _frozen(self.block, complex, np.shape(self.block)[:-2] + (N_MODES, N_MODES))
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "z", _frozen(self.z, float, block.shape[:-2]))

    @property
    def rows(self) -> np.ndarray:
        rows = _rows(self.block, np.empty(self.block.shape[:-1] + (_DIM,), dtype=complex))
        rows.setflags(write=False)
        return rows

    @property
    def U(self) -> np.ndarray:
        return self.rows[..., :N_MODES]

    @property
    def V(self) -> np.ndarray:
        return self.rows[..., N_MODES:]

    @classmethod
    def from_rows(cls, rows: np.ndarray, z) -> "BogoliubovTransform":
        """The transform with annihilator rows [U V] = ``rows`` (..., 6, 12); an
        entry off the closed block raises :class:`ValidationError` naming its z."""
        rows = _frozen(rows, complex, np.shape(rows)[:-2] + (N_MODES, _DIM))
        halves = rows.reshape(rows.shape[:-1] + (2, N_MODES))
        block = np.where(_SLOTS[:, 0] != 0.0, halves[..., 0, :], halves[..., 1, :])
        np.conjugate(block[..., ::3, :], out=block[..., ::3, :])
        t = cls(block, z)
        stray = np.any(np.where(_SLOTS, 0.0, halves) != 0.0, axis=(-3, -2, -1))
        if np.any(stray):
            raise ValidationError(f"transform rows have entries off the closed block"
                                  f"{_first_flagged(t.z, stray)[1]}")
        return t

    @classmethod
    def from_doubled(cls, mat: np.ndarray, z) -> "BogoliubovTransform":
        """The transform of a 12x12 propagator over (A; A^+): its annihilator rows."""
        mat = _frozen(mat, complex, np.shape(mat)[:-2] + (_DIM, _DIM))
        return cls.from_rows(mat[..., :N_MODES, :], z)

    def doubled(self) -> np.ndarray:
        """Rebuild the full 12x12 propagator; the creator rows [V* U*] are
        the conjugates of [U V] with their halves exchanged."""
        rows = self.rows
        return np.concatenate([rows, np.roll(rows.conj(), N_MODES, axis=-1)], axis=-2)


def _even_step(flat: np.ndarray) -> float | None:
    """The spacing of an evenly spaced grid (to a few ulps), else None."""
    if flat.size < 2:
        return None
    step = (flat[-1] - flat[0]) / (flat.size - 1)
    drift = np.max(np.abs(flat - (flat[0] + step * np.arange(flat.size))))
    return step if drift <= 8 * np.finfo(float).eps * np.max(np.abs(flat)) else None


# Pade-13 numerator coefficients and the 1-norm up to which degree 13
# needs no scaling (Higham, SIAM J. Matrix Anal. Appl. 26, 2005, table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of a stack (last two axes), by Pade-13
    scaling-and-squaring.

    Each matrix is scaled by 2^-s with the smallest s >= 0 that brings its
    1-norm to at most theta_13, so the squarings are masked per matrix and
    a stack mixing small and large norms stays as exact as its members
    taken one at a time.  A non-finite matrix gives a non-finite result.
    """
    norm = np.max(np.sum(np.abs(a), axis=-2), axis=-1)
    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13))
    s = np.where(np.isfinite(s), s, 0.0).astype(int)
    a = a * np.exp2(-s)[..., None, None]
    b, eye = _PADE13, np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    # (v - u)^-1 (v + u), written so that a zero matrix gives exactly I
    r = eye + 2.0 * np.linalg.solve(v - u, u)
    for k in range(int(s.max(initial=0))):
        sq = s > k
        part = r[sq]
        r[sq] = part @ part
    return r


def propagator(params: CouplerParams, z) -> BogoliubovTransform:
    """Bogoliubov transform of the coupler ``params`` after propagation
    over length z; an array of lengths (a z-grid) gives the transforms
    stacked over it.

    The one place where exp(i M z) is formed, always by the numpy Pade-13
    scaling-and-squaring of :func:`expm`, which stays accurate where M is
    defective.  Only the closed block of M = ``build_drift_matrix(params)``
    is exponentiated: T = exp(i M_B z) with M_B = M[_BLOCK][:, _BLOCK],
    the 6x6 generator over x = (S1^+, A1, V1, S2^+, A2, V2).  An evenly
    spaced grid of Z points is cut into blocks of B = ceil(sqrt(Z)): point
    qB + r is exp(i M_B z_qB) exp(i M_B r dz), so one :func:`expm` call
    over the ~sqrt(Z) heads and B steps and one 6x6 by 6x6B product per
    head cover the grid.  A scalar or an unevenly spaced array takes B = 1, one
    exponential per point.  The products are written into one read-only
    (Z, 6, 6) array of T, which the transform takes over without a copy.
    A length that is not a finite real, such as a complex, text or NaN
    entry or a ragged list, raises :class:`ValidationError` naming z; a
    non-finite transform raises :class:`NumericalError` naming the first
    failing z.
    """
    z = _as_reals(z, "z")
    flat = z.ravel()
    step = _even_step(flat)
    block = 1 if step is None else math.ceil(math.sqrt(flat.size))
    heads = flat[::block]
    lengths = np.concatenate([heads, (step or 0.0) * np.arange(block)])
    m_b = build_drift_matrix(params)[_BLOCK_IX]
    gen = 1j * m_b
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        exps = expm(gen * lengths[:, None, None])
        # each head times all steps side by side is one product
        steps = exps[heads.size:].transpose(1, 0, 2).reshape(N_MODES, -1)
        pairs = exps[:heads.size] @ steps
    # point qB + r, head q times step r, at [q, r]
    tt = pairs.reshape(heads.size, N_MODES, block, N_MODES).swapaxes(1, 2).copy()
    tt.setflags(write=False)  # the transform takes the views over without a copy
    tt = tt.reshape(-1, N_MODES, N_MODES)[:flat.size]
    if not np.isfinite(tt).all():
        _, at = _first_flagged(flat, ~np.all(np.isfinite(tt), axis=(-2, -1)))
        raise NumericalError(f"matrix exponential produced non-finite entries{at}; "
                             f"|M|={np.max(np.abs(m_b)):.3g}")
    return BogoliubovTransform(tt.reshape(z.shape + (N_MODES, N_MODES)), z)


def rk4_propagator(params: CouplerParams, z: float, h: float = 1e-4) -> BogoliubovTransform:
    """Fixed-step fourth-order integration of dE/dz = i M E from E(0) = I,
    with M = ``build_drift_matrix(params)``, on the full 12x12 system.

    Deliberately independent of the matrix-exponential route; used as a
    cross-check oracle.  Its 12x12 result goes through
    :meth:`BogoliubovTransform.from_doubled`, so a drift matrix that
    couples the closed block to anything else fails there.  The step is
    shrunk slightly if needed so the integration lands exactly on z.
    z and the step h must be finite reals, and h positive, else
    :class:`ValidationError`.
    """
    z = _as_scalar(z, "z")
    h = _as_scalar(h, "h")
    if h <= 0:
        raise ValidationError(f"h must be positive, got {h}")
    gen = 1j * build_drift_matrix(params)
    steps = max(1, int(np.ceil(abs(z) / h - 1e-12)))
    step = z / steps
    e = np.eye(_DIM, dtype=complex)
    for _ in range(steps):
        k1 = gen @ e
        k2 = gen @ (e + 0.5 * step * k1)
        k3 = gen @ (e + 0.5 * step * k2)
        k4 = gen @ (e + step * k3)
        e = e + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return BogoliubovTransform.from_doubled(e, z)


class SymplecticCheck(NamedTuple):
    """How far a transform, or a stack of them, keeps the Bogoliubov identities."""

    residual: float        # max-norm violation of T eta T^H = eta
    scaled: float          # the largest violation of one transform over max(1, max|U|^2)
    each: np.ndarray       # that scaled violation of each transform, shaped like the stack


def symplectic_check(t: BogoliubovTransform) -> SymplecticCheck:
    """The Bogoliubov identities over every transform of a stack, in one pass.

    [U V] vanishes off the closed block by construction, so U U^H - V V^H
    = I and U V^T = V U^T hold exactly when T eta T^H = eta, whose entries
    are theirs up to sign and conjugation; the violation is its largest.
    The identity cancels entries of size |U|^2 (|U| is |T| in U's slots),
    so roundoff alone leaves a violation of a few ulps of max(1, max|U|^2):
    ``scaled`` divides each transform's violation by that scale and stays
    at roundoff where the absolute ``residual`` grows with the gain.

    Of its workspace of six (..., 6, 6) planes, as many as ``evolve_state``
    makes next, the check uses two: K = conj(T) eta and T K^T - eta, then
    |T K^T - eta| and |T| in K's spent plane.
    """
    tt = t.block
    k, r = np.empty((6,) + tt.shape, dtype=complex)[:2]
    np.multiply(tt.real, _ETA, out=k.real)
    np.multiply(tt.imag, -_ETA, out=k.imag)
    np.matmul(tt, k.swapaxes(-1, -2), out=r)
    diagonal = r.reshape(r.shape[:-2] + (-1,))[..., ::N_MODES + 1]   # a writeable view
    np.subtract(diagonal, _ETA, out=diagonal)
    mag, size = k.reshape(-1).view(float).reshape((2,) + r.shape)
    violation = np.max(np.abs(r, out=mag), axis=(-2, -1))
    np.multiply(np.abs(tt, out=size), _SLOTS[:, 0], out=size)
    scale = np.maximum(1.0, np.max(size, axis=(-2, -1)) ** 2)
    each = violation / scale
    return SymplecticCheck(residual=float(np.max(violation, initial=0.0)),
                           scaled=float(np.max(each, initial=0.0)), each=each)


def evolve_state(t: BogoliubovTransform, s0: GaussianState) -> GaussianState:
    """Propagate a Gaussian state through a Bogoliubov transform.

    With F = [U V], A(z) = F (A; A^+): the means are F (xi; xi*), and
    M = <dA dA>, N = <dA^+ dA> are F S F^T and conj(F J) S F^T, with
    S = [[M0, N0^T + I], [N0, M0*]] the input moments of (dA; dA^+)
    (cross-mode ones allowed) and J the swap of its row blocks.  S is the
    input's antinormal covariance with its column halves exchanged.  A
    stack of transforms takes the one input state to a state stacked
    likewise.

    Each product is a stack of one small product per transform.  F, built
    from T, and G = F S^T share one scratch array; the moments stay on
    the twelve-wide rows, since on the 6x6 block a Stokes mode's N comes
    out as C - 1 and cancels.  M = F G^T, and as N is Hermitian,
    N = conj(G J) F^T, with G J (G's halves exchanged) made in place
    through N's memory.  N and M go into one array of two (..., 6, 6)
    planes that the state keeps; G's spent plane serves for restoring the
    exact symmetries.
    """
    tt = t.block
    s_t = np.roll(s0.antinormal_covariance(), N_MODES, axis=-1).T
    nm = np.empty((2,) + tt.shape, dtype=complex)
    n1, m1 = nm
    f, g = np.empty((2,) + tt.shape[:-1] + (_DIM,), dtype=complex)
    np.matmul(_rows(tt, f), s_t, out=g)
    np.matmul(f, g.swapaxes(-1, -2), out=m1)
    # conj(G J): exchange G's halves through N's plane, conjugating
    np.copyto(n1, g[..., :N_MODES])
    np.conjugate(g[..., N_MODES:], out=g[..., :N_MODES])
    np.conjugate(n1, out=g[..., N_MODES:])
    np.matmul(g, f.swapaxes(-1, -2), out=n1)
    # exact symmetries hold up to roundoff; restore them from halves, whose sum stays finite
    h = g.reshape(-1)[:n1.size].reshape(n1.shape)
    np.multiply(n1, 0.5, out=h)
    np.conjugate(h.swapaxes(-1, -2), out=n1)
    n1 += h
    np.multiply(m1, 0.5, out=h)
    np.add(h, h.swapaxes(-1, -2), out=m1)
    xi = f @ np.concatenate([s0.xi, s0.xi.conj()])
    xi.setflags(write=False)
    nm.setflags(write=False)
    return GaussianState(xi, nm[0], nm[1], z=t.z)


def photon_number_balance(state: GaussianState):
    """The conserved combination sum_j (<n_Vj> + <n_Aj> - <n_Sj>), per state."""
    n = state.mean_photon_numbers()
    return n[..., 2] + n[..., 5] + n[..., 1] + n[..., 4] - n[..., 0] - n[..., 3]


def conservation_residual(trajectory: GaussianState) -> float:
    """Max drift of the photon-number balance along a trajectory, a state
    stacked over z as ``evolve_state`` returns it for a z-grid.  Raises
    :class:`NumericalError` naming the first z where the drift is not
    finite (a mode's photon number beyond the double range)."""
    balance = np.ravel(photon_number_balance(trajectory))
    if not balance.size:
        return 0.0
    drift = np.abs(balance - balance[0])
    bad = ~np.isfinite(drift)
    if np.any(bad):
        raise NumericalError(f"photon-number balance drift is not finite"
                             f"{_first_flagged(trajectory.z, bad)[1]}")
    return float(np.max(drift))
