"""Spatial dynamics: drift matrix, propagator, and state evolution.

The six mode operators A = (S1, A1, V1, S2, A2, V2) and their
conjugates are stacked into the 12-vector (A; A^+), the package's one
operator order.  The linear equations of motion read
dA/dz = i (K A + L A^+), so the drift matrix is M = [[K, L], [-L*, -K*]]
and the propagator exp(i M z).  Its annihilator rows [U V] define a
Bogoliubov transform,

    A_j(z) = sum_k U[j,k] A_k(0) + V[j,k] A_k^+(0),

which preserves the bosonic commutators: U U^H - V V^H = I and
U V^T - V U^T = 0.

The pumped couplings join each Stokes mode only to the conjugates of
its phonon and of the other guide's Stokes mode, so over
x = (S1^+, A1, V1, S2^+, A2, V2) the equations close: x(z) = T(z) x(0)
with the 6x6 T = exp(i M_B z), M_B = M[_BLOCK][:, _BLOCK], and the
conjugates of x obey conj(T).  T is pseudo-unitary, T eta T^H = eta with
eta = diag(-1, 1, 1, -1, 1, 1), and [U V] is T, its two Stokes rows
conjugated (T~), placed into known slots; the other half of [U V] is
exact zeros.

An array of lengths gives the transforms of a whole z-grid at once,
stacked along a leading axis, and ``evolve_state`` turns them into one
stacked :class:`~qcoupler.model.GaussianState`.  A scalar length has
no leading axes and takes the same route.

A grid is evolved with a few large arrays, each written in place and
taken over by the transform or the state without a copy:

* ``propagator`` multiplies each head of the grid's blocks of T by all
  its steps at once and writes each product into its point of the
  transform's one (Z, 6, 12) array of annihilator rows [U V]; U and V
  are views of it.
* ``symplectic_check`` checks T eta T^H = eta and the zeros off the
  block, and their violation scaled by the gain, with one workspace of
  four (Z, 6, 6) planes.
* ``evolve_state`` writes N and M into one array of two planes that the
  state keeps, with G = F S^T in a two-plane scratch array.

A sweep checks its transforms before it evolves the state, so the
state's arrays reuse the memory the check frees: at its largest a sweep
holds the transforms and four planes.

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
from .model import CouplerParams, GaussianState, N_MODES, _frozen

_DIM = 2 * N_MODES
# x = (S1^+, A1, V1, S2^+, A2, V2): the positions in (A; A^+) of six
# operators that the drift matrix couples only among themselves; the
# other six are their conjugates.  eta holds their commutators [x, x^+].
_BLOCK = np.array([6, 1, 2, 9, 4, 5])
_BLOCK_IX = np.ix_(_BLOCK, _BLOCK)
_PAIRED = np.concatenate([_BLOCK, (_BLOCK + N_MODES) % _DIM])   # x, then conj(x)
_CLOSED = np.ix_(_PAIRED, _PAIRED)
_ETA = np.array([-1.0, 1.0, 1.0, -1.0, 1.0, 1.0])
# where row j of [U V] holds T~[j, k]: in U where x_j and x_k are both
# annihilators or both creators, in V otherwise; (6, 2, 6), [U V] = T~ o _SLOTS
_SLOTS = np.stack([_ETA[:, None] == _ETA, _ETA[:, None] != _ETA], axis=1).astype(float)
_OFF_BLOCK = 1.0 - _SLOTS.reshape(N_MODES, _DIM)
# on the real view of T: (Re, Im) factors giving conj(T) eta
_CONJ_ETA = np.stack([_ETA, -_ETA], axis=-1).ravel()


@dataclass(frozen=True)
class EvolutionMatrix:
    """The 12x12 drift matrix M, read-only; ``propagator`` exponentiates its
    closed block M[_BLOCK][:, _BLOCK].  M must couple the block's six
    operators only among themselves and their conjugates likewise, as
    every coupler's does, so that the block determines the propagator."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen(self.matrix, complex, (_DIM, _DIM))
        # over (x; conj x): [[M_B, 0], [0, -conj(M_B)]]
        p = m[_CLOSED]
        if (p[:N_MODES, N_MODES:].any() or p[N_MODES:, :N_MODES].any()
                or (p[N_MODES:, N_MODES:] != -p[:N_MODES, :N_MODES].conj()).any()):
            raise ValidationError("a drift matrix must couple (S1^+, A1, V1, S2^+, A2, V2) "
                                  "only among themselves, and their conjugates likewise")
        object.__setattr__(self, "matrix", m)


def build_drift_matrix(params: CouplerParams) -> EvolutionMatrix:
    """The drift matrix M = [[K, L], [-L*, -K*]] over (A; A^+).

    In each guide (S, A, V), K[A, V] = gA and L[S, V] = L[V, S] = gS.
    Across the guides K[S1, S2] = kappaS* and K[A1, A2] = kappaA*; K is
    Hermitian, which realizes the guide-exchange symmetry.
    """
    k = np.zeros((N_MODES, N_MODES), dtype=complex)
    l = np.zeros_like(k)
    for s, gs, ga in ((0, params.gS1, params.gA1), (3, params.gS2, params.gA2)):
        k[s + 1, s + 2] = ga
        l[s, s + 2] = l[s + 2, s] = gs
    k[0, 3], k[1, 4] = np.conj(params.kappaS), np.conj(params.kappaA)
    k += k.conj().T
    return EvolutionMatrix(np.block([[k, l], [-l.conj(), -k.conj()]]))


@dataclass(frozen=True)
class BogoliubovTransform:
    """The operator solution at length z: ``rows`` = [U V], the (..., 6, 12)
    annihilator rows of the doubled propagator; U and V are views of it.

    Leading axes stack transforms: over a z-grid, ``rows`` is (Z, 6, 12)
    and z is the grid.  Both are frozen as a GaussianState's arrays are.
    """

    rows: np.ndarray
    z: np.ndarray | float

    def __post_init__(self):
        rows = _frozen(self.rows, complex, np.shape(self.rows)[:-2] + (N_MODES, _DIM))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "z", _frozen(self.z, float, rows.shape[:-2]))

    @property
    def U(self) -> np.ndarray:
        return self.rows[..., :N_MODES]

    @property
    def V(self) -> np.ndarray:
        return self.rows[..., N_MODES:]

    @classmethod
    def identity(cls) -> "BogoliubovTransform":
        return cls(np.eye(N_MODES, _DIM, dtype=complex), 0.0)

    @classmethod
    def from_doubled(cls, mat: np.ndarray, z: float) -> "BogoliubovTransform":
        """The transform of a 12x12 propagator over (A; A^+): its annihilator rows."""
        mat = np.asarray(mat, dtype=complex)
        if mat.shape[-2:] != (_DIM, _DIM):
            raise NumericalError(f"a doubled propagator must be {_DIM}x{_DIM} (or a stack of them)")
        return cls(mat[..., :N_MODES, :], z)

    def doubled(self) -> np.ndarray:
        """Rebuild the full 12x12 propagator; the creator rows [V* U*] are
        the conjugates of [U V] with their halves exchanged."""
        return np.concatenate([self.rows, np.roll(self.rows.conj(), N_MODES, axis=-1)], axis=-2)


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


def propagator(em: EvolutionMatrix, z) -> BogoliubovTransform:
    """Bogoliubov transform after propagation over length z; an array of
    lengths (a z-grid) gives the transforms stacked over it.

    The one place where exp(i M z) is formed, always by the numpy Pade-13
    scaling-and-squaring of :func:`expm`, which stays accurate where M is
    defective.  Only the closed block is exponentiated: T = exp(i M_B z)
    with M_B = M[_BLOCK][:, _BLOCK], the 6x6 generator over
    x = (S1^+, A1, V1, S2^+, A2, V2).  An evenly spaced grid of Z points
    is cut into blocks of B = ceil(sqrt(Z)): point qB + r is
    exp(i M_B z_qB) exp(i M_B r dz), so one :func:`expm` call over the
    ~sqrt(Z) heads and B steps and one 6x6 by 6x6B product per head cover
    the grid.  A scalar or an unevenly spaced array takes B = 1, one
    exponential per point.  Conjugating T's two Stokes rows gives T~,
    whose row j holds A_j(z)'s coefficients, and one masked product
    [U V] = [T~ o SAME, T~ o OTHER] puts each into its slot; the other
    half of [U V] is exact zeros.  A non-finite transform raises
    :class:`NumericalError` naming the first failing z.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise NumericalError(f"propagation length must be finite, got {z}")
    flat = z.ravel()
    step = _even_step(flat)
    block = 1 if step is None else math.ceil(math.sqrt(flat.size))
    heads = flat[::block]
    rows = np.empty((heads.size, block, N_MODES, _DIM), dtype=complex)
    lengths = np.concatenate([heads, (step or 0.0) * np.arange(block)])
    gen = 1j * em.matrix[_BLOCK_IX]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        exps = expm(gen * lengths[:, None, None])
        # each head times all steps side by side is one product
        steps = exps[heads.size:].transpose(1, 0, 2).reshape(N_MODES, -1)
        pairs = exps[:heads.size] @ steps
        stokes = pairs[:, ::3]     # the rows of S1^+ and S2^+
        np.conjugate(stokes, out=stokes)
        tilde = pairs.reshape(heads.size, N_MODES, block, 1, N_MODES).swapaxes(1, 2)
        np.multiply(tilde, _SLOTS, out=rows.reshape(heads.size, block, N_MODES, 2, N_MODES))
    rows.setflags(write=False)  # the transform takes the views over without a copy
    rows = rows.reshape(-1, N_MODES, _DIM)[:flat.size]
    if not np.isfinite(rows).all():
        finite = np.all(np.isfinite(rows), axis=(-2, -1))
        raise NumericalError(
            f"matrix exponential produced non-finite entries at z={flat[np.argmin(finite)]}; "
            f"|M|={np.max(np.abs(em.matrix)):.3g}"
        )
    return BogoliubovTransform(rows.reshape(z.shape + (N_MODES, _DIM)), z)


def rk4_propagator(em: EvolutionMatrix, z: float, h: float = 1e-4) -> BogoliubovTransform:
    """Fixed-step fourth-order integration of dE/dz = i M E from E(0) = I.

    Deliberately independent of the matrix-exponential route; used as a
    cross-check oracle.  The step is shrunk slightly if needed so the
    integration lands exactly on z.
    """
    gen = 1j * em.matrix
    steps = max(1, int(np.ceil(abs(z) / h - 1e-12)))
    step = z / steps
    e = np.eye(_DIM, dtype=complex)
    for _ in range(steps):
        k1 = gen @ e
        k2 = gen @ (e + 0.5 * step * k1)
        k3 = gen @ (e + 0.5 * step * k2)
        k4 = gen @ (e + step * k3)
        e = e + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return BogoliubovTransform.from_doubled(e, float(z))


class SymplecticCheck(NamedTuple):
    """How far a transform, or a stack of them, keeps the Bogoliubov identities."""

    residual: float        # max-norm violation of T eta T^H = eta and of the zeros off the block
    scaled: float          # the largest violation of one transform over max(1, max|U|^2)
    each: np.ndarray       # that scaled violation of each transform, shaped like the stack


def symplectic_check(t: BogoliubovTransform) -> SymplecticCheck:
    """The Bogoliubov identities over every transform of a stack, in one pass.

    U U^H - V V^H = I and U V^T = V U^T hold for [U V] exactly when its
    entries off the closed block vanish and the block's T (T~ = U + V with
    its Stokes rows conjugated, see :func:`propagator`) keeps
    T eta T^H = eta, eta = diag(-1, 1, 1, -1, 1, 1): the entries of that
    identity are those of the two, up to sign and conjugation.  The
    violation is the larger of its largest entry and the largest entry
    off the block.

    The identity cancels entries of size |U|^2, so roundoff alone leaves
    a violation of a few ulps of max(1, max|U|^2): ``scaled`` divides each
    transform's violation by that scale and stays at roundoff where the
    absolute ``residual`` grows with the gain.

    One workspace of four (..., 6, 6) planes holds T, then K = conj(T) eta
    and T K^T - eta, with |[U V]| in the fourth plane and |T K^T - eta|
    in T's spent one; ``evolve_state`` reuses its memory.
    """
    f, u, v = t.rows, t.U, t.V
    work = np.empty((4,) + f.shape[:-2] + (N_MODES, N_MODES), dtype=complex)
    tt, k, r = work[:3]
    np.add(u, v, out=tt)   # T~: their supports are disjoint
    stokes = tt[..., ::3, :]   # T: the rows of S1^+ and S2^+ conjugated back
    np.conjugate(stokes, out=stokes)
    np.multiply(tt.view(float), _CONJ_ETA, out=k.view(float))
    np.matmul(tt, k.swapaxes(-1, -2), out=r)
    diagonal = r.reshape(r.shape[:-2] + (-1,))[..., ::N_MODES + 1]   # a writeable view
    np.subtract(diagonal, _ETA, out=diagonal)
    mag = np.abs(r, out=tt.reshape(-1).view(float)[:r.size].reshape(r.shape))
    violation = np.max(mag, axis=(-2, -1))
    size = np.abs(f, out=work[3].view(float).reshape(f.shape))
    scale = np.maximum(1.0, np.max(size[..., :N_MODES], axis=(-2, -1)) ** 2)
    size *= _OFF_BLOCK
    if size.max(initial=0.0) != 0.0:   # entries off the block are exact zeros, or violations
        violation = np.maximum(violation, np.max(size, axis=(-2, -1)))
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

    Each product is a stack of one small product per transform: G = F S^T
    and M = F G^T.  Since N is Hermitian, N = conj(G J) F^T, and G J is G
    with its halves exchanged, done in place through N's memory before N
    is written.  N and M are written into one array of two (..., 6, 6)
    planes that the state keeps; G's array is freed on return, after
    serving as the scratch for restoring the exact symmetries.
    """
    f = t.rows
    s_t = np.roll(s0.antinormal_covariance(), N_MODES, axis=-1).T
    nm = np.empty((2,) + f.shape[:-2] + (N_MODES, N_MODES), dtype=complex)
    n1, m1 = nm
    g = np.matmul(f, s_t, out=np.empty_like(f))
    np.matmul(f, g.swapaxes(-1, -2), out=m1)
    # conj(G J): exchange G's halves through N's plane, conjugating
    np.copyto(n1, g[..., :N_MODES])
    np.conjugate(g[..., N_MODES:], out=g[..., :N_MODES])
    np.conjugate(n1, out=g[..., N_MODES:])
    np.matmul(g, f.swapaxes(-1, -2), out=n1)
    # exact symmetries hold up to roundoff; restore them, with G's memory as scratch
    h = g.reshape(-1)[:n1.size].reshape(n1.shape)
    np.add(n1, np.conjugate(n1.swapaxes(-1, -2), out=h), out=h)
    np.multiply(h, 0.5, out=n1)
    np.add(m1, m1.swapaxes(-1, -2), out=h)
    np.multiply(h, 0.5, out=m1)
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
    stacked over z as ``evolve_state`` returns it for a z-grid."""
    balance = np.ravel(photon_number_balance(trajectory))
    return float(np.max(np.abs(balance - balance[0]))) if balance.size else 0.0
