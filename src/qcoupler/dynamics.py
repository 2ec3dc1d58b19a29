"""Spatial dynamics: drift matrix, propagator, and state evolution.

The six mode operators and their conjugates are stacked into a 12-vector
in the interleaved order (S1, S1+, A1, A1+, V1, V1+, S2, ...).  The
linear equations of motion read dA/dz = i M A with a z-independent drift
matrix M, so the propagator is exp(i M z).  Its action on annihilation
operators defines the (U, V) pair of a Bogoliubov transform,

    A_j(z) = sum_k U[j,k] A_k(0) + V[j,k] A_k^+(0),

which preserves the bosonic commutators: U U^H - V V^H = I and
U V^T - V U^T = 0.

An array of lengths gives the transforms of a whole z-grid at once,
stacked along a leading axis, and ``evolve_state`` turns them into one
stacked :class:`~qcoupler.model.GaussianState`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import NumericalError
from .model import (
    GaussianState,
    N_MODES,
    ValidatedParams,
    noise_functions,
)

_DIM = 2 * N_MODES


def _guide_block(gs: complex, ga: complex) -> np.ndarray:
    """Intra-guide couplings over (S, S+, A, A+, V, V+)."""
    m = np.zeros((6, 6), dtype=complex)
    m[0, 5] = gs
    m[1, 4] = -np.conj(gs)
    m[2, 4] = ga
    m[3, 5] = -np.conj(ga)
    m[4, 1] = gs
    m[4, 2] = np.conj(ga)
    m[5, 0] = -np.conj(gs)
    m[5, 3] = -ga
    return m


def _cross_block(ks: complex, ka: complex) -> np.ndarray:
    """Evanescent guide-to-guide couplings; phonons do not cross over."""
    return np.diag([np.conj(ks), -ks, np.conj(ka), -ka, 0j, 0j])


@dataclass
class EvolutionMatrix:
    """The 12x12 drift matrix M, read-only; ``propagator`` exponentiates it."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.array(self.matrix, dtype=complex)
        if self.matrix.shape != (_DIM, _DIM):
            raise NumericalError(f"drift matrix must be {_DIM}x{_DIM}")
        self.matrix.setflags(write=False)


def build_drift_matrix(params: ValidatedParams) -> EvolutionMatrix:
    """Assemble the block drift matrix from validated couplings.

    The lower-left cross block is the elementwise conjugate of the
    upper-right one, which realizes the guide-exchange symmetry.
    """
    m1 = _guide_block(params.gS1, params.gA1)
    m2 = _guide_block(params.gS2, params.gA2)
    m12 = _cross_block(params.kappaS, params.kappaA)
    full = np.block([[m1, m12], [m12.conj(), m2]])
    return EvolutionMatrix(full)


@dataclass(frozen=True)
class BogoliubovTransform:
    """The (U, V) blocks of the operator solution at propagation length z.

    Leading axes stack transforms: over a z-grid, U and V are (Z, 6, 6)
    and z is the grid.
    """

    U: np.ndarray
    V: np.ndarray
    z: np.ndarray | float

    def __post_init__(self):
        for name in ("U", "V"):
            arr = np.array(getattr(self, name), dtype=complex)
            if arr.shape[-2:] != (N_MODES, N_MODES) or arr.shape != np.shape(self.U):
                raise NumericalError(f"{name} must be {N_MODES}x{N_MODES} (or a stack of them)")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        z = np.array(self.z, dtype=float)
        z.setflags(write=False)
        object.__setattr__(self, "z", float(z) if z.ndim == 0 else z)

    @classmethod
    def identity(cls) -> "BogoliubovTransform":
        return cls(U=np.eye(N_MODES, dtype=complex),
                   V=np.zeros((N_MODES, N_MODES), dtype=complex), z=0.0)

    @classmethod
    def from_doubled(cls, mat: np.ndarray, z: float) -> "BogoliubovTransform":
        """Extract (U, V) from a 12x12 propagator over the interleaved basis."""
        return cls(U=mat[..., 0::2, 0::2], V=mat[..., 0::2, 1::2], z=z)

    def doubled(self) -> np.ndarray:
        """Rebuild the full 12x12 propagator (creator rows by conjugation)."""
        out = np.zeros(self.U.shape[:-2] + (_DIM, _DIM), dtype=complex)
        out[..., 0::2, 0::2] = self.U
        out[..., 0::2, 1::2] = self.V
        out[..., 1::2, 0::2] = self.V.conj()
        out[..., 1::2, 1::2] = self.U.conj()
        return out

    def compose(self, first: "BogoliubovTransform") -> "BogoliubovTransform":
        """The transform equivalent to applying ``first`` and then ``self``."""
        u = self.U @ first.U + self.V @ first.V.conj()
        v = self.U @ first.V + self.V @ first.U.conj()
        return BogoliubovTransform(U=u, V=v, z=self.z + first.z)


def _even_step(flat: np.ndarray) -> float | None:
    """The spacing of an evenly spaced grid (to a few ulps), else None."""
    if flat.size < 2:
        return None
    step = (flat[-1] - flat[0]) / (flat.size - 1)
    drift = np.max(np.abs(flat - (flat[0] + step * np.arange(flat.size))))
    return step if drift <= 8 * np.finfo(float).eps * np.max(np.abs(flat)) else None


def propagator(em: EvolutionMatrix, z) -> BogoliubovTransform:
    """Bogoliubov transform after propagation over length z; an array of
    lengths (a z-grid) gives the transforms stacked over it.

    The one place where exp(i M z) is formed, always by scaling-and-squaring
    (``scipy.linalg.expm``), which stays accurate where M is defective.  An
    evenly spaced grid of Z points is cut into blocks of B = ceil(sqrt(Z)):
    point qB + r is exp(i M z_qB) exp(i M r dz), so 2 sqrt(Z) stacked
    exponentials and one stacked product cover the grid.  A scalar or an
    unevenly spaced array takes B = 1, one exponential per point.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise NumericalError(f"propagation length must be finite, got {z}")
    flat = z.ravel()
    step = _even_step(flat)
    block = 1 if step is None else math.ceil(math.sqrt(flat.size))
    gen = 1j * em.matrix
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        heads = scipy.linalg.expm(gen * flat[::block, None, None])
        steps = scipy.linalg.expm(gen * ((step or 0.0) * np.arange(block))[:, None, None])
        # only the annihilator rows [U V]; the creator rows are their conjugates
        rows = (heads[:, None, 0::2] @ steps).reshape(-1, N_MODES, _DIM)[:flat.size]
    finite = np.all(np.isfinite(rows), axis=(-2, -1))
    if not np.all(finite):
        raise NumericalError(
            f"matrix exponential produced non-finite entries at z={flat[np.argmin(finite)]}; "
            f"|M|={np.max(np.abs(em.matrix)):.3g}"
        )
    rows = rows.reshape(z.shape + (N_MODES, _DIM))
    return BogoliubovTransform(U=rows[..., 0::2], V=rows[..., 1::2], z=z)


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


def symplectic_residual(t: BogoliubovTransform) -> float:
    """Max-norm violation of the two Bogoliubov (commutator) identities,
    over every transform of a stack."""
    u, v = t.U, t.V
    ut, vt = u.swapaxes(-1, -2), v.swapaxes(-1, -2)
    r1 = u @ ut.conj() - v @ vt.conj() - np.eye(N_MODES)
    r2 = u @ vt - v @ ut
    return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))


def evolve_state(t: BogoliubovTransform, s0: GaussianState) -> GaussianState:
    """Propagate a Gaussian state through a Bogoliubov transform.

    With F = [U V], A(z) = F (A; A^+): the means are F (xi; xi*), and
    M = <dA dA>, N = <dA^+ dA> are F S F^T and conj(F) J S F^T, with
    S = [[M0, N0^T + I], [N0, M0*]] the input moments of (dA; dA^+)
    (cross-mode ones allowed) and J the swap of its row blocks.  A stack
    of transforms takes the one input state to a state stacked likewise.
    """
    f = np.concatenate([t.U, t.V], axis=-1)
    xi = f @ np.concatenate([s0.xi, s0.xi.conj()])
    n0, m0 = s0.normal_moment_matrix(), s0.pair_moment_matrix()
    sft = np.block([[m0, n0.T + np.eye(N_MODES)], [n0, m0.conj()]]) @ f.swapaxes(-1, -2)
    m1 = f @ sft
    # conj(F) J = conj([V U]) in F's buffer; both (Z,6,12) operands go before symmetrizing
    n1 = np.conjugate(np.concatenate([t.V, t.U], axis=-1, out=f), out=f) @ sft
    del f, sft
    # exact symmetries hold up to roundoff; restore them
    n1 = 0.5 * (n1 + n1.swapaxes(-1, -2).conj())
    m1 = 0.5 * (m1 + m1.swapaxes(-1, -2))
    return GaussianState(xi, *noise_functions(n1, m1), z=t.z)


def photon_number_balance(state: GaussianState):
    """The conserved combination sum_j (<n_Vj> + <n_Aj> - <n_Sj>), per state."""
    n = state.mean_photon_numbers()
    return n[..., 2] + n[..., 5] + n[..., 1] + n[..., 4] - n[..., 0] - n[..., 3]


def conservation_residual(trajectory) -> float:
    """Max drift of the photon-number balance along a trajectory: a state
    stacked over z, or a sequence of states."""
    if isinstance(trajectory, GaussianState):
        balance = np.ravel(photon_number_balance(trajectory))
    else:
        balance = np.array([photon_number_balance(s) for s in trajectory])
    return float(np.max(np.abs(balance - balance[0]))) if balance.size else 0.0
