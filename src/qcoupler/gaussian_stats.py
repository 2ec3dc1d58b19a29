"""Observable statistics of single and compound modes.

Everything is derived from the normally ordered noise functions of a
:class:`~qcoupler.model.GaussianState`.  Intensity variances, intensity
correlations, and principal squeeze variances come from closed
expressions; photon-number distributions and integrated-intensity
moments come from the normally ordered generating function

    G(s) = <: exp(-s W) :>,     W = sum over selected modes of A^+ A,

evaluated in closed Gaussian form and differentiated with truncated
power series (jet) arithmetic:

    <W^k>  = (-1)^k G^(k)(0),        p(n) = (-1)^n G^(n)(1) / n!.

Quadrature conventions: p = A + A^+ and q = -i(A - A^+), so the vacuum
variance is 1 for a single mode.  Compound modes use the plain operator
sum A_j + A_k with vacuum variance 2, and squeezing means a principal
variance below 1 (single) or 2 (compound).  The uncertainty product is
the product of the smallest and largest principal variances (1 for a
coherent single mode, 4 for compound vacuum).

Every function accepts a stacked state (one per point of a z-grid, say)
and returns its statistics stacked over the same leading axes; the jets
loop over the series order only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError, ValidationError
from .model import GaussianState, ModeSelection

__all__ = [
    "ModeSelection",
    "StatsReport",
    "mean_intensity",
    "intensity_variance_single",
    "intensity_covariance",
    "intensity_variance_compound",
    "intensity_variance",
    "principal_squeeze",
    "quadrature_variances",
    "generating_function",
    "generating_function_jet",
    "moments_and_distribution",
    "stats_report",
]

_MIN_PIVOT = 1e-12  # singularity floor for (1 + s * eigenvalue)


def _as_selection(sel) -> ModeSelection:
    return sel if isinstance(sel, ModeSelection) else ModeSelection(tuple(sel))


def _where(state: GaussianState, sel: ModeSelection, bad) -> str:
    """' at z=... for selection ...', naming the first flagged state."""
    at = "" if state.z is None else f" at z={float(np.ravel(state.z)[np.argmax(np.ravel(bad))])}"
    return f"{at} for selection {sel.name}"


def mean_intensity(state: GaussianState, sel):
    """<W> = sum of B_j + |xi_j|^2 over the selected modes."""
    idx = [int(m) for m in _as_selection(sel).modes]
    return np.sum(state.B[..., idx] + np.abs(state.xi[..., idx]) ** 2, axis=-1)


def intensity_variance_single(state: GaussianState, j):
    """<(dW_j)^2> of one mode."""
    j = int(j)
    b, c, xi = state.B[..., j], state.C[..., j], state.xi[..., j]
    return (
        b * b + np.abs(c) ** 2 + 2.0 * b * np.abs(xi) ** 2
        + 2.0 * np.real(c * np.conj(xi) ** 2)
    )


def intensity_covariance(state: GaussianState, j, k):
    """<dW_j dW_k> between two distinct modes."""
    j, k = int(j), int(k)
    if j == k:
        raise ValidationError("intensity covariance needs two distinct modes")
    d, dbar = state.D[..., j, k], state.Dbar[..., j, k]
    xj, xk = state.xi[..., j], state.xi[..., k]
    return (
        np.abs(d) ** 2 + np.abs(dbar) ** 2
        + 2.0 * np.real(d * np.conj(xj) * np.conj(xk))
        - 2.0 * np.real(dbar * xj * np.conj(xk))
    )


def intensity_variance_compound(state: GaussianState, j, k):
    """<(dW_jk)^2> of the two-mode compound field."""
    return (
        intensity_variance_single(state, j)
        + intensity_variance_single(state, k)
        + 2.0 * intensity_covariance(state, j, k)
    )


def intensity_variance(state: GaussianState, sel):
    sel = _as_selection(sel)
    if sel.is_compound:
        return intensity_variance_compound(state, *sel.modes)
    return intensity_variance_single(state, sel.modes[0])


def _squeeze_terms(state: GaussianState, sel: ModeSelection):
    """(vacuum level, symmetric noise S, pair term P) of the quadrature algebra."""
    if sel.is_compound:
        j, k = (int(m) for m in sel.modes)
        s = state.B[..., j] + state.B[..., k] - 2.0 * np.real(state.Dbar[..., j, k])
        p = state.C[..., j] + state.C[..., k] + 2.0 * state.D[..., j, k]
        return 2.0, s, p
    j = int(sel.modes[0])
    return 1.0, state.B[..., j], state.C[..., j]


def principal_squeeze(state: GaussianState, sel):
    """Principal squeeze variance: the quadrature variance minimized over
    the quadrature phase.  Below the vacuum level (1 single / 2 compound)
    the field is squeezed."""
    vac, s, p = _squeeze_terms(state, _as_selection(sel))
    return vac + 2.0 * (s - np.abs(p))


def quadrature_variances(state: GaussianState, sel):
    """(var_p, var_q, uncertainty) for the selected mode(s).

    ``uncertainty`` is the product of the minimal and maximal principal
    variances.
    """
    vac, s, p = _squeeze_terms(state, _as_selection(sel))
    var_p = vac + 2.0 * s + 2.0 * np.real(p)
    var_q = vac + 2.0 * s - 2.0 * np.real(p)
    return var_p, var_q, (vac + 2.0 * (s - np.abs(p))) * (vac + 2.0 * (s + np.abs(p)))


# --------------------------------------------------------------------------
# Generating function and jet machinery.

def _selection_spectrum(state: GaussianState, sel: ModeSelection):
    """Eigen-data of the selected modes' normally ordered covariance.

    Returns real eigenvalues lam_i of the 2m x 2m doubled covariance
    [[N^T, M], [M*, N]] and the nonnegative weights w_i = |(Q^H y)_i|^2
    with y the doubled mean vector.  In this basis

        G(s) = prod_i (1 + s lam_i)^(-1/2)
               * exp(-(s/2) sum_i w_i / (1 + s lam_i)),

    which is manifestly real for real s.
    """
    idx = np.array([int(m) for m in sel.modes])
    ix = (..., idx[:, None], idx)
    n = state.normal_moment_matrix()[ix]
    m = state.pair_moment_matrix()[ix]
    gamma = np.block([[n.swapaxes(-1, -2), m], [m.conj(), n]])
    gamma = 0.5 * (gamma + gamma.swapaxes(-1, -2).conj())
    lam, q = np.linalg.eigh(gamma)
    xi = state.xi[..., idx]
    y = np.concatenate([xi, xi.conj()], axis=-1)
    w = np.abs(q.swapaxes(-1, -2).conj() @ y[..., None])[..., 0] ** 2
    return lam, w


def _series_exp(h: np.ndarray) -> np.ndarray:
    """exp of a truncated power series (along the last axis) via the ODE
    recurrence n f_n = sum_k k h_k f_(n-k); f is held reversed so that
    each order is one contiguous dot product over the stack."""
    order = h.shape[-1] - 1
    kh = np.arange(order + 1) * h
    fr = np.zeros_like(h)
    fr[..., order] = np.exp(h[..., 0])
    for n in range(1, order + 1):
        fr[..., order - n] = np.vecdot(kh[..., 1:n + 1], fr[..., order - n + 1:]) / n
    return fr[..., ::-1]


def _g_jet(state: GaussianState, sel: ModeSelection, lam: np.ndarray, w: np.ndarray,
           s0: float, order: int) -> np.ndarray:
    """Taylor coefficients of G(s0 + t) through t^order, from the spectrum
    of the selection ``sel`` of ``state``."""
    a = 1.0 + s0 * lam
    bad = np.any(a <= _MIN_PIVOT, axis=-1)
    if np.any(bad):
        raise NumericalError(
            f"generating function singular at s={s0}{_where(state, sel, bad)}: "
            f"covariance eigenvalue {np.min(lam[bad]):.6g} (state is unphysical "
            "or too close to singular)"
        )
    rho = lam / a
    h = np.zeros(lam.shape[:-1] + (order + 1,))
    # -(1/2) sum_i log(a_i + lam_i t)
    h[..., 0] = -0.5 * np.sum(np.log(a), axis=-1)
    powers = np.ones_like(rho)
    prev_geo = w / a  # running w_i/a_i * (-rho_i)^n
    # -(s0 + t)/2 * sum_i w_i / (a_i + lam_i t)
    h[..., 0] += -0.5 * s0 * np.sum(prev_geo, axis=-1)
    sign = 1.0
    for n in range(1, order + 1):
        powers = powers * rho
        # log branch: -(1/2) (-1)^(n+1) rho^n / n
        h[..., n] = -0.5 * sign * np.sum(powers, axis=-1) / n
        sign = -sign
        # prefactor branch: -(1/2) (s0 g_n + g_{n-1}) with g_n = sum w/a (-rho)^n
        geo = -rho * prev_geo
        h[..., n] += -0.5 * (s0 * np.sum(geo, axis=-1) + np.sum(prev_geo, axis=-1))
        prev_geo = geo
    return _series_exp(h)


def generating_function_jet(state: GaussianState, sel, s0: float, order: int) -> np.ndarray:
    """Taylor coefficients of G around s0, length order + 1."""
    sel = _as_selection(sel)
    return _g_jet(state, sel, *_selection_spectrum(state, sel), float(s0), int(order))


def generating_function(state: GaussianState, sel, svalues) -> np.ndarray:
    """G(s) = <: exp(-s W) :> at the given points (last axis)."""
    sel = _as_selection(sel)
    lam, w = _selection_spectrum(state, sel)
    return np.stack([_g_jet(state, sel, lam, w, float(s), 0)[..., 0]
                     for s in np.atleast_1d(np.asarray(svalues, dtype=float))], axis=-1)


def _moments(state: GaussianState, sel: ModeSelection, k_max: int, n_max: int,
             with_pn: bool):
    """(<W>, reduced moments, p_n or None), see moments_and_distribution."""
    if not 1 <= k_max <= 8:
        raise ValidationError(f"k_max must be in [1, 8], got {k_max}")
    if not 1 <= n_max <= 512:
        raise ValidationError(f"n_max must be in [1, 512], got {n_max}")
    lam, w = _selection_spectrum(state, sel)
    jet0 = _g_jet(state, sel, lam, w, 0.0, max(k_max, 2))
    mean_w = -jet0[..., 1]
    ks = np.arange(2, k_max + 1)
    moments = np.array([(-1.0) ** k * math.factorial(k) for k in ks]) * jet0[..., 2:k_max + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        reduced = np.where(mean_w[..., None] > 0.0, moments / mean_w[..., None] ** ks - 1.0,
                           np.nan)
    p_n = None
    if with_pn:
        p_n = _g_jet(state, sel, lam, w, 1.0, n_max) * (-1.0) ** np.arange(n_max + 1)
    return mean_w, reduced, p_n


def moments_and_distribution(state: GaussianState, sel, k_max: int = 5,
                             n_max: int = 64):
    """(<W>, reduced moments for k = 2..k_max, photon distribution p_n).

    Reduced moments are <W^k>/<W>^k - 1; they come out as NaN markers
    when <W> = 0 (vacuum in the selection).  ``p_n`` has length
    n_max + 1 and sums to one minus the truncated tail mass.
    """
    return _moments(state, _as_selection(sel), k_max, n_max, with_pn=True)


@dataclass(frozen=True)
class StatsReport:
    """All requested statistics of one mode selection at one length, or
    stacked over the leading axes of a stacked state."""

    selection: ModeSelection
    mean_w: np.ndarray | float
    reduced_moments: np.ndarray   # k = 2..k_max; NaN markers when <W> = 0
    variance_w: np.ndarray | float
    lam: np.ndarray | float       # principal squeeze variance
    var_p: np.ndarray | float
    var_q: np.ndarray | float
    uncertainty: np.ndarray | float
    p_n: np.ndarray | None = None
    pn_deficit: np.ndarray | float | None = None


def stats_report(state: GaussianState, sel, k_max: int = 5, n_max: int = 64,
                 include_pn: bool = False) -> StatsReport:
    """Assemble the full report for one selection.

    The intensity variance is computed twice, from the closed expression
    and from the moment machinery; disagreement beyond 1e-8 (relative to
    the natural scale) means the numerics cannot be trusted and raises
    :class:`NumericalError`.  The order-n_max jet at s=1 is built only
    with ``include_pn``.
    """
    sel = _as_selection(sel)
    mean_w, reduced, p_n = _moments(state, sel, k_max, n_max, include_pn)
    var_formula = intensity_variance(state, sel)
    if k_max >= 2:
        var_jets = (reduced[..., 0] + 1.0) * mean_w**2 - mean_w**2
    else:
        var_jets = np.where(mean_w == 0.0, 0.0, np.nan)
    scale = np.maximum(np.maximum(1.0, np.abs(var_formula)), mean_w**2)
    bad = np.abs(var_jets - var_formula) > 1e-8 * scale  # NaN: not checked
    if np.any(bad):
        i = int(np.argmax(np.ravel(bad)))
        raise NumericalError(
            f"intensity variance cross-check failed{_where(state, sel, bad)}: "
            f"closed form {float(np.ravel(var_formula)[i])!r} vs moments "
            f"{float(np.ravel(var_jets)[i])!r}"
        )
    var_p, var_q, uncertainty = quadrature_variances(state, sel)
    return StatsReport(
        selection=sel,
        mean_w=mean_w,
        reduced_moments=reduced,
        variance_w=var_formula,
        lam=principal_squeeze(state, sel),
        var_p=var_p,
        var_q=var_q,
        uncertainty=uncertainty,
        p_n=p_n,
        pn_deficit=None if p_n is None else 1.0 - p_n.sum(axis=-1),
    )
