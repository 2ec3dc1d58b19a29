"""Observable statistics of single and compound modes.

Everything is derived from the means and the normally ordered moment
matrices N and M of a :class:`~qcoupler.model.GaussianState`, restricted
to the k = 1 or 2 selected modes: the block x = xi_sel, n = N_sel,
m = M_sel.  A single mode and a compound field share every closed
expression, each a sum over the block:

    <W>           = Re tr n + sum_j |x_j|^2,
    C_jk          = <:dW_j dW_k:>
                  = |n_jk|^2 + |m_jk|^2 + 2 Re(x_j n_jk x_k* + x_j* m_jk x_k*),
    <:(dW)^2:>    = sum_jk C_jk,
    S = Re sum_jk n_jk,    P = sum_jk m_jk,
    var_p, var_q  = k + 2 (S +/- Re P),
    lambda        = k + 2 (S - |P|)      (principal squeeze variance).

Photon-number distributions and integrated-intensity moments come from
the normally ordered generating function

    G(s) = <: exp(-s W) :>,     W = sum over selected modes of A^+ A,

evaluated in closed Gaussian form and differentiated with truncated
power series (jet) arithmetic:

    <W^k>  = (-1)^k G^(k)(0),        p(n) = (-1)^n G^(n)(1) / n!.

With the doubled covariance Gamma = [[n^T, m], [m*, n]] and the doubled
mean y = (x, x*), log G(s) = -(1/2) log det(1 + s Gamma)
- (s/2) y^H (1 + s Gamma)^-1 y.  Its series at s = 0 is a trace series
of the block, the cumulant form of the moments (J. Perina, Quantum
Statistics of Linear and Nonlinear Optical Phenomena, 1991):

    h_0 = 0,   h_1 = -<W>,
    h_k = (1/2) [tr((-Gamma)^k) / k - y^H (-Gamma)^(k-1) y],   k >= 2,

so the moments up to k_max <= 8 need a few small matrix products and no
eigendecomposition; 2 h_2 = <:(dW)^2:>.  Only p(n), a jet at s = 1 of
order up to 512, uses the eigenvalues lam_i of Gamma (``np.linalg.eigh``),
and only for the selections that request it.  Every statistic is
assembled and cross-checked by ``stats_report``, the one public route,
which raises every numerical alarm of a report; its helpers raise none.

Quadrature conventions: p = A + A^+ and q = -i(A - A^+), and a compound
field uses the plain operator sum A_j + A_k.  The vacuum variance is k
(1 single, 2 compound); squeezing means a principal variance below it.
The uncertainty product is the product of the smallest and largest
principal variances, k + 2 (S -/+ |P|) (1 for a coherent single mode, 4
for compound vacuum).

``stats_report`` accepts a stacked state (one per point of a z-grid, say)
and returns its statistics stacked over the same leading axes.  The
eigen jet's log-series is built in closed form; the trace series and the
series exponential loop over the order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError
from .model import GaussianState, ModeSelection, _check_orders, _doubled_covariance, _first_flagged

__all__ = ["StatsReport", "stats_report"]

_MIN_PIVOT = 1e-12  # singularity floor for (1 + s * eigenvalue)
_MAX_SHIFT = 600.0  # largest seed shift of the series exponential; e^600 p(n) < e^709
_TINY = np.finfo(float).tiny  # smallest normal double
_EPS = np.finfo(float).eps
_SQUEEZE_DIGITS = 1e-8  # largest roundoff of a quadrature variance, relative to lambda


def _fail(state: GaussianState, sel: ModeSelection, bad, what: str, detail=None) -> None:
    """Raise NumericalError where the stack ``bad``, shaped like ``state``,
    flags a point: '<what> at z=... for selection ...', naming the first
    flagged one, then ': ' and ``detail(i)`` of its flat index i."""
    if np.any(bad):
        i, at = _first_flagged(state.z, bad)
        tail = "" if detail is None else f": {detail(i)}"
        raise NumericalError(f"{what}{at} for selection {sel.name}{tail}")


def _selection_block(state: GaussianState, sel: ModeSelection):
    """(x, n, m): xi, N and M restricted to the selected modes, shaped
    (..., k) and (..., k, k) with k = 1 or 2."""
    idx = np.array([int(m) for m in sel.modes])
    return state.xi[..., idx], state.N[..., idx[:, None], idx], state.M[..., idx[:, None], idx]


def _intensity_variance(x, n, m):
    """<:(dW)^2:>: the sum over the selection's block (x, n, m) of the
    pair correlations C_jk = <:dW_j dW_k:>."""
    xr, xc = x[..., :, None], x.conj()[..., None, :]
    pairs = np.abs(n) ** 2 + np.abs(m) ** 2 + 2.0 * np.real(xr * n * xc + xr.conj() * m * xc)
    return np.sum(pairs, axis=(-2, -1))


def _spread(vac, s, t):
    """vac + 2 (S -/+ t): the quadrature variances on either side of S."""
    return vac + 2.0 * (s - t), vac + 2.0 * (s + t)


def _quadratures(n, m):
    """(principal squeeze variance, var_p, var_q, uncertainty, roundoff)
    from the vacuum level, the symmetric noise S and the pair term P of
    the selection's block (n, m).

    Each variance is a difference of sums of N and M, whose roundoff is
    about eps (k + 2 (S + |P|)), the largest principal variance.  Where
    that exceeds 1e-8 lambda (a strongly squeezed field under gain, or an
    unphysical lambda <= 0) the digits are gone; as var_p, var_q >= lambda
    and u = lambda (k + 2 (S + |P|)), one bound covers all four columns.
    """
    vac, s, p = n.shape[-1], np.sum(n, axis=(-2, -1)).real, np.sum(m, axis=(-2, -1))
    lo, hi = _spread(vac, s, np.abs(p))
    var_q, var_p = _spread(vac, s, np.real(p))
    return lo, var_p, var_q, lo * hi, _EPS * hi


# --------------------------------------------------------------------------
# Generating function and jet machinery.

def _selection_spectrum(gamma: np.ndarray, y: np.ndarray):
    """Eigen-data of a selection's doubled covariance and mean.

    Returns real eigenvalues lam_i of the 2m x 2m doubled covariance
    Gamma and the nonnegative weights w_i = |(Q^H y)_i|^2 with y the
    doubled mean vector.  In this basis

        G(s) = prod_i (1 + s lam_i)^(-1/2)
               * exp(-(s/2) sum_i w_i / (1 + s lam_i)),

    which is manifestly real for real s.
    """
    gamma = 0.5 * (gamma + gamma.swapaxes(-1, -2).conj())
    lam, q = np.linalg.eigh(gamma)
    w = np.abs(q.swapaxes(-1, -2).conj() @ y[..., None])[..., 0] ** 2
    return lam, w


def _series_exp(h: np.ndarray) -> np.ndarray:
    """exp of a truncated power series (along the last axis) via the ODE
    recurrence n f_n = sum_k k h_k f_(n-k); f is held reversed so that
    each order is one contiguous dot product over the stack.

    The recurrence is linear, so it runs on f e^c, seeded with
    exp(h_0 + c), and the factor e^-c comes off at the end: with
    c = clip(-h_0, 0, _MAX_SHIFT) a bright field's exp(h_0) no longer
    underflows to a zero seed.  At s = 1, |f_n| = p(n) <= 1, so the
    shifted coefficients stay below e^_MAX_SHIFT and cannot overflow.
    """
    order = h.shape[-1] - 1
    kh = np.arange(order + 1) * h
    shift = np.clip(-h[..., 0], 0.0, _MAX_SHIFT)
    seed = np.exp(h[..., 0] + shift)
    fr = np.zeros_like(h)
    # a subnormal seed would pass its lost bits on to every coefficient
    fr[..., order] = np.where(seed >= _TINY, seed, 0.0)
    for n in range(1, order + 1):
        fr[..., order - n] = np.vecdot(kh[..., 1:n + 1], fr[..., order - n + 1:]) / n
    with np.errstate(under="ignore"):  # entries below the double range are 0
        # into kh's buffer, which the recurrence no longer needs
        return np.multiply(fr[..., ::-1], np.exp(-shift)[..., None], out=kh)


def _g_jet(lam: np.ndarray, w: np.ndarray, order: int) -> np.ndarray:
    """Taylor coefficients of G(1 + t) through t^order, from a selection's
    spectrum (lam, w): (-1)^n p(n) at t^n.  Every pivot a_i = 1 + lam_i
    must be positive; ``stats_report`` checks that first.

    log G(1 + t) = -(1/2) sum_i [log(a_i + lam_i t) + (1 + t) w_i / (a_i + lam_i t)]
    with a_i = 1 + lam_i.  Expanding both terms in powers of
    P_i = -lam_i / a_i, and using 1 - lam_i / a_i = 1 / a_i to merge
    the t-shifted prefactor term, gives the log-series h in closed form:

        h_0 = -(1/2) sum_i (log a_i + w_i / a_i),
        h_n = (1/2) sum_i P_i^(n-1) (P_i / n - w_i / a_i^2),   n >= 1.

    The powers come from one cumulative product per eigenvalue, written
    into a buffer that is reused for every eigenvalue.
    """
    a = 1.0 + lam
    p = -lam / a
    q = w / a**2
    inv_n = 1.0 / np.arange(1, order + 1)
    h = np.zeros(lam.shape[:-1] + (order + 1,))
    h[..., 0] = -0.5 * np.sum(np.log(a) + w / a, axis=-1)
    tail = h[..., 1:]
    powers = np.empty_like(tail)
    term = np.empty_like(tail)
    for i in range(lam.shape[-1]):
        p_i = p[..., i, None]
        powers[..., :1] = 1.0
        powers[..., 1:] = p_i
        np.cumprod(powers, axis=-1, out=powers)  # P_i^0 .. P_i^(order-1)
        np.multiply(p_i, inv_n, out=term)
        term -= q[..., i, None]
        term *= powers
        tail += term
    tail *= 0.5
    del powers, term  # free the buffers before _series_exp allocates its own
    return _series_exp(h)


def _reduced_log_series(gamma: np.ndarray, y: np.ndarray, mean_w, scale, order: int):
    """The trace series of the module docstring, reduced: the log-series
    of G(u / scale) around u = 0 through u^order, from the doubled
    covariance Gamma and the doubled mean y of a selection's block.

    Gamma is divided by the scale, <W> or 1, and y by its square root, so
    with scale = <W> the series holds h_k / <W>^k and its exponential
    g_k / <W>^k: neither <W>^k nor a near-vacuum g_k has to be a double.
    The powers P_a = (-Gamma)^a are formed up to ceil(order/2), and
    tr (-Gamma)^(a+b) = sum(P_a o P_b^T); the vectors v_c = (-Gamma)^c y
    are built one product at a time, and y^H (-Gamma)^(c+d) y = v_c . v_d.

    The products run on the real form [[Re Gamma, -Im Gamma],
    [Im Gamma, Re Gamma]] and (Re y, Im y): stacked real products cost a
    fraction of complex ones, and its traces are twice those of Gamma.
    A quadrature basis would be smaller, but there a near-vacuum squeezed
    block has large diagonal entries of opposite sign, and its odd traces
    cancel catastrophically.
    """
    d = gamma.shape[-1]
    neg = np.empty(gamma.shape[:-2] + (2 * d, 2 * d))
    neg[..., :d, :d] = neg[..., d:, d:] = gamma.real
    neg[..., d:, :d] = gamma.imag
    np.negative(gamma.imag, out=neg[..., :d, d:])
    neg /= -scale[..., None, None]
    powers = [None, neg]
    for _ in range(2, (order + 1) // 2 + 1):
        powers.append(powers[-1] @ neg)
    vecs = [np.concatenate([y.real, y.imag], axis=-1) / np.sqrt(scale)[..., None]]
    for _ in range(order // 2):
        vecs.append(np.einsum("...ij,...j->...i", neg, vecs[-1]))
    h = np.zeros(np.shape(mean_w) + (order + 1,))
    h[..., 1:2] = (-mean_w / scale)[..., None]   # no h_1 at order 0
    for k in range(2, order + 1):
        trace = np.einsum("...ij,...ji->...", powers[(k + 1) // 2], powers[k // 2])
        h[..., k] = 0.25 * trace / k - 0.5 * np.vecdot(vecs[k // 2], vecs[(k - 1) // 2])
    return h


@dataclass(frozen=True)
class StatsReport:
    """All requested statistics of one mode selection at one length, or
    stacked over the leading axes of a stacked state."""

    mean_w: np.ndarray | float
    reduced_moments: np.ndarray   # k = 2..k_max; NaN markers when <W> = 0 or subnormal
    variance_w: np.ndarray | float
    lam: np.ndarray | float | None   # principal squeeze variance
    var_p: np.ndarray | float | None
    var_q: np.ndarray | float | None
    uncertainty: np.ndarray | float | None
    p_n: np.ndarray | None = None
    pn_deficit: np.ndarray | float | None = None


def stats_report(state: GaussianState, sel, k_max: int = 5, n_max: int = 64,
                 include_pn: bool = False, include_quadratures: bool = True) -> StatsReport:
    """The full report for one selection, the one route to its statistics.

    ``sel`` is a ``ModeSelection`` or a sequence of one or two ``ModeId``.
    <W> is the closed form, and the reduced moments come from the trace
    series reduced by <W>: they are NaN markers when <W> = 0 (vacuum in
    the selection) or <W> is below the normal double range (2.2e-308),
    and inf or NaN where they exceed the double range (a weakly squeezed
    near-vacuum at large k).  The spectrum and the order-n_max jet at s=1
    are built only with ``include_pn``; ``p_n`` has length n_max + 1 and
    sums to one minus the truncated tail mass ``pn_deficit``.  The
    quadrature fields ``lam``, ``var_p``, ``var_q`` and ``uncertainty``
    are built, with their digit alarm, only with ``include_quadratures``
    (the default), and are None otherwise.

    The intensity variance is computed from the closed expression and
    checked against the moment machinery: 2 h_2 of the trace series, and
    with ``include_pn`` also the order-2 sum (1/2) sum lam_i^2 +
    sum w_i lam_i of the eigen spectrum, so a failed ``eigh`` is caught
    too.  Disagreement beyond 1e-8 (relative to the natural scale) means
    the numerics cannot be trusted.  Every alarm of the report is raised
    here as :class:`NumericalError`, in this order: a non-finite <W> or
    intensity variance; where p(n) is asked for, a pivot 1 + lam_i <= 1e-12
    or an all-zero p(n); the variance cross-check; where the quadratures
    are, a roundoff beyond 1e-8 lambda; a non-finite quadrature field or
    p(n) entry.  Each names the first failing z (row-major) and the selection.
    """
    _check_orders(k_max, n_max)
    sel = sel if isinstance(sel, ModeSelection) else ModeSelection(sel)
    x, n, m = _selection_block(state, sel)
    mean_w = np.trace(n, axis1=-2, axis2=-1).real + np.sum(np.abs(x) ** 2, axis=-1)
    var_formula = _intensity_variance(x, n, m)
    # finite, these two bound every entry of the block
    for name, values in (("<W>", mean_w), ("the intensity variance", var_formula)):
        _fail(state, sel, ~np.isfinite(values), f"{name} is not finite")
    gamma, y = _doubled_covariance(n, m), np.concatenate([x, x.conj()], axis=-1)
    # below the normal range <W> has lost its digits, and 1 / <W> overflows
    reducible = mean_w >= _TINY
    scale = np.where(reducible, mean_w, 1.0)
    # a reduced moment beyond the double range is inf, or NaN where a power
    # of the reduced block overflowed on the way
    signed = np.array([(-1.0) ** k * math.factorial(k) for k in range(2, k_max + 1)])
    with np.errstate(over="ignore", invalid="ignore"):
        h = _reduced_log_series(gamma, y, mean_w, scale, max(k_max, 2))
        reduced = np.where(reducible[..., None],
                           signed * _series_exp(h)[..., 2:k_max + 1] - 1.0, np.nan)
    variances = [2.0 * h[..., 2] * scale * scale]
    p_n = None
    if include_pn:
        lam, w = _selection_spectrum(gamma, y)
        variances.append(np.sum(0.5 * lam**2 + w * lam, axis=-1))
        singular = np.any(1.0 + lam <= _MIN_PIVOT, axis=-1)
        _fail(state, sel, singular, "generating function singular at s=1.0",
              lambda i: f"covariance eigenvalue {np.min(lam[singular]):.6g} (state is "
                        "unphysical or too close to singular)")
        p_n = _g_jet(lam, w, n_max)
        p_n[..., 1::2] *= -1.0   # (-1)^n, in place
        dead = np.all(p_n == 0.0, axis=-1)
        _fail(state, sel, dead, f"p(n) for n <= {n_max} underflows",
              lambda i: f"<W> = {float(np.max(np.asarray(mean_w)[dead])):.6g} lies too far "
                        "beyond n_max")
    # |d| > 1e-8 max(1, |var|, <W>^2), with the <W>^2 term as (|d|/<W>)/<W>,
    # which stays finite where <W>^2 overflows; it only matters for <W> > 1
    tolerance = 1e-8 * np.maximum(1.0, np.abs(var_formula))
    bright = np.maximum(mean_w, 1.0)
    for var_moments in variances:
        gap = np.abs(var_moments - var_formula)
        bad = (gap > tolerance) & (gap / bright / bright > 1e-8)  # NaN: not checked
        _fail(state, sel, bad, "intensity variance cross-check failed",
              lambda i: f"closed form {float(np.ravel(var_formula)[i])!r} vs moments "
                        f"{float(np.ravel(var_moments)[i])!r}")
    squeeze = var_p = var_q = uncertainty = None
    if include_quadratures:
        squeeze, var_p, var_q, uncertainty, roundoff = _quadratures(n, m)
        _fail(state, sel, roundoff > _SQUEEZE_DIGITS * squeeze,
              "quadrature variances lose their digits",
              lambda i: f"principal squeeze variance {float(np.ravel(squeeze)[i]):.6g} against "
                        f"a roundoff of {float(np.ravel(roundoff)[i]):.3g} (state is unphysical "
                        "or squeezed beyond double precision)")
    # a non-finite p(n) entry leaves its row's sum, and so its deficit, non-finite
    deficit = None if p_n is None else 1.0 - p_n.sum(axis=-1)
    for name, values in (("p(n)", deficit), ("lambda", squeeze), ("var_p", var_p),
                         ("var_q", var_q), ("u", uncertainty)):
        if values is not None:
            _fail(state, sel, ~np.isfinite(values), f"{name} is not finite")
    return StatsReport(
        mean_w=mean_w,
        reduced_moments=reduced,
        variance_w=var_formula,
        lam=squeeze,
        var_p=var_p,
        var_q=var_q,
        uncertainty=uncertainty,
        p_n=p_n,
        pn_deficit=deficit,
    )

