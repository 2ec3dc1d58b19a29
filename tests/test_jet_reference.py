"""Generating-function jets against 40-digit references.

The closed-form tests elsewhere cover single modes and equal
eigenvalues.  Here the stacked p(n) jet ``_g_jet`` at s=1, and the
moments' trace series at s=0 on the diagonal covariance of each spectrum,
are checked on spectra they miss: four distinct eigenvalues with squeezed
(negative) ones, a repeated thermal pair, and a bright row; and the
squeezed vacuum, whose two eigenvalues give log-series ratios P of
opposite sign, at order 512.  The trace series is also checked on a
weakly squeezed vacuum, whose <W> lies far below its eigenvalues.
"""

import math

import mpmath as mp
import numpy as np
import pytest

import qcoupler.gaussian_stats as gaussian_stats
from qcoupler.gaussian_stats import stats_report
from qcoupler.model import VACUUM_INPUT, InputSpec, ModeId, ModeSelection, build_input_state

from conftest import doubled_block, trace_series_jet, unreduced_jet

DPS = 40
TOL = 1e-12
COLUMN_FLOOR = 1.0   # s = 0: moments
PN_FLOOR = 1e-6      # s = 1: p(n)

# rows: distinct eigenvalues, two of them squeezed; a thermal pair; a bright row
LAM = np.array([[-0.35, -0.12, 0.8, 2.6],
                [1.3, 1.3, 0.25, 0.25],
                [-0.04, 0.0, 0.03, 0.15]])
W = np.array([[0.3, 1.1, 0.0, 2.4],
              [0.9, 0.4, 0.0, 0.0],
              [140.0, 110.0, 70.0, 30.0]])


def mp_jet(lam, w, s0, order):
    """The jet of one spectrum at DPS digits: the closed-form log-series,
    then the exponential recurrence n f_n = sum_k k h_k f_(n-k)."""
    with mp.workdps(DPS):
        lam = [mp.mpf(float(x)) for x in lam]
        w = [mp.mpf(float(x)) for x in w]
        a = [1 + s0 * x for x in lam]
        p = [-x / y for x, y in zip(lam, a)]
        q = [x / y**2 for x, y in zip(w, a)]
        h = [-mp.fsum(mp.log(y) + s0 * x / y for x, y in zip(w, a)) / 2]
        powers = [mp.mpf(1)] * len(lam)   # P_i^(n-1)
        for n in range(1, order + 1):
            h.append(mp.fsum(pw * (pi / n - qi) for pw, pi, qi in zip(powers, p, q)) / 2)
            powers = [pw * pi for pw, pi in zip(powers, p)]
        kh = [n * hn for n, hn in enumerate(h)]
        f = [mp.exp(h[0])]
        for n in range(1, order + 1):
            f.append(mp.fdot(kh[1:n + 1], f[::-1]) / n)
        return np.array([float(x) for x in f])


def deviation(actual, expected, floor):
    return float(np.max(np.abs(actual - expected) / np.maximum(np.abs(expected), floor)))


@pytest.fixture(scope="module")
def references():
    """40-digit jets of every row to the highest order any case asks for;
    a lower-order jet is a prefix of a higher-order one."""
    return {s0: [mp_jet(LAM[i], W[i], s0, order) for i in range(len(LAM))]
            for s0, order in [(0.0, 8), (1.0, 512)]}


@pytest.mark.parametrize("s0, order, floor", [(0.0, 8, COLUMN_FLOOR), (1.0, 64, PN_FLOOR),
                                             (1.0, 512, PN_FLOOR)])
def test_stacked_jet_matches_mpmath(references, s0, order, floor):
    assert W[2].sum() == pytest.approx(350.0)
    if s0 == 0.0:
        jets = trace_series_jet(LAM, W, order)
    else:
        jets = gaussian_stats._g_jet(LAM, W, order)
    assert jets.shape == (len(LAM), order + 1)
    for i, ref in enumerate(references[s0]):
        assert deviation(jets[i], ref[:order + 1], floor) <= TOL, i


def test_squeezed_vacuum_pn_at_order_512():
    r, n_max = 1.5, 512
    inputs = [VACUUM_INPUT] * 6
    inputs[ModeId.S1] = InputSpec(r=r, theta=0.4)
    state = build_input_state(inputs)
    p_n = stats_report(state, ModeSelection((ModeId.S1,)), k_max=2, n_max=n_max,
                       include_pn=True).p_n
    with mp.workdps(DPS):
        t2, c = mp.tanh(r) ** 2, mp.cosh(r)
        # p(2m) = (2m)! / (4^m (m!)^2) tanh^(2m) r / cosh r
        even = np.array([float(mp.binomial(2 * m, m) / 4**m * t2**m / c)
                         for m in range(n_max // 2 + 1)])
    assert deviation(p_n[0::2], even, PN_FLOOR) <= TOL
    assert np.max(np.abs(p_n[1::2])) <= 1e-14
    # most of the mass sits in the first orders; the check is not vacuous
    assert even[0] == pytest.approx(1.0 / math.cosh(r)) and p_n[0] > 0.4


def squeezed_vacuum_jet(r, order):
    """Taylor coefficients of G(s) = (1 + 2 s n - s^2 n)^(-1/2), n = sinh^2 r,
    at DPS digits: the binomial series of a squeezed vacuum, whose doubled
    covariance has eigenvalues n +/- sinh r cosh r."""
    with mp.workdps(DPS):
        n = mp.sinh(mp.mpf(r)) ** 2
        u = [mp.mpf(0), 2 * n, -n] + [mp.mpf(0)] * order
        g = [mp.mpf(1)] + [mp.mpf(0)] * order
        u_j = g[:]
        for j in range(1, order + 1):   # u^j starts at s^j, so j <= order suffices
            u_j = [mp.fsum(u_j[i] * u[k - i] for i in range(k + 1)) for k in range(order + 1)]
            g = [a + mp.binomial(mp.mpf(-0.5), j) * b for a, b in zip(g, u_j)]
        return n, g


@pytest.mark.parametrize("r", [1e-62, 1e-20, 1e-6, 1e-3])
def test_weakly_squeezed_vacuum_moments_keep_their_digits(r):
    """<W> ~ r^2 is far below the eigenvalues +/- r of the doubled block,
    yet <W> and every reduced moment come out to 1e-12 relative; a
    reduced moment beyond the double range (k >= 6 at r = 1e-62) is inf.
    Unreduced (scale 1, the route of a vacuum row), the same trace series
    keeps every coefficient that is a normal double to 1e-12 relative."""
    order = 8
    inputs = [VACUUM_INPUT] * 6
    inputs[ModeId.S1] = InputSpec(r=r, theta=0.3)
    state = build_input_state(inputs)
    sel = ModeSelection((ModeId.S1,))
    n, g = squeezed_vacuum_jet(r, order)
    with mp.workdps(DPS):
        # the trace series holds g_k / <W>^k, and w_k = (-1)^k k! g_k / <W>^k - 1
        reduced_jet = [g[k] / n**k for k in range(order + 1)]
        w = [(-1) ** k * mp.factorial(k) * reduced_jet[k] - 1 for k in range(2, order + 1)]
    report = stats_report(state, sel, order, 8, include_pn=True)
    mean_w, moments = report.mean_w, report.reduced_moments
    assert abs(mean_w - float(n)) <= 1e-15 * float(n)
    block = doubled_block(state, sel)
    with np.errstate(over="ignore"):
        jet = gaussian_stats._series_exp(
            gaussian_stats._reduced_log_series(*block, mean_w, mean_w, order))
    for k, ref in enumerate(reduced_jet):
        if abs(ref) < 1e300:
            assert abs(jet[k] - float(ref)) <= 1e-12 * abs(float(ref)), k
    public = unreduced_jet(*block, mean_w, order)
    for k, ref in enumerate(g):
        if abs(ref) >= np.finfo(float).tiny:
            assert abs(public[k] - float(ref)) <= 1e-12 * abs(float(ref)), k
    for k, ref in zip(range(2, order + 1), w):
        if ref < 1e300:
            assert abs(moments[k - 2] - float(ref)) <= 1e-12 * float(ref), k
        else:
            assert moments[k - 2] == np.inf, k
    assert np.all(np.isfinite(moments[:4]))   # w_2 .. w_5, the presets' k_max = 5
    if r == 1e-20:
        assert mean_w == pytest.approx(1e-40, rel=1e-12)
        assert moments[1] == pytest.approx(9e40, rel=1e-12)
