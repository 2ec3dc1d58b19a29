"""Preset sweeps against a 40-digit reference built from first principles.

The goldens of the benchmark are copies of earlier output of this code.
Here a sweep's rows are checked against mpmath instead: the generator
i M of the coupled-mode equations dA/dz = i(K A + L A^+) written out
from the couplings, its exponential T = exp(i M z) by ``mp.expm``, the
second moments Q = T S T^T of (dA; dA^+), and from them the moments'
trace series of the selection block, its p(n) from the trace series of
log G around s = 1, and the variances c^T Q c of its quadratures, each
at 40 digits.  Only the input state is taken from
``build_input_state``: its coherent amplitudes are exact doubles.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from qcoupler.cli import run_scenario
from qcoupler.dynamics import build_drift_matrix
from qcoupler.model import ModeId, ModeSelection, build_input_state
from qcoupler.presets import PRESET_NAMES, load_preset

from conftest import run_preset

DPS = 40
TOL = 1e-12
COLUMN_FLOOR = 1.0
PN_FLOOR = 1e-6
S1, A1, V1, S2, A2, V2 = ModeId


def mp_generator(p):
    """i M over (A; A^+): K couples the anti-Stokes and phonon modes of a
    guide (gA) and the guides (kappa), L the Stokes and phonon modes (gS);
    K is Hermitian and L symmetric, and M = [[K, L], [-L*, -K*]]."""
    k, l = mp.zeros(6, 6), mp.zeros(6, 6)
    for s, a, v, gs, ga in ((S1, A1, V1, p.gS1, p.gA1), (S2, A2, V2, p.gS2, p.gA2)):
        k[a, v] = mp.mpc(ga)
        l[s, v] = l[v, s] = mp.mpc(gs)
    k[S1, S2], k[A1, A2] = mp.conj(mp.mpc(p.kappaS)), mp.conj(mp.mpc(p.kappaA))
    k = k + k.H
    m = mp.zeros(12, 12)
    for i in range(6):
        for j in range(6):
            m[i, j], m[i, j + 6] = k[i, j], l[i, j]
            m[i + 6, j], m[i + 6, j + 6] = -mp.conj(l[i, j]), -mp.conj(k[i, j])
    return 1j * m


def mp_second_moments(cfg, z):
    """(Q, means of X) at length z, at DPS digits.

    With X = (A; A^+), the input moments S = <dX dX^T> are
    [[M0, N0^T + I], [N0, M0*]]; at z they are Q = T S T^T, so M = Q[:6, :6]
    and N = Q[6:, :6], and the means of X are T (xi; xi*).
    """
    s0 = build_input_state(cfg.inputs)
    n0, m0 = mp.matrix(s0.N.tolist()), mp.matrix(s0.M.tolist())
    s = mp.zeros(12, 12)
    for i in range(6):
        for j in range(6):
            s[i, j], s[i, j + 6] = m0[i, j], n0[j, i] + (1 if i == j else 0)
            s[i + 6, j], s[i + 6, j + 6] = n0[i, j], mp.conj(m0[i, j])
    t = mp.expm(mp_generator(cfg.params) * mp.mpf(z))
    xi = t * mp.matrix([mp.mpc(x) for x in s0.xi] + [mp.conj(mp.mpc(x)) for x in s0.xi])
    return t * s * t.T, xi


def mp_selection_block(cfg, z, sel):
    """(Gamma, y): the doubled covariance [[n^T, m], [m*, n]] and the
    doubled mean (x, x*) of the selection's block at length z, at DPS
    digits."""
    q, xi = mp_second_moments(cfg, z)
    ix = [int(mode) for mode in sel.modes]
    d = len(ix)
    gamma, y = mp.zeros(2 * d, 2 * d), mp.zeros(2 * d, 1)
    for a, i in enumerate(ix):
        y[a], y[a + d] = xi[i], mp.conj(xi[i])
        for b, j in enumerate(ix):
            n_ab, n_ba, m_ab = q[6 + i, j], q[6 + j, i], q[i, j]
            gamma[a, b], gamma[a, b + d] = n_ba, m_ab
            gamma[a + d, b], gamma[a + d, b + d] = mp.conj(m_ab), n_ab
    return gamma, y


def mp_series_exp(h):
    """exp of the power series h: n g_n = sum_k k h_k g_(n-k)."""
    g = [mp.exp(h[0])]
    for n in range(1, len(h)):
        g.append(mp.fsum(k * h[k] * g[n - k] for k in range(1, n + 1)) / n)
    return g


def mp_moments(cfg, z, sel, k_max):
    """(<W>, [w_2..w_k_max]) of the selection at length z, at DPS digits.

    log G(s) of W = sum over sel of A^+ A has h_1 = -<W> and
    h_k = (1/2)[tr((-Gamma)^k)/k - y^H (-Gamma)^(k-1) y] with
    Gamma = [[n^T, m], [m*, n]] and y = (x, x*); then <W^k> = (-1)^k k! g_k
    for G = exp(sum h_k s^k) = sum g_k s^k, and w_k = <W^k>/<W>^k - 1.
    """
    gamma, y = mp_selection_block(cfg, z, sel)
    d = gamma.rows // 2
    mean_w = sum(mp.re(gamma[a + d, a + d]) + abs(y[a]) ** 2 for a in range(d))
    h = [mp.mpf(0), -mean_w]
    power = -gamma                               # (-Gamma)^(k-1) for the y term
    for k in range(2, k_max + 1):
        vec = (y.H * power * y)[0]
        power = power * -gamma
        trace = sum(power[a, a] for a in range(2 * d))
        h.append(mp.re(trace / k - vec) / 2)
    g = mp_series_exp(h)
    reduced = [(-1) ** k * math.factorial(k) * g[k] / mean_w**k - 1 for k in range(2, k_max + 1)]
    return mean_w, reduced


def mp_distribution(cfg, z, sel, n_max):
    """[p(0)..p(n_max)] of the selection at length z, at DPS digits.

    Around s = 1, with A = 1 + Gamma and B = A^-1 Gamma,
    1 + (1 + t) Gamma = A (1 + t B), so
    log G(1 + t) = -(1/2)[log det A + sum_k (-1)^(k+1) tr(B^k) t^k / k]
                   - (1/2)(1 + t) sum_k (-t)^k y^H B^k A^-1 y,
    and p(n) = (-1)^n g_n for G(1 + t) = sum g_n t^n.
    """
    gamma, y = mp_selection_block(cfg, z, sel)
    eye = mp.eye(gamma.rows)
    a_inv = mp.inverse(eye + gamma)
    b = a_inv * gamma
    power, vec = eye, a_inv * y                  # B^k and B^k A^-1 y
    traces, c = [None], [mp.re((y.H * vec)[0])]
    for _ in range(n_max):
        power, vec = power * b, b * vec
        traces.append(mp.re(sum(power[i, i] for i in range(gamma.rows))))
        c.append(mp.re((y.H * vec)[0]))
    h = [(-mp.log(mp.re(mp.det(eye + gamma))) - c[0]) / 2]
    for k in range(1, n_max + 1):
        h.append((-(-1) ** (k + 1) * traces[k] / k - (-1) ** k * (c[k] - c[k - 1])) / 2)
    return [(-1) ** n * g for n, g in enumerate(mp_series_exp(h))]


def mp_quadratures(cfg, z, sel):
    """(lambda, var_p, var_q, u) of the selection at length z, at DPS digits.

    A quadrature c^T dX has the variance c^T Q c: p = sum over sel of
    A + A^+ has c = 1 on the selected entries of both halves, and
    q = -i sum (A - A^+) has c = -i on A and i on A^+.  The quadrature
    e^(-i theta) A + e^(i theta) A^+ is cos(theta) p + sin(theta) q, so
    the principal variances are the eigenvalues of the symmetrised
    covariance V of (p, q): lambda is the smaller, and u = det V.
    """
    q = mp_second_moments(cfg, z)[0]
    cp, cq = mp.zeros(12, 1), mp.zeros(12, 1)
    for mode in sel.modes:
        cp[int(mode)] = cp[int(mode) + 6] = 1
        cq[int(mode)], cq[int(mode) + 6] = -1j, 1j
    var_p, var_q = mp.re((cp.T * q * cp)[0]), mp.re((cq.T * q * cq)[0])
    cov = mp.re((cp.T * q * cq)[0] + (cq.T * q * cp)[0]) / 2
    lam = (var_p + var_q) / 2 - mp.sqrt(((var_p - var_q) / 2) ** 2 + cov**2)
    return lam, var_p, var_q, var_p * var_q - cov**2


def deviation(actual, expected, floor):
    return abs(actual - expected) / max(abs(expected), floor)


def test_generator_matches_drift_matrix():
    # the reference writes the coupled-mode equations itself; it must be
    # the drift matrix the sweep exponentiates
    params = load_preset("fig6").params
    with mp.workdps(DPS):
        gen = np.array(mp_generator(params).tolist(), dtype=complex)
    assert np.array_equal(gen, 1j * build_drift_matrix(params))


def assert_moment_rows(cfg, result, rows):
    """Every moment column of the sweep at these rows against the
    reference; returns the names of the columns checked."""
    columns = dict(result.columns)
    selections = [sel for tag, sel in cfg.effective_observables() if tag == "moments"]
    checked = set()
    with mp.workdps(DPS):
        for sel in selections:
            for row in rows:
                mean_w, reduced = mp_moments(cfg, result.z[row], sel, cfg.k_max)
                expected = {"meanW": mean_w,
                            **{f"w{k}": r for k, r in enumerate(reduced, start=2)}}
                for qty, value in expected.items():
                    actual = columns[f"{sel.name}.{qty}"][row]
                    assert deviation(actual, float(value), COLUMN_FLOOR) <= TOL, (sel.name, row, qty)
                    checked.add(f"{sel.name}.{qty}")
    return checked


@pytest.mark.parametrize("row", [0, 290, 499])
def test_fig5_moments_match_40_digit_reference(row):
    # every moment column of fig5 (S1A1, V1S2, A1A2); at row 290 V1S2 has
    # <W> = 0.02, the cell where the eigen route's error showed most
    cfg = load_preset("fig5")
    result = run_scenario(cfg)
    assert [sel.name for tag, sel in cfg.effective_observables()] == ["S1A1", "V1S2", "A1A2"]
    checked = assert_moment_rows(cfg, result, [row])
    assert checked == set(dict(result.columns)) and len(checked) == 3 * cfg.k_max


MOMENT_PRESETS = [name for name in PRESET_NAMES
                  if any(tag == "moments" for tag, _ in load_preset(name).effective_observables())]


@pytest.mark.parametrize("name", MOMENT_PRESETS)
def test_preset_moments_match_40_digit_reference(name):
    # every moment column of every preset at the middle and last rows
    cfg = load_preset(name)
    result = run_preset(name)
    assert len(result.z) == 500
    moment_columns = {name for name, _ in result.columns
                      if name.split(".")[1] == "meanW" or name.split(".")[1].startswith("w")}
    assert assert_moment_rows(cfg, result, [250, 499]) == moment_columns


@pytest.mark.parametrize("name, selection", [("fig3", "A1S2"), ("fig6", "S1A1"),
                                             ("fig8", "S1V1")])
def test_quadrature_columns_match_40_digit_reference(name, selection):
    # lambda, var_p, var_q and u of every preset that reports them
    cfg = load_preset(name)
    result = run_scenario(cfg)
    columns = dict(result.columns)
    sel = ModeSelection.parse(selection)
    with mp.workdps(DPS):
        for row in (0, 250, 499):
            expected = dict(zip(("lambda", "var_p", "var_q", "u"),
                                mp_quadratures(cfg, result.z[row], sel)))
            for qty, value in expected.items():
                actual = columns[f"{selection}.{qty}"][row]
                assert deviation(actual, float(value), COLUMN_FLOOR) <= TOL, (row, qty)


@pytest.mark.parametrize("name", ["fig3", "fig4", "fig7"])
def test_preset_distributions_match_40_digit_reference(name):
    # every p(n) of every preset that reports them, at the first, middle
    # and last rows; fig7's row 499 is its brightest
    cfg = load_preset(name)
    result = run_preset(name)
    (sel_name, table), = result.pn_tables
    sel = ModeSelection.parse(sel_name)
    assert table.shape == (500, cfg.n_max + 1)
    with mp.workdps(DPS):
        for row in (0, 250, 499):
            expected = mp_distribution(cfg, result.z[row], sel, cfg.n_max)
            for n, value in enumerate(expected):
                assert deviation(table[row, n], float(value), PN_FLOOR) <= TOL, (row, n)
