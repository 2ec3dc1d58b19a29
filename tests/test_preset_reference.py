"""Preset sweeps against a 40-digit reference built from first principles.

The goldens of the benchmark are copies of earlier output of this code.
Here a sweep's rows are checked against mpmath instead: the generator
i M of the coupled-mode equations dA/dz = i(K A + L A^+) written out
from the couplings, its exponential T = exp(i M z) by ``mp.expm``, the
second moments Q = T S T^T of (dA; dA^+), and the moments' trace series
of the selection block, each at 40 digits.  Only the input state is taken
from ``build_input_state``: its coherent amplitudes are exact doubles.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from qcoupler.cli import run_scenario
from qcoupler.dynamics import build_drift_matrix
from qcoupler.model import ModeId, build_input_state, validate_params
from qcoupler.presets import load_preset

DPS = 40
TOL = 1e-12
COLUMN_FLOOR = 1.0
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


def mp_moments(cfg, z, sel, k_max):
    """(<W>, [w_2..w_k_max]) of the selection at length z, at DPS digits.

    With X = (A; A^+), the input moments S = <dX dX^T> are
    [[M0, N0^T + I], [N0, M0*]]; at z they are Q = T S T^T, so M = Q[:6, :6]
    and N = Q[6:, :6], and the means are the first six entries of T (xi; xi*).
    log G(s) of W = sum over sel of A^+ A has h_1 = -<W> and
    h_k = (1/2)[tr((-Gamma)^k)/k - y^H (-Gamma)^(k-1) y] with
    Gamma = [[n^T, m], [m*, n]] and y = (x, x*); then <W^k> = (-1)^k k! g_k
    for G = exp(sum h_k s^k) = sum g_k s^k, and w_k = <W^k>/<W>^k - 1.
    """
    s0 = build_input_state(cfg.inputs)
    n0, m0 = mp.matrix(s0.N.tolist()), mp.matrix(s0.M.tolist())
    s = mp.zeros(12, 12)
    for i in range(6):
        for j in range(6):
            s[i, j], s[i, j + 6] = m0[i, j], n0[j, i] + (1 if i == j else 0)
            s[i + 6, j], s[i + 6, j + 6] = n0[i, j], mp.conj(m0[i, j])
    t = mp.expm(mp_generator(cfg.params) * mp.mpf(z))
    q = t * s * t.T
    xi = t * mp.matrix([mp.mpc(x) for x in s0.xi] + [mp.conj(mp.mpc(x)) for x in s0.xi])
    ix = [int(mode) for mode in sel.modes]
    d = len(ix)
    gamma, y = mp.zeros(2 * d, 2 * d), mp.zeros(2 * d, 1)
    for a, i in enumerate(ix):
        y[a], y[a + d] = xi[i], mp.conj(xi[i])
        for b, j in enumerate(ix):
            n_ab, n_ba, m_ab = q[6 + i, j], q[6 + j, i], q[i, j]
            gamma[a, b], gamma[a, b + d] = n_ba, m_ab
            gamma[a + d, b], gamma[a + d, b + d] = mp.conj(m_ab), n_ab
    mean_w = mp.re(sum(q[6 + i, i] for i in ix)) + sum(abs(xi[i]) ** 2 for i in ix)
    h = [mp.mpf(0), -mean_w]
    power = -gamma                               # (-Gamma)^(k-1) for the y term
    for k in range(2, k_max + 1):
        vec = (y.H * power * y)[0]
        power = power * -gamma
        trace = sum(power[a, a] for a in range(2 * d))
        h.append(mp.re(trace / k - vec) / 2)
    g = [mp.mpf(1)]
    for n in range(1, k_max + 1):
        g.append(mp.fsum(k * h[k] * g[n - k] for k in range(1, n + 1)) / n)
    reduced = [(-1) ** k * math.factorial(k) * g[k] / mean_w**k - 1 for k in range(2, k_max + 1)]
    return mean_w, reduced


def deviation(actual, expected, floor):
    return abs(actual - expected) / max(abs(expected), floor)


def test_generator_matches_drift_matrix():
    # the reference writes the coupled-mode equations itself; it must be
    # the drift matrix the sweep exponentiates
    params = load_preset("fig6").params
    with mp.workdps(DPS):
        gen = np.array(mp_generator(params).tolist(), dtype=complex)
    assert np.array_equal(gen, 1j * build_drift_matrix(validate_params(params)).matrix)


@pytest.mark.parametrize("row", [0, 290, 499])
def test_fig5_moments_match_40_digit_reference(row):
    # every moment column of fig5 (S1A1, V1S2, A1A2); at row 290 V1S2 has
    # <W> = 0.02, the cell where the eigen route's error showed most
    cfg = load_preset("fig5")
    result = run_scenario(cfg)
    columns = dict(result.columns)
    selections = [sel for tag, sel in cfg.effective_observables() if tag == "moments"]
    assert [sel.name for sel in selections] == ["S1A1", "V1S2", "A1A2"]
    checked = 0
    with mp.workdps(DPS):
        for sel in selections:
            mean_w, reduced = mp_moments(cfg, result.z[row], sel, cfg.k_max)
            expected = {"meanW": mean_w, **{f"w{k}": r for k, r in enumerate(reduced, start=2)}}
            for qty, value in expected.items():
                actual = columns[f"{sel.name}.{qty}"][row]
                assert deviation(actual, float(value), COLUMN_FLOOR) <= TOL, (sel.name, qty)
                checked += 1
    assert checked == len(columns) == 3 * cfg.k_max
