"""Randomized properties of the photon-number distribution p(n) and the
s=0 jet.

Over random stable couplers, inputs and selections: p(n) is a
subprobability, it is unchanged by exchanging the guides, and where the
tail beyond n_max is negligible its first two factorial moments are the
moments of the s=0 jet.  The moments' trace series, which needs no
eigendecomposition, gives the same s=0 jet as the closed product form of
the eigen spectrum.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import qcoupler.gaussian_stats as gaussian_stats
from qcoupler.dynamics import evolve_state, propagator
from qcoupler.gaussian_stats import stats_report
from qcoupler.model import CouplerParams, InputSpec, ModeId, ModeSelection, build_input_state

from conftest import (
    PROPERTY_PHASES,
    doubled_block,
    growth_rate,
    permute_state,
    selection_spectrum,
    spectrum_jet,
    unreduced_jet,
)

N_MAX = 96

# each anti-Stokes coupling is stronger than its Stokes partner, so most
# draws are stable
magnitudes = st.builds(lambda s, e, k: [s[0], s[0] + e[0], s[1], s[1] + e[1], *k],
                       st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
                       st.lists(st.floats(0.3, 1.0), min_size=2, max_size=2),
                       st.lists(st.floats(0.0, 1.5), min_size=2, max_size=2))
phases = st.lists(st.floats(-3.1, 3.1), min_size=6, max_size=6)
inputs = st.builds(
    InputSpec,
    xi=st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    r=st.floats(0.0, 0.8),
    theta=st.floats(-3.0, 3.0),
    n_ch=st.floats(0.0, 1.0),
)
selections = st.sampled_from([ModeSelection((m,)) for m in ModeId]
                             + [ModeSelection((ModeId.S1, ModeId.A1)),
                                ModeSelection((ModeId.S1, ModeId.V2)),
                                ModeSelection((ModeId.A1, ModeId.V1)),
                                ModeSelection((ModeId.A2, ModeId.V2))])


def stable_state(mags, phase, specs, z_max):
    """The input state evolved over five lengths up to z_max; draws with
    gain (an eigenvalue of the generator with positive real part) are
    rejected."""
    g = [m * np.exp(1j * p) for m, p in zip(mags, phase)]
    params = CouplerParams(gS1=g[0], gA1=g[1], gS2=g[2], gA2=g[3], kappaS=g[4], kappaA=g[5])
    assume(growth_rate(params) <= 1e-9)
    return evolve_state(propagator(params, np.linspace(0.0, z_max, 5)), build_input_state(specs))


@settings(max_examples=60, deadline=None, phases=PROPERTY_PHASES)
@given(mags=magnitudes, phase=phases, specs=st.lists(inputs, min_size=6, max_size=6),
       z_max=st.floats(0.05, 2.0), sel=selections)
def test_pn_properties(mags, phase, specs, z_max, sel):
    state = stable_state(mags, phase, specs, z_max)
    report = stats_report(state, sel, k_max=2, n_max=N_MAX, include_pn=True)
    p_n = report.p_n
    total = p_n.sum(axis=-1)
    assert np.min(p_n) >= -1e-14
    assert np.all(total > 0.0) and np.all(total <= 1.0 + 1e-12)

    swapped = stats_report(permute_state(state), sel.permuted(), k_max=2, n_max=N_MAX,
                           include_pn=True).p_n
    assert np.max(np.abs(swapped - p_n)) <= 1e-12

    # <W^k> = (-1)^k G^(k)(0) are normally ordered: <W> = sum n p(n) and
    # <W^2> = 2 g_2 = sum n (n - 1) p(n).  A thermal-like tail of mass d
    # beyond n_max holds a share of about d ln(1/d)^2 / 2 of <W^2> (4e-10
    # at d = 1e-12), so only rows whose deficit is at roundoff level count.
    # The jet's <W> = (1/2) sum_i (lam_i + w_i) carries an absolute error of
    # about eps max|lam_i|, and a weakly squeezed mode has max|lam_i| ~ |C|
    # <= sqrt(<W>); the floor keeps that error inside the tolerance.
    jet = unreduced_jet(*doubled_block(state, sel), report.mean_w, 2)
    n = np.arange(N_MAX + 1)
    full = 1.0 - total < 1e-14
    for moment, weights in [(-jet[..., 1], n), (2.0 * jet[..., 2], n * (n - 1.0))]:
        error = np.abs(p_n @ weights - moment)
        assert np.all((error <= 1e-10 * np.maximum(np.abs(moment), 1e-9))[full])


@settings(max_examples=60, deadline=None, phases=PROPERTY_PHASES)
@given(mags=magnitudes, phase=phases, specs=st.lists(inputs, min_size=6, max_size=6),
       z_max=st.floats(0.05, 2.0), sel=selections, order=st.integers(2, 8))
def test_trace_series_jet_equals_eigen_jet(mags, phase, specs, z_max, sel, order):
    # the trace series reduced by <W> holds g_k / <W>^k; undo the reduction
    # to compare jets.  A reduced coefficient exceeds the double range only
    # for a weakly squeezed near-vacuum row, where it grows like <W>^(-k/2).
    state = stable_state(mags, phase, specs, z_max)
    mean_w = stats_report(state, sel, k_max=order).mean_w
    scale = np.where(mean_w >= np.finfo(float).tiny, mean_w, 1.0)
    block = doubled_block(state, sel)
    with np.errstate(over="ignore", invalid="ignore"):
        reduced = gaussian_stats._series_exp(
            gaussian_stats._reduced_log_series(*block, mean_w, scale, order))
    finite = np.all(np.isfinite(reduced), axis=-1)
    assert np.all(finite | (mean_w < 1e-70))
    jet = reduced[finite] * scale[finite, None] ** np.arange(order + 1)
    eigen = np.array([spectrum_jet(lam, w, 0.0, order)
                      for lam, w in zip(*selection_spectrum(state, sel))])[finite]
    assert np.max(np.abs(jet - eigen) / np.maximum(np.abs(eigen), 1.0), initial=0.0) <= 1e-12
