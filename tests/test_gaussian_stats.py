"""Statistics: variances, squeeze variances, generating function, moments."""

import math
import re
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import qcoupler.gaussian_stats as gaussian_stats
from qcoupler.dynamics import evolve_state, propagator
from qcoupler.exceptions import NumericalError, ValidationError
from qcoupler.gaussian_stats import stats_report
from qcoupler.model import (
    CouplerParams,
    GaussianState,
    InputSpec,
    ModeId,
    ModeSelection,
    VACUUM_INPUT,
    build_input_state,
)
from qcoupler.shortlen import shortlen_state

from conftest import (
    random_couplings,
    random_inputs,
    selection_spectrum,
    shortlen_input,
    spectrum_g,
)

S1, A1, V1, S2, A2, V2 = range(6)


def single(mode):
    return ModeSelection((mode,))


def state_with(**modes):
    inputs = [VACUUM_INPUT] * 6
    for name, spec in modes.items():
        inputs[ModeId[name]] = spec
    return build_input_state(inputs)


def evolved(params, inputs, z):
    return evolve_state(propagator(params, z),
                        build_input_state(inputs))


def test_intensity_variance_coherent_zero():
    s = state_with(S1=InputSpec(xi=2j))
    assert stats_report(s, (S1,)).variance_w == 0.0


def test_intensity_variance_chaotic():
    s = state_with(V1=InputSpec(n_ch=1.0))
    assert stats_report(s, (V1,)).variance_w == pytest.approx(1.0)


def test_intensity_variance_shortlen_regime():
    # stimulated Stokes: leading order is 2 |g|^2 |xi|^2 z^2 = 0.08
    s = evolved(CouplerParams(gS1=1),
                [InputSpec(xi=2)] + [VACUUM_INPUT] * 5, 0.1)
    assert stats_report(s, (S1,)).variance_w == pytest.approx(0.08, abs=2e-3)


def test_compound_variance_can_be_negative():
    # interference term makes the compound variance negative at short z
    s = shortlen_state(CouplerParams(gS1=1, gA1=2),
                       shortlen_input(np.array([2, 2, 0, 0, 0, 0], complex), 0.0, 0.0), 0.05)
    total = stats_report(s, (S1, A1)).variance_w
    # -0.02 is the leading z^2 value; amplitude drift adds O(z^3)
    assert total == pytest.approx(-0.02, abs=5e-4)
    assert total < 0


def test_compound_variance_of_coherent_modes_is_zero():
    s = state_with(S1=InputSpec(xi=1.5), A1=InputSpec(xi=-2j))
    assert stats_report(s, (S1, A1)).variance_w == 0.0


def test_principal_squeeze_vacuum_levels():
    s = build_input_state([VACUUM_INPUT] * 6)
    assert stats_report(s, single(ModeId.S1)).lam == 1.0
    assert stats_report(s, ModeSelection((ModeId.S1, ModeId.V1))).lam == 2.0


def test_principal_squeeze_two_mode_benchmark():
    params = CouplerParams(gS1=1.0)
    s0 = build_input_state([VACUUM_INPUT] * 6)
    for z in (0.5, 1.0, 3.0):
        s = evolve_state(propagator(params, z), s0)
        lam = stats_report(s, ModeSelection((ModeId.S1, ModeId.V1))).lam
        assert lam == pytest.approx(2 * math.exp(-2 * z), abs=1e-9)


def test_principal_squeeze_shortlen_value():
    s = shortlen_state(CouplerParams(gS1=1, gA1=2), shortlen_input(np.zeros(6, complex), 0.0, 0.0),
                       0.1)
    lam = stats_report(s, ModeSelection((ModeId.S1, ModeId.A1))).lam
    assert lam == pytest.approx(1.98, abs=1e-12)


def test_quadrature_variances_vacuum_and_squeezed():
    rep = stats_report(build_input_state([VACUUM_INPUT] * 6), single(ModeId.S1))
    assert (rep.var_p, rep.var_q, rep.uncertainty) == (1.0, 1.0, 1.0)
    rep = stats_report(state_with(S1=InputSpec(r=1.0)), single(ModeId.S1))
    assert rep.var_p == pytest.approx(math.e**2)
    assert rep.var_q == pytest.approx(math.e**-2)
    assert rep.uncertainty == pytest.approx(1.0)


def test_squeeze_digit_alarm_under_gain():
    # gS1 = 1 on vacuum makes S1V1 a two-mode squeezed vacuum: lambda =
    # 2 e^(-2z) while the largest principal variance is 2 e^(2z), so its
    # roundoff passes 1e-8 lambda near z = 4.4, and at z = 14 lambda came
    # out as -2.4e-4
    params = CouplerParams(gS1=1.0)
    s0 = build_input_state([VACUUM_INPUT] * 6)
    sel = ModeSelection((ModeId.S1, ModeId.V1))
    zs = np.linspace(0.0, 3.0, 13)
    rep = stats_report(evolve_state(propagator(params, zs), s0), sel)
    assert np.max(np.abs(rep.lam - 2.0 * np.exp(-2.0 * zs))) < 1e-12
    with pytest.raises(NumericalError, match="quadrature variances lose their digits "
                                             "at z=14.0 for selection S1V1"):
        stats_report(evolve_state(propagator(params, 14.0), s0), sel)
    with pytest.raises(NumericalError, match="at z=5.0 for selection S1V1"):
        stats_report(evolve_state(propagator(params, np.linspace(0.0, 14.0, 15)), s0), sel)
    # without the quadratures there is no alarm, and no quadrature field
    rep = stats_report(evolve_state(propagator(params, 14.0), s0), sel, include_quadratures=False)
    assert (rep.lam, rep.var_p, rep.var_q, rep.uncertainty) == (None, None, None, None)
    assert rep.mean_w == pytest.approx(2.0 * np.sinh(14.0) ** 2)


@pytest.mark.parametrize("modes, entry", [((7,), "7"), (("S1",), "'S1'"), (3, "3"),
                                          ("S1", "'S1'")])
def test_malformed_selection_raises_validation_error(modes, entry):
    # a bare string is rejected whole rather than split into characters
    with pytest.raises(ValidationError, match=re.escape(entry)):
        ModeSelection(modes)
    with pytest.raises(ValidationError, match=re.escape(entry)):
        stats_report(build_input_state([VACUUM_INPUT] * 6), modes)


def test_quadratures_bounded_below_by_principal_variance():
    rng = np.random.default_rng(19)
    for _ in range(20):
        s = evolve_state(propagator(random_couplings(rng),
                                    rng.uniform(0.2, 1.5)),
                         build_input_state(random_inputs(rng)))
        for modes in [(S1,), (V1,), (S1, A1), (A1, V2)]:
            sel = ModeSelection(tuple(ModeId(m) for m in modes))
            rep = stats_report(s, sel)
            assert min(rep.var_p, rep.var_q) >= rep.lam - 1e-12


def test_generating_function_poisson():
    s = state_with(S1=InputSpec(xi=2j))
    lam, w = selection_spectrum(s, single(ModeId.S1))
    out = [spectrum_g(lam, w, sv) for sv in (0.25, 0.5, 1.0)]
    assert np.allclose(out, np.exp(-np.array([0.25, 0.5, 1.0]) * 4.0), atol=1e-14)


def test_generating_function_geometric():
    s = state_with(V1=InputSpec(n_ch=2.0))
    lam, w = selection_spectrum(s, single(ModeId.V1))
    out = [spectrum_g(lam, w, sv) for sv in (0.25, 1.0)]
    assert np.allclose(out, [1 / 1.5, 1 / 3.0], atol=1e-14)


def test_generating_function_calibration():
    """G(0) = 1 exactly; -G'(0) is the mean intensity; the second
    derivative reproduces the closed-form variance.  The report's moments
    are the s=0 jet: <W> = -g_1 and <W^2> = 2 g_2 = (w_2 + 1) <W>^2."""
    rng = np.random.default_rng(40)
    for _ in range(15):
        s = evolve_state(propagator(random_couplings(rng),
                                    rng.uniform(0.2, 1.2)),
                         build_input_state(random_inputs(rng)))
        for modes in [(S1,), (V2,), (S1, V1), (A1, S2)]:
            sel = ModeSelection(tuple(ModeId(m) for m in modes))
            rep = stats_report(s, sel, k_max=2)
            g_1, g_2 = -rep.mean_w, (rep.reduced_moments[0] + 1.0) * rep.mean_w**2 / 2
            lam, w = selection_spectrum(s, sel)
            assert spectrum_g(lam, w, 0.0) == 1.0
            assert -g_1 == pytest.approx(0.5 * np.sum(lam + w),
                                         abs=1e-10 * max(1, rep.mean_w))
            var = 2 * g_2 - g_1 ** 2
            assert var == pytest.approx(rep.variance_w,
                                        abs=1e-8 * max(1.0, abs(rep.variance_w)))


def test_moments_coherent_poisson():
    s = state_with(S1=InputSpec(xi=2j))
    rep = stats_report(s, single(ModeId.S1), 5, 32, include_pn=True)
    assert rep.mean_w == pytest.approx(4.0)
    assert np.allclose(rep.reduced_moments, 0.0, atol=1e-12)
    assert rep.p_n[0] == pytest.approx(math.exp(-4.0), abs=1e-12)
    facts = np.array([math.factorial(n) for n in range(33)], dtype=float)
    ref = np.exp(-4.0) * 4.0 ** np.arange(33) / facts
    assert np.allclose(rep.p_n, ref, atol=1e-12)


def test_moments_chaotic_geometric():
    s = state_with(V1=InputSpec(n_ch=1.0))
    rep = stats_report(s, single(ModeId.V1), 3, 24, include_pn=True)
    assert rep.reduced_moments[0] == pytest.approx(1.0)
    assert np.allclose(rep.p_n, 0.5 ** (np.arange(25) + 1), atol=1e-12)


def poisson(xi):
    """p(n) of a coherent mode of amplitude xi (a double, taken exactly)."""
    return lambda n: mp.exp(-mp.mpf(xi) ** 2) * (mp.mpf(xi) ** 2) ** n / mp.factorial(n)


def negative_binomial(r, nbar):
    """p(n) of W summed over r independent thermal modes of mean nbar each."""
    return lambda n: mp.binomial(n + r - 1, n) * mp.mpf(nbar) ** n / (1 + mp.mpf(nbar)) ** (n + r)


@pytest.mark.parametrize("inputs, modes, mean, pmf, reduced", [
    pytest.param({"S1": InputSpec(xi=math.sqrt(200.0))}, ("S1",), math.sqrt(200.0) ** 2,
                 poisson(math.sqrt(200.0)), lambda k: 0.0, id="coherent-200"),
    pytest.param({"S1": InputSpec(xi=math.sqrt(500.0))}, ("S1",), math.sqrt(500.0) ** 2,
                 poisson(math.sqrt(500.0)), lambda k: 0.0, id="coherent-500"),
    pytest.param({"S1": InputSpec(n_ch=5.0)}, ("S1",), 5.0,
                 negative_binomial(1, 5.0), lambda k: math.factorial(k) - 1.0, id="thermal-5"),
    pytest.param({"S1": InputSpec(n_ch=100.0)}, ("S1",), 100.0,
                 negative_binomial(1, 100.0), lambda k: math.factorial(k) - 1.0,
                 id="thermal-100"),
    pytest.param({"S1": InputSpec(n_ch=20.0), "A1": InputSpec(n_ch=20.0)}, ("S1", "A1"), 40.0,
                 negative_binomial(2, 20.0), lambda k: math.factorial(k + 1) / 2**k - 1.0,
                 id="thermal-pair"),
])
def test_order_512_distribution_matches_closed_forms(inputs, modes, mean, pmf, reduced):
    """p(n) to n = 512 and the moments to k = 8 against 40-digit closed
    forms, at 1e-12 relative with floors 1e-6 (p(n)) and 1 (moments)."""
    sel = ModeSelection(tuple(ModeId[m] for m in modes))
    rep = stats_report(state_with(**inputs), sel, 8, 512, include_pn=True)
    with mp.workdps(40):
        ref = np.array([float(pmf(n)) for n in range(513)])
    assert np.max(np.abs(rep.p_n - ref) / np.maximum(ref, 1e-6)) <= 1e-12
    assert abs(rep.mean_w - mean) <= 1e-12 * mean
    ref_moments = np.array([reduced(k) for k in range(2, 9)])
    assert np.max(np.abs(rep.reduced_moments - ref_moments)
                  / np.maximum(ref_moments, 1.0)) <= 1e-12


@pytest.mark.parametrize("mean", [780.0, 1000.0])
def test_bright_coherent_distribution_matches_poisson(mean):
    """exp(-<W>) is below the double range, yet every p(n) that is not
    must come out to 1e-12 relative (a silent all-zero row is the bug)."""
    xi = math.sqrt(mean)
    s = state_with(S1=InputSpec(xi=xi))
    p_n = stats_report(s, single(ModeId.S1), 2, 512, include_pn=True).p_n
    with mp.workdps(40):
        ref = np.array([float(poisson(xi)(n)) for n in range(513)])
    shown = ref > 1e-300
    assert shown.sum() > 400
    assert np.max(np.abs(p_n[shown] - ref[shown]) / ref[shown]) <= 1e-12
    assert np.all(np.abs(p_n[~shown]) <= 1e-299)


@pytest.mark.parametrize("mean", [1340.0, 1e5])
def test_distribution_beyond_double_range_raises(mean):
    # p(n <= 512) of Poisson(1e5) is below 1e-40000, so all zero.  At 1340
    # p(512) ~ e^-340 exists, but the shifted series seed e^(600 - 1340) is
    # subnormal and would carry its 2e-3 relative error into every p(n).
    s = state_with(S1=InputSpec(xi=math.sqrt(mean)))
    with pytest.raises(NumericalError, match="p\\(n\\) for n <= 512 underflows"):
        stats_report(s, single(ModeId.S1), 2, 512, include_pn=True)


def test_moments_vacuum_markers():
    s = build_input_state([VACUUM_INPUT] * 6)
    rep = stats_report(s, single(ModeId.S1), 4, 8, include_pn=True)
    assert rep.mean_w == 0.0
    assert np.all(np.isnan(rep.reduced_moments))
    assert rep.p_n[0] == 1.0 and np.allclose(rep.p_n[1:], 0.0)


def test_moments_markers_below_normal_range():
    # <W> = sinh^2(1e-160) is subnormal: its digits are gone and 1 / <W>
    # overflows, so the reduced moments are markers, as for vacuum
    s = state_with(S1=InputSpec(r=1e-160))
    rep = stats_report(s, single(ModeId.S1), k_max=4, n_max=8, include_pn=True)
    assert 0.0 < rep.mean_w < np.finfo(float).tiny
    assert np.all(np.isnan(rep.reduced_moments))


def test_distribution_sums_to_one_within_truncation():
    rng = np.random.default_rng(77)
    for _ in range(10):
        s = evolve_state(propagator(random_couplings(rng, mag=1.0),
                                    rng.uniform(0.1, 0.8)),
                         build_input_state(random_inputs(rng, xi_mag=1.5)))
        for modes in [(S1,), (S1, V1)]:
            sel = ModeSelection(tuple(ModeId(m) for m in modes))
            p_n = stats_report(s, sel, 2, 256, include_pn=True).p_n
            assert np.all(p_n >= -1e-12)
            assert 1.0 - p_n.sum() < 1e-6


def test_pn_jet_peaks_below_two_tables():
    # an order-512 jet over 2000 points of a compound selection: its
    # (2000, 513) table, and at most as much again for the work around it
    rng = np.random.default_rng(29)
    lam = rng.uniform(-0.45, 3.0, (2000, 4))
    w = rng.uniform(0.0, 300.0, (2000, 4))
    tracemalloc.start()
    try:
        jet = gaussian_stats._g_jet(lam, w, 512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert jet.shape == (2000, 513)
    assert peak <= 2 * jet.nbytes


def test_sub_poissonian_compound_mode_exists():
    # stimulated Stokes/anti-Stokes with weak thermal phonons: the (S1,A1)
    # compound field turns sub-Poissonian at finite z
    params = CouplerParams(gS1=1, gA1=2)
    inputs = [VACUUM_INPUT] * 6
    inputs[S1] = InputSpec(xi=-2j)
    inputs[A1] = InputSpec(xi=2j)
    inputs[V1] = InputSpec(n_ch=0.1)
    s0 = build_input_state(inputs)
    sel = ModeSelection((ModeId.S1, ModeId.A1))
    w2 = []
    for z in np.linspace(0.05, 2.0, 40):
        rep = stats_report(evolve_state(propagator(params, z), s0), sel, 2, 8, include_pn=True)
        w2.append(rep.reduced_moments[0])
    assert min(w2) < 0


def test_single_modes_stay_classical_without_squeezed_inputs():
    rng = np.random.default_rng(50)
    for _ in range(10):
        params = random_couplings(rng, mag=2.0)
        s0 = build_input_state(random_inputs(rng, squeezed=False))
        for z in rng.uniform(0.1, 2.0, 3):
            s = evolve_state(propagator(params, z), s0)
            assert np.max(np.abs(s.C)) < 1e-12    # C stays zero
            for m in ModeId:
                rep = stats_report(s, single(m), 3, 4, include_pn=True)
                assert rep.lam >= 1.0 - 1e-12
                if rep.mean_w > 0:
                    assert np.min(rep.reduced_moments) >= -1e-12


def test_stats_report_fields_and_cross_check():
    s = evolved(CouplerParams(gS1=0.8), [VACUUM_INPUT] * 6, 0.6)
    rep = stats_report(s, ModeSelection((ModeId.S1, ModeId.V1)),
                       k_max=4, n_max=64, include_pn=True)
    assert rep.mean_w == pytest.approx(2 * math.sinh(0.48) ** 2, abs=1e-10)
    assert rep.lam == pytest.approx(2 * math.exp(-0.96), abs=1e-10)
    assert rep.variance_w == pytest.approx(
        (rep.reduced_moments[0] + 1) * rep.mean_w**2 - rep.mean_w**2, abs=1e-8)
    assert rep.p_n is not None and len(rep.p_n) == 65
    assert abs(rep.pn_deficit) < 1e-6
    assert rep.uncertainty == pytest.approx(rep.lam * (2 * math.exp(0.96)), abs=1e-9)


def test_statistics_respect_waveguide_exchange():
    rng = np.random.default_rng(60)
    for _ in range(5):
        params = random_couplings(rng, mag=2.0)
        inputs = random_inputs(rng)
        z = rng.uniform(0.2, 1.5)
        s = evolve_state(propagator(params, z),
                         build_input_state(inputs))
        swapped_inputs = tuple(inputs[j] for j in (3, 4, 5, 0, 1, 2))
        s_sw = evolve_state(propagator(params.swapped(), z),
                            build_input_state(swapped_inputs))
        for modes in [(S1,), (A2,), (S1, A1), (S2, V1), (V1, V2)]:
            sel = ModeSelection(tuple(ModeId(m) for m in modes))
            rep = stats_report(s, sel, k_max=4, n_max=32, include_pn=True)
            rep_sw = stats_report(s_sw, sel.permuted(), k_max=4, n_max=32,
                                  include_pn=True)
            scale = max(1.0, abs(rep.mean_w))
            assert rep_sw.mean_w == pytest.approx(rep.mean_w, abs=1e-10 * scale)
            assert rep_sw.lam == pytest.approx(rep.lam, abs=1e-10 * scale)
            assert np.allclose(rep_sw.p_n, rep.p_n, atol=1e-10)
            both = np.stack([rep.reduced_moments, rep_sw.reduced_moments])
            if not np.any(np.isnan(both)):
                assert np.allclose(both[0], both[1], atol=1e-10, rtol=1e-10)


def test_singular_generating_function_raises():
    # an unphysical state drives an eigenvalue of the doubled covariance
    # past -1 and the evaluation at s = 1 must refuse
    bad = GaussianState(
        xi=np.zeros(6, complex),
        N=np.diag(np.full(6, -1.5 + 0j)), M=np.zeros((6, 6), complex),
    )
    with pytest.raises(NumericalError):
        stats_report(bad, single(ModeId.S1), 2, 8, include_pn=True)


@pytest.mark.parametrize("spec, include_pn, message", [
    # B^2 = 2.25e308 in <:(dW)^2:>
    (InputSpec(n_ch=1.5e154), False, "the intensity variance is not finite"),
    # the spectrum's weight 2 |xi|^2 = 3.4e308 in p(n)
    (InputSpec(xi=1.3e154), True, "p\\(n\\) is not finite"),
    # the uncertainty product lambda (1 + 2 (S + |P|)) of a squeezed bright field
    (InputSpec(r=1.0, n_ch=1.3e154), False, "u is not finite"),
], ids=["variance", "pn", "uncertainty"])
def test_statistics_beyond_double_range_raise(spec, include_pn, message):
    # every input moment is a double; a statistic built from them is not
    states = evolve_state(propagator(CouplerParams(gA1=0.5), [0.0, 0.1]),
                          build_input_state([spec] + [VACUUM_INPUT] * 5))
    with np.errstate(over="ignore", invalid="ignore"):  # numpy's overflow warnings come first
        with pytest.raises(NumericalError, match=f"^{message} at z=0.0 for selection S1$"):
            stats_report(states, single(ModeId.S1), 2, 8, include_pn=include_pn)


def test_variance_cross_check_holds_where_mean_squared_overflows(monkeypatch):
    # <W> = 1e156: its square overflows, yet a 1% error in the closed-form
    # variance (about 2e306) stands far above 1e-8 of every scale
    from qcoupler import gaussian_stats

    states = evolve_state(
        propagator(CouplerParams(gS1=0.1, gA1=0.2), [0.0, 0.1]),
        build_input_state([InputSpec(xi=1e78, n_ch=1e150)] + [VACUUM_INPUT] * 5))
    exact = gaussian_stats._intensity_variance
    assert np.all(stats_report(states, single(ModeId.S1)).variance_w > 2e306)
    monkeypatch.setattr(gaussian_stats, "_intensity_variance",
                        lambda *block: 1.01 * exact(*block))
    with pytest.raises(NumericalError, match="^intensity variance cross-check failed at z=0.0 "
                                             "for selection S1: "):
        stats_report(states, single(ModeId.S1))
