"""Statistics: variances, squeeze variances, generating function, moments."""

import math

import mpmath as mp
import numpy as np
import pytest

from qcoupler.dynamics import build_drift_matrix, evolve_state, propagator
from qcoupler.exceptions import NumericalError
from qcoupler.gaussian_stats import (
    generating_function,
    generating_function_jet,
    intensity_variance,
    mean_intensity,
    moments_and_distribution,
    principal_squeeze,
    quadrature_variances,
    stats_report,
)
from qcoupler.model import (
    GaussianState,
    InputSpec,
    ModeId,
    ModeSelection,
    VACUUM_INPUT,
    build_input_state,
)
from qcoupler.shortlen import shortlen_state

from conftest import quiet_params, random_couplings, random_inputs

S1, A1, V1, S2, A2, V2 = range(6)


def single(mode):
    return ModeSelection((mode,))


def state_with(**modes):
    inputs = [VACUUM_INPUT] * 6
    for name, spec in modes.items():
        inputs[ModeId[name]] = spec
    return build_input_state(inputs)


def evolved(params, inputs, z):
    return evolve_state(propagator(build_drift_matrix(params), z),
                        build_input_state(inputs))


def test_intensity_variance_coherent_zero():
    s = state_with(S1=InputSpec(xi=2j))
    assert intensity_variance(s, (S1,)) == 0.0


def test_intensity_variance_chaotic():
    s = state_with(V1=InputSpec(n_ch=1.0))
    assert intensity_variance(s, (V1,)) == pytest.approx(1.0)


def test_intensity_variance_shortlen_regime():
    # stimulated Stokes: leading order is 2 |g|^2 |xi|^2 z^2 = 0.08
    s = evolved(quiet_params(gS1=1),
                [InputSpec(xi=2)] + [VACUUM_INPUT] * 5, 0.1)
    assert intensity_variance(s, (S1,)) == pytest.approx(0.08, abs=2e-3)


def test_compound_variance_can_be_negative():
    # interference term makes the compound variance negative at short z
    s = shortlen_state(quiet_params(gS1=1, gA1=2),
                       np.array([2, 2, 0, 0, 0, 0], complex), 0.0, 0.0, 0.05)
    total = intensity_variance(s, (S1, A1))
    # -0.02 is the leading z^2 value; amplitude drift adds O(z^3)
    assert total == pytest.approx(-0.02, abs=5e-4)
    assert total < 0


def test_compound_variance_of_coherent_modes_is_zero():
    s = state_with(S1=InputSpec(xi=1.5), A1=InputSpec(xi=-2j))
    assert intensity_variance(s, (S1, A1)) == 0.0


def test_principal_squeeze_vacuum_levels():
    s = build_input_state([VACUUM_INPUT] * 6)
    assert principal_squeeze(s, single(ModeId.S1)) == 1.0
    assert principal_squeeze(s, ModeSelection((ModeId.S1, ModeId.V1))) == 2.0


def test_principal_squeeze_two_mode_benchmark():
    em = build_drift_matrix(quiet_params(gS1=1.0))
    s0 = build_input_state([VACUUM_INPUT] * 6)
    for z in (0.5, 1.0, 3.0):
        s = evolve_state(propagator(em, z), s0)
        lam = principal_squeeze(s, ModeSelection((ModeId.S1, ModeId.V1)))
        assert lam == pytest.approx(2 * math.exp(-2 * z), abs=1e-9)


def test_principal_squeeze_shortlen_value():
    s = shortlen_state(quiet_params(gS1=1, gA1=2), np.zeros(6, complex),
                       0.0, 0.0, 0.1)
    lam = principal_squeeze(s, ModeSelection((ModeId.S1, ModeId.A1)))
    assert lam == pytest.approx(1.98, abs=1e-12)


def test_quadrature_variances_vacuum_and_squeezed():
    s = build_input_state([VACUUM_INPUT] * 6)
    assert quadrature_variances(s, single(ModeId.S1)) == (1.0, 1.0, 1.0)
    s = state_with(S1=InputSpec(r=1.0))
    var_p, var_q, u = quadrature_variances(s, single(ModeId.S1))
    assert var_p == pytest.approx(math.e**2)
    assert var_q == pytest.approx(math.e**-2)
    assert u == pytest.approx(1.0)


def test_quadratures_bounded_below_by_principal_variance():
    rng = np.random.default_rng(19)
    for _ in range(20):
        s = evolve_state(propagator(build_drift_matrix(random_couplings(rng)),
                                    rng.uniform(0.2, 1.5)),
                         build_input_state(random_inputs(rng)))
        for modes in [(S1,), (V1,), (S1, A1), (A1, V2)]:
            sel = ModeSelection(tuple(ModeId(m) for m in modes))
            var_p, var_q, _ = quadrature_variances(s, sel)
            lam = principal_squeeze(s, sel)
            assert min(var_p, var_q) >= lam - 1e-12


def test_generating_function_poisson():
    s = state_with(S1=InputSpec(xi=2j))
    out = generating_function(s, single(ModeId.S1), [0.25, 0.5, 1.0])
    assert np.allclose(out, np.exp(-np.array([0.25, 0.5, 1.0]) * 4.0), atol=1e-14)


def test_generating_function_geometric():
    s = state_with(V1=InputSpec(n_ch=2.0))
    out = generating_function(s, single(ModeId.V1), [0.25, 1.0])
    assert np.allclose(out, [1 / 1.5, 1 / 3.0], atol=1e-14)


def test_generating_function_takes_one_spectrum(monkeypatch):
    em = build_drift_matrix(random_couplings(np.random.default_rng(6)))
    s = evolve_state(propagator(em, np.linspace(0.0, 1.0, 5)),
                     build_input_state(random_inputs(np.random.default_rng(7))))
    sel = ModeSelection((ModeId.S1, ModeId.A1))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    out = generating_function(s, sel, [0.0, 0.25, 0.5, 1.0])
    assert len(calls) == 1 and out.shape == (5, 4)
    assert np.array_equal(out[:, 0], np.ones(5))
    for i, sv in enumerate((0.25, 0.5, 1.0), start=1):
        assert np.array_equal(out[:, i], generating_function_jet(s, sel, sv, 0)[..., 0])
    assert generating_function(s, sel, []).shape == (5, 0)


def test_generating_function_calibration():
    """G(0) = 1 exactly; -G'(0) is the mean intensity; the second
    derivative reproduces the closed-form variance."""
    rng = np.random.default_rng(40)
    for _ in range(15):
        s = evolve_state(propagator(build_drift_matrix(random_couplings(rng)),
                                    rng.uniform(0.2, 1.2)),
                         build_input_state(random_inputs(rng)))
        for modes in [(S1,), (V2,), (S1, V1), (A1, S2)]:
            sel = ModeSelection(tuple(ModeId(m) for m in modes))
            jet = generating_function_jet(s, sel, 0.0, 2)
            assert jet[0] == 1.0
            mean_w = mean_intensity(s, sel)
            assert -jet[1] == pytest.approx(mean_w, abs=1e-10 * max(1, mean_w))
            var = 2 * jet[2] - jet[1] ** 2
            ref = intensity_variance(s, sel)
            assert var == pytest.approx(ref, abs=1e-8 * max(1.0, abs(ref)))


def test_moments_coherent_poisson():
    s = state_with(S1=InputSpec(xi=2j))
    mean_w, reduced, p_n = moments_and_distribution(s, single(ModeId.S1), 5, 32)
    assert mean_w == pytest.approx(4.0)
    assert np.allclose(reduced, 0.0, atol=1e-12)
    assert p_n[0] == pytest.approx(math.exp(-4.0), abs=1e-12)
    facts = np.array([math.factorial(n) for n in range(33)], dtype=float)
    ref = np.exp(-4.0) * 4.0 ** np.arange(33) / facts
    assert np.allclose(p_n, ref, atol=1e-12)


def test_moments_chaotic_geometric():
    s = state_with(V1=InputSpec(n_ch=1.0))
    mean_w, reduced, p_n = moments_and_distribution(s, single(ModeId.V1), 3, 24)
    assert reduced[0] == pytest.approx(1.0)
    assert np.allclose(p_n, 0.5 ** (np.arange(25) + 1), atol=1e-12)


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
    mean_w, moments, p_n = moments_and_distribution(state_with(**inputs), sel, 8, 512)
    with mp.workdps(40):
        ref = np.array([float(pmf(n)) for n in range(513)])
    assert np.max(np.abs(p_n - ref) / np.maximum(ref, 1e-6)) <= 1e-12
    assert abs(mean_w - mean) <= 1e-12 * mean
    ref_moments = np.array([reduced(k) for k in range(2, 9)])
    assert np.max(np.abs(moments - ref_moments) / np.maximum(ref_moments, 1.0)) <= 1e-12


@pytest.mark.parametrize("mean", [780.0, 1000.0])
def test_bright_coherent_distribution_matches_poisson(mean):
    """exp(-<W>) is below the double range, yet every p(n) that is not
    must come out to 1e-12 relative (a silent all-zero row is the bug)."""
    xi = math.sqrt(mean)
    s = state_with(S1=InputSpec(xi=xi))
    _, _, p_n = moments_and_distribution(s, single(ModeId.S1), 2, 512)
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
        moments_and_distribution(s, single(ModeId.S1), 2, 512)


def test_moments_vacuum_markers():
    s = build_input_state([VACUUM_INPUT] * 6)
    mean_w, reduced, p_n = moments_and_distribution(s, single(ModeId.S1), 4, 8)
    assert mean_w == 0.0
    assert np.all(np.isnan(reduced))
    assert p_n[0] == 1.0 and np.allclose(p_n[1:], 0.0)


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
        s = evolve_state(propagator(build_drift_matrix(random_couplings(rng, mag=1.0)),
                                    rng.uniform(0.1, 0.8)),
                         build_input_state(random_inputs(rng, xi_mag=1.5)))
        for modes in [(S1,), (S1, V1)]:
            sel = ModeSelection(tuple(ModeId(m) for m in modes))
            _, _, p_n = moments_and_distribution(s, sel, 2, 256)
            assert np.all(p_n >= -1e-12)
            assert 1.0 - p_n.sum() < 1e-6


def test_sub_poissonian_compound_mode_exists():
    # stimulated Stokes/anti-Stokes with weak thermal phonons: the (S1,A1)
    # compound field turns sub-Poissonian at finite z
    params = quiet_params(gS1=1, gA1=2)
    inputs = [VACUUM_INPUT] * 6
    inputs[S1] = InputSpec(xi=-2j)
    inputs[A1] = InputSpec(xi=2j)
    inputs[V1] = InputSpec(n_ch=0.1)
    em = build_drift_matrix(params)
    s0 = build_input_state(inputs)
    sel = ModeSelection((ModeId.S1, ModeId.A1))
    w2 = []
    for z in np.linspace(0.05, 2.0, 40):
        _, reduced, _ = moments_and_distribution(
            evolve_state(propagator(em, z), s0), sel, 2, 8)
        w2.append(reduced[0])
    assert min(w2) < 0


def test_single_modes_stay_classical_without_squeezed_inputs():
    rng = np.random.default_rng(50)
    for _ in range(10):
        params = random_couplings(rng, mag=2.0)
        s0 = build_input_state(random_inputs(rng, squeezed=False))
        em = build_drift_matrix(params)
        for z in rng.uniform(0.1, 2.0, 3):
            s = evolve_state(propagator(em, z), s0)
            assert np.max(np.abs(s.C)) < 1e-12    # C stays zero
            for m in ModeId:
                assert principal_squeeze(s, single(m)) >= 1.0 - 1e-12
                mean_w, reduced, _ = moments_and_distribution(s, single(m), 3, 4)
                if mean_w > 0:
                    assert np.min(reduced) >= -1e-12


def test_stats_report_fields_and_cross_check():
    s = evolved(quiet_params(gS1=0.8), [VACUUM_INPUT] * 6, 0.6)
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
        s = evolve_state(propagator(build_drift_matrix(params), z),
                         build_input_state(inputs))
        swapped_inputs = tuple(inputs[j] for j in (3, 4, 5, 0, 1, 2))
        s_sw = evolve_state(propagator(build_drift_matrix(params.swapped()), z),
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
        moments_and_distribution(bad, single(ModeId.S1), 2, 8)
