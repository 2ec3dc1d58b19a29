"""Closed-form propagator vs the matrix exponential."""

import numpy as np
import pytest

from qcoupler.analytic import analytic_propagator, conditions_satisfied
from qcoupler.dynamics import propagator, symplectic_check
from qcoupler.exceptions import UnsupportedConfigurationError
from qcoupler.model import CouplerParams

from conftest import matched_coupling_params


FIXTURE = dict(gS1=1, gA1=2, gS2=1, gA2=2, kappaS=1, kappaA=-1)


def test_conditions_fixture_true():
    assert conditions_satisfied(CouplerParams(**FIXTURE))


def test_conditions_magnitude_mismatch_false():
    assert not conditions_satisfied(CouplerParams(gS1=1, gS2=2, gA1=2, gA2=2,
                                                  kappaS=1, kappaA=-1))


def test_conditions_zero_coupling_convention():
    # with both kappas zero the phase relation is vacuous
    assert conditions_satisfied(CouplerParams(gS1=1, gA1=2, gS2=1, gA2=2))
    assert not conditions_satisfied(CouplerParams(gS1=1, gA1=2, gS2=1, gA2=2,
                                                  kappaS=1, kappaA=1))


def test_conditions_degenerate_ratios_fall_back():
    # coupled guides with a vanishing anti-Stokes rate: the amplitude
    # ratios in the mode transformation are undefined, so no closed form
    assert not conditions_satisfied(CouplerParams(gS1=1, gS2=1, kappaS=1, kappaA=1))


def test_identity_at_zero():
    t = analytic_propagator(CouplerParams(**FIXTURE), 0.0)
    assert np.allclose(t.U, np.eye(6), atol=1e-14)
    assert np.allclose(t.V, 0, atol=1e-14)


def _max_diff(params, z):
    tn = propagator(params, z)
    ta = analytic_propagator(params, z)
    return max(float(np.max(np.abs(tn.U - ta.U))), float(np.max(np.abs(tn.V - ta.V))))


def test_single_guide_closed_form():
    params = CouplerParams(gS1=1, gA1=2, gS2=1, gA2=2)
    for z in (0.1, 0.5, 1.0):
        assert _max_diff(params, z) < 1e-10


def test_fixture_matches_numerical():
    params = CouplerParams(**FIXTURE)
    for z in (0.1, 0.5, 1.0, 2.5, 5.0):
        assert _max_diff(params, z) < 1e-8


def test_random_manifold_matches_numerical():
    rng = np.random.default_rng(31)
    for _ in range(20):
        params = matched_coupling_params(rng)
        assert conditions_satisfied(params)
        for z in rng.uniform(0.0, 5.0, 3):
            assert _max_diff(params, float(z)) < 1e-8


def test_imaginary_internal_rate_branch():
    # |gA| > |gS| makes r imaginary; the transform must stay canonical
    rng = np.random.default_rng(8)
    for _ in range(10):
        params = matched_coupling_params(rng)
        if abs(params.gA1) <= abs(params.gS1):
            params = CouplerParams(
                gS1=params.gA1, gA1=params.gS1, gS2=params.gA2, gA2=params.gS2,
                kappaS=params.kappaS, kappaA=params.kappaA)
        assert abs(params.gA1) > abs(params.gS1)
        t = analytic_propagator(params, 1.1)
        assert symplectic_check(t).residual < 1e-12
        doubled = t.doubled()
        assert np.allclose(doubled[6:, 6:], t.U.conj(), atol=0)


def test_degenerate_oscillation_rate():
    # kappa^2 = 4 r^2: the internal rate l vanishes and the generator is
    # defective; the removable singularity is handled by the series branch
    params = CouplerParams(gS1=np.sqrt(2), gA1=1, gS2=np.sqrt(2), gA2=1,
                           kappaS=2, kappaA=-2)
    assert conditions_satisfied(params)
    kappa, r_sq = abs(params.kappaS), abs(params.gS1) ** 2 - abs(params.gA1) ** 2
    assert abs(np.sqrt(complex(kappa**2 - 4 * r_sq))) < 1e-6   # l: zero up to rounding
    for z in (1e-8, 0.5, 2.0):
        assert _max_diff(params, z) < 1e-8


def test_off_manifold_raises():
    with pytest.raises(UnsupportedConfigurationError):
        analytic_propagator(CouplerParams(gS1=1, gA1=2), 1.0)


def test_equal_rates_singular():
    params = CouplerParams(gS1=1, gA1=1, gS2=1, gA2=1, kappaS=1, kappaA=-1)
    assert conditions_satisfied(params)
    with pytest.raises(UnsupportedConfigurationError):
        analytic_propagator(params, 0.5)
