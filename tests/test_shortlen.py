"""Short-length expansion: propagator rows, noise coefficients, identities."""

import numpy as np
import pytest

from qcoupler.dynamics import evolve_state, propagator
from qcoupler.exceptions import ValidationError
from qcoupler.shortlen import _rows_poly, short_propagator, shortlen_polys, shortlen_state
from qcoupler.gaussian_stats import stats_report
from qcoupler.model import (
    VACUUM_INPUT,
    CouplerParams,
    GaussianState,
    InputSpec,
    ModeSelection,
    build_input_state,
)

from conftest import (
    S1, A1, V1, S2, A2, V2,
    random_couplings,
    shortlen_identity_records,
    shortlen_input,
)

NO_AMPLITUDES = np.zeros(6, complex)


def test_identity_at_zero():
    params = CouplerParams(gS1=1, gA1=2, kappaS=3j)
    t = short_propagator(params, 0.0)
    assert np.array_equal(t.U, np.eye(6)) and np.array_equal(t.V, 0 * t.V)


def test_stokes_example_entries():
    t = short_propagator(CouplerParams(gS1=1), 0.01)
    assert t.U[S1, S1] == pytest.approx(1 + 0.5e-4, abs=1e-15)
    assert t.V[S1, V1] == pytest.approx(0.01j, abs=1e-15)


def test_rows_match_operator_expansion():
    """The matrix square reproduces the hand-expanded first-guide rows."""
    rng = np.random.default_rng(12)
    vals = rng.uniform(0.3, 2, 6) * np.exp(1j * rng.uniform(-np.pi, np.pi, 6))
    gs1, ga1, gs2, ga2, ks, ka = vals
    params = CouplerParams(gS1=gs1, gA1=ga1, gS2=gs2, gA2=ga2, kappaS=ks, kappaA=ka)
    rows = _rows_poly(params)
    u, v = rows[..., :6], rows[..., 6:]
    # A_S1: + i(gS1 V1+ + kS* S2) z + (gS1 gA1 A1+ + |gS1|^2 S1 - kS* gS2 V2+ - |kS|^2 S1) z^2/2
    assert v[1, S1, V1] == pytest.approx(1j * gs1)
    assert u[1, S1, S2] == pytest.approx(1j * np.conj(ks))
    assert v[2, S1, A1] == pytest.approx(gs1 * ga1 / 2)
    assert u[2, S1, S1] == pytest.approx((abs(gs1) ** 2 - abs(ks) ** 2) / 2)
    assert v[2, S1, V2] == pytest.approx(-np.conj(ks) * gs2 / 2)
    # A_A1: + i(gA1 V1 + kA* A2) z - (gS1 gA1 S1+ + |gA1|^2 A1 + kA* gA2 V2 + |kA|^2 A1) z^2/2
    assert u[1, A1, V1] == pytest.approx(1j * ga1)
    assert u[1, A1, A2] == pytest.approx(1j * np.conj(ka))
    assert v[2, A1, S1] == pytest.approx(-gs1 * ga1 / 2)
    assert u[2, A1, A1] == pytest.approx(-(abs(ga1) ** 2 + abs(ka) ** 2) / 2)
    assert u[2, A1, V2] == pytest.approx(-np.conj(ka) * ga2 / 2)
    # A_V1: + i(gA1* A1 + gS1 S1+) z - ((|gA1|^2-|gS1|^2) V1 + gA1* kA* A2 - gS1 kS S2+) z^2/2
    assert u[1, V1, A1] == pytest.approx(1j * np.conj(ga1))
    assert v[1, V1, S1] == pytest.approx(1j * gs1)
    assert u[2, V1, V1] == pytest.approx(-(abs(ga1) ** 2 - abs(gs1) ** 2) / 2)
    assert u[2, V1, A2] == pytest.approx(-np.conj(ga1) * np.conj(ka) / 2)
    assert v[2, V1, S2] == pytest.approx(gs1 * ks / 2)


def test_order_of_accuracy():
    rng = np.random.default_rng(3)
    for _ in range(10):
        params = random_couplings(rng, mag=5.0)

        def err(z):
            tn, ts = propagator(params, z), short_propagator(params, z)
            return max(np.max(np.abs(tn.U - ts.U)), np.max(np.abs(tn.V - ts.V)))

        ratio = err(1e-2) / err(5e-3)
        assert 7.5 <= ratio <= 8.5


def test_coefficients_vacuum_phonons():
    """With quiet phonons the nonzero coefficient set collapses to the
    Stokes pair terms (and their guide-2 images)."""
    c = shortlen_state(CouplerParams(gS1=1), shortlen_input(NO_AMPLITUDES, 0.0, 0.0), 0.1)
    assert c.B[S1] == pytest.approx(0.01)
    assert c.B[V1] == pytest.approx(0.01)
    assert c.B[A1] == 0.0
    assert c.D[S1, V1] == pytest.approx(0.1j)
    assert np.all(c.C == 0)


def test_coefficients_thermal_examples():
    c = shortlen_state(CouplerParams(gS1=1, gA1=2), shortlen_input(NO_AMPLITUDES, 0.5, 0.0), 0.1)
    assert c.B[A1] == pytest.approx(0.02)
    assert c.D[S1, A1] == pytest.approx(-0.02)        # (n + 1/2) = 1
    c2 = shortlen_state(CouplerParams(gA2=2, kappaA=1), shortlen_input(NO_AMPLITUDES, 0.0, 0.3),
                        0.1)
    assert c2.Dbar[A1, V2] == pytest.approx(0.003)


def test_coefficient_set_matches_published_table():
    """Full coefficient table including the guide-exchange images; every
    entry not in the table must vanish."""
    rng = np.random.default_rng(44)
    vals = rng.uniform(0.3, 2.5, 6) * np.exp(1j * rng.uniform(-np.pi, np.pi, 6))
    gs1, ga1, gs2, ga2, ks, ka = vals
    params = CouplerParams(gS1=gs1, gA1=ga1, gS2=gs2, gA2=ga2, kappaS=ks, kappaA=ka)
    n1, n2 = 0.35, 0.15
    polys = shortlen_polys(params, shortlen_input(NO_AMPLITUDES, n1, n2))

    def poly(c0=0, c1=0, c2=0):
        return np.array([c0, c1, c2], complex)

    expect_b = {
        S1: poly(0, 0, abs(gs1) ** 2 * (n1 + 1)),
        A1: poly(0, 0, abs(ga1) ** 2 * n1),
        V1: poly(n1, 0, abs(gs1) ** 2 * (n1 + 1) - abs(ga1) ** 2 * n1),
        S2: poly(0, 0, abs(gs2) ** 2 * (n2 + 1)),
        A2: poly(0, 0, abs(ga2) ** 2 * n2),
        V2: poly(n2, 0, abs(gs2) ** 2 * (n2 + 1) - abs(ga2) ** 2 * n2),
    }
    expect_d = {
        (S1, A1): poly(0, 0, -gs1 * ga1 * (n1 + 0.5)),
        (S1, V1): poly(0, 1j * gs1 * (n1 + 1), 0),
        (S1, V2): poly(0, 0, -gs2 * np.conj(ks) * (n2 + 1) / 2),
        (S2, A2): poly(0, 0, -gs2 * ga2 * (n2 + 0.5)),
        (S2, V2): poly(0, 1j * gs2 * (n2 + 1), 0),
        (S2, V1): poly(0, 0, -gs1 * ks * (n1 + 1) / 2),
    }
    expect_dbar = {
        (A1, V1): poly(0, 1j * np.conj(ga1) * n1, 0),
        (A1, V2): poly(0, 0, np.conj(ga2) * ka * n2 / 2),
        (A2, V2): poly(0, 1j * np.conj(ga2) * n2, 0),
        (A2, V1): poly(0, 0, np.conj(ga1) * np.conj(ka) * n1 / 2),
    }
    for j, e in expect_b.items():
        assert np.allclose(polys.B[:, j], e.real, atol=1e-12)
    mask_d = ~np.eye(6, dtype=bool)
    mask_dbar = ~np.eye(6, dtype=bool)
    for (j, k), e in expect_d.items():
        assert np.allclose(polys.D[:, j, k], e, atol=1e-12), (j, k)
        assert np.allclose(polys.D[:, k, j], e, atol=1e-12)
        mask_d[j, k] = mask_d[k, j] = False
    for (j, k), e in expect_dbar.items():
        assert np.allclose(polys.Dbar[:, j, k], e, atol=1e-12), (j, k)
        assert np.allclose(polys.Dbar[:, k, j], np.conj(e), atol=1e-12)
        mask_dbar[j, k] = mask_dbar[k, j] = False
    assert np.max(np.abs(polys.D[:, mask_d])) < 1e-12
    assert np.max(np.abs(polys.Dbar[:, mask_dbar])) < 1e-12
    assert np.max(np.abs(polys.C)) < 1e-12


def test_brillouin_is_raman_at_zero_noise():
    rng = np.random.default_rng(15)
    params = random_couplings(rng)
    a = shortlen_polys(params, shortlen_input(NO_AMPLITUDES, 0.0, 0.0))
    # the published all-coherent table is the thermal table at n = 0
    assert np.allclose(a.B[:, V1], [0, 0, abs(params.gS1) ** 2], atol=1e-12)
    assert np.allclose(a.D[:, S1, V1], [0, 1j * params.gS1, 0], atol=1e-12)
    assert np.max(np.abs(a.Dbar)) < 1e-12


def test_negative_phonon_number_rejected():
    with pytest.raises(ValidationError, match="^n_ch must be >= 0, got -0.1$"):
        shortlen_state(CouplerParams(gS1=1), shortlen_input(NO_AMPLITUDES, -0.1, 0.0), 0.1)


def test_stacked_input_state_rejected():
    s0 = shortlen_input(NO_AMPLITUDES, 0.1, 0.0)
    stacked = GaussianState(np.stack([s0.xi] * 2), np.stack([s0.N] * 2), np.stack([s0.M] * 2))
    with pytest.raises(ValidationError, match=r"one input state, got a stack of shape \(2,\)"):
        shortlen_polys(CouplerParams(gS1=1), stacked)


def mean_amplitudes(params, xi, z):
    return shortlen_state(params, shortlen_input(xi, 0.0, 0.0), z).xi


def test_mean_amplitude_examples():
    xi = np.zeros(6, complex)
    assert np.allclose(mean_amplitudes(CouplerParams(), xi, 0.0), xi)
    xi[V1] = 1
    out = mean_amplitudes(CouplerParams(gS1=1), xi, 0.01)
    assert out[S1] == pytest.approx(0.01j, abs=1e-12)
    xi2 = np.zeros(6, complex)
    xi2[S2] = 2
    out2 = mean_amplitudes(CouplerParams(kappaS=-10), xi2, 0.01)
    assert out2[S1] == pytest.approx(-0.2j, abs=1e-6)


def test_mean_amplitudes_need_six_modes():
    with pytest.raises(ValidationError, match="expected 6 input specs, got 3"):
        shortlen_state(CouplerParams(gS1=1), build_input_state([InputSpec(xi=1)] * 3), 0.1)


def test_identity_records_consistency():
    """Composed short-length statistics against the published lines.

    Lines whose published form is internally consistent must match to
    1e-10 in every z-coefficient through degree 2; the four lines with
    typographical slips must match the corrected closed forms instead,
    and must differ from the published variants.
    """
    rng = np.random.default_rng(27)
    for _ in range(3):
        vals = rng.uniform(0.3, 2.5, 6) * np.exp(1j * rng.uniform(-np.pi, np.pi, 6))
        params = CouplerParams(gS1=vals[0], gA1=vals[1], gS2=vals[2],
                               gA2=vals[3], kappaS=vals[4], kappaA=vals[5])
        xi = rng.uniform(0.3, 2.0, 6) * np.exp(1j * rng.uniform(-np.pi, np.pi, 6))
        n1, n2 = rng.uniform(0.05, 0.8, 2)
        for label, composed, reference, published in shortlen_identity_records(
                params, xi, n1, n2):
            err = np.max(np.abs(np.real(composed[:3]) - np.real(reference[:3])))
            assert err < 1e-10, f"{label}: coefficient error {err:.2e}"
            if published is not None:
                gap = np.max(np.abs(np.real(composed[:3]) - np.real(published[:3])))
                assert gap > 1e-6, f"{label}: published variant unexpectedly matches"


@pytest.mark.parametrize("kind", ["coherent-chaotic", "squeezed", "displaced-squeezed"])
def test_statistics_agree_with_full_pipeline_to_third_order(kind):
    """Short-length statistics vs the exact pipeline: the error vanishes
    at least as z^3 (halving z shrinks it by >= ~8; for several
    statistics odd orders cancel and the observed order is higher).
    The inputs are coherent radiation modes with chaotic phonons, or a
    squeezed S1 and A2, displaced or not, on vacuum."""
    rng = np.random.default_rng(6)
    params = random_couplings(rng, mag=2.0)
    xi0 = rng.uniform(0.3, 1.5, 6) * np.exp(1j * rng.uniform(-np.pi, np.pi, 6))
    xi0[V1] = 0
    xi0[V2] = 0
    if kind == "coherent-chaotic":
        inputs = [InputSpec(xi=complex(x)) for x in xi0]
        inputs[V1] = InputSpec(n_ch=0.4)
        inputs[V2] = InputSpec(n_ch=0.2)
    else:
        shift = xi0 if kind == "displaced-squeezed" else NO_AMPLITUDES
        inputs = [VACUUM_INPUT] * 6
        inputs[S1] = InputSpec(xi=complex(shift[S1]), r=0.4, theta=0.3)
        inputs[A2] = InputSpec(xi=complex(shift[A2]), r=0.2)
    s0 = build_input_state(inputs)
    sel = ModeSelection.parse("S1,A1")

    def errs(z):
        exact = stats_report(evolve_state(propagator(params, z), s0), sel)
        approx = stats_report(shortlen_state(params, s0, z), sel)
        return np.array([
            abs(exact.mean_w - approx.mean_w),
            abs(exact.variance_w - approx.variance_w),
            abs(exact.lam - approx.lam),
        ])

    big, small = errs(1e-1), errs(5e-2)
    assert np.all(big < 1e-3)
    assert np.all(big / small >= 7.0)
