"""Agreement between the independent solution routes."""

import numpy as np
import pytest

from qcoupler.dynamics import (
    build_drift_matrix,
    evolve_state,
    propagator,
    rk4_propagator,
)
from qcoupler.exceptions import TruncationWarning
from qcoupler.fock_oracle import FockConfig, evolve_fock, fock_statistics
from qcoupler.gaussian_stats import stats_report
from qcoupler.model import (
    InputSpec,
    ModeId,
    ModeSelection,
    VACUUM_INPUT,
    build_input_state,
)

from conftest import quiet_params, selection_spectrum, spectrum_g


def _gaussian_state(params, mode_specs, z):
    inputs = [VACUUM_INPUT] * 6
    for mode, spec in mode_specs.items():
        inputs[mode] = spec
    return evolve_state(propagator(build_drift_matrix(params), z),
                        build_input_state(inputs))


def _compare(params, cutoffs, mode_specs, z, selections,
             tol_pn=1e-4, tol_n=1e-3, tol_lam=1e-3, tol_var=1e-3):
    cfg = FockConfig(modes=tuple(sorted(mode_specs)), cutoffs=cutoffs,
                     params=params)
    ensemble = evolve_fock(cfg, [mode_specs[m] for m in cfg.modes], z)
    state = _gaussian_state(params, mode_specs, z)
    for modes in selections:
        sel = ModeSelection(modes)
        fock = fock_statistics(ensemble, sel)
        rep = stats_report(state, sel, k_max=2, n_max=16, include_pn=True)
        n_top = min(8, len(fock.p_n) - 1)
        assert np.max(np.abs(fock.p_n[:n_top + 1] - rep.p_n[:n_top + 1])) < tol_pn, sel.name
        assert abs(fock.mean_w - rep.mean_w) / max(rep.mean_w, 1e-12) < tol_n, sel.name
        assert abs(fock.lam - rep.lam) < tol_lam, sel.name
        assert abs(fock.var_p - rep.var_p) < tol_lam, sel.name
        assert abs(fock.var_q - rep.var_q) < tol_lam, sel.name
        var_fock = _normal_variance(fock)
        assert _rel_err(rep.variance_w, var_fock) < tol_var, sel.name
        if len(sel.modes) == 2:
            # <:dW_j dW_k:> = (<:(dW)^2:> of j and k - that of j - that of k) / 2
            singles = [_normal_variance(fock_statistics(ensemble, (m,))) for m in sel.modes]
            cov_fock = 0.5 * (var_fock - sum(singles))
            cov = 0.5 * (rep.variance_w - sum(stats_report(state, (m,)).variance_w
                                              for m in sel.modes))
            assert _rel_err(cov, cov_fock) < tol_var, sel.name


def _normal_variance(fock):
    """<:(dW)^2:> = <W(W-1)> - <W>^2 from the oracle's factorial moments."""
    f1, f2 = fock.factorial_moments[:2]
    return f2 - f1**2


def _rel_err(value, ref):
    """|value - ref| relative to max(|ref|, 1)."""
    return abs(value - ref) / max(abs(ref), 1.0)


def test_oracle_vs_gaussian_stokes_pair():
    _compare(quiet_params(gS1=0.3), (12, 12),
             {ModeId.S1: InputSpec(xi=0.4j), ModeId.V1: VACUUM_INPUT},
             0.5, [(ModeId.S1,), (ModeId.V1,), (ModeId.S1, ModeId.V1)])


def test_oracle_vs_gaussian_anti_stokes_pair():
    # the (8, 10) cutoffs leave 1.8e-6 of occupation on the boundary
    # levels, above the 1e-6 warning level and far below the error level
    with pytest.warns(TruncationWarning, match="boundary occupation mass"):
        _compare(quiet_params(gA1=0.6), (8, 10),
                 {ModeId.A1: InputSpec(xi=0.5), ModeId.V1: InputSpec(n_ch=0.4)},
                 0.5, [(ModeId.A1,), (ModeId.V1,), (ModeId.A1, ModeId.V1)])


def test_oracle_vs_gaussian_full_guide():
    specs = {ModeId.S1: InputSpec(xi=0.5j), ModeId.A1: InputSpec(xi=-0.3),
             ModeId.V1: InputSpec(n_ch=0.3)}
    for z in (0.1, 0.3, 0.5):
        _compare(quiet_params(gS1=0.3, gA1=0.6), (12, 12, 12), specs, z,
                 [(ModeId.S1,), (ModeId.A1,), (ModeId.V1,),
                  (ModeId.S1, ModeId.A1), (ModeId.S1, ModeId.V1),
                  (ModeId.A1, ModeId.V1)])


def test_oracle_vs_gaussian_coupled_guides():
    # four-mode closed subsystem exercises the evanescent coupling signs
    params = quiet_params(gS1=0.25, gS2=0.2, kappaS=0.5j)
    specs = {ModeId.S1: InputSpec(xi=0.4), ModeId.V1: VACUUM_INPUT,
             ModeId.S2: InputSpec(xi=-0.3j), ModeId.V2: VACUUM_INPUT}
    _compare(params, (10, 10, 10, 10), specs, 0.5,
             [(ModeId.S1,), (ModeId.S2,), (ModeId.S1, ModeId.S2),
              (ModeId.S1, ModeId.V2), (ModeId.S1, ModeId.V1)])


def test_generating_function_matches_oracle():
    # two-mode squeezed vacuum: compare <:exp(-sW):> against the oracle's
    # photon distribution via sum p(n) (1 - s)^n
    params = quiet_params(gS1=0.3)
    cfg = FockConfig(modes=(ModeId.S1, ModeId.V1), cutoffs=(14, 14),
                     params=params)
    ensemble = evolve_fock(cfg, [VACUUM_INPUT, VACUUM_INPUT], 0.5)
    fock = fock_statistics(ensemble, (ModeId.S1, ModeId.V1))
    state = _gaussian_state(params, {ModeId.S1: VACUUM_INPUT}, 0.5)
    lam, w = selection_spectrum(state, ModeSelection((ModeId.S1, ModeId.V1)))
    for s in (0.25, 0.5, 1.0):
        g = spectrum_g(lam, w, s)
        ref = float(np.dot(fock.p_n, (1.0 - s) ** np.arange(len(fock.p_n))))
        assert g == pytest.approx(ref, abs=1e-6)


def test_rk4_vs_matrix_exponential_long_range():
    params = quiet_params(gS1=1, gA1=2, gS2=1, gA2=2, kappaS=1, kappaA=-1)
    em = build_drift_matrix(params)
    for z in (1.0, 2.5, 5.0):
        t_rk = rk4_propagator(em, z, h=1e-3)
        t_ex = propagator(em, z)
        assert np.max(np.abs(t_rk.U - t_ex.U)) < 1e-9
        assert np.max(np.abs(t_rk.V - t_ex.V)) < 1e-9
