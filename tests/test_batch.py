"""The z-grid in one batch: stacked propagator, state and statistics.

A sweep evaluates every stage once over the whole grid.  The per-point
route (``propagator`` -> ``evolve_state`` -> ``stats_report`` at one
length) runs through the same kernels; these tests hold the two to
1e-12 relative, measured against max(|value|, floor) with floor 1 for
statistics and 1e-6 for p(n), and check that failures inside a batch
name the first failing length.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import qcoupler.gaussian_stats as gaussian_stats
from qcoupler.cli import run_scenario
from qcoupler.dynamics import (
    conservation_residual,
    evolve_state,
    propagator,
    symplectic_check,
)
from qcoupler.exceptions import NumericalError
from qcoupler.gaussian_stats import stats_report
from qcoupler.model import (
    CouplerParams,
    GaussianState,
    InputSpec,
    ModeId,
    ModeSelection,
    ScenarioConfig,
    VACUUM_INPUT,
    build_input_state,
    parse_scenario,
)
from qcoupler.presets import PRESET_NAMES, load_preset

from conftest import (
    PROPERTY_PHASES,
    growth_rate,
    run_preset,
    run_truncated,
    spectrum_jet,
    trace_series_jet,
)

TOL = 1e-12
COLUMN_FLOOR = 1.0
PN_FLOOR = 1e-6

SMALL_DOC = """
[params]
gS1 = 1
gA1 = 2
[inputs.S1]
xi = 2i
[inputs.V1]
xi = 1
[run]
z_max = 1.0
z_steps = 6
n_max = 32
k_max = 4
[observables]
moments: S1,A1
squeeze: S1V1
pn: S1
"""


def deviation(actual, expected, floor):
    """Largest |actual - expected| / max(|expected|, floor); NaN must match NaN."""
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    assert actual.shape == expected.shape
    assert np.array_equal(np.isnan(actual), np.isnan(expected))
    ok = ~np.isnan(expected)
    if not ok.any():
        return 0.0
    diff = np.abs(actual[ok] - expected[ok])
    return float(np.max(diff / np.maximum(np.abs(expected[ok]), floor)))


REPORT_FIELDS = ("mean_w", "reduced_moments", "variance_w", "lam", "var_p",
                 "var_q", "uncertainty")


def report_deviation(batched, i, point):
    """Deviation of row i of a stacked report from a per-point report."""
    worst = max(deviation(getattr(batched, f)[i], getattr(point, f), COLUMN_FLOOR)
                for f in REPORT_FIELDS)
    if point.p_n is not None:
        worst = max(worst, deviation(batched.p_n[i], point.p_n, PN_FLOOR),
                    deviation(batched.pn_deficit[i], point.pn_deficit, COLUMN_FLOOR))
    return worst


def point_columns(report, tag, k_max):
    """The CSV columns of one quantity, from a per-point report."""
    if tag == "moments":
        return {"meanW": report.mean_w,
                **{f"w{k}": report.reduced_moments[k - 2] for k in range(2, k_max + 1)}}
    return {"variance": {"varW": report.variance_w},
            "squeeze": {"lambda": report.lam},
            "quadratures": {"var_p": report.var_p, "var_q": report.var_q,
                            "u": report.uncertainty},
            "pn": {}}[tag]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_sweep_matches_per_point_route(name):
    cfg = load_preset(name)
    result = run_preset(name)
    s0 = build_input_state(cfg.inputs)
    observables = cfg.effective_observables()
    pn_selections = {sel for tag, sel in observables if tag == "pn"}
    columns = dict(result.columns)
    tables = dict(result.pn_tables)
    expected_cols = {name: np.empty(len(result.z)) for name in columns}
    expected_pn = {sel: np.empty_like(table) for sel, table in tables.items()}
    states = []
    for i, z in enumerate(result.z):
        state = evolve_state(propagator(cfg.params, z), s0)
        states.append(state)
        reports = {sel: stats_report(state, sel, k_max=cfg.k_max, n_max=cfg.n_max,
                                     include_pn=sel in pn_selections)
                   for sel in dict.fromkeys(sel for _, sel in observables)}
        for tag, sel in observables:
            for qty, value in point_columns(reports[sel], tag, cfg.k_max).items():
                expected_cols[f"{sel.name}.{qty}"][i] = value
        for sel in pn_selections:
            expected_pn[sel.name][i] = reports[sel].p_n
    assert np.array_equal(result.z, cfg.z_grid())
    for col, values in columns.items():
        assert deviation(values, expected_cols[col], COLUMN_FLOOR) <= TOL, col
    for sel, table in tables.items():
        assert deviation(table, expected_pn[sel], PN_FLOOR) <= TOL, sel
    # the metadata is the residual of the stacked state, formatted to 7 digits;
    # the per-point route's own residual is at roundoff too
    meta = dict(result.metadata)
    assert float(meta["conservation_residual"]) == pytest.approx(
        conservation_residual(evolve_state(propagator(cfg.params, cfg.z_grid()), s0)),
        rel=1e-5, abs=1e-300)
    per_point = GaussianState(*(np.stack([getattr(s, f) for s in states])
                                for f in ("xi", "N", "M")))
    scale = max(1.0, float(np.max(per_point.mean_photon_numbers())))
    assert conservation_residual(per_point) <= 1e-13 * scale


phases = st.lists(st.floats(-3.1, 3.1), min_size=6, max_size=6)
inputs = st.builds(
    InputSpec,
    xi=st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    r=st.sampled_from([0.0, 0.3, 0.7]),
    theta=st.floats(-3.0, 3.0),
    n_ch=st.sampled_from([0.0, 0.4, 1.0]),
)
selections = st.sampled_from([ModeSelection((m,)) for m in ModeId]
                             + [ModeSelection((ModeId.S1, ModeId.A1)),
                                ModeSelection((ModeId.S1, ModeId.V2)),
                                ModeSelection((ModeId.A2, ModeId.V2))])

# short uneven lists (one exponential per point) and evenly spaced grids with
# a nonzero start (exponentials blocked over the grid, ragged last blocks)
z_points = st.one_of(
    st.lists(st.floats(0.0, 1.5), min_size=1, max_size=6).map(np.array),
    st.builds(lambda start, span, n: np.linspace(start, start + span, n),
              st.floats(0.01, 1.0), st.floats(0.01, 1.5), st.integers(1, 60)),
)


@settings(max_examples=40, deadline=None, phases=PROPERTY_PHASES)
@given(stokes=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
       excess=st.lists(st.floats(0.3, 1.0), min_size=2, max_size=2),
       kappa=st.lists(st.floats(0.0, 1.5), min_size=2, max_size=2),
       phase=phases,
       specs=st.lists(inputs, min_size=6, max_size=6),
       zs=z_points,
       sel=selections)
def test_batch_rows_equal_points(stokes, excess, kappa, phase, specs, zs, sel):
    mags = [stokes[0], stokes[0] + excess[0], stokes[1], stokes[1] + excess[1], *kappa]
    g = [m * np.exp(1j * p) for m, p in zip(mags, phase)]
    params = CouplerParams(gS1=g[0], gA1=g[1], gS2=g[2], gA2=g[3], kappaS=g[4], kappaA=g[5])
    # stable couplers only: no eigenvalue of the generator with gain
    assume(growth_rate(params) <= 1e-9)
    s0 = build_input_state(specs)
    batch = evolve_state(propagator(params, zs), s0)
    assert batch.xi.shape == (len(zs), 6) and np.array_equal(batch.z, zs)
    report = stats_report(batch, sel, k_max=4, n_max=12, include_pn=True)
    for i, z in enumerate(zs):
        point = stats_report(evolve_state(propagator(params, z), s0), sel, k_max=4, n_max=12,
                             include_pn=True)
        assert report_deviation(report, i, point) <= TOL


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_empty_grid_gives_empty_fields(shape):
    # no point to check: every field is an empty stack, none an error
    params = CouplerParams(gS1=0.5, gA1=1.0)
    transforms = propagator(params, np.zeros(shape))
    check = symplectic_check(transforms)
    assert check.residual == check.scaled == 0.0 and check.each.shape == shape
    states = evolve_state(transforms,
                          build_input_state([InputSpec(xi=1.0, r=0.3)] + [VACUUM_INPUT] * 5))
    report = stats_report(states, ModeSelection((ModeId.S1, ModeId.A1)), k_max=3, n_max=4,
                          include_pn=True)
    assert report.mean_w.shape == report.lam.shape == shape
    assert report.reduced_moments.shape == shape + (2,) and report.p_n.shape == shape + (5,)
    assert conservation_residual(states) == 0.0
    states.check_physical()


def test_2d_grid_rows_equal_points():
    params = CouplerParams(gS1=0.5, gA1=1.0, gS2=0.3, gA2=0.9, kappaS=0.7, kappaA=0.4j)
    inputs = [VACUUM_INPUT] * 6
    inputs[ModeId.S1] = InputSpec(xi=1.0, r=0.3)
    s0 = build_input_state(inputs)
    zs = np.linspace(0.2, 1.4, 12).reshape(3, 4)
    sel = ModeSelection((ModeId.S1, ModeId.A1))
    batch = evolve_state(propagator(params, zs), s0)
    assert batch.xi.shape == (3, 4, 6) and np.array_equal(batch.z, zs)
    report = stats_report(batch, sel, k_max=4, n_max=12, include_pn=True)
    for idx in np.ndindex(zs.shape):
        point = stats_report(evolve_state(propagator(params, zs[idx]), s0), sel, k_max=4,
                             n_max=12, include_pn=True)
        assert report_deviation(report, idx, point) <= TOL, idx


@pytest.mark.parametrize("s0, order, floor", [(0.0, 8, COLUMN_FLOOR), (1.0, 64, PN_FLOOR),
                                             (1.0, 512, PN_FLOOR)])
def test_stacked_jet_matches_scalar_reference(s0, order, floor):
    # s0 = 0: the moments' trace series on diag(lam); s0 = 1: the p(n) jet
    rng = np.random.default_rng(11)
    lam = rng.uniform(-0.4, 3.0, (50, 4))
    w = rng.uniform(0.0, 4.0, (50, 4))
    if s0 == 0.0:
        jets = trace_series_jet(lam, w, order)
    else:
        jets = gaussian_stats._g_jet(lam, w, order)
    for i in range(len(lam)):
        assert deviation(jets[i], spectrum_jet(lam[i], w[i], s0, order), floor) <= 1e-12


@pytest.mark.filterwarnings("ignore::qcoupler.exceptions.ParameterRegimeWarning")
def test_run_scenario_names_first_non_finite_propagator():
    # the Stokes gain sqrt(1 - 0.5^2) overflows a double after z ~ 820
    cfg = ScenarioConfig(params=CouplerParams(gS1=1, gA1=0.5), z_max=1000.0, z_steps=11)
    failing = []
    for z in cfg.z_grid():
        try:
            propagator(cfg.params, z)
        except NumericalError:
            failing.append(z)
    assert failing and failing[0] > 0.0
    with pytest.raises(NumericalError, match=f"at z={failing[0]};"):
        run_scenario(cfg)


def _sweep_state(z_steps=8):
    params = CouplerParams(gS1=0.5, gA1=1.0)
    inputs = [VACUUM_INPUT] * 6
    inputs[ModeId.S1] = InputSpec(xi=1.0)
    return evolve_state(propagator(params, np.linspace(0.0, 1.0, z_steps)),
                        build_input_state(inputs))


def test_singular_pivot_in_batch_names_z_and_selection():
    states = _sweep_state()
    n = np.array(states.N)
    n[5, range(6), range(6)] = -1.5     # unphysical B: 1 + lam < 0 at s = 1
    bad = GaussianState(xi=states.xi, N=n, M=states.M, z=states.z)
    sel = ModeSelection((ModeId.S1,))
    message = f"singular at s=1.0 at z={states.z[5]} for selection S1"
    with pytest.raises(NumericalError, match=message):
        stats_report(bad, sel, k_max=2, n_max=8, include_pn=True)
    # without p(n) the s=1 jet is never built, but the same unphysical B
    # gives lambda < 0, which the quadrature alarm names
    with pytest.raises(NumericalError, match=f"quadrature variances lose their digits "
                                             f"at z={states.z[5]} for selection S1"):
        stats_report(bad, sel, k_max=2, n_max=8)


@pytest.mark.parametrize("k_max", [1, 4])
def test_variance_cross_check_in_sweep_names_z_and_selection(monkeypatch, k_max):
    cfg = dataclasses.replace(parse_scenario(SMALL_DOC), k_max=k_max)
    closed_form = gaussian_stats._intensity_variance

    def off_at_third_point(x, n, m):
        values = np.array(closed_form(x, n, m))
        values[3] += 1.0
        return values

    monkeypatch.setattr(gaussian_stats, "_intensity_variance", off_at_third_point)
    message = f"cross-check failed at z={cfg.z_grid()[3]} for selection S1A1"
    with pytest.raises(NumericalError, match=message):
        run_scenario(cfg)
    states = evolve_state(propagator(cfg.params, cfg.z_grid()),
                          build_input_state(cfg.inputs))
    with pytest.raises(NumericalError, match=message):
        stats_report(states, ModeSelection((ModeId.S1, ModeId.A1)), k_max, 8, include_pn=True)


def test_failed_eigh_in_pn_selection_fails_cross_check(monkeypatch):
    # the moments need no spectrum; the pn selection's spectrum is checked
    # through its own order-2 sum
    cfg = parse_scenario(SMALL_DOC)
    eigh = np.linalg.eigh

    def off_eigenvalues(a):
        lam, q = eigh(a)
        return lam * 1.01, q

    monkeypatch.setattr(np.linalg, "eigh", off_eigenvalues)
    with pytest.raises(NumericalError,
                       match=f"cross-check failed at z={cfg.z_grid()[1]} for selection S1:"):
        run_scenario(cfg)


def test_s1_jet_only_for_pn_selections(monkeypatch):
    cfg = parse_scenario(SMALL_DOC)
    spectra, jets, eighs = [], [], []
    spectrum, g_jet = gaussian_stats._selection_spectrum, gaussian_stats._g_jet
    eigh = np.linalg.eigh

    def recording_spectrum(gamma, y):
        spectra.append(gamma.shape)
        return spectrum(gamma, y)

    def recording_jet(lam, w, order):
        jets.append((order, lam.shape[0]))
        return g_jet(lam, w, order)

    def recording_eigh(a, *args, **kwargs):
        eighs.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(gaussian_stats, "_selection_spectrum", recording_spectrum)
    monkeypatch.setattr(gaussian_stats, "_g_jet", recording_jet)
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    result = run_truncated(cfg, "S1")
    # three selections; the moments come from the trace series, so only
    # the pn selection S1 gets an eigendecomposition (one, over the whole
    # grid) and the order-n_max jet at s=1
    assert spectra == [(6, 2, 2)]
    assert jets == [(32, 6)]
    assert eighs == [(6, 2, 2)]
    assert [sel for sel, _ in result.pn_tables] == ["S1"]
    # the moments to k = 8 take the trace series: no spectrum, no eigh
    stats_report(_sweep_state(), ModeSelection((ModeId.S1,)), k_max=8)
    assert spectra == [(6, 2, 2)] and len(jets) == 1 and len(eighs) == 1


# Every alarm of a report, of the propagator and of the conservation
# check, on a 2x3 stack over z.  FLAGGED marks (0, 2) and (1, 0): the
# first flagged point in row-major and in column-major order.
FLAGGED = np.array([[False, False, True], [True, False, False]])
Z_STACK = np.linspace(0.0, 1.0, 6).reshape(2, 3)


def _spoiled(entry, value):
    """An edit of (xi, N, M) that sets S1's ``entry``, "xi" or "N", at FLAGGED."""
    def spoil(xi, n, m):
        if entry == "xi":
            xi[FLAGGED, ModeId.S1] = value
        else:
            n[FLAGGED, ModeId.S1, ModeId.S1] = value
    return spoil


def _flagged_stack(spoil, stacked):
    """The sweep state as a 2x3 stack edited by ``spoil``, over Z_STACK or
    unpropagated (z None)."""
    states = _sweep_state(6)
    xi, n, m = (np.array(a).reshape((2, 3) + a.shape[1:])
                for a in (states.xi, states.N, states.M))
    spoil(xi, n, m)
    return GaussianState(xi, n, m, z=Z_STACK if stacked else None)


def _report(spoil=None, patch=None, **options):
    """A stats_report of S1 on the flagged stack; ``patch`` is (name,
    wrapper): gaussian_stats.<name> is replaced by wrapper(original)."""
    def run(monkeypatch, stacked):
        if patch is not None:
            name, wrapper = patch
            monkeypatch.setattr(gaussian_stats, name, wrapper(getattr(gaussian_stats, name)))
        state = _flagged_stack(spoil or (lambda *arrays: None), stacked)
        stats_report(state, ModeSelection((ModeId.S1,)), k_max=2, n_max=8, **options)
    return run


def _nan_pn(g_jet):
    return lambda lam, w, order: np.where(FLAGGED[..., None], np.nan, g_jet(lam, w, order))


def _heavy_pn(g_jet):
    return lambda lam, w, order: np.where(FLAGGED[..., None], 2.0, 1.0) * g_jet(lam, w, order)


def _nan_lambda(quadratures):
    def patched(n, m):
        lam, *rest = quadratures(n, m)
        return (np.where(FLAGGED, np.nan, lam), *rest)
    return patched


def _propagate(monkeypatch, stacked):
    # e^(2000 z) leaves the double range from z = 0.4 on
    propagator(CouplerParams(gS1=2000.0), Z_STACK)


def _balance(monkeypatch, stacked):
    conservation_residual(_flagged_stack(_spoiled("N", np.inf), stacked))


ALARMS = [
    ("<W> is not finite", _report(_spoiled("N", np.inf))),
    ("the intensity variance is not finite", _report(_spoiled("N", 1e200))),
    # an unphysical B: 1 + lam < 0 at s = 1, and lambda < 0
    ("generating function singular at s=1.0", _report(_spoiled("N", -1.5), include_pn=True)),
    ("p(n) for n <= 8 underflows", _report(_spoiled("xi", 1e3), include_pn=True)),
    ("intensity variance cross-check failed",
     _report(patch=("_intensity_variance", lambda f: lambda x, n, m: f(x, n, m) + FLAGGED))),
    ("quadrature variances lose their digits", _report(_spoiled("N", -1.5))),
    ("p(n) is not finite", _report(patch=("_g_jet", _nan_pn), include_pn=True)),
    ("lambda is not finite", _report(patch=("_quadratures", _nan_lambda))),
    ("p(n) sums above one", _report(patch=("_g_jet", _heavy_pn), include_pn=True)),
    ("photon-number balance drift is not finite", _balance),
    ("matrix exponential produced non-finite entries", _propagate),
]


@pytest.mark.parametrize("what, run, stacked", [
    pytest.param(what, run, stacked, id=f"{what}-{'z-stack' if stacked else 'no-z'}")
    for what, run in ALARMS for stacked in (True, False)
    if stacked or run is not _propagate   # a propagator always has its z
])
def test_every_alarm_names_the_first_flagged_point(monkeypatch, what, run, stacked):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError) as info:
        run(monkeypatch, stacked)
    message = str(info.value)
    assert message.startswith(what + (f" at z={Z_STACK[0, 2]}" if stacked else ""))
    assert (" at z" in message) == stacked


@pytest.mark.parametrize("entry, first, later, quoted", [
    ("N", -1.5, -30.0, "covariance eigenvalue -1.5 "),
    ("xi", 100.0, 1e4, "<W> = 10000 "),
])
def test_alarm_quotes_the_value_of_the_point_it_names(entry, first, later, quoted):
    """The singular-pivot and dead-p(n) alarms of a 6-point sweep that
    fails at z = 0.4 and z = 0.8 name z = 0.4 and quote S1's value there,
    not the worst over both points."""
    states = _sweep_state(6)
    xi, n = np.array(states.xi), np.array(states.N)
    for i, value in ((2, first), (4, later)):
        if entry == "xi":
            xi[i, ModeId.S1] = value
        else:
            n[i, ModeId.S1, ModeId.S1] = value
    spoiled = GaussianState(xi, n, states.M, z=states.z)
    with pytest.raises(NumericalError) as info:
        stats_report(spoiled, ModeSelection((ModeId.S1,)), k_max=2, n_max=8, include_pn=True)
    assert f"at z=0.4 for selection S1: {quoted}" in str(info.value)
