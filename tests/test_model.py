"""Domain types: input-state construction, validation, scenario parsing."""

import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from qcoupler.analytic import analytic_propagator
from qcoupler.dynamics import build_drift_matrix, evolve_state, propagator, rk4_propagator
from qcoupler.cli import run_scenario
from qcoupler.exceptions import ParameterRegimeWarning, ScenarioParseError, ValidationError
from qcoupler.fock_oracle import FockConfig, FockLevel
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
    format_complex,
    parse_complex,
    parse_scenario,
    serialize_scenario,
)
from qcoupler.presets import load_preset
from qcoupler.shortlen import short_propagator, shortlen_state

from conftest import random_couplings, random_inputs


def test_mode_order():
    assert [m.name for m in ModeId] == ["S1", "A1", "V1", "S2", "A2", "V2"]
    assert [int(m) for m in ModeId] == [0, 1, 2, 3, 4, 5]


def test_input_state_coherent():
    inputs = [VACUUM_INPUT] * 6
    inputs[ModeId.S1] = InputSpec(xi=2j)
    s = build_input_state(inputs)
    assert s.xi[0] == 2j
    assert s.B[0] == 0.0
    assert s.C[0] == 0.0


def test_input_state_chaotic_phonon():
    inputs = [VACUUM_INPUT] * 6
    inputs[ModeId.V1] = InputSpec(n_ch=1.0)
    s = build_input_state(inputs)
    assert s.B[ModeId.V1] == pytest.approx(1.0)
    assert s.C[ModeId.V1] == 0.0


def test_input_state_squeezed():
    inputs = [VACUUM_INPUT] * 6
    inputs[ModeId.S1] = InputSpec(r=1.0, theta=0.0)
    s = build_input_state(inputs)
    assert s.B[0] == pytest.approx(math.cosh(1.0) ** 2 - 1.0)
    assert s.C[0] == pytest.approx(0.5 * math.sinh(2.0))


@pytest.mark.parametrize("r", [1.35e-62, 6.1e-5, 1.5])
def test_input_state_squeezed_noise_keeps_its_digits(r):
    # B = sinh^2 r; cosh^2 r - 1 cancels to 0 at r = 1.35e-62 and loses
    # 8 digits at r = 6.1e-5
    inputs = [VACUUM_INPUT] * 6
    inputs[ModeId.S1] = InputSpec(r=r)
    s = build_input_state(inputs)
    with mp.workdps(40):
        ref = float(mp.sinh(mp.mpf(r)) ** 2)
    assert s.B[0] == pytest.approx(ref, rel=1e-15, abs=0.0)
    assert stats_report(s, (ModeId.S1,)).mean_w == pytest.approx(ref, rel=1e-15, abs=0.0)


def test_input_state_cross_moments_zero_and_deterministic():
    rng = np.random.default_rng(5)
    specs = random_inputs(rng)
    s1 = build_input_state(specs)
    s2 = build_input_state(specs)
    assert np.array_equal(s1.D, np.zeros((6, 6)))
    assert np.array_equal(s1.Dbar, np.zeros((6, 6)))
    assert np.array_equal(s1.xi, s2.xi) and np.array_equal(s1.B, s2.B)


def test_input_state_positive_semidefinite():
    rng = np.random.default_rng(17)
    for _ in range(50):
        s = build_input_state(random_inputs(rng))
        assert s.min_covariance_eigenvalue() >= -1e-9


@pytest.mark.parametrize("slot, fields, message", [
    pytest.param(5, dict(r=-0.1), "^r must be >= 0, got -0.1$", id="r-negative"),
    pytest.param(0, dict(n_ch=-1.0), "^n_ch must be >= 0, got -1.0$", id="n_ch-negative"),
    pytest.param(1, dict(r=1j), "^r is not a real scalar: 1j$", id="r-complex"),
    pytest.param(2, dict(n_ch="a"), "^n_ch is not a real scalar: 'a'$", id="n_ch-text"),
    pytest.param(3, None, "S2 input must be an InputSpec, got None", id="none-entry"),
])
def test_input_state_rejects_bad_parameters(slot, fields, message):
    # a bad spec cannot be made; a slot that holds no spec fails in build_input_state
    inputs = [VACUUM_INPUT] * 6
    with pytest.raises(ValidationError, match=message):
        inputs[slot] = None if fields is None else InputSpec(**fields)
        build_input_state(inputs)


def test_input_state_builds_from_validated_fields():
    # numeric text passes validation and is built as the number it spells
    text = build_input_state([InputSpec(xi="1.5", r="0.5", theta="0.25", n_ch="0.2")]
                             + [VACUUM_INPUT] * 5)
    plain = build_input_state([InputSpec(xi=1.5, r=0.5, theta=0.25, n_ch=0.2)]
                              + [VACUUM_INPUT] * 5)
    for name in ("xi", "N", "M"):
        assert np.array_equal(getattr(text, name), getattr(plain, name)), name
    spec = InputSpec(xi=np.complex128(2), r="0.5", theta=np.float64(1), n_ch=1)
    assert spec == InputSpec(xi=2 + 0j, r=0.5, theta=1.0, n_ch=1.0)
    assert [type(getattr(spec, f)) for f in ("xi", "r", "theta", "n_ch")] == [
        complex, float, float, float]
    params = CouplerParams(gS1=np.float64(1), kappaS="2-1j")
    assert params == CouplerParams(gS1=1 + 0j, kappaS=2 - 1j) and type(params.gS1) is complex


_MOMENTS_BEYOND = "beyond the double range"


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: CouplerParams(gS1="a"), "^gS1 is not a complex scalar: 'a'$",
                 id="coupling-text"),
    pytest.param(lambda: CouplerParams(gS1=math.nan),
                 r"^gS1 must be finite, got \(nan\+0j\)$", id="coupling-nan"),
    pytest.param(lambda: build_drift_matrix(CouplerParams(gS1="a")), "gS1 is not a complex scalar",
                 id="drift-matrix-of-text"),
    pytest.param(lambda: CouplerParams(gA2=complex(0, math.inf)), "^gA2 must be finite",
                 id="coupling-inf"),
    pytest.param(lambda: InputSpec(theta=math.inf), "^theta must be finite, got inf$",
                 id="theta-inf"),
    # B = sinh^2 r + n_ch, |C| = sinh(2r)/2 and |xi|^2 must be doubles
    pytest.param(lambda: InputSpec(r=400), _MOMENTS_BEYOND, id="r-400"),
    pytest.param(lambda: InputSpec(r=355.3), _MOMENTS_BEYOND, id="C-overflows"),
    pytest.param(lambda: InputSpec(r=354, n_ch=1.79e308), _MOMENTS_BEYOND, id="B-sum-overflows"),
    pytest.param(lambda: InputSpec(xi=1e155), _MOMENTS_BEYOND, id="xi-1e155"),
    pytest.param(lambda: InputSpec(xi=1e308 + 1e308j), _MOMENTS_BEYOND, id="xi-modulus-overflows"),
    pytest.param(lambda: ModeSelection(5), "^a mode selection must be an iterable, got 5$",
                 id="selection-not-iterable"),
    pytest.param(lambda: FockConfig(modes=(7, 2), cutoffs=(3, 3), params=CouplerParams()),
                 "^mode 7 is not a ModeId$", id="fock-mode-unknown"),
    pytest.param(lambda: FockConfig(modes=(0, 2), cutoffs=(3, 3), params=None),
                 "^params must be a CouplerParams, got None$", id="fock-params-none"),
    pytest.param(lambda: FockLevel(1.5), "^a Fock level must be an integer >= 0, got 1.5$",
                 id="fock-fraction"),
    pytest.param(lambda: FockLevel(-1), "^a Fock level must be an integer >= 0, got -1$",
                 id="fock-negative"),
])
def test_values_check_themselves_when_made(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_largest_moments_are_accepted():
    # moments near the top of the double range: B = 1e308, |C| = sinh(2r)/2
    # = 5.6e307 at r = 355 and |xi|^2 = 1e308; check_physical takes the
    # eigenvalues of the covariance over its scale, which are doubles
    for spec in (InputSpec(n_ch=1e308), InputSpec(r=355.0), InputSpec(xi=1e154)):
        state = build_input_state([spec] + [VACUUM_INPUT] * 5)
        assert np.all(np.isfinite(state.min_covariance_eigenvalue()))


def test_bad_input_fails_at_parse_naming_its_section():
    doc = "[params]\ngS1 = 1\n[inputs.A2]\nxi = 1\nr = -1\n"
    with pytest.raises(ScenarioParseError, match=r"^r must be >= 0, got -1.0 in \[inputs.A2\]$"):
        parse_scenario(doc)
    with pytest.raises(ScenarioParseError, match=rf"{_MOMENTS_BEYOND} in \[inputs.A2\]$"):
        parse_scenario(doc.replace("r = -1", "r = 400"))


@pytest.mark.parametrize("field, value, message", [
    pytest.param("z_steps", "a", "z_steps must be an integer >= 2, got 'a'", id="steps-text"),
    pytest.param("z_steps", 2.5, "z_steps must be an integer >= 2, got 2.5", id="steps-fraction"),
    pytest.param("z_steps", 1, "z_steps must be an integer >= 2, got 1", id="steps-one"),
    pytest.param("z_max", 1j, "z_max is not a real scalar: 1j", id="max-complex"),
    pytest.param("z_max", "a", "z_max is not a real scalar: 'a'", id="max-text"),
    pytest.param("z_max", math.inf, "z_max must be finite, got inf", id="max-inf"),
    pytest.param("z_max", -1.0, "z_max must be positive and finite, got -1.0", id="max-negative"),
    pytest.param("params", None, "params must be a CouplerParams, got None", id="params-none"),
    pytest.param("inputs", (None,) * 6, "S1 input must be an InputSpec, got None",
                 id="inputs-none"),
])
def test_scenario_grid_validation(field, value, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        ScenarioConfig(**{"params": CouplerParams(gS1=1), field: value})


def test_scenario_grid_fields_are_normalized():
    cfg = ScenarioConfig(params=CouplerParams(gS1=1), z_max="2.5", z_steps=np.int64(11))
    assert cfg.z_max == 2.5 and isinstance(cfg.z_max, float)
    assert np.array_equal(cfg.z_grid(), np.linspace(0.0, 2.5, 11))


def test_scenario_sequences_are_normalized_to_tuples():
    sel = ModeSelection((ModeId.S1,))
    cfg = ScenarioConfig(params=CouplerParams(gS1=1), inputs=(VACUUM_INPUT for _ in range(6)),
                         observables=[("moments", sel)])
    assert cfg.inputs == (VACUUM_INPUT,) * 6
    assert cfg.observables == (("moments", sel),)


_PARAMS = CouplerParams(gS1=1)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: ScenarioConfig(params=_PARAMS, inputs=None),
                 "inputs must be an iterable, got None", id="config-inputs-none"),
    pytest.param(lambda: ScenarioConfig(params=_PARAMS, inputs=(VACUUM_INPUT for _ in range(5))),
                 "expected 6 input specs, got 5", id="config-inputs-generator"),
    pytest.param(lambda: ScenarioConfig(params=_PARAMS, observables=None),
                 "observables must be an iterable, got None", id="config-observables-none"),
    pytest.param(lambda: ScenarioConfig(params=_PARAMS, observables=(("moments",),)),
                 r"an observable is a \(quantity tag, ModeSelection\) pair, got \('moments',\)",
                 id="config-observable-unpaired"),
    pytest.param(lambda: build_input_state(None), "inputs must be an iterable, got None",
                 id="input-state-none"),
    pytest.param(lambda: load_preset("fig1"), "unknown preset 'fig1'", id="preset-unknown"),
])
def test_library_entry_points_raise_validation_error(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


# on the matched-coupling manifold, so that the closed form takes them too
_MATCHED = CouplerParams(gS1=1, gA1=2, gS2=1, gA2=2, kappaS=1, kappaA=-1)


@pytest.mark.parametrize("route", [
    analytic_propagator,
    short_propagator,
    rk4_propagator,
    lambda params, z: shortlen_state(params, build_input_state([VACUUM_INPUT] * 6), z),
], ids=["analytic", "short", "rk4", "shortlen-state"])
@pytest.mark.parametrize("z, message", [
    pytest.param(np.array([0.1, 0.2]), r"^z is not a real scalar: array\(\[0.1, 0.2\]\)$",
                 id="array"),
    pytest.param("a", "^z is not a real scalar: 'a'$", id="text"),
    pytest.param(math.nan, "^z must be finite, got nan$", id="nan"),
    pytest.param(math.inf, "^z must be finite, got inf$", id="inf"),
    # float() would drop the imaginary part with only a ComplexWarning
    pytest.param(np.complex128(1 + 2j), r"^z is not a real scalar: .*1\+2j\)$",
                 id="numpy-complex"),
])
def test_scalar_length_routes_check_their_length(route, z, message):
    # only ``propagator`` takes an array of lengths
    with pytest.raises(ValidationError, match=message):
        route(_MATCHED, z)


@pytest.mark.parametrize("h, message", [
    pytest.param(-1.0, "^h must be positive, got -1.0$", id="negative"),
    pytest.param(0.0, "^h must be positive, got 0.0$", id="zero"),
    pytest.param(math.inf, "^h must be finite, got inf$", id="inf"),
    pytest.param(math.nan, "^h must be finite, got nan$", id="nan"),
    pytest.param("x", "^h is not a real scalar: 'x'$", id="text"),
])
def test_rk4_propagator_checks_its_step(h, message):
    # left unchecked, a negative or infinite h takes one RK4 step over the whole length
    with pytest.raises(ValidationError, match=message):
        rk4_propagator(CouplerParams(gS1=1, gA1=2), 1.0, h=h)


@pytest.mark.parametrize("z, message", [
    pytest.param(np.array([1 + 2j]), r"^z entry is not a real scalar: \(1\+2j\)$",
                 id="complex-array"),
    pytest.param(np.array([0.5 + 0j]), r"^z entry is not a real scalar: \(0.5\+0j\)$",
                 id="complex-array-real-valued"),
    pytest.param(1j, "^z is not a real scalar: 1j$", id="complex"),
    pytest.param("abc", "^z is not a real scalar: 'abc'$", id="text"),
    pytest.param([0.1, "abc"], "^z entry is not a real scalar: 'abc'$", id="text-entry"),
    pytest.param([0.1, [0.2, 0.3]], r"^z is not a real array: \[0.1, \[0.2, 0.3\]\]$",
                 id="ragged"),
    pytest.param(None, "^z is not a real scalar: None$", id="none"),
    pytest.param([0.1, None], "^z entry is not a real scalar: None$", id="none-entry"),
    pytest.param(math.nan, "^z must be finite, got nan$", id="nan"),
    pytest.param(np.array([[0.1, 0.2], [math.inf, 0.3]]),
                 "^z must be finite, got inf at flat index 2$", id="inf-entry"),
])
def test_propagator_checks_its_lengths(z, message):
    with pytest.raises(ValidationError, match=message):
        propagator(_MATCHED, z)


def test_propagator_reads_real_lengths_exactly():
    grid = np.linspace(0.0, 1.5, 9)
    for z, same in [(grid.tolist(), grid), (np.arange(4), np.arange(4.0)),
                    (grid.astype(np.float32), grid.astype(np.float32).astype(float)),
                    ("0.5", 0.5), (np.float32(0.1), float(np.float32(0.1)))]:
        t, ref = propagator(_MATCHED, z), propagator(_MATCHED, same)
        assert t.z.dtype == float and t.z.tobytes() == np.asarray(same, float).tobytes()
        assert t.block.tobytes() == ref.block.tobytes()


def test_state_noise_functions_read_off_n_and_m():
    rng = np.random.default_rng(23)
    params = random_couplings(rng, mag=1.0)
    s = evolve_state(propagator(params, np.linspace(0.0, 1.0, 7)),
                     build_input_state(random_inputs(rng)))
    assert [f.name for f in dataclasses.fields(GaussianState)] == ["xi", "N", "M", "z"]
    assert s.N.shape == s.M.shape == (7, 6, 6) and s.B.shape == s.C.shape == (7, 6)
    eye = np.eye(6)
    assert np.array_equal(s.N, eye * s.B[..., None, :] - s.Dbar)
    assert np.array_equal(s.M, eye * s.C[..., None, :] + s.D)
    assert np.all(s.D[..., eye == 1] == 0) and np.all(s.Dbar[..., eye == 1] == 0)
    assert np.any(s.D != 0) and np.any(s.Dbar != 0)
    for name in ("xi", "N", "M", "z", "B", "C", "D", "Dbar"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(s, name)[...] = 0
        with pytest.raises(AttributeError):
            setattr(s, name, getattr(s, name))


@pytest.mark.parametrize("xi, n, m", [
    (np.zeros(6), np.zeros((6, 5)), np.zeros((6, 6))),
    (np.zeros(6), np.zeros((6, 6)), np.zeros(6)),
    (np.zeros((3, 6)), np.zeros((6, 6)), np.zeros((3, 6, 6))),
    (np.zeros((3, 6)), np.zeros((3, 6, 6)), np.zeros((2, 6, 6))),
])
def test_state_rejects_wrong_shapes(xi, n, m):
    with pytest.raises(ValidationError, match="expected array of shape"):
        GaussianState(xi=xi, N=n, M=m)


def _single_entry(j, k, value):
    out = np.zeros((6, 6), complex)
    out[j, k] = value
    return out


@pytest.mark.parametrize("n, m, message", [
    (_single_entry(2, 2, -0.5), np.zeros((6, 6)), "negative noise variance B"),
    (_single_entry(0, 1, 0.1), np.zeros((6, 6)), "N is not Hermitian"),
    (np.zeros((6, 6)), _single_entry(0, 1, 0.1), "M is not symmetric"),
    # a pair moment with no noise to carry it: |C|^2 > B (B + 1)
    (np.zeros((6, 6)), _single_entry(0, 0, 0.5), "not positive semidefinite"),
])
def test_check_physical_branches(n, m, message):
    state = GaussianState(xi=np.zeros(6), N=n, M=m)
    with pytest.raises(ValidationError, match=message):
        state.check_physical()


def test_validate_params_zero_is_valid():
    # no coupling at all: the parameters are valid and the sweep warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_scenario(ScenarioConfig(params=CouplerParams(), z_steps=2))


def test_validate_params_regime_warning():
    # |gA| > |gS| in the driven guide: no warning (the published regime)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_scenario(ScenarioConfig(params=CouplerParams(gS1=1, gA1=2, kappaS=-10), z_steps=2))
    # dominant Stokes coupling warns, non-fatally
    with pytest.warns(ParameterRegimeWarning):
        result = run_scenario(ScenarioConfig(params=CouplerParams(gS1=2, gA1=1), z_steps=2))
    assert result.z.shape == (2,)


def test_mode_selection_canonical_order():
    sel = ModeSelection((ModeId.S2, ModeId.A1))
    assert sel.modes == (ModeId.A1, ModeId.S2)
    assert sel.name == "A1S2"
    assert ModeSelection.parse("S1,A1").name == "S1A1"
    assert ModeSelection.parse("S1V1").name == "S1V1"
    assert not ModeSelection.parse("V2").is_compound
    with pytest.raises(ValidationError):
        ModeSelection((ModeId.S1, ModeId.S1))
    with pytest.raises(ValidationError):
        ModeSelection.parse("S1,Q7")


SCENARIO_DOC = """
# stimulated Stokes, guide 1
[params]
gS1 = 1
gA1 = 2
kappaS = -10+0i
[inputs.S1]
xi = 2i
[inputs.V1]
xi = 1
[run]
z_max = 5
z_steps = 100
[observables]
moments: S1,A1
squeeze: S1V1
"""


def test_parse_scenario_document():
    cfg = parse_scenario(SCENARIO_DOC)
    assert cfg.params.gS1 == 1 and cfg.params.gA1 == 2 and cfg.params.kappaS == -10
    assert cfg.inputs[ModeId.S1].xi == 2j
    assert cfg.inputs[ModeId.V1].xi == 1
    assert cfg.inputs[ModeId.A1] == VACUUM_INPUT
    assert cfg.z_max == 5 and cfg.z_steps == 100
    assert cfg.n_max == 64 and cfg.k_max == 5     # documented defaults
    assert [(t, s.name) for t, s in cfg.observables] == [
        ("moments", "S1A1"), ("squeeze", "S1V1")]


def test_parse_scenario_default_observables():
    cfg = parse_scenario("[params]\ngS1 = 1\n[run]\nz_max = 1\nz_steps = 10\n")
    assert cfg.observables == ()
    eff = cfg.effective_observables()
    singles = {s.name for t, s in eff if t == "moments"}
    assert singles == {"S1", "A1", "V1", "S2", "A2", "V2"}
    assert {t for t, _ in eff} == {"moments", "squeeze"}


def test_parse_scenario_errors_carry_context():
    with pytest.raises(ScenarioParseError, match="missing \\[params\\]"):
        parse_scenario("[run]\nz_max = 1\nz_steps = 2\n")
    with pytest.raises(ScenarioParseError, match="line 2"):
        parse_scenario("[params]\nbogus = 1\n")
    with pytest.raises(ScenarioParseError, match="complex"):
        parse_scenario("[params]\ngS1 = 1+2x\n")
    with pytest.raises(ScenarioParseError, match="unknown section"):
        parse_scenario("[params]\n[nonsense]\n")


@pytest.mark.parametrize("doc, message", [
    pytest.param("[params]\ngS1 1\n", "expected 'key = value' (line 2)",
                 id="params-no-equals"),
    pytest.param("[params]\nbogus = 1\n",
                 "unknown parameter key 'bogus' (line 2, key 'bogus')", id="params-unknown"),
    pytest.param("[params]\ngS1 = 1\ngS1 = 2\n",
                 "duplicate key 'gS1' (line 3, key 'gS1')", id="params-duplicate"),
    pytest.param("[params]\n[inputs.S1]\nxi 1\n", "expected 'key = value' (line 3)",
                 id="inputs-no-equals"),
    pytest.param("[params]\n[inputs.S1]\nbogus = 1\n",
                 "unknown input key 'bogus' (line 3, key 'bogus')", id="inputs-unknown"),
    pytest.param("[params]\n[inputs.S1]\nr = 1\nr = 2\n",
                 "duplicate key 'r' (line 4, key 'r')", id="inputs-duplicate"),
    pytest.param("[params]\n[inputs.S1]\nr = 1i\n",
                 "r must be real (line 3, key 'r')", id="inputs-not-real"),
    pytest.param("[params]\n[run]\nz_max 1\n", "expected 'key = value' (line 3)",
                 id="run-no-equals"),
    pytest.param("[params]\n[run]\nbogus = 1\n",
                 "unknown run key 'bogus' (line 3, key 'bogus')", id="run-unknown"),
    pytest.param("[params]\n[run]\nz_max = 1\nz_max = 2\n",
                 "duplicate key 'z_max' (line 4, key 'z_max')", id="run-duplicate"),
    pytest.param("[params]\n[run]\nz_max = 2i\n",
                 "z_max must be real (line 3, key 'z_max')", id="run-not-real"),
    pytest.param("[params]\n[run]\nz_steps = 1i\n",
                 "z_steps must be real (line 3, key 'z_steps')", id="run-integer-not-real"),
    pytest.param("[params]\n[run]\nz_steps = 2.5\n",
                 "z_steps must be an integer (line 3, key 'z_steps')", id="run-not-integer"),
])
def test_parse_scenario_key_errors(doc, message):
    with pytest.raises(ScenarioParseError) as info:
        parse_scenario(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("key, value", [
    ("k_max", 9), ("n_max", 1000), ("k_max", 0), ("k_max", 2.5), ("n_max", 64.5),
    ("k_max", "5"),
])
def test_order_limit_validation(key, value):
    # the scenario, its parser and stats_report share one check of the orders
    message = f"{key} must be an integer in"
    with pytest.raises(ValidationError, match=message):
        ScenarioConfig(params=CouplerParams(gS1=1), **{key: value})
    with pytest.raises(ValidationError, match=message):
        stats_report(build_input_state([VACUUM_INPUT] * 6), ModeSelection((ModeId.S1,)),
                     **{key: value})
    if isinstance(value, int):
        doc = f"[params]\ngS1 = 1\n[run]\nz_max = 1\nz_steps = 10\n{key} = {value}\n"
        with pytest.raises(ValidationError, match=message):
            parse_scenario(doc)


def test_scenario_mismatch_key_is_unknown():
    # the coupler is phase-matched: a mismatch is no parameter, zero or not
    for key in ("dkS1", "dkA1", "dkS2", "dkA2", "dKS", "dKA"):
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(f"[params]\n{key} = 0\n[run]\nz_max = 1\nz_steps = 2\n")
        assert str(info.value) == f"unknown parameter key '{key}' (line 2, key '{key}')"
        with pytest.raises(TypeError):
            CouplerParams(**{key: 0.0})


@pytest.mark.parametrize("lines", [
    pytest.param(["squeeze: S1", "squeeze: S1"], id="same-line"),
    pytest.param(["moments: S1,A1", "moments: A1,S1"], id="compound-reordered"),
])
def test_scenario_rejects_repeated_observable(lines):
    # each (quantity, selection) pair names its own CSV columns
    doc = "[params]\ngS1 = 1\n[run]\nz_max = 1\nz_steps = 2\n[observables]\n"
    with pytest.raises(ValidationError, match="requested twice"):
        parse_scenario(doc + "\n".join(lines) + "\n")
    # the same selection under another quantity is no repeat
    cfg = parse_scenario(doc + lines[0] + "\nvariance: " + lines[0].split(":")[1] + "\n")
    assert len(cfg.observables) == 2


def test_serialize_round_trip():
    cfg = parse_scenario(SCENARIO_DOC)
    assert parse_scenario(serialize_scenario(cfg)) == cfg
    # a config with every field populated
    cfg2 = ScenarioConfig(
        params=CouplerParams(gS1=1 + 2j, gA1=-0.5j, gS2=3, gA2=1, kappaS=6j, kappaA=-1),
        inputs=tuple(
            InputSpec(xi=complex(i, -i) * 0.1, r=0.1 * i, theta=0.2 * i, n_ch=0.05 * i)
            for i in range(6)
        ),
        z_max=2.5, z_steps=50, n_max=128, k_max=6,
        observables=(("pn", ModeSelection((ModeId.S1,))),
                     ("quadratures", ModeSelection((ModeId.A1, ModeId.V2)))),
    )
    assert parse_scenario(serialize_scenario(cfg2)) == cfg2


def test_serialize_round_trip_of_numpy_and_int_fields():
    # a library-built config may hold numpy scalars, and real fields may be ints
    cfg = ScenarioConfig(
        params=CouplerParams(gS1=np.complex128(1 - 0.5j), gA1=np.float64(2.0)),
        inputs=(InputSpec(xi=np.float64(1.5), r=np.float64(0.5), theta=np.float64(-0.3),
                          n_ch=np.float64(0.2)),
                InputSpec(r=1, n_ch=2)) + (VACUUM_INPUT,) * 4,
        z_max=np.float64(2.0), z_steps=np.int64(40), n_max=np.int64(16), k_max=np.int64(3),
    )
    text = serialize_scenario(cfg)
    assert "np." not in text
    assert "z_steps = 40" in text and "r = 1.0" in text
    assert parse_scenario(text) == cfg
    int_real = dataclasses.replace(cfg, z_max=2)
    assert parse_scenario(serialize_scenario(int_real)) == int_real
    # the orders are stored as the ints they were checked as, a bool as 1
    for orders in ({}, {"n_max": True}, {"k_max": True}):
        ordered = dataclasses.replace(cfg, **orders)
        assert type(ordered.n_max) is int and type(ordered.k_max) is int
        assert parse_scenario(serialize_scenario(ordered)) == ordered


def test_parse_complex_forms():
    cases = {
        "2": 2, "-3.5": -3.5, "2i": 2j, "-i": -1j, "i": 1j,
        "1+2i": 1 + 2j, "1.5e-3-2e+4i": 1.5e-3 - 2e4j, "1-i": 1 - 1j,
    }
    for text, value in cases.items():
        assert parse_complex(text) == value
    for bad in ("", "1+2x", "2 + 3i", "nan", "infi", "(1+2i)"):
        with pytest.raises(ScenarioParseError):
            parse_complex(bad)


def test_format_complex_round_trips():
    for value in (0, 1, -2.5, 2j, -1j, 1 + 2j, -0.25 - 3e-4j, 6j):
        assert parse_complex(format_complex(value)) == complex(value)


def test_swapped_params():
    p = CouplerParams(gS1=1, gA1=2, gS2=3, gA2=4, kappaS=1j, kappaA=-2j)
    q = p.swapped()
    assert (q.gS1, q.gA1, q.gS2, q.gA2) == (3, 4, 1, 2)
    assert q.kappaS == -1j and q.kappaA == 2j
    assert q.swapped() == p
