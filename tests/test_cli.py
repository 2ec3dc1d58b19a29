"""Scenario runner, CSV output, presets, and exit codes."""

import codecs
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qcoupler
import qcoupler.cli as cli
from qcoupler.cli import SweepResult, emit_csv, main, run_scenario
from qcoupler.dynamics import evolve_state, propagator
from qcoupler.exceptions import (
    NumericalError,
    ParameterRegimeWarning,
    PrecisionWarning,
    QcouplerError,
    TruncationWarning,
    ValidationError,
)
from qcoupler.model import (
    MODE_NAMES,
    QUANTITY_TAGS,
    CouplerParams,
    ModeId,
    ScenarioConfig,
    build_input_state,
    format_complex,
    parse_scenario,
)
from qcoupler.presets import PRESET_NAMES, load_preset

from conftest import PROPERTY_PHASES, run_preset, run_truncated


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


def small_config():
    return parse_scenario(SMALL_DOC)


def run_small():
    # S1 starts coherent with <W> = 4; at z = 1, 2.8e-3 of its
    # distribution lies beyond n_max = 32
    return run_truncated(small_config(), "S1")


def test_run_scenario_columns_and_grid():
    result = run_small()
    assert len(result.z) == 6 and result.z[0] == 0.0 and result.z[-1] == 1.0
    names = [name for name, _ in result.columns]
    assert names == ["S1A1.meanW", "S1A1.w2", "S1A1.w3", "S1A1.w4", "S1V1.lambda"]
    assert len(result.pn_tables) == 1
    sel_name, table = result.pn_tables[0]
    assert sel_name == "S1" and table.shape == (6, 33)


def test_vacuum_zero_params_defaults():
    cfg = ScenarioConfig(params=CouplerParams(), z_max=1.0, z_steps=5)
    result = run_scenario(cfg)
    cols = dict(result.columns)
    for m in ("S1", "A1", "V1", "S2", "A2", "V2"):
        assert np.all(cols[f"{m}.lambda"] == 1.0)
        assert np.all(np.isnan(cols[f"{m}.w2"]))
        assert np.all(cols[f"{m}.meanW"] == 0.0)


def test_run_scenario_warns_once_per_guide_with_dominant_stokes_coupling():
    with pytest.warns(ParameterRegimeWarning) as record:
        run_scenario(ScenarioConfig(params=CouplerParams(gS1=2, gA1=1), z_steps=2))
    assert [str(w.message) for w in record] == [
        "guide 1 has |gA| <= |gS|; nonclassical regimes favor |gA| > |gS|"]
    assert record[0].filename == __file__      # the line that called run_scenario


def test_emit_csv_round_trip(tmp_path):
    result = run_small()
    out = tmp_path / "run.csv"
    paths = emit_csv(result, out)
    assert [str(out), str(tmp_path / "run.S1.pn.csv")] == paths
    lines = out.read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "z,S1A1.meanW,S1A1.w2,S1A1.w3,S1A1.w4,S1V1.lambda"
    # reparsing and reformatting at 12 significant digits is the identity
    for row in data[1:]:
        rendered = ",".join(f"{float(v):.12g}" for v in row.split(","))
        assert rendered == row


def test_emit_csv_empty_columns(tmp_path):
    result = SweepResult(z=np.array([0.0, 0.5]), columns=(), pn_tables=(),
                         metadata=(("qcoupler", "test"),))
    out = tmp_path / "empty.csv"
    emit_csv(result, out)
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert lines == ["z", "0", "0.5"]


def reference_csv_bytes(result):
    """The texts emit_csv must write, each cell formatted on its own:
    {suffix: bytes} with "" for the main file and ".<sel>.pn" for side files."""
    def rows(columns):
        return "".join(",".join(format(v, ".12g") for v in row) + "\n"
                       for row in zip(*columns))

    main = "".join(f"# {key}: {value}\n" for key, value in result.metadata)
    main += ",".join(["z"] + [name for name, _ in result.columns]) + "\n"
    texts = {"": main + rows([result.z] + [values for _, values in result.columns])}
    for sel_name, table in result.pn_tables:
        header = ",".join(["z"] + [f"p{n}" for n in range(table.shape[1])]) + "\n"
        texts[f".{sel_name}.pn"] = header + rows([result.z, *table.T])
    return {suffix: text.encode() for suffix, text in texts.items()}


def synthetic_result():
    """Cells that stress the 12-digit text: NaN, signed zero, infinities,
    the smallest subnormal, huge and integral values."""
    z = np.array([0.0, 0.25, 1.0, 2.0, 1e-7])
    special = np.array([np.nan, -0.0, np.inf, -np.inf, 5e-324])
    scaled = np.array([1e300, -1e300, 3.0, -7.0, 123456789012.0])
    rounding = np.array([1.0 / 3.0, 0.1, 2.0 / 3.0 * 1e-5, 1e15 + 1.0, -2.5e-308])
    table = np.column_stack([special, scaled, rounding, np.zeros(5), -np.ones(5)])
    return SweepResult(z=z, columns=(("S1.meanW", special), ("S1.w2", scaled),
                                     ("S1V1.lambda", rounding)),
                       pn_tables=(("S1", table),), metadata=(("qcoupler", "test"),))


def blocked_result(rows, pn_columns, columns=6):
    """Seeded cells of every magnitude, on a grid of ``rows`` points, with
    ``columns`` main columns and a p(n) table ``pn_columns`` wide."""
    rng = np.random.default_rng(rows + 7 * pn_columns)

    def cells(shape):
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)

    z = np.linspace(0.0, 1.0, rows)
    main = cells((rows, columns))
    return SweepResult(z=z, columns=tuple((f"S1.w{k}", col) for k, col in enumerate(main.T)),
                       pn_tables=(("S1", np.abs(cells((rows, pn_columns)))),),
                       metadata=(("qcoupler", "test"),))


BLOCKED = {
    # three full blocks of the 7-column main table (and more of the p(n)
    # table), each plus a remainder of part of a block
    "blocks-and-remainder": lambda: blocked_result(3 * (cli._BLOCK_CELLS // 7) + 5, 40),
    # a p(n) row wider than one block: one row per block
    "row-wider-than-block": lambda: blocked_result(3, cli._BLOCK_CELLS + 904),
    # a grid of no points: the header lines only
    "zero-rows": lambda: blocked_result(0, 5),
}


@pytest.mark.parametrize("name", list(PRESET_NAMES) + ["synthetic"] + list(BLOCKED))
def test_emit_csv_bytes_match_per_cell_format(tmp_path, name):
    if name == "synthetic":
        result = synthetic_result()
    elif name in BLOCKED:
        result = BLOCKED[name]()
    else:
        result = run_preset(name)
    paths = emit_csv(result, tmp_path / "out.csv")
    expected = reference_csv_bytes(result)
    assert paths == [str(tmp_path / f"out{suffix}.csv") for suffix in expected]
    for suffix, data in expected.items():
        assert (tmp_path / f"out{suffix}.csv").read_bytes() == data, suffix


def test_emit_csv_memory_stays_flat(tmp_path):
    # the text of a (2000, 513) p(n) table is about 20 MB, and all its
    # cells as Python floats would be 33 MB; emission holds the stacked
    # table and one block's worth of them
    rng = np.random.default_rng(23)
    table = rng.random((2000, 513)) ** 8
    result = SweepResult(z=np.linspace(0.0, 1.0, 2000), columns=(),
                         pn_tables=(("S1", table),), metadata=(("qcoupler", "test"),))
    tracemalloc.start()
    try:
        emit_csv(result, tmp_path / "big.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes + 1_000_000


def test_run_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    emit_csv(run_small(), a)
    emit_csv(run_small(), b)
    assert a.read_bytes() == b.read_bytes()


def test_presets_complete_and_inherit():
    assert set(PRESET_NAMES) == {f"fig{n}" for n in range(2, 12)}
    fig2 = load_preset("fig2")
    assert fig2.params.gS1 == 1 and fig2.params.gA1 == 2
    assert fig2.inputs[ModeId.S1].xi == 2j and fig2.inputs[ModeId.V1].xi == 1
    fig5, fig6 = load_preset("fig5"), load_preset("fig6")
    assert fig6.params == CouplerParams(gS1=1, gA1=2, gS2=1, gA2=2,
                                        kappaS=6j, kappaA=6j)
    assert fig6.inputs == fig5.inputs
    fig7, fig8 = load_preset("fig7"), load_preset("fig8")
    assert fig8.params == fig7.params
    assert fig8.inputs[ModeId.V1].n_ch == 1.0 and fig7.inputs[ModeId.V1].n_ch == 0.1
    fig10, fig11 = load_preset("fig10"), load_preset("fig11")
    assert fig11.params.kappaA == 6j
    assert fig11.inputs == fig10.inputs
    with pytest.raises(ValidationError, match="unknown preset 'fig1'"):
        load_preset("fig1")


def test_preset_run_column_contract(tmp_path):
    cfg = replace(load_preset("fig2"), z_steps=4)
    result = run_scenario(cfg)
    names = [name for name, _ in result.columns]
    assert names == ["S1A1.meanW", "S1A1.w2", "S1A1.w3", "S1A1.w4", "S1A1.w5"]


def test_cli_run_scenario_file(tmp_path, capsys):
    doc = tmp_path / "scn.txt"
    doc.write_text(SMALL_DOC)
    out = tmp_path / "out.csv"
    with pytest.warns(TruncationWarning, match=r"p\(n\) of S1 is truncated"):
        assert main(["run", "--scenario", str(doc), "--out", str(out)]) == 0
    assert out.exists() and (tmp_path / "out.S1.pn.csv").exists()


def test_cli_overrides(tmp_path):
    doc = tmp_path / "scn.txt"
    doc.write_text(SMALL_DOC)
    out = tmp_path / "out.csv"
    assert main(["run", "--scenario", str(doc), "--out", str(out),
                 "--z-max", "0.5", "--steps", "3"]) == 0
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert len(rows) == 4 and rows[-1].split(",")[0] == "0.5"


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["bogus"]) == 1
    # the check suite's tolerances are fixed: it takes no options
    assert main(["check", "--tol", "1e-3"]) == 1
    assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err
    assert main(["run", "--scenario", str(tmp_path / "missing.txt")]) == 1
    bad = tmp_path / "bad.txt"
    # the coupler is phase-matched: even a zero mismatch is an unknown key
    bad.write_text("[params]\ndkS1 = 0\n[run]\nz_max = 1\nz_steps = 2\n")
    assert main(["run", "--scenario", str(bad)]) == 2
    assert "unknown parameter key 'dkS1'" in capsys.readouterr().err
    twice = tmp_path / "twice.txt"
    twice.write_text("[params]\ngS1 = 1\ngA1 = 2\n[run]\nz_max = 1\nz_steps = 2\n"
                     "[observables]\nmoments: S1,A1\nmoments: A1,S1\n")
    assert main(["run", "--scenario", str(twice)]) == 2
    assert "requested twice" in capsys.readouterr().err
    malformed = tmp_path / "malformed.txt"
    malformed.write_text("[params]\ngS1 = huh\n[run]\nz_max = 1\nz_steps = 2\n")
    assert main(["run", "--scenario", str(malformed)]) == 2
    capsys.readouterr()


def test_cli_scenario_not_utf8_is_a_parse_error(tmp_path, capsys, monkeypatch):
    doc = tmp_path / "utf16.txt"
    doc.write_bytes(b"\xff\xfe[params]\n")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--scenario", str(doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {doc} is not UTF-8 text: ") and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_cli_scenario_with_a_byte_order_mark_runs_as_without(tmp_path):
    # some Windows editors begin a UTF-8 file with the byte order mark
    text = ("[params]\ngS1 = 0.5\ngA1 = 1\n[run]\nz_max = 1\nz_steps = 5\n"
            "[observables]\nmoments: S1,A1\n").encode()
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text)
    marked.write_bytes(codecs.BOM_UTF8 + text)
    for doc in (plain, marked):
        assert main(["run", "--scenario", str(doc), "--out", str(tmp_path / f"{doc.stem}.csv")]) == 0
    assert (tmp_path / "marked.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


# gS1 = 1 on vacuum: S1V1 is a two-mode squeezed vacuum whose squeeze
# variance 2 e^(-2z) sinks below the roundoff of its quadratures from z = 5
GAIN_DOC = ("[params]\ngS1 = 1\n[run]\nz_max = 14\nz_steps = 15\n"
            "[observables]\nmoments: S1,V1\n")


def test_cli_moments_under_gain_skip_the_quadrature_alarm(tmp_path, capsys):
    doc = tmp_path / "gain.txt"
    doc.write_text(GAIN_DOC)
    out = tmp_path / "gain.csv"
    with pytest.warns(ParameterRegimeWarning):
        assert main(["run", "--scenario", str(doc), "--out", str(out)]) == 0
    header = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][0]
    assert header == "z,S1V1.meanW,S1V1.w2,S1V1.w3,S1V1.w4,S1V1.w5"


def test_cli_squeeze_under_gain_raises_the_quadrature_alarm(tmp_path, capsys):
    doc = tmp_path / "gain.txt"
    doc.write_text(GAIN_DOC + "squeeze: S1,V1\n")
    with pytest.warns(ParameterRegimeWarning):
        assert main(["run", "--scenario", str(doc), "--out", str(tmp_path / "gain.csv")]) == 3
    assert ("quadrature variances lose their digits at z=5.0 for selection S1V1"
            in capsys.readouterr().err)


def test_cli_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out.split()
    assert out == list(PRESET_NAMES)


def test_presets_serialize_round_trip():
    from qcoupler.model import parse_scenario, serialize_scenario
    for name in PRESET_NAMES:
        cfg = load_preset(name)
        assert parse_scenario(serialize_scenario(cfg)) == cfg


def test_metadata_echoes_scenario():
    result = run_small()
    meta = dict(result.metadata)
    assert "gS1 = 1.0" in meta["scenario"]
    assert float(meta["conservation_residual"]) < 1e-9
    assert float(meta["max_symplectic_residual"]) < 1e-10
    assert 0.0 <= float(meta["max_symplectic_residual_scaled"]) <= float(
        meta["max_symplectic_residual"])
    for name in PRESET_NAMES:
        cfg = load_preset(name)
        result = run_preset(name)
        meta = dict(result.metadata)
        keys = {key for key in meta if key.startswith("pn_max_deficit.")}
        assert keys == {f"pn_max_deficit.{sel}" for sel, _ in result.pn_tables}, name
        assert bool(keys) == any(tag == "pn" for tag, _ in cfg.effective_observables()), name
        for sel, table in result.pn_tables:
            deficit = 1.0 - table.sum(axis=1)
            i = int(np.argmax(deficit))
            assert meta[f"pn_max_deficit.{sel}"] == f"{deficit[i]:.6e} at z={result.z[i]:.12g}"


def test_truncated_pn_warns_with_selection_deficit_and_z():
    # fig7's S1A1 table is a small head of its distribution at n_max = 64
    with pytest.warns(TruncationWarning) as record:
        result = run_scenario(load_preset("fig7"))
    deficit = dict(result.metadata)["pn_max_deficit.S1A1"]
    assert deficit == "6.387384e-01 at z=1.81162324649"
    assert [str(w.message) for w in record] == [
        f"p(n) of S1A1 is truncated at n_max=64: largest deficit 1 - sum p(n) "
        f"{deficit} exceeds 1e-06"]


def test_pn_deficit_alarm_level(monkeypatch):
    # below the alarm no warning is raised (warnings are errors here): the
    # small document's S1 misses 1.2e-8 of its mass at n_max = 64, and
    # fig3's S1A1 misses 2.2e-15, which is roundoff
    run_scenario(replace(small_config(), n_max=64))
    assert float(dict(run_scenario(load_preset("fig3")).metadata)[
        "pn_max_deficit.S1A1"].split()[0]) < 1e-14
    monkeypatch.setattr(cli, "_PN_DEFICIT_ALARM", 1e-16)
    with pytest.warns(TruncationWarning, match=r"S1A1 .* exceeds 1e-16"):
        run_scenario(load_preset("fig3"))


# scipy is made unimportable before qcoupler is imported; the loaded
# scipy and numpy.random modules are listed after the run and after check
_NO_SCIPY_PROBE = """
import sys
sys.modules["scipy"] = None
from qcoupler.cli import main

def loaded():
    return sorted(m for m, mod in sys.modules.items()
                  if m.startswith(("scipy", "numpy.random")) and mod is not None)

run = main(["run", "--preset", "fig7", "--out", sys.argv[1]])
after_run = loaded()
check = main(["check"])
print(run, check, after_run, loaded())
"""


def _run_uninstalled(args, tmp_path):
    """Run the interpreter with only the source tree on the path."""
    src = os.path.dirname(os.path.dirname(qcoupler.__file__))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=300, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})


def test_import_and_run_load_no_scipy(tmp_path):
    """qcoupler needs numpy only: with scipy unimportable a preset run and
    ``check`` (the Fock oracle included) both pass and load none of it,
    nor ``numpy.random`` (about 6 MB of resident memory with its imports)."""
    proc = _run_uninstalled(["-c", _NO_SCIPY_PROBE, str(tmp_path / "fig7.csv")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 0 [] []"


# the modules that serve ``qcoupler check`` alone
_CHECK_ONLY_MODULES = ["qcoupler.analytic", "qcoupler.shortlen", "qcoupler.fock_oracle"]

# which of them are loaded after the import, after a run and after check
_LAZY_LOAD_PROBE = """
import sys
import qcoupler
from qcoupler.cli import main

def loaded():
    return "loaded: " + " ".join(m for m in sys.argv[2:] if m in sys.modules)

print(loaded())
main(["run", "--preset", "fig3", "--out", sys.argv[1]])
print(loaded())
main(["check"])
print(loaded())
"""


def test_check_only_modules_load_on_first_use(tmp_path):
    proc = _run_uninstalled(["-c", _LAZY_LOAD_PROBE, str(tmp_path / "fig3.csv"),
                             *_CHECK_ONLY_MODULES, "argparse"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[1:] for line in lines if line.startswith("loaded:")] == [
        [], ["argparse"], _CHECK_ONLY_MODULES + ["argparse"]]
    assert [line.split()[0] for line in lines[-4:-1]] == ["PASS"] * 3


# the public names of the check-only modules, each with its module
_LAZY_NAMES = {
    "analytic_propagator": "analytic", "conditions_satisfied": "analytic",
    "short_propagator": "shortlen", "shortlen_state": "shortlen",
    "FockConfig": "fock_oracle", "FockEnsemble": "fock_oracle", "FockLevel": "fock_oracle",
    "build_hamiltonian": "fock_oracle", "evolve_fock": "fock_oracle",
    "fock_statistics": "fock_oracle",
}

# what a fresh interpreter sees of the lazy names, as lines of 0/1 flags
_LAZY_NAMES_PROBE = """
import importlib, sys, types
import qcoupler

lazy = dict(arg.split(":") for arg in sys.argv[1:])
print(int(not any(name in vars(qcoupler) for name in lazy)))
print(int(all(name in dir(qcoupler) for name in lazy)))
print(int(all(getattr(qcoupler, name) is getattr(importlib.import_module("qcoupler." + mod), name)
              for name, mod in lazy.items())))
print(int(all(name in vars(qcoupler) for name in lazy)))

from qcoupler import FockConfig
print(int(FockConfig is qcoupler.fock_oracle.FockConfig))
star = {}
exec("from qcoupler import *", star)
public = {name for name in dir(qcoupler) if not name.startswith("_")
          and not isinstance(getattr(qcoupler, name), types.ModuleType)}
print(int(public <= star.keys() and set(lazy) <= public))
"""


def test_check_only_names_resolve_on_first_access(tmp_path):
    # each line: not bound at import, listed by dir(), the module's own
    # object, then bound; ``from qcoupler import`` one; ``import *`` all
    proc = _run_uninstalled(["-c", _LAZY_NAMES_PROBE,
                             *(f"{name}:{mod}" for name, mod in _LAZY_NAMES.items())], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"] * 6
    assert set(_LAZY_NAMES) <= set(qcoupler.__all__)
    with pytest.raises(AttributeError, match="^module 'qcoupler' has no attribute 'nonesuch'$"):
        qcoupler.nonesuch


def test_python_dash_m_runs_the_cli(tmp_path):
    proc = _run_uninstalled(["-m", "qcoupler", "list-presets"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == list(PRESET_NAMES)
    proc = _run_uninstalled(["-m", "qcoupler", "check"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[0] for line in proc.stdout.splitlines()] == ["PASS"] * 3


def test_oracle_check_catches_a_wrong_coupling(monkeypatch):
    # a relative 1e-5 error in one coupling on the Gaussian side moves p(n)
    # by 2.9e-7 (gA1) or 4.1e-7 (gS1), above the check's 4e-8 bound
    assert cli._check_oracle()[0]
    exact = cli.propagator
    for name in ("gS1", "gA1"):
        def perturbed(params, z, name=name):
            return exact(replace(params, **{name: getattr(params, name) * (1 + 1e-5)}), z)

        monkeypatch.setattr(cli, "propagator", perturbed)
        assert not cli._check_oracle()[0], name


def _near_exceptional_point(z_max):
    # |gA1| just above |gS1|: no regime warning, but the propagator's
    # transient growth eats its digits at long z
    return ScenarioConfig(params=CouplerParams(gS1=1, gA1=1 + 1e-4),
                          z_max=z_max, z_steps=500)


def test_propagator_that_lost_its_digits_raises():
    # the scaled symplectic residual reads 3.5e-2 here
    with pytest.raises(NumericalError, match=r"lost its digits.* from z="):
        run_scenario(_near_exceptional_point(1000.0))


def test_propagator_beyond_double_range_raises():
    # gS1 = 56 gains about e^562 by z = 10: |U|^2 overflows, and the scaled
    # residual, NaN, vouches for no digit of the transform
    cfg = ScenarioConfig(params=CouplerParams(gS1=56.234), z_max=10.0, z_steps=2)
    with pytest.warns(ParameterRegimeWarning), pytest.raises(
            NumericalError, match=r"lost its digits: scaled symplectic residual nan .* from z=10$"):
        run_scenario(cfg)


def test_propagator_losing_digits_warns():
    # the scaled symplectic residual reads 1.0e-9 here
    with pytest.warns(PrecisionWarning, match=r"exceeds 1e-10 from z="):
        result = run_scenario(_near_exceptional_point(300.0))
    assert 1e-10 < float(dict(result.metadata)["max_symplectic_residual_scaled"]) < 1e-6


# Moments beyond the double range, each a scenario on S1 of the coupler
# gS1 = 1, gA1 = 2 over z in [0, 1]: (name, [inputs.S1] lines, observables,
# exit code, error text)
OUT_OF_RANGE = (
    ("r-400", "r = 400", "", 2, "beyond the double range in [inputs.S1]"),
    ("xi-1e155", "xi = 1e155", "pn: S1", 2, "beyond the double range in [inputs.S1]"),
    ("n_ch-1e154", "n_ch = 1e154", "variance: S1,V1",
     3, "the intensity variance is not finite at z=0.5 for selection S1V1"),
    # S1's photon number, 1.55e308 at z = 0.75, first leaves the double range at z = 1
    ("n_ch-1e308", "n_ch = 1e308", "", 3, "<W> is not finite at z=1.0 for selection S1"),
    # S1 overflows unselected: the selected V2 columns are finite zeros
    ("n_ch-1e308-unselected", "n_ch = 1e308", "moments: V2",
     3, "photon-number balance drift is not finite at z=1.0"),
)


@pytest.mark.parametrize("name, lines, observables, code, message", OUT_OF_RANGE,
                         ids=[case[0] for case in OUT_OF_RANGE])
def test_cli_moments_beyond_double_range_fail_cleanly(tmp_path, capsys, name, lines,
                                                      observables, code, message):
    doc = tmp_path / f"{name}.txt"
    doc.write_text(f"[params]\ngS1 = 1\ngA1 = 2\n[inputs.S1]\n{lines}\n"
                   f"[run]\nz_max = 1\nz_steps = 5\n[observables]\n{observables}\n")
    assert main(["run", "--scenario", str(doc), "--out", str(tmp_path / "out.csv")]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


# Scenario documents across the range the format allows: couplings of
# modulus zero, 1e-3 .. 1e3 or 1e-300 .. 1e300, coherent amplitudes and
# chaotic numbers log-uniform up to 1e300, squeezing up to r = 1000, every
# observable tag, and the run keys within their documented limits.
def _log_uniform(low, high):
    return st.floats(np.log10(low), np.log10(high)).map(lambda e: 10.0**e)


def _polar(modulus):
    return st.builds(lambda mag, ph: mag * np.exp(1j * ph), modulus, _phase)


_phase = st.floats(-np.pi, np.pi)
_coupling = st.one_of(st.just(0j), _polar(_log_uniform(1e-3, 1e3)),
                      _polar(_log_uniform(1e-300, 1e300)))
_amplitude = st.one_of(st.just(0j), _polar(_log_uniform(1e-300, 1e300)))
_input_lines = st.fixed_dictionaries({}, optional={
    "xi": _amplitude.map(format_complex),
    "r": st.floats(0.0, 1000.0).map(repr),
    "theta": _phase.map(repr),
    "n_ch": st.one_of(st.just(0.0), _log_uniform(1e-300, 1e300)).map(repr),
})
_selection = st.lists(st.sampled_from(MODE_NAMES), min_size=1, max_size=2,
                      unique=True).map(",".join)


@st.composite
def scenario_documents(draw):
    couplings = draw(st.fixed_dictionaries({}, optional=dict.fromkeys(
        ("gS1", "gA1", "gS2", "gA2", "kappaS", "kappaA"), _coupling.map(format_complex))))
    lines = ["[params]"] + [f"{key} = {value}" for key, value in couplings.items()]
    for mode in draw(st.lists(st.sampled_from(MODE_NAMES), max_size=3, unique=True)):
        lines.append(f"[inputs.{mode}]")
        lines += [f"{key} = {value}" for key, value in draw(_input_lines).items()]
    lines += ["[run]", f"z_max = {draw(_log_uniform(1e-3, 1e3))!r}",
              f"z_steps = {draw(st.integers(2, 12))}", f"n_max = {draw(st.integers(1, 32))}",
              f"k_max = {draw(st.integers(1, 8))}", "[observables]"]
    lines += [f"{tag}: {sel}" for tag, sel in draw(st.lists(
        st.tuples(st.sampled_from(QUANTITY_TAGS), _selection), max_size=4,
        unique_by=lambda entry: (entry[0], frozenset(entry[1].split(",")))))]
    return "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("ignore::qcoupler.exceptions.ParameterRegimeWarning")
@pytest.mark.filterwarnings("ignore::qcoupler.exceptions.PrecisionWarning")
@pytest.mark.filterwarnings("ignore::qcoupler.exceptions.TruncationWarning")
@settings(max_examples=200, deadline=None, phases=PROPERTY_PHASES)
@given(text=scenario_documents())
def test_scenario_documents_run_finite_or_fail_loudly(text):
    # a document is rejected by the parser, fails its run with a package
    # error, or gives finite columns; only the reduced moments w2.. carry
    # NaN or inf markers (vacuum, or beyond the double range)
    try:
        cfg = parse_scenario(text)
        result = run_scenario(cfg)
    except QcouplerError:
        return
    for name, values in result.columns:
        if not name.rsplit(".", 1)[1].startswith("w"):
            assert np.all(np.isfinite(values)), name
    for name, table in result.pn_tables:
        assert np.all(np.isfinite(table)), name
    assert np.isfinite(float(dict(result.metadata)["conservation_residual"]))
    # and within their physical bounds, for k the modes of the selection
    columns = dict(result.columns)
    for _, sel in cfg.effective_observables():
        def col(qty):   # empty where the selection did not ask for it
            return columns.get(f"{sel.name}.{qty}", np.empty(0))
        floor = len(sel.modes) ** 2 * (1 - 1e-9)
        assert np.all(col("lambda") > 0), sel.name
        assert np.all(col("u") >= floor), sel.name
        assert np.all(col("var_p") * col("var_q") >= floor), sel.name
        assert np.all(col("meanW") >= 0), sel.name
    # p(n) >= 0 up to the rounding of the input moments: a squeezed input's
    # B = sinh^2 r and |C| = sinh(2r) / 2 are rounded apart, so |C|^2 may
    # pass B (B + 1), and the stored state's own p(n) dips to about
    # -eps sqrt(<W>) (p(1) = -1.0e-14 at r = 4 in 50 digits; the sweep reads
    # -1.5e-14)
    tables = dict(result.pn_tables)
    with np.errstate(over="ignore", invalid="ignore"):   # in modes no selection reads
        photons = evolve_state(propagator(cfg.params, cfg.z_grid()),
                               build_input_state(cfg.inputs)).mean_photon_numbers()
    for sel in {sel for tag, sel in cfg.effective_observables() if tag == "pn"}:
        mean_w = np.sum(photons[:, list(sel.modes)], axis=-1)
        table = tables[sel.name]
        assert np.all(table >= -1e-14 * np.sqrt(np.maximum(1.0, mean_w))[:, None]), sel.name
        assert np.all(table.sum(axis=-1) <= 1 + 1e-12), sel.name
