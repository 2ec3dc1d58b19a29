"""Sweep benchmark for qcoupler.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 25 --trace 0

Run from the repository root; it imports the package from ``src/``.  A
sweep is one scenario passed through ``qcoupler.run_scenario`` and
``qcoupler.emit_csv``, which is what ``qcoupler run`` does after import.
A pass runs every sweep the workload picked for the seed; passes start
until ``--seconds`` have passed, so a run measures for at least that long
and at most one pass longer.  Every sweep's output is checked (``checks.py``), outside the
timed region.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median pass
time), ``sweep_s.p50`` (median sweep time), ``evals_per_s``
((z-point x selection) statistic evaluations per second of a pass),
``setup_s`` (median over fresh interpreters of importing qcoupler and
building the configs), ``peak_rss_mb`` and ``ok_frac`` (sweeps that
passed their checks over sweeps attempted).

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of ``tracing.py`` (medians over traced passes), plus a
replay of the generating-function calls on the first traced pass's
states.  Spans are written to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
OUT_DIR = ".perfbench_out"

END_TO_END_UNITS = {"wall_s": "s", "sweep_s.p50": "s", "evals_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "fraction"}
PER_LAYER_UNITS = {
    "model.config_s": "s", "model.self_s": "s",
    "dynamics.build_drift_matrix_s": "s", "dynamics.propagator_s": "s",
    "dynamics.propagator_calls": "count", "dynamics.evolve_state_s": "s",
    "dynamics.evolve_state_calls": "count", "dynamics.residuals_s": "s",
    "dynamics.self_s": "s",
    "gaussian_stats.stats_report_s": "s", "gaussian_stats.stats_report_calls": "count",
    "gaussian_stats.moments_and_distribution_s": "s", "gaussian_stats.jet_s0_s": "s",
    "gaussian_stats.jet_s1_s": "s", "gaussian_stats.spectrum_s": "s",
    "gaussian_stats.jet_order_sum": "count", "gaussian_stats.pn_useful_ratio": "fraction",
    "gaussian_stats.self_s": "s",
    "cli.run_scenario_s": "s", "cli.run_scenario.self_s": "s", "cli.pool_threads": "count",
    "cli.emit_csv_s": "s", "cli.emit_csv_bytes": "bytes", "cli.emit_csv_mb_per_s": "MB/s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.accounted_frac": "fraction",
}
REPLAY_METRICS = ("gaussian_stats.jet_s0_s", "gaussian_stats.jet_s1_s",
                  "gaussian_stats.spectrum_s")


class BenchError(Exception):
    pass


def load_qcoupler(root: str):
    """Import qcoupler from ``<root>/src``, and from nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qcoupler", "__init__.py")):
        raise BenchError(f"no qcoupler package under {src}; run from the repository root")
    sys.path.insert(0, src)
    import qcoupler
    import qcoupler.cli
    import qcoupler.gaussian_stats
    if not os.path.abspath(qcoupler.__file__).startswith(os.path.join(src, "")):
        raise BenchError(f"imported qcoupler from {qcoupler.__file__}, not from {src}")
    return qcoupler


def repo_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_record(qc, workload: str, seed: int, root: str) -> dict:
    import numpy
    import scipy
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ.get(k) for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"workload": workload, "seed": seed, "commit": repo_commit(root),
            "cpu_count": os.cpu_count(), "cpu_model": cpu_model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "qcoupler": qc.__version__, "blas": blas,
            "blas_thread_env": threads}


def measure_setup(root: str, workload: str, seed: int) -> float:
    """Median over fresh interpreters of import + config building."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), root, workload, str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def evaluations(cfg) -> int:
    """(z-point x selection) statistic evaluations a sweep asks for."""
    selections = {sel for _, sel in cfg.effective_observables()}
    return int(cfg.z_steps) * len(selections)


class Runner:
    """Runs passes over one workload's sweeps and checks every output."""

    def __init__(self, sweeps, configs, goldens, out_dir):
        self.sweeps = sweeps
        self.configs = configs
        self.goldens = goldens
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.golden_failures = []
        self.max_deviation = 0.0
        self.emit_bytes = 0

    def check(self, sweep, result, written) -> list:
        problems = checks.invariant_failures(result)
        problems += checks.csv_failures(result, written)
        if self.goldens.has(sweep.id):
            dev, mismatches = checks.golden_deviation(sweep.id, result, self.goldens.arrays)
            self.max_deviation = max(self.max_deviation, dev)
            problems += mismatches
        return problems

    def run_pass(self, run_scenario, emit_csv, after_sweep=None) -> tuple[float, list]:
        """One pass; returns (wall seconds, per-sweep seconds)."""
        times = []
        self.emit_bytes = 0
        for index, (sweep, cfg) in enumerate(zip(self.sweeps, self.configs)):
            path = os.path.join(self.out_dir, f"{sweep.id}.csv")
            result, written, error = None, [], None
            start = time.perf_counter()
            try:
                result = run_scenario(cfg)
                written = emit_csv(result, path)
            except Exception:  # a sweep that raises counts as failed
                error = traceback.format_exc(limit=3)
            times.append(time.perf_counter() - start)
            if after_sweep is not None and result is not None:
                after_sweep(index, cfg)
            if error is None:
                try:
                    self.emit_bytes += sum(os.path.getsize(p) for p in written)
                    problems = self.check(sweep, result, written)
                except Exception:  # output the checks cannot read is a failure
                    problems = [traceback.format_exc(limit=3)]
            else:
                problems = [error]
            for name in os.listdir(self.out_dir):
                os.remove(os.path.join(self.out_dir, name))
            self.attempted += 1
            if problems:
                self.failed += 1
                if self.goldens.has(sweep.id):
                    self.golden_failures.append(f"{sweep.id}: {'; '.join(problems)}")
                    print(f"FAIL {sweep.id}: {'; '.join(problems)}", file=sys.stderr)
        return sum(times), times


def passes_until(seconds: float, one_pass) -> None:
    """Run ``one_pass`` until ``seconds`` have passed (at least once)."""
    start = time.perf_counter()
    one_pass()
    while time.perf_counter() - start < seconds:
        one_pass()


def replay(qc, states, cfg, totals: dict):
    """Time public generating-function calls on a sweep's states."""
    jet = getattr(qc.gaussian_stats, "generating_function_jet", None)
    gen = getattr(qc.gaussian_stats, "generating_function", None)
    selections = list(dict.fromkeys(sel for _, sel in cfg.effective_observables()))
    calls = []
    if jet is not None:
        calls.append(("gaussian_stats.jet_s0_s", lambda st, sel: jet(st, sel, 0.0, max(cfg.k_max, 2))))
        calls.append(("gaussian_stats.jet_s1_s", lambda st, sel: jet(st, sel, 1.0, cfg.n_max)))
    if gen is not None:
        calls.append(("gaussian_stats.spectrum_s", lambda st, sel: gen(st, sel, [1.0])))
    for name, call in calls:
        start = time.perf_counter()
        for state in states:
            for sel in selections:
                call(state, sel)
        totals[name] += time.perf_counter() - start


def trace_run(qc, runner, args, config_s, root) -> dict:
    import tracing
    rec = tracing.Recorder()
    traced_run = rec.wrap(tracing.ROOT, qc.run_scenario, on_call=rec.next_sweep)
    traced_emit = rec.wrap(tracing.EMIT, qc.emit_csv)
    span_path = os.path.join(root, OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    if os.path.exists(span_path):
        os.remove(span_path)
    untraced, traced, per_pass = [], [], []
    replayed = dict.fromkeys(REPLAY_METRICS, 0.0)

    def replay_sweep(index, cfg):
        if rec.captured_states is not None:
            states, rec.captured_states = rec.captured_states, []
            replay(qc, states, cfg, replayed)

    def pair():
        wall, _ = runner.run_pass(qc.run_scenario, qc.emit_csv)
        untraced.append(wall)
        rec.reset_counts()
        rec.captured_states = [] if not traced else None  # replay the first traced pass
        rec.install(qc)
        try:
            wall_t, _ = runner.run_pass(traced_run, traced_emit, after_sweep=replay_sweep)
        finally:
            rec.uninstall()
            rec.captured_states = None
        traced.append(wall_t)
        metrics = tracing.pass_metrics(rec)
        metrics["cli.emit_csv_bytes"] = runner.emit_bytes
        metrics["trace.wall_s"] = wall_t
        metrics["trace.accounted_frac"] = metrics.pop("attributed_total_s") / wall_t
        rec.dump(span_path, len(traced))
        per_pass.append(metrics)

    passes_until(args.seconds, pair)
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    out.update(replayed)
    out["model.config_s"] = config_s
    emit_s = out["cli.emit_csv_s"]
    out["cli.emit_csv_mb_per_s"] = out["cli.emit_csv_bytes"] / 1e6 / emit_s if emit_s else 0.0
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    print(f"traced passes: {len(traced)}, untraced passes: {len(untraced)}; "
          f"spans in {span_path}")
    return out


def end_to_end_run(qc, runner, args, setup_s, evals) -> dict:
    walls, sweep_times = [], []

    def one():
        wall, times = runner.run_pass(qc.run_scenario, qc.emit_csv)
        walls.append(wall)
        sweep_times.extend(times)

    passes_until(args.seconds, one)
    print(f"passes: {len(walls)} ({', '.join(f'{w:.3f}' for w in walls)} s); "
          f"sweeps per pass: {len(runner.sweeps)}; sweep_s.p50 over {len(sweep_times)} sweeps")
    return {
        "wall_s": statistics.median(walls),
        "sweep_s.p50": statistics.median(sweep_times),
        "evals_per_s": statistics.median(evals / w for w in walls),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - runner.failed / runner.attempted,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()

    try:
        qc = load_qcoupler(root)
        goldens = checks.Goldens(args.workload)
    except (BenchError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    record = machine_record(qc, args.workload, args.seed, root)
    sweeps = workloads.sweeps_for(args.workload, args.seed)
    checks_out = io.StringIO()
    checks_ok = qc.run_checks(out=checks_out)
    if not checks_ok:
        print(checks_out.getvalue(), file=sys.stderr)

    start = time.perf_counter()
    configs = workloads.build_configs(qc, sweeps)
    config_s = time.perf_counter() - start
    evals = sum(evaluations(cfg) for cfg in configs)
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{', '.join(s.id for s in sweeps)}; {evals} evaluations per pass")

    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="csv-", dir=os.path.join(root, OUT_DIR))
    try:
        runner = Runner(sweeps, configs, goldens, out_dir)
        # The first sweep in a process runs faster than the ones after it
        # (thread pool and BLAS start-up); an untimed sweep keeps every
        # timed one in the steady state, whichever sweep the seed puts first.
        try:
            qc.run_scenario(configs[0])
        except Exception:  # the timed passes count and report the failure
            pass
        if args.trace:
            metrics = trace_run(qc, runner, args, config_s, root)
            record["pool_threads"] = metrics["cli.pool_threads"]
            units = PER_LAYER_UNITS
        else:
            setup_s = measure_setup(root, args.workload, args.seed)
            metrics = end_to_end_run(qc, runner, args, setup_s, evals)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    record["largest_golden_deviation"] = runner.max_deviation
    print("record: " + json.dumps(record))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    correct = checks_ok and not runner.golden_failures
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
