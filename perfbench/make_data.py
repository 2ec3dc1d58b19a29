"""Draw the workload pools and record the golden outputs.

    python3 perfbench/make_data.py

Run from the repository root, at the commit whose outputs the benchmark
treats as correct.  It writes

* ``data/pools.json``: the scenario documents of the ``scan`` and
  ``pn-deep`` pools, drawn from a fixed pool seed;
* ``data/golden-<workload>.npz``: for every sweep that passes the
  invariants in ``checks.py``, its z grid, columns and p(n) tables on the
  rows GOLDEN_STRIDE picks;
* ``data/golden.json``: which sweeps have goldens, the recorded failure
  of each sweep that has none, the tolerances, and the route headroom:
  the largest deviation from the goldens when ``qcoupler.cli.propagator``
  is swapped for a per-point ``scipy.linalg.expm`` of the drift matrix.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import sys
import warnings

import numpy as np
import scipy.linalg

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from run import load_qcoupler, repo_commit  # noqa: E402

POOL_SEED = 19990103
SCAN_POOL_SIZE = 8
SCAN_STEPS = 2000
MODES = ("S1", "A1", "V1", "S2", "A2", "V2")
# Reject couplers whose drift matrix has gain (the sweep would grow
# without bound) or sits near an exceptional point, where the seed's
# eigendecomposition route is known to lose digits.
MAX_GROWTH_RATE = 1e-9
MAX_EIGVEC_COND = 1e3

# pn-deep ladder: (<W> of the p(n) selection at z = 0, compound selection?).
# The last rung is above the exp() underflow at <W> ~ 745.
PN_LADDER = ((40, False), (100, True), (200, False), (350, True),
             (500, True), (780, False))
PN_VARIANTS = 2
PN_STEPS = 60

# Rows kept per golden: all of the presets (the ROADMAP's preset
# goldens), a sample of the long scan grids and of the wide p(n) tables.
GOLDEN_STRIDE = {"presets": 1, "scan": 10, "pn-deep": 3}


def _fmt_complex(c: complex) -> str:
    if c.imag == 0.0:
        return repr(c.real)
    sign = "+" if c.imag >= 0 else "-"
    return f"{c.real!r}{sign}{abs(c.imag)!r}i"


def _polar(rng: random.Random, mag: float) -> complex:
    return cmath.rect(mag, rng.uniform(-math.pi, math.pi))


def _scenario(params: dict, inputs: dict, run: dict, observables) -> str:
    lines = ["[params]"]
    lines += [f"{k} = {_fmt_complex(v)}" for k, v in params.items()]
    for mode, spec in inputs.items():
        lines.append(f"[inputs.{mode}]")
        lines += [f"{k} = {_fmt_complex(v) if k == 'xi' else repr(v)}" for k, v in spec.items()]
    lines.append("[run]")
    lines += [f"{k} = {v!r}" for k, v in run.items()]
    lines.append("[observables]")
    lines += [f"{tag}: {modes}" for tag, modes in observables]
    return "\n".join(lines) + "\n"


def _guide(rng: random.Random, guide: int) -> dict:
    # |gA| > |gS|, as in every preset; it also avoids the regime warning.
    gs = rng.uniform(0.5, 1.5)
    return {f"gS{guide}": _polar(rng, gs), f"gA{guide}": _polar(rng, gs * rng.uniform(1.3, 2.2))}


def _random_input(rng: random.Random) -> dict | None:
    kind = rng.choice(("vacuum", "coherent", "chaotic", "squeezed"))
    if kind == "coherent":
        return {"xi": _polar(rng, rng.uniform(0.5, 2.0))}
    if kind == "chaotic":
        return {"n_ch": rng.uniform(0.1, 1.0)}
    if kind == "squeezed":
        return {"xi": _polar(rng, rng.uniform(0.0, 1.0)), "r": rng.uniform(0.2, 0.8),
                "theta": rng.uniform(0.0, 2.0 * math.pi)}
    return None


def _well_behaved(qc, params: dict) -> bool:
    em = qc.build_drift_matrix(qc.validate_params(qc.CouplerParams(**params)))
    eigvals, eigvecs = np.linalg.eig(1j * em.matrix)
    return eigvals.real.max() < MAX_GROWTH_RATE and np.linalg.cond(eigvecs) < MAX_EIGVEC_COND


def scan_pool(qc) -> list[dict]:
    rng = random.Random(POOL_SEED)
    pool = []
    while len(pool) < SCAN_POOL_SIZE:
        params = {**_guide(rng, 1), **_guide(rng, 2),
                  "kappaS": _polar(rng, rng.uniform(0.5, 10.0)),
                  "kappaA": _polar(rng, rng.uniform(0.5, 10.0))}
        inputs = {m: spec for m in MODES if (spec := _random_input(rng)) is not None}
        single = rng.choice(MODES)
        pair = ",".join(rng.sample(MODES, 2))
        z_max = round(rng.uniform(2.0, 5.0), 3)
        if not inputs or not _well_behaved(qc, params):
            continue
        observables = [(tag, sel) for sel in (single, pair)
                       for tag in ("moments", "variance", "squeeze", "quadratures")]
        run = {"z_max": z_max, "z_steps": SCAN_STEPS, "n_max": 1, "k_max": 2}
        pool.append({"id": f"scan-{len(pool)}",
                     "text": _scenario(params, inputs, run, observables)})
    return pool


def pn_pool() -> list[dict]:
    rng = random.Random(POOL_SEED + 1)
    pool = []
    for rung, (mean_w, compound) in enumerate(PN_LADDER):
        for v in range(PN_VARIANTS):
            params = {"gS1": _polar(rng, rng.uniform(0.8, 1.2)),
                      "gA1": _polar(rng, rng.uniform(1.8, 2.2)),
                      "kappaS": _polar(rng, rng.uniform(1.0, 3.0))}
            if compound:
                share = rng.uniform(0.3, 0.7)
                inputs = {"S1": {"xi": _polar(rng, math.sqrt(share * mean_w))},
                          "A1": {"xi": _polar(rng, math.sqrt((1 - share) * mean_w))}}
                sel = "S1,A1"
            else:
                inputs = {"S1": {"xi": _polar(rng, math.sqrt(mean_w))}}
                sel = "S1"
            inputs["V1"] = {"n_ch": rng.uniform(0.05, 0.2)}
            run = {"z_max": 0.3, "z_steps": PN_STEPS, "n_max": 512, "k_max": 8}
            pool.append({"id": f"pn-{rung}{'ab'[v]}",
                         "text": _scenario(params, inputs, run, [("moments", sel), ("pn", sel)])})
    return pool


def _expm_propagator(qc):
    def propagator(em, z):
        z = float(z)
        return qc.BogoliubovTransform.from_doubled(scipy.linalg.expm(1j * em.matrix * z), z)
    return propagator


def record(qc, workload: str, pools: dict) -> dict:
    sweeps = workloads.all_sweeps(workload, pools)
    configs = workloads.build_configs(qc, sweeps)
    arrays, entries = {}, {}
    for sweep, cfg in zip(sweeps, configs):
        result = qc.run_scenario(cfg)
        failures = checks.invariant_failures(result)
        entries[sweep.id] = {"golden": not failures,
                             "seed_failure": "; ".join(failures) or None}
        if failures:
            print(f"{workload} {sweep.id}: no golden: {'; '.join(failures)}")
            continue
        # every GOLDEN_STRIDE-th row, and the last
        rows = np.unique(np.append(np.arange(0, len(result.z), GOLDEN_STRIDE[workload]),
                                   len(result.z) - 1))
        arrays[f"{sweep.id}|rows"] = rows
        arrays[f"{sweep.id}|z"] = result.z[rows]
        for name, values in result.columns:
            arrays[f"{sweep.id}|col|{name}"] = values[rows]
        for sel, table in result.pn_tables:
            kept = table[rows]
            # Entries this small are held to |actual| <= TOLERANCE * PN_FLOOR
            # either way; zeros compress.
            kept[np.abs(kept) < 1e-3 * checks.TOLERANCE * checks.PN_FLOOR] = 0.0
            arrays[f"{sweep.id}|pn|{sel}"] = kept
    np.savez_compressed(checks.golden_path(workload), **arrays)

    worst, worst_id = 0.0, None
    original = qc.cli.propagator
    qc.cli.propagator = _expm_propagator(qc)
    try:
        for sweep, cfg in zip(sweeps, configs):
            if entries[sweep.id]["golden"]:
                dev, _ = checks.golden_deviation(sweep.id, qc.run_scenario(cfg), arrays)
                if dev > worst:
                    worst, worst_id = dev, sweep.id
    finally:
        qc.cli.propagator = original
    print(f"{workload}: expm route deviation {worst:.3e} on {worst_id} "
          f"(tolerance {checks.TOLERANCE:g})")
    return {"golden_stride": GOLDEN_STRIDE[workload], "sweeps": entries,
            "route_headroom": {"expm_max_deviation": worst, "worst_sweep": worst_id,
                               "tolerance": checks.TOLERANCE}}


def main() -> int:
    root = os.getcwd()
    qc = load_qcoupler(root)
    warnings.simplefilter("error", qc.ParameterRegimeWarning)
    pools = {"scan": {"members": scan_pool(qc)},
             "pn-deep": {"members": pn_pool(), "variants": PN_VARIANTS}}
    with open(workloads.POOLS_PATH, "w") as fh:
        json.dump(pools, fh, indent=1)
        fh.write("\n")
    manifest = {
        "recorded_at_commit": repo_commit(root),
        "tolerance": checks.TOLERANCE,
        "column_floor": checks.COLUMN_FLOOR,
        "pn_floor": checks.PN_FLOOR,
        "workloads": {w: record(qc, w, pools) for w in workloads.WORKLOADS},
    }
    with open(checks.MANIFEST_PATH, "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
