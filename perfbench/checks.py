"""Output checks for one sweep: invariants, golden values and the CSV files.

A sweep passes when

* every column is finite, except the reduced moments ``w<k>`` of a
  selection at rows where its ``meanW`` is exactly 0 (vacuum), which
  are NaN markers;
* every p(n) entry is >= -1e-14, every row sums to at most 1 (plus
  rounding slack) and to more than 0: an all-zero row is the silent
  underflow failure of bright fields;
* where a golden exists, every stored row matches it to TOLERANCE
  relative, measured against max(|golden|, floor).  Reduced moments are
  compared only where the selection's golden ``meanW`` is at least
  MEANW_FLOOR: w<k> = <W^k>/<W>^k - 1 divides rounding noise by <W>^k,
  and for a selection at or near vacuum it is NaN or noise;
* the CSV files that ``emit_csv`` wrote hold the same header and, to
  their 12 significant digits, the same values.

Goldens are recorded by ``make_data.py`` from the commit that defines the
benchmark.  A sweep that fails the invariants at that commit gets no
golden; the manifest records its failure instead.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from workloads import DATA_DIR

TOLERANCE = 1e-12       # relative, as in the ROADMAP's golden-CSV rule
COLUMN_FLOOR = 1.0      # statistics columns: O(1) quantities, and w<k> cross 0
PN_FLOOR = 1e-6         # p(n): entries below this are held to 1e-18 absolute
MEANW_FLOOR = 1e-3      # w<k> at smaller <W> moves by >1e-12 under rounding alone
PN_MIN_ENTRY = -1e-14
PN_SUM_SLACK = 1e-12    # a sum of up to 513 rounded terms may pass 1 by a few ulps
CSV_RTOL = 1e-11        # "%.12g" rounds to 5e-13 relative

MANIFEST_PATH = os.path.join(DATA_DIR, "golden.json")


def golden_path(workload: str) -> str:
    return os.path.join(DATA_DIR, f"golden-{workload}.npz")


class Goldens:
    """The recorded outputs of one workload's sweeps."""

    def __init__(self, workload: str):
        with open(MANIFEST_PATH) as fh:
            manifest = json.load(fh)
        self.sweeps = manifest["workloads"][workload]["sweeps"]
        with np.load(golden_path(workload)) as data:
            self.arrays = {key: data[key] for key in data.files}

    def has(self, sweep_id: str) -> bool:
        return bool(self.sweeps[sweep_id]["golden"])


def invariant_failures(result) -> list[str]:
    out = []
    columns = dict(result.columns)
    for name, values in result.columns:
        bad = ~np.isfinite(values)
        sel = _reduced_moment_of(name)
        if sel is not None and f"{sel}.meanW" in columns:
            bad &= ~(np.isnan(values) & (columns[f"{sel}.meanW"] == 0.0))
        if bad.any():
            out.append(f"{name}: {int(bad.sum())} non-finite entries")
    for sel, table in result.pn_tables:
        if not np.all(np.isfinite(table)):
            out.append(f"p(n) {sel}: non-finite entries")
            continue
        if table.min() < PN_MIN_ENTRY:
            out.append(f"p(n) {sel}: entry {table.min():.3e} < {PN_MIN_ENTRY:g}")
        sums = table.sum(axis=1)
        if sums.max() > 1.0 + PN_SUM_SLACK:
            out.append(f"p(n) {sel}: row sum {sums.max()!r} > 1")
        zero = int(np.sum(sums <= 0.0))
        if zero:
            out.append(f"p(n) {sel}: {zero} rows sum to 0 (all-zero distribution)")
    return out


def _reduced_moment_of(name: str):
    """The selection of a ``<sel>.w<k>`` column, else None."""
    sel, _, qty = name.partition(".")
    return sel if qty.startswith("w") and qty[1:].isdigit() else None


def _deviation(actual: np.ndarray, golden: np.ndarray, floor: float, rows=None) -> float:
    """Largest |actual - golden| / max(|golden|, floor); NaN must match NaN."""
    if actual.shape != golden.shape:
        return math.inf
    if rows is not None:
        actual, golden = actual[rows], golden[rows]
    nan_a, nan_g = np.isnan(actual), np.isnan(golden)
    if np.any(nan_a != nan_g):
        return math.inf
    ok = ~nan_g
    if not ok.any():
        return 0.0
    diff = np.abs(actual[ok] - golden[ok])
    return float(np.max(diff / np.maximum(np.abs(golden[ok]), floor)))


def golden_deviation(sweep_id: str, result, arrays: dict) -> tuple[float, list[str]]:
    """(largest scaled deviation, mismatch messages) against a stored golden."""
    rows = arrays[f"{sweep_id}|rows"]
    expected_cols = sorted(k.split("|", 2)[2] for k in arrays
                           if k.startswith(f"{sweep_id}|col|"))
    expected_pn = sorted(k.split("|", 2)[2] for k in arrays
                         if k.startswith(f"{sweep_id}|pn|"))
    problems = []
    if sorted(n for n, _ in result.columns) != expected_cols:
        problems.append(f"columns {[n for n, _ in result.columns]} != golden {expected_cols}")
    if sorted(s for s, _ in result.pn_tables) != expected_pn:
        problems.append(f"p(n) tables {[s for s, _ in result.pn_tables]} != golden {expected_pn}")
    if problems or len(result.z) <= rows[-1]:
        return math.inf, problems or ["fewer grid points than the golden"]
    worst = _deviation(result.z[rows], arrays[f"{sweep_id}|z"], COLUMN_FLOOR)
    for name, values in result.columns:
        sel = _reduced_moment_of(name)
        compared = None
        if sel is not None and f"{sweep_id}|col|{sel}.meanW" in arrays:
            compared = arrays[f"{sweep_id}|col|{sel}.meanW"] >= MEANW_FLOOR
        dev = _deviation(values[rows], arrays[f"{sweep_id}|col|{name}"], COLUMN_FLOOR, compared)
        worst = max(worst, dev)
        if dev > TOLERANCE:
            problems.append(f"{name}: deviation {dev:.3e} > {TOLERANCE:g}")
    for sel, table in result.pn_tables:
        dev = _deviation(table[rows], arrays[f"{sweep_id}|pn|{sel}"], PN_FLOOR)
        worst = max(worst, dev)
        if dev > TOLERANCE:
            problems.append(f"p(n) {sel}: deviation {dev:.3e} > {TOLERANCE:g}")
    return worst, problems


def _read_csv(path: str):
    with open(path) as fh:
        lines = [line for line in fh.read().split("\n") if line and not line.startswith("#")]
    header = lines[0].split(",")
    values = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, values.reshape(len(lines) - 1, len(header))


def _csv_matches(values: np.ndarray, expected: np.ndarray) -> bool:
    both_nan = np.isnan(values) & np.isnan(expected)
    close = np.abs(values - expected) <= CSV_RTOL * np.abs(expected) + 1e-300
    return bool(np.all(both_nan | close))


def csv_failures(result, written: list) -> list[str]:
    """Check the files ``emit_csv`` wrote against the in-memory result."""
    if len(written) != 1 + len(result.pn_tables):
        return [f"emit_csv wrote {len(written)} files, expected {1 + len(result.pn_tables)}"]
    out = []
    header, values = _read_csv(written[0])
    names = ["z"] + [name for name, _ in result.columns]
    expected = np.column_stack([result.z] + [v for _, v in result.columns])
    if header != names:
        out.append(f"{written[0]}: header {header} != {names}")
    elif values.shape != expected.shape or not _csv_matches(values, expected):
        out.append(f"{written[0]}: values differ from the sweep result")
    for path, (sel, table) in zip(written[1:], result.pn_tables):
        header, values = _read_csv(path)
        expected = np.column_stack([result.z, table])
        if not path.endswith(f".{sel}.pn.csv") or header != ["z"] + [f"p{n}" for n in range(table.shape[1])]:
            out.append(f"{path}: wrong name or header for p(n) of {sel}")
        elif values.shape != expected.shape or not _csv_matches(values, expected):
            out.append(f"{path}: values differ from the sweep result")
    return out
