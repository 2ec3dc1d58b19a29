#!/usr/bin/env bash
# Runs qcoupler as it runs with numpy alone: scipy serves only the
# benchmark, so the workflow uninstalls it before this script,
# which runs the same with scipy installed.  The check suite runs with
# warnings as errors, every preset runs twice, in two processes with
# different string hashing, and both runs must write the same files byte
# for byte (p(n), quadrature and compound selections are all covered);
# then the README's library example runs.  Run from the repository root,
# with qcoupler importable.
set -euo pipefail

runs=$(mktemp -d)
trap 'rm -rf "$runs"' EXIT
mkdir "$runs/a" "$runs/b"

python -W error -m qcoupler check
for preset in $(python -m qcoupler list-presets); do
  PYTHONHASHSEED=1 python -m qcoupler run --preset "$preset" --out "$runs/a/$preset.csv"
  PYTHONHASHSEED=2 python -m qcoupler run --preset "$preset" --out "$runs/b/$preset.csv"
done
diff <(ls "$runs/a") <(ls "$runs/b")
for f in "$runs"/a/*.csv; do
  cmp "$f" "$runs/b/${f##*/}"
done
python -m pytest -q tests/test_readme.py
