#!/usr/bin/env bash
# Runs qcoupler as it runs with numpy alone: scipy serves only the
# benchmark, so the workflow uninstalls it before this script,
# which runs the same with scipy installed.  The check suite runs with
# warnings as errors, every preset runs twice, in two processes with
# different string hashing, and both runs must write the same files byte
# for byte (p(n), quadrature and compound selections are all covered).
# The installed ``qcoupler`` script, whose entry point is
# qcoupler.cli:main, then lists the presets, runs the check suite and
# runs fig3, which must write the same bytes as ``python -m qcoupler``.
# It also runs every preset from its serialized scenario file through
# ``--scenario``, and each run must write the same files, byte for byte,
# as the preset's; then the README's library example runs.  Run from the
# repository root, with qcoupler installed.
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

mkdir "$runs/script"
diff <(qcoupler list-presets) <(python -m qcoupler list-presets)
PYTHONWARNINGS=error qcoupler check
qcoupler run --preset fig3 --out "$runs/script/fig3.csv"
diff <(ls "$runs/script") <(cd "$runs/a" && ls fig3.*)
for f in "$runs"/script/*.csv; do
  cmp "$f" "$runs/a/${f##*/}"
done

for preset in $(qcoupler list-presets); do
  python -c 'import sys, qcoupler
sys.stdout.write(qcoupler.serialize_scenario(qcoupler.load_preset(sys.argv[1])))' \
    "$preset" > "$runs/$preset.txt"
  mkdir "$runs/scenario-$preset"
  qcoupler run --scenario "$runs/$preset.txt" --out "$runs/scenario-$preset/$preset.csv"
  diff <(ls "$runs/scenario-$preset") <(cd "$runs/a" && ls "$preset".*)
  for f in "$runs/scenario-$preset"/*.csv; do
    cmp "$f" "$runs/a/${f##*/}"
  done
done
python -m pytest -q tests/test_readme.py
