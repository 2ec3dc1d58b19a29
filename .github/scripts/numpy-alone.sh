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
# as the preset's.  An order-512 p(n) sweep (60 points, coherent plus
# chaotic light on S1 and squeezed light on A1) runs twice with different
# string hashing and once through ``qcoupler``, and all three must write
# the same bytes; then the README's library example runs.  Run from the
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
cat > "$runs/deep.txt" <<'EOF'
[params]
gS1 = 0.5
gA1 = 1
kappaS = 0.3
[inputs.S1]
xi = 3
n_ch = 2
[inputs.A1]
r = 0.8
[run]
z_max = 3
z_steps = 60
n_max = 512
k_max = 8
[observables]
moments: S1,A1
pn: S1,A1
EOF
mkdir "$runs/deep-a" "$runs/deep-b" "$runs/deep-script"
PYTHONHASHSEED=1 python -m qcoupler run --scenario "$runs/deep.txt" --out "$runs/deep-a/deep.csv"
PYTHONHASHSEED=2 python -m qcoupler run --scenario "$runs/deep.txt" --out "$runs/deep-b/deep.csv"
qcoupler run --scenario "$runs/deep.txt" --out "$runs/deep-script/deep.csv"
for other in deep-b deep-script; do
  diff <(ls "$runs/deep-a") <(ls "$runs/$other")
  for f in "$runs"/deep-a/*.csv; do
    cmp "$f" "$runs/$other/${f##*/}"
  done
done
python -m pytest -q tests/test_readme.py
