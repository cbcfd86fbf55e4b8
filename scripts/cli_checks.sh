#!/bin/sh
# Command-line checks of the spec reports, run from the repository root:
#
#   sh scripts/cli_checks.sh SPEC OUT
#
# SPEC is the spec command: the installed console script `spec`, or
# `python -m acspectra.harness_cli` with src on PYTHONPATH.  OUT receives
# the outputs.  Every command runs with RuntimeWarnings as errors.  Checks:
# - for one small descriptor per family, `spec run` on the one-entry config
#   of the same name, seed 0 and grid writes the bytes of
#   `spec <family> --emit report`, and `spec <family> --emit spectrum`
#   writes the report's ac_spectrum field as the CLIs write JSON (sorted
#   keys, indent 2, a final LF);
# - a period-1024 Jacobi report is written, and so is a PASS report of free
#   Schrodinger written with period 50;
# - a Schrodinger piece of value 1e300, whose transfers overflow, gives a
#   FAILED report with exit 1 and nothing on stderr;
# - a config with a misspelled descriptor key, one with two entries of one
#   name, one with a coefficient written as a JSON string, one with a grid
#   end written as a JSON string, one with an entry `tolerances` key (the
#   tolerances are fixed), one with a grid of 2^20 + 1 points, two whose
#   E has an interval row of four with flags that are not booleans
#   ([0, 1, "oo", 0] and [0, 1, "no", "x"]), a cmv
#   angle range whose stop - start overflows, and Jacobi reports with a =
#   1e300 and with a = 5e-324 (past jacobi.MAX_COEFFICIENT and
#   MIN_OFF_DIAGONAL), a Schrodinger period of 1e-300 and one of 1e-14
#   written as 100 pieces of 1e-16 (the second half of each period keeps
#   no span of at least 1e-15) each exit 2 with one `error:` line and
#   write nothing;
# - a Jacobi patch a(1) = 9.5e-302 on a base a = 2.5e-38 reports with exit
#   0.
set -eu
spec=$1
out=$2
mkdir -p "$out"
export PYTHONWARNINGS=error::RuntimeWarning

for fam in jacobi cmv schrodinger; do
  grid=null; arg=
  if [ "$fam" = cmv ]; then grid='{"angles": 512}'; arg=--grid=0:6.283185307179586:512; fi
  printf '{"seed": 0, "operators": [{"name": "%s", "grid": %s, "descriptor": %s}]}' \
    "$fam" "$grid" "$(cat "tests/data/xi/$fam.json")" > "$out/$fam.config.json"
  $spec run --config "$out/$fam.config.json" --out "$out/one_$fam"
  $spec "$fam" --desc "tests/data/xi/$fam.json" $arg --emit report --out "$out/$fam.report.json"
  cmp "$out/one_$fam/${fam}_report.json" "$out/$fam.report.json"
  $spec "$fam" --desc "tests/data/xi/$fam.json" $arg --emit spectrum --out "$out/$fam.spectrum.json"
  python -c 'import json, sys; print(json.dumps(json.load(open(sys.argv[1]))["ac_spectrum"],
             sort_keys=True, indent=2))' "$out/$fam.report.json" > "$out/$fam.report_ac.json"
  cmp "$out/$fam.spectrum.json" "$out/$fam.report_ac.json"
done

# its one-period transfer products pass the float range off the bands unless rescaled
$spec jacobi --desc tests/data/xi/jacobi_p1024.json --emit report \
  --out "$out/jacobi_p1024.report.json"

# the free cell written 50 times grows like exp(250) across a period at the grid top
python -c 'import json; print(json.dumps({"type": "schrodinger", "period": 50.0,
           "pieces": [[1.0, 0.0]] * 50}))' > "$out/free_x50.json"
$spec schrodinger --desc "$out/free_x50.json" --emit report --out "$out/free_x50.report.json"
printf '{"type": "schrodinger", "period": 1, "pieces": [[1, 1e300]]}' > "$out/piece_1e300.json"
code=0
$spec schrodinger --desc "$out/piece_1e300.json" --emit report \
  --out "$out/piece_1e300.report.json" 2> "$out/piece_1e300.err" || code=$?
if [ "$code" -ne 1 ] || [ -s "$out/piece_1e300.err" ] \
    || ! grep -q '"status": "FAILED"' "$out/piece_1e300.report.json"; then
  echo "piece_1e300: exit $code, stderr: $(cat "$out/piece_1e300.err")" >&2
  exit 1
fi

free='{"type": "jacobi", "period": 1, "a": [1.0], "b": [0.0]}'
printf '{"operators": [{"name": "x", "descriptor": %s}]}' \
  '{"type": "jacobi", "period": 1, "a": [1.0], "b": [0.0], "pach": {"0": [0.5, 0.0]}}' \
  > "$out/misspelled.config.json"
printf '{"operators": [{"name": "x", "descriptor": %s}, {"name": "x", "descriptor": %s}]}' \
  "$free" "$free" > "$out/duplicate.config.json"
printf '{"operators": [{"name": "x", "descriptor": %s}]}' \
  '{"type": "jacobi", "period": 1, "a": ["1"], "b": [0.0]}' > "$out/string_coefficient.config.json"
printf '{"operators": [{"name": "x", "descriptor": %s, "grid": %s}]}' \
  "$free" '{"start": "-3", "stop": 3, "points": 101}' > "$out/string_grid.config.json"
printf '{"operators": [{"name": "x", "descriptor": %s, "tolerances": %s}]}' \
  "$free" '{"oracle_window": 512}' > "$out/tolerances.config.json"
printf '{"operators": [{"name": "x", "descriptor": %s, "grid": %s}]}' \
  "$free" '{"start": -3, "stop": 3, "points": 1048577}' > "$out/huge_grid.config.json"
printf '{"operators": [{"name": "x", "descriptor": %s, "E": %s}]}' \
  "$free" '{"intervals": [[-1, 1, "oo", 0]]}' > "$out/flags_oo.config.json"
printf '{"operators": [{"name": "x", "descriptor": %s, "E": %s}]}' \
  "$free" '{"intervals": [[-1, 1, "no", "x"]]}' > "$out/flags_nox.config.json"
# refused NAME COMMAND...: COMMAND --out OUT/NAME exits 2, prints one
# `error:` line and writes nothing
refused() {
  name=$1; shift
  code=0
  "$@" --out "$out/$name" 2> "$out/$name.err" || code=$?
  if [ "$code" -ne 2 ] || [ "$(wc -l < "$out/$name.err")" -ne 1 ] \
      || ! grep -q '^error: ' "$out/$name.err" || [ -e "$out/$name" ]; then
    echo "$name: exit $code, stderr: $(cat "$out/$name.err")" >&2
    exit 1
  fi
}
refused misspelled $spec run --config "$out/misspelled.config.json"
refused duplicate $spec run --config "$out/duplicate.config.json"
refused string_coefficient $spec run --config "$out/string_coefficient.config.json"
refused string_grid $spec run --config "$out/string_grid.config.json"
refused tolerances $spec run --config "$out/tolerances.config.json"
refused huge_grid $spec run --config "$out/huge_grid.config.json"
refused flags_oo $spec run --config "$out/flags_oo.config.json"
refused flags_nox $spec run --config "$out/flags_nox.config.json"
refused cmv_overflow $spec cmv --desc tests/data/xi/cmv.json --grid=-1e308:1e308:600 --emit xi
for a in 1e300 5e-324; do
  printf '{"type": "jacobi", "period": 1, "a": [%s], "b": [0]}' "$a" > "$out/jacobi_$a.json"
  refused "jacobi_$a" $spec jacobi --desc "$out/jacobi_$a.json" --emit report
done
printf '{"type": "schrodinger", "period": 1e-300, "pieces": [[1e-300, 0]]}' \
  > "$out/short_period.json"
refused short_period $spec schrodinger --desc "$out/short_period.json" --emit report
python -c 'import json; print(json.dumps({"type": "schrodinger", "period": 1e-14,
           "pieces": [[1e-16, 0.0]] * 100}))' > "$out/short_pieces.json"
refused short_pieces $spec schrodinger --desc "$out/short_pieces.json" --emit report

# the steps divide by a(n) before they sum, so the carry stays finite
printf '{"type": "jacobi", "period": 1, "a": [2.5e-38], "b": [0], "patch": {"1": [9.5e-302, 0]}}' \
  > "$out/mixed_scale_patch.json"
$spec jacobi --desc "$out/mixed_scale_patch.json" --emit report --out "$out/mixed_scale_patch.report.json"
echo "cli checks passed"
