#!/usr/bin/env sh
# Bit-identity guard: each golden experiment's stdout must match the
# reference captured under tests/golden/. The experiments are the
# checked-in scenario files, run by `mecar_cli experiment`, plus the one
# compiled driver (bench/ablations, whose A1-A6 blocks vary keys no sweep
# axis covers). Wall-clock runtime_ms tables (Fig 3(c)) are filtered on
# both sides, as in check_resume.sh. Re-baseline (rerun each experiment
# into its golden, filtered) only for intentional changes — e.g. the
# sparse-LU simplex engine lands on different optimal vertices of
# degenerate slot LPs, which shifts the randomized rounding downstream
# even though objectives are identical.
#
#   tests/check_golden.sh [BUILD_DIR]   (default: build)
set -u
build=${1:-build}
root=$(cd "$(dirname "$0")/.." && pwd)
fail=0

filter() {
  awk '/: runtime_ms/{skip=1; next} skip && /^$/{skip=0; next} !skip'
}

# compare NAME COMMAND...: COMMAND's filtered stdout against the golden.
compare() {
  name=$1
  shift
  if [ ! -x "$1" ]; then
    echo "MISSING BINARY: $1 is absent or not executable" >&2
    echo "  (build it first: cmake --build $build --target $(basename "$1"))" >&2
    fail=1
    return
  fi
  golden=$root/tests/golden/$name.txt
  if [ ! -f "$golden" ]; then
    echo "MISSING GOLDEN: $golden does not exist" >&2
    fail=1
    return
  fi
  out=$("$@" 2>/dev/null | filter)
  ref=$(filter <"$golden")
  if [ "$out" = "$ref" ]; then
    echo "ok: $name"
  else
    echo "MISMATCH: $name" >&2
    tmp_ref=$(mktemp) && tmp_out=$(mktemp)
    printf '%s\n' "$ref" >"$tmp_ref"
    printf '%s\n' "$out" >"$tmp_out"
    diff "$tmp_ref" "$tmp_out" | head -20 >&2 || true
    rm -f "$tmp_ref" "$tmp_out"
    fail=1
  fi
}

for name in fig3_offline fig4_online fig5_stations fig6_rate \
    quality_metrics regret_growth regret_kappa resilience; do
  compare "$name" "$build/tools/mecar_cli" experiment \
    --spec="$root/scenarios/$name.scenario"
done
compare ablations "$build/bench/ablations"
exit $fail
