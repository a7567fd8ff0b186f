#!/usr/bin/env sh
# Kill-and-resume bit-identity: every golden scenario runs through the
# serial checkpointed path three ways — uninterrupted, killed mid-run by
# an injected SIGKILL, and resumed from the surviving checkpoint
# generation — and the resumed stdout must equal the uninterrupted one
# byte for byte. Wall-clock runtime_ms tables are filtered on both sides;
# everything else (rewards, latencies, regret series, resilience columns)
# must reproduce exactly. Each scenario also cross-checks the serial
# checkpointed path against the pooled path, and dedicated legs cover a
# scripted FaultPlan `crash` line that dies inside the faulted run
# (stage-2 resume with the cached reference metrics), the same inside
# solver_faults' solver jam (DynamicRR resumed mid-recovery), and a
# corrupted newest generation recovered from the previous one.
#
#   tests/check_resume.sh [BUILD_DIR]   (default: build)
set -u
build=${1:-build}
root=$(cd "$(dirname "$0")/.." && pwd)
cli=$build/tools/mecar_cli
fail=0
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

if [ ! -x "$cli" ]; then
  echo "MISSING BINARY: $cli is absent or not executable" >&2
  echo "  (build it first: cmake --build $build --target mecar_cli)" >&2
  exit 1
fi

# Wall-clock solver runtimes can never be deterministic across runs; drop
# that one table (title through trailing blank line) on both sides.
filter() {
  awk '/: runtime_ms/{skip=1; next} skip && /^$/{skip=0; next} !skip' "$1"
}

crash_flag() {
  case "$1" in
    # fig3_offline has horizon 0 (no slots to crash in); kill between
    # checkpoint units instead.
    fig3_offline) echo "--crash-after-units=2" ;;
    *) echo "--crash-at=150" ;;
  esac
}

mismatch() {
  echo "MISMATCH: $1" >&2
  filter "$2" >"$work/.a" && filter "$3" >"$work/.b"
  diff "$work/.a" "$work/.b" | head -20 >&2 || true
  fail=1
}

# check_scenario NAME
check_scenario() {
  name=$1
  spec=$root/scenarios/$name.scenario

  if ! "$cli" experiment --spec="$spec" \
      --checkpoint-dir="$work/$name-ref" --checkpoint-every=50 \
      >"$work/$name.ref" 2>/dev/null; then
    echo "FAIL: $name reference run" >&2
    fail=1
    return
  fi

  "$cli" experiment --spec="$spec" \
    --checkpoint-dir="$work/$name" --checkpoint-every=50 \
    "$(crash_flag "$name")" >/dev/null 2>"$work/$name.err"
  if [ $? -ne 137 ]; then
    echo "FAIL: $name crash leg did not die with SIGKILL" >&2
    fail=1
    return
  fi
  if ! grep -q "injected crash" "$work/$name.err"; then
    echo "FAIL: $name crash leg missing the injection notice" >&2
    fail=1
    return
  fi

  if ! "$cli" experiment --spec="$spec" \
      --checkpoint-dir="$work/$name" --checkpoint-every=50 --resume \
      >"$work/$name.res" 2>/dev/null; then
    echo "FAIL: $name resume leg" >&2
    fail=1
    return
  fi
  if [ "$(filter "$work/$name.ref")" != "$(filter "$work/$name.res")" ]; then
    mismatch "$name resumed output differs from uninterrupted" \
      "$work/$name.ref" "$work/$name.res"
    return
  fi

  # The reference run doubles as the serial-vs-pooled equivalence check.
  "$cli" experiment --spec="$spec" >"$work/$name.pooled" 2>/dev/null
  if [ "$(filter "$work/$name.ref")" != "$(filter "$work/$name.pooled")" ]; then
    mismatch "$name serial checkpointed output differs from pooled" \
      "$work/$name.pooled" "$work/$name.ref"
    return
  fi
  echo "ok: $name"
}

scenarios="fig3_offline fig4_online fig5_stations fig6_rate quality_metrics
regret_growth regret_kappa resilience"

echo "== kill-and-resume =="
for name in $scenarios; do check_scenario "$name"; done

echo "== scripted FaultPlan crash through the faulted run =="
cat >"$work/crash.plan" <<EOF
station_outage 0 80 200
station_outage 1 220 320
crash 150
EOF
sed '/^crash /d' "$work/crash.plan" >"$work/nocrash.plan"
emit_scenario() {
  cat <<EOF
name resume_faulted
kind sweep
axis none
seeds 2
horizon 400
fault_plan $1
policy DynamicRR
metric reward
metric retention
metric drops
EOF
}
emit_scenario "$work/nocrash.plan" >"$work/nocrash.scenario"
emit_scenario "$work/crash.plan" >"$work/crash.scenario"

"$cli" experiment --spec="$work/nocrash.scenario" \
  --checkpoint-dir="$work/faulted-ref" --checkpoint-every=50 \
  >"$work/faulted.ref" 2>/dev/null || { echo "FAIL: faulted reference" >&2; fail=1; }
"$cli" experiment --spec="$work/crash.scenario" \
  --checkpoint-dir="$work/faulted" --checkpoint-every=50 \
  >/dev/null 2>"$work/faulted.err"
if [ $? -ne 137 ] || ! grep -q "injected crash" "$work/faulted.err"; then
  echo "FAIL: scripted plan crash did not SIGKILL the faulted run" >&2
  fail=1
else
  # --resume disarms the scripted crash, so the same crashing spec must
  # now sail past slot 150 and finish.
  if ! "$cli" experiment --spec="$work/crash.scenario" \
      --checkpoint-dir="$work/faulted" --checkpoint-every=50 --resume \
      >"$work/faulted.res" 2>/dev/null; then
    echo "FAIL: faulted resume leg" >&2
    fail=1
  elif [ "$(filter "$work/faulted.ref")" != "$(filter "$work/faulted.res")" ]; then
    mismatch "faulted resume differs from uninterrupted" \
      "$work/faulted.ref" "$work/faulted.res"
  else
    echo "ok: resume_faulted (scripted crash, stage-2 resume)"
  fi
fi

echo "== scripted crash inside solver_faults' solver jam =="
# solver_faults.plan jams every slot-LP factorization over slots 220-340
# under an anytime pivot budget. A crash at slot 300 restarts DynamicRR
# mid-jam: after warm-basis clears and degradation-counter updates, the
# policy state its checkpoint must carry.
jam_spec=$root/scenarios/solver_faults.scenario
{ cat "$root/scenarios/solver_faults.plan"; echo "crash 300"; } \
  >"$work/jam-crash.plan"
sed "s|^fault_plan .*|fault_plan $work/jam-crash.plan|" "$jam_spec" \
  >"$work/jam-crash.scenario"

"$cli" experiment --spec="$jam_spec" \
  --checkpoint-dir="$work/jam-ref" --checkpoint-every=50 \
  >"$work/jam.ref" 2>/dev/null || { echo "FAIL: solver_faults reference" >&2; fail=1; }
"$cli" experiment --spec="$work/jam-crash.scenario" \
  --checkpoint-dir="$work/jam" --checkpoint-every=50 \
  >/dev/null 2>"$work/jam.err"
if [ $? -ne 137 ] || ! grep -q "injected crash" "$work/jam.err"; then
  echo "FAIL: scripted plan crash did not SIGKILL solver_faults" >&2
  fail=1
elif ! "$cli" experiment --spec="$work/jam-crash.scenario" \
    --checkpoint-dir="$work/jam" --checkpoint-every=50 --resume \
    >"$work/jam.res" 2>/dev/null; then
  echo "FAIL: solver_faults resume leg" >&2
  fail=1
elif [ "$(filter "$work/jam.ref")" != "$(filter "$work/jam.res")" ]; then
  mismatch "solver_faults resume differs from uninterrupted" \
    "$work/jam.ref" "$work/jam.res"
else
  "$cli" experiment --spec="$jam_spec" >"$work/jam.pooled" 2>/dev/null
  if [ "$(filter "$work/jam.ref")" != "$(filter "$work/jam.pooled")" ]; then
    mismatch "solver_faults serial checkpointed output differs from pooled" \
      "$work/jam.pooled" "$work/jam.ref"
  else
    echo "ok: solver_faults (scripted crash inside the solver jam)"
  fi
fi

echo "== corrupted newest generation falls back =="
"$cli" experiment --spec="$root/scenarios/fig4_online.scenario" \
  --checkpoint-dir="$work/corrupt" --checkpoint-every=50 --crash-at=150 \
  >/dev/null 2>&1
newest=$work/corrupt/$(ls "$work/corrupt" | sort -t- -k2 -n | tail -1)
# Chop the tail off the newest generation: the frame-length check must
# reject it and recovery must fall to the previous one.
size=$(wc -c <"$newest")
head -c "$((size - 7))" "$newest" >"$newest.tmp" && mv "$newest.tmp" "$newest"
if ! "$cli" experiment --spec="$root/scenarios/fig4_online.scenario" \
    --checkpoint-dir="$work/corrupt" --checkpoint-every=50 --resume \
    >"$work/corrupt.res" 2>"$work/corrupt.err"; then
  echo "FAIL: corrupted-generation resume leg" >&2
  fail=1
elif ! grep -q "falling back to the previous generation" "$work/corrupt.err"; then
  echo "FAIL: corrupted generation was not diagnosed" >&2
  fail=1
elif [ "$(filter "$work/fig4_online.ref")" != "$(filter "$work/corrupt.res")" ]; then
  mismatch "fallback resume differs from uninterrupted" \
    "$work/fig4_online.ref" "$work/corrupt.res"
else
  echo "ok: corrupted generation recovered from the previous one"
fi

exit $fail
