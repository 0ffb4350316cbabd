#!/bin/sh
# Runs one tiny row of every bench harness with --json and validates the
# emitted reports against the sharc-bench-v1 schema via
# `sharc-trace check-bench`, and checks that bad env knobs exit 2. Keeps
# the perf-trajectory pipeline (scripts/ci.sh -> BENCH_table1.json) from
# rotting between releases.
#
# usage: bench_smoke.sh <bench-dir> <path-to-sharc-trace> [committed-json]
set -u

BENCHDIR=$1
TRACE=$2
COMMITTED=${3:-}
STATUS=0
WORK="${TMPDIR:-/tmp}/sharc_bench_smoke_$$"
mkdir -p "$WORK"
trap 'rm -rf "$WORK"' EXIT

# Smallest supported workload: scale 1, a single repetition.
SHARC_BENCH_SCALE=1
SHARC_BENCH_REPS=1
export SHARC_BENCH_SCALE SHARC_BENCH_REPS

run_one() { # <harness> <extra-args...>
  NAME=$1
  shift
  OUT="$WORK/$NAME.json"
  if ! "$BENCHDIR/$NAME" --json="$OUT" "$@" > /dev/null 2>&1; then
    echo "FAIL: $NAME exited nonzero"
    STATUS=1
    return
  fi
  if "$TRACE" check-bench "$OUT" > /dev/null 2>&1; then
    echo "ok: $NAME emits valid sharc-bench-v1"
  else
    echo "FAIL: $NAME json failed check-bench:"
    "$TRACE" check-bench "$OUT" 2>&1 | sed 's/^/  /'
    STATUS=1
  fi
}

run_one bench_table1
run_one bench_refcount_ablation
run_one bench_detector_comparison
run_one bench_granularity
run_one bench_thread_scaling
run_one bench_rwlock_ablation
run_one bench_runtime_micro \
  --benchmark_filter=BM_ChkReadHit --benchmark_min_time=0.01

# A zero, negative or non-numeric knob exits 2 before any work (a zero
# scale used to hang bench_table1).
for KNOB in SHARC_BENCH_SCALE=0 SHARC_BENCH_SCALE=abc SHARC_BENCH_REPS=0 \
            SHARC_BENCH_REPS=-1; do
  env "$KNOB" "$BENCHDIR/bench_table1" > /dev/null 2>&1
  GOT=$?
  if [ "$GOT" -eq 2 ]; then
    echo "ok: bench_table1 rejects $KNOB (exit 2)"
  else
    echo "FAIL: bench_table1 with $KNOB: expected exit 2, got $GOT"
    STATUS=1
  fi
done

# The tracked perf trajectory must stay schema-valid too.
if [ -n "$COMMITTED" ] && [ -f "$COMMITTED" ]; then
  if "$TRACE" check-bench "$COMMITTED" > /dev/null 2>&1; then
    echo "ok: committed $COMMITTED is valid sharc-bench-v1"
  else
    echo "FAIL: committed $COMMITTED failed check-bench"
    STATUS=1
  fi
fi

exit $STATUS
