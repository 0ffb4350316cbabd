#!/bin/sh
# The full local CI pipeline: configure, build, tier-1 tests, a bounded
# fuzz campaign, and a bench smoke pass that leaves the machine-readable
# perf trajectory at the repo root as BENCH_table1.json (schema-checked
# by `sharc-trace check-bench` and by the bench_smoke tier-1 test).
#
# usage: scripts/ci.sh [build-dir]
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=${1:-"$ROOT/build"}
JOBS=$(nproc 2>/dev/null || echo 4)

# Stamp bench reports with the revision they measured (BenchUtil.h reads
# this; "unknown" when the tree is not a git checkout).
SHARC_GIT_REV=$(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)
export SHARC_GIT_REV

echo "== configure =="
cmake -B "$BUILD" -S "$ROOT" >/dev/null

echo "== build =="
cmake --build "$BUILD" -j "$JOBS"

echo "== tier-1 tests =="
(cd "$BUILD" && ctest --output-on-failure -j "$JOBS")

echo "== fault-injection sweep =="
# The guard tests (DESIGN.md §12) exercise every SHARC_FAULT directive,
# the policy exit codes, and the crashed-trace truncation sweep.
(cd "$BUILD" && ctest -R guard --output-on-failure)

echo "== sanitizers =="
# ASan+UBSan and TSan builds of the tests that cover the race detectors,
# the fuzz oracles, the parser and the runtime's concurrent internals.
# Any sanitizer report fails the run. The rest of the suite stays out of
# these lanes for now: serve_test's timing-sensitive cases fail under
# the sanitizers' slowdown without any report.
export ASAN_OPTIONS=detect_leaks=1
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
export TSAN_OPTIONS=halt_on_error=1
san_lane() { # <build-dir> <cxx-flags> <test...>
  DIR=$1
  FLAGS=$2
  shift 2
  cmake -B "$DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="$FLAGS" >/dev/null
  cmake --build "$DIR" -j "$JOBS" --target "$@"
  for T in "$@"; do
    "$DIR/tests/$T" --gtest_brief=1
  done
}
ASAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined"
san_lane "$BUILD/asan" \
  "$ASAN_FLAGS -fno-omit-frame-pointer -D_GLIBCXX_ASSERTIONS" \
  racedet_test fuzz_test minic_parser_test rt_shadow_test
san_lane "$BUILD/tsan" "-fsanitize=thread" \
  racedet_test fuzz_test rt_internals_test rt_shadow_test

echo "== fuzz smoke =="
"$BUILD/src/fuzz/sharc-fuzz" --count 100 --schedules 4 --seed 1 --quiet
# Once more under the continue policy: the base interpreter runs keep
# their historical semantics and the policy-agreement oracle stays armed.
SHARC_POLICY=continue \
  "$BUILD/src/fuzz/sharc-fuzz" --count 50 --schedules 4 --seed 1 --quiet

echo "== bench smoke -> BENCH_table1.json =="
SHARC_BENCH_SCALE=1 SHARC_BENCH_REPS=1 \
  "$BUILD/bench/bench_table1" --json="$ROOT/BENCH_table1.json" >/dev/null \
  || true # non-clean rows exit 1 but still write the report
"$BUILD/src/obs/sharc-trace" check-bench "$ROOT/BENCH_table1.json"

echo "== serve bench -> BENCH_serve.json =="
# The high-traffic scenario (DESIGN.md §15): 100k simulated client
# connections through the annotated server under open-loop Poisson load,
# with the live /metrics endpoint armed and scraped at the schedule
# midpoint. The report carries throughput, p50/p99/p999 latency, and the
# scrape — sharc-trace check-bench validates the serve section.
SHARC_BENCH_REPS=1 "$BUILD/src/serve/sharc-serve" \
  --clients 100000 --rate 20000 --service-us 20 --workers 4 \
  --stats-addr 127.0.0.1:0 --json "$ROOT/BENCH_serve.json"
"$BUILD/src/obs/sharc-trace" check-bench "$ROOT/BENCH_serve.json"

echo "== serve span bench -> BENCH_serve_spans.json =="
# The same 100k-connection scenario with request-span tracing armed
# (--trace-out): every request leaves a begin/end span per pipeline
# stage in a v4 .strc, and `sharc-trace requests` reconstructs the
# per-stage breakdown plus the attributed tail. The report is archived
# separately (below) so compare-runs trends the spans-armed percentiles
# against their own history, not the untraced run's.
SHARC_BENCH_REPS=1 "$BUILD/src/serve/sharc-serve" \
  --clients 100000 --rate 20000 --service-us 20 --workers 4 \
  --trace-out "$BUILD/serve_spans.strc" --json "$ROOT/BENCH_serve_spans.json"
"$BUILD/src/obs/sharc-trace" check-bench "$ROOT/BENCH_serve_spans.json"
# The anatomy must parse the trace and attribute the slowest 1%.
"$BUILD/src/obs/sharc-trace" requests "$BUILD/serve_spans.strc" --tail 1 \
  > "$BUILD/serve_spans_anatomy.txt"
grep -q "cause:" "$BUILD/serve_spans_anatomy.txt"
head -14 "$BUILD/serve_spans_anatomy.txt"

# One serve overhead gate: the baseline and the armed server run the
# same request mix back to back, and check-overhead compares their
# handler CPU (thread-CPU accounted, so scheduler noise cancels) at 2%.
# Each attempt measures a fresh adjacent baseline; the gate passes on
# any of 4 attempts, since host clock drift is random per pair while a
# real hot-path regression misses in every pair.
# The run and baseline flags are word-split; the armed arguments come
# last, one word each, so they may carry paths.
serve_gate() { # <label> <run-flags> <baseline-flags> [armed-arg...]
  LABEL=$1
  RUN_FLAGS=$2
  BASE_FLAGS=$3
  shift 3
  ATTEMPT=1
  while :; do
    # shellcheck disable=SC2086
    SHARC_BENCH_REPS=3 "$BUILD/src/serve/sharc-serve" $RUN_FLAGS $BASE_FLAGS \
      --quiet --json "$BUILD/bench_serve_${LABEL}_base.json"
    # shellcheck disable=SC2086
    SHARC_BENCH_REPS=3 "$BUILD/src/serve/sharc-serve" $RUN_FLAGS "$@" \
      --quiet --json "$BUILD/bench_serve_${LABEL}_armed.json"
    if "$BUILD/src/obs/sharc-trace" check-overhead --max-pct 2 \
         "$BUILD/bench_serve_${LABEL}_base.json" \
         "$BUILD/bench_serve_${LABEL}_armed.json"; then
      return 0
    fi
    if [ "$ATTEMPT" -ge 4 ]; then
      echo "ci.sh: $LABEL overhead gate: over 2% in all $ATTEMPT attempts"
      return 1
    fi
    ATTEMPT=$((ATTEMPT + 1))
    echo "ci.sh: $LABEL overhead gate: retrying (attempt $ATTEMPT)"
  done
}
SERVE_RUN="--clients 3000 --rate 200000 --service-us 200 --workers 3"

echo "== span tracing overhead gate =="
# Arming --trace-out on the checked server must keep handler CPU within
# 2% of the identical checked run with spans disabled: span emission is
# a handful of lock-free ring pushes per request, and this gate keeps it
# that way.
serve_gate spans "$SERVE_RUN" "" --trace-out "$BUILD/bench_serve_spans.strc"

echo "== serve overhead gate =="
# Armed-vs-disabled for the server itself: the same fixed request mix
# with checking enabled must keep handler CPU within 2% of the
# --unchecked baseline.
serve_gate serve "$SERVE_RUN" --unchecked

echo "== chaos smoke (sharc-storm) =="
# One short overloaded run per serve-level fault kind (DESIGN.md §17):
# each must be survived with exit 0, and each must show its own fault
# actually firing in the serve.resilience block. The run is ~3x the
# worker pool's sustainable rate so the degradation ladder engages and
# a recovery is recorded.
CHAOS_RUN="--clients 2000 --reqs-per-client 2 --rate 150000 \
  --service-us 40 --workers 2 --seed 11"
for FAULT in conn-reset:5 slow-peer:100 worker-stall:2 worker-crash:100 \
             logger-wedge:20; do
  OUT="$BUILD/chaos_smoke.json"
  # shellcheck disable=SC2086
  SHARC_BENCH_REPS=1 "$BUILD/src/serve/sharc-serve" $CHAOS_RUN \
    --chaos "$FAULT" --quiet --json "$OUT"
  "$BUILD/src/obs/sharc-trace" check-bench "$OUT"
  RECOV=$(grep -o '"recoveries":[0-9]*' "$OUT" | grep -o '[0-9]*$')
  case "$FAULT" in
    conn-reset*) FIRED=$(grep -o '"conn_resets":[0-9]*' "$OUT" \
                   | grep -o '[0-9]*$') ;;
    slow-peer*)  FIRED=1 ;; # a pure latency fault: surviving it IS the check
    *)           FIRED=$(grep -o '"faults_injected":[0-9]*' "$OUT" \
                   | grep -o '[0-9]*$') ;;
  esac
  if [ "${FIRED:-0}" -lt 1 ]; then
    echo "ci.sh: chaos smoke: $FAULT never fired"
    exit 1
  fi
  if [ "${RECOV:-0}" -lt 1 ]; then
    echo "ci.sh: chaos smoke: $FAULT run recorded no recovery"
    exit 1
  fi
  echo "ci.sh: chaos smoke: $FAULT survived (recoveries $RECOV)"
done

echo "== storm acceptance: 2x overload with worker-stall =="
# The sharc-storm acceptance run: twice the sustainable rate with
# stalling workers and a deadline budget. It must exit 0, shed rather
# than queue unboundedly, record at least one recovery, and keep the
# p999 of ADMITTED requests bounded — the deadline caps how stale any
# request the handlers still run can be, so the tail of the survivors
# stays honest no matter how hard the storm blows.
STORM_JSON="$ROOT/BENCH_serve_storm.json"
SHARC_BENCH_REPS=1 "$BUILD/src/serve/sharc-serve" \
  --clients 2000 --reqs-per-client 2 --rate 100000 --service-us 40 \
  --workers 2 --deadline-ms 40 --chaos worker-stall:2 --seed 11 \
  --json "$STORM_JSON"
"$BUILD/src/obs/sharc-trace" check-bench "$STORM_JSON"
STORM_SHED=$(grep -o '"shed":[0-9]*' "$STORM_JSON" | grep -o '[0-9]*$')
STORM_RECOV=$(grep -o '"recoveries":[0-9]*' "$STORM_JSON" | grep -o '[0-9]*$')
# Last p999_us occurrence is the sharc/run row (stages come first).
STORM_P999=$(grep -o '"p999_us":[0-9.]*' "$STORM_JSON" | tail -1 \
  | grep -o '[0-9.]*$')
[ "${STORM_SHED:-0}" -ge 1 ] || { echo "ci.sh: storm run shed nothing"; exit 1; }
[ "${STORM_RECOV:-0}" -ge 1 ] || { echo "ci.sh: storm run never recovered"; exit 1; }
# Bound: deadline (40ms) + client give-up margin; 100ms of p999 on an
# admitted request would mean unbounded queueing leaked past admission.
if ! awk -v p="${STORM_P999:-999999}" 'BEGIN{exit !(p < 100000)}'; then
  echo "ci.sh: storm run p999 unbounded (${STORM_P999}us)"
  exit 1
fi
echo "ci.sh: storm acceptance: shed $STORM_SHED, recoveries $STORM_RECOV, p999 ${STORM_P999}us"

echo "== resilience overhead gate =="
# Arming the admission layer with thresholds nothing reaches must keep
# handler CPU within 2% of the disarmed server: the per-request cost of
# overload protection is one gauge read and two compares. The request
# total (750) stays below the ring high watermark (768 of 1024), so the
# armed run can never shed, degrade, or retry no matter how slow this
# machine is — both runs do byte-identical handler work by
# construction.
serve_gate resilience \
  "--clients 750 --rate 200000 --service-us 600 --workers 3" \
  "" --max-inflight 1000000

echo "== profiler overhead gate =="
# sharc-prof must keep the disabled fast path at one predicted branch
# (ISSUE 3 / DESIGN.md §11): run the check-path microbenchmarks with
# observability disabled, again with profiling *armed* but sinkless
# (same machine code path — profiling requires an obs sink), and fail
# if arming the profiler regressed the disabled path by more than 2%.
# A third, fully-profiled run is archived next to BENCH_table1.json as
# the measured cost of profiling itself.
MICRO="$BUILD/bench/bench_runtime_micro"
GATE_FILTER='BM_ChkReadHit|BM_ChkWriteHit|BM_LockLogCheck|BM_CountedStore'
# Each gate measurement is the min over --benchmark_repetitions (the
# harness's JSON reporter coalesces repetitions to their minimum), and
# every gate re-measures its own baseline immediately before the armed
# run: a single short sample against a minutes-old baseline drifts
# several percent on a busy shared machine, which a 2% gate cannot
# tolerate. min-of-reps plus adjacent baselines measures the code, not
# the neighbours.
gate_micro() { # <out.json> — remaining args are env VAR=VAL pairs
  OUT=$1
  shift
  env "$@" "$MICRO" --benchmark_filter="$GATE_FILTER" \
    --benchmark_min_time=0.05 --benchmark_repetitions=5 \
    --json="$OUT" >/dev/null
}
# One overhead gate attempt = a fresh baseline measured immediately
# before the armed run, compared at 2%. A genuine hot-path regression
# (extra work per check) exceeds the bound in every freshly measured
# pair; virtualised-host clock drift is random per pair — so each
# benchmark passes the gate once ANY attempt lands it within the bound,
# and the gate fails only for benchmarks that miss in all 4 attempts.
gate_overhead() { # <label> — remaining args are env VAR=VAL pairs
  LABEL=$1
  shift
  GATE_SEEN=""
  GATE_PASSED=""
  ATTEMPT=1
  while :; do
    gate_micro "$BUILD/bench_micro_disabled.json"
    gate_micro "$BUILD/bench_micro_$LABEL.json" "$@"
    GATE_OUT=$("$BUILD/src/obs/sharc-trace" check-overhead --max-pct 2 \
      "$BUILD/bench_micro_disabled.json" "$BUILD/bench_micro_$LABEL.json" \
      || true)
    printf '%s\n' "$GATE_OUT"
    GATE_SEEN=$(printf '%s %s' "$GATE_SEEN" \
      "$(printf '%s\n' "$GATE_OUT" | awk '/^(ok|FAIL) /{print $2}')" \
      | tr ' \n' '\n\n' | sort -u | tr '\n' ' ')
    GATE_PASSED=$(printf '%s %s' "$GATE_PASSED" \
      "$(printf '%s\n' "$GATE_OUT" | awk '/^ok /{print $2}')" \
      | tr ' \n' '\n\n' | sort -u | tr '\n' ' ')
    GATE_MISSING=""
    for B in $GATE_SEEN; do
      case " $GATE_PASSED " in
        *" $B "*) ;;
        *) GATE_MISSING="$GATE_MISSING $B" ;;
      esac
    done
    if [ -z "$GATE_SEEN" ]; then
      echo "ci.sh: $LABEL overhead gate produced no comparisons"
      return 1
    fi
    if [ -z "$GATE_MISSING" ]; then
      return 0
    fi
    if [ "$ATTEMPT" -ge 4 ]; then
      echo "ci.sh: $LABEL overhead gate: over 2% in all $ATTEMPT" \
        "attempts:$GATE_MISSING"
      return 1
    fi
    ATTEMPT=$((ATTEMPT + 1))
    echo "ci.sh: $LABEL overhead gate: retrying$GATE_MISSING" \
      "(attempt $ATTEMPT)"
  done
}
gate_overhead armed SHARC_BENCH_PROFILE=1
gate_micro "$ROOT/BENCH_profile_micro.json" SHARC_BENCH_PROFILE=2
"$BUILD/src/obs/sharc-trace" check-bench "$ROOT/BENCH_profile_micro.json"

echo "== guard overhead gate =="
# The guard layer's hot-path cost (DESIGN.md §12): the check-path
# microbenchmarks under the paper-faithful abort policy must stay
# within 2% of the library-default continue policy. Clean checks never
# reach the dispatcher, so the expected delta is ~0%.
gate_overhead abort SHARC_POLICY=abort

echo "== stats endpoint overhead gate =="
# sharc-live (DESIGN.md §13): serving /metrics from a background thread
# must leave the check paths untouched. Re-run the same microbenchmarks
# with the endpoint armed on an ephemeral port and hold the armed run to
# within 2% of the disabled one.
gate_overhead stats SHARC_BENCH_STATS_ADDR=127.0.0.1:0

echo "== archive run -> bench/history =="
# Every green CI run appends its bench smoke report to the history
# directory (<git_rev>-<n>.json, n disambiguating repeat runs at one
# revision), then compare-runs renders the cross-run trend table. The
# trend check is a soft gate: scale/reps vary across local runs, so a
# regression prints loudly but does not fail CI (drop SOFT= to harden).
HIST="$ROOT/bench/history"
mkdir -p "$HIST"
N=0
while [ -e "$HIST/$SHARC_GIT_REV-$N.json" ]; do N=$((N + 1)); done
cp "$ROOT/BENCH_table1.json" "$HIST/$SHARC_GIT_REV-$N.json"
# The serve report rides along under its own name so compare-runs trends
# its latency percentiles (p50/p99/p999) across revisions too.
N=0
while [ -e "$HIST/$SHARC_GIT_REV-serve-$N.json" ]; do N=$((N + 1)); done
cp "$ROOT/BENCH_serve.json" "$HIST/$SHARC_GIT_REV-serve-$N.json"
# ...and the spans-armed serve report, whose serve.stages section gives
# compare-runs the per-stage percentile trend.
N=0
while [ -e "$HIST/$SHARC_GIT_REV-serve-spans-$N.json" ]; do N=$((N + 1)); done
cp "$ROOT/BENCH_serve_spans.json" "$HIST/$SHARC_GIT_REV-serve-spans-$N.json"
# ...and the storm acceptance report, whose serve.resilience block gives
# compare-runs the shed/recovery counters and time-to-recover trend.
N=0
while [ -e "$HIST/$SHARC_GIT_REV-serve-storm-$N.json" ]; do N=$((N + 1)); done
cp "$ROOT/BENCH_serve_storm.json" "$HIST/$SHARC_GIT_REV-serve-storm-$N.json"
"$BUILD/src/obs/sharc-trace" compare-runs "$HIST" --max-pct 25 \
  || echo "ci.sh: WARNING: compare-runs flagged a regression (soft gate)"

echo "== ci.sh: all green =="
