#!/bin/sh
# End-to-end contract for the observability CLI surface:
#   - `sharcc --run --trace-out T --metrics-out M` produces a trace whose
#     `sharc-trace summarize` conflict count equals the violation count
#     sharcc itself reports on stderr, and a metrics file that passes
#     `sharc-trace check-metrics`.
#   - sharcc's new flag parsing: --help exits 0, malformed numeric
#     arguments exit 2.
#   - sharc-trace's own usage contract: help 0, bad usage 2, bad file 1.
#
# usage: trace_cli.sh <path-to-sharcc> <path-to-sharc-trace> <examples-dir>
set -u

SHARCC=$1
TRACE=$2
EXAMPLES=$3
STATUS=0
WORK="${TMPDIR:-/tmp}/sharc_trace_cli_$$"
mkdir -p "$WORK"
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "FAIL: $1"
  STATUS=1
}

expect_exit() { # <expected> <description> <cmd...>
  WANT=$1
  WHAT=$2
  shift 2
  "$@" > /dev/null 2>&1
  GOT=$?
  if [ "$GOT" -ne "$WANT" ]; then
    fail "$WHAT: expected exit $WANT, got $GOT"
  else
    echo "ok: $WHAT (exit $GOT)"
  fi
}

# --- acceptance: trace conflicts == sharcc's reported violations ---
"$SHARCC" --run --seed 3 --trace-out "$WORK/t.strc" \
  --metrics-out "$WORK/m.json" "$EXAMPLES/pipeline_unannotated.mc" \
  > /dev/null 2> "$WORK/stderr.txt"
[ $? -eq 1 ] || fail "pipeline_unannotated run should exit 1"
VIOLATIONS=$(sed -n 's/^sharcc: .* \([0-9][0-9]*\) violations$/\1/p' "$WORK/stderr.txt" | head -1)
[ -n "$VIOLATIONS" ] || fail "no violation count on sharcc stderr"
CONFLICTS=$("$TRACE" summarize "$WORK/t.strc" | sed -n 's/^conflicts: \([0-9][0-9]*\)$/\1/p')
[ -n "$CONFLICTS" ] || fail "no conflict count in summarize output"
if [ "x$VIOLATIONS" = "x$CONFLICTS" ]; then
  echo "ok: summarize reports $CONFLICTS conflicts == sharcc's $VIOLATIONS violations"
else
  fail "summarize reports '$CONFLICTS' conflicts, sharcc reported '$VIOLATIONS'"
fi

expect_exit 0 "check-metrics accepts sharcc --metrics-out" \
  "$TRACE" check-metrics "$WORK/m.json"
expect_exit 0 "dump runs" "$TRACE" dump "$WORK/t.strc"
expect_exit 0 "schedule runs" "$TRACE" schedule "$WORK/t.strc"
expect_exit 0 "metrics runs" "$TRACE" metrics "$WORK/t.strc"

# A clean program yields a zero-conflict trace.
"$SHARCC" --run --quiet --trace-out "$WORK/clean.strc" \
  "$EXAMPLES/locked_counter.mc" > /dev/null 2>&1
[ $? -eq 0 ] || fail "locked_counter with --trace-out should exit 0"
CLEAN=$("$TRACE" summarize "$WORK/clean.strc" | sed -n 's/^conflicts: \([0-9][0-9]*\)$/\1/p')
if [ "x$CLEAN" = "x0" ]; then
  echo "ok: clean run traces 0 conflicts"
else
  fail "clean run traced '$CLEAN' conflicts"
fi

# --- sharcc flag contract ---
expect_exit 0 "sharcc --help" "$SHARCC" --help
expect_exit 2 "trailing garbage in --seed" \
  "$SHARCC" --run --seed 12x "$EXAMPLES/locked_counter.mc"
expect_exit 2 "non-numeric --max-steps" \
  "$SHARCC" --run --max-steps many "$EXAMPLES/locked_counter.mc"
expect_exit 2 "negative --seed" \
  "$SHARCC" --run --seed -7 "$EXAMPLES/locked_counter.mc"
expect_exit 2 "empty --seed" \
  "$SHARCC" --run --seed= "$EXAMPLES/locked_counter.mc"
expect_exit 2 "signed --max-steps" \
  "$SHARCC" --run --max-steps +5 "$EXAMPLES/locked_counter.mc"
expect_exit 2 "--max-steps past 64 bits" \
  "$SHARCC" --run --max-steps 18446744073709551616 "$EXAMPLES/locked_counter.mc"
expect_exit 2 "--seed without value" "$SHARCC" --run --seed
expect_exit 2 "--trace-out without value" "$SHARCC" --run --trace-out
expect_exit 2 "--trace-out with --check" \
  "$SHARCC" --check --trace-out "$WORK/x.strc" "$EXAMPLES/locked_counter.mc"
expect_exit 2 "unwritable --trace-out" \
  "$SHARCC" --run --quiet --trace-out "$WORK/no/such/dir/t.strc" \
  "$EXAMPLES/locked_counter.mc"

# --- compare-runs: percentile gating and the named-offender FAIL ---
# Two hand-written archives where wall time barely moves but p99 doubles:
# the gate must trip on the percentile and the FAIL line must say which
# metric key regressed.
mkdir -p "$WORK/hist"
cat > "$WORK/hist/aaa-1.json" <<'EOF'
{"schema":"sharc-bench-v1","bench":"sharc_serve","scale":1,"reps":1,
 "host":{"cpus":1,"compiler":"gcc","build":"release","git_rev":"aaa","unix_time":100},
 "rows":[{"name":"sharc/run","metrics":{"real_ns":1000000.0,"p50_us":10.0,"p99_us":40.0}}]}
EOF
cat > "$WORK/hist/bbb-1.json" <<'EOF'
{"schema":"sharc-bench-v1","bench":"sharc_serve","scale":1,"reps":1,
 "host":{"cpus":1,"compiler":"gcc","build":"release","git_rev":"bbb","unix_time":200},
 "rows":[{"name":"sharc/run","metrics":{"real_ns":1010000.0,"p50_us":10.2,"p99_us":80.0}}]}
EOF
"$TRACE" compare-runs "$WORK/hist" --max-pct 10 > "$WORK/cmp.txt" 2>&1
if [ $? -eq 1 ]; then
  echo "ok: compare-runs fails on a p99 regression wall time missed"
else
  fail "compare-runs did not fail on the p99 regression"
fi
if grep -q "FAIL.*sharc_serve/sharc/run:p99_us" "$WORK/cmp.txt"; then
  echo "ok: compare-runs FAIL names the regressed metric key"
else
  fail "compare-runs FAIL line does not name sharc_serve/sharc/run:p99_us"
fi
# A generous threshold lets the same archives pass.
expect_exit 0 "compare-runs passes at --max-pct 150" \
  "$TRACE" compare-runs "$WORK/hist" --max-pct 150

# --- compare-runs: a rate is not a time ---
# bench_thread_scaling rows carry a rate (mchecks_per_sec_total, higher
# is better) and a wall time per check (check_ns). A tenfold throughput
# gain must not read as a regression; the same two runs in the other
# order must.
rate_archive() { # <dir> <rev> <unix-time> <mchecks/s> <check-ns>
  mkdir -p "$1"
  cat > "$1/$2-0.json" <<EOF
{"schema":"sharc-bench-v1","bench":"bench_thread_scaling","scale":1,"reps":1,
 "host":{"cpus":4,"compiler":"gcc","build":"release","git_rev":"$2","unix_time":$3},
 "rows":[{"name":"threads-4","metrics":{"threads":4,"shadow_bytes":1,"mchecks_per_sec_total":$4,"check_ns":$5}}]}
EOF
}
rate_archive "$WORK/faster" aaa 100 19.0 52.6
rate_archive "$WORK/faster" bbb 200 188.0 5.32
"$TRACE" compare-runs "$WORK/faster" --max-pct 25 > "$WORK/faster.txt" 2>&1
if [ $? -eq 0 ] && ! grep -q REGRESSION "$WORK/faster.txt"; then
  echo "ok: compare-runs reads a higher rate as a gain"
else
  fail "compare-runs flagged a throughput gain as a regression"
fi
rate_archive "$WORK/slower" aaa 200 19.0 52.6
rate_archive "$WORK/slower" bbb 100 188.0 5.32
"$TRACE" compare-runs "$WORK/slower" --max-pct 25 > "$WORK/slower.txt" 2>&1
if [ $? -eq 1 ] && grep -q "FAIL.*bench_thread_scaling/threads-4" \
     "$WORK/slower.txt"; then
  echo "ok: compare-runs fails on a throughput drop"
else
  fail "compare-runs missed a tenfold throughput drop"
fi

# --- sharc-trace usage contract ---
expect_exit 0 "sharc-trace --help" "$TRACE" --help
expect_exit 2 "sharc-trace no arguments" "$TRACE"
expect_exit 2 "sharc-trace unknown command" "$TRACE" frobnicate "$WORK/t.strc"
expect_exit 2 "summarize without file" "$TRACE" summarize
expect_exit 2 "tail with a negative --idle-ms" \
  "$TRACE" tail "$WORK/clean.strc" --idle-ms -7
expect_exit 2 "tail with a signed --poll-ms" \
  "$TRACE" tail "$WORK/clean.strc" --poll-ms=+5
expect_exit 2 "tail with trailing garbage in --idle-ms" \
  "$TRACE" tail "$WORK/clean.strc" --idle-ms 10x
expect_exit 1 "summarize on missing file" "$TRACE" summarize "$WORK/nope.strc"
printf 'not a trace' > "$WORK/bad.strc"
expect_exit 1 "summarize on garbage file" "$TRACE" summarize "$WORK/bad.strc"
expect_exit 1 "check-bench on metrics file" "$TRACE" check-bench "$WORK/m.json"

exit $STATUS
