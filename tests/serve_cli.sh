#!/bin/sh
# CLI surface of sharc-serve: --help exits 0, malformed numeric flags are
# rejected with exit 2 (strict from_chars parse — no atoi leniency),
# unknown flags exit 2, an unwritable --json path exits 2, and a tiny
# clean run exits 0 producing a schema-valid sharc-bench-v1 report whose
# serve section and latency percentiles are present.
#
# usage: serve_cli.sh <path-to-sharc-serve> <path-to-sharc-trace>
set -u

SERVE=$1
TRACE=$2
STATUS=0
WORK="${TMPDIR:-/tmp}/sharc_serve_cli_$$"
mkdir -p "$WORK"
trap 'rm -rf "$WORK"' EXIT

RUN="--clients 200 --rate 400000 --service-us 1 --workers 2"
export SHARC_BENCH_REPS=1

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

# --- help and usage errors ---
expect_exit 0 "--help" "$SERVE" --help
expect_exit 2 "malformed --rate" "$SERVE" --rate abc
expect_exit 2 "malformed --clients (trailing garbage)" "$SERVE" --clients 10x
expect_exit 2 "negative --workers rejected" "$SERVE" --workers -3
expect_exit 2 "negative --seed rejected" "$SERVE" --seed -7
expect_exit 2 "empty --clients rejected" "$SERVE" --clients=
expect_exit 2 "signed --rate rejected" "$SERVE" --rate +5
expect_exit 2 "--workers above the thread budget" "$SERVE" --workers 13
expect_exit 2 "--rate 0 rejected" "$SERVE" --rate 0
expect_exit 2 "unknown flag" "$SERVE" --frobnicate
expect_exit 2 "--json without a value" "$SERVE" --json

# --help mentions the exit-code contract (the scriptability promise).
if "$SERVE" --help | grep -q "exit status"; then
  echo "ok: --help documents the exit contract"
else
  fail "--help does not document the exit contract"
fi

# --help names every flag, and every numeric flag states its default.
HELP=$("$SERVE" --help)
for FLAG in --clients --reqs-per-client --rate --payload --seed \
            --workers --service-us --unchecked --inject-race \
            --inject-stall --on-violation --stats-addr --json \
            --trace-out --quiet --help \
            --max-inflight --deadline-ms --chaos; do
  if echo "$HELP" | grep -q -- "$FLAG"; then
    echo "ok: --help covers $FLAG"
  else
    fail "--help does not mention $FLAG"
  fi
done
DEFAULTS=$(echo "$HELP" | grep -c "default")
if [ "$DEFAULTS" -ge 10 ]; then
  echo "ok: --help states defaults ($DEFAULTS lines)"
else
  fail "--help states too few defaults ($DEFAULTS lines)"
fi

# --- unwritable --json path ---
# shellcheck disable=SC2086
expect_exit 2 "unwritable --json path" \
  "$SERVE" $RUN --quiet --json "$WORK/nodir/out.json"

# --- tiny clean run: exit 0, schema-valid report ---
# shellcheck disable=SC2086
expect_exit 0 "tiny checked run" \
  "$SERVE" $RUN --quiet --json "$WORK/serve.json"
expect_exit 0 "check-bench accepts the report" \
  "$TRACE" check-bench "$WORK/serve.json"
for KEY in '"serve"' '"clients"' '"target_rate_rps"' '"p50_us"' \
           '"p99_us"' '"p999_us"' '"throughput_rps"' '"service_ns"' \
           '"unix_time"'; do
  if grep -q "$KEY" "$WORK/serve.json"; then
    echo "ok: report carries $KEY"
  else
    fail "report is missing $KEY"
  fi
done

# The unchecked baseline writes the same shape under the orig row name.
# shellcheck disable=SC2086
expect_exit 0 "tiny unchecked run" \
  "$SERVE" $RUN --unchecked --quiet --json "$WORK/orig.json"
expect_exit 0 "check-bench accepts the baseline report" \
  "$TRACE" check-bench "$WORK/orig.json"
if grep -q '"orig/run"' "$WORK/orig.json" &&
   grep -q '"sharc/run"' "$WORK/serve.json"; then
  echo "ok: mode-specific row names"
else
  fail "mode-specific row names missing"
fi

# Both carry the shared service row the ci.sh overhead gate compares.
if grep -q '"service"' "$WORK/orig.json" &&
   grep -q '"service"' "$WORK/serve.json"; then
  echo "ok: shared service row present in both modes"
else
  fail "shared service row missing"
fi

# Both report the always-on per-stage breakdown compare-runs trends.
if grep -q '"stages"' "$WORK/serve.json" &&
   grep -q '"handler"' "$WORK/serve.json"; then
  echo "ok: report carries serve.stages"
else
  fail "serve.stages section missing"
fi

# --- sharc-storm: resilience flags ---
# Zero periods are rejected in BOTH spellings — `--flag=0` and
# `--flag 0` must fail the same way (the satellite fix: the space form
# used to silently disable the injection instead of erroring).
expect_exit 2 "--inject-race=0 rejected" "$SERVE" --inject-race=0
expect_exit 2 "--inject-race 0 (space form) rejected" \
  "$SERVE" --inject-race 0
expect_exit 2 "--inject-stall 0 (space form) rejected" \
  "$SERVE" --inject-stall 0
expect_exit 2 "--max-inflight=0 rejected" "$SERVE" --max-inflight=0
expect_exit 2 "--deadline-ms=0 rejected" "$SERVE" --deadline-ms=0
expect_exit 2 "--chaos with an unknown fault" "$SERVE" --chaos=frobnicate
expect_exit 2 "--chaos worker-crash needs two workers" \
  "$SERVE" --chaos worker-crash --workers 1

# An armed run writes the serve.resilience block and it validates.
# shellcheck disable=SC2086
expect_exit 0 "armed run with admission control" \
  "$SERVE" $RUN --quiet --max-inflight 512 --json "$WORK/storm.json"
expect_exit 0 "check-bench accepts the armed report" \
  "$TRACE" check-bench "$WORK/storm.json"
for KEY in '"resilience"' '"shed"' '"retries"' '"recoveries"' \
           '"ttr_p99_us"'; do
  if grep -q "$KEY" "$WORK/storm.json"; then
    echo "ok: armed report carries $KEY"
  else
    fail "armed report is missing $KEY"
  fi
done
# ...and a disarmed run does NOT (the block is storm-only).
if grep -q '"resilience"' "$WORK/serve.json"; then
  fail "disarmed report unexpectedly carries serve.resilience"
else
  echo "ok: disarmed report omits serve.resilience"
fi
# Each configuration trends under its own bench name in compare-runs.
if grep -q '"bench":"sharc_serve"' "$WORK/serve.json" &&
   grep -q '"bench":"sharc_serve_storm"' "$WORK/storm.json"; then
  echo "ok: plain and armed runs carry their own bench names"
else
  fail "bench names: plain run must be sharc_serve, armed sharc_serve_storm"
fi

# --- request spans: --trace-out end to end ---
expect_exit 2 "--trace-out without a value" "$SERVE" --trace-out
expect_exit 2 "--inject-stall=0 rejected" "$SERVE" --inject-stall=0
expect_exit 2 "unwritable --trace-out path" \
  "$SERVE" $RUN --quiet --trace-out "$WORK/nodir/out.strc"

# A traced run with the injected stall: the v4 trace parses, summarize
# tallies the span family, and the tail anatomy names a dominant stage
# plus a concrete cause for the slowest request.
expect_exit 0 "traced run with injected stall" \
  "$SERVE" $RUN --quiet --inject-stall=32 \
  --trace-out "$WORK/spans.strc" --json "$WORK/spans.json"
expect_exit 0 "check-bench accepts the traced report" \
  "$TRACE" check-bench "$WORK/spans.json"

SUMMARY=$("$TRACE" summarize "$WORK/spans.strc")
if echo "$SUMMARY" | grep -q "format: v4"; then
  echo "ok: summarize reports the v4 format"
else
  fail "summarize does not report format: v4"
fi
if echo "$SUMMARY" | grep -q "spans: .* begin / .* end"; then
  echo "ok: summarize tallies span records per stage"
else
  fail "summarize span tally missing"
fi

REQS=$("$TRACE" requests "$WORK/spans.strc" --tail 1)
if echo "$REQS" | grep -q "per-stage latency"; then
  echo "ok: requests prints the per-stage breakdown"
else
  fail "requests per-stage breakdown missing"
fi
if echo "$REQS" | grep -q "dominant" && echo "$REQS" | grep -q "cause:"; then
  echo "ok: tail anatomy names a dominant stage and a cause"
else
  fail "tail anatomy lacks dominant stage or cause"
fi

expect_exit 2 "requests --tail 0 rejected" \
  "$TRACE" requests "$WORK/spans.strc" --tail 0
expect_exit 2 "requests --tail garbage rejected" \
  "$TRACE" requests "$WORK/spans.strc" --tail abc

# A span-free (pre-v4 producer) trace gets the pointer to --trace-out.
expect_exit 0 "plain run for a span-free trace check" \
  "$SERVE" $RUN --quiet --json "$WORK/plain.json"
if "$TRACE" requests "$WORK/spans.strc" > /dev/null 2>&1; then
  echo "ok: requests succeeds on a span-carrying trace"
else
  fail "requests fails on a span-carrying trace"
fi

# Chrome export carries the request track alongside the thread tracks.
expect_exit 0 "export-chrome on the span trace" \
  "$TRACE" export-chrome "$WORK/spans.strc" "$WORK/spans.chrome.json"
if grep -q "sharc requests" "$WORK/spans.chrome.json"; then
  echo "ok: chrome export carries the request track"
else
  fail "chrome export lacks the request track"
fi

exit $STATUS
