#!/bin/sh
# Pins sharcc's exit-code contract:
#   3 - internal errors and injected faults (malformed SHARC_FAULT,
#       torn trace writes)
#   2 - usage errors (no input, unknown option, unreadable file,
#       malformed policy selection)
#   1 - static errors, runtime violations in both report and
#       fail-stop modes under the default abort policy, and runtime
#       errors: accesses outside the interpreter's memory and
#       allocations past its limit
#   0 - clean check, clean run, and completed runs whose violations
#       were permitted by --on-violation=continue/quarantine
#
# Also sweeps the sharc-trace CLI contract when a 4th argument names the
# binary: every subcommand is listed in the top-level --help, every
# subcommand answers its own --help with exit 0, and unknown subcommands
# exit 2. A 5th argument names sharc-fuzz, whose malformed numeric flags
# must exit 2.
#
# usage: exit_codes.sh <path-to-sharcc> <examples-dir> <fixtures-dir> \
#                      [path-to-sharc-trace] [path-to-sharc-fuzz]
set -u

SHARCC=$1
EXAMPLES=$2
FIXTURES=$3
TRACE=${4:-}
FUZZ=${5:-}
STATUS=0

expect() { # <expected-exit> <description> <args...>
  WANT=$1
  WHAT=$2
  shift 2
  "$SHARCC" "$@" > /dev/null 2>&1
  GOT=$?
  if [ "$GOT" -ne "$WANT" ]; then
    echo "FAIL: $WHAT: expected exit $WANT, got $GOT"
    STATUS=1
  else
    echo "ok: $WHAT (exit $GOT)"
  fi
}

expect 2 "no arguments"
expect 2 "unknown option" --bogus
expect 2 "missing file" "$EXAMPLES/does_not_exist.mc"
expect 1 "static error" --check "$FIXTURES/static_error.mc"
expect 1 "runtime violation, report mode" --run --quiet "$EXAMPLES/race_demo.mc"
expect 1 "runtime violation, fail-stop" --run --fail-stop --quiet "$EXAMPLES/race_demo.mc"
expect 1 "index past memory" --run --quiet "$FIXTURES/oob_index.mc"
expect 1 "pointer past memory" --run --quiet "$FIXTURES/oob_pointer.mc"
expect 1 "new past the memory limit" --run --quiet "$FIXTURES/huge_new.mc"
expect 1 "global past the memory limit" --run --quiet "$FIXTURES/huge_global.mc"
expect 0 "clean check" --check --quiet "$EXAMPLES/locked_counter.mc"
expect 0 "clean run" --run --quiet "$EXAMPLES/locked_counter.mc"

expect 0 "violations permitted by continue policy" \
  --run --quiet --on-violation=continue "$EXAMPLES/race_demo.mc"
expect 0 "violations permitted by quarantine policy" \
  --run --quiet --on-violation=quarantine "$EXAMPLES/race_demo.mc"
expect 2 "malformed --on-violation" \
  --run --quiet --on-violation=never "$EXAMPLES/race_demo.mc"

expect_env() { # <env-assignment> <expected-exit> <description> <args...>
  ENVSET=$1
  WANT=$2
  WHAT=$3
  shift 3
  env "$ENVSET" "$SHARCC" "$@" > /dev/null 2>&1
  GOT=$?
  if [ "$GOT" -ne "$WANT" ]; then
    echo "FAIL: $WHAT: expected exit $WANT, got $GOT"
    STATUS=1
  else
    echo "ok: $WHAT (exit $GOT)"
  fi
}

expect_env SHARC_POLICY=bogus 2 "malformed SHARC_POLICY" \
  --run --quiet "$EXAMPLES/race_demo.mc"
expect_env SHARC_FAULT=bogus 3 "malformed SHARC_FAULT" \
  --run --quiet --on-violation=continue "$EXAMPLES/race_demo.mc"

# --- sharc-trace CLI contract -------------------------------------------
if [ -n "$TRACE" ]; then
  SUBCOMMANDS="summarize dump schedule metrics profile export-chrome
               tail timeline critical-path report
               scrape check-prom check-live
               check-bench check-metrics check-overhead compare-runs"

  TOPHELP=$("$TRACE" --help 2>&1)
  if [ $? -ne 0 ]; then
    echo "FAIL: sharc-trace --help: nonzero exit"
    STATUS=1
  fi
  for CMD in $SUBCOMMANDS; do
    case "$TOPHELP" in
      *"  $CMD "*) echo "ok: sharc-trace --help lists $CMD" ;;
      *)
        echo "FAIL: sharc-trace --help does not list subcommand '$CMD'"
        STATUS=1
        ;;
    esac
    "$TRACE" "$CMD" --help > /dev/null 2>&1
    GOT=$?
    if [ "$GOT" -ne 0 ]; then
      echo "FAIL: sharc-trace $CMD --help: expected exit 0, got $GOT"
      STATUS=1
    else
      echo "ok: sharc-trace $CMD --help (exit 0)"
    fi
  done

  "$TRACE" > /dev/null 2>&1
  GOT=$?
  if [ "$GOT" -ne 2 ]; then
    echo "FAIL: sharc-trace with no arguments: expected exit 2, got $GOT"
    STATUS=1
  else
    echo "ok: sharc-trace with no arguments (exit 2)"
  fi
  "$TRACE" not-a-subcommand > /dev/null 2>&1
  GOT=$?
  if [ "$GOT" -ne 2 ]; then
    echo "FAIL: sharc-trace unknown subcommand: expected exit 2, got $GOT"
    STATUS=1
  else
    echo "ok: sharc-trace unknown subcommand (exit 2)"
  fi
  "$TRACE" not-a-subcommand --help > /dev/null 2>&1
  GOT=$?
  if [ "$GOT" -ne 2 ]; then
    echo "FAIL: sharc-trace unknown subcommand --help: expected 2, got $GOT"
    STATUS=1
  else
    echo "ok: sharc-trace unknown subcommand --help (exit 2)"
  fi
fi

# --- sharc-fuzz numeric flags -------------------------------------------
if [ -n "$FUZZ" ]; then
  expect_fuzz() { # <description> <args...>
    WHAT=$1
    shift
    "$FUZZ" "$@" > /dev/null 2>&1
    GOT=$?
    if [ "$GOT" -ne 2 ]; then
      echo "FAIL: sharc-fuzz $WHAT: expected exit 2, got $GOT"
      STATUS=1
    else
      echo "ok: sharc-fuzz $WHAT (exit 2)"
    fi
  }
  expect_fuzz "negative --seed" --count 1 --seed -7
  expect_fuzz "empty --count" --count ""
  expect_fuzz "signed --count" --count +1
  expect_fuzz "trailing garbage in --max-steps" --count 1 --max-steps 10x
  expect_fuzz "--schedules past 64 bits" --count 1 \
    --schedules 18446744073709551617
fi

exit $STATUS
