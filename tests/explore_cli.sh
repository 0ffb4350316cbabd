#!/bin/sh
# Pins the sharcc --explore exit-code contract and the witness
# round trip (DESIGN.md §14):
#   0 - exploration converged with no violation in any interleaving
#   1 - a violating interleaving was found (witness written on request)
#   2 - usage errors, unreadable/corrupt/truncated witness files, and
#       replay divergence (the witness does not fit the program)
#   4 - exploration gave up (budget or preemption bound) without a
#       violation: inconclusive, distinct from clean, and never silent
#       (a WARNING survives --quiet)
#
# usage: explore_cli.sh <path-to-sharcc> <examples-dir> <fixtures-dir>
set -u

SHARCC=$1
EXAMPLES=$2
FIXTURES=$3
STATUS=0

TMP=$(mktemp -d "${TMPDIR:-/tmp}/sharc-explore-cli.XXXXXX") || exit 3
trap 'rm -rf "$TMP"' 0

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

# --- exploration verdicts ------------------------------------------------
expect 0 "explore: independent threads are clean" \
  --explore --quiet "$FIXTURES/explore_indep.mc"
expect 1 "explore: racing writes are found" \
  --explore --quiet "$FIXTURES/explore_race.mc"
expect 0 "explore: lock-protected counter is clean" \
  --explore --quiet "$FIXTURES/explore_locked.mc"

# --- budget exhaustion is a distinct, loud exit --------------------------
# A real example whose schedule space does not converge under a tiny
# budget: the exit is 4 (inconclusive), never 0, and the WARNING
# survives --quiet. --max-steps keeps the truncated probes cheap.
WARN=$("$SHARCC" --explore --explore-budget 3 --max-steps 2000 --quiet \
       "$EXAMPLES/locked_counter.mc" 2>&1)
GOT=$?
if [ "$GOT" -ne 4 ]; then
  echo "FAIL: tiny run budget: expected exit 4, got $GOT"
  STATUS=1
else
  echo "ok: explore: tiny run budget gives up, not clean (exit 4)"
fi
case "$WARN" in
  *WARNING*) echo "ok: budget exhaustion warns even under --quiet" ;;
  *)
    echo "FAIL: budget exhaustion produced no WARNING under --quiet"
    STATUS=1
    ;;
esac

# A preemption bound of zero cannot reach the racy overlap, and must
# say the search was cut rather than report the program clean.
expect 4 "explore: preemption bound 0 is inconclusive" \
  --explore=0 --quiet "$FIXTURES/explore_race.mc"

# --- witness round trip --------------------------------------------------
WITNESS="$TMP/race.witness"
expect 1 "explore: --witness-out on a violating program" \
  --explore --quiet --witness-out "$WITNESS" "$FIXTURES/explore_race.mc"
if [ ! -s "$WITNESS" ]; then
  echo "FAIL: witness file was not written"
  STATUS=1
else
  echo "ok: witness file written"
fi
head -n 1 "$WITNESS" | grep -q '^sharc-witness-v1$' || {
  echo "FAIL: witness missing version header"
  STATUS=1
}
tail -n 1 "$WITNESS" | grep -q '^end$' || {
  echo "FAIL: witness missing end line"
  STATUS=1
}

expect 1 "replay: witness reproduces the violation" \
  --run --quiet --replay-witness "$WITNESS" "$FIXTURES/explore_race.mc"
expect 2 "replay: witness against the wrong program diverges" \
  --run --quiet --replay-witness "$WITNESS" "$FIXTURES/explore_indep.mc"

# A torn write (file cut before the end line) must be rejected, not
# replayed as far as it goes.
head -n 3 "$WITNESS" > "$TMP/truncated.witness"
expect 2 "replay: truncated witness rejected" \
  --run --quiet --replay-witness "$TMP/truncated.witness" \
  "$FIXTURES/explore_race.mc"
printf 'not a witness\n' > "$TMP/garbage.witness"
expect 2 "replay: corrupt witness rejected" \
  --run --quiet --replay-witness "$TMP/garbage.witness" \
  "$FIXTURES/explore_race.mc"
expect 2 "replay: missing witness file" \
  --run --quiet --replay-witness "$TMP/nope.witness" \
  "$FIXTURES/explore_race.mc"

# No violation found -> no witness file left behind.
expect 0 "explore: --witness-out on a clean program" \
  --explore --quiet --witness-out "$TMP/clean.witness" \
  "$FIXTURES/explore_indep.mc"
if [ -e "$TMP/clean.witness" ]; then
  echo "FAIL: clean exploration wrote a witness file"
  STATUS=1
else
  echo "ok: clean exploration writes no witness"
fi

# --- explore metrics -----------------------------------------------------
"$SHARCC" --explore --quiet --metrics-out "$TMP/explore.json" \
  "$FIXTURES/explore_indep.mc" > /dev/null 2>&1
grep -q 'sharc-explore-v1' "$TMP/explore.json" || {
  echo "FAIL: --metrics-out missing sharc-explore-v1 schema"
  STATUS=1
}
grep -q '"schedules_run"' "$TMP/explore.json" || {
  echo "FAIL: --metrics-out missing schedules_run"
  STATUS=1
}
NUM='[0-9][0-9.eE+-]*'
for KEY in wall_s schedules_per_s; do
  grep -q "\"$KEY\":$NUM[,}]" "$TMP/explore.json" || {
    echo "FAIL: --metrics-out missing numeric $KEY"
    STATUS=1
  }
done
echo "ok: explore metrics json"

# --- usage errors --------------------------------------------------------
expect 2 "usage: --explore with --check" \
  --explore --check "$FIXTURES/explore_race.mc"
expect 2 "usage: --witness-out without --explore" \
  --run --witness-out "$TMP/w" "$FIXTURES/explore_race.mc"
expect 2 "usage: --explore with --trace-out" \
  --explore --trace-out "$TMP/t" "$FIXTURES/explore_race.mc"
expect 2 "usage: --explore with --replay-witness" \
  --explore --replay-witness "$WITNESS" "$FIXTURES/explore_race.mc"
expect 2 "usage: --explore-budget 0" \
  --explore --explore-budget 0 "$FIXTURES/explore_race.mc"
expect 2 "usage: malformed --explore= value" \
  --explore=abc "$FIXTURES/explore_race.mc"

exit $STATUS
