#!/bin/sh
# Smoke test for the resilience layer, in four acts:
#
#   1. deadline: a zero-second deadline on a DroidBench case must stop
#      the solver cooperatively (exit 3, outcome deadline-exceeded) and
#      bump resilience.deadline_hits — never crash.
#   2. ladder: the same case without a deadline must complete (exit 2,
#      flows reported) so the degradation machinery is not tripping on
#      healthy inputs.
#   3. chaos: the full DroidBench suite under fault injection
#      (seed 20140609, p=0.1) must finish every app behind the crash
#      barrier with a per-app outcome row and zero escaped exceptions,
#      and the stats snapshot must carry the resilience.* series.
#   4. table outcomes: the DroidBench table under a zero-second deadline
#      must report deadline-exceeded runs in its outcome distribution,
#      not count them as complete.
#
#   sh bench/check_resilience.sh [CASE]     (default case: DirectLeak1)
#
# Exits non-zero on any violated expectation, so it can gate CI.
set -eu

case_name="${1:-DirectLeak1}"
root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

cd "$root"
fail=0

echo "== check_resilience: dumping DroidBench case $case_name"
dune exec --display=quiet bin/droidbench_runner.exe -- \
  --app "$case_name" --dump "$work/apps"
app_dir="$work/apps/$case_name"
[ -d "$app_dir" ] || { echo "FAIL: dump did not produce $app_dir"; exit 1; }

echo "== check_resilience: zero-second deadline must degrade, not crash"
status=0
dune exec --display=quiet bin/flowdroid_cli.exe -- "$app_dir" \
  --deadline 0 --stats-json "$work/deadline.json" \
  >"$work/deadline.txt" 2>&1 || status=$?
if [ "$status" != 3 ]; then
  echo "FAIL: expected exit 3 (incomplete), got $status"
  cat "$work/deadline.txt"
  fail=1
fi
if grep -q "outcome: deadline-exceeded" "$work/deadline.txt"; then
  echo "ok: outcome line reports deadline-exceeded"
else
  echo "FAIL: missing 'outcome: deadline-exceeded' line"
  fail=1
fi
if grep -q '"resilience.deadline_hits": 0' "$work/deadline.json"; then
  echo "FAIL: resilience.deadline_hits stayed zero"
  fail=1
else
  echo "ok: resilience.deadline_hits fired"
fi

echo "== check_resilience: the same case completes without a deadline"
status=0
dune exec --display=quiet bin/flowdroid_cli.exe -- "$app_dir" --fallback \
  >"$work/full.txt" 2>&1 || status=$?
if [ "$status" != 2 ]; then
  echo "FAIL: expected exit 2 (flows found), got $status"
  cat "$work/full.txt"
  fail=1
else
  echo "ok: full run completes with flows"
fi

echo "== check_resilience: chaos smoke gate (seed 20140609, p=0.1)"
status=0
dune exec --display=quiet bin/droidbench_runner.exe -- \
  --chaos-rate 0.1 --chaos-seed 20140609 --stats-json "$work/chaos.json" \
  >"$work/chaos.txt" 2>&1 || status=$?
if [ "$status" != 0 ]; then
  echo "FAIL: chaos run exited with status $status"
  tail -5 "$work/chaos.txt"
  fail=1
fi
if grep -q "ESCAPED" "$work/chaos.txt"; then
  echo "FAIL: an exception escaped the barrier"
  grep "ESCAPED" "$work/chaos.txt"
  fail=1
else
  echo "ok: no exception escaped the barrier"
fi
if grep -q "^outcomes: " "$work/chaos.txt"; then
  echo "ok: outcome distribution reported"
else
  echo "FAIL: missing outcome distribution line"
  fail=1
fi
# every degraded/partial outcome must carry a flight-recorder dump in
# its diagnostics that names a solver event (the runner prints
# flight=MISSING when there is no dump, flight=EMPTY when no dump names
# a solver event)
if grep -q "flight=MISSING" "$work/chaos.txt"; then
  echo "FAIL: degraded outcome without a flight-recorder dump"
  grep "flight=MISSING" "$work/chaos.txt"
  fail=1
elif grep -q "flight=EMPTY" "$work/chaos.txt"; then
  echo "FAIL: degraded outcome whose flight-recorder dump has no solver event"
  grep "flight=EMPTY" "$work/chaos.txt"
  fail=1
else
  echo "ok: every non-precise outcome carries a flight-recorder dump with solver events"
fi

require_key () {
  # require_key KEY FILE — KEY must appear as a JSON object key
  if grep -q "\"$1\"" "$2"; then
    echo "ok: $2 has \"$1\""
  else
    echo "FAIL: $2 is missing key \"$1\""
    fail=1
  fi
}
for key in resilience.budget_hits resilience.deadline_hits \
           resilience.cancellations resilience.crashes_caught \
           resilience.retries resilience.ladder_retries \
           resilience.degraded_runs resilience.faults_injected \
           resilience.diagnostics; do
  require_key "$key" "$work/chaos.json"
done
if grep -q '"resilience.faults_injected": 0' "$work/chaos.json"; then
  echo "FAIL: chaos run injected no faults"
  fail=1
else
  echo "ok: faults were injected"
fi

echo "== check_resilience: zero-second deadline in the DroidBench table"
status=0
dune exec --display=quiet bin/droidbench_runner.exe -- \
  --deadline 0 --outcomes >"$work/table.txt" 2>&1 || status=$?
if [ "$status" != 0 ]; then
  echo "FAIL: droidbench_runner exited with status $status"
  tail -5 "$work/table.txt"
  fail=1
fi
if grep "^outcome distribution: " "$work/table.txt" \
    | grep -q "deadline-exceeded"; then
  echo "ok: outcome distribution lists deadline-exceeded"
else
  echo "FAIL: outcome distribution does not list deadline-exceeded"
  grep "^outcome distribution: " "$work/table.txt" || true
  fail=1
fi

[ "$fail" = 0 ] && echo "== check_resilience: PASS" || echo "== check_resilience: FAIL"
exit "$fail"
