#!/bin/sh
# Run every bench/check_*.sh gate in sequence and summarise.
#
#   sh bench/check_all.sh
#
# Each gate writes its own BENCH_*.json at the repo root; this wrapper
# exits non-zero if ANY gate fails (but always runs them all, so one
# CI invocation reports every broken gate at once).  A last step,
# bench/consistency.py, recomputes every BENCH_*.json's pass verdicts,
# gate booleans and ratios from the file's own fields and fails on any
# contradiction.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

fail=0
ran=0
for gate in bench/check_*.sh; do
  case "$gate" in
    */check_all.sh) continue ;;
  esac
  ran=$((ran + 1))
  echo ""
  echo "######## $gate"
  if sh "$gate"; then
    echo "######## $gate: PASS"
  else
    echo "######## $gate: FAIL"
    fail=1
  fi
done

echo ""
echo "######## consistency of BENCH_*.json"
if python3 bench/consistency.py; then
  echo "######## consistency: PASS"
else
  echo "######## consistency: FAIL"
  fail=1
fi

echo ""
if [ "$fail" = 0 ]; then
  echo "check_all: all $ran gates PASS"
else
  echo "check_all: FAILURES among $ran gates (see above)"
fi
exit "$fail"
