#!/bin/sh
# Demand-driven targeted-mode gate, in three acts:
#
#   1. speedup: a fleet of large apps where only one reaches the
#      queried sink (targeted_bench); targeted mode must be
#      >= MIN_SPEEDUP faster than full mode on the same fleet, and
#      the findings digests must be bit-identical (full mode's
#      findings restricted to the queried sink) — at --jobs 1 AND
#      --jobs "$JOBS".
#   2. default identity: with no --targeted at all, corpus output must
#      be byte-identical to a plain run (the flag off takes no new
#      code path).
#   3. store compatibility: a summary store populated by a full-mode
#      campaign must NOT serve a targeted campaign (config digests
#      differ), and vice versa — hot hits stay zero across modes.
#
#   sh bench/check_targeted.sh
#
# Writes BENCH_targeted.json at the repo root and exits non-zero on
# any gate failure, so it can gate CI.
set -eu

jobs="${JOBS:-4}"
seed="${SEED:-20140609}"
apps="${APPS:-30}"
fleet="${FLEET:-10}"
depth="${DEPTH:-100}"
min_speedup="${MIN_SPEEDUP:-5.0}"
sink="${SINK:-SmsManager.sendTextMessage}"

root="$(cd "$(dirname "$0")/.." && pwd)"
. "$root/bench/gate_lib.sh"
work="$(mktemp -d)"
store="$work/store"
trap 'rm -rf "$work"' EXIT

cd "$root"
fail=0

echo "== check_targeted: building"
dune build --display=quiet bench/targeted_bench.exe bin/corpus_runner.exe

tbench=_build/default/bench/targeted_bench.exe
corpus=_build/default/bin/corpus_runner.exe

echo "== check_targeted: fleet campaign ($fleet apps, depth $depth, sink $sink)"
"$tbench" --fleet "$fleet" --depth "$depth" --jobs 1 --mode full \
  --targeted "$sink" --json "$work/full_j1.json" > /dev/null 2>&1
"$tbench" --fleet "$fleet" --depth "$depth" --jobs 1 --mode targeted \
  --targeted "$sink" --json "$work/targ_j1.json" > /dev/null 2>&1
"$tbench" --fleet "$fleet" --depth "$depth" --jobs "$jobs" --mode full \
  --targeted "$sink" --json "$work/full_jN.json" > /dev/null 2>&1
"$tbench" --fleet "$fleet" --depth "$depth" --jobs "$jobs" --mode targeted \
  --targeted "$sink" --json "$work/targ_jN.json" > /dev/null 2>&1

d_full1="$(json_field "$work/full_j1.json" digest)"
d_targ1="$(json_field "$work/targ_j1.json" digest)"
d_fullN="$(json_field "$work/full_jN.json" digest)"
d_targN="$(json_field "$work/targ_jN.json" digest)"
if [ -n "$d_full1" ] && [ "$d_full1" = "$d_targ1" ] \
   && [ "$d_full1" = "$d_fullN" ] && [ "$d_full1" = "$d_targN" ]; then
  echo "ok: targeted verdicts = full-mode-restricted verdicts at --jobs 1 and $jobs ($d_full1)"
else
  echo "FAIL: digest differs (full/j1=$d_full1 targ/j1=$d_targ1 full/jN=$d_fullN targ/jN=$d_targN)"
  fail=1
fi

full_s="$(json_field "$work/full_j1.json" seconds)"
targ_s="$(json_field "$work/targ_j1.json" seconds)"
probes="$(json_field "$work/targ_j1.json" index_probes)"
speedup="$(awk "BEGIN { printf \"%.2f\", $full_s / $targ_s }")"
ok_speedup="$(awk "BEGIN { print ($full_s / $targ_s >= $min_speedup) ? 1 : 0 }")"
if [ "$ok_speedup" = 1 ]; then
  echo "ok: targeted ${targ_s}s vs full ${full_s}s = ${speedup}x (>= ${min_speedup}x)"
else
  echo "FAIL: targeted ${targ_s}s vs full ${full_s}s = ${speedup}x (< ${min_speedup}x)"
  fail=1
fi
if [ "${probes:-0}" -gt 0 ]; then
  echo "ok: targeted.index_probes published ($probes)"
else
  echo "FAIL: targeted.index_probes missing from targeted report"
  fail=1
fi

echo "== check_targeted: default output identity ($apps apps, no --targeted)"
"$corpus" --profile malware -n "$apps" --seed "$seed" \
  > "$work/plain.out" 2>/dev/null
"$corpus" --profile malware -n "$apps" --seed "$seed" \
  > "$work/plain2.out" 2>/dev/null
strip_timing () { grep -v "runtime" "$1"; }
strip_timing "$work/plain.out" > "$work/plain.tbl"
strip_timing "$work/plain2.out" > "$work/plain2.tbl"
if cmp -s "$work/plain.tbl" "$work/plain2.tbl"; then
  echo "ok: default (no --targeted) output stable byte-for-byte"
else
  echo "FAIL: default output not reproducible"
  fail=1
fi

echo "== check_targeted: store separation (full-mode store vs targeted campaign)"
"$corpus" --profile malware -n "$apps" --seed "$seed" \
  --summary-store "$store" --stats-json "$work/cold_full.json" \
  > /dev/null 2>/dev/null
"$corpus" --profile malware -n "$apps" --seed "$seed" \
  --summary-store "$store" --targeted "$sink" \
  --stats-json "$work/hot_targ.json" > /dev/null 2>/dev/null
"$corpus" --profile malware -n "$apps" --seed "$seed" \
  --summary-store "$store" --stats-json "$work/hot_full.json" \
  > /dev/null 2>/dev/null

written="$(json_field "$work/cold_full.json" store.bytes_written)"
t_hits="$(json_field "$work/hot_targ.json" store.hits)"
f_hits="$(json_field "$work/hot_full.json" store.hits)"
f_misses="$(json_field "$work/hot_full.json" store.misses)"
if [ "${written:-0}" -gt 0 ] && [ "${t_hits:-1}" = 0 ]; then
  echo "ok: full-mode store never serves a targeted run (hits=0, digests differ)"
else
  echo "FAIL: targeted run hit a full-mode store (written=$written hits=$t_hits)"
  fail=1
fi
if [ "${f_hits:-0}" -gt 0 ] && [ "${f_misses:-1}" = 0 ]; then
  echo "ok: full-mode store still serves full mode ($f_hits hits, 0 misses)"
else
  echo "FAIL: full-mode store broken by targeted campaign (hits=$f_hits misses=$f_misses)"
  fail=1
fi

cat > BENCH_targeted.json <<EOF
{
 "workload": "fleet($fleet x depth $depth, 1 offender) + corpus(malware,$apps)",
 "sink": "$sink",
 "full_s": $full_s,
 "targeted_s": $targ_s,
 "speedup": $speedup,
 "min_speedup": $min_speedup,
 "index_probes": ${probes:-0},
 "digest_full_jobs1": "$d_full1",
 "digest_targeted_jobs1": "$d_targ1",
 "digest_full_jobsN": "$d_fullN",
 "digest_targeted_jobsN": "$d_targN",
 "jobs_checked": $jobs,
 "store_cross_mode_hits": ${t_hits:-0},
 "store_same_mode_hits": ${f_hits:-0}
}
EOF
echo "wrote BENCH_targeted.json"

[ "$fail" = 0 ] && echo "== check_targeted: PASS" || echo "== check_targeted: FAIL"
exit "$fail"
