#!/bin/sh
# Persistent summary-store gate, in four acts:
#
#   1. speedup: a fleet of apps sharing one deep library (store_bench)
#      runs store-off, cold (populating the store) and hot (reusing
#      it); the hot campaign must be >= MIN_SPEEDUP faster than the
#      cold one, fully served from the store (no misses), and all
#      three findings digests must be bit-identical.
#   2. metrics: a malware-corpus campaign cold then hot against the
#      same store; verdict tables byte-identical to a store-less run
#      (timing lines stripped), store.{hits,misses,bytes_read,
#      bytes_written} present in --stats-json, hot run all hits.
#   3. correctness: the differential campaign's verdict digest must be
#      bit-identical across store off / store cold / store hot, and at
#      --jobs 1 vs --jobs "$JOBS" — caching must not change a verdict.
#   4. integrity: every entry the campaigns wrote must pass the full
#      checksum walk (flowdroid_store verify).
#
#   sh bench/check_store.sh [APPS]          (default APPS: 60)
#
# Writes BENCH_store.json at the repo root and exits non-zero on any
# gate failure, so it can gate CI.
set -eu

apps="${1:-60}"
jobs="${JOBS:-4}"
seed="${SEED:-20140609}"
count="${COUNT:-200}"
fleet="${FLEET:-6}"
depth="${DEPTH:-100}"
min_speedup="${MIN_SPEEDUP:-2.0}"

root="$(cd "$(dirname "$0")/.." && pwd)"
. "$root/bench/gate_lib.sh"
work="$(mktemp -d)"
store="$work/store"
trap 'rm -rf "$work"' EXIT

cd "$root"
fail=0

echo "== check_store: building"
dune build --display=quiet bench/store_bench.exe \
  bin/corpus_runner.exe bin/diff_runner.exe bin/flowdroid_store.exe

fleetb=_build/default/bench/store_bench.exe
corpus=_build/default/bin/corpus_runner.exe
diffr=_build/default/bin/diff_runner.exe
storecli=_build/default/bin/flowdroid_store.exe

echo "== check_store: fleet campaign ($fleet apps, shared library depth $depth)"
"$fleetb" --fleet "$fleet" --depth "$depth" --jobs 1 \
  --json "$work/fleet_off.json" > /dev/null 2>&1
"$fleetb" --fleet "$fleet" --depth "$depth" --jobs 1 \
  --summary-store "$store" --json "$work/fleet_cold.json" > /dev/null 2>&1
"$fleetb" --fleet "$fleet" --depth "$depth" --jobs 1 \
  --summary-store "$store" --json "$work/fleet_hot.json" > /dev/null 2>&1

f_off="$(json_field "$work/fleet_off.json" digest)"
f_cold="$(json_field "$work/fleet_cold.json" digest)"
f_hot="$(json_field "$work/fleet_hot.json" digest)"
if [ -n "$f_off" ] && [ "$f_off" = "$f_cold" ] && [ "$f_off" = "$f_hot" ]; then
  echo "ok: fleet findings digest identical off/cold/hot ($f_off)"
else
  echo "FAIL: fleet digest differs (off=$f_off cold=$f_cold hot=$f_hot)"
  fail=1
fi

f_hits="$(json_field "$work/fleet_hot.json" hits)"
f_misses="$(json_field "$work/fleet_hot.json" misses)"
if [ "${f_hits:-0}" -gt 0 ] && [ "${f_misses:-1}" = 0 ]; then
  echo "ok: hot fleet all hits ($f_hits hits, 0 misses)"
else
  echo "FAIL: hot fleet not fully served (hits=$f_hits misses=$f_misses)"
  fail=1
fi

cold_s="$(json_field "$work/fleet_cold.json" seconds)"
hot_s="$(json_field "$work/fleet_hot.json" seconds)"
off_s="$(json_field "$work/fleet_off.json" seconds)"
speedup="$(awk "BEGIN { printf \"%.2f\", $cold_s / $hot_s }")"
ok_speedup="$(awk "BEGIN { print ($cold_s / $hot_s >= $min_speedup) ? 1 : 0 }")"
if [ "$ok_speedup" = 1 ]; then
  echo "ok: hot ${hot_s}s vs cold ${cold_s}s = ${speedup}x (>= ${min_speedup}x; store off ${off_s}s)"
else
  echo "FAIL: hot ${hot_s}s vs cold ${cold_s}s = ${speedup}x (< ${min_speedup}x)"
  fail=1
fi

echo "== check_store: corpus campaign ($apps apps) off / cold / hot"
"$corpus" --profile malware -n "$apps" --seed "$seed" \
  > "$work/off.out" 2>/dev/null
"$corpus" --profile malware -n "$apps" --seed "$seed" \
  --summary-store "$store" --stats-json "$work/cold.json" \
  > "$work/cold.out" 2>/dev/null
"$corpus" --profile malware -n "$apps" --seed "$seed" \
  --summary-store "$store" --stats-json "$work/hot.json" \
  > "$work/hot.out" 2>/dev/null

# the verdict table must match byte-for-byte; only the wall-clock
# summary lines are allowed to differ
strip_timing () { grep -v "runtime" "$1"; }
strip_timing "$work/off.out" > "$work/off.tbl"
strip_timing "$work/cold.out" > "$work/cold.tbl"
strip_timing "$work/hot.out" > "$work/hot.tbl"
if cmp -s "$work/off.tbl" "$work/cold.tbl" \
   && cmp -s "$work/off.tbl" "$work/hot.tbl"; then
  echo "ok: store off / cold / hot verdict tables byte-identical"
else
  echo "FAIL: verdict table differs between store off / cold / hot"
  fail=1
fi

hits="$(json_field "$work/hot.json" store.hits)"
misses="$(json_field "$work/hot.json" store.misses)"
bytes_read="$(json_field "$work/hot.json" store.bytes_read)"
bytes_written="$(json_field "$work/cold.json" store.bytes_written)"
if [ -n "$hits" ] && [ -n "$misses" ] && [ -n "$bytes_read" ] \
   && [ -n "$bytes_written" ]; then
  echo "ok: store.{hits,misses,bytes_read,bytes_written} in --stats-json"
else
  echo "FAIL: store metrics missing from --stats-json"
  fail=1
fi
if [ "${hits:-0}" -gt 0 ] && [ "${misses:-1}" = 0 ]; then
  echo "ok: hot corpus run all hits ($hits hits, 0 misses)"
else
  echo "FAIL: hot corpus run not fully served (hits=$hits misses=$misses)"
  fail=1
fi

diff_field () {
  # diff_field FILE KEY — scalar field from the one-line campaign JSON
  sed -n 1p "$1" | sed "s/.*\"$2\":\"\{0,1\}\([^\",}]*\)\"\{0,1\}.*/\1/"
}

echo "== check_store: diff campaign digests (seed $seed, $count apps)"
"$diffr" --profile malware --seed "$seed" --count "$count" --jobs 1 --json \
  > "$work/diff_off.json" 2>/dev/null || { echo "FAIL: divergences (store off)"; fail=1; }
"$diffr" --profile malware --seed "$seed" --count "$count" --jobs 1 --json \
  --summary-store "$store" \
  > "$work/diff_cold.json" 2>/dev/null || { echo "FAIL: divergences (store cold)"; fail=1; }
"$diffr" --profile malware --seed "$seed" --count "$count" --jobs "$jobs" --json \
  --summary-store "$store" \
  > "$work/diff_hot.json" 2>/dev/null || { echo "FAIL: divergences (store hot)"; fail=1; }

d_off="$(diff_field "$work/diff_off.json" digest)"
d_cold="$(diff_field "$work/diff_cold.json" digest)"
d_hot="$(diff_field "$work/diff_hot.json" digest)"
if [ -n "$d_off" ] && [ "$d_off" = "$d_cold" ] && [ "$d_off" = "$d_hot" ]; then
  echo "ok: verdict digest identical off/cold/hot and --jobs 1/$jobs ($d_off)"
else
  echo "FAIL: verdict digest differs (off=$d_off cold=$d_cold hot=$d_hot)"
  fail=1
fi

echo "== check_store: verifying every entry"
if "$storecli" verify "$store" > "$work/verify.out"; then
  tail -n 1 "$work/verify.out" | sed 's/^/ok: /'
else
  echo "FAIL: damaged entries after the campaigns"
  cat "$work/verify.out"
  fail=1
fi
entries="$("$storecli" ls "$store" | sed -n '1s/.*: \([0-9]*\) entr.*/\1/p')"

cat > BENCH_store.json <<EOF
{
 "workload": "fleet($fleet x depth $depth) + corpus(malware,$apps) + diff(malware,$count)",
 "fleet_off_s": $off_s,
 "fleet_cold_s": $cold_s,
 "fleet_hot_s": $hot_s,
 "speedup": $speedup,
 "min_speedup": $min_speedup,
 "fleet_hot_hits": ${f_hits:-0},
 "fleet_hot_misses": ${f_misses:-0},
 "corpus_hot_hits": ${hits:-0},
 "corpus_hot_misses": ${misses:-0},
 "corpus_cold_bytes_written": ${bytes_written:-0},
 "corpus_hot_bytes_read": ${bytes_read:-0},
 "entries": ${entries:-0},
 "tables_identical": $(cmp -s "$work/off.tbl" "$work/hot.tbl" && echo true || echo false),
 "digest_off": "$d_off",
 "digest_cold_jobs1": "$d_cold",
 "digest_hot_jobsN": "$d_hot",
 "jobs_checked": $jobs
}
EOF
echo "wrote BENCH_store.json"

[ "$fail" = 0 ] && echo "== check_store: PASS" || echo "== check_store: FAIL"
exit "$fail"
