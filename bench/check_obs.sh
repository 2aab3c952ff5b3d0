#!/bin/sh
# Smoke test for the observability layer: run one DroidBench case
# end-to-end through flowdroid_cli with --stats-json/--trace-out and
# fail unless the emitted JSON carries the required keys.  Then gate
# the provenance layer and the profiler the same way:
#
#   - the DroidBench table with --provenance, and with --profile-out,
#     is byte-identical to the default run (recording witnesses or
#     profiling must not change any result);
#   - provenance-on and profile-on solver time each stay under 1.3x
#     the default run;
#   - --provenance/--profile-out stats carry the new keys (witnesses,
#     p50/p90/p99, profile) and the collapsed-stack file is well
#     formed.
#
# Writes BENCH_obs2.json at the repo root.
#
#   sh bench/check_obs.sh [CASE]        (default case: DirectLeak1)
#
# Exits non-zero on any missing key, so it can gate CI.
set -eu

case_name="${1:-DirectLeak1}"
root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

cd "$root"

echo "== check_obs: dumping DroidBench case $case_name"
dune exec --display=quiet bin/droidbench_runner.exe -- \
  --app "$case_name" --dump "$work/apps"

app_dir="$work/apps/$case_name"
[ -d "$app_dir" ] || { echo "FAIL: dump did not produce $app_dir"; exit 1; }

echo "== check_obs: analysing $app_dir with flowdroid_cli"
stats="$work/stats.json"
trace="$work/trace.json"
# exit status 2 = flows found, which is expected for a leak case
status=0
dune exec --display=quiet bin/flowdroid_cli.exe -- "$app_dir" \
  --stats-json "$stats" --trace-out "$trace" >"$work/stdout.txt" 2>&1 \
  || status=$?
if [ "$status" != 0 ] && [ "$status" != 2 ]; then
  echo "FAIL: flowdroid_cli exited with status $status"
  cat "$work/stdout.txt"
  exit 1
fi

fail=0
require_key () {
  # require_key FILE KEY — KEY must appear as a JSON object key
  if grep -q "\"$1\"" "$2"; then
    echo "ok: $2 has \"$1\""
  else
    echo "FAIL: $2 is missing key \"$1\""
    fail=1
  fi
}

for key in counters gauges histograms phases \
           ifds.path_edges ifds.worklist_pops bidi.fw_propagations \
           cg.reachable_methods core.analysis_seconds taint.solve; do
  require_key "$key" "$stats"
done

for key in traceEvents displayTimeUnit taint.solve callgraph.build; do
  require_key "$key" "$trace"
done

# a counter that exists but never fired would still pass the key test;
# make sure the solver actually counted something
if grep -q '"ifds.path_edges": 0,' "$stats"; then
  echo "FAIL: ifds.path_edges is zero — solver was not instrumented"
  fail=1
fi

# quantile estimates ship with every histogram snapshot
for key in p50 p90 p99; do
  require_key "$key" "$stats"
done

echo "== check_obs: provenance off/on byte-identity (DroidBench table)"
dune exec --display=quiet bin/droidbench_runner.exe \
  > "$work/table_off.txt" 2>/dev/null
dune exec --display=quiet bin/droidbench_runner.exe -- --provenance \
  > "$work/table_on.txt" 2>/dev/null
if cmp -s "$work/table_off.txt" "$work/table_on.txt"; then
  echo "ok: table identical with provenance on"
  identical=true
else
  echo "FAIL: --provenance changed the DroidBench table"
  diff "$work/table_off.txt" "$work/table_on.txt" | head -20
  identical=false
  fail=1
fi

echo "== check_obs: profiler off/on byte-identity (DroidBench table)"
dune exec --display=quiet bin/droidbench_runner.exe -- \
  --profile-out "$work/table.folded" > "$work/table_prof.txt" 2>/dev/null
if cmp -s "$work/table_off.txt" "$work/table_prof.txt"; then
  echo "ok: table identical with profiling on"
  prof_identical=true
else
  echo "FAIL: --profile-out changed the DroidBench table"
  diff "$work/table_off.txt" "$work/table_prof.txt" | head -20
  prof_identical=false
  fail=1
fi

echo "== check_obs: provenance and profiler overhead on the perf workload"
# solver seconds = the core.analysis_seconds histogram sum across the
# whole table run; take the best of two runs per config to damp noise
solve_sum () {
  dune exec --display=quiet bin/droidbench_runner.exe -- $1 \
    --stats-json "$work/ov.json" >/dev/null 2>&1
  python3 -c "import json; print(json.load(open('$work/ov.json'))['histograms']['core.analysis_seconds']['sum'])"
}
t_off_1=$(solve_sum "");            t_off_2=$(solve_sum "")
t_on_1=$(solve_sum "--provenance"); t_on_2=$(solve_sum "--provenance")
t_prof_1=$(solve_sum "--profile-out $work/ov.folded")
t_prof_2=$(solve_sum "--profile-out $work/ov.folded")
off_s=$(python3 -c "print(repr(min($t_off_1, $t_off_2)))")
on_s=$(python3 -c "print(repr(min($t_on_1, $t_on_2)))")
profile_on_s=$(python3 -c "print(repr(min($t_prof_1, $t_prof_2)))")
overhead=$(python3 -c "
print('%.3f' % ($on_s / $off_s if $off_s > 0 else 1.0))")
profile_overhead=$(python3 -c "
print('%.3f' % ($profile_on_s / $off_s if $off_s > 0 else 1.0))")
# 50 ms absolute slack: the whole workload solves in well under a
# second, where scheduler noise would otherwise dominate the ratio.
# BENCH_obs2.json records off_s, on_s, the limit and the slack, so the
# rule below can be recomputed from the file alone.
slack_s=0.05
ov_ok=$(python3 -c "
print('true' if $on_s <= 1.3 * $off_s + $slack_s else 'false')")
if [ "$ov_ok" = true ]; then
  echo "ok: provenance overhead ${overhead}x (bound: on_s <= 1.3 x off_s + ${slack_s} s)"
else
  echo "FAIL: provenance overhead ${overhead}x exceeds the bound on_s <= 1.3 x off_s + ${slack_s} s"
  fail=1
fi
prof_ok=$(python3 -c "
print('true' if $profile_on_s <= 1.3 * $off_s + $slack_s else 'false')")
if [ "$prof_ok" = true ]; then
  echo "ok: profiler overhead ${profile_overhead}x (bound: on_s <= 1.3 x off_s + ${slack_s} s)"
else
  echo "FAIL: profiler overhead ${profile_overhead}x exceeds the bound on_s <= 1.3 x off_s + ${slack_s} s"
  fail=1
fi

echo "== check_obs: witness + profile outputs"
pstats="$work/prov_stats.json"
folded="$work/profile.folded"
status=0
dune exec --display=quiet bin/flowdroid_cli.exe -- "$app_dir" \
  --provenance --profile-out "$folded" --stats-json "$pstats" \
  >"$work/stdout2.txt" 2>&1 || status=$?
if [ "$status" != 0 ] && [ "$status" != 2 ]; then
  echo "FAIL: provenance run exited with status $status"
  cat "$work/stdout2.txt"
  exit 1
fi
for key in witnesses profile; do
  require_key "$key" "$pstats"
done
witness_count=$(python3 -c "import json; print(len(json.load(open('$pstats'))['witnesses']))")
if [ "$witness_count" -gt 0 ]; then
  echo "ok: $witness_count witness(es) recorded"
else
  echo "FAIL: no witnesses in $pstats"
  fail=1
fi
if grep -q '^flowdroid;' "$folded"; then
  echo "ok: collapsed-stack profile written"
else
  echo "FAIL: $folded has no flowdroid; frames"
  fail=1
fi

cat > BENCH_obs2.json <<EOF
{
  "bench": "obs2",
  "case": "$case_name",
  "provenance_table_identical": $identical,
  "provenance_overhead_x": $overhead,
  "off_s": $off_s,
  "on_s": $on_s,
  "profile_table_identical": $prof_identical,
  "profile_overhead_x": $profile_overhead,
  "profile_on_s": $profile_on_s,
  "overhead_limit_x": 1.3,
  "slack_s": $slack_s,
  "witnesses": $witness_count,
  "pass": $([ "$fail" = 0 ] && echo true || echo false)
}
EOF
echo "wrote BENCH_obs2.json"

[ "$fail" = 0 ] && echo "== check_obs: PASS" || echo "== check_obs: FAIL"
exit "$fail"
