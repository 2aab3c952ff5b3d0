#!/bin/sh
# Precision-pass gate, in three acts:
#
#   1. inertness: with every pass off the suite must be invisible —
#      the DroidBench table and the fixed-seed campaign JSON (200
#      apps per profile, both profiles) are byte-identical with and
#      without an explicit "--precision none".
#   2. soundness under the passes: the same campaign with
#      "--precision all" must contain zero DIVERGENCE rows — every
#      formerly-explained disagreement either stays explained (pass
#      off) or is actually fixed (pass on), never a new divergence.
#   3. progress: flags-on must leave strictly fewer explained-FN/FP
#      keys than flags-off — the passes must close limitation
#      categories, not merely relabel them.
#
#   sh bench/check_precision.sh [JOBS]      (default JOBS: 4)
#
# Writes BENCH_precision.json at the repo root and exits non-zero on
# any inertness break, divergence or non-progress, so it can gate CI.
set -eu

jobs="${1:-4}"
seed="${SEED:-20140609}"
count="${COUNT:-200}"

root="$(cd "$(dirname "$0")/.." && pwd)"
. "$root/bench/gate_lib.sh"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

cd "$root"
fail=0

echo "== check_precision: building"
dune build --display=quiet bin/diff_runner.exe bin/droidbench_runner.exe

echo "== check_precision: flags-off inertness (DroidBench table)"
dune exec --display=quiet bin/droidbench_runner.exe > "$work/db_default.txt"
dune exec --display=quiet bin/droidbench_runner.exe -- --precision none \
  > "$work/db_none.txt"
if cmp -s "$work/db_default.txt" "$work/db_none.txt"; then
  echo "ok: DroidBench table byte-identical with --precision none"
else
  echo "FAIL: --precision none perturbs the DroidBench table"
  fail=1
fi

echo "== check_precision: flags-off inertness (campaign, seed $seed, $count apps/profile)"
if dune exec --display=quiet bin/diff_runner.exe -- \
     --profile both --seed "$seed" --count "$count" --jobs "$jobs" --json \
     > "$work/off.json"; then
  echo "ok: zero divergences flags-off"
else
  echo "FAIL: divergent leak keys flags-off"
  fail=1
fi
if dune exec --display=quiet bin/diff_runner.exe -- \
     --profile both --seed "$seed" --count "$count" --jobs "$jobs" --json \
     --precision none > "$work/off_explicit.json"; then
  :
else
  echo "FAIL: divergent leak keys with explicit --precision none"
  fail=1
fi
if cmp -s "$work/off.json" "$work/off_explicit.json"; then
  echo "ok: campaign JSON byte-identical with --precision none"
else
  echo "FAIL: --precision none perturbs the campaign JSON"
  fail=1
fi

echo "== check_precision: flags-on campaign (--precision all)"
if dune exec --display=quiet bin/diff_runner.exe -- \
     --profile both --seed "$seed" --count "$count" --jobs "$jobs" --json \
     --precision all > "$work/on.json"; then
  echo "ok: zero divergences flags-on"
else
  echo "FAIL: divergent leak keys flags-on"
  fail=1
fi

# total count of explained-FN/FP keys across both profile lines
explained_total () {
  grep -o '"explained-[^"]*":[0-9]*' "$1" \
    | sed 's/.*://' \
    | { total=0; while read -r n; do total=$((total + n)); done; echo "$total"; }
}
fixed_total () {
  grep -o '"fixed([^"]*)":[0-9]*' "$1" \
    | sed 's/.*://' \
    | { total=0; while read -r n; do total=$((total + n)); done; echo "$total"; }
}

off_explained="$(explained_total "$work/off.json")"
on_explained="$(explained_total "$work/on.json")"
on_fixed="$(fixed_total "$work/on.json")"

if [ "$on_explained" -lt "$off_explained" ]; then
  echo "ok: explained keys $off_explained -> $on_explained (fixed: $on_fixed)"
else
  echo "FAIL: flags-on does not reduce explained keys ($off_explained -> $on_explained)"
  fail=1
fi

cat > BENCH_precision.json <<EOF
{
 "workload": "precision-pass gate (DroidBench table + diffcheck campaign)",
 "seed": $seed,
 "apps_per_profile": $count,
 "jobs": $jobs,
 "flags_off_play_digest": "$(json_line_field "$work/off.json" 1 digest)",
 "flags_off_malware_digest": "$(json_line_field "$work/off.json" 2 digest)",
 "flags_on_play_digest": "$(json_line_field "$work/on.json" 1 digest)",
 "flags_on_malware_digest": "$(json_line_field "$work/on.json" 2 digest)",
 "explained_keys_flags_off": $off_explained,
 "explained_keys_flags_on": $on_explained,
 "fixed_keys_flags_on": $on_fixed,
 "inert_when_off": $([ "$fail" = 0 ] && echo true || echo "\"see log\""),
 "pass": $([ "$fail" = 0 ] && echo true || echo false)
}
EOF
echo "wrote BENCH_precision.json"

[ "$fail" = 0 ] && echo "== check_precision: PASS" || echo "== check_precision: FAIL"
exit "$fail"
