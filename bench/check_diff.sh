#!/bin/sh
# Differential-validation gate, in two acts:
#
#   1. soundness: a fixed-seed campaign (200 apps per profile, both
#      profiles) must contain zero DIVERGENCE rows — every static/
#      dynamic/ground-truth disagreement must map to a documented
#      Table 1 limitation category (explained-FN / explained-FP).
#   2. determinism: the same campaign must produce bit-identical
#      verdict digests at --jobs 1 and --jobs "$JOBS" — the app-level
#      parallelism contract extended to the differential harness.
#
#   sh bench/check_diff.sh [JOBS]           (default JOBS: 4)
#
# Writes BENCH_diff.json at the repo root and exits non-zero on any
# divergence or digest mismatch, so it can gate CI.
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

echo "== check_diff: building"
dune build --display=quiet bin/diff_runner.exe

echo "== check_diff: campaign --jobs 1 (seed $seed, $count apps/profile)"
if dune exec --display=quiet bin/diff_runner.exe -- \
     --profile both --seed "$seed" --count "$count" --jobs 1 --json \
     > "$work/seq.json"; then
  echo "ok: zero divergences at --jobs 1"
else
  echo "FAIL: divergent leak keys at --jobs 1"
  fail=1
fi

echo "== check_diff: campaign --jobs $jobs"
if dune exec --display=quiet bin/diff_runner.exe -- \
     --profile both --seed "$seed" --count "$count" --jobs "$jobs" --json \
     > "$work/par.json"; then
  echo "ok: zero divergences at --jobs $jobs"
else
  echo "FAIL: divergent leak keys at --jobs $jobs"
  fail=1
fi

# one JSON object per profile, one per line; field order is fixed
for line in 1 2; do
  profile="$(json_line_field "$work/seq.json" "$line" profile)"
  seq_digest="$(json_line_field "$work/seq.json" "$line" digest)"
  par_digest="$(json_line_field "$work/par.json" "$line" digest)"
  if [ "$seq_digest" = "$par_digest" ] && [ -n "$seq_digest" ]; then
    echo "ok: $profile verdict digest invariant under job count ($seq_digest)"
  else
    echo "FAIL: $profile verdict digest differs between job counts"
    echo "  --jobs 1:     $seq_digest"
    echo "  --jobs $jobs:     $par_digest"
    fail=1
  fi
done

play_digest="$(json_line_field "$work/seq.json" 1 digest)"
malware_digest="$(json_line_field "$work/seq.json" 2 digest)"
play_keys="$(json_line_field "$work/seq.json" 1 keys)"
malware_keys="$(json_line_field "$work/seq.json" 2 keys)"

cat > BENCH_diff.json <<EOF
{
 "workload": "diffcheck campaign (play + malware)",
 "seed": $seed,
 "apps_per_profile": $count,
 "jobs_checked": $jobs,
 "play_keys": $play_keys,
 "malware_keys": $malware_keys,
 "play_digest": "$play_digest",
 "malware_digest": "$malware_digest",
 "divergences": $([ "$fail" = 0 ] && echo 0 || echo "\"see log\""),
 "deterministic": $([ "$fail" = 0 ] && echo true || echo false)
}
EOF
echo "wrote BENCH_diff.json"

[ "$fail" = 0 ] && echo "== check_diff: PASS" || echo "== check_diff: FAIL"
exit "$fail"
