#!/bin/sh
# Inter-component / inter-app taint gate, in four acts:
#
#   1. soundness both tiers: the intent-heavy ICC campaign plus a
#      collusion-pair campaign (merged two-app Scenes) must contain
#      zero DIVERGENCE rows with the ICC tier off AND on — every
#      disagreement maps to a documented limitation bucket, and the
#      tier flips buckets (explained-FN(icc-stitch) -> confirmed,
#      confirmed sender sink -> fixed(icc-send)) without ever
#      introducing a divergence.
#   2. determinism: both campaigns produce bit-identical verdict
#      digests at --jobs 1 and --jobs "$JOBS", tier on.
#   3. default identity: with the tier off, the play + malware
#      campaign digests are byte-identical to the committed
#      BENCH_diff.json values — the ICC subsystem takes no code path
#      unless asked.
#   4. collusion recall: the pair campaign tier-on confirms every
#      planted cross-app leak (confirmed = pairs) and reclassifies
#      every sender-side over-approximation as fixed(icc-send).
#
#   sh bench/check_icc.sh
#
# Writes BENCH_icc.json at the repo root and exits non-zero on any
# gate failure, so it can gate CI.
set -eu

jobs="${JOBS:-4}"
seed="${SEED:-20140609}"
apps="${APPS:-40}"
pairs="${PAIRS:-12}"
default_count="${COUNT:-200}"

root="$(cd "$(dirname "$0")/.." && pwd)"
. "$root/bench/gate_lib.sh"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

cd "$root"
fail=0

echo "== check_icc: building"
dune build --display=quiet bin/diff_runner.exe
runner=_build/default/bin/diff_runner.exe

# one JSON object per campaign, one per line; field order is fixed
bucket_count () {
  # bucket_count FILE LINE LABEL — count for one bucket label, or 0
  sed -n "${2}p" "$1" \
    | sed -n "s/.*\"$3\":\([0-9]*\).*/\1/p" | grep . || echo 0
}

echo "== check_icc: icc campaign + $pairs collusion pairs, tier OFF"
if "$runner" --profile icc --seed "$seed" --count "$apps" \
     --pairs "$pairs" --jobs "$jobs" --json > "$work/off.json"; then
  echo "ok: zero divergences tier off"
else
  echo "FAIL: divergent leak keys with the ICC tier off"
  fail=1
fi

echo "== check_icc: icc campaign + $pairs collusion pairs, tier ON"
if "$runner" --profile icc --seed "$seed" --count "$apps" \
     --pairs "$pairs" --jobs "$jobs" --json --icc > "$work/on.json"; then
  echo "ok: zero divergences tier on"
else
  echo "FAIL: divergent leak keys with the ICC tier on"
  fail=1
fi

echo "== check_icc: determinism under job count (tier on)"
"$runner" --profile icc --seed "$seed" --count "$apps" \
  --pairs "$pairs" --jobs 1 --json --icc > "$work/on_j1.json" || fail=1
for line in 1 2; do
  dN="$(json_line_field "$work/on.json" "$line" digest)"
  d1="$(json_line_field "$work/on_j1.json" "$line" digest)"
  what="$([ "$line" = 1 ] && echo "icc apps" || echo "collusion pairs")"
  if [ -n "$dN" ] && [ "$dN" = "$d1" ]; then
    echo "ok: $what digest invariant under job count ($dN)"
  else
    echo "FAIL: $what digest differs between --jobs 1 and --jobs $jobs"
    echo "  --jobs 1:     $d1"
    echo "  --jobs $jobs:     $dN"
    fail=1
  fi
done

# the tier must actually change the verdicts it claims to change
d_off_apps="$(json_line_field "$work/off.json" 1 digest)"
d_on_apps="$(json_line_field "$work/on.json" 1 digest)"
if [ -n "$d_off_apps" ] && [ "$d_off_apps" != "$d_on_apps" ]; then
  echo "ok: tier on reclassifies (app digests differ)"
else
  echo "FAIL: tier on produced the tier-off app digest ($d_off_apps)"
  fail=1
fi

echo "== check_icc: default identity (play + malware, tier off)"
if "$runner" --profile both --seed "$seed" --count "$default_count" \
     --jobs "$jobs" --json > "$work/default.json"; then
  :
else
  echo "FAIL: default campaign divergent"
  fail=1
fi
bench_field () {
  # bench_field FILE KEY — string field from a committed BENCH json
  sed -n "s/.*\"$2\": *\"\([^\"]*\)\".*/\1/p" "$1" | head -n 1
}
expect_play="$(bench_field BENCH_diff.json play_digest)"
expect_malware="$(bench_field BENCH_diff.json malware_digest)"
got_play="$(json_line_field "$work/default.json" 1 digest)"
got_malware="$(json_line_field "$work/default.json" 2 digest)"
if [ -n "$expect_play" ] && [ "$got_play" = "$expect_play" ] \
   && [ "$got_malware" = "$expect_malware" ]; then
  echo "ok: default play/malware digests byte-identical to BENCH_diff.json"
else
  echo "FAIL: default digests moved (ICC work leaked into the default tier)"
  echo "  play:    committed $expect_play  got $got_play"
  echo "  malware: committed $expect_malware  got $got_malware"
  fail=1
fi

echo "== check_icc: collusion recall (tier on)"
confirmed_on="$(bucket_count "$work/on.json" 2 confirmed)"
fixed_on="$(bucket_count "$work/on.json" 2 'fixed(icc-send)')"
stitch_off="$(bucket_count "$work/off.json" 2 'explained-FN(icc-stitch)')"
if [ "${confirmed_on:-0}" = "$pairs" ]; then
  echo "ok: every planted cross-app leak confirmed ($confirmed_on/$pairs)"
else
  echo "FAIL: planted cross-app leaks confirmed $confirmed_on/$pairs"
  fail=1
fi
if [ "${fixed_on:-0}" -gt 0 ] && [ "${stitch_off:-0}" -gt 0 ]; then
  echo "ok: tier flips buckets (off: explained-FN(icc-stitch)=$stitch_off, on: fixed(icc-send)=$fixed_on)"
else
  echo "FAIL: bucket flip missing (stitch_off=$stitch_off fixed_on=$fixed_on)"
  fail=1
fi

apps_keys="$(json_line_field "$work/on.json" 1 keys)"
pair_keys="$(json_line_field "$work/on.json" 2 keys)"
d_off_pairs="$(json_line_field "$work/off.json" 2 digest)"
d_on_pairs="$(json_line_field "$work/on.json" 2 digest)"

cat > BENCH_icc.json <<EOF
{
 "workload": "icc campaign($apps apps) + collusion pairs($pairs), both tiers",
 "seed": $seed,
 "jobs_checked": $jobs,
 "icc_app_keys": ${apps_keys:-0},
 "pair_keys": ${pair_keys:-0},
 "digest_apps_off": "$d_off_apps",
 "digest_apps_on": "$d_on_apps",
 "digest_pairs_off": "$d_off_pairs",
 "digest_pairs_on": "$d_on_pairs",
 "pairs_confirmed_on": ${confirmed_on:-0},
 "pairs_fixed_icc_send_on": ${fixed_on:-0},
 "pairs_explained_fn_stitch_off": ${stitch_off:-0},
 "default_play_digest": "$got_play",
 "default_malware_digest": "$got_malware",
 "divergences": $([ "$fail" = 0 ] && echo 0 || echo "\"see log\""),
 "deterministic": $([ "$fail" = 0 ] && echo true || echo false)
}
EOF
echo "wrote BENCH_icc.json"

[ "$fail" = 0 ] && echo "== check_icc: PASS" || echo "== check_icc: FAIL"
exit "$fail"
