#!/usr/bin/env python3
"""Check that every BENCH_*.json agrees with its own recorded limits.

    python3 bench/consistency.py [DIR]

Each gate writes a JSON with its measurements, its limits and (for
some gates) a `pass` verdict.  This script recomputes every verdict
and every derived ratio from the file's own fields and reports any
contradiction: a `pass: true` whose numbers break the recorded limit,
a gate boolean that disagrees with its numbers, or a recorded ratio
that its inputs do not give.  It checks agreement, not success: a
file that honestly records a failed gate is consistent.  Files with
no limit to check are listed as such.  Exits 1 on any contradiction.
"""

import glob
import json
import os
import sys

# recorded ratios are rounded by the writer: 2 decimals for the
# speedups, 3 for the provenance and profiler overheads
TOL_2DP = 0.005 + 1e-9
TOL_3DP = 0.0005 + 1e-9


def check_obs2(d):
    errs = []
    # (feature, its solve seconds, its recorded overhead, its table flag)
    for name, on_key, x_key, same_key in [
            ("provenance", "on_s", "provenance_overhead_x",
             "provenance_table_identical"),
            ("profile", "profile_on_s", "profile_overhead_x",
             "profile_table_identical")]:
        on_s = d[on_key]
        within = on_s <= d["overhead_limit_x"] * d["off_s"] + d["slack_s"]
        ratio = on_s / d["off_s"] if d["off_s"] > 0 else 1.0
        if abs(ratio - d[x_key]) > TOL_3DP:
            errs.append("%s %.3f but %s / off_s = %.4f"
                        % (x_key, d[x_key], on_key, ratio))
        if d["pass"] and not within:
            errs.append("pass is true but %s %.4f > %.2f x off_s %.4f + slack %.3f"
                        % (on_key, on_s, d["overhead_limit_x"], d["off_s"],
                           d["slack_s"]))
        if d["pass"] and d.get(same_key) is not True:
            errs.append("pass is true but the %s table is not identical" % name)
    return errs


def speedup_rule(num_key, den_key):
    def check(d):
        errs = []
        ratio = d[num_key] / d[den_key]
        if abs(ratio - d["speedup"]) > TOL_2DP:
            errs.append("speedup %.2f but %s / %s = %.4f"
                        % (d["speedup"], num_key, den_key, ratio))
        if ratio < d["min_speedup"]:
            errs.append("%s / %s = %.2f is below min_speedup %.2f"
                        % (num_key, den_key, ratio, d["min_speedup"]))
        return errs
    return check


def check_serve(d):
    errs = []
    phases = d["phases"]
    dropped_ok = all(p["sent"] == p["replies"] and p["daemon_alive"]
                     for p in phases)
    warm = d["cold_ms_mean"] / d["warm_ms_mean"] if d["warm_ms_mean"] > 0 \
        else float("inf")
    if abs(warm - d["warm_speedup"]) > 1e-6 * max(1.0, warm):
        errs.append("warm_speedup %.3f but cold / warm = %.3f"
                    % (d["warm_speedup"], warm))
    # cN: the chaos phase's p99 over the plain phase's, at N lanes
    ratios = {}
    for p in phases:
        if p["chaos_rate"] > 0:
            plain = [q for q in phases if q["concurrency"] == p["concurrency"]
                     and q["chaos_rate"] == 0]
            if plain and plain[0]["p99_ms"] > 0:
                ratios["c%d" % p["concurrency"]] = \
                    p["p99_ms"] / plain[0]["p99_ms"]
    recorded = d["chaos_p99_ratios"]
    if set(ratios) != set(recorded) or any(
            abs(ratios[k] - recorded[k]) > 1e-6 for k in ratios):
        errs.append("chaos_p99_ratios %s but the phases give %s"
                    % (recorded, ratios))
    gates = d["gates"]
    for name, value in gates.items():
        if name == "zero_dropped":
            want = dropped_ok
        elif name.startswith("warm_speedup_ge_"):
            want = warm >= float(name[len("warm_speedup_ge_"):])
        elif name.startswith("chaos_p99_ratio_le_"):
            limit = float(name[len("chaos_p99_ratio_le_"):])
            want = bool(ratios) and all(r <= limit for r in ratios.values())
        else:
            errs.append("unknown gate %s" % name)
            continue
        if value != want:
            errs.append("gate %s is %s but its numbers give %s"
                        % (name, value, want))
    if d["pass"] != all(gates.values()):
        errs.append("pass is %s but the gates are %s" % (d["pass"], gates))
    return errs


def check_precision(d):
    errs = []
    if d["pass"] and d["inert_when_off"] is not True:
        errs.append("pass is true but inert_when_off is %r"
                    % d["inert_when_off"])
    if d["pass"] and not (d["explained_keys_flags_on"]
                          < d["explained_keys_flags_off"]):
        errs.append("pass is true but explained keys do not fall (%d -> %d)"
                    % (d["explained_keys_flags_off"],
                       d["explained_keys_flags_on"]))
    return errs


RULES = {
    "BENCH_obs2.json": check_obs2,
    "BENCH_perf.json": speedup_rule("baseline_s", "best_s"),
    "BENCH_store.json": speedup_rule("fleet_cold_s", "fleet_hot_s"),
    "BENCH_targeted.json": speedup_rule("full_s", "targeted_s"),
    "BENCH_serve.json": check_serve,
    "BENCH_precision.json": check_precision,
}


def main(argv):
    root = argv[1] if len(argv) > 1 else "."
    bad = 0
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        name = os.path.basename(path)
        rule = RULES.get(name)
        if rule is None:
            print("consistency: %s records no limit to check" % name)
            continue
        try:
            with open(path) as f:
                errs = rule(json.load(f))
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as e:
            errs = ["unreadable: %s: %s" % (type(e).__name__, e)]
        for e in errs:
            print("consistency: FAIL %s: %s" % (name, e))
        if errs:
            bad += 1
        else:
            print("consistency: ok %s" % name)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
