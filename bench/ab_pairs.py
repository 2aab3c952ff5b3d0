#!/usr/bin/env python3
"""Alternating parent/change pairs of the layer benchmark.

    python3 bench/ab_pairs.py --parent REV [--workloads a,b] [--pairs N]
                              [--seed S] [--seconds T] [--trace 0|1]

Run from the root of a checkout.  The committed files of REV are
extracted (`git archive`) into a temporary directory, and the working
tree's tracked and untracked-but-not-ignored files are copied next to
them, so both sides build from source in a tree of their own and
nothing is written outside the temporary directory.  For every
workload the script then runs `python3 layerbench/run.py` N times on
each side, alternating which side goes first.

For each metric it prints both sides' median with quartiles, the
change/parent ratio of the medians, the pairs the change won (ties
count for neither) and `gain` when the change won at least nine tenths
of the pairs and the medians differ by more than the parent's
interquartile range, and `worse` when the change's median is worse
than the parent's by more than the metric's BENCHMARK.json bound (a
relative margin; per-layer metrics have none).  A row reads
`unresolved` when the parent's own interquartile range is wider than
the bound times the parent's median: its runs spread too widely for
the bound to tell a change from drift.  It reports
BENCHMARK.json's end-to-end metrics and, with `--trace 1`, its
per-layer metrics, wherever the runs give them (a traced run gives only
the per-layer ones).  It also prints each side's failed units and
failed runs and its set of pass digests, and ends with one line that
lists every `worse` row of every workload, then every `unresolved`
one.

Exit status: 0 when every run produced a result and both sides gave
the same digests on every workload, 1 otherwise, 2 on a usage or git
error.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

DIGEST = re.compile(r"\bdigest ([0-9a-f]{32})\b")


def git(*args, **kw):
    return subprocess.run(["git"] + list(args), check=True, **kw)


def extract_rev(rev, dest):
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest)
    if archive.wait() != 0:
        raise subprocess.CalledProcessError(archive.returncode, "git archive")


def copy_worktree(dest):
    files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard",
                stdout=subprocess.PIPE).stdout.decode().split("\0")
    for f in files:
        # a tracked file deleted in the working tree is not copied
        if f and os.path.isfile(f):
            target = os.path.join(dest, f)
            os.makedirs(os.path.dirname(target) or dest, exist_ok=True)
            shutil.copy2(f, target)


def run_once(tree, workload, args):
    proc = subprocess.run(
        [sys.executable, os.path.join("layerbench", "run.py"),
         "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return {
        "rc": proc.returncode,
        "result": result,
        "digests": set(DIGEST.findall(proc.stdout)),
        "stderr": proc.stderr[-2000:],
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def metric_specs(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    specs = bench["end_to_end"] + (bench["per_layer"] if trace else [])
    return bench["workloads"], [(m["name"], m["better"], m.get("bound"))
                                for m in specs]


def value(run, name):
    if run["result"] and name in run["result"]["metrics"]:
        return run["result"]["metrics"][name]["value"]
    return None


def worse_than_bound(mp, mc, better, bound):
    if bound is None:
        return False
    if better == "lower":
        return mc > mp * (1 + bound)
    return mc < mp * (1 - bound)


def unresolved_by_spread(mp, p1, p3, bound):
    return bound is not None and p3 - p1 > bound * abs(mp)


def report(workload, runs, specs, worse, unresolved):
    print(f"\n== {workload}: {len(runs['parent'])} pairs")
    print(f"  {'metric':<26} {'parent median [q1, q3]':<40} "
          f"{'change median [q1, q3]':<40} {'ratio':>6} {'won':>6}")
    for name, better, bound in specs:
        # only pairs where both sides gave the metric
        pairs = [(value(p, name), value(c, name))
                 for p, c in zip(runs["parent"], runs["change"])]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            continue
        vals = {"parent": [p for p, _ in pairs], "change": [c for _, c in pairs]}
        won = sum(1 for p, c in pairs
                  if (c < p if better == "lower" else c > p))
        mp, mc = statistics.median(vals["parent"]), statistics.median(vals["change"])
        (p1, p3), (c1, c3) = quartiles(vals["parent"]), quartiles(vals["change"])
        ratio = f"{mc / mp:.3f}" if mp else "-"
        gain = (10 * won >= 9 * len(pairs)
                and abs(mc - mp) > p3 - p1
                and (mc < mp if better == "lower" else mc > mp))
        bad = worse_than_bound(mp, mc, better, bound)
        if bad:
            worse.append(f"{workload} {name} {ratio} (bound {bound})")
        spread = unresolved_by_spread(mp, p1, p3, bound)
        if spread:
            rel = f"{(p3 - p1) / abs(mp):.3f}" if mp else "-"
            unresolved.append(f"{workload} {name} (parent IQR {rel} of "
                              f"median, bound {bound})")
        cell = {s: f"{m:.6g} [{q1:.6g}, {q3:.6g}]"
                for s, m, q1, q3 in (("parent", mp, p1, p3), ("change", mc, c1, c3))}
        print(f"  {name:<26} {cell['parent']:<40} {cell['change']:<40} "
              f"{ratio:>6} {won:>3}/{len(pairs)}{'  gain' if gain else ''}"
              f"{'  worse' if bad else ''}{'  unresolved' if spread else ''}")
    same = True
    digests = {}
    for s in ("parent", "change"):
        rs = runs[s]
        failed_units = sum(r["result"]["failed"] for r in rs if r["result"])
        attempted = sum(r["result"]["attempted"] for r in rs if r["result"])
        bad_runs = sum(1 for r in rs if r["rc"] != 0 or not r["result"])
        digests[s] = set().union(*(r["digests"] for r in rs))
        print(f"  {s}: failed units {failed_units}/{attempted}, "
              f"failed runs {bad_runs}/{len(rs)}, "
              f"digests {' '.join(sorted(digests[s])) or '-'}")
        for r in rs:
            if r["rc"] != 0 or not r["result"]:
                sys.stderr.write(f"{workload} {s}: exit {r['rc']}\n{r['stderr']}\n")
                same = False
    if digests["parent"] != digests["change"]:
        print("  DIGESTS DIFFER")
        same = False
    return same


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile("BENCHMARK.json"):
        sys.stderr.write("ab_pairs: run from the root of a checkout\n")
        return 2
    workloads, specs = metric_specs(args.trace)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in workloads])
    tmp = tempfile.mkdtemp(prefix="ab_pairs.")
    try:
        trees = {"parent": os.path.join(tmp, "parent"),
                 "change": os.path.join(tmp, "change")}
        try:
            extract_rev(args.parent, trees["parent"])
        except subprocess.CalledProcessError:
            sys.stderr.write(f"ab_pairs: cannot extract {args.parent}\n")
            return 2
        copy_worktree(trees["change"])
        ok = True
        worse, unresolved = [], []
        for w in names:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for s in order:
                    sys.stderr.write(f"ab_pairs: {w} pair {i + 1}/{args.pairs} {s}\n")
                    runs[s].append(run_once(trees[s], w, args))
            ok = report(w, runs, specs, worse, unresolved) and ok
        print(f"\nworse beyond bound: {'; '.join(worse) or 'none'}"
              f" | unresolved: {'; '.join(unresolved) or 'none'}")
        return 0 if ok else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
