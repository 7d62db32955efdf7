#!/usr/bin/env python3
"""Compares two sets of shlcp_bench result JSONs against BENCHMARK.json.

    python3 bench/e2e/compare.py BASE HEAD [--benchmark BENCHMARK.json]
    python3 bench/e2e/compare.py --self-test

BASE and HEAD are directories (or single files) of untraced result JSONs,
e.g. the parent commit's runs and the change's. Runs are paired by seed,
so run both sides with the same seeds, alternating which runs first.

One row per workload x end-to-end metric, with one verdict:

  better      at least ten pairs, the head wins at least 9 of 10 of them
              (ties count for neither), and its median beats the base
              median by more than the base's own spread (the distance
              between its quartiles)
  worse       the head median is worse than the base median by more than
              the metric's bound
  unresolved  the base's spread is wider than the bound, so "no worse
              than the bound" cannot be shown -- unless every head run
              beats every base run, which reads as better; or the head
              looks better on fewer than ten pairs
  unchanged   none of the above

Exits 1 when any row is worse, else 0.
"""

import argparse
import glob
import json
import os
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load_runs(path):
    """{workload: {seed: {metric: value}}} from a directory or one file."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    runs = {}
    for f in files:
        with open(f) as fh:
            doc = json.load(fh)
        if doc.get("schema") != "shlcp.e2e.v1" or doc.get("traced"):
            continue
        if not doc.get("correct"):
            raise SystemExit("%s: run failed its checks; not comparable" % f)
        values = {k: m["value"] for k, m in doc["metrics"].items()}
        runs.setdefault(doc["workload"], {})[doc["seed"]] = values
    return runs


def spread(values):
    """Interquartile distance (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(base, head, better, bound):
    """Verdict for paired samples base[i] / head[i] of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    mb = statistics.median(base)
    mh = statistics.median(head)
    gain = (mh - mb) * sign  # > 0: the head is better
    wins = sum(1 for b, h in zip(base, head) if (h - b) * sign > 0)
    iqr = spread(base)
    if mb != 0 and iqr / abs(mb) > bound:
        if min(h * sign for h in head) > max(b * sign for b in base):
            return "better"
        return "unresolved"
    if -gain > bound * abs(mb):
        return "worse"
    if wins >= 0.9 * len(base) and gain > iqr and gain > 0:
        return "better" if len(base) >= 10 else "unresolved"
    return "unchanged"


def compare(base_runs, head_runs, benchmark):
    rows = []
    for w in [w["name"] for w in benchmark["workloads"]]:
        seeds = sorted(set(base_runs.get(w, {})) & set(head_runs.get(w, {})))
        if not seeds:
            continue
        for m in benchmark["end_to_end"]:
            name = m["name"]
            base = [base_runs[w][s][name] for s in seeds]
            head = [head_runs[w][s][name] for s in seeds]
            rows.append({
                "workload": w, "metric": name, "unit": m["unit"],
                "pairs": len(seeds), "base": base, "head": head,
                "verdict": verdict(base, head, m["better"], m["bound"]),
            })
    return rows


def fmt(values):
    med = statistics.median(values)
    iqr_pct = 100 * spread(values) / med if med else 0
    return "%.6g (iqr %.2f%%)" % (med, iqr_pct)


def print_rows(rows):
    print("%-13s %-15s %5s  %-26s %-26s %8s  %s" % (
        "workload", "metric", "pairs", "base median", "head median",
        "change", "verdict"))
    for r in rows:
        mb = statistics.median(r["base"])
        mh = statistics.median(r["head"])
        change = 100.0 * (mh - mb) / mb if mb else 0.0
        print("%-13s %-15s %5d  %-26s %-26s %+7.2f%%  %s" % (
            r["workload"], r["metric"], r["pairs"], fmt(r["base"]),
            fmt(r["head"]), change, r["verdict"]))


def self_test():
    failures = 0

    def expect(cond, what):
        nonlocal failures
        print("%s %s" % ("ok  " if cond else "FAIL", what))
        failures += 0 if cond else 1

    base = [100.0, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    expect(verdict(base, list(base), "higher", 0.1) == "unchanged",
           "identical runs are unchanged")
    expect(verdict(base, [b * 0.7 for b in base], "higher", 0.1) == "worse",
           "30% less throughput is worse at a 10% bound")
    expect(verdict(base, [b * 0.95 for b in base], "higher", 0.1)
           == "unchanged", "5% less throughput is within a 10% bound")
    expect(verdict(base, [b * 1.2 for b in base], "higher", 0.1) == "better",
           "a consistent 20% gain beyond the spread is better")
    expect(verdict(base, [b * 0.8 for b in base], "lower", 0.1) == "better",
           "lower-is-better metrics invert the direction")
    expect(verdict(base, [b * 1.3 for b in base], "lower", 0.1) == "worse",
           "30% more latency is worse")
    expect(verdict(base[:3], [b * 1.2 for b in base[:3]], "higher", 0.1)
           == "unresolved", "a gain on fewer than ten pairs is unresolved")
    mixed = [b * (1.02 if i < 7 else 0.99) for i, b in enumerate(base)]
    expect(verdict(base, mixed, "higher", 0.1) == "unchanged",
           "winning 7 of 10 pairs is no gain")
    noisy = [60.0, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    expect(verdict(noisy, [n * 1.05 for n in noisy], "higher", 0.1)
           == "unresolved", "a base spread wider than the bound is unresolved")
    expect(verdict(noisy, [200.0] * 10, "higher", 0.1) == "better",
           "...unless every head run beats every base run")

    bench = {"workloads": [{"name": "serve_warm"}, {"name": "sweep"}],
             "end_to_end": [{"name": "throughput", "unit": "ops/s",
                             "better": "higher", "bound": 0.1}]}
    with tempfile.TemporaryDirectory() as tmp:
        for side, scale in (("base", 1.0), ("head", 0.5)):
            os.makedirs(os.path.join(tmp, side))
            for seed, value in enumerate(base):
                doc = {"schema": "shlcp.e2e.v1", "workload": "serve_warm",
                       "seed": seed, "traced": False, "correct": True,
                       "metrics": {"throughput": {"value": value * scale,
                                                  "unit": "ops/s"}}}
                with open(os.path.join(tmp, side, "%d.json" % seed), "w") as f:
                    json.dump(doc, f)
            traced = dict(doc, traced=True)
            with open(os.path.join(tmp, side, "traced.json"), "w") as f:
                json.dump(traced, f)
        rows = compare(load_runs(os.path.join(tmp, "base")),
                       load_runs(os.path.join(tmp, "head")), bench)
        expect(len(rows) == 1 and rows[0]["pairs"] == 10,
               "runs pair by seed; traced runs and absent workloads skip")
        expect(rows[0]["verdict"] == "worse",
               "halved throughput read from files is worse")
    print("%s: %d failure(s)" % ("PASS" if failures == 0 else "FAIL",
                                 failures))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("head", nargs="?")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.head:
        parser.error("BASE and HEAD are required")
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    rows = compare(load_runs(args.base), load_runs(args.head), benchmark)
    if not rows:
        print("no workload has runs with a common seed on both sides")
        return 1
    print_rows(rows)
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
