"""Compare benchmark results of two commits.

Usage: python3 perfbench/compare.py BENCHMARK.json BEFORE.jsonl AFTER.jsonl

Each .jsonl file holds the last stdout line of each run of one workload,
one per line, in run order; line i of both files should come from the
same seed.  For every metric the script prints each side's median and
quartiles, how many pairs the after side won, and a verdict: "gain" when
after wins at least nine tenths of the pairs and the medians differ by
more than the before side's quartile spread, "regression" when after's
median is worse than before's by more than the metric's bound, and
"unresolved" when the before side's own spread exceeds that bound.
"""

import json
import statistics
import sys


def load(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def main(argv) -> int:
    spec_path, before_path, after_path = argv
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    before, after = load(before_path), load(after_path)
    for side, runs in (("before", before), ("after", after)):
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{side}: {len(runs)} runs, {failed} of {attempted} operations failed, "
              f"correct in {sum(r['correct'] for r in runs)}")
    for name in before[0]["metrics"]:
        if name not in metrics or name not in after[0]["metrics"]:
            continue
        lower = metrics[name]["better"] == "lower"
        b = [r["metrics"][name]["value"] for r in before]
        a = [r["metrics"][name]["value"] for r in after]
        qb, qa = statistics.quantiles(b, n=4), statistics.quantiles(a, n=4)
        mb, ma = statistics.median(b), statistics.median(a)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, a))
        change = (ma - mb) / mb if mb else 0.0
        worse = change if lower else -change
        bound = metrics[name].get("bound")
        spread = (qb[2] - qb[0]) / mb if mb else 0.0
        verdict = "same"
        if bound is not None and spread > bound:
            verdict = "unresolved"
        elif bound is not None and worse > bound:
            verdict = "regression"
        elif wins >= 0.9 * len(b) and abs(ma - mb) > qb[2] - qb[0]:
            verdict = "gain"
        print(f"{name:40s} before {mb:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
              f"after {ma:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  {change:+.1%}  "
              f"wins {wins}/{min(len(a), len(b))}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
