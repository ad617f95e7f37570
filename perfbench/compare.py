#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or summarise one.

Usage, from the root of the repository:

    python3 perfbench/compare.py BASE_DIR [CHANGE_DIR]

Each directory holds one file per run: the stdout of `perfbench/run.py`
(its last line is the result object; the line before it the stamp with the
workload and seed). For every workload and metric it prints each side's
median and quartiles and its spread (the distance between the quartiles as
a share of the median). With two sets it also prints the share of pairs the
change won (ties counting for neither) and a verdict:

  unresolved  a side's spread exceeds the metric's bound in BENCHMARK.json,
              unless every change run beats every base run
  worse       the change's median is worse by more than the bound
  better      the change won at least nine tenths of the pairs and the
              medians differ by more than the base's own spread
  same        otherwise

Runs are paired by seed when every seed occurs once on each side, and in
file order otherwise (with a warning naming the repeated seeds). Metrics
without a bound (the per-layer ones) get no verdict. Each workload
also gets a `runs` row: the runs that failed (not correct) and the share of
operations failed, from each result's `attempted` and `failed`; it reads
worse when the change failed more runs or a larger share of operations
than the base. Exits 1 when any row is worse.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


class Runs:
    """The runs of one workload in one set, in file order."""

    def __init__(self):
        self.correct = []  # (seed, {metric: value})
        self.incorrect = 0
        self.attempted = 0
        self.failed = 0


def load_runs(directory):
    """{workload: Runs} for the saved runs in `directory`.

    A run whose result is not correct has no metrics but counts as failed;
    a file without a result line is skipped with a warning.
    """
    runs = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as fh:
            objects = [json.loads(line) for line in fh if line.startswith("{")]
        stamps = [o["stamp"] for o in objects if "stamp" in o]
        if not objects or "correct" not in objects[-1]:
            print(f"skipping {name}: no result line", file=sys.stderr)
            continue
        result = objects[-1]
        if not stamps:
            print(f"skipping {name}: no stamp line naming the workload", file=sys.stderr)
            continue
        r = runs.setdefault(stamps[-1]["workload"], Runs())
        r.attempted += result["attempted"]
        r.failed += result["failed"]
        if not result["correct"]:
            r.incorrect += 1
            continue
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        r.correct.append((stamps[-1]["seed"], metrics))
    return runs


def pairs_of(workload, base, change, metric):
    """(base, change) value pairs: by seed when each seed occurs once on
    each side, otherwise in file order."""
    sides = [[(s, m[metric]) for s, m in runs.correct if metric in m] for runs in (base, change)]
    seeds = [[s for s, _ in side] for side in sides]
    if all(len(set(s)) == len(s) for s in seeds) and set(seeds[0]) & set(seeds[1]):
        b, c = (dict(side) for side in sides)
        return [(b[s], c[s]) for s in sorted(set(b) & set(c))]
    repeated = sorted({s for side in seeds for s in side if side.count(s) > 1})
    if repeated:
        print(
            f"warning: {workload} {metric}: seeds {repeated} repeat within a set; pairing in file order",
            file=sys.stderr,
        )
    return [(b, c) for (_, b), (_, c) in zip(*sides)]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(spec, base, change, won):
    bound = spec.get("bound")
    if bound is None:
        return ""
    lower = spec["better"] == "lower"
    better = (lambda a, b: b < a) if lower else (lambda a, b: b > a)
    mb, mc = statistics.median(base), statistics.median(change)
    if max(spread(base), spread(change)) > bound and not all(
        better(a, b) for a in base for b in change
    ):
        return "unresolved"
    worse_by = (mc - mb) / abs(mb) if lower else (mb - mc) / abs(mb)
    if worse_by > bound:
        return "worse"
    q1, _, q3 = quartiles(base)
    if won >= 0.9 and abs(mc - mb) > q3 - q1:
        return "better"
    return "same"


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    spec = load_spec()
    sets = [load_runs(d) for d in sys.argv[1:]]
    worse = False
    for workload in sorted(set().union(*sets)):
        print(f"== {workload}")
        sides = [s.get(workload, Runs()) for s in sets]
        cols = [
            f"n={len(r.correct) + r.incorrect:<3} not correct {r.incorrect} "
            f"failed {r.failed}/{r.attempted} operations"
            for r in sides
        ]
        line = f"  {'runs':<36} " + " | ".join(cols)
        if len(sides) == 2:
            base, change = sides
            share = [r.failed / r.attempted if r.attempted else 0.0 for r in sides]
            total = [len(r.correct) + r.incorrect for r in sides]
            failed_more = change.incorrect * total[0] > base.incorrect * total[1]
            if failed_more or share[1] > share[0]:
                line += " worse"
                worse = True
        print(line)
        names = sorted({k for runs in sides for _, m in runs.correct for k in m})
        for metric in names:
            cols = []
            values = []
            for runs in sides:
                v = [m[metric] for _, m in runs.correct if metric in m]
                values.append(v)
                if v:
                    q1, q2, q3 = quartiles(v)
                    cols.append(f"n={len(v):<3} median {q2:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread(v):.4f}")
                else:
                    cols.append("n=0")
            m = spec.get(metric, {})
            line = f"  {metric:<36} " + " | ".join(cols)
            if "bound" in m:
                line += f" (bound {m['bound']})"
            if len(sides) == 2 and all(values):
                lower = m.get("better", "lower") == "lower"
                pairs = pairs_of(workload, sides[0], sides[1], metric)
                won = sum((b < a) if lower else (b > a) for a, b in pairs) / len(pairs)
                v = verdict(m, values[0], values[1], won) if m else ""
                worse |= v == "worse"
                line += f" won {won:.2f} {v}"
            print(line)
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
