#!/usr/bin/env python3
"""Compare two e2ebench result files (JSON lines written by run.py --out).

    python3 e2ebench/diff.py BASE.jsonl NEW.jsonl

Run it from the root of a checkout (it reads BENCHMARK.json there).
For each workload and metric it prints, for both sides, the median, the
quartiles and the sample count (one sample per run.py run), and the
change of the medians. A change worse than the metric's bound is
flagged REGRESSED: the bound is BENCHMARK.json's for end-to-end
metrics and LAYER_BOUND for per-layer ones, which have none. Where
the base's own spread (quartile distance over median) exceeds the
bound, the row reads "unresolved" unless every new sample is worse than
every base sample. Rows are grouped by workload, then by stage
(stage.*) and layer (the metric name's prefix), so a regression in an
end-to-end metric can be followed to the stage and layer that moved.
A run whose output check failed is reported too. Exit status 1 when
anything is flagged.
"""

import argparse
import json
import statistics
import sys

# Per-layer metrics carry no bound in BENCHMARK.json; changes beyond
# this share of the base median are flagged.
LAYER_BOUND = 0.10


def load(path):
    groups, broken = {}, []
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if not rec["correct"]:
                broken.append("%s seed %s" % (rec["workload"], rec["seed"]))
            for name, m in rec["metrics"].items():
                groups.setdefault((rec["workload"], name), []).append(m["value"])
    return groups, broken


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def layer_of(name, end_to_end):
    if name in end_to_end:
        return "end-to-end"
    return name.split(".")[0] if "." in name else "bench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    metrics = dict({m["name"]: m for m in spec["per_layer"]}, **end_to_end)
    base, base_broken = load(args.base)
    new, new_broken = load(args.new)

    flagged = 0
    for what in new_broken:
        print("OUTPUT CHECK FAILED in new: " + what)
        flagged += 1
    order = {"end-to-end": 0, "stage": 1}
    keys = sorted(set(base) & set(new),
                  key=lambda k: (k[0], order.get(layer_of(k[1], end_to_end), 2),
                                 layer_of(k[1], end_to_end), k[1]))
    print("%-20s %-10s %-20s %30s %30s %9s" % (
        "workload", "layer", "metric", "base median [q1 q3] n",
        "new median [q1 q3] n", "change"))
    for workload, name in keys:
        b, n = base[(workload, name)], new[(workload, name)]
        bq1, bmed, bq3 = summary(b)
        nq1, nmed, nq3 = summary(n)
        spec_m = metrics.get(name, {})
        bound = spec_m.get("bound", LAYER_BOUND)
        sign = -1.0 if spec_m.get("better") == "higher" else 1.0
        verdict = ""
        if bmed:
            change = (nmed - bmed) / abs(bmed)
            worse = sign * change > bound
            noisy = (bq3 - bq1) / abs(bmed) > bound
            separated = (min(n) > max(b)) if sign > 0 else (max(n) < min(b))
            if worse and noisy and not separated:
                verdict = "unresolved"
            elif worse:
                verdict = "REGRESSED"
                flagged += 1
            change_s = "%+8.1f%%" % (100.0 * change)
        else:
            change_s = "%9s" % ("=" if nmed == bmed else "from 0")
        print("%-20s %-10s %-20s %30s %30s %s %s" % (
            workload, layer_of(name, end_to_end), name,
            "%.4g [%.4g %.4g] %d" % (bmed, bq1, bq3, len(b)),
            "%.4g [%.4g %.4g] %d" % (nmed, nq1, nq3, len(n)),
            change_s, verdict))
    if base_broken:
        print("note: base has failed output checks: " + ", ".join(base_broken))
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
