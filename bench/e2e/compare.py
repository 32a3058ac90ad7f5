#!/usr/bin/env python3
"""Compares two result files of bench/e2e/run.py, metric by metric.

  python3 bench/e2e/compare.py A.json B.json

A is the reference (say bench/e2e/baseline/seed.json, or the parent commit)
and B the candidate. For each workload and metric present on both sides it
prints the median and the interquartile range (IQR) of each side over its
invocations, the change of the median, and a verdict against the metric's
bound in BENCHMARK.json:

  worse        B's median is worse than A's by more than the bound
  better       B's median is better than A's by more than the bound
  within bound neither
  unresolved   either side's IQR exceeds the bound, so the medians cannot
               be told apart; unless every B run beats every A run, which
               reads "better"

A metric whose bound exceeds 10% is marked noisy. Per-layer metrics (from
--trace 1 invocations) have no bound and are listed for information. The
exit code is 1 when any row reads "worse".
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NOISY_ABOVE = 0.10


def values_by_metric(result_file):
    """{(trace, workload, metric): [value per invocation]}."""
    out = {}
    for inv in json.loads(Path(result_file).read_text())["invocations"]:
        for workload, result in inv["workloads"].items():
            for name, metric in result["metrics"].items():
                out.setdefault((inv["trace"], workload, name), []).append(metric["value"])
    return out


def spread(values):
    """(median, IQR / median)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def verdict(spec, a, b):
    med_a, iqr_a = spread(a)
    med_b, iqr_b = spread(b)
    sign = 1.0 if spec["better"] == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    bound = spec["bound"]
    b_always_better = all(sign * (y - x) < 0 for x in a for y in b)
    if max(iqr_a, iqr_b) > bound:
        return "better" if b_always_better else "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within bound"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = values_by_metric(sys.argv[1]), values_by_metric(sys.argv[2])
    bounded = {m["name"]: m for m in SPEC["end_to_end"]}
    print(f"{'workload':20s} {'metric':32s} {'A median':>11s} {'A iqr':>6s} "
          f"{'B median':>11s} {'B iqr':>6s} {'delta':>7s} {'bound':>6s}  verdict")
    worse = 0
    for key in sorted(k for k in a if k in b):
        trace, workload, name = key
        med_a, iqr_a = spread(a[key])
        med_b, iqr_b = spread(b[key])
        delta = (med_b - med_a) / abs(med_a) if med_a else 0.0
        spec = bounded.get(name) if trace == 0 else None
        if spec is None:
            bound, text = "", "-"
        else:
            text = verdict(spec, a[key], b[key])
            bound = f"{spec['bound']:.2f}"
            if spec["bound"] > NOISY_ABOVE:
                text += " (noisy)"
            worse += text.startswith("worse")
        print(f"{workload:20s} {name:32s} {med_a:11.5g} {iqr_a:6.1%} "
              f"{med_b:11.5g} {iqr_b:6.1%} {delta:+7.1%} {bound:>6s}  {text}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
