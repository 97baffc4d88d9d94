#!/usr/bin/env python3
"""Compare two sets of saved benchmark results, refusing when the
machines differ.

    python3 perfbench/compare.py BASE.json [...] -- NEW.json [...]

Each file is a result `run.py` saved under `.bench_work/results/`.
Results are grouped by workload; for every metric the medians of the two
sides are printed with their ratio and each side's spread (quartile
distance over median). Two results whose fingerprints
differ in anything but the commit (core count, CPU model, rustc, thread
counts) are not compared.
"""

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402


class Incomparable(Exception):
    pass


def compare(base, new):
    """Rows of (workload, metric, base median, new median, unit, base
    spread, new spread)."""
    ref = base[0]["fingerprint"]
    for r in base + new:
        diff = harness.fingerprint_mismatch(ref, r["fingerprint"])
        if diff:
            raise Incomparable("fingerprints differ in %s" % ", ".join(diff))
    rows = []
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    for w in workloads:
        b = [r for r in base if r["workload"] == w]
        n = [r for r in new if r["workload"] == w]
        for metric in sorted(b[0]["metrics"]):
            bv = [r["metrics"][metric]["value"] for r in b if metric in r["metrics"]]
            nv = [r["metrics"][metric]["value"] for r in n if metric in r["metrics"]]
            if bv and nv:
                rows.append((w, metric, statistics.median(bv), statistics.median(nv),
                             b[0]["metrics"][metric]["unit"], spread(bv), spread(nv)))
    return rows


def spread(values):
    """Quartile distance as a share of the median; None below 2 runs."""
    return harness.iqr_share(values) if len(values) >= 2 else None


def main(argv):
    if "--" not in argv:
        raise SystemExit(__doc__)
    cut = argv.index("--")
    load = lambda paths: [json.load(open(p)) for p in paths]  # noqa: E731
    try:
        rows = compare(load(argv[:cut]), load(argv[cut + 1:]))
    except Incomparable as e:
        raise SystemExit("refusing to compare: %s" % e)
    fmt = lambda x: "-" if x is None else "%.3f" % x  # noqa: E731
    for w, metric, b, n, unit, bs, ns in rows:
        print("%-12s %-30s %14.4f -> %14.4f %-6s (x%.3f; spread %s -> %s)"
              % (w, metric, b, n, unit, n / b if b else float("nan"), fmt(bs), fmt(ns)))


if __name__ == "__main__":
    main(sys.argv[1:])
