#!/usr/bin/env python3
"""Benchmark entry point for the autosens workspace.

    python3 perfbench/run.py --workload batch-asc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout. The program is built from source into
`$CARGO_TARGET_DIR` (default `.bench_build`); inputs and results go to
`.bench_work/`. The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of the traced in-process replay with
`--trace 1`. Everything else is printed above it for people.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not (harness.valid_name(m["name"]) and harness.valid_unit(m["unit"])):
            raise SystemExit("invalid metric name or unit: %r" % m)
    for w in spec["workloads"]:
        if not harness.valid_name(w["name"]):
            raise SystemExit("invalid workload name: %r" % w["name"])
    return spec


def build(root, trace):
    """Build the CLI and the tracer; both are cargo no-ops when current.
    End-to-end runs do not need the tracer, so a tracer that no longer
    compiles against the crates fails only the traced runs."""
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isfile(os.path.join(root, "crates", "cli", "Cargo.toml"))):
        raise SystemExit("run from the root of an autosens checkout (no Cargo.toml or crates/cli here)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, package, required in ((os.path.join(root, "Cargo.toml"), "autosens-cli", True),
                                        (os.path.join(HERE, "tracer", "Cargo.toml"), "perfbench-tracer", trace)):
        out = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                              "--manifest-path", manifest, "-p", package],
                             cwd=root, env=env, capture_output=True, text=True, timeout=880)
        if out.returncode != 0:
            sys.stderr.write(out.stderr[-4000:])
            if required:
                raise SystemExit("build of %s failed" % package)
            print("warning: build of %s failed; traced runs will fail" % package)
    return os.path.join(target, "release", "autosens"), os.path.join(target, "release", "perfbench-tracer")


def med(run, name):
    xs = run.samples.get(name)
    return harness.median(xs) if xs else None


def end_to_end(run):
    return {
        "setup_s": run.values["setup_s"],
        "freshness_ms": med(run, "freshness_ms"),
        "records_per_s": med(run, "records_per_s"),
        "peak_rss_mb": med(run, "peak_rss_mb"),
    }


def report_lines(run, metrics, units):
    """Every number the run measured, by name with its unit."""
    lines = []
    for k, v in metrics.items():
        lines.append("%-34s %14.4f %s" % (k, v, units.get(k, "")))
    for k in ("analyze_ms", "freshness_ms", "query_ms", "ack_ms", "status_ms", "curve_ms"):
        xs = run.samples.get(k)
        if not xs:
            continue
        if k not in metrics:
            lines.append("%-34s %14.4f ms  (median of %d)" % (k, harness.median(xs), len(xs)))
        t = harness.tail(xs)
        if t:
            lines.append("%-34s %14.4f ms  (p%.1f of %d)" % (k.replace("_ms", "_tail_ms"), t[0], t[1], t[2]))
    for k, v in sorted(run.values.items()):
        if k not in metrics:
            unit = "1/s" if k.endswith("_per_s") else "s" if k.endswith("_s") else "ms"
            lines.append("%-34s %14.4f %s" % (k, v, unit))
    lines.append("%-34s %14.6f ratio (%d of %d ops)" % (
        "failed_ratio", run.failed / max(1, run.attempted), run.failed, run.attempted))
    for f in run.failures:
        lines.append("FAILED: " + f)
    return lines


def run_one(args, root, binary, tracer, spec):
    work = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = workloads.Ctx(root, work, binary, args.seed, args.seconds)
    try:
        return measure(args, ctx, tracer, spec)
    finally:
        ctx.stop_all()
        shutil.rmtree(work, ignore_errors=True)


def measure(args, ctx, tracer, spec):
    root = ctx.root
    run = workloads.WORKLOADS[args.workload](ctx)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = end_to_end(run)
    fp = harness.fingerprint(root, ctx.threads)
    print("workload %s seed %d seconds %d" % (args.workload, args.seed, args.seconds))
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    for line in report_lines(run, e2e, units):
        print(line)
    missing = [k for k, v in e2e.items() if v is None]
    if missing:
        raise RuntimeError("no samples for %s" % ", ".join(missing))

    metrics, attempted, failed = e2e, run.attempted, run.failed
    if args.trace:
        metrics, checks, everything = layers.traced(
            ctx, tracer, args.workload, run, [m["name"] for m in spec["per_layer"]])
        for name, ok, detail in checks:
            print("%s %s: %s" % ("check" if ok else "FAILED check", name, detail))
            attempted += 1
            failed += 0 if ok else 1
        for k, v in sorted(everything.items()):
            print("%-34s %14.4f %s" % (k, v, units.get(k, "")))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    os.makedirs(os.path.join(root, ".bench_work", "results"), exist_ok=True)
    with open(os.path.join(root, ".bench_work", "results", "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(dict(result, workload=args.workload, seed=args.seed, fingerprint=fp), f, indent=1)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        raise SystemExit("unknown workload %r (have: %s, all)" % (args.workload, ", ".join(names)))
    root = os.getcwd()
    binary, tracer = build(root, args.trace == 1)
    if args.workload != "all":
        print(json.dumps(run_one(args, root, binary, tracer, spec)))
        return
    summary = {}
    for name in names:
        args.workload = name
        t0 = time.time()
        summary[name] = run_one(args, root, binary, tracer, spec)
        print("-- %s done in %.1f s" % (name, time.time() - t0))
    print()
    for name, r in summary.items():
        cells = " ".join("%s=%.4g %s" % (k, v["value"], v["unit"]) for k, v in r["metrics"].items())
        print("%-12s failed_ratio=%.4f %s" % (name, r["failed"] / max(1, r["attempted"]), cells))
    print(json.dumps({"correct": all(r["correct"] for r in summary.values()),
                      "attempted": sum(r["attempted"] for r in summary.values()),
                      "failed": sum(r["failed"] for r in summary.values()),
                      "metrics": {}}))


if __name__ == "__main__":
    main()
