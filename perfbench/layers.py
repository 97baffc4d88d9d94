"""The traced run: replay a finished end-to-end run in-process with the
tracer and turn its raw sums into the per-layer metrics.

Layer metrics that a workload's path never reaches read 0 (for example
`serve.*` on the batch workloads, `telemetry.asc_open_ms` on batch-csv,
`core.ci_bootstrap_ms` on serve, where snapshots run no CI).
"""

import json
import subprocess

import harness
import workloads

# The layer self times of a replayed op must account for the end-to-end
# op time within this share (see README.md, "Reading the traced run").
COVERAGE_TOLERANCE = 0.25

# The end-to-end sample each workload's decomposition is checked against.
E2E_OP = {
    "batch-asc": "analyze_ms",
    "batch-csv": "analyze_ms",
    "serve-fleet": "freshness_ms",
    "serve-hot": "status_ms",
}


def write_spec(ctx, workload, run):
    r = run.replay
    lines = [("workload", workload), ("threads", ctx.threads["analyze"])]
    if workload.startswith("batch"):
        lines += [("ci", workloads.CI_REPLICATES), ("format", r["format"]), ("input", r["input"])]
        lines += [("slice", a, c, ref) for (a, c), ref in zip(r["slices"], r["refs"])]
    elif workload == "serve-fleet":
        lines += [("pool", p) for p in r["pools"]]
        lines += [("preload", r["preload"])]
        lines += [("tenant", svc, reg, p, s) for (svc, reg), (p, s) in r["tenants"]]
        lines += [("probe", j, n) for j, n in r["probes"]]
    else:
        lines += [("pool", r["pools"][0]), ("split", r["split"]), ("sent", r["sent"]),
                  ("batch", r["batch"]), ("preload_batch", r["preload_batch"]),
                  ("batches_per_tick", r["batches_per_tick"])]
    path = ctx.path("replay.tsv")
    with open(path, "w") as f:
        for line in lines:
            f.write("\t".join(str(x) for x in line) + "\n")
    return path


def ratio(num, den):
    return num / den if den else 0.0


def finalize(raw):
    """Per-layer metrics from the tracer's sums (means per call where the
    tracer summed over calls)."""
    g = lambda k: raw.get(k, 0.0)  # noqa: E731
    out = {k: v for k, v in raw.items() if not k.endswith(("_sum", "_n"))
           and k not in ("stream.insert_ms", "stream.inserted", "stream.flushes",
                         "stream.merged_rows", "stream.reused_rows")}
    runs = g("core.runs")
    if runs:
        # Serve: stage times summed over every snapshot's plan run.
        for k in [k for k in out if k.startswith("core.")]:
            out[k] = raw[k] / runs
        out.pop("core.runs")
    out["stream.insert_ns_per_record"] = ratio(1e6 * g("stream.insert_ms"), g("stream.inserted"))
    out["stream.flush_ms"] = ratio(g("stream.flush_ms"), g("stream.flushes"))
    out["stream.reused_rows_ratio"] = ratio(g("stream.reused_rows"), g("stream.merged_rows"))
    for bucket in ("dirty", "cached"):
        out["stream.snapshot_%s_ms" % bucket] = ratio(
            g("stream.snapshot_%s_ms_sum" % bucket), g("stream.snapshot_%s_n" % bucket))
    out["serve.frame_decode_ms"] = ratio(g("serve.frame_decode_ms_sum"), g("serve.batches_n"))
    out["serve.registry_ingest_ms"] = ratio(g("serve.registry_ingest_ms_sum"), g("serve.batches_n"))
    out["serve.serialize_ms"] = ratio(g("serve.serialize_ms_sum"), g("serve.serialize_n"))
    out["serve.response_bytes"] = ratio(g("serve.response_bytes_sum"), g("serve.serialize_n"))
    return out


def traced(ctx, tracer, workload, run, per_layer_names):
    """Run the tracer over `run`'s inputs. Returns the per-layer metrics
    (every name in `per_layer_names`, 0 where the workload's path never
    reaches the layer) and the checks made: the replay's own
    correctness checks plus the layer decomposition."""
    spec = write_spec(ctx, workload, run)
    out = subprocess.run([tracer, spec], capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise RuntimeError("tracer failed: %s" % out.stderr[-2000:])
    res = json.loads(out.stdout.strip().splitlines()[-1])
    layers = finalize(res["metrics"])
    checks = []
    by_name = {}
    for name, ok, detail in res["checks"]:
        by_name.setdefault(name, [0, 0, detail])
        by_name[name][0] += 1
        by_name[name][1] += 0 if ok else 1
        if not ok:
            by_name[name][2] = detail
    for name, (n, bad, detail) in by_name.items():
        checks.append((name, bad == 0, "%d of %d failed%s" % (bad, n, ", e.g. " + detail if bad else "")))

    e2e = harness.median(run.samples[E2E_OP[workload]])
    layer_sum = harness.median(res["layer_sum_ms"])
    coverage = layer_sum / e2e
    layers["bench.layer_coverage_ratio"] = coverage
    checks.append(("layer_decomposition", abs(coverage - 1.0) <= COVERAGE_TOLERANCE,
                   "layers %.3f ms of %s %.3f ms = %.3f (tolerance ±%.2f); replayed op %.3f ms"
                   % (layer_sum, E2E_OP[workload], e2e, coverage, COVERAGE_TOLERANCE,
                      harness.median(res["op_ms"]))))
    layers["bench.generator_lag_ms"] = run.lag.median_ms()
    return {k: layers.get(k, 0.0) for k in per_layer_names}, checks, layers
