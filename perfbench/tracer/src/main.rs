//! In-process replay of one benchmark workload.
//!
//! `perfbench-tracer <spec>` reads the replay spec `run.py` wrote for a
//! finished end-to-end run (the same generated files, slices, tenant
//! windows and probe order) and replays it twice through the crates'
//! public entry points: once with a disabled recorder and once with a
//! collecting one. Per-layer numbers come from the traced pass; the
//! difference in wall time is the tracing overhead. Spans are recorded
//! only around calls into the crates and read back from the spans the
//! crates already emit (`exec_worker`, `stream_flush`, `serve_snapshot`
//! and the report's stage timings).
//!
//! Only the single analysis entry point (`AnalysisPlan::run`) and
//! stable serve/stream/telemetry APIs are called, so refactors behind
//! them do not break the replay. Output: one JSON object on stdout.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::time::Instant;

use autosens_core::config::AutoSensConfig;
use autosens_core::plan::{AnalysisPlan, PlanInput, RunOptions};
use autosens_core::report::{default_grid, PreferenceSummary};
use autosens_obs::span::{FieldValue, SpanRecord};
use autosens_obs::Recorder;
use autosens_serve::http::{route, Request};
use autosens_serve::{Frame, Gateway, GatewayConfig, TenantKey};
use autosens_stream::{DetectorConfig, StreamConfig};
use autosens_telemetry::codec;
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::{ActionRecord, ActionType, UserClass};
use autosens_telemetry::{MappedLog, TelemetryLog};

type Res<T> = Result<T, String>;

/// The spec: one `key value...` line per entry, keys may repeat.
struct Spec(Vec<(String, Vec<String>)>);

impl Spec {
    fn read(path: &str) -> Res<Spec> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Ok(Spec(
            text.lines()
                .filter(|l| !l.trim().is_empty())
                .map(|l| {
                    let mut it = l.split('\t').map(str::to_string);
                    let k = it.next().unwrap_or_default();
                    (k, it.collect())
                })
                .collect(),
        ))
    }

    fn all(&self, key: &str) -> impl Iterator<Item = &Vec<String>> {
        let key = key.to_string();
        self.0.iter().filter(move |(k, _)| *k == key).map(|(_, v)| v)
    }

    fn one(&self, key: &str) -> Res<&str> {
        self.all(key)
            .next()
            .and_then(|v| v.first())
            .map(String::as_str)
            .ok_or_else(|| format!("spec has no {key}"))
    }

    fn num(&self, key: &str) -> Res<f64> {
        self.one(key)?
            .parse()
            .map_err(|e| format!("spec {key}: {e}"))
    }
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    metrics: BTreeMap<String, f64>,
    checks: Vec<(String, bool, String)>,
    /// Per-op end-to-end time of the replayed op and the sum of its
    /// layer self times.
    op_ms: Vec<f64>,
    layer_sum_ms: Vec<f64>,
    wall_ms: f64,
}

impl Pass {
    fn add(&mut self, name: &str, v: f64) {
        *self.metrics.entry(name.to_string()).or_insert(0.0) += v;
    }

    fn max(&mut self, name: &str, v: f64) {
        let e = self.metrics.entry(name.to_string()).or_insert(0.0);
        *e = e.max(v);
    }

    fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push((name.to_string(), ok, detail));
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn field_f64(span: &SpanRecord, key: &str) -> Option<f64> {
    span.fields.iter().find(|(k, _)| k == key).map(|(_, v)| match v {
        FieldValue::U64(x) => *x as f64,
        FieldValue::I64(x) => *x as f64,
        FieldValue::F64(x) => *x,
        _ => 0.0,
    })
}

fn field_str<'a>(span: &'a SpanRecord, key: &str) -> Option<&'a str> {
    span.fields.iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
        FieldValue::Str(s) => Some(s.as_str()),
        _ => None,
    })
}

/// Fold the exec worker spans into per-job busy time and steal counts.
fn exec_spans(pass: &mut Pass, spans: &[SpanRecord]) {
    for s in spans.iter().filter(|s| s.name == "exec_worker") {
        let job = field_str(s, "job").unwrap_or("unknown");
        pass.add(
            &format!("exec.{job}_busy_ms"),
            field_f64(s, "wall_ms").unwrap_or(0.0),
        );
        pass.add("exec.steals", field_f64(s, "steals").unwrap_or(0.0));
    }
}

fn spans_named<'a>(spans: &'a [SpanRecord], name: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
    spans.iter().filter(move |s| s.name == name)
}

fn analysis_config(threads: usize) -> AutoSensConfig {
    // The CLI defaults: alpha correction and loss correction on, 300 ms
    // reference.
    AutoSensConfig {
        alpha_correction: true,
        loss_correct: true,
        reference_latency_ms: 300.0,
        threads,
        ..AutoSensConfig::default()
    }
}

fn action(name: &str) -> Res<ActionType> {
    [
        ActionType::SelectMail,
        ActionType::SwitchFolder,
        ActionType::Search,
        ActionType::ComposeSend,
        ActionType::Other,
    ]
    .into_iter()
    .find(|a| a.name() == name)
    .ok_or_else(|| format!("unknown action {name}"))
}

fn class(name: &str) -> Res<UserClass> {
    [UserClass::Business, UserClass::Consumer]
        .into_iter()
        .find(|c| c.name() == name)
        .ok_or_else(|| format!("unknown class {name}"))
}

fn read_csv(path: &str, pass: &mut Pass) -> Res<TelemetryLog> {
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let t = Instant::now();
    let log = codec::read_csv(BufReader::new(file)).map_err(|e| e.to_string())?;
    pass.add("telemetry.csv_decode_ms", ms(t));
    pass.add("telemetry.rows_decoded", log.len() as f64);
    Ok(log)
}

// ------------------------------------------------------------------ batch

fn batch(spec: &Spec, recorder: &Recorder) -> Res<Pass> {
    let mut pass = Pass::default();
    let threads = spec.num("threads")? as usize;
    let ci = spec.num("ci")? as usize;
    let input = spec.one("input")?;
    let asc = spec.one("format")? == "asc";
    let plan = AnalysisPlan::with_recorder(analysis_config(threads), recorder.clone());
    let started = Instant::now();
    for s in spec.all("slice") {
        let (a, c, reference) = (action(&s[0])?, class(&s[1])?, &s[2]);
        let slice = Slice::all().action(a).class(c);
        let op = Instant::now();
        let (decode_ms, out) = if asc {
            let t = Instant::now();
            let mapped = MappedLog::open(input).map_err(|e| e.to_string())?;
            let open_ms = ms(t);
            pass.add("telemetry.asc_open_ms", open_ms);
            pass.add("telemetry.rows_decoded", mapped.len() as f64);
            let view = mapped.view();
            let t = Instant::now();
            let out = plan.run(PlanInput::view(&view, &slice), RunOptions::with_ci(ci, 0.95));
            pass.add("core.plan_run_ms", ms(t));
            (open_ms, out)
        } else {
            let before = pass.metrics.get("telemetry.csv_decode_ms").copied().unwrap_or(0.0);
            let log = read_csv(input, &mut pass)?;
            let decode_ms = pass.metrics["telemetry.csv_decode_ms"] - before;
            let view = log.view();
            let t = Instant::now();
            let out = plan.run(PlanInput::view(&view, &slice), RunOptions::with_ci(ci, 0.95));
            pass.add("core.plan_run_ms", ms(t));
            (decode_ms, out)
        };
        let report = out.map_err(|e| e.to_string())?.report;
        let plan_ms = report
            .stage_timings
            .iter()
            .flatten()
            .map(|st| {
                pass.add(&format!("core.{}_ms", st.stage), st.wall_ms);
                st.wall_ms
            })
            .sum::<f64>();
        pass.add("core.rows_analyzed", report.n_actions as f64);
        let label = format!("{} / {}", a.name(), c.name());
        let summary = PreferenceSummary::from_report(label, &report, &default_grid());
        let json = serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())? + "\n";
        let expected = std::fs::read(reference).map_err(|e| format!("{reference}: {e}"))?;
        pass.check(
            "replay_matches_cli",
            json.as_bytes() == expected.as_slice(),
            format!("slice {} / {}", s[0], s[1]),
        );
        pass.op_ms.push(ms(op));
        pass.layer_sum_ms.push(decode_ms + plan_ms);
    }
    pass.wall_ms = ms(started);
    let spans = recorder.finish();
    exec_spans(&mut pass, spans.spans());
    // One analyze is the batch op: report every layer per op.
    let ops = pass.op_ms.len().max(1) as f64;
    for v in pass.metrics.values_mut() {
        *v /= ops;
    }
    Ok(pass)
}

// ------------------------------------------------------------------ serve

fn gateway(threads: usize, recorder: &Recorder) -> Res<Gateway> {
    // What `autosens serve` builds with its default flags.
    let config = GatewayConfig {
        stream: StreamConfig {
            analysis: analysis_config(threads),
            shard_ms: 6 * 3_600_000,
            allowed_lateness_ms: 3_600_000,
            retain_ms: None,
            detector: Some(DetectorConfig::default()),
            decay_half_life_ms: None,
        },
        ingest_capacity: 65_536,
        checkpoint_dir: None,
        resume: false,
        threads,
    };
    Gateway::new(config, recorder.clone()).map_err(|e| e.to_string())
}

fn get(gw: &Gateway, path: String, pass: &mut Pass) -> (f64, Vec<u8>) {
    let t = Instant::now();
    let resp = route(
        gw,
        &Request {
            method: "GET".into(),
            path: path.clone(),
        },
    );
    let took = ms(t);
    pass.check("route_ok", resp.status == 200, format!("{path} -> {}", resp.status));
    (took, resp.body)
}

/// Push one batch the way the gateway does: decode the wire frame, route
/// it into the registry, then drain the tenant queue into its engine.
/// Returns the summed time of the three calls.
fn push(gw: &Gateway, key: &TenantKey, records: &[ActionRecord], pass: &mut Pass) -> Res<f64> {
    let bytes = Frame::Batch {
        tenant: key.clone(),
        records: records.to_vec(),
    }
    .encode();
    let t = Instant::now();
    let frame = Frame::decode(&bytes).map_err(|e| e.to_string())?;
    let decode_ms = ms(t);
    let Frame::Batch { tenant, records } = frame else {
        return Err("decoded a non-batch frame".into());
    };
    let t = Instant::now();
    gw.registry()
        .ingest(&tenant, &records)
        .map_err(|e| e.to_string())?;
    let ingest_ms = ms(t);
    if let Some(tn) = gw.registry().get(&tenant) {
        pass.max("serve.queue_depth_max", tn.lock().ingestor.queue_depth() as f64);
    }
    let t = Instant::now();
    gw.registry()
        .with_tenant(&tenant, |_| ())
        .map_err(|e| e.to_string())?;
    let drain_ms = ms(t);
    pass.add("serve.frame_decode_ms_sum", decode_ms);
    pass.add("serve.registry_ingest_ms_sum", ingest_ms);
    pass.add("serve.batches_n", 1.0);
    pass.add("stream.insert_ms", drain_ms);
    pass.add("stream.inserted", records.len() as f64);
    Ok(decode_ms + ingest_ms + drain_ms)
}

/// Core stage spans of the plan runs inside snapshots (the serve path
/// gets no report back, so its stage times come from the spans the plan
/// emits): sums plus the run count, averaged in `layers.py`.
fn core_spans(pass: &mut Pass, spans: &[SpanRecord]) {
    for root in spans.iter().filter(|s| s.name == "analyze" && s.parent.is_none()) {
        pass.add("core.runs", 1.0);
        pass.add("core.plan_run_ms", root.wall_ms());
        pass.add("core.rows_analyzed", field_f64(root, "n_actions").unwrap_or(0.0));
        for stage in spans.iter().filter(|s| s.parent == Some(root.id)) {
            pass.add(&format!("core.{}_ms", stage.name), stage.wall_ms());
        }
    }
}

/// Snapshot-span accounting for one query-plane request: returns the
/// snapshot time inside it and records flush and reuse figures.
fn snapshot_spans(pass: &mut Pass, spans: &[SpanRecord]) -> f64 {
    for f in spans_named(spans, "stream_flush") {
        pass.add("stream.flush_ms", f.wall_ms());
        pass.add("stream.flushes", 1.0);
        pass.add("stream.merged_rows", field_f64(f, "records").unwrap_or(0.0));
        pass.add("stream.reused_rows", field_f64(f, "reused_rows").unwrap_or(0.0));
    }
    spans_named(spans, "serve_snapshot").map(SpanRecord::wall_ms).sum()
}

fn tenant_counts(gw: &Gateway, pass: &mut Pass) {
    for key in gw.registry().keys() {
        if let Some(t) = gw.registry().get(&key) {
            let t = t.lock();
            let st = t.engine.status();
            pass.add("stream.live_records", st.live_records as f64);
            pass.add("stream.late", st.late as f64);
            pass.add("stream.duplicates", st.duplicates as f64);
            pass.add("stream.shed", t.ingestor.shed() as f64);
        }
    }
}

/// A query-plane read: route time, the snapshot inside it (filed under
/// `bucket`: cold, dirty or cached) and the serialization self time
/// (route minus snapshot).
fn read(gw: &Gateway, recorder: &Recorder, path: String, bucket: &str, pass: &mut Pass) -> f64 {
    recorder.finish();
    let (route_ms, body) = get(gw, path, pass);
    let spans = recorder.finish();
    let snap_ms = snapshot_spans(pass, spans.spans());
    exec_spans(pass, spans.spans());
    core_spans(pass, spans.spans());
    pass.add(&format!("stream.snapshot_{bucket}_ms_sum"), snap_ms);
    pass.add(&format!("stream.snapshot_{bucket}_n"), 1.0);
    pass.add("serve.serialize_ms_sum", (route_ms - snap_ms).max(0.0));
    pass.add("serve.serialize_n", 1.0);
    pass.add("serve.response_bytes_sum", body.len() as f64);
    route_ms
}

fn serve_fleet(spec: &Spec, recorder: &Recorder) -> Res<Pass> {
    let mut pass = Pass::default();
    let threads = spec.num("threads")? as usize;
    let preload = spec.num("preload")? as usize;
    let mut pools = Vec::new();
    for p in spec.all("pool") {
        pools.push(read_csv(&p[0], &mut pass)?.to_records());
    }
    let started = Instant::now();
    let gw = gateway(threads, recorder)?;
    let mut tenants = Vec::new();
    for t in spec.all("tenant") {
        let key = TenantKey::new(t[0].clone(), t[1].clone()).map_err(|e| e.to_string())?;
        let pool: usize = t[2].parse().map_err(|_| "bad pool index")?;
        let start: usize = t[3].parse().map_err(|_| "bad window start")?;
        tenants.push((key, pool, start, start + preload));
    }
    for (key, pool, start, end) in &tenants {
        push(&gw, key, &pools[*pool][*start..*end], &mut pass)?;
    }
    recorder.finish();

    // The cold fleet pass.
    let t = Instant::now();
    get(&gw, "/snapshot".into(), &mut pass);
    let cold_ms = ms(t);
    let spans = recorder.finish();
    let snaps: Vec<f64> = spans_named(spans.spans(), "serve_snapshot")
        .map(SpanRecord::wall_ms)
        .collect();
    let busy: f64 = snaps.iter().sum();
    pass.metrics.insert("stream.snapshot_cold_ms".into(), median(&snaps));
    pass.metrics.insert("exec.serve_snapshot_all_busy_ms".into(), busy);
    pass.metrics
        .insert("exec.busy_ratio".into(), busy / (threads.max(1) as f64 * cold_ms));
    exec_spans(&mut pass, spans.spans());
    core_spans(&mut pass, spans.spans());
    snapshot_spans(&mut pass, spans.spans());
    if let Some(stats) = gw.registry().last_fleet_snapshot() {
        pass.metrics
            .insert("serve.snapshot_all_computed".into(), stats.computed as f64);
        pass.metrics
            .insert("serve.snapshot_all_reused".into(), stats.reused as f64);
    }

    // Probes and quiet-tenant reads, in the end-to-end run's order.
    for p in spec.all("probe") {
        let j: usize = p[0].parse().map_err(|_| "bad probe tenant")?;
        let n: usize = p[1].parse().map_err(|_| "bad probe size")?;
        let (key, pool, _, end) = &mut tenants[j];
        let path = |what: &str| format!("/tenant/{}/{}/{what}", key.service, key.region);
        if n == 0 {
            read(&gw, recorder, path("curve"), "cached", &mut pass);
            continue;
        }
        let op = Instant::now();
        let push_ms = push(&gw, key, &pools[*pool][*end..*end + n], &mut pass)?;
        *end += n;
        let route_ms = read(&gw, recorder, path("status"), "dirty", &mut pass);
        pass.op_ms.push(ms(op));
        pass.layer_sum_ms.push(push_ms + route_ms);
    }
    pass.wall_ms = ms(started);
    tenant_counts(&gw, &mut pass);
    Ok(pass)
}

fn serve_hot(spec: &Spec, recorder: &Recorder) -> Res<Pass> {
    let mut pass = Pass::default();
    let threads = spec.num("threads")? as usize;
    let split = spec.num("split")? as usize;
    let sent = spec.num("sent")? as usize;
    let batch = spec.num("batch")? as usize;
    let preload_batch = spec.num("preload_batch")? as usize;
    let every = spec.num("batches_per_tick")?.max(1.0) as usize;
    let records = read_csv(spec.one("pool")?, &mut pass)?.to_records();
    let started = Instant::now();
    let gw = gateway(threads, recorder)?;
    let key = TenantKey::new("hot", "r0").map_err(|e| e.to_string())?;
    let path = |what: &str| format!("/tenant/{}/{}/{what}", key.service, key.region);
    for lo in (0..split).step_by(preload_batch) {
        push(&gw, &key, &records[lo..(lo + preload_batch).min(split)], &mut pass)?;
    }
    recorder.finish();
    let (_, _) = get(&gw, path("status"), &mut pass);
    let spans = recorder.finish();
    let cold = snapshot_spans(&mut pass, spans.spans());
    pass.metrics.insert("stream.snapshot_cold_ms".into(), cold);
    exec_spans(&mut pass, spans.spans());
    core_spans(&mut pass, spans.spans());

    // The open loop's batches back to back, with a poll (alternating
    // /status and /curve, both dirty by one tick of batches) every tick.
    let mut pending_push = 0.0;
    let mut polls = 0usize;
    for (b, lo) in (split..sent).step_by(batch).enumerate() {
        pending_push += push(&gw, &key, &records[lo..(lo + batch).min(sent)], &mut pass)?;
        if (b + 1) % every == 0 {
            let what = if polls % 2 == 0 { "status" } else { "curve" };
            let route_ms = read(&gw, recorder, path(what), "dirty", &mut pass);
            if what == "status" {
                // The end-to-end /status also drains what arrived since
                // the previous poll, so the pushes belong to its op.
                pass.op_ms.push(route_ms + pending_push);
                pass.layer_sum_ms.push(route_ms + pending_push);
            }
            pending_push = 0.0;
            polls += 1;
        }
    }
    read(&gw, recorder, path("curve"), "dirty", &mut pass);
    read(&gw, recorder, path("curve"), "cached", &mut pass);
    pass.wall_ms = ms(started);
    tenant_counts(&gw, &mut pass);
    Ok(pass)
}

fn replay(spec: &Spec, recorder: &Recorder) -> Res<Pass> {
    match spec.one("workload")? {
        "batch-asc" | "batch-csv" => batch(spec, recorder),
        "serve-fleet" => serve_fleet(spec, recorder),
        "serve-hot" => serve_hot(spec, recorder),
        w => Err(format!("unknown workload {w}")),
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_else(|_| "\"?\"".into())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(path) = args.get(1) else {
        eprintln!("usage: perfbench-tracer <spec>");
        std::process::exit(2);
    };
    let run = || -> Res<(Pass, f64, f64)> {
        let spec = Spec::read(path)?;
        // The first pass is traced and supplies the metrics: like the
        // end-to-end process it starts cold. The overhead comes from four
        // warm passes in untraced/traced/traced/untraced order.
        let traced = replay(&spec, &Recorder::new())?;
        let mut untraced_ms = 0.0;
        let mut traced_ms = 0.0;
        for collect in [false, true, true, false] {
            let recorder = if collect { Recorder::new() } else { Recorder::disabled() };
            let wall = replay(&spec, &recorder)?.wall_ms;
            *(if collect { &mut traced_ms } else { &mut untraced_ms }) += wall;
        }
        Ok((traced, untraced_ms, traced_ms))
    };
    let (mut pass, untraced_ms, traced_ms) = match run() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            std::process::exit(1);
        }
    };
    pass.metrics.insert(
        "obs.tracing_overhead_pct".into(),
        100.0 * (traced_ms - untraced_ms) / untraced_ms,
    );
    let metrics: Vec<String> = pass
        .metrics
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), if v.is_finite() { *v } else { 0.0 }))
        .collect();
    let checks: Vec<String> = pass
        .checks
        .iter()
        .map(|(n, ok, d)| format!("[{}, {ok}, {}]", json_str(n), json_str(d)))
        .collect();
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "{{\"metrics\": {{{}}}, \"checks\": [{}], \"op_ms\": [{}], \"layer_sum_ms\": [{}]}}",
        metrics.join(", "),
        checks.join(", "),
        list(&pass.op_ms),
        list(&pass.layer_sum_ms)
    );
}
