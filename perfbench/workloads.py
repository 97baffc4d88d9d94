"""The four workloads. Each drives the shipped `autosens` binary from the
outside and returns a `Run`: the end-to-end samples, the ops attempted
and failed (correctness mismatches included), and what the traced run
needs to replay the same inputs in-process.

See README.md in this directory for why each workload exists.
"""

import json
import os
import random
import selectors
import subprocess
import sys
import time

import harness
import wire

SLICES = [(a, c) for a in ("SelectMail", "SwitchFolder", "Search", "ComposeSend")
          for c in ("Business", "Consumer")]
BATCH_SCENARIO = "default"   # ~2.3M rows; see README for why not paper-scale
POOL_SCENARIO = "smoke"      # ~230k rows
CI_REPLICATES = 50
# Worker threads asked of `analyze` and `serve` (clamped to nproc). One,
# because on small shared hosts the vCPUs often share a physical core:
# there two busy threads take as long as one does serially, and a
# parallel run swings by up to 2x with the neighbours' load.
REQUESTED_THREADS = 1
SETUP_REPEATS = 3

# serve-fleet shape.
FLEET_TENANTS = 128
FLEET_PRELOAD = 1200         # records per tenant before the cold snapshot
FLEET_PROBE_HZ = 10.0        # probes per second, on a fixed schedule
FLEET_READ_HZ = 40.0         # quiet-tenant curve reads per second, same schedule
FLEET_PROBE_BATCH = 20
FLEET_PROBES_PER_TENANT = 4
FLEET_CURVE_SAMPLE = 3

# serve-hot shape.
HOT_PRELOAD_SHARE = 0.5
HOT_PRELOAD_BATCH = 4000
HOT_RATE = 8000.0            # offered records per second in the open loop
HOT_BATCH = 100
HOT_POLL_S = 0.125           # one query-plane request every tick, /status and /curve alternating


class Run:
    def __init__(self):
        self.samples = {}     # metric -> list of samples
        self.values = {}      # metric -> single value
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.replay = {}      # inputs and parameters for the traced run
        self.lag = harness.LagTracker()

    def add(self, metric, value):
        self.samples.setdefault(metric, []).append(value)

    def op(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


class Ctx:
    def __init__(self, root, work, binary, seed, seconds):
        self.root, self.work, self.bin = root, work, binary
        self.seed, self.seconds = seed, seconds
        self.rng = random.Random(seed)
        self.nproc = harness.nproc()
        self.threads = {
            "analyze": harness.clamp_threads(REQUESTED_THREADS, self.nproc),
            "serve": harness.clamp_threads(REQUESTED_THREADS, self.nproc),
            "generator": 1,
            "connections": harness.clamp_threads(2, self.nproc),
        }
        self.procs = []
        self.spawner = None

    def path(self, name):
        return os.path.join(self.work, name)

    def cli(self, *args):
        """Run one `autosens` command to completion; raise on failure."""
        out = subprocess.run([self.bin, *args, "--quiet"], capture_output=True, timeout=170)
        if out.returncode != 0:
            raise RuntimeError("autosens %s failed: %s" % (args[0], out.stderr.decode()[-400:]))
        return out.stdout

    def timed_cli(self, *args):
        """Run one `autosens` command through the spawn helper; returns
        (wall_s, exit code, stdout, peak RSS MB)."""
        if self.spawner is None:
            self.spawner = subprocess.Popen(
                [sys.executable, os.path.join(os.path.dirname(__file__), "spawn.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            self.procs.append(self.spawner)
        self.spawner.stdin.write(json.dumps([self.bin, *args, "--quiet"]) + "\n")
        self.spawner.stdin.flush()
        r = json.loads(self.spawner.stdout.readline())
        return r["wall_s"], r["code"], r["stdout"].encode("latin-1"), r["rss_kb"] / 1024.0

    def parallel_cli(self, jobs):
        """Run independent `autosens` commands, at most nproc at a time.
        Returns (exit code, stdout) per job, in order."""
        results = [None] * len(jobs)
        running = []
        pending = list(enumerate(jobs))
        try:
            while pending or running:
                while pending and len(running) < self.nproc:
                    i, args = pending.pop(0)
                    p = subprocess.Popen([self.bin, *args, "--quiet"], stdout=subprocess.PIPE,
                                         stderr=subprocess.DEVNULL)
                    running.append((i, p))
                i, p = running[0]
                out = p.stdout.read()
                p.stdout.close()
                results[i] = (p.wait(), out)
                running.pop(0)
        finally:
            for _, p in running:
                p.kill()
                p.wait()
        return results

    def start_gateway(self):
        ready = self.path("ready.txt")
        if os.path.exists(ready):
            os.remove(ready)
        p = subprocess.Popen([self.bin, "serve", "--listen", "127.0.0.1:0", "--http", "127.0.0.1:0",
                              "--ready-file", ready, "--threads", str(self.threads["serve"]),
                              "--quiet"], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.procs.append(p)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if p.poll() is not None:
                raise RuntimeError("gateway exited during start-up")
            try:
                with open(ready) as f:
                    text = f.read()
                if text.endswith("\n") and "HTTP" in text:
                    addrs = dict(line.split() for line in text.splitlines())
                    return p, addrs["INGEST"], addrs["HTTP"]
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("gateway never became ready")

    def stop_gateway(self, p):
        """Stop the gateway and return its peak RSS in MB: VmHWM of its own
        address space, read while it still runs (see spawn.py for why not
        the rusage)."""
        with open("/proc/%d/status" % p.pid) as f:
            hwm_kb = next(int(l.split()[1]) for l in f if l.startswith("VmHWM:"))
        p.terminate()
        p.wait()
        self.procs.remove(p)
        return hwm_kb / 1024.0

    def stop_all(self):
        if self.spawner is not None:
            self.spawner.stdin.close()
        for p in self.procs:
            if p.poll() is None and p is not self.spawner:
                p.kill()
            p.wait()
        self.procs = []
        self.spawner = None


def timed_setup(run, steps):
    """Run the set-up `SETUP_REPEATS` times and record the median time;
    returns the last repetition's result."""
    result = None
    times = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        result = steps(i == SETUP_REPEATS - 1)
        times.append(time.perf_counter() - t0)
    run.values["setup_s"] = harness.median(times)
    return result


# ---------------------------------------------------------------- batch

def batch(ctx, fmt):
    """`analyze --json --ci 50` per action x class slice, cycling all
    eight slices in a seeded order; every report must equal the
    `--threads 1` reference over the container for its slice."""
    run = Run()
    asc, csv = ctx.path("batch.asc"), ctx.path("batch.csv")
    target = asc if fmt == "asc" else csv

    def setup(_last):
        ctx.cli("generate", "--scenario", BATCH_SCENARIO, "--seed", str(ctx.seed),
                "--format", fmt, "--out", target)

    timed_setup(run, setup)
    if fmt == "csv":
        # The reference comes from the container, so every CSV op also
        # checks text ≡ container for its slice.
        ctx.cli("generate", "--scenario", BATCH_SCENARIO, "--seed", str(ctx.seed),
                "--format", "asc", "--out", asc)
    refs = ctx.parallel_cli([["analyze", "--in", asc, "--json", "--ci", str(CI_REPLICATES),
                              "--action", a, "--class", c, "--threads", "1"] for a, c in SLICES])
    for (code, _), s in zip(refs, SLICES):
        if code != 0:
            raise RuntimeError("reference analyze failed for slice %s" % (s,))
    if fmt == "asc":
        # Thread-count determinism: the reports at every core must match.
        wide = ctx.parallel_cli([["analyze", "--in", asc, "--json", "--ci", str(CI_REPLICATES),
                                  "--action", a, "--class", c, "--threads", str(ctx.nproc)]
                                 for a, c in SLICES])
        for (code, out), ref, (a, c) in zip(wide, refs, SLICES):
            run.op(code == 0 and out == ref[1], "slice %s/%s differs at --threads %d" % (a, c, ctx.nproc))

    order = list(range(len(SLICES)))
    ctx.rng.shuffle(order)
    started = time.perf_counter()
    k = 0
    # Whole cycles only, so every run weighs the eight slices equally,
    # and at least three, so even the slow text path gets 24 samples.
    while k % len(order) or k < 3 * len(order) or time.perf_counter() - started < ctx.seconds:
        i = order[k % len(order)]
        a, c = SLICES[i]
        wall, code, out, rss = ctx.timed_cli(
            "analyze", "--in", target, "--json", "--ci", str(CI_REPLICATES),
            "--action", a, "--class", c, "--threads", str(ctx.threads["analyze"]))
        ok = run.op(code == 0 and out == refs[i][1], "slice %s/%s report differs" % (a, c))
        if ok:
            run.add("analyze_ms", 1e3 * wall)
            run.add("records_per_s", json.loads(out)["n_actions"] / wall)
        run.add("peak_rss_mb", rss)
        k += 1
    run.samples["freshness_ms"] = run.samples.get("analyze_ms", [])
    run.replay = {"format": fmt, "input": target, "slices": [SLICES[i] for i in order],
                  "refs": [ctx.path("ref%d.json" % i) for i in order]}
    for i in order:
        with open(ctx.path("ref%d.json" % i), "wb") as f:
            f.write(refs[i][1])
    return run


# ---------------------------------------------------------------- serve helpers

def read_pool(path):
    with open(path) as f:
        header = f.readline()
        lines = f.read().splitlines()
    return header, lines


def write_csv(path, header, lines):
    with open(path, "w") as f:
        f.write(header)
        f.write("\n".join(lines))
        f.write("\n")


def serve_setup(ctx, run, pools):
    """Set-up of a serve workload: generate the `(path, seed)` pools and
    start a gateway up to its ready file. Returns the last gateway's
    `(process, ingest address, http address)`."""
    def setup(last):
        for path, seed in pools:
            ctx.cli("generate", "--scenario", POOL_SCENARIO, "--seed", str(seed), "--out", path)
        gw = ctx.start_gateway()
        if not last:
            ctx.stop_gateway(gw[0])
        return gw

    return timed_setup(run, setup)


def accounting(run, http, sent, acked, tenants):
    """Every record sent is acked, counted by the gateway and admitted
    to exactly one tenant; nothing shed, late or duplicated."""
    fleet = wire.http_json(http, "/fleet")
    metrics = {}
    _, body = wire.http_get(http, "/metrics")
    for line in body.decode().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            metrics[name] = float(value)
    events = sum(t["events"] for t in fleet["fleet"])
    late = sum(t["late"] for t in fleet["fleet"])
    dups = sum(t["duplicates"] for t in fleet["fleet"])
    shed = metrics.get("autosens_stream_shed_events_total", 0.0)
    served = metrics.get("autosens_serve_records_total", -1.0)
    run.op(sent == acked == served == events,
           "accounting: sent %d acked %d served %d events %d" % (sent, acked, served, events))
    run.op(late == 0 and shed == 0 and dups == 0,
           "accounting: late %d shed %d duplicates %d" % (late, shed, dups))
    run.op(fleet["tenants"] == tenants, "fleet lists %d tenants, expected %d" % (fleet["tenants"], tenants))


def check_curves(ctx, run, http, header, tenants):
    """`/curve` must equal `analyze --json` over the tenant's records."""
    jobs = []
    for (svc, reg), lines in tenants:
        path = ctx.path("check_%s_%s.csv" % (svc, reg))
        write_csv(path, header, lines)
        jobs.append(["analyze", "--in", path, "--json"])
    for ((svc, reg), _), (code, expected) in zip(tenants, ctx.parallel_cli(jobs)):
        status, body = wire.http_get(http, "/tenant/%s/%s/curve" % (svc, reg))
        run.op(code == 0 and status == 200 and body == expected,
               "served curve of %s/%s differs from analyze" % (svc, reg))


# ---------------------------------------------------------------- serve-fleet

def select_windows(ctx, header, pools, n_probe):
    """Cut the pools into distinct contiguous windows and keep those the
    estimator accepts: a small window can lack the latency support the
    B/U ratio needs, and the estimator refuses it by design. A probe
    tenant's window must be accepted in every state its probes leave it
    in, so each of those states is checked too."""
    size = FLEET_PRELOAD + FLEET_PROBES_PER_TENANT * FLEET_PROBE_BATCH
    candidates = [(p, s) for p, lines in enumerate(pools)
                  for s in range(0, len(lines) - size + 1, size)]
    ctx.rng.shuffle(candidates)
    states = [FLEET_PRELOAD + k * FLEET_PROBE_BATCH for k in range(FLEET_PROBES_PER_TENANT + 1)]
    tenants, probes = [], []
    pos = 0
    while (len(tenants) < FLEET_TENANTS or len(probes) < n_probe) and pos < len(candidates):
        chunk = candidates[pos:pos + ctx.nproc]
        pos += len(chunk)
        need_probes = len(probes) < n_probe
        jobs = []
        for n, (p, s) in enumerate(chunk):
            for k, end in enumerate(states if need_probes else states[:1]):
                path = ctx.path("cand%d_%d.csv" % (n, k))
                write_csv(path, header, pools[p][s:s + end])
                jobs.append(["analyze", "--in", path, "--json"])
        res = iter(ctx.parallel_cli(jobs))
        for cand in chunk:
            ok = [next(res)[0] == 0 for _ in (states if need_probes else states[:1])]
            if not ok[0] or len(tenants) >= FLEET_TENANTS:
                continue
            tenants.append(cand)
            if need_probes and all(ok) and len(probes) < n_probe:
                probes.append(len(tenants) - 1)
    if len(tenants) < FLEET_TENANTS or len(probes) < n_probe:
        raise RuntimeError("pools too small for %d tenants" % FLEET_TENANTS)
    return tenants, probes


def serve_fleet(ctx):
    run = Run()
    pool_paths = [ctx.path("pool%d.csv" % i) for i in range(3)]
    gateway, ingest, http = serve_setup(ctx, run, [(p, ctx.seed * 16 + i) for i, p in enumerate(pool_paths)])
    header, pools = None, []
    for path in pool_paths:
        header, lines = read_pool(path)
        pools.append(lines)
    n_probes = int(ctx.seconds * FLEET_PROBE_HZ)
    tenants, probe_idx = select_windows(
        ctx, header, pools, -(-n_probes // FLEET_PROBES_PER_TENANT))
    keys = [("svc%03d" % j, "r%d" % tenants[j][0]) for j in range(len(tenants))]
    sent_lines = [pools[p][s:s + FLEET_PRELOAD] for p, s in tenants]
    frames = [wire.batch(svc, reg, [wire.encode_csv_row(l) for l in lines])
              for (svc, reg), lines in zip(keys, sent_lines)]

    # Phase 1: closed-loop preload over stop-and-wait connections, each
    # tenant one batch of its own distinct window.
    conns = [wire.IngestConn(ingest) for _ in range(ctx.threads["connections"])]
    t0 = time.perf_counter()
    for i in range(0, len(frames), len(conns)):
        group = list(zip(conns, frames[i:i + len(conns)]))
        for conn, f in group:
            conn.sock.sendall(f)
        for conn, _ in group:
            while not conn.pending:
                conn.pending.extend(conn.reader.feed(conn.sock.recv(65536)))
            kind, value = conn.pending.pop(0)
            run.op(kind == "ack", "preload: %s" % value)
            if kind == "ack":
                conn.acked = value
    preload_s = time.perf_counter() - t0
    sent = sum(len(l) for l in sent_lines)
    run.values["ingest_records_per_s"] = sent / preload_s

    # Phase 2: one cold fleet snapshot. The preloaded records are
    # visible in curves only once it is done.
    t1 = time.perf_counter()
    status, body = wire.http_get(http, "/snapshot")
    run.values["fleet_snapshot_s"] = time.perf_counter() - t1
    run.add("records_per_s", sent / (time.perf_counter() - t0))
    cold = json.loads(body) if status == 200 else {}
    run.op(status == 200 and cold.get("computed") == len(keys),
           "cold snapshot: status %d, %s" % (status, cold))

    # Phase 3: on one fixed schedule, probes that push the next batch of
    # a seeded-random probe tenant and poll its /status until the batch
    # is visible, and curve reads on quiet (never probed, so cached)
    # tenants. Both are timed from when they were due.
    order = [j for j in probe_idx for _ in range(FLEET_PROBES_PER_TENANT)]
    ctx.rng.shuffle(order)
    order = order[:n_probes]
    quiet = [j for j in range(len(keys)) if j not in probe_idx]
    start = time.perf_counter() + 0.01
    timeline = sorted(
        [(t, 1, j) for t, j in zip(harness.open_loop_schedule(start, FLEET_PROBE_HZ, len(order)), order)]
        + [(t, 0, ctx.rng.choice(quiet)) for t in harness.open_loop_schedule(
            start + 0.5 / FLEET_READ_HZ, FLEET_READ_HZ, int(ctx.seconds * FLEET_READ_HZ))])
    events = {j: FLEET_PRELOAD for j in range(len(keys))}
    probe_log = []
    conn = conns[0]
    for due, is_probe, j in timeline:
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        run.lag.sent(due, time.perf_counter())
        if not is_probe:
            status, body = wire.http_get(http, "/tenant/%s/%s/curve" % keys[j])
            if run.op(status == 200, "curve of %s/%s: %d" % (keys[j] + (status,))):
                run.add("query_ms", 1e3 * (time.perf_counter() - due))
            probe_log.append((j, 0))
            continue
        lo = events[j]
        lines = pools[tenants[j][0]][tenants[j][1] + lo:tenants[j][1] + lo + FLEET_PROBE_BATCH]
        try:
            conn.send(wire.batch(keys[j][0], keys[j][1], [wire.encode_csv_row(l) for l in lines]))
        except (RuntimeError, OSError) as e:
            run.op(False, "probe ack: %s" % e)
            continue
        run.op(True)
        run.add("ack_ms", 1e3 * (time.perf_counter() - due))
        sent_lines[j] = sent_lines[j] + lines
        sent += len(lines)
        events[j] += len(lines)
        fresh = False
        for _ in range(50):
            status, body = wire.http_get(http, "/tenant/%s/%s/status" % keys[j])
            if status != 200:
                run.op(False, "status of %s/%s: %d %s" % (keys[j] + (status, body[:200])))
                break
            if json.loads(body)["report_events"] >= events[j]:
                fresh = True
                break
        if run.op(fresh, "probe of %s/%s never became visible" % keys[j]):
            run.add("freshness_ms", 1e3 * (time.perf_counter() - due))
        probe_log.append((j, len(lines)))

    acked = sum(c.acked for c in conns)
    for c in conns:
        c.close()
    accounting(run, http, sent, acked, len(keys))
    sample = ctx.rng.sample(probe_idx, 2) + ctx.rng.sample(quiet, FLEET_CURVE_SAMPLE - 2)
    check_curves(ctx, run, http, header, [(keys[j], sent_lines[j]) for j in sample])
    run.add("peak_rss_mb", ctx.stop_gateway(gateway))
    run.replay = {"pools": pool_paths, "tenants": [(keys[j], tenants[j]) for j in range(len(keys))],
                  "probes": probe_log, "preload": FLEET_PRELOAD}
    return run


# ---------------------------------------------------------------- serve-hot

def serve_hot(ctx):
    """One tenant fed a whole pool in time order: half preloaded, the
    rest in an open loop at a fixed offered rate while one query-plane
    connection polls the same tenant on a fixed schedule."""
    run = Run()
    pool_path = ctx.path("pool.csv")
    gateway, ingest, http = serve_setup(ctx, run, [(pool_path, ctx.seed)])
    header, lines = read_pool(pool_path)
    rows = [wire.encode_csv_row(l) for l in lines]
    key = ("hot", "r0")
    split = int(len(rows) * HOT_PRELOAD_SHARE)
    conn = wire.IngestConn(ingest)
    for i in range(0, split, HOT_PRELOAD_BATCH):
        conn.send(wire.batch(key[0], key[1], rows[i:min(i + HOT_PRELOAD_BATCH, split)]))
        run.op(True)
    wire.http_json(http, "/tenant/%s/%s/status" % key)

    n_batches = min((len(rows) - split) // HOT_BATCH, int(ctx.seconds * HOT_RATE / HOT_BATCH))
    batches = [wire.batch(key[0], key[1], rows[split + b * HOT_BATCH: split + (b + 1) * HOT_BATCH])
               for b in range(n_batches)]
    start = time.monotonic() + 0.05
    due = harness.open_loop_schedule(start, HOT_RATE / HOT_BATCH, n_batches)
    cum = [split + (b + 1) * HOT_BATCH for b in range(n_batches)]
    last_ack = start
    conn.sock.setblocking(False)
    sel = selectors.DefaultSelector()
    sel.register(conn.sock, selectors.EVENT_READ, "ingest")
    out = b""
    next_batch = 0
    next_ack = 0
    next_fresh = 0
    tick = 0
    get = None
    poll_lag = harness.LagTracker()
    base_ack = conn.acked
    while next_ack < n_batches or next_fresh < n_batches or get is not None:
        now = time.monotonic()
        while next_batch < n_batches and due[next_batch] <= now:
            out += batches[next_batch]
            run.lag.sent(due[next_batch], now)
            next_batch += 1
        if out:
            try:
                out = out[conn.sock.send(out):]
            except BlockingIOError:
                pass
        tick_due = start + tick * HOT_POLL_S
        if get is None and now >= tick_due:
            path = "/tenant/%s/%s/%s" % (key + ("status" if tick % 2 == 0 else "curve",))
            get = wire.AsyncGet(http, path, tick % 2, tick_due)
            poll_lag.sent(tick_due, now)
            sel.register(get.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, "http")
            tick += 1
        wake = [tick_due if get is None else now + 0.05]
        if next_batch < n_batches:
            wake.append(due[next_batch])
        timeout = 0 if out else max(0.0, min(wake) - time.monotonic())
        for skey, mask in sel.select(timeout):
            if skey.data == "ingest":
                try:
                    data = conn.sock.recv(65536)
                except BlockingIOError:
                    continue
                if not data:
                    raise ConnectionError("gateway closed the ingest connection")
                t = time.monotonic()
                for kind, value in conn.reader.feed(data):
                    if kind != "ack":
                        raise RuntimeError("gateway error: %s" % value)
                    if value == base_ack:
                        continue
                    run.op(value - base_ack == cum[next_ack] - split, "ack count %d" % value)
                    last_ack = t
                    run.add("ack_ms", 1e3 * (t - due[next_ack]))
                    next_ack += 1
                    conn.acked = value
            else:
                if mask & selectors.EVENT_WRITE and get.want_write():
                    get.on_writable()
                    if not get.want_write():
                        sel.modify(get.sock, selectors.EVENT_READ, "http")
                elif mask & selectors.EVENT_READ and get.on_readable():
                    sel.unregister(get.sock)
                    status, body = get.response()
                    ok = run.op(status == 200, "poll %s: %d" % (get.path, status))
                    took = 1e3 * (get.done_at - get.started)
                    if get.tag == 0 and ok:
                        run.add("status_ms", took)
                        seen = json.loads(body)["report_events"]
                        while next_fresh < n_batches and cum[next_fresh] <= seen:
                            run.add("freshness_ms", 1e3 * (get.done_at - due[next_fresh]))
                            next_fresh += 1
                    elif ok:
                        run.add("curve_ms", took)
                    get = None
    sel.close()
    if n_batches:
        run.add("records_per_s", (cum[-1] - split) / (last_ack - start))
    run.values["poll_lag_ms"] = poll_lag.max_ms()
    conn.sock.setblocking(True)
    sent = cum[-1] if n_batches else split
    acked = conn.acked
    conn.close()
    accounting(run, http, sent, acked, 1)
    check_curves(ctx, run, http, header, [(key, lines[:sent])])
    run.add("peak_rss_mb", ctx.stop_gateway(gateway))
    run.replay = {"pools": [pool_path], "split": split, "sent": sent, "batch": HOT_BATCH,
                  "preload_batch": HOT_PRELOAD_BATCH,
                  "batches_per_tick": HOT_RATE * HOT_POLL_S / HOT_BATCH}
    return run


WORKLOADS = {
    "batch-asc": lambda ctx: batch(ctx, "asc"),
    "batch-csv": lambda ctx: batch(ctx, "csv"),
    "serve-fleet": serve_fleet,
    "serve-hot": serve_hot,
}
