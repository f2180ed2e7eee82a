#!/usr/bin/env python3
"""The repository benchmark: the bitlevel-design daemon under three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload warm-serve --seed 1 --seconds 15 --trace 0

It builds the daemon and the load generator from source (into
.bench_build/perfbench), starts `bitlevel-design --serve` on a Unix socket,
warms the workload's plans, drives the workload at it in a closed loop for
--seconds, checks every response and prints one JSON object as the last line
of standard output. --trace 0 prints the end-to-end metrics; --trace 1 prints
the per-layer metrics, from the daemon's envelopes and counters and from a
traced in-process replay of a fixed prefix of the workload.

Other modes:
    --self-test        generator determinism, a tiny run of every workload in
                       both trace modes, and a wrong digest must fail
    --record-digests   run every digest key once and rewrite digests.json

Exit status is non-zero when the build fails, any response fails its check,
a digest differs, or the daemon does not drain cleanly. See README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
DIGESTS = HERE / "digests.json"
BUILD_TYPE = "RelWithDebInfo"

WORKLOADS = ("warm-serve", "bulk-throughput", "cold-compose")
CLIENTS = {"warm-serve": 2, "bulk-throughput": 1, "cold-compose": 4}
# Set-ups per run; setup_s is their median.
SETUPS = {"warm-serve": 3, "bulk-throughput": 3, "cold-compose": 9}
# Requests the traced replay covers (a fixed prefix of the sequence).
TRACE_PREFIX = {"warm-serve": 200, "bulk-throughput": 3, "cold-compose": 60}
# The traced replay's per-request span sums must land within this share of
# the daemon's exec_us for the same requests, as a median (README: "Traced
# run").
EXEC_GAP_TOLERANCE_PCT = 50.0

END_TO_END = {
    "setup_s": "s",
    "req_per_s": "req/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "sim_events_per_s": "events/s",
    "peak_rss_mb": "MB",
}

SPAN_LAYERS = ("request", "parse_request", "get_or_compose", "make_safe_workload", "run_plan",
               "run_batch", "compose_tiled", "run_tiled", "evaluate_word_reference", "emit")

PER_LAYER = {
    "serve.queue_us_p50": "us", "serve.queue_us_p99": "us", "serve.exec_us_p50": "us",
    "serve.parse_us_p50": "us", "serve.emit_us_p50": "us",
    "serve.coalesced_groups": "count", "serve.coalesced_items": "count",
    "serve.rejected": "count",
    "client.wire_us_p50": "us",
    "cache.hit_ratio": "fraction", "cache.evictions": "count", "cache.resident_mb": "MB",
    "compose.resolve_ms": "ms", "compose.expand_ms": "ms", "compose.map_ms": "ms",
    "compose.machine_ms": "ms", "compose.compile_ms": "ms", "compose.total_ms": "ms",
    "workload.gen_us_per_item": "us",
    "engine.run_plan_ms_p50": "ms", "engine.run_batch_ms_p50": "ms",
    "engine.ns_per_sim_event": "ns", "engine.compiled_item_share": "fraction",
    "engine.lane_width": "lanes", "engine.threads_used": "threads",
    "engine.peak_live_slots": "slots",
    "verify.us_per_item": "us",
    "tiling.compose_ms": "ms", "tiling.run_ms_p50": "ms", "tiling.tiles_per_s": "tiles/s",
    "daemon.cpu_ms_per_req": "ms",
    "trace.overhead_pct": "%", "trace.exec_gap_pct": "%",
    "error_rate": "fraction",
}
PER_LAYER.update({f"self.{name}_ms": "ms" for name in SPAN_LAYERS})


class BenchError(Exception):
    """A failure that must end the run with a non-zero status."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build():
    """Configure and build the daemon and the load generator; idempotent."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no bitlevel sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    logfile = BUILD.parent / "perfbench-build.log"
    with open(logfile, "w") as out:
        if not (BUILD / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                raise BenchError(f"cmake configure failed; see {logfile}")
        cmd = ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)]
        if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
            raise BenchError(f"build failed; see {logfile}")


def compiler():
    """'<id> <version>' of the C++ compiler CMake picked, from its cache."""
    for cfg in BUILD.glob("CMakeFiles/*/CMakeCXXCompiler.cmake"):
        fields = {}
        for line in cfg.read_text().splitlines():
            for name in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                if line.startswith(f"set({name} "):
                    fields[name] = line.split('"')[1]
        return " ".join(fields.get(n, "?") for n in ("CMAKE_CXX_COMPILER_ID",
                                                     "CMAKE_CXX_COMPILER_VERSION"))
    return "unknown"


def git_revision():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def perfbench(*args):
    out = subprocess.run([str(BUILD / "perfbench"), *map(str, args)], capture_output=True,
                         text=True, timeout=120)
    if out.returncode != 0:
        raise BenchError(f"perfbench {args[0]} failed: {out.stderr.strip()}")
    return out.stdout


# ------------------------------------------------------------------ daemon

class Daemon:
    """One bitlevel-design --serve child on a Unix socket inside the checkout."""

    def __init__(self, tag):
        OUT.mkdir(parents=True, exist_ok=True)
        # A relative path keeps sun_path short however deep the checkout is.
        # (every path is relative to ROOT, the working directory).
        self.sock = os.path.relpath(OUT / f"d{os.getpid()}-{tag}.sock", ROOT)
        self.endpoint = f"unix:{self.sock}"
        self.proc = None
        self.conn = None

    def start(self):
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        self.proc = subprocess.Popen(
            [str(BUILD / "bitlevel-design"), "--serve", "--listen", self.endpoint],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        banner = self.proc.stderr.readline()
        if "serving on" not in banner:
            self.kill()
            raise BenchError(f"daemon did not start: {banner.strip()!r}")
        self.conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.conn.settimeout(170)
        self.conn.connect(self.sock)
        self.reader = self.conn.makefile("r")
        self.request({"action": "stats"})

    def request(self, obj):
        self.conn.sendall((json.dumps(obj) + "\n").encode())
        line = self.reader.readline()
        if not line:
            raise BenchError("daemon closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            raise BenchError(f"daemon answered {obj} with {response}")
        return response

    def stats(self):
        return self.request({"action": "stats"})["result"]

    def proc_status(self):
        """(VmHWM in MB, utime+stime in ms) of the daemon process."""
        hwm_kb = 0
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    hwm_kb = int(line.split()[1])
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return hwm_kb / 1024.0, ticks * 1000.0 / os.sysconf("SC_CLK_TCK")

    def stop(self):
        """Graceful drain; returns the drain report (leaked_plans must be 0)."""
        if self.conn is not None:
            self.reader.close()
            self.conn.close()
            self.conn = None
        self.proc.send_signal(signal.SIGTERM)
        try:
            _, err = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("daemon did not drain within 60 s")
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        report = None
        for line in err.splitlines():
            if line.startswith("{"):
                report = json.loads(line)
        if self.proc.returncode != 0 or report is None or report.get("leaked_plans") != 0:
            raise BenchError(f"daemon drain failed (exit {self.proc.returncode}): {err.strip()}")
        return report

    def kill(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def setup_daemon(warm_lines, tag):
    """Launch, wait for the socket, warm the workload's plans; returns (daemon, seconds)."""
    daemon = Daemon(tag)
    started = time.perf_counter()
    daemon.start()
    for line in warm_lines:
        response = daemon.request(json.loads(line))
        if response.get("status") != 0:
            daemon.kill()
            raise BenchError(f"warm-up request failed: {line}")
    return daemon, time.perf_counter() - started


# ------------------------------------------------------------------ checks

def matmul_eq45(u, p):
    """Eq. 4.5: cycles and PE count of the Fig. 4 bit-level matmul array."""
    return 3 * (u - 1) + 3 * (p - 1) + 1, u * u * p * p


def digest_stats(action, result):
    """The simulated statistics a digest pins, per action."""
    if action == "simulate":
        return [result["cycles"], result["processors"], result["computations"]]
    if action == "batch":
        return [result["cycles_per_pass"], result["processors"]]
    if action == "tiled":
        return [result["cycles_per_tile"], result["processors"], result["tiles_executed"]]
    designs = result["designs"]
    return [len(designs), designs[0]["time"], designs[0]["processors"]]


def check_response(key, request, response, digests):
    """Return (problem or None, digest stats or None)."""
    if response.get("id") != request["id"]:
        return f"id {response.get('id')} answers request {request['id']}", None
    if not response.get("ok"):
        return f"error envelope {response.get('error')}", None
    action = request["action"]
    result = response["result"]
    if response.get("status") != 0:
        return f"status {response.get('status')}", None
    if action in ("simulate", "batch", "tiled") and result.get("correct") is not True:
        return "result not correct", None
    if action == "design" and not result.get("designs"):
        return "no design listed", None
    stats = digest_stats(action, result)
    if request["kernel"] == "matmul" and action in ("simulate", "batch"):
        if stats[:2] != list(matmul_eq45(request["u"], request["p"])):
            return f"eq. 4.5 violated: cycles/PEs {stats[:2]}", stats
    expected = digests.get(key)
    if expected is None:
        return f"no recorded digest for {key}", stats
    if stats != expected:
        return f"digest {stats} != recorded {expected}", stats
    return None, stats


def events_of(action, key, result, request, digests):
    """Simulated PE computations a passed response stands for."""
    if action == "simulate":
        return result["computations"]
    if action == "batch":
        return request["batch"] * digests[key.replace("batch:", "simulate:", 1)][2]
    if action == "tiled":
        return result["tiles_executed"] * digests[tile_key(result, request)][2]
    return 0


def tile_key(result, request):
    tile = result["tile"]
    return (f"simulate:matmul_rect:u={tile['m']},v={tile['n']},w={tile['k']}"
            f":p={request['p']}:{request.get('expansion', 'II')}")


def quantile(values, q):
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_digest(observed):
    text = json.dumps(sorted(observed.items()), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load(daemon, workload, seed, out, **kw):
    """Drive the closed-loop generator; returns (header, records)."""
    args = ["load", "--workload", workload, "--seed", seed, "--endpoint", daemon.endpoint,
            "--out", out]
    for name, value in kw.items():
        args += [f"--{name}", value]
    perfbench(*args)
    with open(out) as f:
        header = json.loads(f.readline())
        records = []
        for line in f:
            index, send_ns, rtt_ns, key, request, response = line.rstrip("\n").split("\t", 5)
            records.append({"index": int(index), "send_ns": int(send_ns), "rtt_ns": int(rtt_ns),
                            "key": key, "request": json.loads(request),
                            "response": json.loads(response)})
    os.unlink(out)
    return header, records


def score(records, digests):
    """Check every record; returns (failures, observed digest map, events)."""
    failures, observed, events = [], {}, 0
    for r in records:
        problem, stats = check_response(r["key"], r["request"], r["response"], digests)
        if stats is not None:
            observed[r["key"]] = stats
        if problem is None:
            events += events_of(r["request"]["action"], r["key"], r["response"]["result"],
                                r["request"], digests)
        else:
            failures.append(f"request {r['index']} ({r['key']}): {problem}")
        r["passed"] = problem is None
    return failures, observed, events


# ------------------------------------------------------------------ runs

def hygiene(args):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "build_type": BUILD_TYPE,
        "compiler": compiler(), "git_revision": git_revision(),
        "bitlevel_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("BITLEVEL_")},
        "clients": CLIENTS[args.workload],
    }


def measured_phase(args, digests):
    """Set-ups, then the timed closed loop. Returns (metrics, report)."""
    workload, seed = args.workload, args.seed
    warm_lines = perfbench("warm", "--workload", workload).splitlines()
    setups = []
    daemon = None
    for i in range(SETUPS[workload] if args.trace == 0 else 1):
        if daemon is not None:
            daemon.stop()
        daemon, seconds = setup_daemon(warm_lines, f"s{i}")
        setups.append(seconds)
    try:
        prefix = None
        if args.trace:
            # The traced prefix, served one at a time, gives exec_us to
            # compare the span sums against; the timed loop continues after it.
            _, prefix = load(daemon, workload, seed, OUT / f"prefix-{os.getpid()}.tsv",
                             clients=1, count=TRACE_PREFIX[workload])
        before = daemon.stats()
        _, cpu_before = daemon.proc_status()
        header, records = load(daemon, workload, seed, OUT / f"load-{os.getpid()}.tsv",
                               clients=CLIENTS[workload], seconds=args.seconds,
                               first=TRACE_PREFIX[workload] if args.trace else 0)
        after = daemon.stats()
        rss_mb, cpu_after = daemon.proc_status()
    except BaseException:
        daemon.kill()
        raise
    drain = daemon.stop()

    failures, observed, events = score(records, digests)
    report_file = OUT / f"report-{workload}-{seed}-t{args.trace}.json"
    with open(report_file, "w") as f:
        json.dump([{"index": r["index"], "key": r["key"], "send_ns": r["send_ns"],
                    "rtt_ns": r["rtt_ns"], "queue_us": r["response"].get("queue_us"),
                    "exec_us": r["response"].get("exec_us"), "passed": r["passed"]}
                   for r in records], f)
    if prefix is not None:
        prefix_failures, _, _ = score(prefix, digests)
        failures += prefix_failures
    elapsed_s = header["elapsed_ns"] / 1e9
    rtts_ms = [r["rtt_ns"] / 1e6 for r in records]
    passed = sum(r["passed"] for r in records)
    metrics = {
        "setup_s": statistics.median(setups),
        "req_per_s": passed / elapsed_s,
        "latency_p50_ms": quantile(rtts_ms, 0.50),
        "latency_p99_ms": quantile(rtts_ms, 0.99),
        "sim_events_per_s": events / elapsed_s,
        "peak_rss_mb": rss_mb,
    }
    report = {
        "records": records, "prefix": prefix, "before": before, "after": after,
        "cpu_ms": cpu_after - cpu_before, "failures": failures, "observed": observed,
        "digest": run_digest(observed), "samples": len(records), "elapsed_s": elapsed_s,
        "setups_s": setups, "drain": drain, "report_file": str(report_file),
        "exhausted": header["exhausted"],
    }
    return metrics, report


def layer_metrics(args, report):
    """Per-layer metrics from the daemon run and the traced replay."""
    workload, seed = args.workload, args.seed
    records = report["records"]
    m = {name: 0.0 for name in PER_LAYER}
    queue = [r["response"].get("queue_us", 0) for r in records]
    execs = [r["response"].get("exec_us", 0) for r in records]
    wire = [r["rtt_ns"] / 1e3 - q - e for r, q, e in zip(records, queue, execs)]
    m["serve.queue_us_p50"] = quantile(queue, 0.50)
    m["serve.queue_us_p99"] = quantile(queue, 0.99)
    m["serve.exec_us_p50"] = quantile(execs, 0.50)
    m["client.wire_us_p50"] = quantile(wire, 0.50)
    sb, sa = report["before"]["server"], report["after"]["server"]
    cb, ca = report["before"]["plan_cache"], report["after"]["plan_cache"]
    m["serve.coalesced_groups"] = sa["coalesced_groups"] - sb["coalesced_groups"]
    m["serve.coalesced_items"] = sa["coalesced_items"] - sb["coalesced_items"]
    m["serve.rejected"] = sum(sa[k] - sb[k] for k in
                              ("rejected_overloaded", "rejected_oversized", "rejected_deadline"))
    hits, misses = ca["hits"] - cb["hits"], ca["misses"] - cb["misses"]
    m["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["cache.evictions"] = ca["evictions"] - cb["evictions"]
    m["cache.resident_mb"] = ca["resident_bytes"] / 2**20
    m["daemon.cpu_ms_per_req"] = report["cpu_ms"] / len(records)
    m["error_rate"] = len(report["failures"]) / (len(records) + len(report["prefix"]))

    trace_file = OUT / f"trace-{workload}-{seed}-{os.getpid()}.json"
    perfbench("trace", "--workload", workload, "--seed", seed,
              "--count", TRACE_PREFIX[workload], "--out", trace_file)
    with open(trace_file) as f:
        trace = json.load(f)
    if not trace["untraced_ok"] or not all(r["ok"] for r in trace["requests"]):
        report["failures"].append("traced replay produced an incorrect or failed request")

    spans = trace["spans"]
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    by_name, self_ns = {}, {name: 0 for name in SPAN_LAYERS}
    for s, covered in zip(spans, child_ns):
        name = "emit" if s["name"].startswith("emit_") else s["name"]
        by_name.setdefault(name, []).append(s["end_ns"] - s["start_ns"])
        self_ns[name] += s["end_ns"] - s["start_ns"] - covered
    for name in SPAN_LAYERS:
        m[f"self.{name}_ms"] = self_ns[name] / 1e6

    def p50(name, scale):
        return quantile(by_name[name], 0.5) / scale if name in by_name else 0.0

    requests = trace["requests"]
    m["serve.parse_us_p50"] = p50("parse_request", 1e3)
    m["serve.emit_us_p50"] = p50("emit", 1e3)
    composes = [r["timings"] for r in requests if r["compose_miss"]] + trace["setup_composes"]
    if composes:
        for stage in ("resolve", "expand", "map", "machine", "compile", "total"):
            m[f"compose.{stage}_ms"] = quantile([c[f"{stage}_ms"] for c in composes], 0.5)
    items = sum(r["items"] for r in requests)
    gen = by_name.get("make_safe_workload", [])
    m["workload.gen_us_per_item"] = sum(gen) / len(gen) / 1e3 if gen else 0.0
    m["engine.run_plan_ms_p50"] = p50("run_plan", 1e6)
    m["engine.run_batch_ms_p50"] = p50("run_batch", 1e6)
    engine_ns = sum(sum(by_name.get(n, [])) for n in ("run_plan", "run_batch", "run_tiled"))
    events = sum(r["events"] for r in requests)
    m["engine.ns_per_sim_event"] = engine_ns / events if events else 0.0
    batched = [r for r in requests if r["action"] in ("batch", "tiled")]
    batched_items = sum(r["items"] for r in batched)
    m["engine.compiled_item_share"] = (sum(r["compiled_items"] for r in batched) / batched_items
                                       if batched_items else 0.0)
    m["engine.lane_width"] = max((r["lane_width"] for r in requests), default=0)
    ran = [r for r in requests if r["items"]]
    m["engine.threads_used"] = quantile([r["threads_used"] for r in ran], 0.5) if ran else 0.0
    m["engine.peak_live_slots"] = max((r["peak_live_slots"] for r in ran), default=0)
    verify = by_name.get("evaluate_word_reference", [])
    m["verify.us_per_item"] = sum(verify) / items / 1e3 if items else 0.0
    m["tiling.compose_ms"] = p50("compose_tiled", 1e6)
    m["tiling.run_ms_p50"] = p50("run_tiled", 1e6)
    tiled = [r for r in requests if r["action"] == "tiled"]
    tiled_ns = sum(by_name.get("run_tiled", []))
    m["tiling.tiles_per_s"] = sum(r["items"] for r in tiled) / (tiled_ns / 1e9) if tiled_ns else 0.0
    traced = sum(r["traced_ns"] for r in requests)
    untraced = sum(r["untraced_ns"] for r in requests)
    m["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    exec_us = {r["index"]: r["response"]["exec_us"] for r in report["prefix"]}
    gaps = [r["traced_ns"] / 1e3 / exec_us[r["index"]] - 1.0 for r in requests
            if exec_us.get(r["index"])]
    m["trace.exec_gap_pct"] = 100.0 * quantile(gaps, 0.5)
    report["trace_file"] = str(trace_file)
    report["exec_gap_within_tolerance"] = abs(m["trace.exec_gap_pct"]) <= EXEC_GAP_TOLERANCE_PCT
    return m


def run(args):
    digests = json.loads(Path(args.digests or DIGESTS).read_text())
    build()
    info = hygiene(args)
    metrics, report = measured_phase(args, digests["keys"])
    if args.trace:
        values, units = layer_metrics(args, report), PER_LAYER
    else:
        values, units = metrics, END_TO_END
    info.update(samples=report["samples"], elapsed_s=report["elapsed_s"],
                setups_s=report["setups_s"], digest=report["digest"],
                report_file=report["report_file"], sequence_exhausted=report["exhausted"],
                failures=report["failures"][:20])
    if args.trace:
        info.update(trace_file=report["trace_file"],
                    exec_gap_within_tolerance=report["exec_gap_within_tolerance"],
                    exec_gap_tolerance_pct=EXEC_GAP_TOLERANCE_PCT)
    print(json.dumps({"run": info}))
    for failure in report["failures"][:20]:
        log(failure)
    attempted = report["samples"] + len(report["prefix"] or [])
    result = {
        "correct": not report["failures"],
        "attempted": attempted,
        "failed": len(report["failures"]),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


# ------------------------------------------------------------------ digests

def record_digests():
    """Run every digest key once, sequentially, and rewrite digests.json."""
    build()
    lines = []
    for workload, count in (("warm-serve", 64), ("bulk-throughput", 3), ("cold-compose", 10**6)):
        for row in perfbench("gen", "--workload", workload, "--seed", 0,
                             "--count", count).splitlines():
            key, line = row.split("\t", 1)
            lines.append((key, json.loads(line)))
    # Computations per pass of the plans batch and tiled requests run on.
    lines.append(("simulate:matmul:u=8:p=8:II",
                  {"id": 0, "action": "simulate", "kernel": "matmul", "u": 8, "p": 8}))
    lines.append(("simulate:matmul_rect:u=8,v=8,w=128:p=8:II",
                  {"id": 0, "action": "simulate", "kernel": "matmul_rect", "u": 8, "v": 8,
                   "w": 128, "p": 8}))
    daemon = Daemon("record")
    daemon.start()
    keys, problems = {}, []
    try:
        for key, request in lines:
            daemon.conn.sendall((json.dumps(request) + "\n").encode())
            response = json.loads(daemon.reader.readline())
            problem, stats = check_response(key, request, response, {})
            if problem != f"no recorded digest for {key}":
                problems.append(f"{key}: {problem}")
                continue
            keys[key] = stats
    finally:
        daemon.stop()
    for p in problems:
        log(p)
    rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(keys.items()))
    DIGESTS.write_text(f'{{"keys": {{\n{rows}\n}}}}\n')
    log(f"recorded {len(keys)} keys, {len(problems)} problems")
    return 1 if problems else 0


# ------------------------------------------------------------------ self-test

def self_test():
    """Generator determinism, every metric on a tiny run, a wrong digest fails."""
    build()
    failures = []
    for workload in WORKLOADS:
        a = perfbench("gen", "--workload", workload, "--seed", 7, "--count", 50)
        b = perfbench("gen", "--workload", workload, "--seed", 7, "--count", 50)
        c = perfbench("gen", "--workload", workload, "--seed", 8, "--count", 50)
        if a != b or a == c or len(a.splitlines()) != 50:
            failures.append(f"{workload}: generator not deterministic per seed")

    def tiny(workload, trace, digests=None):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace)]
        if digests:
            cmd += ["--digests", str(digests)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=175)
        lines = out.stdout.strip().splitlines()
        return out.returncode, json.loads(lines[-1]) if lines else None

    for workload in WORKLOADS:
        for trace, units in ((0, END_TO_END), (1, PER_LAYER)):
            code, result = tiny(workload, trace)
            got = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
            if code != 0 or not result["correct"] or got != units:
                failures.append(f"{workload} --trace {trace}: exit {code}, result {result}")
            else:
                log(f"self-test: {workload} --trace {trace} ok")
    wrong = json.loads(DIGESTS.read_text())
    wrong["keys"]["simulate:matmul:u=3:p=5:II"][0] += 1
    OUT.mkdir(parents=True, exist_ok=True)
    wrong_file = OUT / "wrong-digests.json"
    wrong_file.write_text(json.dumps(wrong))
    code, result = tiny("warm-serve", 0, wrong_file)
    if code == 0 or result is None or result["correct"]:
        failures.append(f"a wrong digest passed: exit {code}, result {result}")
    else:
        log("self-test: wrong digest rejected")
    for f in failures:
        log(f"self-test FAILED: {f}")
    print(json.dumps({"self_test": "failed" if failures else "passed"}))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", help="digest file to check against (default: digests.json)")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    try:
        if args.self_test:
            return self_test()
        if args.record_digests:
            return record_digests()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0 or args.seconds < 1:
            parser.error("--seed must be >= 0 and --seconds >= 1")
        return run(args)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
