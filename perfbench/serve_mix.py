"""serve-mix: an open loop of ``POST /v1/match`` against a ``repro serve`` process.

Requests are due at a fixed rate and each is timed from its due time, so a
stall shows in the latency of every request queued behind it.  The mix draws
from a dozen suite graphs x {g-pr, hk, pr, g-hkdw} x two tenants at the
``small`` profile.  Four fifths of the requests repeat an earlier recipe
(result cache reads next to cache fills); the rest carry a fresh graph seed,
so the server generates a graph and solves it.  The load comes from one process
with two threads, each holding one keep-alive connection.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from statistics import median

from perfbench.common import (
    ROOT,
    SOLVER_LAYERS,
    Outcome,
    add_solve,
    child_env,
    fill_per_layer,
    geomean,
    matching_problem,
    percentile,
    trace_metrics,
    traced_replays,
)
from perfbench.spans import Tracer
from repro.core.api import resolve_algorithm
from repro.engine import Engine
from repro.generators.suite import generate_instance
from repro.server.protocol import GraphCache, build_job, parse_request, result_row
from repro.seq.verify import is_valid_matching
from repro.service.cache import ResultCache

PROFILE = "small"
#: Requests due per second.  A hit that arrives while a worker solves waits
#: for the GIL, so the hits' latency climbs with the server's busy share;
#: at this rate the server is busy about a seventh of the time, and the
#: hits up to the median and beyond are served as fast as a lone hit.
RATE = 25.0
CONNECTIONS = 2
SERVER_WORKERS = 2
#: Four fifths of the requests repeat an earlier recipe, so the median
#: request takes the cache-hit path and the p90 one is the median miss
#: (generate + solve); at an even split the median would sit between the
#: two and jump from run to run.
REPEAT_SHARE = 0.8
SETUP_SPAWNS = 5
#: A run whose generator ran later than this at p90 is invalid: it would
#: measure the load generator's scheduling, not the server.
LATE_LIMIT_MS = 5.0
GRAPHS = (
    "amazon0505", "coPapersDBLP", "flickr", "eu-2005", "kron_g500-logn20", "roadNet-PA",
    "in-2004", "as-Skitter", "roadNet-CA", "wikipedia-20070206", "patents",
    "hugetrace-00000",
)
ALGORITHMS = ("g-pr", "hk", "pr", "g-hkdw")
TENANTS = ("tenant-a", "tenant-b")


@dataclass(frozen=True)
class Recipe:
    graph: str
    seed: int
    algorithm: str


@dataclass(frozen=True)
class Request:
    due: float  # seconds after the start of the loop
    tenant: str
    recipe: Recipe

    def payload(self) -> dict:
        return {"tenant": self.tenant, "graph": self.recipe.graph, "profile": PROFILE,
                "seed": self.recipe.seed, "algorithm": self.recipe.algorithm}


@dataclass
class Sample:
    due: float
    picked: float
    sent: float
    done: float
    status: int
    row: dict | None


def make_schedule(seed: int, count: int, rate: float = RATE) -> list[Request]:
    """The request schedule, a function of ``seed`` alone.

    Fresh recipes deal (graph, algorithm) pairs from a shuffled deck of all
    pairs, so every run serves the same mix and only the graphs' seeds, the
    order, the tenants and the repeats differ between runs.
    """
    rng = random.Random(seed)
    seen: list[Recipe] = []
    deck: list[tuple[str, str]] = []
    schedule = []
    for i in range(count):
        if seen and rng.random() < REPEAT_SHARE:
            recipe = rng.choice(seen)
        else:
            if not deck:
                deck = [(g, a) for g in GRAPHS for a in ALGORITHMS]
                rng.shuffle(deck)
            graph, algorithm = deck.pop()
            recipe = Recipe(graph, rng.randrange(1, 2**31), algorithm)
            seen.append(recipe)
        schedule.append(Request(i / rate, rng.choice(TENANTS), recipe))
    return schedule


# ------------------------------------------------------------------- server
def spawn_server() -> tuple[subprocess.Popen, int, float]:
    """Start ``repro serve``; returns the process, its port and spawn->ready seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--backend", "thread",
         "--workers", str(SERVER_WORKERS), "--profile", PROFILE],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    ready, _, _ = select.select([proc.stdout], [], [], 60)
    line = proc.stdout.readline() if ready else ""
    elapsed = time.perf_counter() - start
    try:
        port = json.loads(line)["port"]
    except (ValueError, KeyError):
        stop_server(proc)
        raise RuntimeError(f"repro serve did not report ready: {line!r}") from None
    return proc, port, elapsed


def stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def server_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def _post(conn: http.client.HTTPConnection, payload: dict) -> tuple[int, dict | None]:
    conn.request("POST", "/v1/match", json.dumps(payload),
                 {"Content-Type": "application/json"})
    response = conn.getresponse()
    body = response.read()
    try:
        return response.status, json.loads(body)
    except ValueError:
        return response.status, None


def scrape(port: int) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/metrics")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def warm_up(port: int) -> None:
    """Pay lazy imports and first-call costs before timing (seed 0 is never
    drawn by the schedule, so these entries are never hit)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        for i, graph in enumerate(GRAPHS):
            _post(conn, {"graph": graph, "seed": 0, "algorithm": ALGORITHMS[i % len(ALGORITHMS)]})
    finally:
        conn.close()


def drive(port: int, schedule: list[Request]) -> list[Sample]:
    """Send ``schedule`` open-loop over :data:`CONNECTIONS` connections."""
    samples: list[Sample | None] = [None] * len(schedule)
    bodies = [json.dumps(r.payload()) for r in schedule]
    lock = threading.Lock()
    cursor = [0]
    t0 = time.perf_counter() + 0.05

    def worker() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(schedule):
                    return
                due = t0 + schedule[i].due
                picked = time.perf_counter()
                if picked < due:
                    time.sleep(due - picked)
                sent = time.perf_counter()
                try:
                    conn.request("POST", "/v1/match", bodies[i],
                                 {"Content-Type": "application/json"})
                    response = conn.getresponse()
                    status, body = response.status, response.read()
                except (OSError, http.client.HTTPException):
                    conn.close()
                    status, body = 0, b""
                try:
                    row = json.loads(body)
                except ValueError:
                    row = None
                samples[i] = Sample(due, picked, sent, time.perf_counter(), status, row)
        finally:
            conn.close()

    # The calling thread is one of the senders, so the load takes exactly
    # CONNECTIONS threads.
    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS - 1)]
    for thread in threads:
        thread.start()
    worker()
    for thread in threads:
        thread.join()
    return samples


# --------------------------------------------------------------------- gate
@dataclass
class Expected:
    cardinality: int
    n_edges: int
    modeled_ms: float | None = None


def expected_outputs(schedule: list[Request]) -> tuple[dict, list[str]]:
    """In-process results per recipe: HK's cardinality, plus for g-pr recipes
    G-PR's modeled time.  Returns them and the problems found on the way:
    every matching is validated and G-PR must agree with HK."""
    expected: dict[Recipe, Expected] = {}
    by_graph: dict[tuple, Expected] = {}
    problems = []
    hk = resolve_algorithm("hk")
    gpr = resolve_algorithm("g-pr")
    for recipe in {r.recipe for r in schedule}:
        key = (recipe.graph, recipe.seed)
        graph = generate_instance(recipe.graph, profile=PROFILE, seed=recipe.seed)
        if key not in by_graph:
            result = hk.run(graph)
            if not is_valid_matching(graph, result.matching):
                problems.append(f"in-process HK on {key}: invalid matching")
            by_graph[key] = Expected(result.cardinality, graph.n_edges)
        reference = by_graph[key]
        modeled = None
        if recipe.algorithm == "g-pr":
            result = gpr.run(graph)
            problem = matching_problem(graph, result, reference.cardinality)
            if problem:
                problems.append(f"in-process G-PR on {key}: {problem}")
            modeled = result.modeled_time * 1e3
        expected[recipe] = Expected(reference.cardinality, reference.n_edges, modeled)
    return expected, problems


def check_rows(schedule, samples, expected) -> list[str]:
    problems = []
    for request, sample in zip(schedule, samples):
        row = sample.row or {}
        want = expected[request.recipe].cardinality
        if sample.status != 200 or row.get("status") != "ok":
            problems.append(f"{request.recipe}: HTTP {sample.status} status {row.get('status')}")
        elif row.get("cardinality") != want:
            problems.append(f"{request.recipe}: cardinality {row.get('cardinality')} != {want}")
    return problems


# ------------------------------------------------------------------ measure
def server_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds the server process has used so far."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@dataclass
class TimedRun:
    spawns: list  # spawn -> ready seconds
    schedule: list
    samples: list
    expected: dict
    before: dict  # /metrics before and after the timed loop
    after: dict
    rss_mb: float
    busy_share: float  # server CPU seconds / loop wall seconds
    late_p90_ms: float


def timed_run(seed: int, seconds: float, out: Outcome) -> TimedRun:
    """Spawn, warm up, drive the schedule and scrape; shared by both modes."""
    spawns = []
    for _ in range(SETUP_SPAWNS - 1):
        proc, _, elapsed = spawn_server()
        stop_server(proc)
        spawns.append(elapsed)
    proc, port, elapsed = spawn_server()
    spawns.append(elapsed)
    try:
        warm_up(port)
        before = scrape(port)
        schedule = make_schedule(seed, max(20, int(RATE * seconds)))
        cpu, start = server_cpu_seconds(proc.pid), time.perf_counter()
        samples = drive(port, schedule)
        busy = (server_cpu_seconds(proc.pid) - cpu) / (time.perf_counter() - start)
        after = scrape(port)
        rss = server_peak_rss_mb(proc.pid)
    finally:
        stop_server(proc)
    expected, problems = expected_outputs(schedule)
    out.tally(problems, len(expected))
    out.tally(check_rows(schedule, samples, expected), len(schedule))
    late_ms = [(s.sent - max(s.due, s.picked)) * 1e3 for s in samples]
    late_p90 = percentile(late_ms, 90)
    if late_p90 > LATE_LIMIT_MS:
        out.invalid.append(
            f"load generator ran late: p90 {late_p90:.3f} ms > {LATE_LIMIT_MS} ms"
        )
    return TimedRun(spawns, schedule, samples, expected, before, after, rss, busy, late_p90)


def measure(seed: int, seconds: float) -> Outcome:
    out = Outcome("serve-mix")
    run = timed_run(seed, seconds, out)
    schedule, samples, expected = run.schedule, run.samples, run.expected
    latency_ms = [(s.done - s.due) * 1e3 for s in samples]
    misses = [
        (r, s.row) for r, s in zip(schedule, samples)
        if s.status == 200 and s.row and s.row.get("status") == "ok" and not s.row["cached"]
    ]

    # Per (graph, algorithm) pair, the miss the server solved fastest: each
    # pair is served several times a run with fresh graph seeds, and a solve
    # that shared the GIL with the other worker or met a slow spell of the
    # host only ever took longer.
    fastest: dict = {}
    for r, row in misses:
        pair = (r.recipe.graph, r.recipe.algorithm)
        if pair not in fastest or row["seconds"] < fastest[pair][1]["seconds"]:
            fastest[pair] = (r, row)

    def miss_wall_ms(algorithm):
        return [row["seconds"] * 1e3 for r, row in fastest.values()
                if r.recipe.algorithm == algorithm]

    gpr_modeled = [
        expected[recipe].modeled_ms
        for recipe in {r.recipe for r in schedule if r.recipe.algorithm == "g-pr"}
    ]
    out.put("setup_s", median(run.spawns), len(run.spawns))
    out.put("throughput_eps",
            geomean(expected[r.recipe].n_edges / row["seconds"] for r, row in fastest.values()),
            len(misses))
    out.put("pass_s", max(s.done for s in samples) - samples[0].due, len(samples))
    out.put("latency_p50_ms", median(latency_ms), len(latency_ms))
    out.put("latency_p90_ms", percentile(latency_ms, 90), len(latency_ms))
    out.put("gpr_wall_geomean_ms", geomean(miss_wall_ms("g-pr")), len(miss_wall_ms("g-pr")))
    out.put("ghkdw_wall_geomean_ms", geomean(miss_wall_ms("g-hkdw")),
            len(miss_wall_ms("g-hkdw")))
    out.put("gpr_modeled_geomean_ms", geomean(gpr_modeled), len(gpr_modeled))
    out.put("peak_rss_mb", run.rss_mb, 1)
    return out


# ------------------------------------------------------------- traced replay
def replay(schedule: list[Request], tracer: Tracer):
    """The server's path for each request, in-process and one at a time:
    parse, build the job (graph cache), result cache, engine, encode."""
    graphs = GraphCache()
    results = ResultCache(1024)
    engine = Engine("thread", max_workers=SERVER_WORKERS)
    bodies = [json.dumps(r.payload()).encode() for r in schedule]
    records = []
    start = time.perf_counter()
    try:
        for i, body in enumerate(bodies):
            with tracer.operation("bench.request"):
                with tracer.span("server.parse"):
                    request = parse_request(json.loads(body), default_profile=PROFILE,
                                            request_id=f"req-{i}")
                with tracer.span("server.build_job"):
                    misses, began = graphs.misses, time.perf_counter()
                    job = build_job(request, graphs)
                    if graphs.misses != misses:  # the graph cache generated it
                        tracer.record("generators.generate", began, time.perf_counter())
                with tracer.span("service.result_cache"):
                    with tracer.span("graph.content_hash"):
                        job.graph.content_hash()
                    key = job.cache_key()
                    result = results.get(key)
                cached = result is not None
                if not cached:
                    with tracer.span("engine.run"):
                        handle = engine.submit(job, plan=request.plan)
                        result = handle.result(timeout=120)
                        end = time.perf_counter()
                        tracer.record(f"{SOLVER_LAYERS[request.algorithm]}.solve",
                                      end - handle.seconds, end)
                    with tracer.span("service.result_cache"):
                        results.put(key, result)
                with tracer.span("server.encode"):
                    row = result_row(request, status="ok", result=result, cached=cached)
                    json.dumps(row).encode()
            records.append((schedule[i], job.graph, result, cached))
    finally:
        engine.shutdown()
    return time.perf_counter() - start, records


def measure_traced(seed: int, seconds: float) -> Outcome:
    out = Outcome("serve-mix")
    run = timed_run(seed, seconds, out)
    expected, before, after = run.expected, run.before, run.after
    tracer, records, untraced_s, traced_s = traced_replays(lambda t: replay(run.schedule, t))

    problems = []
    for request, graph, result, _ in records:
        problem = matching_problem(graph, result, expected[request.recipe].cardinality)
        if problem:
            problems.append(f"replay {request.recipe}: {problem}")
    out.tally(problems, len(records))

    values = trace_metrics(tracer, untraced_s, traced_s)
    for request, _, result, cached in records:
        if not cached:
            add_solve(values, request.recipe.algorithm, result)

    def delta(*path):
        a, b = before, after
        for key in path:
            a, b = a[key], b[key]
        return b - a

    result_lookups = delta("cache", "result", "hits") + delta("cache", "result", "misses")
    graph_lookups = delta("cache", "graph", "hits") + delta("cache", "graph", "misses")
    values["server.result_cache.hit_rate"] = delta("cache", "result", "hits") / result_lookups
    values["server.graph_cache.hit_rate"] = delta("cache", "graph", "hits") / graph_lookups
    values["server.queue.peak_depth"] = after["queue"]["peak_depth"]
    values["server.rejected"] = delta("admission", "rejected")
    values["server.latency_p50_ms"] = after["latency_seconds"]["p50"] * 1e3
    values["engine.jobs_submitted"] = delta("engine", "jobs_submitted")
    values["server.busy_share"] = run.busy_share
    values["loadgen.late_p90_ms"] = run.late_p90_ms
    fill_per_layer(out, values, len(records))
    return out
