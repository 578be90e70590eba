"""Shared plumbing: metric catalog, statistics, result printing, processes.

Every workload module returns an :class:`Outcome`; :func:`emit` prints one
human-readable line per metric (name, value, unit, sample count) and, as the
last line of standard output, the JSON result object the benchmark contract
asks for.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.spans import Tracer
from repro.gpusim.device import VirtualGPU
from repro.seq.verify import is_valid_matching

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: End-to-end metrics (``--trace 0``), emitted by every workload.  What each
#: one means on each workload is tabulated in ``perfbench/README.md``.
END_TO_END = {
    "setup_s": "s",
    "throughput_eps": "edges/s",
    "pass_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "gpr_wall_geomean_ms": "ms",
    "gpr_modeled_geomean_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: Printed with the end-to-end report but not declared: G-HKDW's wall time
#: depends on the graph instance far more than G-PR's (15 to 20 phases on
#: large roadNet-CA), so its run-to-run spread exceeds any useful bound;
#: ``core.ghkdw.solve_s`` and ``core.ghkdw.edges_scanned`` track it per layer.
REPORT_ONLY = {"ghkdw_wall_geomean_ms": "ms"}

#: Solver layers: registry name -> span/metric prefix ``<layer>.<algo>``.
SOLVER_LAYERS = {
    "g-pr": "core.gpr",
    "g-hkdw": "core.ghkdw",
    "p-dbfs": "multicore.pdbfs",
    "pr": "seq.pr",
    "hk": "seq.hk",
    "hkdw": "seq.hkdw",
    "pfp": "seq.pfp",
}

#: Layers (modules under ``src/repro/``) whose self time the trace reports;
#: ``bench`` is the benchmark's own code between calls.  ``gpusim`` runs
#: inside the GPU solvers' spans and is reported through its ledger counts.
SELF_TIME_LAYERS = (
    "cli", "generators", "graph", "seq", "core", "multicore",
    "engine", "service", "server", "bench",
)

#: Per-layer metrics (``--trace 1``), emitted by every workload; a layer the
#: workload bypasses reads 0.
PER_LAYER = {
    "generators.generate_s": "s",
    "graph.read_mtx_s": "s",
    "graph.content_hash_s": "s",
    "seq.cheap_s": "s",
    "seq.cheap.matched_share": "ratio",
    **{
        name: unit
        for prefix in SOLVER_LAYERS.values()
        for name, unit in ((f"{prefix}.solve_s", "s"), (f"{prefix}.edges_scanned", "count"))
    },
    "gpusim.gpr.launches": "count",
    "gpusim.gpr.modeled_s": "s",
    "gpusim.ghkdw.launches": "count",
    "cli.import_s": "s",
    "cli.encode_s": "s",
    "server.parse_s": "s",
    "server.build_job_s": "s",
    "service.result_cache_s": "s",
    "engine.run_s": "s",
    "server.encode_s": "s",
    "server.result_cache.hit_rate": "ratio",
    "server.graph_cache.hit_rate": "ratio",
    "server.queue.peak_depth": "count",
    "server.rejected": "count",
    "server.latency_p50_ms": "ms",
    "server.busy_share": "ratio",
    "engine.jobs_submitted": "count",
    "loadgen.late_p90_ms": "ms",
    **{f"self.{layer}_s": "s" for layer in SELF_TIME_LAYERS},
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


class DeviceRecorder:
    """``device_factory`` that keeps the last virtual GPU it handed out,
    so the benchmark can read that run's cost ledger."""

    def __init__(self) -> None:
        self.last: VirtualGPU | None = None

    def __call__(self) -> VirtualGPU:
        self.last = VirtualGPU()
        return self.last


# ------------------------------------------------------------------ outcome
@dataclass
class Outcome:
    """Metrics plus the correctness tally of one benchmark run."""

    workload: str
    metrics: dict = field(default_factory=dict)  # name -> (value, samples)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    invalid: list = field(default_factory=list)

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = (float(value), int(samples))

    def tally(self, problems: list[str], attempted: int) -> None:
        """Fold one correctness check over ``attempted`` outputs into the run."""
        self.attempted += attempted
        self.failed += len(problems)
        self.problems.extend(problems)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.invalid


def emit(outcome: Outcome, catalog: dict[str, str]) -> int:
    """Print the report and the final JSON line; return the exit code."""
    missing = sorted(set(catalog) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"workload {outcome.workload} did not measure {missing}")
    for problem in outcome.problems[:20]:
        print(f"# WRONG: {problem}")
    for reason in outcome.invalid:
        print(f"# INVALID RUN: {reason}")
    for name, unit in catalog.items():
        value, samples = outcome.metrics[name]
        print(f"# {outcome.workload} {name} = {value:.6g} {unit} (n={samples})")
    for name, unit in REPORT_ONLY.items():
        if name in outcome.metrics and name not in catalog:
            value, samples = outcome.metrics[name]
            print(f"# {outcome.workload} {name} = {value:.6g} {unit} (n={samples}, report only)")
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"# {outcome.workload} failed_share = {share:.6g} ratio (n={outcome.attempted})")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name][0], "unit": unit}
            for name, unit in catalog.items()
        },
    }), flush=True)
    return 0 if outcome.correct else 1


def fill_per_layer(outcome: Outcome, values: dict[str, float], samples: int) -> None:
    """Put every per-layer metric; names absent from ``values`` read 0."""
    for name in PER_LAYER:
        outcome.put(name, values.get(name, 0.0), samples)


def traced_replays(replay, rounds: int = 2):
    """Run ``replay(tracer) -> (seconds, records)`` untraced and traced,
    alternating, ``rounds`` times each.

    Returns the tracer and records of the last traced replay and the summed
    untraced and traced seconds, whose ratio is the tracing overhead.
    """
    untraced_s = traced_s = 0.0
    for _ in range(rounds):
        untraced_s += replay(Tracer(enabled=False))[0]
        tracer = Tracer()
        seconds, records = replay(tracer)
        traced_s += seconds
    return tracer, records, untraced_s, traced_s


def trace_metrics(tracer, untraced_s: float, traced_s: float) -> dict[str, float]:
    """Self time per layer, span count and tracing overhead of a traced replay."""
    values = {f"{name}_s": seconds for name, seconds in tracer.self_times().items()}
    layers = tracer.layer_self_times()
    for layer in SELF_TIME_LAYERS:
        values[f"self.{layer}_s"] = layers.get(layer, 0.0)
    values["trace.spans"] = len(tracer.spans)
    values["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    return values


def input_seeds(seed: int, count: int) -> list[int]:
    """The graph seeds of a run's ``count`` input sets, derived from ``seed``.

    Spreading a run over several input sets keeps one unlucky graph from
    moving the run's figures; the sets are a function of ``seed`` alone.
    """
    return [seed * count + k for k in range(count)]


# --------------------------------------------------------------- statistics
def percentile(values, q: int) -> float:
    """The ``q``-th percentile (inclusive method) of at least two values."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def best(walls) -> float:
    """A repeated unit's time: the least of its walls.

    The host shares its cores, and what the sharing costs comes in spells of
    seconds that only ever add time; the fastest repeat is the one such a
    spell missed, which is what the program itself needs.
    """
    return min(walls)


def geomean(values) -> float:
    """Geometric mean; 0 for no values (a run whose outputs all failed)."""
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def matching_problem(graph, result, expected: int) -> str | None:
    """What is wrong with a solver result, or ``None``: the matching must be
    valid, hold as many pairs as the result reports, and reach ``expected``."""
    if not is_valid_matching(graph, result.matching):
        return "invalid matching"
    if result.matching.cardinality != result.cardinality:
        return (f"reports cardinality {result.cardinality}, "
                f"its matching has {result.matching.cardinality}")
    if result.cardinality != expected:
        return f"cardinality {result.cardinality} != {expected}"
    return None


def add_solve(values: dict, algorithm: str, result, ledger=None) -> None:
    """Add one solve's edge visits to ``values`` and, for the GPU solvers,
    its kernel launches and modeled seconds: from ``ledger`` (the cost
    ledger of the device the benchmark handed out) when given, else from the
    result's counters."""
    key = f"{SOLVER_LAYERS[algorithm]}.edges_scanned"
    values[key] = values.get(key, 0.0) + edges_scanned(result)
    gpu = {"g-pr": "gpusim.gpr", "g-hkdw": "gpusim.ghkdw"}.get(algorithm)
    if gpu is None:
        return
    launches = result.counters["kernel_launches"] if ledger is None else ledger.n_launches
    values[f"{gpu}.launches"] = values.get(f"{gpu}.launches", 0) + launches
    if algorithm == "g-pr":
        modeled = result.modeled_time if ledger is None else ledger.total_seconds
        values["gpusim.gpr.modeled_s"] = values.get("gpusim.gpr.modeled_s", 0.0) + modeled


def edges_scanned(result) -> float:
    """Edge visits of one solve: the ``*edges_scanned`` counters of the CPU
    solvers, or the kernel thread work of the GPU solvers' cost ledger."""
    counters = result.counters
    scanned = [v for k, v in counters.items() if k.endswith("edges_scanned")]
    if scanned:
        return float(sum(scanned))
    return float(counters.get("kernel_total_work", 0.0))


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------- processes
def child_env() -> dict[str, str]:
    """Environment for program subprocesses: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list[str], timeout: float = 120.0) -> tuple[int, str, float]:
    """Run a program process; returns its exit code, stdout and wall seconds.

    The timeout is a watchdog that kills the process: ``Popen.wait`` with a
    timeout polls in steps of up to 50 ms, which would quantize the walls.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        stdout, _ = proc.communicate()
    finally:
        watchdog.cancel()
    return proc.returncode, stdout, time.perf_counter() - start


def python_wall(code: str) -> float:
    """Wall time of a fresh interpreter running ``code``; raises on failure."""
    returncode, _, seconds = run_process([sys.executable, "-c", code])
    if returncode != 0:
        raise RuntimeError(f"python -c {code!r} exited with {returncode}")
    return seconds
