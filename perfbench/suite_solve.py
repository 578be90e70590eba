"""suite-solve: the paper's protocol over the 28 Table-I suite instances.

Per instance: generate -> ``content_hash`` -> ``cheap_matching``, then solve
from that warm start with each of :data:`~perfbench.common.SOLVER_LAYERS`.
One pass covers every instance; the run cycles its passes through
:data:`INPUT_SETS` seed-derived input sets until its time is up.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from statistics import median

from perfbench.common import (
    SOLVER_LAYERS,
    DeviceRecorder,
    Outcome,
    add_solve,
    best,
    fill_per_layer,
    geomean,
    input_seeds,
    matching_problem,
    own_peak_rss_mb,
    percentile,
    python_wall,
    trace_metrics,
    traced_replays,
)
from perfbench.spans import Tracer
from repro.core.api import SPECS, resolve_algorithm
from repro.generators.suite import generate_instance, instance_names
from repro.seq.greedy import cheap_matching
from repro.seq.verify import is_valid_matching

PROFILE = "small"
INPUT_SETS = 2
SETUP_PROBES = 5
_SETUP_CODE = (
    "from repro.core.api import resolve_algorithm\n"
    "from repro.generators.suite import generate_instance\n"
    "from repro.seq.greedy import cheap_matching\n"
    "g = generate_instance('roadNet-PA', profile='tiny', seed=1)\n"
    "resolve_algorithm('g-pr').run(g, cheap_matching(g).matching)\n"
)


@dataclass
class Solve:
    result: object
    wall: float
    ledger: object = None  # cost ledger of the GPU solvers' device


@dataclass
class Instance:
    name: str
    graph: object
    cheap: object
    wall: float = 0.0
    solves: dict = field(default_factory=dict)


@dataclass
class Pass:
    wall: float
    instances: list


def make_plans(devices: DeviceRecorder) -> dict:
    return {
        algo: resolve_algorithm(algo, device_factory=devices)
        if SPECS[algo].accepts_device
        else resolve_algorithm(algo)
        for algo in SOLVER_LAYERS
    }


def run_pass(seed, plans, devices, tracer, *, profile=PROFILE, names=None) -> Pass:
    instances = []
    start = time.perf_counter()
    for name in names or instance_names():
        began = time.perf_counter()
        with tracer.operation("bench.instance"):
            with tracer.span("generators.generate"):
                graph = generate_instance(name, profile=profile, seed=seed)
            with tracer.span("graph.content_hash"):
                graph.content_hash()
            with tracer.span("seq.cheap"):
                cheap = cheap_matching(graph)
            inst = Instance(name, graph, cheap)
            for algo, layer in SOLVER_LAYERS.items():
                solve_start = time.perf_counter()
                with tracer.span(f"{layer}.solve"):
                    result = plans[algo].run(graph, cheap.matching)
                solve = Solve(result, time.perf_counter() - solve_start)
                if SPECS[algo].accepts_device:
                    solve.ledger = devices.last.ledger
                inst.solves[algo] = solve
        inst.wall = time.perf_counter() - began
        instances.append(inst)
    return Pass(time.perf_counter() - start, instances)


def check_pass(run: Pass) -> tuple[list[str], int]:
    """Correctness gate: every matching valid, all algorithms agree.

    Returns the problems found and the number of solves checked.
    """
    problems = []
    attempted = 0
    for inst in run.instances:
        if not is_valid_matching(inst.graph, inst.cheap.matching):
            problems.append(f"{inst.name}: cheap matching is invalid")
        cards = Counter(s.result.matching.cardinality for s in inst.solves.values())
        agreed = cards.most_common(1)[0][0]
        for algo, solve in inst.solves.items():
            attempted += 1
            problem = matching_problem(inst.graph, solve.result, agreed)
            if problem:
                problems.append(f"{inst.name}/{algo}: {problem}")
    return problems, attempted


def measure(seed: int, seconds: float, *, profile=PROFILE, names=None) -> Outcome:
    out = Outcome("suite-solve")
    setup = [python_wall(_SETUP_CODE) for _ in range(SETUP_PROBES)]
    devices = DeviceRecorder()
    plans = make_plans(devices)
    run_pass(seed, plans, devices, Tracer(False), profile="tiny", names=names)  # lazy imports

    # Passes cycle through the input sets.  Per (set, instance, algorithm)
    # wall samples only: graphs and matchings are freed after each pass, so
    # memory does not grow with the number of passes a faster program runs.
    seeds = input_seeds(seed, INPUT_SETS)
    inst_walls: dict = {}
    solve_walls: dict = {}
    edges = 0
    modeled = []
    passes = 0
    begin = time.perf_counter()
    while passes < len(seeds) or time.perf_counter() - begin < seconds:
        which = passes % len(seeds)
        run = run_pass(seeds[which], plans, devices, Tracer(False), profile=profile, names=names)
        out.tally(*check_pass(run))
        for inst in run.instances:
            inst_walls.setdefault((which, inst.name), []).append(inst.wall)
            for algo, solve in inst.solves.items():
                solve_walls.setdefault((which, inst.name, algo), []).append(solve.wall * 1e3)
            if passes < len(seeds):
                edges += inst.graph.n_edges * len(inst.solves)
                modeled.append(inst.solves["g-pr"].result.modeled_time * 1e3)
        passes += 1
        del run

    # Each unit's time is its best over the passes that ran it (see ``best``).
    typical_pass = sum(best(walls) for walls in inst_walls.values()) / len(seeds)
    solve_ms = {key: best(walls) for key, walls in solve_walls.items()}

    def algo_geomean_ms(algorithm):
        return geomean(ms for (_, _, algo), ms in solve_ms.items() if algo == algorithm)

    out.put("setup_s", median(setup), len(setup))
    out.put("throughput_eps", edges / len(seeds) / typical_pass, passes)
    out.put("pass_s", typical_pass, passes)
    out.put("latency_p50_ms", median(solve_ms.values()), len(solve_ms))
    out.put("latency_p90_ms", percentile(solve_ms.values(), 90), len(solve_ms))
    out.put("gpr_wall_geomean_ms", algo_geomean_ms("g-pr"), len(inst_walls))
    out.put("ghkdw_wall_geomean_ms", algo_geomean_ms("g-hkdw"), len(inst_walls))
    out.put("gpr_modeled_geomean_ms", geomean(modeled), len(modeled))
    out.put("peak_rss_mb", own_peak_rss_mb(), 1)
    return out


def measure_traced(seed: int, seconds: float, *, profile=PROFILE, names=None) -> Outcome:
    """Untraced and traced passes over the same inputs, alternating."""
    out = Outcome("suite-solve")
    devices = DeviceRecorder()
    plans = make_plans(devices)
    run_pass(seed, plans, devices, Tracer(False), profile="tiny", names=names)

    def replay(tracer):
        run = run_pass(seed, plans, devices, tracer, profile=profile, names=names)
        return run.wall, run

    tracer, traced, untraced_s, traced_s = traced_replays(replay)
    out.tally(*check_pass(traced))

    values = trace_metrics(tracer, untraced_s, traced_s)
    for inst in traced.instances:
        for algo, solve in inst.solves.items():
            add_solve(values, algo, solve.result, solve.ledger)
    values["seq.cheap.matched_share"] = sum(
        i.cheap.cardinality for i in traced.instances
    ) / sum(i.solves["hk"].result.cardinality for i in traced.instances)
    fill_per_layer(out, values, len(traced.instances))
    return out
