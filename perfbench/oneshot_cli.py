"""oneshot-cli: a fixed list of ``repro run`` processes at the ``large`` profile.

The list: soc-LiveJournal1 generated in the process with ``g-pr``, and three
Matrix-Market files the benchmark writes from seed-generated graphs into a
temporary directory inside the checkout — soc-LiveJournal1 with ``g-pr``,
roadNet-CA with ``g-hkdw`` and GL7d19 with ``hk``.  Every command runs on a
graph of its own, generated from a seed derived from the run's.  Each
process pays interpreter start, ``import repro.cli``, graph generation or
parse, the solve and JSON encoding, which is what a CLI user waits for.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from perfbench.common import (
    ROOT,
    SOLVER_LAYERS,
    DeviceRecorder,
    Outcome,
    add_solve,
    best,
    children_peak_rss_mb,
    fill_per_layer,
    geomean,
    input_seeds,
    matching_problem,
    percentile,
    python_wall,
    run_process,
    trace_metrics,
    traced_replays,
)
from repro.bench.harness import modeled_seconds_for
from repro.core.api import SPECS, resolve_algorithm
from repro.generators.suite import generate_instance
from repro.graph.io import read_matrix_market, write_matrix_market
from repro.seq.verify import is_valid_matching

PROFILE = "large"
INPUT_SETS = 3
SETUP_PROBES = 5
IMPORT_CODE = "import repro.cli"
#: (graph, algorithm, read from a written .mtx.gz?)
COMMANDS = (
    ("soc-LiveJournal1", "g-pr", False),
    ("soc-LiveJournal1", "g-pr", True),
    ("roadNet-CA", "g-hkdw", True),
    ("GL7d19", "hk", True),
)


@dataclass
class Command:
    graph: str
    seed: int
    algorithm: str
    mtx: str | None
    argv: list

    @property
    def label(self) -> str:
        source = "mtx" if self.mtx else "generated"
        return f"{self.graph}/{self.seed}/{source}/{self.algorithm}"


def scratch_dir() -> str:
    """A fresh temporary directory inside the checkout (removed by the caller)."""
    parent = ROOT / ".perfbench_tmp"
    parent.mkdir(exist_ok=True)
    return tempfile.mkdtemp(dir=parent)


def remove_scratch(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        (ROOT / ".perfbench_tmp").rmdir()
    except OSError:
        pass  # another run still uses it


def prepare_inputs(seeds: list[int], directory: str, profile: str = PROFILE):
    """Generate one input set: command *i* of the list runs on its own graph,
    generated with ``seeds[i]``, whose cardinality and edge count are computed
    in-process with HK.

    Graphs the list reads from disk are written to ``directory`` as
    ``.mtx.gz``.  Returns the commands, the expected outputs and the problems
    found validating the reference matchings.
    """
    expected, problems, commands = {}, [], []
    for (name, algorithm, from_file), seed in zip(COMMANDS, seeds, strict=True):
        graph = generate_instance(name, profile=profile, seed=seed)
        result = resolve_algorithm("hk").run(graph)
        if not is_valid_matching(graph, result.matching):
            problems.append(f"in-process HK on {name}/{seed}: invalid matching")
        expected[name, seed] = (result.cardinality, graph.n_edges)
        mtx = None
        if from_file:
            mtx = str(Path(directory) / f"{name}_{profile}_{seed}.mtx.gz")
            write_matrix_market(graph, mtx)
        source = ["--mtx", mtx] if mtx else ["--graph", name]
        argv = [sys.executable, "-m", "repro.cli", "run", *source, "--algorithm", algorithm,
                "--profile", profile, "--seed", str(seed)]
        commands.append(Command(name, seed, algorithm, mtx, argv))
    return commands, expected, problems


def check_payload(command: Command, returncode: int, stdout: str, expected: dict):
    """The parsed payload, or an error message naming what is wrong."""
    if returncode != 0:
        return None, f"{command.label}: exit code {returncode}"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return None, f"{command.label}: stdout is not JSON"
    cardinality, n_edges = expected[command.graph, command.seed]
    if payload.get("cardinality") != cardinality or payload.get("n_edges") != n_edges:
        return payload, (
            f"{command.label}: cardinality/edges {payload.get('cardinality')}/"
            f"{payload.get('n_edges')} != {cardinality}/{n_edges}"
        )
    return payload, None


def measure(seed: int, seconds: float, *, profile: str = PROFILE) -> Outcome:
    out = Outcome("oneshot-cli")
    directory = scratch_dir()
    try:
        sets, expected = [], {}
        seeds = input_seeds(seed, INPUT_SETS * len(COMMANDS))
        for k in range(INPUT_SETS):
            set_seeds = seeds[k * len(COMMANDS):(k + 1) * len(COMMANDS)]
            commands, set_expected, problems = prepare_inputs(set_seeds, directory, profile)
            sets.append(commands)
            expected.update(set_expected)
            out.tally(problems, len(set_expected))
        everything = [c for commands in sets for c in commands]
        setup = [python_wall(IMPORT_CODE) for _ in range(SETUP_PROBES)]

        walls: dict = {c.label: [] for c in everything}  # process wall, ms
        solve_walls: dict = {c.label: [] for c in everything}  # payload wall, ms
        gpr_modeled: dict = {}
        passes = 0
        begin = time.perf_counter()
        while passes < len(sets) or time.perf_counter() - begin < seconds:
            commands = sets[passes % len(sets)]
            runs = []
            for command in commands:
                returncode, stdout, wall = run_process(command.argv)
                walls[command.label].append(wall * 1e3)
                runs.append((command, returncode, stdout))
            passes += 1
            problems = []
            for command, returncode, stdout in runs:
                payload, problem = check_payload(command, returncode, stdout, expected)
                if problem:
                    problems.append(problem)
                    continue
                solve_walls[command.label].append(payload["wall_seconds"] * 1e3)
                if command.algorithm == "g-pr":
                    gpr_modeled[command.label] = payload["modeled_seconds"] * 1e3
            out.tally(problems, len(runs))
    finally:
        remove_scratch(directory)

    # Each command's time is its best over the passes that ran it
    # (see ``best``).
    command_ms = {label: best(w) for label, w in walls.items()}
    typical_pass = sum(command_ms.values()) / len(sets) / 1e3
    # Latency percentiles over the list's commands, each the median over the
    # input sets: the raw walls form one cluster per command, and a
    # percentile between two clusters would jump with the slightest shift.
    list_ms = [
        median(command_ms[commands[i].label] for commands in sets)
        for i in range(len(COMMANDS))
    ]
    edges = sum(expected[c.graph, c.seed][1] for c in everything) / len(sets)

    def solve_geomean_ms(algorithm):
        return geomean(
            best(solve_walls[c.label])
            for c in everything
            if c.algorithm == algorithm and solve_walls[c.label]
        )

    out.put("setup_s", median(setup), len(setup))
    out.put("throughput_eps", edges / typical_pass, passes)
    out.put("pass_s", typical_pass, passes)
    out.put("latency_p50_ms", median(list_ms), passes)
    out.put("latency_p90_ms", percentile(list_ms, 90), passes)
    out.put("gpr_wall_geomean_ms", solve_geomean_ms("g-pr"), passes)
    out.put("ghkdw_wall_geomean_ms", solve_geomean_ms("g-hkdw"), passes)
    out.put("gpr_modeled_geomean_ms", geomean(gpr_modeled.values()), len(gpr_modeled))
    out.put("peak_rss_mb", children_peak_rss_mb(), passes * len(COMMANDS))
    return out


# ------------------------------------------------------------- traced replay
def replay(commands, tracer, devices, profile=PROFILE):
    """What each ``repro run`` does, at the same public calls, in-process.

    ``cli.import`` is timed in a fresh interpreter per command, as each
    process pays it; the rest follows ``repro run``: build the graph,
    resolve and run the plan (its own cheap warm start included), encode
    the payload.
    """
    records = []
    start = time.perf_counter()
    for command in commands:
        with tracer.operation("bench.command"):
            with tracer.span("cli.import"):
                python_wall(IMPORT_CODE)
            if command.mtx:
                with tracer.span("graph.read_mtx"):
                    graph = read_matrix_market(command.mtx)
            else:
                with tracer.span("generators.generate"):
                    graph = generate_instance(command.graph, profile=profile, seed=command.seed)
            accepts_device = SPECS[command.algorithm].accepts_device
            plan = resolve_algorithm(
                command.algorithm, **({"device_factory": devices} if accepts_device else {})
            )
            with tracer.span(f"{SOLVER_LAYERS[command.algorithm]}.solve"):
                result = plan.run(graph)
            ledger = devices.last.ledger if accepts_device else None
            with tracer.span("cli.encode"):
                json.dumps({
                    "graph": graph.name,
                    "n_rows": graph.n_rows,
                    "n_cols": graph.n_cols,
                    "n_edges": graph.n_edges,
                    "algorithm": result.algorithm,
                    "cardinality": result.cardinality,
                    "modeled_seconds": modeled_seconds_for(result),
                    "wall_seconds": result.wall_time,
                }, indent=2)
        records.append((command, graph, result, ledger))
    return time.perf_counter() - start, records


def measure_traced(seed: int, seconds: float, *, profile: str = PROFILE) -> Outcome:
    out = Outcome("oneshot-cli")
    directory = scratch_dir()
    try:
        seeds = input_seeds(seed, len(COMMANDS))
        commands, expected, problems = prepare_inputs(seeds, directory, profile)
        out.tally(problems, len(expected))
        devices = DeviceRecorder()
        tracer, records, untraced_s, traced_s = traced_replays(
            lambda t: replay(commands, t, devices, profile)
        )
    finally:
        remove_scratch(directory)

    problems = []
    for command, graph, result, _ in records:
        problem = matching_problem(graph, result, expected[command.graph, command.seed][0])
        if problem:
            problems.append(f"{command.label}: {problem}")
    out.tally(problems, len(records))

    values = trace_metrics(tracer, untraced_s, traced_s)
    for command, _, result, ledger in records:
        add_solve(values, command.algorithm, result, ledger)
    fill_per_layer(out, values, len(records))
    return out
