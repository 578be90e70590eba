"""Tiny-size checks of the benchmark: metric catalog, gates, tracing.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

from perfbench import oneshot_cli, serve_mix, suite_solve
from perfbench.common import END_TO_END, PER_LAYER, ROOT, DeviceRecorder, Outcome, emit
from perfbench.spans import Span, Tracer
from repro.matching import Matching

TINY_NAMES = ["roadNet-PA", "amazon0505"]


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _assert_emits(outcome, catalog, capsys):
    assert emit(outcome, catalog) == 0
    result = _last_json(capsys)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == catalog
    return result["metrics"]


def test_catalog_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["suite-solve", "oneshot-cli", "serve-mix"]


def test_suite_solve_emits_every_metric(capsys):
    outcome = suite_solve.measure(3, 0.0, profile="tiny", names=TINY_NAMES)
    metrics = _assert_emits(outcome, END_TO_END, capsys)
    assert all(m["value"] > 0 for m in metrics.values())


def test_suite_solve_traced_emits_every_layer_metric(capsys):
    outcome = suite_solve.measure_traced(3, 0.0, profile="tiny", names=TINY_NAMES)
    metrics = _assert_emits(outcome, PER_LAYER, capsys)
    for name in ("core.gpr.solve_s", "seq.pfp.edges_scanned", "gpusim.gpr.launches"):
        assert metrics[name]["value"] > 0


def test_oneshot_cli_emits_every_metric(capsys):
    outcome = oneshot_cli.measure(3, 0.0, profile="tiny")
    _assert_emits(outcome, END_TO_END, capsys)
    assert not (ROOT / ".perfbench_tmp").exists()


def test_serve_mix_emits_every_metric(capsys, monkeypatch):
    monkeypatch.setattr(serve_mix, "PROFILE", "tiny")
    outcome = serve_mix.measure(3, 1.0)
    _assert_emits(outcome, END_TO_END, capsys)


def _corrupt(result):
    """Drop one matched pair from ``result`` (a valid but smaller matching)."""
    row_match = result.matching.row_match.copy()
    col_match = result.matching.col_match.copy()
    u = int(next(i for i, v in enumerate(row_match) if v >= 0))
    col_match[row_match[u]] = -1
    row_match[u] = -1
    result.matching = Matching(row_match, col_match)


def test_suite_gate_trips_on_a_corrupted_result():
    devices = DeviceRecorder()
    run = suite_solve.run_pass(5, suite_solve.make_plans(devices), devices, Tracer(False),
                               profile="tiny", names=TINY_NAMES)
    assert suite_solve.check_pass(run) == ([], 2 * len(suite_solve.SOLVER_LAYERS))
    _corrupt(run.instances[0].solves["g-pr"].result)
    problems, _ = suite_solve.check_pass(run)
    assert len(problems) == 1 and "g-pr" in problems[0]


def test_cli_gate_trips_on_a_wrong_payload():
    command = oneshot_cli.Command("roadNet-CA", 1, "g-hkdw", None, [])
    expected = {("roadNet-CA", 1): (100, 300)}
    good = json.dumps({"cardinality": 100, "n_edges": 300})
    assert oneshot_cli.check_payload(command, 0, good, expected)[1] is None
    bad = json.dumps({"cardinality": 99, "n_edges": 300})
    assert oneshot_cli.check_payload(command, 0, bad, expected)[1] is not None
    assert oneshot_cli.check_payload(command, 1, good, expected)[1] is not None


def test_serve_gate_trips_on_a_wrong_row():
    schedule = serve_mix.make_schedule(1, 3)
    expected = {r.recipe: serve_mix.Expected(10, 40) for r in schedule}
    rows = [{"status": "ok", "cardinality": 10} for _ in schedule]
    samples = [serve_mix.Sample(0, 0, 0, 0, 200, row) for row in rows]
    assert serve_mix.check_rows(schedule, samples, expected) == []
    samples[1].row = {"status": "ok", "cardinality": 9}
    samples[2].status = 429
    assert len(serve_mix.check_rows(schedule, samples, expected)) == 2


def test_a_wrong_output_makes_the_run_fail(capsys):
    outcome = Outcome("suite-solve")
    for name in END_TO_END:
        outcome.put(name, 1.0)
    outcome.tally(["corrupted"], 4)
    assert emit(outcome, END_TO_END) == 1
    result = _last_json(capsys)
    assert result["correct"] is False and result["failed"] == 1 and result["attempted"] == 4


def test_schedule_is_a_function_of_the_seed():
    a, b = serve_mix.make_schedule(7, 400), serve_mix.make_schedule(7, 400)
    assert a == b and a != serve_mix.make_schedule(8, 400)
    fresh = list(dict.fromkeys(r.recipe for r in a))
    assert abs(1 - len(fresh) / len(a) - serve_mix.REPEAT_SHARE) < 0.1
    # Fresh recipes cover every (graph, algorithm) pair evenly.
    pairs = Counter((r.graph, r.algorithm) for r in fresh)
    assert len(pairs) == len(serve_mix.GRAPHS) * len(serve_mix.ALGORITHMS)
    assert max(pairs.values()) - min(pairs.values()) <= 1


def test_self_time_subtracts_covered_child_intervals():
    tracer = Tracer()
    tracer.spans = [
        Span(0, "bench.op", 0.0, 10.0, None, 1),
        Span(1, "graph.read_mtx", 1.0, 4.0, 0, 1),
        Span(2, "core.gpr.solve", 3.0, 6.0, 0, 1),  # overlaps its sibling
        Span(3, "seq.cheap", 5.0, 5.5, 2, 1),
    ]
    self_times = tracer.self_times()
    assert self_times["bench.op"] == pytest.approx(5.0)
    assert self_times["core.gpr.solve"] == pytest.approx(2.5)
    assert tracer.layer_self_times()["seq"] == pytest.approx(0.5)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.operation("bench.op"), tracer.span("seq.cheap"):
        tracer.record("core.gpr.solve", 0.0, 1.0)
    assert tracer.spans == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
