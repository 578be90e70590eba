"""End-to-end tests of G-PR (all variants), G-HKDW, P-DBFS and the public API."""

from __future__ import annotations

import pytest

from repro import max_bipartite_matching
from repro.core import GPRConfig, GPRVariant, ghkdw_matching, gpr_matching
from repro.core.api import MAXIMUM_ALGORITHMS, SPECS, resolve_algorithm
from repro.core.strategies import AdaptiveStrategy, FixedStrategy, parse_strategy
from repro.generators import (
    chung_lu_bipartite,
    perfect_matching_plus_noise,
    uniform_random_bipartite,
)
from repro.graph import from_edges
from repro.graph.builders import empty_graph
from repro.gpusim import DeviceSpec, VirtualGPU
from repro.matching import Matching
from repro.multicore import PDBFSConfig, pdbfs_matching
from repro.seq import is_maximum_matching, is_valid_matching, maximum_matching_cardinality

GPU_VARIANTS = [GPRVariant.FIRST, GPRVariant.NO_SHRINK, GPRVariant.SHRINK]


# ------------------------------------------------------------------ strategies
def test_parse_strategy():
    assert isinstance(parse_strategy("adaptive:0.3"), AdaptiveStrategy)
    assert parse_strategy("adaptive:0.3").k == 0.3
    assert isinstance(parse_strategy("fix:50"), FixedStrategy)
    assert parse_strategy("fix:50").k == 50
    assert parse_strategy("adaptive").k == 0.7
    assert parse_strategy("fixed:5").k == 5
    strategy = AdaptiveStrategy(1.5)
    assert parse_strategy(strategy) is strategy
    with pytest.raises(ValueError):
        parse_strategy("bogus:1")
    with pytest.raises(ValueError):
        parse_strategy("adaptive:not-a-number")


def test_strategy_validation():
    with pytest.raises(ValueError):
        AdaptiveStrategy(0)
    with pytest.raises(ValueError):
        FixedStrategy(0)


def test_strategy_next_iteration():
    assert AdaptiveStrategy(0.5).next_iteration(10, 8) == 14
    assert AdaptiveStrategy(0.1).next_iteration(10, 2) == 11  # at least one iteration later
    assert FixedStrategy(10).next_iteration(3, 999) == 13
    assert AdaptiveStrategy(2.0).label == "adaptive-2"
    assert FixedStrategy(50).label == "fix-50"


# --------------------------------------------------------------------- G-PR
@pytest.mark.parametrize("variant", GPU_VARIANTS, ids=lambda v: v.value)
def test_gpr_reaches_maximum_on_tiny(variant, tiny_graph):
    result = gpr_matching(tiny_graph, config=GPRConfig(variant=variant))
    assert result.cardinality == 3
    assert is_maximum_matching(tiny_graph, result.matching)


@pytest.mark.parametrize("variant", GPU_VARIANTS, ids=lambda v: v.value)
def test_gpr_reaches_maximum_on_families(variant, family_graph):
    result = gpr_matching(family_graph, config=GPRConfig(variant=variant))
    assert result.cardinality == maximum_matching_cardinality(family_graph)
    assert is_valid_matching(family_graph, result.matching)


@pytest.mark.parametrize(
    "strategy", ["adaptive:0.3", "adaptive:0.7", "adaptive:2", "fix:10", "fix:50"]
)
def test_gpr_all_strategies_reach_maximum(strategy):
    g = chung_lu_bipartite(350, 350, avg_degree=5.0, seed=42)
    expected = maximum_matching_cardinality(g)
    result = gpr_matching(g, config=GPRConfig(variant=GPRVariant.SHRINK, strategy=strategy))
    assert result.cardinality == expected


def test_gpr_counters_and_modeled_time(family_graph):
    result = gpr_matching(family_graph, config=GPRConfig(variant=GPRVariant.SHRINK))
    assert result.modeled_time is not None and result.modeled_time > 0
    assert result.counters["kernel_launches"] > 0
    assert result.counters["global_relabels"] >= 1
    assert result.counters["loops"] >= 1
    assert result.counters["strategy"] == "adaptive-0.7"
    assert result.counters["variant"] == "shrink"
    assert "g-pr-pushkrnl" in result.counters["per_kernel_seconds"]


def test_gpr_first_uses_full_width_kernels(tiny_graph):
    gpu = VirtualGPU()
    gpr_matching(tiny_graph, config=GPRConfig(variant=GPRVariant.FIRST), device=gpu)
    push_launches = [k for k in gpu.ledger.launches if k.name == "g-pr-krnl"]
    assert push_launches
    assert all(k.n_threads == tiny_graph.n_cols for k in push_launches)


def test_gpr_active_list_uses_fewer_threads():
    g = perfect_matching_plus_noise(400, extra_degree=3.0, seed=11)
    gpu = VirtualGPU()
    gpr_matching(g, config=GPRConfig(variant=GPRVariant.NO_SHRINK), device=gpu)
    push_launches = [k for k in gpu.ledger.launches if k.name == "g-pr-pushkrnl"]
    assert push_launches
    # The cheap matching leaves far fewer unmatched columns than n.
    assert all(k.n_threads < g.n_cols for k in push_launches)


def test_gpr_shrink_threshold_controls_compaction():
    g = chung_lu_bipartite(500, 500, avg_degree=4.0, seed=3)
    gpu_shrunk = VirtualGPU()
    gpr_matching(
        g,
        config=GPRConfig(variant=GPRVariant.SHRINK, shrink_threshold=1),
        device=gpu_shrunk,
    )
    assert any(k.name == "g-pr-shrkrnl" for k in gpu_shrunk.ledger.launches)
    gpu_never = VirtualGPU()
    gpr_matching(
        g,
        config=GPRConfig(variant=GPRVariant.SHRINK, shrink_threshold=10**9),
        device=gpu_never,
    )
    assert not any(k.name == "g-pr-shrkrnl" for k in gpu_never.ledger.launches)


def test_gpr_serialized_engine_matches_lockstep_cardinality(tiny_graph, family_graph):
    for graph in (tiny_graph, family_graph):
        expected = maximum_matching_cardinality(graph)
        lockstep = gpr_matching(graph, config=GPRConfig(variant=GPRVariant.FIRST))
        serialized = gpr_matching(
            graph, config=GPRConfig(variant=GPRVariant.FIRST, engine="serialized", seed=7)
        )
        assert lockstep.cardinality == expected
        assert serialized.cardinality == expected


def test_gpr_serialized_engine_only_for_first(tiny_graph):
    with pytest.raises(ValueError):
        gpr_matching(tiny_graph, config=GPRConfig(variant=GPRVariant.SHRINK, engine="serialized"))
    with pytest.raises(ValueError):
        gpr_matching(tiny_graph, config=GPRConfig(engine="cuda"))


def test_gpr_accepts_initial_matching_and_empty_graph(family_graph):
    initial = Matching.empty(family_graph)
    result = gpr_matching(family_graph, initial=initial)
    assert result.cardinality == maximum_matching_cardinality(family_graph)
    assert gpr_matching(empty_graph(5, 8)).cardinality == 0


def test_gpr_rectangular_and_star_graphs():
    star = from_edges([(0, v) for v in range(40)], n_rows=1, n_cols=40)
    assert gpr_matching(star).cardinality == 1
    rect = uniform_random_bipartite(90, 200, avg_degree=3.0, seed=5)
    assert gpr_matching(rect).cardinality == maximum_matching_cardinality(rect)
    tall = uniform_random_bipartite(200, 90, avg_degree=3.0, seed=6)
    assert gpr_matching(tall).cardinality == maximum_matching_cardinality(tall)


def test_gpr_scaled_device():
    g = chung_lu_bipartite(300, 300, avg_degree=5.0, seed=1)
    gpu = VirtualGPU(DeviceSpec().scaled())
    result = gpr_matching(g, device=gpu)
    assert result.cardinality == maximum_matching_cardinality(g)
    assert result.modeled_time == pytest.approx(gpu.ledger.total_seconds)


def test_gpr_max_iterations_guard(tiny_graph):
    with pytest.raises(RuntimeError):
        gpr_matching(tiny_graph, config=GPRConfig(variant=GPRVariant.FIRST, max_iterations=0))


# ------------------------------------------------------------------- G-HKDW
def test_ghkdw_reaches_maximum(family_graph):
    result = ghkdw_matching(family_graph)
    assert result.cardinality == maximum_matching_cardinality(family_graph)
    assert result.modeled_time is not None and result.modeled_time > 0
    assert result.counters["phases"] >= 1


def test_ghkdw_empty_and_star():
    assert ghkdw_matching(empty_graph(4, 4)).cardinality == 0
    star = from_edges([(0, v) for v in range(20)], n_rows=1, n_cols=20)
    assert ghkdw_matching(star).cardinality == 1


def test_ghkdw_phase_guard(tiny_graph):
    with pytest.raises(RuntimeError):
        ghkdw_matching(tiny_graph, initial=Matching.empty(tiny_graph), max_phases=0)


# ------------------------------------------------------------------- P-DBFS
def test_pdbfs_reaches_maximum(family_graph):
    result = pdbfs_matching(family_graph)
    assert result.cardinality == maximum_matching_cardinality(family_graph)
    assert result.modeled_time is not None and result.modeled_time > 0
    assert result.counters["rounds"] >= 1


def test_pdbfs_thread_count_config():
    g = chung_lu_bipartite(300, 300, avg_degree=5.0, seed=9)
    expected = maximum_matching_cardinality(g)
    for threads in (1, 4, 16):
        result = pdbfs_matching(g, config=PDBFSConfig(n_threads=threads))
        assert result.cardinality == expected


def test_pdbfs_empty_graph():
    assert pdbfs_matching(empty_graph(3, 3)).cardinality == 0


# ----------------------------------------------------------------- public API
def test_api_unknown_algorithm(tiny_graph):
    with pytest.raises(ValueError):
        max_bipartite_matching(tiny_graph, algorithm="quantum")


def test_api_unknown_algorithm_suggests_nearest_name():
    # Regression: the unknown-algorithm error used to only dump the registry;
    # a near-miss now also names the closest registered algorithm.
    with pytest.raises(ValueError, match=r"did you mean 'hkdw'\?"):
        resolve_algorithm("hkwd")
    with pytest.raises(ValueError, match=r"did you mean 'weighted-sap'\?"):
        resolve_algorithm("weighted_sap")
    # No plausible near-miss: no suggestion, but the full list still shows.
    with pytest.raises(ValueError, match=r"available: ") as excinfo:
        resolve_algorithm("zzzzzz")
    assert "did you mean" not in str(excinfo.value)


def test_api_algorithm_registry_complete():
    for name in MAXIMUM_ALGORITHMS:
        assert name in SPECS


@pytest.mark.parametrize("name", sorted(MAXIMUM_ALGORITHMS))
def test_api_every_maximum_algorithm(name, tiny_graph):
    result = max_bipartite_matching(tiny_graph, algorithm=name)
    assert result.cardinality == 3


def test_api_greedy_algorithms(tiny_graph):
    cheap = max_bipartite_matching(tiny_graph, algorithm="cheap")
    ks = max_bipartite_matching(tiny_graph, algorithm="karp-sipser")
    assert 1 <= cheap.cardinality <= 3
    assert 1 <= ks.cardinality <= 3


def test_api_case_insensitive(tiny_graph):
    assert max_bipartite_matching(tiny_graph, algorithm="G-PR").cardinality == 3


def test_api_forwards_config(tiny_graph):
    result = max_bipartite_matching(tiny_graph, algorithm="g-pr", strategy="fix:10")
    assert result.counters["strategy"] == "fix-10"


@pytest.mark.parametrize("name", sorted(SPECS))
def test_api_unknown_kwargs_raise_uniformly(name, tiny_graph):
    # Regression: the old registry wrappers for "pr" / "p-dbfs" only consumed
    # **kwargs when building a config, and the no-config algorithms swallowed
    # them entirely — a typo'd knob was silently ignored.
    with pytest.raises(TypeError, match="unexpected keyword"):
        max_bipartite_matching(tiny_graph, algorithm=name, bogus_knob=1)


def test_api_config_conflicts_with_field_kwargs(tiny_graph):
    from repro.seq.push_relabel import PushRelabelConfig

    with pytest.raises(TypeError, match="not both"):
        max_bipartite_matching(
            tiny_graph, "pr", config=PushRelabelConfig(), global_relabel_k=0.7
        )
    with pytest.raises(TypeError, match="does not take a config"):
        max_bipartite_matching(tiny_graph, "hk", config=PushRelabelConfig())
    with pytest.raises(TypeError, match="expects a"):
        max_bipartite_matching(tiny_graph, "pr", config=GPRConfig())


def test_api_config_field_kwargs_build_config(tiny_graph):
    result = max_bipartite_matching(tiny_graph, "pr", global_relabel_k=0.25)
    assert result.cardinality == 3
    result = max_bipartite_matching(tiny_graph, "p-dbfs", n_threads=2)
    assert result.cardinality == 3


def test_api_device_rejected_for_cpu_algorithms(tiny_graph):
    with pytest.raises(TypeError, match="does not run on a device"):
        max_bipartite_matching(tiny_graph, "pr", device=VirtualGPU(DeviceSpec().scaled()))


def test_resolve_algorithm_plan_is_reusable(tiny_graph, perfect_graph):
    plan = resolve_algorithm("g-pr", strategy="fix:10")
    assert plan.algorithm == "g-pr"
    assert plan.run(tiny_graph).cardinality == 3
    assert plan.run(perfect_graph).cardinality == 5


def test_resolve_algorithm_variant_pinned():
    # The variant is part of the registry entry, not a free knob.
    with pytest.raises(TypeError, match="unexpected keyword"):
        resolve_algorithm("g-pr", variant=GPRVariant.FIRST)
    plan = resolve_algorithm("g-pr-first")
    assert plan.config.resolved_variant() == GPRVariant.FIRST
    # ... and an explicit config cannot smuggle a different variant in.
    with pytest.raises(TypeError, match="pins"):
        resolve_algorithm("g-pr-first", config=GPRConfig(variant=GPRVariant.SHRINK))
    ok = resolve_algorithm("g-pr-first", config=GPRConfig(variant=GPRVariant.FIRST))
    assert ok.config.resolved_variant() == GPRVariant.FIRST


def test_api_warm_start_rejected_for_heuristics(tiny_graph):
    initial = Matching.empty(tiny_graph)
    for name in ("cheap", "karp-sipser"):
        with pytest.raises(TypeError, match="warm-start"):
            max_bipartite_matching(tiny_graph, name, initial=initial)
