"""The shared job-request schema and graph-recipe cache (``repro.service.request``).

:func:`parse_job` validates manifest lines, server request bodies and the
CLI's flag-built entries alike; :class:`GraphCache` materialises every
job's graph.  These tests pin the recipe keys (one structural graph per
source across weight and capacity specs, unused seeds left out of the key),
the cache's FIFO bound and lookup accounting, and the trait-gated defaults.
"""

from __future__ import annotations

import http.client
import json

import pytest

import repro.service.request as request_module
from repro.cli import main
from repro.generators import uniform_random_bipartite
from repro.graph import write_matrix_market
from repro.server import MatchingServer
from repro.service.request import JOB_FIELDS, GraphCache, parse_job

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

_WEIGHT_SPECS = ("uniform:1:9", "geometric:0.2", "rank")


@pytest.fixture()
def mtx_path(tmp_path):
    path = tmp_path / "g.mtx"
    write_matrix_market(uniform_random_bipartite(30, 30, avg_degree=3.0, seed=2), path)
    return str(path)


@pytest.fixture()
def builds(monkeypatch):
    """Counts structural builds: suite generations and Matrix-Market reads."""
    calls = []
    for name in ("generate_instance", "read_matrix_market"):
        original = getattr(request_module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append((_name, args[0]))
            return _original(*args, **kwargs)

        monkeypatch.setattr(request_module, name, counting)
    return calls


def _entries(source: dict) -> list[dict]:
    """One source swept over weight specs and a capacity spec."""
    return (
        [{**source, "algorithm": "weighted-sap", "weights": w} for w in _WEIGHT_SPECS]
        + [{**source, "algorithm": "b-aug", "capacities": "rows:2"},
           {**source, "algorithm": "pr"}]
    )


def test_mtx_recipe_leaves_unused_seeds_out(mtx_path):
    plain = [parse_job({"mtx": mtx_path, "seed": seed}).recipe for seed in (1, 2)]
    assert plain[0] == plain[1]
    assert plain[0].weight_seed is None and plain[0].capacity_seed is None
    values = parse_job({"mtx": mtx_path, "seed": 1, "weights": "values",
                        "algorithm": "weighted-sap"}).recipe
    assert values.weight_seed is None
    capacitated = [
        parse_job({"mtx": mtx_path, "seed": seed, "algorithm": "b-aug",
                   "capacities": "uniform:1:3"}).recipe
        for seed in (1, 2)
    ]
    assert capacitated[0] != capacitated[1]  # the seed draws the capacities
    assert capacitated[0].capacity_seed == 1


@pytest.mark.parametrize("kind", ["suite", "mtx"])
def test_batch_builds_one_structural_graph_across_specs(tmp_path, capsys, builds, mtx_path,
                                                        kind):
    source = {"graph": "roadNet-PA"} if kind == "suite" else {"mtx": mtx_path}
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text("".join(json.dumps(e) + "\n" for e in _entries(source)))
    assert main(["batch", "--manifest", str(manifest), "--profile", "tiny", "--no-cache"]) == 0
    capsys.readouterr()
    assert len(builds) == 1


@pytest.mark.parametrize("kind", ["suite", "mtx"])
def test_server_builds_one_structural_graph_across_specs(builds, mtx_path, kind):
    source = {"graph": "roadNet-PA"} if kind == "suite" else {"mtx": mtx_path}
    entries = _entries(source)
    with MatchingServer(backend="thread", workers=1, default_profile="tiny") as server:
        server.start_in_background()
        for entry in entries + entries:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            conn.request("POST", "/v1/match", body=json.dumps(entry))
            response = conn.getresponse()
            assert response.status == 200, response.read()
            response.read()
            conn.close()
        snapshot = server.graphs.snapshot()
    assert len(builds) == 1
    # One lookup per request: every distinct recipe misses once, repeats hit.
    assert snapshot == {"entries": len(entries), "hits": len(entries), "misses": len(entries)}


def test_graph_cache_is_a_bounded_fifo():
    cache = GraphCache(max_entries=2)
    recipes = [parse_job({"graph": name, "profile": "tiny"}).recipe
               for name in ("roadNet-PA", "amazon0505", "roadNet-PA")]
    first = cache.resolve(recipes[0])
    cache.resolve(recipes[1])
    assert cache.resolve(recipes[2]) is first  # same recipe: a hit
    cache.resolve(parse_job({"graph": "delaunay_n20", "profile": "tiny"}).recipe)
    assert cache.snapshot()["entries"] == 2  # the oldest recipe was evicted
    assert cache.resolve(recipes[0]) is not first
    assert cache.snapshot() == {"entries": 2, "hits": 1, "misses": 4}
    with pytest.raises(ValueError):
        GraphCache(max_entries=0)


def test_defaults_reach_only_the_algorithms_they_fit():
    defaults = {"profile": "tiny", "seed": 3, "weights": "uniform", "objective": "min",
                "capacities": "rows:2", "shards": 2, "partition": "degree", "id": "d"}
    weighted = parse_job({"graph": "roadNet-PA", "algorithm": "weighted-sap"}, defaults)
    assert weighted.recipe.weights == "uniform" and weighted.kwargs == {"objective": "min"}
    assert weighted.recipe.capacities is None
    capacitated = parse_job({"graph": "roadNet-PA", "algorithm": "b-aug"}, defaults)
    assert capacitated.recipe.capacities == "rows:2" and capacitated.recipe.weights is None
    cardinality = parse_job({"graph": "roadNet-PA", "algorithm": "hk"}, defaults)
    assert cardinality.kwargs == {"shards": 2, "partition": "degree"}
    assert cardinality.recipe.weights is None and cardinality.recipe.capacities is None
    assert (cardinality.recipe.profile, cardinality.recipe.seed) == ("tiny", 3)
    assert cardinality.job_id == "d"
    heuristic = parse_job({"graph": "roadNet-PA", "algorithm": "karp-sipser"}, defaults)
    assert heuristic.kwargs == {}  # not maximum: no shard defaults


def test_every_field_is_known_and_unknown_fields_are_named():
    entry = {"graph": "roadNet-PA", "profile": "tiny", "seed": 1, "algorithm": "hk",
             "kwargs": {}, "initial": "cheap", "shards": None, "partition": None,
             "weights": None, "objective": None, "capacities": None, "id": 7}
    assert set(entry) | {"mtx"} == set(JOB_FIELDS)
    assert parse_job(entry).job_id == "7"
    with pytest.raises(ValueError, match="unknown request fields: bogus, tenant"):
        parse_job({**entry, "tenant": "t", "bogus": 1})
