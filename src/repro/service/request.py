"""The one job-request schema shared by ``repro run``/``stream``, manifests and the server.

Every job names a graph *recipe* — a suite instance (``graph`` + ``profile``
+ ``seed``) or a Matrix-Market path (``mtx``), optionally layered with a
``weights`` and a ``capacities`` spec — plus an algorithm, its keyword
arguments and a warm start.  :func:`parse_job` is the single validation
sequence for such an entry: a manifest line and a server request body are
entries as they stand, and the CLI builds one from its flags.  It raises
plain ``ValueError`` before any graph is built; callers add their context
(a manifest's ``path:line:`` prefix, the server's HTTP 400).

Graphs are materialised through :class:`GraphCache`, keyed on the job's
:class:`GraphRecipe`.  The field table in ``docs/formats.md`` is checked
against :data:`JOB_FIELDS`.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.api import SPECS, ExecutionPlan
from repro.engine.execution import validate_job_args
from repro.engine.job import INITIAL_CHOICES, MatchingJob
from repro.generators.capacities import apply_capacity_spec, parse_capacity_spec
from repro.generators.suite import SCALE_PROFILES, SUITE_SPECS, generate_instance
from repro.generators.weights import apply_weight_spec, parse_weight_spec
from repro.graph.io import read_matrix_market

__all__ = ["JOB_FIELDS", "GraphCache", "GraphRecipe", "JobRequest", "parse_job"]

#: Every field a job entry may carry; anything else is rejected.
JOB_FIELDS = (
    "graph", "mtx", "profile", "seed", "algorithm", "kwargs", "initial",
    "weights", "objective", "capacities", "shards", "partition", "id",
)


@dataclass(frozen=True)
class GraphRecipe:
    """Everything that determines a job's graph; hashable, so it keys the cache.

    ``source`` is ``"suite"`` (``ref`` is an instance name or id, built from
    ``profile`` and ``seed``) or ``"mtx"`` (``ref`` is the file path; profile
    and seed are ``None``).  A spec's seed is ``None`` when nothing is drawn
    with it, so recipes differing only in an unused seed share one graph.
    """

    source: str
    ref: str | int
    profile: str | None
    seed: int | None
    weights: str | None = None
    weight_seed: int | None = None
    capacities: str | None = None
    capacity_seed: int | None = None

    @property
    def values(self) -> bool:
        """Whether the weights are the ``.mtx`` file's own value entries."""
        return self.weights is not None and parse_weight_spec(self.weights)[0] == "values"

    @property
    def label(self) -> str:
        return Path(self.ref).name if self.source == "mtx" else str(self.ref)


@dataclass(frozen=True)
class JobRequest:
    """One validated job: its graph recipe plus the dispatch arguments."""

    recipe: GraphRecipe
    algorithm: str
    kwargs: dict
    initial: str | None
    job_id: str | None
    plan: ExecutionPlan = field(repr=False)

    def to_job(self, graphs: GraphCache) -> MatchingJob:
        """Materialise the graph through ``graphs`` and wrap it into a job."""
        return MatchingJob(
            graph=graphs.resolve(self.recipe),
            algorithm=self.algorithm,
            kwargs=self.kwargs,
            initial=self.initial,
            job_id=self.job_id,
        )


def _put(memo: dict, key, value, bound: int) -> None:
    if key not in memo and len(memo) >= bound:
        memo.pop(next(iter(memo)))  # FIFO: the oldest entry goes first
    memo[key] = value


class GraphCache:
    """Thread-safe, bounded FIFO memo of graphs keyed on their :class:`GraphRecipe`.

    One :meth:`resolve` is one lookup in ``hits``/``misses``.  A miss layers
    the recipe's weight and capacity specs onto its *structural* graph, which
    a second memo of the same bound keeps per (source, profile, seed), so a
    sweep of one instance over several weight specs generates it once.
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._graphs: dict[GraphRecipe, Any] = {}
        self._structural: dict[tuple, Any] = {}

    def resolve(self, recipe: GraphRecipe):
        """The graph for ``recipe``, building (and caching) it on first use."""
        with self._lock:
            graph = self._graphs.get(recipe)
            if graph is not None:
                self.hits += 1
                return graph
        base_key = (recipe.source, recipe.ref, recipe.profile, recipe.seed, recipe.values)
        with self._lock:
            base = self._structural.get(base_key)
        # Built outside the lock: generation can take a while and requests
        # for *different* recipes must not serialise on it.  A racing
        # duplicate build is benign — last writer wins, same content.
        if base is None:
            if recipe.source == "suite":
                base = generate_instance(recipe.ref, profile=recipe.profile, seed=recipe.seed)
            else:
                base = read_matrix_market(recipe.ref, with_weights=recipe.values)
        graph = base
        if recipe.weights is not None:
            graph = apply_weight_spec(graph, recipe.weights, seed=recipe.weight_seed)
        if recipe.capacities is not None:
            graph = apply_capacity_spec(graph, recipe.capacities, seed=recipe.capacity_seed)
        with self._lock:
            self.misses += 1
            _put(self._structural, base_key, base, self.max_entries)
            _put(self._graphs, recipe, graph, self.max_entries)
        return graph

    def snapshot(self) -> dict:
        with self._lock:
            return {"entries": len(self._graphs), "hits": self.hits, "misses": self.misses}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def parse_job(entry: Any, defaults: Mapping[str, Any] | None = None) -> JobRequest:
    """Validate one job entry into a :class:`JobRequest`; ``ValueError`` on any defect.

    ``defaults`` fills the fields the entry omits.  ``profile``, ``seed`` and
    ``id`` reach every job; the rest reach only the algorithms they are
    meaningful for, so a mixed batch stays valid (and cardinality jobs keep
    their weightless cache keys): ``weights``/``objective`` the weighted
    ones, ``capacities`` the capacitated ones, ``shards``/``partition`` the
    ones that can run sharded (maximum, unweighted, uncapacitated).
    Explicit entry fields are honoured — and validated — for every algorithm.
    """
    defaults = defaults or {}
    _require(isinstance(entry, dict), f"request must be an object, got {type(entry).__name__}")
    unknown = sorted(set(entry) - set(JOB_FIELDS))
    _require(not unknown, f"unknown request fields: {', '.join(unknown)}")
    _require(("graph" in entry) != ("mtx" in entry),
             "each job needs exactly one of 'graph' or 'mtx'")
    profile = entry.get("profile", defaults.get("profile", "small"))
    _require(isinstance(profile, str), "'profile' must be a string")
    _require(profile in SCALE_PROFILES,
             f"unknown profile {profile!r}; choose from {sorted(SCALE_PROFILES)}")
    seed = entry.get("seed", defaults.get("seed", 20130421))
    _require(isinstance(seed, int) and not isinstance(seed, bool), "'seed' must be an integer")
    kwargs = entry.get("kwargs", {})
    _require(isinstance(kwargs, dict), "'kwargs' must be an object")
    kwargs = dict(kwargs)
    initial = entry.get("initial")
    _require(initial in INITIAL_CHOICES,
             f"unknown warm-start {initial!r}; choose from {INITIAL_CHOICES}")
    algorithm = str(entry.get("algorithm", "g-pr")).strip().lower()
    spec = SPECS.get(algorithm)

    def value_of(name: str, default_applies: bool):
        return entry.get(name, defaults.get(name) if default_applies else None)

    weighted = spec is not None and spec.weighted
    weights = value_of("weights", weighted)
    values = False
    if weights is not None:
        _require(isinstance(weights, str), "'weights' must be a weight-spec string")
        values = parse_weight_spec(weights)[0] == "values"
        _require(not values or "mtx" in entry, "weight spec 'values' needs an 'mtx' source "
                 "(suite instances carry no value entries)")
    objective = value_of("objective", weighted)
    if objective is not None:
        _require(objective in ("max", "min"), "'objective' must be 'max' or 'min'")
        _require(kwargs.get("objective", objective) == objective,
                 "'objective' conflicts with kwargs['objective']")
        kwargs["objective"] = objective
    # Capacities layer onto the graph, not the kwargs: a cardinality solver
    # silently ignoring them would be a wrong answer, not a run.
    capacities = value_of("capacities", spec is not None and spec.capacitated)
    if capacities is not None:
        _require(isinstance(capacities, str), "'capacities' must be a capacity-spec string")
        parse_capacity_spec(capacities)
        _require(spec is None or spec.capacitated,
                 f"algorithm {algorithm!r} ignores vertex capacities; pick b-aug, "
                 "b-expand or b-auction, or drop 'capacities'")
    shardable = spec is not None and spec.maximum and not (spec.weighted or spec.capacitated)
    for name in ("shards", "partition"):
        value = value_of(name, shardable)
        if value is not None:
            _require(kwargs.get(name, value) == value, f"{name!r} conflicts with kwargs[{name!r}]")
            kwargs[name] = value
    if kwargs.get("shards") is not None:
        _require(weights is None,
                 "sharded matching is cardinality-only; drop 'weights' or 'shards'")
        _require(capacities is None,
                 "sharded matching is uncapacitated; drop 'capacities' or 'shards'")
    job_id = entry.get("id", defaults.get("id"))
    _require(job_id is None or isinstance(job_id, (str, int)), "'id' must be a string or integer")
    try:
        plan = validate_job_args(algorithm, kwargs, initial)
    except TypeError as exc:
        raise ValueError(str(exc)) from exc

    layers = (weights, None if weights is None or values else seed,
              capacities, None if capacities is None else seed)
    if "mtx" in entry:
        path = entry["mtx"]
        _require(isinstance(path, str) and Path(path).is_file(),
                 f"no such Matrix-Market file {path!r}")
        recipe = GraphRecipe("mtx", path, None, None, *layers)
    else:
        ref = entry["graph"]
        _require(isinstance(ref, (str, int)) and not isinstance(ref, bool),
                 "'graph' must be a suite instance name or id")
        _require(any(s.name == ref or s.instance_id == ref for s in SUITE_SPECS),
                 f"unknown suite instance {ref!r} (see `repro.cli list` for the available names)")
        recipe = GraphRecipe("suite", ref, profile, seed, *layers)
    return JobRequest(recipe, algorithm, kwargs, initial,
                      None if job_id is None else str(job_id), plan)
