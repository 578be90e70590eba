"""Capacitated dispatch scenarios: graph + churn trace + service target.

Each recipe models a real many-to-one assignment workload as a capacitated
(and, where bidding matters, weighted) bipartite graph plus a replayable
:class:`~repro.dynamic.updates.GraphUpdate` trace of arrivals, departures
and repricing — the end-to-end inputs of the CLI ``stream`` subcommand and
the scenario-smoke CI job.  Everything is deterministic given the seed.

Three recipes ship:

* ``ride-hailing`` — riders (rows, capacity 1) match to drivers (columns,
  1–4 seats) by integer proximity score; riders churn fast, drivers rarely
  go offline.  Weighted + column-capacitated, the ``b-auction`` shape.
* ``ad-slots`` — ads (rows, capacity 1) bid for slots (columns, hosting
  2–6 ads); ads launch and wind down, bids get pulled.  Also weighted +
  column-capacitated.
* ``task-routing`` — workers (rows, 2–5 concurrent tasks) take tasks
  (columns, capacity 1); tasks stream in and complete.  Unweighted, the
  cardinality ``b-aug`` / ``b-expand`` shape.

Each :class:`Scenario` carries a suggested ``algorithm`` and an ``slo`` —
the assignment rate (matched pairs over demand) the replay's final window
is expected to meet, which the ``stream`` summary reports as ``slo_met``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dynamic.updates import GraphUpdate
from repro.generators import SCENARIO_NAMES
from repro.graph.bipartite import BipartiteGraph
from repro.graph.builders import from_edges

__all__ = [
    "SCENARIOS",
    "Scenario",
    "generate_scenario",
    "scenario_names",
]


@dataclass(frozen=True)
class Scenario:
    """A replayable dispatch workload: starting graph, churn trace, target.

    Attributes
    ----------
    name:
        Registry key (also stored as the graph's name, with the seed).
    description:
        One line of intent, surfaced by ``repro stream --scenario help``.
    graph:
        The starting :class:`BipartiteGraph` — capacitated, and weighted
        when the recipe prices its edges.
    updates:
        The churn trace, in replay order.
    algorithm:
        Suggested solver (a capacitated registry spec).
    slo:
        Minimum acceptable assignment rate (cardinality over demand) after
        the full trace has been replayed.
    """

    name: str
    description: str
    graph: BipartiteGraph
    updates: tuple[GraphUpdate, ...]
    algorithm: str
    slo: float


def _scored_edges(rng, n_rows, n_cols, per_row, scale=100):
    """``per_row`` distinct partners per row with integer scores in [1, scale]."""
    edges, weights = [], []
    for u in range(n_rows):
        k = min(n_cols, int(per_row))
        partners = rng.choice(n_cols, size=k, replace=False)
        for v in sorted(int(v) for v in partners):
            edges.append((u, v))
            weights.append(float(rng.integers(1, scale + 1)))
    return edges, weights


def ride_hailing_scenario(seed: int = 0) -> Scenario:
    """Riders (capacity 1) to drivers (1–4 seats), scored by proximity."""
    rng = np.random.default_rng(seed)
    n_riders, n_drivers = 48, 16
    edges, weights = _scored_edges(rng, n_riders, n_drivers, per_row=3)
    graph = from_edges(
        edges, n_riders, n_drivers, name=f"ride-hailing-s{seed}", weights=weights
    )
    seats = rng.integers(1, 5, size=n_drivers).astype(np.int64)
    graph = graph.with_capacities(np.ones(n_riders, dtype=np.int64), seats)

    updates: list[GraphUpdate] = []
    n_rows, active_rows = n_riders, list(range(n_riders))
    retired_cols: set[int] = set()
    for _ in range(120):
        roll = rng.random()
        if roll < 0.45:  # a new rider opens the app
            updates.append(GraphUpdate.add_row())
            u, n_rows = n_rows, n_rows + 1
            active_rows.append(u)
            for v in _pick_cols(rng, n_drivers, 3, retired_cols):
                updates.append(
                    GraphUpdate.insert(u, v, weight=float(rng.integers(1, 101)))
                )
        elif roll < 0.85 and active_rows:  # a rider cancels or is served
            u = active_rows.pop(int(rng.integers(len(active_rows))))
            updates.append(GraphUpdate.retire_row(u))
        elif len(retired_cols) < n_drivers - 4:  # a driver goes offline
            v = int(rng.integers(n_drivers))
            if v not in retired_cols:
                retired_cols.add(v)
                updates.append(GraphUpdate.retire_col(v))
    return Scenario(
        name="ride-hailing",
        description="riders (cap 1) to drivers (1-4 seats), proximity-scored",
        graph=graph,
        updates=tuple(updates),
        algorithm="b-auction",
        slo=0.9,
    )


def ad_slot_scenario(seed: int = 0) -> Scenario:
    """Ads (capacity 1) bidding for slots hosting 2–6 ads each."""
    rng = np.random.default_rng(seed)
    n_ads, n_slots = 60, 12
    edges, weights = _scored_edges(rng, n_ads, n_slots, per_row=4, scale=50)
    graph = from_edges(
        edges, n_ads, n_slots, name=f"ad-slots-s{seed}", weights=weights
    )
    hosting = rng.integers(2, 7, size=n_slots).astype(np.int64)
    graph = graph.with_capacities(np.ones(n_ads, dtype=np.int64), hosting)

    updates: list[GraphUpdate] = []
    n_rows, active_rows = n_ads, list(range(n_ads))
    bids = {(u, v) for u, v in edges}
    for _ in range(150):
        roll = rng.random()
        if roll < 0.4:  # a campaign launches
            updates.append(GraphUpdate.add_row())
            u, n_rows = n_rows, n_rows + 1
            active_rows.append(u)
            for v in _pick_cols(rng, n_slots, 4, set()):
                updates.append(
                    GraphUpdate.insert(u, v, weight=float(rng.integers(1, 51)))
                )
                bids.add((u, v))
        elif roll < 0.7 and active_rows:  # a campaign winds down
            u = active_rows.pop(int(rng.integers(len(active_rows))))
            updates.append(GraphUpdate.retire_row(u))
            bids = {pair for pair in bids if pair[0] != u}
        elif bids:  # a bid is pulled
            pair = sorted(bids)[int(rng.integers(len(bids)))]
            bids.discard(pair)
            updates.append(GraphUpdate.delete(*pair))
    return Scenario(
        name="ad-slots",
        description="ads (cap 1) bidding for slots hosting 2-6 ads",
        graph=graph,
        updates=tuple(updates),
        algorithm="b-auction",
        slo=0.9,
    )


def task_routing_scenario(seed: int = 0) -> Scenario:
    """Workers running 2–5 concurrent tasks; tasks stream in and complete."""
    rng = np.random.default_rng(seed)
    n_workers, n_tasks = 12, 64
    edges = []
    for v in range(n_tasks):
        k = min(n_workers, 3)
        for u in sorted(int(u) for u in rng.choice(n_workers, size=k, replace=False)):
            edges.append((u, v))
    graph = from_edges(edges, n_workers, n_tasks, name=f"task-routing-s{seed}")
    concurrency = rng.integers(2, 6, size=n_workers).astype(np.int64)
    graph = graph.with_capacities(concurrency, np.ones(n_tasks, dtype=np.int64))

    updates: list[GraphUpdate] = []
    n_cols, active_cols = n_tasks, list(range(n_tasks))
    for _ in range(160):
        roll = rng.random()
        if roll < 0.45:  # a task is submitted
            updates.append(GraphUpdate.add_col())
            v, n_cols = n_cols, n_cols + 1
            active_cols.append(v)
            for u in sorted(
                int(u)
                for u in rng.choice(n_workers, size=min(n_workers, 3), replace=False)
            ):
                updates.append(GraphUpdate.insert(u, v))
        elif active_cols:  # a task completes
            v = active_cols.pop(int(rng.integers(len(active_cols))))
            updates.append(GraphUpdate.retire_col(v))
    return Scenario(
        name="task-routing",
        description="workers (2-5 concurrent tasks) taking unit tasks",
        graph=graph,
        updates=tuple(updates),
        algorithm="b-aug",
        slo=0.9,
    )


def _pick_cols(rng, n_cols: int, k: int, excluded: set[int]) -> list[int]:
    """Up to ``k`` distinct non-excluded column indices, ascending."""
    available = [v for v in range(n_cols) if v not in excluded]
    if not available:
        return []
    k = min(k, len(available))
    picked = rng.choice(len(available), size=k, replace=False)
    return sorted(available[int(i)] for i in picked)


#: Registry of scenario recipes, keyed by CLI name (in
#: :data:`repro.generators.SCENARIO_NAMES` order).
SCENARIOS = dict(zip(
    SCENARIO_NAMES,
    (ride_hailing_scenario, ad_slot_scenario, task_routing_scenario),
    strict=True,
))


def scenario_names() -> list[str]:
    """The registered scenario names, in registry order."""
    return list(SCENARIO_NAMES)


def generate_scenario(name: str, seed: int = 0) -> Scenario:
    """Build the named scenario with the given seed.

    Raises
    ------
    ValueError
        For an unknown scenario name.
    """
    if name not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        )
    return SCENARIOS[name](seed=seed)
