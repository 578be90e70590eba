"""Synthetic bipartite-graph workload generators.

The paper evaluates on 28 matrices from the UFL (SuiteSparse) collection,
covering several structural families: road networks, Delaunay meshes,
Kronecker (R-MAT) graphs, power-law web / social graphs, co-purchase /
citation graphs and very large thin "trace / bubbles" meshes.  Those
instances are far too large to ship or to solve in pure Python, so this
package generates *scaled-down synthetic analogs* of each family and a
28-instance suite (:mod:`repro.generators.suite`) that mirrors the paper's
Table I line-up one to one.

Every generator is deterministic given a seed and returns a
:class:`~repro.graph.bipartite.BipartiteGraph`.
"""

from repro._lazy import lazy_exports

#: Names of the packaged dispatch scenarios, in registry order (see
#: :data:`repro.generators.scenarios.SCENARIOS`).  Defined here, where
#: importing it builds no graph, so the CLI parser can offer them as choices
#: without loading NumPy.
SCENARIO_NAMES = ("ride-hailing", "ad-slots", "task-routing")

__all__ = [
    "uniform_random_bipartite",
    "perfect_matching_plus_noise",
    "rmat_bipartite",
    "kronecker_graph",
    "chung_lu_bipartite",
    "power_law_web_graph",
    "grid_graph",
    "road_network_graph",
    "delaunay_like_graph",
    "trace_graph",
    "bubbles_graph",
    "random_update_trace",
    "suite_update_workload",
    "apply_weight_spec",
    "uniform_weights",
    "geometric_weights",
    "rank_correlated_weights",
    "apply_capacity_spec",
    "fixed_capacities",
    "uniform_capacities",
    "row_capacities",
    "col_capacities",
    "SCENARIOS",
    "SCENARIO_NAMES",
    "Scenario",
    "generate_scenario",
    "scenario_names",
    "SUITE_SPECS",
    "SuiteInstance",
    "generate_suite",
    "generate_instance",
    "instance_names",
    "materialize_instance",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".mesh": ("delaunay_like_graph", "grid_graph", "road_network_graph"),
    ".powerlaw": ("chung_lu_bipartite", "power_law_web_graph"),
    ".random_bipartite": ("perfect_matching_plus_noise", "uniform_random_bipartite"),
    ".rmat": ("kronecker_graph", "rmat_bipartite"),
    ".suite": (
        "SUITE_SPECS",
        "SuiteInstance",
        "generate_instance",
        "generate_suite",
        "instance_names",
        "materialize_instance",
    ),
    ".capacities": (
        "apply_capacity_spec",
        "col_capacities",
        "fixed_capacities",
        "row_capacities",
        "uniform_capacities",
    ),
    ".scenarios": ("SCENARIOS", "Scenario", "generate_scenario", "scenario_names"),
    ".trace": ("bubbles_graph", "trace_graph"),
    ".updates": ("random_update_trace", "suite_update_workload"),
    ".weights": (
        "apply_weight_spec",
        "geometric_weights",
        "rank_correlated_weights",
        "uniform_weights",
    ),
})
