"""repro — reproduction of the ICPP 2013 GPU push-relabel bipartite matching paper.

The package implements, in pure Python/NumPy on a virtual SIMT device:

* the paper's contribution: the lock- and atomic-free GPU push-relabel
  maximum cardinality bipartite matching algorithm **G-PR** with adaptive
  global relabeling and active-list shrinking (:mod:`repro.core`),
* every baseline it is compared against: sequential PR, HK, HKDW,
  Pothen–Fan (:mod:`repro.seq`), the multicore P-DBFS
  (:mod:`repro.multicore`) and the GPU G-HKDW (:mod:`repro.core.ghkdw`),
* the substrates those need: a CSR bipartite graph (:mod:`repro.graph`),
  synthetic workload generators mirroring the paper's 28-instance suite
  (:mod:`repro.generators`) and a virtual GPU with a calibrated cost model
  (:mod:`repro.gpusim`),
* the benchmark harness regenerating every figure and table of the paper
  (:mod:`repro.bench`),
* and the workload extensions: an execution engine with pluggable backends
  (:mod:`repro.engine`), a batched caching service (:mod:`repro.service`),
  incremental matching under streaming updates (:mod:`repro.dynamic`) and
  weighted assignment with dual optimality certificates
  (:mod:`repro.weighted`).

Quickstart
----------
>>> from repro import max_bipartite_matching
>>> from repro.generators import uniform_random_bipartite
>>> graph = uniform_random_bipartite(1000, 1000, avg_degree=5, seed=1)
>>> result = max_bipartite_matching(graph, algorithm="g-pr")
>>> result.cardinality > 0
True
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "BipartiteGraph",
    "Matching",
    "MatchingResult",
    "max_bipartite_matching",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".graph": ("BipartiteGraph",),
    ".matching": ("Matching", "MatchingResult"),
})


def max_bipartite_matching(graph, algorithm: str = "g-pr", **kwargs):
    """Compute a maximum cardinality matching of ``graph``.

    Thin convenience wrapper around :func:`repro.core.api.max_bipartite_matching`
    (imported lazily so the substrate packages stay importable on their own).
    See that function for the list of algorithms and options.
    """
    from repro.core.api import max_bipartite_matching as _impl

    return _impl(graph, algorithm=algorithm, **kwargs)
