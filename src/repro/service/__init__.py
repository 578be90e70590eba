"""Batched matching service.

A thin caching facade over the execution engine (:mod:`repro.engine`):

* :class:`~repro.engine.job.MatchingJob` — one unit of work (graph +
  algorithm + kwargs + optional warm-start), hashable and picklable
  (re-exported here);
* :class:`~repro.service.service.MatchingService` — executes batches of
  jobs on an :class:`~repro.engine.Engine`, memoizing results on the
  graph's content hash, deduplicating identical jobs within a batch, and
  isolating per-job failures (``status="failed"`` instead of a batch-wide
  exception);
* :class:`~repro.service.cache.ResultCache` /
  :class:`~repro.service.cache.DiskCache` — in-memory LRU and persistent
  result stores;
* :mod:`~repro.service.request` — the job-request schema
  (:func:`~repro.service.request.parse_job`) and graph-recipe cache shared
  by the CLI, manifests and the server.

Quickstart
----------
>>> from repro.generators import uniform_random_bipartite
>>> from repro.service import MatchingJob, MatchingService
>>> g = uniform_random_bipartite(200, 200, avg_degree=4, seed=1)
>>> service = MatchingService()
>>> report = service.submit_batch([MatchingJob(graph=g, algorithm=a)
...                                for a in ("g-pr", "pr", "hk")])
>>> len(set(report.cardinalities())) == 1
True
"""

from repro._lazy import lazy_exports

__all__ = [
    "BatchReport",
    "DiskCache",
    "JobResult",
    "MatchingJob",
    "MatchingService",
    "ResultCache",
    "execute_job",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cache": ("DiskCache", "ResultCache"),
    ".jobs": ("BatchReport", "JobResult", "MatchingJob"),
    ".service": ("MatchingService", "execute_job"),
})
