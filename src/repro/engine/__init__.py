"""Execution engine: one job model, many interchangeable backends.

The paper maps the same matching computation onto heterogeneous execution
substrates (sequential CPU, multicore P-DBFS, GPU G-PR); this package gives
the library's execution surface the same shape:

* :class:`~repro.engine.job.MatchingJob` — one unit of work (graph +
  algorithm + kwargs + optional warm-start), hashable and picklable;
* :class:`~repro.engine.engine.Engine` — ``submit() -> JobHandle``,
  ``map()`` and an ``as_completed()`` streaming iterator, with per-job
  deadlines and cancellation;
* :class:`~repro.engine.handles.JobHandle` — a future with typed status
  (``ok`` / ``failed`` / ``cancelled`` / ``timeout``) and captured errors,
  so one raising job never aborts its batch;
* five :class:`~repro.engine.backends.ExecutionBackend` implementations:
  :class:`~repro.engine.backends.InlineBackend` (synchronous),
  :class:`~repro.engine.backends.ThreadBackend` (persistent thread pool),
  :class:`~repro.engine.process.ProcessPoolBackend` (persistent process
  pool shipping resolved plans, true per-job timings),
  :class:`~repro.engine.device.DevicePoolBackend` (multiplexes jobs over a
  pool of :class:`~repro.gpusim.VirtualGPU` instances) and
  :class:`~repro.engine.backends.CompiledBackend` (synchronous, but
  requires the numba-compiled kernel tier and pre-compiles every twin).

All backends produce bit-identical :class:`~repro.matching.MatchingResult`
objects for the same job list.  The batched :mod:`repro.service` is a thin
caching facade over this package.

Quickstart
----------
>>> from repro.engine import Engine, MatchingJob
>>> from repro.generators import uniform_random_bipartite
>>> g = uniform_random_bipartite(200, 200, avg_degree=4, seed=1)
>>> with Engine(backend="thread", max_workers=2) as engine:
...     handles = engine.map([MatchingJob(graph=g, algorithm=a) for a in ("g-pr", "pr")])
...     cards = {h.result().cardinality for h in engine.as_completed(handles)}
>>> len(cards) == 1
True
"""

from repro._lazy import lazy_exports

#: Names of the execution backends :func:`create_backend` builds.  Defined
#: here, where importing it loads no backend, so the CLI parser can offer
#: them as choices without loading NumPy.
BACKEND_NAMES = ("inline", "thread", "process", "device", "compiled")

__all__ = [
    "BACKEND_NAMES",
    "CompiledBackend",
    "DevicePoolBackend",
    "Engine",
    "EngineSaturatedError",
    "ExecutionBackend",
    "FaultInjectingBackend",
    "FaultSchedule",
    "INITIAL_CHOICES",
    "InjectedCrashError",
    "InlineBackend",
    "JobCancelledError",
    "JobError",
    "JobFailedError",
    "JobFailure",
    "JobHandle",
    "JobStatus",
    "JobTimeoutError",
    "MatchingJob",
    "ProcessPoolBackend",
    "ThreadBackend",
    "as_completed",
    "create_backend",
    "execute_job",
    "resolve_job_plan",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".backends": ("CompiledBackend", "ExecutionBackend", "InlineBackend", "ThreadBackend"),
    ".device": ("DevicePoolBackend",),
    ".engine": ("Engine", "EngineSaturatedError", "as_completed", "create_backend"),
    ".execution": ("execute_job", "resolve_job_plan"),
    ".faults": ("FaultInjectingBackend", "FaultSchedule", "InjectedCrashError"),
    ".handles": (
        "JobCancelledError",
        "JobError",
        "JobFailedError",
        "JobFailure",
        "JobHandle",
        "JobStatus",
        "JobTimeoutError",
    ),
    ".job": ("INITIAL_CHOICES", "MatchingJob"),
    ".process": ("ProcessPoolBackend",),
})
