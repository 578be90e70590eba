"""Default tolerances of the perf-regression gate (``repro perf --compare``).

:func:`repro.bench.perfbaseline.compare` applies them; the CLI prints them
in ``repro perf --help``.  They live in this standard-library-only module so
that building the CLI parser loads neither NumPy nor the bench harness.
"""

__all__ = ["CROSS_PROFILE_SLACK", "DEFAULT_MODELED_TOLERANCE", "DEFAULT_WALL_TOLERANCE"]

#: Wall-clock noise tolerance (ratio current/baseline) for same-profile runs.
DEFAULT_WALL_TOLERANCE = 2.5
#: Modeled-seconds tolerance; modeled times are deterministic counter
#: arithmetic, so anything beyond float formatting is a real work change.
DEFAULT_MODELED_TOLERANCE = 1.05
#: Extra multiplier applied to both tolerances when the compared runs used
#: different profiles (per-edge normalisation transfers only approximately).
CROSS_PROFILE_SLACK = 3.0
