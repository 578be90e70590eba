"""Benchmark entry point.

    python3 perfbench/run.py --workload suite-solve --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` replays the
workload once untraced and once traced and reports the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when
any output was wrong or the run was invalid.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("suite-solve", "oneshot-cli", "serve-mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # A terminated run still unwinds: servers are stopped, temp files removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from perfbench import oneshot_cli, serve_mix, suite_solve
    from perfbench.common import END_TO_END, PER_LAYER, emit

    module = {"suite-solve": suite_solve, "oneshot-cli": oneshot_cli,
              "serve-mix": serve_mix}[args.workload]
    if args.trace:
        return emit(module.measure_traced(args.seed, args.seconds), PER_LAYER)
    return emit(module.measure(args.seed, args.seconds), END_TO_END)


if __name__ == "__main__":
    sys.exit(main())
