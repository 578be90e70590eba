"""The CLI loads only the layers the chosen subcommand runs.

Each case runs in a fresh interpreter: within the test session every layer
is already imported.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

#: Layers a ``repro run`` of G-PR on a suite graph never executes.
RUN_NEVER_LOADS = (
    "repro.bench",
    "repro.weighted",
    "repro.capacity",
    "repro.multicore",
    "repro.engine.engine",
    "repro.server",
    "repro.dynamic",
    "multiprocessing",
    "asyncio",
)


def _modules_after(code: str) -> set[str]:
    """The ``sys.modules`` keys of a fresh interpreter after running ``code``."""
    probe = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "print(json.dumps(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"},
        check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_no_numpy():
    loaded = _modules_after("import repro.cli")
    assert "numpy" not in loaded
    assert not {name for name in loaded if name.startswith("repro.")} - {
        "repro._lazy",
        "repro.cli",
    }


def test_help_and_argument_errors_load_no_numpy():
    loaded = _modules_after(
        "from repro.cli import build_parser, main\n"
        "commands = build_parser()._subparsers._group_actions[0].choices\n"
        "for argv in [['--help'], *([name, '--help'] for name in commands),\n"
        "             ['run', '--algorithm', 'no-such-solver']]:\n"
        "    try:\n"
        "        with contextlib.redirect_stderr(io.StringIO()):\n"
        "            main(argv)\n"
        "    except SystemExit:\n"
        "        pass\n"
    )
    assert "numpy" not in loaded


def test_run_loads_only_the_layers_it_executes():
    loaded = _modules_after(
        "from repro.cli import main\n"
        "assert main(['run', '--graph', 'roadNet-PA', '--profile', 'tiny',\n"
        "             '--algorithm', 'g-pr']) == 0\n"
    )
    assert "repro.core.gpr" in loaded  # the probe really ran the solve
    assert sorted(name for name in RUN_NEVER_LOADS if name in loaded) == []


def test_lazy_packages_resolve_every_public_name():
    for name in ("repro", "repro.core", "repro.engine", "repro.service",
                 "repro.generators", "repro.bench"):
        package = importlib.import_module(name)
        missing = [attr for attr in package.__all__ if not hasattr(package, attr)]
        assert missing == [], f"{name} cannot resolve {missing}"
        assert set(package.__all__) <= set(dir(package))
