"""Framework of the repo-native invariant linter.

The linter encodes the invariants the repo's subsystems rely on but which
generic tools cannot know about — deterministic solver modules, lock-guarded
engine/server state, the hot-path accessor convention and the failure
capture contract of the engine.  Each invariant is one rule with a stable
``RPR0xx`` code (the catalog lives in :mod:`repro.analysis.rules` and is
documented in ``docs/static-analysis.md``).

This module is dependency-free (stdlib only) on purpose: the CI ``lint-deep``
job runs it on a numpy-only minimal install.

Suppressions
------------
A violation is silenced by a comment on the *same line*::

    self._closed = True  # repro-lint: disable=RPR003 -- benign: monotonic flag

or for a whole file, anywhere in it::

    # repro-lint: disable-file=RPR001

``disable=all`` silences every rule for the line (or file).

Hot-path regions
----------------
The PR 5 accessor convention is enforced only inside explicitly annotated
regions, delimited by marker comments::

    # hot-path
    for idx in range(start, stop):
        ...
    # end hot-path

An unclosed region (or a stray ``# end hot-path``) is itself a violation.

An opening marker may name the compiled twin that replaces the region when
dispatch is enabled (the PR 10 compiled tier)::

    # hot-path compiled=alternating_level_bfs

The annotation is carried to the rules as ``LintContext.hot_shims``;
RPR004 validates the named entry against the dispatch registry and flags
dispatch lookups (``implementation_for``) *inside* regions — the lookup
belongs above the loop, next to the region, not in it.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field

__all__ = [
    "Violation",
    "LintContext",
    "lint_source",
    "lint_file",
    "lint_paths",
    "format_violations",
]

_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable|disable-file)\s*=\s*(?P<codes>[A-Za-z0-9_,\s]+)"
)
_HOT_OPEN = re.compile(r"#\s*hot-path(?:\s+compiled=(?P<entry>[A-Za-z0-9_.]+))?\s*$")
_HOT_CLOSE = re.compile(r"#\s*end\s+hot-path\s*$")


@dataclass(frozen=True, order=True)
class Violation:
    """One rule violation, anchored to a file and line."""

    path: str
    line: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


@dataclass
class LintContext:
    """Everything a rule needs to check one file."""

    path: str
    tree: ast.AST
    source: str
    #: Inclusive (open_line, close_line) pairs of ``# hot-path`` regions.
    hot_regions: list[tuple[int, int]] = field(default_factory=list)
    #: Regions whose opening marker carried ``compiled=<entry>``: the region
    #: pair mapped to the named dispatch entry.
    hot_shims: dict[tuple[int, int], str] = field(default_factory=dict)
    #: Path components after the ``repro`` package root (e.g. ``("seq", "greedy.py")``).
    module_parts: tuple[str, ...] = ()

    def in_hot_region(self, line: int) -> bool:
        return any(lo <= line <= hi for lo, hi in self.hot_regions)


@dataclass
class _Suppressions:
    by_line: dict[int, set[str]] = field(default_factory=dict)
    file_wide: set[str] = field(default_factory=set)

    def allows(self, violation: Violation) -> bool:
        for scope in (self.file_wide, self.by_line.get(violation.line, ())):
            if "all" in scope or violation.code in scope:
                return True
        return False


def _module_parts(path: str) -> tuple[str, ...]:
    parts = os.path.normpath(path).split(os.sep)
    for anchor in ("repro", "src"):
        if anchor in parts:
            idx = len(parts) - 1 - parts[::-1].index(anchor)
            tail = parts[idx + 1 :]
            if anchor == "src" and tail and tail[0] == "repro":
                tail = tail[1:]
            if tail:
                return tuple(tail)
    return tuple(parts[-2:])


def _scan_comments(
    source: str, path: str
) -> tuple[_Suppressions, list[tuple[int, int]], dict[tuple[int, int], str], list[Violation]]:
    """Extract suppressions, hot-path regions and shim annotations from the comments."""
    suppressions = _Suppressions()
    regions: list[tuple[int, int]] = []
    shims: dict[tuple[int, int], str] = {}
    open_stack: list[tuple[int, str | None]] = []
    violations: list[Violation] = []
    last_line = source.count("\n") + 1
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            line = tok.start[0]
            text = tok.string
            match = _DIRECTIVE.search(text)
            if match:
                codes = {c.strip() for c in match.group("codes").split(",") if c.strip()}
                if match.group("kind") == "disable-file":
                    suppressions.file_wide |= codes
                else:
                    suppressions.by_line.setdefault(line, set()).update(codes)
            open_match = _HOT_OPEN.search(text)
            if open_match:
                open_stack.append((line, open_match.group("entry")))
            elif _HOT_CLOSE.search(text):
                if not open_stack:
                    violations.append(
                        Violation(path, line, "RPR004", "stray `# end hot-path` with no open region")
                    )
                else:
                    opened, entry = open_stack.pop()
                    regions.append((opened, line))
                    if entry is not None:
                        shims[(opened, line)] = entry
    except tokenize.TokenError:
        pass  # the ast.parse error path reports the syntax problem
    for line, entry in open_stack:
        violations.append(
            Violation(path, line, "RPR004", "unclosed `# hot-path` region (missing `# end hot-path`)")
        )
        regions.append((line, last_line))
        if entry is not None:
            shims[(line, last_line)] = entry
    return suppressions, regions, shims, violations


def lint_source(source: str, path: str = "<string>", rules=None) -> list[Violation]:
    """Lint one source string; returns the violations sorted by line then code."""
    if rules is None:
        from repro.analysis.rules import RULES

        rules = RULES
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Violation(path, exc.lineno or 1, "RPR000", f"syntax error: {exc.msg}")]
    suppressions, regions, shims, violations = _scan_comments(source, path)
    ctx = LintContext(
        path=path,
        tree=tree,
        source=source,
        hot_regions=regions,
        hot_shims=shims,
        module_parts=_module_parts(path),
    )
    for rule in rules.values():
        violations.extend(rule.check(ctx))
    return sorted(v for v in violations if not suppressions.allows(v))


def lint_file(path: str, rules=None) -> list[Violation]:
    with open(path, encoding="utf-8") as handle:
        return lint_source(handle.read(), path, rules=rules)


def lint_paths(paths, rules=None) -> list[Violation]:
    """Lint files and directories (recursing into ``*.py``), in sorted order."""
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d not in ("__pycache__", ".git"))
                files.extend(os.path.join(root, n) for n in sorted(names) if n.endswith(".py"))
        else:
            files.append(path)
    violations: list[Violation] = []
    for file_path in files:
        violations.extend(lint_file(file_path, rules=rules))
    return violations


def format_violations(violations) -> str:
    return "\n".join(v.render() for v in violations)
