"""The rule catalog of the repo-native invariant linter.

Every rule encodes one invariant this repository's subsystems rely on (the
rationale, examples and suppression syntax are documented in
``docs/static-analysis.md``):

========  ==================================================================
RPR001    No wall-clock reads in determinism-scoped modules (solvers,
          kernels, fault schedules).  ``time.perf_counter``/``monotonic``
          are fine — they measure durations, not dates.
RPR002    No unseeded random generators in determinism-scoped modules.
RPR003    In lock-owning classes of ``engine``/``server``/``service``,
          every ``self.*`` attribute write outside ``__init__`` must sit
          inside a ``with self.<lock>:`` block.
RPR004    No property-accessor calls (``col_degrees``, ``csr_lists()``,
          ``column_neighbors()`` …) and no compiled-dispatch lookups
          (``implementation_for()``) inside annotated ``# hot-path``
          regions (the PR 5 convention: hoist before the loop).  A
          ``# hot-path compiled=<entry>`` annotation must name a
          registered :mod:`repro.compiled.dispatch` entry.
RPR005    No bare ``except:``; no silently swallowed broad/engine failures
          (``except Exception: pass`` and friends).
========  ==================================================================
"""

from __future__ import annotations

import ast
from collections.abc import Callable
from dataclasses import dataclass

from repro.analysis.linting import LintContext, Violation

__all__ = ["Rule", "RULES"]


@dataclass(frozen=True)
class Rule:
    code: str
    name: str
    summary: str
    check: Callable[[LintContext], list[Violation]]


# --------------------------------------------------------------------------
# scope helpers
# --------------------------------------------------------------------------
#: Packages whose algorithmic behaviour must be a pure function of the inputs
#: and explicit seeds (the repo's determinism contract: bit-identical results
#: across backends, reproducible fault schedules, stable golden counters).
_DETERMINISM_PACKAGES = {
    "core",
    "seq",
    "weighted",
    "multicore",
    "gpusim",
    "sharded",
    "dynamic",
    "capacity",
    "compiled",
}
_DETERMINISM_FILES = {("graph", "frontier.py"), ("engine", "faults.py")}

#: Packages whose classes guard shared state with ``self.*lock*`` members.
_LOCKED_PACKAGES = {"engine", "server", "service"}


def _in_determinism_scope(ctx: LintContext) -> bool:
    parts = ctx.module_parts
    return bool(parts) and (parts[0] in _DETERMINISM_PACKAGES or parts in _DETERMINISM_FILES)


def _dotted(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains; ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# --------------------------------------------------------------------------
# RPR001 — wall-clock reads
# --------------------------------------------------------------------------
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "time.strftime",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "date.today",
}


def _check_wall_clock(ctx: LintContext) -> list[Violation]:
    if not _in_determinism_scope(ctx):
        return []
    out = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted in _WALL_CLOCK_CALLS:
                out.append(
                    Violation(
                        ctx.path,
                        node.lineno,
                        "RPR001",
                        f"wall-clock read `{dotted}()` in a determinism-scoped module "
                        "(use time.perf_counter/monotonic for durations)",
                    )
                )
    return out


# --------------------------------------------------------------------------
# RPR002 — unseeded randomness
# --------------------------------------------------------------------------
_STDLIB_RANDOM_FNS = {
    "random",
    "randint",
    "randrange",
    "uniform",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "gauss",
    "seed",
    "getrandbits",
}
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64"}


def _check_unseeded_rng(ctx: LintContext) -> list[Violation]:
    if not _in_determinism_scope(ctx):
        return []
    out = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is None:
            continue
        message = None
        tail = dotted.rsplit(".", 1)[-1]
        if tail in ("default_rng", "Random") and not node.args and not node.keywords:
            message = f"`{dotted}()` without a seed"
        elif dotted.startswith(("np.random.", "numpy.random.")) and tail not in _NP_RANDOM_OK:
            message = f"legacy global-state RNG call `{dotted}()`"
        elif dotted.startswith("random.") and tail in _STDLIB_RANDOM_FNS:
            message = f"module-level stdlib RNG call `{dotted}()`"
        if message:
            out.append(
                Violation(
                    ctx.path,
                    node.lineno,
                    "RPR002",
                    f"{message} in a determinism-scoped module "
                    "(thread an explicit seeded Generator through instead)",
                )
            )
    return out


# --------------------------------------------------------------------------
# RPR003 — lock discipline
# --------------------------------------------------------------------------
_LOCK_FACTORIES = {"Lock", "RLock", "Condition"}
_LOCK_EXEMPT_METHODS = {"__init__", "__post_init__", "__new__"}


def _lock_attrs_of(cls: ast.ClassDef) -> set[str]:
    """Names of ``self.<attr> = threading.Lock()``-style members (attr must mention "lock")."""
    attrs: set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        factory = _dotted(node.value.func) or ""
        if factory.rsplit(".", 1)[-1] not in _LOCK_FACTORIES:
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and "lock" in target.attr.lower()
            ):
                attrs.add(target.attr)
    return attrs


def _self_attr_writes(stmt: ast.stmt) -> list[ast.Attribute]:
    targets: list[ast.AST] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    writes = []
    for target in targets:
        for node in ast.walk(target):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                writes.append(node)
    return writes


def _check_lock_discipline(ctx: LintContext) -> list[Violation]:
    if not ctx.module_parts or ctx.module_parts[0] not in _LOCKED_PACKAGES:
        return []
    out: list[Violation] = []

    def visit_body(body, cls_name, lock_attrs, guarded):
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                continue  # a nested class owns its own state
            if isinstance(stmt, ast.With):
                items_guard = guarded or any(
                    isinstance(item.context_expr, ast.Attribute)
                    and isinstance(item.context_expr.value, ast.Name)
                    and item.context_expr.value.id == "self"
                    and item.context_expr.attr in lock_attrs
                    for item in stmt.items
                )
                visit_body(stmt.body, cls_name, lock_attrs, items_guard)
                continue
            if not guarded:
                for write in _self_attr_writes(stmt):
                    if write.attr in lock_attrs:
                        continue
                    lock = sorted(lock_attrs)[0]
                    out.append(
                        Violation(
                            ctx.path,
                            write.lineno,
                            "RPR003",
                            f"write to `self.{write.attr}` outside `with self.{lock}:` "
                            f"in lock-owning class {cls_name}",
                        )
                    )
            for child_body in (
                getattr(stmt, "body", []),
                getattr(stmt, "orelse", []),
                getattr(stmt, "finalbody", []),
            ):
                if child_body and not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit_body(child_body, cls_name, lock_attrs, guarded)
            if isinstance(stmt, ast.Try):
                for handler in stmt.handlers:
                    visit_body(handler.body, cls_name, lock_attrs, guarded)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Nested closures inherit the enclosing guard state.
                visit_body(stmt.body, cls_name, lock_attrs, guarded)

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        lock_attrs = _lock_attrs_of(node)
        if not lock_attrs:
            continue
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in _LOCK_EXEMPT_METHODS:
                continue
            visit_body(method.body, node.name, lock_attrs, guarded=False)
    return out


# --------------------------------------------------------------------------
# RPR004 — hot-path accessor calls
# --------------------------------------------------------------------------
_HOT_BANNED_PROPERTIES = {"col_degrees", "row_degrees"}
_HOT_BANNED_CALLS = {"csr_lists", "column_neighbors", "row_neighbors"}
#: Compiled-dispatch lookups belong *above* the region (one lookup per call,
#: hoisted out of the wave/level loop), never inside it.
_HOT_DISPATCH_CALLS = {"implementation_for"}


def _known_compiled_entries() -> frozenset[str] | None:
    """Registered dispatch names, or ``None`` when the registry can't load.

    The linter stays importable on a minimal (even numpy-less) install, so
    a failing import skips annotation validation instead of crashing.
    """
    try:
        from repro.compiled import dispatch
    except ImportError:
        return None
    return frozenset(dispatch.registered())


def _call_name(func: ast.AST) -> str | None:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _check_hot_path(ctx: LintContext) -> list[Violation]:
    if not ctx.hot_regions and not ctx.hot_shims:
        return []
    out = []
    known = _known_compiled_entries() if ctx.hot_shims else None
    for (open_line, _), entry in sorted(ctx.hot_shims.items()):
        if known is not None and entry not in known:
            out.append(
                Violation(
                    ctx.path,
                    open_line,
                    "RPR004",
                    f"`compiled={entry}` names no registered dispatch entry "
                    f"(known: {', '.join(sorted(known))})",
                )
            )
    for node in ast.walk(ctx.tree):
        line = getattr(node, "lineno", None)
        if line is None or not ctx.in_hot_region(line):
            continue
        if isinstance(node, ast.Call):
            name = _call_name(node.func)
            if isinstance(node.func, ast.Attribute) and name in _HOT_BANNED_CALLS:
                out.append(
                    Violation(
                        ctx.path,
                        line,
                        "RPR004",
                        f"accessor call `.{name}()` inside a `# hot-path` region — "
                        "hoist it above the loop (PR 5 convention)",
                    )
                )
            elif name in _HOT_DISPATCH_CALLS:
                out.append(
                    Violation(
                        ctx.path,
                        line,
                        "RPR004",
                        f"compiled-dispatch lookup `{name}()` inside a `# hot-path` region — "
                        "resolve the twin once, above the loop",
                    )
                )
        elif isinstance(node, ast.Attribute) and node.attr in _HOT_BANNED_PROPERTIES:
            out.append(
                Violation(
                    ctx.path,
                    line,
                    "RPR004",
                    f"property access `.{node.attr}` inside a `# hot-path` region — "
                    "hoist it above the loop (PR 5 convention)",
                )
            )
    return out


# --------------------------------------------------------------------------
# RPR005 — bare / swallowed exceptions
# --------------------------------------------------------------------------
_SWALLOW_BANNED = {"Exception", "BaseException", "JobError", "JobFailure", "JobFailedError"}


def _handler_type_names(node: ast.ExceptHandler) -> list[str]:
    if node.type is None:
        return []
    types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    names = []
    for t in types:
        dotted = _dotted(t)
        if dotted:
            names.append(dotted.rsplit(".", 1)[-1])
    return names


def _body_is_swallow(body: list[ast.stmt]) -> bool:
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        or isinstance(stmt, ast.Continue)
        for stmt in body
    )


def _check_exceptions(ctx: LintContext) -> list[Violation]:
    out = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            out.append(
                Violation(
                    ctx.path,
                    node.lineno,
                    "RPR005",
                    "bare `except:` — catch a concrete exception type "
                    "(a bare clause hides KeyboardInterrupt and engine failures)",
                )
            )
            continue
        banned = [n for n in _handler_type_names(node) if n in _SWALLOW_BANNED]
        if banned and _body_is_swallow(node.body):
            out.append(
                Violation(
                    ctx.path,
                    node.lineno,
                    "RPR005",
                    f"`except {banned[0]}:` silently swallows the failure — re-raise, "
                    "capture it on the JobHandle, or narrow the type",
                )
            )
    return out


RULES: dict[str, Rule] = {
    rule.code: rule
    for rule in (
        Rule("RPR001", "wall-clock", "no wall-clock reads in determinism-scoped modules", _check_wall_clock),
        Rule("RPR002", "unseeded-rng", "no unseeded randomness in determinism-scoped modules", _check_unseeded_rng),
        Rule("RPR003", "lock-discipline", "self-attribute writes in lock-owning classes must hold the lock", _check_lock_discipline),
        Rule("RPR004", "hot-path-accessors", "no accessor calls or dispatch lookups inside `# hot-path` regions", _check_hot_path),
        Rule("RPR005", "swallowed-failures", "no bare `except:` or silently swallowed broad failures", _check_exceptions),
    )
}
