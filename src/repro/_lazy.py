"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package ``__init__`` that re-exports names from its submodules with
``from ... import`` loads every submodule, and NumPy behind them, as soon as
anything under the package is imported.  ``repro --help`` would then pay for
the whole solver stack.  Instead each such ``__init__`` declares where its
public names live and installs the ``__getattr__``/``__dir__`` pair built by
:func:`lazy_exports`, which imports a submodule the first time one of its
names is read.  This module imports nothing beyond the standard library.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Build a package's module-level ``__getattr__`` and ``__dir__``.

    ``exports`` maps a module, relative to ``package`` (``".api"``) or
    absolute, to the public names it provides.  Reading one of those names
    imports its module, caches the value on the package (so later reads skip
    ``__getattr__``) and returns it; any other name raises
    ``AttributeError`` as usual.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
