"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import every submodule, and everything those import, the moment anyone
imports the package.  :func:`lazy_exports` instead gives the package a
module ``__getattr__`` that imports a name's home module the first time
the name is asked for, and a ``__dir__`` that lists every export, so
``from pkg import name``, ``from pkg import *`` and ``dir(pkg)`` behave
as with eager imports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, homes: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, whose exported names
    live in the modules that ``homes`` maps to them.  A resolved name is
    stored in the package, so later lookups are plain attribute reads."""
    table = {name: module for module, names in homes.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            home = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(home), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__
