"""Lazy package re-exports (PEP 562).

A package whose ``__init__`` re-exports names from many submodules would
otherwise import all of them whenever any one submodule is imported — a shard
server importing :mod:`repro.runtime.net.server` would load the dataflow
simulator, streaming and recovery code it never runs.  :func:`lazy_exports`
builds the module-level ``__getattr__`` / ``__dir__`` pair that resolves each
re-exported name from its defining submodule on first access instead, and
caches it in the package namespace so later lookups are plain attribute reads.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` hooks for a package's lazy re-exports.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    relative submodule name (``".recovery"``) to the public names it defines.
    """
    package = namespace["__name__"]
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__
