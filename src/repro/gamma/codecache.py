"""Bounded cache of generated code: stage 1 of the reaction compiler.

:mod:`repro.gamma.compiled` and :mod:`repro.gamma.vectorized` generate Python
source from *structural keys* that carry no labels, literals or object
identities — those travel separately, as the ``(C, H)`` binding tuples of each
reaction.  Every generated function is therefore emitted as a **factory**::

    def make(C, H):
        def matcher(_idx, _flat, mcount):
            ...            # refers to C[i] / H[j] only through the closure
        return matcher

which is ``compile()``d and ``exec``'d once per key and then *called* once per
reaction.  This module holds the part both compilers share: a thread-safe,
bounded LRU map from key to :class:`CodeUnit` (the factories generated for one
key, by variant name), with hit/miss/eviction counters and ``linecache``
registration so tracebacks and profiler rows through generated code show real
source lines.
"""

from __future__ import annotations

import itertools
import linecache
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Mapping, Tuple

__all__ = ["CACHE_CAP", "CodeCache", "CodeUnit"]

#: Keys kept per cache before the least recently used one is evicted.  The
#: paper's conversions need single digits (519 reactions -> 5 shapes); the
#: bound only matters to long-lived processes compiling many unrelated
#: programs (gateway tenants).
CACHE_CAP = 256

#: Serials for ``<kind N:variant>`` pseudo-filenames, drawn process-wide:
#: ``linecache`` is one global map, so two caches of the same kind (a private
#: test cache beside the module one) must never file under the same name.
_SERIALS = itertools.count(1)


class CodeUnit:
    """The factories generated for one cache key, by variant name.

    Variants are built on first request (the superstep collectors and mask
    programs are only needed by some backends) under the owning cache's lock,
    so concurrent first requests compile once.
    """

    __slots__ = ("cache", "key", "serial", "evicted", "_variants")

    def __init__(self, cache: "CodeCache", key: Hashable, serial: int) -> None:
        self.cache = cache
        self.key = key
        self.serial = serial
        self.evicted = False
        self._variants: Dict[str, Tuple[Callable, str]] = {}

    def filename(self, variant: str) -> str:
        """Pseudo-filename the variant's code object and source are filed under."""
        return f"<{self.cache.kind} {self.serial}:{variant}>"

    def factory(self, variant: str, emit: Callable[[], str]) -> Tuple[Callable, str]:
        """``(make, source)`` for ``variant``, generating it from ``emit()`` once.

        ``emit`` must return the source of a module defining ``make``; it is
        only called when the variant has not been built for this key yet.
        """
        built = self._variants.get(variant)
        if built is None:
            with self.cache.lock:
                built = self._variants.get(variant)
                if built is None:
                    source = emit()
                    filename = self.filename(variant)
                    namespace = dict(self.cache.namespace)
                    exec(compile(source, filename, "exec"), namespace)
                    if not self.evicted:
                        linecache.cache[filename] = (
                            len(source), None, source.splitlines(True), filename
                        )
                    built = self._variants[variant] = (namespace["make"], source)
        return built

    def forget(self) -> None:
        """Drop the unit's ``linecache`` entries (called on eviction)."""
        self.evicted = True
        for variant in self._variants:
            linecache.cache.pop(self.filename(variant), None)


class CodeCache:
    """Thread-safe bounded LRU map from structural key to :class:`CodeUnit`.

    ``kind`` names the cache in pseudo-filenames (``<kind N:variant>``);
    ``namespace`` is the globals every generated module is executed in;
    ``unit`` is the :class:`CodeUnit` subclass instantiated per key (it may
    derive per-key data, such as a match plan, in its constructor).
    """

    def __init__(
        self,
        kind: str,
        namespace: Mapping[str, Any],
        cap: int = CACHE_CAP,
        unit: type = CodeUnit,
    ) -> None:
        self.kind = kind
        self.namespace = namespace
        self.cap = cap
        self.unit = unit
        self.lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._units: "OrderedDict[Hashable, CodeUnit]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._units)

    def get(self, key: Hashable) -> CodeUnit:
        """The unit for ``key``, created (and the oldest evicted) on a miss."""
        with self.lock:
            unit = self._units.get(key)
            if unit is not None:
                self.hits += 1
                self._units.move_to_end(key)
                return unit
            self.misses += 1
            unit = self._units[key] = self.unit(self, key, next(_SERIALS))
            while len(self._units) > self.cap:
                _, oldest = self._units.popitem(last=False)
                oldest.forget()
                self.evictions += 1
            return unit
