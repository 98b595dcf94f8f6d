"""Outside-in span tracer for the end-to-end benchmark.

The traced run wraps the *public* callables of each layer from the benchmark
process — nothing under ``src/`` is edited.  A class method is replaced on
its class; a module-level function is rebound in every loaded module that
imported the name, so ``from .frames import encode_frame`` call sites see
the wrapper too.  Each call records one span ``[name, start, end, parent,
op_id, count]`` in memory; :meth:`Tracer.write` dumps them as JSON lines
when the run ends and :meth:`Tracer.ledger` folds them into the per-layer
metrics (self time = duration minus the part child spans cover).

Wrappers live only in this process: work done inside shard *server*
processes (``stream_net``) shows up as the coordinator-side wait that
contains it, never as its own span.

Threads: the network backend and the gateway run asyncio loops on helper
threads while the main thread blocks on their result.  A span opened on a
helper thread with nothing open on that thread is parented to whatever the
main thread has open — the call that is waiting for it.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Name of the root span the harness opens around every op.
OP_SPAN = "op"

# Span record layout (a list, mutated once when the call returns).
_NAME, _START, _END, _PARENT, _OP, _COUNT, _THREAD = range(7)


def _hit(result: Any) -> int:
    return 0 if result is None else 1


def _length(result: Any) -> int:
    return len(result)


def _first(result: Any) -> int:
    return result[0]


def _instrumentation() -> List[Tuple[Any, str, str, Optional[Callable[[Any], Any]]]]:
    """``(owner, attribute, span name, count of the result)`` for every layer.

    Owners are classes (method replaced on the class) or modules (function
    rebound wherever it was imported).  Imported here, not at module import,
    so importing the tracer stays free of side effects.
    """
    from repro.core import df_to_gamma, gamma_to_df
    from repro.dataflow import interpreter
    from repro.frontend import compiler as frontend_compiler
    from repro.gamma import compiled
    from repro.gamma.engine import SequentialEngine
    from repro.gamma.scheduler import ReactionScheduler
    from repro.multiset import columnar, partition
    from repro.multiset.multiset import Multiset
    from repro.runtime.net import frames
    from repro.runtime.net.backend import NetworkBackend
    from repro.runtime.net.gateway import GatewayClient
    from repro.runtime.recovery import RecoveryManager
    from repro.runtime.sharding import (
        InProcessBackend,
        RoutingTable,
        ShardCoordinator,
        ShardSession,
        ShardWorker,
    )
    from repro.runtime.streaming import IngestQueue, StreamingGammaRuntime

    table: List[Tuple[Any, str, str, Optional[Callable[[Any], Any]]]] = [
        (frontend_compiler, "compile_source_to_graph", "frontend.compile", None),
        (df_to_gamma, "dataflow_to_gamma", "core.df_to_gamma",
         lambda conv: (len(conv.program.reactions), len(conv.initial))),
        (gamma_to_df, "program_to_graphs", "core.gamma_to_df", None),
        (interpreter, "run_graph", "dataflow.run", lambda result: result.total_firings),
        (compiled, "compile_reaction", "gamma.compiled.compile", None),
        (ReactionScheduler, "__init__", "gamma.scheduler.attach", None),
        (ReactionScheduler, "find_first", "gamma.scheduler.probe", _hit),
        (ReactionScheduler, "collect_superstep_matches", "gamma.scheduler.collect", _length),
        (ReactionScheduler, "inject", "gamma.scheduler.inject", None),
        (SequentialEngine, "drain", "gamma.engine.drain", None),
        (Multiset, "rewrite_unchecked", "multiset.rewrite", None),
        (Multiset, "rewrite_batch_unchecked", "multiset.rewrite", None),
        (Multiset, "copy", "multiset.copy", None),
        (partition, "partition_counts", "multiset.partition", None),
        (partition, "partition_pairs", "multiset.partition", None),
        (columnar, "to_column_batch", "multiset.column_batch", None),
        (columnar, "from_column_batch", "multiset.column_batch", None),
        (ShardCoordinator, "start", "runtime.sharding.start", None),
        (ShardSession, "drive", "runtime.sharding.drive", None),
        (ShardSession, "inject", "runtime.sharding.drive", None),
        (ShardSession, "snapshot", "runtime.sharding.drive", None),
        (ShardSession, "result", "runtime.sharding.drive", None),
        (ShardWorker, "run_local", "runtime.sharding.worker_step", None),
        (RoutingTable, "migration_plan", "runtime.sharding.plan", None),
        (frames, "encode_frame", "runtime.net.encode", _length),
        (frames, "decode_frame", "runtime.net.decode", None),
        (frames.FrameDecoder, "feed", "runtime.net.decode_feed", None),
        (GatewayClient, "put", "runtime.net.gateway_put", None),
        (StreamingGammaRuntime, "pump", "runtime.streaming.pump",
         lambda report: report.injected),
        (IngestQueue, "take_epoch", "runtime.streaming.take_epoch", None),
        (RecoveryManager, "log_injection", "runtime.recovery.wal_append", None),
        (ShardSession, "checkpoint", "runtime.recovery.checkpoint", None),
    ]
    for backend in (InProcessBackend, NetworkBackend):
        table += [
            (backend, "superstep_all", "runtime.sharding.superstep_wait", None),
            (backend, "execute_transfers", "runtime.sharding.exchange", _first),
            (backend, "steal", "runtime.sharding.steal", lambda moved: (moved, int(moved > 0))),
            (backend, "ingest_batches", "runtime.sharding.ingest", None),
            (backend, "collect_final", "runtime.sharding.collect", None),
        ]
    return table


class Tracer:
    """In-memory span recorder plus the monkey-patching that feeds it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Identifier stamped on every span opened from now on (the harness
        #: sets it to the op index while an op runs, ``None`` around it).
        self.op_id: Optional[int] = None
        self._epoch = perf_counter()
        self._stacks: Dict[int, List[list]] = {}
        self._main_stack = self._stacks.setdefault(threading.get_ident(), [])

    # -- instrumentation ----------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary listed in :func:`_instrumentation`.

        There is no uninstall: the traced child exits when its run ends.
        """
        for owner, attribute, name, count in _instrumentation():
            original = vars(owner)[attribute]
            traced = self.wrap(original, name, count)
            if isinstance(owner, type):
                setattr(owner, attribute, traced)
                continue
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        setattr(module, key, traced)

    def wrap(
        self,
        function: Callable[..., Any],
        name: str,
        count: Optional[Callable[[Any], Any]] = None,
    ) -> Callable[..., Any]:
        """``function`` recording one span called ``name`` per call."""
        spans = self.spans
        stacks = self._stacks
        main_stack = self._main_stack
        get_ident = threading.get_ident
        clock = perf_counter
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            thread = get_ident()
            stack = stacks.get(thread)
            if stack is None:
                stack = stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            elif stack is not main_stack and main_stack:
                parent = main_stack[-1]
            else:
                parent = None
            record = [name, clock(), 0.0, parent, tracer.op_id, 0, thread]
            spans.append(record)
            stack.append(record)
            try:
                result = function(*args, **kwargs)
                if count is not None:
                    record[_COUNT] = count(result)
                return result
            finally:
                record[_END] = clock()
                stack.pop()

        return traced

    # -- read-back ----------------------------------------------------------------
    def write(self, path: str) -> None:
        """Dump every span as one JSON object per line (times relative to start)."""
        ids = {id(record): index for index, record in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            for index, record in enumerate(self.spans):
                parent = record[_PARENT]
                out.write(json.dumps({
                    "id": index,
                    "name": record[_NAME],
                    "start": record[_START] - self._epoch,
                    "end": record[_END] - self._epoch,
                    "parent": None if parent is None else ids[id(parent)],
                    "op_id": record[_OP],
                    "count": record[_COUNT],
                    "thread": record[_THREAD],
                }))
                out.write("\n")

    def ledger(
        self, op_ids: Optional[Iterable[int]], only: Optional[str] = None
    ) -> Dict[str, Dict[str, float]]:
        """Fold the spans of ``op_ids`` (``None``: every span) into per-name totals.

        ``only`` restricts the totals to one span name (its children still
        count against its self time).

        Returns ``{name: {"self_s", "total_s", "calls", "count"}}`` where
        ``count`` sums the numeric call counts (tuple counts are summed per
        position as ``count0``, ``count1``).  Two derived entries are added:
        ``"straggler"`` (``max_s``/``mean_s`` summed over barrier rounds of
        the worker steps below each ``superstep_wait`` span) and, under
        :data:`OP_SPAN`, the root spans whose ``total_s`` is the op wall time.
        """
        selected = self.spans
        if op_ids is not None:
            wanted = set(op_ids)
            selected = [r for r in self.spans if r[_OP] in wanted]
        children: Dict[int, List[list]] = {}
        for record in selected:
            parent = record[_PARENT]
            if parent is not None:
                children.setdefault(id(parent), []).append(record)
        totals: Dict[str, Dict[str, float]] = {}
        straggler = {"max_s": 0.0, "mean_s": 0.0}
        for record in selected:
            if only is not None and record[_NAME] != only:
                continue
            start, end = record[_START], record[_END]
            below = children.get(id(record), ())
            entry = totals.setdefault(
                record[_NAME], {"self_s": 0.0, "total_s": 0.0, "calls": 0, "count": 0}
            )
            entry["self_s"] += (end - start) - _cover(below, start, end)
            entry["total_s"] += end - start
            entry["calls"] += 1
            count = record[_COUNT]
            if isinstance(count, tuple):
                for position, value in enumerate(count):
                    key = f"count{position}"
                    entry[key] = entry.get(key, 0) + value
            else:
                entry["count"] += count
            if record[_NAME] == "runtime.sharding.superstep_wait":
                steps = [
                    child[_END] - child[_START]
                    for child in below
                    if child[_NAME] == "runtime.sharding.worker_step"
                ]
                if steps:
                    straggler["max_s"] += max(steps)
                    straggler["mean_s"] += sum(steps) / len(steps)
        totals["straggler"] = straggler
        return totals

def _cover(spans: Iterable[list], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``spans``.

    Children on helper threads may overlap each other, hence a union rather
    than a sum.
    """
    intervals = sorted(
        (max(s[_START], start), min(s[_END], end)) for s in spans
    )
    covered = 0.0
    reach = start
    for low, high in intervals:
        if high <= reach:
            continue
        covered += high - max(low, reach)
        reach = high
    return covered
