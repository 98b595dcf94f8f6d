"""The four closed-loop workloads of the end-to-end benchmark.

One client, one op in flight: every entry point timed here is a caller that
waits for its reply.  A workload is built from a seed (``build``), computes
its oracle references outside any timing (``reference``), and is then driven
op by op — ``prepare`` (untimed input construction), ``op`` (the timed
call), ``check`` (untimed oracle) — until ``finish`` runs the end-of-run
oracle and ``close`` tears the runtime down.  The program under test only
ever receives the generated inputs, never the seed.

Every op gets a *fresh* input drawn from one ``random.Random(seed)`` stream.
Op cost depends on the input's arrangement (one fixed 10^4-element input
reads 180-610 ms across seeds on ``fold_seq``), so a run whose ops shared
one input would measure the seed; a run over many inputs measures the code.

Names are fixed; later issues refer to them.
"""

from __future__ import annotations

import os
import random
from typing import Any, Dict, List, Tuple

from repro.api import (
    DistributedGammaRuntime,
    RecoveryManager,
    RuntimeConfig,
    StreamingGammaRuntime,
    run,
)
from repro.core import dataflow_to_gamma, program_to_graphs
from repro.dataflow import run_graph
from repro.frontend import compile_source_to_graph
from repro.gamma.stdlib import DATA_LABEL, min_element, values_multiset
from repro.multiset import Element, Multiset
from repro.runtime.net import GatewayClient
from repro.workloads import ExpressionSpec, random_expression_graph, triangular

SEQUENTIAL = RuntimeConfig(engine="sequential")


def min_fixpoint(multiset: Multiset) -> Multiset:
    """Closed form of Eq. 2's stable state: every copy of the minimum.

    ``replace x, y by x where x < y`` never consumes two equal values, so
    the batch result over any multiset is the minimum with its multiplicity.
    """
    least = min(element.value for element in multiset.distinct())
    stable = Multiset()
    stable.add_counts(
        (element, count)
        for element, count in multiset.counts().items()
        if element.value == least
    )
    return stable


class Workload:
    """Interface the harness drives; see the module docstring for the order."""

    name = ""
    why = ""
    #: Timed ops of a full run when no ``--seconds`` budget is given.
    ops = 0
    #: Cap on the timed ops of a traced run (span memory, trace file size).
    traced_ops = 0
    #: Timed ops of a ``--quick`` smoke run.
    quick_ops = 3
    #: Layers whose spans must appear in a traced run of this workload.
    layers: Tuple[str, ...] = ()
    #: The next op's input, drawn one op ahead (outside any timed region).
    pending: Any = None

    def build(self, seed: int, quick: bool) -> None:
        """Generate inputs, construct the program, build the runtime."""
        raise NotImplementedError

    def reference(self) -> None:
        """Compute oracle references (never part of ``setup_s`` or an op)."""

    def _input(self) -> Any:
        """Draw the next op's input from the seeded stream."""
        return None

    def prepare(self, index: int) -> Any:
        """Untimed per-op input construction; the value is passed to ``op``.

        ``build`` leaves the first input in ``self.pending``; each call hands
        out the pending input and draws the next one.
        """
        current, self.pending = self.pending, self._input()
        return current

    def op(self, argument: Any) -> Any:
        """The timed call."""
        raise NotImplementedError

    def check(self, argument: Any, outcome: Any) -> Tuple[int, bool]:
        """Untimed oracle: ``(reaction firings of the op, output correct)``."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Running result counters; the harness reports their growth per op."""
        return {}

    def finish(self) -> bool:
        """End-of-run oracle; ``False`` marks every op of the run failed."""
        return True

    def close(self) -> None:
        """Release processes, sockets and threads (idempotent)."""


class FoldSeq(Workload):
    name = "fold_seq"
    why = (
        "one reaction folding 10^4 elements on the sequential engine: "
        "scheduler probes, engine drain and multiset rewrites do all the work"
    )
    ops = 60
    traced_ops = 15
    layers = ("gamma.compiled", "gamma.scheduler", "gamma.engine", "multiset")

    def build(self, seed: int, quick: bool) -> None:
        self.rng = random.Random(seed)
        self.program = min_element()
        # Distinct values: with randint's duplicates the cost of one input
        # swings 3x with the order of its ~1000 distinct elements.
        self.values = list(range(1, (500 if quick else 10_000) + 1))
        self.pending = self._input()

    def _input(self) -> Multiset:
        self.rng.shuffle(self.values)
        return values_multiset(self.values)

    def op(self, argument: Any) -> Any:
        return run(self.program, argument, config=SEQUENTIAL)

    def check(self, argument: Any, outcome: Any) -> Tuple[int, bool]:
        correct = outcome.stable and outcome.final == min_fixpoint(argument)
        return outcome.firings, correct


class DfPipeline(Workload):
    name = "df_pipeline"
    why = (
        "the paper's path on a 512-operator DAG and a tagged loop: the only "
        "workload running frontend, dataflow and core, with 512 reactions "
        "firing once instead of one firing 10^4 times"
    )
    ops = 45
    traced_ops = 12
    layers = (
        "frontend", "core", "dataflow", "gamma.compiled", "gamma.scheduler",
        "gamma.engine", "multiset",
    )

    def build(self, seed: int, quick: bool) -> None:
        self.rng = random.Random(seed)
        self.shape = (8, 32) if quick else (128, 512)
        self.kernel = triangular(30 if quick else 1000)
        self.pending = self._input()

    def _input(self) -> Any:
        inputs, operations = self.shape
        return random_expression_graph(
            ExpressionSpec(
                num_inputs=inputs,
                num_operations=operations,
                ops=("+", "-"),
                seed=self.rng.getrandbits(32),
            )
        )

    def op(self, argument: Any) -> Any:
        loop = compile_source_to_graph(self.kernel.source, name=self.kernel.name)
        return [self._convert_and_run(argument), self._convert_and_run(loop)]

    @staticmethod
    def _convert_and_run(graph: Any) -> Tuple[Any, Any, Any]:
        conversion = dataflow_to_gamma(graph)
        program_to_graphs(conversion.program)
        dataflow = run_graph(graph)
        gamma = run(conversion.program, conversion.initial, config=SEQUENTIAL)
        return conversion, dataflow, gamma

    def check(self, argument: Any, outcome: Any) -> Tuple[int, bool]:
        firings = 0
        correct = True
        for conversion, dataflow, gamma in outcome:
            firings += gamma.firings
            observed = gamma.final.restrict_labels(conversion.output_labels)
            correct = (
                correct and gamma.stable and observed == dataflow.outputs_as_multiset()
            )
        loop_value = outcome[1][1].single_output(self.kernel.output)
        return firings, correct and loop_value == self.kernel.expected


class ShardInproc(Workload):
    name = "shard_inproc"
    why = (
        "fold_seq's program on 4 in-process shards: the difference is exactly "
        "runtime.sharding (partitioning, supersteps, routing, exchange, quiescence)"
    )
    ops = 100
    traced_ops = 25
    layers = ("gamma.compiled", "gamma.scheduler", "multiset", "runtime.sharding")

    def build(self, seed: int, quick: bool) -> None:
        self.rng = random.Random(seed)
        self.size = 2_000 if quick else 40_000
        self.runtime = DistributedGammaRuntime(
            min_element(),
            config=RuntimeConfig(backend="inprocess", shards=4, seed=3),
        )
        self.messages = 0
        self.pending = self._input()

    def _input(self) -> Multiset:
        # Values repeat (as in make_workload("min_element", ...)): 4 * 10^4
        # *distinct* values take the superstep collectors > 9 s per op.
        return values_multiset(self.rng.randint(1, 1000) for _ in range(self.size))

    def reference(self) -> None:
        # The per-op oracle is Eq. 2's closed form; pin it once against the
        # sequential engine so "sharded == sequential" is what it asserts.
        sequential = run(min_element(), self.pending, config=SEQUENTIAL).final
        if sequential != min_fixpoint(self.pending):
            raise AssertionError("sequential engine disagrees with Eq. 2's closed form")

    def op(self, argument: Any) -> Any:
        return self.runtime.run(argument)

    def check(self, argument: Any, outcome: Any) -> Tuple[int, bool]:
        self.messages += outcome.messages
        return outcome.firings, outcome.final == min_fixpoint(argument)

    def counters(self) -> Dict[str, float]:
        return {"runtime.sharding.messages": self.messages}


class StreamNet(Workload):
    name = "stream_net"
    why = (
        "the canonical request path (gateway put + pump on 2 TCP shards with "
        "WAL and checkpoints): hundreds of tiny latency-bound drives, the "
        "only workload crossing runtime.net, streaming and recovery"
    )
    ops = 400
    traced_ops = 100
    quick_ops = 10
    layers = (
        "multiset", "runtime.sharding", "runtime.net", "runtime.streaming",
        "runtime.recovery",
    )

    runtime = None
    client = None

    def build(self, seed: int, quick: bool) -> None:
        # One CPU for the whole process group (the shard servers inherit the
        # mask).  A closed loop has one runnable party at a time, and on a
        # 2-vCPU VM the cross-core wake-ups cost ~15% of an op and most of
        # its run-to-run spread (IQR/median 0.12 free, 0.03 pinned).
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.batch = 20 if quick else 200
        self.rng = random.Random(seed)
        # In-memory WAL and checkpoint store: the disk variants fsync, which
        # a sandbox cannot time honestly.
        self.runtime = StreamingGammaRuntime(
            min_element(),
            config=RuntimeConfig(
                backend="network",
                shards=2,
                seed=3,
                recovery=RecoveryManager(),
                checkpoint_interval=4,
            ),
        )
        self.offered = values_multiset(self._values())
        self.runtime.start(self.offered)
        self.gateway = self.runtime.serve_gateway()
        self.client = GatewayClient(self.gateway.port)

    def _values(self) -> List[int]:
        return [self.rng.randint(1, 1000) for _ in range(self.batch)]

    def prepare(self, index: int) -> Any:
        batch = [Element(value=value, label=DATA_LABEL, tag=0) for value in self._values()]
        self.offered.add_all(batch)
        return batch

    def op(self, argument: Any) -> Any:
        admitted = self.client.put(argument, timeout=30.0)
        return admitted, self.runtime.pump()

    def check(self, argument: Any, outcome: Any) -> Tuple[int, bool]:
        admitted, report = outcome
        correct = (
            admitted == len(argument)
            and report.injected == len(argument)
            and report.stable
        )
        return report.firings, correct

    def counters(self) -> Dict[str, float]:
        return {
            "runtime.net.wire_bytes": self.runtime.result().wire_bytes,
            "runtime.net.gateway_refused": self.gateway.refused + self.gateway.timeouts,
        }

    def finish(self) -> bool:
        self.client.close()
        self.client = None
        self.runtime.close_stream()
        while not self.runtime.drained:
            self.runtime.pump()
        result = self.runtime.result()
        # The batch reference over initial ∪ injected, in closed form: a
        # sequential batch run over the 10^5 offered elements would cost
        # more than the timed phase itself.
        return result.stable and result.final == min_fixpoint(self.offered)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.runtime is not None:
            self.runtime.close()
            self.runtime = None


WORKLOADS = {cls.name: cls for cls in (FoldSeq, DfPipeline, ShardInproc, StreamNet)}
