"""End-to-end benchmark of the Gamma/dataflow stack: one command, four workloads.

    python3 benchmarks/e2e/run.py --seed 7                 # whole suite
    python3 benchmarks/e2e/run.py --seed 7 --trace         # + per-layer ledger
    python3 benchmarks/e2e/run.py --workload fold_seq --seed 7 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --selfcheck              # two runs, same code
    python3 benchmarks/e2e/run.py --quick --trace          # smoke run, < 20 s

The parent process only orchestrates: every workload runs in a fresh child
interpreter that is its own process group (so its shard servers can be
found, measured and reaped), and ``setup_s`` is the median of several
``--setup-probe`` children that build the workload and exit before any op.
Metric names, units and bounds are read from the root ``BENCHMARK.json``.
See ``README.md`` beside this file for the definitions.
"""

import time

_T0 = time.perf_counter()  # set-up probes time themselves from this line

import argparse  # noqa: E402 (every other import follows _T0 on purpose)
import gc
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import traceback
from typing import Any, Dict, Iterable, List, Optional, Sequence

from trace import OP_SPAN, Tracer  # the sibling file, not the stdlib module

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")

#: Fresh-interpreter set-up probes per workload (odd, so the median is a sample).
SETUP_PROBES = 7
WARMUP_OPS = 3
#: A time-bounded run never stops before this many timed ops.
MIN_TIMED_OPS = 5
#: Candidate tail percentiles; the highest with >= 10 samples beyond it is reported.
TAIL_LADDER = (50, 75, 80, 90, 95, 97, 99)
#: Every layer the tracer knows; a workload's traced ops must show exactly its own.
LAYERS = (
    "frontend", "core", "dataflow", "gamma.compiled", "gamma.scheduler",
    "gamma.engine", "multiset", "runtime.sharding", "runtime.net",
    "runtime.streaming", "runtime.recovery",
)


def _load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- child side: one workload in one process ---------------------------------------

def _group_processes(group: int) -> List[int]:
    """Pids of the live (non-zombie) processes in process group ``group``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                state, _, pgrp = handle.read().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError):
            continue  # the process exited between the listing and the read
        if int(pgrp) == group and state != "Z":
            members.append(int(entry))
    return members


def _group_peak_rss_mb() -> float:
    """Sum of ``VmHWM`` over every live process of this process group."""
    total_kb = 0
    for pid in _group_processes(os.getpgrp()):
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def _op_limit(workload: Any, args: argparse.Namespace) -> Optional[int]:
    if args.quick:
        return workload.quick_ops
    if args.trace:
        return workload.traced_ops
    return workload.ops if args.seconds is None else None


def run_child(args: argparse.Namespace) -> int:
    """Build one workload, run its ops, print one JSON line with the samples."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS  # imports repro: children only

    probe = args.setup_probe is not None
    workload = WORKLOADS[args.setup_probe if probe else args.child]()
    tracer = None
    if args.trace and not probe:
        tracer = Tracer()
        tracer.install()
    try:
        workload.build(args.seed, args.quick)
        if probe:
            print(json.dumps({"setup_s": time.perf_counter() - _T0}))
            return 0
        workload.reference()
        result = _drive(workload, args, tracer)
    finally:
        workload.close()
    if tracer is not None:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{workload.name}.jsonl")
        tracer.write(path)
        result["trace_file"] = os.path.relpath(path, ROOT)
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


def _drive(workload: Any, args: argparse.Namespace, tracer: Optional[Tracer]) -> Dict[str, Any]:
    """Warm up, run the timed ops, run the end-of-run oracle; returns the samples."""
    timed_op = workload.op if tracer is None else tracer.wrap(workload.op, OP_SPAN)
    limit = _op_limit(workload, args)
    op_seconds: List[float] = []
    op_firings: List[int] = []
    failed = 0

    def one_op(index: int, timed: bool) -> None:
        nonlocal failed
        argument = workload.prepare(index)
        gc.collect()
        if tracer is not None:
            tracer.op_id = index
        began = time.perf_counter()
        try:
            try:
                outcome = timed_op(argument)
            finally:
                elapsed = time.perf_counter() - began
                if tracer is not None:
                    tracer.op_id = None
            fired, correct = workload.check(argument, outcome)
        except Exception:  # a raised or refused op is a failed op, not an abort
            traceback.print_exc()
            fired, correct = 0, False
        if timed:
            op_seconds.append(elapsed)
            op_firings.append(fired)
            failed += 0 if correct else 1

    for index in range(1 if args.quick else WARMUP_OPS):
        one_op(-1 - index, timed=False)
    before = workload.counters() if tracer is not None else {}
    phase_began = time.perf_counter()
    while limit is None or len(op_seconds) < limit:
        if (
            args.seconds is not None
            and len(op_seconds) >= MIN_TIMED_OPS
            and time.perf_counter() - phase_began >= args.seconds
        ):
            break
        one_op(len(op_seconds), timed=True)
    peak_rss_mb = _group_peak_rss_mb()
    after = workload.counters() if tracer is not None else {}
    try:
        drained = workload.finish()
    except Exception:
        traceback.print_exc()
        drained = False
    if not drained:
        failed = len(op_seconds)
    result: Dict[str, Any] = {
        "attempted": len(op_seconds),
        "failed": failed,
        "op_firings": op_firings,
        "op_s": op_seconds,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        ops = len(op_seconds)
        ledger = tracer.ledger(range(ops))
        grown = {key: (after[key] - before[key]) / ops for key in after}
        start = tracer.ledger(None, only="runtime.sharding.start").get(
            "runtime.sharding.start"
        )
        result["layers"] = layer_metrics(ledger, ops, grown, start)
        result["layer_errors"] = _layer_errors(ledger, workload)
    return result


def _layer_errors(names: Iterable[str], workload: Any) -> List[str]:
    """Layers missing from, or unexpectedly present in, the timed ops' spans."""
    errors = []
    for layer in LAYERS:
        present = any(name.startswith(layer + ".") for name in names)
        if present != (layer in workload.layers):
            errors.append(f"{layer}: {'unexpected' if present else 'missing'} spans")
    return errors


def layer_metrics(
    ledger: Dict[str, Dict[str, float]],
    ops: int,
    grown: Dict[str, float],
    start: Optional[Dict[str, float]],
) -> Dict[str, float]:
    """Per-layer metrics of a traced run: self seconds and counts, mean per op.

    ``ledger`` folds the timed ops' spans, ``grown`` is the per-op growth of
    the workload's result counters, and ``start`` is the ledger entry of
    ``ShardCoordinator.start`` over *every* span recorded: it runs once per
    op on shard_inproc but once, in set-up, on stream_net, so it is reported
    per call.
    """
    empty = {"self_s": 0.0, "total_s": 0.0, "calls": 0, "count": 0}

    def per_op(field: str, *names: str) -> float:
        return sum(ledger.get(name, empty).get(field, 0) for name in names) / ops

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def self_s(*names: str) -> float:
        return per_op("self_s", *names)

    def calls(*names: str) -> float:
        return per_op("calls", *names)

    start = start or empty
    op_wall = ledger.get(OP_SPAN, empty)["total_s"]
    covered = sum(
        entry["self_s"] for name, entry in ledger.items() if name not in (OP_SPAN, "straggler")
    )
    sharding = "runtime.sharding."
    metrics = {
        "frontend.compile_s": self_s("frontend.compile"),
        "core.df_to_gamma_s": self_s("core.df_to_gamma"),
        "core.gamma_to_df_s": self_s("core.gamma_to_df"),
        "core.reactions_out": per_op("count0", "core.df_to_gamma"),
        "core.initial_elements_out": per_op("count1", "core.df_to_gamma"),
        "dataflow.run_s": self_s("dataflow.run"),
        "dataflow.firings": per_op("count", "dataflow.run"),
        "gamma.compiled.compile_s": self_s("gamma.compiled.compile"),
        "gamma.compiled.reactions_compiled": calls("gamma.compiled.compile"),
        "gamma.scheduler.attach_s": self_s("gamma.scheduler.attach"),
        "gamma.scheduler.probe_s": self_s("gamma.scheduler.probe"),
        "gamma.scheduler.probes": calls("gamma.scheduler.probe"),
        "gamma.scheduler.probe_hit_ratio": ratio(
            per_op("count", "gamma.scheduler.probe"), calls("gamma.scheduler.probe")
        ),
        "gamma.scheduler.collect_s": self_s("gamma.scheduler.collect"),
        "gamma.scheduler.matches_per_collect": ratio(
            per_op("count", "gamma.scheduler.collect"), calls("gamma.scheduler.collect")
        ),
        "gamma.scheduler.inject_s": self_s("gamma.scheduler.inject"),
        "gamma.engine.drain_s": self_s("gamma.engine.drain"),
        "multiset.rewrite_s": self_s("multiset.rewrite"),
        "multiset.rewrites": calls("multiset.rewrite"),
        "multiset.copy_s": self_s("multiset.copy"),
        "multiset.partition_s": self_s("multiset.partition"),
        "multiset.column_batch_s": self_s("multiset.column_batch"),
        sharding + "start_s": ratio(start["self_s"], start["calls"]),
        sharding + "drive_s": self_s(sharding + "drive"),
        sharding + "superstep_wait_s": self_s(sharding + "superstep_wait"),
        sharding + "worker_step_s": self_s(sharding + "worker_step"),
        sharding + "straggler_ratio": ratio(
            ledger["straggler"]["max_s"], ledger["straggler"]["mean_s"]
        ),
        sharding + "exchange_s": self_s(sharding + "exchange"),
        sharding + "plan_s": self_s(sharding + "plan"),
        sharding + "steal_s": self_s(sharding + "steal"),
        sharding + "ingest_s": self_s(sharding + "ingest"),
        sharding + "collect_s": self_s(sharding + "collect"),
        sharding + "rounds": calls(sharding + "superstep_wait"),
        sharding + "migrations": per_op("count", sharding + "exchange")
        + per_op("count0", sharding + "steal"),
        sharding + "messages": grown.get(sharding + "messages", 0.0),
        sharding + "steals": per_op("count1", sharding + "steal"),
        "runtime.net.encode_s": self_s("runtime.net.encode"),
        "runtime.net.decode_s": self_s("runtime.net.decode", "runtime.net.decode_feed"),
        "runtime.net.frames": calls("runtime.net.encode", "runtime.net.decode"),
        "runtime.net.wire_bytes": grown.get("runtime.net.wire_bytes", 0.0),
        "runtime.net.gateway_put_s": self_s("runtime.net.gateway_put"),
        "runtime.net.gateway_refused": grown.get("runtime.net.gateway_refused", 0.0),
        "runtime.streaming.pump_s": self_s("runtime.streaming.pump"),
        "runtime.streaming.take_epoch_s": self_s("runtime.streaming.take_epoch"),
        "runtime.streaming.epochs": calls("runtime.streaming.pump"),
        "runtime.streaming.injected": per_op("count", "runtime.streaming.pump"),
        "runtime.recovery.wal_append_s": self_s("runtime.recovery.wal_append"),
        "runtime.recovery.wal_records": calls("runtime.recovery.wal_append"),
        "runtime.recovery.checkpoint_s": self_s("runtime.recovery.checkpoint"),
        "runtime.recovery.checkpoints": calls("runtime.recovery.checkpoint"),
        "ledger_coverage": ratio(covered, op_wall),
    }
    return metrics


# -- parent side: orchestration ----------------------------------------------------

def _reap_group(group: int) -> None:
    """Stop whatever the child left in its process group and wait for it."""
    deadline = time.monotonic() + 5.0
    while True:
        alive = _group_processes(group)
        if not alive:
            return
        overdue = time.monotonic() > deadline
        for pid in alive:
            try:
                os.kill(pid, signal.SIGKILL if overdue else signal.SIGTERM)
            except ProcessLookupError:
                pass
        time.sleep(0.05)


def _spawn(arguments: List[str]) -> Dict[str, Any]:
    """Run this script as a child in its own process group; parse its last line."""
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), *arguments],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        output, _ = child.communicate(timeout=170)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        _reap_group(child.pid)
    if child.returncode != 0:
        raise RuntimeError(f"child {arguments} exited with {child.returncode}")
    return json.loads(output.strip().splitlines()[-1])


def _common(args: argparse.Namespace, seconds: Optional[float]) -> List[str]:
    arguments = ["--seed", str(args.seed)]
    if seconds is not None:
        arguments += ["--seconds", repr(seconds)]
    if args.quick:
        arguments.append("--quick")
    return arguments


def run_untraced(
    name: str, args: argparse.Namespace, seconds: Optional[float], probes: int
) -> Dict[str, Any]:
    """The untraced run of one workload: the timed child between set-up probes.

    Half of the probes run before the child and half after it: the host
    switches between speed levels every few seconds to minutes, and probes
    taken in one burst would all sample the same level.
    """
    def probe() -> float:
        return _spawn(["--setup-probe", name, *_common(args, None)])["setup_s"]

    setup = [probe() for _ in range(probes - probes // 2)]
    child = _spawn(["--child", name, *_common(args, seconds)])
    setup += [probe() for _ in range(probes // 2)]
    ordered = sorted(child["op_s"])
    q1, median, q3 = statistics.quantiles(ordered, n=4)
    tail = max(p for p in TAIL_LADDER if p == 50 or len(ordered) * (100 - p) / 100.0 >= 10)
    values = {
        "firings_per_s": statistics.median(
            fired / elapsed for fired, elapsed in zip(child["op_firings"], child["op_s"])
        ),
        "op_p50_ms": median * 1000.0,
        "peak_rss_mb": child["peak_rss_mb"],
        "failed_share": child["failed"] / child["attempted"],
    }
    if setup:
        values["setup_s"] = statistics.median(setup)
    return {
        "attempted": child["attempted"],
        "failed": child["failed"],
        "values": values,
        "tail_percentile": tail,
        "tail_ms": statistics.quantiles(ordered, n=100)[tail - 1] * 1000.0,
        "op_iqr_ratio": (q3 - q1) / median,
        "setup_samples_s": setup,
        "op_ms": [s * 1000.0 for s in child["op_s"]],
    }


def run_traced(
    name: str, args: argparse.Namespace, seconds: Optional[float], untraced_p50_ms: float
) -> Dict[str, Any]:
    """The traced run of one workload: per-layer metrics, never end-to-end ones."""
    child = _spawn(["--child", name, "--trace", "1", *_common(args, seconds)])
    traced_p50_ms = statistics.median(child["op_s"]) * 1000.0
    values = dict(child["layers"])
    values["trace_overhead_ratio"] = traced_p50_ms / untraced_p50_ms
    return {
        "attempted": child["attempted"],
        "failed": child["failed"],
        "values": values,
        "layer_errors": child["layer_errors"],
        "trace_file": child["trace_file"],
        "spans": child["spans"],
    }


def fingerprint() -> Dict[str, Any]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "machine": platform.machine(),
    }


def run_suite(args: argparse.Namespace, spec: Dict[str, Any], names: Sequence[str]) -> Dict[str, Any]:
    """Run the selected workloads; returns the full report."""
    report: Dict[str, Any] = {
        "quick": args.quick,
        "seed": args.seed,
        "fingerprint": fingerprint(),
        "workloads": {},
    }
    probes = 1 if args.quick else SETUP_PROBES
    untraced_seconds, traced_seconds = args.seconds, None
    if args.trace and args.seconds is not None:
        # A driver run that reports per-layer metrics: no set-up probes, and
        # the time budget is split between the untraced and the traced child.
        probes = 0
        untraced_seconds, traced_seconds = args.seconds / 3.0, args.seconds * 2.0 / 3.0
    for name in names:
        entry = {"untraced": run_untraced(name, args, untraced_seconds, probes)}
        if args.trace:
            entry["traced"] = run_traced(
                name, args, traced_seconds, entry["untraced"]["values"]["op_p50_ms"]
            )
        report["workloads"][name] = entry
        _print_workload(name, entry, spec)
    return report


def _declared(spec: Dict[str, Any], section: str) -> Dict[str, Dict[str, Any]]:
    return {metric["name"]: metric for metric in spec[section]}


def _print_workload(name: str, entry: Dict[str, Any], spec: Dict[str, Any]) -> None:
    untraced = entry["untraced"]
    declared = _declared(spec, "end_to_end")
    print(f"== {name}: {untraced['attempted']} ops, {untraced['failed']} failed")
    for metric, value in untraced["values"].items():
        if metric == "failed_share":
            print(f"  {metric:<44}{value:>14.6g} ratio  (any increase is a regression)")
            continue
        info = declared[metric]
        print(f"  {metric:<44}{value:>14.6g} {info['unit']:<6} (bound {info['bound']})")
    print(
        f"  {'op_p%d_ms' % untraced['tail_percentile']:<44}{untraced['tail_ms']:>14.6g} ms"
        f"     (n={untraced['attempted']}, not gated)"
    )
    print(f"  {'op_iqr_ratio':<44}{untraced['op_iqr_ratio']:>14.6g} ratio  (not gated)")
    if untraced["setup_samples_s"]:
        samples = " ".join(f"{s:.3f}" for s in untraced["setup_samples_s"])
        print(f"  setup probes (s): {samples}")
    traced = entry.get("traced")
    if traced is None:
        return
    layers = _declared(spec, "per_layer")
    print(
        f"  -- traced: {traced['attempted']} ops, {traced['spans']} spans "
        f"-> {traced['trace_file']}"
    )
    for metric, value in traced["values"].items():
        print(f"  {metric:<44}{value:>14.6g} {layers[metric]['unit']}")
    for error in traced["layer_errors"]:
        print(f"  LAYER ERROR {error}")


def contract_line(entry: Dict[str, Any], spec: Dict[str, Any], section: str) -> Dict[str, Any]:
    """The driver's result object for one workload (``section`` of BENCHMARK.json)."""
    runs = list(entry.values())
    values = entry["traced" if section == "per_layer" else "untraced"]["values"]
    declared = _declared(spec, section)
    missing = set(declared) - set(values)
    if missing:
        raise RuntimeError(f"BENCHMARK.json declares unmeasured metrics: {sorted(missing)}")
    failed = sum(run["failed"] for run in runs)
    return {
        "correct": failed == 0 and not any(run.get("layer_errors") for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": info["unit"]}
            for name, info in declared.items()
        },
    }


def selfcheck(args: argparse.Namespace, spec: Dict[str, Any], names: Sequence[str]) -> int:
    """Two untraced runs of the same code must agree within the declared bounds."""
    first = run_suite(args, spec, names)
    second = run_suite(args, spec, names)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    worst = 0
    print("== selfcheck: |second - first| / first per metric x workload")
    for name in names:
        one, two = (r["workloads"][name]["untraced"] for r in (first, second))
        for metric, bound in bounds.items():
            a, b = one["values"][metric], two["values"][metric]
            drift = abs(b - a) / a
            verdict = "ok" if drift <= bound else "EXCEEDS"
            worst += verdict != "ok"
            print(
                f"  {name:<14}{metric:<16}{a:>12.5g} {b:>12.5g} "
                f"drift {drift:.4f} bound {bound} {verdict}"
            )
        failures = one["failed"] + two["failed"]
        worst += failures
        print(
            f"  {name:<14}op_iqr_ratio    {one['op_iqr_ratio']:>12.4f} "
            f"{two['op_iqr_ratio']:>12.4f} failed ops {failures}"
        )
    return 1 if worst else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="workload input seed")
    parser.add_argument("--workload", action="append", help="run only this workload (repeatable)")
    parser.add_argument("--seconds", type=float, help="time-bound the timed phase (driver runs)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also run traced and print the per-layer metrics")
    parser.add_argument("--quick", action="store_true", help="tiny sizes, smoke run only")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the untraced suite twice and compare against the bounds")
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        help="build one workload, print the set-up seconds, exit")
    parser.add_argument("--child", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"run.py: no program to measure under {ROOT}/src", file=sys.stderr)
        return 2
    if args.setup_probe or args.child:
        return run_child(args)

    spec = _load_spec()
    declared = [workload["name"] for workload in spec["workloads"]]
    names = args.workload or declared
    unknown = [name for name in names if name not in declared]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; expected {declared}")
    if args.selfcheck:
        if args.quick or args.trace:
            parser.error("--selfcheck compares full untraced runs; drop --quick/--trace")
        return selfcheck(args, spec, names)

    report = run_suite(args, spec, names)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "report.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"fingerprint: {json.dumps(report['fingerprint'])} quick={json.dumps(args.quick)}")
    section = "per_layer" if args.trace and args.seconds is not None else "end_to_end"
    lines = {
        name: contract_line(entry, spec, section)
        for name, entry in report["workloads"].items()
    }
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0 if all(line["correct"] for line in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
