"""Benchmark-regression gate: compare fresh ``BENCH_*.json`` against baselines.

The CI ``bench-gate`` step snapshots the committed ``benchmarks/reports``
directory, re-runs the benchmark harness, and then invokes this script to
compare the freshly produced JSON reports against the snapshot.  The job
fails when any matched measurement regressed in throughput by more than the
tolerance (default 25%, configurable via ``BENCH_GATE_TOLERANCE`` or
``--tolerance``)::

    python benchmarks/check_regression.py \
        --baseline /tmp/bench-baselines --fresh benchmarks/reports

Two kinds of comparisons are made per report:

* **records** — entries of the ``results`` list are keyed by their identity
  fields (workload/engine/mode/size/...); throughput is read from
  ``steps_per_second`` or ``firings_per_second``, else derived from
  ``seconds_per_step``/``seconds``.  Records present on only one side (e.g. a
  fast-mode run sweeping fewer sizes) are reported but never fail the gate.
* **speedups** — the machine-independent ratio dict some reports carry
  (compiled/interpreted, parallel/sequential ...), compared entry-wise with
  the same tolerance.  These are the strongest signal across heterogeneous
  runners, since absolute wall times divide out.

Exit status: 0 when no regression, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

DEFAULT_TOLERANCE = 0.25
TOLERANCE_ENV = "BENCH_GATE_TOLERANCE"

#: Record fields that identify a measurement (everything non-metric).
#: ``backend``/``shards`` key the sharded-runtime records
#: (``BENCH_sharded_runtime.json``: one record per workload x backend x size
#: at a fixed shard count).
IDENTITY_FIELDS = (
    "workload",
    "engine",
    "mode",
    "phase",
    "backend",
    "size",
    "shards",
    "partitions",
    "num_pes",
)


@dataclass
class Finding:
    """One comparison outcome."""

    report: str
    key: str
    kind: str  # "record" | "speedup"
    baseline: float
    fresh: float
    regressed: bool

    @property
    def ratio(self) -> float:
        return self.fresh / self.baseline if self.baseline else float("inf")

    def describe(self) -> str:
        verdict = "REGRESSED" if self.regressed else "ok"
        return (
            f"[{verdict}] {self.report} {self.kind} {self.key}: "
            f"baseline={self.baseline:.6g} fresh={self.fresh:.6g} "
            f"({self.ratio:.2f}x)"
        )


def record_key(record: Dict[str, Any]) -> Tuple:
    """Identity of one measurement record (order-stable, hashable)."""
    return tuple(
        (field, record[field]) for field in IDENTITY_FIELDS if field in record
    )


def throughput_of(record: Dict[str, Any]) -> Optional[float]:
    """Higher-is-better throughput of a record, or ``None`` if not derivable."""
    for field in ("steps_per_second", "firings_per_second"):
        value = record.get(field)
        if isinstance(value, (int, float)) and value > 0:
            return float(value)
    for field in ("seconds_per_step", "seconds"):
        value = record.get(field)
        if isinstance(value, (int, float)) and value > 0:
            return 1.0 / float(value)
    return None


def compare_payloads(
    report: str,
    baseline: Dict[str, Any],
    fresh: Dict[str, Any],
    tolerance: float,
) -> List[Finding]:
    """Compare two ``emit_json`` payloads; regressions honor ``tolerance``."""
    findings: List[Finding] = []
    floor = 1.0 - tolerance

    base_records = {
        record_key(r): throughput_of(r) for r in baseline.get("results", [])
    }
    for record in fresh.get("results", []):
        key = record_key(record)
        fresh_value = throughput_of(record)
        base_value = base_records.get(key)
        if base_value is None or fresh_value is None:
            continue  # unmatched (different sweep) or non-throughput record
        findings.append(
            Finding(
                report=report,
                key=", ".join(f"{k}={v}" for k, v in key),
                kind="record",
                baseline=base_value,
                fresh=fresh_value,
                regressed=fresh_value < base_value * floor,
            )
        )

    base_speedups = baseline.get("speedups") or {}
    fresh_speedups = fresh.get("speedups") or {}
    for key, fresh_value in fresh_speedups.items():
        base_value = base_speedups.get(key)
        if not isinstance(base_value, (int, float)) or base_value <= 0:
            continue
        if not isinstance(fresh_value, (int, float)):
            continue
        findings.append(
            Finding(
                report=report,
                key=key,
                kind="speedup",
                baseline=float(base_value),
                fresh=float(fresh_value),
                regressed=fresh_value < base_value * floor,
            )
        )
    return findings


def compare_directories(
    baseline_dir: Path, fresh_dir: Path, tolerance: float
) -> Tuple[List[Finding], List[str]]:
    """Compare every ``BENCH_*.json`` present in both directories.

    Returns (findings, notes); notes list reports skipped on either side.
    """
    findings: List[Finding] = []
    notes: List[str] = []
    fresh_reports = sorted(fresh_dir.glob("BENCH_*.json"))
    if not fresh_reports:
        notes.append(f"no BENCH_*.json found under {fresh_dir}")
    for fresh_path in fresh_reports:
        baseline_path = baseline_dir / fresh_path.name
        if not baseline_path.exists():
            notes.append(f"{fresh_path.name}: new report (no baseline), skipped")
            continue
        baseline = json.loads(baseline_path.read_text())
        fresh = json.loads(fresh_path.read_text())
        if baseline.get("schema_version") != fresh.get("schema_version"):
            notes.append(f"{fresh_path.name}: schema_version changed, skipped")
            continue
        findings.extend(
            compare_payloads(fresh_path.stem, baseline, fresh, tolerance)
        )
    for baseline_path in sorted(baseline_dir.glob("BENCH_*.json")):
        if not (fresh_dir / baseline_path.name).exists():
            notes.append(
                f"{baseline_path.name}: baseline not re-produced this run, skipped"
            )
    return findings, notes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        required=True,
        help="directory holding the baseline BENCH_*.json reports",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        required=True,
        help="directory holding the freshly produced BENCH_*.json reports",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help=f"allowed fractional throughput drop (default {DEFAULT_TOLERANCE}, "
        f"or ${TOLERANCE_ENV})",
    )
    args = parser.parse_args(argv)

    tolerance = args.tolerance
    if tolerance is None:
        tolerance = float(os.environ.get(TOLERANCE_ENV, DEFAULT_TOLERANCE))
    if not (0.0 <= tolerance < 1.0):
        parser.error(f"tolerance must be in [0, 1), got {tolerance}")

    findings, notes = compare_directories(args.baseline, args.fresh, tolerance)
    for note in notes:
        print(f"[note] {note}")
    regressions = [f for f in findings if f.regressed]
    for finding in findings:
        if finding.regressed:
            print(finding.describe())
    print(
        f"bench-gate: {len(findings)} comparisons, {len(regressions)} regressions "
        f"(tolerance {tolerance:.0%})"
    )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
