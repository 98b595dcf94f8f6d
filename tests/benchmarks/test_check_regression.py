"""Unit tests for the CI bench-gate comparator (benchmarks/check_regression.py)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_regression",
    Path(__file__).resolve().parents[2] / "benchmarks" / "check_regression.py",
)
check_regression = importlib.util.module_from_spec(_SPEC)
sys.modules["check_regression"] = check_regression
_SPEC.loader.exec_module(check_regression)


def payload(results=(), speedups=None):
    out = {"schema_version": 1, "experiment": "x", "results": list(results)}
    if speedups is not None:
        out["speedups"] = speedups
    return out


def record(size, sps):
    return {"workload": "w", "engine": "e", "mode": "m", "size": size,
            "steps_per_second": sps}


class TestComparePayloads:
    def test_matching_records_within_tolerance_pass(self):
        findings = check_regression.compare_payloads(
            "BENCH_x",
            payload([record(100, 1000.0)]),
            payload([record(100, 900.0)]),
            tolerance=0.25,
        )
        assert len(findings) == 1
        assert not findings[0].regressed

    def test_regression_beyond_tolerance_flags(self):
        findings = check_regression.compare_payloads(
            "BENCH_x",
            payload([record(100, 1000.0)]),
            payload([record(100, 700.0)]),
            tolerance=0.25,
        )
        assert findings[0].regressed

    def test_tolerance_is_configurable(self):
        base, fresh = payload([record(100, 1000.0)]), payload([record(100, 700.0)])
        lenient = check_regression.compare_payloads("b", base, fresh, tolerance=0.5)
        assert not lenient[0].regressed

    def test_unmatched_records_are_skipped(self):
        findings = check_regression.compare_payloads(
            "BENCH_x",
            payload([record(100_000, 1000.0)]),  # full-mode baseline size
            payload([record(100, 900.0)]),       # fast-mode fresh size
            tolerance=0.25,
        )
        assert findings == []

    def test_throughput_derived_from_seconds_per_step(self):
        base = payload([{"workload": "w", "size": 1, "seconds_per_step": 0.001}])
        fresh = payload([{"workload": "w", "size": 1, "seconds_per_step": 0.002}])
        findings = check_regression.compare_payloads("b", base, fresh, 0.25)
        assert findings[0].regressed  # 2x slower
        assert findings[0].baseline == pytest.approx(1000.0)

    def test_speedup_ratios_compared(self):
        base = payload(speedups={"w@100": 4.0})
        fresh = payload(speedups={"w@100": 2.0})
        findings = check_regression.compare_payloads("b", base, fresh, 0.25)
        assert findings == [findings[0]]
        assert findings[0].kind == "speedup" and findings[0].regressed

    def test_faster_is_never_a_regression(self):
        findings = check_regression.compare_payloads(
            "b",
            payload([record(1, 100.0)], speedups={"k": 1.0}),
            payload([record(1, 500.0)], speedups={"k": 9.0}),
            tolerance=0.0,
        )
        assert not any(f.regressed for f in findings)


class TestCompareDirectories:
    def _write(self, directory, name, data):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / name).write_text(json.dumps(data))

    def test_new_reports_and_missing_counterparts_are_notes(self, tmp_path):
        base, fresh = tmp_path / "base", tmp_path / "fresh"
        self._write(base, "BENCH_old.json", payload([record(1, 10.0)]))
        self._write(fresh, "BENCH_new.json", payload([record(1, 10.0)]))
        findings, notes = check_regression.compare_directories(base, fresh, 0.25)
        assert findings == []
        assert any("BENCH_new.json" in n for n in notes)
        assert any("BENCH_old.json" in n for n in notes)

    def test_matched_reports_are_compared(self, tmp_path):
        base, fresh = tmp_path / "base", tmp_path / "fresh"
        self._write(base, "BENCH_a.json", payload([record(1, 100.0)]))
        self._write(fresh, "BENCH_a.json", payload([record(1, 10.0)]))
        findings, _ = check_regression.compare_directories(base, fresh, 0.25)
        assert len(findings) == 1 and findings[0].regressed


class TestMain:
    def _write(self, directory, name, data):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / name).write_text(json.dumps(data))

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        base, fresh = tmp_path / "base", tmp_path / "fresh"
        self._write(base, "BENCH_a.json", payload([record(1, 100.0)]))
        self._write(fresh, "BENCH_a.json", payload([record(1, 101.0)]))
        assert check_regression.main(
            ["--baseline", str(base), "--fresh", str(fresh)]
        ) == 0
        assert "0 regressions" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        base, fresh = tmp_path / "base", tmp_path / "fresh"
        self._write(base, "BENCH_a.json", payload([record(1, 100.0)]))
        self._write(fresh, "BENCH_a.json", payload([record(1, 10.0)]))
        assert check_regression.main(
            ["--baseline", str(base), "--fresh", str(fresh)]
        ) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_tolerance_env_override(self, tmp_path, monkeypatch):
        base, fresh = tmp_path / "base", tmp_path / "fresh"
        self._write(base, "BENCH_a.json", payload([record(1, 100.0)]))
        self._write(fresh, "BENCH_a.json", payload([record(1, 50.0)]))
        monkeypatch.setenv(check_regression.TOLERANCE_ENV, "0.9")
        assert check_regression.main(
            ["--baseline", str(base), "--fresh", str(fresh)]
        ) == 0


def sharded_record(backend, size, fps, shards=4):
    return {
        "workload": "min_element",
        "backend": backend,
        "mode": "distributed",
        "size": size,
        "shards": shards,
        "firings_per_second": fps,
    }


class TestShardedRuntimeRecordShape:
    """The gate accepts BENCH_sharded_runtime.json records keyed by backend+shards."""

    def test_backend_and_shards_key_the_identity(self):
        base = payload(
            [sharded_record("multiprocessing", 100, 1000.0), sharded_record("inprocess", 100, 5000.0)]
        )
        fresh = payload(
            [sharded_record("multiprocessing", 100, 990.0), sharded_record("inprocess", 100, 4900.0)]
        )
        findings = check_regression.compare_payloads("BENCH_sharded_runtime", base, fresh, 0.25)
        assert len(findings) == 2
        assert {f.key for f in findings} == {
            "workload=min_element, mode=distributed, backend=multiprocessing, size=100, shards=4",
            "workload=min_element, mode=distributed, backend=inprocess, size=100, shards=4",
        }
        assert not any(f.regressed for f in findings)

    def test_different_shard_counts_never_cross_match(self):
        base = payload([sharded_record("inprocess", 100, 5000.0, shards=4)])
        fresh = payload([sharded_record("inprocess", 100, 10.0, shards=8)])
        findings = check_regression.compare_payloads("BENCH_sharded_runtime", base, fresh, 0.25)
        assert findings == []  # unmatched identity: noted, never failed

    def test_sharded_speedup_regression_flags(self):
        base = payload([], speedups={"min_element@10000": 5.9})
        fresh = payload([], speedups={"min_element@10000": 1.5})
        findings = check_regression.compare_payloads("BENCH_sharded_runtime", base, fresh, 0.25)
        assert len(findings) == 1 and findings[0].regressed

    def test_committed_sharded_report_parses_through_the_gate(self):
        reports = Path(__file__).resolve().parents[2] / "benchmarks" / "reports"
        path = reports / "BENCH_sharded_runtime.json"
        if not path.exists():
            pytest.skip("no committed sharded baseline yet")
        report = json.loads(path.read_text())
        findings = check_regression.compare_payloads(
            "BENCH_sharded_runtime", report, report, 0.25
        )
        # Self-comparison: every record matches itself, nothing regresses.
        assert findings and not any(f.regressed for f in findings)
        keys = {check_regression.record_key(r) for r in report["results"]}
        assert len(keys) == len(report["results"])  # identities are unique
