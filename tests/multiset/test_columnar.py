"""Unit tests for the columnar multiset storage layer."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.multiset import columnar as columnar_module
from repro.multiset.columnar import (
    VECTOR_INT_BOUND,
    ColumnarStore,
    column_batch_copies,
    from_column_batch,
    numpy_or_none,
    to_column_batch,
)
from repro.multiset.element import Element
from repro.multiset.multiset import Multiset


def _ms(*pairs):
    multiset = Multiset()
    for element, count in pairs:
        multiset.add(element, count)
    return multiset


def e(value, label="x", tag=0):
    return Element(value=value, label=label, tag=tag)


@pytest.fixture(params=["numpy", "fallback"])
def numpy_mode(request, monkeypatch):
    """Run a test under both the numpy and the pure-Python columns."""
    if request.param == "fallback":
        monkeypatch.setattr(columnar_module, "_np", None)
    elif numpy_or_none() is None:
        pytest.skip("numpy unavailable in this environment")
    return request.param


class TestRoundTrip:
    def test_lossless_round_trip_preserves_order(self, numpy_mode):
        multiset = _ms((e(3), 2), (e(1, "y"), 1), (e(5), 1), (e("s", "z"), 4))
        store = ColumnarStore.from_multiset(multiset)
        assert len(store) == len(multiset)
        assert store.counts() == multiset.counts()
        assert list(store.counts()) == list(multiset.counts())
        assert store.labels() == multiset.labels()
        assert store.to_multiset() == multiset

    def test_label_buckets_match_index_shape(self):
        multiset = _ms((e(3), 1), (e(7, "y"), 2), (e(4), 1))
        store = ColumnarStore.from_multiset(multiset)
        buckets = store.label_buckets()
        assert set(buckets) == {"x", "y"}
        assert buckets["x"] == {e(3): 1, e(4): 1}
        assert list(buckets["x"]) == [e(3), e(4)]

    def test_exact_value_objects_survive(self):
        # True and 1 compare equal as elements; the stored object must be
        # whichever arrived, not a canonicalized int.
        multiset = _ms((e(True), 1), (e((1, 2), "t"), 1))
        store = ColumnarStore.from_multiset(multiset)
        values = [element.value for element, _ in store.live_pairs()]
        assert values[0] is True
        assert values[1] == (1, 2)


class TestSlotDiscipline:
    def test_merge_preserves_slot_and_logs(self):
        store = ColumnarStore()
        bucket, slot0, appended0 = store.add(e(3))
        _, slot1, appended1 = store.add(e(3), 2)
        assert appended0 and not appended1
        assert slot0 == slot1
        assert bucket.counts[slot0] == 3
        assert bucket.merge_log == [slot0]

    def test_dead_slots_are_tombstoned_not_reused(self):
        store = ColumnarStore()
        store.add(e(3))
        store.add(e(4))
        bucket, slot, died = store.remove(e(3))
        assert died
        # Re-adding appends a fresh tail slot; the dead slot stays dead.
        _, new_slot, appended = store.add(e(3))
        assert appended and new_slot == 2 and slot == 0
        assert bucket.counts[0] <= 0
        assert [el for el, _ in bucket.live_items()] == [e(4), e(3)]

    def test_live_head_skips_tombstoned_prefix(self):
        store = ColumnarStore()
        for value in (1, 2, 3):
            store.add(e(value))
        store.remove(e(1))
        store.remove(e(2))
        bucket = store.buckets["x"]
        assert bucket.advance_live_head() == 2

    def test_remove_slot_matches_remove(self):
        reference = ColumnarStore()
        direct = ColumnarStore()
        for value in (1, 2, 2):
            reference.add(e(value))
            direct.add(e(value))
        _, slot, died_ref = reference.remove(e(2))
        bucket = direct.buckets["x"]
        died_direct = direct.remove_slot(bucket, bucket.slot_of[(2, 0)])
        assert died_ref == died_direct is False
        assert direct.counts() == reference.counts()
        assert direct.size == reference.size
        assert reference.remove(e(2))[2] is True
        assert direct.remove_slot(bucket, bucket.slot_of[(2, 0)]) is True
        assert direct.labels() == reference.labels() == ["x"]
        assert "x" in direct.label_streaks

    def test_label_streak_dies_with_last_copy(self):
        store = ColumnarStore()
        store.add(e(1))
        store.add(e(9, "y"))
        store.remove(e(1))
        assert store.labels() == ["y"]
        store.add(e(2))
        assert store.labels() == ["y", "x"]  # refilled label re-enters at the tail


class TestVectorizability:
    def test_int_bucket_is_vectorizable(self, numpy_mode):
        store = ColumnarStore.from_multiset(_ms((e(3), 1), (e(-7), 2)))
        bucket = store.buckets["x"]
        assert bucket.vectorizable
        view = bucket.values_view()
        if numpy_mode == "numpy":
            values, tags, counts = view
            assert list(values) == [3, -7]
            assert list(counts) == [1, 2]
        else:
            assert view is None

    @pytest.mark.parametrize(
        "value", ["text", (1, 2), VECTOR_INT_BOUND + 1, -(VECTOR_INT_BOUND + 1)]
    )
    def test_unshaped_payloads_demote_the_bucket(self, value):
        store = ColumnarStore()
        store.add(e(3))
        assert store.buckets["x"].vectorizable
        store.add(e(value))
        assert not store.buckets["x"].vectorizable
        assert store.vectorizable_labels() == []
        # Storage stays fully functional after demotion.
        assert store.counts() == {e(3): 1, e(value): 1}


class TestAttachment:
    def test_attached_store_follows_multiset_changes(self):
        multiset = _ms((e(3), 1))
        store = ColumnarStore()
        store.attach(multiset)
        multiset.add(e(4), 2)
        multiset.remove(e(3))
        assert store.counts() == multiset.counts()
        store.detach()
        multiset.add(e(5))
        assert e(5) not in store.counts()

    def test_double_attach_rejected(self):
        multiset = _ms((e(3), 1))
        store = ColumnarStore()
        store.attach(multiset)
        with pytest.raises(RuntimeError):
            store.attach(multiset)

    def test_sync_into_reconstructs_object_state(self):
        multiset = _ms((e(3), 1), (e(4, "y"), 2), (e(5), 1))
        store = ColumnarStore.from_multiset(multiset)
        store.remove(e(4, "y"), 2)
        store.add(e(6, "z"))
        store.sync_into(multiset)
        expected = store.to_multiset()
        assert multiset == expected
        assert len(multiset) == len(store)
        assert list(multiset.counts()) == list(expected.counts())
        assert multiset.labels() == expected.labels()


class TestColumnBatches:
    def test_round_trip(self):
        pairs = [(e(3), 2), (e("s", "y", 1), 1)]
        batch = to_column_batch(pairs)
        assert batch == ([3, "s"], ["x", "y"], [0, 1], [2, 1])
        assert from_column_batch(batch) == pairs
        assert column_batch_copies(batch) == 3

    def test_empty_batch(self):
        batch = to_column_batch([])
        assert column_batch_copies(batch) == 0
        assert from_column_batch(batch) == []


#: Runs one columnar sequential drain in a fresh interpreter and reports
#: whether numpy was loaded before and after it, and which module the
#: columnar seam handed out.
_FIRST_USE_SCRIPT = """
import json, sys
from repro.api import RuntimeConfig, run
from repro.gamma.stdlib import min_element, values_multiset
from repro.multiset import columnar
before = "numpy" in sys.modules
result = run(min_element(), values_multiset(range(64)),
             config=RuntimeConfig(engine="sequential", columnar=True))
np_ = columnar.numpy_or_none()
print(json.dumps({
    "before": before,
    "after": "numpy" in sys.modules,
    "seam": None if np_ is None else np_.__name__,
    "final": sorted(e.value for e in result.final),
}))
"""


def _first_use(no_numpy):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"))
    env.pop("REPRO_NO_NUMPY", None)
    if no_numpy:
        env["REPRO_NO_NUMPY"] = "1"
    result = subprocess.run(
        [sys.executable, "-c", _FIRST_USE_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


class TestLazyNumpy:
    """numpy is imported by the first columnar kernel call, not by imports."""

    @pytest.mark.skipif(
        importlib.util.find_spec("numpy") is None, reason="numpy not installed"
    )
    def test_first_kernel_call_loads_numpy(self):
        report = _first_use(no_numpy=False)
        assert report == {"before": False, "after": True, "seam": "numpy", "final": [0]}

    def test_environment_switch_is_read_at_first_use(self):
        report = _first_use(no_numpy=True)
        assert report == {"before": False, "after": False, "seam": None, "final": [0]}
