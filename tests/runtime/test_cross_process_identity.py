"""Element identity across processes.

``hash(Element(1, "a", 0))`` depends on ``PYTHONHASHSEED`` through the
string label, so an element that crosses a process must be hashed again by
the process that loads it.  A writer interpreter (``PYTHONHASHSEED=1``)
serializes the same objects through every wire form the program uses; a
loader interpreter (``PYTHONHASHSEED=2``) reads them back and checks each
against an object it built itself: equal, equally hashed, and found by
``Multiset.count``.  Run directly, this file is the writer or the loader::

    python tests/runtime/test_cross_process_identity.py write DIR
    python tests/runtime/test_cross_process_identity.py load DIR
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.gamma.compiled import CompiledReaction
from repro.gamma.matching import Matcher
from repro.gamma.stdlib import min_element
from repro.multiset import Element, Multiset
from repro.multiset.columnar import from_column_batch, to_column_batch
from repro.runtime.net.frames import decode_frame, encode_frame
from repro.runtime.recovery import Checkpoint, DiskCheckpointStore, DiskWriteAheadLog
from repro.runtime.sharding.shard import LocalReport

PROTOCOLS = range(2, pickle.HIGHEST_PROTOCOL + 1)

ROWS = (
    [f"element-pickle-{p}" for p in PROTOCOLS]
    + [f"multiset-pickle-{p}" for p in PROTOCOLS]
    + ["frame-multiset", "frame-pairs", "column-batch-pickle", "column-batch-frame"]
    + ["checkpoint-file", "wal-record"]
    + ["shape-key", "match", "local-report"]
)

#: ``pickle.dumps(Element(1, "a", 0), protocol)`` as the dataclass-based
#: Element wrote it under ``PYTHONHASHSEED=1``: slot state carrying the
#: writer's cached hash.
OLD_ELEMENT_PICKLES = {
    0: (
        b"ccopy_reg\n_reconstructor\np0\n(crepro.multiset.element\nElement\np1\n"
        b"c__builtin__\nobject\np2\nNtp3\nRp4\n(lp5\nI1\naVa\np6\naI0\n"
        b"aL3062520057121852787L\naNab."
    ),
    2: (
        b"\x80\x02crepro.multiset.element\nElement\nq\x00)\x81q\x01]q\x02(K\x01"
        b"X\x01\x00\x00\x00aq\x03K\x00\x8a\x08s\xcdA\x1a\xc4A\x80*Neb."
    ),
    5: (
        b"\x80\x05\x95A\x00\x00\x00\x00\x00\x00\x00\x8c\x16repro.multiset.element"
        b"\x94\x8c\x07Element\x94\x93\x94)\x81\x94]\x94(K\x01\x8c\x01a\x94K\x00"
        b"\x8a\x08s\xcdA\x1a\xc4A\x80*Neb."
    ),
}


def _pairs():
    return [
        (Element(1, "a", 0), 2),
        (Element("v", "b", 3), 1),
        (Element(2.5, "a", 1), 4),
        (Element(("t", 1), "c"), 1),
    ]


def _multiset():
    multiset = Multiset()
    for element, count in _pairs():
        multiset.add(element, count)
    return multiset


def _shape():
    return CompiledReaction(min_element().reactions[0]).shape


def _match():
    multiset = Multiset([Element(3, "x"), Element(1, "x")])
    return Matcher(multiset).find(min_element().reactions[0])


def _report():
    return LocalReport(
        shard=1, fired=3, supersteps=2, size=5, stable=True, labels={"a": 3, "b": 2}
    )


# -- writer ------------------------------------------------------------------------

def write(directory: Path) -> None:
    """Serialize every row's object into ``directory``."""
    element = _pairs()[0][0]
    multiset = _multiset()
    batch = to_column_batch(_pairs())
    blobs = {
        "frame-multiset": encode_frame(multiset),
        "frame-pairs": encode_frame(_pairs()),
        "column-batch-pickle": pickle.dumps(batch),
        "column-batch-frame": encode_frame(batch),
        "shape-key": pickle.dumps(_shape()),
        "match": pickle.dumps(_match()),
        "local-report": pickle.dumps(_report()),
    }
    for protocol in PROTOCOLS:
        blobs[f"element-pickle-{protocol}"] = pickle.dumps(element, protocol)
        blobs[f"multiset-pickle-{protocol}"] = pickle.dumps(multiset, protocol)
    for row, blob in blobs.items():
        (directory / row).write_bytes(blob)
    checkpoint = Checkpoint(epoch=4, shard_batches=(batch,))
    DiskCheckpointStore(directory / "checkpoints").save(checkpoint)
    DiskWriteAheadLog(directory / "wal.log").append(4, _pairs())


# -- loader ------------------------------------------------------------------------

def _check_element(loaded) -> None:
    fresh = _pairs()[0][0]
    assert type(loaded) is Element and loaded == fresh and hash(loaded) == hash(fresh)
    assert loaded.stable_hash() == fresh.stable_hash()
    assert Multiset([fresh]).count(loaded) == 1 and Multiset([loaded]).count(fresh) == 1


def _check_multiset(loaded) -> None:
    fresh = _multiset()
    assert loaded == fresh and fresh == loaded
    for element, count in _pairs():
        assert loaded.count(element) == count
    for element in loaded:
        assert fresh.count(element) == loaded.count(element)


def _check_pairs(pairs) -> None:
    assert pairs == _pairs()
    multiset = Multiset()
    for element, count in pairs:
        multiset.add(element, count)
    _check_multiset(multiset)


def _check_shape(loaded) -> None:
    fresh = _shape()
    assert loaded == fresh and hash(loaded) == hash(fresh) and {fresh: 1}[loaded] == 1


def _check_match(loaded) -> None:
    fresh = _match()
    assert loaded.consumed == fresh.consumed and loaded.binding == fresh.binding
    pool = Multiset(fresh.consumed)
    assert all(pool.count(element) == 1 for element in loaded.consumed)


def _check_report(loaded) -> None:
    fresh = _report()
    assert loaded == fresh and all(loaded.labels[label] == n for label, n in fresh.labels.items())


def load(directory: Path) -> dict:
    """Check every row against freshly built objects; ``{row: error or None}``."""
    def unpickled(row):
        return pickle.loads((directory / row).read_bytes())

    def unframed(row):
        return decode_frame((directory / row).read_bytes(), allow_pickle=True)[0]

    checks = {
        "frame-multiset": (_check_multiset, lambda: unframed("frame-multiset")),
        "frame-pairs": (_check_pairs, lambda: unframed("frame-pairs")),
        "column-batch-pickle": (
            _check_pairs, lambda: from_column_batch(unpickled("column-batch-pickle"))
        ),
        "column-batch-frame": (
            _check_pairs, lambda: from_column_batch(unframed("column-batch-frame"))
        ),
        "checkpoint-file": (
            _check_pairs,
            lambda: DiskCheckpointStore(directory / "checkpoints").load(4).shard_pairs(0),
        ),
        "wal-record": (
            _check_pairs, lambda: DiskWriteAheadLog(directory / "wal.log").records()[0].pairs()
        ),
        "shape-key": (_check_shape, lambda: unpickled("shape-key")),
        "match": (_check_match, lambda: unpickled("match")),
        "local-report": (_check_report, lambda: unpickled("local-report")),
    }
    for protocol in PROTOCOLS:
        for kind, check in (("element", _check_element), ("multiset", _check_multiset)):
            row = f"{kind}-pickle-{protocol}"
            checks[row] = (check, lambda row=row: unpickled(row))
    results = {}
    for row, (check, read) in checks.items():
        try:
            check(read())
            results[row] = None
        except Exception as exc:  # reported per row, the test asserts on each
            results[row] = f"{type(exc).__name__}: {exc}"
    return results


# -- tests -------------------------------------------------------------------------

def _run(mode: str, directory: Path, seed: int) -> str:
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, __file__, mode, str(directory)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def loaded_rows(tmp_path_factory):
    directory = tmp_path_factory.mktemp("wire")
    _run("write", directory, seed=1)
    return json.loads(_run("load", directory, seed=2))


def test_every_row_is_checked(loaded_rows):
    assert sorted(loaded_rows) == sorted(ROWS)


@pytest.mark.parametrize("row", ROWS)
def test_loaded_object_matches_a_fresh_one(loaded_rows, row):
    assert loaded_rows[row] is None, loaded_rows[row]


@pytest.mark.parametrize("protocol", sorted(OLD_ELEMENT_PICKLES))
def test_old_element_pickles_are_refused(protocol):
    with pytest.raises(TypeError):
        pickle.loads(OLD_ELEMENT_PICKLES[protocol])


if __name__ == "__main__":
    mode, target = sys.argv[1], Path(sys.argv[2])
    if mode == "write":
        write(target)
    else:
        print(json.dumps(load(target)))
