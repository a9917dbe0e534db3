"""The persisted-stream codec against a per-line reference.

:class:`~repro.mofka.YokanStore`, :meth:`Partition.dump`/:meth:`load
<repro.mofka.topic.Partition.load>` and :class:`~repro.mofka.WarabiStore`
encode and decode a whole file at once.  The ``ref_*`` functions below
spell the same formats one line or blob at a time, taking and returning
plain data: a Yokan line is ``json.dumps({"k": key, "v": value},
sort_keys=True)``, and a partition's value per event is its row object.
Under derandomized Hypothesis both sides must write the same bytes and
load the same entries, on metadata that covers what JSON escaping and
line splitting can get wrong.  The format tests pin that a cut-off
``.warabi``, one holding the wrong number of blobs, or a ``.meta.jsonl``
in the double-encoded format of earlier versions fails to reload.
"""

import json
import math
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mofka import WarabiStore, YokanStore
from repro.mofka.topic import Partition

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None,
                    database=None)


# -- reference codec ---------------------------------------------------------
def ref_yokan_dump(data: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(data):
            fh.write(json.dumps({"k": key, "v": data[key]}, sort_keys=True)
                     + "\n")


def ref_yokan_load(path: str) -> dict:
    data = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            data[row["k"]] = row["v"]
    return data


def ref_warabi_dump(blobs: list, path: str) -> None:
    with open(path, "wb") as fh:
        for blob in blobs:
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)


def ref_warabi_load(path: str) -> list:
    blobs = []
    with open(path, "rb") as fh:
        while True:
            header = fh.read(8)
            if not header:
                break
            size = int.from_bytes(header, "little")
            blobs.append(fh.read(size))
    return blobs


def ref_partition_dump(entries: list, blobs: list, base: str) -> None:
    """``entries`` are ``(timestamp, metadata, region)``."""
    data = {}
    for offset, (timestamp, metadata, region) in enumerate(entries):
        data[f"evt/{offset:012d}"] = {
            "timestamp": timestamp,
            "metadata": metadata,
            "region": region,
        }
    ref_yokan_dump(data, base + ".meta.jsonl")
    ref_warabi_dump(blobs, base + ".warabi")


def ref_partition_load(base: str) -> tuple[list, list]:
    data = ref_yokan_load(base + ".meta.jsonl")
    entries = []
    for key in sorted(k for k in data if k.startswith("evt/")):
        raw = data[key]
        entries.append((raw["timestamp"], raw["metadata"], raw["region"]))
    return entries, ref_warabi_load(base + ".warabi")


# -- strategies --------------------------------------------------------------
#: Characters that JSON escaping or line splitting could mishandle:
#: quote, backslash and slash; control characters; the separators
#: ``str.splitlines`` splits on besides ``\n``; lone surrogates; a
#: non-BMP and a non-ASCII BMP character.
AWKWARD = ('"\\/\x00\x1f\t\n\r\x0b\x0c\x1c\x1d\x1e\x7f\x85'
           '\u2028\u2029\ud800\udfff\U0001f600\xe9')

TEXT = st.text(st.one_of(st.sampled_from(AWKWARD), st.characters()),
               max_size=8)
#: :data:`TEXT` without lone surrogates, which UTF-8 cannot encode.
UTF8_TEXT = TEXT.map(lambda s: s.encode("utf-8", "replace").decode())
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e-310, math.inf, -math.inf, math.nan,
                     1.7976931348623157e308, 0.1]),
)
SCALARS = st.one_of(st.none(), st.booleans(),
                    st.integers(-2**130, 2**130), FLOATS, TEXT)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=8,
)
METADATA = st.dictionaries(TEXT, JSON, max_size=4)
PAYLOADS = st.one_of(st.just(b""), st.binary(max_size=24))
ENTRIES = st.lists(st.tuples(FLOATS, METADATA, PAYLOADS), max_size=5)


def read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def as_json(value) -> str:
    """Values compared as JSON text with sorted keys: equal for
    NaN-bearing values and for dicts in another key order, and tells
    -0.0 from 0.0 and 1 from 1.0 or True."""
    return json.dumps(value, sort_keys=True)


# -- codec vs reference ------------------------------------------------------
@given(st.dictionaries(TEXT, JSON, max_size=8))
@SETTINGS
def test_yokan_store_matches_reference(data):
    store = YokanStore()
    for key, value in data.items():
        store.put(key, value)
    with tempfile.TemporaryDirectory() as tmp:
        path, ref = os.path.join(tmp, "new"), os.path.join(tmp, "ref")
        store.dump(path)
        ref_yokan_dump(data, ref)
        assert read(path) == read(ref)
        loaded = YokanStore.load(ref)
        assert as_json(list(loaded.iter_prefix())) == \
            as_json(sorted(ref_yokan_load(ref).items()))


@given(st.dictionaries(UTF8_TEXT, UTF8_TEXT, max_size=8))
@SETTINGS
def test_yokan_load_splits_only_on_newline(data):
    # Written without ``ensure_ascii``, \x1c-\x1e stay escaped but \x85
    # and U+2028 are raw inside a line.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "raw")
        with open(path, "w", encoding="utf-8") as fh:
            for key, value in data.items():
                fh.write(json.dumps({"k": key, "v": value},
                                    ensure_ascii=False, sort_keys=True)
                         + "\n")
        assert list(YokanStore.load(path).iter_prefix()) == \
            sorted(ref_yokan_load(path).items())


@given(JSON)
@SETTINGS
def test_put_json_spells_json_dumps_sorted(value):
    """A stored JSON value persists as its line, encoded once."""
    store = YokanStore()
    store.put("k", value)
    assert store.get("k") is value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "kv")
        store.dump(path)
        assert read(path).decode() == \
            json.dumps({"k": "k", "v": value}, sort_keys=True) + "\n"


@given(st.lists(PAYLOADS, max_size=8))
@SETTINGS
def test_warabi_store_matches_reference(blobs):
    store = WarabiStore()
    for blob in blobs:
        store.create(blob)
    with tempfile.TemporaryDirectory() as tmp:
        path, ref = os.path.join(tmp, "new"), os.path.join(tmp, "ref")
        store.dump(path)
        ref_warabi_dump(blobs, ref)
        assert read(path) == read(ref)
        loaded = WarabiStore.load(ref)
        assert [loaded.read(i) for i in range(len(loaded))] == \
            ref_warabi_load(ref)


@given(ENTRIES)
@settings(SETTINGS, max_examples=50)
def test_partition_matches_reference(entries):
    part = Partition("t", 0)
    for timestamp, metadata, data in entries:
        part.append(metadata, data, timestamp)
    with tempfile.TemporaryDirectory() as tmp:
        part.dump(tmp)
        base, ref = os.path.join(tmp, "t.0"), os.path.join(tmp, "ref")
        ref_partition_dump(
            [(timestamp, metadata, region)
             for region, (timestamp, metadata, _) in enumerate(entries)],
            [data for _, _, data in entries], ref)
        for suffix in (".meta.jsonl", ".warabi"):
            assert read(base + suffix) == read(ref + suffix)
        loaded = Partition.load(tmp, "t", 0)
        ref_entries, ref_blobs = ref_partition_load(base)
    assert len(loaded) == len(ref_entries) == len(entries)
    for event, (timestamp, metadata, region), (live_timestamp,
                                               live_metadata, _) in zip(
            loaded.read_range(0), ref_entries, entries):
        assert as_json(event.timestamp) == as_json(timestamp) == \
            as_json(live_timestamp)
        assert as_json(event.metadata) == as_json(metadata) == \
            as_json(live_metadata)
        assert event.data == ref_blobs[region]


# -- truncated, mismatched and outdated files ---------------------------------
class TestTruncatedWarabi:
    def dump(self, tmp_path, *blobs) -> str:
        store = WarabiStore()
        for blob in blobs:
            store.create(blob)
        path = str(tmp_path / "blobs.warabi")
        store.dump(path)
        return path

    def test_short_blob_rejected(self, tmp_path):
        path = self.dump(tmp_path, b"hello", b"world!")
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 3)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: truncated Warabi blob at byte 21: 3 of 6 bytes")):
            WarabiStore.load(path)

    def test_short_header_rejected(self, tmp_path):
        path = self.dump(tmp_path, b"abc")
        with open(path, "ab") as fh:
            fh.write((7).to_bytes(8, "little")[:5])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: truncated Warabi header at byte 11: 5 of 8 bytes")):
            WarabiStore.load(path)


@pytest.mark.parametrize("n_blobs", [1, 3])
def test_blob_count_mismatch_names_the_partition(tmp_path, n_blobs):
    part = Partition("t", 0)
    for n in range(2):
        part.append({"n": n}, b"", float(n))
    part.dump(str(tmp_path))
    blobs = WarabiStore()
    for _ in range(n_blobs):
        blobs.create(b"")
    blobs.dump(str(tmp_path / "t.0.warabi"))
    with pytest.raises(ValueError, match=re.escape(
            f"partition t.0: {n_blobs} Warabi blobs for 2 events")):
        Partition.load(str(tmp_path), "t", 0)


def test_double_encoded_partition_rejected(tmp_path):
    """A ``.meta.jsonl`` whose values are strings holding each row's
    JSON, as earlier versions wrote it, fails to reload with an error
    that names the file and the format."""
    row = {"metadata": {"type": "warning"}, "region": 0, "timestamp": 1.0}
    with open(tmp_path / "t.0.meta.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"k": "evt/000000000000",
                             "v": json.dumps(row, sort_keys=True)}) + "\n")
    blobs = WarabiStore()
    blobs.create(b"")
    blobs.dump(str(tmp_path / "t.0.warabi"))
    with pytest.raises(ValueError, match=re.escape(
            f"{tmp_path / 't.0.meta.jsonl'}: an evt/ value is not an event "
            f"object; values that are strings of JSON are the "
            f"double-encoded partition format")):
        Partition.load(str(tmp_path), "t", 0)
