"""Tests for the Yokan and Warabi microservice stores."""

import pytest

from repro.mofka import WarabiStore, YokanStore


class TestYokan:
    def test_put_get(self):
        store = YokanStore()
        store.put("a", "1")
        assert store.get("a") == "1"
        assert store.exists("a")
        assert not store.exists("b")

    def test_missing_key_raises(self):
        with pytest.raises(KeyError, match="no such key"):
            YokanStore().get("ghost")

    def test_type_checked(self):
        with pytest.raises(TypeError):
            YokanStore().put(42, "v")

    def test_erase_idempotent(self):
        store = YokanStore()
        store.put("k", "v")
        store.erase("k")
        store.erase("k")
        assert len(store) == 0

    def test_prefix_listing_sorted(self):
        store = YokanStore()
        for key in ("evt/002", "evt/000", "evt/001", "cfg/x"):
            store.put(key, key)
        assert store.list_keys("evt/") == ["evt/000", "evt/001", "evt/002"]
        assert [k for k, _ in store.iter_prefix("cfg/")] == ["cfg/x"]

    def test_json_roundtrip(self):
        store = YokanStore()
        value = {"x": [1, 2], "y": None}
        store.put("j", value)
        assert store.get("j") is value

    def test_dump_load(self, tmp_path):
        store = YokanStore()
        store.put("a", "1")
        store.put("b", {"nested": True, "n": [1.5, None]})
        path = str(tmp_path / "dir" / "kv.jsonl")
        store.dump(path)
        assert (tmp_path / "dir" / "kv.jsonl").read_bytes() == (
            b'{"k": "a", "v": "1"}\n'
            b'{"k": "b", "v": {"n": [1.5, null], "nested": true}}\n')
        loaded = YokanStore.load(path)
        assert loaded.get("a") == "1"
        assert loaded.get("b") == {"nested": True, "n": [1.5, None]}


class TestWarabi:
    def test_create_read(self):
        store = WarabiStore()
        rid = store.create(b"hello world")
        assert store.read(rid) == b"hello world"
        assert store.size(rid) == 11

    def test_partial_read(self):
        store = WarabiStore()
        rid = store.create(b"0123456789")
        assert store.read(rid, offset=2, length=3) == b"234"
        assert store.read(rid, offset=8, length=100) == b"89"

    def test_bad_region(self):
        with pytest.raises(KeyError):
            WarabiStore().read(0)

    def test_bad_offset(self):
        store = WarabiStore()
        rid = store.create(b"abc")
        with pytest.raises(ValueError):
            store.read(rid, offset=10)

    def test_type_checked(self):
        with pytest.raises(TypeError):
            WarabiStore().create("not-bytes")

    def test_total_bytes(self):
        store = WarabiStore()
        store.create(b"aa")
        store.create(b"bbb")
        assert store.total_bytes == 5
        assert len(store) == 2

    def test_dump_load(self, tmp_path):
        store = WarabiStore()
        store.create(b"first")
        store.create(b"")
        store.create(b"\x00\x01binary")
        path = str(tmp_path / "blobs.warabi")
        store.dump(path)
        loaded = WarabiStore.load(path)
        assert loaded.read(0) == b"first"
        assert loaded.read(1) == b""
        assert loaded.read(2) == b"\x00\x01binary"
