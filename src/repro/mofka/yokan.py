"""Yokan: the Mochi key/value microservice.

Mofka "uses the following reusable Mochi microservices: Yokan to store
key/value data, Warabi to store raw (blob) data, Bedrock for deployment
and bootstrapping, and SSG for group membership and fault detection"
(§III-B).  This is the key/value component: an ordered map with prefix
scans, used by the broker to index partition offsets and topic
metadata, with optional JSON-lines persistence.

Keys are strings and values are JSON values, held as the Python objects
``json`` maps them to.  A persisted store is one line per key, in key
order, spelled exactly as ``json.dumps({"k": key, "v": value},
sort_keys=True)``: a value is encoded once, as part of its line, not
first to a string that the line then escapes.  The codec works on the
whole file at once: :meth:`YokanStore.dump` writes every line in one
``write`` and :meth:`YokanStore.load` parses every line with one
``json.loads``, so a partition of thousands of events pays no
``json.dumps`` or ``json.loads`` call per line.
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii
from typing import Iterator, Optional

__all__ = ["YokanStore"]

#: The encoder of every value.  ``json.dumps(value, sort_keys=True)``
#: builds a new ``JSONEncoder`` on every call; this one is built once
#: and holds no per-call state.
_SORTED_ENCODER = json.JSONEncoder(sort_keys=True)


class YokanStore:
    """An ordered string-keyed store of JSON values, with prefix
    iteration.  A value is kept as given, not copied."""

    def __init__(self, name: str = "yokan"):
        self.name = name
        self._data: dict[str, object] = {}

    def put(self, key: str, value: object) -> None:
        if not isinstance(key, str):
            raise TypeError("Yokan keys are strings")
        self._data[key] = value

    def get(self, key: str) -> object:
        try:
            return self._data[key]
        except KeyError:
            raise KeyError(f"yokan: no such key {key!r}") from None

    def exists(self, key: str) -> bool:
        return key in self._data

    def erase(self, key: str) -> None:
        self._data.pop(key, None)

    def __len__(self) -> int:
        return len(self._data)

    def list_keys(self, prefix: str = "") -> list[str]:
        return sorted(k for k in self._data if k.startswith(prefix))

    def iter_prefix(self, prefix: str = "") -> Iterator[tuple[str, object]]:
        for key in self.list_keys(prefix):
            yield key, self._data[key]

    # -- persistence ---------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write one ``{"k": ..., "v": ...}`` line per key, in key order.

        Each line is spelled by hand: the key with
        ``encode_basestring_ascii``, the function ``json.dumps`` itself
        uses for a ``str``, and the value with the sorted encoder.  The
        bytes are those of ``json.dumps({"k": key, "v": value},
        sort_keys=True)``, whose two top-level keys already sort.
        """
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        data = self._data
        encode = _SORTED_ENCODER.encode
        text = "".join([
            '{"k": ' + encode_basestring_ascii(key) + ', "v": '
            + encode(data[key]) + '}\n'
            for key in self.list_keys()
        ])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    @classmethod
    def load(cls, path: str, name: str = "yokan") -> "YokanStore":
        """Parse a file :meth:`dump` wrote, with one ``json.loads``.

        The lines are split on the ``"\\n"`` the writer emits and
        parsed as the items of one JSON array.  ``str.splitlines`` would
        be wrong here: it also splits on ``\\x1c``-``\\x1e``, ``\\x85``
        and U+2028/U+2029.
        """
        store = cls(name)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        if not lines[-1]:
            lines.pop()
        rows = json.loads("[" + ",".join(lines) + "]")
        store._data = {row["k"]: row["v"] for row in rows}
        return store
