"""Warabi: the Mochi blob-storage microservice.

Stores raw byte payloads under opaque region IDs (the data portion of
Mofka events lands here; metadata goes to Yokan).  Supports partial
reads, which is how consumers fetch only the payloads they need.

A persisted store is one frame per region, in region order: the blob's
size as 8 little-endian bytes, then the blob.  :meth:`WarabiStore.dump`
writes all frames in one ``write``; :meth:`WarabiStore.load` reads the
file once, slices the frames from memory and rejects a file whose last
frame is cut short.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["WarabiStore"]


class WarabiStore:
    """An append-only blob store addressed by integer region IDs."""

    def __init__(self, name: str = "warabi"):
        self.name = name
        self._blobs: list[bytes] = []

    def create(self, data: bytes) -> int:
        """Store a blob; returns its region ID."""
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError("Warabi stores bytes")
        self._blobs.append(bytes(data))
        return len(self._blobs) - 1

    def read(self, region_id: int, offset: int = 0,
             length: Optional[int] = None) -> bytes:
        try:
            blob = self._blobs[region_id]
        except IndexError:
            raise KeyError(f"warabi: no region {region_id}") from None
        if offset < 0 or offset > len(blob):
            raise ValueError("offset out of range")
        end = len(blob) if length is None else min(len(blob), offset + length)
        return blob[offset:end]

    def size(self, region_id: int) -> int:
        return len(self._blobs[region_id])

    def __len__(self) -> int:
        return len(self._blobs)

    @property
    def total_bytes(self) -> int:
        return sum(len(b) for b in self._blobs)

    # -- persistence ---------------------------------------------------------
    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        frames = []
        for blob in self._blobs:
            frames.append(len(blob).to_bytes(8, "little"))
            frames.append(blob)
        with open(path, "wb") as fh:
            fh.write(b"".join(frames))

    @classmethod
    def load(cls, path: str, name: str = "warabi") -> "WarabiStore":
        """Reload a file :meth:`dump` wrote.

        Raises :class:`ValueError` naming the path and the byte offset
        when the file ends inside a frame's 8-byte header or its blob.
        """
        store = cls(name)
        with open(path, "rb") as fh:
            raw = fh.read()
        pos, end = 0, len(raw)
        while pos < end:
            if end - pos < 8:
                raise ValueError(
                    f"{path}: truncated Warabi header at byte {pos}: "
                    f"{end - pos} of 8 bytes")
            size = int.from_bytes(raw[pos:pos + 8], "little")
            start, pos = pos + 8, pos + 8 + size
            if pos > end:
                raise ValueError(
                    f"{path}: truncated Warabi blob at byte {start}: "
                    f"{end - start} of {size} bytes")
            store._blobs.append(raw[start:pos])
        return store
