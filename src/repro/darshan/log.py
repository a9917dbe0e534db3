"""Darshan log files: writer and reader.

One log per instrumented process (per Dask worker here), as Darshan
produces one log per MPI process/application.  The on-disk format is
compressed JSON — not Darshan's binary format, but carrying the same
record structure: a job header, POSIX per-file counter records, and
DXT trace segments (with the pthread-ID extension), plus the
truncation flag from the bounded DXT buffer.
"""

from __future__ import annotations

import gzip
import io
import json
import os
from dataclasses import dataclass, field
from typing import Optional

from .dxt import DXTModule, DXTSegment
from .heatmap import HeatmapModule
from .posix import PosixCounters

__all__ = ["DarshanLog", "write_log", "read_log"]


@dataclass
class DarshanLog:
    """In-memory form of one per-process characterization log."""

    jobid: str
    rank: int
    hostname: str
    exe: str
    start_time: float
    end_time: float
    posix_records: list[PosixCounters] = field(default_factory=list)
    dxt_segments: list[DXTSegment] = field(default_factory=list)
    dxt_truncated: bool = False
    dxt_dropped: int = 0
    heatmap: Optional[HeatmapModule] = None
    metadata: dict = field(default_factory=dict)

    @property
    def total_io_ops(self) -> int:
        return sum(r.reads + r.writes for r in self.posix_records)

    @property
    def total_bytes(self) -> int:
        return sum(r.bytes_read + r.bytes_written
                   for r in self.posix_records)

    @property
    def total_io_time(self) -> float:
        return sum(r.read_time + r.write_time for r in self.posix_records)

    def files(self) -> list[str]:
        return sorted(r.path for r in self.posix_records)

    def to_dict(self) -> dict:
        return {
            "header": {
                "version": "3.4.x+taskprov",
                "jobid": self.jobid,
                "rank": self.rank,
                "hostname": self.hostname,
                "exe": self.exe,
                "start_time": self.start_time,
                "end_time": self.end_time,
                "metadata": self.metadata,
            },
            "posix": [r.to_dict() for r in self.posix_records],
            "dxt": {
                "truncated": self.dxt_truncated,
                "dropped": self.dxt_dropped,
                "segments": [s.to_dict() for s in self.dxt_segments],
            },
            "heatmap": self.heatmap.to_dict()
            if self.heatmap is not None else None,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "DarshanLog":
        header = raw["header"]
        return cls(
            jobid=header["jobid"], rank=header["rank"],
            hostname=header["hostname"], exe=header["exe"],
            start_time=header["start_time"], end_time=header["end_time"],
            metadata=header.get("metadata", {}),
            posix_records=[
                PosixCounters.from_dict(r) for r in raw["posix"]
            ],
            dxt_segments=[
                DXTSegment.from_dict(s) for s in raw["dxt"]["segments"]
            ],
            dxt_truncated=raw["dxt"]["truncated"],
            dxt_dropped=raw["dxt"]["dropped"],
            heatmap=HeatmapModule.from_dict(raw["heatmap"])
            if raw.get("heatmap") else None,
        )


def write_log(log: DarshanLog, path: str) -> str:
    """Write one log as gzipped JSON; returns the path written.

    The gzip header's modification time is pinned to 0 (``gzip.open``
    would stamp the wall clock), so the same log always writes the
    same bytes.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with gzip.GzipFile(path, "wb", mtime=0) as raw, \
            io.TextIOWrapper(raw, encoding="utf-8") as fh:
        json.dump(log.to_dict(), fh)
    return path


def read_log(path: str) -> DarshanLog:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return DarshanLog.from_dict(json.load(fh))
