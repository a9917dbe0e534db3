"""Darshan runtime: the per-process instrumentation layer.

"We instrument each worker with our modified version of Darshan in
order to incorporate I/O instrumentation into our provenance data"
(§III-E3).  A :class:`DarshanRuntime` wraps the parallel-file-system
data path of one worker process: it satisfies the worker's I/O-layer
contract (``io(path, op, offset, length, thread_id)``), forwards each
operation to the PFS model, and records POSIX counters plus a DXT
segment carrying the calling pthread ID.

Data is collected "separately and then fuse[d] ... at analysis time to
avoid cross-component communication overhead" (§III-E3): the runtime
holds everything in memory and :meth:`finalize` emits a standalone
Darshan log at shutdown, exactly like the real tool.
"""

from __future__ import annotations

from typing import Optional

from ..platform import ParallelFileSystem
from .dxt import DEFAULT_BUFFER_LIMIT, DXTModule, DXTSegment
from .heatmap import HeatmapModule
from .log import DarshanLog
from .posix import PosixCounters

__all__ = ["DarshanRuntime"]


class DarshanRuntime:
    """Instrumented I/O layer for one worker process."""

    def __init__(self, pfs: ParallelFileSystem, jobid: str, rank: int,
                 hostname: str, exe: str = "dask-worker",
                 dxt_buffer_limit: int = DEFAULT_BUFFER_LIMIT,
                 dxt_enabled: bool = True,
                 dxt_module: Optional[DXTModule] = None,
                 segment_callback=None):
        self.pfs = pfs
        self.jobid = jobid
        self.rank = rank
        self.hostname = hostname
        self.exe = exe
        self.dxt_enabled = dxt_enabled
        self.start_time = pfs.env.now
        self._posix: dict[str, PosixCounters] = {}
        self._dxt = dxt_module if dxt_module is not None \
            else DXTModule(dxt_buffer_limit)
        #: Optional online hook: called with every recorded segment.
        #: The paper's future work ("capturing Darshan records and
        #: pushing them to Mofka at runtime to have a fully online
        #: system", §VI) plugs a Mofka producer in here.
        self.segment_callback = segment_callback
        self._heatmap = HeatmapModule()
        self._seen_paths: set[str] = set()
        self._finalized: Optional[DarshanLog] = None

    # -- the instrumented data path ------------------------------------
    def io(self, path: str, op: str, offset: int, length: int,
           thread_id: int):
        """Simulation process: forward to the PFS and record everything."""
        record = yield self.pfs.env.process(
            self.pfs.io(path, op, offset, length)
        )
        counters = self._posix.get(path)
        if counters is None:
            counters = PosixCounters(path=path)
            counters.record_open()
            self._posix[path] = counters
        counters.record(record.op, record.offset, record.length,
                        record.start, record.stop)
        self._heatmap.record(record.op, record.length, record.start,
                             record.stop)
        if self.dxt_enabled:
            segment = DXTSegment(
                path=path, op=record.op, offset=record.offset,
                length=record.length, start=record.start, end=record.stop,
                pthread_id=thread_id,
            )
            stored = self._dxt.record(segment)
            if stored and self.segment_callback is not None:
                self.segment_callback(self, segment)
        return record

    # -- introspection ----------------------------------------------------
    @property
    def dxt_truncated(self) -> bool:
        return self._dxt.truncated

    def live_stats(self) -> dict:
        """Mid-run capture state (telemetry probe; no finalization)."""
        return {
            "posix_records": len(self._posix),
            "dxt_segments": len(self._dxt.segments),
            "dxt_truncated": self._dxt.truncated,
        }

    # -- shutdown ------------------------------------------------------------
    def finalize(self) -> DarshanLog:
        """Produce the per-process log (idempotent)."""
        if self._finalized is None:
            self._finalized = DarshanLog(
                jobid=self.jobid, rank=self.rank, hostname=self.hostname,
                exe=self.exe, start_time=self.start_time,
                end_time=self.pfs.env.now,
                posix_records=list(self._posix.values()),
                dxt_segments=list(self._dxt.segments),
                dxt_truncated=self._dxt.truncated,
                dxt_dropped=self._dxt.dropped,
                heatmap=self._heatmap,
                metadata={"dxt_buffer_limit": self._dxt.buffer_limit},
            )
        return self._finalized
