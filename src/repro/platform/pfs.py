"""Parallel-file-system model (Lustre-like).

The paper's evaluation platform exposes a Lustre file system (HPE
ClusterStor E1000, 100 PB, 650 GB/s aggregate) and repeatedly names I/O
as "a prominent source of performance variability at scale" (§III-C).
This module reproduces the behavioural ingredients behind that claim:

* files are striped over object storage targets (OSTs) in fixed-size
  stripes, so a single large read fans out into per-OST requests;
* each OST has a bounded number of service slots — concurrent requests
  queue FIFO, creating the bursty-synchronisation sensitivity the paper
  observes for the ImageProcessing workflow (three task graphs executed
  in sequence produce bursts of simultaneous I/O);
* a background *interference* process varies each OST's effective speed
  over time, modelling other jobs sharing the file system.

All operations return :class:`IORecord` values carrying the fields that
the (modified) Darshan DXT module records: op type, offset, length,
start/stop timestamps.  Thread attribution is added by the Darshan
runtime wrapper, not here, mirroring the layering of the real stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim import Environment, Event, RandomStreams, Resource

__all__ = ["PFSSpec", "FileMeta", "IORecord", "ParallelFileSystem"]


@dataclass(frozen=True)
class PFSSpec:
    """Tunable constants of the file-system model."""

    #: Number of object storage targets.
    num_osts: int = 16
    #: Per-OST streaming bandwidth, bytes/second.
    ost_bandwidth: float = 2.0e9
    #: Per-request fixed overhead (RPC + seek), seconds.
    request_latency: float = 0.6e-3
    #: Concurrent requests served by one OST before queueing.
    ost_service_slots: int = 4
    #: Default stripe size, bytes (Lustre default is 1 MiB; Polaris
    #: project filesystems commonly use larger stripes).
    stripe_size: int = 1 * 2**20
    #: Default stripe count for new files.
    default_stripe_count: int = 4
    #: Sigma of log-normal jitter per OST request.
    jitter_sigma: float = 0.15
    #: Interference random-walk parameters: the load factor of each OST
    #: wanders in [1, max_interference] with steps every ``interval`` s.
    max_interference: float = 4.0
    interference_interval: float = 5.0
    interference_step: float = 0.35


@dataclass(frozen=True)
class FileMeta:
    """Layout metadata of one file (what ``lfs getstripe`` would show)."""

    path: str
    size: int
    stripe_size: int
    stripe_count: int
    osts: tuple[int, ...]


@dataclass
class IORecord:
    """One POSIX-level I/O operation, as DXT would trace it."""

    path: str
    op: str  # "read" | "write"
    offset: int
    length: int
    start: float
    stop: float

    @property
    def duration(self) -> float:
        return self.stop - self.start


class _ExtentService(Event):
    """One stripe extent served by one OST; fires once it is served.

    A chain of engine callbacks rather than a process: the constructor
    requests an OST service slot, the grant draws the request's jitter
    and schedules its service time, and the end of that time releases
    the slot and fires this event.  Each step runs where a process
    doing the same in a generator would have run it (see
    ``docs/simulation.md``), minus the process's start and finish
    events.
    """

    __slots__ = ("pfs", "ost_index", "nbytes", "slot")

    def __init__(self, pfs: "ParallelFileSystem", ost_index: int,
                 nbytes: int):
        super().__init__(pfs.env)
        self.pfs = pfs
        self.ost_index = ost_index
        self.nbytes = nbytes
        self.slot = pfs._osts[ost_index].request()
        self.slot.callbacks.append(self._granted)

    def _granted(self, _slot: Event) -> None:
        pfs, ost_index = self.pfs, self.ost_index
        spec = pfs.spec
        jitter = pfs.streams.lognormal_factor(
            f"pfs.jitter.{ost_index}", spec.jitter_sigma)
        slowdown = pfs._interference[ost_index]
        if self.env.now < pfs._fault_until[ost_index]:
            slowdown *= pfs._fault_factor[ost_index]
        service = (spec.request_latency
                   + self.nbytes / spec.ost_bandwidth * slowdown) * jitter
        self.env.timeout(service).callbacks.append(self._served)

    def _served(self, _timeout: Event) -> None:
        self.pfs._osts[self.ost_index].release(self.slot)
        self.succeed()


class ParallelFileSystem:
    """Striped, contended file-system model."""

    def __init__(self, env: Environment, spec: PFSSpec | None = None,
                 streams: RandomStreams | None = None, name: str = "lustre0"):
        self.env = env
        self.spec = spec or PFSSpec()
        self.streams = streams or RandomStreams()
        self.name = name
        self._osts = [
            Resource(env, capacity=self.spec.ost_service_slots)
            for _ in range(self.spec.num_osts)
        ]
        self._interference = [1.0] * self.spec.num_osts
        self._files: dict[str, FileMeta] = {}
        self._next_ost = 0
        self._interference_started = False
        # Fault-injection state (see repro.faults): per-OST slowdown
        # factor active while env.now < the matching deadline.  The
        # inactive default (deadline 0.0) keeps the healthy service-time
        # arithmetic bit-for-bit unchanged.
        self._fault_factor = [1.0] * self.spec.num_osts
        self._fault_until = [0.0] * self.spec.num_osts

    # -- fault injection ----------------------------------------------------
    def inject_ost_slowdown(self, ost_index: int, factor: float,
                            until: float) -> None:
        """Requests served by OST ``ost_index`` before ``until`` take
        ``factor×`` longer (a degraded/rebuilding storage target)."""
        self._fault_factor[ost_index] = factor
        self._fault_until[ost_index] = max(
            self._fault_until[ost_index], until)

    # -- interference ------------------------------------------------------
    def start_interference(self) -> None:
        """Launch the background load random walk (idempotent)."""
        if self._interference_started:
            return
        self._interference_started = True
        self.env.process(self._interference_walk(), name="pfs-interference")

    def _interference_walk(self):
        spec = self.spec
        while True:
            yield self.env.timeout(spec.interference_interval)
            for i in range(spec.num_osts):
                step = self.streams.uniform(
                    f"pfs.noise.{i}", -spec.interference_step, spec.interference_step
                )
                level = self._interference[i] + step
                self._interference[i] = min(spec.max_interference, max(1.0, level))

    # -- namespace ----------------------------------------------------------
    def create_file(self, path: str, size: int,
                    stripe_count: int | None = None) -> FileMeta:
        """Create (or replace) a file with round-robin OST assignment."""
        if size < 0:
            raise ValueError("size must be non-negative")
        count = min(
            stripe_count or self.spec.default_stripe_count, self.spec.num_osts
        )
        osts = tuple(
            (self._next_ost + k) % self.spec.num_osts for k in range(count)
        )
        self._next_ost = (self._next_ost + count) % self.spec.num_osts
        meta = FileMeta(
            path=path,
            size=size,
            stripe_size=self.spec.stripe_size,
            stripe_count=count,
            osts=osts,
        )
        self._files[path] = meta
        return meta

    def stat(self, path: str) -> FileMeta:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundError(path) from None

    def exists(self, path: str) -> bool:
        return path in self._files

    def unlink(self, path: str) -> None:
        """Remove a file from the namespace (idempotent, instantaneous)."""
        self._files.pop(path, None)

    def files(self) -> list[FileMeta]:
        return list(self._files.values())

    # -- data path -----------------------------------------------------------
    def _ost_for(self, meta: FileMeta, offset: int) -> int:
        stripe_index = offset // meta.stripe_size
        return meta.osts[stripe_index % meta.stripe_count]

    def _stripe_extents(self, meta: FileMeta, offset: int, length: int):
        """Split [offset, offset+length) into (ost, nbytes) pieces."""
        end = offset + length
        pos = offset
        while pos < end:
            stripe_end = (pos // meta.stripe_size + 1) * meta.stripe_size
            chunk = min(end, stripe_end) - pos
            yield self._ost_for(meta, pos), chunk
            pos += chunk

    def io(self, path: str, op: str, offset: int, length: int):
        """Process: one POSIX read/write; returns an :class:`IORecord`.

        A write beyond the current end of file extends it, as POSIX does.
        Reads beyond EOF are truncated to the file size (short read).
        """
        if op not in ("read", "write"):
            raise ValueError(f"op must be 'read' or 'write', got {op!r}")
        if offset < 0 or length < 0:
            raise ValueError("offset/length must be non-negative")
        meta = self.stat(path)
        if op == "read":
            length = max(0, min(length, meta.size - offset))
        start = self.env.now
        if length > 0:
            yield self.env.all_of([
                _ExtentService(self, ost, nbytes)
                for ost, nbytes in self._stripe_extents(meta, offset, length)
            ])
        else:
            # Zero-byte ops still pay the RPC round trip.
            yield self.env.timeout(self.spec.request_latency)
        if op == "write" and offset + length > meta.size:
            self._files[path] = FileMeta(
                path=meta.path,
                size=offset + length,
                stripe_size=meta.stripe_size,
                stripe_count=meta.stripe_count,
                osts=meta.osts,
            )
        return IORecord(
            path=path, op=op, offset=offset, length=length,
            start=start, stop=self.env.now,
        )

    # -- introspection (telemetry probes) ----------------------------------
    def ost_queue_depths(self) -> list[int]:
        """Requests waiting (not yet served) per OST, by OST index."""
        return [len(ost.queue) for ost in self._osts]

    def ost_busy(self) -> list[int]:
        """Service slots currently in use per OST, by OST index."""
        return [ost.count for ost in self._osts]

    def interference_levels(self) -> list[float]:
        """Current external-load slowdown factor per OST."""
        return list(self._interference)

    def describe(self) -> dict:
        """Metadata record for the provenance hardware layer (Fig. 1)."""
        return {
            "name": self.name,
            "num_osts": self.spec.num_osts,
            "ost_bandwidth": self.spec.ost_bandwidth,
            "stripe_size": self.spec.stripe_size,
            "aggregate_bandwidth": self.spec.num_osts * self.spec.ost_bandwidth,
        }
