"""Worker model: thread pool, data store, event loop, and GC behaviour.

A Dask worker "executes many tasks within the context of a single POSIX
process through the use of an independent thread for each task"
(§III-E3).  That sentence is the joint the paper's whole correlation
scheme hinges on, so the simulated worker reproduces it literally:

* each worker owns a pool of stable POSIX-thread IDs;
* a task claims a thread for its whole execution, and every I/O
  operation it performs is attributed to that thread ID — the same ID
  the (extended) Darshan DXT module records;
* dependency data living on other workers is fetched over the network
  model before execution, producing the incoming-communication records
  of Fig. 5 and Table I;
* a Tornado-style event loop ticks in the background, and a garbage-
  collection model whose pause rate grows with memory pressure produces
  the ``gc_collect`` and ``unresponsive_event_loop`` warnings of Fig. 7.
  Only a tick that lands in a GC pause can warn, so the loop sleeps
  while no pause is pending: the GC model wakes it when it draws one,
  and the loop resumes on the first tick of its replayed
  ``tick_interval`` grid at or after the draw.  The warnings keep the
  exact times and delays of a loop that ticked all along.
"""

from __future__ import annotations

from typing import Optional

from ..platform import Node
from ..sim import Environment, Interrupt, RandomStreams, Store
from .config import DaskConfig
from .records import (
    CommRecord,
    LogEntry,
    SpillRecord,
    TaskRun,
    WarningRecord,
)
from .states import make_transition_record
from .taskgraph import TaskSpec

__all__ = ["Worker", "PassthroughIO", "DataLostError"]


class DataLostError(RuntimeError):
    """A dependency replica vanished before it could be fetched.

    Raised by the gather path when every recorded holder of an input is
    dead or gone.  The scheduler treats it as a *reschedule* signal —
    recompute the input, re-run the task — rather than a task error, so
    it never consumes user retry budget (mirrors Dask's handling of
    ``gather_dep`` failures)."""


class PassthroughIO:
    """Uninstrumented I/O layer: forwards straight to the PFS.

    The Darshan runtime (:mod:`repro.darshan.runtime`) provides a
    drop-in replacement that records counters and DXT segments; this
    class defines the interface contract.
    """

    def __init__(self, pfs):
        self.pfs = pfs

    def io(self, path: str, op: str, offset: int, length: int,
           thread_id: int):
        record = yield self.pfs.env.process(
            self.pfs.io(path, op, offset, length)
        )
        return record


class Worker:
    """One simulated ``dask worker`` process."""

    def __init__(self, env: Environment, index: int, node: Node,
                 config: DaskConfig, streams: RandomStreams,
                 network, io_layer, nthreads: int = 8):
        self.env = env
        self.index = index
        self.node = node
        self.config = config
        self.streams = streams
        self.network = network
        self.io_layer = io_layer
        self.nthreads = nthreads

        # Address derivation: one fake IP per node, one port per worker.
        self.ip = f"10.{node.switch}.{int(node.name[3:]) % 250}.1"
        self.port = 40000 + index
        self.address = f"{self.ip}:{self.port}"
        self.name = f"worker-{index}"

        # Stable pthread IDs, one per executor thread (plus implicit
        # event-loop thread at slot 0 which never runs tasks).
        base = 0x7F0000000000 + index * 0x100000
        self.thread_ids = [base + 0x1000 * (slot + 1)
                           for slot in range(nthreads)]
        self.threads = Store(env)
        for tid in self.thread_ids:
            self.threads.put(tid)

        # Distributed memory: key -> nbytes.  Insertion order doubles as
        # LRU order for the spill policy (accesses re-append).
        self.data: dict[str, int] = {}
        self.managed_bytes = 0
        #: Results evicted to node-local scratch: key -> nbytes.
        self.spilled: dict[str, int] = {}
        self._spilling = False

        # Tasks queued for a thread (visible to the stealing balancer).
        self.ready: dict[str, "object"] = {}
        self.executing: set[str] = set()

        # Observations: the text log is kept; every record is handed
        # to the plugins and not kept here.
        self.logs: list[LogEntry] = []
        self.plugins: list = []

        self.scheduler = None  # attached by the scheduler
        #: Pass-by-reference data plane (see :mod:`repro.proxystore`);
        #: ``None`` keeps every byte on the classic peer-fetch path.
        self.proxy_store = None
        self._gc_until = 0.0
        #: What the sleeping tick loop waits on; ``None`` while it ticks.
        self._loop_wake = None
        #: The tick loop's process, which :meth:`close` ends.
        self._loop = None
        self._inflight_fetch: dict[str, object] = {}
        self._started = False
        self._closed = False
        #: Set by :meth:`fail`: the process died (crash/OOM/node loss).
        self.failed = False
        #: Heartbeats are suppressed (not sent) while ``env.now`` is
        #: below this mark — the fault injector's "blackout" fault: the
        #: process is alive but its control channel is, from the
        #: scheduler's point of view, indistinguishable from a crash.
        self.blackout_until = 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._loop = self.env.process(self._event_loop(),
                                      name=f"{self.name}-loop")
        self.env.process(self._gc_model(), name=f"{self.name}-gc")
        self.env.process(self._heartbeat(), name=f"{self.name}-heartbeat")
        self.log("INFO", f"Start worker at {self.address}, "
                         f"{self.nthreads} threads")

    def close(self) -> None:
        """Stop the background processes.

        The GC model and the heartbeat return at their next wake-up.
        The tick loop is ended where it waits: asleep until the GC
        model draws a pause, it would never wake again, and awake, it
        would only return.
        """
        self._closed = True
        if self._loop is not None:
            self._loop.end()

    def fail(self) -> None:
        """Simulate a worker-process crash: stop everything, lose data.

        The scheduler learns of the death through missed heartbeats (or
        an explicit :meth:`~repro.dasklike.scheduler.Scheduler.handle_worker_failure`
        call) and recovers: lost keys are recomputed, in-flight tasks
        reassigned.
        """
        self.failed = True
        self._closed = True
        self.data.clear()
        self.spilled.clear()
        self.managed_bytes = 0

    def _heartbeat(self):
        """Periodic liveness signal to the scheduler."""
        interval = self.config.heartbeat_interval
        while not self._closed:
            yield self.env.timeout(interval)
            if self._closed or self.failed or self.scheduler is None:
                return
            if self.env.now < self.blackout_until:
                continue
            self.scheduler.heartbeat(self)

    @property
    def memory_pressure(self) -> float:
        if self.config.memory_limit <= 0:
            return 0.0
        return min(1.0, self.managed_bytes / self.config.memory_limit)

    def log(self, level: str, message: str) -> None:
        self.logs.append(LogEntry(
            source=self.address, time=self.env.now,
            level=level, message=message,
        ))

    def _record_spill(self, key: str, nbytes: int, direction: str) -> None:
        record = SpillRecord(
            worker=self.address, hostname=self.node.name, key=key,
            nbytes=nbytes, time=self.env.now, direction=direction,
        )
        for plugin in self.plugins:
            plugin.spill_moved(record)

    # ------------------------------------------------------------------
    # background health processes
    # ------------------------------------------------------------------
    def _event_loop(self):
        """Tick loop: detects blocked-loop episodes like Tornado would.

        A tick is due every ``tick_interval`` after the previous one
        (or after the end of a stall).  A tick that finds no GC pause
        pending does nothing, so while none is pending the loop sleeps
        until :meth:`_gc_model` draws one, then replays the grid from
        its last tick to the first tick at or after the draw.  A tick
        at the very instant of the draw counts: the GC sampler's
        ``GC_SAMPLE_DT`` step is longer than ``tick_interval``, so its
        timer for that instant was always scheduled before the tick's.
        """
        env = self.env
        interval = self.config.tick_interval
        while not self._closed:
            expected = env.now + interval
            if self._gc_until > env.now:
                yield env.timeout(interval)
            else:
                # No tick can warn before the next pause: sleep until
                # the GC model draws one.
                self._loop_wake = wake = env.event()
                yield wake
                while expected < env.now:
                    expected += interval
                yield env.timeout_at(expected)
            if self._closed:
                # fail() landed while we were parked on the timeout;
                # a warning now would be attributed to a dead worker.
                return
            if self._gc_until > env.now:
                # The loop thread is stalled by a stop-the-world pause.
                stall_end = self._gc_until
                yield env.timeout(stall_end - env.now)
                if self._closed:
                    # Same: the worker died during the stall.
                    return
            delay = env.now - expected
            if delay > self.config.tick_warn_threshold:
                self._warn(
                    "unresponsive_event_loop", delay,
                    f"Event loop was unresponsive in Worker for {delay:.2f}s. "
                    "This is often caused by long-running GIL-holding "
                    "functions or moving large chunks of data.",
                )

    #: Sampling step of the GC hazard process, seconds.
    GC_SAMPLE_DT = 0.25

    def _gc_model(self):
        """Full-collection pauses at a rate driven by memory pressure.

        The pause hazard is re-evaluated every ``GC_SAMPLE_DT`` seconds
        (an inhomogeneous Poisson process via Bernoulli thinning), so
        short memory-pressure spikes — e.g. the window where oversized
        decoded partitions are resident — raise the collection rate
        immediately rather than after a long idle-rate gap.
        """
        cfg = self.config
        dt = self.GC_SAMPLE_DT
        while not self._closed:
            yield self.env.timeout(dt)
            if self._closed:
                # A pause sampled after close() would extend _gc_until
                # on a worker that no longer runs an event loop.
                return
            rate = cfg.gc_base_rate + cfg.gc_pressure_rate * (
                self.memory_pressure ** cfg.gc_pressure_exponent
            )
            if self.streams.uniform(f"gc.gap.{self.address}", 0.0, 1.0) \
                    >= min(1.0, rate * dt):
                continue
            pause = cfg.gc_pause_median * self.streams.lognormal_factor(
                f"gc.pause.{self.address}", cfg.gc_pause_sigma
            )
            self._gc_until = max(self._gc_until, self.env.now + pause)
            wake = self._loop_wake
            if wake is not None:
                self._loop_wake = None
                wake.succeed()
            self._warn(
                "gc_collect", pause,
                f"full garbage collection took {pause * 1e3:.0f}ms",
            )

    def _warn(self, kind: str, duration: float, message: str) -> None:
        record = WarningRecord(
            source=self.address, hostname=self.node.name, kind=kind,
            time=self.env.now, duration=duration, message=message,
        )
        self.log("WARNING", message)
        for plugin in self.plugins:
            plugin.warning(record)

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def _transition(self, spec: TaskSpec, start: str, finish: str,
                    stimulus: str) -> None:
        record = make_transition_record(
            spec.name, spec.group, spec.prefix, start, finish,
            self.env.now, stimulus, self.address, self.address,
        )
        for plugin in self.plugins:
            plugin.transition(record)

    # ------------------------------------------------------------------
    # dependency gathering
    # ------------------------------------------------------------------
    def _fetch_one(self, dep: str, sources: list, nbytes: int):
        """Process: pull one remote key from a peer worker.

        Never fails as a process — a fetch whose initiating task was
        released mid-gather may have no waiter left, and an unhandled
        process failure would crash the engine (and a *joined* waiter
        would see a phantom dependency-lost error for data that another
        attempt still delivers).  Instead it returns True when the key
        landed and False when it could not (every holder dead, or this
        worker died mid-transfer); callers detect the miss from
        ``self.data`` after their waits and raise their own
        :class:`DataLostError`.
        """
        candidates = list(sources)
        while True:
            live = [w for w in candidates if not w.failed]
            if not live and self.scheduler is not None:
                # The dispatch-time snapshot went stale while we were
                # transferring; consult the scheduler's *current*
                # replica map before giving up.
                dep_ts = self.scheduler.tasks.get(dep)
                if dep_ts is not None:
                    live = [w for w in dep_ts.who_has.values()
                            if not w.failed]
            if not live:
                return False
            local = [w for w in live if w.node.name == self.node.name]
            if local:
                src = local[0]
            else:
                src = self.streams.choice(f"fetch.{self.address}", live)
            start = self.env.now
            yield self.env.process(
                self.network.transfer(src.node, self.node, nbytes)
            )
            if self.failed:
                # The process died while this transfer was in flight:
                # the bytes evaporate with it — no record, no replica,
                # no ``managed_bytes`` (a dead worker's accounting was
                # zeroed by :meth:`fail` and must stay zero).
                return False
            if src.failed:
                # The *source* died mid-transfer: the stream was cut
                # and whatever arrived is garbage.  Drop the attempt —
                # no comm record, no accounting — and retry against the
                # remaining holders.
                candidates = [w for w in live if w is not src]
                continue
            record = CommRecord(
                key=dep,
                src_worker=src.address, dst_worker=self.address,
                src_host=src.node.name, dst_host=self.node.name,
                nbytes=nbytes, start=start, stop=self.env.now,
                same_node=src.node.name == self.node.name,
                same_switch=src.node.switch == self.node.switch,
            )
            for plugin in self.plugins:
                plugin.communication(record)
            self.data[dep] = nbytes
            self.managed_bytes += nbytes
            # The scheduler tracks replicas so it can free every copy
            # later.
            if self.scheduler is not None:
                self.scheduler.add_replica(self, dep)
            self.maybe_spill()
            return True

    def _gather(self, spec: TaskSpec, who_has: dict, sizes: dict):
        """Process: ensure every dependency of ``spec`` is local."""
        waits = []
        for dep_name in spec.dep_names:
            if dep_name in self.data:
                continue
            if dep_name in self.spilled:
                # Local but evicted: read it back from scratch.
                waits.append(self.env.process(
                    self.unspill(dep_name), name=f"unspill-{dep_name}"))
                continue
            if sizes.get(dep_name, 0) == 0:
                # Metadata-only results (e.g. collective-training round
                # markers) ride along on scheduler messages; no worker
                # data-channel transfer happens, so none is recorded.
                self.data[dep_name] = 0
                if self.scheduler is not None:
                    self.scheduler.add_replica(self, dep_name)
                continue
            inflight = self._inflight_fetch.get(dep_name)
            if inflight is None:
                if (self.proxy_store is not None
                        and self.proxy_store.has(dep_name)):
                    # Pass-by-reference input: resolve it through the
                    # data plane instead of the peer-fetch path.
                    inflight = self.env.process(
                        self._resolve_proxy(dep_name,
                                            sizes.get(dep_name, 0)),
                        name=f"resolve-{dep_name}",
                    )
                else:
                    # The who_has snapshot was taken at dispatch time;
                    # any of its holders may have died since.  Filter
                    # corpses, then fall back to the scheduler's
                    # *current* replica map (another copy may exist)
                    # before giving up.
                    sources = [w for w in who_has.get(dep_name, ())
                               if not w.failed]
                    if not sources and self.scheduler is not None:
                        dep_ts = self.scheduler.tasks.get(dep_name)
                        if dep_ts is not None:
                            sources = [w for w in dep_ts.who_has.values()
                                       if not w.failed]
                    if not sources:
                        raise DataLostError(
                            f"{self.address}: no live source for "
                            f"dependency {dep_name}"
                        )
                    inflight = self.env.process(
                        self._fetch_one(dep_name, sources,
                                        sizes[dep_name]),
                        name=f"fetch-{dep_name}",
                    )
                self._inflight_fetch[dep_name] = inflight

                def _cleanup(event, dep_name=dep_name):
                    self._inflight_fetch.pop(dep_name, None)

                inflight.callbacks.append(_cleanup)
            waits.append(inflight)
        if waits:
            yield self.env.all_of(waits)
            if self.failed:
                return
            # Fetch processes never fail (see :meth:`_fetch_one`); a
            # dependency they could not deliver is simply absent.  Each
            # waiter decides for itself, so a task released mid-gather
            # never poisons the others and a lost input surfaces as the
            # reschedulable data-lost signal.
            missing = [dep for dep in spec.dep_names
                       if dep not in self.data
                       and dep not in self.spilled]
            if missing:
                raise DataLostError(
                    f"{self.address}: dependencies lost in flight: "
                    f"{', '.join(sorted(missing))}"
                )
        else:
            yield self.env.timeout(0.0)

    def _resolve_proxy(self, dep: str, nbytes: int):
        """Process: materialise one proxied dependency via the store.

        Follows the same never-fail contract as :meth:`_fetch_one`: on
        an unresolvable blob it falls back to the classic peer-fetch
        path, and when that is empty too it returns False for the
        gather post-check to turn into :class:`DataLostError`.
        """
        from ..proxystore import ProxyResolveError
        store = self.proxy_store
        try:
            got = yield from store.resolve(dep, self)
        except ProxyResolveError:
            # The backend lost the blob (or its owner died): fall back
            # to whichever live peers still hold a replica.
            sources = []
            if self.scheduler is not None:
                dep_ts = self.scheduler.tasks.get(dep)
                if dep_ts is not None:
                    sources = [w for w in dep_ts.who_has.values()
                               if not w.failed]
            if not sources:
                return False
            return (yield from self._fetch_one(dep, sources, nbytes))
        if self.failed:
            # Died while resolving: the bytes evaporate unaccounted.
            return False
        self.data[dep] = got
        self.managed_bytes += got
        if self.scheduler is not None:
            self.scheduler.add_replica(self, dep)
        self.maybe_spill()
        return True

    # ------------------------------------------------------------------
    # task execution
    # ------------------------------------------------------------------
    def _queue_ready(self, name: str, get_event) -> None:
        """Add a task to the stealable queue, announcing empty -> non-
        empty flips so the scheduler's occupancy index tracks which
        workers are steal candidates without sweeping the pool."""
        was_empty = not self.ready
        self.ready[name] = get_event
        if was_empty and self.scheduler is not None:
            self.scheduler.worker_ready_changed(self, True)

    def _unqueue_ready(self, name: str) -> None:
        if self.ready.pop(name, None) is None:
            return
        if not self.ready and self.scheduler is not None:
            self.scheduler.worker_ready_changed(self, False)

    def compute_batch(self, entries) -> list:
        """Start one compute process per entry off a **single** dispatch
        event.

        ``entries`` yields ``(spec, who_has, sizes, graph_index)``
        tuples.  The engine's :meth:`Environment.process_batch` resumes
        every process from one ``Initialize`` event, so a worker drain
        of *n* co-dispatched tasks costs one engine event instead of
        *n* — the tasks still start in entry order, exactly as
        consecutive per-task spawns would have.  Returns the
        :class:`Process` objects in entry order.
        """
        return self.env.process_batch(
            (self.compute_task(spec, who_has, sizes, graph_index),
             f"compute-{spec.name}")
            for spec, who_has, sizes, graph_index in entries)

    def compute_task(self, spec: TaskSpec, who_has: dict, sizes: dict,
                     graph_index: int):
        """Process: the full worker-side life of one task.

        Returns True if the task ran to completion here, False if it was
        stolen while queued.
        """
        if self.failed:
            # Dispatched to a process that already died (the scheduler
            # has not detected the crash yet): refuse immediately so
            # the dispatch return path can recover, instead of playing
            # out a zombie execution that pollutes provenance records.
            yield self.env.timeout(0.0)
            return False
        self._transition(spec, "released", "waiting", "compute-task")
        has_remote = any(True for _ in spec.deps)
        if has_remote:
            self._transition(spec, "waiting", "fetch", "ensure-communicating")
            try:
                yield self.env.process(self._gather(spec, who_has, sizes))
            except Interrupt as exc:
                # Scheduler-side timeout fired while we were still
                # fetching inputs; in-flight fetches finish on their
                # own (and cache their result for any retry).
                self._transition(spec, "fetch", "released",
                                 str(exc.cause or "timeout"))
                return False
            except (OSError, ValueError, RuntimeError) as exc:
                if self.failed:
                    return False
                self._transition(spec, "fetch", "erred", "task-erred")
                self.log("ERROR",
                         f"Gather Failed. Key: {spec.name}, "
                         f"Exception: {type(exc).__name__}: {exc}")
                try:
                    yield self.env.timeout(self.config.control_latency)
                except Interrupt:
                    pass  # timeout raced the error report; report anyway
                self.scheduler.task_erred(self, spec.name, exc)
                return True
        self._transition(spec, "fetch" if has_remote else "waiting",
                         "ready", "all-deps-local")

        # Queue for an executor thread; the balancer may steal us here.
        get_event = self.threads.get()
        self._queue_ready(spec.name, get_event)
        try:
            thread_id = yield get_event
        except Interrupt as exc:
            # Stolen or timed out: withdraw our claim on the thread pool.
            self._unqueue_ready(spec.name)
            if get_event.triggered:
                self.threads.put(get_event.value)
            else:
                self.threads.cancel(get_event)
            self._transition(spec, "ready", "released",
                             str(exc.cause or "steal"))
            return False
        self._unqueue_ready(spec.name)

        self.executing.add(spec.name)
        self._transition(spec, "ready", "executing", "thread-granted")
        exec_start = self.env.now
        io_time = 0.0
        compute_time = 0.0
        # The task's result materialises incrementally while it runs, so
        # its memory is accounted from execution start — long decoding
        # tasks (read_parquet) pressure the worker for their whole span.
        self.managed_bytes += spec.output_nbytes
        materialised = False
        failure: Optional[BaseException] = None
        interrupted: Optional[str] = None
        try:
            # Per-task coordination overhead: deserialization, GIL,
            # executor hand-off.  Not computation, not I/O.
            overhead = self.config.task_overhead * \
                self.streams.lognormal_factor(
                    f"overhead.{self.address}",
                    self.config.task_overhead_sigma)
            if overhead > 0:
                yield self.env.timeout(overhead)
            for op in spec.reads:
                t0 = self.env.now
                yield from self.io_layer.io(op.path, "read", op.offset,
                                            op.length, thread_id)
                io_time += self.env.now - t0
            if spec.compute_time > 0:
                noise = self.streams.lognormal_factor(
                    f"compute.{self.address}", self.config.compute_noise_sigma
                )
                gc_drag = 1.0 + 0.3 * self.memory_pressure
                compute_time = (
                    spec.compute_time / self.node.speed * noise * gc_drag
                )
                yield self.env.timeout(compute_time)
            for op in spec.writes:
                t0 = self.env.now
                yield from self.io_layer.io(op.path, "write", op.offset,
                                            op.length, thread_id)
                io_time += self.env.now - t0
            materialised = True
        except (OSError, ValueError, RuntimeError) as exc:
            # User-code/IO failure: the task errs rather than crashing
            # the worker, as a raised exception inside a real Dask task
            # would.
            failure = exc
        except Interrupt as exc:
            # Scheduler-side per-task timeout: abandon the execution.
            # The finally block rolls back the result reservation and
            # returns the thread; the scheduler errs/retries the task.
            interrupted = str(exc.cause or "timeout")
        finally:
            if not materialised and not self.failed:
                # Roll back the result reservation — unless the worker
                # died meanwhile: :meth:`fail` already zeroed the
                # accounting, and subtracting again would leak a
                # negative balance into the corpse.
                self.managed_bytes -= spec.output_nbytes
            self.executing.discard(spec.name)
            self.threads.put(thread_id)

        if interrupted is not None:
            self._transition(spec, "executing", "released", interrupted)
            return False

        if self.failed:
            # The process died while this task ran: nothing to report;
            # the scheduler's failure handling re-dispatches the task.
            return False

        if failure is not None:
            self._transition(spec, "executing", "erred", "task-erred")
            self.log("ERROR",
                     f"Compute Failed. Key: {spec.name}, "
                     f"Exception: {type(failure).__name__}: {failure}")
            try:
                yield self.env.timeout(self.config.control_latency)
            except Interrupt:
                pass  # timeout raced the error report; report anyway
            self.scheduler.task_erred(self, spec.name, failure)
            return True

        # Memory was reserved at execution start; only register the key.
        self.data[spec.name] = spec.output_nbytes
        self._transition(spec, "executing", "memory", "task-finished")
        self.maybe_spill()

        run = TaskRun(
            key=spec.name, group=spec.group, prefix=spec.prefix,
            worker=self.address, hostname=self.node.name,
            thread_id=thread_id, start=exec_start, stop=self.env.now,
            output_nbytes=spec.output_nbytes, graph_index=graph_index,
            compute_time=compute_time,
            io_time=io_time,
            n_reads=len(spec.reads), n_writes=len(spec.writes),
        )
        for plugin in self.plugins:
            plugin.task_finished(run)

        if (self.proxy_store is not None
                and self.proxy_store.should_proxy(spec.output_nbytes)):
            # Stage the output into the data plane before announcing
            # completion, so every consumer the scheduler dispatches
            # next sees the proxy instead of a peer-transfer cost.
            yield from self.proxy_store.put(
                spec.name, spec.output_nbytes, self)
            if self.failed:
                return False

        # Report back to the scheduler after a control-plane hop.  A
        # timeout interrupt racing this hop loses: the work is done and
        # the result registered, so completion wins the race.
        try:
            yield self.env.timeout(self.config.control_latency)
        except Interrupt:
            pass
        self.scheduler.task_finished(self, spec.name, spec.output_nbytes,
                                     exec_start, self.env.now)
        return True

    # ------------------------------------------------------------------
    # memory management
    # ------------------------------------------------------------------
    def free_keys(self, keys) -> None:
        for key in keys:
            nbytes = self.data.pop(key, None)
            if nbytes is not None:
                self.managed_bytes -= nbytes
            self.spilled.pop(key, None)

    # -- spill-to-disk (distributed's memory.target behaviour) ----------
    def _spill_threshold(self) -> float:
        return self.config.memory_spill_fraction * self.config.memory_limit

    def maybe_spill(self) -> None:
        """Kick the spill process if memory crossed the target."""
        if (self.config.memory_spill_fraction <= 0
                or self._spilling or self._closed):
            return
        if self.managed_bytes <= self._spill_threshold():
            return
        self._spilling = True
        self.env.process(self._spill_loop(), name=f"{self.name}-spill")

    def _spill_loop(self):
        """Evict LRU results to local scratch until below the low mark."""
        low = self.config.memory_spill_low * self.config.memory_limit
        try:
            while (self.managed_bytes > low and self.data
                   and not self._closed):
                # Oldest inserted = least recently used; skip results of
                # currently executing tasks (still materialising).
                key = next((k for k in self.data
                            if k not in self.executing), None)
                if key is None:
                    return
                nbytes = self.data.pop(key)
                self.managed_bytes -= nbytes
                # The in-flight eviction must complete even if close()
                # lands during the scratch write: the bytes already left
                # memory, and the while-test re-reads every guard before
                # the next round.
                # repro: allow[conc-stale-loop-guard]
                yield self.env.timeout(
                    nbytes / self.config.spill_bandwidth)
                if self.failed:
                    return
                self.spilled[key] = nbytes
                self._record_spill(key, nbytes, "spill")
        finally:
            self._spilling = False

    def unspill(self, key: str):
        """Process: read one result back from scratch into memory."""
        nbytes = self.spilled.pop(key, None)
        if nbytes is None:
            yield self.env.timeout(0.0)
            return
        yield self.env.timeout(nbytes / self.config.spill_bandwidth)
        if self.failed:
            # Crashed during the scratch read: registering the bytes
            # now would resurrect data (and accounting) on a corpse.
            return
        self.data[key] = nbytes
        self.managed_bytes += nbytes
        self._record_spill(key, nbytes, "unspill")
        self.maybe_spill()

    def describe(self) -> dict:
        """Metadata for the application-layer provenance records."""
        return {
            "address": self.address,
            "name": self.name,
            "hostname": self.node.name,
            "nthreads": self.nthreads,
            "thread_ids": list(self.thread_ids),
            "memory_limit": self.config.memory_limit,
        }
