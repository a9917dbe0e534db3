"""Scheduler model: dynamic task placement and state tracking.

Mirrors the behaviourally relevant parts of ``distributed.scheduler``:

* a per-task state machine (``released → waiting → processing → memory``)
  whose every transition is timestamped, attributed to a stimulus, and
  offered to scheduler plugins — the hook the paper's Mofka plugin uses;
* dynamic worker selection combining *occupancy* (estimated queued work,
  learned per task prefix from observed durations, as Dask does) with a
  *data-locality* term (bytes of dependencies that would have to move);
* reference-counted memory release, so long workflows (XGBoost submits
  74 task graphs) do not accumulate distributed memory;
* support for cross-graph dependencies: a later graph may consume keys
  kept in memory by an earlier submission.

Scheduling decisions here are deliberately *greedy and dynamic*: tasks
are assigned when they become ready, based on the cluster state at that
instant.  Because that state depends on noisy completion times, the
task→worker mapping differs run to run — the paper's central source of
"performance unpredictability" (§V).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..platform import Node
from ..sim import Environment, RandomStreams
from .config import DaskConfig
from .records import LogEntry
from .scheduler_state import OccupancyIndex
from .states import (
    ACTIVE_SCHEDULER_STATES,
    SCHEDULER_TRANSITIONS,
    key_str,
    make_transition_record,
    validate_transition,
)
from .taskgraph import TaskGraph, TaskSpec
from .worker import DataLostError, Worker

__all__ = ["Scheduler", "SchedulerTaskState"]

#: Dask's default duration guess for never-seen task prefixes (seconds).
DEFAULT_DURATION_GUESS = 0.5


@dataclass
class SchedulerTaskState:
    """Scheduler-side bookkeeping for one task."""

    spec: TaskSpec
    state: str = "released"
    graph_index: int = 0
    #: Creation order across all graphs.  Failure recovery collects
    #: affected tasks from per-worker reverse indexes and re-sorts by
    #: this, reproducing the submission-order iteration the old
    #: all-tasks scan provided for free.
    seq: int = 0
    processing_on: Optional[Worker] = None
    #: Workers holding (a replica of) this task's output, keyed by
    #: address.  A dict, not a set: iteration order must be insertion
    #: order so scheduling tie-breaks are reproducible run to run.
    who_has: dict = field(default_factory=dict)        # address -> Worker
    waiting_on: set = field(default_factory=set)       # dep names
    dependents: set = field(default_factory=set)       # dependent names
    remaining_dependents: int = 0
    wanted: bool = False
    nbytes: int = 0
    #: Process handle of the in-flight worker-side execution (stealable).
    worker_process: Optional[object] = None
    #: Handle of the worker-side compute process (what stealing interrupts).
    compute_process: Optional[object] = None
    #: Exact amount this task added to its worker's occupancy estimate.
    occupancy_contrib: float = 0.0
    #: Failed attempts so far (drives the exponential backoff).
    retry_count: int = 0
    #: Remaining retry budget; ``None`` until the first failure, when it
    #: is seeded from the task spec or the config default.
    retries_left: Optional[int] = None
    #: True while a backoff timer owns the task (state ``released``);
    #: failure recovery must leave it to the timer.
    retry_pending: bool = False

    @property
    def name(self) -> str:
        return self.spec.name


class Scheduler:
    """The ``dask scheduler`` process of the simulated cluster."""

    def __init__(self, env: Environment, node: Node, config: DaskConfig,
                 streams: RandomStreams):
        self.env = env
        self.node = node
        self.config = config
        self.streams = streams
        self.address = f"10.{node.switch}.{int(node.name[3:]) % 250}.1:8786"

        self.workers: dict[str, Worker] = {}
        self.tasks: dict[str, SchedulerTaskState] = {}
        self.occupancy: dict[str, float] = {}
        #: Running sum of ``occupancy`` values, maintained incrementally
        #: so decide_worker's mean-occupancy check is O(1) per
        #: transition instead of an O(workers) scan.  Resynced exactly
        #: against the per-worker values on every membership change,
        #: bounding float drift over millions of incremental updates.
        self._occupancy_total = 0.0
        #: Occupancy-ordered worker index (shares the ``occupancy``
        #: mapping): least-occupied placement candidates and busiest
        #: stealing victims in O(log workers) per query instead of the
        #: per-transition pool sweep / sort.
        self.occupancy_index = OccupancyIndex(self.occupancy)
        #: Reverse indexes per worker address, so failure recovery is
        #: O(tasks touching the dead worker) rather than O(every task
        #: ever submitted): output keys the worker holds a replica of,
        #: and keys currently processing on it.  Inner dicts are
        #: ordered sets (values unused).
        self._has_what: dict[str, dict[str, None]] = {}
        self._worker_processing: dict[str, dict[str, None]] = {}
        #: Tasks not yet settled (state in ACTIVE_SCHEDULER_STATES),
        #: maintained by ``_transition``; the all-workers-lost
        #: degradation sweep iterates this instead of ``tasks``.
        self._unfinished: dict[str, SchedulerTaskState] = {}
        self._duration_ema: dict[str, float] = {}
        self._n_graphs = 0
        #: Pass-by-reference data plane (see :mod:`repro.proxystore`);
        #: ``None`` keeps placement and release on the classic
        #: scheduler transfer model.
        self.proxy_store = None

        #: Only the text log is kept: every transition and steal record
        #: is handed to ``plugins`` and not kept here.
        self.logs: list[LogEntry] = []
        self.plugins: list = []

        #: Events fired when a wanted key reaches memory (client waits).
        self._wanted_events: dict[str, object] = {}
        self._last_heartbeat: dict[str, float] = {}
        self._monitoring = False

        self.log("INFO", f"Scheduler at: tcp://{self.address}")

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_worker(self, worker: Worker) -> None:
        self.workers[worker.address] = worker
        self.occupancy[worker.address] = 0.0
        # Membership changes are the designated resync points for the
        # incremental total: recompute it exactly so per-update float
        # error can never accumulate across membership epochs.
        self._occupancy_total = sum(self.occupancy.values())
        # Registration counts as the first liveness signal, so a worker
        # that dies before ever heartbeating is still detected.
        self._last_heartbeat[worker.address] = self.env.now
        self._has_what[worker.address] = {}
        self._worker_processing[worker.address] = {}
        self.occupancy_index.add(worker.address, worker)
        worker.scheduler = self
        self.log("INFO", f"Register worker <WorkerState '{worker.address}', "
                         f"name: {worker.name}, status: running>")

    def remove_worker(self, worker: Worker) -> None:
        self.workers.pop(worker.address, None)
        self.occupancy.pop(worker.address, None)
        self._occupancy_total = sum(self.occupancy.values())
        self._last_heartbeat.pop(worker.address, None)
        self._has_what.pop(worker.address, None)
        self._worker_processing.pop(worker.address, None)
        self.occupancy_index.remove(worker.address)
        self.log("INFO", f"Remove worker {worker.address}")

    def _adjust_occupancy(self, address: str, delta: float) -> None:
        """Apply a clamped occupancy delta, keeping the running total
        consistent with the per-worker values."""
        old = self.occupancy[address]
        new = max(0.0, old + delta)
        self.occupancy[address] = new
        self._occupancy_total += new - old
        self.occupancy_index.update(address, new)

    def worker_ready_changed(self, worker: Worker, has_ready: bool) -> None:
        """A worker's stealable queue flipped empty <-> non-empty; keep
        the occupancy index's victim-candidate set in step."""
        self.occupancy_index.set_stealable(worker.address, has_ready)

    # ------------------------------------------------------------------
    # liveness and failure recovery
    # ------------------------------------------------------------------
    def heartbeat(self, worker: Worker) -> None:
        # The liveness monitor may have evicted this worker while its
        # heartbeat process was parked on the interval timeout; a late
        # beat must not resurrect a timestamp for an evicted address.
        if worker.address not in self.workers:
            return
        self._last_heartbeat[worker.address] = self.env.now

    def start_liveness_monitor(self, misses: int = 4) -> None:
        """Detect dead workers through missed heartbeats (SSG-style)."""
        if self._monitoring:
            return
        self._monitoring = True
        self.env.process(self._liveness_loop(misses),
                         name="scheduler-liveness")

    def stop_liveness_monitor(self) -> None:
        self._monitoring = False

    def _liveness_loop(self, misses: int):
        interval = self.config.heartbeat_interval
        while self._monitoring:
            yield self.env.timeout(interval)
            if not self._monitoring:
                # stop_liveness_monitor() ran while we were mid-yield:
                # without this re-check the loop body would execute one
                # more time and could fail (and re-recover) workers the
                # caller explicitly stopped watching.
                return
            deadline = self.env.now - misses * interval
            for address in list(self.workers):
                worker = self.workers.get(address)
                if worker is None:
                    # Removed by a recovery pass triggered earlier in
                    # this same sweep (cascading failure).
                    continue
                last = self._last_heartbeat.get(address)
                if last is not None and last < deadline:
                    self.log("WARNING",
                             f"Worker {address} failed heartbeat check; "
                             "removing and recovering its work")
                    self.handle_worker_failure(worker)

    def handle_worker_failure(self, worker: Worker) -> None:
        """Recover from a dead worker: recompute lost keys, reassign
        its in-flight tasks (Dask's ``remove_worker`` recovery path)."""
        if worker.address not in self.workers:
            return
        worker.fail()
        # Snapshot the reverse indexes before remove_worker drops them.
        held = self._has_what.get(worker.address, {})
        processing = self._worker_processing.get(worker.address, {})
        self.remove_worker(worker)

        # Drop the dead worker's replicas everywhere it held one, and
        # collect its in-flight tasks — O(affected tasks) via the
        # reverse indexes, in submission order like the old full scan.
        lost: list[SchedulerTaskState] = []
        for name in held:
            ts = self.tasks[name]
            had = ts.who_has.pop(worker.address, None)
            if (had is not None and ts.state == "memory"
                    and not ts.who_has
                    and not self._blob_available(name)):
                # No live replica — but a key proxied on a durable
                # backend (PFS/Mofka) is *not* lost: consumers resolve
                # it from the data plane, so no recompute is needed.
                lost.append(ts)
        lost.sort(key=lambda t: t.seq)
        inflight = [self.tasks[name] for name in processing
                    if self.tasks[name].state == "processing"
                    and self.tasks[name].processing_on is worker]
        inflight.sort(key=lambda t: t.seq)

        # One deduplication set per recovery pass: with diamond
        # dependencies the recursive _resubmit walk can reach the same
        # key along several edges, and a second full visit would
        # double-increment its dependencies' ``remaining_dependents``
        # (the key then never drops to zero and is never released).
        seen: set = set()

        for ts in lost:
            if ts.wanted or ts.remaining_dependents > 0 or ts.dependents:
                self._resubmit(ts, seen)
            else:
                self._transition(ts, "released", "worker-failed")
                self._transition(ts, "forgotten", "gc")

        for ts in inflight:
            ts.processing_on = None
            ts.worker_process = None
            ts.compute_process = None
            ts.occupancy_contrib = 0.0
            self._transition(ts, "released", "worker-failed")
            self._transition(ts, "waiting", "worker-failed")
            ts.waiting_on = set()
            for dep_name in ts.spec.dep_names:
                dep_ts = self.tasks[dep_name]
                if self._dep_available(dep_ts):
                    continue
                ts.waiting_on.add(dep_ts.name)
                if dep_ts.state in ("memory", "released", "forgotten"):
                    # "memory" with no replica left, or already freed:
                    # either way the data is gone and must be rebuilt,
                    # or this task waits forever on a key nobody runs.
                    self._resubmit(dep_ts, seen)
            if not ts.waiting_on and self.workers:
                self._assign(ts, stimulus="worker-failed")

        if not self.workers:
            self._degrade_no_workers()

    def _blob_available(self, name: str) -> bool:
        """True when ``name`` survives on a durable data-plane backend."""
        store = self.proxy_store
        return store is not None and store.durable(name)

    def _dep_available(self, dep_ts: SchedulerTaskState) -> bool:
        """A dependency counts as available when its bytes are actually
        reachable: a replica on a live worker, or a blob on a durable
        data-plane backend.  A replica on a silently crashed worker
        (not yet noticed by the liveness monitor) does not count —
        treating it as live would re-dispatch into the same
        DataLostError forever."""
        if dep_ts.state != "memory":
            return False
        if any(not w.failed for w in dep_ts.who_has.values()):
            return True
        return self._blob_available(dep_ts.name)

    def _resubmit(self, ts: SchedulerTaskState,
                  seen: Optional[set] = None) -> None:
        """Recompute a lost key (and, recursively, lost inputs).

        ``seen`` is the per-recovery-pass deduplication set threaded
        down from :meth:`handle_worker_failure`; a key already visited
        in this pass is never resubmitted twice, whatever state an
        earlier visit left it in.
        """
        if seen is not None:
            if ts.name in seen:
                return
            seen.add(ts.name)
        if ts.retry_pending:
            # A retry timer owns this task; it re-resolves lost inputs
            # itself when it fires.  Resubmitting here as well would
            # double-count its dependency consumption.
            return
        if ts.state == "memory":
            self._transition(ts, "released", "worker-failed")
        elif ts.state == "forgotten":
            # Resurrect: forgotten keys re-enter as released.
            ts.state = "released"
        if ts.state != "released":
            return
        self._transition(ts, "waiting", "recompute")
        ts.nbytes = 0
        self._forget_replicas(ts)
        ts.waiting_on = set()
        for dep_name in ts.spec.dep_names:
            dep_ts = self.tasks[dep_name]
            # This task will consume its inputs once more.
            dep_ts.remaining_dependents += 1
            if self._dep_available(dep_ts):
                continue
            ts.waiting_on.add(dep_ts.name)
            if dep_ts.state in ("memory", "released", "forgotten"):
                # The input itself is gone ("memory" with an empty
                # who_has means it was lost in this same failure event
                # but sits later in iteration order): rebuild it too.
                self._resubmit(dep_ts, seen)
        # Downstream tasks still waiting must wait for this key again.
        for dep_name in ts.dependents:
            dep_ts = self.tasks[dep_name]
            if dep_ts.state == "waiting":
                dep_ts.waiting_on.add(ts.name)
        if not ts.waiting_on and self.workers:
            self._assign(ts, stimulus="recompute")

    def _degrade_no_workers(self) -> None:
        """Graceful degradation: the last worker is gone.

        Nothing can ever run again, so instead of leaving clients
        parked forever on wanted events, fail every non-terminal task's
        future with a clear diagnosis (Dask's ``KilledWorker``-style
        surfacing).
        """
        exc = RuntimeError(
            "all workers are gone; pending keys cannot be recovered")
        self.log("ERROR", "All workers lost; failing pending wanted keys")
        # The unfinished index holds exactly the tasks in an active
        # state; snapshot it (the transitions below drain it) and keep
        # the old full-scan's submission-order iteration via seq.
        pending = sorted(self._unfinished.values(), key=lambda t: t.seq)
        for ts in pending:
            if ts.state in ACTIVE_SCHEDULER_STATES:
                if ts.state == "released":
                    self._transition(ts, "waiting", "no-workers")
                if ts.state in ("waiting", "no-worker"):
                    self._transition(ts, "processing", "no-workers")
                self._transition(ts, "erred", "no-workers")
                self._fail_wanted(ts, exc)

    def log(self, level: str, message: str) -> None:
        self.logs.append(LogEntry(
            source="scheduler", time=self.env.now, level=level,
            message=message,
        ))

    # ------------------------------------------------------------------
    # duration estimation (per prefix, exponential moving average)
    # ------------------------------------------------------------------
    def estimate_duration(self, spec: TaskSpec) -> float:
        return self._duration_ema.get(spec.prefix, DEFAULT_DURATION_GUESS)

    def observe_duration(self, spec: TaskSpec, duration: float) -> None:
        old = self._duration_ema.get(spec.prefix)
        if old is None:
            self._duration_ema[spec.prefix] = duration
        else:
            self._duration_ema[spec.prefix] = 0.5 * old + 0.5 * duration

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def _transition(self, ts: SchedulerTaskState, finish: str,
                    stimulus: str) -> None:
        start = ts.state
        if (start, finish) not in SCHEDULER_TRANSITIONS:
            validate_transition(start, finish)  # raises with detail
        ts.state = finish
        spec = ts.spec
        name = spec.name
        if finish in ACTIVE_SCHEDULER_STATES:
            self._unfinished[name] = ts
        else:
            self._unfinished.pop(name, None)
        processing_on = ts.processing_on
        record = make_transition_record(
            name, spec.group, spec.prefix, start, finish,
            self.env.now, stimulus,
            processing_on.address if processing_on is not None else None,
            "scheduler",
        )
        if self.plugins:
            for plugin in self.plugins:
                plugin.transition(record)

    # ------------------------------------------------------------------
    # graph intake
    # ------------------------------------------------------------------
    def update_graph(self, graph: TaskGraph,
                     wanted: Optional[list[str]] = None) -> int:
        """Register a submitted graph; returns its graph index.

        ``wanted`` keys (default: the graph's leaves) are pinned in
        distributed memory until :meth:`release_wanted` is called —
        they back the client's futures.
        """
        if not self.workers:
            raise RuntimeError("no workers registered")
        graph.validate(allow_external=True)
        graph_index = self._n_graphs
        self._n_graphs += 1
        wanted = list(wanted) if wanted is not None else graph.leaves()
        wanted_set = set(wanted)

        order = graph.toposort()
        specs = graph.tasks
        tasks = self.tasks
        new_states: list[SchedulerTaskState] = []
        for name in order:
            if name in tasks:
                raise RuntimeError(f"key {name} already known to scheduler")
            ts = SchedulerTaskState(spec=specs[name],
                                    graph_index=graph_index,
                                    seq=len(tasks))
            ts.wanted = name in wanted_set
            tasks[name] = ts
            new_states.append(ts)

        # Wire dependencies (allowing references to older graphs' keys).
        for ts in new_states:
            for dep_name in ts.spec.dep_names:
                dep_ts = self.tasks.get(dep_name)
                if dep_ts is None:
                    raise RuntimeError(
                        f"task {ts.name} depends on unknown key {dep_name}"
                    )
                dep_ts.dependents.add(ts.name)
                dep_ts.remaining_dependents += 1
                if dep_ts.state != "memory":
                    ts.waiting_on.add(dep_name)

        plugins = self.plugins
        for ts in new_states:
            if plugins:
                for plugin in plugins:
                    plugin.task_added(
                        key=ts.name, group=ts.spec.group,
                        prefix=ts.spec.prefix,
                        deps=list(ts.spec.dep_names),
                        graph_index=graph_index, timestamp=self.env.now,
                    )
            self._transition(ts, "waiting", "update-graph")
            if ts.wanted:
                self._wanted_events[ts.name] = self.env.event()
        ready = [ts for ts in new_states if not ts.waiting_on]
        roots = [ts for ts in ready if not ts.spec.deps]
        if (self.config.root_coassignment
                and len(roots) >= 2 * len(self.workers)):
            # Root-task co-assignment (as in modern Dask): slice the
            # batch of simultaneously ready roots into contiguous slabs,
            # one per worker, so sibling chunks start out co-located and
            # their downstream consumers rarely need transfers.  Only
            # live workers get slabs: a silently-failed worker (dead,
            # unnoticed until its heartbeat deadline) would swallow a
            # whole slab and force a recovery round.  Each slab is
            # dispatched as one batched control-plane message — one
            # engine event per worker, not one per root task.
            workers = [w for w in self.workers.values() if not w.failed] \
                or list(self.workers.values())
            slab = -(-len(roots) // len(workers))
            for w_index, start in enumerate(range(0, len(roots), slab)):
                worker = workers[w_index % len(workers)]
                self._assign_slab(roots[start:start + slab], worker,
                                  stimulus="ready-on-submit")
            root_names = {ts.name for ts in roots}
            ready = [ts for ts in ready if ts.name not in root_names]
        for ts in ready:
            self._assign(ts, stimulus="ready-on-submit")

        self.log(
            "INFO",
            f"Receive graph {graph_index} ({len(new_states)} tasks, "
            f"{len(wanted)} wanted keys)",
        )
        return graph_index

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def decide_worker(self, ts: SchedulerTaskState) -> Worker:
        """Pick the worker minimising occupancy + transfer cost.

        As in ``distributed.scheduler.decide_worker``: a task with
        dependencies considers the workers already holding them, plus
        any idle workers; only a dependency-less task (or one whose
        holders are all gone) considers the whole pool.  This keeps
        chains of tasks with their data unless somebody is starving —
        and when the balance is wrong, work stealing (not placement)
        moves the task, paying the data-movement price the paper's
        lessons-learned section describes.
        """
        dep_names = ts.spec.dep_names
        holders: dict[str, Worker] = {}
        store = self.proxy_store
        if dep_names:
            tasks = self.tasks
            registered = self.workers
            for dep_name in dep_names:
                if store is not None and store.has(dep_name):
                    # Pass-by-reference input: every worker resolves it
                    # from the shared data plane at the same cost, so
                    # holding a replica confers no locality advantage —
                    # the placement decoupling ProxyStore exists for.
                    continue
                for address, holder in tasks[dep_name].who_has.items():
                    # A holder must be registered *and alive*: inside
                    # the heartbeat window a silently-failed worker is
                    # still registered, and placing onto it strands the
                    # task until the next recovery pass.
                    if address in registered and not holder.failed:
                        holders[address] = holder
        if holders:
            # Score the holders: occupancy plus the transfer cost of
            # whatever dependencies each one is missing.  First-seen
            # wins ties, like the old candidate-dict iteration.
            best: Optional[Worker] = None
            best_score = float("inf")
            weight = self.config.locality_weight
            bandwidth = self.config.bandwidth_estimate
            occupancy = self.occupancy
            for address, worker in holders.items():
                transfer_bytes = 0
                for dep_name in dep_names:
                    if store is not None and store.has(dep_name):
                        continue
                    dep_ts = tasks[dep_name]
                    if address not in dep_ts.who_has:
                        transfer_bytes += dep_ts.nbytes
                score = (occupancy[address]
                         + weight * transfer_bytes / bandwidth)
                if score < best_score:
                    best_score = score
                    best = worker
            # The idle escape hatch the old pool sweep implemented:
            # among non-holders every candidate pays the full transfer
            # cost, so only the least-occupied one (earliest registered
            # on ties — the sweep's iteration order) can beat a holder,
            # and only when it clears the idleness threshold.
            idle = self.occupancy_index.least_occupied(exclude=holders)
            if idle is not None:
                idle_occ = occupancy[idle.address]
                mean_occ = (self._occupancy_total
                            / max(1, len(occupancy)))
                if (idle_occ < self.config.idle_fraction * mean_occ
                        or idle_occ == 0.0):
                    full_bytes = sum(
                        tasks[dep_name].nbytes for dep_name in dep_names
                        if store is None or not store.has(dep_name))
                    score = (idle_occ
                             + weight * full_bytes / bandwidth)
                    if score < best_score:
                        best = idle
            assert best is not None
            return best
        # No dependencies (or no live registered holder): the transfer
        # term is identical for every worker, so the whole-pool argmin
        # of the old code reduces to the least-occupied live worker.
        best = self.occupancy_index.least_occupied()
        if best is None:
            # Every registered worker is silently failed.  Keep the old
            # semantics: dispatch anyway (the attempt returns False and
            # the cascading-failure path recovers) rather than deadlock.
            best = self.occupancy_index.least_occupied(allow_failed=True)
        assert best is not None
        return best

    def gather_sources(self, ts: SchedulerTaskState) -> tuple[dict, dict]:
        """``who_has``/``sizes`` maps shipped with a dispatch message.

        Only live holders are listed: a failed-but-registered worker
        (dead inside its heartbeat window) would otherwise be offered
        as a fetch source and the assignee would try to gather from a
        corpse.  The worker-side gather re-checks liveness at fetch
        time; this filter keeps the dispatch snapshot honest too.
        """
        who_has = {}
        sizes = {}
        tasks = self.tasks
        for dep_name in ts.spec.dep_names:
            dep_ts = tasks[dep_name]
            who_has[dep_name] = [w for w in dep_ts.who_has.values()
                                 if not w.failed]
            sizes[dep_name] = dep_ts.nbytes
        return who_has, sizes

    def _start_processing(self, ts: SchedulerTaskState, worker: Worker,
                          stimulus: str) -> None:
        """Shared bookkeeping for putting a task into ``processing``."""
        ts.processing_on = worker
        ts.occupancy_contrib = self.estimate_duration(ts.spec)
        self._adjust_occupancy(worker.address, ts.occupancy_contrib)
        table = self._worker_processing.get(worker.address)
        if table is not None:
            table[ts.name] = None
        self._transition(ts, "processing", stimulus)

    def _stop_processing(self, ts: SchedulerTaskState) -> None:
        """Drop the task from its worker's processing reverse index."""
        if ts.processing_on is None:
            return
        table = self._worker_processing.get(ts.processing_on.address)
        if table is not None:
            table.pop(ts.name, None)

    def _assign(self, ts: SchedulerTaskState, stimulus: str,
                worker: Optional[Worker] = None) -> None:
        worker = worker or self.decide_worker(ts)
        self._start_processing(ts, worker, stimulus)
        who_has, sizes = self.gather_sources(ts)
        # One control-plane hop, then supervise the attempt.  A raw
        # timeout callback replaces a dedicated dispatch process: the
        # hop needs no generator of its own, and nothing ever waits on
        # or interrupts the in-flight message (steals and failure
        # recovery act on ``compute_process``, which exists only after
        # the hop lands).
        hop = self.env.timeout(self.config.control_latency)
        hop.callbacks.append(
            lambda _event: self._launch(ts, worker, who_has, sizes))
        ts.worker_process = hop

    def _launch(self, ts: SchedulerTaskState, worker: Worker,
                who_has: dict, sizes: dict) -> None:
        """The control-plane hop landed: start the attempt on its
        worker.  Without a timeout to race there is nothing for a
        supervising process to wait on — a completion callback on the
        compute process replicates ``_supervise``'s settle logic at two
        engine events per task fewer."""
        if self.task_timeout(ts.spec) > 0:
            self.env.process(
                self._supervise(ts, worker, who_has, sizes),
                name=f"dispatch-{ts.name}",
            )
            return
        proc = self.env.process(
            worker.compute_task(ts.spec, who_has, sizes, ts.graph_index),
            name=f"compute-{ts.name}",
        )
        ts.compute_process = proc
        proc.callbacks.append(
            lambda _event: self._attempt_settled(ts, worker, proc))

    def _attempt_settled(self, ts: SchedulerTaskState, worker: Worker,
                         proc) -> None:
        """Completion callback mirroring ``_supervise``'s tail."""
        if proc._ok is False:
            return  # unhandled failure: the engine raises after callbacks
        completed = proc.value
        if ts.compute_process is proc:
            ts.compute_process = None
        if (completed is False and worker.failed
                and worker.address in self.workers
                and not self._monitoring):
            self.handle_worker_failure(worker)

    def _assign_slab(self, slab: list[SchedulerTaskState], worker: Worker,
                     stimulus: str) -> None:
        """Place a slab of co-assigned root tasks on one worker with a
        single batched control-plane message (one engine event per
        worker per graph, instead of one per task)."""
        for ts in slab:
            self._start_processing(ts, worker, stimulus)
        self.env.process(
            self._dispatch_slab(list(slab), worker),
            name=f"dispatch-slab-{worker.address}",
        )

    def _dispatch_slab(self, slab: list[SchedulerTaskState],
                       worker: Worker):
        """Process: one control-plane hop carrying a whole root slab.

        Tasks without a timeout budget are launched through
        :meth:`Worker.compute_batch`, so a maximal run of consecutive
        no-timeout slab members costs one dispatch event instead of one
        spawned process per task.  A member with a timeout flushes the
        pending run (keeping launch order intact) and gets its own
        supervising process, exactly as :meth:`_launch` would do.
        """
        yield self.env.timeout(self.config.control_latency)
        batch: list[SchedulerTaskState] = []
        for ts in slab:
            # A recovery pass may have reassigned a slab member while
            # the message was in flight; the launch still happens (the
            # attempt returns False on the dead worker), matching the
            # per-task dispatch semantics.
            if self.task_timeout(ts.spec) > 0:
                self._flush_compute_batch(batch, worker)
                self._launch(ts, worker, {}, {})
            else:
                batch.append(ts)
        self._flush_compute_batch(batch, worker)

    def _flush_compute_batch(self, batch: list[SchedulerTaskState],
                             worker: Worker) -> None:
        """Launch the pending no-timeout slab run as one worker batch."""
        if not batch:
            return
        procs = worker.compute_batch(
            (ts.spec, {}, {}, ts.graph_index) for ts in batch)
        for ts, proc in zip(batch, procs):
            ts.compute_process = proc
            proc.callbacks.append(
                lambda _event, ts=ts, proc=proc:
                    self._attempt_settled(ts, worker, proc))
        batch.clear()

    def _dispatch(self, ts: SchedulerTaskState, worker: Worker,
                  who_has: dict, sizes: dict):
        """Process: control-plane hop, then run the task on the worker."""
        yield self.env.timeout(self.config.control_latency)
        completed = yield from self._supervise(ts, worker, who_has, sizes)
        return completed

    def _supervise(self, ts: SchedulerTaskState, worker: Worker,
                   who_has: dict, sizes: dict):
        """Run one task attempt on its worker and watch its timeout."""
        proc = self.env.process(
            worker.compute_task(ts.spec, who_has, sizes, ts.graph_index),
            name=f"compute-{ts.name}",
        )
        ts.compute_process = proc
        limit = self.task_timeout(ts.spec)
        if limit > 0:
            timer = self.env.timeout(limit)
            yield proc | timer
            if (not proc.triggered and ts.compute_process is proc
                    and ts.processing_on is worker):
                # The attempt overran its budget and nothing else (a
                # steal, a failure recovery) claimed it meanwhile: cut
                # it down and hand the decision back to the scheduler.
                proc.interrupt("timeout")
                completed = yield proc
                if ts.compute_process is proc:
                    ts.compute_process = None
                self.task_timed_out(ts, worker, limit)
                return completed
            if not proc.triggered:
                # Stolen/recovered while we watched the timer: wait out
                # the (already interrupted) process for its value.
                completed = yield proc
            else:
                completed = proc.value
        else:
            completed = yield proc
        if ts.compute_process is proc:
            ts.compute_process = None
        if (completed is False and worker.failed
                and worker.address in self.workers
                and not self._monitoring):
            # The worker died while (or before) running this task and no
            # liveness monitor will ever notice: a cascading failure —
            # e.g. an in-flight task reassigned by handle_worker_failure
            # to a worker that then also crashed — would otherwise leave
            # the task in "processing" forever.  When the monitor *is*
            # running, detection stays heartbeat-driven.
            self.handle_worker_failure(worker)
        return completed

    # ------------------------------------------------------------------
    # completion path
    # ------------------------------------------------------------------
    def task_finished(self, worker: Worker, name: str, nbytes: int,
                      start: float, stop: float) -> None:
        if worker.address not in self.workers:
            return  # ghost message from a removed/failed worker
        ts = self.tasks[name]
        if ts.state != "processing" or ts.processing_on is not worker:
            return  # late message for a task that moved on (steal race)
        duration = stop - start
        self.observe_duration(ts.spec, duration)
        self._adjust_occupancy(worker.address, -ts.occupancy_contrib)
        ts.occupancy_contrib = 0.0
        ts.nbytes = nbytes
        self._remember_replica(ts, worker)
        ts.worker_process = None
        self._stop_processing(ts)
        self._transition(ts, "memory", "task-finished")

        if ts.wanted:
            event = self._wanted_events.get(ts.name)
            if event is not None and not event.triggered:
                event.succeed(nbytes)

        tasks = self.tasks
        # Promote dependents whose last dependency just landed (in
        # deterministic key order; the common single-dependent case
        # skips the sort).
        dependents = ts.dependents
        for dep_name in (sorted(dependents) if len(dependents) > 1
                         else dependents):
            dep_ts = tasks[dep_name]
            dep_ts.waiting_on.discard(name)
            if dep_ts.state == "waiting" and not dep_ts.waiting_on:
                self._assign(dep_ts, stimulus="dep-ready")

        # Release upstream keys this completion may have unpinned.
        for dep_name in ts.spec.dep_names:
            dep_ts = tasks[dep_name]
            dep_ts.remaining_dependents -= 1
            self._maybe_release(dep_ts)
        # A result nothing depends on and no client holds is garbage
        # immediately (Dask releases it as soon as it has no referrers).
        self._maybe_release(ts)

    def task_erred(self, worker: Worker, name: str,
                   exception: BaseException) -> None:
        """A task raised on its worker: retry it or err it.

        Mirrors Dask: while the task has retry budget (``retries=`` on
        the spec, or the config-wide ``task_retries``) a failed attempt
        is rescheduled after an exponential backoff.  Once the budget is
        exhausted the task transitions to ``erred``, every transitive
        dependent that can no longer run is erred as well (stimulus
        ``upstream-erred``), and clients waiting on any of those keys
        see the original exception.
        """
        if worker.address not in self.workers:
            return
        ts = self.tasks[name]
        if ts.state != "processing" or ts.processing_on is not worker:
            return
        self._adjust_occupancy(worker.address, -ts.occupancy_contrib)
        ts.occupancy_contrib = 0.0
        ts.worker_process = None
        self._stop_processing(ts)
        if isinstance(exception, DataLostError):
            # Not the task's fault: a dependency replica vanished under
            # it (its holder crashed after assignment).  Reschedule with
            # fresh ``who_has`` without spending user retry budget —
            # Dask likewise retries gather failures rather than erring.
            self.log("WARNING",
                     f"Task {name} lost an input replica ({exception}); "
                     f"rescheduling")
            self._reschedule(ts, stimulus="data-lost")
            return
        if self._maybe_retry(ts, exception):
            return
        self._transition(ts, "erred", "task-erred")
        self.log("ERROR", f"Task {name} marked as failed because of "
                          f"{type(exception).__name__}: {exception}")
        self._fail_wanted(ts, exception)
        self._poison_dependents(ts, exception)

    def _poison_dependents(self, ts: SchedulerTaskState,
                           exception: BaseException) -> None:
        """Err the transitive dependents that are now unrunnable."""
        stack = sorted(ts.dependents)
        seen = set()
        while stack:
            dep_name = stack.pop()
            if dep_name in seen:
                continue
            seen.add(dep_name)
            dep_ts = self.tasks[dep_name]
            if dep_ts.state in ("erred", "memory", "forgotten"):
                continue
            if dep_ts.state == "waiting":
                # waiting -> processing -> erred is the legal path; the
                # short-circuit stimulus records why.
                self._transition(dep_ts, "processing", "upstream-erred")
            if dep_ts.state == "processing":
                self._stop_processing(dep_ts)
                self._transition(dep_ts, "erred", "upstream-erred")
            self._fail_wanted(dep_ts, exception)
            stack.extend(sorted(dep_ts.dependents))

    # ------------------------------------------------------------------
    # retries, backoff, timeouts
    # ------------------------------------------------------------------
    def retry_budget(self, ts: SchedulerTaskState) -> int:
        """Remaining retries (spec ``retries=`` overrides the config)."""
        if ts.retries_left is None:
            spec_retries = ts.spec.retries
            ts.retries_left = (spec_retries if spec_retries is not None
                               else self.config.task_retries)
        return ts.retries_left

    def task_timeout(self, spec: TaskSpec) -> float:
        """Effective per-task timeout; 0 disables enforcement."""
        if spec.timeout is not None:
            return spec.timeout
        return self.config.task_timeout

    def _maybe_retry(self, ts: SchedulerTaskState,
                     exception: BaseException) -> bool:
        """Consume one retry and schedule the re-attempt; False when the
        budget is exhausted (caller proceeds down the erred path)."""
        if self.retry_budget(ts) <= 0:
            return False
        ts.retries_left -= 1
        ts.retry_count += 1
        delay = (self.config.retry_backoff_base
                 * self.config.retry_backoff_factor ** (ts.retry_count - 1))
        self._transition(ts, "released", "retry")
        ts.processing_on = None
        ts.compute_process = None
        ts.retry_pending = True
        self.log("WARNING",
                 f"Task {ts.name} attempt {ts.retry_count} failed with "
                 f"{type(exception).__name__}: {exception}; retrying in "
                 f"{delay:.3f}s ({ts.retries_left} retries left)")
        self.env.process(self._retry_later(ts, delay),
                         name=f"retry-{ts.name}")
        return True

    def _retry_later(self, ts: SchedulerTaskState, delay: float):
        """Process: exponential-backoff pause, then re-assignment."""
        yield self.env.timeout(delay)
        ts.retry_pending = False
        if ts.state != "released":
            return  # something else (recovery, release) moved the task on
        self._reschedule(ts, stimulus="retry")

    def _reschedule(self, ts: SchedulerTaskState, stimulus: str) -> None:
        """Put a ``processing``/``released`` task back on the runnable
        path, re-resolving dependencies that were lost meanwhile."""
        if ts.state == "processing":
            self._stop_processing(ts)
            self._transition(ts, "released", stimulus)
            ts.processing_on = None
            ts.compute_process = None
        if ts.state != "released":
            return
        self._transition(ts, "waiting", stimulus)
        ts.waiting_on = set()
        for dep_name in ts.spec.dep_names:
            dep_ts = self.tasks[dep_name]
            if self._dep_available(dep_ts):
                continue
            ts.waiting_on.add(dep_ts.name)
            if dep_ts.state in ("memory", "released", "forgotten"):
                # An input was lost while this task waited: rebuild it.
                # No remaining_dependents adjustment — the failed
                # attempt never consumed it, so its claim still counts.
                self._resubmit(dep_ts, set())
        if not ts.waiting_on:
            if self.workers:
                self._assign(ts, stimulus=stimulus)
            else:
                self._degrade_no_workers()

    def task_timed_out(self, ts: SchedulerTaskState, worker: Worker,
                       limit: float) -> None:
        """The per-task timeout elapsed: the attempt was interrupted on
        its worker; retry or err exactly like a raised exception."""
        if ts.state != "processing" or ts.processing_on is not worker:
            return
        self._adjust_occupancy(worker.address, -ts.occupancy_contrib)
        ts.occupancy_contrib = 0.0
        ts.worker_process = None
        self._stop_processing(ts)
        exception = TimeoutError(
            f"task {ts.name} exceeded its {limit:g}s timeout on "
            f"{worker.address}")
        if self._maybe_retry(ts, exception):
            return
        self._transition(ts, "erred", "task-timeout")
        self.log("ERROR", f"Task {ts.name} marked as failed because of "
                          f"TimeoutError: {exception}")
        self._fail_wanted(ts, exception)
        self._poison_dependents(ts, exception)

    def _fail_wanted(self, ts: SchedulerTaskState,
                     exception: BaseException) -> None:
        event = self._wanted_events.get(ts.name)
        if event is not None and not event.triggered:
            event.fail(exception)
            # Delivery is best-effort: when one recovery pass fails
            # several wanted keys, the client's all_of consumes only
            # the first failure — the rest would crash the simulation
            # as unhandled.  Defused failures still raise in any
            # process that yields on the event.
            event._defused = True

    def _maybe_release(self, ts: SchedulerTaskState) -> None:
        if ts.state != "memory":
            return
        if ts.wanted or ts.remaining_dependents > 0:
            return
        for worker in ts.who_has.values():
            worker.free_keys([ts.name])
        self._forget_replicas(ts)
        if self.proxy_store is not None:
            # Nobody will resolve this key again: drop its blob (and
            # emit the proxy_evict closing the put/resolve lineage).
            self.proxy_store.evict(ts.name)
        self._transition(ts, "released", "no-dependents")
        self._transition(ts, "forgotten", "gc")

    # ------------------------------------------------------------------
    # client-facing helpers
    # ------------------------------------------------------------------
    def add_replica(self, worker: Worker, name: str) -> None:
        """A worker fetched a copy of ``name``; track it for release."""
        ts = self.tasks.get(name)
        if ts is not None and ts.state == "memory":
            self._remember_replica(ts, worker)

    def _remember_replica(self, ts: SchedulerTaskState,
                          worker: Worker) -> None:
        # Reached from the fetch retry loop after a yield; add_replica
        # already revalidates (``ts.state == "memory"``) before calling
        # in, so a key released meanwhile never lands here.
        ts.who_has[worker.address] = worker  # repro: allow[conc-cross-context-mutation]
        held = self._has_what.get(worker.address)
        if held is not None:
            held[ts.name] = None

    def _forget_replicas(self, ts: SchedulerTaskState) -> None:
        for address in ts.who_has:
            held = self._has_what.get(address)
            if held is not None:
                held.pop(ts.name, None)
        ts.who_has.clear()

    def wanted_event(self, name: str):
        return self._wanted_events[name]

    def release_wanted(self, names: list[str]) -> None:
        """Client dropped its futures; unpin and maybe free the keys."""
        for name in names:
            ts = self.tasks.get(name)
            if ts is None:
                continue
            ts.wanted = False
            self._wanted_events.pop(name, None)
            self._maybe_release(ts)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def describe(self) -> dict:
        return {
            "address": self.address,
            "hostname": self.node.name,
            "n_workers": len(self.workers),
            "config": self.config.describe(),
        }
