"""Work-stealing balancer.

Dask's stealing extension periodically moves *queued* (not yet
executing) tasks from saturated workers to idle ones.  The paper's
lessons-learned section flags it as a double-edged sword: "Work
stealing is a runtime decision that may negatively impact overall
performance because of expensive data movements or unforeseen effects
in future task dispatching" (§V).  The ablation benchmark
``bench_ablation_stealing`` measures exactly that trade-off.

Implementation: every ``work_stealing_interval`` seconds the balancer
compares worker occupancies.  If the most loaded worker with queued
tasks exceeds the least loaded worker's occupancy by
``steal_ratio``, one queued task migrates: the victim's in-flight
worker process is interrupted (it withdraws its claim on the thread
pool), and the task is re-dispatched to the thief — which may have to
re-fetch the task's dependencies, the "expensive data movements" the
paper warns about.
"""

from __future__ import annotations

from .records import StealEvent
from .scheduler import Scheduler

__all__ = ["WorkStealing"]


class WorkStealing:
    """Scheduler extension implementing the balancing loop."""

    def __init__(self, scheduler: Scheduler):
        self.scheduler = scheduler
        self.env = scheduler.env
        self._running = False

    def start(self) -> None:
        if self._running or not self.scheduler.config.work_stealing:
            return
        self._running = True
        self.env.process(self._loop(), name="work-stealing")

    def stop(self) -> None:
        self._running = False

    def _loop(self):
        interval = self.scheduler.config.work_stealing_interval
        while self._running:
            yield self.env.timeout(interval)
            if not self._running:
                # stop() flipped the guard while we were parked on the
                # timeout; a balancing round now would steal on behalf
                # of a component that asked us to shut down.
                return
            self.balance()

    # ------------------------------------------------------------------
    def balance(self) -> int:
        """One balancing round; returns the number of tasks moved.

        Candidate selection runs off the scheduler's occupancy index —
        two heap queries — instead of sorting every worker each
        interval.  A worker can be dead (``failed``) yet still
        registered (a silent crash is only noticed at the next
        heartbeat deadline); the index skips corpses on both sides, so
        we never steal onto one, nor from a victim whose compute
        processes handle_worker_failure already tore down.
        """
        sched = self.scheduler
        index = sched.occupancy_index
        thief = index.least_occupied()
        if thief is None:
            return 0
        # Busiest live worker with a non-empty stealable queue; the
        # thief itself is never a victim.
        victim = index.busiest_stealable(exclude=(thief.address,))
        if victim is None:
            return 0
        victim_occ = sched.occupancy[victim.address]
        thief_occ = sched.occupancy[thief.address]
        if victim_occ <= sched.config.steal_ratio * max(thief_occ, 0.05):
            return 0
        # Steal the most recently queued task (deepest in the queue);
        # one move per round, like a gentle balancer.
        name = next(reversed(victim.ready))
        if self._steal(name, victim, thief):
            return 1
        return 0

    def _steal(self, name: str, victim, thief) -> bool:
        sched = self.scheduler
        if victim.failed or thief.failed:
            # Either endpoint died between candidate selection and the
            # steal (or balance was driven externally): interrupting a
            # dead victim's compute process — already torn down by
            # handle_worker_failure — or occupying a dead thief would
            # corrupt the occupancy accounting.
            return False
        ts = sched.tasks.get(name)
        if ts is None or ts.state != "processing":
            return False
        if ts.processing_on is not victim or ts.compute_process is None:
            return False
        proc = ts.compute_process
        if proc.triggered:
            return False
        proc.interrupt("steal")
        ts.compute_process = None

        estimate = ts.occupancy_contrib
        sched._adjust_occupancy(victim.address, -estimate)
        sched._adjust_occupancy(thief.address, estimate)
        event = StealEvent(
            key=name, victim=victim.address, thief=thief.address,
            time=self.env.now,
            victim_occupancy=sched.occupancy[victim.address],
            thief_occupancy=sched.occupancy[thief.address],
        )
        for plugin in sched.plugins:
            plugin.steal(event)
        sched.log("INFO", f"Moving {name} from {victim.address} "
                          f"to {thief.address}")

        sched._stop_processing(ts)
        ts.processing_on = thief
        table = sched._worker_processing.get(thief.address)
        if table is not None:
            table[ts.name] = None
        # All deps are in memory at steal time (the task was ready).
        # gather_sources drops holders that failed since the original
        # dispatch, so the thief never fetches from a corpse.
        who_has, sizes = sched.gather_sources(ts)
        ts.worker_process = self.env.process(
            sched._dispatch(ts, thief, who_has, sizes),
            name=f"steal-dispatch-{name}",
        )
        return True
