"""Zero-delay fast-lane semantics of the event kernel.

The engine keeps two FIFO lanes next to the binary heap — one for
zero-delay priority-0 events (``succeed``/``fail``/``Timeout(0)``), one
for the priority ``-1`` ``Initialize`` events — because at any moment
each lane is already sorted: the clock never rewinds and the sequence
counter only grows.  These tests pin the contract that makes the lanes
safe: the processing order is *exactly* the ``(time, priority, seq)``
total order the heap alone used to produce.

Besides a hand-written mixed workload, seeded scripted workloads drive
the same two checks (shadow-heap order at every step, and identical
traces from the inline and the monitored run loops) over the
distributions that stress a lane merge: all-identical deadlines,
clustered periods, exponential tails, and a mix of succeed/spawn/peek/
zero-delay/far-future actions.
"""

import heapq
import random

import pytest

from repro.sim import Environment
from repro.sim.engine import SimulationError


class RecordingMonitor:
    """Captures every schedule/step the engine performs."""

    def __init__(self):
        self.scheduled = []
        self.stepped = []

    def attach(self, env):
        env.add_monitor(self)
        return self

    def on_schedule(self, event, when, priority, seq, now):
        self.scheduled.append((when, priority, seq))

    def on_step(self, event, when, priority, seq):
        self.stepped.append((when, priority, seq))

    def before_callback(self, event, callback):
        pass


class ShadowHeapMonitor(RecordingMonitor):
    """Oracle for the pre-fast-lane engine: a plain binary heap.

    Every schedule pushes onto the shadow heap; every step must pop
    exactly the shadow heap's minimum.  If the fast lanes ever reorder
    relative to the single-heap engine, this monitor catches it at the
    first divergent event.
    """

    def __init__(self):
        super().__init__()
        self._heap = []

    def on_schedule(self, event, when, priority, seq, now):
        super().on_schedule(event, when, priority, seq, now)
        heapq.heappush(self._heap, (when, priority, seq))

    def on_step(self, event, when, priority, seq):
        super().on_step(event, when, priority, seq)
        expected = heapq.heappop(self._heap)
        assert (when, priority, seq) == expected, (
            f"fast lane diverged from heap order: stepped "
            f"{(when, priority, seq)}, heap says {expected}")


def _mixed_traffic(env, trace):
    """Exercise all three lanes: heap, fast0, and Initialize."""

    def worker(name, delay):
        for i in range(3):
            yield env.timeout(delay)
            trace.append((name, "woke", env.now))
            done = env.event()
            done.succeed(i)           # fast0 lane
            yield done
            trace.append((name, "done", env.now))

    def spawner():
        yield env.timeout(0.5)
        for i in range(3):            # Initialize lane, same timestamp
            env.process(worker(f"late{i}", 0.2))
            yield env.timeout(0)      # zero-delay Timeout, fast0 lane

    for i in range(3):
        env.process(worker(f"w{i}", 0.3 + 0.1 * i))
    env.process(spawner())


def test_processing_matches_single_heap_order():
    env = Environment()
    monitor = ShadowHeapMonitor().attach(env)
    _mixed_traffic(env, [])
    env.run()                         # ShadowHeapMonitor asserts per step
    assert monitor.stepped, "no events processed"
    times = [t for t, _, _ in monitor.stepped]
    assert times == sorted(times)
    seqs = [s for _, _, s in monitor.stepped]
    assert len(seqs) == len(set(seqs))
    assert set(monitor.stepped) == set(monitor.scheduled)


def test_monitored_and_inline_runs_produce_identical_traces():
    plain_trace = []
    env = Environment()
    _mixed_traffic(env, plain_trace)
    env.run()                         # monitor None → inline fast loop

    monitored_trace = []
    env2 = Environment()
    RecordingMonitor().attach(env2)
    _mixed_traffic(env2, monitored_trace)
    env2.run()                        # monitored → step loop

    assert plain_trace == monitored_trace


N_PROCS = 8
N_STEPS = 12
SEEDS = (11, 23, 47)
DISTRIBUTIONS = ("identical", "clustered", "exponential", "mixed")

#: A deadline far beyond any other in the scripts, so the timed lane
#: holds a long tail while the rest of the traffic drains.
FAR_FUTURE = 1.6e16


def _draw(rng, dist):
    """One scripted action for a scripted process: a delay or a tag."""
    if dist == "identical":
        return 0.25
    if dist == "clustered":
        return rng.choice((0.125, 0.25, 0.25, 0.25, 0.375))
    if dist == "exponential":
        delay = rng.expovariate(1.0)
        return delay * 1000.0 if rng.random() < 0.1 else delay
    if dist == "mixed":
        roll = rng.random()
        if roll < 0.15:
            return "succeed"          # zero-delay fast lane
        if roll < 0.25:
            return "spawn"            # Initialize lane (priority -1)
        if roll < 0.30:
            return "peek"             # reads the heads without popping
        if roll < 0.35:
            return FAR_FUTURE
        if roll < 0.45:
            return 0.0                # zero-delay Timeout
        return rng.choice((0.25, rng.expovariate(2.0)))
    raise AssertionError(dist)


def _make_script(seed, dist):
    rng = random.Random(f"{dist}-{seed}")
    return [[_draw(rng, dist) for _ in range(N_STEPS)]
            for _ in range(N_PROCS)]


def _replay(script, monitor=None):
    """Run one scripted workload; return its (process, time) trace."""
    env = Environment()
    if monitor is not None:
        monitor.attach(env)
    trace = []

    def proc(name, actions):
        for action in actions:
            if action == "succeed":
                done = env.event()
                done.succeed()
                yield done
            elif action == "spawn":
                env.process(child(name))
                yield env.timeout(0)
            elif action == "peek":
                env.peek()
                yield env.timeout(0.25)
            else:
                yield env.timeout(action)
            trace.append((name, env.now))

    def child(parent):
        yield env.timeout(0.25)
        trace.append((parent, "child", env.now))

    for i, actions in enumerate(script):
        env.process(proc(i, actions))
    env.run()
    return trace


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
@pytest.mark.parametrize("seed", SEEDS)
def test_scripted_traffic_matches_single_heap_order(dist, seed):
    monitor = ShadowHeapMonitor()
    _replay(_make_script(seed, dist), monitor)   # asserts per step
    assert monitor.stepped, "no events processed"
    times = [t for t, _, _ in monitor.stepped]
    assert times == sorted(times)
    assert set(monitor.stepped) == set(monitor.scheduled)


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
@pytest.mark.parametrize("seed", SEEDS)
def test_scripted_inline_and_monitored_traces_match(dist, seed):
    # The unmonitored run() takes the inlined loop; a monitor forces
    # the step loop.  Same script, same trace.
    script = _make_script(seed, dist)
    assert _replay(script) == _replay(script, RecordingMonitor())


def test_exotic_priorities_fire_in_order():
    env = Environment()
    fired = []

    def note(tag):
        def callback(_event):
            fired.append((tag, env.now))
        return callback

    for tag, delay, priority in [("p2", 0.25, 2), ("p1", 0.25, 1),
                                 ("p0", 0.25, 0), ("pn", 0.25, -5),
                                 ("far", 0.75, 3), ("now2", 0.0, 2),
                                 ("now-3", 0.0, -3)]:
        event = env.event()
        event.callbacks.append(note(tag))
        env._schedule(event, delay=delay, priority=priority)
    env.run()
    assert fired == [("now-3", 0.0), ("now2", 0.0), ("pn", 0.25),
                     ("p0", 0.25), ("p1", 0.25), ("p2", 0.25),
                     ("far", 0.75)]


def test_negative_clock_fires_in_order():
    env = Environment(initial_time=-3.0)
    order = []

    def proc(tag, delay):
        yield env.timeout(delay)
        order.append((tag, env.now))

    env.process(proc("still-negative", 1.0))
    env.process(proc("crosses-zero", 4.0))
    env.run()
    assert order == [("still-negative", -2.0), ("crosses-zero", 1.0)]
    assert env.now == 1.0


def test_initialize_preempts_same_time_zero_delay_events():
    env = Environment()
    order = []

    def driver():
        first = env.event()
        first.succeed()               # fast0, seq 1 (at t=0)
        env.process(noter("spawned"))  # Initialize, priority -1
        yield first
        order.append("driver")

    def noter(tag):
        order.append(tag)
        yield env.timeout(0)

    env.process(driver())
    env.run()
    # Initialize has priority -1, so the spawned process's first slice
    # runs before the already-triggered priority-0 event resumes driver.
    assert order.index("spawned") < order.index("driver")


def test_fast_lane_and_heap_merge_on_peek():
    env = Environment()
    env.timeout(2.0)                  # heap
    assert env.peek() == 2.0
    done = env.event()
    done.succeed()                    # fast0 at now=0
    assert env.peek() == 0.0
    env.step()                        # consumes the fast-lane event
    assert env.peek() == 2.0


def test_zero_delay_events_are_fifo_within_priority():
    env = Environment()
    values = []

    def waiter(event):
        values.append((yield event))

    events = [env.event() for _ in range(5)]
    for i, event in enumerate(events):
        env.process(waiter(event))
    for i, event in enumerate(events):
        event.succeed(i)
    env.run()
    assert values == [0, 1, 2, 3, 4]


def test_deadlock_detected_on_both_run_paths():
    def stuck(env):
        yield env.event()             # never triggered

    env = Environment()
    process = env.process(stuck(env))
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=process)        # inline path (no monitor)

    env2 = Environment()
    RecordingMonitor().attach(env2)
    process2 = env2.process(stuck(env2))
    with pytest.raises(SimulationError, match="deadlock"):
        env2.run(until=process2)      # monitored step path


def test_interrupt_removes_cached_resume_callback():
    env = Environment()
    caught = []

    def sleeper():
        try:
            yield env.timeout(10.0)
        except Exception as exc:      # Interrupt
            caught.append(exc.cause)
            yield env.timeout(0.5)

    def interrupter(victim):
        yield env.timeout(1.0)
        victim.interrupt("stop")

    victim = env.process(sleeper())
    env.process(interrupter(victim))
    env.run(until=victim)
    assert caught == ["stop"]
    assert env.now == 1.5
