"""Sleeping periodic processes against the polling loops they replaced.

The Mofka flusher used to wake every ``linger`` and the worker tick loop
every ``tick_interval``, whether or not there was anything to do.  Both
now sleep while idle and resume on a :class:`~repro.sim.Timeout` placed
at the next deadline of their replayed grid (``t += interval`` in plain
float arithmetic), so flushes and warnings keep their exact times and
tie order.

This module keeps the old loop bodies as reference processes and drives
old and new with the same push and pause schedules.  Time steps, linger
and RPC latency are multiples of 1/64 s in most examples, so grids meet
exactly and every kind of same-instant tie occurs: a push on a linger
deadline, idle producers whose grids run in lockstep, a batch-full kick
or a ``close()`` on a deadline, a GC pause drawn on a tick.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dasklike.config import DaskConfig
from repro.dasklike.worker import Worker
from repro.mofka import MofkaService, Producer
from repro.platform.node import Node, NodeSpec
from repro.sim import Environment, SimulationError, Timeout

from tests.helpers import RecordingPlugin

UNIT = 1 / 64

SETTINGS = settings(derandomize=True, max_examples=120, deadline=None,
                    database=None)


# ---------------------------------------------------------------------------
# engine primitive
# ---------------------------------------------------------------------------

class RecordingMonitor:
    def __init__(self):
        self.scheduled = []

    def on_schedule(self, event, when, priority, seq, now):
        self.scheduled.append((event, when, priority, seq, now))

    def on_step(self, event, when, priority, seq):
        pass

    def before_callback(self, event, callback):
        pass


#: ``(now, when)`` pairs where ``now + (when - now) != when``.
INEXACT = [(0.0166906301155596, 2.441437517556419),
           (0.020818108509287336, 2.7685875619517373),
           (0.027974984083842358, 23.730898096425367),
           (0.7881164487252263, 83.02209117544224)]


class TestTimeoutAt:
    @pytest.mark.parametrize("now,when", INEXACT)
    def test_fires_exactly_at_when(self, now, when):
        assert now + (when - now) != when
        env = Environment(initial_time=now)
        relative = Environment(initial_time=now)
        assert env.run(env.timeout_at(when, value="v")) == "v"
        assert env.now == when
        relative.run(relative.timeout(when - now))
        assert relative.now != when

    def test_past_time_raises(self):
        env = Environment(initial_time=1.0)
        with pytest.raises(ValueError):
            env.timeout_at(0.5)

    def test_is_a_timeout_and_reports_its_schedule(self):
        env = Environment(initial_time=0.5)
        monitor = RecordingMonitor()
        env.add_monitor(monitor)
        timer = env.timeout_at(2.0)
        assert type(timer) is Timeout
        assert monitor.scheduled == [(timer, 2.0, 0, env._seq, 0.5)]
        assert timer.delay == 1.5

    def test_deferred_is_scheduled_once(self):
        env = Environment()
        timer = Timeout.deferred(env)
        assert timer.delay is None
        timer.schedule_at(1.0)
        with pytest.raises(SimulationError):
            timer.schedule_at(2.0)

    @pytest.mark.parametrize("when", [0.0, 1.0])
    def test_reserved_seq_pops_before_later_same_time_timer(self, when):
        """A deferred timer keeps the place of its reserved sequence
        number, even when it is scheduled for the current instant and
        a zero-delay event is already queued there."""
        env = Environment()
        order = []
        seq = env.reserve_seq()
        later = env.timeout(when)
        later.callbacks.append(lambda _: order.append("later"))
        if when == 0.0:
            env.event().succeed().callbacks.append(
                lambda _: order.append("succeeded"))
        deferred = Timeout.deferred(env)
        deferred.callbacks.append(lambda _: order.append("reserved"))
        deferred.schedule_at(when, seq)
        env.run()
        assert order[0] == "reserved"
        assert sorted(order[1:]) == sorted(
            ["later"] + (["succeeded"] if when == 0.0 else []))


# ---------------------------------------------------------------------------
# the Mofka flusher
# ---------------------------------------------------------------------------

class PollingProducer(Producer):
    """The flusher as it was: the linger timer re-armed on every
    wake-up, an empty buffer included."""

    def push(self, metadata, data=b""):
        if self._closed:
            raise RuntimeError("producer closed")
        self._buffer.append((metadata, data))
        self.n_pushed += 1
        if len(self._buffer) >= self.batch_size:
            self._kick.put("full")

    def _flush_loop(self):
        while not self._closed or self._buffer:
            if len(self._buffer) < self.batch_size:
                # Wait for either a kick or the linger timer.
                get = self._kick.get()
                timer = self.env.timeout(self.linger)
                yield get | timer
                if not get.triggered:
                    self._kick.cancel(get)
            if self._buffer:
                yield self._flush_once()
                self._drain_stale_kicks()


def run_producers(cls, scenario, monitor=None):
    """``(time, producer, size)`` of every completed flush of
    ``scenario`` on producers of ``cls``, in completion order, and the
    ``(timestamp, metadata)`` entries of every partition.  ``monitor``,
    if given, observes the engine."""
    linger, rpc, batch_size, n_producers, pushes, close_at = scenario
    env = Environment()
    if monitor is not None:
        env.add_monitor(monitor)
    service = MofkaService(env)
    if rpc is not None:
        service.RPC_LATENCY = rpc
        service.INGEST_BANDWIDTH = float("inf")
    service.create_topic("t", 2)
    flushes = []
    producers = []
    for index in range(n_producers):
        producer = cls(env, service, "t", batch_size=batch_size,
                       linger=linger, name=f"p{index}")
        producer.on_flush = (lambda size, _, index=index:
                             flushes.append((env.now, index, size)))
        producers.append(producer)

    by_time = {}
    for time, target, count in pushes:
        by_time.setdefault(time, []).append((target, count))

    def script():
        # Everything due at one instant happens in one resume, the way
        # a plugin hook pushes all the events of one simulation step.
        n = 0
        for time in sorted(set(by_time) | {close_at}):
            if time > env.now:
                yield env.timeout_at(time)
            for target, count in by_time.get(time, ()):
                for _ in range(count):
                    producers[target % n_producers].push({"n": n})
                    n += 1
        for producer in producers:
            yield env.process(producer.close())

    env.run(until=env.process(script()))
    appended = [[entry[:2] for entry in part._entries]
                for part in service.topic("t").partitions]
    return flushes, appended


def _on_grid(k, step):
    t = 0.0
    for _ in range(k):
        t += step
    return t


TIMES = st.integers(0, 48).map(lambda k: k * UNIT)

PRODUCER_SCENARIOS = st.tuples(
    st.sampled_from([2 * UNIT, 3 * UNIT, 4 * UNIT, 0.05]),   # linger
    st.sampled_from([None, UNIT, 2 * UNIT]),                  # rpc
    st.integers(1, 4),                                        # batch
    st.integers(1, 3),                                        # producers
    st.lists(st.tuples(
        st.one_of(TIMES, st.integers(1, 12).map(lambda k: _on_grid(k, 0.05)),
                  st.floats(0.001, 0.6)),
        st.integers(0, 2), st.integers(1, 5)), max_size=12),
    TIMES,                                                    # close
)


def per_producer(flushes, n_producers):
    return [[(time, size) for time, index, size in flushes if index == i]
            for i in range(n_producers)]


@given(PRODUCER_SCENARIOS)
@example((2 * UNIT, UNIT, 2, 1, [(4 * UNIT, 0, 2)], 4 * UNIT))  # kick/close
@example((4 * UNIT, 2 * UNIT, 3, 1,
          [(0.0, 0, 1), (10 * UNIT, 0, 1), (12 * UNIT, 0, 1)], 40 * UNIT))
@example((0.05, None, 2, 2, [(0.0, 1, 1), (0.0625, 0, 1), (0.05, 0, 1)],
          0.0))
@SETTINGS
def test_flusher_matches_polling_reference(scenario):
    """Every producer flushes the same sizes at the same instants.

    Across producers, two flushes of one instant can append in the
    other order when the first push into an idle buffer lands exactly
    on its linger deadline: the polling flusher's timer had fired
    before that push, the armed one fires after it, so its wake-up
    queues behind a peer's (the last example; see
    ``docs/performance.md``).
    """
    n_producers = scenario[3]
    sleeping, _ = run_producers(Producer, scenario)
    polling, _ = run_producers(PollingProducer, scenario)
    assert per_producer(sleeping, n_producers) == \
        per_producer(polling, n_producers)


@pytest.mark.parametrize("scenario", [
    # Pushed in reverse idle order, inside one linger window.
    (2 * UNIT, UNIT, 4, 2, [(3 * UNIT, 1, 1), (3 * UNIT, 0, 1)], 16 * UNIT),
    # The same on a deadline of both grids.
    (2 * UNIT, UNIT, 4, 2, [(4 * UNIT, 1, 1), (4 * UNIT, 0, 1)], 16 * UNIT),
    # Three producers, after a first flush moved one grid.
    (0.05, None, 4, 3, [(0.0, 2, 1), (0.4, 2, 1), (0.4, 1, 2),
                        (0.4, 0, 1)], 1.0),
    (3 * UNIT, UNIT, 2, 3, [(0.0, 0, 1), (20 * UNIT, 2, 1),
                            (20 * UNIT, 0, 1), (20 * UNIT, 1, 3)], 1.0),
])
def test_lockstep_idle_producers_flush_in_idle_order(scenario):
    """Idle producers whose linger grids run in lockstep fire in the
    order they went idle, not in the order their first events arrive:
    the parked timer holds the sequence number reserved at that moment.
    """
    assert run_producers(Producer, scenario) == \
        run_producers(PollingProducer, scenario)


class ProcessWakeups:
    """Engine monitor counting the resumptions of one process."""

    def __init__(self):
        self.process = None
        self.count = 0

    def on_schedule(self, event, when, priority, seq, now):
        pass

    def on_step(self, event, when, priority, seq):
        pass

    def before_callback(self, event, callback):
        if getattr(callback, "__self__", None) is self.process:
            self.count += 1


def test_idle_flusher_does_not_wake():
    """Between two pushes a second apart the sleeping flusher wakes
    once per flush, the polling one once per linger."""
    def wakeups(cls):
        env = Environment()
        monitor = env.add_monitor(ProcessWakeups())
        service = MofkaService(env)
        service.create_topic("t", 1)
        producer = cls(env, service, "t", batch_size=8, linger=0.05)
        monitor.process = producer._flusher
        sizes = []
        producer.on_flush = lambda size, _: sizes.append(size)

        def script():
            for time in (0.5, 1.5):
                yield env.timeout_at(time)
                producer.push({"t": time})
            yield env.timeout_at(2.0)
            yield env.process(producer.close())
        env.run(until=env.process(script()))
        return monitor.count, sizes
    sleeping, polling = wakeups(Producer), wakeups(PollingProducer)
    assert sleeping[1] == polling[1] == [1, 1]
    assert sleeping[0] <= 6 < 30 < polling[0]


# ---------------------------------------------------------------------------
# the worker tick loop
# ---------------------------------------------------------------------------

class PollingWorker(Worker):
    """The tick loop as it was: one timeout every ``tick_interval``."""

    def _event_loop(self):
        interval = self.config.tick_interval
        while not self._closed:
            expected = self.env.now + interval
            yield self.env.timeout(interval)
            if self._closed:
                return
            if self._gc_until > self.env.now:
                stall_end = self._gc_until
                yield self.env.timeout(stall_end - self.env.now)
            delay = self.env.now - expected
            if delay > self.config.tick_warn_threshold:
                self._warn(
                    "unresponsive_event_loop", delay,
                    f"Event loop was unresponsive in Worker for "
                    f"{delay:.2f}s. This is often caused by long-running "
                    "GIL-holding functions or moving large chunks of "
                    "data.",
                )


class ScriptedGC:
    """The two draws of ``Worker._gc_model``, scripted: the k-th GC
    sample draws a pause of ``pauses[k]`` seconds (none when 0)."""

    def __init__(self, pauses, median):
        self._pauses = iter(pauses)
        self._median = median
        self._next = 0.0

    def uniform(self, name, low, high):
        self._next = next(self._pauses, 0.0)
        return low if self._next > 0 else high

    def lognormal_factor(self, name, sigma):
        return self._next / self._median


def run_workers(cls, scenario):
    """Warnings, in emission order, of workers of ``cls``."""
    interval, sample_dt, threshold, schedules = scenario
    env = Environment()
    config = DaskConfig(tick_interval=interval,
                        tick_warn_threshold=threshold)
    recorder = RecordingPlugin()  # one for all: keeps emission order
    for index, pauses in enumerate(schedules):
        node = Node(env, f"nid{index + 1:05d}", NodeSpec())
        worker = cls(env, index, node, config,
                     ScriptedGC(pauses, config.gc_pause_median),
                     network=None, io_layer=None, nthreads=1)
        worker.GC_SAMPLE_DT = sample_dt
        worker.plugins.append(recorder)
        worker.start()
    env.run(until=6.0)
    return [(record.source, record.kind, record.time, record.duration)
            for record in recorder.warnings]


PAUSES = st.lists(st.one_of(
    st.just(0.0),
    st.integers(1, 96).map(lambda k: k * UNIT),
    st.floats(0.001, 2.0)), max_size=12)

#: The GC sample step stays longer than the tick interval, as in the
#: model (0.25 s against 20 ms).
WORKER_SCENARIOS = st.tuples(
    st.sampled_from([0.02, UNIT, 2 * UNIT, 4 * UNIT]),   # tick interval
    st.sampled_from([0.25, 8 * UNIT, 12 * UNIT]),        # GC sample step
    st.sampled_from([0.5, 0.0, 4 * UNIT]),               # warn threshold
    st.lists(PAUSES, min_size=1, max_size=3),            # per worker
)


@given(WORKER_SCENARIOS)
@example((4 * UNIT, 8 * UNIT, 0.0, [[0.0, 3 * UNIT, 40 * UNIT]] * 2))
@example((0.02, 0.25, 0.5, [[1.0, 0.0, 0.0, 2.0], [0.0, 0.7, 0.9]]))
@SETTINGS
def test_tick_loop_matches_polling_reference(scenario):
    assert run_workers(Worker, scenario) == \
        run_workers(PollingWorker, scenario)
