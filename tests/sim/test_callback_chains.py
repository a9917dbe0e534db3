"""Callback chains against the wrapper processes they replaced.

A parallel-file-system request used to start one process per stripe
extent (``ParallelFileSystem._serve``), and a Mofka flush one process
around its produce RPC (``Producer._flush_once``).  Each wrapper only
waited, so both are now chains of engine callbacks that fire where the
wrapper returned.  This module keeps the wrappers as reference
processes and drives old and new through the same schedules under
derandomized Hypothesis: few OSTs with one or two service slots,
requests issued at the same instant, OST slowdowns, and producers
whose flushes meet on a 1/64 s grid.  Records, jitter draws and
completions must come out equal, in the same order, and so must the
whole sequence of popped events once the wrappers' own start events
are left out (:class:`PopTrace`).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mofka import MofkaService, Producer
from repro.mofka.producer import _Flush
from repro.platform import ParallelFileSystem, PFSSpec
from repro.platform.pfs import FileMeta, IORecord, _ExtentService
from repro.sim import Environment, Process, RandomStreams, Timeout
from repro.sim.engine import Initialize

from tests.sim.test_idle_timers import PRODUCER_SCENARIOS, run_producers

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None,
                    database=None)

UNIT = 1 / 64

#: Process names of the reference wrappers.
WRAPPERS = ("pfs-read", "pfs-write", "_flush_process")


class PopTrace:
    """Engine monitor: ``(time, label)`` of every popped event.

    A wrapper's completion and the event that replaced it get the same
    label, and the :class:`Initialize` that only started wrappers gets
    none, so the two data paths must produce equal traces."""

    def __init__(self):
        self.pops = []

    def on_schedule(self, event, when, priority, seq, now):
        pass

    def before_callback(self, event, callback):
        pass

    def on_step(self, event, when, priority, seq):
        label = self.label(event)
        if label is not None:
            self.pops.append((when, label))

    @staticmethod
    def label(event):
        if type(event) is Initialize:
            names = tuple(callback.__self__.name
                          for callback in event.callbacks)
            if all(name in WRAPPERS for name in names):
                return None
            return ("start",) + names
        if isinstance(event, (_ExtentService, _Flush)):
            return "wrapped"
        if isinstance(event, Process):
            return "wrapped" if event.name in WRAPPERS \
                else ("finish", event.name)
        if isinstance(event, Timeout):
            return ("timeout", event.delay)
        return type(event).__name__


# ---------------------------------------------------------------------------
# OST service
# ---------------------------------------------------------------------------

class ProcessPerExtentPFS(ParallelFileSystem):
    """The data path as it was: one ``_serve`` process per extent."""

    def _serve(self, ost_index: int, nbytes: int, tag: str):
        """Process: one request against one OST."""
        ost = self._osts[ost_index]
        req = ost.request()
        yield req
        try:
            jitter = self.streams.lognormal_factor(
                f"pfs.jitter.{ost_index}", self.spec.jitter_sigma
            )
            slowdown = self._interference[ost_index]
            if self.env.now < self._fault_until[ost_index]:
                slowdown *= self._fault_factor[ost_index]
            service = (
                self.spec.request_latency
                + nbytes / self.spec.ost_bandwidth * slowdown
            ) * jitter
            yield self.env.timeout(service)
        finally:
            ost.release(req)

    def io(self, path: str, op: str, offset: int, length: int):
        if op not in ("read", "write"):
            raise ValueError(f"op must be 'read' or 'write', got {op!r}")
        if offset < 0 or length < 0:
            raise ValueError("offset/length must be non-negative")
        meta = self.stat(path)
        if op == "read":
            length = max(0, min(length, meta.size - offset))
        start = self.env.now
        if length > 0:
            parts = [
                self.env.process(
                    self._serve(ost, nbytes, f"{op}:{path}"),
                    name=f"pfs-{op}",
                )
                for ost, nbytes in self._stripe_extents(meta, offset, length)
            ]
            yield self.env.all_of(parts)
        else:
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


STRIPE = 4096

IO_REQUESTS = st.lists(st.tuples(
    st.integers(0, 6),                          # issue instant, in UNITs
    st.sampled_from(["direct", "nested"]),      # own process or yield from
    st.integers(0, 1),                          # file
    st.sampled_from(["read", "write"]),
    st.integers(0, 5 * STRIPE),                 # offset
    st.integers(0, 4 * STRIPE),                 # length
), min_size=1, max_size=14)

SLOWDOWNS = st.lists(st.tuples(
    st.integers(0, 6),                          # instant, in UNITs
    st.integers(0, 2),                          # OST (mod num_osts)
    st.sampled_from([2.0, 10.0]),               # factor
    st.integers(0, 3),                          # lasts, in UNITs
), max_size=3)

PFS_SCENARIOS = st.tuples(
    st.integers(1, 3),                          # OSTs
    st.integers(1, 2),                          # service slots per OST
    st.sampled_from([0.0, 0.15]),               # jitter sigma
    st.booleans(),                              # background interference
    IO_REQUESTS,
    SLOWDOWNS,
)


def run_pfs(cls, scenario):
    """Every request's record, the completions in pop order, each OST
    stream's jitter draws and the :class:`PopTrace`, for ``scenario``
    on a PFS of ``cls``."""
    num_osts, slots, sigma, interference, requests, slowdowns = scenario
    env = Environment()
    trace = env.add_monitor(PopTrace())
    spec = PFSSpec(num_osts=num_osts, ost_service_slots=slots,
                   stripe_size=STRIPE, default_stripe_count=3,
                   jitter_sigma=sigma, ost_bandwidth=2.0e7,
                   request_latency=UNIT / 8, interference_interval=UNIT)
    pfs = cls(env, spec, RandomStreams(7))
    if interference:
        pfs.start_interference()
    draws = {}
    lognormal_factor = pfs.streams.lognormal_factor

    def recording_factor(name, sigma):
        factor = lognormal_factor(name, sigma)
        draws.setdefault(name, []).append((env.now, factor))
        return factor
    pfs.streams.lognormal_factor = recording_factor
    for index in range(2):
        pfs.create_file(f"/f{index}", 3 * STRIPE, stripe_count=index + 2)

    records, completions = {}, []

    def nested(index, path, op, offset, length):
        records[index] = yield from pfs.io(path, op, offset, length)

    def script():
        # Everything due at one instant is issued in one resume, in
        # list order, as a task's planned I/O is.
        for tick in range(7):
            if tick * UNIT > env.now:
                yield env.timeout_at(tick * UNIT)
            for tick_, ost, factor, lasts in slowdowns:
                if tick_ == tick:
                    pfs.inject_ost_slowdown(ost % num_osts, factor,
                                            env.now + lasts * UNIT)
            for index, (tick_, how, file, op, offset, length) in \
                    enumerate(requests):
                if tick_ != tick:
                    continue
                path = f"/f{file}"
                if how == "direct":
                    proc = env.process(pfs.io(path, op, offset, length))
                else:
                    proc = env.process(
                        nested(index, path, op, offset, length))
                proc.callbacks.append(
                    lambda event, index=index: completions.append(
                        (index, env.now,
                         event.value if event.value is not None
                         else records[index])))

    env.process(script())
    env.run(until=1.0)
    return ([(index, record.path, record.op, record.offset, record.length,
              record.start, record.stop)
             for index, _, record in completions],
            [(index, now) for index, now, _ in completions],
            draws, trace.pops)


@given(PFS_SCENARIOS)
@SETTINGS
def test_extent_chain_matches_serve_processes(scenario):
    """Same records, same completions in the same pop order, the same
    jitter draws in the same order on every OST's stream, and the same
    popped events."""
    chained = run_pfs(ParallelFileSystem, scenario)
    reference = run_pfs(ProcessPerExtentPFS, scenario)
    assert len(chained[0]) == len(scenario[4])
    assert chained == reference


def test_extents_queue_fifo_at_a_single_slot():
    """One OST with one slot serves three same-instant extents back to
    back, each drawing its jitter when it is granted."""
    scenario = (1, 1, 0.15, False,
                [(0, "direct", 0, "read", 0, 3 * STRIPE)], [])
    records, completions, draws, pops = run_pfs(ParallelFileSystem,
                                                scenario)
    ((_, _, _, _, length, start, stop),) = records
    assert (length, start) == (3 * STRIPE, 0.0)
    grants = [now for now, _ in draws["pfs.jitter.0"]]
    assert len(grants) == 3 and grants[0] == 0.0 < grants[1] < grants[2]
    assert stop > grants[2]
    assert (records, completions, draws, pops) == \
        run_pfs(ProcessPerExtentPFS, scenario)


# ---------------------------------------------------------------------------
# Mofka flushes
# ---------------------------------------------------------------------------

class ProcessFlushProducer(Producer):
    """The flushes as they were: each one a process around its RPC."""

    def _flush_once(self):
        return self.env.process(self._flush_process())

    def _flush_process(self):
        batch = self._buffer[:self.batch_size]
        self._buffer = self._buffer[self.batch_size:]
        start = self.env.now
        yield self.env.process(self.service.produce_batch(
            self.topic, batch, counter=self._counter,
        ))
        self._counter += len(batch)
        self.n_flushes += 1
        if self.on_flush is not None:
            self.on_flush(len(batch), self.env.now - start)


@given(PRODUCER_SCENARIOS)
@SETTINGS
def test_flush_event_matches_flush_process(scenario):
    """Every flush completes at the same instant, in the same order
    across producers, appends the same entries, and the same events
    pop."""
    traces = PopTrace(), PopTrace()
    assert run_producers(Producer, scenario, traces[0]) == \
        run_producers(ProcessFlushProducer, scenario, traces[1])
    assert traces[0].pops == traces[1].pops


class RPCFailed(RuntimeError):
    pass


class FailingService(MofkaService):
    def produce_batch(self, topic_name, batch, partition_key=None,
                      counter=0):
        yield self.env.timeout(UNIT)
        raise RPCFailed(f"batch of {len(batch)}")


@pytest.mark.parametrize("cls", [Producer, ProcessFlushProducer])
def test_failed_rpc_fails_the_flusher(cls):
    """A produce RPC that raises surfaces from the run at the instant
    it fails, through the flusher, and counts no flush."""
    env = Environment()
    service = FailingService(env)
    service.create_topic("t", 1)
    producer = cls(env, service, "t", batch_size=2, linger=UNIT)
    producer.push({"n": 0})
    with pytest.raises(RPCFailed, match="batch of 1"):
        env.run()
    assert (env.now, producer.n_flushes) == (2 * UNIT, 0)
    assert not producer._flusher.is_alive
