"""Per-layer cost accounting for the traced benchmark run.

Everything here lives outside the package: the tracer times calls into
each layer's public entry points by patching them on their classes for
the duration of one traced repetition, and an engine observer (passed
through ``run_workflow(monitor=)``) times every engine callback and
attributes it to the simulation process it resumes.

Spans nest on one stack.  A span's *self* time is its duration minus
the time of the spans opened inside it, so the self times of all
layers add up to the wall time of the outermost span; whatever the
outermost span did outside any layer is reported as unattributed.
"""

from __future__ import annotations

import pickle
import time
from collections import Counter, defaultdict

from repro.core import AnalysisSession, RunData
from repro.core import views as core_views
from repro.darshan import DarshanReport, DarshanRuntime
from repro.dasklike.scheduler import Scheduler
from repro.dasklike.stealing import WorkStealing
from repro.instrument import recorder
from repro.instrument.plugins import MofkaSchedulerPlugin, MofkaWorkerPlugin
from repro.jobs import BatchSystem
from repro.mofka import MofkaService, Producer
from repro.mofka.topic import Partition
from repro.platform import Cluster, ParallelFileSystem
from repro.sim import Environment, Process
from repro.sim.engine import Condition, Initialize, Timeout
from repro.workflows import runner

perf = time.perf_counter

#: Scheduler entry points timed as scheduler work (the same set the
#: scheduler-scale benchmark times), plus the stealing round.
SCHEDULER_ENTRY_POINTS = ("update_graph", "task_finished", "task_erred",
                          "task_timed_out", "add_replica",
                          "handle_worker_failure")

#: Plugin hook -> provenance event type it emits.
PLUGIN_HOOKS = {"transition": "transition", "task_finished": "task_run",
                "communication": "communication", "warning": "warning",
                "spill_moved": "spill", "steal": "steal",
                "task_added": "task_added"}

#: Process-name suffixes of the periodic background processes.
_SUFFIX_BUCKETS = (("-loop", "worker.loop"), ("-gc", "worker.gc"),
                   ("-heartbeat", "worker.heartbeat"),
                   ("-spill", "worker.spill"),
                   ("-flusher", "producer.flusher"))

#: Process-name prefixes (or whole generator names) per bucket.
_PREFIX_BUCKETS = (("compute-", "worker.compute"),
                   ("fetch-", "worker.gather"), ("resolve-", "worker.gather"),
                   ("unspill-", "worker.gather"),
                   ("_gather", "worker.gather"),
                   ("_fetch_one", "worker.gather"),
                   ("_flush_once", "producer.flush"),
                   ("flush", "producer.flush"), ("close", "producer.flush"),
                   ("produce_batch", "mofka.produce"),
                   ("transfer", "network"),
                   ("pfs-", "pfs"), ("_serve", "pfs"), ("io", "pfs"),
                   ("dispatch-", "scheduler.process"),
                   ("retry-", "scheduler.process"),
                   ("scheduler-liveness", "scheduler.process"),
                   ("work-stealing", "scheduler.process"))

#: Module prefixes for callbacks that are not process resumptions.
_MODULE_BUCKETS = (("repro.sim", "sim"),
                   ("repro.dasklike.scheduler", "scheduler.process"),
                   ("repro.dasklike.worker", "worker.gather"))


def process_bucket(name: str) -> str:
    """The layer bucket a simulation process's callbacks are charged to."""
    for suffix, bucket in _SUFFIX_BUCKETS:
        if name.endswith(suffix):
            return bucket
    for prefix, bucket in _PREFIX_BUCKETS:
        if name.startswith(prefix):
            return bucket
    return "other"


def callback_bucket(callback) -> str:
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, Process):
        return process_bucket(owner.name)
    module = getattr(callback, "__module__", None) or ""
    for prefix, bucket in _MODULE_BUCKETS:
        if module.startswith(prefix):
            return bucket
    return "other"


class Tracer:
    """Span stack plus per-layer self time, inclusive time and counts."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.wakeups: Counter = Counter()
        self.engine_events: Counter = Counter()
        self.processes = 0
        #: Instrumented runs constructed while installed (for counters).
        self.runs: list = []
        #: Wall time of ``run_workflow`` calls, and the part of it the
        #: layers' self times account for.
        self.phase_s = 0.0
        self.attributed_s = 0.0
        self.result_bytes = 0
        #: Time the tracer spent measuring (pickling results), to be
        #: taken out of the traced journey's wall time.
        self.excluded_s = 0.0
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def span(self, fn, layer: str, count: str | None = None):
        """``fn`` wrapped in a span charged to ``layer``; each call
        counts under ``count`` (default: ``layer``)."""
        calls, charge = self.calls, self.charge
        count = count or layer

        def timed(*args, **kwargs):
            calls[count] += 1
            return charge(fn, layer, args, kwargs)
        return timed

    def span_generator(self, fn, layer: str):
        """Generator function ``fn`` with every resumption of the
        generators it returns charged to ``layer``."""
        tracer = self

        def timed(*args, **kwargs):
            tracer.calls[layer] += 1
            return _TimedGenerator(fn(*args, **kwargs), tracer, layer)
        return timed

    def charge(self, fn, layer: str, args: tuple, kwargs=None):
        """Run ``fn(*args, **kwargs)`` as a span charged to ``layer``:
        its duration less that of the spans opened inside it."""
        stack = self._stack
        stack.append(0.0)
        start = perf()
        try:
            return fn(*args, **kwargs) if kwargs else fn(*args)
        finally:
            elapsed = perf() - start
            self.self_s[layer] += elapsed - stack.pop()
            self.incl_s[layer] += elapsed
            if stack:
                stack[-1] += elapsed

    # -- patching ----------------------------------------------------------
    def patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def wrap(self, owner, name: str, layer: str, count: str | None = None):
        original = owner.__dict__[name]
        if isinstance(original, classmethod):
            self.patch(owner, name, classmethod(
                self.span(original.__func__, layer, count)))
        else:
            self.patch(owner, name, self.span(original, layer, count))

    def install(self, workflow_class) -> "Tracer":
        """Patch every layer entry point; undo with :meth:`restore`."""
        wrap = self.wrap
        wrap(Environment, "run", "sim")
        for cls in (Cluster, BatchSystem):
            wrap(cls, "__init__", "setup")
        init = recorder.InstrumentedRun.__dict__["__init__"]
        runs = self.runs

        def capture(run, *args, **kwargs):
            runs.append(run)
            init(run, *args, **kwargs)
        self.patch(recorder.InstrumentedRun, "__init__",
                   self.span(capture, "setup"))
        wrap(workflow_class, "prepare", "setup")
        for name in SCHEDULER_ENTRY_POINTS:
            wrap(Scheduler, name, "scheduler")
        wrap(WorkStealing, "balance", "scheduler")
        for cls in (MofkaSchedulerPlugin, MofkaWorkerPlugin):
            for hook, event_type in PLUGIN_HOOKS.items():
                if hook in cls.__dict__:
                    wrap(cls, hook, "plugins", f"plugins.{event_type}")
        wrap(Producer, "push", "producer.push")
        wrap(Partition, "append", "mofka.append")
        wrap(Partition, "read", "mofka.read")
        wrap(MofkaService, "dump", "mofka.dump")
        self.patch(DarshanRuntime, "io", self.span_generator(
            DarshanRuntime.__dict__["io"], "darshan.io"))
        self.patch(ParallelFileSystem, "io", self.span_generator(
            ParallelFileSystem.__dict__["io"], "pfs"))
        wrap(DarshanRuntime, "finalize", "darshan.finalize")
        wrap(recorder.InstrumentedRun, "persist", "persist")
        for name in ("capture_provenance", "write_provenance"):
            wrap(recorder, name, "provenance")
        wrap(recorder, "write_log", "darshan.write")
        wrap(RunData, "load", "ingest")
        wrap(DarshanReport, "from_directory", "ingest.darshan_load")
        builders = core_views.VIEW_BUILDERS
        for name, builder in list(builders.items()):
            self._patches.append((builders, name, builder))
            builders[name] = self.span(builder, f"views.{name}")
        wrap(AnalysisSession, "phase_breakdown", "analysis.phases")
        wrap(AnalysisSession, "critical_path_summary",
             "analysis.critical_path")
        self._wrap_runner()
        return self

    def _wrap_runner(self) -> None:
        """``run_workflow`` as the outermost span.  Records the layer
        accounting of the call (its wall time against the self time of
        every layer inside it) and the pickled size of its result,
        taken before anything analyses it."""
        timed = self.span(runner.__dict__["run_workflow"], "runner")
        self_s = self.self_s

        def run_workflow(*args, **kwargs):
            before = sum(self_s.values()) - self_s["runner"]
            start = perf()
            result = timed(*args, **kwargs)
            wall = perf() - start
            self.phase_s += wall
            self.attributed_s += (sum(self_s.values()) - self_s["runner"]
                                  - before)
            pickled = perf()
            self.result_bytes += len(pickle.dumps(result))
            self.excluded_s += perf() - pickled
            return result
        self.patch(runner, "run_workflow", run_workflow)

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    def observer(self) -> "EngineObserver":
        return EngineObserver(self)


class _TimedGenerator:
    """Generator proxy that times each resumption as one span.

    Works both as a process body and under ``yield from`` (which calls
    ``send``/``throw`` on the delegate)."""

    def __init__(self, generator, tracer: Tracer, layer: str):
        self._generator = generator
        self._tracer = tracer
        self._layer = layer
        self.__name__ = getattr(generator, "__name__", "process")

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.charge(self._generator.send, self._layer, (None,))

    def send(self, value):
        return self._tracer.charge(self._generator.send, self._layer,
                                   (value,))

    def throw(self, *exc_info):
        return self._tracer.charge(self._generator.throw, self._layer,
                                   exc_info)

    def close(self):
        self._generator.close()


class EngineObserver:
    """Engine monitor: counts popped events per class and times every
    callback, charging it to the layer of the process it resumes.

    Attaching a monitor switches ``Environment.run`` from its inline
    loop to the ``step()`` loop, so the traced ``sim.*`` times are
    those of ``step()``/``_pop_next`` plus these hooks, not of the loop
    untraced runs take.  The event counts are the same on both."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def attach(self, env) -> None:
        env.add_monitor(self)

    def on_schedule(self, event, when, priority, seq, now) -> None:
        pass

    def before_callback(self, event, callback) -> None:
        pass

    def on_step(self, event, when, priority, seq) -> None:
        tracer = self.tracer
        kind = type(event)
        if kind is Timeout:
            tracer.engine_events["timeout"] += 1
        elif kind is Initialize:
            tracer.engine_events["initialize"] += 1
            tracer.processes += len(event.callbacks)
        elif kind is Process:
            tracer.engine_events["process"] += 1
        elif isinstance(event, Condition):
            tracer.engine_events["condition"] += 1
        else:
            tracer.engine_events["plain"] += 1
        # The engine detaches ``event.callbacks`` right after this hook
        # and calls each entry, so swapping in timed wrappers here times
        # exactly the callback bodies and nothing of the kernel.
        event.callbacks = [self._timed(callback)
                           for callback in event.callbacks]

    def _timed(self, callback):
        bucket = callback_bucket(callback)
        tracer = self.tracer
        tracer.wakeups[bucket] += 1
        charge = tracer.charge

        def timed(event):
            charge(callback, bucket, (event,))
        return timed
