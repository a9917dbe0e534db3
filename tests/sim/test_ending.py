"""Ending processes without running them: ``Process.end`` and
``Environment.close``, the kernel half of a run that frees itself."""

import gc
import weakref

import pytest

from repro.sim import (Environment, Interrupt, Process, Resource,
                       SimulationError, Store)


class WeakProcess(Process):
    """A process a test can hold a weak reference to."""


class WeakEnvironment(Environment):
    """An environment a test can hold a weak reference to."""


def _parked(env, wait, log):
    """A process body that waits on ``wait(env)`` and logs its exit."""
    try:
        yield wait(env)
        log.append("resumed")
    finally:
        log.append("finally")


WAITS = {
    "timer": lambda env: env.timeout(5.0),
    "plain event": lambda env: env.event(),
    "condition": lambda env: env.event() | env.timeout(5.0),
}


@pytest.mark.parametrize("wait", sorted(WAITS))
def test_ended_process_runs_its_finally_schedules_nothing_and_is_freed(wait):
    gc.collect()
    gc.disable()
    try:
        env = Environment()
        log = []
        generator = _parked(env, WAITS[wait], log)
        generator_ref = weakref.ref(generator)
        proc = WeakProcess(env, generator)
        del generator
        env.run(until=1.0)
        seq = env._seq
        proc.end()
        assert log == ["finally"]
        assert env._seq == seq          # nothing scheduled
        assert not proc.is_alive and not proc.triggered
        proc_ref = weakref.ref(proc)
        del proc
        env.run()                       # the timer still fires, to no one
        assert log == ["finally"]
        assert proc_ref() is None
        assert generator_ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def _quick(env):
    yield env.timeout(0.0)
    return "done"


def test_end_before_start_and_after_finish():
    env = Environment()
    log = []
    unstarted = env.process(_parked(env, WAITS["timer"], log))
    unstarted.end()
    finished = env.process(_quick(env))
    env.run()
    finished.end()                      # a no-op on a finished process
    assert log == []                    # never started: no finally to run
    assert finished.value == "done"
    assert env.now == 0.0


def test_ended_process_cannot_be_interrupted_and_ignores_a_pending_one():
    env = Environment()
    log = []
    victim = env.process(_parked(env, WAITS["plain event"], log))

    def interrupter():
        victim.interrupt("late")
        victim.end()
        yield env.timeout(0.0)

    env.process(interrupter())
    env.run()
    assert log == ["finally"]
    with pytest.raises(SimulationError, match="finished"):
        victim.interrupt()


def test_a_process_cannot_end_itself():
    env = Environment()
    errors = []

    def body():
        try:
            proc.end()
        except SimulationError as exc:
            errors.append(str(exc))
        yield env.timeout(1.0)

    proc = env.process(body())
    env.run()
    assert errors == ["a process cannot end itself"]


def test_close_ends_what_waits_on_the_schedule_and_drops_it():
    """Processes waiting on a timer, directly or through a condition,
    are ended; a process parked on an unscheduled event or on another
    process is left to its owner, and the queue is empty."""
    env = Environment()
    log = []
    store = Store(env)
    never = env.event()

    def ticker(name):
        try:
            while True:
                yield env.timeout(1.0)
        finally:
            log.append(name)

    def flusher():
        try:
            while True:
                yield store.get() | env.timeout(0.5)
        finally:
            log.append("flusher")

    def waiter(event):
        try:
            yield event
        finally:
            log.append("waiter")

    ticking = env.process(ticker("ticker"))
    env.process(flusher())
    left = [env.process(waiter(ticking)), env.process(waiter(never))]
    env.run(until=2.25)
    env.close()
    assert sorted(log) == ["flusher", "ticker"]
    assert not env.has_events
    assert all(proc.is_alive for proc in left)
    assert store._getters[0].callbacks == []
    env.run()
    assert env.now == 2.25


def test_close_sweeps_what_a_finally_block_schedules():
    """A ``finally`` that releases a resource grants the next request;
    its waiter is ended in turn and nothing stays queued."""
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def holder():
        with res.request() as req:
            yield req
            try:
                yield env.timeout(10.0)
            finally:
                log.append("holder")

    def queued():
        with res.request() as req:
            try:
                yield req
                log.append("granted")
            finally:
                log.append("queued")

    env.process(holder())
    env.process(queued())
    env.run(until=1.0)
    env.close()
    assert log == ["holder", "queued"]
    assert not env.has_events
    assert res.count == 0


def test_close_frees_periodic_processes_by_reference_counting():
    """The shape of a finished run: periodic processes wait on the
    clock, each referring to its owner, which refers to the
    environment.  After ``close`` nothing is left for the cyclic GC."""

    class Component:
        def __init__(self, env):
            self.env = env
            env.process(self.loop())

        def loop(self):
            try:
                while True:
                    yield self.env.timeout(1.0)
            except Interrupt:
                pass

    gc.collect()
    gc.disable()
    try:
        env = WeakEnvironment()
        components = [Component(env) for _ in range(3)]
        env.run(until=3.5)
        env.close()
        env_ref = weakref.ref(env)
        del env, components
        assert env_ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
