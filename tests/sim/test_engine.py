"""Unit tests for the discrete-event simulation engine."""

import gc
import weakref

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
    Store,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(5.0)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [5.0]


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(1.0)

    env.process(proc())
    env.run(until=3.5)
    assert env.now == 3.5


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=2.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_process_return_value_propagates():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        return 42

    def parent(results):
        value = yield env.process(child())
        results.append(value)

    results = []
    env.process(parent(results))
    env.run()
    assert results == [42]


def test_run_until_event_returns_value():
    env = Environment()

    def child():
        yield env.timeout(2.0)
        return "done"

    proc = env.process(child())
    assert env.run(until=proc) == "done"
    assert env.now == 2.0


def test_simultaneous_events_fifo_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_unhandled_process_failure_raises():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(bad())
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_failure_propagates_to_waiter():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise KeyError("inner")

    def waiter(log):
        try:
            yield env.process(bad())
        except KeyError:
            log.append("caught")

    log = []
    env.process(waiter(log))
    env.run()
    assert log == ["caught"]


def test_event_succeed_twice_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_yield_non_event_is_error():
    env = Environment()

    def bad():
        yield 17

    env.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_all_of_waits_for_all():
    env = Environment()
    times = []

    def waiter():
        yield AllOf(env, [env.timeout(1.0), env.timeout(3.0)])
        times.append(env.now)

    env.process(waiter())
    env.run()
    assert times == [3.0]


def test_any_of_fires_on_first():
    env = Environment()
    times = []

    def waiter():
        yield AnyOf(env, [env.timeout(1.0), env.timeout(3.0)])
        times.append(env.now)

    env.process(waiter())
    env.run()
    assert times == [1.0]


def test_condition_operators():
    env = Environment()
    times = []

    def waiter():
        yield env.timeout(2.0) & env.timeout(4.0)
        times.append(env.now)
        yield env.timeout(1.0) | env.timeout(9.0)
        times.append(env.now)

    env.process(waiter())
    env.run()
    assert times == [4.0, 5.0]


def test_any_of_detaches_from_the_get_it_no_longer_needs():
    """Once ``get | timer`` has fired on the timer, the condition's
    check leaves the pending get's callbacks, so a withdrawn get and
    the condition do not refer to each other."""
    env = Environment()
    store = Store(env)
    get = store.get()
    timer = env.timeout(1.0)
    condition = get | timer
    env.run(until=condition)
    store.cancel(get)
    assert condition.value == {timer: None}
    assert not get.triggered
    assert get.callbacks == []


def test_condition_value_holds_only_processed_components():
    """A timer still waiting in the queue has a value from construction
    on; the condition reports only what has been processed, as SimPy
    does."""
    env = Environment()
    store = Store(env)
    get = store.get()
    timer = env.timeout(1.0)
    condition = get | timer

    def putter():
        yield env.timeout(0.1)
        store.put("x")

    env.process(putter())
    assert env.run(until=condition) == {get: "x"}
    assert env.now == 0.1


def test_all_of_detaches_from_the_rest_when_a_component_fails():
    env = Environment()
    failing, pending = env.event(), env.event()
    condition = failing & pending
    failing.fail(ValueError("boom"))
    with pytest.raises(ValueError):
        env.run(until=condition)
    assert pending.callbacks == []


def test_triggered_condition_registers_on_no_later_event():
    env = Environment()
    done = env.timeout(0.0)
    env.run()
    pending = env.event()
    condition = AnyOf(env, [done, pending])
    assert condition.triggered
    assert pending.callbacks == []


def test_withdrawn_get_and_its_condition_freed_by_reference_counting():
    """The Mofka flusher's wait: a get withdrawn after ``get | timer``
    fired on the timer leaves nothing for the cyclic GC."""
    gc.collect()
    gc.disable()
    try:
        env = Environment()
        store = Store(env)

        def waiter():
            get = store.get()
            yield get | env.timeout(1.0)
            store.cancel(get)

        env.process(waiter())
        env.run()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_interrupt_reaches_process():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt as exc:
            log.append((env.now, exc.cause))

    def interrupter(target):
        yield env.timeout(3.0)
        target.interrupt("steal")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert log == [(3.0, "steal")]


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt:
            pass
        yield env.timeout(1.0)
        log.append(env.now)

    def interrupter(target):
        yield env.timeout(2.0)
        target.interrupt()

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert log == [3.0]


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    def late(target):
        yield env.timeout(5.0)
        with pytest.raises(SimulationError):
            target.interrupt()

    target = env.process(quick())
    env.process(late(target))
    env.run()


def _sleeper(env, log):
    try:
        yield env.timeout(10.0)
    except Interrupt as exc:
        log.append((env.now, exc.cause))


def test_interrupt_before_start_from_outside_any_process():
    env = Environment()
    log = []
    victim = env.process(_sleeper(env, log))
    victim.interrupt("early")
    env.run()
    assert log == [(0.0, "early")]
    assert victim.ok


def test_interrupt_before_start_from_a_process_in_its_first_step():
    env = Environment()
    log = []

    def spawner():
        victim = env.process(_sleeper(env, log))
        victim.interrupt("first-step")
        yield env.timeout(1.0)

    env.run(until=env.process(spawner()))
    assert log == [(0.0, "first-step")]


def test_interrupt_between_processes_sharing_a_wait_target():
    env = Environment()
    gate = env.event()
    log = []

    def first():
        yield gate
        second_proc.interrupt("from-first")

    def second():
        yield gate
        yield from _sleeper(env, log)

    def opener():
        yield env.timeout(1.0)
        gate.succeed()

    env.process(first())
    second_proc = env.process(second())
    env.process(opener())
    env.run()
    assert log == [(1.0, "from-first")]
    assert second_proc.ok


def test_second_interrupt_of_an_instant_skips_a_finished_process():
    env = Environment()
    log = []
    victim = env.process(_sleeper(env, log))

    def interrupter():
        yield env.timeout(1.0)
        victim.interrupt("first")
        victim.interrupt("second")

    env.process(interrupter())
    env.run()
    assert log == [(1.0, "first")]
    assert victim.ok


def test_second_interrupt_of_an_instant_reaches_the_new_wait():
    env = Environment()
    log = []

    def victim_body():
        for _ in range(2):
            try:
                yield env.timeout(10.0)
            except Interrupt as exc:
                log.append((env.now, exc.cause))
        return env.now

    victim = env.process(victim_body())

    def interrupter():
        yield env.timeout(1.0)
        victim.interrupt("first")
        victim.interrupt("second")

    env.process(interrupter())
    env.run()
    assert log == [(1.0, "first"), (1.0, "second")]
    assert victim.value == 1.0


def test_returned_process_is_freed_by_reference_counting():
    """A process that returned holds no reference cycle, so it, its
    generator and its value go as soon as the last outside reference
    does."""

    class Value:
        pass

    gc.disable()
    try:
        env = Environment()

        def body():
            yield env.timeout(1.0)
            return Value()

        generator = body()
        generator_ref = weakref.ref(generator)
        proc = env.process(generator)
        del generator
        env.run()
        value_ref = weakref.ref(proc.value)
        del proc
        assert generator_ref() is None
        assert value_ref() is None
    finally:
        gc.enable()


def test_deadlock_detected_when_waiting_on_unreachable_event():
    env = Environment()
    never = env.event()

    def waiter():
        yield never

    env.process(waiter())
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=never)


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    assert env.peek() == 7.0
    env.run()
    assert env.peek() == float("inf")


def test_nested_processes_chain():
    env = Environment()

    def level3():
        yield env.timeout(1.0)
        return 3

    def level2():
        value = yield env.process(level3())
        yield env.timeout(1.0)
        return value + 2

    def level1(results):
        value = yield env.process(level2())
        results.append((env.now, value))

    results = []
    env.process(level1(results))
    env.run()
    assert results == [(2.0, 5)]
