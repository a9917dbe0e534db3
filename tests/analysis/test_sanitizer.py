"""Event-ordering sanitizer: engine-level hazard scenarios."""

import pytest

from repro.analysis import EventOrderSanitizer
from repro.sim import Environment, Event


def attached():
    env = Environment()
    sanitizer = EventOrderSanitizer().attach(env)
    return env, sanitizer


class TestAttachment:
    def test_attach_sets_monitor(self):
        env, sanitizer = attached()
        assert env.monitor is sanitizer
        sanitizer.detach()
        assert env.monitor is None

    def test_second_monitor_composes(self):
        """A second observer joins a MonitorChain instead of clobbering
        (or being rejected by) the first — the sanitizer and the
        telemetry sampler must be able to watch the same run."""
        from repro.sim import MonitorChain

        env, first = attached()
        second = EventOrderSanitizer().attach(env)
        assert isinstance(env.monitor, MonitorChain)
        assert env.monitor.monitors == [first, second]

        def chain():
            yield env.timeout(0.1)

        env.run(until=env.process(chain()))
        assert first.events_processed > 0
        assert second.events_processed == first.events_processed

        second.detach()
        assert env.monitor is first
        first.detach()
        assert env.monitor is None


class TestCleanRuns:
    def test_zero_delay_cascades_clean(self):
        env, sanitizer = attached()

        def chain():
            for _ in range(20):
                yield env.timeout(0.0)

        for _ in range(5):
            env.process(chain())
        env.run()
        report = sanitizer.report()
        assert report.active == []
        assert report.stats["events_processed"] > 0

    def test_independent_periodic_timers_coincide_without_findings(self):
        # Two unrelated heartbeat grids aligning at common multiples is
        # the normal, deterministic case (linger vs. monitor interval).
        env, sanitizer = attached()

        def beat(period):
            for _ in range(10):
                yield env.timeout(period)

        env.process(beat(0.05))
        env.process(beat(0.25))
        env.run()
        report = sanitizer.report()
        assert report.active == []
        assert report.stats["tie_groups"] > 0

    def test_producer_flush_pattern_clean(self):
        # AnyOf(store get, linger timer) with the get fired zero-delay:
        # the structural case the exemption must keep quiet about.
        from repro.sim import Store
        env, sanitizer = attached()
        store = Store(env)

        def producer():
            for _ in range(5):
                yield env.timeout(0.05)
                store.put("kick")

        def flusher():
            while True:
                get = store.get()
                timer = env.timeout(0.05)
                result = yield get | timer
                if not get.triggered:
                    store.cancel(get)
                if env.now > 0.6:
                    return

        env.process(producer())
        env.process(flusher())
        env.run(until=1.0)
        assert sanitizer.report().active == []


class TestTieOrder:
    def test_shared_waiter_on_accidental_tie_flagged(self):
        env, sanitizer = attached()
        first = env.timeout(1.0)          # origin 0.0 -> fires at 1.0

        def second_then_wait():
            yield env.timeout(0.5)
            second = env.timeout(0.5)     # origin 0.5 -> also 1.0
            yield env.all_of([first, second])

        env.process(second_then_wait())
        env.run()
        findings = sanitizer.report().active
        assert [f.rule for f in findings] == ["sanitize-tie-order"]
        assert findings[0].time == pytest.approx(1.0)

    def test_any_of_on_accidental_tie_flagged(self):
        """The first timer triggers the ``AnyOf``; the tied one pops
        before the condition does, while the condition's check is
        still among its callbacks."""
        env, sanitizer = attached()
        first = env.timeout(1.0)          # origin 0.0 -> fires at 1.0

        def second_then_wait():
            yield env.timeout(0.5)
            second = env.timeout(0.5)     # origin 0.5 -> also 1.0
            yield first | second

        env.process(second_then_wait())
        env.run()
        findings = sanitizer.report().active
        assert [f.rule for f in findings] == ["sanitize-tie-order"]
        assert findings[0].time == pytest.approx(1.0)

    def test_disjoint_waiters_on_accidental_tie_exempt(self):
        env, sanitizer = attached()

        def wait_for(delay, start):
            if start:
                yield env.timeout(start)
            yield env.timeout(delay)

        env.process(wait_for(1.0, 0.0))   # origin 0.0 -> 1.0
        env.process(wait_for(0.5, 0.5))   # origin 0.5 -> 1.0
        env.run()
        assert sanitizer.report().active == []


class TestForeignResume:
    def test_out_of_band_resume_flagged(self):
        env, sanitizer = attached()

        def waiter():
            yield env.event()     # parked forever

        process = env.process(waiter())
        env.run(until=env.timeout(0.0))
        assert process.is_alive

        rogue = env.event()
        rogue.callbacks.append(process._resume)
        rogue.succeed("out-of-band")
        env.run(until=env.timeout(0.0))
        rules = [f.rule for f in sanitizer.report().active]
        assert "sanitize-foreign-resume" in rules

    def test_interrupt_is_legal(self):
        env, sanitizer = attached()

        def sleeper():
            try:
                yield env.timeout(10.0)
            except Exception:
                pass

        def interrupter(target):
            yield env.timeout(0.5)
            target.interrupt("wake")

        target = env.process(sleeper())
        env.process(interrupter(target))
        env.run()
        assert sanitizer.report().active == []


class TestNegativeDelay:
    def test_scheduling_into_the_past_flagged(self):
        env, sanitizer = attached()
        env.run(until=env.timeout(1.0))
        event = Event(env)
        event._ok = True
        event._value = None
        env._schedule(event, delay=-0.5)
        rules = [f.rule for f in sanitizer.report().active]
        assert "sanitize-negative-delay" in rules


class TestFindingCap:
    def test_cap_reports_dropped_count(self):
        env, sanitizer = attached()
        sanitizer.max_findings = 3
        env.run(until=env.timeout(1.0))
        for _ in range(5):
            event = Event(env)
            event._ok = True
            event._value = None
            env._schedule(event, delay=-0.1)
        report = sanitizer.report()
        assert len(report.findings) == 3
        assert report.stats["findings_dropped"] == 2


class TestWorkflowIntegration:
    def test_small_workflow_sanitizes_clean(self):
        from repro.workflows import ImageProcessingWorkflow, run_workflow
        sanitizer = EventOrderSanitizer()
        result = run_workflow(ImageProcessingWorkflow(scale=0.04),
                              seed=3, monitor=sanitizer)
        report = sanitizer.report()
        assert report.active == []
        assert report.stats["events_processed"] > 1000
        assert result.wall_time > 0
