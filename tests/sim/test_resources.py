"""Unit tests for Resource, Store, and Container primitives."""

import pytest

from repro.sim import Container, Environment, Resource, Store


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    log = []

    def user(tag, hold):
        req = res.request()
        yield req
        log.append((tag, env.now))
        yield env.timeout(hold)
        res.release(req)

    env.process(user("a", 5))
    env.process(user("b", 5))
    env.process(user("c", 5))
    env.run()
    assert log == [("a", 0.0), ("b", 0.0), ("c", 5.0)]


def test_resource_fifo_queueing():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(tag):
        req = res.request()
        yield req
        order.append(tag)
        yield env.timeout(1)
        res.release(req)

    for tag in range(5):
        env.process(user(tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_resource_context_manager_releases():
    env = Environment()
    res = Resource(env, capacity=1)
    times = []

    def user():
        with res.request() as req:
            yield req
            yield env.timeout(2)
        times.append(env.now)

    def second():
        yield env.timeout(0.5)
        req = res.request()
        yield req
        times.append(env.now)
        res.release(req)

    env.process(user())
    env.process(second())
    env.run()
    assert times == [2.0, 2.0]
    assert res.count == 0


def test_grants_carry_no_value():
    """A grant whose value was the request itself would be a reference
    cycle per request; as in SimPy, a grant carries ``None``."""
    env = Environment()
    res = Resource(env, capacity=1)
    first, queued = res.request(), res.request()
    env.run()
    res.release(first)
    env.run()
    assert first.value is None and queued.value is None


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_release_queued_request_cancels_it():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder():
        req = res.request()
        yield req
        yield env.timeout(10)
        res.release(req)

    def impatient(log):
        yield env.timeout(1)
        req = res.request()
        # Give up without ever being granted.
        res.release(req)
        log.append("gave-up")

    log = []
    env.process(holder())
    env.process(impatient(log))
    env.run()
    assert log == ["gave-up"]
    assert res.count == 0


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        item = yield store.get()
        got.append((env.now, item))

    def producer():
        yield env.timeout(4)
        yield store.put("x")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [(4.0, "x")]


def test_store_fifo_item_order():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for i in range(3):
            yield store.put(i)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == [0, 1, 2]


def test_store_bounded_put_blocks():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer():
        yield store.put("a")
        log.append(("put-a", env.now))
        yield store.put("b")
        log.append(("put-b", env.now))

    def consumer():
        yield env.timeout(5)
        item = yield store.get()
        log.append((f"got-{item}", env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert ("put-a", 0.0) in log
    assert ("put-b", 5.0) in log


def test_store_len():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.put(2)
    assert len(store) == 2


def test_container_levels():
    env = Environment()
    tank = Container(env, capacity=10, init=5)
    assert tank.level == 5

    def proc():
        yield tank.get(3)
        assert tank.level == 2
        yield tank.put(8)
        assert tank.level == 10

    env.process(proc())
    env.run()


def test_container_get_blocks_until_enough():
    env = Environment()
    tank = Container(env, capacity=100, init=0)
    times = []

    def getter():
        yield tank.get(10)
        times.append(env.now)

    def putter():
        yield env.timeout(1)
        yield tank.put(4)
        yield env.timeout(1)
        yield tank.put(6)

    env.process(getter())
    env.process(putter())
    env.run()
    assert times == [2.0]


def test_container_put_blocks_when_full():
    env = Environment()
    tank = Container(env, capacity=10, init=10)
    times = []

    def putter():
        yield tank.put(5)
        times.append(env.now)

    def getter():
        yield env.timeout(3)
        yield tank.get(5)

    env.process(putter())
    env.process(getter())
    env.run()
    assert times == [3.0]


def test_container_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Container(env, capacity=0)
    with pytest.raises(ValueError):
        Container(env, capacity=5, init=9)
    tank = Container(env, capacity=5)
    with pytest.raises(ValueError):
        tank.put(0)
    with pytest.raises(ValueError):
        tank.get(-1)
