"""Tests for topics, producer batching, consumers, SSG, and Bedrock."""

import dataclasses

import pytest

from repro.mofka import (
    BedrockConfig,
    Consumer,
    Event,
    MofkaService,
    Producer,
    SSGGroup,
    Topic,
    bootstrap,
)
from repro.sim import Environment


def make_service(env, n_partitions=2):
    service = MofkaService(env)
    service.create_topic("prov", n_partitions)
    return service


class TestTopic:
    def test_append_and_read(self):
        topic = Topic("t", 2)
        assert topic.partitions[0].append({"k": 1}, b"payload", 0.5) == 0
        assert topic.partitions[0].append({"k": 2}, b"", 0.75) == 1
        back = topic.partitions[0].read(0)
        assert back.metadata == {"k": 1}
        assert back.data == b"payload"
        assert back.timestamp == 0.5

    def test_read_equals_a_constructed_event(self):
        part = Topic("t", 4).partitions[3]
        metadata = {"type": "task_run", "key": "('x', 1)", "n": [1, 2]}
        part.append({"k": 0}, b"", 0.25)
        part.append(metadata, b"\x00payload", 3.5)
        got = part.read(1)
        want = Event(topic="t", partition=3, offset=1, timestamp=3.5,
                     metadata=metadata, data=b"\x00payload")
        assert type(got) is Event
        assert got == want
        for field in dataclasses.fields(Event):
            assert getattr(got, field.name) == getattr(want, field.name)
        assert got.metadata is metadata
        assert got.nbytes == want.nbytes
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.offset = 0

    def test_events_globally_ordered_by_time(self):
        topic = Topic("t", 2)
        topic.partitions[1].append({"i": 2}, b"", 2.0)
        topic.partitions[0].append({"i": 1}, b"", 1.0)
        topic.partitions[0].append({"i": 3}, b"", 3.0)
        assert [e.metadata["i"] for e in topic.events()] == [1, 2, 3]

    def test_partition_routing_stable(self):
        topic = Topic("t", 4)
        a = topic.partition_for("worker-1", 0)
        b = topic.partition_for("worker-1", 99)
        assert a == b
        # Round-robin without a key.
        assert topic.partition_for(None, 0) != topic.partition_for(None, 1)

    def test_dump_load_roundtrip(self, tmp_path):
        topic = Topic("t", 2)
        for i in range(10):
            topic.partitions[i % 2].append({"i": i}, f"d{i}".encode(), float(i))
        topic.dump(str(tmp_path))
        loaded = Topic.load(str(tmp_path), "t", 2)
        assert len(loaded) == 10
        assert [e.metadata["i"] for e in loaded.events()] == list(range(10))
        assert loaded.events()[3].data == b"d3"

    def test_dump_writes_the_yokan_encoding(self, tmp_path):
        # Live partitions keep the pushed dicts; the persisted form is
        # the Yokan store: offset keys, each value the event's row
        # object, with sorted keys.
        topic = Topic("t", 1)
        part = topic.partitions[0]
        part.append({"type": "task_run", "worker": "w1", "key": "x-0",
                     "stop": 1.5}, b"", 0.25)
        part.append({"type": "warning", "time": 2.0, "kind": "gc"},
                    b"abc", 2.5)
        topic.dump(str(tmp_path))
        assert (tmp_path / "t.0.meta.jsonl").read_bytes() == (
            b'{"k": "evt/000000000000", "v": {"metadata": {"key": "x-0", '
            b'"stop": 1.5, "type": "task_run", "worker": "w1"}, '
            b'"region": 0, "timestamp": 0.25}}\n'
            b'{"k": "evt/000000000001", "v": {"metadata": {"kind": "gc", '
            b'"time": 2.0, "type": "warning"}, "region": 1, '
            b'"timestamp": 2.5}}\n')
        assert (tmp_path / "t.0.warabi").read_bytes() == (
            (0).to_bytes(8, "little") + (3).to_bytes(8, "little") + b"abc")

    def test_read_returns_the_appended_dict(self):
        part = Topic("t", 1).partitions[0]
        metadata = {"type": "transition", "key": "x-0"}
        part.append(metadata, b"", 1.0)
        assert part.read(0).metadata is metadata
        with pytest.raises(KeyError):
            part.read(1)
        with pytest.raises(KeyError):
            part.read(-1)

    def test_zero_partitions_rejected(self):
        with pytest.raises(ValueError):
            Topic("t", 0)


class TestProducerConsumer:
    def test_push_is_nonblocking_and_batched(self):
        env = Environment()
        service = make_service(env)
        producer = Producer(env, service, "prov", batch_size=8, linger=0.05)
        sizes = []
        producer.on_flush = lambda size, _: sizes.append(size)

        def workload():
            for i in range(20):
                producer.push({"i": i})
                yield env.timeout(0.001)
            yield env.process(producer.close())

        env.run(until=env.process(workload()))
        assert producer.n_pushed == 20
        assert service.n_events == 20
        # Batching: far fewer RPCs than events.
        assert service.n_produce_rpcs < 20
        assert sum(sizes) == 20

    def test_linger_flushes_partial_batches(self):
        env = Environment()
        service = make_service(env)
        producer = Producer(env, service, "prov", batch_size=1000,
                            linger=0.01)

        def workload():
            producer.push({"only": True})
            yield env.timeout(0.5)

        env.run(until=env.process(workload()))
        assert service.n_events == 1  # flushed by linger, not batch size

    def test_consumer_pull_in_situ(self):
        env = Environment()
        service = make_service(env)
        producer = Producer(env, service, "prov", batch_size=4, linger=0.01)
        consumer = Consumer(env, service, "prov")
        seen = []

        def workload():
            for i in range(12):
                producer.push({"i": i})
            yield env.process(producer.flush())
            events = yield env.process(consumer.pull())
            seen.extend(events)

        env.run(until=env.process(workload()))
        assert sorted(e.metadata["i"] for e in seen) == list(range(12))
        assert consumer.lag == 0

    def test_fetch_all_bulk(self):
        env = Environment()
        service = make_service(env)
        producer = Producer(env, service, "prov", batch_size=4, linger=0.01)

        def workload():
            for i in range(9):
                producer.push({"i": i}, data=b"x" * i)
            yield env.process(producer.close())

        env.run(until=env.process(workload()))
        consumer = Consumer(env, service, "prov")
        events = consumer.fetch_all()
        assert len(events) == 9
        assert events[-1].nbytes > 0

    def test_push_after_close_rejected(self):
        env = Environment()
        service = make_service(env)
        producer = Producer(env, service, "prov")

        def workload():
            yield env.process(producer.close())

        env.run(until=env.process(workload()))
        with pytest.raises(RuntimeError):
            producer.push({"late": True})

    def test_bigger_batches_mean_fewer_rpcs(self):
        def rpcs(batch_size):
            env = Environment()
            service = make_service(env)
            producer = Producer(env, service, "prov",
                                batch_size=batch_size, linger=10.0)

            def workload():
                for i in range(256):
                    producer.push({"i": i})
                yield env.process(producer.close())

            env.run(until=env.process(workload()))
            return service.n_produce_rpcs

        assert rpcs(256) < rpcs(16) < rpcs(2)


class TestSSG:
    def test_join_leave(self):
        env = Environment()
        group = SSGGroup(env, "g")
        group.join("a")
        group.join("b")
        assert len(group.alive()) == 2
        group.leave("a")
        assert len(group.alive()) == 1

    def test_duplicate_join_rejected(self):
        env = Environment()
        group = SSGGroup(env, "g")
        group.join("a")
        with pytest.raises(ValueError):
            group.join("a")

    def test_fault_detection_and_recovery(self):
        env = Environment()
        group = SSGGroup(env, "g", heartbeat_period=0.5,
                         suspect_after=2.0, dead_after=5.0)
        changes = []
        group.on_change(lambda member, change: changes.append(
            (member.address, change, round(env.now, 1))))
        group.join("healthy")
        group.join("flaky")
        group.start_monitor()

        def heartbeats():
            while env.now < 15.0:
                group.heartbeat("healthy")
                # flaky: alive until 1.0, revives at ~3.5 (while merely
                # suspect), then goes permanently silent.
                if env.now < 1.0 or 3.5 <= env.now < 4.0:
                    group.heartbeat("flaky")
                yield env.timeout(0.5)
            group.stop_monitor()

        env.run(until=env.process(heartbeats()))
        kinds = [(addr, change) for addr, change, _ in changes]
        assert ("flaky", "suspected") in kinds
        assert ("flaky", "recovered") in kinds
        assert ("flaky", "died") in kinds
        assert all(addr != "healthy" for addr, _ in kinds)


class TestBedrock:
    def test_bootstrap_creates_topics(self):
        env = Environment()
        config = BedrockConfig(topics=(("prov", 2), ("io", 1)))
        service = bootstrap(env, config)
        assert len(service.topic("prov").partitions) == 2
        assert len(service.topic("io").partitions) == 1

    def test_from_dict(self):
        config = BedrockConfig.from_dict({
            "service_name": "svc",
            "topics": [{"name": "a", "partitions": 3}],
        })
        assert config.service_name == "svc"
        assert config.topics == (("a", 3),)
        assert "topics" in config.describe()

    def test_service_dump_load(self, tmp_path):
        env = Environment()
        service = bootstrap(env, BedrockConfig(topics=(("prov", 2),),
                                               start_monitor=False))

        def workload():
            yield env.process(service.produce_batch(
                "prov", [({"i": i}, b"") for i in range(5)]))

        env.run(until=env.process(workload()))
        service.dump(str(tmp_path))
        topics = MofkaService.load_topics(str(tmp_path))
        assert len(topics["prov"]) == 5
