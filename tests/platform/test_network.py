"""Tests for the interconnect model."""

import pytest

from repro.platform import Network, NetworkSpec, Node, NodeSpec
from repro.sim import Environment, RandomStreams


def make_pair(env, same_switch=True, streams=None, spec=None):
    node_spec = NodeSpec()
    a = Node(env, "nid00000", node_spec, switch=0)
    b = Node(env, "nid00001", node_spec, switch=0 if same_switch else 1)
    nodes = {a.name: a, b.name: b}
    net = Network(env, nodes, spec or NetworkSpec(jitter_sigma=0.0,
                                                  congestion_probability=0.0),
                  streams or RandomStreams(1))
    return net, a, b


def run_transfer(env, net, src, dst, nbytes):
    result = {}

    def proc():
        rec = yield env.process(net.transfer(src, dst, nbytes))
        result["rec"] = rec

    env.process(proc())
    env.run()
    return result["rec"]


def test_transfer_produces_record_with_flags():
    env = Environment()
    net, a, b = make_pair(env)
    rec = run_transfer(env, net, a, b, 10_000)
    assert rec.src == "nid00000" and rec.dst == "nid00001"
    assert rec.nbytes == 10_000
    assert not rec.same_node
    assert rec.same_switch
    assert rec.duration > 0


def test_intranode_transfer_is_faster():
    env = Environment()
    net, a, b = make_pair(env)
    inter = run_transfer(env, net, a, b, 100 * 2**20)
    env2 = Environment()
    net2, a2, _ = make_pair(env2)
    intra = run_transfer(env2, net2, a2, a2, 100 * 2**20)
    assert intra.same_node
    assert intra.duration < inter.duration


def test_inter_switch_adds_latency():
    env1 = Environment()
    net1, a1, b1 = make_pair(env1, same_switch=True)
    env2 = Environment()
    net2, a2, b2 = make_pair(env2, same_switch=False)
    assert net2.latency(a2, b2) > net1.latency(a1, b1)


def test_large_transfer_scales_with_size():
    env = Environment()
    net, a, b = make_pair(env)
    small = run_transfer(env, net, a, b, 1 * 2**20)
    env2 = Environment()
    net2, a2, b2 = make_pair(env2)
    big = run_transfer(env2, net2, a2, b2, 64 * 2**20)
    assert big.duration > small.duration


def test_nic_contention_queues_transfers():
    """More simultaneous transfers than NIC channels must serialize."""
    env = Environment()
    spec = NetworkSpec(jitter_sigma=0.0, congestion_probability=0.0)
    node_spec = NodeSpec(nic_channels=1)
    a = Node(env, "a", node_spec, switch=0)
    b = Node(env, "b", node_spec, switch=0)
    net = Network(env, {"a": a, "b": b}, spec, RandomStreams(1))
    done = []

    def proc():
        rec = yield env.process(net.transfer(a, b, 25_000_000_000))  # ~1 s
        done.append(rec)

    env.process(proc())
    env.process(proc())
    env.run()
    # Both are requested at t=0; the second one queues behind the first,
    # so its recorded duration includes the wait (as a wall-clock
    # observer like the paper's worker instrumentation would see it).
    assert done[1].stop >= 1.9 * done[0].stop
    assert done[1].duration >= 1.9 * done[0].duration


def test_jitter_varies_durations():
    env = Environment()
    node_spec = NodeSpec()
    a = Node(env, "a", node_spec, switch=0)
    b = Node(env, "b", node_spec, switch=0)
    net = Network(env, {"a": a, "b": b},
                  NetworkSpec(jitter_sigma=0.3, congestion_probability=0.0),
                  RandomStreams(7))
    durations = []

    def proc():
        for _ in range(20):
            rec = yield env.process(net.transfer(a, b, 1_000_000))
            durations.append(rec.duration)

    env.process(proc())
    env.run()
    assert len(set(durations)) > 1


def test_same_seed_reproduces_transfers():
    def run(seed):
        env = Environment()
        node_spec = NodeSpec()
        a = Node(env, "a", node_spec, switch=0)
        b = Node(env, "b", node_spec, switch=1)
        net = Network(env, {"a": a, "b": b}, NetworkSpec(),
                      RandomStreams(seed))
        out = []

        def proc():
            for _ in range(10):
                rec = yield env.process(net.transfer(a, b, 5_000_000))
                out.append(rec.duration)

        env.process(proc())
        env.run()
        return out

    assert run(3) == run(3)
    assert run(3) != run(4)
