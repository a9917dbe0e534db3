"""One-pass linear-chain fusion against the two-pass version it replaced.

:func:`fuse_linear_chains` used to build every fused graph twice: once
with the fused tasks' dependencies as their heads had them, and again
with every dependency rewritten, rendering each key with ``key_str``
on the way.  :func:`two_pass_fuse` below is that version.  On the
graphs the three paper workflows submit, and under derandomized
Hypothesis on DAGs with chains, diamonds, dependencies outside the
graph and same-prefix chains whose fused key is a member's key, the
one-pass graph must hold the same keys, in the same order, with equal
specs.
"""

from dataclasses import replace
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dasklike import TaskGraph, TaskSpec, fuse_linear_chains
from repro.dasklike.client import Client
from repro.dasklike.states import key_str
from repro.dasklike.taskgraph import IOOp
from repro.workflows import (ImageProcessingWorkflow, ResNet152Workflow,
                             XGBoostWorkflow, run_workflow)

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None,
                    database=None)


def two_pass_fuse(graph: TaskGraph, name: Optional[str] = None) -> TaskGraph:
    """The fusion as it was: chains walked with ``key_str``, the fused
    graph built once with raw head dependencies, then rebuilt with
    every dependency rewritten."""
    graph.validate(allow_external=True)
    dependents = graph.dependents()
    tasks = graph.tasks

    fused_into: dict[str, str] = {}
    chains: dict[str, list[str]] = {}
    for head in graph.toposort():
        if head in fused_into:
            continue
        chain = [head]
        current = head
        while True:
            deps_of = dependents[current]
            if len(deps_of) != 1:
                break
            nxt = next(iter(deps_of))
            in_graph_deps = [
                d for d in tasks[nxt].deps if key_str(d) in tasks
            ]
            if len(in_graph_deps) != 1:
                break
            chain.append(nxt)
            current = nxt
        if len(chain) > 1:
            for member in chain:
                fused_into[member] = chain[0]
            chains[chain[0]] = chain

    out = TaskGraph(name=name or f"{graph.name}-fused")
    replaced: dict[str, object] = {}
    for head, chain in chains.items():
        members = [tasks[m] for m in chain]
        prefixes = []
        for member in members:
            if member.prefix not in prefixes:
                prefixes.append(member.prefix)
        if len(prefixes) > 1:
            fused_prefix = "-fused-".join([prefixes[0], prefixes[-1]]) \
                if len(prefixes) == 2 else "-fused-".join(prefixes)
        else:
            fused_prefix = prefixes[0]
        head_task = members[0]
        tail_task = members[-1]
        token = head_task.group.split("-")[-1] \
            if "-" in head_task.group else "0"
        if isinstance(head_task.key, tuple) and len(head_task.key) > 1:
            new_key = (f"{fused_prefix}-{token}",) + tuple(head_task.key[1:])
        else:
            new_key = f"{fused_prefix}-{token}"
        member_retries = [m.retries for m in members if m.retries is not None]
        member_timeouts = [m.timeout for m in members if m.timeout is not None]
        fused = TaskSpec(
            key=new_key,
            deps=tuple(d for d in head_task.deps),
            compute_time=sum(m.compute_time for m in members),
            reads=tuple(op for m in members for op in m.reads),
            writes=tuple(op for m in members for op in m.writes),
            output_nbytes=tail_task.output_nbytes,
            retries=max(member_retries) if member_retries else None,
            timeout=sum(member_timeouts) if member_timeouts else None,
        )
        for member in chain:
            replaced[member] = new_key
        out.add(fused)

    for name_, task in tasks.items():
        if name_ in fused_into:
            continue
        new_deps = tuple(replaced.get(key_str(d), d) for d in task.deps)
        out.add(replace(task, deps=new_deps))

    final = TaskGraph(name=out.name)
    for task in out.tasks.values():
        new_deps = tuple(replaced.get(key_str(d), d) for d in task.deps)
        final.add(replace(task, deps=new_deps))
    final.validate(allow_external=True)
    return final


def chain_members(graph: TaskGraph) -> set[str]:
    """Tasks on a fusable link: ``a -> b`` where ``b`` is ``a``'s only
    dependent and ``a`` is ``b``'s only dependency in the graph."""
    tasks, members = graph.tasks, set()
    for name, dependents in graph.dependents().items():
        if len(dependents) == 1:
            (nxt,) = dependents
            if sum(key_str(d) in tasks for d in tasks[nxt].deps) == 1:
                members |= {name, nxt}
    return members


def assert_same_fusion(graph: TaskGraph) -> None:
    """One pass and two passes give the same graph; a task left unfused
    whose dependencies stay as they were keeps its spec object."""
    got, want = fuse_linear_chains(graph), two_pass_fuse(graph)
    assert got.name == want.name
    assert got.keys() == want.keys()
    for name, spec in got.tasks.items():
        assert spec == want[name]
        # Equal keys can differ in type (``1`` vs ``"1"`` render
        # alike); the dependency tuples must be the same objects' types.
        assert [type(dep) for dep in spec.deps] == \
            [type(dep) for dep in want[name].deps]
    members = chain_members(graph)
    for name, spec in graph.tasks.items():
        if name not in members and got[name].deps == spec.deps:
            assert got[name] is spec
    assert got.toposort() == want.toposort()


# -- the paper workflows -------------------------------------------------------
@pytest.mark.parametrize("factory", [ImageProcessingWorkflow,
                                     ResNet152Workflow, XGBoostWorkflow],
                         ids=lambda factory: factory.__name__)
def test_workflow_graphs_fuse_as_before(factory, monkeypatch):
    """Every graph the workflow submits, fused or not when it runs."""
    submitted = []
    persist = Client.persist

    def recording_persist(client, graph, *args, **kwargs):
        submitted.append(graph)
        return persist(client, graph, *args, **kwargs)
    monkeypatch.setattr(Client, "persist", recording_persist)
    run_workflow(factory(scale=0.03), seed=41)
    assert submitted
    for graph in submitted:
        assert_same_fusion(graph)
    assert any(len(fuse_linear_chains(graph)) < len(graph)
               for graph in submitted)


# -- generated DAGs ------------------------------------------------------------
PREFIXES = ("read_parquet", "assign", "load", "x")
TOKENS = ("aa00bb11", "cc22dd33")
EXTERNAL = ("ext-0", ("ext-1", 0))


@st.composite
def fusable_dags(draw):
    """Each task depends only on earlier ones: on its predecessor alone
    (a chain link), or on up to three earlier tasks (diamonds, joins),
    sometimes plus a key outside the graph.  Keys are plain strings
    ``prefix-i`` or tuples ``("prefix-token", i)``; a chain of one
    prefix fuses to its head's key."""
    n = draw(st.integers(1, 24))
    keys, tasks = [], []
    for i in range(n):
        prefix = draw(st.sampled_from(PREFIXES))
        if draw(st.booleans()):
            key = f"{prefix}-{i}"
        else:
            key = (f"{prefix}-{draw(st.sampled_from(TOKENS))}", i)
        if i and draw(st.booleans()):
            deps = [keys[i - 1]]
        elif i:
            deps = [keys[j] for j in draw(st.lists(
                st.integers(0, i - 1), max_size=3, unique=True))]
        else:
            deps = []
        if draw(st.integers(0, 4)) == 0:
            deps.append(draw(st.sampled_from(EXTERNAL)))
        tasks.append(TaskSpec(
            key=key, deps=tuple(deps),
            compute_time=draw(st.sampled_from([0.0, 0.1, 0.25])),
            reads=(IOOp(f"/in{i}", "read", 0, 8),) if i % 3 == 0 else (),
            writes=(IOOp(f"/out{i}", "write", 0, 8),) if i % 4 == 0 else (),
            output_nbytes=i,
            retries=draw(st.sampled_from([None, 0, 2])),
            timeout=draw(st.sampled_from([None, 1.5])),
        ))
        keys.append(key)
    return TaskGraph(tasks, name="generated")


@given(fusable_dags())
@example(TaskGraph([  # a diamond whose arms are two-task chains
    TaskSpec(key="load-0"), TaskSpec(key="x-1", deps=("load-0",)),
    TaskSpec(key="x-2", deps=("x-1",)), TaskSpec(key="assign-3",
                                                 deps=("load-0",)),
    TaskSpec(key="x-4", deps=("assign-3",)),
    TaskSpec(key="load-5", deps=("x-2", "x-4")),
], name="diamond"))
@SETTINGS
def test_generated_graphs_fuse_as_before(graph):
    assert_same_fusion(graph)


def test_same_prefix_chain_keeps_its_head_key():
    """A chain of one prefix fuses to its head's key; the tail's other
    dependents are rewritten to it, and untouched tasks keep their
    spec objects."""
    head = ("x-aa00bb11", 0)
    graph = TaskGraph([
        TaskSpec(key=head, output_nbytes=1),
        TaskSpec(key=("x-aa00bb11", 1), deps=(head,), output_nbytes=2),
        TaskSpec(key="load-2", deps=(("x-aa00bb11", 1),)),
        TaskSpec(key="load-3", deps=(("x-aa00bb11", 1), "ext-0")),
        TaskSpec(key="assign-4"),
    ])
    fused = fuse_linear_chains(graph)
    assert fused.keys() == [key_str(head), "load-2", "load-3", "assign-4"]
    assert fused[head].output_nbytes == 2
    assert fused["load-3"].deps == (head, "ext-0")
    assert fused["assign-4"] is graph["assign-4"]
    assert_same_fusion(graph)


def test_fused_key_naming_another_chains_member():
    """The one case where the two passes differ: a fused key that is
    the name of a member of another chain.  Rewriting twice sent the
    first chain's dependents to the second chain; one rewrite keeps
    them on their own chain's fused task."""
    graph = TaskGraph([
        TaskSpec(key="x-abcdef12-3"),              # chain 1 fuses to x-3
        TaskSpec(key="x-abcdef12-4", deps=("x-abcdef12-3",)),
        TaskSpec(key="y-7"),                       # chain 2 holds x-3
        TaskSpec(key="x-3", deps=("y-7",)),
        TaskSpec(key="z-9"),
        TaskSpec(key="use-10", deps=("x-abcdef12-4", "z-9")),
    ])
    fused = fuse_linear_chains(graph)
    assert fused.keys() == ["y-fused-x-7", "x-3", "z-9", "use-10"]
    assert fused["use-10"].deps == ("x-3", "z-9")
    assert two_pass_fuse(graph)["use-10"].deps == ("y-fused-x-7", "z-9")
