"""Task-graph representation and graph optimization.

A workflow is "a directed acyclic graph, where nodes are tasks and edges
are task dependencies" (§III-A).  Tasks in this reproduction are *cost
models* rather than Python callables: each :class:`TaskSpec` declares
how long it computes, what I/O it performs, and how large its output
is.  The simulated workers then *act out* those costs on the platform
substrate, producing the timings the instrumentation records.

The module also implements the linear-chain *fusion* optimization that
Dask applies before submission.  Fusion is load-bearing for the paper:
the longest XGBoost tasks belong to the ``read_parquet-fused-assign``
category, which "arises from Dask's task-graph optimization process,
where I/O operations are combined with consuming tasks into a single
node of the task graph to enhance data locality" (§IV-D3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Optional

from .states import key_group, key_split, key_str

__all__ = ["IOOp", "TaskSpec", "TaskGraph", "fuse_linear_chains", "GraphError"]


class GraphError(ValueError):
    """Raised for malformed task graphs (cycles, missing dependencies)."""


@dataclass(frozen=True)
class IOOp:
    """One planned POSIX operation a task will perform when it runs."""

    path: str
    op: str  # "read" | "write"
    offset: int
    length: int

    def __post_init__(self):
        if self.op not in ("read", "write"):
            raise ValueError(f"op must be read/write, got {self.op!r}")
        if self.offset < 0 or self.length < 0:
            raise ValueError("offset/length must be non-negative")


@dataclass(frozen=True)
class TaskSpec:
    """Cost-model description of one task.

    Attributes
    ----------
    key:
        Dask-style key — a string or a ``(name, index)`` tuple.
    deps:
        Keys this task consumes; their outputs must be in distributed
        memory (possibly on another worker) before this task can run.
    compute_time:
        Nominal CPU seconds on a speed-1.0 core, before noise.
    reads / writes:
        Planned I/O, executed through the (Darshan-instrumented) PFS.
    output_nbytes:
        Size of the task's result kept in worker memory; this is the
        "size" column of the paper's parallel-coordinates chart.
    """

    key: object
    deps: tuple = ()
    compute_time: float = 0.0
    reads: tuple[IOOp, ...] = ()
    writes: tuple[IOOp, ...] = ()
    output_nbytes: int = 0
    #: Per-task retry budget (Dask's ``submit(..., retries=)``); None
    #: defers to :attr:`DaskConfig.task_retries`.
    retries: Optional[int] = None
    #: Per-task wall-clock limit, seconds; None defers to
    #: :attr:`DaskConfig.task_timeout`, 0 disables enforcement.
    timeout: Optional[float] = None

    # Cached: the canonical renderings are pure functions of the frozen
    # ``key``, and the scheduler reads them on every transition — at
    # 1M-task scale recomputing the string forms dominated the
    # scheduler's own per-transition cost.
    @cached_property
    def name(self) -> str:
        return key_str(self.key)

    @cached_property
    def group(self) -> str:
        return key_group(self.key)

    @cached_property
    def prefix(self) -> str:
        return key_split(self.key)

    @cached_property
    def dep_names(self) -> tuple:
        """Canonical string forms of ``deps``, in the same order."""
        return tuple(key_str(dep) for dep in self.deps)


class TaskGraph:
    """A validated DAG of :class:`TaskSpec` nodes."""

    def __init__(self, tasks: Iterable[TaskSpec] = (), name: str = "graph"):
        self.name = name
        self._tasks: dict[str, TaskSpec] = {}
        self._toposort_cache: Optional[list[str]] = None
        self._dependents_cache: Optional[dict[str, set[str]]] = None
        self._validated_external = False
        for task in tasks:
            self.add(task)

    def add(self, task: TaskSpec) -> None:
        name = task.name
        if name in self._tasks:
            raise GraphError(f"duplicate task key {name}")
        # Warm the remaining key renderings while the graph is being
        # built (client-side), so the scheduler's transition path never
        # pays a first-access ``cached_property`` miss.
        task.dep_names, task.group, task.prefix  # noqa: B018
        self._tasks[name] = task
        self._toposort_cache = None
        self._dependents_cache = None
        self._validated_external = False

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, key) -> bool:
        return key_str(key) in self._tasks

    def __getitem__(self, key) -> TaskSpec:
        return self._tasks[key_str(key)]

    @property
    def tasks(self) -> dict[str, TaskSpec]:
        return dict(self._tasks)

    def keys(self) -> list[str]:
        return list(self._tasks)

    def dependents(self) -> dict[str, set[str]]:
        """Reverse adjacency: key → set of keys depending on it.

        Memoized (invalidated by :meth:`add`); treat the result as
        read-only — it is shared between :meth:`toposort`,
        :meth:`leaves` and graph intake.
        """
        if self._dependents_cache is not None:
            return self._dependents_cache
        out: dict[str, set[str]] = {name: set() for name in self._tasks}
        for name, task in self._tasks.items():
            for dep_name in task.dep_names:
                if dep_name in out:
                    out[dep_name].add(name)
        self._dependents_cache = out
        return out

    def validate(self, allow_external: bool = False) -> None:
        """Check deps resolve and the graph is acyclic.

        With ``allow_external=True``, dependencies on keys outside this
        graph are permitted — they reference results of previously
        submitted graphs held in distributed memory (the multi-graph
        submission pattern of the XGBoost workflow).

        Memoized per strictness: a graph the client already validated
        (optimization passes validate, and so does graph intake) is not
        re-walked on submission.  :meth:`add` invalidates.
        """
        if allow_external and self._validated_external:
            return
        if not allow_external:
            for name, task in self._tasks.items():
                for dep_name in task.dep_names:
                    if dep_name not in self._tasks:
                        raise GraphError(
                            f"task {name} depends on missing key "
                            f"{dep_name}"
                        )
        self.toposort()
        self._validated_external = True

    def toposort(self) -> list[str]:
        """Kahn's algorithm; raises :class:`GraphError` on cycles.

        Memoized: the same graph is sorted by :meth:`validate` and
        again by the scheduler on submission, so the order is computed
        once and invalidated whenever :meth:`add` mutates the graph.
        A *copy* is returned so callers cannot corrupt the cache.
        """
        if self._toposort_cache is not None:
            return list(self._toposort_cache)
        indegree = {name: 0 for name in self._tasks}
        dependents = self.dependents()
        for name, task in self._tasks.items():
            indegree[name] = sum(
                1 for dep_name in task.dep_names
                if dep_name in self._tasks
            )
        ready = [name for name, deg in indegree.items() if deg == 0]
        order: list[str] = []
        while ready:
            name = ready.pop()
            order.append(name)
            for dependent in dependents[name]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != len(self._tasks):
            raise GraphError("task graph contains a cycle")
        self._toposort_cache = order
        return list(order)

    def roots(self) -> list[str]:
        """Tasks with no in-graph dependencies."""
        return [
            name for name, task in self._tasks.items()
            if not any(d in self._tasks for d in task.dep_names)
        ]

    def leaves(self) -> list[str]:
        """Tasks nothing in the graph depends on (the graph's outputs)."""
        dependents = self.dependents()
        return [name for name, deps in dependents.items() if not deps]

    def stats(self) -> dict:
        """Aggregate characteristics (feeds Table I)."""
        files = set()
        io_ops = 0
        for task in self._tasks.values():
            for op in task.reads + task.writes:
                files.add(op.path)
                io_ops += 1
        return {
            "tasks": len(self._tasks),
            "edges": sum(len(t.deps) for t in self._tasks.values()),
            "distinct_files": len(files),
            "planned_io_ops": io_ops,
            "prefixes": sorted({t.prefix for t in self._tasks.values()}),
        }


def fuse_linear_chains(graph: TaskGraph, name: Optional[str] = None) -> TaskGraph:
    """Fuse linear chains, as ``dask.optimization.fuse`` does.

    A chain ``a → b`` where *b* is *a*'s only dependent and *a* is *b*'s
    only dependency collapses into one task whose key prefix is the
    concatenation of the members' prefixes joined by ``-fused-`` (so a
    ``read_parquet`` chained into an ``assign`` becomes
    ``read_parquet-fused-assign``, the exact category the paper's Fig. 6
    highlights).  Costs add; the fused output size is the tail's.

    The result holds the fused tasks first, in the order of their
    chains' heads in :meth:`TaskGraph.toposort`, then every other task
    in the input's order.  A dependency on a chain member becomes one
    on the chain's fused key; a task none of whose dependencies
    changes is kept as the same :class:`TaskSpec` object.
    """
    graph.validate(allow_external=True)
    dependents = graph.dependents()
    tasks = graph._tasks

    # Walk chains from their heads, naming each fused task.  Only then
    # are dependencies rewritten: a head may depend on a later chain.
    chains: list[tuple[list[str], object]] = []
    replaced: dict[str, object] = {}
    for head in graph.toposort():
        if head in replaced:
            continue
        chain = [head]
        current = head
        while True:
            deps_of = dependents[current]
            if len(deps_of) != 1:
                break
            (nxt,) = deps_of
            if sum(dep in tasks for dep in tasks[nxt].dep_names) != 1:
                break
            chain.append(nxt)
            current = nxt
        if len(chain) > 1:
            new_key = _fused_key([tasks[m] for m in chain])
            for member in chain:
                replaced[member] = new_key
            chains.append((chain, new_key))

    def rewritten(task: TaskSpec) -> tuple:
        return tuple(replaced.get(dep_name, dep)
                     for dep, dep_name in zip(task.deps, task.dep_names))

    out = TaskGraph(name=name or f"{graph.name}-fused")
    for chain, new_key in chains:
        members = [tasks[m] for m in chain]
        member_retries = [m.retries for m in members if m.retries is not None]
        member_timeouts = [m.timeout for m in members if m.timeout is not None]
        out.add(TaskSpec(
            key=new_key,
            deps=rewritten(members[0]),
            compute_time=sum(m.compute_time for m in members),
            reads=tuple(op for m in members for op in m.reads),
            writes=tuple(op for m in members for op in m.writes),
            output_nbytes=members[-1].output_nbytes,
            # A fused node runs every member's work in one attempt: it
            # keeps the most generous member retry budget and the sum of
            # the member time limits.
            retries=max(member_retries) if member_retries else None,
            timeout=sum(member_timeouts) if member_timeouts else None,
        ))
    for name_, task in tasks.items():
        if name_ in replaced:
            continue
        if any(dep_name in replaced for dep_name in task.dep_names):
            task = replace(task, deps=rewritten(task))
        out.add(task)
    out.validate(allow_external=True)
    return out


def _fused_key(members: list[TaskSpec]) -> object:
    """The key of the task fusing the chain ``members``: their distinct
    prefixes joined by ``-fused-``, then the head's token, and the
    head's index for a tuple key."""
    prefixes = []
    for member in members:
        if member.prefix not in prefixes:
            prefixes.append(member.prefix)
    fused_prefix = "-fused-".join(prefixes)
    head_task = members[0]
    token = head_task.group.split("-")[-1] if "-" in head_task.group else "0"
    if isinstance(head_task.key, tuple) and len(head_task.key) > 1:
        return (f"{fused_prefix}-{token}",) + tuple(head_task.key[1:])
    return f"{fused_prefix}-{token}"
