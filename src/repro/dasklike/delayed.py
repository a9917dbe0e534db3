"""``dask.delayed``-style manual task construction.

The ResNet152 workflow of the paper is written with "three main
functions decorated with ``@dask.delayed`` ... load, transform, and
predict" (§IV-B).  This module provides the equivalent builder for the
cost-model world: a :class:`Delayed` node names an operation, declares
its costs, and links to its inputs; :func:`collect` assembles any set
of output nodes into a submittable :class:`TaskGraph`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .taskgraph import IOOp, TaskGraph, TaskSpec
from .utils import tokenize

__all__ = ["Delayed", "delayed", "collect"]


class Delayed:
    """One manually declared task and its lineage."""

    def __init__(self, name: str, *, compute_time: float = 0.0,
                 reads: Sequence[IOOp] = (), writes: Sequence[IOOp] = (),
                 output_nbytes: int = 0,
                 deps: Sequence["Delayed"] = (),
                 external_deps: Sequence[object] = (),
                 token: Optional[str] = None,
                 index: Optional[int] = None):
        self.name = name
        self.compute_time = compute_time
        self.reads = tuple(reads)
        self.writes = tuple(writes)
        self.output_nbytes = output_nbytes
        self.deps = tuple(deps)
        self.external_deps = tuple(external_deps)
        token = token or tokenize(
            name, compute_time, output_nbytes, len(self.deps),
            [d.key for d in self.deps],
            [op.path for op in self.reads + self.writes],
            index,
        )
        self.key = (f"{name}-{token}", index) if index is not None \
            else f"{name}-{token}"

    def to_spec(self) -> TaskSpec:
        return TaskSpec(
            key=self.key,
            deps=tuple(d.key for d in self.deps) + self.external_deps,
            compute_time=self.compute_time,
            reads=self.reads,
            writes=self.writes,
            output_nbytes=self.output_nbytes,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Delayed {self.key}>"


def delayed(name: str, **kwargs) -> Delayed:
    """Factory mirroring the ``@dask.delayed`` call style."""
    return Delayed(name, **kwargs)


def collect(outputs: Iterable[Delayed], name: str = "delayed") -> TaskGraph:
    """Walk the lineage of ``outputs`` and build one task graph.

    Tasks are emitted in *creation order* (group name, then index), the
    order a real client builds delayed calls in — this is the order the
    scheduler's root co-assignment slices into per-worker slabs, so it
    must reflect how the program constructed the tasks, not the
    traversal order of this collector.
    """
    specs: dict[object, TaskSpec] = {}   # key -> spec, built once
    stack = list(outputs)
    while stack:
        node = stack.pop()
        if node.key in specs:
            continue
        specs[node.key] = node.to_spec()
        stack.extend(node.deps)

    def order(spec):
        key = spec.key
        index = key[1] if (isinstance(key, tuple) and len(key) > 1
                           and isinstance(key[1], int)) else -1
        return (index, spec.group)

    graph = TaskGraph(name=name)
    for spec in sorted(specs.values(), key=order):
        graph.add(spec)
    graph.validate(allow_external=True)
    return graph
