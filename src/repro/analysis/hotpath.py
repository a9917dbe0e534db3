"""Hot-path lint: O(n)-per-event scans on the per-transition path.

The ROADMAP's scale-out item (10k workers / 1M tasks, after Böhm &
Beránek's *Runtime vs Scheduler* analysis) dies on anything linear in
cluster size that runs once per task transition: at 1M transitions an
O(workers) scan inside ``decide_worker`` is 10^10 steps of pure
scheduler overhead.  These rules use the project call graph to find
the per-event code — everything reachable from the generator
processes the engine spawns per event (``_dispatch``,
``compute_task``, ...), *excluding* interval loop drivers — and flag
linear work over unbounded collections inside it:

``hot-linear-scan``
    A loop, comprehension, or aggregating builtin (``sum``/``min``/
    ``max``/``any``/``all``) traversing an unbounded component
    collection (``self.workers``, ``self.tasks``, ``self.occupancy``,
    heartbeat maps, worker data stores) inside a per-event function.
``hot-collection-copy``
    Materializing a copy (``list``/``dict``/``set``/``tuple``/
    ``sorted``) of such a collection inside a per-event function —
    O(n) time *and* allocation per event.

Functions in :data:`AMORTIZED_FUNCTIONS` are exempt: they run once
per rare event (worker failure, graph submission), so their scans
amortize to O(1) per task.  The JSON report of this family
(``perfrecup lint --rules hotpath --format json``) is the work-list
for the scale-out PR.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from . import dataflow
from .engine import ProjectRule, register
from .findings import Finding

__all__ = ["UNBOUNDED_COLLECTIONS", "AMORTIZED_FUNCTIONS"]

#: Component attributes that grow with cluster or workload size.
UNBOUNDED_COLLECTIONS = frozenset({
    "workers",          # scheduler: one entry per worker
    "tasks",            # scheduler: one entry per task ever submitted
    "occupancy",        # scheduler: one float per worker
    "_last_heartbeat",  # scheduler: one timestamp per worker
    "_wanted_events",   # scheduler: one event per wanted key
    "data",             # worker: one entry per resident result
    "spilled",          # worker: one entry per evicted result
    "members",          # ssg: one entry per group member
    "_unfinished",      # scheduler: one entry per unsettled task
    "_timed",           # engine: one heap entry per pending timed event
})

#: Per-event-reachable functions whose scans amortize: they run once
#: per *rare* stimulus (failure recovery, graph submission, shutdown),
#: not once per transition, so O(n) inside them is O(1) per task.
AMORTIZED_FUNCTIONS = frozenset({
    "handle_worker_failure",   # once per worker death
    "_degrade_no_workers",     # once, when the last worker dies
    "_resubmit",               # once per lost key per recovery pass
    "update_graph",            # once per graph submission
    "fuse_linear_chains",      # once per graph submission (optimizer)
    "_liveness_loop",          # interval-paced (also a loop driver)
    "add_worker",              # once per registration; exact occupancy
    "remove_worker",           # resync point for the incremental total
})

_AGGREGATORS = frozenset({"sum", "min", "max", "any", "all"})
_COPIERS = frozenset({"list", "dict", "set", "tuple", "sorted", "frozenset"})


def _unbounded_attr(expr: ast.AST) -> Optional[str]:
    """The unbounded collection an iterable expression traverses.

    Matches ``<recv>.attr``, ``<recv>.attr.items()/.values()/.keys()``
    for attr in :data:`UNBOUNDED_COLLECTIONS`; None otherwise.
    """
    if isinstance(expr, ast.Call) and not expr.args and \
            isinstance(expr.func, ast.Attribute) and \
            expr.func.attr in ("items", "values", "keys"):
        expr = expr.func.value
    if isinstance(expr, ast.Attribute) and \
            expr.attr in UNBOUNDED_COLLECTIONS:
        return expr.attr
    return None


class _HotPathRule(ProjectRule):
    """Shared driver: walk per-event functions, yield per-site findings."""

    family = "hotpath"

    def check_project(self, project) -> Iterable[Finding]:
        drivers = {info.qualname for info in project.loop_drivers()}
        hot = project.hot_functions() - drivers
        for qual in sorted(hot):
            info = project.functions[qual]
            if info.name in AMORTIZED_FUNCTIONS or \
                    info.qualname in AMORTIZED_FUNCTIONS:
                continue
            yield from self.check_function(info)

    def check_function(self, info) -> Iterable[Finding]:
        raise NotImplementedError


@register
class LinearScanRule(_HotPathRule):
    name = "hot-linear-scan"
    description = ("loop or aggregate over an unbounded collection in a "
                   "per-event function")

    def check_function(self, info) -> Iterable[Finding]:
        for node in dataflow.own_nodes(info.node):
            attr = None
            if isinstance(node, ast.For):
                attr = _unbounded_attr(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    attr = attr or _unbounded_attr(gen.iter)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id in _AGGREGATORS and node.args:
                attr = _unbounded_attr(node.args[0])
            if attr is None:
                continue
            yield self.finding(
                info.module, node,
                f"linear scan over unbounded '{attr}' inside per-event "
                f"function {info.qualname} (reachable from engine "
                f"dispatch): O(n) work on every transition — maintain an "
                f"incremental aggregate or index, or add the function to "
                f"the amortized allowlist with a rationale")


@register
class CollectionCopyRule(_HotPathRule):
    name = "hot-collection-copy"
    description = ("copy of an unbounded collection materialized in a "
                   "per-event function")

    def check_function(self, info) -> Iterable[Finding]:
        for node in dataflow.own_nodes(info.node):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _COPIERS and node.args):
                continue
            attr = _unbounded_attr(node.args[0])
            if attr is None:
                continue
            yield self.finding(
                info.module, node,
                f"{node.func.id}() copy of unbounded '{attr}' inside "
                f"per-event function {info.qualname}: O(n) time and "
                f"allocation on every transition — iterate lazily or "
                f"restructure so the copy happens per rare event")
