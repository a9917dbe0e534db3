"""Project-wide symbol table and conservative call graph.

A :class:`Project` holds every parsed module of one lint run and
answers the cross-module questions the whole-program pass families
ask: which functions exist and where, who (conservatively) calls whom,
which generator functions are spawned as engine processes
(``env.process(self._dispatch(...))`` sites), which of those are
interval *loop drivers* versus per-event transition code, and what is
reachable from a set of roots.

Call resolution is name-based and deliberately over-approximate: a
call ``x.task_finished(...)`` links to every function named
``task_finished`` in the project (narrowed to the defining class when
the receiver is ``self``).  Over-approximation is the right polarity
for the hotpath pass (a scan *possibly* on the event path is worth a
look) and the concurrency pass exempts guarded sites, so precision is
recovered where it matters.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, Optional

from . import dataflow
from .engine import ModuleSource

__all__ = ["FunctionInfo", "Project"]


class FunctionInfo:
    """One function or method in the project."""

    __slots__ = ("qualname", "module", "node", "class_name", "name",
                 "is_generator")

    def __init__(self, qualname: str, module: ModuleSource,
                 node: ast.AST, class_name: Optional[str]):
        self.qualname = qualname
        self.module = module
        self.node = node
        self.class_name = class_name
        self.name = node.name
        self.is_generator = dataflow.is_generator(node)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FunctionInfo({self.qualname})"


def _module_label(path: str) -> str:
    base = os.path.basename(path)
    return base[:-3] if base.endswith(".py") else base


class Project:
    """Symbol table + call graph over one set of parsed modules."""

    def __init__(self, modules: Iterable[ModuleSource]):
        self.modules = list(modules)
        #: qualname -> FunctionInfo
        self.functions: dict[str, FunctionInfo] = {}
        #: bare function name -> [FunctionInfo, ...] in discovery order
        self.by_name: dict[str, list[FunctionInfo]] = {}
        #: qualname -> sorted callee qualnames
        self.calls: dict[str, list[str]] = {}
        self._spawned: Optional[list[FunctionInfo]] = None
        self._index()
        self._link_calls()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _index(self) -> None:
        for module in self.modules:
            dataflow.attach_parents(module.tree)
            label = _module_label(module.path)
            for node in ast.walk(module.tree):
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                cls = dataflow.enclosing_class(node)
                class_name = cls.name if cls is not None else None
                qual = f"{label}:{class_name}.{node.name}" \
                    if class_name else f"{label}:{node.name}"
                # Re-definitions (overloads across modules collide only
                # on the qualname, which embeds the module label).
                if qual in self.functions:
                    qual = f"{qual}@{node.lineno}"
                info = FunctionInfo(qual, module, node, class_name)
                self.functions[qual] = info
                self.by_name.setdefault(node.name, []).append(info)

    def _link_calls(self) -> None:
        for qual, info in self.functions.items():
            callees: set[str] = set()
            for node in dataflow.own_nodes(info.node):
                if not isinstance(node, ast.Call):
                    continue
                name, self_call = self._callee_name(node)
                candidates = self.by_name.get(name, ())
                if self_call:
                    candidates = [
                        t for t in candidates
                        if t.class_name is None
                        or info.class_name is None
                        or t.class_name == info.class_name]
                else:
                    candidates = self._narrow_by_receiver(node, candidates)
                for target in candidates:
                    callees.add(target.qualname)
            self.calls[qual] = sorted(callees)

    @staticmethod
    def _narrow_by_receiver(call: ast.Call, candidates) -> list:
        """Prefer candidates whose class matches the receiver's name.

        ``self.scheduler.heartbeat(...)`` should link to
        ``Scheduler.heartbeat`` only, not to every ``heartbeat`` in the
        project: when the receiver name is a prefix of some candidate's
        class name (``sched``/``scheduler`` → ``Scheduler``, ``env`` →
        ``Environment``), keep just those; with no match fall back to
        all candidates (stay conservative).
        """
        func = call.func
        if not isinstance(func, ast.Attribute):
            return list(candidates)
        receiver = func.value
        if isinstance(receiver, ast.Attribute):
            hint = receiver.attr
        elif isinstance(receiver, ast.Name) and receiver.id != "self":
            hint = receiver.id
        else:
            return list(candidates)
        hint = hint.lstrip("_").lower()
        if len(hint) < 3:
            return list(candidates)
        matched = [t for t in candidates
                   if t.class_name is not None
                   and t.class_name.lower().startswith(hint)]
        return matched or list(candidates)

    @staticmethod
    def _callee_name(call: ast.Call) -> tuple[str, bool]:
        """(bare callee name, receiver-is-self) for one call site."""
        func = call.func
        if isinstance(func, ast.Attribute):
            is_self = isinstance(func.value, ast.Name) and \
                func.value.id == "self"
            return func.attr, is_self
        if isinstance(func, ast.Name):
            return func.id, False
        return "", False

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def reachable_from(self, roots: Iterable[str]) -> set[str]:
        """Transitive closure of qualnames over the call graph."""
        seen: set[str] = set()
        frontier = [q for q in roots if q in self.functions]
        while frontier:
            qual = frontier.pop()
            if qual in seen:
                continue
            seen.add(qual)
            frontier.extend(self.calls.get(qual, ()))
        return seen

    # -- engine process structure --------------------------------------
    def spawned_generators(self) -> list[FunctionInfo]:
        """Generator functions handed to ``env.process(...)`` somewhere.

        Spawn sites look like ``env.process(self._dispatch(ev), ...)``
        or ``self.env.process(worker_loop(...))``: the first argument
        is a call to (or name of) the generator function being started.
        """
        if self._spawned is not None:
            return self._spawned
        spawned: dict[str, FunctionInfo] = {}
        for info in self.functions.values():
            for node in dataflow.own_nodes(info.node):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "process"
                        and node.args):
                    continue
                target_name = self._spawn_target(node.args[0])
                for target in self.by_name.get(target_name, ()):
                    if target.is_generator:
                        spawned[target.qualname] = target
        self._spawned = [spawned[q] for q in sorted(spawned)]
        return self._spawned

    @staticmethod
    def _spawn_target(arg: ast.AST) -> str:
        if isinstance(arg, ast.Call):
            name, _ = Project._callee_name(arg)
            return name
        if isinstance(arg, ast.Name):
            return arg.id
        if isinstance(arg, ast.Attribute):
            return arg.attr
        return ""

    def loop_drivers(self) -> list[FunctionInfo]:
        """Spawned generators structured as interval loops.

        A loop driver is a generator whose own scope contains a
        ``while`` loop that yields: the stealing/liveness/heartbeat/GC
        pattern.  These run once per interval, not once per event, so
        the hotpath pass excludes them from the per-event roots while
        the concurrency pass treats them as long-lived contexts racing
        against event handlers.
        """
        return [info for info in self.spawned_generators()
                if any(dataflow.function_yields(loop)
                       for loop in dataflow.while_loops_of(info.node))]

    def event_roots(self) -> list[FunctionInfo]:
        """Spawned generators on the per-event path (not loop drivers)."""
        drivers = {info.qualname for info in self.loop_drivers()}
        return [info for info in self.spawned_generators()
                if info.qualname not in drivers]

    def hot_functions(self) -> set[str]:
        """Qualnames reachable from the per-event process roots."""
        return self.reachable_from(
            info.qualname for info in self.event_roots())
