"""Intraprocedural dataflow over ``ast``: reaching dict keys, aliases.

The per-module rules in :mod:`repro.analysis.determinism` and
:mod:`repro.analysis.schema` only look at the expression in front of
them; the pass families introduced with the whole-program engine
(:mod:`repro.analysis.concurrency`, :mod:`repro.analysis.hotpath`,
:mod:`repro.analysis.provflow`) need to know what *flows into* an
expression.  This module is the small dataflow core they share:

* **Scope helpers** — parent links, enclosing function/class lookup,
  dotted-name rendering, and generator/yield structure
  (:func:`function_yields`, :func:`is_generator`,
  :func:`while_loops_of`).
* **Reaching dict keys** (:class:`DictKeyFlow`) — given a name used as
  an emission payload, replay the assignments, ``payload["k"] = v``
  stores, ``payload.update({...})`` merges and ``{**base, ...}``
  unpacks that precede the use, and report the statically-known key
  set (and the constant ``"type"`` value if one was assigned).
* **Self-attribute mutation extraction**
  (:func:`attribute_mutations`) — every site in a function that writes
  component state (``x.attr = v``, ``x.attr[k] = v``,
  ``x.attr += v``, ``x.attr.pop(...)`` and friends), keyed by the
  attribute name so cross-module passes can match mutations of the
  same logical state from different classes.

Everything here is deliberately *optimistic* for may-information (a
key assigned in any branch counts as supplied) and *pessimistic* for
must-information (any unresolvable write poisons the state to
``None`` = unknown): lint findings must not accuse code the analysis
merely failed to follow.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterable, Optional

__all__ = [
    "attach_parents",
    "parent",
    "enclosing_function",
    "enclosing_class",
    "dotted",
    "is_generator",
    "function_yields",
    "while_loops_of",
    "self_attrs_in",
    "DictKeyFlow",
    "DictState",
    "attribute_mutations",
    "Mutation",
    "MUTATOR_METHODS",
]

_PARENT_FIELD = "_repro_df_parent"

#: Container methods that mutate their receiver in place.
MUTATOR_METHODS = frozenset({
    "pop", "popitem", "append", "appendleft", "extend", "extendleft",
    "add", "update", "clear", "remove", "discard", "insert",
    "setdefault", "sort", "reverse",
})


# ---------------------------------------------------------------------------
# scope helpers
# ---------------------------------------------------------------------------

def attach_parents(tree: ast.AST) -> ast.AST:
    """Idempotently link every node to its parent; returns ``tree``."""
    if getattr(tree, "_repro_df_linked", False):
        return tree
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            setattr(child, _PARENT_FIELD, node)
    tree._repro_df_linked = True  # type: ignore[attr-defined]
    return tree


def parent(node: ast.AST) -> Optional[ast.AST]:
    return getattr(node, _PARENT_FIELD, None)


def enclosing_function(node: ast.AST) -> Optional[ast.AST]:
    cursor = parent(node)
    while cursor is not None:
        if isinstance(cursor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return cursor
        cursor = parent(cursor)
    return None


def enclosing_class(node: ast.AST) -> Optional[ast.ClassDef]:
    cursor = parent(node)
    while cursor is not None:
        if isinstance(cursor, ast.ClassDef):
            return cursor
        cursor = parent(cursor)
    return None


def dotted(node: ast.AST) -> str:
    """Render ``a.b.c`` attribute chains; '' for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def own_nodes(func: ast.AST) -> Iterable[ast.AST]:
    """Walk ``func`` without descending into nested function scopes."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def function_yields(func: ast.AST) -> list[ast.AST]:
    """Yield/YieldFrom nodes belonging to ``func``'s own scope."""
    return [n for n in own_nodes(func)
            if isinstance(n, (ast.Yield, ast.YieldFrom))]


def is_generator(func: ast.AST) -> bool:
    """True when the function body itself contains a yield."""
    return bool(function_yields(func))


def while_loops_of(func: ast.AST) -> list[ast.While]:
    """While loops in ``func``'s own scope (not nested functions)."""
    return [n for n in own_nodes(func) if isinstance(n, ast.While)]


def self_attrs_in(node: ast.AST) -> set[str]:
    """Names of ``self.<attr>`` loads anywhere under ``node``."""
    found: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and \
                isinstance(sub.value, ast.Name) and sub.value.id == "self":
            found.add(sub.attr)
    return found


# ---------------------------------------------------------------------------
# reaching dict keys
# ---------------------------------------------------------------------------

class DictState:
    """Statically known shape of one dict-valued local.

    ``keys`` is the set of string keys known supplied; ``type_value``
    the constant assigned under the ``"type"`` key, when there is one.
    """

    __slots__ = ("keys", "type_value")

    def __init__(self, keys: set[str], type_value: Optional[str] = None):
        self.keys = set(keys)
        self.type_value = type_value

    def copy(self) -> "DictState":
        return DictState(self.keys, self.type_value)


#: Resolver signature: map a Call node to the DictState its return
#: value is known to carry, or None when unresolvable.  The provflow
#: pass plugs in project-level helper-return resolution here.
CallResolver = Callable[[ast.Call], Optional[DictState]]


class DictKeyFlow:
    """Replay dict-building statements of one function, in source order.

    The flow is flow-insensitive across branches (optimistic union) but
    ordered by line: only statements textually before the use site
    contribute, which matches the build-then-emit idiom all emission
    helpers in this repository follow.
    """

    def __init__(self, func: ast.AST,
                 resolve_call: Optional[CallResolver] = None):
        self.func = func
        self.resolve_call = resolve_call

    # ------------------------------------------------------------------
    def env_at(self, use: ast.AST) -> dict[str, Optional[DictState]]:
        """Replay every dict-shaping statement before ``use``."""
        use_line = getattr(use, "lineno", 0)
        env: dict[str, Optional[DictState]] = {}
        steps = sorted(
            (s for s in own_nodes(self.func)
             if getattr(s, "lineno", 0) < use_line and self._touches(s)),
            key=lambda s: (s.lineno, s.col_offset))
        for step in steps:
            self._apply(step, env)
        return env

    def state_at(self, name: str, use: ast.AST) -> Optional[DictState]:
        """Known dict state of ``name`` just before ``use`` executes."""
        return self.env_at(use).get(name)

    def eval_at(self, expr: ast.AST, use: ast.AST) -> Optional[DictState]:
        """Dict state of an inline expression (e.g. ``{**base, ...}``)."""
        return self._eval(expr, self.env_at(use))

    # ------------------------------------------------------------------
    @staticmethod
    def _touches(stmt: ast.AST) -> bool:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            return True
        if isinstance(stmt, ast.Call):
            func = stmt.func
            return isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name)
        if isinstance(stmt, ast.Delete):
            return True
        return False

    def _apply(self, stmt: ast.AST,
               env: dict[str, Optional[DictState]]) -> None:
        if isinstance(stmt, ast.Assign):
            state = self._eval(stmt.value, env)
            for target in stmt.targets:
                self._store(target, state, env)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._store(stmt.target, self._eval(stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = None
        elif isinstance(stmt, ast.Call):
            self._apply_call(stmt, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript) and \
                        isinstance(target.value, ast.Name):
                    state = env.get(target.value.id)
                    key = _const_str(target.slice)
                    if state is not None and key is not None:
                        state.keys.discard(key)
                        if key == "type":
                            state.type_value = None

    def _store(self, target: ast.AST, state: Optional[DictState],
               env: dict[str, Optional[DictState]]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = state.copy() if state is not None else None
        elif isinstance(target, ast.Subscript) and \
                isinstance(target.value, ast.Name):
            # payload["k"] = v adds one key to an existing state.
            existing = env.get(target.value.id)
            key = _const_str(target.slice)
            if existing is not None:
                if key is None:
                    env[target.value.id] = None
                else:
                    existing.keys.add(key)
                    if key == "type":
                        existing.type_value = None
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._store(element, None, env)

    def _apply_call(self, call: ast.Call,
                    env: dict[str, Optional[DictState]]) -> None:
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)):
            return
        state = env.get(func.value.id)
        if state is None:
            return
        if func.attr == "update" and call.args:
            merged = self._eval(call.args[0], env)
            if merged is None:
                env[func.value.id] = None
            else:
                state.keys.update(merged.keys)
                if merged.type_value is not None:
                    state.type_value = merged.type_value
            for kw in call.keywords:
                if kw.arg is not None:
                    state.keys.add(kw.arg)
        elif func.attr == "update" and call.keywords:
            for kw in call.keywords:
                if kw.arg is None:
                    env[func.value.id] = None
                    return
                state.keys.add(kw.arg)
        elif func.attr == "setdefault" and call.args:
            key = _const_str(call.args[0])
            if key is not None:
                state.keys.add(key)
        elif func.attr == "pop" and call.args:
            key = _const_str(call.args[0])
            if key is not None:
                state.keys.discard(key)
        elif func.attr == "clear":
            env[func.value.id] = DictState(set())

    # ------------------------------------------------------------------
    def _eval(self, value: ast.AST,
              env: dict[str, Optional[DictState]]) -> Optional[DictState]:
        """Dict state of an expression, or None when unresolvable."""
        if isinstance(value, ast.Dict):
            return self._eval_dict_literal(value, env)
        if isinstance(value, ast.Name):
            state = env.get(value.id)
            return state.copy() if state is not None else None
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Name) and func.id == "dict":
                return self._eval_dict_call(value, env)
            if self.resolve_call is not None:
                return self.resolve_call(value)
            return None
        return None

    def _eval_dict_literal(self, node: ast.Dict,
                           env: dict) -> Optional[DictState]:
        state = DictState(set())
        for key, val in zip(node.keys, node.values):
            if key is None:  # ** unpack: fold the base dict in
                base = self._eval(val, env)
                if base is None:
                    return None
                state.keys.update(base.keys)
                if base.type_value is not None:
                    state.type_value = base.type_value
                continue
            literal = _const_str(key)
            if literal is None:
                return None
            state.keys.add(literal)
            if literal == "type":
                state.type_value = _const_str(val)
        return state

    def _eval_dict_call(self, call: ast.Call,
                        env: dict) -> Optional[DictState]:
        state = DictState(set())
        if call.args:
            base = self._eval(call.args[0], env)
            if base is None:
                return None
            state.keys.update(base.keys)
            state.type_value = base.type_value
        for kw in call.keywords:
            if kw.arg is None:
                base = self._eval(kw.value, env)
                if base is None:
                    return None
                state.keys.update(base.keys)
                if base.type_value is not None:
                    state.type_value = base.type_value
            else:
                state.keys.add(kw.arg)
                if kw.arg == "type":
                    state.type_value = _const_str(kw.value)
        return state


def _const_str(node: Optional[ast.AST]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


# ---------------------------------------------------------------------------
# attribute mutations
# ---------------------------------------------------------------------------

class Mutation:
    """One write to component state: ``<receiver>.<attr>`` mutated."""

    __slots__ = ("attr", "node", "kind", "self_owned")

    def __init__(self, attr: str, node: ast.AST, kind: str,
                 self_owned: bool = False):
        self.attr = attr       #: logical state name, e.g. "occupancy"
        self.node = node       #: the mutating statement/call
        self.kind = kind       #: "assign" | "augassign" | "call" | "delete"
        #: True when the receiver is ``self`` — the state belongs to the
        #: enclosing class; False for ``other.attr`` writes, where the
        #: owning class is statically unknown.
        self.self_owned = self_owned


def _mutated_attr(target: ast.AST) -> Optional[tuple[str, bool]]:
    """(attr name, receiver-is-self) for an assignment target, if any.

    ``x.attr = v`` and ``x.attr[k] = v`` both mutate the state held
    under ``attr``; plain-name and plain-subscript targets do not touch
    attribute state.
    """
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute):
        self_owned = isinstance(target.value, ast.Name) and \
            target.value.id == "self"
        return target.attr, self_owned
    return None


def attribute_mutations(func: ast.AST) -> list[Mutation]:
    """Every component-state write in ``func``'s own scope."""
    out: list[Mutation] = []
    for node in own_nodes(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                hit = _mutated_attr(target)
                if hit is not None:
                    out.append(Mutation(hit[0], node, "assign", hit[1]))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            hit = _mutated_attr(node.target)
            if hit is not None:
                out.append(Mutation(hit[0], node, "augassign", hit[1]))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                hit = _mutated_attr(target)
                if hit is not None:
                    out.append(Mutation(hit[0], node, "delete", hit[1]))
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in MUTATOR_METHODS:
            receiver = node.func.value
            if isinstance(receiver, ast.Attribute):
                self_owned = isinstance(receiver.value, ast.Name) and \
                    receiver.value.id == "self"
                out.append(Mutation(receiver.attr, node, "call", self_owned))
    return sorted(out, key=lambda m: (getattr(m.node, "lineno", 0),
                                      getattr(m.node, "col_offset", 0)))
