"""Provenance-schema lint: every emission site carries the identifiers.

The paper's FAIR lesson (§V) — and Souza et al.'s multi-workflow
provenance argument — is that multisource records are only joinable
when every emission site supplies the full shared-identifier set.  In
this repository the join contract lives in
:data:`repro.core.fair.IDENTIFIER_COLUMNS` (abstract identifier →
physical column spellings); the concrete record shapes live in
:mod:`repro.dasklike.records` / :mod:`repro.dasklike.states`.  These
rules statically verify, for every Mofka emission site
(``producer.push({...})`` and ``self._push(type, payload)`` calls),
that the supplied metadata keys satisfy the identifiers required for
that event type — so schema drift is caught at lint time instead of as
NaN joins in :mod:`repro.core.ingest`.

Rules:

``prov-missing-identifier``
    A typed emission site whose payload lacks a required identifier.
``prov-missing-type``
    A ``push({...})`` metadata literal without a ``"type"`` key.
``prov-unknown-event-type``
    An event type no requirement entry covers (schema drift: add it to
    :data:`EVENT_REQUIREMENTS` alongside the new consumer).
``prov-untyped-emission``
    A site the lint cannot resolve statically (non-literal payload and
    no resolvable record annotation); suppress at generic funnels.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterable, Optional

from .engine import ModuleSource, Rule, register
from .findings import Finding

__all__ = ["EVENT_REQUIREMENTS", "record_fields", "required_columns",
           "satisfied_identifiers"]

#: Abstract identifiers (fair.py vocabulary) each event type must carry.
#: ``timestamp`` keeps every stream time-alignable; entity identifiers
#: make the strong joins (task↔io↔comm) possible.
EVENT_REQUIREMENTS: dict[str, set[str]] = {
    "transition": {"key", "worker", "timestamp"},
    "task_run": {"key", "worker", "hostname", "thread", "timestamp"},
    "communication": {"key", "worker", "hostname", "timestamp"},
    "warning": {"worker", "hostname", "timestamp"},
    "steal": {"key", "worker", "timestamp"},
    "spill": {"key", "worker", "hostname", "timestamp"},
    "task_added": {"key", "timestamp"},
    "dxt_segment": {"hostname", "thread", "timestamp"},
    "fault": {"worker", "hostname", "timestamp"},
    "proxy_put": {"key", "worker", "hostname", "timestamp"},
    "proxy_resolve": {"key", "worker", "hostname", "timestamp"},
    "proxy_evict": {"key", "worker", "hostname", "timestamp"},
}

_record_fields_cache: Optional[dict[str, frozenset[str]]] = None


def record_fields() -> dict[str, frozenset[str]]:
    """Dataclass name → field names, for ``asdict(record)`` and
    ``record_dict(record)`` payloads."""
    global _record_fields_cache
    if _record_fields_cache is None:
        from ..dasklike import records as record_module
        from ..dasklike.states import TransitionRecord
        classes = [TransitionRecord]
        for name in record_module.__all__:
            obj = getattr(record_module, name)
            if dataclasses.is_dataclass(obj):
                classes.append(obj)
        _record_fields_cache = {
            cls.__name__: frozenset(
                f.name for f in dataclasses.fields(cls))
            for cls in classes
        }
    return _record_fields_cache


def _identifier_columns() -> dict[str, set[str]]:
    from ..core.fair import IDENTIFIER_COLUMNS
    return IDENTIFIER_COLUMNS


def required_columns(event_type: str) -> dict[str, set[str]]:
    """Abstract identifier → acceptable physical columns for a type."""
    columns = _identifier_columns()
    return {ident: columns[ident]
            for ident in sorted(EVENT_REQUIREMENTS[event_type])}


def satisfied_identifiers(event_type: str,
                          supplied: set[str]) -> tuple[set[str], set[str]]:
    """Split the type's required identifiers into (present, missing)."""
    present, missing = set(), set()
    for ident, physical in required_columns(event_type).items():
        (present if physical & supplied else missing).add(ident)
    return present, missing


# ---------------------------------------------------------------------------
# emission-site extraction
# ---------------------------------------------------------------------------

def _literal_keys(node: ast.Dict) -> Optional[set[str]]:
    """Constant string keys of a dict literal; None if unresolvable."""
    keys: set[str] = set()
    for key in node.keys:
        if key is None:  # ** unpacking
            return None
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return None
        keys.add(key.value)
    return keys


def _annotation_name(annotation: Optional[ast.AST]) -> str:
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and \
            isinstance(annotation.value, str):
        return annotation.value.rsplit(".", 1)[-1]
    return ""


#: Calls that flatten a record dataclass into its fields:
#: ``dataclasses.asdict`` and :func:`repro.dasklike.records.record_dict`.
_RECORD_FLATTENERS = frozenset({"asdict", "record_dict"})


def _resolve_payload(payload: ast.AST,
                     enclosing: Optional[ast.AST]) -> Optional[set[str]]:
    """Statically determine the metadata keys a payload supplies."""
    if isinstance(payload, ast.Dict):
        return _literal_keys(payload)
    # asdict(record) or record_dict(record) where ``record`` is an
    # annotated parameter of the enclosing function and the annotation
    # names a known dataclass.
    if isinstance(payload, ast.Call) and payload.args and \
            isinstance(payload.args[0], ast.Name):
        func = payload.func
        func_name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", "")
        if func_name in _RECORD_FLATTENERS and enclosing is not None:
            wanted = payload.args[0].id
            for arg in (list(enclosing.args.posonlyargs)
                        + list(enclosing.args.args)
                        + list(enclosing.args.kwonlyargs)):
                if arg.arg == wanted:
                    fields = record_fields().get(
                        _annotation_name(arg.annotation))
                    return set(fields) if fields is not None else None
    return None


def _walk_with_scope(tree: ast.Module):
    """Yield ``(node, enclosing_function)`` for every node."""
    def visit(node: ast.AST, enclosing: Optional[ast.AST]):
        yield node, enclosing
        inner = node if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)) else enclosing
        for child in ast.iter_child_nodes(node):
            yield from visit(child, inner)
    yield from visit(tree, None)


def _emission_sites(module: ModuleSource):
    """Yield ``(node, kind, message)`` diagnostics for one module.

    ``kind`` is one of the four prov- rule names (without the prefix the
    wrapper rules re-attach); clean sites yield nothing.
    """
    for node, enclosing in _walk_with_scope(module.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        attr = node.func.attr
        if attr == "push" and node.args:
            metadata = node.args[0]
            if isinstance(metadata, ast.Dict):
                keys = _literal_keys(metadata)
                if keys is None:
                    yield (node, "prov-untyped-emission",
                           "metadata literal with non-constant keys "
                           "cannot be schema-checked")
                    continue
                event_type = _dict_type_value(metadata)
                if "type" not in keys:
                    yield (node, "prov-missing-type",
                           "pushed metadata has no 'type' key; consumers "
                           "cannot route it")
                elif event_type is None:
                    yield (node, "prov-untyped-emission",
                           "'type' value is not a string literal")
                else:
                    yield from _check_type(node, event_type, keys)
            else:
                yield (node, "prov-untyped-emission",
                       "push() with a non-literal payload cannot be "
                       "schema-checked; suppress at generic funnels")
        elif attr == "_push" and len(node.args) >= 2:
            type_arg, payload = node.args[0], node.args[1]
            if not (isinstance(type_arg, ast.Constant)
                    and isinstance(type_arg.value, str)):
                yield (node, "prov-untyped-emission",
                       "_push() with a non-literal event type")
                continue
            supplied = _resolve_payload(payload, enclosing)
            if supplied is None:
                yield (node, "prov-untyped-emission",
                       f"_push({type_arg.value!r}, ...) payload is not a "
                       f"dict literal or a resolvable asdict(record) or "
                       f"record_dict(record)")
            else:
                yield from _check_type(node, type_arg.value, supplied)


def _dict_type_value(metadata: ast.Dict) -> Optional[str]:
    for key, value in zip(metadata.keys, metadata.values):
        if isinstance(key, ast.Constant) and key.value == "type":
            if isinstance(value, ast.Constant) and \
                    isinstance(value.value, str):
                return value.value
            return None
    return None


def _check_type(node: ast.AST, event_type: str, supplied: set[str]):
    if event_type not in EVENT_REQUIREMENTS:
        yield (node, "prov-unknown-event-type",
               f"event type {event_type!r} has no schema requirement "
               f"entry; register it in EVENT_REQUIREMENTS")
        return
    _present, missing = satisfied_identifiers(event_type, supplied)
    for ident in sorted(missing):
        acceptable = ", ".join(sorted(required_columns(event_type)[ident]))
        yield (node, "prov-missing-identifier",
               f"{event_type!r} emission lacks the {ident!r} identifier "
               f"(need one of: {acceptable}); downstream joins in "
               f"core.ingest will produce nulls")


class _EmissionRule(Rule):
    """Shared driver: each concrete rule keeps its own diagnostics."""

    family = "provenance"

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        for node, kind, message in _emission_sites(module):
            if kind == self.name:
                yield self.finding(module, node, message)


@register
class MissingIdentifierRule(_EmissionRule):
    name = "prov-missing-identifier"
    description = "emission payload lacks a required identifier column"


@register
class MissingTypeRule(_EmissionRule):
    name = "prov-missing-type"
    description = "pushed metadata carries no 'type' key"


@register
class UnknownEventTypeRule(_EmissionRule):
    name = "prov-unknown-event-type"
    description = "event type absent from EVENT_REQUIREMENTS"


@register
class UntypedEmissionRule(_EmissionRule):
    name = "prov-untyped-emission"
    description = "emission site not statically checkable"
