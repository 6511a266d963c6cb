"""Event argument schemas: per-type role inventories and completeness checks.

The event type inventory lives in a JSON config file rather than code so a
deployment can rename or extend reaction types without touching the resolver.
A role whose class list contains the pseudo-class ``Event`` accepts event
mentions as fillers; any type with such a role is treated as a regulation,
which caps anaphoric event search at one level of nesting.
"""

from __future__ import annotations

import json
import os
from functools import cache
from typing import NamedTuple

from .model import EventMention, MalformedInput, SchemaViolation

EVENT_PSEUDO_CLASS = "Event"


class SchemaMissing(KeyError):
    """Raised when an event type has no schema row."""


class RoleSpec(NamedTuple):
    classes: frozenset[str]
    count: int  # required minimum; 0 marks an optional role

    @property
    def allows_events(self) -> bool:
        return EVENT_PSEUDO_CLASS in self.classes


class ArgSchema:
    """Role specs by event type and role. Regulations are the types with a role taking events."""

    __slots__ = ("types", "event_types", "regulation_types")

    def __init__(self, types: dict[str, dict[str, RoleSpec]]) -> None:
        self.types = types
        self.event_types = frozenset(types)
        self.regulation_types = frozenset(
            t for t, roles in types.items() if any(spec.allows_events for spec in roles.values()))

    def roles_for(self, event_type: str) -> dict[str, RoleSpec]:
        try:
            return self.types[event_type]
        except KeyError:
            raise SchemaMissing(event_type) from None

    def role_spec(self, event_type: str, role: str) -> RoleSpec:
        roles = self.roles_for(event_type)
        try:
            return roles[role]
        except KeyError:
            raise SchemaMissing(f"{event_type}.{role}") from None


def load_schema(data: bytes | str) -> ArgSchema:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"schema config: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaViolation("schema config: top level must be an object")
    types: dict[str, dict[str, RoleSpec]] = {}
    for event_type, roles in raw.items():
        if not isinstance(roles, dict) or not roles:
            raise SchemaViolation(f"schema config: {event_type} needs at least one role")
        specs: dict[str, RoleSpec] = {}
        for role, spec in roles.items():
            bad = f"schema config: bad role spec {event_type}.{role}"
            if not isinstance(spec, dict):
                raise SchemaViolation(f"{bad}: must be an object")
            classes = spec.get("classes")
            count = spec.get("count")
            if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
                raise SchemaViolation(f"{bad}: classes must be a list of strings")
            if type(count) is not int or count < 0:  # a bool is an int, but not a count
                raise SchemaViolation(f"{bad}: count must be an integer of at least 0")
            specs[role] = RoleSpec(frozenset(classes), count)
        types[event_type] = specs
    return ArgSchema(types)


def load_schema_file(path) -> ArgSchema:
    with open(path, "rb") as fh:
        return load_schema(fh.read())


@cache
def default_schema() -> ArgSchema:
    return load_schema_file(os.path.join(os.path.dirname(__file__), "data", "schema.json"))


def structurally_complete(event: EventMention, schema: ArgSchema) -> bool:
    """Every required role is filled at least ``count`` times."""
    filled: dict[str, int] = {}
    for arg in event.args:
        filled[arg.role] = filled.get(arg.role, 0) + 1
    return all(filled.get(role, 0) >= spec.count
               for role, spec in schema.roles_for(event.event_type).items())
