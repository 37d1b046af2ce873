"""The one rule by which JSON becomes typed values; config and corpus both read through it."""

import json
from dataclasses import fields, is_dataclass


def from_json(default, value, name: str):
    """value as default's type, by one rule for every field: a dataclass from
    an object of its fields, a tuple from a list, and a number of its
    default's kind (an int may stand for a float, only a bool for a bool)."""
    if is_dataclass(default):
        if not isinstance(value, dict):
            raise ValueError(f"{name or 'a run config'} must be a JSON object")
        unknown = sorted(set(value) - {f.name for f in fields(default)})
        if unknown:
            raise ValueError(f"unknown fields in {name or 'the run config'}: {', '.join(unknown)}")
        given = {k: from_json(getattr(default, k), v, f"{name}.{k}".lstrip(".")) for k, v in value.items()}
        return type(default)(**given)
    if isinstance(default, tuple) and isinstance(value, list):
        return tuple(from_json(default[0], v, name) for v in value)
    kind = (int, float) if type(default) is float else type(default)
    if not isinstance(value, kind) or isinstance(value, bool) != isinstance(default, bool):
        raise ValueError(f"{name} must be of type {type(default).__name__}, got {json.dumps(value)}")
    return value
