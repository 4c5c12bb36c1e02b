"""The one reader of the JSON objects that the library and the CLI take:
each kind of object declares its keys once, in a table of :class:`Key`
entries, and :func:`read_keys` rejects any other key."""

from __future__ import annotations

from typing import Callable, NamedTuple

from .errors import InvalidInput


class Type(NamedTuple):
    """What a key's JSON value must be, a test for it, and its conversion."""

    what: str
    accepts: Callable[[object], bool]
    convert: Callable = lambda value: value


class Key(NamedTuple):
    """A key of a JSON object: its type (None for a value that its reader
    checks itself), its value when absent, the lower bound its reader needs
    (bounds the library checks stay there), and, for a key the object must
    carry, the error message when it is absent."""

    type: Type | None = None
    default: object = None
    low: int | None = None
    required: str | None = None

    def read(self, name, value):
        if not self.type.accepts(value):
            raise InvalidInput(f"{name} must be {self.type.what}")
        if self.low is not None and value < self.low:
            raise InvalidInput(f"{name} must be at least {self.low}")
        return self.type.convert(value)


def tag(obj, name: str, what: str):
    """The JSON object ``obj``'s value of ``name``, None when absent: the key
    (a kind, a model, a variant) that picks the table ``obj`` is read by."""
    if not isinstance(obj, dict):
        raise InvalidInput(f"{what} must be a JSON object")
    return obj.get(name)


def read_keys(obj, keys: dict[str, Key], what: str) -> dict:
    """Each key of the table ``keys``: its checked value in the JSON object
    ``obj``, else its default.  A key of ``obj`` that the table does not
    declare, or a required key it lacks, is invalid; ``what`` names ``obj``."""
    if not isinstance(obj, dict):
        raise InvalidInput(f"{what} must be a JSON object")
    if not obj.keys() <= keys.keys():
        stray = next(name for name in obj if name not in keys)
        raise InvalidInput(f"unknown key {stray!r} for {what}")
    out = {}
    for name, key in keys.items():
        if name in obj:
            out[name] = obj[name] if key.type is None else key.read(name, obj[name])
        elif key.required:
            raise InvalidInput(key.required)
        else:
            out[name] = key.default
    return out
