"""The one JSON file reader, and the one typed builder of dataclasses from
JSON documents: run configs, targets files, tile plans, fold assignments,
baseline reports and ``.grid`` headers. ``check_seed`` is the one seed check.

Each document has one dataclass, nested sections included: ``build_config``
reads it and ``dataclasses.asdict`` writes it. A key is a field's name, or
the ``alias`` in the field's metadata.

A value is checked against its field's annotation when the document
loads: a ``bool`` takes only true/false, an ``int`` an integer (not a bool,
not 5.5), a ``float`` a finite integer or float (stored as a float), a
``str`` a string, a ``dict`` an object, a ``tuple[...]`` or ``list[...]`` a
list of its element type, a ``dict[str, X]`` an object of X values, a
dataclass an object typed the same way, and ``X | None`` also null.
Nothing is coerced from a string. A config raises ConfigError (exit 2); a
data file passes ``error=DataError`` (exit 3).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import types
import typing

from .errors import ConfigError, ToolkitError

_KINDS = {
    bool: "true or false", int: "an integer", float: "a finite number", str: "a string",
    dict: "an object",
}


class ReadOnlyDict(dict):
    """A dict that refuses writes, for a mapping field of a frozen document
    (``dataclasses.asdict`` cannot copy a ``MappingProxyType``)."""

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


def read_json(path: str | os.PathLike, error: type[ToolkitError]):
    """The JSON value in the file at ``path``; ``error`` if it is not JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise error(f"{path}: invalid JSON: {exc}") from exc


def check_seed(seed: int) -> None:
    """Raise ConfigError for a negative seed, which numpy's generators refuse."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def config_values(cls: type, doc, what: str, error: type[ToolkitError] = ConfigError) -> dict:
    """The entries of the JSON object ``doc`` by field of ``cls``, typed.

    A key names a field or its alias. A non-object, an unknown key, a
    field given twice (by its name and its alias) or a mistyped value
    raises ``error``; ``what`` names the document in the message.
    """
    if not isinstance(doc, dict):
        raise error(f"{what} must be an object, got {type(doc).__name__}")
    hints, keys = _hints(cls), _keys(cls)
    values = {}
    for key, value in doc.items():
        name = keys.get(key)
        if name is None:
            raise error(f"unknown {what} key '{key}'")
        if name in values:
            first = next(k for k in doc if keys[k] == name)
            raise error(f"{what} keys '{first}' and '{key}' both give {name}")
        values[name] = _typed(value, hints[name], f"{what} {key}", error)
    return values


def build_config(cls: type, doc, what: str, error: type[ToolkitError] = ConfigError):
    """``cls`` from ``doc``'s typed entries.

    A required field with no value raises ``error``, and so does a
    TypeError, ValueError or ``error`` from the dataclass's own checks,
    with ``what`` named in the message.
    """
    kwargs = config_values(cls, doc, what, error=error)
    missing = [name for name in _required(cls) if name not in kwargs]
    if missing:
        raise error(f"{what} lacks {', '.join(missing)}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, error) as exc:
        raise error(f"bad {what} value: {exc}") from exc


@functools.cache
def _hints(cls: type) -> dict:
    return typing.get_type_hints(cls)


@functools.cache
def _keys(cls: type) -> dict[str, str]:
    """The field each JSON key of ``cls`` names: every init field by its
    name, and by its ``alias`` where its metadata has one."""
    keys = {}
    for f in dataclasses.fields(cls):
        if f.init:
            keys[f.name] = f.name
            if "alias" in f.metadata:
                keys[f.metadata["alias"]] = f.name
    return keys


@functools.cache
def _required(cls: type) -> tuple[str, ...]:
    missing = dataclasses.MISSING
    return tuple(
        f.name for f in dataclasses.fields(cls)
        if f.init and f.default is missing and f.default_factory is missing
    )


def _typed(value, hint, name: str, error: type[ToolkitError]):
    """``value`` if it fits the annotation ``hint`` (ints widen to float)."""
    if hint in _KINDS:
        is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if hint is float:
            # NaN, the infinities and ints past float range fail the bound.
            if is_number and abs(value) <= sys.float_info.max:
                return float(value)
        elif isinstance(value, hint) and (hint is not int or is_number):
            return value
        raise error(f"{name} must be {_KINDS[hint]}, got {value!r}")
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = (a for a in args if a is not type(None))
        return _typed(value, inner, name, error)
    if origin in (tuple, list):
        if isinstance(value, list):
            kinds = (args[0],) * len(value) if origin is list or args[-1] is Ellipsis else args
            if len(kinds) == len(value):
                items = enumerate(zip(value, kinds))
                return origin(_typed(v, kind, f"{name}[{i}]", error) for i, (v, kind) in items)
        size = f" of {len(args)}" if origin is tuple and args[-1] is not Ellipsis else ""
        raise error(f"{name} must be a list{size}, got {value!r}")
    if origin is dict:
        if isinstance(value, dict):
            return {k: _typed(v, args[1], f"{name}[{k!r}]", error) for k, v in value.items()}
        raise error(f"{name} must be an object, got {value!r}")
    if dataclasses.is_dataclass(hint):
        return build_config(hint, value, name, error=error)
    if isinstance(value, hint):
        return value
    raise error(f"{name} must be {getattr(hint, '__name__', hint)}, got {value!r}")
