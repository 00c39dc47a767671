"""The one JSON file reader, and the one typed builder of config dataclasses.

A config value is checked against its field's annotation when the config
loads: a ``bool`` takes only true/false, an ``int`` an integer (not a bool,
not 5.5), a ``float`` a finite integer or float (stored as a float), a
``str`` a string, a ``tuple[...]`` a list of its element type, and
``X | None`` also null. Nothing is coerced from a string.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import types
import typing
from typing import Collection, Mapping

from .errors import ConfigError, ToolkitError

_KINDS = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def read_json(path: str | os.PathLike, error: type[ToolkitError]):
    """The JSON value in the file at ``path``; ``error`` if it is not JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise error(f"{path}: invalid JSON: {exc}") from exc


def config_values(
    cls: type, doc, what: str, aliases: Mapping[str, str] = {},
    names: Collection[str] | None = None,
) -> dict:
    """The entries of the JSON object ``doc`` by field of ``cls``, typed.

    A key names a field (of ``names`` when given) or an alias of one.
    A non-object, an unknown key or a mistyped value raises ConfigError;
    ``what`` names the document in the message.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be an object, got {type(doc).__name__}")
    hints = typing.get_type_hints(cls)
    if names is None:
        names = [f.name for f in dataclasses.fields(cls) if f.init]
    values = {}
    for key, value in doc.items():
        name = aliases.get(key, key)
        if name not in names:
            raise ConfigError(f"unknown {what} key '{key}'")
        values[name] = _typed(value, hints[name], f"{what} {key}")
    return values


def build_config(cls: type, doc, what: str, aliases: Mapping[str, str] = {}, **given):
    """``cls`` from ``doc``'s typed entries over the ``given`` field values.

    A TypeError or ValueError from the dataclass's own checks becomes a
    ConfigError.
    """
    kwargs = {**given, **config_values(cls, doc, what, aliases)}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} value: {exc}") from exc


def _typed(value, hint, name: str):
    """``value`` if it fits the annotation ``hint`` (ints widen to float)."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = (a for a in args if a is not type(None))
        return _typed(value, inner, name)
    if typing.get_origin(hint) is tuple:
        if isinstance(value, list):
            kinds = (args[0],) * len(value) if args[-1] is Ellipsis else args
            if len(kinds) == len(value):
                items = enumerate(zip(value, kinds))
                return tuple(_typed(v, kind, f"{name}[{i}]") for i, (v, kind) in items)
        size = "" if args[-1] is Ellipsis else f" of {len(args)}"
        raise ConfigError(f"{name} must be a list{size}, got {value!r}")
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is float:
        # NaN, the infinities and ints past float range fail the bound.
        if is_number and abs(value) <= sys.float_info.max:
            return float(value)
    elif isinstance(value, hint) and (hint is not int or is_number):
        return value
    kind = _KINDS.get(hint, getattr(hint, "__name__", str(hint)))
    raise ConfigError(f"{name} must be {kind}, got {value!r}")
