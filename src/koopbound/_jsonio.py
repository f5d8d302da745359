"""The one JSON encoding of every document koopbound writes and reads.

Documents are written with two-space indentation, sorted keys and a trailing
newline.  An infinite gain or bound (+inf) is written as the string "inf",
which ``float()`` reads back; NaN and -inf have no encoding, so a document
holding one is refused before its file is opened, and no output ever
contains a token that standard JSON parsers reject.

The ``as_*`` readers check one parsed JSON value, a field of a document or a
config value, and raise SchemaError naming it.  They are the one check of each
value kind: model and report files and config lines all go through them.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
import sys

import numpy as np

from .errors import DataError, ParameterError, SchemaError


def _encode(node, where: str):
    if isinstance(node, float):
        if math.isfinite(node):
            return node
        if node > 0:
            return "inf"
        raise DataError(f"{where or 'document'} is {float(node)}, which has no JSON encoding")
    if isinstance(node, dict):
        return {key: _encode(value, f"{where}.{key}" if where else str(key))
                for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_encode(value, f"{where}[{i}]") for i, value in enumerate(node)]
    return node


def write_json(doc, path) -> None:
    """Write ``doc`` to ``path``; raises DataError on NaN or -inf anywhere."""
    encoded = _encode(doc, "")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(encoded, fh, indent=2, sort_keys=True)
        fh.write("\n")


def encodes(node, value) -> bool:
    """Whether the parsed JSON ``node`` is what this codec writes for
    ``value``: equal strings, lists item by item, and equal numbers, where an
    integral literal may stand for an integral float but a boolean never
    stands for a number."""
    encoded = _encode(value, "")
    if isinstance(encoded, list):
        return (isinstance(node, list) and len(node) == len(encoded)
                and all(map(encodes, node, encoded)))
    return node == encoded and (type(node) is bool) == (type(encoded) is bool)


def read_json(path):
    """Parse the JSON document at ``path``; malformed text is a SchemaError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # also an integer literal too long to convert
            raise SchemaError(f"not valid JSON: {exc}") from None


def as_object(node, where: str, keys=()) -> dict:
    """A JSON object holding every one of ``keys``."""
    if not isinstance(node, dict):
        raise SchemaError(f"{where} must be a JSON object, got {node!r}")
    for key in keys:
        if key not in node:
            raise SchemaError(f"{where} is missing field {key!r}")
    return node


def is_number(node) -> bool:
    """Whether node is a JSON number with a float value: a float (NaN and
    +-inf included) or an int, not a bool, within float range."""
    return type(node) is float or type(node) is int and abs(node) <= sys.float_info.max


def as_number(node, where: str, finite: bool = False, nonnegative: bool = False) -> float:
    """A number of a document, or the string "inf" this codec writes for +inf;
    with ``finite``, a finite one, and with ``nonnegative``, one of at least
    0.  The NaN and -Infinity tokens that
    json.load accepts are refused, as the writer refuses their values.
    (Config numbers are read by the CLI's own reader, which lets NaN and
    +-inf through to the range checks of the classes that take them.)"""
    if not (is_number(node) or node == "inf"):
        raise SchemaError(f"{where} must be a number, got {node!r}")
    value = float(node)
    if (math.isnan(value) or value == -math.inf or finite and math.isinf(value)
            or nonnegative and value < 0):
        kind = ("finite " if finite else "") + ("non-negative " if nonnegative else "")
        raise SchemaError(f"{where} must be a {kind}number, got {node!r}")
    return value


# The range test of each kind of scalar parameter, which NaN fails, and the
# rule it states; +inf is a vacuous cap, an unstable gain or an endless horizon.
_RANGES = {
    "level": (lambda v: 0 <= v < math.inf, "must be finite and non-negative"),
    "bound level": (lambda v: v >= 0, "must be non-negative"),
    "discount factor": (lambda v: 0 <= v < 1, "must be finite and non-negative, and must be "
                        "below 1 as a discount factor"),
    "count": (lambda v: isinstance(v, numbers.Integral) and v >= 1,
              "must be an integer of at least 1"),
    "horizon": (lambda v: v == math.inf or v >= 1 and v % 1 == 0,
                "must be a whole number of at least 1, or inf"),
}


def _in_range(value, name: str, kind: str):
    """value, unchanged, when it is a number (numpy's too, not a bool, complex or
    string) in the range of its kind; else a ParameterError naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a number, got {value!r}")
    test, rule = _RANGES[kind]
    if not test(value):
        raise ParameterError(f"{name} {rule}, got {value}")
    return value


def as_integer(node, where: str) -> int:
    """An integral JSON number (2 or 2.0, not 2.5 or true)."""
    if isinstance(node, int) and not isinstance(node, bool):
        return node
    if isinstance(node, float) and node.is_integer():
        return int(node)
    raise SchemaError(f"{where} must be an integer, got {node!r}")


def as_string(node, where: str) -> str:
    if not isinstance(node, str):
        raise SchemaError(f"{where} must be a string, got {node!r}")
    return node


def as_numbers(node, where: str) -> np.ndarray:
    """A list of numbers, or a list of equally long such lists, as a float
    array; each cell passes is_number, so NaN and +-inf are left to the
    caller.  The error shows an abridged repr of the value."""
    cells = np.array(node, dtype=object)  # ragged lists stay list cells
    if not (isinstance(node, list) and all(is_number(c) for c in cells.flat)):
        raise SchemaError(f"{where} must be a list of numbers or of equally long lists "
                          f"of them, got {reprlib.repr(node)}")
    return cells.astype(float)
