"""The one JSON encoding of every document koopbound writes and reads.

Documents are written with two-space indentation, sorted keys and a trailing
newline.  An infinite gain or bound (+inf) is written as the string "inf",
which ``float()`` reads back; NaN and -inf have no encoding, so a document
holding one is refused, and no output ever contains a token that standard
JSON parsers reject.  A document is encoded whole before its file is opened,
so one that does not encode writes nothing.

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
    """Write ``doc`` to ``path``; raises DataError on NaN or -inf anywhere,
    and json's TypeError on a value it has no encoding for, before the file
    is opened."""
    text = json.dumps(_encode(doc, ""), indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


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


def as_number(node, where: str, kind: str | None = None) -> float:
    """A number of a document, or the string "inf" this codec writes for +inf,
    in the range of ``kind`` when one is given.  The NaN and -Infinity tokens
    that json.load accepts are refused, as the writer refuses their values.
    (Config numbers are read by the CLI's own reader, which lets NaN and
    +-inf through to the range check of the key's kind.)"""
    value = float(node) if is_number(node) or node == "inf" else math.nan
    if math.isnan(value) or value == -math.inf:
        raise SchemaError(f"{where} must be a number, got {node!r}")
    return value if kind is None else _in_range(value, where, kind, SchemaError)


def as_integer(node, where: str, kind: str | None = None) -> int:
    """An integral JSON number (2 or 2.0, not 2.5 or true), in the range of
    ``kind`` when one is given."""
    if not (type(node) is int or type(node) is float and node.is_integer()):
        raise SchemaError(f"{where} must be an integer, got {node!r}")
    return int(node) if kind is None else _in_range(int(node), where, kind, SchemaError)


# The range test of each kind of scalar, which NaN fails, and the rule it
# states; +inf is a vacuous cap, an unstable gain or an endless horizon.  A
# seed is also an int64, the type an ensemble records its runs' seeds in.
_RANGES = {
    "level": (lambda v: 0 <= v < math.inf, "must be finite and non-negative"),
    "bound level": (lambda v: v >= 0, "must be non-negative"),
    "discount factor": (lambda v: 0 <= v < 1, "must be finite and non-negative, and must be "
                        "below 1 as a discount factor"),
    "count": (lambda v: isinstance(v, numbers.Integral) and v >= 1,
              "must be an integer of at least 1"),
    "horizon": (lambda v: v == math.inf or v >= 1 and v % 1 == 0,
                "must be a whole number of at least 1, or inf"),
    "seed": (lambda v: isinstance(v, numbers.Integral) and 0 <= v < 2**63,
             "must be non-negative and an integer below 2**63"),
    "positive": (lambda v: 0 < v < math.inf, "must be finite and positive"),
    "fraction": (lambda v: 0 <= v <= 1, "must lie in [0, 1]"),
    "finite": (lambda v: -math.inf < v < math.inf, "must be finite"),
    "rank tolerance": (lambda v: 0 < v < 1, "must lie in (0, 1)"),
}


def _in_range(value, name: str, kind: str, error=ParameterError):
    """value, unchanged, when it is a number (numpy's too, not a bool, complex or
    string) in the range of its kind; else an ``error`` naming the field: a
    ParameterError for a library argument or record field, a SchemaError for
    a document's number.  Every kind but a count and a seed holds a float, so
    an integer beyond float range is out of its range (it passes the range
    test, since 10**400 < inf, and float() of it overflows)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a number, got {value!r}")
    test, rule = _RANGES[kind]
    huge = isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max
    if huge and kind not in ("count", "seed") or not test(value):
        raise error(f"{name} {rule}, got {'an integer beyond float range' if huge else value}")
    return value


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
