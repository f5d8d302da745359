"""The one JSON encoding of every document koopbound writes and reads.

Documents are written with two-space indentation, sorted keys and a trailing
newline.  An infinite gain or bound (+inf) is written as the string "inf",
which ``float()`` reads back; NaN and -inf have no encoding, so a document
holding one is refused before its file is opened, and no output ever
contains a token that standard JSON parsers reject.  The ``as_*`` readers
check one field of a parsed document and raise SchemaError naming it.
"""

from __future__ import annotations

import json
import math

from .errors import DataError, SchemaError


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


def read_json(path):
    """Parse the JSON document at ``path``; malformed text is a SchemaError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from None


def as_object(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise SchemaError(f"{where} must be a JSON object, got {node!r}")
    return node


def as_number(node, where: str, finite: bool = False) -> float:
    """A JSON number, or the string "inf" this codec writes for +inf; with
    ``finite``, a finite one.  The NaN and -Infinity tokens that json.load
    accepts are refused, as the writer refuses their values."""
    if isinstance(node, bool) or not (isinstance(node, (int, float)) or node == "inf"):
        raise SchemaError(f"{where} must be a number, got {node!r}")
    value = float(node)
    if math.isnan(value) or value == -math.inf or finite and math.isinf(value):
        raise SchemaError(f"{where} must be a {'finite ' if finite else ''}number, got {node!r}")
    return value


def as_integer(node, where: str) -> int:
    """An integral JSON number (2 or 2.0, not 2.5 or true)."""
    if isinstance(node, int) and not isinstance(node, bool):
        return node
    if isinstance(node, float) and node.is_integer():
        return int(node)
    raise SchemaError(f"{where} must be an integer, got {node!r}")
