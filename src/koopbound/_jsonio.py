"""The one JSON encoding of every document koopbound writes and reads.

Documents are written with two-space indentation, sorted keys and a trailing
newline.  An infinite gain or bound (+inf) is written as the string "inf",
which ``float()`` reads back; NaN and -inf have no encoding, so a document
holding one is refused before its file is opened, and no output ever
contains a token that standard JSON parsers reject.
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
