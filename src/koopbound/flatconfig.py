"""Flat dotted-key config files: one `section.key = value` per line.

Values are parsed as JSON when possible (numbers, booleans, lists), falling
back to the raw string.  Lines starting with # and blank lines are ignored.
The file is UTF-8 text; other bytes are a ParseError naming the line.
"""

from __future__ import annotations

import json

from .errors import ParseError, decode_line


def parse_flat_value(text: str):
    text = text.strip()
    try:
        return json.loads(text)
    except ValueError:  # not JSON, or an integer too long to convert
        return text


def load_flat_config(path) -> dict:
    cfg: dict = {}
    with open(path, "rb") as fh:
        raw_lines = fh.read().splitlines()
    for line_no, raw in enumerate(raw_lines, start=1):
        line = decode_line(raw, line_no).strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ParseError(f"line {line_no}: empty key")
        if key in cfg:
            raise ParseError(f"line {line_no}: duplicate key {key!r}")
        cfg[key] = parse_flat_value(value)
    return cfg
