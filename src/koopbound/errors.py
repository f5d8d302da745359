"""Exception types shared across the toolkit, and the decoding of an input
line that raises one."""


class KoopboundError(Exception):
    """Base class for all toolkit errors."""


class ParseError(KoopboundError):
    """Malformed input file; the message names the offending line."""


class DimensionMismatchError(KoopboundError):
    """Array or file dimensions disagree with the expected shape."""


class DataError(KoopboundError):
    """Input data violates a value constraint (non-finite entries, duplicate ids)."""


class InsufficientDataError(KoopboundError):
    """Too little data for the requested computation: an array with no
    entries (each array check names the field and its shape), a trajectory
    file with no data rows, too few runs or snapshot columns, or an
    identically zero snapshot matrix."""


class ParameterError(KoopboundError):
    """A parameter lies outside its documented range."""


class DivergenceError(KoopboundError):
    """An iterative search fails to converge: the H-infinity level search.
    A discount factor of 1 or more is a ParameterError."""


class SchemaError(KoopboundError):
    """A JSON document is missing a required field, or a field of it or a
    config value holds a wrong type."""


def decode_line(line: bytes, line_no: int) -> str:
    """A line of an input file as UTF-8 text; bytes that are not UTF-8 are a
    ParseError naming the line."""
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"line {line_no}: not UTF-8 text at byte {exc.start + 1} "
                         f"({exc.reason})") from None
