"""In-memory spans around the public names the CLI calls, and self-time arithmetic.

The benchmark traces the program from the outside: it replaces names that
``koopbound.cli`` and ``koopbound.bounds`` imported (``uav_ensemble``,
``load_trajectories``, ``hinf_norm``, ...) with wrappers that record one span
per call, and restores them afterwards.  Spans stay in memory until the run
ends.  A name that no longer exists in the program is recorded as missing and
the metrics built on it are reported as missing, instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; a span opened while another is open is its child.

    ``bookkeeping_s`` sums the time the tracer spends in its own code: opening
    and closing spans and the ``describe`` callbacks (argument fingerprints,
    file sizes).  It is the cost tracing adds to a traced pass.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.bookkeeping_s = 0.0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        opened = self.clock()
        span = Span(len(self.spans), name, opened, float("nan"),
                    self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = self.clock()
        self.bookkeeping_s += span.start - opened
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()
            self.bookkeeping_s += self.clock() - span.end

    def wrap(self, fn, name: str, describe=None):
        """Wrap ``fn`` so each call records a span; ``describe(span, args,
        kwargs, result)`` may add attributes once the call has returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if describe is not None:
                started = self.clock()
                describe(span, args, kwargs, result)
                self.bookkeeping_s += self.clock() - started
            return result

        return traced


def self_time(span: Span, spans: list[Span]) -> float:
    """Duration of ``span`` minus the part of it covered by its direct children."""
    children = sorted(
        (max(s.start, span.start), min(s.end, span.end))
        for s in spans
        if s.parent == span.id
    )
    covered, reach = 0.0, span.start
    for start, end in children:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return span.duration - covered


def fingerprint(value) -> str:
    """Content digest of call arguments: arrays by their bytes, dataclasses by
    their fields, containers element-wise, anything else by repr."""
    digest = hashlib.sha256()

    def feed(v):
        if isinstance(v, np.ndarray):
            digest.update(f"nd{v.shape}{v.dtype}".encode())
            digest.update(np.ascontiguousarray(v).tobytes())
        elif dataclasses.is_dataclass(v) and not isinstance(v, type):
            digest.update(type(v).__name__.encode())
            for f in dataclasses.fields(v):
                digest.update(f.name.encode())
                feed(getattr(v, f.name))
        elif isinstance(v, (list, tuple)):
            digest.update(f"seq{len(v)}".encode())
            for item in v:
                feed(item)
        elif isinstance(v, dict):
            digest.update(f"map{len(v)}".encode())
            for key in sorted(v, key=repr):
                feed(key)
                feed(v[key])
        else:
            digest.update(repr(v).encode())

    feed(value)
    return digest.hexdigest()


class Patcher:
    """Replaces module attributes and restores them on ``restore``."""

    def __init__(self):
        self._saved: list[tuple] = []
        self.missing: list[str] = []

    def replace(self, module, attr: str, make) -> None:
        """Set ``module.attr = make(original)``; record a missing name instead
        of failing when the module no longer has ``attr``."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
