"""Spans recorded around calls into sre_lab from outside the program.

A `Tracer` keeps every span in memory (name, start, end, parent span and op
id) and writes them out once the run is over.  `patched` puts a wrapper in
place of a function on every module of a package that binds it, so a call
is seen whichever import path the caller used, and puts the originals back
on exit.  `self_times` turns nested spans into per-span self time: a span's
duration minus the part covered by its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "info")

    def __init__(self, name: str, parent: Optional[int], op: Optional[int]):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.op = op
        self.error: Optional[str] = None
        self.info: Optional[dict] = None

    def to_json(self) -> dict:
        out = {"name": self.name, "start": self.start, "end": self.end, "parent": self.parent, "op": self.op}
        if self.error is not None:
            out["error"] = self.error
        if self.info is not None:
            out["info"] = self.info
        return out


class Tracer:
    """In-memory spans; a wrapped call records one only while an op is open."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._op: Optional[int] = None

    @contextmanager
    def op(self, op_id: int, info: Optional[dict] = None) -> Iterator[Span]:
        """Root span named "op"; every span recorded inside carries op_id."""
        if self._open:
            raise RuntimeError("ops do not nest")
        self._op = op_id
        try:
            with self._span("op") as span:
                span.info = info
                yield span
        finally:
            self._op = None

    @contextmanager
    def _span(self, name: str) -> Iterator[Span]:
        span = Span(name, self._open[-1] if self._open else None, self._op)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock() - self.origin
        try:
            yield span
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = self.clock() - self.origin
            self._open.pop()

    def wrap(self, name: str, fn: Callable, extract: Optional[Callable[[object], dict]] = None) -> Callable:
        """fn with a span per call; extract(result) is kept as the span's info."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._open:
                return fn(*args, **kwargs)
            with self._span(name) as span:
                result = fn(*args, **kwargs)
            if extract is not None:
                span.info = extract(result)
            return result

        return traced

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for index, span in enumerate(self.spans):
                out.write(json.dumps({"id": index, **span.to_json()}) + "\n")


@contextmanager
def patched(package: str, replacements: dict) -> Iterator[None]:
    """Bind replacements[f] wherever a module of `package` binds f; undo on exit."""
    by_id = {id(original): (original, new) for original, new in replacements.items()}
    undo = []
    try:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    undo.append((module, attr, value))
                    setattr(module, attr, hit[1])
        yield
    finally:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.end - span.start
    return out
