"""Lightweight span tracing over simulated time.

A :class:`Tracer` records nested spans (request -> startup -> exec ->
comm ...) against the simulation clock, giving experiments and users a
structured timeline of where a request's latency went — the breakdowns
behind Fig. 10/11 style analyses.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import ReproError
from repro.sim import Simulator


class TraceError(ReproError):
    """Invalid span nesting or lifecycle."""


class Span:
    """One named interval of simulated time.

    A load replay retains one span tree per request, so a span is lean:
    no parent back-pointer, ``attributes`` is the dict it was opened
    with (not a copy), and ``children`` is a shared ``()`` until the
    first child arrives.
    """

    __slots__ = ("name", "begin_s", "end_s", "children", "attributes")

    def __init__(self, name: str, begin_s: float, attributes: dict[str, object]):
        self.name = name
        self.begin_s = begin_s
        self.end_s: Optional[float] = None
        self.children: list[Span] | tuple[()] = ()
        self.attributes = attributes

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, begin_s={self.begin_s!r}, "
                f"end_s={self.end_s!r}, children={len(self.children)})")

    @property
    def duration_s(self) -> float:
        """Span length (raises while still open)."""
        if self.end_s is None:
            raise TraceError(f"span {self.name!r} is still open")
        return self.end_s - self.begin_s

    @property
    def open(self) -> bool:
        """True while the span has not been closed."""
        return self.end_s is None

    def self_time_s(self) -> float:
        """Duration not covered by child spans."""
        return self.duration_s - sum(child.duration_s for child in self.children)


def open_span(stack: list[Span], name: str, now: float,
              attributes: dict[str, object]) -> Span:
    """Open a span under the innermost open one on ``stack`` (if any)
    and push it."""
    span = Span(name, now, attributes)
    if stack:
        parent = stack[-1]
        if parent.children:
            parent.children.append(span)
        else:
            parent.children = [span]
    stack.append(span)
    return span


def close_span(stack: list[Span], span: Span, now: float) -> Span:
    """Close ``span``, which must be the innermost open one, and pop it."""
    if not stack or stack[-1] is not span:
        raise TraceError(f"span {span.name!r} is not the innermost open span")
    span.end_s = now
    stack.pop()
    return span


def render_spans(roots: Iterable[Span]) -> str:
    """An indented text timeline of the trees under ``roots``."""
    lines: list[str] = []

    def walk(span, depth):
        duration = "OPEN" if span.open else f"{span.duration_s * 1e3:9.3f} ms"
        lines.append(f"{'  ' * depth}{span.name:<24} {duration}")
        for child in span.children:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


class Tracer:
    """Records a tree of spans per logical trace."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def begin(self, name: str, **attributes) -> Span:
        """Open a span nested under the innermost open one."""
        span = open_span(self._stack, name, self.sim.now, attributes)
        if len(self._stack) == 1:
            self.roots.append(span)
        return span

    def end(self, span: Span) -> Span:
        """Close a span; must be the innermost open one."""
        return close_span(self._stack, span, self.sim.now)

    def span(self, name: str, **attributes) -> "SpanContext":
        """Context manager form: ``with tracer.span("exec"): ...``."""
        return SpanContext(self.begin, self.end, name, attributes)

    def find(self, name: str) -> list[Span]:
        """All spans with ``name``, depth-first."""
        found = []

        def walk(span):
            if span.name == name:
                found.append(span)
            for child in span.children:
                walk(child)

        for root in self.roots:
            walk(root)
        return found

    def render(self) -> str:
        """An indented text timeline of all root spans."""
        return render_spans(self.roots)


class SpanContext:
    """``with``-block around a ``begin``/``end`` pair of callables."""

    __slots__ = ("begin", "end", "name", "attributes", "span")

    def __init__(self, begin, end, name: str, attributes: dict):
        self.begin = begin
        self.end = end
        self.name = name
        self.attributes = attributes
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self.begin(self.name, **self.attributes)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self.span is not None
        self.end(self.span)
