"""Tests for the span tracer."""

import pytest

from repro.analysis.trace import TraceError, Tracer
from repro.sim import Simulator


def test_span_records_simulated_time():
    sim = Simulator()
    tracer = Tracer(sim)

    def proc(sim):
        with tracer.span("request"):
            yield sim.timeout(2.0)

    sim.spawn(proc(sim))
    sim.run()
    [span] = tracer.roots
    assert span.name == "request"
    assert span.duration_s == pytest.approx(2.0)


def test_nested_spans_and_self_time():
    sim = Simulator()
    tracer = Tracer(sim)

    def proc(sim):
        with tracer.span("request"):
            with tracer.span("startup"):
                yield sim.timeout(1.0)
            with tracer.span("exec"):
                yield sim.timeout(3.0)
            yield sim.timeout(0.5)

    sim.spawn(proc(sim))
    sim.run()
    [root] = tracer.roots
    assert [c.name for c in root.children] == ["startup", "exec"]
    assert root.duration_s == pytest.approx(4.5)
    assert root.self_time_s() == pytest.approx(0.5)


def test_attributes_recorded():
    tracer = Tracer(Simulator())
    with tracer.span("exec", pu="dpu0", cold=True) as span:
        pass
    assert span.attributes == {"pu": "dpu0", "cold": True}


def test_find_by_name():
    tracer = Tracer(Simulator())
    with tracer.span("a"):
        with tracer.span("b"):
            pass
        with tracer.span("b"):
            pass
    assert len(tracer.find("b")) == 2
    assert tracer.find("zzz") == []


def test_mismatched_end_rejected():
    tracer = Tracer(Simulator())
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(TraceError):
        tracer.end(outer)


def test_double_end_rejected():
    tracer = Tracer(Simulator())
    span = tracer.begin("s")
    tracer.end(span)
    with pytest.raises(TraceError):
        tracer.end(span)


def test_open_span_duration_rejected():
    tracer = Tracer(Simulator())
    span = tracer.begin("s")
    with pytest.raises(TraceError):
        _ = span.duration_s
    assert span.open


def test_render_produces_indented_tree():
    sim = Simulator()
    tracer = Tracer(sim)

    def proc(sim):
        with tracer.span("request"):
            with tracer.span("exec"):
                yield sim.timeout(1.0)

    sim.spawn(proc(sim))
    sim.run()
    text = tracer.render()
    lines = text.splitlines()
    assert lines[0].startswith("request")
    assert lines[1].startswith("  exec")
    assert "ms" in lines[1]


def test_spans_are_lean():
    # Replays retain one tree per request: no per-span __dict__, no
    # parent back-pointer (a reference cycle per span), and no list on
    # a leaf.
    tracer = Tracer(Simulator())
    with tracer.span("request"):
        with tracer.span("exec", pu="dpu0") as leaf:
            pass
    [root] = tracer.roots
    assert root.children == [leaf]
    assert leaf.children == ()
    assert not hasattr(leaf, "__dict__")
    assert not hasattr(leaf, "parent")
