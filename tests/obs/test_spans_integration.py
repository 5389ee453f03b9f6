"""Integration tests: a full MoleculeRuntime invocation produces a
complete, properly nested span tree, and cold/fork/warm starts land in
the right ``start_kind`` label."""

import gc

import pytest

from repro import (
    FunctionCode,
    FunctionDef,
    Language,
    MoleculeRuntime,
    PuKind,
    Simulator,
    WorkProfile,
    build_full_machine,
)
from repro.analysis.trace import TraceError
from repro.hardware import FabricResources, KernelSpec
from repro.obs.spans import LIFECYCLE_PHASES


def _python_fn(name="hello", import_ms=120.0, profiles=(PuKind.CPU, PuKind.DPU)):
    return FunctionDef(
        name=name,
        code=FunctionCode(name, language=Language.PYTHON, import_ms=import_ms),
        work=WorkProfile(warm_exec_ms=15.0),
        profiles=profiles,
    )


@pytest.fixture
def molecule():
    return MoleculeRuntime.create(num_dpus=1)


def _last_trace(runtime):
    return runtime.obs.completed_traces()[-1]


def test_span_tree_is_complete_and_nested(molecule):
    molecule.deploy_now(_python_fn())
    molecule.invoke_now("hello", kind=PuKind.CPU)
    trace = _last_trace(molecule)
    root = trace.root
    assert root.name == "request"
    assert not root.open
    # Cold path: every lifecycle phase appears, in order.
    assert [c.name for c in root.children] == list(LIFECYCLE_PHASES)
    for child in root.children:
        assert not child.open
        assert root.begin_s <= child.begin_s <= child.end_s <= root.end_s
    assert sum(trace.phases().values()) <= root.duration_s + 1e-9


def test_warm_start_skips_sandbox_start_phase(molecule):
    molecule.deploy_now(_python_fn())
    molecule.invoke_now("hello", kind=PuKind.CPU)
    molecule.invoke_now("hello", kind=PuKind.CPU)
    trace = _last_trace(molecule)
    assert trace.root.attributes["start_kind"] == "warm"
    assert [c.name for c in trace.root.children] == [
        "admit", "schedule", "exec", "respond",
    ]


def test_fork_vs_baseline_cold_start_kinds(molecule):
    molecule.deploy_now(_python_fn())  # boots cfork templates
    molecule.invoke_now("hello", kind=PuKind.CPU)
    assert _last_trace(molecule).root.attributes["start_kind"] == "fork"
    # Registered without deploy: no template exists, so the sandbox
    # boots the baseline cold path.
    molecule.registry.register(_python_fn(name="bare", profiles=(PuKind.CPU,)))
    molecule.invoke_now("bare")
    trace = _last_trace(molecule)
    assert trace.root.attributes["start_kind"] == "cold"
    [sandbox_start] = [c for c in trace.root.children if c.name == "sandbox_start"]
    assert sandbox_start.attributes["forked"] is False


def test_remote_invocation_records_nipc_span(molecule):
    molecule.deploy_now(_python_fn())
    molecule.invoke_now("hello", kind=PuKind.DPU)
    trace = _last_trace(molecule)
    assert trace.root.attributes["pu_kind"] == "dpu"
    [sandbox_start] = [c for c in trace.root.children if c.name == "sandbox_start"]
    # The cfork command travels over the executor's XPU-FIFO channel.
    [nipc] = [c for c in sandbox_start.children if c.name == "nipc"]
    assert nipc.attributes["transport"] == "xpu-fifo"
    assert nipc.duration_s > 0


def test_fpga_invocation_records_dma_spans():
    sim = Simulator()
    machine = build_full_machine(sim, num_dpus=0, num_fpgas=1, num_gpus=0)
    molecule = MoleculeRuntime(sim, machine)
    molecule.start()
    fn = FunctionDef(
        name="fpga-k",
        code=FunctionCode(
            "fpga-k",
            kernel=KernelSpec("fpga-k", FabricResources(luts=4000), exec_time_s=1e-3),
        ),
        work=WorkProfile(warm_exec_ms=10.0, fpga_exec_ms=1.0),
        profiles=(PuKind.FPGA,),
    )
    molecule.deploy_now(fn)
    molecule.invoke_now("fpga-k", payload_bytes=4096)
    trace = _last_trace(molecule)
    assert trace.root.attributes["pu_kind"] == "fpga"
    assert trace.root.attributes["start_kind"] == "cold"
    [exec_span] = [c for c in trace.root.children if c.name == "exec"]
    dma = [c for c in exec_span.children if c.name == "nipc"]
    assert len(dma) == 2  # payload in + result out
    assert all(s.attributes["transport"] == "dma" for s in dma)
    assert {s.attributes["direction"] for s in dma} == {"in", "out"}


def test_start_kind_counters_match_invocations(molecule):
    molecule.deploy_now(_python_fn())
    molecule.invoke_now("hello", kind=PuKind.CPU)  # fork
    molecule.invoke_now("hello", kind=PuKind.CPU)  # warm
    molecule.registry.register(_python_fn(name="bare", profiles=(PuKind.CPU,)))
    molecule.invoke_now("bare")                    # baseline cold
    starts = molecule.obs.registry.get("repro_starts_total")
    by_kind = {
        labels["start_kind"]: child.value for labels, child in starts.series()
    }
    assert by_kind == {"cold": 1, "fork": 1, "warm": 1}


def test_metrics_snapshot_and_exposition_surface_everything(molecule):
    molecule.deploy_now(_python_fn())
    molecule.invoke_now("hello", kind=PuKind.CPU)
    molecule.invoke_now("hello", kind=PuKind.CPU)
    snapshot = molecule.metrics_snapshot()
    assert snapshot["requests_admitted"] == 2
    metrics = snapshot["metrics"]
    phase_series = metrics["repro_phase_seconds"]["series"]
    phases_seen = {s["labels"]["phase"] for s in phase_series}
    assert phases_seen >= {"admit", "schedule", "exec", "respond"}
    assert all(s["count"] >= 1 for s in phase_series)
    # Gauges were refreshed at snapshot time: one warm instance pooled.
    pool_series = metrics["repro_warm_pool_size"]["series"]
    assert sum(s["value"] for s in pool_series) == 1
    text = molecule.metrics_exposition()
    assert "# TYPE repro_request_seconds histogram" in text
    assert 'repro_starts_total{start_kind="fork"} 1' in text
    assert 'repro_starts_total{start_kind="warm"} 1' in text
    assert text.endswith("\n")


def test_kernel_metrics_are_opt_in_and_match_profile(molecule):
    molecule.deploy_now(_python_fn())
    molecule.invoke_now("hello", kind=PuKind.CPU)
    # The default snapshot registers no kernel families: golden runs
    # keep a byte-identical metric catalog.
    plain = molecule.metrics_snapshot()
    assert not any(k.startswith("repro_kernel_") for k in plain["metrics"])

    snapshot = molecule.metrics_snapshot(include_kernel=True)
    metrics = snapshot["metrics"]
    profile = molecule.sim.kernel_profile()
    [events] = metrics["repro_kernel_events_processed"]["series"]
    assert events["value"] == profile["events_processed"]
    [batches] = metrics["repro_kernel_batches_drained"]["series"]
    assert batches["value"] == profile["batches_drained"]
    dispatched = {
        s["labels"]["kind"]: s["value"]
        for s in metrics["repro_kernel_dispatched"]["series"]
    }
    assert dispatched == profile["dispatched_by_kind"]
    slab = {
        s["labels"]["kind"]: s["value"]
        for s in metrics["repro_kernel_slab_hit_rate"]["series"]
    }
    assert slab == {
        kind: entry["hit_rate"] for kind, entry in profile["slab"].items()
    }

    # A second publish reuses the bound children and tracks the kernel.
    molecule.invoke_now("hello", kind=PuKind.CPU)
    again = molecule.metrics_snapshot(include_kernel=True)["metrics"]
    [events2] = again["repro_kernel_events_processed"]["series"]
    assert events2["value"] == molecule.sim.kernel_profile()["events_processed"]
    assert events2["value"] > events["value"]


def test_failed_invocation_counts_failure_not_latency(molecule):
    # A function too big for any PU's DRAM fails admission control
    # AFTER the trace opened: the trace unwinds and only the failure
    # counter moves.
    hog = FunctionDef(
        name="hog",
        code=FunctionCode("hog", language=Language.PYTHON, memory_mb=10**9),
        work=WorkProfile(warm_exec_ms=1.0),
        profiles=(PuKind.CPU,),
    )
    molecule.registry.register(hog)
    with pytest.raises(Exception):
        molecule.invoke_now("hog")
    failures = molecule.obs.registry.get("repro_invocation_failures_total")
    [(labels, child)] = failures.series()
    assert labels["function"] == "hog"
    # Scheduling fails every attempt; the retry layer surfaces the
    # terminal RetriesExhaustedError after its budget runs out.
    assert labels["error"] == "RetriesExhaustedError"
    assert child.value == 1
    retries = molecule.obs.registry.get("repro_retries_total")
    assert retries.total() == 2  # 3 attempts = 2 retries
    requests = molecule.obs.registry.get("repro_requests_total")
    assert requests.total() == 0
    assert molecule.obs.completed_traces() == []


def _retained_tracked(trace, shared):
    """GC-tracked objects reachable from ``trace``, not crossing into
    ``shared`` objects or classes."""
    seen = {id(obj) for obj in shared}
    todo, tracked = [trace], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if gc.is_tracked(obj):
            tracked.append(obj)
        todo.extend(gc.get_referents(obj))
    return tracked


def test_finished_trace_retains_only_its_span_tree(molecule):
    # The trace ring keeps the last 1,024 traces, and each gen-2
    # collection walks all of them: a warm request must keep the trace,
    # the root span, the root's children list and one span per phase,
    # and nothing else (no open-span stack, per-request tracer, parent
    # back-pointers or per-leaf children lists).
    molecule.deploy_now(_python_fn())
    molecule.invoke_now("hello", kind=PuKind.CPU)
    molecule.invoke_now("hello", kind=PuKind.CPU)
    trace = _last_trace(molecule)
    assert trace.root.attributes["start_kind"] == "warm"
    tracked = _retained_tracked(trace, (molecule.obs, molecule.sim))
    assert len(tracked) <= 3 + len(trace.root.children), [
        type(obj).__name__ for obj in tracked
    ]


def test_phase_after_finish_raises(molecule):
    trace = molecule.obs.begin_invocation("f")
    trace.end_phase(trace.begin_phase("admit"))
    trace.finish()
    with pytest.raises(TraceError):
        trace.begin_phase("exec")
    assert [c.name for c in trace.root.children] == ["admit"]
    assert molecule.obs.completed_traces() == [trace]


def test_stage_samples_stream_the_last_span_of_each_phase(molecule):
    obs = molecule.obs
    trace = obs.begin_invocation("f")
    names = ("admit", "queue", "schedule", "exec", "schedule", "exec", "respond")
    for i, name in enumerate(names):
        span = trace.begin_phase(name)
        trace.end_phase(span)
        span.end_s = span.begin_s + i + 1
    trace.finish()
    for abandon in ("fail", "shed"):
        other = obs.begin_invocation("f")
        other.end_phase(other.begin_phase("admit"))
        getattr(other, abandon)("boom")
    streamed = {name: list(s) for name, s in obs.stage_samples.items() if s}
    assert streamed == {"admit": [1.0], "schedule": [5.0], "exec": [6.0],
                        "respond": [7.0]}
    assert streamed == {
        name: [duration] for name, duration in trace.phases().items()
        if name in LIFECYCLE_PHASES
    }


@pytest.mark.parametrize("abandon", ["fail", "shed"])
def test_phase_after_abandon_raises(molecule, abandon):
    trace = molecule.obs.begin_invocation("f")
    exec_span = trace.begin_phase("exec")
    getattr(trace, abandon)("boom")
    assert not exec_span.open and not trace.root.open
    with pytest.raises(TraceError):
        trace.begin_phase("respond")
