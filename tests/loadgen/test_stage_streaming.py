"""Stage percentiles come from phase samples streamed at record time,
so a replay retains a bounded ring of span trees, not one per request.

* the streamed samples equal the old walk over ``completed_traces()``
  and ``phases()``, per phase and in order, on a replay with retries,
  dead letters, sheds and ``queue`` phases;
* a replay longer than the ring retains at most the ring's traces while
  its stage counts still cover every completed request;
* the heap a finished replay keeps grows by a fixed handful of
  collector-tracked objects per request;
* no shard gateway keeps a deadline once its request is done.
"""

import gc
from collections import deque

import pytest

from repro.loadgen import (
    OpenLoopDriver,
    attach_fault_plan,
    build_report,
    build_runtime,
    latency_block,
    scenarios,
)
from repro.obs.spans import LIFECYCLE_PHASES
from repro.sim.rng import SeededRng

SEED = 42


def _plan(scenario, rps, duration_s, seed=SEED):
    rng = SeededRng(seed).fork(f"loadgen:{scenario}")
    return scenarios._SCENARIOS[scenario](rng, rps, duration_s)


def _replay(scenario, plan, keep_every_trace=False, on_boot=None):
    """Run ``plan`` open loop on 2 shards, wired as ``run_load`` wires
    ``scenario``."""
    options = {}
    if scenario == "overload":
        options.update(
            default_deadline_s=scenarios.OVERLOAD_DEADLINE_S,
            keep_alive_ttl_s=scenarios.OVERLOAD_KEEP_ALIVE_S,
            overload=True,
        )
    elif scenario == "zipf":
        options.update(
            default_deadline_s=scenarios.ZIPF_DEADLINE_S,
            reuse=True,
            idempotent=True,
        )
    runtime, frontend = build_runtime(plan, SEED, 2, **options)
    if keep_every_trace:
        runtime.obs.traces = deque()
    if scenario == "overload":
        attach_fault_plan(
            runtime, scenarios.overload_fault_plan(plan.duration_s)
        )
    if on_boot is not None:
        on_boot(runtime)
    driver = OpenLoopDriver(runtime, plan, frontend)
    records = driver.run()
    report = build_report(
        runtime, plan, records, scenario,
        frontend=frontend, elapsed_s=driver.elapsed_s,
    )
    return runtime, frontend, records, report


@pytest.fixture(scope="module")
def overload_replay():
    """A seeded overload replay that keeps every trace, with each
    trace's error/shed state noted as ``record()`` saw it."""
    recorded = []

    def watch(runtime):
        record = runtime.obs.record

        def spy(trace):
            attrs = trace.root.attributes
            recorded.append((trace, "error" in attrs or "shed" in attrs))
            record(trace)

        runtime.obs.record = spy

    plan = _plan("overload", 40.0, 5.0)
    runtime, frontend, records, report = _replay(
        "overload", plan, keep_every_trace=True, on_boot=watch
    )
    return runtime, frontend, report, recorded


def _walked_stage_samples(obs):
    """The pre-streaming computation: every retained completed trace's
    ``phases()``, restricted to the lifecycle phases."""
    samples = {name: [] for name in LIFECYCLE_PHASES}
    for trace in obs.completed_traces():
        for name, duration_s in trace.phases().items():
            if name in samples:
                samples[name].append(duration_s)
    return samples


def test_overload_replay_exercises_every_filter(overload_replay):
    runtime, _, report, _ = overload_replay
    load = report["load"]
    assert load["retried"] > 0 and load["dead_lettered"] > 0
    assert load["shed"] > 0
    completed = runtime.obs.completed_traces()
    assert any(
        len({c.name for c in t.root.children}) < len(t.root.children)
        for t in completed
    ), "no completed trace repeats a phase"
    assert any(
        c.name == "queue" for t in completed for c in t.root.children
    )


def test_streamed_samples_equal_the_span_tree_walk(overload_replay):
    runtime, _, report, _ = overload_replay
    obs = runtime.obs
    walked = _walked_stage_samples(obs)
    streamed = {name: list(s) for name, s in obs.stage_samples.items()}
    assert streamed == walked
    assert report["latency"]["stages"] == {
        name: latency_block(samples)
        for name, samples in walked.items()
        if samples
    }


def test_recorded_traces_are_exactly_the_completed_ones(overload_replay):
    # The old report filtered error/shed at report time; streaming
    # filters at record time.  They agree only if a recorded trace is
    # clean when recorded and never turns failed or shed afterwards.
    runtime, _, _, recorded = overload_replay
    assert not any(dirty for _, dirty in recorded)
    completed = runtime.obs.completed_traces()
    assert [t for t, _ in recorded] == completed
    assert all(
        "error" not in t.root.attributes and "shed" not in t.root.attributes
        for t, _ in recorded
    )


def test_replay_longer_than_the_ring_keeps_full_stage_counts():
    plan = _plan("burst", 200.0, 30.0)
    runtime, _, records, report = _replay("burst", plan)
    obs = runtime.obs
    answered = sum(1 for r in records if r.answered)
    assert answered > obs.traces.maxlen == 1024
    assert len(obs.traces) == len(obs.completed_traces()) == 1024
    stages = report["latency"]["stages"]
    for name in ("admit", "schedule", "exec", "respond"):
        assert stages[name]["count"] == answered
    assert stages["sandbox_start"]["count"] == report["load"]["cold_starts"]


def _tracked_after_replay(duration_s):
    """(requests, collector-tracked objects a finished burst replay
    keeps alive beyond its plan)."""
    plan = _plan("burst", 200.0, duration_s)
    gc.collect()
    before = len(gc.get_objects())
    replay = _replay("burst", plan)
    gc.collect()
    after = len(gc.get_objects())
    del replay
    return len(plan), after - before


def test_replay_heap_grows_by_two_objects_per_request():
    # Per request, a finished replay keeps its driver RequestRecord and
    # its billing LedgerEntry; span trees live only in the fixed ring.
    # Retaining every request's span tree costs 9 here.
    _tracked_after_replay(5.0)  # warm lazily built module state
    short_requests, short_objects = _tracked_after_replay(30.0)
    long_requests, long_objects = _tracked_after_replay(60.0)
    extra_requests = long_requests - short_requests
    assert extra_requests > 1000
    assert long_objects - short_objects <= 2 * extra_requests


@pytest.mark.parametrize("scenario", ["overload", "zipf"])
def test_drained_replay_leaves_no_gateway_deadlines(scenario):
    plan = _plan(scenario, 40.0, 5.0)
    _, frontend, _, report = _replay(scenario, plan)
    assert report["load"]["admitted"] == len(plan)
    assert [shard.gateway._deadlines for shard in frontend.shards] == [
        {} for _ in frontend.shards
    ]
