"""The layer table: which entry points belong to which layer, and the
per-layer metrics the traced run reports.

Each layer is named after its module.  A layer's entry points are the
functions through which other layers call into it, plus the generator
functions the simulator runs as processes of their own (otherwise their
steps would be charged to the kernel).  ``Class.*`` means every public
function defined on that class.  Every name here must exist: the
traced run fails if one is missing, so a refactor that moves one of
these functions must update this table, never silently report zero.
"""

from __future__ import annotations

#: (layer, entry points).
LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("sim", (
        "repro.sim.core:Simulator.run",
        "repro.sim.core:Simulator.spawn",
        "repro.sim.core:Simulator.timeout",
        "repro.sim.core:Simulator.event",
        "repro.sim.core:Simulator.all_of",
        "repro.sim.core:Simulator.any_of",
    )),
    ("obs", (
        "repro.obs.observability:Observability.*",
        "repro.obs.spans:RequestTrace.*",
        "repro.analysis.trace:Tracer.*",
        "repro.obs.metrics:Counter.*",
        "repro.obs.metrics:Gauge.*",
        "repro.obs.metrics:Histogram.*",
        "repro.obs.metrics:MetricFamily.*",
    )),
    ("loadgen.arrivals", (
        # The replay window only iterates the plan; building it is
        # set-up, reported as loadgen.arrivals.plan_ms.
        "repro.loadgen.arrivals:ArrivalPlan.__post_init__",
        "repro.loadgen.arrivals:ArrivalPlan.__len__",
        "repro.loadgen.arrivals:ArrivalPlan.__iter__",
        "repro.loadgen.arrivals:BurstyArrivals.plan",
        "repro.loadgen.arrivals:PoissonArrivals.plan",
        "repro.loadgen.arrivals:ZipfSampler.sample",
    )),
    ("loadgen.driver", (
        "repro.loadgen.driver:OpenLoopDriver.run",
        "repro.loadgen.driver:OpenLoopDriver._pacer",
        # Request spans carry the driver's request index.
        "repro.loadgen.driver:OpenLoopDriver._request@1",
    )),
    ("loadgen.sharding", (
        "repro.loadgen.sharding:ShardedFrontend.*",
        "repro.loadgen.sharding:GatewayShard.*",
        "repro.loadgen.sharding:HashRing.*",
    )),
    ("core.gateway", (
        "repro.core.gateway:ApiGateway.*",
    )),
    ("loadgen.slo", (
        "repro.loadgen:build_report",
    )),
    ("core.invoker", (
        "repro.core.invoker:Invoker.invoke",
        "repro.core.invoker:Invoker._attempt",
        "repro.core.invoker:Invoker._hedge_copy",
        "repro.core.invoker:Invoker._destroy",
    )),
    ("core.reliability", (
        "repro.core.reliability:HealthRegistry.*",
        "repro.core.reliability:CircuitBreaker.*",
        "repro.core.reliability:RetryPolicy.backoff_s",
        "repro.core.reliability:DeadLetterQueue.*",
    )),
    ("core.scheduler", (
        "repro.core.scheduler:Scheduler.*",
    )),
    ("core.keepalive", (
        "repro.core.keepalive:WarmPool.*",
        "repro.core.invoker:Invoker._keepalive_reaper",
    )),
    ("sandbox", (
        "repro.sandbox.base:SandboxRuntime.*",
        "repro.sandbox.runc:RuncRuntime.*",
    )),
    ("xpu", (
        "repro.xpu.shim:XpuShim.*",
        "repro.core.executor:ExecutorClient.call",
        "repro.core.executor:Executor.daemon",
        "repro.core.molecule:MoleculeRuntime._reply_pump",
    )),
    ("reuse", (
        "repro.reuse.engine:ReuseEngine.*",
    )),
    ("overload", (
        "repro.overload.engine:OverloadController.*",
        "repro.overload.engine:AdmissionGate.*",
        "repro.overload.engine:AdaptiveLimit.*",
    )),
    ("warmpath", (
        "repro.warmpath.engine:WarmPathEngine.*",
        "repro.warmpath.engine:WarmPathEngine._prewarm_loop",
    )),
    ("hedging", (
        "repro.hedging.engine:HedgePolicy.*",
        "repro.futures.engine:SpeculationPolicy.*",
    )),
    ("futures", (
        "repro.futures.engine:FanoutEngine.*",
        "repro.futures.engine:FanoutEngine._task",
    )),
)

#: Layers that exist only on the workloads that arm them.  The
#: self-test asserts calls on these workloads and none elsewhere.
ENGINE_WORKLOADS = {
    "reuse": {"zipf-reuse"},
    "overload": {"overload"},
    "warmpath": {"fanout"},
    "hedging": {"fanout"},
    "futures": {"fanout"},
}

#: Per-layer metrics that are better when higher; all others are
#: better when lower.
HIGHER_IS_BETTER = {
    "sim.mean_batch_size",
    "reuse.hit_rate",
    "warmpath.coalesced_share",
    "warmpath.prewarm_hit_rate",
    "hedging.won_share",
}

#: Every per-layer metric, in report order: (name, unit).
PER_LAYER: list[tuple[str, str]] = [
    (f"{layer}.{metric}", unit)
    # The collector is a layer without entry points: gc.callbacks.
    for layer in [name for name, _ in LAYERS] + ["gc"]
    for metric, unit in (("self_us_per_inv", "us"), ("calls_per_inv", "count"))
] + [
    ("sim.events_per_inv", "count"),
    ("sim.mean_batch_size", "count"),
    ("gc.pause_us_per_inv", "us"),
    ("gc.gen2_collections", "count"),
    ("obs.retained_traces", "count"),
    ("loadgen.arrivals.plan_ms", "ms"),
    ("loadgen.driver.failed_frac", "ratio"),
    ("loadgen.sharding.max_shard_share", "ratio"),
    ("loadgen.slo.report_ms", "ms"),
    ("loadgen.slo.sim_latency_p50_ms", "ms"),
    ("loadgen.slo.sim_latency_p99_ms", "ms"),
    ("loadgen.slo.sim_cost_per_answered", "units"),
    ("core.invoker.attempts_per_request", "ratio"),
    ("core.reliability.retried", "count"),
    ("core.reliability.dead_lettered", "count"),
    ("core.scheduler.wait_p99_ms", "ms"),
    ("core.keepalive.cold_start_rate", "ratio"),
    ("sandbox.starts", "count"),
    ("sandbox.start_p99_ms", "ms"),
    ("reuse.hit_rate", "ratio"),
    ("reuse.stale_share", "ratio"),
    ("reuse.followers_requeued", "count"),
    ("overload.shed_rate", "ratio"),
    ("overload.brownout_fraction", "ratio"),
    ("warmpath.coalesced_share", "ratio"),
    ("warmpath.prewarm_hit_rate", "ratio"),
    ("hedging.fired", "count"),
    ("hedging.won_share", "ratio"),
    ("futures.tasks_per_job", "count"),
    ("futures.gather_p50_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
]


def install(recorder) -> None:
    """Wrap every entry point of the table; raises if one is missing.

    ``name@N`` marks argument ``N`` (counting ``self``) as the request
    id of the spans the entry point opens.
    """
    for layer, entries in LAYERS:
        for entry in entries:
            target, _, request_arg = entry.partition("@")
            recorder.install(
                layer, target,
                request_arg=int(request_arg) if request_arg else None,
            )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _stage(report: dict, name: str, key: str) -> float:
    return report["latency"]["stages"].get(name, {}).get(key, 0.0)


def layer_metrics(recorder, replay, report: dict, kernel_before: dict,
                  kernel_after: dict) -> dict:
    """Per-layer metrics of one traced replay window.

    Calls come from the recorder, and so do each layer's raw self time
    and estimated tracer cost, from which the caller derives
    ``self_us_per_inv``.  Counts and ratios come from the runtime's
    public snapshots and the report.  Host durations measured outside
    spans (plan, report, collector pauses) are taken from the untraced
    reference replay by the caller.
    """
    load = report["load"]
    inv = load["admitted"]
    metrics: dict = {}
    tracer_cost = recorder.tracer_cost_ns()
    calls: dict[str, int] = {}
    entry_calls: dict[str, int] = {}
    for (layer, entry), count in zip(recorder.entries, recorder.calls):
        calls[layer] = calls.get(layer, 0) + count
        entry_calls[entry] = count
    for layer, _ in LAYERS:
        self_ns = recorder.self_ns[recorder.layers.index(layer)]
        metrics[f"{layer}.raw_self_us_per_inv"] = self_ns / 1e3 / inv
        metrics[f"{layer}.tracer_us_per_inv"] = tracer_cost[layer] / 1e3 / inv
        metrics[f"{layer}.calls_per_inv"] = calls[layer] / inv
    metrics["gc.self_us_per_inv"] = recorder.gc_ns / 1e3 / inv
    metrics["gc.calls_per_inv"] = sum(recorder.gc_collections) / inv

    events = kernel_after["events_processed"] - kernel_before["events_processed"]
    batches = (
        kernel_after["batches_drained"] - kernel_before["batches_drained"]
    )
    metrics["sim.events_per_inv"] = events / inv
    metrics["sim.mean_batch_size"] = _ratio(events, batches)

    runtime = replay.runtime
    metrics["obs.retained_traces"] = len(runtime.obs.completed_traces())

    records = replay.driver.records
    metrics["loadgen.driver.failed_frac"] = _ratio(
        sum(1 for r in records if not r.answered), len(records)
    )
    routed = [shard["routed"] for shard in report["shards"]]
    metrics["loadgen.sharding.max_shard_share"] = _ratio(
        max(routed, default=0), sum(routed)
    )
    fanout = report.get("fanout", {})
    latency = (
        fanout["task_latency"] if fanout else report["latency"]["end_to_end"]
    )
    metrics["loadgen.slo.sim_latency_p50_ms"] = latency.get("p50_ms", 0.0)
    metrics["loadgen.slo.sim_latency_p99_ms"] = latency.get("p99_ms", 0.0)
    metrics["loadgen.slo.sim_cost_per_answered"] = (
        report["cost"]["mean_cost_per_answered"]
    )

    metrics["core.invoker.attempts_per_request"] = _ratio(
        entry_calls["repro.core.invoker:Invoker._attempt"],
        entry_calls["repro.core.invoker:Invoker.invoke"],
    )
    metrics["core.reliability.retried"] = load["retried"]
    metrics["core.reliability.dead_lettered"] = load["dead_lettered"]
    metrics["core.scheduler.wait_p99_ms"] = _stage(report, "schedule", "p99_ms")
    metrics["core.keepalive.cold_start_rate"] = load["cold_start_rate"]
    metrics["sandbox.starts"] = _stage(report, "sandbox_start", "count")
    metrics["sandbox.start_p99_ms"] = _stage(report, "sandbox_start", "p99_ms")

    reuse = report.get("reuse", {})
    served = reuse.get("served_fresh", 0) + reuse.get("served_stale", 0)
    metrics["reuse.hit_rate"] = reuse.get("hit_rate", 0.0)
    metrics["reuse.stale_share"] = _ratio(reuse.get("served_stale", 0), served)
    metrics["reuse.followers_requeued"] = (
        reuse.get("singleflight", {}).get("followers_requeued", 0)
    )

    overload = report.get("overload", {})
    metrics["overload.shed_rate"] = overload.get("shed_rate", 0.0)
    metrics["overload.brownout_fraction"] = (
        overload.get("brownout_fraction", 0.0)
    )

    warm = runtime.warmpath.snapshot() if runtime.warmpath is not None else {}
    metrics["warmpath.coalesced_share"] = _ratio(
        warm.get("coalesced_served", 0), inv
    )
    metrics["warmpath.prewarm_hit_rate"] = _ratio(
        warm.get("prewarm_hits", 0), warm.get("prewarm_spawned", 0)
    )

    # Tail hedging proper, or the fan-out engine's straggler
    # speculation, which runs through a HedgePolicy of its own.
    hedge = report.get("hedging") or fanout.get("speculation", {})
    metrics["hedging.fired"] = hedge.get("fired", 0)
    metrics["hedging.won_share"] = _ratio(
        hedge.get("won", 0), hedge.get("fired", 0)
    )

    metrics["futures.tasks_per_job"] = _ratio(
        fanout.get("tasks_submitted", 0), fanout.get("jobs", 0)
    )
    metrics["futures.gather_p50_ms"] = (
        fanout.get("stages", {}).get("gather", {}).get("p50_ms", 0.0)
    )
    return metrics
