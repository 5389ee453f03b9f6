"""The runtime's observability hub.

One :class:`Observability` instance per :class:`MoleculeRuntime` owns
the metrics registry and the per-request span store, and exposes the
narrow hooks the runtime layers call:

* gateway      -> :meth:`on_gateway_admit`
* scheduler    -> :meth:`on_placement` / :meth:`on_placement_failure`
* invoker      -> :meth:`begin_invocation` (lifecycle spans), keep-alive
                  reaping via :meth:`on_keepalive_reaped`
* sandboxes    -> :meth:`on_sandbox_verb` (runc/runf/runG OCI verbs)
* XPU-Shim     -> :meth:`on_xpucall` / :meth:`on_nipc_message`

Every layer treats its hook as optional (``obs=None`` keeps the
component observability-free for unit tests), so the subsystem adds no
coupling below ``core.molecule``, which wires everything.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import LIFECYCLE_PHASES, RequestTrace

#: Finer buckets for sub-millisecond paths (XPUcalls, nIPC, admission).
MICRO_BUCKETS = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4,
    5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 0.1, 1.0,
)

#: One bit per lifecycle phase, to spot a phase a trace reopened.
_STAGE_BITS = {name: 1 << i for i, name in enumerate(LIFECYCLE_PHASES)}


class Observability:
    """Metrics registry + lifecycle span store for one runtime."""

    def __init__(
        self,
        sim,
        registry: Optional[MetricsRegistry] = None,
        max_traces: int = 1024,
    ):
        self.sim = sim
        self.registry = registry or MetricsRegistry()
        #: The most recent request traces, oldest evicted first.
        self.traces: deque[RequestTrace] = deque(maxlen=max_traces)
        #: Lifecycle phase -> its ``phases()`` duration in every trace
        #: ever completed, in record order (never evicted).
        self.stage_samples = {name: array("d") for name in LIFECYCLE_PHASES}

        r = self.registry
        # -- request lifecycle -----------------------------------------------------
        self.requests_total = r.counter(
            "repro_requests_total",
            "Completed invocations by function, PU kind and start kind.",
            ("function", "pu_kind", "start_kind"),
        )
        self.request_seconds = r.histogram(
            "repro_request_seconds",
            "End-to-end request latency.",
            ("function", "pu_kind", "start_kind"),
        )
        self.phase_seconds = r.histogram(
            "repro_phase_seconds",
            "Per-phase latency (admit/schedule/sandbox_start/exec/respond).",
            ("phase", "function", "pu_kind", "start_kind"),
        )
        self.starts_total = r.counter(
            "repro_starts_total",
            "Instance starts by kind (cold | fork | warm).",
            ("start_kind",),
        )
        self.failures_total = r.counter(
            "repro_invocation_failures_total",
            "Invocations abandoned by an error, by error type.",
            ("function", "error"),
        )
        # -- gateway ---------------------------------------------------------------
        self.gateway_requests = r.counter(
            "repro_gateway_requests_total",
            "Requests admitted by the API gateway.",
        )
        self.gateway_admit_seconds = r.histogram(
            "repro_gateway_admit_seconds",
            "Gateway admission overhead.",
            buckets=MICRO_BUCKETS,
        )
        # -- scheduler -------------------------------------------------------------
        self.placements_total = r.counter(
            "repro_scheduler_placements_total",
            "Successful instance placements by PU kind.",
            ("pu_kind",),
        )
        self.placement_failures_total = r.counter(
            "repro_scheduler_placement_failures_total",
            "Placements rejected by admission control.",
        )
        # -- keep-alive ------------------------------------------------------------
        self.keepalive_reaped_total = r.counter(
            "repro_keepalive_reaped_total",
            "Warm instances evicted by the keep-alive TTL reaper.",
        )
        self.pool_size = r.gauge(
            "repro_warm_pool_size",
            "Idle warm instances per PU (refreshed at snapshot time).",
            ("pu",),
        )
        self.pool_hits = r.gauge(
            "repro_warm_pool_hits",
            "Warm-pool hits per PU (refreshed at snapshot time).",
            ("pu",),
        )
        self.pool_misses = r.gauge(
            "repro_warm_pool_misses",
            "Warm-pool misses per PU (refreshed at snapshot time).",
            ("pu",),
        )
        self.dram_used_mb = r.gauge(
            "repro_pu_dram_used_mb",
            "DRAM reserved on a general-purpose PU (snapshot time).",
            ("pu",),
        )
        # -- sandboxes -------------------------------------------------------------
        self.sandbox_verb_seconds = r.histogram(
            "repro_sandbox_verb_seconds",
            "Sandbox runtime verb latency (create/start/cfork/...).",
            ("runtime", "verb"),
        )
        # -- XPU-Shim --------------------------------------------------------------
        self.xpucalls_total = r.counter(
            "repro_xpucalls_total",
            "XPUcalls served by shim instances.",
            ("pu_kind", "transport"),
        )
        self.xpucall_seconds = r.histogram(
            "repro_xpucall_seconds",
            "XPUcall user<->shim round-trip overhead.",
            ("pu_kind", "transport"),
            buckets=MICRO_BUCKETS,
        )
        self.nipc_messages_total = r.counter(
            "repro_nipc_messages_total",
            "XPU-FIFO messages written (local fast path vs cross-PU nIPC).",
            ("path",),
        )
        self.nipc_bytes_total = r.counter(
            "repro_nipc_bytes_total",
            "XPU-FIFO payload bytes written.",
            ("path",),
        )
        # -- reliability -------------------------------------------------------------
        self.retries_total = r.counter(
            "repro_retries_total",
            "Attempts retried after a transient failure, by error type.",
            ("function", "reason"),
        )
        self.deadline_exceeded_total = r.counter(
            "repro_deadline_exceeded_total",
            "Requests abandoned at their gateway deadline.",
            ("function",),
        )
        self.dead_letters_total = r.counter(
            "repro_dead_letters_total",
            "Requests parked in the dead-letter queue, by reason.",
            ("function", "reason"),
        )
        self.degraded_total = r.counter(
            "repro_degraded_total",
            "Attempts degraded from an accelerator to a CPU profile.",
            ("function", "from_kind", "to_kind"),
        )
        self.breaker_transitions_total = r.counter(
            "repro_breaker_transitions_total",
            "Circuit-breaker state transitions per PU.",
            ("pu", "to_state"),
        )
        self.breaker_state = r.gauge(
            "repro_breaker_state",
            "Current breaker state per PU (0 closed, 1 half-open, 2 open, "
            "3 down; refreshed at snapshot time).",
            ("pu",),
        )
        self.faults_injected_total = r.counter(
            "repro_faults_injected_total",
            "Faults fired by the deterministic injector, by kind.",
            ("kind",),
        )
        self.nipc_dropped_total = r.counter(
            "repro_nipc_dropped_total",
            "XPU-FIFO messages dropped by injected faults.",
        )
        self.nipc_delayed_total = r.counter(
            "repro_nipc_delayed_total",
            "XPU-FIFO messages delayed by injected faults.",
        )
        # -- sharded front end --------------------------------------------------------
        # Registered lazily (ensure_shard_metrics): most runs have no
        # sharded front end, and unconditional registration would grow
        # the metric catalog that golden-snapshot tests pin down.
        self.shard_routed_total = None
        self.shard_outstanding = None
        self.shard_utilization = None
        # -- warm-path engine ---------------------------------------------------------
        # Registered lazily (ensure_warmpath_metrics): only runs with a
        # WarmPathEngine wired see these families, keeping the metric
        # catalog byte-identical for engine-off golden runs.
        self.coalesced_starts_total = None
        self.prewarm_spawned_total = None
        self.prewarm_hits_total = None
        self.prewarm_wasted_total = None
        self.predicted_rps = None
        self.bitstream_prefetch_started_total = None
        self.bitstream_prefetch_hits_total = None
        #: FPGA planner drops — lazy for the same reason (only runs
        #: whose predicted set overflows the image ever see it).
        self.planner_dropped_total = None
        # -- hedging engine -------------------------------------------------------------
        # Registered lazily (ensure_hedge_metrics): only runs with a
        # HedgePolicy wired see these families, keeping the metric
        # catalog byte-identical for hedging-off golden runs.
        self.hedge_fired_total = None
        self.hedge_won_total = None
        self.hedge_cancelled_total = None
        self.hedge_wasted_seconds_total = None
        self.hedge_throttled_total = None
        # -- overload controller ---------------------------------------------------------
        # Registered lazily (ensure_overload_metrics): only runs with an
        # OverloadController wired see these families, keeping the
        # metric catalog byte-identical for controller-off golden runs.
        self.shed_total = None
        self.overload_limit = None
        self.overload_queue_depth = None
        self.overload_pressure = None
        self.brownout_transitions_total = None
        #: Dead-letter overflow — lazy for the same reason (only bounded
        #: queues that actually overflow ever see it).
        self.dead_letter_overflow_total = None
        # -- fan-out engine ---------------------------------------------------------------
        # Registered lazily (ensure_fanout_metrics): only runs with a
        # FanoutEngine wired see these families, keeping the metric
        # catalog byte-identical for futures-off golden runs.
        self.fanout_jobs_total = None
        self.fanout_tasks_total = None
        self.fanout_batches_total = None
        self.fanout_speculations_total = None
        # -- result-cache engine ------------------------------------------------------------
        # Registered lazily (ensure_reuse_metrics): only runs with a
        # ReuseEngine wired see these families, keeping the metric
        # catalog byte-identical for reuse-off golden runs.
        self.reuse_hits_total = None
        self.reuse_misses_total = None
        self.reuse_stale_total = None
        self.reuse_bypass_total = None
        self.reuse_singleflight_total = None
        self.reuse_evictions_total = None
        self.reuse_invalidations_total = None
        self.reuse_cache_entries = None
        self.reuse_cache_bytes = None
        self.reuse_hit_ratio = None
        # -- sim kernel -----------------------------------------------------------------
        # Registered lazily (ensure_kernel_metrics): only snapshots that
        # explicitly publish a kernel profile see these families, keeping
        # the metric catalog byte-identical for golden runs.
        self.kernel_events_processed = None
        self.kernel_batches_drained = None
        self.kernel_heap_ops_avoided = None
        self.kernel_mean_batch_size = None
        self.kernel_dispatched = None
        self.kernel_slab_hit_rate = None

        # -- bound child handles ---------------------------------------------------
        # Labelled hot-path hooks memoize children per label tuple so
        # steady-state observations touch no label-dict validation.
        # (Label-less families memoize their single child inside
        # MetricFamily, lazily, so unobserved families render no series.)
        self._request_children: dict[tuple[str, str, str], tuple] = {}
        self._phase_children: dict[tuple[str, str, str, str], tuple] = {}
        self._start_children: dict[str, object] = {}
        self._failure_children: dict[tuple[str, str], object] = {}
        self._placement_children: dict[str, object] = {}
        self._sandbox_children: dict[tuple[str, str], object] = {}
        self._xpucall_children: dict[tuple[str, str], tuple] = {}
        self._nipc_children: dict[str, tuple] = {}
        self._retry_children: dict[tuple[str, str], object] = {}
        self._deadline_children: dict[str, object] = {}
        self._dead_letter_children: dict[tuple[str, str], object] = {}
        self._degraded_children: dict[tuple[str, str, str], object] = {}
        self._breaker_children: dict[tuple[str, str], object] = {}
        self._fault_children: dict[str, object] = {}
        self._shard_children: dict[tuple[str, str], object] = {}
        self._warmpath_children: dict[tuple[str, str], object] = {}
        self._hedge_children: dict[tuple[str, str], object] = {}
        self._shed_children: dict[tuple[str, str], object] = {}
        self._brownout_children: dict[str, object] = {}
        self._fanout_children: dict[tuple[str, str], object] = {}
        self._reuse_children: dict[tuple[str, str], object] = {}
        self._kernel_children: dict[tuple[str, str], object] = {}

    # -- lifecycle spans -----------------------------------------------------------

    def begin_invocation(self, function: str) -> RequestTrace:
        """Open the span tree for one request."""
        return RequestTrace(self, function)

    def record(self, trace: RequestTrace) -> None:
        """Publish a finished trace into the metric families and the
        stage samples."""
        root = trace.root
        attrs = root.attributes
        function = str(attrs.get("function", trace.function))
        pu_kind = str(attrs.get("pu_kind", "unknown"))
        start_kind = str(attrs.get("start_kind", "unknown"))
        key = (function, pu_kind, start_kind)
        bound = self._request_children.get(key)
        if bound is None:
            bound = (
                self.requests_total.bind(
                    function=function, pu_kind=pu_kind, start_kind=start_kind
                ),
                self.request_seconds.bind(
                    function=function, pu_kind=pu_kind, start_kind=start_kind
                ),
            )
            self._request_children[key] = bound
        bound[0].inc()
        bound[1].observe(root.duration_s)
        starts = self._start_children.get(start_kind)
        if starts is None:
            starts = self.starts_total.bind(start_kind=start_kind)
            self._start_children[start_kind] = starts
        starts.inc()
        phase_children = self._phase_children
        seen = 0
        for child in root.children:
            name = child.name
            duration_s = child.duration_s
            phase_key = (name, function, pu_kind, start_kind)
            phase = phase_children.get(phase_key)
            if phase is None:
                phase = phase_children[phase_key] = (
                    self.phase_seconds.bind(
                        phase=name, function=function,
                        pu_kind=pu_kind, start_kind=start_kind,
                    ),
                    self.stage_samples.get(name),
                    _STAGE_BITS.get(name, 0),
                )
            histogram, samples, bit = phase
            histogram.observe(duration_s)
            if seen & bit:
                # A retry reopened the phase: keep the last, as phases().
                samples[-1] = duration_s
            elif samples is not None:
                samples.append(duration_s)
                seen |= bit
        self.traces.append(trace)

    def record_failure(self, trace: RequestTrace) -> None:
        """Count an abandoned trace without polluting the histograms."""
        function = trace.function
        error = str(trace.root.attributes.get("error", "unknown"))
        key = (function, error)
        child = self._failure_children.get(key)
        if child is None:
            child = self.failures_total.bind(function=function, error=error)
            self._failure_children[key] = child
        child.inc()
        self.traces.append(trace)

    def record_shed(self, trace: RequestTrace) -> None:
        """Keep a load-shed trace (repro.overload) without touching the
        histograms or the failure counters: a shed is deliberate
        back-pressure, not an error, and is counted by reason through
        :meth:`on_shed` instead."""
        self.traces.append(trace)

    def completed_traces(self) -> list[RequestTrace]:
        """Recorded traces that finished cleanly (neither failed nor
        shed)."""
        return [
            t for t in self.traces
            if "error" not in t.root.attributes
            and "shed" not in t.root.attributes
        ]

    # -- component hooks -----------------------------------------------------------

    def on_gateway_admit(self, duration_s: float) -> None:
        """One request admitted by the gateway."""
        self.gateway_requests.inc()
        self.gateway_admit_seconds.observe(duration_s)

    def on_placement(self, pu_kind: str) -> None:
        """One instance placed onto a PU."""
        child = self._placement_children.get(pu_kind)
        if child is None:
            child = self.placements_total.bind(pu_kind=pu_kind)
            self._placement_children[pu_kind] = child
        child.inc()

    def on_placement_failure(self) -> None:
        """One placement rejected by admission control."""
        self.placement_failures_total.inc()

    def on_keepalive_reaped(self, count: int) -> None:
        """``count`` idle instances evicted by the TTL reaper."""
        if count:
            self.keepalive_reaped_total.inc(count)

    def on_sandbox_verb(self, runtime: str, verb: str, duration_s: float) -> None:
        """One sandbox-runtime verb completed."""
        key = (runtime, verb)
        child = self._sandbox_children.get(key)
        if child is None:
            child = self.sandbox_verb_seconds.bind(runtime=runtime, verb=verb)
            self._sandbox_children[key] = child
        child.observe(duration_s)

    def on_xpucall(self, pu_kind: str, transport: str, duration_s: float) -> None:
        """One XPUcall served by a shim."""
        key = (pu_kind, transport)
        bound = self._xpucall_children.get(key)
        if bound is None:
            bound = (
                self.xpucalls_total.bind(pu_kind=pu_kind, transport=transport),
                self.xpucall_seconds.bind(pu_kind=pu_kind, transport=transport),
            )
            self._xpucall_children[key] = bound
        bound[0].inc()
        bound[1].observe(duration_s)

    def on_nipc_message(self, path: str, nbytes: int) -> None:
        """One XPU-FIFO write (``path`` is ``local`` or ``cross``)."""
        bound = self._nipc_children.get(path)
        if bound is None:
            bound = (
                self.nipc_messages_total.bind(path=path),
                self.nipc_bytes_total.bind(path=path),
            )
            self._nipc_children[path] = bound
        bound[0].inc()
        bound[1].inc(nbytes)

    # -- reliability hooks ---------------------------------------------------------

    def on_retry(self, function: str, reason: str) -> None:
        """One attempt failed transiently and will be retried."""
        key = (function, reason)
        child = self._retry_children.get(key)
        if child is None:
            child = self.retries_total.bind(function=function, reason=reason)
            self._retry_children[key] = child
        child.inc()

    def on_deadline_exceeded(self, function: str) -> None:
        """One request ran out of deadline budget."""
        child = self._deadline_children.get(function)
        if child is None:
            child = self.deadline_exceeded_total.bind(function=function)
            self._deadline_children[function] = child
        child.inc()

    def on_dead_letter(self, function: str, reason: str) -> None:
        """One request was parked in the dead-letter queue."""
        key = (function, reason)
        child = self._dead_letter_children.get(key)
        if child is None:
            child = self.dead_letters_total.bind(function=function, reason=reason)
            self._dead_letter_children[key] = child
        child.inc()

    def on_degraded(self, function: str, from_kind: str, to_kind: str) -> None:
        """One attempt fell back from an accelerator to a CPU profile."""
        key = (function, from_kind, to_kind)
        child = self._degraded_children.get(key)
        if child is None:
            child = self.degraded_total.bind(
                function=function, from_kind=from_kind, to_kind=to_kind
            )
            self._degraded_children[key] = child
        child.inc()

    def on_breaker_transition(self, pu: str, to_state: str) -> None:
        """One circuit breaker changed state."""
        key = (pu, to_state)
        child = self._breaker_children.get(key)
        if child is None:
            child = self.breaker_transitions_total.bind(pu=pu, to_state=to_state)
            self._breaker_children[key] = child
        child.inc()

    def on_fault_injected(self, kind: str) -> None:
        """The injector fired one fault."""
        child = self._fault_children.get(kind)
        if child is None:
            child = self.faults_injected_total.bind(kind=kind)
            self._fault_children[kind] = child
        child.inc()

    def ensure_shard_metrics(self) -> None:
        """Register the sharded-front-end metric families on first use."""
        if self.shard_routed_total is not None:
            return
        r = self.registry
        self.shard_routed_total = r.counter(
            "repro_shard_routed_total",
            "Requests routed to a gateway shard, by shard and policy.",
            ("shard", "policy"),
        )
        self.shard_outstanding = r.gauge(
            "repro_shard_outstanding",
            "In-flight requests per gateway shard (snapshot time).",
            ("shard",),
        )
        self.shard_utilization = r.gauge(
            "repro_shard_utilization",
            "Busy-time fraction per gateway shard (snapshot time).",
            ("shard",),
        )

    def on_shard_routed(self, shard: int, policy: str) -> None:
        """One request routed to a gateway shard."""
        self.ensure_shard_metrics()
        key = (str(shard), policy)
        child = self._shard_children.get(key)
        if child is None:
            child = self.shard_routed_total.bind(shard=key[0], policy=policy)
            self._shard_children[key] = child
        child.inc()

    # -- warm-path engine hooks ------------------------------------------------------

    def ensure_warmpath_metrics(self) -> None:
        """Register the warm-path metric families on first use."""
        if self.coalesced_starts_total is not None:
            return
        r = self.registry
        self.coalesced_starts_total = r.counter(
            "repro_coalesced_starts",
            "Requests served by a coalesced single-flight cold-start "
            "batch instead of an independent cold start.",
            ("function",),
        )
        self.prewarm_spawned_total = r.counter(
            "repro_prewarm_spawned",
            "Instances forked ahead of demand by the pre-warmer.",
            ("function",),
        )
        self.prewarm_hits_total = r.counter(
            "repro_prewarm_hits",
            "Pre-warmed instances claimed by a request before any use.",
            ("function",),
        )
        self.prewarm_wasted_total = r.counter(
            "repro_prewarm_wasted",
            "Pre-warmed instances destroyed without serving anything.",
            ("function",),
        )
        self.predicted_rps = r.gauge(
            "repro_predicted_rps",
            "Predicted near-term arrival rate per function "
            "(refreshed every pre-warmer tick).",
            ("function",),
        )
        self.bitstream_prefetch_started_total = r.counter(
            "repro_bitstream_prefetch_started",
            "FPGA images programmed ahead of the triggering request.",
            ("function",),
        )
        self.bitstream_prefetch_hits_total = r.counter(
            "repro_bitstream_prefetch_hits",
            "FPGA starts served warm off a prefetched image.",
            ("function",),
        )

    def _warmpath_child(self, family, kind: str, function: str):
        key = (kind, function)
        child = self._warmpath_children.get(key)
        if child is None:
            child = family.bind(function=function)
            self._warmpath_children[key] = child
        return child

    def on_coalesced_start(self, function: str) -> None:
        """One request served by a coalesced batch."""
        self.ensure_warmpath_metrics()
        self._warmpath_child(
            self.coalesced_starts_total, "coalesced", function
        ).inc()

    def on_prewarm_spawned(self, function: str) -> None:
        """The pre-warmer forked one instance ahead of demand."""
        self.ensure_warmpath_metrics()
        self._warmpath_child(
            self.prewarm_spawned_total, "spawned", function
        ).inc()

    def on_prewarm_hit(self, function: str) -> None:
        """One pre-warmed instance was claimed by a request."""
        self.ensure_warmpath_metrics()
        self._warmpath_child(self.prewarm_hits_total, "hit", function).inc()

    def on_prewarm_wasted(self, function: str) -> None:
        """One pre-warmed instance died unused."""
        self.ensure_warmpath_metrics()
        self._warmpath_child(
            self.prewarm_wasted_total, "wasted", function
        ).inc()

    def on_predicted_rps(self, function: str, value: float) -> None:
        """The predictor's current rate estimate for one function."""
        self.ensure_warmpath_metrics()
        self._warmpath_child(self.predicted_rps, "rps", function).set(value)

    def on_bitstream_prefetch_started(self, function: str) -> None:
        """One FPGA image finished programming ahead of demand."""
        self.ensure_warmpath_metrics()
        self._warmpath_child(
            self.bitstream_prefetch_started_total, "pf_start", function
        ).inc()

    def on_bitstream_prefetch_hit(self, function: str) -> None:
        """One FPGA start was served warm off a prefetched image."""
        self.ensure_warmpath_metrics()
        self._warmpath_child(
            self.bitstream_prefetch_hits_total, "pf_hit", function
        ).inc()

    def on_planner_drop(self, count: int) -> None:
        """The FPGA image planner dropped ``count`` predicted functions
        that did not fit the image (lazy: most runs never overflow)."""
        if self.planner_dropped_total is None:
            self.planner_dropped_total = self.registry.counter(
                "repro_fpga_planner_dropped_total",
                "Predicted-hot functions dropped from FPGA image plans "
                "by the max_instances packing cap.",
            )
        if count:
            self.planner_dropped_total.inc(count)

    # -- hedging engine hooks ----------------------------------------------------------

    def ensure_hedge_metrics(self) -> None:
        """Register the hedging metric families on first use."""
        if self.hedge_fired_total is not None:
            return
        r = self.registry
        self.hedge_fired_total = r.counter(
            "repro_hedge_fired",
            "Hedge clones launched after the percentile trigger fired "
            "with the primary copy still in flight.",
            ("function",),
        )
        self.hedge_won_total = r.counter(
            "repro_hedge_won",
            "Hedged requests answered by the clone (the primary lost "
            "the first-wins race).",
            ("function",),
        )
        self.hedge_cancelled_total = r.counter(
            "repro_hedge_cancelled",
            "Hedge clones torn down at a cancellation checkpoint after "
            "the primary answered first.",
            ("function",),
        )
        self.hedge_wasted_seconds_total = r.counter(
            "repro_hedge_wasted_seconds",
            "Execution seconds burned by losing hedge copies and then "
            "discarded.",
            ("function",),
        )
        self.hedge_throttled_total = r.counter(
            "repro_hedge_throttled",
            "Hedge clones refused by the global token-bucket budget "
            "(out of tokens, waste ceiling, or overload brownout).",
            ("function",),
        )

    def _hedge_child(self, family, kind: str, function: str):
        key = (kind, function)
        child = self._hedge_children.get(key)
        if child is None:
            child = family.bind(function=function)
            self._hedge_children[key] = child
        return child

    def on_hedge_fired(self, function: str) -> None:
        """One hedge clone launched."""
        self.ensure_hedge_metrics()
        self._hedge_child(self.hedge_fired_total, "fired", function).inc()

    def on_hedge_won(self, function: str) -> None:
        """One hedged request answered by its clone."""
        self.ensure_hedge_metrics()
        self._hedge_child(self.hedge_won_total, "won", function).inc()

    def on_hedge_cancelled(self, function: str) -> None:
        """One losing hedge clone cancelled."""
        self.ensure_hedge_metrics()
        self._hedge_child(
            self.hedge_cancelled_total, "cancelled", function
        ).inc()

    def on_hedge_wasted(self, function: str, seconds: float) -> None:
        """``seconds`` of discarded execution from a losing hedge copy."""
        self.ensure_hedge_metrics()
        if seconds:
            self._hedge_child(
                self.hedge_wasted_seconds_total, "wasted", function
            ).inc(seconds)

    def on_hedge_throttled(self, function: str) -> None:
        """One hedge clone refused by the token-bucket budget."""
        self.ensure_hedge_metrics()
        self._hedge_child(
            self.hedge_throttled_total, "throttled", function
        ).inc()

    # -- overload controller hooks ------------------------------------------------------

    def ensure_overload_metrics(self) -> None:
        """Register the overload metric families on first use."""
        if self.shed_total is not None:
            return
        r = self.registry
        self.shed_total = r.counter(
            "repro_shed_total",
            "Requests shed at shard admission by the overload "
            "controller, by reason (queue_full | predicted_wait | "
            "deadline).",
            ("function", "reason"),
        )
        self.overload_limit = r.gauge(
            "repro_overload_limit",
            "Adaptive AIMD concurrency limit per gateway shard "
            "(snapshot time).",
            ("shard",),
        )
        self.overload_queue_depth = r.gauge(
            "repro_overload_queue_depth",
            "Bounded admission-queue depth per gateway shard "
            "(snapshot time).",
            ("shard",),
        )
        self.overload_pressure = r.gauge(
            "repro_overload_pressure",
            "Saturation signal: worst shard's queue-fill x limit "
            "utilization (snapshot time).",
        )
        self.brownout_transitions_total = r.counter(
            "repro_overload_brownout_total",
            "Brownout state transitions (enter | exit).",
            ("state",),
        )

    def on_shed(self, function: str, reason: str) -> None:
        """One request shed at admission."""
        self.ensure_overload_metrics()
        key = (function, reason)
        child = self._shed_children.get(key)
        if child is None:
            child = self.shed_total.bind(function=function, reason=reason)
            self._shed_children[key] = child
        child.inc()

    def on_brownout(self, active: bool) -> None:
        """The brownout state machine transitioned."""
        self.ensure_overload_metrics()
        state = "enter" if active else "exit"
        child = self._brownout_children.get(state)
        if child is None:
            child = self.brownout_transitions_total.bind(state=state)
            self._brownout_children[state] = child
        child.inc()

    def on_dead_letter_overflow(self) -> None:
        """A bounded dead-letter queue evicted its oldest entry (lazy:
        only bounded queues that actually overflow ever see it)."""
        if self.dead_letter_overflow_total is None:
            self.dead_letter_overflow_total = self.registry.counter(
                "repro_dead_letter_overflow_total",
                "Dead letters evicted (drop-oldest) by a bounded "
                "dead-letter queue at capacity.",
            )
        self.dead_letter_overflow_total.inc()

    # -- fan-out engine hooks -----------------------------------------------------------

    def ensure_fanout_metrics(self) -> None:
        """Register the fan-out metric families on first use."""
        if self.fanout_jobs_total is not None:
            return
        r = self.registry
        self.fanout_jobs_total = r.counter(
            "repro_fanout_jobs",
            "Fan-out jobs (map / map_reduce) submitted to the futures "
            "engine.",
            ("function",),
        )
        self.fanout_tasks_total = r.counter(
            "repro_fanout_tasks",
            "Per-partition fan-out tasks by terminal fate "
            "(done | shed | error).",
            ("function", "outcome"),
        )
        self.fanout_batches_total = r.counter(
            "repro_fanout_batches",
            "Deterministic admission chunks dispatched by the batched "
            "fan-out submitter.",
        )
        self.fanout_speculations_total = r.counter(
            "repro_fanout_speculations",
            "Straggler partitions speculatively re-executed through the "
            "hedging clone path during gather.",
            ("function",),
        )

    def _fanout_child(self, family, kind: str, *labels: str):
        key = (kind,) + labels
        child = self._fanout_children.get(key)
        if child is None:
            if family is self.fanout_tasks_total:
                child = family.bind(function=labels[0], outcome=labels[1])
            else:
                child = family.bind(function=labels[0])
            self._fanout_children[key] = child
        return child

    def on_fanout_job(self, function: str) -> None:
        """One fan-out job submitted."""
        self.ensure_fanout_metrics()
        self._fanout_child(self.fanout_jobs_total, "job", function).inc()

    def on_fanout_task(self, function: str, outcome: str) -> None:
        """One partition task reached its terminal fate."""
        self.ensure_fanout_metrics()
        self._fanout_child(
            self.fanout_tasks_total, "task", function, outcome
        ).inc()

    def on_fanout_batch(self) -> None:
        """One admission chunk dispatched."""
        self.ensure_fanout_metrics()
        self.fanout_batches_total.inc()

    def on_fanout_speculated(self, function: str) -> None:
        """One straggler partition speculatively re-executed."""
        self.ensure_fanout_metrics()
        self._fanout_child(
            self.fanout_speculations_total, "spec", function
        ).inc()

    # -- result-cache engine hooks --------------------------------------------------------

    def ensure_reuse_metrics(self) -> None:
        """Register the result-cache metric families on first use."""
        if self.reuse_hits_total is not None:
            return
        r = self.registry
        self.reuse_hits_total = r.counter(
            "repro_reuse_hits",
            "Requests answered from the result cache, by freshness "
            "(fresh | singleflight | stale).",
            ("function", "freshness"),
        )
        self.reuse_misses_total = r.counter(
            "repro_reuse_misses",
            "Cache consults that found no servable entry and led a "
            "single-flight execution.",
            ("function",),
        )
        self.reuse_stale_total = r.counter(
            "repro_reuse_stale",
            "Expired entries served stale, by trigger "
            "(pressure | deadline | shed).",
            ("reason",),
        )
        self.reuse_bypass_total = r.counter(
            "repro_reuse_bypass",
            "Requests that skipped the cache consult, by reason "
            "(probe | nonidempotent | no_key).",
            ("reason",),
        )
        self.reuse_singleflight_total = r.counter(
            "repro_reuse_singleflight",
            "Followers fanned a single-flight leader's result instead "
            "of executing their own copy.",
            ("function",),
        )
        self.reuse_evictions_total = r.counter(
            "repro_reuse_evictions",
            "Entries evicted by the cache's LRU/GDSF policy.",
        )
        self.reuse_invalidations_total = r.counter(
            "repro_reuse_invalidations",
            "Entries dropped by an invalidating deploy of their "
            "function.",
        )
        self.reuse_cache_entries = r.gauge(
            "repro_reuse_cache_entries",
            "Entries resident in the result cache.",
        )
        self.reuse_cache_bytes = r.gauge(
            "repro_reuse_cache_bytes",
            "Bytes resident in the result cache.",
        )
        self.reuse_hit_ratio = r.gauge(
            "repro_reuse_hit_ratio",
            "Cached answers over all cache-consulting answers.",
        )

    def _reuse_child(self, family, kind: str, *labels: str):
        key = (kind,) + labels
        child = self._reuse_children.get(key)
        if child is None:
            if family is self.reuse_hits_total:
                child = family.bind(function=labels[0], freshness=labels[1])
            elif family in (self.reuse_stale_total, self.reuse_bypass_total):
                child = family.bind(reason=labels[0])
            else:
                child = family.bind(function=labels[0])
            self._reuse_children[key] = child
        return child

    def on_reuse_hit(self, function: str, freshness: str) -> None:
        """One request answered from the result cache."""
        self.ensure_reuse_metrics()
        self._reuse_child(
            self.reuse_hits_total, "hit", function, freshness
        ).inc()

    def on_reuse_miss(self, function: str) -> None:
        """One cache consult found nothing servable."""
        self.ensure_reuse_metrics()
        self._reuse_child(self.reuse_misses_total, "miss", function).inc()

    def on_reuse_stale(self, reason: str) -> None:
        """One expired entry served stale."""
        self.ensure_reuse_metrics()
        self._reuse_child(self.reuse_stale_total, "stale", reason).inc()

    def on_reuse_bypass(self, reason: str) -> None:
        """One request skipped the cache consult."""
        self.ensure_reuse_metrics()
        self._reuse_child(self.reuse_bypass_total, "bypass", reason).inc()

    def on_reuse_singleflight(self, function: str, served: int) -> None:
        """``served`` followers fanned one leader's result."""
        self.ensure_reuse_metrics()
        if served:
            self._reuse_child(
                self.reuse_singleflight_total, "sf", function
            ).inc(served)

    def on_reuse_evicted(self, count: int) -> None:
        """``count`` entries evicted to make room."""
        self.ensure_reuse_metrics()
        if count:
            self.reuse_evictions_total.inc(count)

    def on_reuse_invalidated(self, count: int) -> None:
        """``count`` entries dropped by an invalidating deploy."""
        self.ensure_reuse_metrics()
        if count:
            self.reuse_invalidations_total.inc(count)

    def on_reuse_cache_state(self, entries: int, nbytes: int,
                             hit_ratio: float) -> None:
        """Refresh the cache-occupancy gauges."""
        self.ensure_reuse_metrics()
        self.reuse_cache_entries.set(entries)
        self.reuse_cache_bytes.set(nbytes)
        self.reuse_hit_ratio.set(hit_ratio)

    # -- sim kernel hooks ----------------------------------------------------------------

    def ensure_kernel_metrics(self) -> None:
        """Register the sim-kernel metric families on first use."""
        if self.kernel_events_processed is not None:
            return
        r = self.registry
        self.kernel_events_processed = r.gauge(
            "repro_kernel_events_processed",
            "Events dispatched by the sim kernel since construction.",
        )
        self.kernel_batches_drained = r.gauge(
            "repro_kernel_batches_drained",
            "Timestep batches drained by the batched event loop.",
        )
        self.kernel_heap_ops_avoided = r.gauge(
            "repro_kernel_heap_ops_avoided",
            "Events dispatched without a heap pop of their own (drained "
            "from a timestep batch or the URGENT lane).",
        )
        self.kernel_mean_batch_size = r.gauge(
            "repro_kernel_mean_batch_size",
            "Mean events dispatched per drained timestep batch.",
        )
        self.kernel_dispatched = r.gauge(
            "repro_kernel_dispatched",
            "Events dispatched by the sim kernel, by record kind.",
            ("kind",),
        )
        self.kernel_slab_hit_rate = r.gauge(
            "repro_kernel_slab_hit_rate",
            "Fraction of record allocations served by the slab "
            "free-lists, by record kind.",
            ("kind",),
        )

    def record_kernel_profile(self, profile: dict) -> None:
        """Publish a :meth:`Simulator.kernel_profile` snapshot.

        Lazy by design: golden runs that never publish a profile keep a
        byte-identical metric catalog.
        """
        self.ensure_kernel_metrics()
        self.kernel_events_processed.set(profile["events_processed"])
        self.kernel_batches_drained.set(profile["batches_drained"])
        self.kernel_heap_ops_avoided.set(profile["heap_ops_avoided"])
        self.kernel_mean_batch_size.set(profile["mean_batch_size"])
        children = self._kernel_children
        for kind, count in profile["dispatched_by_kind"].items():
            key = ("dispatched", kind)
            child = children.get(key)
            if child is None:
                child = self.kernel_dispatched.bind(kind=kind)
                children[key] = child
            child.set(count)
        for kind, entry in profile["slab"].items():
            key = ("slab", kind)
            child = children.get(key)
            if child is None:
                child = self.kernel_slab_hit_rate.bind(kind=kind)
                children[key] = child
            child.set(entry["hit_rate"])

    def on_nipc_dropped(self) -> None:
        """One XPU-FIFO message dropped by an injected fault."""
        self.nipc_dropped_total.inc()

    def on_nipc_delayed(self) -> None:
        """One XPU-FIFO message delayed by an injected fault."""
        self.nipc_delayed_total.inc()
