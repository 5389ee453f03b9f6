"""The runtime's observability hub.

One :class:`Observability` instance per :class:`MoleculeRuntime` owns
the metrics registry and the per-request span store.  Every metric
family is declared once, as a row of :data:`CATALOG`, and every layer
records through three generic verbs:

* :meth:`Observability.count` — add to a counter series;
* :meth:`Observability.observe` — observe into a histogram series;
* :meth:`Observability.set` — set a gauge series.

Label values are passed positionally, as strings, in the row's label
order.  Request lifecycles go through :meth:`begin_invocation`, whose
trace publishes itself through :meth:`record`, :meth:`record_failure`
or :meth:`record_shed`.

Rows sit under registration groups.  ``core`` registers at
construction; every other group is an optional engine's families and
registers, whole and in row order, the first time one of its families
is touched or :meth:`Observability.ensure` names it.  An engine-off run
therefore carries none of them, and the exposition renders in row
order.  Adding a metric is one row here and one verb call where the
event happens.

Every layer treats its hub as optional (``obs=None`` keeps the
component observability-free for unit tests), so the subsystem adds no
coupling below ``core.molecule``, which wires everything.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import NamedTuple

from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry, ObsError
from repro.obs.spans import LIFECYCLE_PHASES, RequestTrace

#: Finer buckets for sub-millisecond paths (XPUcalls, nIPC, admission).
MICRO_BUCKETS = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4,
    5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 0.1, 1.0,
)

#: The most recent request traces kept, of any fate.
MAX_TRACES = 1024

#: One bit per lifecycle phase, to spot a phase a trace reopened.
_STAGE_BITS = {name: 1 << i for i, name in enumerate(LIFECYCLE_PHASES)}


class Row(NamedTuple):
    """One metric family's declaration."""

    kind: str  # counter | gauge | histogram
    help: str
    labels: tuple[str, ...] = ()
    buckets: tuple[float, ...] = DEFAULT_BUCKETS


#: group -> metric name -> row, in registration order.
CATALOG: dict[str, dict[str, Row]] = {
    "core": {
        # -- request lifecycle ------------------------------------------------
        "repro_requests_total": Row(
            "counter",
            "Completed invocations by function, PU kind and start kind.",
            ("function", "pu_kind", "start_kind"),
        ),
        "repro_request_seconds": Row(
            "histogram", "End-to-end request latency.",
            ("function", "pu_kind", "start_kind"),
        ),
        "repro_phase_seconds": Row(
            "histogram",
            "Per-phase latency (admit/schedule/sandbox_start/exec/respond).",
            ("phase", "function", "pu_kind", "start_kind"),
        ),
        "repro_starts_total": Row(
            "counter", "Instance starts by kind (cold | fork | warm).",
            ("start_kind",),
        ),
        "repro_invocation_failures_total": Row(
            "counter", "Invocations abandoned by an error, by error type.",
            ("function", "error"),
        ),
        # -- gateway ----------------------------------------------------------
        "repro_gateway_requests_total": Row(
            "counter", "Requests admitted by the API gateway.",
        ),
        "repro_gateway_admit_seconds": Row(
            "histogram", "Gateway admission overhead.",
            buckets=MICRO_BUCKETS,
        ),
        # -- scheduler --------------------------------------------------------
        "repro_scheduler_placements_total": Row(
            "counter", "Successful instance placements by PU kind.",
            ("pu_kind",),
        ),
        "repro_scheduler_placement_failures_total": Row(
            "counter", "Placements rejected by admission control.",
        ),
        # -- keep-alive -------------------------------------------------------
        "repro_keepalive_reaped_total": Row(
            "counter", "Warm instances evicted by the keep-alive TTL reaper.",
        ),
        "repro_warm_pool_size": Row(
            "gauge", "Idle warm instances per PU (refreshed at snapshot time).",
            ("pu",),
        ),
        "repro_warm_pool_hits": Row(
            "gauge", "Warm-pool hits per PU (refreshed at snapshot time).",
            ("pu",),
        ),
        "repro_warm_pool_misses": Row(
            "gauge", "Warm-pool misses per PU (refreshed at snapshot time).",
            ("pu",),
        ),
        "repro_pu_dram_used_mb": Row(
            "gauge", "DRAM reserved on a general-purpose PU (snapshot time).",
            ("pu",),
        ),
        # -- sandboxes --------------------------------------------------------
        "repro_sandbox_verb_seconds": Row(
            "histogram",
            "Sandbox runtime verb latency (create/start/cfork/...).",
            ("runtime", "verb"),
        ),
        # -- XPU-Shim ---------------------------------------------------------
        "repro_xpucalls_total": Row(
            "counter", "XPUcalls served by shim instances.",
            ("pu_kind", "transport"),
        ),
        "repro_xpucall_seconds": Row(
            "histogram", "XPUcall user<->shim round-trip overhead.",
            ("pu_kind", "transport"), MICRO_BUCKETS,
        ),
        "repro_nipc_messages_total": Row(
            "counter",
            "XPU-FIFO messages written (local fast path vs cross-PU nIPC).",
            ("path",),
        ),
        "repro_nipc_bytes_total": Row(
            "counter", "XPU-FIFO payload bytes written.", ("path",),
        ),
        # -- reliability ------------------------------------------------------
        "repro_retries_total": Row(
            "counter",
            "Attempts retried after a transient failure, by error type.",
            ("function", "reason"),
        ),
        "repro_deadline_exceeded_total": Row(
            "counter", "Requests abandoned at their gateway deadline.",
            ("function",),
        ),
        "repro_dead_letters_total": Row(
            "counter", "Requests parked in the dead-letter queue, by reason.",
            ("function", "reason"),
        ),
        "repro_degraded_total": Row(
            "counter",
            "Attempts degraded from an accelerator to a CPU profile.",
            ("function", "from_kind", "to_kind"),
        ),
        "repro_breaker_transitions_total": Row(
            "counter", "Circuit-breaker state transitions per PU.",
            ("pu", "to_state"),
        ),
        "repro_breaker_state": Row(
            "gauge",
            "Current breaker state per PU (0 closed, 1 half-open, 2 open, "
            "3 down; refreshed at snapshot time).",
            ("pu",),
        ),
        "repro_faults_injected_total": Row(
            "counter", "Faults fired by the deterministic injector, by kind.",
            ("kind",),
        ),
        "repro_nipc_dropped_total": Row(
            "counter", "XPU-FIFO messages dropped by injected faults.",
        ),
        "repro_nipc_delayed_total": Row(
            "counter", "XPU-FIFO messages delayed by injected faults.",
        ),
    },
    "shard": {
        "repro_shard_routed_total": Row(
            "counter",
            "Requests routed to a gateway shard, by shard and policy.",
            ("shard", "policy"),
        ),
        "repro_shard_outstanding": Row(
            "gauge", "In-flight requests per gateway shard (snapshot time).",
            ("shard",),
        ),
        "repro_shard_utilization": Row(
            "gauge", "Busy-time fraction per gateway shard (snapshot time).",
            ("shard",),
        ),
    },
    "warmpath": {
        "repro_coalesced_starts": Row(
            "counter",
            "Requests served by a coalesced single-flight cold-start "
            "batch instead of an independent cold start.",
            ("function",),
        ),
        "repro_prewarm_spawned": Row(
            "counter", "Instances forked ahead of demand by the pre-warmer.",
            ("function",),
        ),
        "repro_prewarm_hits": Row(
            "counter",
            "Pre-warmed instances claimed by a request before any use.",
            ("function",),
        ),
        "repro_prewarm_wasted": Row(
            "counter",
            "Pre-warmed instances destroyed without serving anything.",
            ("function",),
        ),
        "repro_predicted_rps": Row(
            "gauge",
            "Predicted near-term arrival rate per function "
            "(refreshed every pre-warmer tick).",
            ("function",),
        ),
        "repro_bitstream_prefetch_started": Row(
            "counter",
            "FPGA images programmed ahead of the triggering request.",
            ("function",),
        ),
        "repro_bitstream_prefetch_hits": Row(
            "counter", "FPGA starts served warm off a prefetched image.",
            ("function",),
        ),
    },
    # Only runs whose predicted set overflows an FPGA image see it.
    "planner": {
        "repro_fpga_planner_dropped_total": Row(
            "counter",
            "Predicted-hot functions dropped from FPGA image plans "
            "by the max_instances packing cap.",
        ),
    },
    "hedge": {
        "repro_hedge_fired": Row(
            "counter",
            "Hedge clones launched after the percentile trigger fired "
            "with the primary copy still in flight.",
            ("function",),
        ),
        "repro_hedge_won": Row(
            "counter",
            "Hedged requests answered by the clone (the primary lost "
            "the first-wins race).",
            ("function",),
        ),
        "repro_hedge_cancelled": Row(
            "counter",
            "Hedge clones torn down at a cancellation checkpoint after "
            "the primary answered first.",
            ("function",),
        ),
        "repro_hedge_wasted_seconds": Row(
            "counter",
            "Execution seconds burned by losing hedge copies and then "
            "discarded.",
            ("function",),
        ),
        "repro_hedge_throttled": Row(
            "counter",
            "Hedge clones refused by the global token-bucket budget "
            "(out of tokens, waste ceiling, or overload brownout).",
            ("function",),
        ),
    },
    "overload": {
        "repro_shed_total": Row(
            "counter",
            "Requests shed at shard admission by the overload "
            "controller, by reason (queue_full | predicted_wait | "
            "deadline).",
            ("function", "reason"),
        ),
        "repro_overload_limit": Row(
            "gauge",
            "Adaptive AIMD concurrency limit per gateway shard "
            "(snapshot time).",
            ("shard",),
        ),
        "repro_overload_queue_depth": Row(
            "gauge",
            "Bounded admission-queue depth per gateway shard "
            "(snapshot time).",
            ("shard",),
        ),
        "repro_overload_pressure": Row(
            "gauge",
            "Saturation signal: worst shard's queue-fill x limit "
            "utilization (snapshot time).",
        ),
        "repro_overload_brownout_total": Row(
            "counter", "Brownout state transitions (enter | exit).",
            ("state",),
        ),
    },
    # Only bounded dead-letter queues that actually overflow see it.
    "dead_letter_overflow": {
        "repro_dead_letter_overflow_total": Row(
            "counter",
            "Dead letters evicted (drop-oldest) by a bounded "
            "dead-letter queue at capacity.",
        ),
    },
    "fanout": {
        "repro_fanout_jobs": Row(
            "counter",
            "Fan-out jobs (map / map_reduce) submitted to the futures "
            "engine.",
            ("function",),
        ),
        "repro_fanout_tasks": Row(
            "counter",
            "Per-partition fan-out tasks by terminal fate "
            "(done | shed | error).",
            ("function", "outcome"),
        ),
        "repro_fanout_batches": Row(
            "counter",
            "Deterministic admission chunks dispatched by the batched "
            "fan-out submitter.",
        ),
        "repro_fanout_speculations": Row(
            "counter",
            "Straggler partitions speculatively re-executed through the "
            "hedging clone path during gather.",
            ("function",),
        ),
    },
    "reuse": {
        "repro_reuse_hits": Row(
            "counter",
            "Requests answered from the result cache, by freshness "
            "(fresh | singleflight | stale).",
            ("function", "freshness"),
        ),
        "repro_reuse_misses": Row(
            "counter",
            "Cache consults that found no servable entry and led a "
            "single-flight execution.",
            ("function",),
        ),
        "repro_reuse_stale": Row(
            "counter",
            "Expired entries served stale, by trigger "
            "(pressure | deadline | shed).",
            ("reason",),
        ),
        "repro_reuse_bypass": Row(
            "counter",
            "Requests that skipped the cache consult, by reason "
            "(probe | nonidempotent | no_key).",
            ("reason",),
        ),
        "repro_reuse_singleflight": Row(
            "counter",
            "Followers fanned a single-flight leader's result instead "
            "of executing their own copy.",
            ("function",),
        ),
        "repro_reuse_evictions": Row(
            "counter", "Entries evicted by the cache's LRU/GDSF policy.",
        ),
        "repro_reuse_invalidations": Row(
            "counter",
            "Entries dropped by an invalidating deploy of their "
            "function.",
        ),
        "repro_reuse_cache_entries": Row(
            "gauge", "Entries resident in the result cache.",
        ),
        "repro_reuse_cache_bytes": Row(
            "gauge", "Bytes resident in the result cache.",
        ),
        "repro_reuse_hit_ratio": Row(
            "gauge", "Cached answers over all cache-consulting answers.",
        ),
    },
    # Only snapshots that publish a kernel profile see these.
    "kernel": {
        "repro_kernel_events_processed": Row(
            "gauge", "Events dispatched by the sim kernel since construction.",
        ),
        "repro_kernel_batches_drained": Row(
            "gauge", "Timestep batches drained by the batched event loop.",
        ),
        "repro_kernel_heap_ops_avoided": Row(
            "gauge",
            "Events dispatched without a heap pop of their own (drained "
            "from a timestep batch or the URGENT lane).",
        ),
        "repro_kernel_mean_batch_size": Row(
            "gauge", "Mean events dispatched per drained timestep batch.",
        ),
        "repro_kernel_dispatched": Row(
            "gauge", "Events dispatched by the sim kernel, by record kind.",
            ("kind",),
        ),
        "repro_kernel_slab_hit_rate": Row(
            "gauge",
            "Fraction of record allocations served by the slab "
            "free-lists, by record kind.",
            ("kind",),
        ),
    },
}

#: metric name -> its registration group.
_GROUP_OF = {name: group for group, rows in CATALOG.items() for name in rows}


class Observability:
    """Metrics registry + lifecycle span store for one runtime."""

    def __init__(self, sim):
        self.sim = sim
        self.registry = MetricsRegistry()
        #: The most recent request traces, oldest evicted first.
        self.traces: deque[RequestTrace] = deque(maxlen=MAX_TRACES)
        #: Lifecycle phase -> its ``phases()`` duration in every trace
        #: ever completed, in record order (never evicted).
        self.stage_samples = {name: array("d") for name in LIFECYCLE_PHASES}
        #: Registered families by name.
        self._families = {}
        #: (function, pu_kind, start_kind) -> the series :meth:`record`
        #: feeds: request count, latency, start kind, and per phase name
        #: (phase histogram, stage samples, stage bit).
        self._record_series = {}
        self.ensure("core")

    def ensure(self, group: str) -> None:
        """Register every family of ``group``, in row order, once."""
        rows = CATALOG[group]
        if next(iter(rows)) in self._families:
            return
        registry = self.registry
        for name, row in rows.items():
            if row.kind == "histogram":
                family = registry.histogram(
                    name, row.help, row.labels, row.buckets
                )
            else:
                family = getattr(registry, row.kind)(name, row.help, row.labels)
            self._families[name] = family

    def _family(self, name: str):
        group = _GROUP_OF.get(name)
        if group is None:
            raise ObsError(f"unknown metric {name!r}")
        self.ensure(group)
        return self._families[name]

    # -- the recorder ----------------------------------------------------------------
    # Each verb resolves its series inline (one dict probe on the hot
    # path); MetricFamily.child validates and creates on a miss.

    def count(self, name: str, *labels: str, n: float = 1) -> None:
        """Add ``n`` to a counter series (``Counter.inc`` semantics:
        ``n=0`` still creates the series)."""
        family = self._families.get(name) or self._family(name)
        child = family._children.get(labels)
        if child is None:
            child = family.child(*labels)
        child.inc(n)

    def observe(self, name: str, value: float, *labels: str) -> None:
        """Observe ``value`` into a histogram series."""
        family = self._families.get(name) or self._family(name)
        child = family._children.get(labels)
        if child is None:
            child = family.child(*labels)
        child.observe(value)

    def set(self, name: str, value: float, *labels: str) -> None:
        """Set a gauge series to ``value``."""
        family = self._families.get(name) or self._family(name)
        child = family._children.get(labels)
        if child is None:
            child = family.child(*labels)
        child.set(value)

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
        bound = self._record_series.get(key)
        families = self._families
        if bound is None:
            bound = self._record_series[key] = (
                families["repro_requests_total"].child(*key),
                families["repro_request_seconds"].child(*key),
                families["repro_starts_total"].child(start_kind),
                {},
            )
        requests, seconds, starts, phases = bound
        requests.inc()
        seconds.observe(root.duration_s)
        starts.inc()
        seen = 0
        for child in root.children:
            name = child.name
            duration_s = child.duration_s
            phase = phases.get(name)
            if phase is None:
                phase = phases[name] = (
                    families["repro_phase_seconds"].child(name, *key),
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
        error = str(trace.root.attributes.get("error", "unknown"))
        self.count("repro_invocation_failures_total", trace.function, error)
        self.traces.append(trace)

    def record_shed(self, trace: RequestTrace) -> None:
        """Keep a load-shed trace (repro.overload) without touching the
        histograms or the failure counters: a shed is deliberate
        back-pressure, not an error, and is counted by reason under
        ``repro_shed_total`` instead."""
        self.traces.append(trace)

    def completed_traces(self) -> list[RequestTrace]:
        """Recorded traces that finished cleanly (neither failed nor
        shed)."""
        return [
            t for t in self.traces
            if "error" not in t.root.attributes
            and "shed" not in t.root.attributes
        ]
