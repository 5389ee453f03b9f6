"""Invocation paths: cold start, warm start, accelerator dispatch (§4.2).

The invoker owns the per-PU warm pools and implements the start paths:

* **warm**: take an idle instance from the pool (cache hit);
* **cfork cold**: fork the PU's template container — locally for the
  host PU, through the executor's nIPC command channel for others;
* **baseline cold**: full container create + runtime boot (what
  Molecule-homo always does);
* **FPGA**: check the resident image for a cached kernel; repack and
  re-program (no-erase) on a miss; DMA the payload in and out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro import config
from repro.errors import (
    DeadlineExceeded,
    FaultInjectedError,
    HedgeCancelled,
    RegistryError,
    ReliabilityError,
    ReproError,
    RequestShed,
    RetriesExhaustedError,
    SandboxError,
    SchedulingError,
    WorkloadError,
)
from repro.hardware.pu import ProcessingUnit, PuKind
from repro.core.keepalive import WarmPool, make_warm_pool
from repro.core.registry import FunctionDef
from repro.core.reliability import DeadLetter, RetryPolicy
from repro.obs.spans import (
    DetachableTrace,
    NULL_TRACE,
    START_CACHED,
    START_COALESCED,
    START_COLD,
    START_FORK,
    START_HEDGED,
    START_WARM,
)
from repro.sandbox.base import Sandbox, SandboxState
from repro.sandbox.runc import ContainerBackend
from repro.sandbox.runf import FpgaBackend
from repro.sandbox.rung import GpuBackend

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.molecule import MoleculeRuntime


@dataclass
class FunctionInstance:
    """One live (warm or executing) function instance."""

    function: FunctionDef
    pu: ProcessingUnit
    sandbox: Sandbox
    forked: bool
    requests_served: int = 0
    #: Set by the first ``Invoker._destroy`` to claim the teardown.
    #: Several paths can race to destroy one instance (keep-alive
    #: reaper, LRU eviction, dead-corpse reaping in ``_find_warm``,
    #: fault injection); without the claim each would release the
    #: instance's DRAM reservation again, corrupting admission control.
    destroyed: bool = False
    #: True while this instance was forked ahead of demand by the
    #: warm-path pre-warmer and no request has claimed it yet; the
    #: engine's hit/wasted accounting keys on it.
    prewarmed: bool = False

    @property
    def is_first_request(self) -> bool:
        """True before the instance has served anything (COW penalty)."""
        return self.requests_served == 0


@dataclass
class InvocationResult:
    """Timing breakdown of one request."""

    function: str
    request_id: int
    pu_name: str
    #: None for cache-served answers (repro.reuse): no PU ran them.
    pu_kind: Optional[PuKind]
    cold: bool
    startup_s: float
    exec_s: float
    comm_s: float
    total_s: float
    billed_cost: float
    #: Attempts the request took (1 = first attempt succeeded).
    attempts: int = 1
    #: Last transient error retried before success, if any.
    error: Optional[str] = None
    #: True when the request fell back from an accelerator profile to a
    #: general-purpose one because the accelerator was down.
    degraded: bool = False
    #: Sim time at which the gateway admitted the request.
    admitted_s: float = 0.0
    #: Gateway shard that admitted the request (None: unsharded front end).
    shard: Optional[int] = None
    #: True when a hedge clone was launched for this request
    #: (repro.hedging), whichever copy won.
    hedged: bool = False
    #: Which copy answered a hedged request: "primary" or "clone"
    #: (empty when no clone launched).
    hedge_winner: str = ""
    #: Result payload (repro.reuse): set for executions of idempotent
    #: functions with an input key, and for every cache-served answer —
    #: a hit's payload must equal what executing its digest produces.
    payload: Optional[str] = None
    #: "" for executed answers; "fresh" or "stale" when this request
    #: was answered from the result cache (repro.reuse).
    cache: str = ""

    @property
    def total_ms(self) -> float:
        """End-to-end latency in milliseconds."""
        return self.total_s / config.MS

    @property
    def retried(self) -> bool:
        """True if the request needed more than one attempt."""
        return self.attempts > 1


class Invoker:
    """Cold/warm start logic over the runtime's sandbox runtimes."""

    def __init__(
        self,
        runtime: "MoleculeRuntime",
        warm_pool_capacity: int = 4096,
        keep_alive_ttl_s: Optional[float] = None,
        reap_period_s: float = 1.0,
        keepalive_policy: str = "ttl",
    ):
        self.runtime = runtime
        self.pools: dict[int, WarmPool] = {
            pu_id: make_warm_pool(
                keepalive_policy, warm_pool_capacity,
                keep_alive_ttl_s=keep_alive_ttl_s,
            )
            for pu_id in runtime.machine.pus
        }
        self._sandbox_ids = itertools.count(1)
        self.cold_invocations = 0
        self.warm_invocations = 0
        #: Requests served by a coalesced single-flight batch.
        self.coalesced_invocations = 0
        #: Observability hub (lifecycle spans + metrics); None keeps the
        #: invoker instrumentation-free for unit tests.
        self.obs = getattr(runtime, "obs", None)
        #: Reliability wiring (all optional so unit tests can run a bare
        #: runtime): retry policy, per-PU health, dead letters.
        self.retry_policy: RetryPolicy = (
            getattr(runtime, "retry_policy", None) or RetryPolicy()
        )
        self.health = getattr(runtime, "health", None)
        self.dead_letters = getattr(runtime, "dead_letters", None)
        rng = getattr(runtime, "rng", None)
        #: Seeded stream for backoff jitter (None disables jitter).
        self._retry_rng = rng.fork("invoker-retry") if rng is not None else None
        #: Warm-path engine (repro.warmpath); wired by WarmPathEngine
        #: itself.  None keeps every hot path byte-identical to a
        #: runtime without the engine.
        self.engine = None
        #: Hedge policy (repro.hedging); wired by HedgePolicy itself.
        #: None keeps every hot path byte-identical to a runtime
        #: without hedging.
        self.hedging = None
        #: Overload controller (repro.overload); wired by
        #: OverloadController itself.  None keeps every hot path
        #: byte-identical to a runtime without overload control.
        self.overload = None
        #: Result-cache engine (repro.reuse); wired by ReuseEngine
        #: itself.  None keeps every hot path byte-identical to a
        #: runtime without computation reuse.
        self.reuse = None
        self._reaper_wakeup = None
        if keep_alive_ttl_s is not None:
            self.runtime.sim.spawn(
                self._keepalive_reaper(reap_period_s), name="keepalive-reaper"
            )

    def notify_idle(self) -> None:
        """Wake the keep-alive reaper after instances went idle."""
        if self._reaper_wakeup is not None and not self._reaper_wakeup.triggered:
            self._reaper_wakeup.succeed()

    def _keepalive_reaper(self, period_s: float):
        """Daemon: periodically evict instances idle past the TTL (§5
        keep-alive policies).

        Event-driven: while every pool is empty the reaper parks on a
        wakeup event (so an idle simulation can drain); releases call
        :meth:`notify_idle`.  Note that with a TTL configured, running
        the simulation to quiescence ages idle instances past the TTL.
        """
        while True:
            if all(not pool.idle_instances() for pool in self.pools.values()):
                self._reaper_wakeup = self.sim.event()
                yield self._reaper_wakeup
                self._reaper_wakeup = None
            yield self.sim.timeout(period_s)
            reaped = 0
            for pool in self.pools.values():
                for instance in pool.reap_expired(self.sim.now):
                    self.sim.spawn(self._destroy(instance))
                    reaped += 1
            if self.obs is not None:
                self.obs.on_keepalive_reaped(reaped)

    @property
    def sim(self):
        """The runtime's simulator."""
        return self.runtime.sim

    def _next_sandbox_id(self, function: FunctionDef) -> str:
        return f"{function.name}-{next(self._sandbox_ids)}"

    # -- public entry -------------------------------------------------------------

    def invoke(
        self,
        name: str,
        kind: Optional[PuKind] = None,
        pu: Optional[ProcessingUnit] = None,
        force_cold: bool = False,
        payload_bytes: int = 1024,
        exec_time_s: Optional[float] = None,
        deadline_s: Optional[float] = None,
        max_attempts: Optional[int] = None,
        gateway=None,
        overload_bypass: bool = False,
        hedge_policy=None,
        input_key: Optional[str] = None,
    ):
        """Generator: run one request end to end.

        ``exec_time_s`` overrides the function's warm execution model
        for input-dependent workloads (file size, entry count).

        ``gateway`` admits the request through a specific gateway
        (a shard of :class:`repro.loadgen.sharding.ShardedFrontend`)
        instead of the runtime's default front door.

        Transient failures (injected faults, dead sandboxes, exhausted
        capacity) are retried with exponential backoff up to
        ``max_attempts`` (default: the runtime's retry policy); requests
        out of attempts or past their deadline are dead-lettered and
        raise :class:`RetriesExhaustedError` / :class:`DeadlineExceeded`.

        With an overload controller armed, the request additionally
        takes a concurrency slot at its gateway's admission gate after
        gateway admission — it may park in the bounded admission queue
        or be refused outright with :class:`RequestShed` (counted
        ``admitted`` but never retried or dead-lettered).
        ``overload_bypass`` exempts the request from the gate (used for
        half-open breaker probes, which must never be shed).

        ``hedge_policy`` overrides the runtime-wide hedging policy for
        this request (repro.futures: the fan-out engine's straggler
        speculation, whose clone trigger is fired by the gather loop
        instead of a percentile timer).  None keeps the stock behavior.

        ``input_key`` is the request's input identity (repro.reuse):
        with the result cache armed and the function declared
        idempotent, requests sharing a key may be answered from the
        cache without ever taking a gate slot or touching a sandbox.
        Half-open breaker probes (``overload_bypass``) skip the cache —
        a cached answer would starve the probe and pin the breaker.
        """
        function = self.runtime.registry.get(name)
        if pu is not None and kind is None:
            kind = pu.kind
        if kind is not None and not function.supports(kind):
            raise SchedulingError(
                f"function {name!r} has no {kind.value} profile"
            )
        gateway = gateway if gateway is not None else self.runtime.gateway
        hedger = hedge_policy if hedge_policy is not None else self.hedging
        start = self.sim.now
        trace = (
            self.obs.begin_invocation(function.name)
            if self.obs is not None
            else NULL_TRACE
        )
        request_id = None
        try:
            admit_span = trace.begin_phase("admit")
            request_id = yield from gateway.admit(deadline_s=deadline_s)
            admitted_s = self.sim.now
            trace.end_phase(admit_span)
            trace.annotate(request_id=request_id)
            if self.engine is not None:
                # Feed the arrival predictor here rather than in the
                # gateway: admission listeners only see a count, and
                # the predictor needs the function identity.
                self.engine.on_admission(function, kind)
            # Cache consult between gateway admission (a hit still
            # counts against ``admitted``) and the overload gate (a hit
            # never burns a concurrency slot).
            reuse = self.reuse
            flight = None
            result = None
            if reuse is not None:
                if overload_bypass:
                    # A half-open breaker's probe must reach a real PU:
                    # a cached answer would starve the probe and pin
                    # the shard's breaker open.
                    reuse.note_bypass(function, "probe")
                else:
                    hit, flight = yield from reuse.lookup(
                        function, input_key, gateway, request_id
                    )
                    if hit is not None:
                        result = self._cached_result(
                            function, request_id, hit, start, trace
                        )
            if result is None:
                overload = self.overload
                slot = None
                try:
                    if overload is not None:
                        # Adaptive admission after gateway admission (so
                        # sheds still count against ``admitted``) and
                        # before the retry loop (so a shed is never
                        # retried or dead-lettered).
                        try:
                            slot = yield from overload.acquire(
                                gateway, function, request_id, trace,
                                bypass=overload_bypass,
                            )
                        except RequestShed as shed:
                            # Shed-to-stale downgrade (repro.reuse): an
                            # old answer beats no answer.  The controller
                            # un-counts the shed so conservation holds
                            # with this request in the answered column.
                            hit = (
                                reuse.shed_fallback(function, input_key)
                                if reuse is not None else None
                            )
                            if hit is None:
                                raise
                            overload.rescind_shed(gateway, shed.reason)
                            result = self._cached_result(
                                function, request_id, hit, start, trace
                            )
                    if result is None:
                        result = yield from self._invoke_with_retries(
                            function, request_id, kind, pu, force_cold,
                            payload_bytes, exec_time_s, start, trace,
                            max_attempts or self.retry_policy.max_attempts,
                            gateway, hedger,
                        )
                        if slot is not None:
                            overload.release(slot, ok=True)
                            slot = None
                        if flight is not None:
                            reuse.fill(
                                flight, function, result, payload_bytes
                            )
                            flight = None
                        elif reuse is not None:
                            reuse.note_executed()
                except BaseException:
                    if slot is not None:
                        overload.release(slot, ok=False)
                    if flight is not None:
                        # A dead leader must never wedge followers: wake
                        # them empty-handed to re-elect.
                        reuse.abort(flight)
                    raise
                if flight is not None:
                    # Shed-to-stale downgrade: flight leadership died
                    # with the gate slot, so followers re-elect (the
                    # stale entry is this request's answer, not theirs).
                    reuse.abort(flight)
                    flight = None
        except RequestShed as exc:
            trace.shed(exc.reason)
            raise
        except Exception as exc:
            trace.fail(type(exc).__name__)
            raise
        finally:
            gateway.retire(request_id)
        result.admitted_s = admitted_s
        trace.finish()
        if hedger is not None and not result.cache:
            # Feed the latency tracker: successful completions are what
            # the percentile (or straggler) trigger is computed over.
            # Cache hits stay out — their near-zero latencies would
            # drag the percentile down and fire hedges on every
            # executed request.
            hedger.observe(function.name, result.total_s)
        return result

    # -- cache-served answers (repro.reuse) --------------------------------------------

    def _cached_result(self, function, request_id, hit, start,
                       trace) -> InvocationResult:
        """Build the result for a request answered from the cache.

        No sandbox ran and no PU core was held, so nothing is charged
        to the billing ledger — near-zero-cost hits are the point of
        memoization.
        """
        self.reuse.note_served(function, hit)
        freshness = "stale" if hit.stale else "fresh"
        trace.annotate(
            pu="cache",
            pu_kind="cache",
            start_kind=START_CACHED,
            cache=freshness,
            cache_reason=hit.reason,
        )
        return InvocationResult(
            function=function.name,
            request_id=request_id,
            pu_name="cache",
            pu_kind=None,
            cold=False,
            startup_s=0.0,
            exec_s=0.0,
            comm_s=0.0,
            total_s=self.sim.now - start,
            billed_cost=0.0,
            payload=hit.entry.payload,
            cache=freshness,
        )

    # -- retry / deadline loop -------------------------------------------------------

    def _invoke_with_retries(
        self, function, request_id, kind, pu, force_cold,
        payload_bytes, exec_time_s, start, trace, max_attempts,
        gateway=None, hedger=None,
    ):
        """Generator: drive attempts until success, exhaustion or
        deadline.

        Each attempt runs as its own process raced against the request
        deadline.  When the deadline fires first the attempt is
        *orphaned*, not interrupted: it finishes in the background so
        every resource it holds (cores, DRAM, pool slots) is released
        through the normal paths, while its trace proxy is detached so
        it can no longer touch this request's span tree.
        """
        gateway = gateway if gateway is not None else self.runtime.gateway
        deadline_at = gateway.deadline_for(request_id)
        errors: list[str] = []
        attempts = 0
        degraded_any = False
        while True:
            if deadline_at is not None and self.sim.now >= deadline_at:
                self._expire(function, request_id, attempts, errors)
            attempts += 1
            dispatch_kind = kind or function.profiles[0]
            attempt_kind, degraded = self._effective_kind(function, dispatch_kind)
            if degraded:
                degraded_any = True
                if self.obs is not None:
                    self.obs.on_degraded(
                        function.name, dispatch_kind.value, attempt_kind.value
                    )
                trace.annotate(degraded=True)
            shield = DetachableTrace(trace)
            attempt_info: dict = {}
            attempt_kind_arg = attempt_kind if degraded else kind
            attempt_pu_arg = None if degraded else pu
            if hedger is not None and hedger.eligible(
                function, attempt_kind_arg, attempt_kind,
                attempt_pu_arg, force_cold,
            ):
                attempt_gen = self._hedged_attempt(
                    function, request_id, attempt_kind_arg, attempt_pu_arg,
                    force_cold, payload_bytes, exec_time_s, start,
                    shield, attempt_info, hedger,
                )
            else:
                attempt_gen = self._attempt(
                    function, request_id, attempt_kind_arg, attempt_pu_arg,
                    force_cold, payload_bytes, exec_time_s, start,
                    shield, attempt_info,
                )
            proc = self.sim.spawn(
                attempt_gen,
                name=f"attempt:{function.name}#{request_id}.{attempts}",
            )
            race = proc
            if deadline_at is not None:
                race = self.sim.any_of(
                    [proc, self.sim.timeout(deadline_at - self.sim.now)]
                )
            try:
                yield race
            except Exception as exc:  # the attempt failed
                failure = exc
            else:
                if proc.triggered and proc.ok:
                    result: InvocationResult = proc.value
                    result.attempts = attempts
                    result.degraded = degraded_any
                    result.error = errors[-1] if errors else None
                    if attempts > 1:
                        trace.annotate(attempts=attempts)
                    used = attempt_info.get("pu")
                    if self.health is not None and used is not None:
                        self.health.record_success(used)
                    return result
                # The deadline fired first: orphan the attempt.
                shield.detach()
                trace.unwind()
                self._expire(function, request_id, attempts, errors)
            # -- transient or terminal failure --------------------------------------
            trace.unwind()
            errors.append(f"{type(failure).__name__}: {failure}")
            used = attempt_info.get("pu")
            if self.health is not None and used is not None:
                self.health.record_failure(used)
            if not self._retryable(failure):
                self._dead_letter(function, request_id, attempts, errors, "error")
                raise failure
            if attempts >= max_attempts:
                self._dead_letter(
                    function, request_id, attempts, errors, "retries_exhausted"
                )
                raise RetriesExhaustedError(
                    f"request {request_id} for {function.name!r} failed "
                    f"{attempts} attempt(s): {errors[-1]}",
                    attempts=attempts,
                    errors=errors,
                )
            if self.obs is not None:
                self.obs.on_retry(function.name, type(failure).__name__)
            backoff = self.retry_policy.backoff_s(attempts, self._retry_rng)
            if deadline_at is not None:
                backoff = min(backoff, max(0.0, deadline_at - self.sim.now))
            retry_span = trace.begin_phase(
                "retry", attempt=attempts, error=type(failure).__name__
            )
            yield self.sim.timeout(backoff)
            trace.end_phase(retry_span)

    def _attempt(
        self, function, request_id, kind, pu, force_cold,
        payload_bytes, exec_time_s, start, trace, attempt_info,
        hedge=None,
    ):
        """Generator: one attempt at serving the request."""
        if (kind or function.profiles[0]) in (PuKind.FPGA, PuKind.GPU):
            result = yield from self._invoke_accelerated(
                function, request_id, kind or function.profiles[0],
                payload_bytes, exec_time_s, start, trace, attempt_info,
            )
        else:
            result = yield from self._invoke_general(
                function, request_id, kind, pu, force_cold,
                payload_bytes, exec_time_s, start, trace, attempt_info,
                hedge,
            )
        return result

    # -- hedged attempts (repro.hedging) -----------------------------------------------

    def _hedged_attempt(
        self, function, request_id, kind, pu, force_cold,
        payload_bytes, exec_time_s, start, shield, attempt_info,
        hedger=None,
    ):
        """Generator: one attempt, hedged.

        Runs the primary copy normally, arms the percentile trigger,
        and — if the primary is still in flight when it fires — launches
        a clone onto a healthy PU distinct from the primary's.  The
        first copy to complete answers; the loser tears itself down at
        its next cancellation checkpoint inside :meth:`_invoke_general`.
        """
        hedger = hedger if hedger is not None else self.hedging
        state = hedger.begin(function, request_id)
        state.pending = 1
        primary_info: dict = {}
        # The primary writes its spans through its own severable proxy:
        # if the clone wins, the primary is detached exactly like a
        # deadline-orphaned attempt, and keeps running only to release
        # its resources through the normal paths.
        primary_shield = DetachableTrace(shield)
        self.sim.spawn(
            self._hedge_copy(
                state, "primary", function, request_id, kind, pu,
                force_cold, payload_bytes, exec_time_s, start,
                primary_shield, primary_info, hedger,
            ),
            name=f"hedge-primary:{function.name}#{request_id}",
        )
        # Phase 1: primary vs the clone trigger — the percentile timer,
        # or an externally fired event (repro.futures straggler gather).
        waiter = state.arm(self.sim)
        trigger = (
            state.trigger_event
            if state.trigger_event is not None
            else self.sim.timeout(state.trigger_s)
        )
        yield self.sim.any_of([waiter, trigger])
        state.disarm()
        if state.winner is None and not state.failures:
            # Trigger fired with the primary still in flight: clone it.
            primary_pu = primary_info.get("pu") or state.pu_hint
            if hedger.fire(state, function, kind, primary_pu):
                clone_info: dict = {}
                self.sim.spawn(
                    self._hedge_copy(
                        state, "clone", function, request_id, kind, None,
                        force_cold, payload_bytes, exec_time_s, start,
                        NULL_TRACE, clone_info, hedger,
                    ),
                    name=f"hedge-clone:{function.name}#{request_id}",
                )
        # Phase 2: first completed copy wins; all copies failing loses.
        while state.winner is None:
            if state.pending == 0:
                raise state.failures[-1]
            waiter = state.arm(self.sim)
            yield waiter
            state.disarm()
        tag, result, info = state.winner
        attempt_info.update(info)
        if tag == "clone":
            # The primary lost: sever its span proxy, close its
            # dangling phase spans, and restamp the root with the
            # clone's identity.
            primary_shield.detach()
            shield.unwind()
            shield.annotate(
                pu=result.pu_name,
                pu_kind=result.pu_kind.value,
                start_kind=START_HEDGED,
            )
        if state.fired:
            result.hedged = True
            result.hedge_winner = tag
            shield.annotate(hedged=True)
        return result

    def _hedge_copy(
        self, state, tag, function, request_id, kind, pu, force_cold,
        payload_bytes, exec_time_s, start, trace, attempt_info,
        hedger=None,
    ):
        """Generator: one copy (primary or clone) of a hedged attempt.

        Wraps :meth:`_attempt` so the underlying process never fails
        unwaited: errors and cancellations are absorbed into the shared
        :class:`_HedgeState` and surfaced to the join loop via
        ``notify``.
        """
        hedger = hedger if hedger is not None else self.hedging
        try:
            result = yield from self._attempt(
                function, request_id, kind, pu, force_cold, payload_bytes,
                exec_time_s, start, trace, attempt_info, hedge=(state, tag),
            )
        except HedgeCancelled as exc:
            state.pending -= 1
            hedger.on_cancelled(state, tag, attempt_info, exc.wasted_s)
            state.notify()
            return
        except ReproError as exc:
            state.pending -= 1
            if state.lost(tag):
                # The loser died on its own (e.g. its PU crashed after
                # the winner answered): nothing further to account.
                hedger.on_cancelled(state, tag, attempt_info, 0.0)
            else:
                state.failures.append(exc)
                used = attempt_info.get("pu")
                if self.health is not None and used is not None:
                    self.health.record_failure(used)
            state.notify()
            return
        state.pending -= 1
        if state.claim(tag, result, attempt_info):
            hedger.on_won(state, tag, result)
        else:
            # Ran to completion without hitting a checkpoint after the
            # winner claimed (defensive: the general-purpose path always
            # checkpoints before responding).
            hedger.on_loser_completed(state, tag, result)
        state.notify()

    def _hedge_lost(self, hedge) -> bool:
        """True when this copy's race is already lost (cancel now)."""
        return hedge is not None and hedge[0].lost(hedge[1])

    def _hedge_exclude(self, hedge):
        """The PU this copy must avoid (clone anti-affinity), or None."""
        if hedge is not None and hedge[1] == "clone":
            return hedge[0].exclude
        return None

    def _release_instance(self, instance: FunctionInstance) -> None:
        """Return a no-longer-needed instance through the normal path:
        the warm-path engine may recycle it into a parked coalesced
        follower; otherwise it goes back to its PU's pool."""
        engine = self.engine
        if engine is None or not engine.offer_released(instance):
            evicted = self.pools[instance.pu.pu_id].release(
                instance, now=self.sim.now
            )
            self.notify_idle()
            for old in evicted:
                self.sim.spawn(self._destroy(old))

    #: Error classes that must never be retried: terminal reliability
    #: outcomes and misconfigurations a retry cannot fix.
    _TERMINAL_ERRORS = (ReliabilityError, RegistryError, WorkloadError)

    def _retryable(self, exc: BaseException) -> bool:
        """True for transient library errors worth another attempt."""
        return isinstance(exc, ReproError) and not isinstance(
            exc, self._TERMINAL_ERRORS
        )

    def _effective_kind(self, function, dispatch_kind):
        """Resolve graceful degradation: when every PU of an accelerator
        kind is unavailable — or the overload controller's brownout is
        active — and the function also carries a fallback profile, run
        on that profile's kind instead.

        The brownout falls back to the *host CPU* profile for any
        non-CPU dispatch (accelerators and DPUs alike): during
        saturation the cheap offload PUs are usually the ones drowning,
        and answering on pricier host cores beats not answering.
        """
        if (self.overload is not None
                and dispatch_kind is not PuKind.CPU
                and self.overload.degrade_accelerated()
                and function.supports(PuKind.CPU)):
            self.overload.note_degraded()
            return PuKind.CPU, True
        if dispatch_kind.general_purpose:
            return dispatch_kind, False
        if self.health is None:
            return dispatch_kind, False
        pus = self.runtime.machine.pus_of_kind(dispatch_kind)
        if any(self.health.available(pu) for pu in pus):
            return dispatch_kind, False
        for fallback in function.profiles:
            if fallback.general_purpose:
                return fallback, True
        return dispatch_kind, False

    def _note_pu(self, attempt_info: Optional[dict], pu: ProcessingUnit) -> None:
        """Record the PU an attempt targets (breaker attribution +
        half-open probe claiming + crash-epoch snapshot)."""
        if attempt_info is None:
            return
        attempt_info["pu"] = pu
        if self.health is not None:
            attempt_info["epoch"] = self.health.epoch(pu)
            self.health.begin_attempt(pu)

    def _crashed_during(
        self, pu: ProcessingUnit, attempt_info: Optional[dict]
    ) -> bool:
        """True if ``pu`` crashed while this attempt was on it.

        Compares against the crash epoch snapshotted when the attempt
        targeted the PU, so a crash followed by a reboot before the
        attempt finished is still detected.
        """
        if self.health is None:
            return False
        if self.health.is_down(pu):
            return True
        if attempt_info is not None and "epoch" in attempt_info:
            return self.health.epoch(pu) != attempt_info["epoch"]
        return False

    def _expire(self, function, request_id, attempts, errors):
        """Dead-letter a request that ran out of deadline and raise."""
        if self.obs is not None:
            self.obs.on_deadline_exceeded(function.name)
        self._dead_letter(function, request_id, attempts, errors, "deadline")
        raise DeadlineExceeded(
            f"request {request_id} for {function.name!r} exceeded its "
            f"deadline after {attempts} attempt(s)"
        )

    def _dead_letter(self, function, request_id, attempts, errors, reason):
        """Park a terminally failed request in the dead-letter queue."""
        if self.dead_letters is not None:
            self.dead_letters.push(DeadLetter(
                request_id=request_id,
                function=function.name,
                attempts=attempts,
                errors=tuple(errors),
                enqueued_at=self.sim.now,
                reason=reason,
            ))
        if self.obs is not None:
            self.obs.on_dead_letter(function.name, reason)

    # -- CPU/DPU path -----------------------------------------------------------------

    def _find_warm(self, function: FunctionDef, kind, pu, exclude=None):
        candidates = (
            [pu]
            if pu is not None
            else self.runtime.scheduler.candidates(function, kind)
        )
        for candidate in candidates:
            if candidate is exclude:
                continue
            pool = self.pools[candidate.pu_id]
            while True:
                instance = pool.acquire(function.name)
                if instance is None:
                    break
                if self._is_alive(instance):
                    if self.engine is not None:
                        self.engine.on_warm_acquire(instance)
                    return instance
                # A crashed instance was cached: reap it and keep looking
                # (failure robustness - a dead sandbox must never serve).
                self.sim.spawn(self._destroy(instance))
        return None

    def _is_alive(self, instance: FunctionInstance) -> bool:
        """True unless the instance's backing compute has died.

        Dispatches on the backend type so every runtime gets a real
        liveness check: runc by container process, runf by kernel
        residency on a healthy device, runG by CUDA context validity.
        """
        sandbox = instance.sandbox
        if sandbox.state is SandboxState.DELETED:
            return False
        backend = sandbox.backend
        if isinstance(backend, ContainerBackend):
            return backend.process is None or backend.process.alive
        if isinstance(backend, FpgaBackend):
            runf = self.runtime.runfs.get(instance.pu.pu_id)
            return (
                runf is not None
                and runf.device.has_kernel(backend.instance.kernel.name)
            )
        if isinstance(backend, GpuBackend):
            rung = self.runtime.rungs.get(instance.pu.pu_id)
            return rung is not None and rung.context_ready
        process = getattr(backend, "process", None)
        return process is None or process.alive

    def _invoke_general(
        self, function, request_id, kind, pu, force_cold,
        payload_bytes, exec_time_s, start, trace=NULL_TRACE,
        attempt_info: Optional[dict] = None, hedge=None,
    ):
        exclude = self._hedge_exclude(hedge)
        startup_begin = self.sim.now
        schedule_span = trace.begin_phase("schedule")
        instance = (
            None if force_cold else self._find_warm(function, kind, pu, exclude)
        )
        coalesced = False
        engine = self.engine
        if instance is None and engine is not None and not force_cold:
            # Single-flight coalescing: a miss with a batch already in
            # flight for this (function, PU) parks on it instead of
            # paying an independent cold start.  Woken empty-handed
            # (the batch closed before reaching us), re-check the pool
            # — requests that completed meanwhile released instances —
            # then look for a fresh batch; no open batch left means
            # this request becomes the next leader below.
            while instance is None:
                if self._hedge_lost(hedge):
                    raise HedgeCancelled()
                batch = engine.joinable_batch(function, kind, pu, exclude)
                if batch is None:
                    break
                if hedge is not None:
                    # A parked follower has no placement yet; remember
                    # the batch's PU so a later trigger can hedge away
                    # from it.
                    hedge[0].pu_hint = self.runtime.machine.pus[batch.key[1]]
                waiter = batch.join(self.sim)
                engine.on_follower_joined(batch)
                yield waiter
                if self._hedge_lost(hedge):
                    # Answered by the other copy while parked.  A
                    # delivered instance goes straight back through the
                    # release path so the batch's recycle chain keeps
                    # moving (no dangling parked-follower queue).
                    if waiter.value is not None:
                        self._release_instance(waiter.value)
                    raise HedgeCancelled()
                if waiter.value is not None:
                    instance = waiter.value
                    coalesced = True
                else:
                    instance = self._find_warm(function, kind, pu, exclude)
        cold = instance is None
        if cold:
            if self._hedge_lost(hedge):
                raise HedgeCancelled()
            target = pu or self.runtime.scheduler.place(
                function, kind, exclude=exclude
            )
            if attempt_info is not None:
                self._note_pu(attempt_info, target)
            schedule_span.attributes["pu"] = target.name
            trace.end_phase(schedule_span)
            sandbox_span = trace.begin_phase("sandbox_start")
            batch = (
                engine.open_batch(function, target)
                if engine is not None and not force_cold
                else None
            )
            try:
                instance = yield from self._cold_start(function, target, trace)
            except BaseException:
                if batch is not None:
                    engine.abort_batch(batch)
                raise
            sandbox_span.attributes["forked"] = instance.forked
            trace.end_phase(sandbox_span)
            self.cold_invocations += 1
            if self._crashed_during(target, attempt_info):
                # The PU crashed mid-cold-start: the instance is gone.
                if batch is not None:
                    engine.abort_batch(batch)
                self.sim.spawn(self._destroy(instance))
                raise FaultInjectedError(
                    f"{target.name} crashed during cold start of "
                    f"{function.name!r}"
                )
            if batch is not None:
                engine.leader_done(batch, function, target)
        else:
            if attempt_info is not None:
                self._note_pu(attempt_info, instance.pu)
            schedule_span.attributes["pu"] = instance.pu.name
            trace.end_phase(schedule_span)
            if coalesced:
                self.coalesced_invocations += 1
                engine.on_coalesced_start(function.name)
            else:
                self.warm_invocations += 1
        startup_s = self.sim.now - startup_begin
        if self._hedge_lost(hedge):
            # Cancelled after startup but before executing: the loser's
            # instance goes straight back (warm, unused) — a cold-started
            # clone instance becomes warm stock for later requests.
            self._release_instance(instance)
            raise HedgeCancelled()
        start_kind = (
            START_COALESCED if coalesced
            else START_WARM if not cold
            else START_FORK if instance.forked
            else START_COLD
        )
        trace.annotate(
            pu=instance.pu.name,
            pu_kind=instance.pu.kind.value,
            start_kind=start_kind,
        )
        exec_span = trace.begin_phase("exec", pu=instance.pu.name)

        exec_begin = self.sim.now
        if cold and function.code.data_ms:
            # Cold-path data preparation no startup optimisation removes.
            yield self.sim.timeout(function.code.data_ms * config.MS)
        if instance.forked and instance.is_first_request:
            runc = self.runtime.runc_on(instance.pu.pu_id)
            yield self.sim.timeout(runc.first_request_penalty())
        duration = (
            exec_time_s
            if exec_time_s is not None
            else function.work.exec_time(instance.pu)
        )
        # Execution occupies one of the PU's cores: concurrent requests
        # beyond the core count queue (real vertical-scaling pressure).
        core = instance.pu.cores.request()
        yield core
        instance.pu.clock.mark_busy()
        yield self.sim.timeout(duration)
        instance.pu.clock.mark_idle()
        instance.pu.cores.release(core)
        instance.requests_served += 1
        exec_s = self.sim.now - exec_begin
        trace.end_phase(exec_span)

        if self._crashed_during(instance.pu, attempt_info) or not self._is_alive(
            instance
        ):
            # The PU crashed (or the sandbox was killed) while this
            # request ran on it: the response is lost with the PU.
            self.sim.spawn(self._destroy(instance))
            raise FaultInjectedError(
                f"{instance.pu.name} failed while executing "
                f"{function.name!r}"
            )
        if self._hedge_lost(hedge):
            # The other copy answered while this one executed: charge
            # the discarded work as hedge waste, recycle the instance,
            # and abort without responding (no duplicate answer).
            policy = hedge[0].policy or self.hedging
            policy.charge_waste(request_id, function, instance.pu, exec_s)
            self._release_instance(instance)
            raise HedgeCancelled(wasted_s=exec_s)

        respond_span = trace.begin_phase("respond")
        self._release_instance(instance)
        trace.end_phase(respond_span)
        return self._result(
            function, request_id, instance.pu, cold, startup_s, exec_s, 0.0, start
        )

    def _cold_start(self, function: FunctionDef, pu: ProcessingUnit,
                    trace=NULL_TRACE):
        """Generator: create a new instance on ``pu`` (cfork preferred)."""
        runc = self.runtime.runc_on(pu.pu_id)
        sandbox_id = self._next_sandbox_id(function)
        use_cfork = (
            self.runtime.use_cfork
            and runc.template_for(function.code) is not None
        )
        client = self.runtime.executor_client(pu.pu_id)
        if use_cfork:
            if client is None:  # Molecule's own PU: local cfork
                sandbox = yield from runc.cfork(sandbox_id, function.code)
            else:  # neighbour PU: command over nIPC
                nipc_span = trace.begin_phase(
                    "nipc", transport="xpu-fifo", target=pu.name, verb="cfork"
                )
                sandbox = yield from client.call(
                    "cfork", sandbox_id=sandbox_id, code=function.code
                )
                trace.end_phase(nipc_span)
        else:
            if client is None:
                yield from runc.create(sandbox_id, function.code)
                sandbox = yield from runc.start(sandbox_id)
            else:
                nipc_span = trace.begin_phase(
                    "nipc", transport="xpu-fifo", target=pu.name, verb="cold_start"
                )
                sandbox = yield from client.call(
                    "cold_start", sandbox_id=sandbox_id, code=function.code
                )
                trace.end_phase(nipc_span)
        return FunctionInstance(
            function=function, pu=pu, sandbox=sandbox, forked=use_cfork
        )

    def _destroy(self, instance: FunctionInstance):
        """Generator: tear down an evicted instance and free memory.

        Idempotent: the first caller claims the teardown; later calls
        (a reaper and an eviction racing on the same instance) are
        no-ops, so the DRAM reservation is released exactly once.
        """
        if instance.destroyed:
            return
        instance.destroyed = True
        if self.engine is not None:
            self.engine.on_instance_destroyed(instance)
        runc = self.runtime.runc_on(instance.pu.pu_id)
        if instance.sandbox.state is not SandboxState.DELETED:
            try:
                yield from runc.delete(instance.sandbox.sandbox_id)
            except SandboxError:
                # A crash already reaped the sandbox out from under us.
                pass
        self.runtime.scheduler.release(instance.function, instance.pu)

    # -- accelerator path ---------------------------------------------------------------

    def _invoke_accelerated(
        self, function, request_id, kind, payload_bytes, exec_time_s, start,
        trace=NULL_TRACE, attempt_info: Optional[dict] = None,
    ):
        if kind is PuKind.FPGA:
            result = yield from self._invoke_fpga(
                function, request_id, payload_bytes, exec_time_s, start,
                trace, attempt_info,
            )
            return result
        result = yield from self._invoke_gpu(
            function, request_id, payload_bytes, exec_time_s, start,
            trace, attempt_info,
        )
        return result

    def _transfer(self, pu: ProcessingUnit, nbytes: int, trace=NULL_TRACE,
                  direction: str = "in"):
        """Generator: DMA a payload between the host and an accelerator."""
        span = trace.begin_phase(
            "nipc", transport="dma", target=pu.name, direction=direction
        )
        host = pu.host_pu or self.runtime.machine.host_cpu
        route = self.runtime.machine.route(host, pu)
        yield self.sim.timeout(route.transfer_time(nbytes))
        yield self.sim.timeout(host.copy_time(nbytes))
        trace.end_phase(span)

    def _choose_fpga(self, function):
        """Pick the FPGA for a request: a device already caching the
        kernel wins (warm start); otherwise the device whose image was
        programmed least recently is repacked.  With 8 F1 devices and
        12-instance images this caches 96 instances machine-wide (§6.4).
        """
        candidates = self.runtime.scheduler.candidates(function, PuKind.FPGA)
        if not candidates:
            raise SchedulingError(f"no FPGA can host {function.name!r}")
        for pu in candidates:
            runf = self.runtime.runf_on(pu.pu_id)
            if runf.cached_sandbox_for(function.name) is not None:
                return pu
        if self.engine is not None:
            # Never repack a device the engine is mid-programming
            # (bitstream prefetch) while an idle one exists.
            free = [
                pu for pu in candidates
                if pu.pu_id not in self.engine._prefetch_inflight
            ]
            if free:
                candidates = free
        return min(
            candidates,
            key=lambda pu: self.runtime.runf_on(pu.pu_id).device.program_count,
        )

    def _invoke_fpga(self, function, request_id, payload_bytes, exec_time_s,
                     start, trace=NULL_TRACE, attempt_info: Optional[dict] = None):
        schedule_span = trace.begin_phase("schedule")
        if self.engine is not None:
            # A device mid-programming an image that includes this
            # kernel: wait for that instead of repacking another one.
            yield from self.engine.join_bitstream_prefetch(function)
        pu = self._choose_fpga(function)
        if attempt_info is not None:
            self._note_pu(attempt_info, pu)
        schedule_span.attributes["pu"] = pu.name
        trace.end_phase(schedule_span)
        runf = self.runtime.runf_on(pu.pu_id)
        startup_begin = self.sim.now
        sandbox = runf.cached_sandbox_for(function.name)
        cold = sandbox is None
        if self.engine is not None:
            self.engine.note_fpga_start(function.name, pu.pu_id, cold)
        sandbox_span = trace.begin_phase("sandbox_start")
        if cold:
            # Repack the image: keep resident-hot kernels, add this one.
            predicted = [function.name] + [
                n for n in runf.resident_function_ids if n != function.name
            ]
            plan = self.runtime.image_planner.plan(predicted)
            entries = []
            for fn_name in plan.func_names:
                fn = self.runtime.registry.get(fn_name)
                for copy in range(plan.copies_each):
                    entries.append(
                        (f"{fn_name}-v{next(self._sandbox_ids)}", fn.code)
                    )
            yield from runf.create_vector(entries)
            sandbox = runf.cached_sandbox_for(function.name)
            self.cold_invocations += 1
        else:
            self.warm_invocations += 1
        if sandbox.state is SandboxState.CREATED:
            yield from runf.start(sandbox.sandbox_id)
        trace.end_phase(sandbox_span)
        startup_s = self.sim.now - startup_begin
        trace.annotate(
            pu=pu.name, pu_kind=pu.kind.value,
            start_kind=START_COLD if cold else START_WARM,
        )

        exec_begin = self.sim.now
        exec_span = trace.begin_phase("exec", pu=pu.name)
        yield from self._transfer(pu, payload_bytes, trace, "in")  # args in
        duration = (
            exec_time_s
            if exec_time_s is not None
            else function.work.exec_time(pu)
        )
        yield from runf.invoke(sandbox.sandbox_id, exec_time_s=duration)
        yield from self._transfer(pu, payload_bytes, trace, "out")  # results out
        trace.end_phase(exec_span)
        exec_s = self.sim.now - exec_begin
        if self._crashed_during(pu, attempt_info):
            # The FPGA crashed while this request was on it.
            raise FaultInjectedError(
                f"{pu.name} failed while executing {function.name!r}"
            )
        return self._result(
            function, request_id, pu, cold, startup_s, exec_s, 0.0, start
        )

    def _invoke_gpu(self, function, request_id, payload_bytes, exec_time_s,
                    start, trace=NULL_TRACE, attempt_info: Optional[dict] = None):
        schedule_span = trace.begin_phase("schedule")
        pu = self.runtime.scheduler.place(function, PuKind.GPU)
        if attempt_info is not None:
            self._note_pu(attempt_info, pu)
        schedule_span.attributes["pu"] = pu.name
        trace.end_phase(schedule_span)
        rung = self.runtime.rung_on(pu.pu_id)
        startup_begin = self.sim.now
        sandbox_id = f"gpu-{function.name}"
        sandbox_span = trace.begin_phase("sandbox_start")
        try:
            sandbox = rung.get(sandbox_id)
            cold = False
            self.warm_invocations += 1
        except SandboxError:
            yield from rung.create(sandbox_id, function.code)
            sandbox = yield from rung.start(sandbox_id)
            cold = True
            self.cold_invocations += 1
        trace.end_phase(sandbox_span)
        startup_s = self.sim.now - startup_begin
        trace.annotate(
            pu=pu.name, pu_kind=pu.kind.value,
            start_kind=START_COLD if cold else START_WARM,
        )
        exec_begin = self.sim.now
        exec_span = trace.begin_phase("exec", pu=pu.name)
        yield from self._transfer(pu, payload_bytes, trace, "in")
        duration = (
            exec_time_s
            if exec_time_s is not None
            else function.work.exec_time(pu)
        )
        yield from rung.invoke(sandbox_id, exec_time_s=duration)
        yield from self._transfer(pu, payload_bytes, trace, "out")
        trace.end_phase(exec_span)
        exec_s = self.sim.now - exec_begin
        if self._crashed_during(pu, attempt_info):
            # The GPU crashed while this request was on it.
            raise FaultInjectedError(
                f"{pu.name} failed while executing {function.name!r}"
            )
        return self._result(
            function, request_id, pu, cold, startup_s, exec_s, 0.0, start
        )

    # -- result assembly ----------------------------------------------------------------

    def _result(
        self, function, request_id, pu, cold, startup_s, exec_s, comm_s, start
    ) -> InvocationResult:
        total_s = self.sim.now - start
        entry = self.runtime.ledger.charge(request_id, function.name, pu, exec_s)
        cost = entry.cost
        return InvocationResult(
            function=function.name,
            request_id=request_id,
            pu_name=pu.name,
            pu_kind=pu.kind,
            cold=cold,
            startup_s=startup_s,
            exec_s=exec_s,
            comm_s=comm_s,
            total_s=total_s,
            billed_cost=cost,
        )
