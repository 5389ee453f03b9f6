"""Deterministic arrival processes for load generation.

The scale harness separates *what arrives when* from *how it is
driven*: an arrival model materialises an :class:`ArrivalPlan` — an
immutable, time-sorted list of :class:`Arrival` records — and the
drivers in :mod:`repro.loadgen.driver` replay that plan open- or
closed-loop.  Materialising first is what makes runs reproducible
(same seed, same plan, byte for byte) and what lets plans be checked
into the repository as golden traces.

Four models cover the paper's Fig. 2 density and keep-alive studies
plus the bursty regimes CloudSimSC-style simulators parameterise:

* :class:`PoissonArrivals` — homogeneous Poisson at a fixed rate;
* :class:`BurstyArrivals`  — on/off modulated Poisson (burst storms);
* :class:`DiurnalArrivals` — day-shaped inhomogeneous Poisson built on
  :class:`repro.workloads.traces.DiurnalProfile`;
* :class:`TraceArrivals`   — replay of an Azure-style skewed stream
  from :class:`repro.workloads.traces.AzureLikeTrace`.

All randomness flows through a :class:`repro.sim.rng.SeededRng` fork,
never the global :mod:`random` state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.errors import WorkloadError
from repro.hardware.pu import PuKind
from repro.sim.rng import SeededRng
from repro.workloads.traces import AzureLikeTrace, DiurnalProfile, OnOffProfile

#: Plan serialisation format (bump on breaking changes).
PLAN_SCHEMA = "repro-arrivals/1"


@dataclass(frozen=True, slots=True)
class Arrival:
    """One planned invocation: when, which function, how dispatched."""

    time_s: float
    function: str
    #: Dispatch kind (``None`` lets the function's first profile win).
    kind: Optional[PuKind] = None
    payload_bytes: int = 1024
    #: Logical input identity for result-cache keying (repro.reuse).
    #: ``None`` means "unknown input": the request is never cacheable.
    input_key: Optional[str] = None

    def to_dict(self) -> dict:
        data = {
            "time_s": self.time_s,
            "function": self.function,
            "kind": self.kind.value if self.kind is not None else None,
            "payload_bytes": self.payload_bytes,
        }
        # Emitted only when set so pre-reuse golden plans stay byte
        # identical on a round trip.
        if self.input_key is not None:
            data["input_key"] = self.input_key
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Arrival":
        kind = data.get("kind")
        input_key = data.get("input_key")
        return cls(
            time_s=float(data["time_s"]),
            function=str(data["function"]),
            kind=PuKind(kind) if kind is not None else None,
            payload_bytes=int(data.get("payload_bytes", 1024)),
            input_key=str(input_key) if input_key is not None else None,
        )


@dataclass(frozen=True)
class ArrivalPlan:
    """An immutable, time-sorted sequence of arrivals."""

    arrivals: tuple[Arrival, ...]
    duration_s: float

    def __post_init__(self):
        times = [a.time_s for a in self.arrivals]
        if any(b < a for a, b in zip(times, times[1:])):
            raise WorkloadError("arrival plan must be time-sorted")
        if self.duration_s <= 0:
            raise WorkloadError(f"duration must be positive: {self.duration_s}")

    def __len__(self) -> int:
        return len(self.arrivals)

    def __iter__(self):
        return iter(self.arrivals)

    @property
    def offered_rate_per_s(self) -> float:
        """Arrivals per second over the plan window."""
        return len(self.arrivals) / self.duration_s

    def functions(self) -> tuple[str, ...]:
        """Distinct function names in the plan, first-seen order."""
        seen: dict[str, None] = {}
        for arrival in self.arrivals:
            seen.setdefault(arrival.function, None)
        return tuple(seen)

    # -- (de)serialisation: golden traces are checked-in plans ---------------

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(
            {
                "schema": PLAN_SCHEMA,
                "duration_s": self.duration_s,
                "arrivals": [a.to_dict() for a in self.arrivals],
            },
            indent=indent,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ArrivalPlan":
        data = json.loads(text)
        if data.get("schema") != PLAN_SCHEMA:
            raise WorkloadError(
                f"unknown arrival plan schema: {data.get('schema')!r}"
            )
        return cls(
            arrivals=tuple(
                Arrival.from_dict(entry) for entry in data["arrivals"]
            ),
            duration_s=float(data["duration_s"]),
        )


@dataclass(frozen=True)
class FunctionMix:
    """Weighted function mix with optional per-function dispatch kinds.

    Expresses "60% of traffic hits `thumb` on CPU/DPU, 30% hits `gzip`
    on the FPGA, 10% hits `infer`" — the per-function concurrency mix
    over heterogeneous profiles the scale scenarios drive.
    """

    names: tuple[str, ...]
    weights: tuple[float, ...]
    kinds: tuple[Optional[PuKind], ...] = ()

    def __post_init__(self):
        if not self.names:
            raise WorkloadError("function mix needs at least one function")
        if len(self.weights) != len(self.names):
            raise WorkloadError("mix weights must match function names")
        if any(w <= 0 for w in self.weights):
            raise WorkloadError(f"mix weights must be positive: {self.weights}")
        if self.kinds and len(self.kinds) != len(self.names):
            raise WorkloadError("mix kinds must match function names")

    @classmethod
    def of(cls, *entries: tuple) -> "FunctionMix":
        """Build from ``(name, weight)`` or ``(name, weight, kind)``."""
        names, weights, kinds = [], [], []
        for entry in entries:
            names.append(entry[0])
            weights.append(float(entry[1]))
            kinds.append(entry[2] if len(entry) > 2 else None)
        return cls(tuple(names), tuple(weights), tuple(kinds))

    def pick(self, rng: SeededRng) -> tuple[str, Optional[PuKind]]:
        """Draw one (function, kind) pair by weight."""
        total = sum(self.weights)
        draw = rng.uniform(0.0, total)
        acc = 0.0
        for index, weight in enumerate(self.weights):
            acc += weight
            if draw <= acc:
                kind = self.kinds[index] if self.kinds else None
                return self.names[index], kind
        kind = self.kinds[-1] if self.kinds else None
        return self.names[-1], kind


class ZipfSampler:
    """Deterministic Zipf(s) sampler over a fixed key universe.

    Rank ``r`` (1-based) is drawn with probability proportional to
    ``r**-s`` — the closed-form frequencies the reuse tests check
    against.  Sampling is inverse-CDF over the precomputed cumulative
    weights, so the draw sequence is fully determined by the seeded
    stream: same fork, same keys, byte for byte.

    The computation-reuse scenarios use one sampler per function to
    pick which *input* each arrival carries; with ``s`` above ~1 the
    head keys dominate and a small result cache absorbs most traffic.
    """

    def __init__(self, keys: Sequence[str], skew: float, rng: SeededRng):
        if not keys:
            raise WorkloadError("zipf sampler needs at least one key")
        if skew < 0:
            raise WorkloadError(f"zipf skew must be non-negative: {skew}")
        self.keys = tuple(keys)
        self.skew = skew
        self.rng = rng
        weights = [(rank + 1) ** -skew for rank in range(len(self.keys))]
        total = sum(weights)
        acc = 0.0
        self._cdf: list[float] = []
        for weight in weights:
            acc += weight / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard against float drift at the tail

    def probability(self, rank: int) -> float:
        """Closed-form P(rank) for a 1-based rank (test oracle)."""
        if not 1 <= rank <= len(self.keys):
            raise WorkloadError(f"rank out of range: {rank}")
        prev = self._cdf[rank - 2] if rank > 1 else 0.0
        return self._cdf[rank - 1] - prev

    def sample(self) -> str:
        """Draw one key from the seeded stream."""
        draw = self.rng.uniform(0.0, 1.0)
        lo, hi = 0, len(self._cdf) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if draw <= self._cdf[mid]:
                hi = mid
            else:
                lo = mid + 1
        return self.keys[lo]


class _ThinnedProcess:
    """Shared thinning machinery for (in)homogeneous Poisson models.

    Candidate arrivals are drawn at ``peak_rate`` and accepted with the
    model's instantaneous rate fraction — the classic Lewis-Shedler
    thinning construction, fully determined by the seeded stream.
    """

    #: Instantaneous acceptance fraction in [0, 1] at time ``t``.
    def _accept_fraction(self, time_s: float) -> float:  # pragma: no cover
        raise NotImplementedError

    def __init__(
        self,
        mix: FunctionMix,
        peak_rate_per_s: float,
        rng: Optional[SeededRng] = None,
        payload_bytes: int = 1024,
    ):
        if peak_rate_per_s <= 0:
            raise WorkloadError(f"rate must be positive: {peak_rate_per_s}")
        self.mix = mix
        self.peak_rate = peak_rate_per_s
        self.rng = rng or SeededRng()
        self.payload_bytes = payload_bytes

    def plan(self, duration_s: float, start_s: float = 0.0) -> ArrivalPlan:
        """Materialise the arrival plan for one run window."""
        if duration_s <= 0:
            raise WorkloadError(f"duration must be positive: {duration_s}")
        arrivals: list[Arrival] = []
        now = start_s
        end = start_s + duration_s
        while True:
            now += self.rng.exponential(1.0 / self.peak_rate)
            if now >= end:
                break
            if self.rng.uniform(0.0, 1.0) > self._accept_fraction(now):
                continue
            name, kind = self.mix.pick(self.rng)
            arrivals.append(Arrival(
                time_s=now, function=name, kind=kind,
                payload_bytes=self.payload_bytes,
            ))
        return ArrivalPlan(arrivals=tuple(arrivals), duration_s=duration_s)


class PoissonArrivals(_ThinnedProcess):
    """Homogeneous Poisson arrivals at a fixed rate."""

    def __init__(self, mix: FunctionMix, rate_per_s: float, **kwargs):
        super().__init__(mix, rate_per_s, **kwargs)

    def _accept_fraction(self, time_s: float) -> float:
        return 1.0


class BurstyArrivals(_ThinnedProcess):
    """On/off modulated Poisson: storms at the peak rate, lulls between.

    During the ON phase of the :class:`OnOffProfile` arrivals come at
    the peak rate; during OFF they are thinned down to ``idle_fraction``
    of it.  This is the open-loop stressor for autoscaling/keep-alive:
    every burst edge re-exercises cold starts and pool refill.
    """

    def __init__(
        self,
        mix: FunctionMix,
        peak_rate_per_s: float,
        profile: Optional[OnOffProfile] = None,
        **kwargs,
    ):
        super().__init__(mix, peak_rate_per_s, **kwargs)
        self.profile = profile or OnOffProfile()

    def _accept_fraction(self, time_s: float) -> float:
        return self.profile.factor(time_s)


class DiurnalArrivals(_ThinnedProcess):
    """Day-shaped inhomogeneous Poisson arrivals (compressed days)."""

    def __init__(
        self,
        mix: FunctionMix,
        peak_rate_per_s: float,
        profile: Optional[DiurnalProfile] = None,
        **kwargs,
    ):
        super().__init__(mix, peak_rate_per_s, **kwargs)
        self.profile = profile or DiurnalProfile()

    def _accept_fraction(self, time_s: float) -> float:
        return self.profile.factor(time_s)


class TraceArrivals:
    """Replay of an Azure-style skewed stream as an arrival plan.

    Wraps :class:`repro.workloads.traces.AzureLikeTrace` (zipf-skewed
    function popularity, diurnal modulation) and materialises its event
    stream, optionally attaching per-function dispatch kinds from a
    mapping (hot functions on accelerators, the tail on CPU).
    """

    def __init__(
        self,
        trace: AzureLikeTrace,
        kinds: Optional[dict[str, PuKind]] = None,
        payload_bytes: int = 1024,
    ):
        self.trace = trace
        self.kinds = dict(kinds or {})
        self.payload_bytes = payload_bytes

    def plan(self, duration_s: float, start_s: float = 0.0) -> ArrivalPlan:
        arrivals = tuple(
            Arrival(
                time_s=event.time_s,
                function=event.function,
                kind=self.kinds.get(event.function),
                payload_bytes=self.payload_bytes,
            )
            for event in self.trace.events(duration_s, start_s=start_s)
        )
        return ArrivalPlan(arrivals=arrivals, duration_s=duration_s)
