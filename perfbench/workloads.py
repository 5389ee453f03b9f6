"""The benchmark's four seeded workloads and how each is replayed.

Every workload is one canned ``repro load`` scenario, sized so that one
replay takes one to three seconds of host time, and wired exactly as
``repro.loadgen.scenarios.run_load`` wires it: the same plan builder,
the same ``build_runtime`` arguments, the same fault plan and the same
fan-out job factory.  All are open loop in simulated time.

This module imports ``repro`` lazily, inside :func:`build`, so the
replay child can time the import as part of set-up.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Nominal request rate and shard count of every workload: the
#: ``repro load`` full-size defaults.
RPS = 200.0
SHARDS = 4
#: The library-wide default seed; replays at this seed must reproduce
#: the digests recorded in ``golden.json``.
DEFAULT_SEED = 42


@dataclass(frozen=True)
class Workload:
    name: str
    #: The ``repro load`` scenario whose plan builder makes the arrivals.
    scenario: str
    #: Simulated plan length.
    duration_s: float


#: Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("burst", "burst", 180.0),
        Workload("overload", "overload", 8.0),
        Workload("zipf-reuse", "zipf", 30.0),
        Workload("fanout", "fanout", 30.0),
    )
}


@dataclass
class Replay:
    """A booted workload, ready for its first arrival."""

    runtime: object
    frontend: object
    plan: object
    driver: object
    busy_baseline: dict
    #: Fan-out only: job index -> reduce value the job returned.
    job_values: dict


def build_plan(workload: Workload, seed: int):
    """The seeded arrival plan, from the scenario's own plan builder."""
    from repro.loadgen import scenarios
    from repro.sim.rng import SeededRng

    rng = SeededRng(seed).fork(f"loadgen:{workload.scenario}")
    return scenarios._SCENARIOS[workload.scenario](
        rng, RPS, workload.duration_s
    )


def build(workload: Workload, seed: int, plan) -> Replay:
    """Boot and deploy the runtime for ``plan``, up to the first arrival."""
    import repro.loadgen as loadgen
    from repro.loadgen import scenarios

    options: dict = {}
    fault_plan = None
    if workload.scenario == "overload":
        options = dict(
            default_deadline_s=scenarios.OVERLOAD_DEADLINE_S,
            keep_alive_ttl_s=scenarios.OVERLOAD_KEEP_ALIVE_S,
            overload=True,
        )
        fault_plan = scenarios.overload_fault_plan(workload.duration_s)
    elif workload.scenario == "zipf":
        options = dict(
            default_deadline_s=scenarios.ZIPF_DEADLINE_S,
            reuse=True,
            idempotent=True,
        )
    elif workload.scenario == "fanout":
        from repro.futures import FanoutConfig

        options = dict(
            prewarm=True,
            fanout=FanoutConfig(
                partitions=scenarios.FANOUT_PARTITIONS, speculate=True
            ),
        )
    runtime, frontend = loadgen.build_runtime(
        plan, seed, SHARDS, policy="hash", **options
    )
    if fault_plan is not None:
        loadgen.attach_fault_plan(runtime, fault_plan)
    busy_baseline = {
        pu_id: pu.clock.busy_time for pu_id, pu in runtime.machine.pus.items()
    }
    job_values: dict = {}
    factory = None
    if workload.scenario == "fanout":
        factory = _recording_factory(
            scenarios.fanout_invoke_factory(runtime.fanout, frontend, seed),
            job_values,
        )
    driver = loadgen.OpenLoopDriver(
        runtime, plan, frontend, invoke_factory=factory
    )
    return Replay(runtime, frontend, plan, driver, busy_baseline, job_values)


def _recording_factory(factory, job_values: dict):
    """Wrap the fan-out job factory to keep each job's reduce value."""

    def recording(index, arrival):
        result = yield from factory(index, arrival)
        job_values[index] = result.value
        return result

    return recording


def expected_job_value(seed: int, index: int) -> int:
    """The reduce value fan-out job ``index`` must return: the sum of
    squares of its seeded dataset, computed without the simulator."""
    from repro.futures import synthetic_dataset
    from repro.loadgen import scenarios

    items = synthetic_dataset(
        seed * 1_000_003 + index,
        scenarios.FANOUT_PARTITIONS * scenarios.FANOUT_ITEMS_PER_PARTITION,
    )
    return sum(value * value for value in items)


def report(replay: Replay, workload: Workload) -> dict:
    """Aggregate the finished replay with the public report builder."""
    import repro.loadgen as loadgen

    return loadgen.build_report(
        replay.runtime,
        replay.plan,
        replay.driver.records,
        workload.scenario,
        frontend=replay.frontend,
        elapsed_s=replay.driver.elapsed_s,
        busy_baseline=replay.busy_baseline,
    )
