"""One replay of one workload in a fresh process; prints one JSON line.

    python3 perfbench/replay.py --workload burst --seed 42 [--gc-stats]
    python3 perfbench/replay.py --workload burst --seed 42 --spans OUT

Set-up is timed from just before ``import repro`` to the first arrival
(plan build, runtime boot and deploy).  The replay window runs from the
first arrival to the finished report.  ``--spans OUT`` makes this the
traced replay: every entry point of the layer table is wrapped before
the runtime is built, and the span log is written to ``OUT`` after the
window closes.  ``--gc-stats`` records collector pauses through
``gc.callbacks`` in an otherwise untraced replay.

``repro`` must be importable (``PYTHONPATH=src``); ``run.py`` arranges
that.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import time

import layers
import workloads as wl
from tracer import Recorder


def digest(replay: wl.Replay, report: dict) -> str:
    """Hash of every simulated outcome: the per-request record tuples,
    the fan-out job values and the whole report except its host fields."""
    simulated = {k: v for k, v in report.items() if k not in ("wall_s", "host")}
    payload = json.dumps(
        {
            "records": [
                list(r.tuple()) + [r.cold, r.attempts, r.hedged, r.cache]
                for r in replay.driver.records
            ],
            "jobs": sorted(replay.job_values.items()),
            "report": simulated,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def check(workload: wl.Workload, seed: int, replay: wl.Replay,
          report: dict) -> list[str]:
    """Conservation and output checks; returns the violations found."""
    errors: list[str] = []
    plan, records, load = replay.plan, replay.driver.records, report["load"]
    offered = len(plan)
    indices = sorted(r.index for r in records)
    if indices != list(range(offered)):
        errors.append(
            f"{len(records)} driver records for {offered} arrivals, "
            "not one outcome per arrival"
        )
    answered = sum(1 for r in records if r.answered)
    shed = sum(1 for r in records if r.shed)
    errored = len(records) - answered - shed
    if (load["offered"], load["answered"], load["failed"]) != (
        offered, answered, errored
    ):
        errors.append(f"report load block disagrees with records: {load}")
    if any(r.latency_s <= 0 for r in records if r.answered):
        errors.append("an answered request has no latency")
    if workload.scenario == "fanout":
        fanout = report["fanout"]
        if not fanout["conserved"]:
            errors.append(f"fan-out task ledger not conserved: {fanout}")
        wrong = [
            index for index, value in replay.job_values.items()
            if value != wl.expected_job_value(seed, index)
        ]
        if wrong:
            errors.append(f"fan-out jobs {wrong[:5]} returned wrong values")
        if len(replay.job_values) != answered:
            errors.append("an answered fan-out job has no value")
    else:
        dead, lost = load["dead_lettered"], load["lost"]
        if answered + shed + dead + lost != offered:
            errors.append(
                f"answered {answered} + shed {shed} + dead {dead} + lost "
                f"{lost} != offered {offered}"
            )
        if errored != dead + lost:
            errors.append(
                f"{errored} failed driver records but {dead} dead letters "
                f"and {lost} lost"
            )
    for engine in ("overload", "reuse"):
        block = report.get(engine)
        if block is not None and not block["conserved"]:
            errors.append(f"{engine} ledger not conserved")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", help="trace, and write the span log here")
    parser.add_argument("--gc-stats", action="store_true")
    parser.add_argument(
        "--duration", type=float, help="override the simulated plan length"
    )
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    if args.duration is not None:
        workload = dataclasses.replace(workload, duration_s=args.duration)

    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: import is part of set-up)

    # The reference replay uses a recorder with no entry points: it only
    # records collector pauses.
    recorder = Recorder() if args.spans or args.gc_stats else None
    if args.spans:
        layers.install(recorder)
        recorder.calibrate()
    plan_t0 = time.perf_counter()
    plan = wl.build_plan(workload, args.seed)
    plan_ms = (time.perf_counter() - plan_t0) * 1e3
    replay = wl.build(workload, args.seed, plan)
    setup_s = time.perf_counter() - t0

    if recorder is not None:
        recorder.start_gc()
        recorder.open_window()
    kernel_before = replay.runtime.sim.kernel_profile()
    w0 = time.perf_counter()
    replay.driver.run()
    r0 = time.perf_counter()
    report = wl.report(replay, workload)
    w1 = time.perf_counter()
    if recorder is not None:
        recorder.stop_gc()
    kernel_after = replay.runtime.sim.kernel_profile()

    admitted = report["load"]["admitted"]
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "offered": len(plan),
        "admitted": admitted,
        "setup_s": setup_s,
        "window_s": w1 - w0,
        "us_per_inv": (w1 - w0) * 1e6 / admitted,
        "plan_ms": plan_ms,
        "report_ms": (w1 - r0) * 1e3,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": digest(replay, report),
        "errors": check(workload, args.seed, replay, report),
    }
    if args.gc_stats:
        result["gc_pause_us_per_inv"] = recorder.gc_ns / 1e3 / admitted
        result["gc_gen2_collections"] = recorder.gc_collections[2]
    if args.spans:
        recorder.calibrate()
        result["layers"] = layers.layer_metrics(
            recorder, replay, report, kernel_before, kernel_after
        )
        result["spans"] = recorder.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
