"""The repository benchmark: host cost per simulated invocation.

    python3 perfbench/run.py --workload burst --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-golden

Run from the repository root.  Each measurement replays one seeded
workload (see ``workloads.py``) in a fresh single-threaded process
(``replay.py``), one process at a time, and keeps starting new ones
while another still fits in ``--seconds``.  Reported values are medians over those
replays.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured untraced with
the collector on.  ``--trace 1`` alternates an untraced reference
replay with a traced one of the same seed and reports the per-layer
metrics of ``layers.py``; the span log of the last traced replay is
written to ``.perfbench_out/``.

Every replay checks its outputs (``replay.check``), and every replay of
a run must produce the same simulated digest; at the default seed the
digest must also match ``golden.json``.  A replay failing a check
counts all of its requests as failed and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import layers
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: Any replay still running this many seconds into a run is killed.
HARD_LIMIT_S = 170.0

#: (name, unit) of the end-to-end metrics, all measured untraced.
END_TO_END = (
    ("host_us_per_invocation", "us"),
    ("host_peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: Short plan lengths for the self-test's traced replays.
SELF_TEST_DURATIONS = {
    "burst": 20.0, "overload": 2.0, "zipf-reuse": 5.0, "fanout": 5.0,
}


class BenchError(RuntimeError):
    """A replay crashed or the benchmark cannot run here."""


def run_replay(workload: str, seed: int, *extra: str, timeout: float) -> dict:
    """Run one replay child to completion and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # One string-hash layout for every replay, so dict and set layouts
    # do not vary from process to process.
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, os.path.join(HERE, "replay.py"),
        "--workload", workload, "--seed", str(seed), *extra,
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"replay of {workload} timed out") from None
    if proc.returncode != 0:
        raise BenchError(
            f"replay of {workload} exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(seconds: float, once) -> list:
    """Call ``once(timeout)`` at least once, and again while another
    call as long as the last one still ends within ``seconds``."""
    begin = time.monotonic()
    results = []
    last = 0.0
    while True:
        elapsed = time.monotonic() - begin
        if results and elapsed + last > seconds:
            return results
        started = time.monotonic()
        results.append(once(HARD_LIMIT_S - elapsed))
        last = time.monotonic() - started


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def verdict(workload: str, seed: int, results: list[dict]) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over a run's replays.

    The reference digest is the recorded one at the default seed and
    the first replay's otherwise; a replay that disagrees with it or
    failed its own checks fails all of its requests.
    """
    reference = results[0]["digest"]
    if seed == wl.DEFAULT_SEED:
        reference = load_golden()[workload]
    attempted = failed = 0
    for result in results:
        attempted += result["offered"]
        if result["errors"] or result["digest"] != reference:
            failed += result["offered"]
            for error in result["errors"]:
                print(f"check failed: {error}", file=sys.stderr)
            if result["digest"] != reference:
                print(
                    f"digest {result['digest']} != {reference}", file=sys.stderr
                )
    return failed == 0, attempted, failed


def measure(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics: medians over untraced replays."""
    results = repeat(
        seconds, lambda timeout: run_replay(workload, seed, timeout=timeout)
    )
    correct, attempted, failed = verdict(workload, seed, results)
    values = {
        "host_us_per_invocation": [r["us_per_inv"] for r in results],
        "host_peak_rss_mb": [r["rss_mb"] for r in results],
        "setup_s": [r["setup_s"] for r in results],
    }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": statistics.median(values[name]), "unit": unit}
            for name, unit in END_TO_END
        },
    }


def traced_pair(workload: str, seed: int, timeout: float,
                duration=None) -> tuple[dict, dict]:
    """An untraced reference replay and a traced replay of one seed."""
    extra = ("--duration", str(duration)) if duration is not None else ()
    begin = time.monotonic()
    reference = run_replay(
        workload, seed, "--gc-stats", *extra, timeout=timeout
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    traced = run_replay(
        workload, seed, "--spans",
        os.path.join(OUT_DIR, f"spans-{workload}.jsonl"), *extra,
        timeout=timeout - (time.monotonic() - begin),
    )
    return reference, traced


def per_layer(reference: dict, traced: dict) -> dict:
    """One pair's per-layer metrics.

    A layer's self time is its raw self time less its share of the
    tracer's cost.  The calibrated tracer cost is scaled by one factor
    for all layers, chosen so that the layers and the collector add up
    to the untraced replay's cost; ``trace.unattributed_share`` is how
    far the unscaled calibration missed that sum.
    """
    metrics = dict(traced["layers"])
    names = [name for name, _ in layers.LAYERS]
    raw = {name: metrics.pop(f"{name}.raw_self_us_per_inv") for name in names}
    cost = {name: metrics.pop(f"{name}.tracer_us_per_inv") for name in names}
    untraced = reference["us_per_inv"]
    excess = sum(raw.values()) + metrics["gc.self_us_per_inv"] - untraced
    scale = max(0.0, excess / sum(cost.values()))
    for name in names:
        metrics[f"{name}.self_us_per_inv"] = max(
            0.0, raw[name] - scale * cost[name]
        )
    metrics["trace.unattributed_share"] = abs(
        excess - sum(cost.values())
    ) / untraced
    metrics["gc.pause_us_per_inv"] = reference["gc_pause_us_per_inv"]
    metrics["gc.gen2_collections"] = reference["gc_gen2_collections"]
    metrics["loadgen.arrivals.plan_ms"] = reference["plan_ms"]
    metrics["loadgen.slo.report_ms"] = reference["report_ms"]
    metrics["trace.overhead_ratio"] = traced["window_s"] / reference["window_s"]
    return metrics


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    """Per-layer metrics: medians over (reference, traced) pairs."""
    pairs = repeat(
        seconds, lambda timeout: traced_pair(workload, seed, timeout)
    )
    results = [result for pair in pairs for result in pair]
    correct, attempted, failed = verdict(workload, seed, results)
    samples = [per_layer(reference, traced) for reference, traced in pairs]
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {
                "value": statistics.median(s[name] for s in samples),
                "unit": unit,
            }
            for name, unit in layers.PER_LAYER
        },
    }


def record_golden() -> int:
    """Write the default-seed digest of every workload to golden.json."""
    golden = {}
    for name in wl.WORKLOADS:
        result = run_replay(name, wl.DEFAULT_SEED, timeout=HARD_LIMIT_S)
        if result["errors"]:
            raise BenchError(f"{name}: {result['errors']}")
        golden[name] = result["digest"]
        print(f"{name}: {result['digest']}")
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def self_test() -> int:
    """Check the benchmark itself; exits non-zero on the first failure.

    * BENCHMARK.json names exactly this code's workloads and metrics;
    * a missing entry point fails installation;
    * each workload's traced replay reproduces the untraced digest and
      passes its output checks;
    * every layer that is not an engine is called on every workload;
      each engine layer is called on the workloads that arm it and on
      no other;
    * at the default seed every workload reproduces ``golden.json``.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    if (
        [w["name"] for w in declared["workloads"]] != list(wl.WORKLOADS)
        or [(m["name"], m["unit"]) for m in declared["end_to_end"]]
        != list(END_TO_END)
        or [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]]
        != [
            (name, unit,
             "higher" if name in layers.HIGHER_IS_BETTER else "lower")
            for name, unit in layers.PER_LAYER
        ]
    ):
        raise BenchError("BENCHMARK.json disagrees with the benchmark's code")
    print("ok  BENCHMARK.json names every workload and metric")

    sys.path.insert(0, SRC)
    from tracer import EntryPointMissing, Recorder

    try:
        Recorder().install("core.invoker", "repro.core.invoker:Invoker.missing")
    except EntryPointMissing as exc:
        print(f"ok  missing entry point fails: {exc}")
    else:
        raise BenchError("a missing entry point was not detected")

    for name in wl.WORKLOADS:
        reference, traced = traced_pair(
            name, wl.DEFAULT_SEED, HARD_LIMIT_S,
            duration=SELF_TEST_DURATIONS[name],
        )
        for result in (reference, traced):
            if result["errors"]:
                raise BenchError(f"{name}: {result['errors']}")
        if traced["digest"] != reference["digest"]:
            raise BenchError(f"{name}: tracing changed the simulated digest")
        print(f"ok  {name}: traced digest equals untraced, checks pass")
        for layer, _ in layers.LAYERS:
            calls = traced["layers"][f"{layer}.calls_per_inv"]
            armed = layers.ENGINE_WORKLOADS.get(layer, set(wl.WORKLOADS))
            if (calls > 0) != (name in armed):
                raise BenchError(
                    f"{name}: layer {layer} has {calls} calls per invocation, "
                    f"expected {'some' if name in armed else 'none'}"
                )
        print(f"ok  {name}: every layer called exactly where armed")

    golden = load_golden()
    for name in wl.WORKLOADS:
        result = run_replay(name, wl.DEFAULT_SEED, timeout=HARD_LIMIT_S)
        if result["errors"] or result["digest"] != golden[name]:
            raise BenchError(
                f"{name}: default-seed digest {result['digest']} != "
                f"golden {golden[name]} ({result['errors']})"
            )
        print(f"ok  {name}: default-seed digest matches golden.json")
    print("self-test passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 1
    try:
        if args.self_test:
            return self_test()
        if args.record_golden:
            return record_golden()
        if args.workload is None:
            parser.error("--workload is required")
        if args.trace:
            result = measure_traced(args.workload, args.seed, args.seconds)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
