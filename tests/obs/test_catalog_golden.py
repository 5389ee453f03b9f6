"""Golden metric catalog: the exposition of eight canned runs must keep
its family order, help text and types, and stay byte-identical.

``data/catalog_golden.json`` holds, per run, the ordered ``# HELP`` /
``# TYPE`` lines of :meth:`MoleculeRuntime.metrics_exposition` and a
sha256 of the whole exposition.  The runs cover the engine-off
catalog and every lazily registered group the canned workloads reach:
the sharded front end, the warm path, hedging, fan-out, result reuse,
the overload controller and the sim-kernel profile.

The load, hedge and fan-out runs reuse the golden-trace tests' own
``_replay`` builders, capturing the runtime they boot.  If a change
*intentionally* alters the catalog, regenerate the file (run this
module as a script) and call the change out in review.
"""

import hashlib
import json
from pathlib import Path

import pytest

import repro.loadgen.scenarios as scenarios
from repro.loadgen import run_load
from tests.futures import test_golden_fanout_trace as fanout_golden
from tests.hedging import test_golden_hedge_trace as hedge_golden
from tests.loadgen import test_golden_trace as load_golden
from tests.support import capture_runtime, warm_cold_mix_runtime

DATA = Path(__file__).parent / "data" / "catalog_golden.json"
QUICK_SEED = 42


def _warm_cold_mix():
    return warm_cold_mix_runtime()


def _load_replay():
    return capture_runtime(
        load_golden, lambda: load_golden._replay(load_golden._load_plan())
    )


def _hedge_replay():
    return capture_runtime(
        hedge_golden, lambda: hedge_golden._replay(hedge_golden._load_plan())
    )


def _fanout_replay():
    return capture_runtime(fanout_golden, fanout_golden._replay)


def _zipf_reuse():
    return capture_runtime(scenarios, lambda: run_load(
        "zipf", seed=QUICK_SEED, quick=True, reuse=True
    ))


def _fanout_warmpath():
    # The fan-out golden replay runs without the warm path; the canned
    # fanout scenario arms it.
    return capture_runtime(scenarios, lambda: run_load(
        "fanout", seed=QUICK_SEED, quick=True
    ))


def _overload():
    return capture_runtime(scenarios, lambda: run_load(
        "overload", seed=QUICK_SEED, quick=True, overload=True
    ))


def _kernel_snapshot():
    runtime = warm_cold_mix_runtime()
    runtime.metrics_snapshot(include_kernel=True)
    return runtime


#: run name -> builder of the finished runtime whose catalog is pinned.
RUNS = {
    "warm_cold_mix": _warm_cold_mix,
    "load_replay": _load_replay,
    "hedge_replay": _hedge_replay,
    "fanout_replay": _fanout_replay,
    "fanout_warmpath": _fanout_warmpath,
    "zipf_reuse": _zipf_reuse,
    "overload": _overload,
    "kernel_snapshot": _kernel_snapshot,
}


def _catalog(name: str) -> dict:
    exposition = RUNS[name]().metrics_exposition()
    return {
        "families": [
            line for line in exposition.splitlines()
            if line.startswith(("# HELP ", "# TYPE "))
        ],
        "sha256": hashlib.sha256(exposition.encode()).hexdigest(),
    }


@pytest.mark.parametrize("name", list(RUNS))
def test_exposition_matches_golden_catalog(name):
    golden = json.loads(DATA.read_text(encoding="utf-8"))[name]
    current = _catalog(name)
    assert current["families"] == golden["families"]
    assert current["sha256"] == golden["sha256"]


def test_golden_runs_reach_every_lazy_group_they_claim():
    """Each run really registers the families it is here to pin."""
    golden = json.loads(DATA.read_text(encoding="utf-8"))

    def names(run):
        return {
            line.split()[2] for line in golden[run]["families"]
            if line.startswith("# TYPE ")
        }

    assert "repro_shard_routed_total" in names("load_replay")
    assert "repro_hedge_fired" in names("hedge_replay")
    assert "repro_fanout_jobs" in names("fanout_replay")
    assert "repro_coalesced_starts" in names("fanout_warmpath")
    assert "repro_reuse_hits" in names("zipf_reuse")
    assert "repro_shed_total" in names("overload")
    assert "repro_kernel_dispatched" in names("kernel_snapshot")
    assert not any(
        name.startswith(("repro_shard_", "repro_kernel_"))
        for name in names("warm_cold_mix")
    )


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(
        json.dumps({name: _catalog(name) for name in RUNS}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"regenerated {DATA}")
