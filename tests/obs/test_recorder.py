"""The hub's three-verb recorder: catalog lookup, lazy group
registration in row order, and ``Counter.inc`` semantics."""

import pytest

from repro.obs import ObsError, Observability
from repro.obs.observability import CATALOG
from repro.sim import Simulator


def _names(obs):
    return [family.name for family in obs.registry.families()]


def test_only_core_registers_at_construction():
    obs = Observability(Simulator())
    assert _names(obs) == list(CATALOG["core"])


def test_touching_one_family_registers_its_whole_group_in_row_order():
    obs = Observability(Simulator())
    obs.count("repro_reuse_stale", "pressure")
    obs.ensure("reuse")  # idempotent
    assert _names(obs) == list(CATALOG["core"]) + list(CATALOG["reuse"])
    stale = obs.registry.get("repro_reuse_stale")
    assert stale.labels(reason="pressure").value == 1


def test_verbs_feed_counter_histogram_and_gauge_series():
    obs = Observability(Simulator())
    obs.count("repro_nipc_bytes_total", "cross", n=0)
    obs.count("repro_nipc_bytes_total", "cross", n=512)
    obs.observe("repro_sandbox_verb_seconds", 0.25, "runc", "cfork")
    obs.set("repro_breaker_state", 2, "dpu0")
    r = obs.registry
    # n=0 still creates the series, like Counter.inc(0).
    assert r.get("repro_nipc_bytes_total").labels(path="cross").value == 512
    verb = r.get("repro_sandbox_verb_seconds")
    assert verb.labels(runtime="runc", verb="cfork").count == 1
    assert r.get("repro_breaker_state").labels(pu="dpu0").value == 2


def test_recorder_rejects_unknown_names_and_bad_labels():
    obs = Observability(Simulator())
    with pytest.raises(ObsError, match="unknown metric"):
        obs.count("repro_no_such_total")
    with pytest.raises(ObsError, match="must be str"):
        obs.count("repro_shard_routed_total", 0, "hash")
    with pytest.raises(ObsError, match="takes labels"):
        obs.count("repro_retries_total", "f")
    with pytest.raises(ObsError):
        obs.count("repro_gateway_requests_total", n=-1)
