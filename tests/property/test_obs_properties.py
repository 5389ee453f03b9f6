"""Property-based tests for the observability subsystem: span-tree
timing invariants and counter conservation under random invocation
plans, plus histogram/quantile laws."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    FunctionCode,
    FunctionDef,
    Language,
    MoleculeRuntime,
    PuKind,
    WorkProfile,
)
from repro.obs.metrics import Histogram

# One invocation in a plan: (function index, PU kind).
_INVOCATIONS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2),
              st.sampled_from([PuKind.CPU, PuKind.DPU])),
    min_size=1,
    max_size=8,
)


def _functions():
    return [
        FunctionDef(
            name=f"f{i}",
            code=FunctionCode(
                f"f{i}", language=Language.PYTHON, import_ms=50.0 * (i + 1)
            ),
            work=WorkProfile(warm_exec_ms=5.0 * (i + 1)),
            profiles=(PuKind.CPU, PuKind.DPU),
        )
        for i in range(3)
    ]


@settings(max_examples=20, deadline=None)
@given(plan=_INVOCATIONS)
def test_span_durations_nest_within_request(plan):
    """For every trace: each phase fits inside the request span, and
    the phases (which never overlap) sum to at most the end-to-end
    duration."""
    molecule = MoleculeRuntime.create(num_dpus=1)
    for function in _functions():
        molecule.deploy_now(function)
    for index, kind in plan:
        molecule.invoke_now(f"f{index}", kind=kind)
    traces = molecule.obs.completed_traces()
    assert len(traces) == len(plan)
    for trace in traces:
        root = trace.root
        total = root.duration_s
        assert sum(trace.phases().values()) <= total + 1e-9
        for child in root.children:
            assert root.begin_s - 1e-12 <= child.begin_s
            assert child.end_s <= root.end_s + 1e-12
            assert child.duration_s >= 0


@settings(max_examples=20, deadline=None)
@given(plan=_INVOCATIONS)
def test_counter_totals_equal_requests_admitted(plan):
    """Conservation: requests_total == starts_total == gateway
    admissions, and per-function counts match the plan."""
    molecule = MoleculeRuntime.create(num_dpus=1)
    for function in _functions():
        molecule.deploy_now(function)
    for index, kind in plan:
        molecule.invoke_now(f"f{index}", kind=kind)
    registry = molecule.obs.registry
    n = len(plan)
    assert molecule.gateway.requests_admitted == n
    assert registry.get("repro_requests_total").total() == n
    assert registry.get("repro_starts_total").total() == n
    assert registry.get("repro_gateway_requests_total").child().value == n
    by_function: dict[str, int] = {}
    for labels, child in registry.get("repro_requests_total").series():
        by_function[labels["function"]] = (
            by_function.get(labels["function"], 0) + int(child.value)
        )
    expected: dict[str, int] = {}
    for index, _kind in plan:
        expected[f"f{index}"] = expected.get(f"f{index}", 0) + 1
    assert by_function == expected
    # cold + fork + warm partition the invocations.
    kinds = {
        labels["start_kind"]: int(child.value)
        for labels, child in registry.get("repro_starts_total").series()
    }
    assert sum(kinds.values()) == n
    assert set(kinds) <= {"cold", "fork", "warm"}


# -- histogram laws (pure, no runtime needed) ---------------------------------

_SAMPLES = st.lists(
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    min_size=1,
    max_size=100,
)


@given(samples=_SAMPLES)
def test_histogram_count_and_sum_conserved(samples):
    h = Histogram(buckets=(0.1, 1.0, 10.0, 100.0))
    for value in samples:
        h.observe(value)
    assert h.count == len(samples)
    assert math.isclose(h.sum, sum(samples), rel_tol=1e-9, abs_tol=1e-9)
    # The +Inf bucket always accumulates everything.
    assert h.bucket_counts()[-1][1] == len(samples)


@given(samples=_SAMPLES)
def test_histogram_quantiles_monotone(samples):
    h = Histogram(buckets=(0.1, 1.0, 10.0, 100.0))
    for value in samples:
        h.observe(value)
    quantiles = [h.quantile(q) for q in (0.0, 0.25, 0.5, 0.75, 0.95, 1.0)]
    assert quantiles == sorted(quantiles)
    assert all(q >= 0 for q in quantiles)
