"""Tests for warm pools and FPGA image planning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keepalive import FpgaImagePlanner, GdsfWarmPool, WarmPool
from repro.errors import SchedulingError


class FakeInstance:
    def __init__(self, name):
        self.function = type("F", (), {"name": name})()


def test_pool_miss_then_hit():
    pool = WarmPool(capacity=4)
    assert pool.acquire("f") is None
    inst = FakeInstance("f")
    pool.release(inst)
    assert pool.acquire("f") is inst
    assert pool.hits == 1 and pool.misses == 1
    assert pool.hit_rate == 0.5


def test_pool_lru_eviction():
    pool = WarmPool(capacity=2)
    a, b, c = FakeInstance("a"), FakeInstance("b"), FakeInstance("c")
    assert pool.release(a) == []
    assert pool.release(b) == []
    evicted = pool.release(c)
    assert evicted == [a]  # least recently used function evicted
    assert len(pool) == 2


def test_pool_acquire_refreshes_lru():
    pool = WarmPool(capacity=2)
    a, b = FakeInstance("a"), FakeInstance("b")
    pool.release(a)
    pool.release(b)
    got = pool.acquire("a")  # refresh a
    pool.release(got)
    evicted = pool.release(FakeInstance("c"))
    assert evicted[0].function.name == "b"


def test_pool_drop_all():
    pool = WarmPool(capacity=8)
    for _ in range(3):
        pool.release(FakeInstance("f"))
    dropped = pool.drop_all("f")
    assert len(dropped) == 3
    assert len(pool) == 0


def test_pool_invalid_capacity():
    with pytest.raises(SchedulingError):
        WarmPool(capacity=0)


def test_pool_hit_rate_empty_is_zero():
    assert WarmPool().hit_rate == 0.0


def test_pool_acquire_removes_emptied_bucket():
    """Regression: an acquire that drains a bucket must delete it.

    A leftover empty bucket drifts to the LRU front as its neighbours
    are evicted; the eviction loop's ``bucket.pop(0)`` then raised
    IndexError.  This sequence reproduces exactly that drift."""
    pool = WarmPool(capacity=2)
    a, b = FakeInstance("a"), FakeInstance("b")
    pool.release(a)
    pool.release(b)
    assert pool.acquire("a") is a  # empties (and must delete) bucket 'a'
    pool.release(FakeInstance("c"))         # len 2: no eviction yet
    assert pool.release(FakeInstance("d")) == [b]   # evicts oldest 'b'
    # 'a' would now sit at the LRU front if its empty bucket survived;
    # with the old code this release crashed with IndexError.
    evicted = pool.release(FakeInstance("e"))
    assert [i.function.name for i in evicted] == ["c"]
    assert len(pool) == 2


def test_pool_ttl_boundary_idle_equals_ttl_not_reaped():
    """Reaping is strict: an instance idle for exactly the TTL stays."""
    pool = WarmPool(capacity=4, keep_alive_ttl_s=5.0)
    inst = FakeInstance("f")
    pool.release(inst, now=10.0)
    assert pool.reap_expired(now=15.0) == []       # idle == ttl: keep
    assert pool.expired == 0
    assert pool.reap_expired(now=15.0 + 1e-9) == [inst]
    assert pool.expired == 1
    assert len(pool) == 0


def test_pool_ttl_override_beats_pool_ttl():
    pool = WarmPool(capacity=4, keep_alive_ttl_s=100.0)
    pool.ttl_overrides["fast"] = 1.0
    fast, slow = FakeInstance("fast"), FakeInstance("slow")
    pool.release(fast, now=0.0)
    pool.release(slow, now=0.0)
    assert pool.reap_expired(now=2.0) == [fast]
    assert pool.idle_instances("slow") == [slow]


def test_pool_ttl_override_reaps_without_pool_wide_ttl():
    pool = WarmPool(capacity=4)  # no pool-wide TTL
    inst = FakeInstance("f")
    pool.release(inst, now=0.0)
    assert pool.reap_expired(now=100.0) == []      # no TTL applies
    pool.ttl_overrides["f"] = 1.0
    assert pool.reap_expired(now=100.0) == [inst]


def test_pool_hit_rate_interleaved():
    pool = WarmPool(capacity=4)
    assert pool.acquire("f") is None               # miss
    pool.release(FakeInstance("f"))
    assert pool.acquire("f") is not None           # hit
    assert pool.acquire("f") is None               # miss (just drained)
    pool.release(FakeInstance("g"))
    assert pool.acquire("g") is not None           # hit
    assert pool.acquire("h") is None               # miss
    assert pool.hits == 2 and pool.misses == 3
    assert pool.hit_rate == 2 / 5


# -- FPGA image planner -----------------------------------------------------------


def test_planner_packs_paper_wrapper_12_instances():
    # Table 4: 4 copies each of 3 kernels = 12 instances in one image.
    planner = FpgaImagePlanner(copies_each=4, max_instances=12)
    plan = planner.plan(["madd", "mmult", "mscale"])
    assert plan.func_names == ("madd", "mmult", "mscale")
    assert plan.copies_each == 4


def test_planner_reduces_copies_for_many_functions():
    planner = FpgaImagePlanner(copies_each=4, max_instances=12)
    plan = planner.plan([f"k{i}" for i in range(6)])
    assert len(plan.func_names) * plan.copies_each <= 12
    assert plan.copies_each >= 1


def test_planner_drops_least_recent_when_overfull():
    planner = FpgaImagePlanner(copies_each=1, max_instances=2)
    plan = planner.plan(["a", "b", "c"])
    assert plan.func_names == ("a", "b")


def test_planner_dedupes_predictions():
    planner = FpgaImagePlanner(copies_each=4, max_instances=12)
    plan = planner.plan(["a", "a", "b"])
    assert plan.func_names == ("a", "b")


def test_planner_empty_prediction_rejected():
    with pytest.raises(SchedulingError):
        FpgaImagePlanner().plan([])


def test_planner_invalid_config_rejected():
    with pytest.raises(SchedulingError):
        FpgaImagePlanner(copies_each=0)
    with pytest.raises(SchedulingError):
        FpgaImagePlanner(copies_each=4, max_instances=2)


# One pool operation: (verb, function, clock step).
_POOL_OPS = st.lists(
    st.tuples(
        st.sampled_from(("acquire", "release", "reap", "drop")),
        st.sampled_from("abcd"),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(
    ops=_POOL_OPS,
    pool_cls=st.sampled_from((WarmPool, GdsfWarmPool)),
    capacity=st.integers(min_value=1, max_value=5),
)
def test_pool_length_tracks_idle_instances(ops, pool_cls, capacity):
    """The running idle count equals the instances actually pooled
    after every acquire, release (with evictions), reap and drop."""
    pool = pool_cls(capacity, keep_alive_ttl_s=4.0)
    pool.ttl_overrides["a"] = 2.0
    now = 0.0
    for verb, name, step in ops:
        now += step
        if verb == "acquire":
            pool.acquire(name)
        elif verb == "release":
            pool.release(FakeInstance(name), now=now)
        elif verb == "reap":
            pool.reap_expired(now)
        else:
            pool.drop_all(name)
        assert len(pool) == len(pool.idle_instances())
        assert len(pool) <= capacity
