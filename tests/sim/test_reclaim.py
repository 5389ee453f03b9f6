"""A finished request is freed by reference counting alone.

The kernel and the retry loop keep no reference cycles: once nothing
outside holds a finished process, condition or failed attempt, its
reference count drops to zero and it is freed on the spot, without
waiting for the cyclic collector.  Every case here runs with the
collector disabled and then asks it how many unreachable objects it
finds; the answer must be 0.
"""

import gc
from collections import Counter
from contextlib import contextmanager

import pytest

import repro.loadgen.scenarios as scenarios
from repro import FunctionCode, FunctionDef, Language, MoleculeRuntime, PuKind, WorkProfile
from repro.errors import ReproError, RetriesExhaustedError, SchedulingError
from repro.loadgen import run_load
from repro.sim import Simulator
from tests.support import capture_runtime


@contextmanager
def collector_off():
    """Collect once, then keep the cyclic collector off for the block."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def unreachable() -> Counter:
    """Collect and return the type names of the cyclic garbage found."""
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)


# -- kernel ---------------------------------------------------------------------


def test_finished_process_is_freed_by_refcount():
    sim = Simulator()

    def work(sim):
        yield sim.timeout(1.0)
        return "done"

    with collector_off():
        proc = sim.spawn(work(sim))
        sim.run()
        assert proc.value == "done"
        del proc
        assert unreachable() == Counter()


def test_any_of_won_while_timeout_child_pending_is_freed():
    sim = Simulator()
    pending = sim.timeout(5.0)
    results = []

    def winner(sim):
        yield sim.timeout(1.0)
        return "first"

    def waiter(sim):
        # The never-fired event would otherwise keep the condition (and
        # the condition it) alive forever.
        values = yield sim.any_of([sim.spawn(winner(sim)), pending, sim.event()])
        results.append(sorted(values.values()))

    with collector_off():
        sim.spawn(waiter(sim))
        sim.run(until=2.0)
        assert results == [["first"]]
        assert not pending.processed
        # The still-queued child no longer reaches the condition.
        assert all(
            not hasattr(callback, "__self__") for callback in pending.callbacks
        )
        assert unreachable() == Counter()
        sim.run()
        assert unreachable() == Counter()


def test_condition_resolved_at_construction_is_freed():
    sim = Simulator()
    early = sim.event().succeed("early")
    sim.run()
    results = []

    def waiter(sim):
        # Resolves inside the constructor, before the pending child is
        # even registered.
        values = yield sim.any_of([early, sim.event()])
        results.append(list(values.values()))

    with collector_off():
        sim.spawn(waiter(sim))
        sim.run()
        assert results == [["early"]]
        assert unreachable() == Counter()


def test_all_of_failed_by_one_child_is_freed():
    sim = Simulator()
    caught = []

    def failer(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    def waiter(sim):
        try:
            yield sim.all_of(
                [sim.timeout(5.0), sim.spawn(failer(sim)), sim.event()]
            )
        except RuntimeError as exc:
            caught.append(str(exc))

    with collector_off():
        sim.spawn(waiter(sim))
        sim.run(until=2.0)
        assert caught == ["boom"]
        assert unreachable() == Counter()
        sim.run()
        assert unreachable() == Counter()


def test_failed_process_is_freed_and_keeps_its_traceback():
    sim = Simulator()
    seen = []

    def failer(sim):
        yield sim.timeout(1.0)
        raise ValueError("bad input")

    def parent(sim):
        try:
            yield sim.spawn(failer(sim))
        except ValueError as exc:
            frames = []
            tb = exc.__traceback__
            while tb is not None:
                frames.append(tb.tb_frame.f_code.co_name)
                tb = tb.tb_next
            seen.append(frames)

    with collector_off():
        sim.spawn(parent(sim))
        sim.run()
        # The simulated code's frames survive; the kernel's do not.
        assert seen == [["parent", "failer"]]
        assert unreachable() == Counter()


# -- the retry loop -----------------------------------------------------------------


def _out_of_dram_runtime():
    """A runtime whose next cold start of ``big`` cannot be placed."""
    runtime = MoleculeRuntime.create(num_dpus=0)
    runtime.deploy_now(FunctionDef(
        name="big",
        code=FunctionCode("big", language=Language.PYTHON, memory_mb=25000.0),
        work=WorkProfile(warm_exec_ms=1.0),
        profiles=(PuKind.CPU,),
    ))
    runtime.invoke_now("big", force_cold=True)
    runtime.invoke_now("big", force_cold=True)
    return runtime


@pytest.mark.parametrize("terminal", [False, True], ids=["exhausted", "terminal"])
def test_dead_lettered_request_is_freed(terminal):
    runtime = _out_of_dram_runtime()
    expected = RetriesExhaustedError
    if terminal:
        # Every library error is terminal: the first failure is re-raised.
        runtime.invoker._TERMINAL_ERRORS = (ReproError,)
        expected = SchedulingError
    caught = []

    def caller():
        try:
            yield from runtime.invoke("big", force_cold=True)
        except ReproError as exc:
            caught.append(type(exc))

    with collector_off():
        runtime.sim.spawn(caller())
        runtime.sim.run()
        assert caught == [expected]
        assert len(runtime.dead_letters) == 1
        assert unreachable() == Counter()


# -- whole replays --------------------------------------------------------------------


REPLAYS = {
    "burst": dict(),
    "overload": dict(overload=True),  # the scenario attaches its fault plan
    "zipf": dict(reuse=True),
    "fanout": dict(),
}


@pytest.mark.parametrize("scenario", list(REPLAYS))
def test_replay_leaves_no_cyclic_garbage(scenario):
    with collector_off():
        # The runtime stays referenced: only what the requests left
        # behind can be unreachable.
        reports = []
        runtime = capture_runtime(scenarios, lambda: reports.append(run_load(
            scenario, seed=42, quick=True, **REPLAYS[scenario]
        )))
        assert reports[0]["load"]["admitted"] > 0
        assert unreachable() == Counter()
        del runtime
