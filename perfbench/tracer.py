"""In-memory span recorder for the benchmark's traced run.

The recorder wraps entry points of the program from outside: it
replaces a class attribute (or a module attribute) with a wrapper that
opens a span on entry and closes it on exit.  Nothing under ``src/`` is
edited.  For a generator function the wrapper is itself a generator
that delegates ``send``/``throw``/``close`` to the real one and opens a
span around each *resumption*, so a simulated process is charged for
the host time of each step it takes, not for the simulated time it
spends suspended.

Spans live in flat arrays (entry, start, end, parent, request) that the
collector does not track, and are written out by :meth:`Recorder.dump`
after the run.  A span's self time is its duration minus the durations
of its child spans and of collector pauses inside it; self times are
summed per layer.  Collector pauses come from ``gc.callbacks`` and are
charged to the ``gc`` layer.

The wrappers themselves cost host time.  :meth:`Recorder.calibrate`
measures that cost per span, and :meth:`Recorder.tracer_cost_ns`
totals it per layer, so self times can be corrected for it.

A missing entry point raises :class:`EntryPointMissing`: a renamed or
moved function must fail the traced run, never read as zero calls.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import statistics
import time
from array import array

#: Request id of a span no driver request encloses.
NO_REQUEST = -1


class EntryPointMissing(RuntimeError):
    """A wrapped entry point no longer exists where the layer table says."""


class Recorder:
    """Spans, per-entry call counts and per-layer self time."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_index: dict[str, int] = {}
        #: entry id -> (layer name, "module:qualname")
        self.entries: list[tuple[str, str]] = []
        self.entry_layer: list[int] = []
        #: True for entries whose wrapper is a generator.
        self.entry_is_gen: list[bool] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        # The span log, in opening order.
        self.span_entry = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_request = array("i")
        # Collector pauses, in total and per generation.
        self.gc_ns = 0
        self.gc_collections = [0, 0, 0]
        self.window_first_span = 0
        #: Host cost of one span, measured by calibrate(): the part that
        #: lands inside the span and the part its parent pays, per kind
        #: (generator or not), as samples and as their median.
        self._inner_samples = {False: [], True: []}
        self._outer_samples = {False: [], True: []}
        self.cost_inner_ns = {False: 0.0, True: 0.0}
        self.cost_outer_ns = {False: 0.0, True: 0.0}
        self._build_ops()

    # -- the hot path -----------------------------------------------------

    def _build_ops(self) -> None:
        clock = time.perf_counter_ns
        span_entry = self.span_entry
        span_start = self.span_start
        span_end = self.span_end
        span_parent = self.span_parent
        span_request = self.span_request
        open_span: list[int] = []
        open_t0: list[int] = []
        open_child: list[int] = []
        open_req: list[int] = []
        entry_layer = self.entry_layer
        self_ns = self.self_ns

        def push(eid: int, req: int) -> int:
            """Open a span; ``req`` < 0 inherits the enclosing request."""
            idx = len(span_entry)
            if open_span:
                span_parent.append(open_span[-1])
                if req < 0:
                    req = open_req[-1]
            else:
                span_parent.append(-1)
                if req < 0:
                    req = NO_REQUEST
            span_entry.append(eid)
            span_request.append(req)
            span_end.append(0)
            open_span.append(idx)
            open_req.append(req)
            open_child.append(0)
            t0 = clock()
            span_start.append(t0)
            open_t0.append(t0)
            return req

        def pop() -> None:
            t1 = clock()
            idx = open_span.pop()
            duration = t1 - open_t0.pop()
            span_end[idx] = t1
            open_req.pop()
            self_ns[entry_layer[span_entry[idx]]] += duration - open_child.pop()
            if open_child:
                open_child[-1] += duration

        gc_t0 = [0]

        def on_gc(phase: str, info: dict) -> None:
            if phase == "start":
                gc_t0[0] = clock()
                return
            pause = clock() - gc_t0[0]
            self.gc_ns += pause
            self.gc_collections[info["generation"]] += 1
            if open_child:
                # The pause lies inside the innermost open span: take it
                # out of that span's self time.
                open_child[-1] += pause

        self.push = push
        self.pop = pop
        self.on_gc = on_gc
        self._open_span = open_span

    # -- installation -----------------------------------------------------

    def _entry(self, layer: str, name: str, is_gen: bool) -> int:
        if layer not in self._layer_index:
            self._layer_index[layer] = len(self.layers)
            self.layers.append(layer)
            self.self_ns.append(0)
        self.entries.append((layer, name))
        self.entry_layer.append(self._layer_index[layer])
        self.entry_is_gen.append(is_gen)
        self.calls.append(0)
        return len(self.entries) - 1

    def wrap(self, layer: str, fn, name: str, request_arg=None):
        """A wrapper recording ``fn`` as an entry point of ``layer``.

        ``request_arg`` is the positional index (counting ``self``) of
        an argument that is the request id; spans without one inherit
        the request of the span that encloses them.
        """
        is_gen = inspect.isgeneratorfunction(fn)
        eid = self._entry(layer, name, is_gen)
        calls = self.calls
        push = self.push
        pop = self.pop

        if not is_gen:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                calls[eid] += 1
                push(eid, -1)
                try:
                    return fn(*args, **kwargs)
                finally:
                    pop()

            return traced

        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            calls[eid] += 1
            req = args[request_arg] if request_arg is not None else -1
            gen = fn(*args, **kwargs)
            value = None
            error = None
            # The yielded event passes through a one-slot list so this
            # frame holds no reference to it while suspended: the kernel
            # recycles events by reference count.
            slot = []
            while True:
                req = push(eid, req)
                try:
                    if error is None:
                        slot.append(gen.send(value))
                    else:
                        slot.append(gen.throw(error))
                        error = None
                except StopIteration as stop:
                    pop()
                    return stop.value
                except BaseException:
                    pop()
                    raise
                pop()
                try:
                    value = yield slot.pop()
                except GeneratorExit:
                    push(eid, req)
                    try:
                        gen.close()
                    finally:
                        pop()
                    raise
                except BaseException as exc:  # delivered into the process
                    error = exc
                    value = None

        return traced_gen

    def install(self, layer: str, target: str, request_arg=None) -> None:
        """Wrap ``"module:Class.method"`` or ``"module:function"``.

        ``"module:Class.*"`` wraps every public function defined on the
        class itself.  Raises :class:`EntryPointMissing` if the module,
        class or function is absent.
        """
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError as exc:
            raise EntryPointMissing(f"{layer}: {target}: {exc}") from None
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                raise EntryPointMissing(f"{layer}: {target}: no {part!r}")
        attr = parts[-1]
        if attr == "*":
            names = [
                key for key, value in vars(owner).items()
                if inspect.isfunction(value) and not key.startswith("_")
            ]
            if not names:
                raise EntryPointMissing(f"{layer}: {target}: no methods")
        else:
            names = [attr]
        for name in names:
            # Found through the class's MRO, wrapped on the named class.
            fn = inspect.getattr_static(owner, name, None)
            if not inspect.isfunction(fn):
                raise EntryPointMissing(
                    f"{layer}: {target}: {name!r} is not a plain function "
                    f"of {getattr(owner, '__name__', owner)!r}"
                )
            qualname = f"{module_name}:{'.'.join(parts[:-1] + [name])}"
            setattr(owner, name, self.wrap(layer, fn, qualname, request_arg))

    def start_gc(self) -> None:
        gc.callbacks.append(self.on_gc)

    def stop_gc(self) -> None:
        gc.callbacks.remove(self.on_gc)

    # -- measurement window -----------------------------------------------

    def open_window(self) -> None:
        """Zero the counters: aggregates cover only what follows."""
        if self._open_span:
            raise RuntimeError("window opened inside an open span")
        for index in range(len(self.calls)):
            self.calls[index] = 0
        for index in range(len(self.self_ns)):
            self.self_ns[index] = 0
        self.gc_ns = 0
        self.gc_collections[:] = [0, 0, 0]
        self.window_first_span = len(self.span_entry)

    # -- overhead calibration ---------------------------------------------

    def calibrate(self, rounds: int = 20000, repeats: int = 7) -> None:
        """Measure what one span costs, for plain and generator entries.

        For each kind, time ``rounds`` calls of a trivial entry point
        bare and wrapped, ``repeats`` times.  The difference is the
        wrapper's full cost; the recorded span duration minus the bare
        cost is the part of it inside the span, and the rest is paid by
        the parent span.  The costs used are the medians over every call
        of this method, so calibrating before and after a run averages
        over the host's speed during it.
        """

        # Shaped like a typical entry point: a method with a positional
        # and a keyword argument.
        def bare_fn(owner, name, kind=None):
            return None

        def bare_gen(owner, name, kind=None):
            yield None

        def run_fn(fn):
            t0 = time.perf_counter_ns()
            for _ in range(rounds):
                fn(self, "f", kind=None)
            return time.perf_counter_ns() - t0

        def run_gen(fn):
            t0 = time.perf_counter_ns()
            for _ in range(rounds):
                for _ in fn(self, "f", kind=None):
                    pass
            return time.perf_counter_ns() - t0

        first_entry = len(self.entries)
        for is_gen, bare, run in (
            (False, bare_fn, run_fn), (True, bare_gen, run_gen)
        ):
            # A generator span is opened once per resumption: two per
            # call of the one-yield generator above.
            spans_per_call = 2 if is_gen else 1
            wrapped = self.wrap("trace.calibration", bare, "calibration")
            inner = self._inner_samples[is_gen]
            outer = self._outer_samples[is_gen]
            for _ in range(repeats):
                first = len(self.span_entry)
                cost_bare = run(bare) / rounds / spans_per_call
                cost_wrapped = run(wrapped) / rounds / spans_per_call
                spans = len(self.span_entry) - first
                span_ns = sum(
                    self.span_end[i] - self.span_start[i]
                    for i in range(first, len(self.span_entry))
                ) / spans
                for log in (self.span_entry, self.span_start, self.span_end,
                            self.span_parent, self.span_request):
                    del log[first:]
                inner.append(max(0.0, span_ns - cost_bare))
                outer.append(max(0.0, cost_wrapped - cost_bare - inner[-1]))
            self.cost_inner_ns[is_gen] = statistics.median(inner)
            self.cost_outer_ns[is_gen] = statistics.median(outer)
        # Calibration entries are not entry points of the program.
        for log in (self.entries, self.entry_layer, self.entry_is_gen,
                    self.calls):
            del log[first_entry:]
        if self._layer_index.pop("trace.calibration") != len(self.layers) - 1:
            raise RuntimeError("calibrate() must follow installation")
        self.layers.pop()
        self.self_ns.pop()

    def tracer_cost_ns(self) -> dict[str, float]:
        """Per-layer estimate of the tracer's own cost in the window.

        Each span inflates its own self time by the calibrated inner
        cost and its parent's by the outer cost.
        """
        cost = {name: 0.0 for name in self.layers}
        entry_layer = self.entry_layer
        is_gen = self.entry_is_gen
        entries = self.span_entry
        parents = self.span_parent
        layers = self.layers
        inner = self.cost_inner_ns
        outer = self.cost_outer_ns
        for idx in range(self.window_first_span, len(entries)):
            eid = entries[idx]
            kind = is_gen[eid]
            cost[layers[entry_layer[eid]]] += inner[kind]
            parent = parents[idx]
            if parent >= 0:
                cost[layers[entry_layer[entries[parent]]]] += outer[kind]
        return cost

    # -- output -------------------------------------------------------------

    def dump(self, path: str) -> int:
        """Write the span log as JSON lines; returns the span count.

        The first line names the fields and maps entry ids to
        ``[layer, entry point]``; each further line is one span
        ``[entry, start_ns, end_ns, parent, request]``.
        """
        count = len(self.span_entry)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({
                "fields": ["entry", "start_ns", "end_ns", "parent", "request"],
                "entries": [list(entry) for entry in self.entries],
                "spans": count,
            }) + "\n")
            rows = zip(
                self.span_entry, self.span_start, self.span_end,
                self.span_parent, self.span_request,
            )
            out.writelines(f"[{e},{s},{t},{p},{r}]\n" for e, s, t, p, r in rows)
        return count
