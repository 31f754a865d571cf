"""In-memory span tracer and the per-layer metrics computed from it.

Spans are recorded from the benchmark's side: `Tracer.wrap` replaces a
function or method under the name its caller looks it up by (a module
attribute or a class attribute) and records one span per call. Every span
belongs to the operation that encloses it (a simulation, a setup, a frame,
a map render), which plays the role of a request identifier. A layer's self
time is its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import types
from time import perf_counter_ns, thread_time_ns

# spans that start an operation; every other span belongs to the innermost
# operation open when it starts
OPERATIONS = ("bench.simulate", "bench.setup", "estimator.frame", "bench.render")


class Tracer:
    def __init__(self):
        # [name, start_ns, end_ns, parent, operation, ok]
        self.spans: list = []
        self.counts: list = []  # (operation span index, name, value)
        self._stack: list = []
        self._patches: list = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        op = i if name in OPERATIONS else (self.spans[parent][4] if parent >= 0 else -1)
        self.spans.append([name, perf_counter_ns(), 0, parent, op, True])
        self._stack.append(i)
        return i

    def _close(self, i: int, ok: bool = True):
        self.spans[i][2] = perf_counter_ns()
        self.spans[i][5] = ok
        self._stack.pop()

    def count(self, span: int, name: str, value):
        """Attach a count to the operation of the given span."""
        self.counts.append((self.spans[span][4], name, value))

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(name)
        ok = False
        try:
            yield i
            ok = True
        finally:
            self._close(i, ok)

    def wrap(self, owner, attr: str, name: str, on_result=None):
        """Record a span named `name` around every call of owner.attr.

        on_result(tracer, span_index, args, result) may add counts."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            i = tracer._open(name)
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                tracer._close(i, ok=False)
                raise
            tracer._close(i)
            if on_result is not None:
                on_result(tracer, i, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def unwrap_all(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def write(self, path, meta: dict):
        """Spans as [name, start_ns, end_ns, parent, operation, ok] rows."""
        with open(path, "w") as f:
            json.dump({**meta, "span_fields": ["name", "start_ns", "end_ns", "parent",
                                               "operation", "ok"],
                       "spans": self.spans, "counts": self.counts}, f)

    # -- analysis -------------------------------------------------------------

    def per_operation(self):
        """{operation index: {name: [self_ns, calls, ok_calls]}} and
        {operation index: {count name: summed value}}."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, op, ok in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        layers: dict = {}
        for i, (name, start, end, parent, op, ok) in enumerate(self.spans):
            if op < 0:
                continue
            acc = layers.setdefault(op, {}).setdefault(name, [0, 0, 0])
            acc[0] += end - start - child_ns[i]
            acc[1] += 1
            acc[2] += int(ok)
        counts: dict = {}
        for op, name, value in self.counts:
            per = counts.setdefault(op, {})
            per[name] = per.get(name, 0) + value
        return layers, counts

    def operations(self) -> dict:
        """{operation kind: [span index, ...]}"""
        out: dict = {kind: [] for kind in OPERATIONS}
        for i, s in enumerate(self.spans):
            if s[0] in out:
                out[s[0]].append(i)
        return out


def span_cost_ns(calls: int = 50_000) -> float:
    """CPU cost of recording one span: a wrapped no-op call minus a plain one.

    Measured in the same moment as the traced round, so it does not depend on
    how fast a shared host happens to run the two rounds being compared."""
    def noop():
        pass

    holder = types.SimpleNamespace(noop=noop)
    tracer = Tracer()
    tracer.wrap(holder, "noop", "noop")
    t0 = thread_time_ns()
    for _ in range(calls):
        holder.noop()
    t1 = thread_time_ns()
    for _ in range(calls):
        noop()
    t2 = thread_time_ns()
    return max((t1 - t0) - (t2 - t1), 0) / calls


def _median(values):
    return float(statistics.median(values)) if values else 0.0


# per-layer metric -> (span name, operation kind, scale from ns)
SELF_TIMES = {
    "simulate.truth_s": ("simulate.truth", "bench.simulate", 1e-9),
    "simulate.camera_s": ("simulate.camera", "bench.simulate", 1e-9),
    "simulate.lidar_s": ("simulate.lidar", "bench.simulate", 1e-9),
    "simulate.write_s": ("simulate.write", "bench.simulate", 1e-9),
    "io.read_s": ("io.read", "bench.setup", 1e-9),
    "cli.bundles_s": ("cli.bundles", "bench.setup", 1e-9),
    "io.ply_s": ("io.ply", "bench.render", 1e-9),
    "evaluate.colorize_s": ("evaluate.colorize", "bench.render", 1e-9),
    "imu.slice_ms": ("imu.slice", "estimator.frame", 1e-6),
    "imu.integrate_ms": ("imu.integrate", "estimator.frame", 1e-6),
    "imu.mechanize_ms": ("imu.mechanize", "estimator.frame", 1e-6),
    "estimator.linearize_self_ms": ("estimator.linearize", "estimator.frame", 1e-6),
    "estimator.cost_self_ms": ("estimator.cost", "estimator.frame", 1e-6),
    "estimator.window_copy_ms": ("estimator.window_copy", "estimator.frame", 1e-6),
    "estimator.build_problem_ms": ("estimator.build_problem", "estimator.frame", 1e-6),
    "estimator.marginalize_self_ms": ("estimator.marginalize", "estimator.frame", 1e-6),
    "estimator.frame_self_ms": ("estimator.frame", "estimator.frame", 1e-6),
    "f2m.register_self_ms": ("f2m.register", "estimator.frame", 1e-6),
    "f2m.nearest_ms": ("f2m.nearest", "estimator.frame", 1e-6),
    "f2m.insert_ms": ("f2m.insert", "estimator.frame", 1e-6),
}
# per-layer metric -> factor span name; reported as the self time of one
# call in microseconds and the number of calls per frame
FACTORS = {"lidar": "factors.lidar", "visual": "factors.visual", "depth": "factors.depth"}
# per-frame counts recorded by the result hooks of run.install_tracing
FRAME_COUNTS = ("imu.samples_per_frame", "estimator.lm_iterations",
                "estimator.factors", "estimator.state_dim")
# totals over the traced round: metric -> (span or count name, what is summed)
ROUND_TOTALS = {
    "f2m.register_attempts": ("f2m.register", "calls"),
    "f2m.register_ok": ("f2m.register", "ok"),
    "f2m.points_offered": ("f2m.points_offered", "count"),
    "f2m.points_stored": ("f2m.points_stored", "count"),
}

UNITS = {"_s": "s", "_ms": "ms", "_us": "us"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values: medians over the operations in which a layer ran
    (0 when it never ran), or totals over the traced frames."""
    layers, counts = tracer.per_operation()
    ops = tracer.operations()
    out = {}
    for metric, (span, kind, scale) in SELF_TIMES.items():
        out[metric] = _median([layers[op][span][0] * scale for op in ops[kind]
                               if span in layers.get(op, {})])
    frames = ops["estimator.frame"]
    for short, span in FACTORS.items():
        per_call = [layers[op][span][0] / layers[op][span][1] * 1e-3 for op in frames
                    if span in layers.get(op, {})]
        out[f"factors.{short}_us"] = _median(per_call)
        out[f"factors.{short}_calls"] = _median(
            [layers.get(op, {}).get(span, [0, 0, 0])[1] for op in frames])
    out["estimator.cost_evals"] = _median(
        [layers.get(op, {}).get("estimator.cost", [0, 0, 0])[1] for op in frames])
    for name in FRAME_COUNTS:
        out[name] = _median([counts.get(op, {}).get(name, 0) for op in frames])
    for metric, (name, what) in ROUND_TOTALS.items():
        if what == "count":
            out[metric] = sum(counts.get(op, {}).get(name, 0) for op in frames)
        else:
            col = 1 if what == "calls" else 2
            out[metric] = sum(layers.get(op, {}).get(name, [0, 0, 0])[col] for op in frames)
    return out
