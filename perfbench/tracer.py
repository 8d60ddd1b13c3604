"""In-memory span tracing of the ``dsapf`` layers, from outside the package.

Spans are recorded by replacing the names the callers look up (for example
``dsapf.engine.decide`` or ``RngStream.generator``) with thin wrappers, so
no file of the package changes.  Each span is (name, start, end, parent);
self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict

import numpy as np

# (module, attribute the callers look up, layer name).  The engine and the
# particle filter each look a function up in their own namespace, so a layer
# called from two modules is listed once per caller.
WRAPPED = (
    ("dsapf.engine", "decide", "pfilter.decide"),
    ("dsapf.engine", "predict", "pfilter.predict"),
    ("dsapf.engine", "update_weights", "pfilter.update_weights"),
    ("dsapf.engine", "systematic_resample", "pfilter.systematic_resample"),
    ("dsapf.engine", "init_particles", "pfilter.init_particles"),
    ("dsapf.engine", "make_view", "pfilter.make_view"),
    ("dsapf.pfilter", "water_fill_batch", "powerfill.water_fill_batch"),
    ("dsapf.oracle", "water_fill_batch", "powerfill.water_fill_batch"),
    ("dsapf.engine", "init_channels", "channel.init_channels"),
    ("dsapf.engine", "step_channels", "channel.step_channels"),
    ("dsapf.engine", "predict_channels", "channel.predict_channels"),
    ("dsapf.engine", "elastic_reward", "phy.elastic_reward"),
    ("dsapf.pfilter", "elastic_reward", "phy.elastic_reward"),
    ("dsapf.oracle", "elastic_reward", "phy.elastic_reward"),
    ("dsapf.engine", "user_rates", "phy.user_rates"),
    ("dsapf.pfilter", "evaluate_batch", "objectives.evaluate_batch"),
    ("dsapf.oracle", "evaluate_batch", "objectives.evaluate_batch"),
    ("dsapf.engine", "sample_availability", "primary_user.sample_availability"),
)

# Per-layer metrics reported from a traced trajectory, in BENCHMARK.json order.
TIMED_LAYERS = (
    "pfilter.decide", "pfilter.predict", "pfilter.update_weights",
    "pfilter.systematic_resample", "pfilter.init_particles",
    "powerfill.water_fill_batch", "system.generator",
    "channel.init_channels", "channel.step_channels",
    "channel.predict_channels", "pfilter.make_view", "phy.elastic_reward",
    "phy.user_rates", "objectives.evaluate_batch",
    "primary_user.sample_availability", "engine.self",
    "oracle.solve_exhaustive", "metrics_io.write_run",
)
COUNTERS = (
    "pfilter.decide.rows", "pfilter.decide.distinct_rows",
    "pfilter.resample.calls", "powerfill.water_fill_batch.rows",
    "system.generator.calls", "phy.elastic_reward.calls",
    "oracle.assignments",
)
PER_LAYER_METRICS = tuple(f"{n}.ms" for n in TIMED_LAYERS) + COUNTERS


class Tracer:
    """Spans and counters of one traced trajectory."""

    def __init__(self):
        self.spans: list = []        # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.decided: list[np.ndarray] = []  # particle matrices handed to decide

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span; for the calls the benchmark itself makes."""
        return self.wrap(fn, name)(*args, **kwargs)

    def wrap(self, fn, name: str, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if count is not None:
                count(self, args)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
        return traced

    def self_ms(self) -> dict[str, float]:
        """Per-layer self time in ms, summed over every span of the layer."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += (end - start - inner) * 1e3
        return out

    def write(self, path: str) -> None:
        """Dump the spans as tab-separated (name, start_s, end_s, parent)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart_s\tend_s\tparent\n")
            for name, start, end, parent in self.spans:
                handle.write(f"{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\n")

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric; a layer the trajectory never entered is 0."""
        self.counts["pfilter.decide.distinct_rows"] = sum(
            len(set(map(bytes, np.packbits(sel, axis=1)))) for sel in self.decided)
        ms = self.self_ms()
        out = {f"{n}.ms": float(ms.get(n, 0.0)) for n in TIMED_LAYERS}
        out.update({n: float(self.counts.get(n, 0)) for n in COUNTERS})
        return out


def _count_decide(tr: Tracer, args) -> None:
    sel = args[0].selections
    tr.counts["pfilter.decide.rows"] += sel.shape[0]
    tr.decided.append(sel)  # predict replaces, never mutates, this matrix


def _count_water_fill(tr: Tracer, args) -> None:
    tr.counts["powerfill.water_fill_batch.rows"] += np.shape(args[0])[0]


def _counter(name: str):
    def count(tr: Tracer, args) -> None:
        tr.counts[name] += 1
    return count


_COUNTS = {
    "pfilter.decide": _count_decide,
    "pfilter.systematic_resample": _counter("pfilter.resample.calls"),
    "powerfill.water_fill_batch": _count_water_fill,
    "phy.elastic_reward": _counter("phy.elastic_reward.calls"),
}


@contextlib.contextmanager
def installed(tracer: Tracer, modules: dict):
    """Replace every traced name for the duration of the block.

    ``modules`` maps dotted module names to the imported modules.  A name a
    module no longer defines is skipped; its layer then reports 0.
    """
    undo = []
    try:
        for mod_name, attr, layer in WRAPPED:
            mod = modules[mod_name]
            if hasattr(mod, attr):
                fn = getattr(mod, attr)
                undo.append((mod, attr, fn))
                setattr(mod, attr, tracer.wrap(fn, layer, _COUNTS.get(layer)))
        rng_cls = modules["dsapf.system"].RngStream
        gen = rng_cls.generator
        undo.append((rng_cls, "generator", gen))
        rng_cls.generator = tracer.wrap(gen, "system.generator",
                                        _counter("system.generator.calls"))
        yield tracer
    finally:
        for obj, attr, fn in reversed(undo):
            setattr(obj, attr, fn)
