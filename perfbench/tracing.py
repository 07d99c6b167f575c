"""Outside-in tracing: spans around calls into each module of the program.

``Tracer.instrument`` swaps module attributes for timing wrappers and puts the
originals back on exit, so nothing under ``src/`` is edited. Both bindings of a
function are wrapped where the harness imports it by name (``harness.forward``
and ``nn.forward`` are one layer). A span is named ``<layer>.<call>``, where
the layer is the module that does the work; spans are kept in memory and
written out once the run ends.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from aetta import harness, nn, plots, streams

ESTIMATOR_SPANS = {
    "src_valid": "estimators.srcvalid",
    "softmax_score": "estimators.softmax",
    "gde_agreement": "estimators.gde",
    "adv_perturb_agreement": "estimators.advperturb",
    "aetta_estimate": "estimators.aetta",
}
TTA_SPANS = {
    "tent_step": "tta.tent_step",
    "should_reset": "tta.should_reset",
    "apply_reset": "tta.apply_reset",
}
LAYERS = ("harness", "streams", "estimators", "tta", "nn", "trace")


@dataclass(slots=True)
class Span:
    name: str
    phase: str  # "setup", "stream" or "output"
    seed: int | None
    batch: int | None
    parent: int  # index into Tracer.spans; -1 for a root
    start: float = 0.0
    end: float = 0.0
    rows: int = 0  # nn.forward: input rows
    mflop: float = 0.0  # nn.forward: 2 * rows * dense multiply-adds per row / 1e6
    megabytes: float = 0.0  # streams.make_stream: array bytes of the stream / 1e6
    duplicate: bool | None = None  # deterministic nn.forward within a batch: seen before?

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _arrays(obj):
    """Every ndarray reachable through dataclass fields, lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)


def _contents(*objs) -> tuple:
    """Exact contents of every array reachable from ``objs``, usable as a set key."""
    return tuple((a.shape, a.dtype.str, a.tobytes()) for obj in objs for a in _arrays(obj))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self.seed: int | None = None
        self.batch: int | None = None
        self._stack: list[int] = []
        self._seen: set[tuple] = set()  # deterministic forwards of the current batch

    def _open(self, name: str) -> Span:
        span = Span(name, self.phase, self.seed, self.batch, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def _wrap_seeded(self, name: str, seed_arg: str, fn):
        """Calls that start one seed's work: later spans carry that seed."""
        inner = self._wrap(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.seed = kwargs.get(seed_arg, self.seed)
            return inner(*args, **kwargs)

        return wrapper

    def _wrap_forward(self, fn):
        @functools.wraps(fn)
        def wrapper(model, x, *args, **kwargs):
            rows, mflop, duplicate = 0, 0.0, None
            if self.batch is not None:
                # the inspection is tracer work, kept in its own span
                inspect = self._open("trace.inspect")
                x = np.asarray(x)
                rows = x.shape[0]
                mflop = 2e-6 * rows * sum(a.shape[0] * a.shape[1] for a in _arrays(model) if a.ndim == 2)
                mode = args[0] if args else kwargs.get("mode", nn.Deterministic())
                if isinstance(mode, nn.Deterministic):
                    key = _contents(model, x)
                    duplicate = key in self._seen
                    self._seen.add(key)
                self._close(inspect)
            span = self._open("nn.forward")
            span.rows, span.mflop, span.duplicate = rows, mflop, duplicate
            try:
                return fn(model, x, *args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def _wrap_make_stream(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.seed = kwargs.get("seed", self.seed)
            span = self._open("streams.make_stream")
            try:
                stream = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.megabytes = sum(a.nbytes for a in _arrays(stream)) / 1e6
            return self._pulls(stream)

        return wrapper

    def _pulls(self, stream):
        try:
            for batch in stream:
                self.batch = batch.batch_index
                self._seen = set()
                yield batch
        finally:
            self.batch = None

    def _targets(self):
        """(module, attribute, wrapper factory) for every traced call."""
        yield harness, "run_experiment", functools.partial(self._wrap, "harness.run_experiment")
        yield harness, "emit_outputs", functools.partial(self._wrap, "harness.emit_outputs")
        yield plots, "accuracy_trace_svg", functools.partial(self._wrap, "plots.accuracy_trace_svg")
        for module in (harness, streams):
            yield module, "prepared_task", functools.partial(
                self._wrap_seeded, "streams.prepared_task", "train_seed")
        yield streams, "train_source_model", functools.partial(self._wrap, "streams.train_source_model")
        yield harness, "make_stream", self._wrap_make_stream
        for attr, name in {**ESTIMATOR_SPANS, **TTA_SPANS}.items():
            yield harness, attr, functools.partial(self._wrap, name)
        for module, attr in ((nn, "forward"), (nn, "forward_logits"), (harness, "forward")):
            yield module, attr, self._wrap_forward
        for module in (nn, harness):
            yield module, "clone", functools.partial(self._wrap, "nn.clone")
        yield nn, "backward", functools.partial(self._wrap, "nn.backward")
        yield nn, "optimizer_step", functools.partial(self._wrap, "nn.optimizer_step")

    @contextmanager
    def instrument(self):
        """Install the wrappers for the duration of the block; missing attributes are skipped."""
        saved = []
        try:
            for module, attr, wrap in self._targets():
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, wrap(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "phase", "seed", "batch", "parent", "start_s", "end_s"])
            for i, s in enumerate(self.spans):
                writer.writerow([i, s.name, s.phase, s.seed, s.batch, s.parent, repr(s.start), repr(s.end)])


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def self_and_net_seconds(spans: list[Span]) -> tuple[list[float], list[float]]:
    """Per span: self time (duration minus its children) and net time (minus tracer spans inside)."""
    child = [0.0] * len(spans)
    tracer_inside = [0.0] * len(spans)
    for i in reversed(range(len(spans))):
        span = spans[i]
        if span.parent >= 0:
            child[span.parent] += span.seconds
            own = span.seconds if span.name.startswith("trace.") else tracer_inside[i]
            tracer_inside[span.parent] += own
    self_s = [s.seconds - c for s, c in zip(spans, child)]
    net_s = [s.seconds - t for s, t in zip(spans, tracer_inside)]
    return self_s, net_s


def per_layer_metrics(spans: list[Span], batches: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from the spans of a traced set-up, ``batches`` stream batches and output."""
    self_s, net_s = self_and_net_seconds(spans)
    calls: dict[tuple[str, str], int] = defaultdict(int)
    net: dict[tuple[str, str], list[float]] = defaultdict(list)
    layer_self: dict[str, float] = defaultdict(float)
    for span, own, inclusive in zip(spans, self_s, net_s):
        calls[span.phase, span.name] += 1
        net[span.phase, span.name].append(inclusive)
        if span.phase == "stream":
            layer_self[span.name.split(".")[0]] += own

    def ms_per_call(phase: str, name: str, average=statistics.fmean) -> float:
        times = net[phase, name]
        return 1e3 * average(times) if times else 0.0

    def per_batch(value: float) -> float:
        return value / batches

    forwards = [s for s in spans if s.phase == "stream" and s.name == "nn.forward"]
    deterministic = [s.duplicate for s in forwards if s.duplicate is not None]
    streams_built = [s for s in spans if s.phase == "stream" and s.name == "streams.make_stream"]
    reset_calls = calls["stream", "tta.apply_reset"]

    m: dict[str, tuple[float, str]] = {
        "streams.prepared_task.ms": (ms_per_call("setup", "streams.prepared_task", statistics.median), "ms"),
        "streams.train_source_model.ms": (
            ms_per_call("setup", "streams.train_source_model", statistics.median), "ms"),
        "nn.optimizer_step.calls": (float(calls["setup", "nn.optimizer_step"]), "count"),
        "streams.make_stream.ms": (ms_per_call("stream", "streams.make_stream"), "ms"),
        "streams.make_stream.mb": (
            statistics.fmean(s.megabytes for s in streams_built) if streams_built else 0.0, "MB"),
        "nn.forward.calls_per_batch": (per_batch(len(forwards)), "count"),
        "nn.forward.rows_per_batch": (per_batch(sum(s.rows for s in forwards)), "count"),
        "nn.forward.ms_per_batch": (per_batch(1e3 * sum(net["stream", "nn.forward"])), "ms"),
        "nn.forward.mflop_per_batch": (per_batch(sum(s.mflop for s in forwards)), "MFLOP"),
        "nn.forward.duplicate_frac": (
            sum(deterministic) / len(deterministic) if deterministic else 0.0, "fraction"),
        "nn.backward.calls_per_batch": (per_batch(calls["stream", "nn.backward"]), "count"),
        "nn.backward.ms_per_batch": (per_batch(1e3 * sum(net["stream", "nn.backward"])), "ms"),
        "nn.clone.calls_per_batch": (per_batch(calls["stream", "nn.clone"]), "count"),
        "nn.clone.ms_per_batch": (per_batch(1e3 * sum(net["stream", "nn.clone"])), "ms"),
    }
    for name in (*ESTIMATOR_SPANS.values(), "tta.tent_step", "tta.should_reset"):
        m[f"{name}.ms_per_call"] = (ms_per_call("stream", name), "ms")
    m["tta.apply_reset.calls"] = (float(reset_calls), "count")
    m["tta.resets_per_batch"] = (per_batch(reset_calls), "fraction")
    for layer in LAYERS:
        m[f"{layer}.self_ms_per_batch"] = (per_batch(1e3 * layer_self[layer]), "ms")
    m["harness.emit_outputs.ms"] = (ms_per_call("output", "harness.emit_outputs"), "ms")
    m["plots.accuracy_trace_svg.ms"] = (ms_per_call("output", "plots.accuracy_trace_svg"), "ms")
    return m


def stream_root_seconds(spans: list[Span]) -> float:
    """Wall time covered by the stream phase's root spans (the run_experiment calls)."""
    return sum(s.seconds for s in spans if s.phase == "stream" and s.parent < 0)
