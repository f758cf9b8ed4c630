"""Spans around the public functions of twinbeam's layers, recorded from outside.

`installed` replaces every public function of `config`, `model`, `synth`,
`fileio`, `dsp` and `fit` with a wrapper that records a span (name, start,
end, parent, op id) in memory, and rebinds the names other modules imported
(`cli.load_config`, `cli.fit_spectra`, the package namespace).  `cli.main`
itself runs inside an op span opened by the caller.  With `memory` on, each
span also keeps the tracemalloc peak seen while it was open.
"""

import contextlib
import importlib
import inspect
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LAYERS = ("config", "model", "synth", "fileio", "dsp", "fit")


class Tracer:
    """In-memory span recorder; inactive tracers only time the op spans."""

    def __init__(self, memory=False, series_length=None):
        self.spans = []
        self.stack = []
        self.memory = memory
        self.series_length = series_length
        self.op_id = None

    def _memory_event(self):
        if not self.memory:
            return
        _, peak = tracemalloc.get_traced_memory()
        for index in self.stack:
            span = self.spans[index]
            span["mem_hi"] = max(span["mem_hi"], peak)
        tracemalloc.reset_peak()

    def open(self, name):
        self._memory_event()
        base = tracemalloc.get_traced_memory()[0] if self.memory else 0
        self.spans.append({"name": name, "parent": self.stack[-1] if self.stack else None,
                           "op": self.op_id, "mem_base": base, "mem_hi": base,
                           "start": time.perf_counter(), "end": None})
        self.stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span["end"] = time.perf_counter()
        self._memory_event()
        self.stack.pop()

    @contextlib.contextmanager
    def op(self, kind):
        """Span of one op; spans opened inside it share its id."""
        self.op_id = len(self.spans)
        span = self.open(f"op.{kind}")
        try:
            yield span
        finally:
            self.close(span)
            self.op_id = None

    def wrap(self, name, func):
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            span_name = name
            if name == "synth.mz_measure":
                span_name = f"{name}_{_arg(args, kwargs, 1, 'mode')}"
            span = self.open(span_name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(span)
            if hook is not None:
                span.update(hook(self, args, kwargs, result))
            if name.startswith("synth."):
                span["series_out"] = _count_series(result, self.series_length)
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        traced.__doc__ = func.__doc__
        return traced


def _arg(args, kwargs, position, key):
    return kwargs[key] if key in kwargs else args[position]


def _count_series(result, length):
    """Number of `length`-sample series in a synth function's return value."""
    if isinstance(result, np.ndarray):
        if result.ndim >= 1 and result.shape[-1] == length:
            return int(np.prod(result.shape[:-1], dtype=int))
        return 0
    if hasattr(result, "__dataclass_fields__"):
        return sum(_count_series(getattr(result, f), length)
                   for f in result.__dataclass_fields__)
    return 0


def _welch_attrs(tracer, args, kwargs, result):
    series = _arg(args, kwargs, 0, "series")
    sample_rate = _arg(args, kwargs, 1, "sample_rate")
    settings = _arg(args, kwargs, 2, "settings")
    dsp = importlib.import_module("twinbeam.dsp")
    length = inspect.unwrap(dsp.segment_length)(sample_rate, settings)
    hop = max(1, length // 2)  # welch_psd's documented 50% overlap
    return {"rbw": settings.rbw, "segments": (len(series) - length) // hop + 1,
            "num_averages": result.num_averages}


_HOOKS = {
    "dsp.welch_psd": _welch_attrs,
    "fileio.read_trace": lambda t, a, k, r: {"channels": len(r[1])},
    "fileio.encode_trace": lambda t, a, k, r: {"bytes": len(r)},
    "fit.fit_spectra": lambda t, a, k, r: {"iterations": r.iterations,
                                           "converged": bool(r.converged)},
}


@contextlib.contextmanager
def installed(tracer):
    """Wrap the layers' public functions for the duration of the block."""
    package = importlib.import_module("twinbeam")
    modules = [importlib.import_module(f"twinbeam.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, module in zip(LAYERS, modules):
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                wrappers[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    undo = []
    try:
        for module in [package, importlib.import_module("twinbeam.cli"), *modules]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    undo.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        yield tracer
    finally:
        for module, attr, obj in undo:
            setattr(module, attr, obj)


def duration(span):
    return span["end"] - span["start"]


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += duration(span)
    return [duration(s) - child_time[i] for i, s in enumerate(spans)]


class OpView:
    """The spans of one op, with queries by name and by ancestry."""

    def __init__(self, spans, selfs, op_index):
        self.root = spans[op_index]
        self.indices = [i for i, s in enumerate(spans) if s["op"] == op_index]
        self.spans, self.selfs = spans, selfs

    def named(self, *names):
        return [self.spans[i] for i in self.indices if self.spans[i]["name"] in names]

    def total(self, *names):
        return sum(duration(s) for s in self.named(*names))

    def self_time(self):
        return self.selfs[self.indices[0]]

    def outermost(self, prefix):
        """Spans under `prefix` whose parent is not under it (no double counting)."""
        out = []
        for i in self.indices[1:]:
            span = self.spans[i]
            parent = self.spans[span["parent"]]
            if span["name"].startswith(prefix) and not parent["name"].startswith(prefix):
                out.append(span)
        return out

    def leaves(self, prefix):
        """Spans under `prefix` with no child span under `prefix`."""
        has_child = {self.spans[i]["parent"] for i in self.indices
                     if self.spans[i]["name"].startswith(prefix)}
        return [self.spans[i] for i in self.indices
                if self.spans[i]["name"].startswith(prefix) and i not in has_child]

    def peak_mib(self, spans, own=False):
        """Largest traced allocation while any of spans ran.

        Measured above the op's start, or with `own` above each span's start.
        """
        base = self.root["mem_base"]
        return max((s["mem_hi"] - (s["mem_base"] if own else base) for s in spans),
                   default=0) / 2 ** 20

    def self_table(self):
        """{name: [calls, total self seconds]} over the op, the op span included."""
        table = defaultdict(lambda: [0, 0.0])
        for i in self.indices:
            entry = table[self.spans[i]["name"]]
            entry[0] += 1
            entry[1] += self.selfs[i]
        return dict(table)


def op_views(spans):
    selfs = self_times(spans)
    views = defaultdict(list)
    for i, span in enumerate(spans):
        if span["parent"] is None:
            views[span["name"][len("op."):]].append(OpView(spans, selfs, i))
    return views
