"""Per-module spans for clusterkit, recorded from outside the program.

`Tracer.install()` replaces every public module-level function of the
traced modules (and a few named methods) with a wrapper that records a span:
name, start, end, parent span and op id.  Spans live in flat arrays until
the run ends; `summarize` then derives self times (span time minus the time
covered by child spans), call counts and the ratios the benchmark reports.
Generator functions get one span per resumption, so their self time covers
the work done between yields.
"""

from __future__ import annotations

from array import array
import functools
import importlib
import inspect
import json
import time

LAYERS = ("harness", "quiver", "geometry", "engine", "formulas", "snake",
          "scattering", "laurent", "cli")

# methods that carry layer work but are reached through operators or objects
METHODS = {"laurent": {"LaurentPoly": ("__mul__", "__add__", "__pow__")},
           "harness": {"CrossCheckReport": ("render_text", "to_json_dict")}}

# leaf helpers called only from inside their own layer: their time stays in
# the caller's span, which keeps the span count and the overhead down
FOLDED = ("geometry.sigma", "geometry.sigma_int", "laurent.mono",
          "laurent.mono_mul", "laurent.mono_degree")

# functions whose distinct arguments per op are counted (what a cache could save)
DISTINCT = ("quiver.is_type_a", "geometry.triangulation_for")

OP = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP]
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.calls: dict[str, int] = {}
        self.items: dict[str, int] = {}     # list lengths returned, or items yielded
        self.distinct: dict[str, int] = {}  # summed per-op distinct arguments
        self._seen: dict[str, set] = {name: set() for name in DISTINCT}
        self._stack: list[int] = []
        self._op = -1
        self._installed: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self._op)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int):
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def begin_op(self, op_id: int):
        self._op = op_id
        self._open(0)

    def end_op(self):
        self._close(self._stack[-1])
        for name, seen in self._seen.items():
            self.distinct[name] = self.distinct.get(name, 0) + len(seen)
            seen.clear()

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        self.items[name] = 0
        calls, items, seen = self.calls, self.items, self._seen.get(name)
        opened, close = self._open, self._close

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[name] += 1
                gen = fn(*args, **kwargs)
                while True:
                    idx = opened(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close(idx)
                    items[name] += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if seen is not None:
                seen.add(args[0])
            idx = opened(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if type(result) is list:
                items[name] += len(result)
            return result
        return wrapper

    def _patches(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every public function of
        every layer, for each name that refers to it in any layer (so that
        `from .x import f` is covered too), and for the named methods."""
        mods = {layer: importlib.import_module(f"clusterkit.{layer}") for layer in LAYERS}
        wrapped = {}
        patches = []
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and f"{layer}.{attr}" not in FOLDED):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{attr}")
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    patches.append((cls, meth, orig,
                                    self._wrap(orig, f"{layer}.{cls_name}.{meth}")))
        for mod in mods.values():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrapped:
                    patches.append((mod, attr, obj, wrapped[obj]))
        return patches

    def install(self):
        """Route calls through the wrappers (built on the first call)."""
        if not self._installed:
            self._installed = self._patches()
        for owner, attr, _, wrapper in self._installed:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._installed:
            setattr(owner, attr, original)

    # -- export --------------------------------------------------------------

    def export(self) -> dict:
        return {"names": self.names, "calls": self.calls, "items": self.items,
                "distinct": self.distinct,
                "spans": [self.span_name, self.span_start, self.span_end,
                          self.span_parent, self.span_op]}

    def save(self, path: str):
        """Write every span once: a JSON header line, then the raw arrays."""
        ex = self.export()
        header = {k: v for k, v in ex.items() if k != "spans"}
        header["count"] = len(self.span_name)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in ex["spans"]:
                arr.tofile(fh)


def load(path: str) -> dict:
    with open(path, "rb") as fh:
        ex = json.loads(fh.readline())
        spans = []
        for code in ("i", "q", "q", "i", "i"):
            arr = array(code)
            arr.fromfile(fh, ex["count"])
            spans.append(arr)
    ex["spans"] = spans
    return ex


def self_times(export: dict) -> tuple[dict[str, int], int]:
    """Self time per span name in ns, and the summed time of the op spans."""
    names = export["names"]
    name, start, end, parent, _ = export["spans"]
    self_ns = [0] * len(names)
    op_ns = 0
    for k in range(len(name)):
        dur = end[k] - start[k]
        self_ns[name[k]] += dur
        if parent[k] >= 0:
            self_ns[name[parent[k]]] -= dur
        if name[k] == 0:
            op_ns += dur
    return dict(zip(names, self_ns)), op_ns


def summarize(exports: list[dict], ops: int, model_witnesses: dict[str, int]) -> dict:
    """Per-layer metrics from one or more exports covering `ops` ops.

    model_witnesses maps each model to the witnesses in its results, the
    denominator of the enumerations-per-witness ratios."""
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    items: dict[str, int] = {}
    distinct: dict[str, int] = {}
    op_ns = 0
    for ex in exports:
        st, on = self_times(ex)
        op_ns += on
        for src, dst in ((st, self_ns), (ex["calls"], calls), (ex["items"], items),
                         (ex["distinct"], distinct)):
            for key, val in src.items():
                dst[key] = dst.get(key, 0) + val
    ops = max(ops, 1)
    out = {}

    def per_layer(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix + "."))

    for layer in LAYERS[:-1]:
        layer_ns = per_layer(layer, self_ns)
        out[f"{layer}.calls_per_op"] = per_layer(layer, calls) / ops
        out[f"{layer}.self_ms_per_op"] = layer_ns / 1e6 / ops
        out[f"{layer}.share"] = layer_ns / op_ns if op_ns else 0.0
    for fn in ("quiver.is_type_a", "geometry.triangulation_for",
               "geometry.build_pipelines", "quiver.oriented_three_cycles",
               "engine.mutate_seed"):
        out[f"{fn}.calls_per_op"] = calls.get(fn, 0) / ops
    for fn in DISTINCT:
        out[f"{fn}.distinct_ratio"] = distinct.get(fn, 0) / calls[fn] if calls.get(fn) else 0.0
    out["laurent.mul.calls_per_op"] = calls.get("laurent.LaurentPoly.__mul__", 0) / ops
    for fn in ("engine.exact_divide", "scattering.broken_lines"):
        out[f"{fn}.self_ms_per_op"] = self_ns.get(fn, 0) / 1e6 / ops

    def ratio(fns, models):
        done = sum(items.get(f, 0) for f in fns)
        wit = sum(model_witnesses.get(m, 0) for m in models)
        return done / wit if wit else 0.0

    out["formulas.yields_per_witness"] = ratio(
        ("formulas.enumerate_gcs", "formulas.enumerate_gcc"), ("gcs", "gcc"))
    out["snake.enumerations_per_witness"] = ratio(
        ("snake.enumerate_matchings", "snake.triangulation_tpaths"), ("matching", "tpath"))
    return out
