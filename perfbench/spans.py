"""In-process span recorder for the traced run.

`instrument` wraps the package's public functions at every module-level
name that binds them (``from .lattice import virtual_dimension`` copies the
binding into classify and verify) and the constructors and operators of
its value classes.  Every wrapped call records a span: name, start, end and
parent.  One recorder holds one run (one traced call); its spans stay in
memory until `write_spans` stores them.  The layer of a span is the
module that defines the function, so self times add up per module.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager

LAYERS = ("literals", "classify", "lattice", "verify", "cli")

# Class methods that other layers call; module functions are found by scan.
METHODS = {
    "lattice": {
        "SurfaceParams": ("__init__",),
        "DivisorClass": ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__"),
    },
    "classify": {"LinearSystemSpec": ("__init__", "literal")},
    "literals": {"SystemLiteral": ("to_spec",)},
    "verify": {"VerificationReport": ("to_dict",)},
}

# A function is wrapped at the names other modules bind.  At its own
# module's name it is wrapped only when a metric needs its calls from inside
# that module too (verify reaches classify's functions as `classify.<name>`);
# other same-module calls cannot move time between layers and would only
# add overhead.
OWN_MODULE_WRAPPED = {"virtual_dimension", "virtual_dim", "decompose", "pattern_matches"}


class SpanRecorder:
    """Columnar span store of one run; span i has names[i], starts[i],
    ends[i], parents[i] (-1 for a root)."""

    def __init__(self, run_id: int = 0) -> None:
        self.run_id = run_id
        self.name_ids: dict[str, int] = {}
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack = [-1]

    def name_id(self, name: str) -> int:
        return self.name_ids.setdefault(name, len(self.name_ids))

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack
        )  # fmt: skip
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def span_names(self) -> list[str]:
        return sorted(self.name_ids, key=self.name_ids.get)


@contextmanager
def instrument(recorder: SpanRecorder, modules: dict):
    """Wrap the public functions and METHODS of `modules` (layer name ->
    module object, plus "" for the package) for the duration of the block."""
    undo = []

    def patch(owner, attr, wrapper):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    try:
        for binder_layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if layer not in LAYERS:
                    continue
                if binder_layer == layer and attr not in OWN_MODULE_WRAPPED:
                    continue
                patch(module, attr, recorder.wrap(obj, f"{layer}.{obj.__name__}"))
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    patch(cls, meth, recorder.wrap(fn, f"{layer}.{cls_name}.{meth}"))
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def aggregate(recorder: SpanRecorder) -> dict:
    """Per-layer self time, per-name inclusive time and call count.

    Self time is a span's duration minus its children's durations.  Spans
    come from one thread and nest strictly, so children never overlap and
    their summed durations are the time they cover.
    """
    names = recorder.span_names()
    starts, ends, parents, nids = recorder.starts, recorder.ends, recorder.parents, recorder.names
    durations = [end - start for start, end in zip(starts, ends)]
    self_time = list(durations)
    inclusive = Counter()
    calls = Counter()
    root_time = 0.0
    for nid, dur, parent in zip(nids, durations, parents):
        name = names[nid]
        inclusive[name] += dur
        calls[name] += 1
        if parent >= 0:
            self_time[parent] -= dur
        else:
            root_time += dur
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for nid, t in zip(nids, self_time):
        layer_self[names[nid].split(".", 1)[0]] += t
    return {"layer_self": layer_self, "inclusive": inclusive, "calls": calls, "root_time": root_time}


def write_spans(recorder: SpanRecorder, path) -> None:
    """One JSON header line, then the columns as raw native arrays."""
    columns = {
        "name": recorder.names,
        "start": recorder.starts,
        "end": recorder.ends,
        "parent": recorder.parents,
    }
    header = {
        "run": recorder.run_id,
        "names": recorder.span_names(),
        "count": len(recorder.names),
        "columns": [[key, col.typecode] for key, col in columns.items()],
    }
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode() + b"\n")
        for col in columns.values():
            col.tofile(handle)


def read_spans(path) -> tuple[dict, dict]:
    """Inverse of write_spans: (header, column name -> array)."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns = {}
        for key, code in header["columns"]:
            col = array(code)
            col.fromfile(handle, header["count"])
            columns[key] = col
    return header, columns
