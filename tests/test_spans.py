"""perfbench's traced run wraps class methods by name: each one that
perfbench/spans.py lists in METHODS must exist in the package, be wrapped
inside `instrument` and be restored after it.  A method removed or renamed
in `src` fails here, not only in a traced benchmark run."""

import importlib
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_methods_are_wrapped_and_restored():
    # run_path compiles spans.py from source, writing no bytecode under perfbench/
    spans = runpy.run_path(str(ROOT / "perfbench" / "spans.py"))
    modules = {"": importlib.import_module("k3linsys")}
    for layer in spans["LAYERS"]:
        modules[layer] = importlib.import_module(f"k3linsys.{layer}")
    methods = [
        (getattr(modules[layer], cls_name), method)
        for layer, classes in spans["METHODS"].items()
        for cls_name, names in classes.items()
        for method in names
    ]
    assert [(cls.__name__, method) for cls, method in methods if method not in vars(cls)] == []
    originals = [vars(cls)[method] for cls, method in methods]
    with spans["instrument"](spans["SpanRecorder"](), modules):
        for (cls, method), original in zip(methods, originals):
            assert vars(cls)[method].__wrapped__ is original, (cls.__name__, method)
    assert [vars(cls)[method] for cls, method in methods] == originals
