"""In-memory spans around the public calls of each leolift layer.

A span records name, start, end, the span that caused it and the instance it
belongs to, plus optional counts taken from the call's result. Spans are
opened by wrappers that replace a layer function at the place the caller
looks it up (for `from .x import f` that is the caller's module), so the
program itself carries no tracing code. They are written out once, when the
benchmark ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time

# (module, attribute, span name, counts from the result): the public
# functions each layer exposes, patched where the pipeline looks them up
LAYER_CALLS = [
    ("leolift.cli", "load_scenario", "scenario.load", None),
    ("leolift.formulation", "expand_time_network", "scenario.expand",
     lambda net: {"arcs": len(net.arcs)}),
    ("leolift.cli", "generate_dataset", "spacecraft.dataset", None),
    ("leolift.cli", "train_relu_network", "surrogate.train", None),
    ("leolift.cli", "fit_linear_regression", "surrogate.train", None),
    ("leolift.cli", "assemble", "formulation.assemble",
     lambda res: {"vars": res[0].num_variables(),
                        "rows": res[0].num_constraints(),
                        "integers": res[0].num_integer()}),
    ("leolift.milp_ir:MilpModel", "export_mps", "milp_ir.export_mps", None),
    ("leolift.cli", "solve_milp", "solver.milp",
     lambda sol: {"nodes": sol.nodes, "iterations": sol.iterations}),
    ("leolift.cli", "solve_exact_oracle", "spacecraft.oracle", None),
    ("leolift.cli", "solution_flows", "formulation.flows", None),
]


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.instance: int | None = None

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "instance": self.instance, "start": time.perf_counter(),
                "end": None}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict, counts: dict | None = None):
        span["end"] = time.perf_counter()
        if counts:
            span["counts"] = counts
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, name: str, fn, counts=None):
        def traced(*args, **kwargs):
            s = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(s, counts(result) if counts and result is not None
                           else None)
        return traced

    def write(self, path, header: dict):
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def resolve(owner: str):
    """`pkg.mod` or `pkg.mod:Class` to the object whose attribute is patched."""
    mod_name, _, cls = owner.partition(":")
    obj = importlib.import_module(mod_name)
    return getattr(obj, cls) if cls else obj


@contextlib.contextmanager
def patched(replacements):
    """Set each (object, attribute, new value); restore all on exit."""
    saved = []
    try:
        for obj, attr, value in replacements:
            saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def layer_patches(recorder: Recorder) -> list:
    out = []
    for owner, attr, name, counts in LAYER_CALLS:
        obj = resolve(owner)
        out.append((obj, attr, recorder.wrap(name, getattr(obj, attr), counts)))
    return out
