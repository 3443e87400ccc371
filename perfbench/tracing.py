"""Traced entry point for one planram CLI call, and the reader of its spans.

Run as ``python3 perfbench/tracing.py SPANS_FILE ARG...`` with planram on the
path: it wraps the public functions below in every planram namespace that
holds them (so ``enumeration.canonical_form`` and ``cli.canonical_form`` get
separate span names), wraps ``Graph.__post_init__``, calls
``planram.cli.main(ARG...)`` and writes the spans to SPANS_FILE at exit.
Nothing inside planram is edited; a worker process the program spawns
itself is not traced.

A span is (name, parent, start, end, value): value is the boolean result
of the two filters (1 = rejected) and ``nodes_visited`` of an enumeration
result. Spans sit in flat arrays so that a few hundred thousand calls stay
cheap to record.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

MODULES = ("cli", "ramsey", "enumeration", "construct", "canon",
           "planarity", "graphs", "formats")

TRACED = {
    "ramsey": ("verify_pr_upper", "verify_pr_lower", "verify_delta",
               "check_fact", "lemma_property_suite"),
    "enumeration": ("enumerate_c4free_planar", "enumerate_triangulations",
                    "is_maximal_c4free_planar"),
    "canon": ("canonical_form", "marked_pair_form"),
    "planarity": ("is_planar", "embed"),
    "graphs": ("adding_edge_creates_c4", "contains_wheel", "cycle_of_length",
               "independence_number", "connectivity"),
    "construct": ("build_delta_witness", "build_ramsey_lower_witness"),
    "formats": ("to_graph6", "to_planar_code"),
}

# canonical_form is attributed to the module that calls it; calls made inside
# canon (marked_pair_form, are_isomorphic) stay in their caller's self time
BY_CALLER = {"canonical_form"}

VALUE = {
    "is_planar": lambda planar: int(not planar),
    "adding_edge_creates_c4": int,
    "enumerate_c4free_planar": lambda result: result.nodes_visited,
    "enumerate_triangulations": lambda result: result.nodes_visited,
}


class Spans:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.stack = [-1]

    def wrap(self, fn, name, value=None):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1])
            self.value.append(0)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if value is not None:
                self.value[index] = value(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        with open(path, "wb") as f:
            header = {"names": self.names, "count": len(self.start)}
            f.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end,
                           self.value):
                column.tofile(f)


def install(spans: Spans):
    """Wrap every traced function in every planram namespace holding it."""
    import importlib

    modules = {m: importlib.import_module(f"planram.{m}") for m in MODULES}
    originals = {
        id(getattr(modules[home], fn)): (home, fn)
        for home, fns in TRACED.items() for fn in fns
    }
    shared = {}
    for mname, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if id(obj) not in originals:
                continue
            home, fn = originals[id(obj)]
            if fn in BY_CALLER:
                if mname == home:
                    continue
                wrapper = spans.wrap(obj, f"{home}.{fn}.by_{mname}")
            else:
                if (home, fn) not in shared:
                    shared[home, fn] = spans.wrap(obj, f"{home}.{fn}",
                                                  VALUE.get(fn))
                wrapper = shared[home, fn]
            setattr(module, attr, wrapper)
    graph = modules["graphs"].Graph
    graph.__post_init__ = spans.wrap(graph.__post_init__,
                                     "graphs.Graph.__post_init__")
    return modules["cli"].main


def load(path):
    """Per span name: calls, self seconds and summed value.

    Self time is a span's duration minus the durations of its child spans;
    calls are nested, so the children of one span never overlap.
    """
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        count = header["count"]
        columns = []
        for code in ("i", "i", "d", "d", "q"):
            column = array(code)
            column.fromfile(f, count)
            columns.append(column)
    name, parent, start, end, value = columns
    self_s = [end[i] - start[i] for i in range(count)]
    for i in range(count):
        if parent[i] >= 0:
            self_s[parent[i]] -= end[i] - start[i]
    totals: dict[str, list] = {}
    for i in range(count):
        entry = totals.setdefault(header["names"][name[i]], [0, 0.0, 0])
        entry[0] += 1
        entry[1] += self_s[i]
        entry[2] += value[i]
    return totals


def main(argv):
    spans = Spans()
    cli_main = spans.wrap(install(spans), "cli.main")
    try:
        return cli_main(argv[1:])
    finally:
        spans.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
