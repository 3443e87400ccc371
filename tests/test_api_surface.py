"""Every public function, class, method and property of planram has a
caller inside the package, or is exported, or is traced by the benchmark.
No name is exempt.

Names that only tests call are test oracles; they belong in
``tests/oracles.py``, not in the package a reader of the proof checker
must audit.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import planram
from planram import enumeration
from planram.canon import canonical_form
from planram.enumeration import EnumerationTask

from oracles import recorded_search

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "planram"

def public_definitions():
    """(module.name, name) for each public module-level function or class
    and each public method or property of a module-level class."""
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name


def referenced_names():
    """Every Name and Attribute name used anywhere in the package."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def traced_names():
    """module.function for each entry of perfbench/tracing.py's TRACED."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED"
                for t in node.targets):
            table = ast.literal_eval(node.value)
            return {f"{m}.{fn}" for m, fns in table.items() for fn in fns}
    raise AssertionError("perfbench/tracing.py has no TRACED table")


def test_every_public_name_has_a_caller():
    used = referenced_names() | set(planram.__all__)
    traced = traced_names()
    unused = [
        qualified for qualified, name in public_definitions()
        if name not in used and qualified not in traced
    ]
    assert not unused, (
        f"no caller in src/planram: {unused}; move test oracles to "
        "tests/oracles.py and delete the rest")


def test_no_module_reads_the_environment():
    # settings are command line flags, so every run says what it set
    readers = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in readers:
                found.append(f"{path.stem}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found.extend(f"{path.stem}:{node.lineno} {a.name}"
                             for a in node.names if a.name in readers)
    assert not found, found


def called_name(call):
    """The name a call calls: f for f(...), and name for X.name(...)."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def callers(name):
    """module.function for each function of the package that calls name,
    bare or as an attribute."""
    found = set()
    for path in SRC.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Call) and called_name(node) == name
                    for node in ast.walk(fn)):
                found.add(f"{path.stem}.{fn.name}")
    return found


def test_only_the_generators_skip_graph_validation():
    # graphs are validated where they enter the program; only the two
    # generators build children from a valid parent without the checks,
    # and each validates the classes it returns
    assert callers("_trusted") == {
        "enumeration._c4free_children", "enumeration._split_vertex"}


def test_no_package_module_imports_networkx():
    # the package tests planarity itself, embeds graph6 input and draws
    # the C4-free children whose new edge no face of the parent's rotation
    # holds; networkx is only the tests' and the benchmark's independent
    # check.  Any other embedding path fails here
    assert callers("embed") == {"cli._read_inputs"}
    assert callers("rotation_system") == {
        "planarity.embed", "enumeration._c4free_children"}
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "networkx" for m in modules):
                importers.append(path.stem)
    assert importers == []
    # nor does a dependency load it when the CLI starts
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, planram.cli, planram.enumeration, planram.ramsey; "
         "print(sorted(m for m in sys.modules "
         "if m.split('.')[0] == 'networkx'))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path})
    assert loaded.stdout.strip() == "[]"


def test_walks_is_the_one_face_tracer():
    # a face is its walk: every face the package reads comes from walks,
    # so no second tracer or face type can grow back
    assert callers("walks") == {
        "planarity.faces", "planarity.cofacial_masks",
        "enumeration._faces_and_masks"}


def test_the_left_right_port_is_the_one_planarity_path():
    # every planarity verdict and rotation comes from one run of the
    # port, so no second planarity test can grow back beside it
    assert callers("_LeftRight") == {
        "planarity.is_planar", "planarity.rotation_system"}


def users(name):
    """module.function for each function of the package that calls name
    or hands it on."""
    found = set()
    for path in SRC.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Name) and node.id == name
                    for node in ast.walk(fn)):
                found.add(f"{path.stem}.{fn.name}")
    return found


def test_the_look_ahead_ranks_the_edges_once():
    # each look-ahead ranks its parent's edges once and walks them with the
    # one tie walker; the canonicity test ranks nothing, and only the
    # edges a split changes inside N[w] are ranked on the child, so no
    # second ranking can grow back
    assert callers("_ties") == {
        "enumeration._open_edges", "enumeration._open_splits"}
    assert users("_edge_invariant") == {"enumeration._open_edges"}
    assert users("_contraction_invariant") == {
        "enumeration._open_splits", "enumeration._inside_ties"}
    # the walker is the one function that calls an invariant handed on
    assert callers("invariant") == {"enumeration._ties"}


def test_the_search_computes_one_canonical_form_per_graph(monkeypatch):
    # the canonical-edge rule reads the labelling of the child's one
    # canonical form, so no function of enumeration computes a marked
    # form, and the search calls canonical_form once for each root and
    # each child it builds, never with a colouring: 1,432 built children
    # at C4-free n=9 and 685 at min-degree 5, n=14
    assert not {f for f in users("marked_pair_form")
                if f.startswith("enumeration.")}
    assert not hasattr(enumeration, "marked_pair_form")
    colourings = []

    def counting(g, colors=None):
        colourings.append(colors)
        return canonical_form(g, colors)

    monkeypatch.setattr(enumeration, "canonical_form", counting)
    for task, calls in (
            (EnumerationTask(n=9, mode="c4free_planar"), 1433),
            (EnumerationTask(n=14, mode="triangulation", min_degree=5), 686)):
        colourings.clear()
        built = len(recorded_search(task).built)
        assert len(colourings) == calls == built + 1, task
        assert not any(colourings), task
