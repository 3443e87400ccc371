"""Every output check fails on a corrupted output and passes on a correct one.

The correct outputs are built here by brute force with networkx, so these
tests run without planram.
"""

import itertools
import json
from pathlib import Path

import networkx as nx
import pytest

import bench_checks as checks
import run
import tracing
from bench_checks import CheckFailed

pytestmark = pytest.mark.filterwarnings("ignore:The hashes produced")


def _g6(graphs) -> str:
    return "".join(nx.to_graph6_bytes(g, header=False).decode() for g in graphs)


def _classes(n, keep):
    """One graph per isomorphism class of the graphs on n vertices that keep."""
    pairs = list(itertools.combinations(range(n), 2))
    index = checks.ClassIndex()
    out = []
    for mask in range(1 << len(pairs)):
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(p for i, p in enumerate(pairs) if mask >> i & 1)
        if keep(g) and index.add(g):
            out.append(g)
    return out


@pytest.fixture(scope="module")
def c4free5():
    return _classes(5, lambda g: not checks.has_c4(g) and checks.is_planar(g))


def test_c4free_list_passes(c4free5):
    assert checks.check_c4free_classes(_g6(c4free5), 5) == len(c4free5)


def test_c4free_duplicated_class_fails(c4free5):
    shuffled = nx.relabel_nodes(c4free5[-1], {v: 4 - v for v in range(5)})
    with pytest.raises(CheckFailed, match="duplicates"):
        checks.check_c4free_classes(_g6(c4free5 + [shuffled]), 5)


def test_c4free_dropped_class_fails(c4free5):
    for i in range(len(c4free5)):
        with pytest.raises(CheckFailed, match="missing"):
            checks.check_c4free_classes(_g6(c4free5[:i] + c4free5[i + 1:]), 5)


def test_c4free_graph_with_c4_fails(c4free5):
    square = nx.cycle_graph(4)
    square.add_node(4)
    with pytest.raises(CheckFailed, match="contains a C4"):
        checks.check_c4free_classes(_g6(c4free5 + [square]), 5)


def _planar_code(graphs) -> bytes:
    out = bytearray(b">>planar_code<<")
    for g in graphs:
        _, emb = nx.check_planarity(g)
        out.append(g.number_of_nodes())
        for v in range(g.number_of_nodes()):
            out += bytes(u + 1 for u in emb.neighbors_cw_order(v)) + b"\0"
    return bytes(out)


@pytest.fixture(scope="module")
def triangulations6():
    n = 6
    pairs = list(itertools.combinations(range(n), 2))
    index = checks.ClassIndex()
    out = []
    for edges in itertools.combinations(pairs, 3 * n - 6):
        g = nx.Graph(edges)
        if g.number_of_nodes() == n and checks.is_planar(g) and index.add(g):
            out.append(g)
    return out


def test_triangulation_census_passes(triangulations6):
    assert len(triangulations6) == checks.TRIANGULATIONS[6]
    assert checks.check_triangulation_code(_planar_code(triangulations6),
                                           6) == 2


def test_triangulation_non_triangular_face_fails(triangulations6):
    blob = checks.read_planar_code(_planar_code(triangulations6))
    rotation = blob[0]
    u = 0
    v = rotation[0][0]
    rotation[u].remove(v)
    rotation[v].remove(u)
    out = bytearray(b">>planar_code<<")
    for rot in blob:
        out.append(len(rot))
        for nbrs in rot:
            out += bytes(x + 1 for x in nbrs) + b"\0"
    with pytest.raises(CheckFailed, match="not a triangle"):
        checks.check_triangulation_code(bytes(out), 6)


def test_triangulation_dropped_or_duplicated_class_fails(triangulations6):
    with pytest.raises(CheckFailed, match="A000109"):
        checks.check_triangulation_code(_planar_code(triangulations6[:1]), 6)
    doubled = triangulations6 + triangulations6[:1]
    with pytest.raises(CheckFailed, match="A000109"):
        checks.check_triangulation_code(_planar_code(doubled), 6)


def test_triangulation_duplicate_within_count_fails(triangulations6):
    # right count, but one class twice and the other missing
    with pytest.raises(CheckFailed, match="duplicates"):
        checks.check_triangulation_code(
            _planar_code([triangulations6[0], triangulations6[0]]), 6)


def test_truncated_planar_code_fails(triangulations6):
    with pytest.raises(CheckFailed, match="truncated"):
        checks.check_triangulation_code(
            _planar_code(triangulations6)[:-3], 6)


def test_min_degree5_census():
    ico = nx.icosahedral_graph()
    assert checks.check_min_degree5(_g6([ico]), 12) == 1
    with pytest.raises(CheckFailed, match="census"):
        checks.check_min_degree5("", 12)
    with pytest.raises(CheckFailed, match="census"):
        checks.check_min_degree5(_g6([ico, ico]), 12)
    dented = ico.copy()
    dented.remove_edge(*next(iter(ico.edges())))
    with pytest.raises(CheckFailed, match="not a triangulation"):
        checks.check_min_degree5(_g6([dented]), 12)


def _cert(claim_id, witnesses=(), verdict="verified", **counts):
    return json.dumps({
        "claim_id": claim_id, "verdict": verdict, "exhaustive": True,
        "witnesses": [_g6([w]) for w in witnesses], "counts": counts,
    }) + "\n"


def test_pr_lower_witness():
    c5 = nx.cycle_graph(5)  # complement C5: no K4 = W3
    text = _cert("pr.lower.w3", [c5], claimed_pr=6)
    assert checks.check_pr_lower(text, 3) == 5
    # degree argument: the complement of C5 has maximum degree 2
    assert checks.check_pr_lower(_cert("pr.lower.w7", [c5], claimed_pr=6),
                                 7) == 5


def test_pr_lower_complement_with_wheel_fails():
    # complement of a perfect matching on 6 vertices is the octahedron, which
    # contains W4
    matching = nx.Graph([(0, 1), (2, 3), (4, 5)])
    with pytest.raises(CheckFailed, match="contains W4"):
        checks.check_pr_lower(_cert("pr.lower.w4", [matching], claimed_pr=7),
                              4)
    with pytest.raises(CheckFailed, match="contains W3"):
        checks.check_pr_lower(
            _cert("pr.lower.w3", [nx.empty_graph(5)], claimed_pr=6), 3)


def test_pr_lower_witness_with_c4_fails():
    with pytest.raises(CheckFailed, match="contains a C4"):
        checks.check_pr_lower(
            _cert("pr.lower.w3", [nx.cycle_graph(4)], claimed_pr=5), 3)


def test_refuted_certificate_fails():
    text = _cert("pr.lower.w3", [nx.cycle_graph(5)], verdict="refuted",
                 claimed_pr=6)
    with pytest.raises(CheckFailed, match="refuted"):
        checks.check_pr_lower(text, 3)
    with pytest.raises(CheckFailed, match="infeasible"):
        checks.check_lemmas(_cert("lemmas", verdict="infeasible"))


def test_pr_upper_host_must_follow_lower_witness():
    text = _cert("pr.upper.w4.n9", maximal_classes=87)
    checks.check_pr_upper(text, 4, 9, 8)
    with pytest.raises(CheckFailed, match="not one above"):
        checks.check_pr_upper(text, 4, 9, 7)
    with pytest.raises(CheckFailed, match="not one above"):
        checks.check_pr_upper(text, 4, 9, None)
    with pytest.raises(CheckFailed, match="swept no hosts"):
        checks.check_pr_upper(_cert("pr.upper.w4.n9", maximal_classes=0),
                              4, 9, 8)


def test_delta_witness():
    c9 = nx.cycle_graph(9)
    checks.check_delta(_cert("delta.n9", [c9], claimed_delta=2), 9)
    with pytest.raises(CheckFailed, match="minimum degree 3"):
        checks.check_delta(_cert("delta.n9", [c9], claimed_delta=3), 9)
    with pytest.raises(CheckFailed, match="wrong order"):
        checks.check_delta(_cert("delta.n10", [c9], claimed_delta=2), 10)


def test_lemma_violations_fail():
    checks.check_lemmas(_cert("lemmas", violations=0, lemma15=10))
    with pytest.raises(CheckFailed, match="violations"):
        checks.check_lemmas(_cert("lemmas", violations=1, lemma15=10))


def test_self_time_subtracts_children(tmp_path):
    spans = tracing.Spans()
    inner = spans.wrap(lambda: sum(range(20000)), "inner")
    outer = spans.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    spans.dump(tmp_path / "spans")
    totals = tracing.load(tmp_path / "spans")
    assert totals["outer"][0] == 1 and totals["inner"][0] == 3
    covered = spans.end[0] - spans.start[0]
    assert totals["outer"][1] + totals["inner"][1] == pytest.approx(covered)


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    per_layer = set(run.layer_metrics({})) | {
        "proc.cpu_s", "trace.wall_s"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "peak_rss_mb", "setup_s"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert m["unit"] == run.unit_of(m["name"])
