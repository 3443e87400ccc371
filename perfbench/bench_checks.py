"""Output checks for the benchmark, written against networkx only.

Nothing here imports planram: every check recomputes the property it asserts
from the bytes the CLI printed, so a fault in planram cannot also hide in the
check. Each check raises CheckFailed with a one-line reason.

Reference values are published ones, never stored program output:
- plane triangulations (A000109): 1249 classes on 11 vertices, 7595 on 12;
- minimum-degree-5 triangulations (plantri census, Brinkmann and McKay,
  MATCH 58, 2007): 1 class on 14 and 15 vertices, 3 on 16;
- the C4-free planar class list is checked for completeness structurally
  (it holds the empty graph and is closed under admissible edge additions).
"""

from __future__ import annotations

import json
import warnings

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

TRIANGULATIONS = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233, 11: 1249,
                  12: 7595}
MIN_DEGREE5_TRIANGULATIONS = {12: 1, 13: 0, 14: 1, 15: 1, 16: 3, 17: 4}

# the hashes only bucket graphs within one run, so the hash change in
# networkx 3.5 it warns about does not matter here
warnings.filterwarnings("ignore", message="The hashes produced",
                        category=UserWarning)


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(ok, reason):
    if not ok:
        raise CheckFailed(reason)


# -- decoding ---------------------------------------------------------------


def read_graph6(text: str) -> list[nx.Graph]:
    graphs = []
    for line in text.split():
        try:
            graphs.append(nx.from_graph6_bytes(line.encode()))
        except (nx.NetworkXError, ValueError) as exc:
            raise CheckFailed(f"undecodable graph6 line {line!r}: {exc}")
    return graphs


def read_planar_code(blob: bytes) -> list[list[list[int]]]:
    """Rotation systems (0-based neighbour lists) from a planar_code stream."""
    header = b">>planar_code<<"
    _require(blob.startswith(header), "planar_code header missing")
    i = len(header)
    rotations = []
    try:
        while i < len(blob):
            n = blob[i]
            i += 1
            _require(n > 0, "planar_code record with zero vertices")
            rotation = []
            for _ in range(n):
                nbrs = []
                while blob[i] != 0:
                    nbrs.append(blob[i] - 1)
                    i += 1
                i += 1
                rotation.append(nbrs)
            rotations.append(rotation)
    except IndexError:
        raise CheckFailed("truncated planar_code stream")
    return rotations


def rotation_graph(rotation) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(len(rotation)))
    for v, nbrs in enumerate(rotation):
        g.add_edges_from((v, u) for u in nbrs)
    return g


# -- structural properties ----------------------------------------------------


def has_c4(g: nx.Graph) -> bool:
    """Some pair of vertices with two common neighbours closes a 4-cycle."""
    nbrs = {v: set(g[v]) for v in g}
    nodes = list(g)
    return any(
        len(nbrs[u] & nbrs[v]) >= 2
        for i, u in enumerate(nodes) for v in nodes[i + 1:]
    )


def closes_c4(nbrs, u, v) -> bool:
    """Would the edge uv close a 4-cycle u-a-b-v in a C4-free graph?"""
    return any(
        nbrs[a] & nbrs[v] - {u, a} for a in nbrs[u] - {v}
    )


def is_planar(g: nx.Graph) -> bool:
    return nx.check_planarity(g)[0]


def faces(rotation) -> list[int]:
    """Face lengths of a rotation system (dart u->v is followed by v->w, w
    the successor of u around v)."""
    position = [{u: i for i, u in enumerate(nbrs)} for nbrs in rotation]
    seen = set()
    lengths = []
    for v, nbrs in enumerate(rotation):
        for u in nbrs:
            length = 0
            dart = (v, u)
            while dart not in seen:
                seen.add(dart)
                length += 1
                a, b = dart
                around = rotation[b]
                dart = (b, around[(position[b][a] + 1) % len(around)])
            if length:
                lengths.append(length)
    return lengths


# -- isomorphism classes ----------------------------------------------------


def _invariant(g: nx.Graph):
    return (g.number_of_nodes(), g.number_of_edges(),
            tuple(sorted(d for _, d in g.degree())),
            nx.weisfeiler_lehman_graph_hash(g, iterations=3))


class ClassIndex:
    """Isomorphism classes bucketed by degree sequence and WL hash; graphs in
    one bucket are told apart by nx.is_isomorphic."""

    def __init__(self):
        self.buckets: dict = {}

    def find(self, g: nx.Graph, key=None):
        key = key or _invariant(g)
        for h in self.buckets.get(key, ()):
            if nx.is_isomorphic(g, h):
                return h
        return None

    def add(self, g: nx.Graph) -> bool:
        """Add g; False if an isomorphic graph is already present."""
        key = _invariant(g)
        if self.find(g, key) is not None:
            return False
        self.buckets.setdefault(key, []).append(g)
        return True


def check_distinct(graphs) -> ClassIndex:
    index = ClassIndex()
    for i, g in enumerate(graphs):
        _require(index.add(g), f"graph {i} duplicates an earlier class")
    return index


# -- per-workload checks -----------------------------------------------------


def check_c4free_classes(text: str, n: int) -> int:
    """graph6 list of every C4-free planar graph on n vertices.

    Completeness: the list holds the edgeless graph and is closed under adding any edge that keeps a member
    C4-free and planar. Both properties are hereditary under deleting edges,
    so every C4-free planar graph is reached from the edgeless one through
    members of the list.
    """
    graphs = read_graph6(text)
    _require(graphs, "no classes")
    for i, g in enumerate(graphs):
        _require(g.number_of_nodes() == n,
                 f"graph {i} has {g.number_of_nodes()} vertices, not {n}")
        _require(not has_c4(g), f"graph {i} contains a C4")
        _require(is_planar(g), f"graph {i} is not planar")
    index = check_distinct(graphs)
    _require(any(g.number_of_edges() == 0 for g in graphs),
             "the edgeless graph is missing")
    for i, g in enumerate(graphs):
        nbrs = {v: set(g[v]) for v in g}
        for u in range(n):
            for v in range(u + 1, n):
                if v in nbrs[u] or closes_c4(nbrs, u, v):
                    continue
                child = g.copy()
                child.add_edge(u, v)
                if is_planar(child) and index.find(child) is None:
                    raise CheckFailed(
                        f"graph {i} plus edge {u}-{v} is C4-free and planar "
                        "but its class is missing")
    return len(graphs)


def check_triangulation_code(blob: bytes, n: int) -> int:
    """planar_code stream of every plane triangulation on n vertices."""
    rotations = read_planar_code(blob)
    graphs = []
    for i, rotation in enumerate(rotations):
        _require(len(rotation) == n,
                 f"triangulation {i} has {len(rotation)} vertices, not {n}")
        for v, nbrs in enumerate(rotation):
            _require(len(set(nbrs)) == len(nbrs) and v not in nbrs
                     and all(0 <= u < n and v in rotation[u] for u in nbrs),
                     f"triangulation {i}: rotation at {v} is not simple")
        g = rotation_graph(rotation)
        lengths = faces(rotation)
        _require(all(k == 3 for k in lengths),
                 f"triangulation {i} has a face that is not a triangle")
        _require(n - g.number_of_edges() + len(lengths) == 2,
                 f"triangulation {i} violates n - e + f = 2")
        graphs.append(g)
    expected = TRIANGULATIONS[n]
    _require(len(graphs) == expected,
             f"{len(graphs)} triangulations on {n} vertices, A000109 says "
             f"{expected}")
    check_distinct(graphs)
    return len(graphs)


def check_min_degree5(text: str, n: int) -> int:
    """graph6 list of every triangulation on n vertices of minimum degree 5."""
    graphs = read_graph6(text)
    for i, g in enumerate(graphs):
        _require(g.number_of_nodes() == n, f"graph {i} has the wrong order")
        # a simple planar graph with 3n - 6 edges is a triangulation
        _require(g.number_of_edges() == 3 * n - 6 and is_planar(g),
                 f"graph {i} is not a triangulation")
        _require(min(d for _, d in g.degree()) == 5,
                 f"graph {i} does not have minimum degree 5")
    expected = MIN_DEGREE5_TRIANGULATIONS[n]
    _require(len(graphs) == expected,
             f"{len(graphs)} classes on {n} vertices, the census says "
             f"{expected}")
    check_distinct(graphs)
    return len(graphs)


# -- certificates -------------------------------------------------------------


def read_certificate(text: str) -> dict:
    lines = text.split("\n")
    _require(len(lines) == 2 and not lines[1], "expected one certificate line")
    try:
        cert = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"certificate is not JSON: {exc}")
    _require(cert.get("verdict") == "verified",
             f"{cert.get('claim_id')} is {cert.get('verdict')}, not verified")
    return cert


def _witness(cert: dict) -> nx.Graph:
    _require(len(cert["witnesses"]) == 1, "expected one witness")
    return read_graph6(cert["witnesses"][0])[0]


def _require_c4free_planar(g: nx.Graph, what: str):
    _require(not has_c4(g), f"{what} contains a C4")
    _require(is_planar(g), f"{what} is not planar")


def has_wheel(g: nx.Graph, rim: int) -> bool:
    """Is the wheel with a rim of length rim a subgraph of g?"""
    if max((d for _, d in g.degree()), default=0) < rim:
        return False  # the hub needs rim neighbours
    return GraphMatcher(g, nx.wheel_graph(rim + 1)).subgraph_is_monomorphic()


def check_pr_lower(text: str, wheel: int) -> int:
    """A verified lower-bound certificate; returns the witness order."""
    cert = read_certificate(text)
    _require(cert["claim_id"] == f"pr.lower.w{wheel}", "wrong claim id")
    g = _witness(cert)
    what = f"W{wheel} lower witness"
    _require_c4free_planar(g, what)
    _require(not has_wheel(nx.complement(g), wheel),
             f"the complement of the {what} contains W{wheel}")
    _require(g.number_of_nodes() == cert["counts"]["claimed_pr"] - 1,
             f"{what} is not one below the claimed value")
    return g.number_of_nodes()


def check_pr_upper(text: str, wheel: int, host: int, lower_order) -> None:
    """A verified upper bound at the host order one above the checked lower
    witness, so the two together pin PR(C4, W_wheel) = host."""
    cert = read_certificate(text)
    _require(cert["claim_id"] == f"pr.upper.w{wheel}.n{host}",
             "wrong claim id")
    _require(cert["exhaustive"] and cert["counts"]["maximal_classes"] > 0,
             "upper bound swept no hosts")
    _require(lower_order is not None and host == lower_order + 1,
             f"host order {host} is not one above the W{wheel} lower witness")


def check_delta(text: str, n: int) -> None:
    cert = read_certificate(text)
    _require(cert["claim_id"] == f"delta.n{n}", "wrong claim id")
    g = _witness(cert)
    delta = cert["counts"]["claimed_delta"]
    _require(g.number_of_nodes() == n, "delta witness has the wrong order")
    _require(min(d for _, d in g.degree()) == delta,
             f"delta witness does not have minimum degree {delta}")
    _require_c4free_planar(g, "delta witness")


def check_lemmas(text: str) -> None:
    cert = read_certificate(text)
    counts = cert["counts"]
    _require(counts["violations"] == 0, "lemma sweep found violations")
    _require(counts["lemma15"] > 0, "lemma sweep checked no graphs")
