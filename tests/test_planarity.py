"""Embeddings, faces, the triangle-edge identity, and duals."""

import itertools
import random
import sys
from unittest import mock

import pytest

from planram import errors
from planram.graphs import Graph, bits, contains_c4
from planram.planarity import (
    PlaneEmbedding,
    c4free_edge_cap,
    cofacial_masks,
    edge_identity_residual,
    embed,
    gamma,
    is_planar,
    rotation_system,
    vertex_edge_dual,
    walks,
)

from oracles import (
    cyclic_garbage,
    networkx_rotation,
    path,
    recorded_search,
    reference_faces,
    wheel,
)


def agrees_with_networkx(g: Graph) -> bool:
    """Assert that the left-right port gives networkx's verdict and, when
    g is planar, networkx's rotation, and that the rotation is plane;
    returns the verdict."""
    expected = networkx_rotation(g)
    assert is_planar(g) == (expected is not None), g.adj
    if expected is None:
        with pytest.raises(errors.NotPlanar):
            rotation_system(g)
        return False
    rotation = rotation_system(g)
    assert rotation == expected, g.adj
    if g.is_connected():
        PlaneEmbedding(g, rotation)
    else:
        # V - E + F = 2 per component: no component sums below 2
        cofacial_masks(rotation, walks(rotation))
    return True


def subdivided(g: Graph, times: int) -> Graph:
    """g with each edge replaced by a path of times + 1 edges."""
    edges, n = [], g.n
    for u, v in g.edges():
        inner = list(range(n, n + times))
        n += times
        walk = [u, *inner, v]
        edges += zip(walk, walk[1:])
    return Graph.from_edges(n, edges)


K33 = Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])


def test_port_matches_networkx_on_every_small_graph():
    verdicts = []
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in itertools.product((0, 1), repeat=len(pairs)):
            g = Graph.from_edges(n, itertools.compress(pairs, chosen))
            verdicts.append(agrees_with_networkx(g))
    # K5 is the one non-planar labelled graph on at most 5 vertices
    assert len(verdicts) == 1 + 1 + 2 + 8 + 64 + 1024
    assert verdicts.count(False) == 1


def test_port_matches_networkx_on_random_graphs():
    rng = random.Random(20260419)
    verdicts = []
    for _ in range(600):
        n = rng.randint(6, 30)
        pairs = list(itertools.combinations(range(n), 2))
        m = rng.randint(n - 1, min(len(pairs), 3 * n - 6))
        verdicts.append(agrees_with_networkx(
            Graph.from_edges(n, rng.sample(pairs, m))))
    assert 100 < verdicts.count(True) < 500


def test_port_matches_networkx_on_non_cofacial_children():
    # the children the C4-free search embeds from scratch, since the new
    # edge's ends share no face of the parent's rotation
    from planram import enumeration
    from planram.enumeration import EnumerationTask, enumerate_c4free_planar

    children = []

    def recording(g):
        children.append(g)
        return rotation_system(g)

    with mock.patch.object(enumeration, "rotation_system", recording):
        for n in range(1, 10):
            enumerate_c4free_planar(EnumerationTask(n=n, mode="c4free_planar"))
    verdicts = [agrees_with_networkx(g) for g in children]
    # the search asks about planar and non-planar children alike
    assert True in verdicts and False in verdicts


def test_port_matches_networkx_on_kuratowski_graphs():
    for g in (Graph.complete(5), K33):
        for times in (1, 2):
            assert not agrees_with_networkx(subdivided(g, times))
        for isolated in (1, 3):
            h = Graph(g.n + isolated, g.adj + (0,) * isolated)
            assert not agrees_with_networkx(h)
        # one edge fewer is planar
        u, v = next(g.edges())
        rows = list(g.adj)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        assert agrees_with_networkx(Graph(g.n, tuple(rows)))


def test_port_matches_networkx_on_disconnected_graphs():
    # K4 + C5 + an isolated vertex + a path, and two wheels side by side
    parts = [Graph.complete(4), Graph.cycle(5), Graph.empty(1), path(4),
             wheel(5), wheel(6)]
    rows, offset = [], 0
    for part in parts:
        rows += [row << offset for row in part.adj]
        offset += part.n
    g = Graph(offset, tuple(rows))
    assert not g.is_connected() and agrees_with_networkx(g)
    assert agrees_with_networkx(Graph.empty(7))
    # a disconnected graph with one non-planar component is not planar
    k5 = Graph.complete(5)
    assert not agrees_with_networkx(
        Graph(9, Graph.cycle(4).adj + tuple(r << 4 for r in k5.adj)))


def test_port_matches_networkx_on_seeds_and_witnesses():
    from planram.construct import (
        SEED_NAMES,
        build_delta_witness,
        build_ramsey_lower_witness,
        load_seed,
    )

    graphs = [load_seed(name).base for name in SEED_NAMES]
    graphs += [build_delta_witness(n).embedding.base for n in range(5, 65)]
    graphs += [build_ramsey_lower_witness(m).base for m in range(3, 12)]
    assert max(g.n for g in graphs) == 64
    assert all(agrees_with_networkx(g) for g in graphs)
    # the largest witnesses plus one edge, planar or not
    rng = random.Random(64)
    for g in graphs[-20:]:
        u, v = rng.sample(range(g.n), 2)
        if not g.has_edge(u, v):
            agrees_with_networkx(g.add_edge(u, v))


def test_port_matches_networkx_on_the_atlas_of_orders_6_and_7():
    import networkx as nx

    verdicts = [agrees_with_networkx(Graph.from_edges(h.order(), h.edges()))
                for h in nx.graph_atlas_g() if h.order() in (6, 7)]
    assert len(verdicts) == 156 + 1044
    assert verdicts.count(True) == 964


def test_port_matches_networkx_on_triangulations_plus_an_edge():
    from planram.enumeration import EnumerationTask, enumerate_triangulations

    verdicts = []
    for n in range(4, 10):
        task = EnumerationTask(n=n, mode="triangulation")
        for g in enumerate_triangulations(task).graphs:
            assert agrees_with_networkx(g)
            verdicts += [agrees_with_networkx(g.add_edge(u, v))
                         for u, v in itertools.combinations(range(n), 2)
                         if not g.has_edge(u, v)]
    # a triangulation plus any edge has more than 3n - 6 edges
    assert len(verdicts) == 927 and not any(verdicts)


def stacked_triangulation(n: int) -> Graph:
    """Vertex v joined to v - 1, v - 2 and v - 3: a triangulation whose
    DFS from 0 is one path through every vertex."""
    return Graph.from_edges(n, [(v, v - k) for v in range(1, n)
                                for k in (1, 2, 3) if v >= k])


def stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_port_runs_within_100_frames_on_order_64():
    # the DFS phases recurse once per tree edge, so at most 64 calls deep,
    # and on these graphs the ref chains _sign follows stay short
    graphs = [path(64), Graph.cycle(64), stacked_triangulation(64)]
    assert graphs[-1].edge_count == 3 * 64 - 6
    graphs += [g.add_edge(0, 32) for g in graphs]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        verdicts = [agrees_with_networkx(g) for g in graphs]
    finally:
        sys.setrecursionlimit(limit)
    assert verdicts == [True] * 5 + [False]


def test_left_right_leaves_no_reference_cycle():
    g = stacked_triangulation(64)
    assert cyclic_garbage(lambda: rotation_system(g)) == 0
    # K3,3 is within the edge bound, so the DFS runs and rejects it
    assert cyclic_garbage(lambda: is_planar(K33)) == 0


def test_is_planar():
    assert is_planar(Graph.complete(4))
    assert not is_planar(Graph.complete(5))
    k33 = Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    assert not is_planar(k33)


def test_embed_faces_euler():
    for g in (Graph.cycle(5), wheel(6), Graph.complete(4)):
        e = embed(g)
        assert g.n - g.edge_count + len(e.faces) == 2
    e = embed(Graph.cycle(7))
    assert sorted(len(f) for f in e.faces) == [7, 7]
    e = embed(Graph.complete(4))
    assert sorted(len(f) for f in e.faces) == [3, 3, 3, 3]


def test_embed_rejects_nonplanar():
    with pytest.raises(errors.NotPlanar):
        embed(Graph.complete(5))


def test_cofacial_masks_are_sound():
    from planram.enumeration import EnumerationTask

    for n in range(1, 8):
        task = EnumerationTask(n=n, mode="c4free_planar")
        # the rotations the search carries, at every state it visits
        for g, rot in recorded_search(task).states:
            masks = cofacial_masks(rot, walks(rot))
            for v in range(n):
                assert not masks[v] >> v & 1
                others = ((1 << n) - 1) & ~g.component_mask(v)
                assert masks[v] & others == others
                for w in range(n):
                    assert masks[v] >> w & 1 == masks[w] >> v & 1
                    if w != v and masks[v] >> w & 1 \
                            and not g.has_edge(v, w):
                        assert is_planar(g.add_edge(v, w)), (g.adj, v, w)


def test_cofacial_masks_of_triangulations_are_their_adjacency():
    # every face is a triangle, so only neighbours share a face, and no
    # edge can be added: here a set bit on a non-edge would be unsound
    from planram.enumeration import EnumerationTask, enumerate_triangulations

    for n in range(4, 9):
        task = EnumerationTask(n=n, mode="triangulation")
        r = enumerate_triangulations(task)
        for g, rot in zip(r.graphs, r.embeddings):
            assert cofacial_masks(rot, walks(rot)) == g.adj


def test_cofacial_masks_small_cases():
    # every pair of a tree or a cycle shares the one or two faces
    for g in (path(5), Graph.cycle(6)):
        rot = rotation_system(g)
        assert cofacial_masks(rot, walks(rot)) == tuple(
            ((1 << g.n) - 1) & ~(1 << v) for v in range(g.n))
    # K4 plus an isolated vertex: all triangles are faces, and the extra
    # vertex is in another component
    g = Graph.from_edges(5, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    rot = rotation_system(g)
    assert cofacial_masks(rot, walks(rot)) == (
        0b11110, 0b11101, 0b11011, 0b10111, 0b01111)
    # K_{2,4} puts two of its four degree-2 vertices opposite each other
    # in any embedding, yet joining them keeps the graph planar: a clear
    # bit proves nothing
    k24 = Graph.from_edges(6, [(i, j) for i in (0, 1) for j in (2, 3, 4, 5)])
    rot = rotation_system(k24)
    masks = cofacial_masks(rot, walks(rot))
    clear = [(v, w) for v in range(2, 6) for w in range(v + 1, 6)
             if not masks[v] >> w & 1]
    assert len(clear) == 2
    assert all(is_planar(k24.add_edge(v, w)) for v, w in clear)
    # K5 has no plane rotation, and masks are refused for any other
    with pytest.raises(errors.NotPlanar):
        rotation_system(Graph.complete(5))
    k5 = tuple(tuple(u for u in range(5) if u != v) for v in range(5))
    faces = walks(k5)
    with pytest.raises(errors.NotPlanar):
        cofacial_masks(k5, faces)


def test_walks_match_the_reference_tracer():
    from planram.construct import SEED_NAMES, load_seed
    from planram.enumeration import (
        EnumerationTask,
        enumerate_c4free_planar,
        enumerate_triangulations,
    )

    states = [(e.base, e.rotation) for e in map(load_seed, SEED_NAMES)]
    for n in range(1, 9):
        # every carried rotation, disconnected ones too: the search emits
        # each state it visits
        r = enumerate_c4free_planar(EnumerationTask(n=n, mode="c4free_planar"))
        states += zip(r.graphs, r.embeddings)
    for n in range(4, 9):
        r = enumerate_triangulations(EnumerationTask(n=n, mode="triangulation"))
        states += zip(r.graphs, r.embeddings)
    assert len(states) == len(SEED_NAMES) + 545 + 23
    for g, rot in states:
        assert walks(rot) == reference_faces(rot)
        if not g.is_connected():
            continue
        e = PlaneEmbedding(g, rot)
        if g.n == 1:
            assert e.faces == ((),)  # one face and no dart
        else:
            assert list(e.faces) == walks(rot)
        darts = [d for f in e.faces for d in f]
        assert len(e.face_of) == len(darts) == 2 * g.edge_count
        for face in e.faces:
            for dart in face:
                assert e.face_of[dart] is face


def test_invalid_rotation_detected():
    g = Graph.cycle(4)
    # rotation listing a non-neighbor
    bad = ((1, 2), (0, 2), (1, 3), (2, 0))
    with pytest.raises(ValueError):
        PlaneEmbedding(g, bad)
    # a PlaneEmbedding is plane by construction: K4's sorted rotation lists
    # every neighbour but traces two faces, not four
    k4 = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
    with pytest.raises(errors.NotPlanar):
        PlaneEmbedding(Graph.complete(4), k4)
    # two disjoint K2s: each component is drawn, but not as one graph
    with pytest.raises(errors.NotPlanar):
        PlaneEmbedding(Graph.from_edges(4, [(0, 1), (2, 3)]),
                       ((1,), (0,), (3,), (2,)))
    # K3,3 has no plane rotation
    k33 = Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    with pytest.raises(errors.NotPlanar):
        PlaneEmbedding(k33, tuple(tuple(bits(row)) for row in k33.adj))


def test_gamma():
    bowtie = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2),
                                  (2, 3), (2, 4), (3, 4)])
    assert gamma(bowtie) == ()
    star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
    assert gamma(star) == ((0, 1), (0, 2), (0, 3), (0, 4))


def test_edge_cap_and_bound():
    assert c4free_edge_cap(9) == 15
    assert c4free_edge_cap(30) == 60


def test_identity_residual_zero_cases():
    # seeds and simple graphs where the identity does balance
    for g in (Graph.cycle(5), Graph.cycle(9)):
        assert edge_identity_residual(embed(g)) == 0
    bowtie = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2),
                                  (2, 3), (2, 4), (3, 4)])
    assert edge_identity_residual(embed(bowtie)) == 0


def test_identity_residual_counterexamples():
    # the claimed identity fails on these connected C4-free planar graphs,
    # under every embedding for the first three (their embeddings are
    # unique up to reflection)
    assert edge_identity_residual(embed(Graph.complete(2))) == 9
    assert edge_identity_residual(embed(path(3))) == 3
    assert edge_identity_residual(embed(Graph.cycle(3))) == 6


def test_identity_residual_embedding_dependent():
    # 2-connected: a triangle 0-1-2 with two longer 0..1 paths; one
    # embedding balances, another does not
    g = Graph.from_edges(9, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4),
                             (4, 5), (5, 1), (0, 6), (6, 7), (7, 8), (8, 1)])
    rotation = ((1, 3, 2, 6), (0, 8, 2, 5), (0, 1), (0, 4), (3, 5),
                (4, 1), (0, 7), (6, 8), (7, 1))
    e = PlaneEmbedding(g, rotation)
    assert edge_identity_residual(e) == -6
    assert edge_identity_residual(embed(g)) == 0


def test_identity_residual_rejects_bad_input():
    with pytest.raises(errors.NotC4Free):
        edge_identity_residual(embed(Graph.complete(4)))
    disconnected = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    with pytest.raises(errors.Disconnected):
        embed(disconnected)


def test_vertex_edge_dual():
    # two pentagons of C5: they share all five vertices and all edges,
    # so they are not adjacent in the dual
    d = vertex_edge_dual(embed(Graph.cycle(5)))
    assert d.n == 2 and d.edge_count == 0


def test_face_census():
    e = embed(wheel(5))
    assert e.face_census() == {3: 5, 5: 1}


def test_dual_of_dodecahedron_is_icosahedron():
    # twelve pentagon faces, any two adjacent ones share exactly one edge
    faces = [(0, 1, 2, 3, 4), (0, 5, 10, 6, 1), (1, 6, 11, 7, 2),
             (2, 7, 12, 8, 3), (3, 8, 13, 9, 4), (4, 9, 14, 5, 0),
             (10, 15, 16, 11, 6), (11, 16, 17, 12, 7), (12, 17, 18, 13, 8),
             (13, 18, 19, 14, 9), (14, 19, 15, 10, 5), (15, 19, 18, 17, 16)]
    edges = set()
    for f in faces:
        for i in range(5):
            u, v = f[i], f[(i + 1) % 5]
            edges.add((min(u, v), max(u, v)))
    dod = Graph.from_edges(20, sorted(edges))
    assert dod.edge_count == 30 and dod.min_degree() == dod.max_degree() == 3
    d = vertex_edge_dual(embed(dod))
    assert d.n == 12 and d.edge_count == 30
    assert d.min_degree() == d.max_degree() == 5


def test_gamma_dichotomy_on_min_degree_4_seeds():
    # the edges-outside-triangles count is 0 or at least 5 on every
    # minimum-degree-4 seed
    from planram.construct import load_seed

    for name in ("fig8a", "fig8b", "fig8c", "fig8d", "fig8e"):
        tau = len(gamma(load_seed(name).base))
        assert tau == 0 or tau >= 5
