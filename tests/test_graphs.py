"""Core graph type: constructors, subgraph detection, invariants."""

import itertools
import random

import pytest

from planram.graphs import (
    Graph,
    WheelWitness,
    adding_edge_creates_c4,
    connectivity,
    contains_c4,
    contains_wheel,
    cycle_of_length,
    independence_number,
)

from oracles import (
    brute_force_isomorphic,
    cyclic_garbage,
    path,
    relabel,
    validates_in,
    wheel,
)


def brute_contains_c4(g):
    """Reference C4 detector: try all ordered 4-tuples."""
    for quad in itertools.permutations(range(g.n), 4):
        a, b, c, d = quad
        if (g.has_edge(a, b) and g.has_edge(b, c)
                and g.has_edge(c, d) and g.has_edge(d, a)):
            return True
    return False


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


def test_constructors():
    assert Graph.cycle(5).edge_count == 5
    assert path(4).edge_count == 3
    assert Graph.complete(5).edge_count == 10
    w = wheel(4)  # hub is the last vertex
    assert w.n == 5
    assert w.degree(4) == 4
    assert sorted(w.degrees()) == [3, 3, 3, 3, 4]


def test_complement_involution():
    rng = random.Random(1)
    for _ in range(20):
        g = random_graph(7, 0.4, rng)
        assert g.complement().complement().adj == g.adj


def test_contains_c4_matches_brute_force():
    rng = random.Random(2)
    for _ in range(200):
        g = random_graph(6, 0.35, rng)
        assert contains_c4(g) == brute_contains_c4(g)


def test_adding_edge_creates_c4():
    g = path(4)  # 0-1-2-3
    assert adding_edge_creates_c4(g, 0, 3)
    assert not adding_edge_creates_c4(g, 0, 2)
    c5 = Graph.cycle(5)
    assert adding_edge_creates_c4(c5, 0, 2)


def test_cycle_of_length_positive():
    for k in range(3, 9):
        g = Graph.cycle(k)
        cyc = cycle_of_length(g, k)
        assert cyc is not None
        assert len(cyc) == k
        for i in range(k):
            assert g.has_edge(cyc[i], cyc[(i + 1) % k])


def test_cycle_search_leaves_no_reference_cycle():
    assert cyclic_garbage(lambda: cycle_of_length(Graph.cycle(8), 8)) == 0


def test_cycle_of_length_negative():
    assert cycle_of_length(Graph.cycle(6), 5) is None
    assert cycle_of_length(path(6), 3) is None
    # bipartite: no odd cycles
    k33 = Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    assert cycle_of_length(k33, 5) is None
    assert cycle_of_length(k33, 4) is not None
    assert cycle_of_length(k33, 6) is not None


def test_contains_wheel_basic():
    w5 = wheel(5)
    witness = contains_wheel(w5, 5)
    assert witness is not None
    assert validates_in(witness, w5)
    assert contains_wheel(w5, 4) is None  # C5 has no C4
    k6 = Graph.complete(6)
    for m in (3, 4, 5):
        witness = contains_wheel(k6, m)
        assert witness is not None and validates_in(witness, k6)


def test_contains_wheel_rejects_bad_witness():
    g = wheel(4)
    assert not validates_in(WheelWitness(0, (1, 2, 4)), Graph.cycle(5))
    assert validates_in(WheelWitness(4, (0, 1, 2, 3)), g)
    assert not validates_in(WheelWitness(4, (0, 2, 1, 3)), g)


def test_contains_wheel_range_errors():
    with pytest.raises(ValueError):
        contains_wheel(Graph.complete(4), 4)
    with pytest.raises(ValueError):
        contains_wheel(Graph.complete(4), 2)


def test_independence_number():
    assert independence_number(Graph.complete(6)) == 1
    assert independence_number(Graph.empty(5)) == 5
    assert independence_number(Graph.cycle(5)) == 2
    assert independence_number(Graph.cycle(6)) == 3
    assert independence_number(path(7)) == 4


def test_connectivity():
    assert connectivity(Graph.complete(5)) == 4
    assert connectivity(Graph.cycle(6)) == 2
    assert connectivity(path(4)) == 1
    two_comp = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert connectivity(two_comp) == 0
    k33 = Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    assert connectivity(k33) == 3


def test_induced_and_relabel():
    g = wheel(5)
    rim = g.induced(tuple(range(5)))
    assert brute_force_isomorphic(rim, Graph.cycle(5))
    perm = [3, 0, 5, 1, 4, 2]
    assert brute_force_isomorphic(g, relabel(g, perm))


def test_component_and_connected():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert not g.is_connected()
    assert g.component_mask(0) == 0b00111
    assert Graph.cycle(4).is_connected()
    assert Graph.empty(1).is_connected()
    assert not Graph.empty(0).is_connected()
