"""Canonical forms: label invariance and isomorphism decisions."""

import random
from itertools import combinations

import networkx as nx
from hypothesis import example, given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from planram.canon import _refine, canonical_form, marked_pair_form
from planram.graphs import Graph, bits

from oracles import (
    brute_force_isomorphic,
    cyclic_garbage,
    path,
    relabel,
    wheel,
)


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


def shuffle(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def serialize(g: Graph) -> bytes:
    """Vertex count byte followed by packed row-major upper-triangle bits:
    the byte layout of a canonical form, written out directly."""
    out = bytearray([g.n])
    acc = 0
    nbits = 0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            acc = acc << 1 | (g.adj[u] >> v & 1)
            nbits += 1
            if nbits == 8:
                out.append(acc)
                acc = nbits = 0
    if nbits:
        out.append(acc << (8 - nbits))
    return bytes(out)


def reference_refine(adj, cells):
    """The refinement as first written, vertex by vertex: the ordered
    partitions ``_refine`` must reproduce exactly."""
    cells = list(cells)
    work = list(cells)
    while work:
        splitter = work.pop()
        i = 0
        while i < len(cells):
            cell = cells[i]
            if cell.bit_count() > 1:
                groups: dict[int, int] = {}
                for v in bits(cell):
                    key = (adj[v] & splitter).bit_count()
                    groups[key] = groups.get(key, 0) | 1 << v
                if len(groups) > 1:
                    new = [groups[k] for k in sorted(groups)]
                    cells[i : i + 1] = new
                    work.extend(new)
                    i += len(new) - 1
            i += 1
    return cells


def reference_form(g, colors=None):
    """The canonical-form search as first written, on reference_refine
    with every cell as a splitter: (form, permutation) as
    ``canonical_form`` must give them."""
    groups = {}
    for v in range(g.n):
        c = colors.get(v, 0) if colors else 0
        groups[c] = groups.get(c, 0) | 1 << v
    best = []

    def descend(cells):
        for idx, cell in enumerate(cells):
            if cell.bit_count() > 1:
                tried = []
                for v in bits(cell):
                    if any(adj_twins(g, u, v) for u in tried):
                        continue
                    tried.append(v)
                    split = (cells[:idx] + [1 << v, cell & ~(1 << v)]
                             + cells[idx + 1:])
                    descend(reference_refine(g.adj, split))
                return
        perm = [0] * g.n
        for pos, cell in enumerate(cells):
            perm[cell.bit_length() - 1] = pos
        best.append((serialize(relabel(g, perm)), tuple(perm)))

    descend(reference_refine(g.adj, [groups[c] for c in sorted(groups)]))
    return min(best, key=lambda leaf: leaf[0])


def adj_twins(g, u, v):
    mask = ~((1 << u) | (1 << v))
    return g.adj[u] & mask == g.adj[v] & mask


def test_canonical_form_label_invariant():
    rng = random.Random(10)
    for _ in range(60):
        g = random_graph(rng.randint(1, 9), rng.random(), rng)
        assert canonical_form(g).form == canonical_form(shuffle(g, rng)).form


def test_form_equality_agrees_with_brute_force():
    rng = random.Random(11)
    for _ in range(120):
        a = random_graph(6, 0.4, rng)
        b = random_graph(6, 0.4, rng)
        same = canonical_form(a).form == canonical_form(b).form
        assert same == brute_force_isomorphic(a, b)


def test_distinguishes_regular_cospectral_pair():
    # two 3-regular graphs on 8 vertices that plain degree counting cannot
    # tell apart: the cube and K3,3 plus a perfect matching arrangement
    cube = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                                (4, 5), (5, 6), (6, 7), (7, 4),
                                (0, 4), (1, 5), (2, 6), (3, 7)])
    k4_pair = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                   (2, 3), (4, 5), (4, 6), (4, 7), (5, 6),
                                   (5, 7), (6, 7)])
    assert canonical_form(cube).form != canonical_form(k4_pair).form
    shuffled = shuffle(cube, random.Random(0))
    assert canonical_form(cube).form == canonical_form(shuffled).form


def test_marked_pair_form_orbit_invariance():
    # in C6 every edge is equivalent, so all marked forms agree
    g = Graph.cycle(6)
    forms = {marked_pair_form(g, u, v) for u, v in g.edges()}
    assert len(forms) == 1
    # in a path the end edge and middle edge are inequivalent
    p = path(4)
    assert marked_pair_form(p, 0, 1) != marked_pair_form(p, 1, 2)


def test_colors_split_orbits():
    g = Graph.cycle(6)
    colors = {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 1}
    colored = canonical_form(g, colors=colors).form
    # colouring is label invariant when permuted along with the graph
    shifted = {1: 0, 2: 1, 3: 0, 4: 1, 5: 0, 0: 1}
    assert canonical_form(relabel(g, [1, 2, 3, 4, 5, 0]),
                          colors=shifted).form == colored


def test_permutation_certifies_form():
    rng = random.Random(12)
    for _ in range(40):
        g = random_graph(7, 0.5, rng)
        cf = canonical_form(g)
        assert serialize(relabel(g, cf.permutation)) == cf.form


def test_search_finds_automorphisms_of_symmetric_graphs():
    # a leaf tie in C6, twin leaves in a star
    assert canonical_form(Graph.cycle(6)).automorphisms
    star = Graph.from_edges(5, [(0, v) for v in range(1, 5)])
    assert (0, 2, 1, 3, 4) in canonical_form(star).automorphisms
    # each once, in the order met: the search meets two of these twice
    matching = Graph.from_edges(4, [(0, 3), (1, 2)])
    assert canonical_form(matching).automorphisms == (
        (0, 2, 1, 3), (1, 0, 3, 2), (3, 1, 2, 0))


def group_order(n, generators):
    """The order of the permutation group on range(n) that generators
    generate, by closing the identity under them."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        p = todo.pop()
        for s in generators:
            q = tuple(s[x] for x in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return len(group)


def test_automorphisms_generate_the_whole_group():
    # the count networkx finds by brute force, for every atlas graph of
    # order 1 to 7, unmarked and with one marked pair
    rng = random.Random(7)
    checked = 0
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if not 1 <= n <= 7:
            continue
        g = Graph.from_edges(n, h.edges())
        marks = [{}]
        if n >= 2:
            u, v = rng.sample(range(n), 2)
            marks.append({u: 1, v: 1})
        for colors in marks:
            nx.set_node_attributes(h, {x: colors.get(x, 0) for x in h},
                                   "colour")
            matcher = GraphMatcher(
                h, h, node_match=lambda a, b: a["colour"] == b["colour"])
            expected = sum(1 for _ in matcher.isomorphisms_iter())
            cf = canonical_form(g, colors or None)
            assert group_order(n, cf.automorphisms) == expected, \
                (list(h.edges()), colors)
            checked += 1
    assert checked == 1252 + 1251


@st.composite
def coloured_graphs(draw):
    """A graph of order 1 to 12, a colouring or None, a relabelling, a
    vertex pair and an ordered partition."""
    n = draw(st.integers(1, 12))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = Graph.from_edges(n, edges)
    if draw(st.booleans()):
        g = g.complement()
    colors = draw(st.none() | st.lists(
        st.integers(0, 2), min_size=n, max_size=n).map(
            lambda cs: dict(enumerate(cs))))
    perm = draw(st.permutations(range(n)))
    u, v = draw(st.sampled_from(pairs)) if pairs else (0, 0)
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    cells = [sum(1 << x for x in range(n) if labels[x] == c)
             for c in draw(st.permutations(range(4)))]
    return g, colors, perm, (u, v), [c for c in cells if c]


@settings(max_examples=300, deadline=None)
@given(coloured_graphs())
@example((Graph.cycle(8), None, [3, 4, 5, 6, 7, 0, 1, 2], (0, 1),
          [0xFF]))
@example((Graph.complete(5), {0: 1}, [4, 3, 2, 1, 0], (0, 2),
          [0b11, 0b11100]))
@example((Graph.empty(6), None, [1, 0, 2, 3, 5, 4], (1, 4), [0b111111]))
@example((wheel(6), {6: 2, 0: 1}, [6, 5, 4, 3, 2, 1, 0], (0, 6),
          [0b1000000, 0b111111]))
def test_canon_oracle(case):
    g, colors, perm, (u, v), cells = case
    h = relabel(g, perm)
    moved = None if colors is None else {
        perm[x]: c for x, c in colors.items()}
    cf = canonical_form(g, colors)
    # the forms and permutations of the reference search
    assert (cf.form, cf.permutation) == reference_form(g, colors)
    # label invariance, colours permuted along
    assert canonical_form(h, moved).form == cf.form
    if u != v:
        assert marked_pair_form(g, u, v) == \
            marked_pair_form(h, perm[u], perm[v])
    # the permutation certifies the form
    assert serialize(relabel(g, cf.permutation)) == cf.form
    # every reported automorphism is one, reported once, and keeps colours
    colour = [colors.get(x, 0) if colors else 0 for x in range(g.n)]
    assert len(set(cf.automorphisms)) == len(cf.automorphisms)
    for auto in cf.automorphisms:
        assert sorted(auto) == list(range(g.n))
        assert relabel(g, auto).adj == g.adj
        assert all(colour[x] == colour[auto[x]] for x in range(g.n))
    # refinement reproduces the reference ordered partitions
    initial = [sum(1 << x for x in range(g.n) if colour[x] == c)
               for c in sorted(set(colour))]
    for start in (initial, cells):
        assert _refine(g.adj, start) == reference_refine(g.adj, start)


def test_search_leaves_no_reference_cycle():
    assert cyclic_garbage(lambda: canonical_form(Graph.cycle(8))) == 0
