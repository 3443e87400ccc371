"""Reference code the tests compare planram against.

Nothing in planram calls these; they build test graphs, check witnesses
and results by brute force or by replaying them, and stay small enough
to audit by eye.  They test planarity with networkx, never with the
package's own test.
"""

import gc
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations
from unittest import mock

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

from planram import enumeration, errors
from planram.canon import canonical_form
from planram.construct import apply_op, resolve_seed
from planram.graphs import Graph, bits, contains_c4
from planram.planarity import PlaneEmbedding


def cyclic_garbage(call, times: int = 100) -> int:
    """The objects the cyclic collector frees after times calls of call
    made with the collector off: reference cycles the calls left."""
    gc.collect()
    gc.disable()
    try:
        for _ in range(times):
            call()
        return gc.collect()
    finally:
        gc.enable()


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def wheel(m: int) -> Graph:
    """Hub vertex ``m`` joined to every vertex of an m-cycle ``0..m-1``."""
    edges = [(i, (i + 1) % m) for i in range(m)] + [(i, m) for i in range(m)]
    return Graph.from_edges(m + 1, edges)


def relabel(g: Graph, perm) -> Graph:
    """Apply ``perm`` (old label -> new label) to the vertex set."""
    rows = [0] * g.n
    for v, row in enumerate(g.adj):
        new = 0
        for u in bits(row):
            new |= 1 << perm[u]
        rows[perm[v]] = new
    return Graph(g.n, tuple(rows))


def validates_in(witness, g: Graph) -> bool:
    """True iff the WheelWitness names a wheel of g: hub adjacent to
    every rim vertex, and the rim a cycle of distinct vertices."""
    m = len(witness.rim)
    if len(set(witness.rim)) != m or witness.hub in witness.rim:
        return False
    for i, v in enumerate(witness.rim):
        if not g.has_edge(witness.hub, v):
            return False
        if not g.has_edge(v, witness.rim[(i + 1) % m]):
            return False
    return True


def brute_force_isomorphic(a: Graph, b: Graph) -> bool:
    """Permutation search isomorphism test (small n)."""
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    if sorted(a.degrees()) != sorted(b.degrees()):
        return False
    for perm in permutations(range(a.n)):
        if all(
            a.has_edge(u, v) == b.has_edge(perm[u], perm[v])
            for u, v in combinations(range(a.n), 2)
        ):
            return True
    return False


def replay(trace) -> PlaneEmbedding:
    """Re-apply a ConstructionTrace's operations to its seed."""
    e = resolve_seed(trace.seed)
    for op in trace.ops:
        e = apply_op(e, op)
    return e


def operation_b_inverse(e: PlaneEmbedding, edge: tuple[int, int]) -> PlaneEmbedding:
    """Merge two adjacent degree-3 vertices back into one degree-4 vertex."""
    g = e.base
    v1, v2 = edge
    if not g.has_edge(v1, v2):
        raise errors.BadInput(f"{edge} is not an edge")
    if g.degree(v1) != 3 or g.degree(v2) != 3:
        raise errors.BadInput("both endpoints must have degree 3")
    if g.adj[v1] & g.adj[v2]:
        raise errors.BadInput("merge would create a multiedge")
    r1 = e.rotation[v1]
    r2 = e.rotation[v2]
    i1, i2 = r1.index(v2), r2.index(v1)
    # splice v2's other neighbours into v1's rotation in place of v2
    spliced = (
        r1[:i1]
        + tuple(r2[(i2 + 1 + k) % 3] for k in range(2))
        + r1[i1 + 1 :]
    )
    new_rot = list(e.rotation)
    new_rot[v1] = spliced
    for x in r2:
        if x != v1:
            new_rot[x] = tuple(v1 if y == v2 else y for y in new_rot[x])
    del new_rot[v2]
    # compact labels: shift everything above v2 down by one
    def fix(x):
        return x - 1 if x > v2 else x
    new_rot = tuple(tuple(fix(x) for x in rw) for rw in new_rot)
    edges = set()
    for a, b in g.edges():
        if (a, b) == tuple(sorted((v1, v2))):
            continue
        a = v1 if a == v2 else a
        b = v1 if b == v2 else b
        if a != b:
            edges.add((min(fix(a), fix(b)), max(fix(a), fix(b))))
    child = Graph.from_edges(g.n - 1, sorted(edges))
    try:
        merged = PlaneEmbedding(child, new_rot)
    except errors.NotPlanar as ex:
        raise errors.PropertyViolation(f"operation B inverse: {ex}") from None
    if contains_c4(merged.base):
        raise errors.PropertyViolation("operation B inverse: created a C4")
    return merged


def to_networkx(g: Graph) -> nx.Graph:
    """g as a networkx graph whose adjacency lists are in ascending order."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def networkx_is_planar(g: Graph) -> bool:
    return nx.is_planar(to_networkx(g))


def networkx_rotation(g: Graph):
    """networkx's clockwise rotation system of g, or None when g is not
    planar."""
    planar, emb = nx.check_planarity(to_networkx(g))
    if not planar:
        return None
    return tuple(tuple(emb.neighbors_cw_order(v)) if g.degree(v) else ()
                 for v in range(g.n))


def mckay_canonical_edges(g: Graph, edges, invariant):
    """The edges McKay's canonical-edge rule accepts as the created edge
    of g: the orbit of the edge of least invariant(g, x, y) whose labels
    under g's canonical labelling form the least sorted pair, under every
    automorphism networkx's matcher finds."""
    ranks = {e: invariant(g, *e) for e in edges}
    best = min(ranks.values())
    least = [e for e, rank in ranks.items() if rank == best]
    if len(least) == 1:
        return set(least)  # an automorphism keeps every invariant
    label = canonical_form(g).permutation
    x, y = min(least, key=lambda e: sorted(label[v] for v in e))
    h = to_networkx(g)
    return {tuple(sorted((perm[x], perm[y])))
            for perm in GraphMatcher(h, h).isomorphisms_iter()}


def maximal_c4free_planar(g: Graph) -> bool:
    """True iff every non-edge of the C4-free planar graph g gives a child
    that contains a C4 or is not planar."""
    for u, v in combinations(range(g.n), 2):
        if g.has_edge(u, v):
            continue
        child = g.add_edge(u, v)
        if not contains_c4(child) and networkx_is_planar(child):
            return False
    return True


def c4free_planar_closure(n_max: int) -> list[dict]:
    """Per order k = 1..n_max, a representative Graph of each C4-free
    planar class on k vertices, keyed by canonical form.

    Both properties are hereditary, so each class of order k is a class
    of order k - 1 plus a vertex v.  G + v is C4-free iff no two
    neighbours of v share a neighbour in G, that is iff v's neighbours
    have pairwise disjoint rows; networkx judges planarity."""
    levels = [{canonical_form(Graph(1, (0,))).form: Graph(1, (0,))}]
    while len(levels) < n_max:
        grown = {}
        for g in levels[-1].values():
            for mask in range(1 << g.n):
                covered = 0
                for u in bits(mask):
                    if g.adj[u] & covered:
                        break
                    covered |= g.adj[u]
                else:
                    rows = [row | (mask >> u & 1) << g.n
                            for u, row in enumerate(g.adj)]
                    child = Graph(g.n + 1, (*rows, mask))
                    form = canonical_form(child).form
                    if form not in grown and networkx_is_planar(child):
                        grown[form] = child
        levels.append(grown)
    return levels


@cache
def brute_force_triangulation_count(n: int) -> int:
    """The classes of simple triangulations of order n, found among all
    graphs with n vertices and 3n - 6 edges.

    Such a graph is a triangulation in every plane embedding or in none,
    so networkx and the face trace are asked once per class."""
    target = 3 * n - 6
    pairs = list(combinations(range(n), 2))
    verdicts = {}  # canonical form -> is a triangulation
    for combo in combinations(range(len(pairs)), target):
        g = Graph.from_edges(n, [pairs[i] for i in combo])
        if g.min_degree() < 3 or not g.is_connected():
            continue
        form = canonical_form(g).form
        if form not in verdicts:
            rotation = networkx_rotation(g)
            verdicts[form] = rotation is not None and all(
                len(f) == 3 for f in reference_faces(rotation))
    return sum(verdicts.values())


def reference_faces(rotation):
    """The dart walk of each face of a rotation system, traced through a
    dart index and a seen set, in the order of their first darts."""
    index = {
        (v, u): i
        for v, nbrs in enumerate(rotation)
        for i, u in enumerate(nbrs)
    }
    seen = set()
    faces = []
    for start in index:
        if start in seen:
            continue
        walk = []
        dart = start
        while dart not in seen:
            seen.add(dart)
            walk.append(dart)
            u, v = dart
            nbrs = rotation[v]
            dart = (v, nbrs[(index[(v, u)] + 1) % len(nbrs)])
        faces.append(tuple(walk))
    return faces


def triangulation_check(g: Graph, rotation) -> None:
    """Raise unless the rotation system is a simple triangulation embedding."""
    e = PlaneEmbedding(g, rotation)
    if g.edge_count != 3 * g.n - 6:
        raise errors.NotPlanar("edge count is not 3n-6")
    if any(len(f) != 3 for f in e.faces):
        raise errors.NotPlanar("non-triangular face")


@dataclass
class Recording:
    result: enumeration.EnumerationResult
    states: list  # the (graph, rotation) state of every node visited
    automorphisms: list  # the automorphisms the search hands each state
    built: list  # every child the search builds
    duplicates: int  # children isomorphic to an earlier sibling


def recorded_search(task) -> Recording:
    """Run the search of task, C4-free or triangulation, and record every
    node it visits, with its automorphisms, every child it builds (each
    ``Graph._trusted`` call) and how many of its children are isomorphic
    to an earlier sibling."""
    record = Recording(None, [], [], [], 0)
    search, trusted = enumeration._search, Graph._trusted

    def recording_search(roots, visit, budget):
        def recorded(state, automorphisms):
            record.states.append(state)
            record.automorphisms.append(automorphisms)
            emit, children = visit(state, automorphisms)
            children = list(children)
            forms = {cf.form for cf, _ in children}
            record.duplicates += len(children) - len(forms)
            return emit, children
        return search(roots, recorded, budget)

    def recording_trusted(n, adj):
        g = trusted(n, adj)
        record.built.append(g)
        return g

    with mock.patch.object(enumeration, "_search", recording_search), \
            mock.patch.object(Graph, "_trusted",
                              staticmethod(recording_trusted)):
        if task.mode == "triangulation":
            record.result = enumeration.enumerate_triangulations(task)
        else:
            record.result = enumeration.enumerate_c4free_planar(task)
    return record


def orbit_closure(automorphisms, items):
    """For each item, the index of the first item of its orbit, found by
    closing the item under the automorphisms one image at a time.

    An item is a tuple of vertices whose last two are an unordered pair.
    Raises KeyError when an image is not among the items."""
    def key(item):
        return (*item[:-2], frozenset(item[-2:]))

    index = {key(item): k for k, item in enumerate(items)}
    first = []
    for item in items:
        orbit, todo = {key(item)}, [item]
        while todo:
            x = todo.pop()
            for perm in automorphisms:
                image = tuple(perm[v] for v in x)
                if key(image) not in orbit:
                    orbit.add(key(image))
                    todo.append(image)
        first.append(min(index[k] for k in orbit))
    return first
