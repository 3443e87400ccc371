"""Reference code the tests compare planram against.

Nothing in planram calls these; they build test graphs, check witnesses
and results by brute force or by replaying them, and stay small enough
to audit by eye.
"""

from itertools import combinations, permutations

from planram import errors
from planram.construct import apply_op, resolve_seed
from planram.graphs import Graph, bits
from planram.planarity import PlaneEmbedding


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


def triangulation_check(g: Graph, rotation) -> None:
    """Raise unless the rotation system is a simple triangulation embedding."""
    e = PlaneEmbedding(g, rotation)
    e.check_valid()
    if g.edge_count != 3 * g.n - 6:
        raise errors.NotPlanar("edge count is not 3n-6")
    if any(f.length != 3 for f in e.faces):
        raise errors.NotPlanar("non-triangular face")
