"""Compact simple-graph representation on at most 64 vertices.

Vertices are integers ``0..n-1`` and adjacency is stored as one bitmask per
vertex, so neighbourhood intersections, degree counts and subgraph masks are
single integer operations.  All operations are pure: graphs are immutable and
every mutation-like helper returns a new :class:`Graph`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import errors

MAX_VERTICES = 64


def bits(mask: int):
    """Iterate set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match n")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"row {v} references vertices >= n")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, row in enumerate(self.adj):
            for u in bits(row):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    # -- construction ----------------------------------------------------

    @staticmethod
    def _trusted(n: int, adj: tuple[int, ...]) -> "Graph":
        """The graph on rows already known to be valid, such as a valid
        graph's rows plus one edge or one vertex split; skips
        ``__post_init__``."""
        g = object.__new__(Graph)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(n, (0,) * n)

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError("self-loop")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    @staticmethod
    def cycle(n: int) -> "Graph":
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @staticmethod
    def complete(n: int) -> "Graph":
        full = (1 << n) - 1
        return Graph(n, tuple(full ^ (1 << v) for v in range(n)))

    # -- basic accessors -------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self):
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def min_degree(self) -> int:
        return min(self.degrees())

    def max_degree(self) -> int:
        return max(self.degrees())

    # -- derived graphs --------------------------------------------------

    def add_edge(self, u: int, v: int) -> "Graph":
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, tuple(rows))

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph(
            self.n,
            tuple(full ^ row ^ (1 << v) for v, row in enumerate(self.adj)),
        )

    def induced(self, vertices) -> "Graph":
        """Subgraph induced by ``vertices`` (relabelled to 0..k-1, order kept)."""
        vs = sorted(vertices)
        index = {v: i for i, v in enumerate(vs)}
        rows = [0] * len(vs)
        for v in vs:
            for u in bits(self.adj[v]):
                if u in index:
                    rows[index[v]] |= 1 << index[u]
        return Graph(len(vs), tuple(rows))

    # -- connectivity ----------------------------------------------------

    def component_mask(self, start: int, forbidden: int = 0) -> int:
        """Bitmask of the component of ``start`` avoiding ``forbidden`` vertices."""
        seen = 1 << start
        frontier = seen
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= self.adj[v]
            nxt &= ~seen & ~forbidden
            seen |= nxt
            frontier = nxt
        return seen

    def is_connected(self) -> bool:
        """True iff the graph has exactly one component; the graph on no
        vertices has none."""
        return self.n > 0 and self.component_mask(0).bit_count() == self.n


# -- subgraph detection ---------------------------------------------------


def contains_c4(g: Graph) -> bool:
    """True iff some four vertices carry a 4-cycle (not necessarily induced).

    Equivalent to: some vertex pair has at least two common neighbours.
    """
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if (g.adj[u] & g.adj[v]).bit_count() >= 2:
                return True
    return False


def adding_edge_creates_c4(g: Graph, u: int, v: int) -> bool:
    """For a C4-free ``g``, would adding edge ``uv`` close a 4-cycle?

    A new 4-cycle must pass through ``uv``, i.e. there is a path u-y-x-v of
    length 3 already present.
    """
    skip = (1 << u) | (1 << v)
    av = g.adj[v] & ~skip
    for y in bits(g.adj[u] & ~skip):
        if g.adj[y] & av & ~(1 << y):
            return True
    return False


def cycle_of_length(g: Graph, k: int):
    """Search for a k-cycle; returns a witness vertex list or None.

    Depth-first path extension anchored at the smallest cycle vertex, with
    bit-masked reachability pruning.  Vertices are tried in ascending id order
    so the witness is reproducible.
    """
    if not 3 <= k <= g.n:
        raise ValueError(f"cycle length {k} outside 3..{g.n}")
    for s in range(g.n - k + 1):
        allowed = ((1 << g.n) - 1) >> s << s  # only vertices >= s
        if (g.adj[s] & allowed).bit_count() < 2:
            continue
        witness = _find_cycle(g, s, allowed, s, 1 << s, [s], k - 1)
        if witness is not None:
            return witness

    return None


def _find_cycle(g: Graph, s: int, allowed: int, v: int, used: int,
                path: list[int], remaining: int):
    """The cycle through s that extends path, which runs from s to v over
    the vertices of used, by remaining more vertices of allowed; None if
    there is none."""
    if remaining == 0:
        return list(path) if g.adj[v] >> s & 1 else None
    # keep the anchor s reachable: the path must close back to it
    blocked = (used & ~(1 << v) & ~(1 << s)) | (~allowed & ((1 << g.n) - 1))
    region = g.component_mask(v, forbidden=blocked)
    if not region >> s & 1 or region.bit_count() < remaining + 1:
        return None
    for w in bits(g.adj[v] & allowed & ~used):
        path.append(w)
        found = _find_cycle(g, s, allowed, w, used | (1 << w), path,
                            remaining - 1)
        if found is not None:
            return found
        path.pop()
    return None


@dataclass(frozen=True)
class WheelWitness:
    hub: int
    rim: tuple[int, ...]


def check_wheel_fits(m: int, n: int) -> None:
    """Raise BadInput unless an m-cycle rim makes a wheel (m >= 3) and
    that wheel fits in a graph on n vertices."""
    if m < 3:
        raise errors.BadInput("rim length must be >= 3")
    if m + 1 > n:
        raise errors.BadInput(f"wheel on {m + 1} vertices cannot fit in {n}")


def contains_wheel(g: Graph, m: int):
    """Search for a wheel with an m-cycle rim; returns a witness or None.

    For each hub candidate (descending degree, then ascending id) we look for
    an m-cycle inside the subgraph induced by its neighbourhood by exact
    search, so every positive answer carries a verifiable witness.
    """
    check_wheel_fits(m, g.n)
    hubs = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    for hub in hubs:
        if g.degree(hub) < m:
            continue
        nbrs = sorted(bits(g.adj[hub]))
        rim = cycle_of_length(g.induced(nbrs), m)
        if rim is not None:
            return WheelWitness(hub, tuple(nbrs[i] for i in rim))
    return None


# -- independence and connectivity ----------------------------------------


def independence_number(g: Graph) -> int:
    """Exact maximum independent set size by branch and bound."""
    best = 0

    def grow(candidates: int, size: int):
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if not candidates:
            best = max(best, size)
            return
        # branch on a highest-degree candidate: exclude it or include it
        v = max(bits(candidates), key=lambda u: (g.adj[u] & candidates).bit_count())
        grow(candidates & ~(1 << v), size)
        grow(candidates & ~(1 << v) & ~g.adj[v], size + 1)

    grow((1 << g.n) - 1, 0)
    return best


def connectivity(g: Graph) -> int:
    """Vertex connectivity; complete graphs have connectivity n - 1."""
    if g.n == 1:
        return 0
    if g.edge_count == g.n * (g.n - 1) // 2:
        return g.n - 1
    if not g.is_connected():
        return 0
    best = g.n - 1
    for s in range(g.n):
        for t in range(s + 1, g.n):
            if not g.has_edge(s, t):
                best = min(best, _local_connectivity(g, s, t, best))
    return best


def _local_connectivity(g: Graph, s: int, t: int, cap: int) -> int:
    """Number of internally vertex-disjoint s-t paths (unit-capacity flow)."""
    # split every vertex v into v_in (2v) and v_out (2v+1)
    size = 2 * g.n
    capacity = [[0] * size for _ in range(size)]
    for v in range(g.n):
        capacity[2 * v][2 * v + 1] = 1 if v not in (s, t) else g.n
        for u in bits(g.adj[v]):
            capacity[2 * v + 1][2 * u] = g.n
    flow = 0
    limit = min(g.degree(s), g.degree(t), cap)
    while flow < limit:
        # BFS augmenting path from s_out to t_in
        parent = [-1] * size
        parent[2 * s + 1] = 2 * s + 1
        queue = [2 * s + 1]
        while queue and parent[2 * t] == -1:
            x = queue.pop(0)
            for y in range(size):
                if parent[y] == -1 and capacity[x][y] > 0:
                    parent[y] = x
                    queue.append(y)
        if parent[2 * t] == -1:
            break
        y = 2 * t
        while parent[y] != y:
            x = parent[y]
            capacity[x][y] -= 1
            capacity[y][x] += 1
            y = x
        flow += 1
    return flow
