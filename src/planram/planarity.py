"""Planarity testing, combinatorial embeddings, faces, and face-based checks.

An embedding is a rotation system: a cyclic ordering of the neighbours of
every vertex.  Faces are traced combinatorially (the successor of a directed
edge u->v is v->w where w follows u in the rotation at v), so everything here
is exact integer combinatorics; no coordinates are involved.  ``walks`` is
the one face tracer; every other reader of faces reads its walks.

A PlaneEmbedding is plane by construction; a face is its walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import networkx as nx

from . import errors
from .graphs import Graph, bits, contains_c4


@dataclass(frozen=True)
class PlaneEmbedding:
    """A connected graph and a rotation system that draws it on the
    sphere.  Construction raises ValueError unless each rotation lists its
    vertex's neighbours, and NotPlanar unless V - E + F = 2."""

    base: Graph
    rotation: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        g = self.base
        for v, nbrs in enumerate(self.rotation):
            if set(nbrs) != set(bits(g.adj[v])) or len(nbrs) != g.degree(v):
                raise ValueError(f"rotation at {v} does not list its neighbours")
        if not g.is_connected() or g.n - g.edge_count + len(self.faces) != 2:
            raise errors.NotPlanar("face census violates Euler's formula")

    @cached_property
    def faces(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The walks ``walks`` traces; every dart lies on one face."""
        if self.base.n == 1:
            return ((),)  # no dart, and the one face around the vertex
        return tuple(walks(self.rotation))

    @cached_property
    def face_of(self) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
        """The walk that holds each dart."""
        return {dart: walk for walk in self.faces for dart in walk}

    def face_census(self) -> dict[int, int]:
        census: dict[int, int] = {}
        for walk in self.faces:
            census[len(walk)] = census.get(len(walk), 0) + 1
        return census


def is_planar(g: Graph) -> bool:
    return nx.check_planarity(_to_nx(g))[0]


def embed(g: Graph) -> PlaneEmbedding:
    """One valid combinatorial embedding (not canonical, but deterministic)."""
    if not g.is_connected():
        raise errors.Disconnected("embedding requires a connected graph")
    return PlaneEmbedding(g, rotation_system(g))


def rotation_system(g: Graph) -> tuple[tuple[int, ...], ...]:
    """networkx's clockwise rotation system of g, per component; g may be
    disconnected but must be planar."""
    ok, emb = nx.check_planarity(_to_nx(g))
    if not ok:
        raise errors.NotPlanar("graph contains a K5 or K3,3 minor")
    return tuple(
        tuple(emb.neighbors_cw_order(v)) if g.degree(v) else ()
        for v in range(g.n)
    )


def walks(rotation) -> list[tuple[tuple[int, int], ...]]:
    """The faces of a rotation system, each as its closed walk of darts.

    The successor of the dart (u, v) is (v, w), where w follows u in v's
    rotation.  A face starts at its first dart (v, rotation[v][i]), by v,
    then by i, and the faces are listed in that order.  Isolated vertices
    lie on no face.
    """
    seen = [0] * len(rotation)  # per vertex, the positions of its traced darts
    faces = []
    for v, nbrs in enumerate(rotation):
        for i in range(len(nbrs)):
            if seen[v] >> i & 1:
                continue
            walk = []
            x, k = v, i
            while not seen[x] >> k & 1:
                seen[x] |= 1 << k
                y = rotation[x][k]
                walk.append((x, y))
                x, k = y, (rotation[y].index(x) + 1) % len(rotation[y])
            faces.append(tuple(walk))
    return faces


def cofacial_masks(rotation, faces=None) -> tuple[int, ...]:
    """Per vertex v, the vertices w for which adding vw keeps the rotation
    system plane.

    Bit w of entry v is set when v and w lie on a common face, or in
    different components: the edge vw can then be drawn inside that face,
    or joins two separately drawn components.  A clear bit proves
    nothing, since another embedding of the graph may still put v and w
    on one face.  The masks are symmetric with clear diagonal.  faces are
    the rotation's ``walks`` when already traced.  Raises NotPlanar
    unless V - E + F = 2 (non-trivial components) + (isolated vertices),
    that is unless every component is drawn on the sphere.
    """
    if faces is None:
        faces = walks(rotation)
    n = len(rotation)
    masks = [0] * n
    components = []  # vertex masks of the non-trivial components
    for walk in faces:
        on_face = 0
        for u, _ in walk:
            on_face |= 1 << u
        for u in bits(on_face):
            masks[u] |= on_face
        # faces sharing a vertex lie in one component
        rest = []
        for comp in components:
            if comp & on_face:
                on_face |= comp
            else:
                rest.append(comp)
        components = rest + [on_face]
    isolated = [v for v, nbrs in enumerate(rotation) if not nbrs]
    darts = sum(len(nbrs) for nbrs in rotation)
    if n - darts // 2 + len(faces) != 2 * len(components) + len(isolated):
        raise errors.NotPlanar("rotation system is not a plane embedding")
    full = (1 << n) - 1
    for comp in components:
        for u in bits(comp):
            masks[u] |= full & ~comp
    for v in isolated:
        masks[v] = full
    return tuple(mask & ~(1 << v) for v, mask in enumerate(masks))


def _to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


# -- triangle cover ------------------------------------------------------


@dataclass(frozen=True)
class GammaReport:
    """Edges covered by no triangle, and their count."""

    gamma_edges: tuple[tuple[int, int], ...]

    @property
    def tau(self) -> int:
        return len(self.gamma_edges)


def gamma(g: Graph) -> GammaReport:
    """Triangle-free edge set; independent of any embedding."""
    return GammaReport(tuple(
        (u, v) for u, v in g.edges() if not g.adj[u] & g.adj[v]
    ))


# -- vertex-edge-dual ----------------------------------------------------


def vertex_edge_dual(e: PlaneEmbedding) -> Graph:
    """Graph on the faces of length >= 5.

    Two faces are adjacent iff they share exactly one edge, or share no edge
    and exactly one vertex.  (Faces sharing one edge necessarily share its
    two endpoints; the shared edge takes precedence in that reading.)
    """
    big = [f for f in e.faces if len(f) >= 5]
    vertex_sets = [frozenset(u for u, _ in f) for f in big]
    edge_sets = [frozenset((min(u, v), max(u, v)) for u, v in f) for f in big]
    edges = []
    for i in range(len(big)):
        for j in range(i + 1, len(big)):
            shared_edges = len(edge_sets[i] & edge_sets[j])
            shared_vertices = len(vertex_sets[i] & vertex_sets[j])
            if shared_edges == 1 or (shared_edges == 0 and shared_vertices == 1):
                edges.append((i, j))
    return Graph.from_edges(len(big), edges)


# -- the C4-free edge identity -------------------------------------------


def edge_identity_residual(e: PlaneEmbedding) -> int:
    """Exact integer residual of the edge/face-count identity.

    For a connected C4-free plane graph, seven times the edge count equals
    15(n-2) - 2*tau - sum over k >= 6 of 3(k-5) f_k; the residual
    7*eps - [ ... ] is zero on every valid input.
    """
    g = e.base  # connected, as every PlaneEmbedding's is
    if contains_c4(g):
        raise errors.NotC4Free("identity requires a C4-free base graph")
    tau = gamma(g).tau
    penalty = sum(3 * (len(f) - 5) for f in e.faces if len(f) >= 6)
    return 7 * g.edge_count - (15 * (g.n - 2) - 2 * tau - penalty)


def c4free_edge_cap(n: int) -> int:
    return 15 * (n - 2) // 7
