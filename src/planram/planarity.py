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
    return _LeftRight(g).test()


def embed(g: Graph) -> PlaneEmbedding:
    """One valid combinatorial embedding (not canonical, but deterministic)."""
    if not g.is_connected():
        raise errors.Disconnected("embedding requires a connected graph")
    return PlaneEmbedding(g, rotation_system(g))


def rotation_system(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The clockwise rotation system of g that the left-right test draws,
    per component; g may be disconnected but must be planar.  Each entry
    is the tuple networkx 3.6.1's ``check_planarity(G)
    .neighbors_cw_order(v)`` gives when G lists every vertex's neighbours
    in ascending order."""
    lr = _LeftRight(g)
    if not lr.test():
        raise errors.NotPlanar("graph contains a K5 or K3,3 minor")
    return lr.rotation()


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


def cofacial_masks(rotation, faces) -> tuple[int, ...]:
    """Per vertex v, the vertices w for which adding vw keeps the rotation
    system plane.

    Bit w of entry v is set when v and w lie on a common face, or in
    different components: the edge vw can then be drawn inside that face,
    or joins two separately drawn components.  A clear bit proves
    nothing, since another embedding of the graph may still put v and w
    on one face.  The masks are symmetric with clear diagonal.  faces are
    the rotation's ``walks``.  Raises NotPlanar unless V - E + F =
    2 (non-trivial components) + (isolated vertices), that is unless
    every component is drawn on the sphere.
    """
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


# -- the left-right planarity test ---------------------------------------
#
# _LeftRight is a port of LRPlanarity's recursive methods
# (lr_planarity_recursive, dfs_orientation_recursive, dfs_testing_recursive
# and dfs_embedding_recursive) and of the leftmost-neighbour rule of
# PlanarEmbedding.add_half_edge in networkx 3.6.1
# (networkx/algorithms/planarity.py), which is distributed under the
# 3-clause BSD license:
#
#   Copyright (c) 2004-2025, NetworkX Developers
#   Aric Hagberg <hagberg@lanl.gov>
#   Dan Schult <dschult@colgate.edu>
#   Pieter Swart <swart@lanl.gov>
#   All rights reserved.
#
#   Redistribution and use in source and binary forms, with or without
#   modification, are permitted provided that the following conditions are
#   met:
#
#     * Redistributions of source code must retain the above copyright
#       notice, this list of conditions and the following disclaimer.
#
#     * Redistributions in binary form must reproduce the above
#       copyright notice, this list of conditions and the following
#       disclaimer in the documentation and/or other materials provided
#       with the distribution.
#
#     * Neither the name of the NetworkX Developers nor the names of its
#       contributors may be used to endorse or promote products derived
#       from this software without specific prior written permission.
#
#   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
#   "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
#   LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
#   A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
#   OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
#   SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
#   LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
#   DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
#   THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
#   (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
#   OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.


class _LeftRight:
    """The left-right planarity test (U. Brandes, "The Left-Right
    Planarity Test", 2009) of one graph: a port of ``LRPlanarity``'s
    recursive methods and of ``PlanarEmbedding.add_half_edge``'s leftmost
    rule in networkx 3.6.1, Copyright (c) 2004-2025, NetworkX Developers,
    under the 3-clause BSD license reproduced above.

    It runs networkx's three phases on the bitmask graph: the DFS
    orientation with lowpoints and nesting depths, the testing phase with
    its stack of conflict pairs, and the embedding phase.  It keeps every
    order networkx's result depends on: each vertex visits its neighbours
    in ascending order, and adjacency lists are stable-sorted by nesting
    depth.  Each vertex's rotation is one list, clockwise from its
    leftmost neighbour: a half-edge put counterclockwise of the leftmost
    neighbour becomes the leftmost, as in ``add_half_edge``, and every
    other one leaves it in place.  So ``rotation`` lists, vertex by
    vertex, what networkx's ``neighbors_cw_order`` lists for the graph
    whose adjacency is in ascending order.  Each new conflict pair starts
    with two fresh empty intervals.

    The three phases recurse once per tree edge, so at most n <= 64
    (``MAX_VERTICES``) calls deep, and ``_sign`` follows one chain of
    reference edges, at most 3 * 64 - 6 = 186 edges long: both stay far
    inside Python's default recursion limit.

    The edge oriented from v to w is the integer v * n + w, and -1 stands
    for networkx's None; a per-edge list has one extra last slot, which an
    index of -1 reads and writes.  A conflict pair is the list
    [left.low, left.high, right.low, right.high].
    """

    __slots__ = ("n", "adj", "roots", "height", "parent_edge", "lowpt",
                 "lowpt2", "nesting_depth", "oriented", "out", "ordered_adjs",
                 "ref", "side", "S", "stack_bottom", "lowpt_edge", "rows",
                 "left_ref", "right_ref")

    def __init__(self, g: Graph):
        n = g.n
        size = n * n + 1
        self.n, self.adj = n, g.adj
        self.roots = []
        self.height = [-1] * n
        self.parent_edge = [-1] * n
        self.lowpt = [0] * size
        self.lowpt2 = [0] * size
        self.nesting_depth = [0] * size
        self.oriented = [0] * n  # per vertex, the neighbours oriented to it
        self.out = [[] for _ in range(n)]  # oriented edges, in DFS order
        self.ref = [-1] * size
        self.side = [1] * size
        self.S = []
        self.stack_bottom = [None] * size
        self.lowpt_edge = [-1] * size

    def test(self) -> bool:
        """Orient the graph, then run the testing phase: True iff the
        graph is planar."""
        n, height = self.n, self.height
        if n > 2 and sum(row.bit_count() for row in self.adj) > 6 * n - 12:
            return False
        for root in range(n):
            if height[root] == -1:
                height[root] = 0
                self.roots.append(root)
                self._orient(root)
        self._sort_adjacency()
        return all(self._test(root) for root in self.roots)

    def rotation(self) -> tuple[tuple[int, ...], ...]:
        """The embedding phase, after a test that found the graph planar:
        each vertex's neighbours in clockwise order, from its leftmost."""
        n, nesting_depth = self.n, self.nesting_depth
        for v, out in enumerate(self.out):
            for w in out:
                nesting_depth[v * n + w] *= self._sign(v * n + w)
        self._sort_adjacency()
        # networkx adds each vertex's out-edges clockwise in this order
        self.rows = [list(adjs) for adjs in self.ordered_adjs]
        self.left_ref, self.right_ref = [-1] * n, [-1] * n
        for root in self.roots:
            self._embed(root)
        return tuple(map(tuple, self.rows))

    def _sort_adjacency(self):
        n, nesting_depth = self.n, self.nesting_depth
        self.ordered_adjs = [
            sorted(out, key=lambda w, base=v * n: nesting_depth[base + w])
            for v, out in enumerate(self.out)]

    def _orient(self, v):
        """networkx's ``dfs_orientation_recursive``: orient the edges below
        v by DFS and find their lowpoints and nesting depths."""
        n, height, oriented = self.n, self.height, self.oriented
        lowpt, lowpt2 = self.lowpt, self.lowpt2
        e = self.parent_edge[v]
        hv = height[v]
        for w in bits(self.adj[v]):
            if oriented[v] >> w & 1:
                continue  # the edge was already oriented
            oriented[w] |= 1 << v
            self.out[v].append(w)
            vw = v * n + w
            lowpt[vw] = lowpt2[vw] = hv
            if height[w] == -1:  # a tree edge
                self.parent_edge[w] = vw
                height[w] = hv + 1
                self._orient(w)
            else:  # a back edge
                lowpt[vw] = height[w]
            # the nesting order: chordal edges after the others
            self.nesting_depth[vw] = 2 * lowpt[vw] + (lowpt2[vw] < hv)
            if e != -1:  # update the lowpoints of the parent edge
                if lowpt[vw] < lowpt[e]:
                    lowpt2[e] = min(lowpt[e], lowpt2[vw])
                    lowpt[e] = lowpt[vw]
                elif lowpt[vw] > lowpt[e]:
                    lowpt2[e] = min(lowpt2[e], lowpt[vw])
                else:
                    lowpt2[e] = min(lowpt2[e], lowpt2[vw])

    def _test(self, v) -> bool:
        """networkx's ``dfs_testing_recursive``: False iff the edges below
        v admit no left-right partition."""
        n, S, lowpt, lowpt_edge = self.n, self.S, self.lowpt, self.lowpt_edge
        e = self.parent_edge[v]
        hv = self.height[v]
        adjs = self.ordered_adjs[v]
        for w in adjs:
            ei = v * n + w
            self.stack_bottom[ei] = S[-1] if S else None
            if ei == self.parent_edge[w]:  # a tree edge
                if not self._test(w):
                    return False
            else:  # a back edge
                lowpt_edge[ei] = ei
                S.append([-1, -1, ei, ei])
            # integrate new return edges
            if lowpt[ei] < hv:
                if w == adjs[0]:  # ei has a return edge
                    lowpt_edge[e] = lowpt_edge[ei]
                elif not self._add_constraints(ei, e):
                    return False
        if e != -1:  # v is not a root
            self._remove_back_edges(e)
        return True

    def _add_constraints(self, ei, e) -> bool:
        """networkx's ``add_constraints``: merge the conflict pairs of
        ei, a later child edge of e, into one; False iff they cannot be
        merged, and the graph is not planar."""
        S, lowpt, ref = self.S, self.lowpt, self.ref
        P = [-1, -1, -1, -1]
        # merge the return edges of ei into P's right interval
        while True:
            Q = S.pop()
            if Q[0] != -1 or Q[1] != -1:
                Q[:] = Q[2], Q[3], Q[0], Q[1]
            if Q[0] != -1 or Q[1] != -1:
                return False  # not planar
            if lowpt[Q[2]] > lowpt[e]:  # merge intervals
                if P[2] == -1 and P[3] == -1:  # topmost interval
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:  # align
                ref[Q[2]] = self.lowpt_edge[e]
            if (S[-1] if S else None) is self.stack_bottom[ei]:
                break
        # merge the conflicting return edges of e1, ..., ei-1 into P's left
        while (_conflicting(S[-1][0], S[-1][1], ei, lowpt)
               or _conflicting(S[-1][2], S[-1][3], ei, lowpt)):
            Q = S.pop()
            if _conflicting(Q[2], Q[3], ei, lowpt):
                Q[:] = Q[2], Q[3], Q[0], Q[1]
            if _conflicting(Q[2], Q[3], ei, lowpt):
                return False  # not planar
            # merge the interval below lowpt(ei) into P's right
            ref[P[2]] = Q[3]
            if Q[2] != -1:
                P[2] = Q[2]
            if P[0] == -1 and P[1] == -1:  # topmost interval
                P[1] = Q[1]
            else:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P != [-1, -1, -1, -1]:
            S.append(P)
        return True

    def _remove_back_edges(self, e):
        """networkx's ``remove_back_edges``: once the tree edge e is done,
        trim the return edges that end at its tail, and give e the
        reference edge that decides its side."""
        n, S, lowpt, ref, side = self.n, self.S, self.lowpt, self.ref, self.side
        u = e // n
        hu = self.height[u]
        # trim the back edges ending at u: drop whole conflict pairs
        while S and _lowest(S[-1], lowpt) == hu:
            P = S.pop()
            if P[0] != -1:
                side[P[0]] = -1
        if S:  # one more conflict pair to consider
            P = S[-1]
            # trim the left interval
            while P[1] != -1 and P[1] % n == u:
                P[1] = ref[P[1]]
            if P[1] == -1 and P[0] != -1:  # just emptied
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = -1
            # trim the right interval
            while P[3] != -1 and P[3] % n == u:
                P[3] = ref[P[3]]
            if P[3] == -1 and P[2] != -1:  # just emptied
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = -1
        # the side of e is the side of a highest return edge
        if lowpt[e] < hu:  # e has a return edge
            hl, hr = S[-1][1], S[-1][3]
            if hl != -1 and (hr == -1 or lowpt[hl] > lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr

    def _sign(self, e) -> int:
        """Resolve the side of e, relative to its reference edge, to an
        absolute side."""
        ref, side = self.ref, self.side
        if ref[e] != -1:
            side[e] *= self._sign(ref[e])
            ref[e] = -1
        return side[e]

    def _embed(self, v):
        """networkx's ``dfs_embedding_recursive``: add the half-edge back
        along each tree edge and each back edge below v, on the side the
        test chose."""
        n, rows = self.n, self.rows
        left_ref, right_ref = self.left_ref, self.right_ref
        for w in self.ordered_adjs[v]:
            ei = v * n + w
            row = rows[w]
            if ei == self.parent_edge[w]:  # a tree edge
                row.insert(0, v)  # counterclockwise of the leftmost
                left_ref[v] = right_ref[v] = w
                self._embed(w)
            elif self.side[ei] == 1:  # a back edge: clockwise of right_ref
                row.insert(row.index(right_ref[w]) + 1, v)
            else:  # counterclockwise of left_ref
                row.insert(row.index(left_ref[w]), v)
                left_ref[w] = v


def _conflicting(low, high, b, lowpt) -> bool:
    """True iff the interval [low, high] conflicts with the edge b."""
    return (low != -1 or high != -1) and lowpt[high] > lowpt[b]


def _lowest(P, lowpt) -> int:
    """The lowest lowpoint of the conflict pair P."""
    if P[0] == -1 and P[1] == -1:
        return lowpt[P[2]]
    if P[2] == -1 and P[3] == -1:
        return lowpt[P[0]]
    return min(lowpt[P[0]], lowpt[P[2]])


# -- triangle cover ------------------------------------------------------


def gamma(g: Graph) -> tuple[tuple[int, int], ...]:
    """The edges in no triangle; independent of any embedding."""
    return tuple(
        (u, v) for u, v in g.edges() if not g.adj[u] & g.adj[v]
    )


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
    tau = len(gamma(g))
    penalty = sum(3 * (len(f) - 5) for f in e.faces if len(f) >= 6)
    return 7 * g.edge_count - (15 * (g.n - 2) - 2 * tau - penalty)


def c4free_edge_cap(n: int) -> int:
    return 15 * (n - 2) // 7
