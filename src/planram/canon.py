"""Canonical forms by iterative degree refinement plus backtracking.

The canonical form of a graph is the lexicographically smallest serialization
(vertex count byte, then row-major upper-triangle bits) over all relabelings
compatible with an equitable ordered partition.  Two graphs are isomorphic iff
their forms are equal; the certifying permutation is returned alongside.

An optional vertex colouring constrains the search to colour-preserving
relabelings; ``marked_pair_form`` colours the two ends of a pair with it.
The enumeration computes neither: it reads the labelling and the
automorphisms of one uncoloured form per graph.  The marked form is kept
only for the benchmark's trace table and the tests.

The search also returns the automorphisms it meets, and they generate the
whole colour-preserving automorphism group.  The group maps the search
tree onto itself, so the leaves with the best serialization are exactly
the images of the first one met.  The search records the automorphism
from that leaf to each later leaf that ties it, and skips a branch only
for a vertex twin to a tried one, recording the swap of the two, which
fixes the node and carries the skipped branch onto the tried one.  So an
automorphism a, then recorded swaps, take the first best leaf to a
visited best leaf, and a recorded tie takes it back: the product fixes a
discrete partition, so it is the identity, and a lies in their group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, bits


@dataclass(frozen=True)
class CanonicalForm:
    form: bytes
    permutation: tuple[int, ...]  # old label -> canonical label
    # colour-preserving automorphisms found by the search (old -> new
    # label), each once, in the order met; they generate the whole group
    # (see the module docstring)
    automorphisms: tuple[tuple[int, ...], ...]


def _refine(adj, cells, work=None):
    """Equitable refinement of an ordered partition (cells are bitmasks).

    Splitters are popped from a work list that starts as work, by default
    the given cells.  Each splitter splits every cell, in order, by the
    number of neighbours its vertices have in the splitter, smallest count
    first, and the parts join the work list.  The counts of all vertices
    are held at once as bit planes (plane k: the vertices whose count has
    bit k set), so a cell is split by masks alone, highest plane first; a
    singleton splitter has one plane, its vertex's neighbourhood.  A
    splitter that reaches no cell of two or more vertices splits nothing
    and is passed over, and the work stops once every cell is a singleton.
    """
    cells = list(cells)
    work = list(cells if work is None else work)
    open_ = 0  # the union of the cells of two or more vertices
    for cell in cells:
        if cell & (cell - 1):
            open_ |= cell
    while work and open_:
        splitter = work.pop()
        planes = []
        while splitter:
            low = splitter & -splitter
            splitter ^= low
            carry = adj[low.bit_length() - 1]
            k = 0
            while carry:
                if k == len(planes):
                    planes.append(carry)
                    break
                plane = planes[k]
                planes[k] = plane ^ carry
                carry &= plane
                k += 1
        reach = 0
        for plane in planes:
            reach |= plane
        if not reach & open_:
            continue
        planes.reverse()
        new = []
        for cell in cells:
            if cell & open_ and cell & reach:
                parts = [cell]
                for plane in planes:
                    hit = cell & plane
                    if hit and hit != cell:
                        parts = [q for p in parts
                                 for q in (p & ~plane, p & plane) if q]
                if len(parts) > 1:
                    new += parts
                    work += parts
                    for p in parts:
                        if not p & (p - 1):
                            open_ ^= p
                    continue
            new.append(cell)
        cells = new
    return cells


def _leaf_key(g: Graph, cells):
    """g's upper-triangle bits under the discrete partition cells, as an
    integer, with the relabelling and its inverse.  Rows are relabelled
    with reversed positions, so row i's bits above the diagonal, its
    neighbours at later positions, are its low n - 1 - i bits, highest
    first."""
    n = g.n
    perm = [0] * n
    order = [0] * n  # canonical position -> old vertex
    rbit = [0] * n  # old vertex -> bit of its reversed position
    for pos, cell in enumerate(cells):
        v = cell.bit_length() - 1
        perm[v] = pos
        order[pos] = v
        rbit[v] = 1 << (n - 1 - pos)
    adj = g.adj
    key = 0
    later = (1 << n) - 1  # the vertices at positions after i
    for i in range(n - 1):
        v = order[i]
        later ^= 1 << v
        row = 0
        nbrs = adj[v] & later
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            row |= rbit[low.bit_length() - 1]
        key = key << (n - 1 - i) | row
    return key, tuple(perm), order


def _serialization(n: int, key: int) -> bytes:
    """Vertex count byte, then the upper-triangle bits of key packed
    highest first and padded with zeros to whole bytes."""
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 7) // 8
    return bytes([n]) + (key << (8 * nbytes - nbits)).to_bytes(nbytes, "big")


def canonical_form(g: Graph, colors=None) -> CanonicalForm:
    """Smallest serialization over relabelings refining the initial colouring.

    ``colors`` maps vertices to small integers; vertices of distinct colours
    are never interchanged.  Unlisted vertices default to colour 0.
    """
    n = g.n
    if colors:
        groups: dict[int, int] = {}
        for v in range(n):
            c = colors.get(v, 0)
            groups[c] = groups.get(c, 0) | 1 << v
        initial = [groups[c] for c in sorted(groups)]
    else:
        initial = [(1 << n) - 1]
    best: list = [None, None, None]  # key, permutation, order
    automorphisms: dict = {}  # an ordered set: each once, as first met
    _descend(g, _refine(g.adj, initial), best, automorphisms)
    return CanonicalForm(_serialization(n, best[0]), best[1],
                         tuple(automorphisms))


def _descend(g: Graph, cells, best: list, automorphisms: dict) -> None:
    """Search the leaves below the equitable partition cells: keep the
    smallest leaf in best as [key, permutation, order], and add the
    automorphisms met on the way to the keys of automorphisms."""
    adj = g.adj
    for idx, cell in enumerate(cells):
        if cell & (cell - 1):
            tried: list[int] = []
            for v in bits(cell):
                row = adj[v]
                for twin in tried:
                    # twins: the same neighbours apart from each other
                    if not (adj[twin] ^ row) & ~(1 << twin | 1 << v):
                        break
                else:
                    twin = None
                if twin is not None:
                    # v's branch is twin's with the two swapped
                    swap = list(range(g.n))
                    swap[twin], swap[v] = v, twin
                    automorphisms[tuple(swap)] = None
                    continue
                tried.append(v)
                rest = cell & ~(1 << v)
                split = cells[:idx] + [1 << v, rest] + cells[idx + 1 :]
                # cells is equitable: every vertex of a cell, and so of
                # any part later split from it, has the same number of
                # neighbours in each cell.  The other cells as splitters
                # split nothing, and {v} splits nothing once rest has, so
                # rest alone starts the work list
                _descend(g, _refine(adj, split, [rest]), best, automorphisms)
            return
    key, perm, order = _leaf_key(g, cells)
    if best[1] is None or key < best[0]:
        best[:] = key, perm, order
    elif key == best[0]:
        # both leaves relabel g to the same graph
        automorphisms[tuple(best[2][p] for p in perm)] = None


def marked_pair_form(g: Graph, u: int, v: int) -> bytes:
    """Canonical form with the vertex pair {u, v} distinguished.

    Equal marked forms certify an automorphism carrying one pair to the
    other, so edges can be compared per orbit.
    """
    return canonical_form(g, colors={u: 1, v: 1}).form
