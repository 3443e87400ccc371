"""Isomorph-free exhaustive generation.

One canonical-construction-path search (McKay 1998), ``_search``, walks
the tree depth first and returns the output sorted by canonical form.  A
child survives iff the edge its augmentation created has the least
invariant in it and lies in the orbit of the canonical edge: of the
edges that tie it, the one with the least image under the child's
canonical labelling.  One walker, ``_ties``, over the parent's ranked
edges drops a candidate an edge beats and finds the others' ties;
``_form_if_canonical`` only breaks them.

The tie-break reads the child's canonical form, which the search needs
anyway: its labelling names the canonical edge, and the automorphisms
its search met generate the child's group (``canon``), whose orbits it
compares.  The canonical labellings of two labellings of one graph
differ by an automorphism, so the verdict is isomorphism-invariant.

Each state travels with those automorphisms, and its children are built
by McKay's per-parent orbit rule: only the first candidate of each
orbit, in candidate order, is built.  Every filter applied before a
child is built is isomorphism-invariant, so the candidates are closed
under the automorphisms, and candidates in one orbit give isomorphic
children with the same verdict.  Two accepted children that are
isomorphic have created edges (or splits) that an automorphism of the
parent maps one to the other, so with the whole group each class is
built exactly once.  Two augmentation rules feed the search:

* C4-free planar graphs of a given order, by edge augmentation from the
  empty graph with rotation systems maintained throughout; the invariant
  ranks every edge of the child.  Each candidate edge uv is filtered
  cheapest-first: non-edge, C4, min-degree deficit and look-ahead on the
  parent, then the tie-break (with the child's canonical form) and
  planarity on the child.  Every filter is a predicate of (parent, u, v)
  alone, so the order changes the cost and never the children.  The
  look-ahead is exact: adding uv changes the invariant only of edges at
  u or v, so the parent's ranked edges give, before the child is built,
  the child's edges that beat or tie uv.  Planarity is read off the
  parent's carried rotation: when u and v share one of its faces (or lie
  in different components) the new edge is drawn inside that face, which
  gives the child's rotation in O(deg).  Only the remaining candidates
  go to the left-right planarity test, for a verdict and, if planar, the
  child's rotation in one call.  Each class leaves with the rotation it
  was built with, so no C4-free class is embedded again.  Children are
  built without ``Graph`` validation; graphs are validated where they
  enter the program.

* Simple planar triangulations, by vertex splitting from K4 with rotation
  systems maintained throughout.  The reverse operation is contraction of
  an edge whose endpoints have exactly two common neighbours; every simple
  triangulation on five or more vertices has such an edge, so the search
  tree is rooted at K4, and the invariant ranks the contractible edges.
  Most splits are rejected before the child is built (plantri-style
  look-ahead, Brinkmann and McKay 2007): the created edge's invariant
  is known from the parent's degrees, and so is the child invariant of
  every contractible edge with an end outside the closed neighbourhood
  of the split vertex, since a split changes only degrees and common
  neighbours inside that neighbourhood.  The walk skips a split where
  such an edge ranks below the created edge and gives the others' ties.
  The edges inside that neighbourhood are then ranked on the child's
  rows and degrees, and only a split that none of them beats is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from operator import itemgetter

from . import errors
from .canon import canonical_form
from .graphs import MAX_VERTICES, Graph, adding_edge_creates_c4
from .planarity import (
    PlaneEmbedding,
    c4free_edge_cap,
    cofacial_masks,
    is_planar,
    rotation_system,
    walks,
)

DEFAULT_BUDGET = 50_000_000


@dataclass(frozen=True)
class EnumerationTask:
    n: int
    mode: str  # c4free_planar | triangulation
    min_degree: int = 0
    maximal_only: bool = False

    def __post_init__(self):
        if self.mode not in ("c4free_planar", "triangulation"):
            raise errors.BadInput(f"unknown mode {self.mode!r}")
        if not 1 <= self.n <= MAX_VERTICES:
            raise errors.BadInput(
                f"order must be in 1..{MAX_VERTICES}, got {self.n}")
        if not 0 <= self.min_degree <= 5:
            raise errors.BadInput("min_degree must be in 0..5")
        if self.maximal_only and self.mode != "c4free_planar":
            raise errors.BadInput("maximal_only applies to c4free_planar only")


@dataclass(frozen=True)
class EnumerationResult:
    graphs: tuple[Graph, ...]
    embeddings: tuple[tuple[tuple[int, ...], ...], ...]  # rotations, as built
    forms: tuple[bytes, ...]  # canonical form of each graph, increasing
    nodes_visited: int


def classes(
    task: EnumerationTask, budget_nodes: int | None = None
) -> EnumerationResult:
    """The classes of task, from the generator of its mode."""
    if task.mode == "triangulation":
        return enumerate_triangulations(task, budget_nodes)
    return enumerate_c4free_planar(task, budget_nodes)


class _Budget:
    def __init__(self, limit):
        self.limit = limit if limit is not None else DEFAULT_BUDGET
        self.nodes = 0

    def tick(self, nodes=1):
        self.nodes += nodes
        if self.nodes > self.limit:
            raise errors.InfeasibleScale(
                f"search exceeded budget of {self.limit} nodes"
            )


def _search(roots, visit, budget):
    """The canonical-construction-path search both generators share.

    States are (graph, rotation) pairs.  The tree is walked depth first
    from roots, with an explicit stack, and each state travels with its
    ``CanonicalForm``.  ``visit(state, automorphisms)`` returns whether the
    state is output and an iterable of (``CanonicalForm``, state) pairs,
    its canonical children, one per isomorphism class (McKay's per-parent
    orbit rule); they are pushed in reverse, so siblings are visited in
    candidate order.  Returns the ``EnumerationResult`` of the output,
    sorted by canonical form, with the nodes budget counted.
    """
    out = []
    stack = [(canonical_form(root[0]), root) for root in roots]
    while stack:
        cf, state = stack.pop()
        emit, children = visit(state, cf.automorphisms)
        if emit:
            out.append((cf.form, state))
        stack += reversed(list(children))
    out.sort(key=itemgetter(0))
    # children are built unvalidated; the classes leave validated
    return EnumerationResult(tuple(Graph(g.n, g.adj) for _, (g, _) in out),
                             tuple(r for _, (_, r) in out),
                             tuple(f for f, _ in out), budget.nodes)


def _form_if_canonical(g: Graph, tied):
    """g's ``CanonicalForm`` if the created edge tied[0] lies in the orbit
    of g's canonical edge, else None.

    tied lists the edges of g that tie the created edge's invariant, the
    least in g, the created edge first.  The canonical edge is the one of
    them whose image, the sorted pair of its labels under g's canonical
    labelling, is least.  Its orbit under the group the automorphisms
    g's canonical-form search met generate is found only when it is not
    the created edge itself.
    """
    cf = canonical_form(g)
    label = cf.permutation
    images = [sorted((label[x], label[y])) for x, y in tied]
    best = images.index(min(images))
    if best and _orbits(cf.automorphisms, tied)[best]:
        return None  # best's orbit starts after tied[0], so misses it
    return cf


def _ties(ranked, created, changed, invariant, rows, degs):
    """The edges of ranked whose invariant in the child ties created, or
    None when one falls below it.

    ranked holds records (invariant in the parent, x, y, span) in
    increasing invariant, where span is the mask of every vertex xy's
    invariant reads.  A record whose span misses changed, the vertices
    whose degree or row the augmentation changes, keeps its invariant;
    any other is re-ranked as ``invariant(rows, degs, x, y)``, where rows
    and degs give xy's common neighbours and degrees in the child.  An
    augmentation never lowers an invariant, so the walk stops at the first
    record above created.
    """
    tied = []
    for inv, x, y, span in ranked:
        if inv > created:
            break
        if span & changed:
            inv = invariant(rows, degs, x, y)
        if inv < created:
            return None
        if inv == created:
            tied.append((x, y))
    return tied


def _orbits(automorphisms, items):
    """For each item, the index of the first item of its orbit under the
    group the automorphisms generate.

    An item is a tuple of vertices whose last two are an unordered pair:
    an edge (x, y), or a vertex split (w, a, b) of w at its neighbours a
    and b.  items must be closed under the automorphisms, as the items one
    isomorphism-invariant rule selects are.
    """
    root = list(range(len(items)))
    if not automorphisms or len(items) < 2:
        return root
    index = {}
    for k, item in enumerate(items):
        index[item] = index[(*item[:-2], item[-1], item[-2])] = k
    columns = list(zip(*items))
    for perm in automorphisms:
        image = perm.__getitem__
        # the items' images under perm, one column of vertices at a time
        images = zip(*[map(image, column) for column in columns])
        for k, j in enumerate(map(index.__getitem__, images)):
            if j == k:
                continue  # perm fixes the item
            i = k
            while root[i] != i:  # find, halving the path
                root[i] = i = root[root[i]]
            while root[j] != j:
                root[j] = j = root[root[j]]
            # the first item of a merged orbit roots it, so root[k] <= k
            if i < j:
                root[j] = i
            elif j < i:
                root[i] = j
    # the roots below k are final by the time k is reached
    for k, r in enumerate(root):
        root[k] = root[r]
    return root


# -- C4-free planar graphs ------------------------------------------------


def _edge_invariant(adj, degs, u: int, v: int):
    du, dv = degs[u], degs[v]
    if du > dv:
        du, dv = dv, du
    return (du, dv, (adj[u] & adj[v]).bit_count())


def enumerate_c4free_planar(
    task: EnumerationTask, budget_nodes: int | None = None
) -> EnumerationResult:
    """One representative per isomorphism class under the task constraints.

    A state is (graph, rotation system), rooted at the empty graph with
    empty rotations.
    """
    if task.mode != "c4free_planar":
        raise ValueError("task mode must be c4free_planar")
    n = task.n
    budget = _Budget(budget_nodes)
    cap = c4free_edge_cap(n) if n >= 4 else n * (n - 1) // 2
    t = task.min_degree

    def visit(state, automorphisms):
        g, rot = state
        # rot's face walks and cofacial masks, traced on first use, then
        # shared by the maximality test and the expansion of g
        traced = cache(partial(_faces_and_masks, rot))
        emit = g.min_degree() >= t and (
            not task.maximal_only or is_maximal_c4free_planar(g, traced()[1]))
        if g.edge_count == cap:
            return emit, ()
        return emit, _c4free_children(g, rot, automorphisms, traced, cap, t,
                                      budget)

    # an edge repairs at most 2 units of min-degree deficiency
    roots = [] if n * t > 2 * cap else [(Graph.empty(n), ((),) * n)]
    return _search(roots, visit, budget)


def _faces_and_masks(rotation):
    faces = walks(rotation)
    return faces, cofacial_masks(rotation, faces)


def _c4free_children(g, rot, automorphisms, traced, cap, t, budget):
    """The canonical planar children g + uv of the C4-free planar graph g
    with rotation rot, in candidate order, with their rotations.

    Of the candidates that ``_open_edges`` leaves open, only the first of
    each orbit of g's automorphisms is built, from the rows the look-ahead
    made: the others give isomorphic children with the same verdict.
    Each built child is kept, with its canonical form, iff uv wins the
    tie-break among the edges the look-ahead found tying it, and it is
    planar.  traced() gives rot's face ``walks`` and cofacial masks.
    A cofacial uv (on a common face of rot, or in different components)
    gives a planar child, whose rotation inserts v at u's corner of that
    face and u at v's; only the other children go to the left-right
    test, whose one embedding is both the verdict and the child's
    rotation.
    """
    candidates = list(_open_edges(g, cap, t, budget))
    first = _orbits(automorphisms, [(u, v) for u, v, _, _ in candidates])
    for k, (u, v, rows, tied) in enumerate(candidates):
        if first[k] != k:
            continue
        child = Graph._trusted(g.n, rows)
        cf = _form_if_canonical(child, [(u, v), *tied])
        if cf is None:
            continue
        faces, masks = traced()
        if masks[u] >> v & 1:
            child_rot = _chord(rot, faces, u, v)
        else:
            try:
                child_rot = rotation_system(child)
            except errors.NotPlanar:
                continue
        yield cf, (child, child_rot)


def _open_edges(g, cap, t, budget):
    """The non-edges uv (u < v) of g that survive three tests made on g
    alone, each with the rows of g + uv and the other edges of g + uv
    that tie uv's invariant.

    Every non-edge ticks the budget once.  A candidate is dropped when
    g + uv contains a C4; when its deficiency sum(t - deg) over degrees
    below t exceeds twice the edges it can still gain; and when the
    look-ahead finds an edge of g + uv with a strictly smaller invariant
    than uv, a child ``_form_if_canonical`` would reject.

    The look-ahead is exact.  Adding uv raises the degrees of u and v by
    one and adds v to N(u) and u to N(v), so an edge of g that avoids u
    and v keeps its invariant, and one at u or v is re-ranked on the
    child's rows.  So ``_ties``, walking g's edges in increasing
    invariant, finds every edge of g + uv that beats or ties uv.
    """
    n = g.n
    adj, degs = g.adj, g.degrees()
    needy = [d < t for d in degs]
    deficit = sum(t - d for d in degs if d < t)
    # the deficiency a child's remaining edges can repair, 2 units each
    room = 2 * (cap - g.edge_count - 1)
    # g's edges by increasing invariant, each read at its two ends
    ranked = sorted((_edge_invariant(adj, degs, x, y), x, y, 1 << x | 1 << y)
                    for x, y in g.edges())
    for u in range(n):
        row_u = adj[u]
        for v in range(u + 1, n):
            if row_u >> v & 1:
                continue
            budget.tick()
            if adding_edge_creates_c4(g, u, v):
                continue
            if deficit - needy[u] - needy[v] > room:
                continue
            rows = list(adj)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            # the child's degrees: u and v are raised in place
            degs[u] += 1
            degs[v] += 1
            created = _edge_invariant(rows, degs, u, v)
            tied = _ties(ranked, created, 1 << u | 1 << v, _edge_invariant,
                         rows, degs)
            degs[u] -= 1
            degs[v] -= 1
            if tied is not None:
                yield u, v, tuple(rows), tied


def _chord(rot, faces, u: int, v: int):
    """rot plus the edge uv, drawn inside the first of faces, rot's walks,
    that holds both u and v, after that face's last dart into u and into
    v, or, when there is none, between their two components."""
    rows = list(rot)
    for walk in faces:
        last = {y: x for x, y in walk}  # the last dart into each vertex
        if u in last and v in last:
            i, j = rot[u].index(last[u]) + 1, rot[v].index(last[v]) + 1
            break
    else:
        i, j = len(rot[u]), len(rot[v])
    rows[u] = rot[u][:i] + (v,) + rot[u][i:]
    rows[v] = rot[v][:j] + (u,) + rot[v][j:]
    return tuple(rows)


def is_maximal_c4free_planar(g: Graph, masks) -> bool:
    """True iff no edge can be added to the C4-free planar graph g without
    creating a C4 or losing planarity.

    ``masks`` are the ``cofacial_masks`` of the rotation g was built with.
    A cofacial C4-free non-edge settles the answer, so the others get a
    full planarity test only when there is none.
    """
    others = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v) or adding_edge_creates_c4(g, u, v):
                continue
            if masks[u] >> v & 1:
                return False
            others.append((u, v))
    return not any(is_planar(g.add_edge(u, v)) for u, v in others)


# -- planar triangulations ------------------------------------------------
#
# State: (Graph, rotation system).  Splitting a vertex w whose rotation is
# [m0..m_{d-1}] at positions i < j keeps w with the neighbour arc
# m_i..m_j plus the new vertex, and gives the new vertex the complementary
# arc m_j..m_i plus w.  The arc endpoints m_i and m_j become common
# neighbours of the pair, so the inverse is contraction of an edge whose
# endpoints share exactly two neighbours.


def _k4_embedding():
    g = Graph.complete(4)
    rotation = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))
    PlaneEmbedding(g, rotation)  # raises unless the rotation is plane
    return g, rotation


def _split_rows(adj, rot_w, w: int, i: int, j: int):
    """The rows of the child of the triangulation with rows adj when w,
    whose rotation is rot_w, is split between positions i and j.

    The new vertex takes label n = len(adj); only the rows of w, the
    moved neighbours and n change.
    """
    n = len(adj)
    move = rot_w[j:] + rot_w[: i + 1]  # goes to the new vertex
    rows = list(adj)
    rows.append(1 << w)
    rows[w] |= 1 << n
    for m in move:
        rows[n] |= 1 << m
        rows[m] |= 1 << n
    for m in move[1:-1]:
        # the interior of the moved arc trades w for the new vertex
        rows[w] &= ~(1 << m)
        rows[m] &= ~(1 << w)
    return rows


def _split_vertex(rotation, w: int, i: int, j: int, rows):
    """Split w between rotation positions i and j; returns (graph, rotation).

    rows are the child's rows, ``_split_rows`` of the parent's.  The new
    vertex takes label n; only w, a, b, the moved neighbours and n are
    rewritten.  The child is built unvalidated: the census tests assert
    that the rotation stays a triangulation.
    """
    n = len(rotation)
    rot_w = rotation[w]
    a, b = rot_w[i], rot_w[j]
    move = rot_w[j:] + rot_w[: i + 1]  # goes to the new vertex
    new_rotation = list(rotation) + [move + (w,)]
    new_rotation[w] = rot_w[i : j + 1] + (n,)
    for m in move[1:-1]:
        new_rotation[m] = tuple(n if x == w else x for x in rotation[m])
    # a keeps w and the new vertex slots in after it; b gets it before w
    for x, k in ((a, rotation[a].index(w) + 1), (b, rotation[b].index(w))):
        new_rotation[x] = rotation[x][:k] + (n,) + rotation[x][k:]
    return Graph._trusted(n + 1, tuple(rows)), tuple(new_rotation)


def _contractible_edges(adj, within: int):
    """The edges of the triangulation with rows adj with both ends in the
    vertex mask within whose contraction keeps it simple, in increasing
    order."""
    edges = []
    rest = within
    while rest:
        low = rest & -rest
        rest ^= low  # the vertices of within above u
        u = low.bit_length() - 1
        row = adj[u]
        later = row & rest
        while later:
            low = later & -later
            later ^= low
            v = low.bit_length() - 1
            if (row & adj[v]).bit_count() == 2:
                edges.append((u, v))
    return edges


def _contraction_invariant(adj, degs, u: int, v: int):
    """(min deg, max deg, lower, higher common-neighbour degree) of a
    contractible edge uv, whose endpoints have exactly two common
    neighbours."""
    common = adj[u] & adj[v]
    low = common & -common
    du, dv = degs[u], degs[v]
    dc, de = degs[low.bit_length() - 1], degs[(common ^ low).bit_length() - 1]
    if du > dv:
        du, dv = dv, du
    if dc > de:
        dc, de = de, dc
    return (du, dv, dc, de)


def enumerate_triangulations(
    task: EnumerationTask, budget_nodes: int | None = None
) -> EnumerationResult:
    """One representative per isomorphism class of simple triangulations.

    With min_degree = 5 the search is pruned by degree deficiency: a split
    lowers sum(max(0, 5 - deg)) by at most 2, so states needing more repair
    than the remaining splits allow are cut.  Smaller min_degree values are
    applied as an output filter only.
    """
    if task.mode != "triangulation":
        raise ValueError("task mode must be triangulation")
    n_target = task.n
    if not 4 <= n_target <= 18:
        raise errors.InfeasibleScale("triangulation orders supported: 4..18")
    budget = _Budget(budget_nodes)
    prune5 = task.min_degree == 5

    def visit(state, automorphisms):
        g, rot = state
        if g.n == n_target:
            return g.min_degree() >= task.min_degree, ()
        return False, _children(g, rot, automorphisms, n_target, prune5,
                                budget)

    return _search([_k4_embedding()], visit, budget)


def _children(g, rot, automorphisms, n_target, prune5, budget):
    """The canonical vertex splits of the triangulation g, in split order.

    Of the splits that ``_open_splits`` leaves open, only the first of
    each orbit of g's automorphisms is scanned.  A split of w at
    a = rot[w][i] and b = rot[w][j] is named by w and {a, b}.  A
    triangulation has one embedding up to reflection, so an automorphism
    s maps rot to itself or to its mirror image; either way it carries
    the split to the split of s(w) at s(a) and s(b), whose child is
    isomorphic.  The scan ranks the child's edges inside N[w] on its rows
    and degrees, before the child is built, and drops the split when one
    beats its created edge (w, n).  Each child built is kept, with its
    canonical form, iff (w, n) wins the tie-break among the edges that
    tie it, inside N[w] or out.
    """
    n = g.n
    adj, degs = g.adj, g.degrees()
    splits = list(_open_splits(g, rot, n_target, prune5, budget))
    first = _orbits(automorphisms,
                    [(w, rot[w][i], rot[w][j]) for w, i, j, _, _ in splits])
    for k, (w, i, j, created, tied) in enumerate(splits):
        if first[k] != k:
            continue
        rot_w = rot[w]
        arc = j - i
        # w and the new vertex take the two halves; a and b gain one each
        split_degs = degs + [len(rot_w) - arc + 2]
        split_degs[w] = arc + 2
        split_degs[rot_w[i]] += 1
        split_degs[rot_w[j]] += 1
        rows = _split_rows(adj, rot_w, w, i, j)
        inside = _inside_ties(rows, split_degs, w, adj[w] | 1 << w | 1 << n,
                              created)
        if inside is None:
            continue
        child, child_rot = _split_vertex(rot, w, i, j, rows)
        cf = _form_if_canonical(child, [(w, n), *tied, *inside])
        if cf is not None:
            yield cf, (child, child_rot)


def _inside_ties(adj, degs, w, within, created):
    """The contractible edges of the child split from w, with rows adj and
    degrees degs, other than the created edge, with both ends in within,
    N[w] in the parent plus the new vertex, whose invariant ties created;
    None when one ranks below it.  These are the edges the look-ahead
    cannot rank."""
    new = len(adj) - 1
    tied = []
    for x, y in _contractible_edges(adj, within):
        if x == w and y == new:
            continue  # the created edge
        inv = _contraction_invariant(adj, degs, x, y)
        if inv < created:
            return None
        if inv == created:
            tied.append((x, y))
    return tied


@cache
def _halves_shortfall(d: int):
    """For a split of a vertex of degree d at each arc length 0..d-1, the
    degree deficiency sum(max(0, 5 - deg)) of the two halves, of degrees
    arc + 2 and d - arc + 2; and the least of it over the arcs 1..d-1 a
    split can take."""
    table = tuple(max(0, 3 - arc) + max(0, 3 - d + arc) for arc in range(d))
    return table, min(table[1:])


def _open_splits(g, rot, n_target, prune5, budget):
    """The splits (w, i, j) of g that survive two tests made on g alone,
    each with its created edge's invariant and the edges with an end
    outside N[w] that tie it.

    Every split ticks the budget once; the d(d - 1)/2 splits of a vertex
    of degree d are ticked together.  With prune5, a split is dropped
    when the degree deficiency sum(max(0, 5 - deg)) left after it exceeds
    twice the splits remaining, and a vertex none of whose splits could
    pass, even with both ends needy, is passed over whole.  Then the
    look-ahead drops a split when some edge of the child would have a
    strictly smaller contraction invariant than the created edge, a child
    ``_children`` or ``_form_if_canonical`` would reject.

    The look-ahead is exact for edges with an end outside N[w], the
    closed neighbourhood of w in g.  Splitting w at a = rot_w[i] and
    b = rot_w[j] changes only the degrees of w, the new vertex, a and b
    (a and b gain one each) and the adjacency among N[w] and the new
    vertex.  An edge xy of the child with x outside N[w] is therefore an
    edge of g with the same common neighbours, so it is contractible in
    the child iff in g, and its child invariant is its invariant in g
    with the degrees of a and b raised by one.  The created edge's
    invariant is known before the split, so ``_ties``, walking those
    edges of g in increasing invariant, finds each that beats or ties it.
    """
    n = g.n
    adj, degs = g.adj, g.degrees()
    short = [max(0, 5 - d) for d in degs]
    spare = 2 * (n_target - (n + 1)) - sum(short)
    needy = [s > 0 for s in short]
    ranked = None
    for w in range(n):
        rot_w = rot[w]
        d = len(rot_w)
        budget.tick(d * (d - 1) // 2)
        if prune5:
            halves, least = _halves_shortfall(d)
            # a split of w passes iff the halves' deficiency, less one for
            # each needy end, is at most room
            room = spare + short[w]
            if least - 2 > room:
                continue
        if ranked is None:
            # g's contractible edges by increasing invariant, each read at
            # its ends and its two common neighbours
            edges = _contractible_edges(adj, (1 << n) - 1)
            ranked = sorted(((_contraction_invariant(adj, degs, x, y), x, y,
                              1 << x | 1 << y | adj[x] & adj[y])
                             for x, y in edges), key=itemgetter(0))
        closed = adj[w] | 1 << w
        outside = [r for r in ranked
                   if ((1 << r[1]) | (1 << r[2])) & ~closed]
        for i in range(d):
            a = rot_w[i]
            for j in range(i + 1, d):
                b = rot_w[j]
                arc = j - i  # halves get degrees arc+2 and d-arc+2, both >= 3
                if prune5 and halves[arc] - needy[a] - needy[b] > room:
                    continue
                d1, d2 = arc + 2, d - arc + 2
                if d1 > d2:
                    d1, d2 = d2, d1
                da, db = degs[a] + 1, degs[b] + 1
                # w and the new vertex change degree too, but no edge
                # outside N[w] reads them; a and b are raised in place
                degs[a], degs[b] = da, db
                if da > db:
                    da, db = db, da
                created = (d1, d2, da, db)
                tied = _ties(outside, created, 1 << a | 1 << b,
                             _contraction_invariant, adj, degs)
                degs[a] -= 1
                degs[b] -= 1
                if tied is not None:
                    yield w, i, j, created, tied
