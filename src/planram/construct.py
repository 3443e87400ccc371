"""Seed graphs and the growth operations on plane embeddings.

Seeds are stored as plain-text rotation systems under data/seeds and are
re-verified against their claimed properties on every load, so a bad
transcription cannot survive silently.

The three operations grow a C4-free plane graph while controlling the
minimum degree:

* Operation A takes a face walk of length >= 6, splits two degree-4
  vertices at distance 3 along it and drops a new degree-4 vertex inside.
  Net +3 vertices, +6 edges, minimum degree stays 4.
* Operation B splits one degree-4 vertex across two incident faces of
  length >= 5 and joins the halves by an edge.  Net +1 vertex; the two
  halves have degree 3.
* Operation C subdivides an edge shared by two faces of length >= 6 into a
  path of three edges and adds two chords.  Net +2 vertices; minimum
  degree stays 3 and the two chord targets gain a degree.

Each operation writes only the new rotation system; the child graph is
read off it.  Each operation alone decides whether it applies: it raises
BadInput when its preconditions fail, and PropertyViolation when the
child is not a C4-free plane graph of the promised minimum degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from . import errors
from .formats import rotation_to_graph
from .graphs import MAX_VERTICES, Graph, contains_c4
from .planarity import PlaneEmbedding, edge_identity_residual

SEED_NAMES = (
    "fig8a", "fig8b", "fig8c", "fig8d", "fig8e",
    "fig10", "fig12a", "fig12b", "fig12c", "w3host",
)

# claimed properties: order, min degree, 4-regular?, guaranteed face length
_CLAIMS = {
    "fig8a": dict(order=30, min_degree=4, regular=True),
    "fig8b": dict(order=36, min_degree=4, big_face=6),
    "fig8c": dict(order=44, min_degree=4),
    "fig8d": dict(order=46, min_degree=4, big_face=6),
    "fig8e": dict(order=47, min_degree=4, big_face=6),
    "fig10": dict(order=10, min_degree=3),
    "fig12a": dict(order=8),
    "fig12b": dict(order=9),
    "fig12c": dict(order=8),
    "w3host": dict(order=9),
}


def _read_rotation(name: str):
    ref = resources.files("planram").joinpath(f"data/seeds/{name}.rot")
    rotation = {}
    for line in ref.read_text().splitlines():
        head, _, tail = line.partition(":")
        rotation[int(head)] = tuple(int(x) for x in tail.split())
    return tuple(rotation[v] for v in range(len(rotation)))


def load_seed(name: str) -> PlaneEmbedding:
    """Load a seed and fail loudly unless every claimed property holds."""
    if name not in SEED_NAMES:
        raise errors.BadInput(f"no seed named {name!r}")
    rotation = _read_rotation(name)
    graph = rotation_to_graph(rotation)
    embedding = PlaneEmbedding(graph, rotation)
    claims = _CLAIMS[name]
    if graph.n != claims["order"]:
        raise errors.PropertyViolation(f"seed {name}: order {graph.n}")
    if contains_c4(graph):
        raise errors.PropertyViolation(f"seed {name}: contains a C4")
    if "min_degree" in claims and graph.min_degree() != claims["min_degree"]:
        raise errors.PropertyViolation(
            f"seed {name}: min degree {graph.min_degree()}")
    if claims.get("regular") and graph.max_degree() != graph.min_degree():
        raise errors.PropertyViolation(f"seed {name}: not regular")
    if "big_face" in claims:
        longest = max(len(f) for f in embedding.faces)
        if longest < claims["big_face"]:
            raise errors.PropertyViolation(
                f"seed {name}: largest face {longest}")
    if edge_identity_residual(embedding) != 0:
        raise errors.PropertyViolation(
            f"seed {name}: edge identity residual nonzero")
    return embedding


# -- shared helpers -------------------------------------------------------


def _post_check(rotation, min_degree: int, op: str) -> PlaneEmbedding:
    """The embedding of an operation's new rotation, checked to be a C4-free
    plane graph of the given minimum degree."""
    rotation = tuple(rotation)
    try:
        e = PlaneEmbedding(rotation_to_graph(rotation), rotation)
    except errors.NotPlanar as ex:
        raise errors.PropertyViolation(f"{op}: {ex}") from None
    if contains_c4(e.base):
        raise errors.PropertyViolation(f"{op}: created a C4")
    if e.base.min_degree() != min_degree:
        raise errors.PropertyViolation(
            f"{op}: minimum degree {e.base.min_degree()} != {min_degree}"
        )
    return e


def _replace(rotation, vertex, old, new):
    rv = rotation[vertex]
    return tuple(new if x == old else x for x in rv)


# -- Operation A ----------------------------------------------------------


def operation_a(e: PlaneEmbedding, face, u: int, v: int) -> PlaneEmbedding:
    """Split u and v on a >= 6 face and hang a new vertex between the halves.

    face is one of e's face walks.  u and v must be degree-4 vertices, v
    three steps after u along the walk.  The result keeps minimum degree 4
    and must still have a face of length >= 6.
    """
    g = e.base
    if face not in e.faces:
        raise errors.BadInput("face does not belong to this embedding")
    if len(face) < 6:
        raise errors.BadInput(f"face length {len(face)} < 6")
    if g.degree(u) != 4 or g.degree(v) != 4:
        raise errors.BadInput("u and v must have degree 4")
    walk = [a for a, _ in face]
    try:
        i = walk.index(u)
    except ValueError:
        raise errors.BadInput("u is not on the face") from None
    k = len(face)
    if u == v or walk[(i + 3) % k] != v:
        raise errors.BadInput("v is not three steps after u on the face")
    p1, p2 = walk[(i + 1) % k], walk[(i + 2) % k]
    q = walk[(i - 1) % k]
    r = walk[(i + 4) % k]
    rot = e.rotation
    n = g.n
    u1, u2, v1, v2, w = u, n, v, n + 1, n + 2

    # at u the face corner is (q, u) -> (u, p1): rotation reads (q, p1, x1, x2)
    ru = rot[u]
    iq = ru.index(q)
    x1, x2 = ru[(iq + 2) % 4], ru[(iq + 3) % 4]
    # at v the corner is (p2, v) -> (v, r): rotation reads (p2, r, y1, y2)
    rv = rot[v]
    ip = rv.index(p2)
    y1, y2 = rv[(ip + 2) % 4], rv[(ip + 3) % 4]

    new_rot = list(rot)
    new_rot[u1] = (q, w, u2, x2)
    new_rot[v1] = (w, r, y1, v2)
    new_rot[p1] = _replace(new_rot, p1, u, u2)
    new_rot[x1] = _replace(new_rot, x1, u, u2)
    new_rot[p2] = _replace(new_rot, p2, v, v2)
    new_rot[y2] = _replace(new_rot, y2, v, v2)
    new_rot.append((w, p1, x1, u1))       # u2
    new_rot.append((p2, w, v1, y2))       # v2
    new_rot.append((u2, u1, v1, v2))      # w
    result = _post_check(new_rot, 4, "operation A")
    if max(len(f) for f in result.faces) < 6:
        raise errors.PropertyViolation("operation A: no face of length >= 6 left")
    return result


# -- Operation B ----------------------------------------------------------


def operation_b(e: PlaneEmbedding, v: int, choice: int) -> PlaneEmbedding:
    """Split a degree-4 vertex 2-2 and join the halves by a new edge.

    With v's rotation read from position choice as (n0, n1, n2, n3), v
    keeps n0 and n3 and the new vertex takes n1 and n2, so the new edge
    crosses the faces at the corners (n0, n1) and (n2, n3).  Both must
    have length >= 5.
    """
    g = e.base
    if not 0 <= v < g.n or g.degree(v) != 4:
        raise errors.BadInput("operation B needs a degree-4 vertex")
    rv = e.rotation[v]
    n0, n1, n2, n3 = (rv[(choice + i) % 4] for i in range(4))
    f, h = e.face_of[(n0, v)], e.face_of[(n2, v)]
    if len(f) < 5 or len(h) < 5:
        raise errors.BadInput(
            f"operation B at {v}: crossed faces have lengths "
            f"{len(f)}, {len(h)}"
        )
    v1, v2 = v, g.n
    new_rot = list(e.rotation)
    new_rot[v1] = (n0, v2, n3)
    new_rot[n1] = _replace(new_rot, n1, v, v2)
    new_rot[n2] = _replace(new_rot, n2, v, v2)
    new_rot.append((n1, n2, v1))  # v2
    return _post_check(new_rot, 3, "operation B")


# -- Operation C ----------------------------------------------------------


def operation_c(e: PlaneEmbedding, edge: tuple[int, int]) -> PlaneEmbedding:
    """Subdivide an edge between two >= 6 faces and add two chords.

    The edge u-v becomes u-a-b-v; a is joined to the vertex three steps
    behind u on the face containing the dart (u, v), and b to the vertex
    two steps past u on the face containing (v, u).  All four resulting
    faces have length >= 5.
    """
    g = e.base
    u, v = edge
    if not g.has_edge(u, v):
        raise errors.BadInput(f"{edge} is not an edge")
    f, h = e.face_of[(u, v)], e.face_of[(v, u)]
    if len(f) < 6 or len(h) < 6:
        raise errors.BadInput(
            f"faces at the edge have lengths {len(f)}, {len(h)}; need >= 6"
        )
    fwalk = [x for x, _ in f]
    hwalk = [x for x, _ in h]
    fi = f.index((u, v))
    hi = h.index((v, u))
    # on f, walking backwards from u, three steps away from v
    tf = fwalk[(fi - 3) % len(f)]
    tf_prev = fwalk[(fi - 4) % len(f)]
    # on h, walking forwards past u, two steps
    tg = hwalk[(hi + 3) % len(h)]
    tg_prev = hwalk[(hi + 2) % len(h)]
    a, b = g.n, g.n + 1
    new_rot = list(e.rotation)
    new_rot[u] = _replace(new_rot, u, v, a)
    new_rot[v] = _replace(new_rot, v, u, b)
    # chord targets: the new neighbour goes right after the walk predecessor
    new_rot[tf] = _insert_after(new_rot[tf], tf_prev, a)
    new_rot[tg] = _insert_after(new_rot[tg], tg_prev, b)
    new_rot.append((u, tf, b))  # a
    new_rot.append((v, tg, a))  # b
    return _post_check(new_rot, g.min_degree(), "operation C")


def _insert_after(rotation: tuple, anchor: int, new: int) -> tuple:
    i = rotation.index(anchor)
    return rotation[: i + 1] + (new,) + rotation[i + 1 :]


# -- construction traces --------------------------------------------------


@dataclass(frozen=True)
class ConstructionTrace:
    """A seed name plus the exact operation schedule that was applied."""

    seed: str
    ops: tuple[tuple, ...]
    embedding: PlaneEmbedding


_CYCLE_ORDERS = {f"cycle{k}": k for k in range(3, MAX_VERTICES + 1)}


def resolve_seed(name: str) -> PlaneEmbedding:
    """A stored seed, or cycleN, the N-cycle, for 3 <= N <= MAX_VERTICES;
    any other name raises BadInput."""
    k = _CYCLE_ORDERS.get(name)
    if k is None:
        return load_seed(name)
    rotation = tuple(((v - 1) % k, (v + 1) % k) for v in range(k))
    return PlaneEmbedding(Graph.cycle(k), rotation)


def apply_op(e: PlaneEmbedding, op: tuple) -> PlaneEmbedding:
    kind = op[0]
    if kind == "A":
        _, u, v, face = op
        return operation_a(e, face, u, v)
    if kind == "B":
        _, v, choice = op
        return operation_b(e, v, choice)
    if kind == "C":
        _, u, v = op
        return operation_c(e, (u, v))
    raise ValueError(f"unknown operation {kind!r}")


# Move generators list candidates in a fixed order; the operation decides
# which of them apply.


def _a_moves(e: PlaneEmbedding):
    for face in e.faces:
        walk = [a for a, _ in face]
        for i, u in enumerate(walk):
            yield ("A", u, walk[(i + 3) % len(walk)], face)


def _b_moves(e: PlaneEmbedding):
    for v in range(e.base.n):
        if e.base.degree(v) == 4:
            yield ("B", v, 0)
            yield ("B", v, 1)


def _c_moves(e: PlaneEmbedding):
    for u, v in e.base.edges():
        yield ("C", u, v)


_GROW_NODE_CAP = 20_000  # moves a schedule search may try


def _grow_to(e: PlaneEmbedding, target: int, move_gen):
    """Depth-first schedule search; returns the op list reaching the order."""
    found = _schedule(e, [], target, move_gen, [0])
    if found is None:
        raise errors.BadInput(f"no schedule found for order {target}")
    return found


def _schedule(e: PlaneEmbedding, ops, target: int, move_gen, nodes: list):
    """(ops extended by the first schedule of move_gen's moves that grows
    e to the target order, the grown embedding), depth first, or None.
    nodes[0] counts the moves tried, against ``_GROW_NODE_CAP``."""
    if e.base.n == target:
        return ops, e
    if e.base.n > target:
        return None
    for op in move_gen(e):
        nodes[0] += 1
        if nodes[0] > _GROW_NODE_CAP:
            raise errors.InfeasibleScale("schedule search exceeded its cap")
        try:
            nxt = apply_op(e, op)
        except errors.PlanramError:
            continue
        found = _schedule(nxt, ops + [op], target, move_gen, nodes)
        if found is not None:
            return found
    return None


def _moves_bc(e):
    yield from _c_moves(e)
    yield from _b_moves(e)


def _delta_plan(n: int):
    """(claimed maximum of the minimum degree, seed, move generator) of the
    witness at order n.  A seed of order n is the witness itself."""
    if n < 5:
        raise errors.BadInput("orders below 5 are out of scope")
    if n <= 9:
        return 2, f"cycle{n}", _moves_bc
    if n <= 29:
        return 3, "fig10", _moves_bc
    if n <= 43 and n not in (36, 39, 42):
        return (4 if n == 30 else 3), "fig8a", _moves_bc
    if n == 44:
        return 4, "fig8c", _a_moves
    return 4, ("fig8b", "fig8d", "fig8e")[n % 3], _a_moves


def delta_target(n: int) -> int:
    """The claimed maximum of the minimum degree at each order."""
    return _delta_plan(n)[0]


def build_delta_witness(n: int) -> ConstructionTrace:
    """A C4-free planar graph of order n with the claimed minimum degree."""
    if not 5 <= n <= MAX_VERTICES:
        raise errors.BadInput(f"no witness for order {n}")
    want, seed, moves = _delta_plan(n)
    ops, e = _grow_to(resolve_seed(seed), n, moves)
    got = e.base.min_degree()
    if got != want:
        raise errors.PropertyViolation(
            f"witness for {n} has minimum degree {got}, wanted {want}"
        )
    return ConstructionTrace(seed, tuple(ops), e)


def pr_target(n_wheel: int) -> int:
    """The claimed planar Ramsey number against the wheel on n_wheel + 1 vertices."""
    if n_wheel < 3:
        raise errors.BadInput("wheels start at W3")
    if n_wheel == 3:
        return 10
    if n_wheel in (4, 5):
        return n_wheel + 5
    if n_wheel == 6:
        return 9
    if n_wheel >= 40 or n_wheel in (26, 32, 35, 38):
        return n_wheel + 5
    return n_wheel + 4


def build_ramsey_lower_witness(n_wheel: int) -> PlaneEmbedding:
    """A C4-free plane graph on pr_target - 1 vertices, with the rotation
    it was built with: a stored seed up to W6, grown from W7 on.  That its
    complement avoids the wheel is what ``verify pr-lower`` certifies."""
    order = pr_target(n_wheel) - 1  # BadInput below W3
    if n_wheel <= 6:
        return load_seed({3: "w3host", 4: "fig12a", 5: "fig12b",
                          6: "fig12c"}[n_wheel])
    return build_delta_witness(order).embedding
