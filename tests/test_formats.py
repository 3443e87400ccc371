"""graph6 and planar_code round trips."""

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from planram import errors
from planram.formats import (
    PLANAR_CODE_HEADER,
    from_graph6,
    from_planar_code,
    rotation_to_graph,
    to_graph6,
    to_planar_code,
)
from planram.graphs import Graph
from planram.planarity import PlaneEmbedding, embed

from oracles import wheel


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


def test_graph6_known_values():
    # standard encodings of small graphs
    assert to_graph6(Graph.complete(4)) == "C~"
    assert to_graph6(Graph.empty(5)) == "D??"
    assert from_graph6("C~").adj == Graph.complete(4).adj


def test_graph6_roundtrip():
    rng = random.Random(20)
    for _ in range(100):
        g = random_graph(rng.randint(1, 20), rng.random(), rng)
        assert from_graph6(to_graph6(g)).adj == g.adj


def test_graph6_rejects_garbage():
    with pytest.raises(Exception):
        from_graph6("")


def test_planar_code_roundtrip():
    rng = random.Random(21)
    rots = []
    for n in (4, 5, 8, 10):
        g = Graph.cycle(n)
        rots.append(embed(g).rotation)
    blob = to_planar_code(rots)
    assert blob.startswith(b">>planar_code<<")
    back = from_planar_code(blob)
    assert [tuple(r) for r in back] == [tuple(r) for r in rots]


def test_rotation_to_graph():
    e = embed(wheel(5))
    g = rotation_to_graph(e.rotation)
    assert g.adj == wheel(5).adj


@given(st.one_of(st.text(), st.binary().map(lambda b: b.decode("latin-1"))))
def test_graph6_garbage_raises_only_bad_input(text):
    try:
        g = from_graph6(text)
    except errors.BadInput:
        return
    assert from_graph6(to_graph6(g)).adj == g.adj


def _planar_code_like(adjacency):
    """One planar_code graph from 1-based neighbour lists, valid or not."""
    out = bytearray([len(adjacency)])
    for nbrs in adjacency:
        out += bytes(nbrs) + b"\0"
    return bytes(out)


near_valid = st.lists(st.lists(st.integers(1, 6), max_size=4),
                      min_size=1, max_size=6).map(_planar_code_like)


@given(st.one_of(st.binary(), near_valid), st.booleans())
@example(b"\x02\x02\x00\x00", False)  # 1 lists 2, 2 lists nothing
@example(b"\x02\x02\x02\x00\x01\x00", False)  # 1 lists 2 twice
def test_planar_code_garbage_raises_only_bad_input(blob, header):
    try:
        rotations = from_planar_code(PLANAR_CODE_HEADER + blob if header
                                     else blob)
    except errors.BadInput:
        return
    for rotation in rotations:
        try:
            PlaneEmbedding(rotation_to_graph(rotation), rotation)
        except errors.NotPlanar:
            pass  # a rotation system need not be a plane one
