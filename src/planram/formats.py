"""graph6 and planar_code readers/writers.

graph6 follows the McKay format description: header byte 63+n for n <= 62
(or '~' plus three 6-bit bytes up to n = 258047), then the upper triangle
packed column-major in 6-bit chunks offset by 63.

planar_code follows the plantri convention: optional ">>planar_code<<"
header, then per graph one byte for n and, for every vertex, its neighbours
in rotation order as 1-based bytes terminated by 0.

Both readers raise ``errors.BadInput`` on malformed input, and only that.
"""

from __future__ import annotations

from . import errors
from .graphs import MAX_VERTICES, Graph

PLANAR_CODE_HEADER = b">>planar_code<<"


def to_graph6(g: Graph) -> str:
    if g.n <= 62:
        header = chr(63 + g.n)
    else:
        header = "~" + "".join(
            chr(63 + (g.n >> shift & 63)) for shift in (12, 6, 0)
        )
    bitstream = []
    for v in range(1, g.n):
        for u in range(v):
            bitstream.append(g.adj[u] >> v & 1)
    while len(bitstream) % 6:
        bitstream.append(0)
    chars = []
    for i in range(0, len(bitstream), 6):
        value = 0
        for b in bitstream[i : i + 6]:
            value = value << 1 | b
        chars.append(chr(63 + value))
    return header + "".join(chars)


def from_graph6(text: str) -> Graph:
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<") :]
    data = [ord(c) - 63 for c in text]
    if not data or any(not 0 <= d <= 63 for d in data):
        raise errors.BadInput(f"invalid graph6 {text[:20]!r}")
    if data[0] == 63:  # '~' long form
        if len(data) < 4:
            raise errors.BadInput(f"truncated graph6 {text!r}")
        n = data[1] << 12 | data[2] << 6 | data[3]
        data = data[4:]
    else:
        n = data[0]
        data = data[1:]
    if n > MAX_VERTICES:
        raise errors.BadInput(f"graph6 order {n} exceeds {MAX_VERTICES}")
    need = (n * (n - 1) // 2 + 5) // 6  # 6 bits per byte, rounded up
    if len(data) != need:
        raise errors.BadInput(
            f"graph6 of order {n} needs {need} data bytes, got {len(data)}")
    bitstream = []
    for d in data:
        for shift in range(5, -1, -1):
            bitstream.append(d >> shift & 1)
    rows = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bitstream[i]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            i += 1
    return Graph(n, tuple(rows))


def to_planar_code(rotations: list[tuple[tuple[int, ...], ...]]) -> bytes:
    """Encode rotation systems (0-based neighbour tuples per vertex)."""
    out = bytearray(PLANAR_CODE_HEADER)
    for rotation in rotations:
        n = len(rotation)
        if n > 255:
            raise ValueError("planar_code byte form supports n <= 255")
        out.append(n)
        for nbrs in rotation:
            for u in nbrs:
                out.append(u + 1)
            out.append(0)
    return bytes(out)


def from_planar_code(blob: bytes) -> list[tuple[tuple[int, ...], ...]]:
    """Decode a planar_code stream into 0-based rotation systems.

    Each rotation is checked to be one of a simple graph on 1..MAX_VERTICES
    vertices: labels in range, no loops or repeated neighbours, and v lists
    u exactly when u lists v.
    """
    if blob.startswith(PLANAR_CODE_HEADER):
        blob = blob[len(PLANAR_CODE_HEADER) :]
    rotations = []
    i = 0
    try:
        while i < len(blob):
            n = blob[i]
            i += 1
            if not 1 <= n <= MAX_VERTICES:
                raise errors.BadInput(
                    f"planar_code order {n} outside 1..{MAX_VERTICES}")
            rotation = []
            for _ in range(n):
                nbrs = []
                while blob[i] != 0:
                    nbrs.append(blob[i] - 1)
                    i += 1
                i += 1  # consume terminator
                rotation.append(tuple(nbrs))
            rotations.append(tuple(rotation))
    except IndexError:
        raise errors.BadInput("truncated planar_code") from None
    for k, rotation in enumerate(rotations):
        n = len(rotation)
        for v, nbrs in enumerate(rotation):
            if len(set(nbrs)) != len(nbrs) or any(
                not 0 <= u < n or u == v or v not in rotation[u]
                for u in nbrs
            ):
                raise errors.BadInput(
                    f"planar_code graph {k}: bad neighbours of vertex {v + 1}")
    return rotations


def rotation_to_graph(rotation) -> Graph:
    edges = set()
    for v, nbrs in enumerate(rotation):
        for u in nbrs:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(len(rotation), sorted(edges))
