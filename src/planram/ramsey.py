"""Certificate-producing verification of the headline claims.

Every verification emits a Certificate with a verdict in {verified,
refuted, infeasible}.  A verdict of verified with exhaustive=True is only
issued when the underlying enumeration ran to completion; budget cuts and
out-of-range requests degrade to infeasible, never to a silent pass.

Upper bounds for the planar Ramsey numbers sweep only maximal C4-free
planar host graphs: adding edges to the host only removes edges from the
complement, so a wheel present in every maximal complement is present in
every complement.  The reduction is cross-checked against the full sweep
at small orders by the test suite.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from importlib import resources

from . import errors
from .canon import canonical_form
from .construct import (
    build_delta_witness,
    build_ramsey_lower_witness,
    delta_target,
    pr_target,
)
from .enumeration import EnumerationTask, classes
from .formats import from_graph6, to_graph6
from .graphs import (
    Graph,
    bits,
    check_wheel_fits,
    contains_c4,
    contains_wheel,
    cycle_of_length,
)
from .planarity import is_planar

VERSION = "1.0.0"

ENUMERATION_CAP = 11  # largest host order swept exhaustively by default


@dataclass(frozen=True)
class Certificate:
    claim_id: str
    verdict: str  # verified | refuted | infeasible
    exhaustive: bool
    witnesses: tuple[str, ...]  # graph6
    counts: dict
    runtime_ms: int
    version: str = VERSION

    def to_json(self) -> str:
        payload = dict(self.payload(), runtime_ms=self.runtime_ms)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def payload(self) -> dict:
        """Everything except the runtime, for determinism comparisons."""
        return {
            "claim_id": self.claim_id,
            "verdict": self.verdict,
            "exhaustive": self.exhaustive,
            "witnesses": list(self.witnesses),
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
            "version": self.version,
        }


def _finish(claim_id, started, verdict, exhaustive, witnesses=(), **counts):
    return Certificate(
        claim_id=claim_id,
        verdict=verdict,
        exhaustive=exhaustive,
        witnesses=tuple(witnesses),
        counts=counts,
        runtime_ms=int((time.time() - started) * 1000),
    )


def verify_pr_upper(
    n_wheel: int,
    host_order: int,
    budget_nodes: int | None = None,
) -> Certificate:
    """Does every C4-free planar graph on host_order vertices have the wheel
    in its complement?  Swept over maximal hosts only (see module docstring)."""
    started = time.time()
    claim = f"pr.upper.w{n_wheel}.n{host_order}"
    check_wheel_fits(n_wheel, host_order)
    # the task rejects an order past 64 before the cap is asked
    task = EnumerationTask(n=host_order, mode="c4free_planar",
                           maximal_only=True)
    if host_order > ENUMERATION_CAP:
        return _finish(claim, started, "infeasible", False,
                       host_order=host_order, cap=ENUMERATION_CAP)
    try:
        hosts = classes(task, budget_nodes).graphs
    except errors.InfeasibleScale:
        return _finish(claim, started, "infeasible", False,
                       host_order=host_order)
    for g in hosts:
        if contains_wheel(g.complement(), n_wheel) is None:
            return _finish(
                claim, started, "refuted", True, [to_graph6(g)],
                maximal_classes=len(hosts),
            )
    return _finish(
        claim, started, "verified", True,
        maximal_classes=len(hosts),
    )


def verify_pr_lower(n_wheel: int) -> Certificate:
    """Build a witness on pr_target - 1 vertices and re-verify it: C4-free,
    planar, and a complement without the wheel.  The complement needs no
    search where no complement degree reaches the rim length, since the
    hub is adjacent to every rim vertex."""
    started = time.time()
    claim = f"pr.lower.w{n_wheel}"
    g = build_ramsey_lower_witness(n_wheel).base
    by_degree = g.n - 1 - g.min_degree() < n_wheel
    ok = not contains_c4(g) and is_planar(g) and (
        by_degree or contains_wheel(g.complement(), n_wheel) is None)
    verdict = "verified" if ok else "refuted"
    return _finish(
        claim, started, verdict, True, [to_graph6(g)],
        witness_order=g.n, claimed_pr=pr_target(n_wheel),
        by_search=int(not by_degree),
    )


def verify_delta(n: int, budget_nodes: int | None = None) -> Certificate:
    """Both sides of the min-degree maximum at order n."""
    started = time.time()
    claim = f"delta.n{n}"
    claimed = delta_target(n)  # raises BadInput below 5
    trace = build_delta_witness(n)
    g = trace.embedding.base
    lower_ok = (
        g.n == n and g.min_degree() == claimed
        and not contains_c4(g) and is_planar(g)
    )
    counts = dict(claimed_delta=claimed, witness_order=g.n,
                  witness_ops=len(trace.ops))
    if n <= 12:
        method = "enumeration"
        task = EnumerationTask(n=n, mode="c4free_planar",
                               min_degree=claimed + 1)
        try:
            total = len(classes(task, budget_nodes).graphs)
            upper_ok = total == 0
            counts["deeper_min_degree_classes"] = total
        except errors.InfeasibleScale:
            upper_ok = None  # the budget cut the sweep short
    elif 7 * (((claimed + 1) * n + 1) // 2) > 15 * (n - 2):
        # min degree claimed + 1 needs ceil((claimed + 1) n / 2) edges,
        # more than the 15(n - 2) / 7 a C4-free planar graph can have
        method = "edge_bound"
        upper_ok = True
    else:
        # the edge count leaves room for min degree claimed + 1: only the
        # witness side is certified
        method = "none"
        upper_ok = None
    counts["upper_bound_method"] = method
    if not lower_ok:
        verdict = "refuted"
    elif upper_ok is None:
        verdict = "infeasible"
    else:
        verdict = "verified" if upper_ok else "refuted"
    return _finish(
        claim, started, verdict,
        method == "enumeration" and upper_ok is not None,
        [to_graph6(g)], **counts,
    )


# -- triangulation facts --------------------------------------------------


def _reference_triangulations(n: int):
    name = {16: "tri16", 17: "tri17", 18: "tri18"}[n]
    ref = resources.files("planram").joinpath(f"data/facts/{name}.g6")
    return [from_graph6(line) for line in ref.read_text().split()]


def _degree6_triangle_structure(g: Graph) -> bool:
    """The structure ruled out by the 16-vertex argument: four degree-6
    vertices, three of them pairwise adjacent, or two degree-6 plus two
    degree-7 vertices."""
    degs = g.degrees()
    sixes = [v for v in range(g.n) if degs[v] == 6]
    sevens = [v for v in range(g.n) if degs[v] == 7]
    if len(sixes) == 2 and len(sevens) == 2:
        return True
    if len(sixes) == 4 and not sevens:
        for i in range(4):
            for j in range(i + 1, 4):
                for k in range(j + 1, 4):
                    a, b, c = sixes[i], sixes[j], sixes[k]
                    if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c):
                        return True
    return False


def _degree5_dominates_sixes(g: Graph) -> bool:
    """Degree sequence 5^12 6^5 with a degree-5 vertex adjacent to every
    vertex of degree 6.

    The degree-sequence conjunct matters: the 17-vertex class containing a
    degree-7 vertex does have a degree-5 vertex adjacent to all its (three)
    degree-6 vertices, but it can never arise as the relevant vertex-edge
    dual, whose degree sequence is forced to 5^12 6^5.
    """
    degs = g.degrees()
    sixes = [v for v in range(g.n) if degs[v] == 6]
    if sorted(degs) != [5] * 12 + [6] * 5:
        return False
    return any(
        degs[v] == 5 and all(g.has_edge(v, s) for s in sixes)
        for v in range(g.n)
    )


_FACT_ORDERS = {"fact1": 16, "fact1_property": 16, "fact2": 17,
                "fact2_property": 17, "fact3": 18}


def check_fact(fact_id: str, budget_nodes: int | None = None) -> Certificate:
    started = time.time()
    if fact_id not in _FACT_ORDERS:
        raise ValueError(f"unknown fact {fact_id!r}")
    order = _FACT_ORDERS[fact_id]
    # fact3's search visits 36,634,487 nodes, under DEFAULT_BUDGET (50,000,000)
    task = EnumerationTask(n=order, mode="triangulation", min_degree=5)
    try:
        result = classes(task, budget_nodes)
    except errors.InfeasibleScale:
        return _finish(fact_id, started, "infeasible", False, order=order)
    graphs = result.graphs
    if fact_id in ("fact1_property", "fact2_property"):
        if order == 16:
            bad = [g for g in graphs if _degree6_triangle_structure(g)]
        else:
            bad = [g for g in graphs if _degree5_dominates_sixes(g)]
        return _finish(
            fact_id, started, "refuted" if bad else "verified", True,
            [to_graph6(g) for g in bad], classes=len(graphs),
        )
    reference = sorted(
        canonical_form(g).form for g in _reference_triangulations(order)
    )
    matches = list(result.forms) == reference
    if fact_id == "fact3":
        bad = []
        for g in graphs:
            high = tuple(v for v in range(g.n) if g.degree(v) >= 6)
            sub = g.induced(high)
            if sub.n >= 5 and cycle_of_length(sub, 5) is not None:
                bad.append(g)
        verdict = "verified" if not bad and matches else "refuted"
        return _finish(
            fact_id, started, verdict, True,
            [to_graph6(g) for g in bad], classes=len(graphs),
            matches_frozen_census=int(matches),
        )
    expected = 3 if order == 16 else 4
    ok = len(graphs) == expected and matches
    return _finish(
        fact_id, started, "verified" if ok else "refuted", True,
        [to_graph6(g) for g in graphs],
        classes=len(graphs), expected=expected,
        matches_figures=int(matches),
    )


# -- lemma sweeps ---------------------------------------------------------


def _contains_k4(g: Graph) -> bool:
    """True iff g has four pairwise adjacent vertices, that is iff its
    complement has an independent set of four."""
    adj = g.adj
    for a, b in g.edges():
        common = adj[a] & adj[b]
        for c in bits(common):
            if adj[c] & common:
                return True
    return False


def _lemma16_holds(g: Graph, comp: Graph) -> bool:
    """A cut pair of comp, the complement of g, isolates a single vertex
    z, and g minus {x, y, z} has no path of length 2.

    g must be C4-free on n >= 4 vertices.  Then comp is 3-connected iff
    its minimum degree is at least 3.  Say removing a set S of at most
    two vertices splits comp into sides A and B.  Every pair of A x B is
    an edge of g, so if both sides had two vertices, g would have a C4.
    One side is thus a single vertex z, whose comp-neighbours all lie in
    S.  Conversely, removing the at most two comp-neighbours of a vertex
    z isolates z from the n - 3 or more vertices left.
    """
    if comp.min_degree() >= 3:
        return True  # comp is 3-connected: hypothesis empty
    n = g.n
    for x in range(n):
        for y in range(x + 1, n):
            blocked = (1 << x) | (1 << y)
            for z in range(n):
                if z == x or z == y:
                    continue
                rest = ((1 << n) - 1) & ~blocked & ~(1 << z)
                if comp.adj[z] & rest:
                    continue  # z still sees the rest in the complement
                if any((g.adj[v] & rest).bit_count() >= 2
                       for v in bits(rest)):
                    continue  # g minus {x, y, z} has a path of length 2
                return True
    return False


def lemma_property_suite(
    n_max: int = ENUMERATION_CAP, budget_nodes=None
) -> Certificate:
    """Sweep Lemmas 15, 16, 17 (cycle form) and the pancyclicity lemma over
    every C4-free planar graph on 2 to n_max vertices, from one search at
    order n_max: a class on k vertices is an order-n_max class whose core
    (its non-isolated vertices) has at most k vertices, less n_max - k of
    its isolated vertices."""
    started = time.time()
    if n_max < 2:
        # the sweep starts at order 2; below that it checks nothing
        raise errors.BadInput(f"lemma sweep needs n >= 2, got {n_max}")
    # the task rejects an order past 64 before the cap is asked
    task = EnumerationTask(n=n_max, mode="c4free_planar")
    if n_max > ENUMERATION_CAP:
        return _finish("lemmas", started, "infeasible", False, n_max=n_max)
    violations = []
    checked = dict(lemma15=0, lemma16=0, lemma17=0, pancyclic=0)
    try:
        hosts = classes(task, budget_nodes).graphs
    except errors.InfeasibleScale:
        return _finish("lemmas", started, "infeasible", False, violations=0,
                       wheel_lemma_out_of_range=1, **checked)
    for h in hosts:
        core = [v for v in range(h.n) if h.adj[v]]
        isolated = [v for v in range(h.n) if not h.adj[v]]
        for n in range(max(2, len(core)), n_max + 1):
            g = h.induced(core + isolated[:n - len(core)])
            comp = g.complement()
            # Lemma 15: the complement has independence number at most 3.
            # This check cannot fail here: K4 contains a C4, so no
            # C4-free g contains K4, and the lemma15 count certifies only
            # the C4 filter of the enumeration
            checked["lemma15"] += 1
            if _contains_k4(g):
                violations.append(("lemma15", to_graph6(g)))
            if n >= 6:
                checked["lemma16"] += 1
                if not _lemma16_holds(g, comp):
                    violations.append(("lemma16", to_graph6(g)))
            if n >= 7:
                checked["pancyclic"] += 1
                has = [cycle_of_length(comp, k) is not None
                       for k in range(3, n)]
                if not all(has):
                    violations.append(("pancyclic", to_graph6(g)))
                # PR(C4, C_{n-1}) = n upper half: complement has C_{n-1},
                # the last length of the pancyclic loop
                checked["lemma17"] += 1
                if not has[-1]:
                    violations.append(("lemma17", to_graph6(g)))
    # the wheel-extraction lemma needs host order >= 12, past the sweep
    # range, so it is recorded as out of range rather than tested
    return _finish(
        "lemmas", started, "refuted" if violations else "verified", True,
        [w for _, w in violations[:10]],
        violations=len(violations), wheel_lemma_out_of_range=1, **checked,
    )
