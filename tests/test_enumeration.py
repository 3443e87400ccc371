"""Enumeration correctness against independent brute-force oracles."""

import hashlib
import itertools
import random
from dataclasses import replace

import pytest

from planram import enumeration, errors
from planram.canon import canonical_form
from planram.cli import main
from planram.construct import build_ramsey_lower_witness
from planram.enumeration import (
    EnumerationTask,
    _contraction_invariant,
    _edge_invariant,
    _Budget,
    _form_if_canonical,
    _inside_ties,
    _open_edges,
    _open_splits,
    _split_vertex,
    classes,
    enumerate_c4free_planar,
    enumerate_triangulations,
)
from planram.formats import from_graph6, from_planar_code
from planram.graphs import Graph, adding_edge_creates_c4, bits, contains_c4
from planram.planarity import (
    PlaneEmbedding,
    c4free_edge_cap,
    is_planar,
    walks,
)

from oracles import (
    brute_force_triangulation_count,
    maximal_c4free_planar,
    mckay_canonical_edges,
    networkx_is_planar,
    orbit_closure,
    recorded_search,
    relabel,
    triangulation_check,
)

# class counts frozen after oracle validation (brute force below re-derives
# the first six; the larger ones are pinned for regression)
C4FREE_PLANAR_COUNTS = [1, 2, 4, 8, 18, 44, 117, 351]

# SHA-256 of the output streams of `planram enumerate` with these
# arguments: the frozen counts pin how many classes there are, these pin
# which representatives, in what order, and for planar_code which rotations
STREAM_SHA256 = {
    ("--n", "9"):
        "3f085447be7e252929823e2b172a34212b54bbb4034aa779be2cfad83d691c64",
    ("--n", "9", "--maximal-only"):
        "110e2570b9d180e1cd42989bfec9231a680fe8fcdb16f4d944340818973952d9",
    ("--n", "9", "--maximal-only", "--format", "planar_code"):
        "c73778356916701fa93b41f2314ec92b1b47a3361442a3c3512e66f71e1aae62",
    ("--mode", "triangulation", "--n", "10", "--format", "planar_code"):
        "a576cbfc2c1701f2ac3408aa18aeb8887d902e1422bcb4cbafc267ef353df579",
    ("--mode", "triangulation", "--min-degree", "5", "--n", "14"):
        "e938ff88ef9de7134a96791d948a27163a901563d40f79e22de1ac742563ac75",
}
# SHA-256 of the concatenated canonical forms of the tasks of STREAM_SHA256:
# these pin the classes and their order whichever labelled representative
# of each class is written
FORMS_SHA256 = {
    EnumerationTask(n=9, mode="c4free_planar"):
        "5e72deef87f13a08fc7708f39e960801558edf81511570b2073dae7c5b81c008",
    EnumerationTask(n=9, mode="c4free_planar", maximal_only=True):
        "a10d67674a96c7cb48402a7f170e0afc88cb5e7219fe073d0d16f43734e6163c",
    EnumerationTask(n=10, mode="triangulation"):
        "b496b7ad01036eccc20814cfa7c428ebcbb8b4c8ebb97d45bffd45a8292e158e",
    EnumerationTask(n=14, mode="triangulation", min_degree=5):
        "2167bdf67fc1dc955246147f13f2fdb9540ca1c4f252632b183d7e5ce92ff228",
}
TRIANGULATION_COUNTS = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50}


def all_graphs_up_to_iso(n, keep):
    pairs = list(itertools.combinations(range(n), 2))
    seen = set()
    for bitsel in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bitsel >> i & 1]
        g = Graph.from_edges(n, edges)
        if not keep(g):
            continue
        form = canonical_form(g).form
        seen.add(form)
    return len(seen)


def count(n, **kw):
    task = EnumerationTask(n=n, mode="c4free_planar", **kw)
    return len(enumerate_c4free_planar(task).graphs)


def test_counts_match_brute_force_small():
    for n in range(1, 6):
        oracle = all_graphs_up_to_iso(
            n, lambda g: not contains_c4(g) and networkx_is_planar(g))
        assert count(n) == oracle == C4FREE_PLANAR_COUNTS[n - 1]


def test_counts_frozen_values():
    for n in range(6, 9):
        assert count(n) == C4FREE_PLANAR_COUNTS[n - 1]


def test_enumerate_stream_fingerprint(capsysbinary):
    for args, digest in STREAM_SHA256.items():
        assert main(["enumerate", *args]) == 0
        stream = capsysbinary.readouterr().out
        assert hashlib.sha256(stream).hexdigest() == digest, args


def test_class_forms_fingerprint():
    for task, digest in FORMS_SHA256.items():
        forms = b"".join(classes(task).forms)
        assert hashlib.sha256(forms).hexdigest() == digest, task


def test_triangulation_planar_code_embeds_the_graph6_stream(capsysbinary):
    # holds whichever plane rotations are written: record k lists exactly
    # the neighbours of the k-th graph6 class, V - E + F = 2, and for
    # triangulations every face is a triangle
    for args, classes_written in (
            (["--mode", "triangulation", "--n", "10"], 233),
            (["--n", "9", "--maximal-only"], 33)):
        assert main(["enumerate", *args]) == 0
        graph6 = capsysbinary.readouterr().out.split()
        assert main(["enumerate", *args, "--format", "planar_code"]) == 0
        rotations = from_planar_code(capsysbinary.readouterr().out)
        assert len(rotations) == len(graph6) == classes_written
        for line, rot in zip(graph6, rotations):
            g = from_graph6(line.decode())
            faces = PlaneEmbedding(g, rot).faces
            assert g.n - g.edge_count + len(faces) == 2, args
            if "triangulation" in args:
                triangulation_check(g, rot)


def test_forms_are_the_canonical_forms_in_increasing_order():
    for n in range(1, 9):
        results = [enumerate_c4free_planar(
            EnumerationTask(n=n, mode="c4free_planar"))]
        if n >= 4:
            results.append(enumerate_triangulations(
                EnumerationTask(n=n, mode="triangulation")))
        for r in results:
            assert r.forms == tuple(canonical_form(g).form for g in r.graphs)
            assert all(a < b for a, b in zip(r.forms, r.forms[1:]))


def test_maximal_classes_filter_a_cached_full_sweep(monkeypatch):
    monkeypatch.setattr(enumeration, "_CLASSES", {})
    full = EnumerationTask(n=9, mode="c4free_planar")
    maximal = replace(full, maximal_only=True)
    direct = enumerate_c4free_planar(maximal)
    classes(full)

    def traversal(*args, **kwargs):
        raise AssertionError("the full sweep is cached; no traversal needed")

    def embedding(*args, **kwargs):
        raise AssertionError("the filter reads the carried rotations")

    monkeypatch.setattr(enumeration, "enumerate_c4free_planar", traversal)
    monkeypatch.setattr(enumeration, "rotation_system", embedding)
    # the W3 lower witness is a maximal host of order 9
    assert build_ramsey_lower_witness(3).base.n == 9
    filtered = classes(maximal)
    assert filtered.graphs == direct.graphs
    assert filtered.embeddings == direct.embeddings
    assert filtered.forms == direct.forms


def reference_edge_invariant(g, u, v):
    du, dv = g.degree(u), g.degree(v)
    return (min(du, dv), max(du, dv), (g.adj[u] & g.adj[v]).bit_count())


def reference_contraction_invariant(g, u, v):
    du, dv = g.degree(u), g.degree(v)
    cdeg = sorted(g.degree(c) for c in bits(g.adj[u] & g.adj[v]))
    return (min(du, dv), max(du, dv), cdeg)


def reference_ties(g, created, edges, invariant):
    """The edges that tie created on invariant, created first and then the
    others in increasing order, or None when an edge ranks below it."""
    ranks = {e: invariant(g, *e) for e in edges}
    if min(ranks.values()) < ranks[created]:
        return None
    return [created, *sorted(e for e, inv in ranks.items()
                             if inv == ranks[created] and e != created)]


def contractible(g):
    return [(x, y) for x, y in g.edges()
            if (g.adj[x] & g.adj[y]).bit_count() == 2]


def c4free_states(n_max):
    """(g, cap) for every inner state of the C4-free trees of order up to
    n_max: every class of order n with fewer edges than cap."""
    for n in range(2, n_max + 1):
        cap = c4free_edge_cap(n) if n >= 4 else n * (n - 1) // 2
        for g in enumerate_c4free_planar(
                EnumerationTask(n=n, mode="c4free_planar")).graphs:
            if g.edge_count < cap:
                yield g, cap


def c4free_children(n_max):
    """Every planar C4-free child of every C4-free planar class below
    order n_max, with the edge ranking the C4-free search uses."""
    for n in range(2, n_max):
        task = EnumerationTask(n=n, mode="c4free_planar")
        for g in enumerate_c4free_planar(task).graphs:
            for u, v in itertools.combinations(range(n), 2):
                if g.has_edge(u, v) or adding_edge_creates_c4(g, u, v):
                    continue
                child = g.add_edge(u, v)
                if is_planar(child):
                    yield (child, list(child.edges()), _edge_invariant,
                           reference_edge_invariant)


def triangulation_splits(n_max):
    """(g, rot, w, i, j) for every vertex split of every triangulation
    class of order 4 to n_max - 1."""
    for n in range(4, n_max):
        r = enumerate_triangulations(EnumerationTask(n=n, mode="triangulation"))
        for g, rot in zip(r.graphs, r.embeddings):
            for w in range(n):
                for i, j in itertools.combinations(range(len(rot[w])), 2):
                    yield g, rot, w, i, j


def triangulation_children(n_max):
    """Every vertex split of every triangulation class of order 4 to
    n_max - 1, with the contractible edges the triangulation search ranks."""
    for g, rot, w, i, j in triangulation_splits(n_max):
        child, _ = _split_vertex(g, rot, w, i, j)
        yield (child, contractible(child), _contraction_invariant,
               reference_contraction_invariant)


def test_edge_canonicity_matches_full_rule():
    # every edge of every child, taken as the created one: handed the
    # reference tie list, the tie-break decides as the full rule does
    for children in (c4free_children(8), triangulation_children(9)):
        checked = 0
        outcomes = set()
        for child, edges, invariant, reference in children:
            # the search's invariants order the edges as the reference does
            degs = child.degrees()
            ranked = sorted((reference(child, *e), invariant(
                child.adj, degs, *e)) for e in edges)
            for (r1, i1), (r2, i2) in zip(ranked, ranked[1:]):
                assert (r1 == r2) == (i1 == i2) and i1 <= i2
            canonical = mckay_canonical_edges(child, edges, reference)
            child_form = canonical_form(child)
            for e in edges:
                tied = reference_ties(child, e, edges, reference)
                cf = None if tied is None else _form_if_canonical(child, tied)
                assert cf in (None, child_form)
                verdict = cf is not None
                assert verdict == (e in canonical)
                outcomes.add((tied is not None, verdict))
                checked += 1
        assert checked > 8000
        # both verdicts occur, including ties that the canonical labelling
        # decides
        assert outcomes == {(False, False), (True, False), (True, True)}


def test_edge_canonicity_survives_relabelling():
    # isomorphic children must get the same verdict, or a class is built
    # twice or never: relabel each child of C4-free order 7 and each
    # triangulation child of order 8 at random, with its tie list, the
    # rivals in shuffled order, and the verdict on every edge stays
    rng = random.Random(1)
    verdicts = set()
    for children, order in ((c4free_children(8), 7),
                            (triangulation_children(9), 8)):
        for child, edges, _, reference in children:
            if child.n != order:
                continue
            perm = list(range(child.n))
            rng.shuffle(perm)
            image = relabel(child, perm)
            for e in edges:
                tied = reference_ties(child, e, edges, reference)
                if tied is None:
                    continue
                moved = [tuple(sorted((perm[x], perm[y]))) for x, y in tied]
                rivals = moved[1:]
                rng.shuffle(rivals)
                verdict = _form_if_canonical(child, tied) is not None
                assert verdict == (_form_if_canonical(
                    image, [moved[0], *rivals]) is not None), (child, e)
                verdicts.add((child.n, len(tied) > 1, verdict))
    # both orders have rivals, and a rival wins somewhere
    assert {n for n, tie, _ in verdicts if tie} == {7, 8}
    assert {v[1:] for v in verdicts} == {(False, True), (True, False),
                                         (True, True)}


def test_lookahead_rejects_only_noncanonical_splits():
    # every split of every class of orders 4-10: the tree of the order-11
    # search, 29,444 splits.  The look-ahead with the scan inside N[w]
    # drops a split iff an edge of its child ranks below the created one,
    # and otherwise finds exactly the edges that tie it
    opened = {}
    outcomes = set()
    checked = 0
    for g, rot, w, i, j in triangulation_splits(11):
        if g not in opened:
            opened[g] = {split[:3]: split[3:] for split in _open_splits(
                g, rot, 11, False, _Budget(None))}
        child, _ = _split_vertex(g, rot, w, i, j)
        created = (w, g.n)
        edges = contractible(child)
        expected = reference_ties(child, created, edges,
                                  reference_contraction_invariant)
        tied = None
        if (w, i, j) in opened[g]:
            invariant, outside = opened[g][w, i, j]
            assert invariant == _contraction_invariant(
                child.adj, child.degrees(), *created)
            inside = _inside_ties(child.adj, child.degrees(), w,
                                  g.adj[w] | 1 << w | 1 << g.n, invariant)
            if inside is not None:
                tied = [created, *sorted(outside + inside)]
        assert tied == expected, (g, w, i, j)
        canonical = tied is not None and \
            _form_if_canonical(child, tied) is not None
        outcomes.add(((w, i, j) in opened[g], canonical))
        checked += 1
    assert checked == 29444
    # the look-ahead rejects splits, and leaves some non-canonical ones
    # to the scan inside N[w] or the tie-break
    assert outcomes == {(False, False), (True, False), (True, True)}


def test_lookahead_with_the_deficit_prune_rejects_only_lost_splits():
    # every split of every inner state of the min-degree-5 search of
    # order 14, 62,155 splits.  With the prune, a split is dropped iff its
    # child's deficiency sum(max(0, 5 - deg)) exceeds twice the splits
    # still to come or an edge of its child ranks below the created one;
    # otherwise the look-ahead and the scan inside N[w] find exactly the
    # edges that tie it.  The vertices passed over whole are among these
    n_target = 14
    record = recorded_search(
        EnumerationTask(n=n_target, mode="triangulation", min_degree=5))
    outcomes = set()
    checked = 0
    for g, rot in record.states:
        if g.n == n_target:
            continue  # a leaf
        opened = {split[:3]: split[3:] for split in _open_splits(
            g, rot, n_target, True, _Budget(None))}
        for w in range(g.n):
            for i, j in itertools.combinations(range(len(rot[w])), 2):
                child, _ = _split_vertex(g, rot, w, i, j)
                created = (w, g.n)
                deficit = sum(max(0, 5 - d) for d in child.degrees())
                expected = None
                if deficit <= 2 * (n_target - child.n):
                    expected = reference_ties(
                        child, created, contractible(child),
                        reference_contraction_invariant)
                tied = None
                if (w, i, j) in opened:
                    invariant, outside = opened[w, i, j]
                    assert invariant == _contraction_invariant(
                        child.adj, child.degrees(), *created)
                    inside = _inside_ties(
                        child.adj, child.degrees(), w,
                        g.adj[w] | 1 << w | 1 << g.n, invariant)
                    if inside is not None:
                        tied = [created, *sorted(outside + inside)]
                assert tied == expected, (g, w, i, j)
                canonical = tied is not None and \
                    _form_if_canonical(child, tied) is not None
                outcomes.add(((w, i, j) in opened, canonical))
                checked += 1
    # the search ticks its budget once per split of each inner state
    assert checked == record.result.nodes_visited == 62155
    assert outcomes == {(False, False), (True, False), (True, True)}


def test_orbits_match_the_closure_oracle(monkeypatch):
    # every list the searches hand _orbits: each state's candidate edges
    # or splits, and each child's tie list, grouped by the automorphisms
    # that come with them, as closing each item under them groups it
    orbits = enumeration._orbits
    merged = {2: 0, 3: 0}  # calls whose orbits merge items, by item size

    def checked(automorphisms, items):
        first = orbits(automorphisms, items)
        assert first == orbit_closure(automorphisms, items), items
        if first != list(range(len(items))):
            merged[len(items[0])] += 1
        return first

    monkeypatch.setattr(enumeration, "_orbits", checked)
    # three disjoint pairs: a union that leaves a chain of roots, and a
    # 3-cycle whose images run up the item order
    pairs = [(0, 1), (2, 3), (4, 5)]
    for automorphisms in ([(0, 1, 4, 5, 2, 3), (2, 3, 0, 1, 4, 5)],
                          [(2, 3, 4, 5, 0, 1)]):
        assert enumeration._orbits(automorphisms, pairs) == [0, 0, 0]
    merged[2] = 0
    for n in range(1, 9):
        enumerate_c4free_planar(EnumerationTask(n=n, mode="c4free_planar"))
    c4free = merged[2]
    assert c4free > 0
    enumerate_triangulations(EnumerationTask(n=11, mode="triangulation"))
    enumerate_triangulations(
        EnumerationTask(n=14, mode="triangulation", min_degree=5))
    # the triangulation searches merge both splits and tied edges
    assert merged[3] > 0 and merged[2] > c4free


def test_c4free_lookahead_rejects_only_noncanonical_children():
    # every C4-free candidate of every inner state of the trees of order
    # up to 9: the look-ahead drops a candidate iff an edge of its child
    # ranks below uv, and otherwise finds exactly the edges that tie uv
    outcomes = set()
    checked = 0
    for g, cap in c4free_states(9):
        opened = {(u, v): (rows, tied) for u, v, rows, tied
                  in _open_edges(g, cap, 0, _Budget(None))}
        for u, v in itertools.combinations(range(g.n), 2):
            if g.has_edge(u, v) or adding_edge_creates_c4(g, u, v):
                continue
            child = g.add_edge(u, v)
            expected = reference_ties(child, (u, v), list(child.edges()),
                                      reference_edge_invariant)
            tied = None
            if (u, v) in opened:
                rows, outside = opened[u, v]
                assert rows == child.adj
                tied = [(u, v), *sorted(outside)]
            assert tied == expected, (g, u, v)
            canonical = tied is not None and \
                _form_if_canonical(child, tied) is not None
            outcomes.add(((u, v) in opened, canonical))
            checked += 1
    assert checked == 21374
    # the look-ahead rejects children, and leaves the lost ties to the
    # tie-break
    assert outcomes == {(False, False), (True, False), (True, True)}


def test_every_c4free_state_carries_a_plane_rotation():
    for n in range(1, 9):
        states = recorded_search(
            EnumerationTask(n=n, mode="c4free_planar")).states
        for g, rot in states:
            for v in range(n):
                assert sorted(rot[v]) == list(bits(g.adj[v])), (g, rot)
            isolated = g.degrees().count(0)
            components = set()
            for v in range(n):
                if g.adj[v]:
                    components.add(g.component_mask(v))
            # the dart orbits; an isolated vertex lies on none
            faces = walks(rot)
            assert n - g.edge_count + len(faces) \
                == 2 * len(components) + isolated, (g, rot)


def test_open_candidates_are_closed_under_the_automorphisms():
    # the orbit rule looks up each candidate's image among the candidates,
    # so the look-ahead and the prunes must be isomorphism-invariant
    symmetric = 0
    for task in [*(EnumerationTask(n=n, mode="c4free_planar")
                   for n in range(1, 9)),
                 EnumerationTask(n=10, mode="triangulation"),
                 EnumerationTask(n=14, mode="triangulation", min_degree=5)]:
        record = recorded_search(task)
        n = task.n
        for (g, rot), automorphisms in zip(record.states,
                                           record.automorphisms):
            if task.mode == "c4free_planar":
                cap = c4free_edge_cap(n) if n >= 4 else n * (n - 1) // 2
                if g.edge_count == cap:
                    continue  # a leaf
                open_ = {frozenset(e[:2]) for e in _open_edges(
                    g, cap, task.min_degree, _Budget(None))}
            else:
                if g.n == n:
                    continue  # a leaf
                open_ = {(w, frozenset((rot[w][i], rot[w][j])))
                         for w, i, j, _, _ in _open_splits(
                             g, rot, n, task.min_degree == 5, _Budget(None))}
            for perm in automorphisms:
                if task.mode == "c4free_planar":
                    image = {frozenset(perm[x] for x in e) for e in open_}
                else:
                    image = {(perm[w], frozenset(perm[x] for x in pair))
                             for w, pair in open_}
                assert image == open_, (g, perm)
            symmetric += bool(open_ and automorphisms)
    assert symmetric > 100


def test_orbit_rule_builds_one_child_per_class():
    # the automorphisms each state travels with generate its whole group,
    # so the orbit rule leaves no two isomorphic siblings; no dedup stands
    # behind it, so an isomorphic sibling would reach the output, whose
    # forms would then repeat
    tasks = [EnumerationTask(n=n, mode="c4free_planar", maximal_only=m)
             for n in range(1, 10) for m in (False, True)]
    tasks += [EnumerationTask(n=12, mode="triangulation"),
              EnumerationTask(n=14, mode="triangulation", min_degree=5)]
    for task in tasks:
        record = recorded_search(task)
        assert record.duplicates == 0, task
        forms = record.result.forms
        assert all(a < b for a, b in zip(forms, forms[1:])), task


def test_built_children_and_classes_pass_validation():
    # children are built without Graph's checks; rebuilding each through
    # the validating constructor gives an equal graph
    tasks = [EnumerationTask(n=n, mode="c4free_planar") for n in range(1, 9)]
    tasks += [EnumerationTask(n=n, mode="triangulation") for n in range(4, 10)]
    for task in tasks:
        record = recorded_search(task)
        assert record.built or task.n <= 4, task
        for g in (*record.built, *record.result.graphs):
            assert Graph(g.n, g.adj) == g


# children built (Graph._trusted calls) per C4-free task;
# outputs and nodes_visited cannot show a look-ahead that stopped
# rejecting, or an orbit rule that stopped skipping, this count does
CHILDREN_BUILT = [
    (EnumerationTask(n=8, mode="c4free_planar"), 388),
    (EnumerationTask(n=9, mode="c4free_planar", maximal_only=True), 1432),
]


def test_c4free_children_built_frozen():
    for task, children in CHILDREN_BUILT:
        assert len(recorded_search(task).built) == children, task


# children built (_split_vertex calls) per task; outputs and nodes_visited
# cannot show a look-ahead that stopped rejecting, or an orbit rule that
# stopped skipping, this count does
SPLITS_BUILT = [
    (EnumerationTask(n=11, mode="triangulation"), 1762),
    (EnumerationTask(n=14, mode="triangulation", min_degree=5), 685),
]


def test_splits_built_frozen(monkeypatch):
    built = 0

    def counting(*args):
        nonlocal built
        built += 1
        return _split_vertex(*args)

    monkeypatch.setattr(enumeration, "_split_vertex", counting)
    for task, splits in SPLITS_BUILT:
        built = 0
        enumerate_triangulations(task)
        assert built == splits, task


def test_maximal_only_agrees_with_filter():
    whole = enumerate_c4free_planar(
        EnumerationTask(n=7, mode="c4free_planar"))
    filtered = sorted(
        canonical_form(g).form for g in whole.graphs
        if maximal_c4free_planar(g))
    direct = enumerate_c4free_planar(
        EnumerationTask(n=7, mode="c4free_planar", maximal_only=True))
    assert sorted(canonical_form(g).form for g in direct.graphs) == filtered
    assert len(filtered) > 0


def test_min_degree_agrees_with_filter():
    whole = enumerate_c4free_planar(
        EnumerationTask(n=7, mode="c4free_planar"))
    filtered = sorted(
        canonical_form(g).form for g in whole.graphs if g.min_degree() >= 2)
    direct = enumerate_c4free_planar(
        EnumerationTask(n=7, mode="c4free_planar", min_degree=2))
    assert sorted(canonical_form(g).form for g in direct.graphs) == filtered


def test_every_emitted_graph_is_valid():
    r = enumerate_c4free_planar(EnumerationTask(n=6, mode="c4free_planar"))
    for g in r.graphs:
        assert not contains_c4(g)
        assert is_planar(g)
    forms = [canonical_form(g).form for g in r.graphs]
    assert len(set(forms)) == len(forms)


def test_max_edges():
    # extremal edge counts for C4-free planar graphs at small orders;
    # the bowtie shows the order-5 value 6 is attained
    def max_edges(n):
        task = EnumerationTask(n=n, mode="c4free_planar")
        return max(g.edge_count for g in classes(task).graphs)

    assert max_edges(4) == 4
    assert max_edges(5) == 6


# search nodes (candidate edges, candidate splits) each task visits, which
# pins where the search ticks its budget as well as the tree it walks
NODES_VISITED = [
    (EnumerationTask(n=8, mode="c4free_planar"), 7184),
    (EnumerationTask(n=9, mode="c4free_planar", maximal_only=True), 32984),
    (EnumerationTask(n=8, mode="c4free_planar", min_degree=2), 7184),
    (EnumerationTask(n=11, mode="triangulation"), 29444),
    (EnumerationTask(n=14, mode="triangulation", min_degree=5), 62155),
]


def test_nodes_visited_frozen():
    for task, nodes in NODES_VISITED:
        generate = (enumerate_triangulations if task.mode == "triangulation"
                    else enumerate_c4free_planar)
        assert generate(task).nodes_visited == nodes, task


def test_a_budget_of_the_nodes_visited_is_enough():
    # the triangulation search ticks the splits of each vertex together,
    # so it must cut at the same total as a tick per split: a budget of
    # exactly the nodes visited completes, one node less is cut
    for task, nodes in NODES_VISITED:
        generate = (enumerate_triangulations if task.mode == "triangulation"
                    else enumerate_c4free_planar)
        assert generate(task, budget_nodes=nodes).nodes_visited == nodes
        with pytest.raises(errors.InfeasibleScale):
            generate(task, budget_nodes=nodes - 1)


def test_budget_exhaustion_raises():
    with pytest.raises(errors.InfeasibleScale):
        enumerate_c4free_planar(
            EnumerationTask(n=9, mode="c4free_planar"), budget_nodes=10)


def tri_count(n, min_degree=0):
    task = EnumerationTask(n=n, mode="triangulation", min_degree=min_degree)
    return len(enumerate_triangulations(task).graphs)


def test_triangulation_counts_brute_force():
    for n in (4, 5, 6, 7):
        assert tri_count(n) == brute_force_triangulation_count(n) \
            == TRIANGULATION_COUNTS[n]


def test_triangulation_count_n8():
    assert tri_count(8) == TRIANGULATION_COUNTS[8]


def test_triangulation_emits_valid_embeddings():
    r = enumerate_triangulations(EnumerationTask(n=7, mode="triangulation"))
    assert r.embeddings is not None
    for g, rot in zip(r.graphs, r.embeddings):
        triangulation_check(g, rot)
        assert g.edge_count == 3 * g.n - 6


def test_min_degree_five_triangulations_small():
    # the icosahedron is the unique smallest; none exists on 13 vertices
    assert tri_count(12, min_degree=5) == 1
    assert tri_count(13, min_degree=5) == 0


def test_every_class_extends_to_a_maximal_class():
    whole = enumerate_c4free_planar(
        EnumerationTask(n=6, mode="c4free_planar"))
    maximal_forms = set(enumerate_c4free_planar(EnumerationTask(
        n=6, mode="c4free_planar", maximal_only=True)).forms)
    for g in whole.graphs:
        # greedy completion must land on an emitted maximal class
        cur = g
        changed = True
        while changed:
            changed = False
            for u in range(cur.n):
                for v in range(u + 1, cur.n):
                    if cur.has_edge(u, v):
                        continue
                    if adding_edge_creates_c4(cur, u, v):
                        continue
                    cand = cur.add_edge(u, v)
                    if is_planar(cand):
                        cur = cand
                        changed = True
        assert maximal_c4free_planar(cur)
        assert canonical_form(cur).form in maximal_forms
