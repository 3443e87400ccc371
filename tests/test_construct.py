"""Seed loading, rotation surgery operations, and witness schedules."""

import hashlib

import pytest

from planram import errors
from planram.canon import canonical_form
from planram.construct import (
    SEED_NAMES,
    apply_op,
    build_delta_witness,
    build_ramsey_lower_witness,
    delta_target,
    load_seed,
    operation_a,
    operation_b,
    operation_c,
    pr_target,
    resolve_seed,
)
from planram.enumeration import EnumerationTask, classes
from planram.formats import to_planar_code
from planram.graphs import contains_c4, contains_wheel
from planram.planarity import edge_identity_residual, is_planar, walks

from oracles import cyclic_garbage, operation_b_inverse, replay


def test_all_seeds_load_and_pass_firewall():
    for name in SEED_NAMES:
        e = load_seed(name)
        assert not contains_c4(e.base)
        assert edge_identity_residual(e) == 0


def test_seed_headline_properties():
    a = load_seed("fig8a").base
    assert a.n == 30 and a.edge_count == 60
    assert a.min_degree() == a.max_degree() == 4
    assert load_seed("fig8b").base.n == 36
    assert load_seed("fig8c").base.n == 44
    assert load_seed("fig8d").base.n == 46
    assert load_seed("fig8e").base.n == 47
    for name in ("fig8b", "fig8c", "fig8d", "fig8e"):
        assert load_seed(name).base.min_degree() == 4
    ten = load_seed("fig10").base
    assert ten.n == 10 and ten.min_degree() == 3


def test_unknown_seed():
    with pytest.raises(errors.UnknownSeed):
        load_seed("fig99")


def test_resolve_cycle_seed():
    e = resolve_seed("cycle7")
    assert e.base.n == 7 and e.base.min_degree() == 2


def _valid_state(e, min_degree):
    assert not contains_c4(e.base)
    assert is_planar(e.base)
    assert e.base.min_degree() >= min_degree


def test_operation_a_all_valid_applications():
    e = resolve_seed("fig8b")
    applied = 0
    for face in e.faces:
        if len(face) < 6:
            continue
        walk = [u for u, _ in face]
        k = len(walk)
        for i in range(k):
            u, v = walk[i], walk[(i + 3) % k]
            if e.base.degree(u) != 4 or e.base.degree(v) != 4:
                continue
            try:
                out = operation_a(e, face, u, v)
            except errors.PlanramError:
                continue
            applied += 1
            _valid_state(out, 4)
            assert out.base.n == e.base.n + 3
            assert out.base.edge_count == e.base.edge_count + 6
            # 4-regularity preserved and a long face survives
            assert out.base.max_degree() == 4
            assert max(len(f) for f in out.faces) >= 6
    assert applied > 0


def _b_applications(e):
    """(v, choice, child) for every application of operation B to e."""
    for v in range(e.base.n):
        for choice in (0, 1):
            try:
                yield v, choice, operation_b(e, v, choice)
            except errors.PlanramError:
                continue


def test_operation_b_all_valid_applications():
    e = resolve_seed("fig8a")
    deg4 = sum(1 for v in range(e.base.n) if e.base.degree(v) == 4)
    choices = set()
    for v, choice, out in _b_applications(e):
        choices.add(choice)
        _valid_state(out, 3)
        assert out.base.n == e.base.n + 1
        assert out.base.edge_count == e.base.edge_count + 1
        new_deg4 = sum(1 for u in range(out.base.n) if out.base.degree(u) == 4)
        new_deg3 = sum(1 for u in range(out.base.n) if out.base.degree(u) == 3)
        assert new_deg4 == deg4 - 1
        assert new_deg3 == 2
    assert choices == {0, 1}


def test_operation_b_rejects_short_crossed_faces():
    # some pairing at a degree-4 vertex of fig10 crosses a face shorter
    # than 5
    e = resolve_seed("fig10")
    tried = [(v, c) for v in range(e.base.n) if e.base.degree(v) == 4
             for c in (0, 1)]
    applied = {(v, c) for v, c, _ in _b_applications(e)}
    assert applied and applied < set(tried)
    v, c = next(vc for vc in tried if vc not in applied)
    with pytest.raises(errors.BadVertex, match="crossed faces"):
        operation_b(e, v, c)


def test_operation_b_roundtrip():
    e = resolve_seed("fig8a")
    for v, _, out in _b_applications(e):
        back = operation_b_inverse(out, (v, out.base.n - 1))
        assert canonical_form(back.base).form == canonical_form(e.base).form


def test_operation_c_from_fig10():
    e = resolve_seed("fig10")
    applied = 0
    for _, _, grown in _b_applications(e):
        for u, v in grown.base.edges():
            try:
                out = operation_c(grown, (u, v))
            except errors.PlanramError:
                continue
            applied += 1
            _valid_state(out, 3)
            assert out.base.n == grown.base.n + 2
            assert out.base.edge_count == grown.base.edge_count + 4
    assert applied > 0


def test_delta_targets():
    assert [delta_target(n) for n in (5, 9, 10, 29, 30, 31, 36, 39, 42, 43,
                                      44, 50)] \
        == [2, 2, 3, 3, 4, 3, 4, 4, 4, 3, 4, 4]
    with pytest.raises(errors.UnsupportedOrder):
        delta_target(4)


def test_delta_witness_schedule():
    for n in range(5, 54):
        trace = build_delta_witness(n)
        g = trace.embedding.base
        assert g.n == n
        assert g.min_degree() == delta_target(n)
        assert not contains_c4(g)
        assert is_planar(g)


# SHA256 of (n, seed, ops) and the planar_code of build_delta_witness(n)
# for n = 5..64: every schedule the search picks and every rotation it builds
WITNESS_SHA256 = \
    "e305748764118c6eca4429906b3567d93e19eb54feebdf79d30cd302c62d8768"


def test_delta_witnesses_are_pinned():
    h = hashlib.sha256()
    for n in range(5, 65):
        trace = build_delta_witness(n)
        h.update(repr((n, trace.seed, trace.ops)).encode())
        h.update(to_planar_code([trace.embedding.rotation]))
    assert h.hexdigest() == WITNESS_SHA256


def test_schedule_search_leaves_no_reference_cycle():
    assert cyclic_garbage(lambda: build_delta_witness(12), times=10) == 0


def test_trace_replay_is_deterministic():
    for n in (13, 33, 45):
        trace = build_delta_witness(n)
        replayed = replay(trace)
        a = to_planar_code([trace.embedding.rotation])
        b = to_planar_code([replayed.rotation])
        assert a == b


def test_apply_op_rejects_garbage():
    e = resolve_seed("fig10")
    with pytest.raises(errors.PlanramError):
        apply_op(e, ("B", 0, 0))  # vertex 0 has degree 3, not 4


def test_apply_op_rejects_a_walk_that_is_no_face():
    e = resolve_seed("fig8b")
    face = next(f for f in walks(e.rotation) if len(f) >= 6)
    u, v = face[0][0], face[3][0]
    with pytest.raises(errors.BadFace):
        apply_op(e, ("A", u, v, face[1:]))


def test_pr_targets():
    assert [pr_target(n) for n in (3, 4, 5, 6, 7, 25, 26, 39, 40)] \
        == [10, 9, 10, 9, 11, 29, 31, 43, 45]


def test_ramsey_lower_witness_small():
    for wheel in (4, 5, 6, 7):
        e = build_ramsey_lower_witness(wheel)
        g = e.base
        assert g.n == pr_target(wheel) - 1
        assert not contains_c4(g)
        assert is_planar(g)
        assert contains_wheel(g.complement(), wheel) is None


def test_w3host_is_the_first_w3_free_maximal_host():
    # the stored W3 witness is the one a sweep of the order-9 maximal
    # hosts selects: the first, in class order, whose complement has no
    # W3, with the rotation its search carried
    hosts = classes(EnumerationTask(n=9, mode="c4free_planar",
                                    maximal_only=True))
    first = next(rot for g, rot in zip(hosts.graphs, hosts.embeddings)
                 if contains_wheel(g.complement(), 3) is None)
    assert load_seed("w3host").rotation == first


def test_gamma_edges_pair_up_at_degree_4_vertices():
    # in every grown minimum-degree-4 witness, a triangle-free edge at a
    # degree-4 vertex never comes alone
    from planram.planarity import gamma

    for n in (30, 36, 44, 45, 46, 47, 48, 49):
        g = build_delta_witness(n).embedding.base
        if g.min_degree() < 4:
            continue
        free = gamma(g)
        for u, v in free:
            for x in (u, v):
                if g.degree(x) == 4:
                    others = [e for e in free if x in e
                              and e != (u, v)]
                    assert others, f"lone triangle-free edge at {x} in n={n}"
