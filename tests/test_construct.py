"""Seed loading, rotation surgery operations, and witness schedules."""

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
from planram.formats import to_planar_code
from planram.graphs import contains_c4, contains_wheel
from planram.planarity import edge_identity_residual, is_planar

from oracles import operation_b_inverse, replay


def test_all_seeds_load_and_pass_firewall():
    for name in SEED_NAMES:
        e = load_seed(name)
        e.check_valid()
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
    e.check_valid()
    assert not contains_c4(e.base)
    assert is_planar(e.base)
    assert e.base.min_degree() >= min_degree


def test_operation_a_all_valid_applications():
    e = resolve_seed("fig8b")
    applied = 0
    for face in e.faces:
        if face.length < 6:
            continue
        walk = [u for u, _ in face.boundary]
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
            assert max(f.length for f in out.faces) >= 6
    assert applied > 0


def test_operation_b_all_valid_applications():
    e = resolve_seed("fig8a")
    deg4 = sum(1 for v in range(e.base.n) if e.base.degree(v) == 4)
    applied = 0
    for v in range(e.base.n):
        if e.base.degree(v) != 4:
            continue
        try:
            out = operation_b(e, v)
        except errors.PlanramError:
            continue
        applied += 1
        _valid_state(out, 3)
        assert out.base.n == e.base.n + 1
        new_deg4 = sum(1 for u in range(out.base.n) if out.base.degree(u) == 4)
        new_deg3 = sum(1 for u in range(out.base.n) if out.base.degree(u) == 3)
        assert new_deg4 == deg4 - 1
        assert new_deg3 == 2
    assert applied > 0


def test_operation_b_roundtrip():
    e = resolve_seed("fig8a")
    for v in range(e.base.n):
        try:
            out = operation_b(e, v)
        except errors.PlanramError:
            continue
        back = operation_b_inverse(out, (v, out.base.n - 1))
        assert canonical_form(back.base).form == canonical_form(e.base).form


def test_operation_c_from_fig10():
    e = resolve_seed("fig10")
    grown = operation_b(e, next(v for v in range(10) if e.base.degree(v) == 4))
    applied = 0
    for u, v in grown.base.edges():
        try:
            out = operation_c(grown, (u, v))
        except errors.PlanramError:
            continue
        applied += 1
        _valid_state(out, 3)
        assert out.base.n == grown.base.n + 2
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
        trace.embedding.check_valid()


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


def test_pr_targets():
    assert [pr_target(n) for n in (3, 4, 5, 6, 7, 25, 26, 39, 40)] \
        == [10, 9, 10, 9, 11, 29, 31, 43, 45]


def test_ramsey_lower_witness_small():
    for wheel in (4, 5, 6, 7):
        e = build_ramsey_lower_witness(wheel)
        e.check_valid()
        g = e.base
        assert g.n == pr_target(wheel) - 1
        assert not contains_c4(g)
        assert is_planar(g)
        assert contains_wheel(g.complement(), wheel) is None


def test_gamma_edges_pair_up_at_degree_4_vertices():
    # in every grown minimum-degree-4 witness, a triangle-free edge at a
    # degree-4 vertex never comes alone
    from planram.planarity import gamma

    for n in (30, 36, 44, 45, 46, 47, 48, 49):
        g = build_delta_witness(n).embedding.base
        if g.min_degree() < 4:
            continue
        rep = gamma(g)
        for u, v in rep.gamma_edges:
            for x in (u, v):
                if g.degree(x) == 4:
                    others = [e for e in rep.gamma_edges if x in e
                              and e != (u, v)]
                    assert others, f"lone triangle-free edge at {x} in n={n}"
