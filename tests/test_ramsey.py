"""Certificates: structure, determinism, and small-order verdicts."""

import json

import pytest

from planram import construct, enumeration, errors, ramsey
from planram.formats import from_graph6
from planram.graphs import (
    Graph,
    connectivity,
    contains_c4,
    contains_wheel,
    independence_number,
)
from planram.planarity import is_planar


def test_certificate_json_is_canonical():
    cert = ramsey.verify_pr_lower(6)
    text = cert.to_json()
    payload = json.loads(text)
    assert payload["verdict"] == "verified"
    assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == text
    assert isinstance(payload["runtime_ms"], int)


def test_witnesses_revalidate_independently():
    for wheel in (3, 4, 5, 6):
        cert = ramsey.verify_pr_lower(wheel)
        g = from_graph6(cert.witnesses[0])
        assert not contains_c4(g)
        assert is_planar(g)
        assert contains_wheel(g.complement(), wheel) is None
    assert ramsey.verify_pr_lower(3).payload() == {
        "claim_id": "pr.lower.w3", "verdict": "verified", "exhaustive": True,
        "witnesses": ["H{CYOCB"], "version": "1.0.0",
        "counts": {"by_search": 1, "claimed_pr": 10, "witness_order": 9}}


def test_a_budget_cuts_the_search():
    for claim in (lambda budget: ramsey.verify_pr_upper(4, 9, budget),
                  lambda budget: ramsey.lemma_property_suite(7, budget)):
        assert claim(None).verdict == "verified"
        cut = claim(10)
        assert cut.verdict == "infeasible"
        assert not cut.exhaustive


def test_one_budget_caps_the_whole_lemma_sweep():
    # the sweep to order 7 is one order-7 search of 1,746 nodes
    assert enumeration.classes(enumeration.EnumerationTask(
        n=7, mode="c4free_planar")).nodes_visited == 1746
    assert ramsey.lemma_property_suite(7, 1746).verdict == "verified"
    cut = ramsey.lemma_property_suite(7, 1745)
    assert cut.verdict == "infeasible"
    assert not cut.exhaustive
    assert cut.counts["lemma15"] == 0


def test_lemma_sweep_runs_one_search(monkeypatch):
    searches = []

    def counting(task, budget_nodes=None):
        searches.append(task)
        return enumeration.classes(task, budget_nodes)

    monkeypatch.setattr(ramsey, "classes", counting)
    assert ramsey.lemma_property_suite(8).verdict == "verified"
    assert searches == [enumeration.EnumerationTask(
        n=8, mode="c4free_planar")]


def test_lemma_sweep_derives_every_smaller_class_once(monkeypatch):
    # the graphs the lemma checks see, order by order, are the classes a
    # search at that order finds, each exactly once
    from planram.canon import canonical_form

    seen = []

    def recording(g):
        seen.append(g)
        return False

    monkeypatch.setattr(ramsey, "_contains_k4", recording)
    assert ramsey.lemma_property_suite(9).verdict == "verified"
    for k in range(2, 10):
        derived = sorted(canonical_form(g).form for g in seen if g.n == k)
        direct = enumeration.classes(enumeration.EnumerationTask(
            n=k, mode="c4free_planar")).forms
        assert derived == list(direct), k
    assert {g.n for g in seen} == set(range(2, 10))


def test_pr_lower_wheel_search_count(monkeypatch):
    # a seed's wheel-free complement is searched by load_seed, a grown
    # witness needs none, and verify_pr_lower searches only up to order 30
    searches = []

    def counting(g, m):
        searches.append(m)
        return contains_wheel(g, m)

    monkeypatch.setattr(construct, "contains_wheel", counting)
    monkeypatch.setattr(ramsey, "contains_wheel", counting)
    for wheel, expected in ((3, 2), (7, 1), (40, 0)):
        searches.clear()
        assert ramsey.verify_pr_lower(wheel).verdict == "verified"
        assert len(searches) == expected, wheel


def test_pr_upper_small_verified():
    for wheel, host in ((4, 9), (6, 9)):
        cert = ramsey.verify_pr_upper(wheel, host)
        assert cert.verdict == "verified"
        assert cert.exhaustive
        assert cert.counts["maximal_classes"] > 0


def test_pr_upper_refuted_below_threshold():
    # 9 hosts are not enough to force a W5, so the claim refutes with a
    # counterexample that revalidates
    cert = ramsey.verify_pr_upper(5, 9)
    assert cert.verdict == "refuted"
    g = from_graph6(cert.witnesses[0])
    assert not contains_c4(g) and is_planar(g)
    assert contains_wheel(g.complement(), 5) is None


def test_pr_upper_infeasible_beyond_cap():
    cert = ramsey.verify_pr_upper(26, 31)
    assert cert.verdict == "infeasible"
    assert not cert.exhaustive


def test_delta_certificates_small():
    for n, claimed in ((5, 2), (8, 2), (10, 3)):
        cert = ramsey.verify_delta(n)
        assert cert.verdict == "verified"
        assert cert.counts["claimed_delta"] == claimed
        assert cert.counts["deeper_min_degree_classes"] == 0


def test_delta_analytic_sides():
    cert = ramsey.verify_delta(30)
    assert cert.verdict == "verified"
    assert cert.counts["upper_bound_method"] == "edge_bound"
    cert = ramsey.verify_delta(20)
    assert cert.verdict == "verified"
    assert cert.counts["upper_bound_method"] == "edge_bound"
    cert = ramsey.verify_delta(33)
    assert cert.verdict == "infeasible"
    assert cert.counts["upper_bound_method"] == "none"


def test_delta_rejects_small_order():
    with pytest.raises(errors.UnsupportedOrder):
        ramsey.verify_delta(4)


def test_determinism_across_worker_counts():
    # every search runs in one process; what remains to hold is that two
    # runs of one claim give the same certificate
    for claim in (lambda: ramsey.verify_pr_upper(6, 9),
                  lambda: ramsey.verify_delta(8)):
        assert claim().payload() == claim().payload()


def test_maximality_reduction_cross_check():
    # upper-bound verdicts agree between the maximal-host reduction and
    # the full sweep at small orders
    from planram.canon import canonical_form
    from planram.enumeration import EnumerationTask, enumerate_c4free_planar

    for wheel, host in ((4, 8), (6, 8)):
        full = enumerate_c4free_planar(
            EnumerationTask(n=host, mode="c4free_planar"))
        full_holds = all(
            contains_wheel(g.complement(), wheel) is not None
            for g in full.graphs)
        cert = ramsey.verify_pr_upper(wheel, host)
        assert (cert.verdict == "verified") == full_holds


def test_lemma_suite_small():
    cert = ramsey.lemma_property_suite(n_max=8)
    assert cert.verdict == "verified"
    assert cert.counts["violations"] == 0
    assert cert.counts["lemma15"] > 0
    assert cert.counts["wheel_lemma_out_of_range"] == 1


def test_lemma16_hypothesis_is_the_complement_min_degree():
    # the complement of a C4-free graph on n >= 4 vertices is 3-connected
    # iff its minimum degree is at least 3; _lemma16_holds reads its
    # hypothesis off that degree and scans the complement's rows only
    # when it is not 3-connected
    class Watched:
        def __init__(self, g):
            self.g, self.read = g, False

        def min_degree(self):
            return self.g.min_degree()

        @property
        def adj(self):
            self.read = True
            return self.g.adj

    outcomes = set()
    for n in range(4, 10):
        for g in enumeration.classes(enumeration.EnumerationTask(
                n=n, mode="c4free_planar")).graphs:
            comp = g.complement()
            three = connectivity(comp) > 2
            assert (comp.min_degree() >= 3) == three, g
            watched = Watched(comp)
            assert ramsey._lemma16_holds(g, watched)
            assert watched.read == (not three), g
            outcomes.add(three)
    assert outcomes == {False, True}


def test_contains_k4_matches_independence_of_complement():
    # Lemma 15's predicate, independence number of the complement above
    # 3, asked on g as a clique of four
    graphs = [Graph.complete(4), Graph.complete(5)] + [
        g for n in range(1, 10)
        for g in enumeration.classes(
            enumeration.EnumerationTask(n=n, mode="c4free_planar")).graphs]
    outcomes = set()
    for g in graphs:
        k4 = ramsey._contains_k4(g)
        assert k4 == (independence_number(g.complement()) > 3), g
        outcomes.add(k4)
    assert outcomes == {False, True}


def test_fact_property_predicates_on_reference_lists():
    # the structural predicates must hold on the packaged reference classes
    # without rerunning the enumerations
    for g in ramsey._reference_triangulations(16):
        assert not ramsey._degree6_triangle_structure(g)
    seqs = []
    for g in ramsey._reference_triangulations(17):
        assert not ramsey._degree5_dominates_sixes(g)
        seqs.append(sorted(g.degrees()))
    # exactly one class escapes the forced degree sequence 5^12 6^5; it has
    # a degree-5 vertex next to all its degree-6 vertices, so the sequence
    # conjunct in the predicate is load-bearing
    assert sum(s == [5] * 13 + [6] * 3 + [7] for s in seqs) == 1
    assert sum(s == [5] * 12 + [6] * 5 for s in seqs) == 3


def test_fact3_budget_cut_is_infeasible():
    # the search itself is cut, as every other search is
    cert = ramsey.check_fact("fact3", budget_nodes=0)
    assert cert.verdict == "infeasible"
    assert not cert.exhaustive
    assert cert.counts == {"order": 18}


def test_unknown_fact():
    with pytest.raises(ValueError):
        ramsey.check_fact("fact9")

