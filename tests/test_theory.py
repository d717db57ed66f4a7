"""Verification of the product identities, each computing both sides independently."""

import itertools
import json
import pickle
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexmetric import space as space_module
from lexmetric import theory as theory_module
from lexmetric.construct import (
    complete_graph,
    cycle_graph,
    discrete_metric,
    graph_metric,
    lexicographic,
    path_graph,
    squash,
)
from lexmetric.resolving import metric_dimension
from lexmetric.space import FiniteMetricSpace, space_stats, validate
from lexmetric.theory import (
    SizeGuardExceeded,
    connected_graph_spaces,
    fiber_dimensions,
    formula_rhs,
    random_connected_graph,
    random_metric_space,
    random_pairs,
    verify_all,
    verify_corollaries,
    verify_diameter,
    verify_dimension,
    verify_squash,
    weighted_corpus_spaces,
)
from lexmetric.twins import special_classes, twin_classes

from test_construct import HALF_PAIR, K2

P3 = graph_metric(path_graph(3))
P4 = graph_metric(path_graph(4))
K3 = graph_metric(complete_graph(3))
C4 = graph_metric(cycle_graph(4))


class TestFormulaRhs:
    def test_k2_by_k2(self):
        assert formula_rhs(K2, K2) == 3

    def test_half_pair_drops_the_twin_term(self):
        assert formula_rhs(K2, HALF_PAIR) == 2

    def test_twins_free_base_is_plain_sum(self):
        assert formula_rhs(P4, K2) == 4

    # An asymmetric base, and a base with two points at distance 0.
    @pytest.mark.parametrize(
        "table",
        [[[0, 2, 3], [4, 0, 2], [1, 3, 0]], [[0, 0, 1], [0, 0, 1], [1, 1, 0]]],
        ids=["asymmetric", "zero-nearness"],
    )
    @pytest.mark.parametrize("check", [formula_rhs, fiber_dimensions])
    def test_refuses_the_factors_lexicographic_refuses(self, table, check):
        base = FiniteMetricSpace(("a", "b", "c"), table)
        with pytest.raises(ValueError) as refused:
            lexicographic(base, K2)
        with pytest.raises(ValueError) as raised:
            check(base, K2)
        assert str(raised.value) == str(refused.value)


class TestVerifyDimension:
    def test_k2_by_k2(self):
        report = verify_dimension(K2, K2)
        assert report.passed
        assert (report.lhs, report.rhs) == (3, 3)

    def test_k2_by_p3(self):
        report = verify_dimension(K2, P3)
        assert report.passed
        assert (report.lhs, report.rhs) == (3, 3)

    def test_p3_by_k2(self):
        assert verify_dimension(P3, K2).passed

    def test_fiber_past_the_enumeration_cap(self):
        # Each fiber is the 17-point discrete space, past the 16-point cap
        # of complete basis enumeration: 16 + 16 + one twin excess.
        report = verify_dimension(K2, discrete_metric(17))
        assert report.passed
        assert (report.lhs, report.rhs) == (33, 33)

    def test_witnesses_support_replay(self):
        report = verify_dimension(K2, P3)
        w = report.witnesses
        assert w["product_points"] == 6
        assert w["fiber_dimensions"] == {"v1": 1, "v2": 1}
        assert w["special_classes"] == [["v1", "v2"]]
        # The inputs are stated once, by the CLI's pair document, not by each report.
        assert set(w) == {
            "product_points", "product_basis", "fiber_dimensions", "special_classes",
            "twin_classes",
        }

    def test_size_guard(self):
        with pytest.raises(SizeGuardExceeded, match="42"):
            verify_dimension(discrete_metric(7), discrete_metric(6))

    def test_report_serializes(self):
        doc = verify_dimension(K2, K2).to_json_dict()
        assert set(doc) == {"theorem", "lhs", "rhs", "pass", "witnesses"}
        json.dumps(doc)


class TestVerifyDiameter:
    def test_k2_by_k2(self):
        report = verify_diameter(K2, K2)
        assert report.passed and report.lhs == report.rhs == 1.0

    def test_p3_by_p4(self):
        report = verify_diameter(P3, P4)
        assert report.passed
        assert report.rhs == 2.0

    def test_small_second_factor(self):
        report = verify_diameter(K2, HALF_PAIR)
        assert report.passed
        assert report.rhs == 1.0

    def test_exact_sides_pass_at_tolerance_zero(self):
        """Equal sides are within a zero tolerance."""
        exact = [graph_metric(path_graph(n), tolerance=0.0) for n in (3, 2)]
        report = verify_diameter(*exact)
        assert report.passed and report.lhs == report.rhs == 2.0


class TestVerifyCorollaries:
    def test_twins_free_applies_to_p4(self):
        reports = {r.theorem: r for r in verify_corollaries(P4, K2)}
        r = reports["corollary-twins-free"]
        assert not r.skipped and r.passed
        assert (r.lhs, r.rhs) == (4, 4)

    def test_small_diameter_applies_to_half_pair(self):
        reports = {r.theorem: r for r in verify_corollaries(K2, HALF_PAIR)}
        r = reports["corollary-small-diameter"]
        assert not r.skipped and r.passed
        assert (r.lhs, r.rhs) == (2, 2)

    def test_both_skip_for_k3_by_k2(self):
        # K3 has twins, and the second diameter 1 equals the nearness 1
        # instead of being below it.
        reports = verify_corollaries(K3, K2)
        assert all(r.skipped for r in reports)
        assert all(r.passed is None for r in reports)

    def test_skipped_report_serializes_with_flag(self):
        doc = verify_corollaries(K3, K2)[0].to_json_dict()
        assert set(doc) == {"theorem", "lhs", "rhs", "pass", "witnesses"}
        assert (doc["lhs"], doc["rhs"], doc["pass"]) == (None, None, None)

    @pytest.mark.parametrize("base", [K2, P3, K3, C4], ids=["K2", "P3", "K3", "C4"])
    @pytest.mark.parametrize(
        "steps, passed", [(-0.5, None), (-1, None), (-2, True), (-3, True)]
    )
    def test_small_diameter_applies_only_past_the_tolerance(self, base, steps, passed):
        # The second factor's diameter sits `steps` tolerances from the base nearness 1:
        # within one tolerance of it the class is special and the premise does not hold.
        d = 1 + steps * 1e-9
        second = FiniteMetricSpace(("y1", "y2"), [[0, d], [d, 0]])
        assert verify_corollaries(base, second)[1].passed is passed

    def test_applicable_corollary_matches_general_formula(self):
        for base, second in ((P4, K2), (K2, HALF_PAIR), (P4, HALF_PAIR)):
            for report in verify_corollaries(base, second):
                if not report.skipped:
                    assert report.rhs == formula_rhs(base, second)


class TestVerifySquash:
    def test_k2_by_p4(self):
        report = verify_squash(K2, P4)
        assert report.passed
        assert report.rhs == 2

    def test_k3_by_c4(self):
        report = verify_squash(K3, C4)
        assert report.passed
        assert report.rhs == 6

    def test_squashed_diameter_strictly_below_nearness(self):
        witnesses = verify_squash(K3, C4).witnesses
        assert witnesses["squashed_diameter"] < witnesses["base_nearness"]

    @pytest.mark.parametrize(
        "nearness, table, tolerance",
        [
            # float64 rounds both far distances to the nearness 1.0
            (1, [[0, 1e17, 2e17], [1e17, 0, 1e17], [2e17, 1e17, 0]], 1e-9),
            # the one distance lands on the nearness
            (1, [[0, 1e17], [1e17, 0]], 1e-9),
            # the squash cuts the 3e-9 gap to a quarter, below the 1e-9 tolerance
            (1, [[0, 1, 1 + 3e-9], [1, 0, 1], [1 + 3e-9, 1, 0]], 1e-9),
            # the squashed diameter 3/4 sits exactly the tolerance below the nearness 1
            (1, [[0, 3], [3, 0]], 0.25),
            # 0 and 1 are apart, but their images 0 and 3/4 are exactly the tolerance apart
            (3, [[0, 1], [1, 0]], 0.75),
            # each distance is within the tolerance of the next, but the first and last are
            # not, and their images are: no two sorted neighbours merge
            (
                1,
                [
                    [0, 1.9999999990000001, 1.999999998],
                    [1.9999999990000001, 0, 1.999999999],
                    [1.999999998, 1.999999999, 0],
                ],
                1e-9,
            ),
        ],
        ids=[
            "far-path", "far-pair", "gap-at-tolerance", "diameter-at-tolerance",
            "images-at-tolerance", "tolerance-chain",
        ],
    )
    def test_a_squash_that_merges_distances_is_skipped(self, nearness, table, tolerance):
        base = FiniteMetricSpace(("v1", "v2"), [[0, nearness], [nearness, 0]])
        second = FiniteMetricSpace(tuple("abc"[: len(table)]), table, tolerance)
        for _ in range(2):
            report = verify_squash(base, second)
            assert report.skipped and (report.lhs, report.rhs) == (None, None)
            assert report.witnesses == {
                "reason": "squashing merges distances the tolerance tells apart",
                "base_nearness": float(nearness),
            }

    @pytest.mark.parametrize("budget", [1, 8])
    def test_a_chain_merge_is_found_in_any_row_block(self, budget):
        """Row blocks of one and of two of the four distinct entries find the one pair
        that merges, the first and last entries of the chain."""
        a, b, c = 1.9999999990000001, 1.999999998, 1.999999999
        second = FiniteMetricSpace(("y1", "y2", "y3"), [[0, a, b], [a, 0, c], [b, c, 0]])
        with mock.patch.object(space_module, "_BLOCK_ENTRIES", budget):
            assert verify_squash(K2, second).skipped

    def test_distances_exactly_the_tolerance_apart_may_merge(self):
        """1 and 1.25 are one distance at tolerance 0.25, so their images 1/2 and 5/9
        coming within the tolerance merges nothing."""
        table = [[0, 1, 1.25], [1, 0, 1], [1.25, 1, 0]]
        report = verify_squash(K2, FiniteMetricSpace(("a", "b", "c"), table, 0.25))
        assert report.passed and (report.lhs, report.rhs) == (4, 4)

    def test_a_squashed_factor_of_another_dimension_fails(self, monkeypatch):
        """The product matches the squashed factor's dimension but not the second
        factor's. The stand-in squash puts C4's points on a line at 0, 1/4, 1/2 and
        3/8: distances 1 and 2 go to 1/4 and 1/2, and the end at 0 resolves it."""
        import lexmetric.theory as theory

        x = [0, 0.25, 0.5, 0.375]
        line = FiniteMetricSpace(C4.points, [[abs(a - b) for b in x] for a in x])
        monkeypatch.setattr(theory, "squash", lambda eta, space: line)
        report = verify_squash(K2, C4)
        assert report.passed is False
        assert (report.lhs, report.rhs, report.witnesses["squashed_dimension"]) == (2, 4, 1)

    @pytest.mark.parametrize("space", [P3, P4, C4, K3, HALF_PAIR])
    def test_squash_keeps_dimension(self, space):
        squashed = squash(1.0, space)
        assert metric_dimension(space).dimension == metric_dimension(squashed).dimension


class TestCorpusGenerators:
    def test_connected_graph_counts(self):
        # Labeled connected graphs: 1 on two vertices, 4 on three, 38 on four.
        assert len(connected_graph_spaces(2, 2)) == 1
        assert len(connected_graph_spaces(3, 3)) == 4
        assert len(connected_graph_spaces(4, 4)) == 38
        assert len(connected_graph_spaces(2, 4)) == 43

    @pytest.mark.parametrize("min_n", [1, 0, -2])
    def test_connected_graphs_reject_a_min_n_below_two(self, min_n):
        with pytest.raises(ValueError, match=f"min_n of at least 2, got {min_n}$"):
            connected_graph_spaces(min_n, 3)

    def test_weighted_corpus_is_valid(self):
        spaces = weighted_corpus_spaces()
        assert len(spaces) == 3
        assert all(validate(s).ok for s in spaces)

    def test_random_metric_space_is_valid(self):
        rng = np.random.default_rng(7)
        for n in (2, 4, 6):
            assert validate(random_metric_space(rng, n)).ok

    def test_random_connected_graph_is_connected(self):
        rng = np.random.default_rng(11)
        for extra_edge_prob in (0.3, 0.0, 1.0):
            for n in (2, 3, 5, 7):
                graph = random_connected_graph(rng, n, extra_edge_prob)
                graph_metric(graph)
                # No extra edge leaves the spanning tree; every one makes the complete graph.
                if extra_edge_prob in (0.0, 1.0):
                    complete = n * (n - 1) // 2
                    assert len(graph.edges) == (n - 1 if extra_edge_prob == 0.0 else complete)

    @pytest.mark.parametrize(
        "draw, message",
        [
            (random_connected_graph, "^need at least two vertices$"),
            (random_metric_space, "^need at least two points$"),
        ],
        ids=["graph", "metric-space"],
    )
    def test_random_draws_refuse_one_point(self, draw, message):
        with pytest.raises(ValueError, match=message):
            draw(np.random.default_rng(0), 1)

    def test_random_pairs_are_reproducible_and_guarded(self):
        first = random_pairs(123, 10)
        second = random_pairs(123, 10)
        for (a1, b1), (a2, b2) in zip(first, second):
            assert np.array_equal(a1.dist, a2.dist)
            assert np.array_equal(b1.dist, b2.dist)
        assert all(a.n * b.n <= 36 for a, b in first)

    @pytest.mark.parametrize("guard", range(4, 13))
    def test_random_pairs_fit_small_guards(self, guard):
        pairs = random_pairs(1, 20, guard)
        assert len(pairs) == 20
        assert all(2 <= a.n and 2 <= b.n and a.n * b.n <= guard for a, b in pairs)

    def test_random_pairs_reject_a_guard_below_two_by_two(self):
        with pytest.raises(ValueError, match="at least 4"):
            random_pairs(1, 3, 3)

    def test_random_pairs_reject_a_negative_count(self):
        with pytest.raises(ValueError, match="count of at least 0, got -3"):
            random_pairs(1, -3)
        assert random_pairs(1, 0) == []

    def test_random_pairs_reject_a_negative_seed(self):
        with pytest.raises(ValueError, match="seed of at least 0, got -1"):
            random_pairs(-1, 3)
        assert len(random_pairs(0, 3)) == 3


def small_corpus():
    bases = connected_graph_spaces(2, 3, prefix="x")
    seconds = connected_graph_spaces(2, 3, prefix="y") + weighted_corpus_spaces()
    return [(b, s) for b in bases for s in seconds]


def test_identities_hold_on_small_exhaustive_corpus():
    for base, second in small_corpus():
        for report in verify_all(base, second):
            assert report.passed is not False, (
                report.theorem,
                base.points,
                second.points,
                report.witnesses,
            )


def test_full_corpus_with_weighted_seconds():
    """Graph bases up to 4 vertices against graph and weighted second factors:
    every identity holds and each applicable corollary agrees with the
    general closed form."""
    bases = connected_graph_spaces(2, 4, prefix="x")
    seconds = connected_graph_spaces(2, 3, prefix="y") + weighted_corpus_spaces()
    for base in bases:
        for second in seconds:
            for report in verify_all(base, second):
                assert report.passed is not False, (
                    report.theorem,
                    base.points,
                    second.points,
                )
                if report.theorem.startswith("corollary") and not report.skipped:
                    assert report.rhs == formula_rhs(base, second)


def test_identities_hold_on_random_weighted_pairs():
    for base, second in random_pairs(seed=20260809, count=8):
        assert verify_dimension(base, second).passed
        assert verify_diameter(base, second).passed


TWIN_RICH = [(K3, s) for s in (K2, P3, P4, C4, HALF_PAIR)] + [(C4, K2), (C4, P3)]


@pytest.mark.parametrize(
    "pairs",
    [small_corpus, lambda: random_pairs(20260809, 8), lambda: TWIN_RICH],
    ids=["small-exhaustive", "random-weighted", "twin-rich"],
)
def test_verify_all_matches_the_single_report_functions(pairs):
    for base, second in pairs():
        together = [r.to_json_dict() for r in verify_all(base, second)]
        apart = [
            verify_dimension(base, second),
            verify_diameter(base, second),
            *verify_corollaries(base, second),
            verify_squash(base, second),
        ]
        assert together == [r.to_json_dict() for r in apart], (base.points, second.points)


FACT_CALLS = ("gravitational", "squash", "twin_classes", "_asymmetric")


@pytest.fixture
def counted(monkeypatch):
    """Record every product built and every table whose separator words are built, and
    count the calls that work out a factor's facts: fibers (``gravitational``), squashed
    factors, twin partitions and symmetry checks (``_asymmetric``)."""
    import lexmetric.resolving as resolving
    import lexmetric.theory as theory

    calls = {"products": 0, "solves": [], "facts": dict.fromkeys(FACT_CALLS, 0)}

    def lexicographic(first, second):
        calls["products"] += 1
        return real_lexicographic(first, second)

    # Every solve's family, product, fiber or factor, starts from these words;
    # a constrained solve that rebuilt a fiber's family would show as a repeat.
    def separator_words(space):
        calls["solves"].append((space.points, space.dist.tobytes()))
        return real_separator_words(space)

    def counting(module, name):
        real = getattr(module, name)

        def call(*args):
            calls["facts"][name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, call)

    real_lexicographic = theory.lexicographic
    real_separator_words = resolving._separator_words
    monkeypatch.setattr(theory, "lexicographic", lexicographic)
    monkeypatch.setattr(resolving, "_separator_words", separator_words)
    for name in FACT_CALLS:
        counting(space_module if name == "_asymmetric" else theory, name)
    return calls


# A weighted base with nearness 1 at x1 and x2 and 2 at x3, and two fresh weighted second
# factors, as corpus makes them: of diameter 1.5, which both caps reach, and of diameter
# 3, which the cap 2 does not.
TWO_NEARNESS = FiniteMetricSpace(("x1", "x2", "x3"), [[0, 1, 2], [1, 0, 2], [2, 2, 0.0]])
BOTH_CAPS_REACH = FiniteMetricSpace(("y1", "y2", "y3"), [[0, 1, 1.5], [1, 0, 1], [1.5, 1, 0]])
ONE_CAP_REACHES = FiniteMetricSpace(("y1", "y2", "y3"), [[0, 1, 3], [1, 0, 2], [3, 2, 0.0]])


@pytest.mark.parametrize(
    "base, second, caps",
    [
        (K3, P3, 1),
        (C4, P4, 2),
        (C4, HALF_PAIR, 1),
        (TWO_NEARNESS, BOTH_CAPS_REACH, 1),
        (TWO_NEARNESS, ONE_CAP_REACHES, 2),
        (K2, FiniteMetricSpace(HALF_PAIR.points, HALF_PAIR.dist, 0.25), 1),
    ],
)
def test_verify_all_builds_two_products_and_solves_each_table_once(
    counted, monkeypatch, base, second, caps
):
    # One fiber is built per effective cap min(2 t, diameter), and the one at the
    # diameter is the second factor itself, solved once for its dimension and every
    # fiber it serves. The other tables are the product, its squash and the squashed
    # second factor. The unit-weight bases cap at 2, below the diameter of P4 alone.
    # ``special_classes`` on the same factor objects then reads the records: it builds
    # no fiber and runs no plain or constrained solve.
    import lexmetric.twins as twins

    witness = verify_all(base, second)[0].witnesses["special_classes"]
    assert counted["products"] == 2
    assert counted["facts"]["gravitational"] == caps
    assert len(counted["solves"]) == len(set(counted["solves"])) == 3 + caps
    counted["solves"].clear()
    counted["facts"] = dict.fromkeys(FACT_CALLS, 0)

    def constrained_solve(*args):
        raise AssertionError("special_classes ran a constrained solve")

    monkeypatch.setattr(twins, "_least_basis", constrained_solve)
    assert [list(c) for c in special_classes(base, second).member_classes] == witness
    assert counted["facts"] == dict.fromkeys(FACT_CALLS, 0)
    assert counted["solves"] == []


def test_verify_all_past_the_guard_raises_before_any_solve(counted):
    with pytest.raises(SizeGuardExceeded, match="42"):
        verify_all(discrete_metric(7), discrete_metric(6))
    assert (counted["products"], counted["solves"]) == (0, [])


@pytest.mark.parametrize("warm", [False, True])
def test_every_report_that_builds_a_product_refuses_one_past_the_guard(counted, warm):
    """K2 x HALF_PAIR has 4 points, and every check applies to it: each report raises at
    a guard of 3 before it builds a product, while the closed form still answers."""
    if warm:
        verify_all(K2, HALF_PAIR)
        counted["products"] = 0
    checks = [verify_dimension, verify_diameter, verify_corollaries, verify_squash, verify_all]
    for check in checks:
        with pytest.raises(SizeGuardExceeded, match="product has 4 points"):
            check(K2, HALF_PAIR, 3)
    assert counted["products"] == 0
    assert fiber_dimensions(K2, HALF_PAIR) == {"v1": 1, "v2": 1}
    assert formula_rhs(K2, HALF_PAIR) == 2
    # Both corollaries skip on K3 x K2, so neither builds a product or meets the guard.
    assert all(r.skipped for r in verify_corollaries(K3, K2, 3))


def test_the_memo_holds_only_families_and_components():
    """The solver's memo keeps its reduced families and hitting-set components
    alone: twin partitions, tables' dimensions and special-class answers are kept in the
    factor records, which ``special_classes`` shares with ``verify_all``, and
    ``twin_classes`` keeps nothing."""
    import lexmetric.resolving as resolving

    for base, second in memo_pairs():
        verify_all(base, second)
        twin_classes(base)
        special_classes(base, second)
    keys = [pickle.loads(key) for key in resolving._TABLES]
    assert has_component_entries()
    assert all(type(key) is list or key[1:] == ("family",) for key in keys)


def test_second_verify_all_of_a_pair_solves_only_the_products(counted, monkeypatch):
    """Fiber, factor, squash and special-class results come from the records the first
    run kept with its two factors; only the two products are built and solved again. A
    new base of the same nearness with the same second factor builds no new fiber and
    no new squashed factor: its twin classes are its own, and its special classes are
    answered from the kept fiber."""
    import lexmetric.twins as twins

    constrained = []

    def least_basis(space, family, must_hit, enumerate_all=False):
        constrained.append(space.points)
        return real_least_basis(space, family, must_hit, enumerate_all)

    real_least_basis = twins._least_basis
    monkeypatch.setattr(twins, "_least_basis", least_basis)
    first = json.dumps([r.to_json_dict() for r in verify_all(C4, P4)])
    assert constrained and len(counted["solves"]) == 5
    # Two fibers: P4 capped at 2, and P4 uncapped, which gives its own dimension.
    assert [counted["facts"][name] for name in FACT_CALLS[:3]] == [2, 1, 1]
    counted["solves"].clear()
    counted["facts"] = dict.fromkeys(FACT_CALLS, 0)
    constrained.clear()
    second = json.dumps([r.to_json_dict() for r in verify_all(C4, P4)])
    assert second == first
    assert constrained == []
    assert counted["facts"] == dict.fromkeys(FACT_CALLS, 0)
    assert len(counted["solves"]) == 2
    assert all(len(points) == C4.n * P4.n for points, _ in counted["solves"])

    counted["solves"].clear()
    k3 = graph_metric(complete_graph(3))  # a new object, whose symmetry is checked once
    reports = [r.to_json_dict() for r in verify_all(k3, P4)]
    assert constrained  # K3's twin gap is 1, C4's is 2
    only_the_base = {"gravitational": 0, "squash": 0, "twin_classes": 1, "_asymmetric": 1}
    assert counted["facts"] == only_the_base
    assert len(counted["solves"]) == 2
    assert all(len(points) == K3.n * P4.n for points, _ in counted["solves"])
    theory_module._FACTORS.clear()
    assert reports == [r.to_json_dict() for r in verify_all(K3, graph_metric(path_graph(4)))]


def test_nothing_handed_back_reaches_a_factor_record():
    """Changing what one ``verify_all`` and the factor functions handed back changes no
    later report of a pair that shares either factor."""
    pairs = [(C4, P4), (C4, K2), (K3, P4), (P4, C4)]
    expected = [json.dumps([r.to_json_dict() for r in verify_all(b, s)]) for b, s in pairs]
    theory_module._FACTORS.clear()
    witnesses = verify_all(C4, P4)[0].witnesses
    witnesses["fiber_dimensions"]["v1"] = 7
    for members in witnesses["twin_classes"]:
        members.append("v9")
    fiber_dimensions(C4, P4)["v1"] = 7
    space_stats(C4).nearness_per_point["v1"] = 7.0
    space_stats(P4).nearness_per_point.clear()
    for space in (C4, P4):
        partition = twin_classes(space)
        for cls in list(partition.gap):
            partition.gap[cls] = 7.0
            partition.class_nearness[cls] = 7.0
    assert [json.dumps([r.to_json_dict() for r in verify_all(b, s)]) for b, s in pairs] == expected


def test_a_factor_record_lasts_as_long_as_its_factor():
    """The record of a factor holds nothing that keeps the factor alive."""
    import gc

    base, second = graph_metric(cycle_graph(4)), graph_metric(path_graph(4))
    verify_all(base, second)
    verify_all(second, base)
    assert len(theory_module._FACTORS) == 2
    del base, second
    gc.collect()
    assert len(theory_module._FACTORS) == 0


def memo_pairs() -> list:
    """Twenty pairs: graph pairs with twins and repeated fibers, and weighted pairs."""
    graphs = connected_graph_spaces(2, 3) + [C4, P4, HALF_PAIR]
    graph_pairs = list(itertools.product(graphs, repeat=2))[::6][:10]
    return graph_pairs + random_pairs(5, 10)


def memo_bytes_held() -> int:
    """The size of every memo entry's key and value, each a byte string, plus its slot."""
    import lexmetric.resolving as resolving

    entries = list(resolving._TABLES.items())
    assert all(type(key) is bytes and type(value) is bytes for key, value in entries)
    return sum(
        sys.getsizeof(key) + sys.getsizeof(value) + resolving._ENTRY_BYTES
        for key, value in entries
    )


def has_component_entries() -> bool:
    """Whether the memo holds a hitting-set component: its key is a pickled list."""
    import lexmetric.resolving as resolving

    return any(type(pickle.loads(key)) is list for key in list(resolving._TABLES))


@pytest.mark.parametrize("bound", [0, 100, 300])
def test_memo_bound_holds_and_changes_no_answer(monkeypatch, bound):
    """Past the bound the oldest entries go; a table larger than it is never held."""
    import lexmetric.resolving as resolving

    pairs = memo_pairs()
    expected = [[r.to_json_dict() for r in verify_all(b, s)] for b, s in pairs]
    assert memo_bytes_held() > 300
    resolving._TABLES.clear()
    monkeypatch.setattr(resolving, "_MEMO_BYTES", bound)
    for (base, second), reports in zip(pairs, expected):
        assert [r.to_json_dict() for r in verify_all(base, second)] == reports
        assert memo_bytes_held() == resolving._TABLES.nbytes <= bound
        assert formula_rhs(base, second) == reports[0]["rhs"]
        assert memo_bytes_held() <= bound


@pytest.mark.parametrize("bound", [None, 300])
def test_threads_sharing_the_memo_give_the_serial_reports(monkeypatch, bound):
    """Four threads verify the same twenty pairs, each in its own order, with the
    interpreter switching threads as often as it can."""
    import lexmetric.resolving as resolving

    pairs = memo_pairs()
    serial = [json.dumps([r.to_json_dict() for r in verify_all(b, s)]) for b, s in pairs]
    resolving._TABLES.clear()
    theory_module._FACTORS.clear()
    if bound is not None:
        monkeypatch.setattr(resolving, "_MEMO_BYTES", bound)
    results: dict[int, list] = {}

    def work(k: int) -> None:
        order = list(range(len(pairs)))[k:] + list(range(len(pairs)))[:k]
        got = {i: json.dumps([r.to_json_dict() for r in verify_all(*pairs[i])]) for i in order}
        results[k] = [got[i] for i in range(len(pairs))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(5 * k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {5 * k: serial for k in range(4)}
    assert memo_bytes_held() == resolving._TABLES.nbytes
    assert bound is None or resolving._TABLES.nbytes <= bound
    assert bound is not None or has_component_entries()


def seeded_pairs(count: int) -> list:
    """``count`` pairs: half seeded graph pairs on 2-4 vertices, half ``random_pairs``."""
    graphs = connected_graph_spaces(2, 4)
    picks = np.random.default_rng(15).integers(0, len(graphs), (count - count // 2, 2))
    return [(graphs[i], graphs[j]) for i, j in picks] + random_pairs(15, count // 2)


def test_verify_all_is_the_same_on_a_warm_memo():
    """300 seeded pairs, each verified on an empty memo, then all in one warm pass,
    forwards and backwards: the JSON of every report is the same."""
    import lexmetric.resolving as resolving

    pairs = seeded_pairs(300)
    cold = []
    for base, second in pairs:
        resolving._TABLES.clear()
        theory_module._FACTORS.clear()
        cold.append(json.dumps([r.to_json_dict() for r in verify_all(base, second)]))
    resolving._TABLES.clear()
    theory_module._FACTORS.clear()
    for order in (range(len(pairs)), reversed(range(len(pairs)))):
        for i in order:
            assert json.dumps([r.to_json_dict() for r in verify_all(*pairs[i])]) == cold[i]
    assert has_component_entries()


def test_public_special_classes_agree_with_verify_all():
    """On seeded graph and weighted pairs, the dimension report's special-class witness
    is what ``special_classes`` returns: both read one evaluation in the factor records."""
    for base, second in seeded_pairs(200):
        member_classes = special_classes(base, second).member_classes
        witnesses = verify_all(base, second)[0].witnesses
        assert [list(c) for c in member_classes] == witnesses["special_classes"]


def mixed_tolerance_pairs(seed: int, count: int) -> list:
    """``count`` seeded pairs of 2-4 points each whose two factors' tolerances differ.

    Entries are drawn from {1, 1.02, 1.05, 1.1, 1.5, 2}. Every two-step path is at least
    2, the largest entry, so each table is a metric. Tolerances are drawn from
    {0, 1e-9, 0.03, 0.06, 0.12}, so a near tie is one distance at some and two at others.
    """
    rng = np.random.default_rng(seed)
    values = [1, 1.02, 1.05, 1.1, 1.5, 2]

    def draw(prefix: str, tolerance: float) -> FiniteMetricSpace:
        n = int(rng.integers(2, 5))
        upper = np.triu(rng.choice(values, (n, n)), 1)
        labels = tuple(f"{prefix}{i + 1}" for i in range(n))
        return FiniteMetricSpace(labels, upper + upper.T, float(tolerance))

    pairs = []
    for _ in range(count):
        base_tolerance, second_tolerance = rng.choice([0, 1e-9, 0.03, 0.06, 0.12], 2, False)
        pairs.append((draw("x", base_tolerance), draw("y", second_tolerance)))
    return pairs


def outcome(compute):
    """What ``compute()`` returns, or the type and message of the ValueError it raises."""
    try:
        return compute()
    except ValueError as exc:
        return type(exc), str(exc)


def test_a_pair_is_verified_at_the_product_tolerance():
    """A pair whose factors' tolerances differ gives the reports, the special classes and
    the errors of the same pair with both factors rebuilt at the larger tolerance."""

    def verified(factors):
        return (
            outcome(lambda: [r.to_json_dict() for r in verify_all(*factors)]),
            outcome(lambda: special_classes(*factors)),
        )

    pairs = mixed_tolerance_pairs(40, 300)
    assert all(validate(space).ok for pair in pairs for space in pair)
    for base, second in pairs:
        tol = max(base.tolerance, second.tolerance)
        alike = [FiniteMetricSpace(f.points, f.dist, tol) for f in (base, second)]
        assert verified((base, second)) == verified(alike), (base, second)


def test_a_second_factor_of_zero_diameter_raises_its_solve_error():
    """Every cap of an all-zero second factor is at its diameter, 0, which is no valid
    ``t``: its fiber is built from the base nearness, so the error is the solve's own,
    on a cold and on a warm record. ``verify_all`` solves the product first."""
    zeros = FiniteMetricSpace(("y1", "y2"), [[0, 0], [0, 0.0]])
    expected = [
        (formula_rhs, "'y1' and 'y2'"),
        (fiber_dimensions, "'y1' and 'y2'"),
        (verify_all, "'v1|y1' and 'v1|y2'"),
    ]
    for _ in range(2):
        for check, pair in expected:
            with pytest.raises(ValueError) as raised:
                check(K2, zeros)
            assert str(raised.value) == f"points {pair} are indistinguishable at tolerance"


def test_a_second_factor_of_zero_diameter_has_its_own_dimension():
    """The small-diameter corollary reads the second factor's dimension from its entry
    at the diameter, here 0, which is no valid ``t``: the entry is solved all the same."""
    negative = FiniteMetricSpace(("a", "b"), [[0, -1], [-1, 0.0]])
    reports = verify_corollaries(K2, negative)
    assert [(r.passed, r.rhs) for r in reports] == [(None, None), (True, 2)]


def test_a_base_with_no_twin_partition_fails_only_the_reports_that_need_one():
    """A tolerance chain has no twin partition: its diameter report is made and its
    dimension report raises the partition's error, on a cold and on a warm memo."""
    chain = FiniteMetricSpace(
        ("a", "b", "c", "k"),
        [[0, 1, 1, 1.0], [1, 0, 1, 1.06], [1, 1, 0, 1.12], [1.0, 1.06, 1.12, 0]],
        tolerance=0.1,
    )
    for _ in range(2):
        assert verify_diameter(chain, P4).passed is True
        with pytest.raises(ValueError, match="'a' and 'c' are linked but not twins"):
            verify_dimension(chain, P4)


def test_diameter_and_squash_reports_form_no_twin_partition(monkeypatch):
    """Neither report reads the base's twin classes, so neither forms them."""
    import lexmetric.theory as theory

    def twin_classes(space):
        raise AssertionError("the twin partition was formed")

    monkeypatch.setattr(theory, "twin_classes", twin_classes)
    assert verify_diameter(C4, P4).passed is True
    assert verify_squash(C4, P4).passed is True


def test_reports_share_nothing_a_caller_can_change_with_the_memo():
    """Emptying every list and dict of one pair's reports changes no later report."""
    pairs = [(C4, P4), (K3, HALF_PAIR), *random_pairs(16, 4)]
    expected = [json.dumps([r.to_json_dict() for r in verify_all(b, s)]) for b, s in pairs]

    def empty(value) -> None:
        for inner in list(value.values() if isinstance(value, dict) else value):
            if isinstance(inner, (list, dict)):
                empty(inner)
        value.clear()

    for base, second in pairs:
        for report in verify_all(base, second):
            empty(report.witnesses)
    assert [json.dumps([r.to_json_dict() for r in verify_all(b, s)]) for b, s in pairs] == expected


@pytest.mark.parametrize("bound", [20_000, 100_000])
def test_memory_held_by_the_memo_stays_within_its_bound(monkeypatch, bound):
    """Measured by tracemalloc: what emptying the full memo frees is at most its
    charge, which is at most the bound, and the memo fills to near the bound."""
    import gc
    import tracemalloc

    import lexmetric.resolving as resolving

    monkeypatch.setattr(resolving, "_MEMO_BYTES", bound)
    pairs = seeded_pairs(400)
    gc.collect()
    tracemalloc.start()
    try:
        for base, second in pairs:
            verify_all(base, second)
        del base, second, pairs
        gc.collect()
        filled = tracemalloc.get_traced_memory()[0]
        charged = resolving._TABLES.nbytes
        resolving._TABLES.clear()
        gc.collect()
        held = filled - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert bound / 2 < held <= charged <= bound


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_identities_hold_with_a_product_as_the_base(seed):
    """The base is a product itself: its labels hold the separator, and a two-point
    second factor makes each of its fibers a twin class."""
    rng = np.random.default_rng(seed)
    a, b, c = (random_metric_space(rng, int(rng.integers(2, 4)), prefix=p) for p in "abc")
    base = lexicographic(a, b).space
    for report in verify_all(base, c):
        assert report.skipped or report.passed, report.to_json_dict()


def test_path_by_p4_partial_far_witness():
    """Hand-derived case where the far-witness test fails on one basis only.

    The fiber is P4 capped at 2; all six point pairs are bases. For the twin
    gap 2 of the base path, the basis (p, q) has the far witness s, but
    (p, r) has none, so the class contributes nothing and the product
    dimension is the plain fiber sum 3 * 2 = 6.
    """
    import numpy as np

    from lexmetric.construct import gravitational
    from lexmetric.space import FiniteMetricSpace

    second = FiniteMetricSpace(("p", "q", "r", "s"), graph_metric(path_graph(4)).dist)
    fib = metric_dimension(gravitational(second, 1.0), enumerate_all=True)
    assert fib.dimension == 2
    assert len(fib.all_bases) == 6
    special = special_classes(P3, second)
    assert special.member_classes == ()
    # The first member fails at its least failing basis, so the second
    # member is never checked.
    assert special.counterexamples == {("a", "c"): ("a", ("p", "r"))}
    report = verify_dimension(P3, second)
    assert report.passed and report.rhs == 6


def add_twins(space, point, gap, copies=1):
    """Clone a point into a twin class of size copies + 1 at the given gap.

    Valid whenever gap is at most twice the cloned point's nearness; the
    clones keep the original's distances to everything else.
    """
    import numpy as np

    from lexmetric.space import FiniteMetricSpace

    i = space.index(point)
    n = space.n
    table = np.zeros((n + copies, n + copies))
    table[:n, :n] = space.dist
    for c in range(copies):
        j = n + c
        table[j, :n] = space.dist[i, :]
        table[:n, j] = space.dist[:, i]
        table[j, i] = table[i, j] = gap
        for c2 in range(c):
            table[j, n + c2] = table[n + c2, j] = gap
    new_labels = []
    suffix = 0
    while len(new_labels) < copies:
        suffix += 1
        candidate = f"{point}t{suffix}"
        if candidate not in space.points:
            new_labels.append(candidate)
    return FiniteMetricSpace(space.points + tuple(new_labels), table, space.tolerance)


def test_identities_hold_on_twin_rich_weighted_bases():
    """Weighted bases with injected twin classes, gaps chosen to sit exactly
    on the boundary 2 * nearness or to collide with integral graph distances:
    the regime where the far-witness equality test actually bites."""
    import numpy as np

    from lexmetric.space import nearness_point

    rng = np.random.default_rng(424242)
    for trial in range(60):
        base = random_metric_space(rng, int(rng.integers(2, 5)), prefix="x")
        clones = 2 if trial % 5 == 0 and base.n >= 3 else 1
        for k in range(clones):
            p = base.points[int(rng.integers(0, base.n))]
            near = nearness_point(base, p)
            mode = (trial + k) % 3
            if mode == 0:
                gap = 2.0 * near
            elif mode == 1:
                gap = 1.0 if near >= 0.5 else near
            else:
                gap = float(rng.uniform(0.3, 2.0 * near))
            base = add_twins(base, p, gap, copies=int(rng.integers(1, 3)))
        assert validate(base).ok
        if rng.random() < 0.5:
            second = random_metric_space(rng, int(rng.integers(2, 5)), prefix="y")
        else:
            second = graph_metric(
                random_connected_graph(rng, int(rng.integers(2, 5)), prefix="y")
            )
        if base.n * second.n > 36:
            continue
        assert verify_dimension(base, second).passed, (base.points, second.points)
        assert verify_diameter(base, second).passed
        assert verify_squash(base, second).passed
