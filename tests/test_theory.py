"""Verification of the product identities, each computing both sides independently."""

import json

import numpy as np
import pytest

from lexmetric.construct import (
    complete_graph,
    cycle_graph,
    discrete_metric,
    graph_metric,
    path_graph,
    squash,
)
from lexmetric.resolving import metric_dimension
from lexmetric.space import validate
from lexmetric.theory import (
    SizeGuardExceeded,
    connected_graph_spaces,
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
        assert len(w["base_table"]) == 2 and len(w["second_table"]) == 3

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
        assert doc["skipped"] is True and doc["pass"] is None

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
        report = verify_squash(K3, C4)
        assert report.witnesses["squashed_diameter_below_nearness"]

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
        for n in (2, 3, 5, 7):
            graph_metric(random_connected_graph(rng, n))

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


@pytest.fixture
def counted(monkeypatch):
    """Record every product built and every table whose separator words are built."""
    import lexmetric.resolving as resolving
    import lexmetric.theory as theory

    calls = {"products": 0, "solves": []}

    def lexicographic(first, second):
        calls["products"] += 1
        return real_lexicographic(first, second)

    # Every solve's family, product, fiber or factor, starts from these words;
    # a constrained solve that rebuilt a fiber's family would show as a repeat.
    def separator_words(space):
        calls["solves"].append((space.points, space.dist.tobytes()))
        return real_separator_words(space)

    real_lexicographic = theory.lexicographic
    real_separator_words = resolving._separator_words
    monkeypatch.setattr(theory, "lexicographic", lexicographic)
    monkeypatch.setattr(resolving, "_separator_words", separator_words)
    return calls


@pytest.mark.parametrize("base, second", [(K3, P3), (C4, P4), (C4, HALF_PAIR)])
def test_verify_all_builds_two_products_and_solves_each_table_once(counted, base, second):
    # Unit-weight bases: every point has nearness 1, so every fiber is one
    # table. The tables are the product and its squash, the second factor and
    # its squash, and the fiber, which is the second factor unless capped: P4
    # alone is capped, at 2.
    verify_all(base, second)
    assert counted["products"] == 2
    tables = 5 if second is P4 else 4
    assert len(counted["solves"]) == len(set(counted["solves"])) == tables


def test_verify_all_past_the_guard_raises_before_any_solve(counted):
    with pytest.raises(SizeGuardExceeded, match="42"):
        verify_all(discrete_metric(7), discrete_metric(6))
    assert counted == {"products": 0, "solves": []}


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
    from lexmetric.twins import special_classes

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
