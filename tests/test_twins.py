"""Twin classes and the far-witness test for special classes."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexmetric import resolving
from lexmetric.construct import (
    Graph,
    complete_graph,
    cycle_graph,
    discrete_metric,
    fiber,
    graph_metric,
    gravitational,
    lexicographic,
    path_graph,
)
from lexmetric.resolving import _table_solve, metric_dimension, resolves
from lexmetric.space import FiniteMetricSpace, diameter, nearness, nearness_point
from lexmetric.theory import (
    connected_graph_spaces,
    random_connected_graph,
    random_metric_space,
    random_pairs,
    weighted_corpus_spaces,
)
from lexmetric.twins import (
    TwinPartition,
    _failing_basis,
    _twin_matrix,
    is_twins_free,
    special_classes,
    twin_classes,
)

from test_construct import HALF_PAIR, K2
from test_space import BLOCK_BUDGETS, raw_spaces, row_blocks_of
from test_theory import mixed_tolerance_pairs, outcome

P3 = graph_metric(path_graph(3))
P4 = graph_metric(path_graph(4))
K3 = graph_metric(complete_graph(3))
C4 = graph_metric(cycle_graph(4))


def star_space(leaves: int) -> FiniteMetricSpace:
    labels = ("c",) + tuple(f"l{i + 1}" for i in range(leaves))
    return graph_metric(Graph(labels, tuple(("c", leaf, 1.0) for leaf in labels[1:])))


class TestTwinClasses:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_complete_graph_is_one_class(self, n):
        partition = twin_classes(graph_metric(complete_graph(n)))
        assert partition.classes == (tuple(f"v{i + 1}" for i in range(n)),)
        assert partition.gap[partition.classes[0]] == 1.0

    def test_path_p3_endpoints_are_twins(self):
        partition = twin_classes(P3)
        assert partition.classes == (("a", "c"), ("b",))
        assert partition.gap[("a", "c")] == 2.0
        assert partition.class_nearness[("a", "c")] == 1.0

    def test_path_p4_is_twins_free(self):
        assert twin_classes(P4).classes == (("a",), ("b",), ("c",), ("d",))

    def test_two_point_space_is_vacuously_one_class(self):
        partition = twin_classes(K2)
        assert partition.classes == (("v1", "v2"),)
        assert partition.gap[("v1", "v2")] == 1.0

    def test_four_cycle_has_two_antipodal_classes(self):
        partition = twin_classes(C4)
        assert partition.classes == (("v1", "v3"), ("v2", "v4"))
        assert partition.gap[("v1", "v3")] == 2.0

    def test_star_leaves_form_a_class(self):
        partition = twin_classes(star_space(3))
        assert partition.classes == (("c",), ("l1", "l2", "l3"))
        assert partition.gap[("l1", "l2", "l3")] == 2.0

    def test_tolerance_chain_names_a_linked_pair_that_is_not_twins(self):
        # a~b, b~c and c~k within 0.1, but k sees a and c 0.12 apart.
        chain = FiniteMetricSpace(
            ("a", "b", "c", "k"),
            [[0, 1, 1, 1.0], [1, 0, 1, 1.06], [1, 1, 0, 1.12], [1.0, 1.06, 1.12, 0]],
            tolerance=0.1,
        )
        for _ in range(2):  # nothing is kept, so the second call fails the same way
            with pytest.raises(ValueError) as raised:
                twin_classes(chain)
            assert str(raised.value) == TRANSITIVITY + "'a' and 'c' are linked but not twins"
        assert not resolving._TABLES

    def test_non_finite_table_raises(self):
        inf = float("inf")
        space = FiniteMetricSpace(("a", "b", "c"), [[0, 1, inf], [1, 0, inf], [inf, inf, 0]])
        with pytest.raises(ValueError, match="distance table has non-finite entries"):
            twin_classes(space)

    @pytest.mark.parametrize(
        "space", [P3, P4, C4, K3, star_space(3), discrete_metric(5)]
    )
    def test_partition_matches_pairwise_relation(self, space):
        """Classes must coincide with the raw pairwise relation, which is
        recomputed here from the definition and checked for transitivity."""
        pts = space.points
        tau = space.tolerance

        def are_twins(u, v):
            return all(
                abs(space.d(u, w) - space.d(v, w)) <= tau
                for w in pts
                if w not in (u, v)
            )

        partition = twin_classes(space)
        cls_of = {p: cls for cls in partition.classes for p in cls}
        assert sorted(p for cls in partition.classes for p in cls) == sorted(pts)
        for u, v in itertools.combinations(pts, 2):
            assert are_twins(u, v) == (cls_of[u] is cls_of[v])
        for u, v, w in itertools.permutations(pts, 3):
            if are_twins(u, v) and are_twins(v, w):
                assert are_twins(u, w)

    @pytest.mark.parametrize("space", [P3, C4, K3, star_space(4)])
    def test_gap_and_nearness_are_constant_within_class(self, space):
        partition = twin_classes(space)
        for cls in partition.non_singleton_classes:
            gaps = [space.d(u, v) for u, v in itertools.combinations(cls, 2)]
            assert max(gaps) - min(gaps) <= 2 * space.tolerance
            near = [min(space.d(u, w) for w in space.points if w != u) for u in cls]
            assert max(near) - min(near) <= 2 * space.tolerance


class TestTwinsFree:
    def test_path_p4(self):
        assert is_twins_free(P4)

    def test_complete_graph(self):
        assert not is_twins_free(K3)

    def test_two_point_space(self):
        assert not is_twins_free(K2)


class TestSpecialClasses:
    def test_k2_pair_qualifies(self):
        special = special_classes(K2, K2)
        assert special.member_classes == (("v1", "v2"),)
        assert special.counterexamples == {}

    def test_half_distance_pair_fails(self):
        # The fiber keeps distance 0.5, so nothing sits at the gap 1.
        special = special_classes(K2, HALF_PAIR)
        assert special.member_classes == ()
        assert special.counterexamples == {("v1", "v2"): ("v1", ("y1",))}

    def test_twins_free_base_has_no_special_classes(self):
        special = special_classes(P4, K2)
        assert special.member_classes == ()
        assert special.counterexamples == {}

    def test_an_entry_exactly_the_tolerance_off_the_gap_is_at_the_gap(self):
        # Dyadic, so every difference is exact: each of the bases {y2} and {y3} has
        # the other 1.25 away, exactly the tolerance 0.25 off the gap 1, which is not
        # apart, so it is a far witness; the product's dimension agrees.
        base = FiniteMetricSpace(("a", "b"), [[0, 1], [1, 0]], tolerance=0.25)
        second = FiniteMetricSpace(
            ("y1", "y2", "y3"), [[0, 0.5, 0.5], [0.5, 0, 1.25], [0.5, 1.25, 0]], tolerance=0.25
        )
        special = special_classes(base, second)
        assert special.member_classes == (("a", "b"),)
        assert special.counterexamples == {}
        assert metric_dimension(lexicographic(base, second).space).dimension == 3

    def test_path_fiber_center_is_the_witness(self):
        # The fiber bases are {a} and {c}; the center b sits at the gap 1
        # from either, so no basis fails.
        special = special_classes(K2, P3)
        assert special.member_classes == (("v1", "v2"),)
        assert special.counterexamples == {}

    def test_small_second_diameter_empty(self):
        # With the second factor strictly inside the base nearness every
        # capped distance stays below any twin gap.
        tight = FiniteMetricSpace(
            ("y1", "y2", "y3"),
            [[0, 0.4, 0.4], [0.4, 0, 0.4], [0.4, 0.4, 0]],
        )
        assert diameter(tight) < nearness(K3)
        assert special_classes(K3, tight).member_classes == ()

    # Two twin classes at different nearness, {a1, a2} at 1 and {b1, b2} at 2,
    # so P4 gives them different fibers: capped at 2 and uncapped.
    TWO_NEARNESS = FiniteMetricSpace(
        ("a1", "a2", "b1", "b2"),
        [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 2], [2, 2, 2, 0]],
    )

    @pytest.mark.parametrize(
        "base, second, fibers",
        [(K3, P3, 1), (star_space(3), P3, 1), (C4, P3, 1), (TWO_NEARNESS, P4, 2)],
        ids=["K3", "star3", "C4", "two-nearness"],
    )
    def test_one_basis_enumeration_per_distinct_fiber(self, monkeypatch, base, second, fibers):
        """Each distinct fiber's family is built once, for one plain and one
        constrained solve, and no complete basis enumeration runs."""
        import lexmetric.resolving as resolving
        import lexmetric.twins as twins

        built, solves = [], []

        def separator_words(space):
            built.append(space.dist.tobytes())
            return real_separator_words(space)

        def least_basis(space, family, must_hit, enumerate_all=False):
            solves.append((len(must_hit) > 0, enumerate_all))
            return real_least_basis(space, family, must_hit, enumerate_all)

        real_separator_words = resolving._separator_words
        real_least_basis = resolving._least_basis
        monkeypatch.setattr(resolving, "_separator_words", separator_words)
        for module in (resolving, twins):
            monkeypatch.setattr(module, "_least_basis", least_basis)
        special = special_classes(base, second)
        assert len(built) == len(set(built)) == fibers
        assert sorted(solves) == [(False, False)] * fibers + [(True, False)] * fibers
        assert special.member_classes

    def test_special_solve_is_kept_per_tolerance_of_both_factors(self):
        # One fiber and gap; only the base's tolerance differs. The witness z
        # sits 0.9e-9 off the gap from s: a far witness at 1e-9, none at 0.
        eps = 0.9e-9
        second = FiniteMetricSpace(
            ("s", "z", "zp"),
            [[0, 1 + eps, 1 - eps], [1 + eps, 0, 0.5], [1 - eps, 0.5, 0]],
            tolerance=0.0,
        )
        loose = FiniteMetricSpace(("u1", "u2"), [[0, 1], [1, 0]])
        strict = FiniteMetricSpace(("u1", "u2"), [[0, 1], [1, 0]], tolerance=0.0)
        for base in (loose, strict, loose):
            special = special_classes(base, second)
            assert bool(special.member_classes) == (base is loose)
        assert special_classes(strict, second).counterexamples == {("u1", "u2"): ("u1", ("s",))}

    def test_constrained_solve_leaves_the_stored_family_unchanged(self):
        """The special-class solve starts from the family kept in the fiber's record
        entry and changes nothing in it."""
        from lexmetric.theory import _Pair

        pair = _Pair(P3, P4)
        family = pair.fiber(1.0)[1]
        before = [list(part) for part in family]
        assert pair.special.counterexamples == {("a", "c"): ("a", ("a", "c"))}
        assert pair.fiber(1.0)[1] is family and family == tuple(before)

    def test_fiber_past_the_enumeration_cap_is_decided(self):
        # 17 points is past the complete-enumeration cap. Every basis leaves
        # out one point, which sees all the basis points at the gap 1.
        special = special_classes(K2, discrete_metric(17))
        assert special.member_classes == (("v1", "v2"),)
        assert special.counterexamples == {}

    def test_two_far_witnesses_within_tolerance_qualify(self):
        # z and zp both sit within tolerance of the gap from s, yet more
        # than tolerance apart from each other, so {s} resolves the fiber
        # and has a far witness. Only its existence matters.
        eps = 0.9e-9
        second = FiniteMetricSpace(
            ("s", "z", "zp"),
            [[0, 1 + eps, 1 - eps], [1 + eps, 0, 0.5], [1 - eps, 0.5, 0]],
        )
        base = FiniteMetricSpace(("u1", "u2"), [[0, 1], [1, 0]])
        special = special_classes(base, second)
        assert special.member_classes == (("u1", "u2"),)
        assert special.counterexamples == {}

    @pytest.mark.parametrize(
        "base", [K3, C4, star_space(3), graph_metric(complete_graph(4))]
    )
    def test_members_agree_within_class(self, base):
        """Twins share their nearness and so their fiber: a class either
        qualifies or fails at its first member."""
        for second in (K2, P3, HALF_PAIR):
            special = special_classes(base, second)
            decided = set(special.member_classes) | set(special.counterexamples)
            assert decided == set(twin_classes(base).non_singleton_classes)
            for cls, (member, _) in special.counterexamples.items():
                assert member == cls[0]

    @pytest.mark.parametrize("position", ["base", "second factor"])
    def test_rejects_asymmetric_factor_naming_the_pair(self, position):
        # The checks and message of lexicographic, so `special` and `verify` refuse alike.
        skew = FiniteMetricSpace(("c", "a", "b"), [[0, 3, 2], [1, 0, 2], [2, 4, 0]])
        factors = (skew, K2) if position == "base" else (K2, skew)
        with pytest.raises(ValueError) as raised:
            special_classes(*factors)
        assert str(raised.value) == (
            f"the {position} is not symmetric at tolerance: "
            "d('a', 'b') = 2.0 but d('b', 'a') = 4.0"
        )


def enumeration_oracle(base, second):
    """Special classes from the definition, over the complete list of fiber bases.

    Each fiber is read off the built product, and the base's twins are taken at
    the product's tolerance, at which the product compares every distance. A
    member fails at the first basis, in enumeration order, that no fiber point
    sees at the class gap from every basis point.
    """
    product = lexicographic(base, second)
    tol = product.space.tolerance
    partition = twin_classes(FiniteMetricSpace(base.points, base.dist, tol))
    members, counterexamples = [], {}
    for cls in partition.non_singleton_classes:
        gap = partition.gap[cls]
        for x in cls:
            fib = fiber(product, x)
            failing = [
                basis
                for basis in metric_dimension(fib, enumerate_all=True).all_bases
                if not any(
                    all(abs(fib.d(z, s) - gap) <= tol for s in basis) for z in fib.points
                )
            ]
            if failing:
                counterexamples[cls] = (x, failing[0])
                break
        else:
            members.append(cls)
    return tuple(members), counterexamples


@pytest.mark.parametrize(
    "pairs",
    [
        lambda: itertools.product(
            connected_graph_spaces(2, 4),
            connected_graph_spaces(2, 4) + weighted_corpus_spaces(),
        ),
        lambda: random_pairs(1, 300),
        lambda: mixed_tolerance_pairs(41, 300),
    ],
    ids=["graphs-by-graphs-and-weighted", "random-weighted", "mixed-tolerances"],
)
def test_special_classes_agree_with_the_enumeration_oracle(pairs):
    def special(base, second):
        found = special_classes(base, second)
        return found.member_classes, found.counterexamples

    for base, second in pairs():
        got = outcome(lambda: special(base, second))
        expected = outcome(lambda: enumeration_oracle(base, second))
        assert got == expected, (base.points, second.points)


def twin_matrix_oracle(space):
    """The pair-by-pair loop the row-block pass replaced."""
    d = space.dist
    n = space.n
    twins = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            mask = np.ones(n, dtype=bool)
            mask[i] = mask[j] = False
            twins[i, j] = twins[j, i] = bool(
                (np.abs(d[i, mask] - d[j, mask]) <= space.tolerance).all()
            )
    return twins


# raw_spaces draws NaN and infinite tables, which the twin matrix compares as given.
@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
@settings(derandomize=True, max_examples=200, deadline=None)
@given(raw_spaces(), BLOCK_BUDGETS)
def test_twin_matrix_matches_the_loop_oracle(space, budget):
    with row_blocks_of(budget):
        got = _twin_matrix(space)
    np.testing.assert_array_equal(got, twin_matrix_oracle(space))


TRANSITIVITY = "twin relation is not transitive at this tolerance: "


def union_find_twin_classes(space):
    """The union-find partition the least-twin labeling replaced.

    Links every twin pair, then checks each group pair by pair; the first
    non-twin pair, in group then index order, is named.
    """
    twins = _twin_matrix(space)
    parent = list(range(space.n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i, j in itertools.combinations(range(space.n), 2):
        if twins[i, j]:
            parent[find(i)] = find(j)
    groups = {}
    for i in range(space.n):
        groups.setdefault(find(i), []).append(i)
    for members in groups.values():
        for a, b in itertools.combinations(members, 2):
            if not twins[a, b]:
                raise ValueError(
                    TRANSITIVITY
                    + f"{space.points[a]!r} and {space.points[b]!r} are linked but not twins"
                )
    classes = tuple(
        sorted(tuple(sorted(space.points[i] for i in g)) for g in groups.values())
    )
    gap, class_nearness = {}, {}
    for cls in classes:
        if len(cls) == 1:
            continue
        pairwise = [space.d(u, v) for u, v in itertools.combinations(cls, 2)]
        if max(pairwise) - min(pairwise) > 2 * space.tolerance:
            raise ValueError(f"within-class distances of {cls!r} are not constant")
        near = [nearness_point(space, u) for u in cls]
        if max(near) - min(near) > 2 * space.tolerance:
            raise ValueError(f"within-class nearness of {cls!r} is not constant")
        gap[cls] = space.d(cls[0], cls[1])
        class_nearness[cls] = near[0]
    return TwinPartition(classes, gap, class_nearness)


def partition_or_error(partition, space):
    try:
        return partition(space)
    except ValueError as exc:
        return str(exc)


def assert_matches_the_union_find_oracle(space):
    got = partition_or_error(twin_classes, space)
    want = partition_or_error(union_find_twin_classes, space)
    if isinstance(want, str) and want.startswith(TRANSITIVITY):
        # Any linked non-twin pair shows the break; the two may name different ones.
        assert isinstance(got, str) and got.startswith(TRANSITIVITY)
        a, b = (space.index(p) for p in re.findall(r"'([^']*)'", got[len(TRANSITIVITY):]))
        twins = _twin_matrix(space)
        assert a != b and not twins[a, b]
        assert (twins[a] & twins[b]).any()
    else:
        assert got == want


@settings(derandomize=True, max_examples=200, deadline=None)
@given(raw_spaces().filter(lambda space: np.isfinite(space.dist).all()), BLOCK_BUDGETS)
def test_partition_matches_the_union_find_oracle(space, budget):
    with row_blocks_of(budget):
        assert_matches_the_union_find_oracle(space)


def test_partition_matches_the_union_find_oracle_on_the_corpora():
    spaces = connected_graph_spaces(2, 5) + weighted_corpus_spaces()
    for base, second in random_pairs(5, 40):
        spaces += [base, second, lexicographic(base, second).space]
    for space in spaces:
        assert_matches_the_union_find_oracle(space)


def ilp_constrained_feasible(fib: FiniteMetricSpace, must_hit: np.ndarray, size: int) -> bool:
    """Whether some point set of ``size`` points resolves ``fib`` and meets every
    ``must_hit`` row, by integer programming on the table alone."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    pairs = [
        np.abs(fib.dist[i] - fib.dist[j]) > fib.tolerance
        for i, j in itertools.combinations(range(fib.n), 2)
    ]
    rows = np.vstack([np.array(pairs), must_hit]).astype(float)
    ones = np.ones(fib.n)
    result = milp(
        np.zeros(fib.n),
        constraints=[LinearConstraint(rows, lb=1), LinearConstraint(ones, lb=size, ub=size)],
        integrality=ones,
        bounds=Bounds(0, 1),
    )
    assert result.status in (0, 2), result.message
    return result.status == 0


def test_least_failing_basis_matches_an_independent_ilp():
    """Seeded fibers of 6-16 points, each capped, with the cap or an entry as the gap.

    A basis with no far witness meets, for every fiber point z, the points off the gap
    from z. The constrained solve's size must be the least at which some point set
    resolves the fiber and meets those rows. A failing basis is its answer when that
    size is the fiber dimension; None must mean no point set of that size does.
    """
    pytest.importorskip("scipy")
    from lexmetric.resolving import _least_basis
    from lexmetric.theory import random_connected_graph, random_metric_space
    from lexmetric.twins import _failing_basis

    rng = np.random.default_rng(61)
    outcomes = []
    for trial in range(40):
        n = int(rng.integers(6, 17))
        if trial % 2:
            second, t = random_metric_space(rng, n), float(rng.uniform(0.3, 0.8))
        else:
            second = graph_metric(random_connected_graph(rng, n, extra_edge_prob=0.2))
            t = float(rng.choice([0.5, 1.0, 1.5]))
        fib = gravitational(second, t)
        # The cap itself, where a twin gap of twice the nearness lands, or any entry.
        gap = 2 * t if trial % 4 < 2 else float(rng.choice(fib.dist[np.triu_indices(n, 1)]))
        must_hit = np.abs(fib.dist - gap) > fib.tolerance
        family, dimension = _table_solve(fib)
        failing = _failing_basis(fib, family, dimension, gap, fib.tolerance)
        if must_hit.any(axis=1).all():
            found = _least_basis(fib, family, must_hit)
            assert found.dimension >= dimension
            assert ilp_constrained_feasible(fib, must_hit, found.dimension)
            assert not ilp_constrained_feasible(fib, must_hit, found.dimension - 1)
            assert failing == (found.basis if found.dimension == dimension else None)
        if failing is None:
            assert not ilp_constrained_feasible(fib, must_hit, dimension)
        else:
            chosen = np.isin(fib.points, failing)
            assert len(failing) == dimension
            assert resolves(fib, failing)
            assert must_hit[:, chosen].any(axis=1).all()
        outcomes.append(failing is None)
    assert 0 < sum(outcomes) < len(outcomes)


def brute_failing_basis(fib: FiniteMetricSpace, gap: float, tol: float):
    """The first subset of dim(fiber) points, in label order, that resolves ``fib`` and
    meets, for every point z, the points off the gap from z; None when there is none."""
    dimension = metric_dimension(fib, method="enumeration").dimension
    must_hit = np.abs(fib.dist - gap) > tol
    for combo in itertools.combinations(sorted(fib.points), dimension):
        chosen = [fib.index(p) for p in combo]
        if must_hit[:, chosen].any(axis=1).all() and resolves(fib, combo):
            return combo
    return None


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 9),
    st.booleans(),
    st.sampled_from(["cap", "entry", "entry-wide-tolerance"]),
)
def test_failing_basis_matches_the_brute_force_scan(seed, n, weighted, gap_kind):
    """Weighted and graph fibers, capped, with the gap at the cap or at a table entry, on
    a cold and a warm memo. A tolerance as wide as the fiber leaves every point its own
    far witness, so no basis fails."""
    rng = np.random.default_rng(seed)
    if weighted:
        second = random_metric_space(rng, n)
    else:
        second = graph_metric(random_connected_graph(rng, n, extra_edge_prob=0.3))
    t = float(rng.choice(second.dist[np.triu_indices(n, 1)])) / 2
    fib = gravitational(second, t)
    gap = 2 * t if gap_kind == "cap" else float(rng.choice(fib.dist[np.triu_indices(n, 1)]))
    tol = diameter(fib) if gap_kind == "entry-wide-tolerance" else fib.tolerance
    expected = brute_failing_basis(fib, gap, tol)
    resolving._TABLES.clear()
    assert _failing_basis(fib, *_table_solve(fib), gap, tol) == expected
    assert _failing_basis(fib, *_table_solve(fib), gap, tol) == expected
    if gap_kind == "entry-wide-tolerance":
        assert expected is None
