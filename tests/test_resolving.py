"""Resolving sets, the pair table, and the exact dimension solvers.

The branch-and-bound solver is validated against plain subset enumeration
(its stated oracle) on everything small, including the witness basis, which
both must report as the lexicographically least one.
"""

import dataclasses
import gc
import itertools
import pickle
import re
import tracemalloc
import weakref
from functools import reduce
from operator import and_, or_
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lexmetric import resolving as resolving_module, space as space_module
from lexmetric.construct import (
    Graph,
    complete_graph,
    cycle_graph,
    discrete_metric,
    graph_metric,
    lexicographic,
    path_graph,
    squash,
)
from lexmetric.resolving import (
    EnumerationCapExceeded,
    SolveStats,
    _Memo,
    _components,
    _cover_least,
    _distinguisher_sets,
    _least_basis,
    _lex_least_hitting_set,
    _min_hitting_set_size,
    _minimal_family,
    _minimal_masks,
    _minimal_rows,
    _packed_words,
    _packing_lower_bound,
    _positions,
    _solve_component,
    _subset_tables,
    _word_masks,
    coordinates,
    greedy_generator,
    metric_dimension,
    pair_table,
    resolves,
)
from lexmetric.space import FiniteMetricSpace, _row_blocks, nearness
from lexmetric.theory import formula_rhs, random_connected_graph, random_metric_space
from lexmetric.twins import twin_classes

from test_space import BLOCK_BUDGETS, raw_spaces, row_blocks_of

P3 = graph_metric(path_graph(3))
P4 = graph_metric(path_graph(4))
K3 = graph_metric(complete_graph(3))
K4 = graph_metric(complete_graph(4))
C4 = graph_metric(cycle_graph(4))
C5 = graph_metric(cycle_graph(5))
C7 = graph_metric(cycle_graph(7))
C10 = graph_metric(cycle_graph(10))


def star_graph(leaves: int) -> Graph:
    labels = ("c",) + tuple(f"l{i + 1}" for i in range(leaves))
    return Graph(labels, tuple(("c", leaf, 1.0) for leaf in labels[1:]))


def shuffled(space: FiniteMetricSpace, seed: int) -> FiniteMetricSpace:
    """The same metric with its points in a seeded order instead of label order.

    Every off-diagonal entry also moves by a seeded amount below half the
    tolerance, so equal distances become unequal floats that still compare
    equal, and no resolve decision changes.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(space.n)
    noise = np.triu(rng.uniform(-0.4, 0.4, (space.n, space.n)) * space.tolerance, 1)
    table = space.dist[np.ix_(order, order)] + noise + noise.T
    return FiniteMetricSpace(tuple(space.points[i] for i in order), table, space.tolerance)


# Labels such as v10 sort before v2, and the point order is shuffled, so a
# wrong label-to-row permutation shows up as a wrong set, basis or greedy pick.
SHUFFLED = [
    shuffled(graph_metric(cycle_graph(10)), seed=3),
    shuffled(graph_metric(random_connected_graph(np.random.default_rng(5), 11)), seed=5),
]

# Points a and b are 1e-10 apart, well inside the default tolerance.
NEAR_DUPLICATE = FiniteMetricSpace(
    ("a", "b", "c"), [[0, 0.0000000001, 1], [0.0000000001, 0, 1], [1, 1, 0]]
)


# Points a and b are at NaN distance; without a boundary check the pair
# reads as indistinguishable.
NAN_PAIR = FiniteMetricSpace(("a", "b", "c"), [[0, np.nan, 1], [np.nan, 0, 1], [1, 1, 0]])


@pytest.mark.parametrize(
    "entry",
    [
        metric_dimension,
        lambda space: metric_dimension(space, method="enumeration"),
        pair_table,
        greedy_generator,
        lambda space: resolves(space, space.points),
    ],
    ids=["bnb", "enumeration", "pair_table", "greedy_generator", "resolves"],
)
def test_non_finite_table_raises(entry):
    with pytest.raises(ValueError, match="distance table has non-finite entries"):
        entry(NAN_PAIR)


class TestCoordinates:
    def test_single_landmark(self):
        assert coordinates(P3, ("a",), "c") == (2.0,)

    def test_two_landmarks(self):
        assert coordinates(P3, ("a", "c"), "b") == (1.0, 1.0)

    def test_complete_graph(self):
        assert coordinates(K4, ("v1", "v2", "v3"), "v4") == (1.0, 1.0, 1.0)

    def test_empty_landmarks(self):
        with pytest.raises(ValueError):
            coordinates(P3, (), "a")


class TestResolves:
    def test_endpoint_resolves_path(self):
        assert resolves(P3, {"a"})

    def test_center_does_not_resolve_path(self):
        assert not resolves(P3, {"b"})

    def test_whole_point_set_always_resolves(self):
        for space in (P3, K4, C5):
            assert resolves(space, set(space.points))

    def test_empty_subset_never_resolves(self):
        assert not resolves(P3, set())


class TestPairTable:
    def test_path_endpoints_pair(self):
        table = pair_table(P3)
        assert type(table) is dict
        assert table[("a", "c")] == {"a", "c"}

    def test_complete_graph_pair(self):
        table = pair_table(K3)
        assert table[("v1", "v2")] == {"v1", "v2"}

    def test_pairs_contain_their_members(self):
        for space in (P4, C5, K4):
            for (u, v), dset in pair_table(space).items():
                assert {u, v} <= dset

    def test_matches_the_definition_past_64_points(self):
        """70 shuffled points: each pair's separators span 9 packed bytes."""
        space = shuffled(lexicographic(C7, C10).space, seed=7)
        table = pair_table(space)
        assert len(table) == space.n * (space.n - 1) // 2
        for (u, v), dset in table.items():
            apart = np.abs(space.dist[space.index(u)] - space.dist[space.index(v)])
            assert dset == {space.points[k] for k in np.flatnonzero(apart > space.tolerance)}


@pytest.mark.parametrize(
    "space",
    [P3, P4, C4, C5, K4, graph_metric(star_graph(3)),
     graph_metric(cycle_graph(6)), graph_metric(path_graph(7)), *SHUFFLED],
)
def test_hitting_set_equivalence_exhaustive(space):
    """resolves(S) iff S intersects every distinguisher set, for all subsets."""
    table = pair_table(space)
    for r in range(len(space.points) + 1):
        for subset in itertools.combinations(space.points, r):
            hit = all(set(subset) & dset for dset in table.values())
            assert resolves(space, subset) == hit


def resolves_oracle(space, subset):
    """The pair-by-pair loop the all-pairs pass replaced."""
    idx = sorted({space.index(p) for p in subset})
    if not idx:
        return False
    cols = space.dist[:, idx]
    for i in range(space.n):
        for j in range(i + 1, space.n):
            if not (np.abs(cols[i] - cols[j]) > space.tolerance).any():
                return False
    return True


@settings(derandomize=True, max_examples=200, deadline=None)
@given(raw_spaces(), BLOCK_BUDGETS, st.data())
def test_resolves_matches_the_loop_oracle(space, budget, data):
    subset = data.draw(st.sets(st.sampled_from(space.points)))
    with row_blocks_of(budget):
        if not np.isfinite(space.dist).all():
            with pytest.raises(ValueError, match="non-finite"):
                resolves(space, subset)
            return
        got = resolves(space, subset)
    assert got == resolves_oracle(space, subset)


class TestMetricDimension:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_paths_have_dimension_one_with_endpoint_bases(self, n):
        space = graph_metric(path_graph(n))
        result = metric_dimension(space, enumerate_all=True)
        assert result.dimension == 1
        first, last = space.points[0], space.points[-1]
        assert result.all_bases == ((first,), (last,))
        assert result.basis == (first,)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_complete_graphs(self, n):
        result = metric_dimension(graph_metric(complete_graph(n)), enumerate_all=True)
        assert result.dimension == n - 1
        assert len(result.all_bases) == n

    def test_four_cycle(self):
        result = metric_dimension(C4, enumerate_all=True)
        assert result.dimension == 2
        assert result.all_bases == (
            ("v1", "v2"),
            ("v1", "v4"),
            ("v2", "v3"),
            ("v3", "v4"),
        )

    def test_star_needs_all_but_one_leaf(self):
        result = metric_dimension(graph_metric(star_graph(3)), enumerate_all=True)
        assert result.dimension == 2
        assert result.all_bases == (("l1", "l2"), ("l1", "l3"), ("l2", "l3"))

    def test_basis_resolves_and_is_minimum(self):
        for space in (P4, C4, C5, K4):
            result = metric_dimension(space)
            assert resolves(space, result.basis)
            for smaller in itertools.combinations(space.points, result.dimension - 1):
                assert not resolves(space, smaller)

    def test_enumeration_builds_the_sets_once(self):
        """The complete list of bases walks the minimal sets the solve built."""
        sets = mock.patch.object(
            resolving_module, "_separator_words", wraps=resolving_module._separator_words
        )
        masks = mock.patch.object(resolving_module, "_minimal_masks", wraps=_minimal_masks)
        with sets as built, masks as reduced:
            result = metric_dimension(graph_metric(cycle_graph(6)), enumerate_all=True)
        assert (built.call_count, reduced.call_count) == (1, 1)
        assert result.dimension == 2 and result.basis == result.all_bases[0]

    def test_enumeration_cap(self):
        with pytest.raises(EnumerationCapExceeded, match="17"):
            metric_dimension(discrete_metric(17), enumerate_all=True)

    def test_cap_is_configurable(self):
        result = metric_dimension(
            discrete_metric(17), enumerate_all=True, max_enumeration_points=17
        )
        assert result.dimension == 16

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            metric_dimension(P3, method="magic")

    def test_indistinguishable_points_raise(self):
        with pytest.raises(ValueError, match="indistinguishable"):
            metric_dimension(NEAR_DUPLICATE)

    def test_enumeration_on_indistinguishable_points_raises(self):
        with pytest.raises(ValueError, match="no resolving set found"):
            metric_dimension(NEAR_DUPLICATE, method="enumeration")

    def test_stats_describe_the_reduction_and_stay_out_of_equality(self):
        # Only the diagonals {v1, v3} and {v2, v4} are left, and they share no
        # point: each is a component answered with one point, without a search.
        fast = metric_dimension(C4)
        assert fast.stats == SolveStats(raw_sets=6, reduced_sets=2, components=2)
        assert (fast.stats.nodes, fast.stats.memo_hits, fast.stats.prunes) == (0, 0, 0)
        assert fast.stats == SolveStats(6, 2, 2, nodes=5, memo_hits=99, prunes=7)
        oracle = metric_dimension(C4, method="enumeration")
        assert oracle.stats is None
        assert fast == oracle
        assert repr(fast) == "ResolveResult(dimension=2, basis=('v1', 'v2'), all_bases=None)"


@pytest.mark.parametrize(
    "space",
    [P3, P4, C4, C5, K3, K4, graph_metric(star_graph(3)), graph_metric(path_graph(7)),
     graph_metric(cycle_graph(6)), discrete_metric(5), *SHUFFLED],
)
def test_solvers_agree_including_witness(space):
    fast = metric_dimension(space, enumerate_all=True)
    oracle = metric_dimension(space, enumerate_all=True, method="enumeration")
    assert fast.dimension == oracle.dimension
    assert fast.basis == oracle.basis
    assert fast.all_bases == oracle.all_bases


# Two indistinguishable pairs, (c, d) first in point order, (a, b) first in label order.
TWO_NEAR_DUPLICATES = FiniteMetricSpace(
    ("d", "c", "b", "a"),
    [[0, 1e-10, 1, 1], [1e-10, 0, 1, 1], [1, 1, 0, 1e-10], [1, 1, 1e-10, 0]],
)


@pytest.mark.parametrize("entry", [metric_dimension, greedy_generator])
def test_indistinguishable_message_names_the_first_pair_in_label_order(entry):
    with pytest.raises(ValueError) as raised:
        entry(TWO_NEAR_DUPLICATES)
    assert str(raised.value) == "points 'a' and 'b' are indistinguishable at tolerance"


class TestGreedy:
    def test_path_singleton_endpoint(self):
        assert greedy_generator(P3) == ("a",)

    def test_complete_graph_three_of_four(self):
        assert greedy_generator(K4) == ("v1", "v2", "v3")

    @pytest.mark.parametrize("space", [P3, P4, C4, C5, K4, discrete_metric(6), *SHUFFLED])
    def test_output_resolves_and_bounds_dimension(self, space):
        greedy = greedy_generator(space)
        assert resolves(space, greedy)
        assert len(greedy) >= metric_dimension(space).dimension

    def test_indistinguishable_points_raise(self):
        with pytest.raises(ValueError, match="indistinguishable"):
            greedy_generator(NEAR_DUPLICATE)


@pytest.mark.parametrize("space", [P3, K3, C4, graph_metric(star_graph(3))])
def test_resolving_sets_meet_every_twin_pair(space):
    """Only the twins themselves separate a twin pair, so one must be picked."""
    partition = twin_classes(space)
    twin_pairs = [
        (u, v)
        for cls in partition.non_singleton_classes
        for u, v in itertools.combinations(cls, 2)
    ]
    assert twin_pairs
    for r in range(1, len(space.points) + 1):
        for subset in itertools.combinations(space.points, r):
            if resolves(space, subset):
                for u, v in twin_pairs:
                    assert u in subset or v in subset


@pytest.mark.parametrize("space", [P3, P4, C4, K3, C5])
def test_dimension_invariant_under_squash(space):
    """A strictly increasing remap of distances changes no resolve decision."""
    squashed = squash(nearness(space), space)
    for r in range(len(space.points) + 1):
        for subset in itertools.combinations(space.points, r):
            assert resolves(space, subset) == resolves(squashed, subset)
    assert (
        metric_dimension(space).dimension == metric_dimension(squashed).dimension
    )


def hits(candidates, sets) -> bool:
    """Whether the positions ``candidates`` meet every mask in ``sets``."""
    chosen = sum(1 << i for i in candidates)
    return all(chosen & m for m in sets)


def kernel_witness(sets: list[int]) -> list[int]:
    """Union of the per-component lex-least witnesses of the reduced family."""
    components = _components(_minimal_masks(sets))
    return sorted(i for masks in components for i in _solve_component(masks, _Memo()))


def plain_min_hitting_set_size(sets: list[int], budget: int) -> int | None:
    """Plain branch and bound with no table: the oracle of the memoized search.

    Keeps one incumbent for the whole tree, forces singleton sets, cuts on
    the disjoint-packing bound and bans each tried candidate from its later
    siblings.
    """
    best: int | None = None

    def search(active: list[int], chosen: int) -> None:
        nonlocal best
        limit = budget if best is None else best - 1
        if chosen > limit:
            return
        if not active:
            best = chosen
            return
        ordered = sorted(active, key=lambda m: (m.bit_count(), m))
        if chosen + _packing_lower_bound(ordered) > limit:
            return
        target = min(active, key=lambda m: (m.bit_count(), m))
        if not target:
            return
        if target & (target - 1) == 0:
            search([m for m in active if not m & target], chosen + 1)
            return
        banned = 0
        for cand in _positions(target):
            bit = 1 << cand
            reduced: list[int] = []
            alive = True
            for m in active:
                if m & bit:
                    continue
                trimmed = m & ~banned
                if not trimmed:
                    alive = False
                    break
                reduced.append(trimmed)
            if alive:
                search(reduced, chosen + 1)
            banned |= bit

    search(sets, 0)
    return best


def plain_lex_least_hitting_set(sets: list[int], size: int) -> list[int]:
    """The lex-least hitting set of the minimum size ``size``, by plain feasibility checks."""
    chosen: list[int] = []
    active = sets
    for cand in _positions(reduce(or_, sets, 0)):
        if len(chosen) == size:
            break
        bit = 1 << cand
        remaining = [m for m in active if not m & bit]
        restricted = [m & -(bit << 1) for m in remaining]
        rest_budget = size - len(chosen) - 1
        if all(restricted) and plain_min_hitting_set_size(restricted, rest_budget) is not None:
            chosen.append(cand)
            active = remaining
    assert len(chosen) == size and not active
    return chosen


# Non-empty set families on at most 8 candidates, as bitmasks.
set_families = st.lists(st.integers(1, 255), min_size=0, max_size=12)


@settings(derandomize=True, max_examples=150)
@given(set_families)
def test_reduction_keeps_exactly_the_hitting_sets(sets):
    reduced = _minimal_masks(sets)
    assert len(set(reduced)) == len(reduced)
    assert all(a & b != a for a in reduced for b in reduced if a != b)
    for r in range(9):
        for subset in itertools.combinations(range(8), r):
            assert hits(subset, reduced) == hits(subset, sets)


@settings(derandomize=True, max_examples=150)
@given(set_families)
def test_component_witnesses_form_the_lex_least_minimum_hitting_set(sets):
    brute = next(
        list(subset)
        for r in range(9)
        for subset in itertools.combinations(range(8), r)
        if hits(subset, sets)
    )
    assert kernel_witness(sets) == brute


# Every 3-subset of 5 candidates: the sets pairwise meet, so the packing
# bound is 1 and cuts nothing, while the minimum is 3.
TRIPLES_OF_FIVE = [sum(1 << i for i in c) for c in itertools.combinations(range(5), 3)]
# {0, 1, 2}, {0, 2} and {0, 2, 3} share 0 and 2: answered with one point.
COMMON_POINT = [0b0111, 0b0101, 0b1101]
# Packing bound 2 from {0, 1} and {2, 3}; the first branch, on 0, leaves {2, 3}
# alone and meets the bound, so 1 is never tried.
FIRST_BRANCH_AT_BOUND = [0b0011, 0b0101, 0b1100]
# Minimum 1, at 1: the reconstruction tries 0 first, which leaves {1, 2} open
# with no budget left.
OPEN_AT_ZERO_BUDGET = [0b011, 0b110]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(set_families)
@example(TRIPLES_OF_FIVE)
@example(COMMON_POINT)
@example(FIRST_BRANCH_AT_BOUND)
@example(OPEN_AT_ZERO_BUDGET)
def test_memoized_search_agrees_with_plain_branch_and_bound(sets):
    """Size and witness at every budget, each from a fresh table or one shared table.

    The shared table sees the budgets ascending, descending and ascending
    again, so searches meet the lower bounds that tighter budgets stored,
    at the root and below it.
    """
    shared = _Memo()
    for budget in [*range(9), *range(8, -1, -1), *range(9)]:
        expected = plain_min_hitting_set_size(sets, budget)
        for memo in (_Memo(), shared):
            size = _min_hitting_set_size(sets, budget, memo)
            assert size == expected
            if size is not None:
                assert _lex_least_hitting_set(sets, size, memo) == (
                    plain_lex_least_hitting_set(sets, size)
                )


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 255), min_size=1, max_size=12))
@example(COMMON_POINT)
@example([0b0110])
@example(TRIPLES_OF_FIVE)
def test_solve_component_agrees_with_plain_branch_and_bound(sets):
    """The witness is the oracle's; a family whose sets share a point is closed by its
    least one, with no search."""
    size = plain_min_hitting_set_size(sets, 8)
    memo = _Memo()
    part = _solve_component(sets, memo)
    assert part == plain_lex_least_hitting_set(sets, size)
    if reduce(and_, sets):
        assert (memo.nodes, memo.hits, memo.prunes) == (0, 0, 0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.lists(st.integers(1, 255), min_size=1, max_size=10),
    st.lists(st.integers(1, 70), min_size=1, max_size=3),
)
@example(TRIPLES_OF_FIVE, [1, 64])
@example(COMMON_POINT, [2])
@example(OPEN_AT_ZERO_BUDGET, [5])
def test_shifted_copies_are_answered_from_the_process_memo(sets, shifts):
    """A family and its copies shifted left: each answer equals the oracle's and a solve
    on an empty process memo. Once the first is solved, every copy is answered from its
    stored witness with no search, on a second pass too."""
    size = plain_min_hitting_set_size(sets, 8)
    copies = [[m << shift for m in sets] for shift in (0, *shifts)]
    expected = []
    for family in copies:
        resolving_module._TABLES.clear()
        expected.append(_solve_component(family, _Memo()))
        assert expected[-1] == plain_lex_least_hitting_set(family, size)
    resolving_module._TABLES.clear()
    searched = not reduce(and_, sets)
    stored = False
    for _ in range(2):
        for family, witness in zip(copies, expected):
            memo = _Memo()
            assert _solve_component(family, memo) == witness
            assert memo.reused == (searched and stored)
            if memo.reused:
                assert (memo.nodes, memo.hits, memo.prunes, len(memo)) == (0, 0, 0, 0)
            stored = True


def test_search_table_dies_with_its_solve():
    """No reference cycle holds a solve's table: with the cycle collector off,
    dropping the table the solve filled frees it."""
    gc.disable()
    try:
        memo = _Memo()
        assert _solve_component(TRIPLES_OF_FIVE, memo) == [0, 1, 2] and len(memo) > 0
        table = weakref.ref(memo)
        del memo
        assert table() is None
    finally:
        gc.enable()


def test_memo_hits_are_fresh_equal_copies_of_one_computation(monkeypatch):
    """Two hits on one family's key give values equal to what the first solve stored,
    each one new, and the first solve's answer."""
    memo, real_loads = resolving_module._TABLES, pickle.loads
    stored, hits = [], []

    def store(key, value):
        if type(real_loads(key)) is tuple:  # a family's key; a component's is a list
            stored.append(value)
        return type(memo).store(memo, key, value)

    def loads(data):
        hits.append(real_loads(data))
        return hits[-1]

    monkeypatch.setattr(memo, "store", store)
    monkeypatch.setattr(pickle, "loads", loads)
    space = lexicographic(P3, C5).space
    first = metric_dimension(space)
    hits.clear()
    assert [metric_dimension(space) for _ in range(2)] == [first, first]
    assert len(stored) == 1 and len(hits) == 2 and hits[0] == hits[1] == stored[0]
    assert len({id(stored[0][0]), *(id(witness) for witness, _ in hits)}) == 3


def test_a_family_met_again_is_answered_in_one_lookup(monkeypatch):
    """A table and a relabeled copy of it at twice the scale have one minimal family:
    the second solve is the first by position, every component counted reused, and
    with must-hit rows the stored answer keeps its size as a cold solve does, equal
    to the dimension under one row and larger under three forced points."""
    space = lexicographic(P3, C5).space
    # A prefix keeps the label order, so positions in label order match.
    copy = FiniteMetricSpace(tuple("q" + p for p in space.points), space.dist * 2)
    one_row = np.zeros((1, space.n), bool)
    one_row[0, [space.index("b|v1"), space.index("c|v3")]] = True
    forced = np.eye(space.n, dtype=bool)[[space.index(p) for p in ("b|v1", "b|v2", "b|v4")]]
    fresh = metric_dimension(space)
    assert fresh.stats.components == 2 and fresh.stats.nodes > 0
    cold = [_least_basis(space, _minimal_family(space), rows) for rows in (one_row, forced)]
    assert [found.dimension for found in cold] == [fresh.dimension, fresh.dimension + 1]
    assert all(found.stats.reduced_sets != fresh.stats.reduced_sets for found in cold)

    def no_search(*args):
        raise AssertionError("a stored family was split into components")

    monkeypatch.setattr(resolving_module, "_solve_component", no_search)
    family = _minimal_family(copy)
    hits = metric_dimension(copy), *(_least_basis(copy, family, rows) for rows in (one_row, forced))
    for first, again in zip((fresh, *cold), hits):
        assert again.dimension == first.dimension
        assert [copy.index(p) for p in again.basis] == [space.index(p) for p in first.basis]
        assert dataclasses.astuple(again.stats)[:3] == dataclasses.astuple(first.stats)[:3]
        stats = again.stats
        assert (stats.reused, stats.nodes, stats.memo_hits, stats.prunes) == (
            stats.components, 0, 0, 0)


def test_interleaved_components():
    """Components {0, 2, 4} and {1, 3} interleave in label order."""
    sets = [0b101, 0b10100, 0b1010]
    components = _components(_minimal_masks(sets))
    assert sorted(sorted(c) for c in components) == [[0b101, 0b10100], [0b1010]]
    assert kernel_witness(sets) == [1, 2]


def components_oracle(masks: list[int]) -> list[list[int]]:
    """The merge loop ``_components`` replaced: each mask joins every group it meets,
    and the merged group moves to the end."""
    groups: list[tuple[int, list[int]]] = []
    for m in masks:
        union, members, apart = m, [m], []
        for g_union, g_members in groups:
            if g_union & m:
                union |= g_union
                members += g_members
            else:
                apart.append((g_union, g_members))
        groups = apart + [(union, members)]
    return [members for _, members in groups]


# Sets of one to three positions below 80, so a family splits into a few components,
# some of them past one 64-bit word.
sparse_masks = st.sets(st.integers(0, 79), min_size=1, max_size=3).map(
    lambda positions: sum(1 << q for q in positions)
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(sparse_masks, max_size=40, unique=True))
@example([0b101, 0b10100, 0b1010])
def test_components_match_the_merge_loop(masks):
    """The same components, each of the same sets, in the same order."""
    assert [sorted(part) for part in _components(masks)] == [
        sorted(part) for part in components_oracle(masks)
    ]


def plain_search_witness(sets: list[int]) -> list[int]:
    """The size search and witness reconstruction the cover replaces, on a fresh table."""
    memo = _Memo()
    size = _min_hitting_set_size(sets, reduce(or_, sets).bit_count(), memo)
    return _lex_least_hitting_set(sets, size, memo)


# Nine positions reaching past bit 63: a component of a table of more than 64 points.
WIDE = [0, 2, 5, 9, 30, 66, 68, 70, 71]
# Every 3-subset: 84 sets, more than one word of columns; the least 7 positions hit them.
WIDE_TRIPLES = [sum(1 << q for q in c) for c in itertools.combinations(WIDE, 3)]
# The 9-cycle on WIDE: a least vertex cover.
WIDE_CYCLE = [1 << a | 1 << b for a, b in zip(WIDE, WIDE[1:] + WIDE[:1])]


def test_cover_takes_positions_past_one_word():
    """Masks wider than 64 bits: the cover, and a component solve through it, with no search."""
    assert _cover_least(WIDE_TRIPLES) == WIDE[:7] == plain_search_witness(WIDE_TRIPLES)
    assert _cover_least(WIDE_CYCLE) == [0, 2, 9, 66, 70] == plain_search_witness(WIDE_CYCLE)
    for family in (WIDE_TRIPLES, WIDE_CYCLE):
        memo = _Memo()
        assert _solve_component(family, memo) == _cover_least(family)
        assert (memo.nodes, memo.hits, memo.prunes) == (0, 0, 0)


@st.composite
def cover_families(draw):
    """Families of up to 100 sets of one to four positions over 8 to 18 positions below
    140, every position in some set."""
    positions = sorted(draw(st.sets(st.integers(0, 139), min_size=8, max_size=18)))
    subsets = st.sets(st.sampled_from(positions), min_size=1, max_size=4)
    masks = [sum(1 << q for q in s) for s in draw(st.lists(subsets, min_size=1, max_size=100))]
    for q in positions:
        if not any(m >> q & 1 for m in masks):
            masks[draw(st.integers(0, len(masks) - 1))] |= 1 << q
    return masks


@settings(derandomize=True, max_examples=200, deadline=None)
@given(cover_families())
@example(WIDE_TRIPLES)
@example(WIDE_CYCLE)
@example([m << 60 for m in TRIPLES_OF_FIVE] + [0b111 << 65, 0b111 << 67])
def test_cover_agrees_with_the_size_search(sets):
    assert _cover_least(sets) == plain_search_witness(sets)


@pytest.mark.parametrize("p", range(11))
def test_subset_tables_match_a_popcount(p):
    """Bit ``s`` of the tables of ``p`` positions, against subset ``s`` counted bit by bit."""
    without, by_size = _subset_tables(p)
    subsets = range(1 << p)
    assert without == tuple(
        sum(1 << s for s in subsets if not s >> j & 1) for j in range(p)
    )
    assert by_size == tuple(
        sum(1 << s for s in subsets if bin(s).count("1") == k) for k in range(p + 1)
    )


@st.composite
def complete_base_products(draw):
    """``K_k o G`` of 8 to 12 points for a seeded connected graph ``G``: the base points
    are all twins, so fibers merge into components of 8 to 12 positions."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 4))
    second = random_connected_graph(rng, draw(st.integers(-(-8 // k), 12 // k)), prefix="y")
    return lexicographic(graph_metric(complete_graph(k)), graph_metric(second)).space


@settings(derandomize=True, max_examples=40, deadline=None)
@given(complete_base_products())
def test_cover_agrees_with_enumeration(space):
    """The solve equals the enumeration oracle, and the cover runs exactly when a
    component of ``_COVER_POSITIONS`` positions holds no common point."""
    resolving_module._TABLES.clear()
    sizes = resolving_module._COVER_POSITIONS
    covered = [
        part for part in _components(_minimal_family(space)[1])
        if reduce(or_, part).bit_count() in sizes and not reduce(and_, part)
    ]
    with mock.patch.object(resolving_module, "_cover_least", wraps=_cover_least) as cover:
        fast = metric_dimension(space)
    oracle = metric_dimension(space, method="enumeration")
    assert (fast.dimension, fast.basis) == (oracle.dimension, oracle.basis)
    assert cover.called == bool(covered)


def test_a_twelve_position_component_never_searches(monkeypatch):
    """K4 o W3: one component of 28 sets over all 12 points, solved with no search."""
    w3 = FiniteMetricSpace(("y1", "y2", "y3"), [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]])
    product = lexicographic(K4, w3).space
    oracle = metric_dimension(product, method="enumeration")

    def no_search(*args):
        raise AssertionError("the size search ran")

    monkeypatch.setattr(resolving_module, "_search", no_search)
    result = metric_dimension(product)
    assert (result.dimension, result.basis) == (oracle.dimension, oracle.basis)
    assert dataclasses.astuple(result.stats) == (66, 28, 1, 0, 0, 0, 0)


def test_a_sixteen_position_component_never_searches(monkeypatch):
    """K4 o paw: one component of 66 sets over all 16 points, which branch and bound
    took 77-101 nodes to solve; the cover gives its answer with no search."""
    paw = graph_metric(Graph.from_edges([("u", "v"), ("u", "w"), ("v", "w"), ("w", "x")]))
    product = lexicographic(K4, paw).space
    with mock.patch.object(resolving_module, "_COVER_POSITIONS", range(0)):
        searched = metric_dimension(product)
    assert searched.stats.nodes > 0
    assert searched.dimension == formula_rhs(K4, paw)
    resolving_module._TABLES.clear()

    def no_search(*args):
        raise AssertionError("the size search ran")

    monkeypatch.setattr(resolving_module, "_search", no_search)
    result = metric_dimension(product)
    assert (result.dimension, result.basis) == (searched.dimension, searched.basis)
    assert resolves(product, result.basis)
    assert dataclasses.astuple(result.stats) == (120, 66, 1, 0, 0, 0, 0)


def test_wide_twin_rich_table_covers_as_the_search_solves():
    """72 points, six twin pairs with fibers of G: one pair's fiber is capped apart from
    the rest, so its component, over positions 30-35 and 66-71, is covered on its own.
    The answer is the one branch and bound gives with the cover switched off."""
    labels = [f"{c}{i}" for i in range(1, 7) for c in "ab"]
    table = np.full((12, 12), 4.0)
    np.fill_diagonal(table, 0.0)
    for i, inner in enumerate([2, 2, 2, 2, 2, 1]):
        table[2 * i, 2 * i + 1] = table[2 * i + 1, 2 * i] = inner
    second = graph_metric(random_connected_graph(np.random.default_rng(1), 6, prefix="y"))
    product = lexicographic(FiniteMetricSpace(tuple(labels), table), second).space
    with mock.patch.object(resolving_module, "_cover_least", wraps=_cover_least) as cover:
        covered = metric_dimension(product)
    assert max(reduce(or_, call.args[0]).bit_length() for call in cover.call_args_list) == 72
    assert covered.stats.nodes == 0
    resolving_module._TABLES.clear()
    with mock.patch.object(resolving_module, "_COVER_POSITIONS", range(0)):
        searched = metric_dimension(product)
    assert searched.stats.nodes > 0
    assert (covered.dimension, covered.basis) == (searched.dimension, searched.basis)
    assert covered.stats == searched.stats
    assert resolves(product, covered.basis)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(100, 700),
    st.integers(16, 64),
    st.floats(0.1, 0.5),
)
def test_numpy_superset_filter_matches_the_python_scan(seed, count, width, density):
    """Random one-word families of 100 to 700 distinct sets, of any density."""
    rng = np.random.default_rng(seed)
    rows = np.unique(_packed_words(rng.random((2 * count, width)) < density)[:, 0])
    rows = rng.permutation(rows[rows != 0])[:count]
    assume(len(rows) >= 100)
    rows.sort()
    assert _minimal_rows(rows) == _minimal_masks(rows.tolist())


@st.composite
def solver_spaces(draw):
    """Random weighted spaces, and twin-rich graph products, of at most 12 points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_metric_space(rng, draw(st.integers(2, 12)))
    n_base = draw(st.integers(2, 4))
    n_second = draw(st.integers(2, 12 // n_base))
    base = graph_metric(random_connected_graph(rng, n_base, prefix="x"))
    second = graph_metric(random_connected_graph(rng, n_second, prefix="y"))
    return lexicographic(base, second).space


@settings(derandomize=True, max_examples=40, deadline=None)
@given(solver_spaces())
def test_kernel_agrees_with_plain_branch_and_bound_and_enumeration(space):
    labels, sets = _distinguisher_sets(space)
    size = plain_min_hitting_set_size(sets, space.n)
    plain_basis = tuple(labels[i] for i in plain_lex_least_hitting_set(sets, size))
    plain_all = tuple(
        tuple(labels[i] for i in combo)
        for combo in itertools.combinations(range(space.n), size)
        if hits(combo, sets)
    )
    fast = metric_dimension(space, enumerate_all=True)
    oracle = metric_dimension(space, enumerate_all=True, method="enumeration")
    assert (fast.dimension, fast.basis, fast.all_bases) == (size, plain_basis, plain_all)
    assert (fast.dimension, fast.basis, fast.all_bases) == (
        oracle.dimension,
        oracle.basis,
        oracle.all_bases,
    )


@settings(derandomize=True, max_examples=40, deadline=None)
@given(solver_spaces(), st.integers(0, 2**32 - 1))
def test_must_hit_solves_agree_on_a_warm_and_a_cold_memo(space, seed):
    """Solves with extra must-hit rows, as the special-class test makes them: on an
    empty memo, after the plain solve of the same space, and once more, each answer
    is the oracle's least hitting set, never smaller than the dimension. Empty rows
    are dropped: the special-class test settles those before it solves."""
    rng = np.random.default_rng(seed)
    family = _minimal_family(space)
    labels, minimal = family
    rows = rng.random((int(rng.integers(1, 4)), space.n)) < 0.3
    rows = rows[rows.any(axis=1)]
    extra = [sum(1 << k for k, p in enumerate(labels) if row[space.index(p)]) for row in rows]
    sets = [*minimal, *extra]
    size = plain_min_hitting_set_size(sets, space.n)
    expected = tuple(labels[i] for i in plain_lex_least_hitting_set(sets, size))
    resolving_module._TABLES.clear()
    found = [_least_basis(space, family, rows)]
    resolving_module._TABLES.clear()
    dimension = metric_dimension(space).dimension
    found += [_least_basis(space, family, rows) for _ in range(2)]
    assert [(f.dimension, f.basis) for f in found] == [(size, expected)] * 3
    assert size >= dimension


def weighted_7x7(seed: int, index: int):
    """The ``index``-th weighted 7x7 pair drawn from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    for _ in range(index):
        base = random_metric_space(rng, 7, prefix="x")
        second = random_metric_space(rng, 7, prefix="y")
    return base, second


@pytest.mark.parametrize(
    "seed, index, stats",
    [
        (0, 1, SolveStats(1176, 23, 7, nodes=1, memo_hits=0, prunes=0, reused=1)),
        (1, 4, SolveStats(1176, 46, 7, nodes=2, memo_hits=0, prunes=0, reused=2)),
    ],
)
def test_heavy_tail_products_solve(seed, index, stats):
    """Products that took 27 s and over 40 s to solve without the reduction.

    Fibers of equal nearness give components equal up to a shift: each is searched
    once, and its copies are answered from the process-wide memo.
    """
    base, second = weighted_7x7(seed, index)
    product = lexicographic(base, second).space
    result = metric_dimension(product)
    assert resolves(product, result.basis)
    assert result.dimension == len(result.basis) == formula_rhs(base, second)
    assert result.stats == stats
    assert dataclasses.astuple(result.stats) == dataclasses.astuple(stats)


def test_twin_rich_complete_base_product_solves():
    """K6 o G, 36 points in one component of 288 sets: 34 s without the table."""
    k = tuple(f"k{i}" for i in range(1, 7))
    base = graph_metric(Graph(k, tuple((a, b, 1.0) for a, b in itertools.combinations(k, 2))))
    u = tuple(f"u{i}" for i in range(1, 7))
    edges = ("u1u2", "u1u5", "u1u6", "u2u3", "u2u4", "u2u5", "u3u4", "u4u5")
    second = graph_metric(Graph(u, tuple((e[:2], e[2:], 1.0) for e in edges)))
    result = metric_dimension(lexicographic(base, second).space)
    expected = [f"{x}|{y}" for x in k[:5] for y in ("u1", "u2", "u3")] + ["k6|u1", "k6|u5"]
    assert result.dimension == 17 == formula_rhs(base, second)
    assert result.basis == tuple(expected)
    assert result.stats == SolveStats(raw_sets=630, reduced_sets=288, components=1)
    assert (result.stats.nodes, result.stats.memo_hits, result.stats.prunes) == (689, 749, 236)


def distinguisher_sets_oracle(space: FiniteMetricSpace) -> list[int]:
    """Each label-sorted pair's separators as a bitmask, one pair at a time."""
    labels = sorted(space.points)
    masks = []
    for u, v in itertools.combinations(labels, 2):
        apart = np.abs(space.dist[space.index(u)] - space.dist[space.index(v)]) > space.tolerance
        masks.append(sum(1 << k for k, p in enumerate(labels) if apart[space.index(p)]))
    return masks


@pytest.mark.parametrize("budget", [1, 100, 200, space_module._BLOCK_ENTRIES])
@pytest.mark.parametrize(
    "space", [P4, C5, *SHUFFLED, shuffled(lexicographic(C7, C10).space, seed=7)],
    ids=["P4", "C5", "C10", "G11", "C7xC10"],
)
def test_distinguisher_sets_are_the_same_in_any_blocks(space, budget):
    with row_blocks_of(budget):
        labels, masks = _distinguisher_sets(space)
    assert labels == sorted(space.points)
    assert masks == distinguisher_sets_oracle(space)


def row_masks_oracle(table: np.ndarray) -> list[int]:
    """Each row's packed bytes read as one little-endian int, one row at a time."""
    rows = np.packbits(table, axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in rows]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.integers(0, 300),
    st.sampled_from([1, 7, 8, 63, 64, 65, 128, 129, 400]),
    st.floats(0, 1),
    st.integers(0, 2**32 - 1),
)
def test_row_masks_match_the_per_row_oracle(rows, width, density, seed):
    table = np.random.default_rng(seed).random((rows, width)) < density
    masks = _word_masks(_packed_words(table))
    assert masks == row_masks_oracle(table)
    assert all(type(m) is int for m in masks)


def word_masks_oracle(words: np.ndarray) -> list[int]:
    """Each row's words joined into one int, word ``j`` shifted by ``64 * j``."""
    return [sum(int(w) << 64 * j for j, w in enumerate(row)) for row in words]


def per_pair_family(space: FiniteMetricSpace) -> tuple[list[str], list[int]]:
    """Every pair's set as an int, then duplicates and supersets dropped among the ints."""
    labels, sets = _distinguisher_sets(space)
    return labels, _minimal_masks(sets)


@pytest.mark.parametrize("n", [10, 12, 20])
def test_solve_past_one_word_matches_the_per_row_conversion(n):
    """Weighted products of 100, 144 and 400 points: two to seven words a row.

    The oracle joins every pair's words into an int one word at a time and
    drops duplicates among the ints, not among the words.
    """
    rng = np.random.default_rng(n)
    product = lexicographic(
        random_metric_space(rng, n, prefix="x"), random_metric_space(rng, n, prefix="y")
    ).space
    fast = metric_dimension(product)
    resolving_module._TABLES.clear()
    with mock.patch.object(resolving_module, "_minimal_family", per_pair_family):
        with mock.patch.object(resolving_module, "_word_masks", word_masks_oracle):
            oracle = metric_dimension(product)
    assert (fast.dimension, fast.basis) == (oracle.dimension, oracle.basis)
    assert dataclasses.astuple(fast.stats) == dataclasses.astuple(oracle.stats)


@st.composite
def near_tie_spaces(draw):
    """Tables of 2-9, 63-65, 128 and 129 points, in shuffled label order, with ties.

    Each entry is a generic distance or, with some probability, one of three
    levels moved by a small multiple of half the tolerance, which decides
    some ties either way. Wide tables tie less, so that their distinct sets
    stay few for the quadratic superset filter. Half the tables get one
    indistinguishable pair: equal rows, a distance inside the tolerance.
    """
    n = draw(st.sampled_from([*range(2, 10), 63, 64, 65, 128, 129]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tolerance = draw(st.sampled_from([1e-9, 0.1]))
    tied = rng.random((n, n)) < draw(st.sampled_from([0.05, 0.3] if n < 10 else [0.002, 0.01]))
    levels = rng.integers(1, 4, (n, n)) + rng.integers(-3, 4, (n, n)) * tolerance / 2
    upper = np.where(tied, levels, 5 + rng.random((n, n)) * 1e4 * tolerance)
    table = np.triu(upper, 1) + np.triu(upper, 1).T
    if draw(st.booleans()):
        i, j = rng.choice(n, 2, replace=False)
        table[j], table[:, j] = table[i], table[:, i]
        table[i, j] = table[j, i] = tolerance / 2
        table[j, j] = 0.0
    order = rng.permutation(n)
    return FiniteMetricSpace(
        tuple(f"p{k}" for k in order), table[np.ix_(order, order)], tolerance=tolerance
    )


@settings(derandomize=True, max_examples=120, deadline=None)
@given(near_tie_spaces(), BLOCK_BUDGETS)
def test_minimal_family_matches_the_per_pair_route(space, budget):
    """Duplicates dropped among the packed words give the per-pair route's family.

    Where a pair is indistinguishable both name the first such pair in label order.
    """
    labels, sets = _distinguisher_sets(space)
    with row_blocks_of(budget):
        if 0 in sets:
            u, v = list(itertools.combinations(labels, 2))[sets.index(0)]
            message = f"points {u!r} and {v!r} are indistinguishable at tolerance"
            with pytest.raises(ValueError, match=re.escape(message)):
                _minimal_family(space)
        else:
            assert _minimal_family(space) == per_pair_family(space)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(near_tie_spaces(), BLOCK_BUDGETS)
def test_distinguisher_sets_match_the_per_pair_oracle_on_near_ties(space, budget):
    """The packed kernel against one pair at a time, in any blocks, widths 2-129."""
    with row_blocks_of(budget):
        labels, masks = _distinguisher_sets(space)
    assert labels == sorted(space.points)
    assert masks == distinguisher_sets_oracle(space)


@pytest.mark.parametrize("budget", [1, 100, 200, space_module._BLOCK_ENTRIES])
@pytest.mark.parametrize("n", [63, 65, 129])
def test_separator_words_hold_no_bit_past_the_last_point(n, budget):
    """The padding of each row's last word stays zero, in every block."""
    space = random_metric_space(np.random.default_rng(n), n)
    with row_blocks_of(budget):
        _, words = resolving_module._separator_words(space)
    assert words.shape == (n * (n - 1) // 2, -(-n // 64))
    masks = word_masks_oracle(words)
    assert all(m >> n == 0 for m in masks)
    assert reduce(or_, masks) == (1 << n) - 1


def minimal_masks_oracle(sets: list[int]) -> list[int]:
    """The distinct sets with no other set inside, by size, then value, from the definition."""
    distinct = set(sets)
    minimal = [m for m in distinct if not any(o != m and o & m == o for o in distinct)]
    return sorted(minimal, key=lambda m: (m.bit_count(), m))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from([0, 1, 2, 5, 62, 63, 64, 65, 100, 128, 129]), max_size=5),
        min_size=1,
        max_size=12,
    ),
    st.data(),
)
def test_minimal_masks_match_the_definition(pool, data):
    """Families with copies, in any order, over positions on both sides of 64 and 128."""
    masks = [sum({1 << k for k in positions}) for positions in pool]
    sets = data.draw(st.lists(st.sampled_from(masks), max_size=40))
    assert _minimal_masks(sets) == minimal_masks_oracle(sets)


def test_distinguisher_sets_memory_stays_linear_in_the_pairs():
    """256 points: one n**3 float array would take 128 MB."""
    rng = np.random.default_rng(256)
    space = random_metric_space(rng, 256)
    assert len(list(_row_blocks(256 * 255 // 2, 256))) > 1
    tracemalloc.start()
    try:
        _, masks = _distinguisher_sets(space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(masks) == 256 * 255 // 2
    assert peak < 16 * 2**20


def ilp_dimension(space: FiniteMetricSpace) -> int:
    """Minimum resolving set size by integer programming, from ``dist`` alone.

    Minimizes the number of chosen points subject to every pair having a
    chosen point at different distances from its two members.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    rows = np.unique(
        [
            np.abs(space.dist[i] - space.dist[j]) > space.tolerance
            for i, j in itertools.combinations(range(space.n), 2)
        ],
        axis=0,
    )
    ones = np.ones(space.n)
    result = milp(
        ones,
        constraints=LinearConstraint(rows.astype(float), lb=1),
        integrality=ones,
        bounds=Bounds(0, 1),
    )
    assert result.success
    return round(result.fun)


def ilp_factor(code: str, rng: np.random.Generator, prefix: str) -> FiniteMetricSpace:
    """``Kn`` a complete graph, ``Gn`` a random connected graph, ``Wn`` a random metric."""
    kind, n = code[0], int(code[1:])
    if kind == "K":
        return graph_metric(complete_graph(n))
    if kind == "G":
        return graph_metric(random_connected_graph(rng, n, prefix=prefix))
    return random_metric_space(rng, n, prefix=prefix)


@pytest.mark.parametrize(
    "base, second",
    [("K4", "G6"), ("K3", "G8"), ("K2", "G12"), ("K5", "G5"), ("G4", "G8"),
     ("G6", "G6"), ("G5", "G8"), ("W5", "W5"), ("W7", "W7"), ("W8", "W8")],
)
def test_dimension_matches_an_independent_ilp(base, second):
    """Products of 24 to 64 points, twin-rich complete bases among them."""
    pytest.importorskip("scipy")
    rng = np.random.default_rng(3)
    product = lexicographic(ilp_factor(base, rng, "x"), ilp_factor(second, rng, "y")).space
    assert metric_dimension(product).dimension == ilp_dimension(product)
