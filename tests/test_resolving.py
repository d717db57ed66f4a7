"""Resolving sets, the pair table, and the exact dimension solvers.

The branch-and-bound solver is validated against plain subset enumeration
(its stated oracle) on everything small, including the witness basis, which
both must report as the lexicographically least one.
"""

import itertools

import numpy as np
import pytest

from lexmetric.construct import (
    Graph,
    complete_graph,
    cycle_graph,
    discrete_metric,
    graph_metric,
    path_graph,
    squash,
)
from lexmetric.resolving import (
    EnumerationCapExceeded,
    coordinates,
    greedy_generator,
    metric_dimension,
    pair_table,
    resolves,
)
from lexmetric.space import FiniteMetricSpace, nearness
from lexmetric.theory import random_connected_graph
from lexmetric.twins import twin_classes

P3 = graph_metric(path_graph(3))
P4 = graph_metric(path_graph(4))
K3 = graph_metric(complete_graph(3))
K4 = graph_metric(complete_graph(4))
C4 = graph_metric(cycle_graph(4))
C5 = graph_metric(cycle_graph(5))


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
        assert table.pairs[("a", "c")] == {"a", "c"}

    def test_complete_graph_pair(self):
        table = pair_table(K3)
        assert table.pairs[("v1", "v2")] == {"v1", "v2"}

    def test_pairs_contain_their_members(self):
        for space in (P4, C5, K4):
            for (u, v), dset in pair_table(space).pairs.items():
                assert {u, v} <= dset


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
            hit = all(set(subset) & dset for dset in table.pairs.values())
            assert resolves(space, subset) == hit


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
        space = FiniteMetricSpace(
            ("a", "b", "c"), [[0, 0.0000000001, 1], [0.0000000001, 0, 1], [1, 1, 0]]
        )
        with pytest.raises(ValueError, match="indistinguishable"):
            greedy_generator(space)


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
