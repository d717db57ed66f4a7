"""Graph metrics, products, and deformations.

The product construction is checked against an independent oracle: the
product graph is built vertex by vertex from the adjacency rule and its
shortest-path metric is computed by a plain breadth-first search written
here, without touching the library's distance code.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexmetric.construct import (
    DisconnectedGraphError,
    Graph,
    complete_graph,
    cycle_graph,
    discrete_metric,
    fiber,
    graph_metric,
    gravitational,
    lexicographic,
    parse_edge_list,
    path_graph,
    squash,
)
from lexmetric.space import FiniteMetricSpace, diameter, nearness_point, validate

from test_space import metric_spaces


class TestGraphMetric:
    def test_k2(self):
        s = graph_metric(complete_graph(2))
        assert np.array_equal(s.dist, [[0, 1], [1, 0]])

    def test_p4_endpoints(self):
        s = graph_metric(path_graph(4))
        assert s.d("a", "d") == 3.0

    def test_c5_wraps_around(self):
        s = graph_metric(cycle_graph(5))
        assert s.d("v1", "v3") == 2.0
        assert s.d("v1", "v4") == 2.0

    def test_weighted_shortcut(self):
        # Going a-b-c (1 + 2) beats the direct a-c edge of weight 5.
        g = Graph(("a", "b", "c"), (("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 5.0)))
        assert graph_metric(g).d("a", "c") == 3.0

    def test_disconnected_names_pair(self):
        g = Graph(("a", "b", "c", "d"), (("a", "b", 1.0), ("c", "d", 1.0)))
        with pytest.raises(DisconnectedGraphError, match="'a' to 'c'"):
            graph_metric(g)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(("a", "b"), (("a", "a", 1.0),))

    def test_rejects_non_positive_weight(self):
        with pytest.raises(ValueError, match="non-positive"):
            Graph(("a", "b"), (("a", "b", 0.0),))

    def test_rejects_infinite_weight(self):
        with pytest.raises(ValueError, match="non-positive or non-finite weight inf"):
            Graph(("a", "b"), (("a", "b", float("inf")),))

    def test_unweighted_distances_are_integral(self):
        s = graph_metric(cycle_graph(6))
        assert np.array_equal(s.dist, np.round(s.dist))


class TestEdgeListFormat:
    def test_basic_parse(self):
        g = parse_edge_list("a b\nb c 2.5\n# comment\n\nc d\n")
        assert g.vertices == ("a", "b", "c", "d")
        assert ("b", "c", 2.5) in g.edges

    def test_node_line_declares_isolated(self):
        g = parse_edge_list("a b\nnode z\n")
        assert "z" in g.vertices
        with pytest.raises(DisconnectedGraphError):
            graph_metric(g)

    def test_error_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_edge_list("a b\na b c d\n", source="bad.edges")

    def test_bad_weight_names_line(self):
        with pytest.raises(ValueError, match="line 1.*not a number"):
            parse_edge_list("a b heavy\n")


class TestDiscreteMetric:
    def test_two_points(self):
        assert np.array_equal(discrete_metric(2).dist, [[0, 1], [1, 0]])

    def test_matches_complete_graph(self):
        assert np.array_equal(discrete_metric(3).dist, graph_metric(complete_graph(3)).dist)

    def test_five_points_all_ones(self):
        s = discrete_metric(5)
        off = s.dist[~np.eye(5, dtype=bool)]
        assert np.array_equal(off, np.ones(20))

    def test_too_small(self):
        with pytest.raises(ValueError):
            discrete_metric(1)


class TestGravitational:
    def test_caps_entrywise(self):
        s = FiniteMetricSpace(("y1", "y2"), [[0, 3], [3, 0]])
        assert gravitational(s, 1.0).d("y1", "y2") == 2.0

    def test_identity_when_cap_not_binding(self):
        s = graph_metric(path_graph(3))
        assert np.array_equal(gravitational(s, 1.0).dist, s.dist)

    def test_p4_capped_at_two(self):
        out = gravitational(graph_metric(path_graph(4)), 1.0)
        assert out.d("a", "d") == 2.0
        assert out.d("a", "c") == 2.0
        assert out.d("a", "b") == 1.0

    def test_requires_positive_constant(self):
        with pytest.raises(ValueError):
            gravitational(graph_metric(path_graph(3)), 0.0)

    @pytest.mark.parametrize("t", [float("inf"), float("nan")])
    def test_requires_finite_constant(self, t):
        # An infinite t would cap nothing and pass the table through unchanged.
        with pytest.raises(ValueError, match="t must be positive and finite"):
            gravitational(graph_metric(path_graph(3)), t)


class TestSquash:
    def test_values(self):
        s = FiniteMetricSpace(("y1", "y2", "y3"), [[0, 1, 3], [1, 0, 3], [3, 3, 0]])
        out = squash(1.0, s)
        assert out.d("y1", "y2") == 0.5
        assert out.d("y1", "y3") == 0.75

    def test_requires_positive_eta(self):
        with pytest.raises(ValueError):
            squash(-1.0, discrete_metric(3))

    def test_rejects_infinite_eta(self):
        # inf * d / (inf + d) is NaN for every entry.
        with pytest.raises(ValueError, match="eta"):
            squash(float("inf"), discrete_metric(3))


K2 = graph_metric(complete_graph(2))
HALF_PAIR = FiniteMetricSpace(("y1", "y2"), [[0, 0.5], [0.5, 0]])


class TestLexicographic:
    def test_k2_by_k2_is_k4(self):
        prod = lexicographic(K2, K2).space
        assert prod.n == 4
        expected = np.ones((4, 4)) - np.eye(4)
        assert np.array_equal(prod.dist, expected)

    def test_fiber_below_cap_keeps_distance(self):
        prod = lexicographic(K2, HALF_PAIR).space
        assert prod.d("v1|y1", "v1|y2") == 0.5
        assert prod.d("v1|y1", "v2|y2") == 1.0
        assert prod.d("v1|y1", "v2|y1") == 1.0

    def test_cap_is_per_point_not_global(self):
        # Base path with edge weights 1 and 3: nearness is 1 at a and b but 3
        # at c, so c's fiber caps at 6 and keeps the distance 5 that the
        # other fibers cap at 2.
        base = graph_metric(
            Graph(("a", "b", "c"), (("a", "b", 1.0), ("b", "c", 3.0)))
        )
        far_pair = FiniteMetricSpace(("y1", "y2"), [[0, 5], [5, 0]])
        prod = lexicographic(base, far_pair).space
        assert prod.d("a|y1", "a|y2") == 2.0
        assert prod.d("b|y1", "b|y2") == 2.0
        assert prod.d("c|y1", "c|y2") == 5.0

    def test_separator_is_reserved(self):
        bad = FiniteMetricSpace(("a|x", "b"), [[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="reserved"):
            lexicographic(bad, K2)

    @pytest.mark.parametrize("position", ["base", "second"])
    def test_rejects_non_finite_factor(self, position):
        # A NaN base used to fail the nearness check with a misleading message,
        # and a NaN second factor used to give a product with NaN entries.
        nan_pair = FiniteMetricSpace(("a", "b"), [[0, np.nan], [np.nan, 0]])
        factors = (nan_pair, K2) if position == "base" else (discrete_metric(2), nan_pair)
        with pytest.raises(ValueError, match="distance table has non-finite entries"):
            lexicographic(*factors)

    @pytest.mark.parametrize("position", ["base", "second factor"])
    def test_rejects_asymmetric_factor_naming_the_first_pair_in_label_order(self, position):
        # (c, a) comes first in point order and (a, b) in label order.
        skew = FiniteMetricSpace(("c", "a", "b"), [[0, 3, 2], [1, 0, 2], [2, 4, 0]])
        factors = (skew, K2) if position == "base" else (K2, skew)
        message = (
            f"the {position} is not symmetric at tolerance: "
            "d('a', 'b') = 2.0 but d('b', 'a') = 4.0"
        )
        with pytest.raises(ValueError) as raised:
            lexicographic(*factors)
        assert str(raised.value) == message

    def test_asymmetry_within_tolerance_is_accepted(self):
        near = FiniteMetricSpace(("a", "b"), [[0, 1.0], [1.0 + 1e-10, 0]])
        assert lexicographic(near, K2).space.d("b|v1", "a|v1") == 1.0

    def test_product_size(self):
        prod = lexicographic(graph_metric(path_graph(3)), graph_metric(path_graph(4)))
        assert prod.space.n == 12
        assert prod.base_points == ("a", "b", "c")


def bfs_metric(adjacency, vertices):
    dist = {}
    for src in vertices:
        level = {src: 0.0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adjacency[u]:
                    if v not in level:
                        level[v] = level[u] + 1.0
                        nxt.append(v)
            frontier = nxt
        for v in vertices:
            dist[(src, v)] = level[v]
    return dist


def product_graph_metric(g1: Graph, g2: Graph):
    """Oracle: build the product graph from its adjacency rule and run BFS.

    (u, v) and (x, y) are adjacent when ux is an edge of the first graph, or
    u equals x and vy is an edge of the second.
    """
    e1 = {frozenset((u, v)) for u, v, _w in g1.edges}
    e2 = {frozenset((u, v)) for u, v, _w in g2.edges}
    vertices = [(u, v) for u in g1.vertices for v in g2.vertices]
    adjacency = {p: [] for p in vertices}
    for p, q in itertools.combinations(vertices, 2):
        (u, v), (x, y) = p, q
        if frozenset((u, x)) in e1 or (u == x and frozenset((v, y)) in e2):
            adjacency[p].append(q)
            adjacency[q].append(p)
    return bfs_metric(adjacency, vertices)


@pytest.mark.parametrize(
    "g1,g2",
    [
        (path_graph(3), path_graph(3)),
        (cycle_graph(4), complete_graph(2)),
        (path_graph(4), complete_graph(3)),
        (complete_graph(2), path_graph(4)),
    ],
)
def test_matches_product_graph_shortest_paths(g1, g2):
    oracle = product_graph_metric(g1, g2)
    prod = lexicographic(graph_metric(g1), graph_metric(g2)).space
    for (u, v), (x, y) in itertools.product(
        itertools.product(g1.vertices, g2.vertices), repeat=2
    ):
        assert prod.d(f"{u}|{v}", f"{x}|{y}") == oracle[((u, v), (x, y))]


class TestFiber:
    def test_k2_fiber_is_k2(self):
        prod = lexicographic(K2, K2)
        fib = fiber(prod, "v1")
        assert fib.points == ("v1", "v2")
        assert np.array_equal(fib.dist, [[0, 1], [1, 0]])

    def test_fiber_equals_capped_second_factor(self):
        second = graph_metric(path_graph(4))
        prod = lexicographic(K2, second)
        fib = fiber(prod, "v2")
        assert np.array_equal(fib.dist, gravitational(second, 1.0).dist)
        assert fib.points == second.points

    def test_fiber_isometric_when_cap_inactive(self):
        prod = lexicographic(K2, HALF_PAIR)
        assert np.array_equal(fiber(prod, "v1").dist, HALF_PAIR.dist)

    def test_unknown_base_point(self):
        with pytest.raises(KeyError, match="unknown base"):
            fiber(lexicographic(K2, K2), "zz")

    def test_provenance_note(self):
        assert "v1" in fiber(lexicographic(K2, K2), "v1").name


# Properties over random valid spaces.


@settings(derandomize=True, max_examples=50)
@given(metric_spaces(max_points=5), st.floats(0.05, 5.0))
def test_gravitational_output_is_metric_and_idempotent(space, t):
    capped = gravitational(space, t)
    assert validate(capped).ok
    again = gravitational(capped, t)
    assert np.array_equal(again.dist, capped.dist)
    if 2 * t >= diameter(space):
        assert np.array_equal(capped.dist, space.dist)


@settings(derandomize=True, max_examples=30)
@given(metric_spaces(max_points=4), metric_spaces(max_points=4))
def test_lexicographic_output_is_metric(base, second):
    prod = lexicographic(base, second)
    assert validate(prod.space).ok
    assert prod.space.n == base.n * second.n


@settings(derandomize=True, max_examples=30)
@given(metric_spaces(max_points=6), metric_spaces(max_points=6))
def test_fiber_matches_gravitational_second_factor(base, second):
    prod = lexicographic(base, second)
    for x in base.points:
        expected = gravitational(second, nearness_point(base, x))
        assert np.array_equal(fiber(prod, x).dist, expected.dist)


@settings(derandomize=True, max_examples=50)
@given(metric_spaces(max_points=5), st.floats(0.05, 5.0))
def test_squash_preserves_all_comparisons(space, eta):
    out = squash(eta, space)
    assert validate(out).ok
    assert diameter(out) < eta
    flat = space.dist.flatten()
    flat_out = out.dist.flatten()
    for i in range(len(flat)):
        for j in range(len(flat)):
            assert (flat[i] < flat[j]) == (flat_out[i] < flat_out[j])
