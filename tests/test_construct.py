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
from lexmetric.resolving import metric_dimension
from lexmetric.space import FiniteMetricSpace, diameter, nearness_point, space_stats, validate
from lexmetric.theory import random_connected_graph, random_metric_space, verify_all
from lexmetric.twins import special_classes

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

    def test_repeated_edge_keeps_its_least_weight(self):
        edges = (("a", "b", 3.0), ("b", "c", 1.0), ("b", "a", 0.5), ("a", "b", 2.0))
        g = Graph(("a", "b", "c"), edges)
        assert np.array_equal(graph_metric(g).dist, [[0, 0.5, 1.5], [0.5, 0, 1], [1.5, 1, 0]])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate vertex labels"):
            Graph(("a", "b", "a"), (("a", "b", 1.0),))

    def test_two_tuple_edge_has_weight_one(self):
        assert Graph(("a", "b"), (("a", "b"),)).edges == (("a", "b", 1.0),)

    def test_rejects_undeclared_vertex(self):
        with pytest.raises(ValueError, match=r"edge \('a', 'c'\) uses an undeclared vertex"):
            Graph(("a", "b"), (("a", "c", 1.0),))

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

    @pytest.mark.parametrize(
        "build, n, message",
        [
            (path_graph, 1, "2..26"),
            (path_graph, 27, "2..26"),
            (cycle_graph, 2, "at least three"),
            (complete_graph, 1, "at least two"),
        ],
        ids=["path-1", "path-27", "cycle-2", "complete-1"],
    )
    def test_named_graphs_refuse_sizes_outside_their_range(self, build, n, message):
        with pytest.raises(ValueError, match=message):
            build(n)


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

    def test_malformed_node_line_names_line(self):
        with pytest.raises(ValueError, match="bad.edges, line 2: expected 'node NAME'"):
            parse_edge_list("a b\nnode x y\n", source="bad.edges")

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_table(self, bad):
        # Capping would turn inf into 2t, and validate would call the result a metric.
        s = FiniteMetricSpace(("a", "b", "c"), [[0, 1, 2], [1, 0, bad], [2, bad, 0]])
        with pytest.raises(ValueError, match="non-finite"):
            gravitational(s, 1.0)


class TestSquash:
    def test_values(self):
        s = FiniteMetricSpace(("y1", "y2", "y3"), [[0, 1, 3], [1, 0, 3], [3, 3, 0]])
        out = squash(1.0, s)
        assert out.d("y1", "y2") == 0.5
        assert out.d("y1", "y3") == 0.75

    def test_requires_positive_eta(self):
        with pytest.raises(ValueError):
            squash(-1.0, discrete_metric(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_table(self, bad):
        # Squashing would turn inf into eta, and validate would call the result a metric.
        s = FiniteMetricSpace(("a", "b", "c"), [[0, 1, 2], [1, 0, bad], [2, bad, 0]])
        with pytest.raises(ValueError, match="non-finite"):
            squash(1.0, s)

    def test_rejects_infinite_eta(self):
        # inf * d / (inf + d) is NaN for every entry.
        with pytest.raises(ValueError, match="eta"):
            squash(float("inf"), discrete_metric(3))

    @pytest.mark.parametrize("entry", [-1.0, -3.0])
    def test_rejects_an_entry_at_or_below_the_pole(self, entry):
        # The map has its pole at -eta and reverses order below it. The first pair
        # in label order is named, not the first in point order.
        s = FiniteMetricSpace(("c", "a", "b"), [[0, entry, 1], [entry, 0, entry], [1, entry, 0]])
        with pytest.raises(ValueError) as raised:
            squash(1.0, s)
        assert str(raised.value) == f"squash: d('a', 'b') = {entry} is at or below -eta = -1.0"

    def test_entries_above_the_pole_stay_finite_and_increasing(self):
        s = FiniteMetricSpace(("y1", "y2"), [[0, -0.999], [-0.5, 0]])
        out = squash(1.0, s)
        assert np.isfinite(out.dist).all()
        assert out.d("y1", "y2") < out.d("y2", "y1") < out.d("y1", "y1")

    def test_far_entries_are_finite_and_the_rest_keep_their_bytes(self):
        # 1e308 * eta overflows for eta above about 1.8; the other entries are computed
        # as before, byte for byte.
        d = np.array([[0, 1e308, 1.5], [1e308, 0, 1e308], [1.5, 1e308, 0]])
        s = FiniteMetricSpace(("a", "b", "c"), d)
        for eta in (0.5, 2.0, 1e300):
            out = squash(eta, s)
            assert np.isfinite(out.dist).all() and out.dist.max() <= eta
            near = d < 1e300
            assert out.dist[near].tobytes() == (eta * d[near] / (eta + d[near])).tobytes()
            assert out.d("a", "c") < out.d("a", "b")

    def test_rejects_an_entry_just_above_the_pole_whose_image_overflows(self):
        # eta*d overflows, and eta/(eta/d + 1) divides eta by one float spacing: -inf.
        d = -1e300 * (1 - 2**-52)
        s = FiniteMetricSpace(("c", "b", "a"), [[0, 1, d], [1, 0, d], [d, d, 0]])
        with pytest.raises(ValueError) as raised:
            squash(1e300, s)
        assert str(raised.value) == (
            "squash: d('a', 'b') = -9.999999999999999e+299 has no finite image at eta = 1e+300"
        )


def test_a_far_pair_is_built_and_verified_without_overflow():
    """A base pair at 1e308: twice its nearness is past the largest float, so the fiber
    cap is inf and caps nothing, and the squash report's eta * d overflows."""
    far = FiniteMetricSpace(("a", "b"), [[0, 1e308], [1e308, 0]])
    w3 = FiniteMetricSpace(("y1", "y2", "y3"), [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]])
    product = lexicographic(far, w3).space
    assert np.array_equal(product.dist[:3, :3], w3.dist)
    reports = verify_all(far, w3)
    assert all(report.passed or report.skipped for report in reports)


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

    def test_factor_labels_holding_the_separator_are_parenthesized(self):
        inner = lexicographic(K2, K2).space
        nested = lexicographic(inner, K2)
        assert nested.space.points[:2] == ("(v1|v1)|v1", "(v1|v1)|v2")
        assert nested.base_of["(v1|v2)|v1"] == "v1|v2"
        assert nested.fiber_of["(v1|v2)|v1"] == "v1"
        right = lexicographic(K2, inner)
        assert right.space.points[:2] == ("v1|(v1|v1)", "v1|(v1|v2)")
        assert right.fiber_of["v2|(v1|v2)"] == "v1|v2"
        assert fiber(nested, "v2|v1").points == K2.points

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

    def test_factor_labels_that_meet_in_one_product_label_are_rejected(self):
        # "(a" with "b)|c" and "a|(b" with "c)" both give "(a|(b)|c)".
        base = FiniteMetricSpace(("(a", "a|(b"), [[0, 1], [1, 0]])
        second = FiniteMetricSpace(("b)|c", "c)"), [[0, 1], [1, 0]])
        for _ in range(2):
            with pytest.raises(ValueError, match="duplicate point labels"):
                lexicographic(base, second)


NON_FINITE = "distance table has non-finite entries"
SKEW = "the {} is not symmetric at tolerance: d('a', 'b') = 2.0 but d('b', 'a') = 4.0"
INDISTINGUISHABLE = "points 'a' and 'b' are indistinguishable at tolerance"
ZERO_NEARNESS = "the base space must have positive nearness"
BAD_SPACES = {
    "non-finite": (
        (("a", "b"), [[0, np.nan], [np.nan, 0]]),
        [NON_FINITE] * 6,
    ),
    "asymmetric": (
        (("c", "a", "b"), [[0, 3, 2], [1, 0, 2], [2, 4, 0]]),
        [SKEW.format("base"), SKEW.format("second factor")] * 2 + [None, None],
    ),
    "zero-nearness": (
        (("a", "b", "c"), [[0, 0, 1], [0, 0, 1], [1, 1, 0]]),
        [ZERO_NEARNESS, None, ZERO_NEARNESS, INDISTINGUISHABLE, None, INDISTINGUISHABLE],
    ),
}


@pytest.mark.parametrize("kind", list(BAD_SPACES))
def test_a_failed_check_raises_the_same_error_on_every_call(kind):
    """One bad space object goes through every call twice, as the base, as the second
    factor and on its own: a call raises the same text each time, the text it raises
    on a fresh space, and a call that passes on a fresh space passes again."""
    (points, table), expected = BAD_SPACES[kind]
    bad = FiniteMetricSpace(points, table)
    calls = [
        lambda: lexicographic(bad, K2),
        lambda: lexicographic(K2, bad),
        lambda: special_classes(bad, K2),
        lambda: special_classes(K2, bad),
        lambda: space_stats(bad),
        lambda: metric_dimension(bad),
    ]
    for order in (range(6), reversed(range(6))):
        for k in order:
            if expected[k] is None:
                calls[k]()
                continue
            with pytest.raises(ValueError) as raised:
                calls[k]()
            assert str(raised.value) == expected[k]

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


@st.composite
def squash_inputs(draw):
    """An eta of any magnitude and a finite 2- or 3-point table above the pole at -eta,
    but for some entries about one float spacing below it, on it or a few spacings above."""
    eta = draw(st.floats(1e-300, 1e300) | st.sampled_from([1.0, 1e154, 1e300]))
    near_pole = st.integers(-1, 3).map(lambda k: -eta * (1 - k * 2**-52))
    entries = st.floats(-eta, allow_infinity=False, exclude_min=True) | near_pole
    n = draw(st.integers(2, 3))
    return eta, np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)


@settings(derandomize=True, max_examples=300)
@given(squash_inputs())
def test_squash_is_the_formula_or_raises_where_it_has_no_finite_image(inputs):
    eta, d = inputs
    with np.errstate(all="ignore"):
        expected = np.where(np.isinf(eta * d), eta / (eta / d + 1), eta * d / (eta + d))
    s = FiniteMetricSpace(("a", "b", "c")[: len(d)], d)
    if (d <= -eta).any() or not np.isfinite(expected).all():
        message = "at or below -eta" if (d <= -eta).any() else "has no finite image"
        with pytest.raises(ValueError, match=message):
            squash(eta, s)
        return
    out = squash(eta, s)
    assert out.dist.tobytes() == expected.tobytes()
    assert np.isfinite(out.dist).all()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 9))
def test_weighted_graph_metric_matches_scipy_and_is_exactly_symmetric(seed, n):
    """Random weights on a random connected graph, a repeated edge among them."""
    pytest.importorskip("scipy")
    from scipy.sparse.csgraph import shortest_path

    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng, n)
    edges = [(u, v, float(rng.uniform(0.05, 3.0))) for u, v, _ in graph.edges]
    edges.append((*edges[0][:2], float(rng.uniform(0.05, 3.0))))
    d = graph_metric(Graph(graph.vertices, tuple(edges))).dist
    weights = np.zeros((n, n))  # scipy reads 0 as no edge
    for u, v, w in edges:
        i, j = graph.vertices.index(u), graph.vertices.index(v)
        weights[i, j] = weights[j, i] = min(w, weights[i, j] or np.inf)
    assert np.allclose(d, shortest_path(weights, directed=False), rtol=0, atol=1e-12)
    assert np.array_equal(d, d.T)


@settings(derandomize=True, max_examples=30)
@given(metric_spaces(max_points=4), metric_spaces(max_points=4))
def test_lexicographic_output_is_metric(base, second):
    prod = lexicographic(base, second)
    assert validate(prod.space).ok
    assert prod.space.n == base.n * second.n


def lexicographic_table_oracle(first, second):
    """The per-block loop the whole-array product table replaced, kept as its oracle."""
    near = [nearness_point(first, x) for x in first.points]
    n_base, n_fib = first.n, second.n
    table = np.zeros((n_base * n_fib, n_base * n_fib))
    for i in range(n_base):
        block = slice(i * n_fib, (i + 1) * n_fib)
        table[block, block] = np.minimum(2.0 * near[i], second.dist)
        for j in range(i + 1, n_base):
            other = slice(j * n_fib, (j + 1) * n_fib)
            table[block, other] = first.dist[i, j]
            table[other, block] = first.dist[i, j]
    return table


def skewed_within_tolerance(rng, n, prefix, tolerance):
    """A random metric whose lower triangle is moved by up to the tolerance."""
    space = random_metric_space(rng, n, prefix=prefix)
    table = space.dist.copy()
    table[np.tril_indices(n, -1)] += rng.uniform(-tolerance, tolerance, size=n * (n - 1) // 2)
    return FiniteMetricSpace(space.points, table, tolerance)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 7),
    st.integers(2, 7),
    st.sampled_from([0.0, 1e-9, 1e-3]),
)
def test_lexicographic_table_matches_the_block_loop_oracle(seed, n_base, n_fib, tolerance):
    rng = np.random.default_rng(seed)
    base = skewed_within_tolerance(rng, n_base, "x", tolerance)
    second = skewed_within_tolerance(rng, n_fib, "y", tolerance)
    for first in (base, lexicographic(second, base).space):
        table = lexicographic(first, second).space.dist
        assert table.tobytes() == lexicographic_table_oracle(first, second).tobytes()


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


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_nested_products_are_associative(seed):
    """(A o B) o C and A o (B o C) have one table, point (x, y, z) by point (x, y, z)."""
    rng = np.random.default_rng(seed)
    a, b, c = (random_metric_space(rng, int(rng.integers(2, 4)), prefix=p) for p in "abc")
    left_inner, right_inner = lexicographic(a, b), lexicographic(b, c)
    left, right = lexicographic(left_inner.space, c), lexicographic(a, right_inner.space)

    def left_triple(label):
        xy = left.base_of[label]
        return left_inner.base_of[xy], left_inner.fiber_of[xy], left.fiber_of[label]

    def right_triple(label):
        yz = right.fiber_of[label]
        return right.base_of[label], right_inner.base_of[yz], right_inner.fiber_of[yz]

    at = {right_triple(p): i for i, p in enumerate(right.space.points)}
    order = [at[left_triple(p)] for p in left.space.points]
    assert sorted(order) == list(range(right.space.n))
    assert np.array_equal(left.space.dist, right.space.dist[np.ix_(order, order)])
    assert left.space.tolerance == right.space.tolerance


@st.composite
def relabeled_factors(draw):
    """A weighted or graph space of 2-5 points, its labels drawn from "xy|()" half the time."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        space = random_metric_space(rng, n)
    else:
        space = graph_metric(random_connected_graph(rng, n))
    labels = space.points
    if draw(st.booleans()):
        label = st.text("xy|()", min_size=1, max_size=3)
        labels = draw(st.lists(label, min_size=n, max_size=n, unique=True))
    return FiniteMetricSpace(labels, space.dist, draw(st.sampled_from([0.0, 1e-9, 1e-3])))


def assert_same_as_rebuilt(space):
    """``space`` equals its copy through the public constructor, down to the table bytes."""
    again = FiniteMetricSpace(space.points, space.dist, space.tolerance)
    assert space.points == again.points and space.tolerance == again.tolerance
    assert (space.dist.dtype, space.dist.shape) == (again.dist.dtype, again.dist.shape)
    assert space.dist.tobytes() == again.dist.tobytes()
    assert [space.index(p) for p in again.points] == list(range(again.n))
    assert not space.dist.flags.writeable
    assert validate(space) == validate(again)
    assert space._finite is again._finite


@settings(derandomize=True, max_examples=80, deadline=None)
@given(relabeled_factors(), relabeled_factors(), st.floats(0.05, 5.0))
def test_derived_spaces_equal_their_copies_through_the_constructor(base, second, t):
    """Products, capped and squashed spaces skip the constructor: each is the space
    it would build, and a product whose labels collide raises as it would."""
    def wrap(label):
        return f"({label})" if "|" in label else label

    labels = [f"{wrap(x)}|{wrap(y)}" for x in base.points for y in second.points]
    if len(set(labels)) < len(labels):
        with pytest.raises(ValueError, match="duplicate point labels"):
            lexicographic(base, second)
        return
    product = lexicographic(base, second).space
    assert product.points == tuple(labels)
    for space in (product, gravitational(second, t), squash(t, second), gravitational(product, t)):
        assert_same_as_rebuilt(space)
