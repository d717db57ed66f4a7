"""Space representation, axiom validation, and scalar statistics.

Expected values in this file are frozen from hand enumeration over the
stated tables (the tables are small enough to check every pair directly).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexmetric.space import (
    FiniteMetricSpace,
    ball,
    diameter,
    load_space,
    nearness,
    nearness_point,
    save_space,
    slack,
    space_from_json,
    space_stats,
    space_to_json,
    validate,
)

P3_TABLE = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


def p3():
    return FiniteMetricSpace(("a", "b", "c"), P3_TABLE)


def line_space(values, labels=None):
    labels = labels or [str(v) for v in values]
    table = [[abs(x - y) for y in values] for x in values]
    return FiniteMetricSpace(tuple(labels), table)


class TestConstruction:
    def test_smallest_metric(self):
        s = FiniteMetricSpace(("a", "b"), [[0, 1], [1, 0]])
        assert validate(s).ok

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least two points"):
            FiniteMetricSpace(("a",), [[0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            FiniteMetricSpace(("a", "b"), [[0, 1, 2], [1, 0, 2]])

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="3 points"):
            FiniteMetricSpace(("a", "b", "c"), [[0, 1], [1, 0]])

    def test_rejects_ragged_table(self):
        with pytest.raises(ValueError, match="rectangular"):
            FiniteMetricSpace(("a", "b"), [[0, 1], [1]])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            FiniteMetricSpace(("a", "a"), [[0, 1], [1, 0]])

    def test_rejects_infinite_tolerance(self):
        # An infinite tolerance would make every pair of points indistinguishable.
        with pytest.raises(ValueError, match="tolerance"):
            FiniteMetricSpace(("a", "b"), [[0, 1], [1, 0]], tolerance=float("inf"))

    def test_table_is_read_only(self):
        s = p3()
        with pytest.raises(ValueError):
            s.dist[0, 1] = 7.0

    def test_unknown_point(self):
        with pytest.raises(KeyError, match="unknown point"):
            p3().d("a", "z")


class TestValidate:
    def test_symmetry_violation_listed(self):
        s = FiniteMetricSpace(("a", "b"), [[0, 1], [2, 0]])
        rep = validate(s)
        assert not rep.ok
        assert any(v.axiom == "symmetry" and v.where == ("a", "b") for v in rep.violations)

    def test_collinear_reals_valid(self):
        assert validate(line_space([0, 1, 5])).ok

    def test_triangle_violation_after_stretch(self):
        # d(0,5) raised to 10 breaks the triangle through 1: 10 > 1 + 4.
        s = FiniteMetricSpace(("0", "1", "5"), [[0, 1, 10], [1, 0, 4], [10, 4, 0]])
        rep = validate(s)
        assert not rep.ok
        hits = [v for v in rep.violations if v.axiom == "triangle"]
        assert hits == [("triangle", ("0", "1", "5"), 10.0, 5.0)]

    def test_reports_all_violations(self):
        s = FiniteMetricSpace(
            ("a", "b", "c"), [[0, 1, 0], [2, 0, 1], [0, 1, 0.5]]
        )
        rep = validate(s)
        axioms = {v.axiom for v in rep.violations}
        assert {"symmetry", "positivity", "zero-diagonal"} <= axioms

    def test_non_finite_entries_flagged(self):
        s = FiniteMetricSpace(("a", "b"), [[0, np.inf], [np.inf, 0]])
        rep = validate(s)
        assert not rep.ok
        assert all(v.axiom == "finiteness" for v in rep.violations)

    def test_tolerance_absorbs_noise(self):
        s = FiniteMetricSpace(("a", "b"), [[0, 1 + 1e-12], [1, 0]], tolerance=1e-9)
        assert validate(s).ok


class TestNearness:
    def test_graph_metric_vertex(self):
        assert nearness_point(p3(), "b") == 1.0

    def test_discrete_metric_point(self):
        table = np.ones((4, 4)) - np.eye(4)
        s = FiniteMetricSpace(("p1", "p2", "p3", "p4"), table)
        assert all(nearness_point(s, p) == 1.0 for p in s.points)

    def test_harmonic_truncation(self):
        # Gaps from 1/4: |1/4 - 1/3| = 1/12 and |1/4 - 1/5| = 1/20; the min is 1/20.
        s = line_space([1, 1 / 2, 1 / 3, 1 / 4, 1 / 5])
        assert nearness_point(s, "0.25") == pytest.approx(1 / 20)

    def test_unknown_point(self):
        with pytest.raises(KeyError):
            nearness_point(p3(), "zz")


class TestScalarStats:
    def test_path_p3(self):
        s = p3()
        assert (nearness(s), slack(s), diameter(s)) == (1.0, 1.0, 2.0)

    def test_shifted_harmonic_truncation(self):
        # Points 2.5, 3, 10/3, 3.5. The six gaps are 1/2, 5/6, 1, 1/3, 1/2, 1/6,
        # so the min pairwise gap is 1/6, the largest per-point nearness is the
        # 1/2 at the point 2.5, and the spread is 1.
        s = line_space([2.5, 3.0, 10 / 3, 3.5], labels=["u1", "u2", "u3", "u4"])
        assert nearness(s) == pytest.approx(1 / 6)
        assert slack(s) == pytest.approx(1 / 2)
        assert diameter(s) == pytest.approx(1.0)

    def test_discrete_four_points(self):
        table = np.ones((4, 4)) - np.eye(4)
        s = FiniteMetricSpace(("p1", "p2", "p3", "p4"), table)
        assert (nearness(s), slack(s), diameter(s)) == (1.0, 1.0, 1.0)

    def test_stats_consistency(self):
        st_ = space_stats(p3())
        assert st_.nearness == min(st_.nearness_per_point.values())
        assert st_.slack == max(st_.nearness_per_point.values())
        assert 0 < st_.nearness <= st_.slack <= st_.diameter


class TestBall:
    def test_center_radius_covering_all(self):
        assert ball(p3(), "b", 1.5) == {"a", "b", "c"}

    def test_open_ball_excludes_boundary(self):
        assert ball(p3(), "a", 1.0) == {"a"}

    def test_capped_space_same_ball(self):
        # Capping at 2t=2 changes nothing inside radius 1 < 2t.
        capped = FiniteMetricSpace(
            ("a", "b", "c"), np.minimum(np.array(P3_TABLE, dtype=float), 2.0)
        )
        assert ball(capped, "a", 1.0) == ball(p3(), "a", 1.0) == {"a"}

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            ball(p3(), "a", 0.0)


class TestJsonFormat:
    def test_round_trip(self, tmp_path):
        s = line_space([0, 1, 5])
        path = tmp_path / "line.json"
        save_space(s, str(path))
        back = load_space(str(path))
        assert back.points == s.points
        assert np.array_equal(back.dist, s.dist)
        assert back.tolerance == s.tolerance

    def test_tolerance_optional(self):
        s = space_from_json({"points": ["a", "b"], "d": [[0, 1], [1, 0]]})
        assert s.tolerance == 1e-9

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            space_from_json({"points": ["a", "b"], "d": [[0, 1, 2], [1, 0, 3]]})

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing"):
            space_from_json({"points": ["a", "b"]})

    def test_load_names_file_on_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="broken.json"):
            load_space(str(path))

    def test_dict_form_is_json_serializable(self):
        json.dumps(space_to_json(p3()))


def closure_space(draws: list[list[float]]) -> FiniteMetricSpace:
    """Project a symmetric positive table to a metric by shortest-path closure."""
    n = len(draws)
    table = np.array(draws, dtype=float)
    table = np.minimum(table, table.T)
    np.fill_diagonal(table, 0.0)
    for k in range(n):
        table = np.minimum(table, table[:, k : k + 1] + table[k : k + 1, :])
    return FiniteMetricSpace(tuple(f"p{i}" for i in range(n)), table)


@st.composite
def metric_spaces(draw, max_points=6):
    n = draw(st.integers(2, max_points))
    entries = st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False)
    rows = draw(
        st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    return closure_space(rows)


@settings(derandomize=True, max_examples=60)
@given(metric_spaces())
def test_closure_spaces_are_valid(space):
    assert validate(space).ok


@settings(derandomize=True, max_examples=60)
@given(metric_spaces())
def test_nearness_slack_diameter_chain(space):
    low, high, spread = nearness(space), slack(space), diameter(space)
    assert 0 < low <= high <= spread
    for p in space.points:
        assert low <= nearness_point(space, p) <= high


@settings(derandomize=True, max_examples=60)
@given(metric_spaces(), st.floats(0.05, 5.0), st.floats(0.01, 0.99))
def test_balls_below_the_cap_are_unchanged(space, t, frac):
    """Capping at 2t moves no point across a sphere of radius below 2t."""
    radius = 2.0 * t * frac
    capped = FiniteMetricSpace(space.points, np.minimum(space.dist, 2.0 * t))
    for x in space.points:
        assert ball(space, x, radius) == ball(capped, x, radius)
