"""Space representation, axiom validation, and scalar statistics.

Expected values in this file are frozen from hand enumeration over the
stated tables (the tables are small enough to check every pair directly).
"""

import dataclasses
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexmetric import space as space_module
from lexmetric.construct import lexicographic
from lexmetric.space import (
    FiniteMetricSpace,
    Violation,
    ValidationReport,
    ball,
    diameter,
    json_text,
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
from lexmetric.theory import random_metric_space

P3_TABLE = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
K2_TABLE = [[0, 1], [1, 0]]
# JSON values that are not numbers; a bool and a numeric string included.
NOT_NUMBERS = {
    "null": None, "list": [1e-9], "object": {"value": 1e-9}, "bool": True, "string": "1e-6"
}
NOT_LABELS = {"bool": True, "null": None, "int": 1, "list": ["b"]}


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

    @pytest.mark.parametrize("huge", [10**400, -(10**400)])
    def test_rejects_an_entry_too_large_for_a_float(self, huge):
        with pytest.raises(ValueError, match="entry too large for a float"):
            FiniteMetricSpace(("a", "b"), [[0, huge], [huge, 0]])

    def test_rejects_infinite_tolerance(self):
        # An infinite tolerance would make every pair of points indistinguishable.
        with pytest.raises(ValueError, match="tolerance"):
            FiniteMetricSpace(("a", "b"), [[0, 1], [1, 0]], tolerance=float("inf"))

    @pytest.mark.parametrize(
        "bad, message",
        [
            *[(bad, '"tolerance" must be a number') for bad in NOT_NUMBERS.values()],
            (10**400, '"tolerance" is too large for a float'),
        ],
        ids=[*NOT_NUMBERS, "huge"],
    )
    def test_rejects_a_tolerance_that_is_not_a_float(self, bad, message):
        with pytest.raises(ValueError, match=message):
            FiniteMetricSpace(("a", "b"), [[0, 1], [1, 0]], tolerance=bad)

    @pytest.mark.parametrize("given, kept", [(0, 0.0), (np.float32(0.5), 0.5)])
    def test_keeps_a_real_tolerance_as_a_float(self, given, kept):
        space = FiniteMetricSpace(("a", "b"), [[0, 1], [1, 0]], tolerance=given)
        assert type(space.tolerance) is float and space.tolerance == kept

    def test_table_is_read_only(self):
        s = p3()
        with pytest.raises(ValueError):
            s.dist[0, 1] = 7.0

    def test_unknown_point(self):
        with pytest.raises(KeyError, match="unknown point"):
            p3().d("a", "z")

    def test_repr_shows_the_size_and_labels(self):
        assert repr(p3()) == "FiniteMetricSpace(n=3, points=['a', 'b', 'c'])"

    def test_a_space_is_its_labels_table_and_tolerance(self):
        assert [f.name for f in dataclasses.fields(FiniteMetricSpace)] == [
            "points", "dist", "tolerance",
        ]
        with pytest.raises(TypeError):
            FiniteMetricSpace(("a", "b"), [[0, 1], [1, 0]], name="k2.json")


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "statistic",
        [
            space_stats,
            nearness,
            slack,
            diameter,
            # Point a's own row is finite: the whole table is refused all the same.
            pytest.param(lambda s: nearness_point(s, "a"), id="nearness_point"),
        ],
    )
    def test_non_finite_table_raises(self, statistic, bad):
        s = FiniteMetricSpace(("a", "b", "c"), [[0, 1, 2], [1, 0, bad], [2, bad, 0]])
        with pytest.raises(ValueError, match="non-finite"):
            statistic(s)


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

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([["a", "b"], K2_TABLE], "JSON object"),
            # A string would otherwise be split into one label per character.
            ({"points": "ab", "d": K2_TABLE}, '"points" must be a list'),
            # str would otherwise spell each as a label: "True", "None", "1", "['b']".
            *[
                (dict(points=["a", bad], d=K2_TABLE), '"points" must be a list of labels')
                for bad in NOT_LABELS.values()
            ],
            *[
                (dict(points=["a", "b"], d=K2_TABLE, tolerance=bad), '"tolerance" must be a number')
                for bad in NOT_NUMBERS.values()
            ],
            # numpy alone would read true and "1e-6" as numbers, and null as NaN.
            *[
                (dict(points=["a", "b"], d=[[0, bad], [bad, 0]]), '"d" entries must be numbers')
                for bad in NOT_NUMBERS.values()
            ],
        ],
        ids=[
            "array",
            "points-string",
            *(f"points-{kind}" for kind in NOT_LABELS),
            *(f"tolerance-{kind}" for kind in NOT_NUMBERS),
            *(f"d-{kind}" for kind in NOT_NUMBERS),
        ],
    )
    def test_rejects_a_malformed_document(self, doc, message):
        with pytest.raises(ValueError, match=message):
            space_from_json(doc)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("tolerance", 10**400, '"tolerance" is too large for a float'),
            ("tolerance", -(10**400), '"tolerance" is too large for a float'),
            ("d", [[0, 10**400], [10**400, 0]], "entry too large for a float"),
        ],
    )
    def test_rejects_an_integer_too_large_for_a_float(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            space_from_json({"points": ["a", "b"], "d": K2_TABLE, key: value})

    def test_load_names_file_on_a_bad_document(self, tmp_path):
        path = tmp_path / "keys.json"
        path.write_text('{"points": ["a", "b"]}')
        with pytest.raises(ValueError, match=r"keys\.json: metric document is missing"):
            load_space(str(path))

    def test_load_names_file_on_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="broken.json"):
            load_space(str(path))

    def test_dict_form_is_json_serializable(self):
        json.dumps(space_to_json(p3()))

    def test_save_writes_the_indented_sorted_document(self, tmp_path):
        table = [[0, 0.1, 2], [0.1, 0, 1 / 3], [2, 1 / 3, 0]]
        s = FiniteMetricSpace(("é", "a\"b", "c\\d"), table)
        path = tmp_path / "s.json"
        save_space(s, str(path))
        expected = json.dumps(space_to_json(s), indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("ascii")
        text = path.read_text()
        assert text.startswith('{\n  "d": [\n    [\n      0.0,\n      0.1,\n      2.0\n    ],')
        points = '  "points": [\n    "\\u00e9",\n    "a\\"b",\n    "c\\\\d"\n  ],\n'
        assert text.endswith(points + '  "tolerance": 1e-09\n}\n')

    @pytest.mark.parametrize(
        "value",
        [{1: "a"}, {None: 1}, {"a": {2.5: 1}}, {"a": 1, 3: 2}, {1, 2}, np.int64(3), b"x", object()],
        ids=["int-key", "none-key", "nested-key", "mixed-keys", "set", "numpy-int", "bytes", "object"],
    )
    def test_writer_rejects_what_it_cannot_write(self, value):
        with pytest.raises(TypeError):
            json_text(value)


_AWKWARD_CHARS = st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028", "\U0001f600"]
)
_JSON_STRINGS = st.text(st.characters() | _AWKWARD_CHARS, max_size=8)
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**64, -(2**64) - 1, 3**90])
    | st.floats()
    | st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, 1e308, -1e308])
    | _JSON_STRINGS
)
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_JSON_STRINGS, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_TREES)
def test_writer_matches_the_stdlib_indent_encoder(doc):
    assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


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


# The per-entry loops the whole-table passes replaced, kept as their oracles.


def validate_oracle(space: FiniteMetricSpace) -> ValidationReport:
    d = space.dist
    pts = space.points
    tau = space.tolerance
    n = space.n
    out: list[Violation] = []
    for i in range(n):
        for j in range(n):
            if not np.isfinite(d[i, j]):
                out.append(Violation("finiteness", (pts[i], pts[j]), float(d[i, j]), 0.0))
    if out:
        return ValidationReport(ok=False, violations=tuple(out))
    for i in range(n):
        if abs(d[i, i]) > tau:
            out.append(Violation("zero-diagonal", (pts[i],), float(d[i, i]), 0.0))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(d[i, j] - d[j, i]) > tau:
                out.append(
                    Violation("symmetry", (pts[i], pts[j]), float(d[i, j]), float(d[j, i]))
                )
            if d[i, j] <= tau or d[j, i] <= tau:
                out.append(
                    Violation(
                        "positivity", (pts[i], pts[j]), float(min(d[i, j], d[j, i])), 0.0
                    )
                )
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k == i or k == j:
                    continue
                if d[i, j] > d[i, k] + d[k, j] + tau:
                    out.append(
                        Violation(
                            "triangle",
                            (pts[i], pts[k], pts[j]),
                            float(d[i, j]),
                            float(d[i, k] + d[k, j]),
                        )
                    )
    return ValidationReport(ok=not out, violations=tuple(out))


def nearness_oracle(space: FiniteMetricSpace, x: str) -> float:
    i = space.index(x)
    return float(np.delete(space.dist[i], i).min())


# Entries with exact ties, signed zeros, negatives and non-finite values, so
# every comparison meets its boundary; asymmetric by construction.
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0]),
    st.floats(-1.0, 10.0),
)
NON_FINITE = st.one_of(ENTRIES, st.sampled_from([np.nan, np.inf, -np.inf]))


@st.composite
def raw_spaces(draw, max_points=9):
    """Arbitrary tables, broken or not, at tolerance 0 or above."""
    n = draw(st.integers(2, max_points))
    entries = draw(st.sampled_from([ENTRIES, NON_FINITE]))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    tolerance = draw(st.sampled_from([0.0, 1e-9, 0.5]))
    return FiniteMetricSpace(tuple(f"p{i}" for i in range(n)), rows, tolerance=tolerance)


# Row-block budgets: one row per block, blocks of several rows ending
# mid-table, and the whole table in one block.
BLOCK_BUDGETS = st.sampled_from([1, 100, 200, space_module._BLOCK_ENTRIES])


def row_blocks_of(budget: int):
    return mock.patch.object(space_module, "_BLOCK_ENTRIES", budget)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(raw_spaces(), BLOCK_BUDGETS)
def test_validate_matches_the_loop_oracle(space, budget):
    with row_blocks_of(budget):
        got = validate(space)
    # repr, because NaN != NaN in the reported values.
    assert repr(got) == repr(validate_oracle(space))


def test_validate_matches_the_loop_oracle_on_a_70_point_broken_table():
    rng = np.random.default_rng(70)
    table = rng.choice([0.0, 0.25, 1.0, 2.0, 3.5], size=(70, 70))
    space = FiniteMetricSpace(tuple(f"p{i}" for i in range(70)), table, tolerance=0.0)
    got = validate(space)
    assert len(got.violations) > 10_000
    assert repr(got) == repr(validate_oracle(space))


def test_seeded_144_point_product_validates():
    rng = np.random.default_rng(144)
    product = lexicographic(random_metric_space(rng, 12), random_metric_space(rng, 12))
    assert product.space.n == 144
    assert validate(product.space).ok


def validate_with_peak(space):
    """``validate(space)`` and the peak memory tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        report = validate(space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return report, peak


def test_validate_memory_stays_bounded_at_400_points():
    report, peak = validate_with_peak(line_space(list(range(400))))
    assert report.ok
    assert peak < 16 * 2**20


def test_validate_memory_stays_bounded_on_a_broken_400_point_table():
    # A hub at 0.5 from every point, all other points 2 apart: every pair
    # off the hub breaks the triangle through the hub and through nothing else.
    table = np.full((400, 400), 2.0)
    table[0, :] = table[:, 0] = 0.5
    np.fill_diagonal(table, 0.0)
    report, peak = validate_with_peak(FiniteMetricSpace(tuple(f"p{i}" for i in range(400)), table))
    assert len(report.violations) == 399 * 398 // 2 == 79_401
    assert report.violations[0] == Violation("triangle", ("p1", "p0", "p2"), 2.0, 1.0)
    assert report.violations[-1] == Violation("triangle", ("p398", "p0", "p399"), 2.0, 1.0)
    # The report itself holds about 15 MB; the pass adds a few row blocks.
    assert peak < 18 * 2**20


@settings(derandomize=True, max_examples=100, deadline=None)
@given(raw_spaces())
def test_nearness_matches_the_loop_oracle(space):
    expected = [nearness_oracle(space, x) for x in space.points]
    # NaN-aware; a zero nearness may come back as 0.0 or -0.0 from either
    # side, as numpy's min leaves the sign of a zero unspecified.
    assert np.array_equal(space._nearness, expected, equal_nan=True)
    if not np.isfinite(space.dist).all():
        with pytest.raises(ValueError, match="non-finite"):
            nearness_point(space, space.points[0])
        return
    assert [nearness_point(space, x) for x in space.points] == expected
    stats = space_stats(space)
    assert list(stats.nearness_per_point.values()) == expected
    assert (stats.nearness, stats.slack) == (min(expected), max(expected))
    assert (nearness(space), slack(space)) == (min(expected), max(expected))


def test_validate_sums_past_the_largest_float_without_warning():
    """A far pair is a metric; with a broken triangle beside far entries, the sums through
    the far point overflow to inf and only the real witness is reported."""
    assert validate(FiniteMetricSpace(("a", "b"), [[0, 1e308], [1e308, 0]])).ok
    far = 1e308
    table = [[0, 10, 1, far], [10, 0, 1, far], [1, 1, 0, far], [far, far, far, 0]]
    report = validate(FiniteMetricSpace(("a", "b", "c", "d"), table))
    assert report.violations == (Violation("triangle", ("a", "c", "b"), 10.0, 2.0),)
