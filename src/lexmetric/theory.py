"""Desk-scale verification of the product dimension identities.

Each check computes both sides independently: the left side by running the
exact solver on an actually constructed product, the right side from the
closed form. Verification never substitutes an upper bound for an exact
value; requests past the size guards raise instead of degrading.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .construct import (
    DisconnectedGraphError,
    Graph,
    graph_metric,
    gravitational,
    lexicographic,
    squash,
)
from .resolving import DEFAULT_ENUMERATION_CAP, metric_dimension
from .space import (
    DEFAULT_TOLERANCE,
    FiniteMetricSpace,
    diameter,
    nearness,
    nearness_point,
    slack,
)
from .twins import SpecialClassSet, is_twins_free, special_classes, twin_classes

DEFAULT_PRODUCT_CAP = 36


class SizeGuardExceeded(ValueError):
    """A verification was requested past a configured size guard."""


@dataclass(frozen=True)
class VerificationReport:
    """Both sides of one identity, with enough context to replay a failure.

    ``passed`` is None when the check did not apply (its precondition
    failed); such reports are skipped rather than failed. Serialization uses
    the key "pass" since that name is reserved in Python.
    """

    theorem: str
    lhs: float | int | None
    rhs: float | int | None
    passed: bool | None
    witnesses: dict
    skipped: bool = False

    def to_json_dict(self) -> dict:
        doc = {
            "theorem": self.theorem,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
            "witnesses": self.witnesses,
        }
        if self.skipped:
            doc["skipped"] = True
        return doc


def _table(space: FiniteMetricSpace) -> list[list[float]]:
    return [[float(x) for x in row] for row in space.dist]


def _guard_product(
    base: FiniteMetricSpace, second: FiniteMetricSpace, max_product_points: int
) -> None:
    total = base.n * second.n
    if total > max_product_points:
        raise SizeGuardExceeded(
            f"product has {total} points, past the max-product-points guard "
            f"of {max_product_points}"
        )


def fiber_dimensions(
    base: FiniteMetricSpace, second: FiniteMetricSpace
) -> dict[str, int]:
    """Exact dimension of each fiber: ``second`` capped per base point."""
    return {
        x: metric_dimension(gravitational(second, nearness_point(base, x))).dimension
        for x in base.points
    }


def _closed_form(
    base: FiniteMetricSpace, second: FiniteMetricSpace, max_enumeration_points: int
) -> tuple[dict[str, int], SpecialClassSet, int]:
    """The fiber dimensions, the special twin classes, and the closed form they give."""
    dims = fiber_dimensions(base, second)
    special = special_classes(base, second, max_enumeration_points)
    return dims, special, sum(dims.values()) + sum(len(c) - 1 for c in special.member_classes)


def formula_rhs(
    base: FiniteMetricSpace,
    second: FiniteMetricSpace,
    max_enumeration_points: int = DEFAULT_ENUMERATION_CAP,
) -> int:
    """Closed-form product dimension: fiber dimensions plus twin-class excess.

    Sum of the per-fiber dimensions, plus, for every special twin class, its
    size minus one.
    """
    return _closed_form(base, second, max_enumeration_points)[2]


def verify_dimension(
    base: FiniteMetricSpace,
    second: FiniteMetricSpace,
    max_product_points: int = DEFAULT_PRODUCT_CAP,
    max_enumeration_points: int = DEFAULT_ENUMERATION_CAP,
) -> VerificationReport:
    """Product dimension: exact solver on the built product vs the closed form."""
    _guard_product(base, second, max_product_points)
    product = lexicographic(base, second)
    solved = metric_dimension(product.space)
    dims, special, rhs = _closed_form(base, second, max_enumeration_points)
    witnesses = {
        "product_points": product.space.n,
        "product_basis": list(solved.basis),
        "fiber_dimensions": dims,
        "special_classes": [list(c) for c in special.member_classes],
        "twin_classes": [list(c) for c in twin_classes(base).classes],
        "base_points": list(base.points),
        "base_table": _table(base),
        "second_points": list(second.points),
        "second_table": _table(second),
    }
    return VerificationReport("dimension", solved.dimension, rhs, solved.dimension == rhs, witnesses)


def verify_diameter(
    base: FiniteMetricSpace, second: FiniteMetricSpace
) -> VerificationReport:
    """Product diameter vs max of base diameter and the slack-capped second diameter."""
    product = lexicographic(base, second)
    lhs = diameter(product.space)
    rhs = max(diameter(base), min(2.0 * slack(base), diameter(second)))
    tol = max(base.tolerance, second.tolerance)
    witnesses = {
        "base_diameter": diameter(base),
        "base_slack": slack(base),
        "second_diameter": diameter(second),
        "base_points": list(base.points),
        "base_table": _table(base),
        "second_points": list(second.points),
        "second_table": _table(second),
    }
    return VerificationReport("diameter", lhs, rhs, bool(abs(lhs - rhs) <= tol), witnesses)


def verify_corollaries(
    base: FiniteMetricSpace,
    second: FiniteMetricSpace,
    max_product_points: int = DEFAULT_PRODUCT_CAP,
) -> list[VerificationReport]:
    """The two special cases, each gated by its own applicability test.

    Twins-free base: the product dimension is the plain sum of fiber
    dimensions. Second factor with diameter below the base nearness: every
    cap is inactive, and the product dimension is the base size times the
    second factor's dimension. A case whose precondition fails is reported
    as skipped, never as failed.
    """
    reports: list[VerificationReport] = []

    if is_twins_free(base):
        _guard_product(base, second, max_product_points)
        product = lexicographic(base, second)
        lhs = metric_dimension(product.space).dimension
        dims = fiber_dimensions(base, second)
        rhs = sum(dims.values())
        witnesses = {"fiber_dimensions": dims, "product_points": product.space.n}
        reports.append(
            VerificationReport("corollary-twins-free", lhs, rhs, lhs == rhs, witnesses)
        )
    else:
        reports.append(
            VerificationReport(
                "corollary-twins-free",
                None,
                None,
                None,
                {"reason": "base space has a non-singleton twin class"},
                skipped=True,
            )
        )

    if diameter(second) < nearness(base):
        _guard_product(base, second, max_product_points)
        product = lexicographic(base, second)
        lhs = metric_dimension(product.space).dimension
        dim_second = metric_dimension(second).dimension
        rhs = base.n * dim_second
        witnesses = {
            "second_dimension": dim_second,
            "base_size": base.n,
            "second_diameter": diameter(second),
            "base_nearness": nearness(base),
        }
        reports.append(
            VerificationReport("corollary-small-diameter", lhs, rhs, lhs == rhs, witnesses)
        )
    else:
        reports.append(
            VerificationReport(
                "corollary-small-diameter",
                None,
                None,
                None,
                {
                    "reason": "second factor diameter is not below the base nearness",
                    "second_diameter": diameter(second),
                    "base_nearness": nearness(base),
                },
                skipped=True,
            )
        )
    return reports


def verify_squash(
    base: FiniteMetricSpace,
    second: FiniteMetricSpace,
    max_product_points: int = DEFAULT_PRODUCT_CAP,
) -> VerificationReport:
    """Squash route: product with the squashed factor vs size times dimension.

    Squashing the second factor at the base nearness bounds its diameter
    below that nearness without changing its dimension; the product with the
    squashed factor must then have dimension base size times second factor
    dimension. All three quantities are computed independently and must
    agree.
    """
    _guard_product(base, second, max_product_points)
    near = nearness(base)
    squashed = squash(near, second)
    product = lexicographic(base, squashed)
    lhs = metric_dimension(product.space).dimension
    dim_second = metric_dimension(second).dimension
    dim_squashed = metric_dimension(squashed).dimension
    rhs = base.n * dim_second
    passed = lhs == rhs and lhs == base.n * dim_squashed
    witnesses = {
        "base_nearness": near,
        "second_dimension": dim_second,
        "squashed_dimension": dim_squashed,
        "squashed_diameter": diameter(squashed),
        "squashed_diameter_below_nearness": bool(diameter(squashed) < near),
        "product_points": product.space.n,
    }
    return VerificationReport("squash", lhs, rhs, passed, witnesses)


def verify_all(
    base: FiniteMetricSpace,
    second: FiniteMetricSpace,
    max_product_points: int = DEFAULT_PRODUCT_CAP,
    max_enumeration_points: int = DEFAULT_ENUMERATION_CAP,
) -> list[VerificationReport]:
    """Run every check for one pair, in a fixed order."""
    reports = [
        verify_dimension(base, second, max_product_points, max_enumeration_points),
        verify_diameter(base, second),
    ]
    reports.extend(verify_corollaries(base, second, max_product_points))
    reports.append(verify_squash(base, second, max_product_points))
    return reports


def connected_graph_spaces(
    min_n: int = 2, max_n: int = 4, prefix: str = "v"
) -> list[FiniteMetricSpace]:
    """Shortest-path metrics of every connected graph on min_n..max_n labeled vertices.

    Enumerates all edge subsets and keeps the connected ones, so isomorphic
    copies on the same vertex count appear once per labeling.
    """
    spaces: list[FiniteMetricSpace] = []
    for n in range(min_n, max_n + 1):
        vertices = tuple(f"{prefix}{i + 1}" for i in range(n))
        pair_slots = list(itertools.combinations(range(n), 2))
        for bits in range(2 ** len(pair_slots)):
            edges = tuple(
                (vertices[i], vertices[j], 1.0)
                for k, (i, j) in enumerate(pair_slots)
                if bits >> k & 1
            )
            if len(edges) < n - 1:
                continue
            try:
                spaces.append(graph_metric(Graph(vertices, edges)))
            except DisconnectedGraphError:
                continue
    return spaces


def weighted_corpus_spaces() -> list[FiniteMetricSpace]:
    """Three small hand-built weighted tables used alongside the graph corpus."""
    half_pair = FiniteMetricSpace(("y1", "y2"), [[0.0, 0.5], [0.5, 0.0]])
    uneven_triple = FiniteMetricSpace(
        ("y1", "y2", "y3"),
        [[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]],
    )
    tight_triple = FiniteMetricSpace(
        ("y1", "y2", "y3"),
        [[0.0, 0.4, 0.4], [0.4, 0.0, 0.4], [0.4, 0.4, 0.0]],
    )
    return [half_pair, uneven_triple, tight_triple]


def random_connected_graph(
    rng: np.random.Generator, n: int, extra_edge_prob: float = 0.3, prefix: str = "v"
) -> Graph:
    """Random spanning tree plus independent extra edges; always connected."""
    if n < 2:
        raise ValueError("need at least two vertices")
    order = rng.permutation(n)
    present: set[tuple[int, int]] = set()
    for i in range(1, n):
        a = int(order[i])
        b = int(order[int(rng.integers(0, i))])
        present.add((min(a, b), max(a, b)))
    for i, j in itertools.combinations(range(n), 2):
        if (i, j) not in present and rng.random() < extra_edge_prob:
            present.add((i, j))
    vertices = tuple(f"{prefix}{i + 1}" for i in range(n))
    edges = tuple((vertices[i], vertices[j], 1.0) for i, j in sorted(present))
    return Graph(vertices, edges)


def random_metric_space(
    rng: np.random.Generator,
    n: int,
    low: float = 0.5,
    high: float = 2.0,
    prefix: str = "y",
    tolerance: float = DEFAULT_TOLERANCE,
) -> FiniteMetricSpace:
    """Random weighted metric: symmetric draws projected by shortest-path closure.

    The closure enforces the triangle inequality exactly; entries stay within
    [low, high], so positivity holds as long as low is above the tolerance.
    """
    if n < 2:
        raise ValueError("need at least two points")
    draws = rng.uniform(low, high, size=(n, n))
    table = np.minimum(draws, draws.T)
    np.fill_diagonal(table, 0.0)
    for k in range(n):
        table = np.minimum(table, table[:, k : k + 1] + table[k : k + 1, :])
    labels = tuple(f"{prefix}{i + 1}" for i in range(n))
    return FiniteMetricSpace(labels, table, tolerance)


def random_pairs(
    seed: int, count: int, max_product_points: int = DEFAULT_PRODUCT_CAP
) -> list[tuple[FiniteMetricSpace, FiniteMetricSpace]]:
    """Seeded random weighted pairs whose products stay inside the size guard.

    Each factor has 2 to 6 points, so the guard must allow at least 2x2.
    """
    if max_product_points < 4:
        raise ValueError(
            f"random pairs need a max-product-points guard of at least 4, "
            f"got {max_product_points}"
        )
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        n_base = int(rng.integers(2, min(6, max_product_points // 2) + 1))
        n_second = int(rng.integers(2, min(6, max_product_points // n_base) + 1))
        base = random_metric_space(rng, n_base, prefix="x")
        second = random_metric_space(rng, n_second, prefix="y")
        pairs.append((base, second))
    return pairs
