"""Desk-scale verification of the product dimension identities.

Each check computes both sides independently: the left side by running the
exact solver on an actually constructed product, the right side from the
closed form. Verification never substitutes an upper bound for an exact
value; requests past the size guards raise instead of degrading.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .construct import (
    DisconnectedGraphError,
    Graph,
    ProductSpace,
    _require_factors,
    _shortest_paths,
    graph_metric,
    gravitational,
    lexicographic,
    squash,
)
from .resolving import ResolveResult, _table_solve, metric_dimension
from .space import (
    DEFAULT_TOLERANCE,
    FiniteMetricSpace,
    SpaceStats,
    _row_blocks,
    _trusted_space,
    diameter,
    space_stats,
)
from .twins import SpecialClassSet, TwinPartition, _failing_basis, twin_classes

DEFAULT_PRODUCT_CAP = 36


class SizeGuardExceeded(ValueError):
    """A verification was requested past a configured size guard."""


@dataclass(frozen=True)
class VerificationReport:
    """Both sides of one identity, and the values each side was worked out from.

    ``passed`` is None when the check's precondition failed: the report is skipped, not
    failed, and serializes with "pass" null ("pass" is reserved in Python). It holds no
    input: the CLI's document states each pair's two spaces once, beside its reports.
    """

    theorem: str
    lhs: float | int | None
    rhs: float | int | None
    passed: bool | None
    witnesses: dict

    @property
    def skipped(self) -> bool:
        return self.passed is None

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
            "witnesses": self.witnesses,
        }


# Each factor object's record of what _Pair has worked out about it, the only store of
# these facts. As a base: its statistics and, per tolerance, its twin partition. As a
# second factor: its diameter; per effective cap min(2 t, diameter) and tolerance, its
# fiber with the fiber's minimal family and dimension, the uncapped entry giving its own
# dimension; per cap, gap and tolerance, the special-class answer; and per nearness and
# tolerance, its squash with the squash report's facts. No value refers to its factor,
# so a record goes with its factor, and no value is handed to a caller.
_FACTORS: weakref.WeakKeyDictionary[FiniteMetricSpace, dict] = weakref.WeakKeyDictionary()


def _kept(record: dict, key, compute):
    """``record[key]``, worked out by ``compute()`` on first use; nothing is kept if it raises.

    Two threads may both work it out; ``setdefault`` keeps one, and both return it.
    """
    return record[key] if key in record else record.setdefault(key, compute())


@dataclass(eq=False)
class _Pair:
    """One verified pair: each object the reports share is computed once.

    Holds the product and its solve, each worked out on first use, so a report that
    reads no twin partition never forms one. What depends on one factor alone is kept
    in that factor's record in ``_FACTORS``, so a pair whose factors were seen before
    builds and solves only its two products. One fiber is built per distinct effective
    cap. Every fact is compared at the product's tolerance ``tol``, the larger of the
    two factors': the base's twins, each fiber, the squashed factor and every
    distance test. A pair of factors that :func:`lexicographic` rejects is refused
    here, whichever report is asked for.
    """

    base: FiniteMetricSpace
    second: FiniteMetricSpace
    max_product_points: int = DEFAULT_PRODUCT_CAP

    def __post_init__(self) -> None:
        _require_factors(self.base, self.second)
        self.left, self.right = (_FACTORS.setdefault(f, {}) for f in (self.base, self.second))
        self.tol = max(self.base.tolerance, self.second.tolerance)

    def _at_tol(self, space: FiniteMetricSpace) -> FiniteMetricSpace:
        """``space`` compared at the product's tolerance: itself when it already is."""
        if space.tolerance == self.tol:
            return space
        return _trusted_space(space.points, space._index, space.dist, self.tol)

    def _guard(self) -> None:
        total = self.base.n * self.second.n
        if total > self.max_product_points:
            raise SizeGuardExceeded(
                f"product has {total} points, past the max-product-points guard "
                f"of {self.max_product_points}"
            )

    @cached_property
    def stats(self) -> SpaceStats:
        return _kept(self.left, "stats", lambda: space_stats(self.base))

    @cached_property
    def partition(self) -> TwinPartition:
        return _kept(self.left, ("twins", self.tol), lambda: twin_classes(self._at_tol(self.base)))

    @cached_property
    def second_diameter(self) -> float:
        return _kept(self.right, "diameter", lambda: diameter(self.second))

    @cached_property
    def second_dimension(self) -> int:
        # Positive, as the base nearness is, and at least the diameter: a t that caps nothing.
        return self.fiber(max(self.second_diameter, self.stats.nearness))[2]

    @cached_property
    def product(self) -> ProductSpace:
        self._guard()
        return lexicographic(self.base, self.second)

    @cached_property
    def product_solve(self) -> ResolveResult:
        return metric_dimension(self.product.space)

    def fiber(self, t: float) -> tuple[FiniteMetricSpace, tuple, int]:
        """The second factor capped at ``2 t``, its minimal family and its dimension.

        Kept under the effective cap ``min(2 t, diameter)`` and the tolerance, so caps at or
        past the diameter share one entry. It is built from the first ``t`` to reach it, as
        the cap itself may be no valid ``t``."""
        def build() -> tuple[FiniteMetricSpace, tuple, int]:
            fib = gravitational(self._at_tol(self.second), t)
            return (fib, *_table_solve(fib))

        return _kept(self.right, ("fiber", min(2.0 * t, self.second_diameter), self.tol), build)

    @cached_property
    def fiber_dimensions(self) -> dict[str, int]:
        near = self.stats.nearness_per_point
        dims = {t: self.fiber(t)[2] for t in set(near.values())}
        return {x: dims[t] for x, t in near.items()}

    @cached_property
    def special(self) -> SpecialClassSet:
        """The twin classes of :func:`special_classes`, each member checked in full rather
        than one representative; members of one nearness and gap share one answer."""
        near, tol, partition = self.stats.nearness_per_point, self.tol, self.partition
        members: list[tuple[str, ...]] = []
        counterexamples: dict[tuple[str, ...], tuple[str, tuple[str, ...]]] = {}
        for cls in partition.non_singleton_classes:
            gap = partition.gap[cls]
            for x in cls:
                key = "special", min(2.0 * near[x], self.second_diameter), gap, tol
                found = _kept(
                    self.right, key, lambda: _failing_basis(*self.fiber(near[x]), gap, tol)
                )
                if found is not None:
                    counterexamples[cls] = (x, found)
                    break
            else:
                members.append(cls)
        return SpecialClassSet(tuple(members), counterexamples)

    @cached_property
    def rhs(self) -> int:
        excess = sum(len(c) - 1 for c in self.special.member_classes)
        return sum(self.fiber_dimensions.values()) + excess

    def dimension_report(self) -> VerificationReport:
        solved = self.product_solve
        witnesses = {
            "product_points": self.product.space.n,
            "product_basis": list(solved.basis),
            "fiber_dimensions": self.fiber_dimensions,
            "special_classes": [list(c) for c in self.special.member_classes],
            "twin_classes": [list(c) for c in self.partition.classes],
        }
        lhs, rhs = solved.dimension, self.rhs
        return VerificationReport("dimension", lhs, rhs, lhs == rhs, witnesses)

    def diameter_report(self) -> VerificationReport:
        stats = self.stats
        lhs = diameter(self.product.space)
        rhs = max(stats.diameter, min(2.0 * stats.slack, self.second_diameter))
        witnesses = {
            "base_diameter": stats.diameter,
            "base_slack": stats.slack,
            "second_diameter": self.second_diameter,
        }
        return VerificationReport("diameter", lhs, rhs, bool(abs(lhs - rhs) <= self.tol), witnesses)

    def corollary_reports(self) -> list[VerificationReport]:
        if not self.partition.non_singleton_classes:
            lhs, dims = self.product_solve.dimension, dict(self.fiber_dimensions)
            rhs = sum(dims.values())
            witnesses = {"fiber_dimensions": dims, "product_points": self.product.space.n}
            twins_free = VerificationReport("corollary-twins-free", lhs, rhs, lhs == rhs, witnesses)
        else:
            reason = {"reason": "base space has a non-singleton twin class"}
            twins_free = VerificationReport("corollary-twins-free", None, None, None, reason)

        second_diameter, near = self.second_diameter, self.stats.nearness
        # A diameter within the tolerance of the nearness is at it, as in the special-class test.
        if near - second_diameter > self.tol:
            lhs = self.product_solve.dimension
            dim_second = self.second_dimension
            rhs = self.base.n * dim_second
            witnesses = {
                "second_dimension": dim_second,
                "base_size": self.base.n,
                "second_diameter": second_diameter,
                "base_nearness": near,
            }
            small = VerificationReport("corollary-small-diameter", lhs, rhs, lhs == rhs, witnesses)
        else:
            reason = {
                "reason": "second factor diameter is not below the base nearness",
                "second_diameter": second_diameter,
                "base_nearness": near,
            }
            small = VerificationReport("corollary-small-diameter", None, None, None, reason)
        return [twins_free, small]

    def squashed(self, near: float) -> tuple[FiniteMetricSpace, float, int | None]:
        """The second factor squashed at ``near``, its diameter, and its dimension, which is
        None when the squash merges distances the tolerance tells apart."""
        squashed = squash(near, self._at_tol(self.second))
        squashed_diameter = diameter(squashed)
        # The tolerance is not transitive: entries that chain within it can span more than
        # it and merge though no sorted neighbours do, so every pair of distinct entries is
        # compared, by subtraction. In float64 the squash rounds distances past about 2**52
        # times the nearness together.
        entries, first = np.unique(self.second.dist, return_index=True)
        images, tol = squashed.dist.ravel()[first], self.tol
        if near - squashed_diameter <= tol or any(
            np.any((entries[r, None] - entries > tol) & (images[r, None] - images <= tol))
            for r in _row_blocks(len(entries), len(entries))
        ):
            return squashed, squashed_diameter, None
        return squashed, squashed_diameter, _table_solve(squashed)[1]

    def squash_report(self) -> VerificationReport:
        self._guard()
        near = self.stats.nearness
        squashed, squashed_diameter, dim_squashed = _kept(
            self.right, ("squash", near, self.tol), lambda: self.squashed(near)
        )
        if dim_squashed is None:
            reason = "squashing merges distances the tolerance tells apart"
            witnesses = {"reason": reason, "base_nearness": near}
            return VerificationReport("squash", None, None, None, witnesses)
        product = lexicographic(self.base, squashed)
        lhs = metric_dimension(product.space).dimension
        rhs = self.base.n * self.second_dimension
        passed = lhs == rhs and lhs == self.base.n * dim_squashed
        witnesses = {
            "base_nearness": near,
            "second_dimension": self.second_dimension,
            "squashed_dimension": dim_squashed,
            "squashed_diameter": squashed_diameter,
            "product_points": product.space.n,
        }
        return VerificationReport("squash", lhs, rhs, passed, witnesses)


def fiber_dimensions(base: FiniteMetricSpace, second: FiniteMetricSpace) -> dict[str, int]:
    """Exact dimension of each fiber: ``second`` capped per base point."""
    return _Pair(base, second).fiber_dimensions


def formula_rhs(base: FiniteMetricSpace, second: FiniteMetricSpace) -> int:
    """Closed-form product dimension: fiber dimensions plus twin-class excess.

    Sum of the per-fiber dimensions, plus, for every special twin class, its
    size minus one.
    """
    return _Pair(base, second).rhs


def verify_dimension(
    base: FiniteMetricSpace,
    second: FiniteMetricSpace,
    max_product_points: int = DEFAULT_PRODUCT_CAP,
) -> VerificationReport:
    """Product dimension: exact solver on the built product vs the closed form."""
    return _Pair(base, second, max_product_points).dimension_report()


def verify_diameter(
    base: FiniteMetricSpace,
    second: FiniteMetricSpace,
    max_product_points: int = DEFAULT_PRODUCT_CAP,
) -> VerificationReport:
    """Product diameter vs max of base diameter and the slack-capped second diameter."""
    return _Pair(base, second, max_product_points).diameter_report()


def verify_corollaries(
    base: FiniteMetricSpace,
    second: FiniteMetricSpace,
    max_product_points: int = DEFAULT_PRODUCT_CAP,
) -> list[VerificationReport]:
    """The two special cases, each gated by its own applicability test.

    Twins-free base: the product dimension is the plain sum of fiber
    dimensions. Second factor with diameter below the base nearness by more
    than the tolerance: every cap is inactive, and the product dimension is
    the base size times the second factor's dimension. A case whose
    precondition fails is reported as skipped, never as failed.
    """
    return _Pair(base, second, max_product_points).corollary_reports()


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
    agree. The report is skipped when the squash brings within the tolerance
    two distances it tells apart, or a distance and the nearness, as float64
    does once the distances dwarf the nearness.
    """
    return _Pair(base, second, max_product_points).squash_report()


def verify_all(
    base: FiniteMetricSpace,
    second: FiniteMetricSpace,
    max_product_points: int = DEFAULT_PRODUCT_CAP,
) -> list[VerificationReport]:
    """Run every check for one pair, in a fixed order, on one shared evaluation.

    What depends on one factor alone is worked out once per factor object, so a pair
    whose factors were seen before builds and solves only its two products.
    """
    pair = _Pair(base, second, max_product_points)
    return [
        pair.dimension_report(),
        pair.diameter_report(),
        *pair.corollary_reports(),
        pair.squash_report(),
    ]


def connected_graph_spaces(
    min_n: int = 2, max_n: int = 4, prefix: str = "v"
) -> list[FiniteMetricSpace]:
    """Shortest-path metrics of every connected graph on min_n..max_n labeled vertices.

    Enumerates all edge subsets and keeps the connected ones, so isomorphic
    copies on the same vertex count appear once per labeling. A ``min_n``
    below 2 raises ValueError.
    """
    if min_n < 2:
        raise ValueError(f"connected graph spaces need a min_n of at least 2, got {min_n}")
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
    _shortest_paths(table)
    labels = tuple(f"{prefix}{i + 1}" for i in range(n))
    return FiniteMetricSpace(labels, table, tolerance)


def random_pairs(
    seed: int, count: int, max_product_points: int = DEFAULT_PRODUCT_CAP
) -> list[tuple[FiniteMetricSpace, FiniteMetricSpace]]:
    """Seeded random weighted pairs whose products stay inside the size guard.

    Each factor has 2 to 6 points, so the guard must allow at least 2x2.
    A negative ``seed`` or ``count`` raises ValueError; zero gives no pairs.
    """
    if seed < 0:
        raise ValueError(f"random pairs need a seed of at least 0, got {seed}")
    if count < 0:
        raise ValueError(f"random pairs need a count of at least 0, got {count}")
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
