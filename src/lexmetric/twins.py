"""Twin points and the special twin classes entering the product dimension formula.

Two points are twins when every third point sees them at equal distance.
Twinness is an equivalence; all members of a non-singleton class sit at one
common gap from each other and share their nearness. A two-point space is a
single non-singleton class: the defining condition quantifies over an empty
set of third points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .construct import _require_factors, gravitational
from .resolving import _least_basis, _table_solve
from .resolving import metric_dimension  # noqa: F401 -- re-exported; perfbench traces it here
from .space import FiniteMetricSpace, _require_finite, _row_blocks


@dataclass(frozen=True)
class TwinPartition:
    """The twin equivalence classes of a space.

    ``classes`` partitions the point set; members and classes are sorted by
    label. ``gap`` and ``class_nearness`` hold, for each non-singleton class,
    the common within-class distance and the members' shared nearness.
    """

    classes: tuple[tuple[str, ...], ...]
    gap: dict[tuple[str, ...], float]
    class_nearness: dict[tuple[str, ...], float]

    @property
    def non_singleton_classes(self) -> tuple[tuple[str, ...], ...]:
        return tuple(c for c in self.classes if len(c) > 1)


def _twin_matrix(space: FiniteMetricSpace) -> np.ndarray:
    """``twins[i, j]``: every third point sees ``i`` and ``j`` alike; False on the diagonal."""
    d = space.dist
    n = space.n
    twins = np.empty((n, n), dtype=bool)
    for rows in _row_blocks(n, n * n):
        # same[i, j, k]: k sees i and j alike; k = i and k = j are not third points.
        same = np.abs(d[rows, None, :] - d[None, :, :]) <= space.tolerance
        block = np.arange(rows.start, rows.stop)
        same[block - rows.start, :, block] = True
        same[:, np.arange(n), np.arange(n)] = True
        twins[rows] = same.all(axis=2)
    np.fill_diagonal(twins, False)
    return twins


def twin_classes(space: FiniteMetricSpace) -> TwinPartition:
    """Partition the points into twin equivalence classes.

    Each point is labeled with its least twin. The relation is transitive
    exactly when every point's row of the twin matrix equals its least
    twin's row; with exact tables it always is, but tolerance chains could
    break it, and a broken partition raises rather than being silently
    repaired. Each call works the partition out afresh.
    """
    _require_finite(space)
    same = _twin_matrix(space)
    np.fill_diagonal(same, True)
    least = same.argmax(axis=1)
    broken = same != same[least]
    if broken.any():
        # Row i and its least twin's row differ at m: one of the two is
        # linked to m through the other without being m's twin.
        i, m = np.argwhere(broken)[0]
        a = least[i] if same[i, m] else i
        raise ValueError(
            "twin relation is not transitive at this tolerance: "
            f"{space.points[a]!r} and {space.points[m]!r} are linked but not twins"
        )
    groups: dict[int, list[str]] = {}
    for point, root in zip(space.points, least.tolist()):
        groups.setdefault(root, []).append(point)
    # Disjoint classes differ in their first member, so tuple order is label order.
    classes = tuple(sorted(tuple(sorted(members)) for members in groups.values()))
    gap: dict[tuple[str, ...], float] = {}
    class_nearness: dict[tuple[str, ...], float] = {}
    values = space._nearness
    for cls in classes:
        if len(cls) == 1:
            continue
        pairwise = [space.d(u, v) for u, v in itertools.combinations(cls, 2)]
        if max(pairwise) - min(pairwise) > 2 * space.tolerance:
            raise ValueError(f"within-class distances of {cls!r} are not constant")
        near = [float(values[space.index(u)]) for u in cls]
        if max(near) - min(near) > 2 * space.tolerance:
            raise ValueError(f"within-class nearness of {cls!r} is not constant")
        gap[cls] = space.d(cls[0], cls[1])
        class_nearness[cls] = near[0]
    return TwinPartition(classes, gap, class_nearness)


def is_twins_free(space: FiniteMetricSpace) -> bool:
    """True when every twin class is a singleton."""
    return not twin_classes(space).non_singleton_classes


@dataclass(frozen=True)
class SpecialClassSet:
    """The non-singleton twin classes whose fibers always admit a far witness.

    ``counterexamples`` maps each excluded class to its first failing member
    and that member's lexicographically least fiber basis without a far
    witness.
    """

    member_classes: tuple[tuple[str, ...], ...]
    counterexamples: dict[tuple[str, ...], tuple[str, tuple[str, ...]]]


def special_classes(base: FiniteMetricSpace, second: FiniteMetricSpace) -> SpecialClassSet:
    """Which non-singleton twin classes of ``base`` contribute extra landmarks.

    A class with gap L qualifies when for every member x and every metric
    basis of that member's fiber (``second`` capped at twice the nearness of
    x) some fiber point sits at capped distance exactly L from all basis
    points. Each member is checked in full rather than one representative;
    members of one nearness and gap share one plain and one constrained solve.
    Raises ValueError on a pair of factors that :func:`lexicographic` rejects.
    """
    near = dict(zip(base.points, _require_factors(base, second).tolist()))
    tol = max(base.tolerance, second.tolerance)
    answers: dict[tuple[float, float], tuple[str, ...] | None] = {}

    def failing(x: str, gap: float) -> tuple[str, ...] | None:
        if (near[x], gap) not in answers:
            fib = gravitational(second, near[x])
            answers[near[x], gap] = _failing_basis(fib, *_table_solve(fib), gap, tol)
        return answers[near[x], gap]

    return _special_classes(twin_classes(base), failing)


def _failing_basis(
    fib: FiniteMetricSpace, family: tuple, dimension: int, gap: float, tol: float
) -> tuple[str, ...] | None:
    """The least basis of ``fib`` with no far witness at ``gap``, or None.

    A basis B has no far witness when, for every fiber point z, B meets the
    points off the gap from z. One solve finds the least resolving set that
    meets those sets: a failing basis exactly when its size is the fiber's
    ``dimension``. It starts from ``family``, the minimal distinguisher sets
    of the fiber's plain solve.
    """
    must_hit = np.abs(fib.dist - gap) > tol
    if not must_hit.any(axis=1).all():  # a point with nothing off the gap is a far witness
        return None
    found = _least_basis(fib, family, must_hit)
    return found.basis if found.dimension == dimension else None


def _special_classes(partition: TwinPartition, failing) -> SpecialClassSet:
    """:func:`special_classes` on a partition at hand.

    ``failing(x, gap)`` is :func:`_failing_basis` of the fiber over ``x`` at ``gap``.
    """
    members_out: list[tuple[str, ...]] = []
    counterexamples: dict[tuple[str, ...], tuple[str, tuple[str, ...]]] = {}
    for cls in partition.non_singleton_classes:
        gap = partition.gap[cls]
        for x in cls:
            found = failing(x, gap)
            if found is not None:
                counterexamples[cls] = (x, found)
                break
        else:
            members_out.append(cls)
    return SpecialClassSet(tuple(members_out), counterexamples)
