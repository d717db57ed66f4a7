"""Finite metric spaces: labeled distance tables, axiom checks, scalar statistics.

A space is a list of opaque string labels plus a full pairwise distance
table. Every distance-equality decision made anywhere in this library uses
the space's absolute ``tolerance``. Suprema and infima are plain max/min
throughout, which is exact because every carrier here is finite; do not add
limit logic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """A finite point set with a full pairwise distance table.

    ``dist[i][j]`` is the distance between ``points[i]`` and ``points[j]``.
    Construction checks structure only (rectangular and square table, size
    matching the labels, at least two points, no duplicate labels); whether
    the table actually satisfies the metric axioms is reported separately by
    :func:`validate`, so deliberately broken tables can be built and
    diagnosed.

    Instances are immutable: the table is stored read-only and every
    operation on spaces is a pure function, safe for concurrent use.
    ``name`` is a free-form provenance note and carries no semantics.
    """

    points: tuple[str, ...]
    dist: np.ndarray
    tolerance: float = DEFAULT_TOLERANCE
    name: str = ""

    def __post_init__(self) -> None:
        points = tuple(str(p) for p in self.points)
        try:
            dist = np.array(self.dist, dtype=float)
        except (TypeError, ValueError):
            raise ValueError("distance table is not a rectangular numeric table") from None
        if len(points) < 2:
            raise ValueError(f"a metric space needs at least two points, got {len(points)}")
        if len(set(points)) != len(points):
            raise ValueError("duplicate point labels")
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ValueError(f"distance table must be square, got shape {dist.shape}")
        if dist.shape[0] != len(points):
            raise ValueError(
                f"distance table is {dist.shape[0]}x{dist.shape[1]} "
                f"but there are {len(points)} points"
            )
        if not 0 <= self.tolerance < np.inf:
            raise ValueError("tolerance must be a finite nonnegative real")
        dist.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(points)})

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, label: str) -> int:
        try:
            return self._index[label]  # type: ignore[attr-defined]
        except KeyError:
            raise KeyError(f"unknown point {label!r}") from None

    def d(self, u: str, v: str) -> float:
        return float(self.dist[self.index(u), self.index(v)])

    def __repr__(self) -> str:
        tag = f", name={self.name!r}" if self.name else ""
        return f"FiniteMetricSpace(n={self.n}, points={list(self.points)!r}{tag})"


class Violation(NamedTuple):
    """One broken axiom: which rule, the points involved, the two compared values."""

    axiom: str
    where: tuple[str, ...]
    lhs: float
    rhs: float


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]


def validate(space: FiniteMetricSpace) -> ValidationReport:
    """Check the metric axioms at the space's tolerance, reporting every violation.

    Checked rules: entries are finite, the diagonal is zero, the table is
    symmetric, distinct points are farther apart than the tolerance, and
    d(u,v) <= d(u,w) + d(w,v) for every triple. A triangle violation is
    reported as (u, w, v): the two endpoints around the intermediate point.
    """
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
        # Non-finite entries poison every other comparison; stop here.
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


def nearness_point(space: FiniteMetricSpace, x: str) -> float:
    """Distance from ``x`` to its closest other point; positive in a valid space."""
    i = space.index(x)
    row = np.delete(space.dist[i], i)
    return float(row.min())


def nearness(space: FiniteMetricSpace) -> float:
    """Smallest per-point nearness, i.e. the minimum pairwise distance."""
    return min(nearness_point(space, x) for x in space.points)


def slack(space: FiniteMetricSpace) -> float:
    """Largest per-point nearness."""
    return max(nearness_point(space, x) for x in space.points)


def diameter(space: FiniteMetricSpace) -> float:
    """Largest pairwise distance."""
    return float(space.dist.max())


@dataclass(frozen=True)
class SpaceStats:
    """Per-point nearness plus the three scalar summaries of a space."""

    nearness_per_point: dict[str, float]
    nearness: float
    slack: float
    diameter: float


def space_stats(space: FiniteMetricSpace) -> SpaceStats:
    per_point = {x: nearness_point(space, x) for x in space.points}
    values = list(per_point.values())
    return SpaceStats(
        nearness_per_point=per_point,
        nearness=min(values),
        slack=max(values),
        diameter=diameter(space),
    )


def ball(space: FiniteMetricSpace, center: str, radius: float) -> frozenset[str]:
    """Open ball: points strictly closer to ``center`` than ``radius``.

    Membership uses a plain strict comparison, so a point at distance exactly
    ``radius`` is excluded. The center itself always belongs.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    i = space.index(center)
    return frozenset(p for j, p in enumerate(space.points) if space.dist[i, j] < radius)


def space_to_json(space: FiniteMetricSpace) -> dict:
    """Plain-dict form of a space: {"points": [...], "d": [[...]], "tolerance": t}."""
    return {
        "points": list(space.points),
        "d": [[float(x) for x in row] for row in space.dist],
        "tolerance": space.tolerance,
    }


def space_from_json(obj: dict, *, name: str = "") -> FiniteMetricSpace:
    """Build a space from the dict form; "tolerance" is optional."""
    if not isinstance(obj, dict):
        raise ValueError("metric document must be a JSON object")
    missing = [key for key in ("points", "d") if key not in obj]
    if missing:
        raise ValueError(f"metric document is missing {missing}")
    if not isinstance(obj["points"], list):
        raise ValueError('"points" must be a list of labels')
    tolerance = obj.get("tolerance", DEFAULT_TOLERANCE)
    return FiniteMetricSpace(
        points=tuple(obj["points"]), dist=obj["d"], tolerance=float(tolerance), name=name
    )


def load_space(path: str) -> FiniteMetricSpace:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    try:
        return space_from_json(obj, name=path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_space(space: FiniteMetricSpace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(space_to_json(space), fh, indent=2, sort_keys=True)
        fh.write("\n")

