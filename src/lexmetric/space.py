"""Finite metric spaces: labeled distance tables, axiom checks, scalar statistics.

A space is a list of opaque string labels plus a full pairwise distance
table. Every distance-equality decision made anywhere in this library uses
the space's absolute ``tolerance``. Suprema and infima are plain max/min
throughout, which is exact because every carrier here is finite; do not add
limit logic.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterator, NamedTuple

import numpy as np

DEFAULT_TOLERANCE = 1e-9
# Entries per row block in the whole-table passes: 2**18 float64s is 2 MB.
_BLOCK_ENTRIES = 1 << 18


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
    The table's finiteness, its first asymmetric pair in label order and every
    point's nearness are worked out on first use and kept with the object, as
    the table cannot change; a failed check raises the same error every time.
    """

    points: tuple[str, ...]
    dist: np.ndarray
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        if isinstance(self.tolerance, bool) or not isinstance(self.tolerance, numbers.Real):
            raise ValueError('"tolerance" must be a number')
        try:
            tolerance = float(self.tolerance)
        except OverflowError:
            raise ValueError('"tolerance" is too large for a float') from None
        points = tuple(str(p) for p in self.points)
        try:
            dist = np.array(self.dist, dtype=float)
        except (TypeError, ValueError):
            raise ValueError("distance table is not a rectangular numeric table") from None
        except OverflowError:
            raise ValueError("distance table has an entry too large for a float") from None
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
        if not 0 <= tolerance < np.inf:
            raise ValueError("tolerance must be a finite nonnegative real")
        dist.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "tolerance", tolerance)
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
        return f"FiniteMetricSpace(n={self.n}, points={list(self.points)!r})"

    @cached_property
    def _finite(self) -> bool:
        return bool(np.isfinite(self.dist).all())

    @cached_property
    def _asymmetric_pair(self) -> list[str] | None:
        """The first pair in label order whose two distances differ past the tolerance."""
        pairs = zip(*np.nonzero(_asymmetric(self)))
        return min((sorted((self.points[i], self.points[j])) for i, j in pairs), default=None)

    @cached_property
    def _nearness(self) -> np.ndarray:
        """Every point's nearness, in point order, read-only: one row minimum, diagonal masked."""
        off_diagonal = self.dist.copy()
        np.fill_diagonal(off_diagonal, np.inf)
        values = off_diagonal.min(axis=1)
        values.flags.writeable = False
        return values


def _trusted_space(
    points: tuple[str, ...], index: dict[str, int], dist: np.ndarray, tolerance: float
) -> FiniteMetricSpace:
    """A space from parts already checked, without the constructor's checks and copy.

    ``index`` maps each label to its position and is shared, never changed; ``dist``
    is a new finite float table of the right shape, made read-only and kept as is.
    """
    space = object.__new__(FiniteMetricSpace)
    dist.flags.writeable = False
    vars(space).update(points=points, dist=dist, tolerance=tolerance, _index=index, _finite=True)
    return space


def _require_finite(space: FiniteMetricSpace) -> None:
    """Raise on a NaN or infinite entry: no statistic or solve means anything there."""
    if not space._finite:
        raise ValueError("distance table has non-finite entries")


def _asymmetric(space: FiniteMetricSpace) -> np.ndarray:
    """Mask of the entries whose two directions differ by more than the tolerance."""
    return np.abs(space.dist - space.dist.T) > space.tolerance


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


def _row_blocks(n: int, per_row: int) -> Iterator[slice]:
    """Consecutive row slices of an ``n``-row pass holding ``per_row`` entries per row.

    Each block keeps its temporaries near ``_BLOCK_ENTRIES`` entries, so a
    whole-table pass needs memory linear in its rows, not cubic in ``n``.
    """
    step = max(1, _BLOCK_ENTRIES // per_row)
    for start in range(0, n, step):
        yield slice(start, min(n, start + step))


def validate(space: FiniteMetricSpace) -> ValidationReport:
    """Check the metric axioms at the space's tolerance, reporting every violation.

    Checked rules: entries are finite, the diagonal is zero, the table is
    symmetric, distinct points are farther apart than the tolerance, and
    d(u,v) <= d(u,w) + d(w,v) for every triple. A triangle violation is
    reported as (u, w, v): the two endpoints around the intermediate point.
    Violations come rule by rule in that order, symmetry and positivity
    interleaved per pair, each rule in row-major order of its indices.
    Triangle candidates come from one min-plus pass per row block; only the
    pairs it flags are searched for witnesses, so a valid table costs one
    cubic reduction and the violations and their order match the per-triple
    check exactly.
    """
    d = space.dist
    pts = space.points
    tau = space.tolerance
    n = space.n
    out = [
        Violation("finiteness", (pts[i], pts[j]), float(d[i, j]), 0.0)
        for i, j in zip(*np.nonzero(~np.isfinite(d)))
    ]
    if out:
        # Non-finite entries poison every other comparison; stop here.
        return ValidationReport(ok=False, violations=tuple(out))
    for i in np.flatnonzero(np.abs(np.diagonal(d)) > tau):
        out.append(Violation("zero-diagonal", (pts[i],), float(d[i, i]), 0.0))
    asymmetric = _asymmetric(space)
    close = (d <= tau) | (d.T <= tau)
    i, j = np.nonzero(asymmetric | close)
    upper = i < j
    for i, j in zip(i[upper].tolist(), j[upper].tolist()):
        where = (pts[i], pts[j])
        if asymmetric[i, j]:
            out.append(Violation("symmetry", where, float(d[i, j]), float(d[j, i])))
        if close[i, j]:
            out.append(Violation("positivity", where, float(min(d[i, j], d[j, i])), 0.0))
    # A pair i < j can break the triangle only if d[i, j] > min_k (d[i, k] + d[k, j]) + tau:
    # rounding is monotone and k in {i, j} only lowers the min. The witnesses k
    # not in {i, j} of each such pair are then listed with the per-triple sums.
    with np.errstate(over="ignore"):  # a sum past the largest float is inf: never a witness
        for rows in _row_blocks(n, n * n):
            lo = rows.start + 1
            shortest = (d[rows, None, :] + d.T[None, lo:, :]).min(axis=2)
            shortest += tau
            i, j = np.nonzero(d[rows, lo:] > shortest)
            if not i.size:
                continue
            i, j = i[i <= j] + rows.start, j[i <= j] + lo  # i < j in table indices
            hit = d[i, j, None] > d[i] + d.T[j] + tau
            each = np.arange(len(i))
            hit[each, i] = hit[each, j] = False
            c, k = np.nonzero(hit)
            i, j = i[c], j[c]
            lhs, rhs = d[i, j].tolist(), (d[i, k] + d[k, j]).tolist()
            for u, w, v, a, b in zip(i.tolist(), k.tolist(), j.tolist(), lhs, rhs):
                out.append(Violation("triangle", (pts[u], pts[w], pts[v]), a, b))
    return ValidationReport(ok=not out, violations=tuple(out))


def nearness_point(space: FiniteMetricSpace, x: str) -> float:
    """Distance from ``x`` to its closest other point; positive in a valid space."""
    _require_finite(space)
    return float(space._nearness[space.index(x)])


def nearness(space: FiniteMetricSpace) -> float:
    """Smallest per-point nearness, i.e. the minimum pairwise distance."""
    _require_finite(space)
    return float(space._nearness.min())


def slack(space: FiniteMetricSpace) -> float:
    """Largest per-point nearness."""
    _require_finite(space)
    return float(space._nearness.max())


def diameter(space: FiniteMetricSpace) -> float:
    """Largest pairwise distance."""
    _require_finite(space)
    return float(space.dist.max())


@dataclass(frozen=True)
class SpaceStats:
    """Per-point nearness plus the three scalar summaries of a space."""

    nearness_per_point: dict[str, float]
    nearness: float
    slack: float
    diameter: float


def space_stats(space: FiniteMetricSpace) -> SpaceStats:
    _require_finite(space)
    values = space._nearness
    return SpaceStats(
        nearness_per_point=dict(zip(space.points, values.tolist())),
        nearness=float(values.min()),
        slack=float(values.max()),
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
        "d": space.dist.tolist(),
        "tolerance": space.tolerance,
    }


def json_text(value, indent: str = "\n") -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it, byte for byte.

    One call per value. ``indent`` is the newline and indentation that close
    the value's container; its items sit two spaces further in, one to a line.
    NaN and the infinities are spelled NaN, Infinity and -Infinity, Python's
    extension to JSON. Any type the stdlib would not write, and any dict key
    that is not a string, raises TypeError.
    """
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, float):
        if value - value == 0:
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        brackets, items = "[]", [json_text(item, inner) for item in value]
    elif isinstance(value, dict):
        # _quote raises TypeError on a key that is not a string.
        brackets = "{}"
        items = [f"{_quote(k)}: {json_text(v, inner)}" for k, v in sorted(value.items())]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def space_from_json(obj: dict) -> FiniteMetricSpace:
    """Build a space from the dict form; "tolerance" is optional."""
    if not isinstance(obj, dict):
        raise ValueError("metric document must be a JSON object")
    missing = [key for key in ("points", "d") if key not in obj]
    if missing:
        raise ValueError(f"metric document is missing {missing}")
    points = obj["points"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise ValueError('"points" must be a list of labels')
    # str would make labels of true and null; numpy would read true and "1" as 1.0, null as NaN.
    rows = obj["d"] if isinstance(obj["d"], list) else []
    entries = [x for row in rows if isinstance(row, list) for x in row]
    if any(isinstance(x, bool) or not isinstance(x, numbers.Real) for x in entries):
        raise ValueError('"d" entries must be numbers')
    tolerance = obj.get("tolerance", DEFAULT_TOLERANCE)
    return FiniteMetricSpace(tuple(points), obj["d"], tolerance)


def load_space(path: str) -> FiniteMetricSpace:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    try:
        return space_from_json(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_space(space: FiniteMetricSpace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(space_to_json(space)) + "\n")

