"""Ways to build metric spaces.

Shortest-path metrics of weighted graphs, the discrete metric, the
gravitational deformation (cap every distance at twice a constant), the
lexicographic product of two spaces, the bounded squash transform, and
extraction of product fibers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .space import DEFAULT_TOLERANCE, FiniteMetricSpace, _require_finite, _trusted_space

PRODUCT_SEP = "|"


class DisconnectedGraphError(ValueError):
    """Raised when a shortest-path metric is requested for a disconnected graph."""


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph; weights default to 1 and must be positive."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]

    def __post_init__(self) -> None:
        vertices = tuple(str(v) for v in self.vertices)
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex labels")
        known = set(vertices)
        edges = []
        for e in self.edges:
            if len(e) == 2:
                u, v, w = e[0], e[1], 1.0
            else:
                u, v, w = e
            u, v, w = str(u), str(v), float(w)
            if u == v:
                raise ValueError(f"self-loop at {u!r}")
            if u not in known or v not in known:
                raise ValueError(f"edge ({u!r}, {v!r}) uses an undeclared vertex")
            if not 0 < w < np.inf:
                raise ValueError(f"edge ({u!r}, {v!r}) has non-positive or non-finite weight {w}")
            edges.append((u, v, w))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", tuple(edges))

    @classmethod
    def from_edges(cls, edges: Iterable[tuple], extra_vertices: Iterable[str] = ()) -> "Graph":
        """Build a graph with the vertex set inferred in order of first appearance."""
        edges = tuple(edges)
        seen = dict.fromkeys(str(v) for e in edges for v in e[:2])
        seen.update(dict.fromkeys(str(v) for v in extra_vertices))
        return cls(tuple(seen), edges)


def parse_edge_list(text: str, source: str = "<edge list>") -> Graph:
    """Parse the one-edge-per-line text format.

    Lines are "u v" (weight 1) or "u v w"; "#" starts a comment line;
    "node u" declares an isolated vertex. Vertices appear in order of first
    mention. Errors name the source and line number.
    """
    edges: list[tuple[str, str, float]] = []
    isolated: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "node":
            if len(parts) != 2:
                raise ValueError(f"{source}, line {lineno}: expected 'node NAME'")
            isolated.append(parts[1])
            continue
        if len(parts) == 2:
            edges.append((parts[0], parts[1], 1.0))
        elif len(parts) == 3:
            try:
                weight = float(parts[2])
            except ValueError:
                raise ValueError(
                    f"{source}, line {lineno}: weight {parts[2]!r} is not a number"
                ) from None
            edges.append((parts[0], parts[1], weight))
        else:
            raise ValueError(
                f"{source}, line {lineno}: expected 'u v', 'u v w', or 'node u'"
            )
    try:
        return Graph.from_edges(edges, extra_vertices=isolated)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read(), source=path)


def path_graph(n: int) -> Graph:
    """Path on n vertices labeled a, b, c, ... (n <= 26)."""
    if not 2 <= n <= 26:
        raise ValueError("path_graph supports 2..26 vertices")
    labels = [chr(ord("a") + i) for i in range(n)]
    return Graph(tuple(labels), tuple((labels[i], labels[i + 1], 1.0) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    """Cycle on n vertices labeled v1..vn."""
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")
    labels = [f"v{i + 1}" for i in range(n)]
    edges = [(labels[i], labels[(i + 1) % n], 1.0) for i in range(n)]
    return Graph(tuple(labels), tuple(edges))


def complete_graph(n: int) -> Graph:
    """Complete graph on n vertices labeled v1..vn."""
    if n < 2:
        raise ValueError("a complete graph needs at least two vertices")
    labels = [f"v{i + 1}" for i in range(n)]
    edges = [
        (labels[i], labels[j], 1.0) for i in range(n) for j in range(i + 1, n)
    ]
    return Graph(tuple(labels), tuple(edges))


def _shortest_paths(table: np.ndarray) -> None:
    """Close ``table`` under shortest paths in place, relaxing through each point in turn.

    The relaxation through point k adds the same two floats for (i, j) as for
    (j, i), so a symmetric table stays exactly symmetric.
    """
    for k in range(len(table)):
        np.minimum(table, table[:, k, None] + table[k], out=table)


def graph_metric(g: Graph, tolerance: float = DEFAULT_TOLERANCE) -> FiniteMetricSpace:
    """Shortest-path metric of a connected graph.

    Closes the edge table (a repeated edge keeps its least weight) under
    shortest paths, one relaxation per vertex. The table is exactly symmetric,
    and on unit weights the distances stay integral, since sums of 1.0 are
    exact. Raises DisconnectedGraphError naming the first unreachable pair in
    vertex order.
    """
    index = {v: i for i, v in enumerate(g.vertices)}
    table = np.full((len(index), len(index)), np.inf)
    np.fill_diagonal(table, 0.0)
    for u, v, w in g.edges:
        i, j = index[u], index[v]
        table[i, j] = table[j, i] = min(table[i, j], w)
    _shortest_paths(table)
    unreachable = np.argwhere(np.isinf(table))
    if len(unreachable):
        i, j = unreachable[0]
        raise DisconnectedGraphError(
            f"graph is disconnected: no path from {g.vertices[i]!r} to {g.vertices[j]!r}"
        )
    return FiniteMetricSpace(g.vertices, table, tolerance)


def discrete_metric(n: int, tolerance: float = DEFAULT_TOLERANCE) -> FiniteMetricSpace:
    """All distinct points at distance exactly 1; labels p1..pn."""
    if n < 2:
        raise ValueError("the discrete metric needs at least two points")
    labels = tuple(f"p{i + 1}" for i in range(n))
    return FiniteMetricSpace(labels, np.ones((n, n)) - np.eye(n), tolerance)


def gravitational(space: FiniteMetricSpace, t: float) -> FiniteMetricSpace:
    """Cap every distance at 2t, keeping the point set.

    The result is always a metric again, it is idempotent for a fixed t, and
    it is the identity whenever the diameter is at most 2t.
    """
    if not 0 < t < np.inf:
        raise ValueError("the gravitation constant t must be positive and finite")
    _require_finite(space)
    capped = np.minimum(space.dist, 2.0 * t)
    return _trusted_space(space.points, space._index, capped, space.tolerance)


def squash(eta: float, space: FiniteMetricSpace) -> FiniteMetricSpace:
    """Bounded transform d -> eta*d/(eta+d); the output diameter is at most eta.

    The map is strictly increasing above its pole at -eta, so every comparison between
    distances, and with it every resolving set, is kept. An entry at or below -eta raises
    ValueError, as does one with no finite image just above it. Where eta*d overflows, d
    dwarfs eta and the map is taken as eta/(eta/d + 1).
    """
    if not 0 < eta < np.inf:
        raise ValueError("eta must be positive and finite")
    _require_finite(space)
    d = space.dist
    lo, hi = float(d.min()), float(d.max())
    if lo <= -eta:
        u, v = min((space.points[i], space.points[j]) for i, j in np.argwhere(d <= -eta))
        raise ValueError(f"squash: d({u!r}, {v!r}) = {space.d(u, v)} is at or below -eta = {-eta}")
    if eta * max(hi, -lo) < np.inf:  # Python floats overflow to inf without a warning
        squashed = eta * d / (eta + d)
    else:
        with np.errstate(all="ignore"):
            squashed = np.where(np.isinf(eta * d), eta / (eta / d + 1), eta * d / (eta + d))
        lost = ~np.isfinite(squashed)
        if lost.any():
            u, v = min((space.points[i], space.points[j]) for i, j in np.argwhere(lost))
            raise ValueError(
                f"squash: d({u!r}, {v!r}) = {space.d(u, v)} has no finite image at eta = {eta}"
            )
    return _trusted_space(space.points, space._index, squashed, space.tolerance)


@dataclass(frozen=True)
class ProductSpace:
    """A lexicographic product together with its point provenance.

    ``space`` carries the product metric on labels "base|fiber", base-major:
    the label at ``i * len(fiber_points) + j`` pairs ``base_points[i]`` with
    ``fiber_points[j]``. ``base_of`` and ``fiber_of`` map each product label
    back to its two components; each is built on first use.
    """

    space: FiniteMetricSpace
    base_points: tuple[str, ...]
    fiber_points: tuple[str, ...]

    @functools.cached_property
    def base_of(self) -> dict[str, str]:
        bases = (x for x in self.base_points for _ in self.fiber_points)
        return dict(zip(self.space.points, bases))

    @functools.cached_property
    def fiber_of(self) -> dict[str, str]:
        return dict(zip(self.space.points, self.fiber_points * len(self.base_points)))


def _require_symmetric(space: FiniteMetricSpace, role: str) -> None:
    """Raise on the first pair, in label order, whose two distances differ past the tolerance."""
    pair = space._asymmetric_pair
    if pair is not None:
        u, v = pair
        raise ValueError(
            f"the {role} is not symmetric at tolerance: "
            f"d({u!r}, {v!r}) = {space.d(u, v)} but d({v!r}, {u!r}) = {space.d(v, u)}"
        )


def _require_factors(first: FiniteMetricSpace, second: FiniteMetricSpace) -> np.ndarray:
    """The base's per-point nearness; raise unless both factors are fit to form a product."""
    _require_finite(first)
    _require_finite(second)
    _require_symmetric(first, "base")
    _require_symmetric(second, "second factor")
    near = first._nearness
    if not near.min() > 0:
        raise ValueError("the base space must have positive nearness")
    return near


def _factor_label(label: str) -> str:
    """A factor's point label inside a product label: parenthesized if it holds the separator."""
    return f"({label})" if PRODUCT_SEP in label else label


@functools.lru_cache(maxsize=64)
def _product_labels(
    first: tuple[str, ...], second: tuple[str, ...]
) -> tuple[tuple[str, ...], dict[str, int]]:
    """The product's labels, base-major, and their index; shared by every product of the two.

    Raises as the constructor does when two pairs meet in one label, as ``"(a"`` with
    ``"b)|c"`` and ``"a|(b"`` with ``"c)"`` do.
    """
    ys = [_factor_label(y) for y in second]
    labels = tuple(f"{x}{PRODUCT_SEP}{y}" for x in map(_factor_label, first) for y in ys)
    index = {p: i for i, p in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueError("duplicate point labels")
    return labels, index


def lexicographic(first: FiniteMetricSpace, second: FiniteMetricSpace) -> ProductSpace:
    """Lexicographic product of two spaces.

    Points are all pairs "x|y", a factor label that holds "|" in parentheses, so
    products nest: "(a|b)|c". Distinct base points keep their base distance; inside
    a fiber the second space's distance is capped at twice the nearness of that
    fiber's base point. The per-point cap matters: a weighted base space with uneven
    nearness caps each fiber differently. Both factors must be symmetric at their
    tolerance, since each base distance fills the two blocks between its fibers.
    """
    near = _require_factors(first, second)
    n_base, n_fib = first.n, second.n
    labels, index = _product_labels(first.points, second.points)
    # Both blocks between two fibers hold the base's upper-triangle distance.
    base = np.arange(n_base)
    upper = np.where(np.less.outer(base, base), first.dist, first.dist.T)
    table = np.empty((n_base * n_fib, n_base * n_fib))
    blocks = table.reshape(n_base, n_fib, n_base, n_fib)  # fiber x's block is blocks[x, :, x, :]
    blocks[...] = upper[:, None, :, None]
    with np.errstate(over="ignore"):  # a cap past the largest float is inf: it caps nothing
        blocks[base, :, base, :] = np.minimum(2.0 * near[:, None, None], second.dist)
    tolerance = max(first.tolerance, second.tolerance)
    # Both factors are finite, so every entry is.
    product = _trusted_space(labels, index, table, tolerance)
    return ProductSpace(product, first.points, second.points)


def fiber(product: ProductSpace, x: str) -> FiniteMetricSpace:
    """The fiber over base point ``x`` as a standalone space.

    Points are relabeled back to the second factor's labels. The table equals
    the second factor's metric capped at twice the nearness of ``x``.
    """
    if x not in product.base_points:
        raise KeyError(f"unknown base point {x!r}")
    labels = [lbl for lbl in product.space.points if product.base_of[lbl] == x]
    idx = [product.space.index(lbl) for lbl in labels]
    table = product.space.dist[np.ix_(idx, idx)]
    points = tuple(product.fiber_of[lbl] for lbl in labels)
    return FiniteMetricSpace(points, table, product.space.tolerance)
