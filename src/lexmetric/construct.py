"""Ways to build metric spaces.

Shortest-path metrics of weighted graphs, the discrete metric, the
gravitational deformation (cap every distance at twice a constant), the
lexicographic product of two spaces, the bounded squash transform, and
extraction of product fibers.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .space import (
    DEFAULT_TOLERANCE,
    FiniteMetricSpace,
    _asymmetric,
    _nearness_values,
    _require_finite,
)

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
                raise ValueError(
                    f"edge ({u!r}, {v!r}) has non-positive or non-finite weight {w}"
                )
            edges.append((u, v, w))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", tuple(edges))

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple], extra_vertices: Iterable[str] = ()
    ) -> "Graph":
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


def _single_source(adj: dict[str, list[tuple[str, float]]], source: str) -> dict[str, float]:
    dist = {source: 0.0}
    heap: list[tuple[float, str]] = [(0.0, source)]
    done: set[str] = set()
    while heap:
        du, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj[u]:
            nd = du + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def graph_metric(g: Graph, tolerance: float = DEFAULT_TOLERANCE) -> FiniteMetricSpace:
    """Shortest-path metric of a connected graph.

    Runs one heap-based single-source search per vertex; on unit weights
    the distances stay integral, since sums of 1.0 are exact. Raises
    DisconnectedGraphError naming an unreachable pair.
    """
    adj: dict[str, list[tuple[str, float]]] = {v: [] for v in g.vertices}
    for u, v, w in g.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    n = len(g.vertices)
    table = np.zeros((n, n))
    for i, src in enumerate(g.vertices):
        dist = _single_source(adj, src)
        if len(dist) != n:
            missing = next(v for v in g.vertices if v not in dist)
            raise DisconnectedGraphError(
                f"graph is disconnected: no path from {src!r} to {missing!r}"
            )
        table[i] = [dist[v] for v in g.vertices]
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
    capped = np.minimum(space.dist, 2.0 * t)
    return FiniteMetricSpace(space.points, capped, space.tolerance, name=space.name)


def squash(eta: float, space: FiniteMetricSpace) -> FiniteMetricSpace:
    """Bounded transform d -> eta*d/(eta+d); the output diameter is below eta.

    The map is strictly increasing, so every comparison between distances is
    preserved exactly; in particular resolving sets and the metric dimension
    do not change.
    """
    if not 0 < eta < np.inf:
        raise ValueError("eta must be positive and finite")
    d = space.dist
    squashed = eta * d / (eta + d)
    return FiniteMetricSpace(space.points, squashed, space.tolerance, name=space.name)


@dataclass(frozen=True)
class ProductSpace:
    """A lexicographic product together with its point provenance.

    ``space`` carries the product metric on labels "base|fiber"; ``base_of``
    and ``fiber_of`` map each product label back to its two components.
    """

    space: FiniteMetricSpace
    base_points: tuple[str, ...]
    fiber_points: tuple[str, ...]
    base_of: Mapping[str, str]
    fiber_of: Mapping[str, str]


def _require_symmetric(space: FiniteMetricSpace, role: str) -> None:
    """Raise on the first pair, in label order, whose two distances differ past the tolerance."""
    asymmetric = _asymmetric(space)
    if asymmetric.any():
        pairs = zip(*np.nonzero(asymmetric))
        u, v = min(sorted((space.points[i], space.points[j])) for i, j in pairs)
        raise ValueError(
            f"the {role} is not symmetric at tolerance: "
            f"d({u!r}, {v!r}) = {space.d(u, v)} but d({v!r}, {u!r}) = {space.d(v, u)}"
        )


def lexicographic(first: FiniteMetricSpace, second: FiniteMetricSpace) -> ProductSpace:
    """Lexicographic product of two spaces.

    Points are all pairs "x|y". Distinct base points keep their base
    distance; inside a fiber the second space's distance is capped at twice
    the nearness of that fiber's base point. The per-point cap matters: a
    weighted base space with uneven nearness caps each fiber differently.
    Both factors must be symmetric at their tolerance, since each base
    distance fills the two blocks between its fibers.
    """
    _require_finite(first)
    _require_finite(second)
    _require_symmetric(first, "base")
    _require_symmetric(second, "second factor")
    near = _nearness_values(first)
    if not near.min() > 0:
        raise ValueError("the base space must have positive nearness")
    for label in first.points + second.points:
        if PRODUCT_SEP in label:
            raise ValueError(
                f"point label {label!r} contains the reserved separator {PRODUCT_SEP!r}"
            )
    n_base, n_fib = first.n, second.n
    labels = tuple(f"{x}{PRODUCT_SEP}{y}" for x in first.points for y in second.points)
    table = np.zeros((n_base * n_fib, n_base * n_fib))
    for i in range(n_base):
        cap = 2.0 * float(near[i])
        block = slice(i * n_fib, (i + 1) * n_fib)
        table[block, block] = np.minimum(cap, second.dist)
        for j in range(i + 1, n_base):
            other = slice(j * n_fib, (j + 1) * n_fib)
            table[block, other] = first.dist[i, j]
            table[other, block] = first.dist[i, j]
    product = FiniteMetricSpace(
        labels,
        table,
        tolerance=max(first.tolerance, second.tolerance),
        name="lexicographic product",
    )
    base_of = {lbl: lbl.split(PRODUCT_SEP, 1)[0] for lbl in labels}
    fiber_of = {lbl: lbl.split(PRODUCT_SEP, 1)[1] for lbl in labels}
    return ProductSpace(product, first.points, second.points, base_of, fiber_of)


def fiber(product: ProductSpace, x: str) -> FiniteMetricSpace:
    """The fiber over base point ``x`` as a standalone space.

    Points are relabeled back to the second factor's labels; the name field
    records where the fiber came from. The table equals the second factor's
    metric capped at twice the nearness of ``x``.
    """
    if x not in product.base_points:
        raise KeyError(f"unknown base point {x!r}")
    labels = [
        lbl for lbl in product.space.points if product.base_of[lbl] == x
    ]
    idx = [product.space.index(lbl) for lbl in labels]
    table = product.space.dist[np.ix_(idx, idx)]
    return FiniteMetricSpace(
        tuple(product.fiber_of[lbl] for lbl in labels),
        table,
        product.space.tolerance,
        name=f"fiber over {x}",
    )
