"""Resolving sets and exact metric dimension.

A subset resolves a space when the vector of distances to the subset is
different for every point. Finding a minimum resolving set is a minimum
hitting set problem: for each point pair, collect the points that tell the
pair apart, then hit every one of those sets. Each set is packed into 64-bit
words over the label-sorted points, where duplicates are dropped, and each
distinct set is an ``int`` bitmask from there to the witness. The exact
branch-and-bound solver then drops supersets and solves each group of sets
that share no point with the others on its own. An independent
subset-enumeration solver is kept behind a flag as its oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_

import numpy as np

from .space import FiniteMetricSpace, _require_finite, _row_blocks, _table_key

DEFAULT_ENUMERATION_CAP = 16


class EnumerationCapExceeded(ValueError):
    """Complete basis enumeration was requested for a space past the cap."""


@dataclass(frozen=True)
class SolveStats:
    """Size of one branch-and-bound solve after data reduction.

    ``raw_sets`` counts the distinguisher sets, one per point pair;
    ``reduced_sets`` the distinct ones left after dropping supersets; and
    ``components`` the independent groups those split into. ``nodes`` and
    ``memo_hits`` count the branching nodes searched and those answered from
    a component's table, and ``prunes`` the searches cut by the packing
    bound; all three are summed over components and take no part in equality.
    """

    raw_sets: int
    reduced_sets: int
    components: int
    nodes: int = field(default=0, compare=False)
    memo_hits: int = field(default=0, compare=False)
    prunes: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ResolveResult:
    """Exact metric dimension with a witness.

    ``basis`` is the lexicographically least minimum resolving set (by label
    order). ``all_bases`` is the complete list of minimum resolving sets when
    enumeration was requested, None otherwise. ``stats`` describes the
    branch-and-bound solve (None for the enumeration method); it takes no
    part in equality.
    """

    dimension: int
    basis: tuple[str, ...]
    all_bases: tuple[tuple[str, ...], ...] | None = None
    stats: SolveStats | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PairTable:
    """For each unordered point pair, the set of points that tell it apart.

    Keys are label-sorted pairs. A subset resolves the space exactly when it
    intersects every entry; both members of a pair always belong to their own
    entry, since each is at distance zero from itself only.
    """

    pairs: dict[tuple[str, str], frozenset[str]]


def coordinates(
    space: FiniteMetricSpace, landmarks: tuple[str, ...] | list[str], x: str
) -> tuple[float, ...]:
    """Distances from ``x`` to each landmark, in landmark order."""
    if not landmarks:
        raise ValueError("landmark list is empty")
    xi = space.index(x)
    return tuple(float(space.dist[xi, space.index(lm)]) for lm in landmarks)


def resolves(space: FiniteMetricSpace, subset) -> bool:
    """Whether the distance vectors to ``subset`` separate all points.

    Checks injectivity directly from the definition, on every pair at once,
    at the space's tolerance. Deliberately does not go through the pair
    table so it can serve as an independent check of it.
    """
    _require_finite(space)
    idx = sorted({space.index(p) for p in subset})
    if not idx:
        return False
    cols = space.dist[:, idx]
    for rows in _row_blocks(space.n, space.n * len(idx)):
        # apart[i, j]: some landmark tells i from j; a point is not its own pair.
        apart = (np.abs(cols[rows, None, :] - cols[None, :, :]) > space.tolerance).any(axis=2)
        block = np.arange(rows.start, rows.stop)
        apart[block - rows.start, block] = True
        if not apart.all():
            return False
    return True


def _separator_words(space: FiniteMetricSpace) -> tuple[list[str], np.ndarray]:
    """Label-sorted points and, per pair in label-sorted order, its separators.

    Row ``p`` is pair ``p``'s set as :func:`_packed_words`, bit ``k`` set when the
    ``k``-th point in label order tells the pair apart; an indistinguishable pair's row
    is zero. Blocks of pairs keep memory linear in the pairs; each block's differences
    are taken in place, as a fresh array per step costs about as much as the arithmetic.
    """
    order = sorted(range(space.n), key=space.points.__getitem__)
    d = space.dist.take(order, 0).take(order, 1)
    r = np.arange(space.n)
    first, second = np.nonzero(r[:, None] < r)
    words = np.empty((len(first), -(-space.n // 64)), dtype="<u8")
    for rows in _row_blocks(len(first), space.n):
        diff = d[first[rows]]
        diff -= d[second[rows]]
        words[rows] = _packed_words(np.abs(diff, out=diff) > space.tolerance)
    return [space.points[i] for i in order], words


def _distinguisher_sets(space: FiniteMetricSpace) -> tuple[list[str], list[int]]:
    """:func:`_separator_words` of a finite table, each set an ``int`` bitmask."""
    _require_finite(space)
    labels, words = _separator_words(space)
    return labels, _word_masks(words)


def _packed_words(table: np.ndarray) -> np.ndarray:
    """Each row of a boolean table as little-endian 64-bit words, column ``k`` at bit ``k``."""
    packed = np.packbits(table, axis=1, bitorder="little")
    words = np.zeros((len(packed), -(-table.shape[1] // 64) * 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view("<u8")


def _word_masks(words: np.ndarray) -> list[int]:
    """Each row of :func:`_packed_words` as an ``int`` bitmask.

    One-word rows convert in one ``tolist``; wider rows take one ``int.from_bytes``
    each, which measured faster than combining their words in Python.
    """
    if words.shape[1] == 1:
        return words[:, 0].tolist()
    return [int.from_bytes(row, "little") for row in words]


def _positions(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending."""
    return [i for i, bit in enumerate(reversed(bin(mask))) if bit == "1"]


def _require_distinguishable(labels: list[str], empty: np.ndarray | list[bool]) -> None:
    """Raise on the first pair, in label order, flagged ``empty``: nothing tells it apart."""
    index = np.flatnonzero(empty)
    if len(index):
        u, v = next(itertools.islice(itertools.combinations(labels, 2), index[0], None))
        raise ValueError(f"points {u!r} and {v!r} are indistinguishable at tolerance")


def _greedy_hitting_set(sets: list[int]) -> list[int]:
    """Greedy hitting set: repeatedly take the position hitting most open sets.

    Ties break toward the smaller position, i.e. the smaller label. Every set
    must be non-empty.
    """
    remaining = sets
    chosen: list[int] = []
    while remaining:
        # Summing bit p over the open sets gives p's hit count shifted left by p.
        best = max(
            _positions(reduce(or_, remaining)),
            key=lambda p: sum(map((1 << p).__and__, remaining)) >> p,
        )
        chosen.append(best)
        remaining = [m for m in remaining if not m >> best & 1]
    return sorted(chosen)


def pair_table(space: FiniteMetricSpace) -> PairTable:
    """Build the distinguisher sets for every unordered pair of points."""
    labels, sets = _distinguisher_sets(space)
    by_pair = {
        pair: frozenset(labels[k] for k in _positions(s))
        for pair, s in zip(itertools.combinations(labels, 2), sets)
    }
    in_point_order = (tuple(sorted(pair)) for pair in itertools.combinations(space.points, 2))
    return PairTable({pair: by_pair[pair] for pair in in_point_order})


def greedy_generator(space: FiniteMetricSpace) -> tuple[str, ...]:
    """Greedy resolving set: repeatedly take the point separating most pairs.

    Ties break toward the lexicographically smaller label. The result always
    resolves the space and its size is an upper bound on the dimension.
    """
    labels, sets = _distinguisher_sets(space)
    _require_distinguishable(labels, [not s for s in sets])
    return tuple(labels[i] for i in _greedy_hitting_set(sets))


def _packing_lower_bound(ordered: list[int]) -> int:
    """Greedy packing of pairwise disjoint sets, in the order given.

    Disjoint sets need distinct hitters, so the packing size bounds the
    hitting set from below.
    """
    used = 0
    bound = 0
    for m in ordered:
        if not used & m:
            bound += 1
            used |= m
    return bound


class _Memo(dict):
    """A residual family's ``frozenset`` to ``(size, exact)``, with three counters."""

    nodes = hits = prunes = 0


def _min_hitting_set_size(sets: list[int], budget: int, memo: _Memo) -> int | None:
    """Smallest hitting set size within ``budget``, or None if none fits.

    Branches on the pair with the smallest distinguisher set; a candidate
    tried at a node is banned from its later siblings so subtrees never
    overlap. One sort by size gives a node both that set and its
    disjoint-packing lower bound. The search stops at its own bounds: sets
    that share a point are hit by one, singleton sets are forced without
    branching, a node is cut once its packing bound exceeds what is left of
    the budget, and a node stops branching once a child meets that bound.
    Every set must be non-empty. A branching node's family, banned
    candidates trimmed, keys ``memo``: its size is exact, or a lower bound
    of ``limit + 1`` when the search was cut at ``limit``.
    """

    def search(active: list[int], limit: int) -> int:
        """The minimum when it is at most ``limit``, else a lower bound above it."""
        if not active:
            return 0
        if reduce(and_, active):
            return 1
        ordered = sorted(active, key=lambda m: (m.bit_count(), m))
        bound = _packing_lower_bound(ordered)
        if bound > limit:
            memo.prunes += 1
            return bound
        target = ordered[0]
        if target & (target - 1) == 0:
            return 1 + search([m for m in active if not m & target], limit - 1)
        key = frozenset(active)
        stored = memo.get(key)
        if stored is not None and (stored[1] or stored[0] > limit):
            memo.hits += 1
            return stored[0]
        memo.nodes += 1
        best = limit + 1
        banned = 0
        for cand in _positions(target):
            bit = 1 << cand
            reduced = [m & ~banned for m in active if not m & bit]
            if all(reduced):
                best = min(best, 1 + search(reduced, best - 2))
            if best == bound:
                break
            banned |= bit
        memo[key] = (best, best <= limit)
        return best

    size = search(sets, budget)
    return size if size <= budget else None


def _lex_least_hitting_set(sets: list[int], size: int, memo: _Memo) -> list[int]:
    """The lexicographically least hitting set, of the minimum size ``size``.

    Scans the positions the sets use, in order; a position joins the prefix
    when the sets it misses can still be hit from strictly later positions
    within the rest of the budget. A minimum hitting set uses only positions
    the sets hold and never needs padding. A position that leaves no set
    open fits, and one that leaves sets open with no budget left does not;
    only the other feasibility checks search, sharing ``memo`` with the
    size search.
    """
    chosen: list[int] = []
    active = sets
    for cand in _positions(reduce(or_, sets, 0)):
        if len(chosen) == size:
            break
        bit = 1 << cand
        remaining = [m for m in active if not m & bit]
        # Clearing bit cand and every bit below it keeps the later positions.
        restricted = [m & -(bit << 1) for m in remaining]
        rest_budget = size - len(chosen) - 1
        if not restricted or (
            rest_budget > 0
            and all(restricted)
            and _min_hitting_set_size(restricted, rest_budget, memo) is not None
        ):
            chosen.append(cand)
            active = remaining
    if len(chosen) != size or active:
        raise AssertionError("hitting set reconstruction lost the optimum")
    return chosen


def _minimal_masks(sets: list[int]) -> list[int]:
    """The distinct sets that contain no other set.

    A candidate set hits a superset whenever it hits the subset, so dropping
    duplicates and supersets leaves the hitting sets exactly the same
    (Weihe 1998). Sorting by size puts every subset before its supersets,
    so the smallest set left is always minimal; its copies go with them.
    """
    masks = sorted(sets, key=lambda m: (m.bit_count(), m))
    minimal: list[int] = []
    while masks:
        least = masks[0]
        minimal.append(least)
        masks = [m for m in masks[1:] if least & m != least]
    return minimal


def _components(masks: list[int]) -> list[list[int]]:
    """Group the masks into connected components over shared candidates.

    A hitting set splits into independent parts, one per component.
    """
    groups: list[tuple[int, list[int]]] = []
    for m in masks:
        union, members, apart = m, [m], []
        for g_union, g_members in groups:
            if g_union & m:
                union |= g_union
                members += g_members
            else:
                apart.append((g_union, g_members))
        groups = apart + [(union, members)]
    return [members for _, members in groups]


def _solve_component(masks: list[int], budget: int) -> tuple[list[int] | None, _Memo]:
    """Lex-least minimum hitting set of one component, in global positions.

    None when every hitting set of the component has more than ``budget``
    points. Sets sharing a point are closed by their least common point;
    otherwise the size search and the witness reconstruction share one table,
    returned alongside for its counters; nothing is kept past the call.
    """
    memo = _Memo()
    common = reduce(and_, masks)
    if common and budget >= 1:
        return [(common & -common).bit_length() - 1], memo
    size = _min_hitting_set_size(masks, budget, memo)
    return (None if size is None else _lex_least_hitting_set(masks, size, memo)), memo


def _minimal_family(space: FiniteMetricSpace) -> tuple[list[str], list[int]]:
    """Label-sorted points and the minimal distinguisher sets of a finite table.

    Duplicates are dropped on the words by one sort, so only distinct sets become ints.
    """
    labels, words = _separator_words(space)
    _require_distinguishable(labels, ~words.any(axis=1))
    rows = np.sort(words, axis=0) if words.shape[1] == 1 else words[np.lexsort(words.T)]
    fresh = np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))
    return labels, _minimal_masks(_word_masks(rows[fresh]))


def _least_basis(
    space: FiniteMetricSpace,
    family: tuple[list[str], list[int]],
    must_hit: np.ndarray,
    budget: int,
    enumerate_all: bool = False,
) -> ResolveResult | None:
    """The lex-least smallest resolving set that also meets every row of ``must_hit``.

    ``family`` is the space's :func:`_minimal_family`. ``must_hit`` is a
    boolean table with one column per point, in point order; each row is one
    more set the basis must hit. Returns None when no such set has at most
    ``budget`` points. With no rows and a budget of ``space.n`` this is the
    least metric basis, solved as :func:`metric_dimension` describes. With
    ``enumerate_all`` every such set of the least size is listed as well,
    from the same minimal sets.
    """
    labels, minimal = family
    if len(must_hit):
        extra = _word_masks(_packed_words(must_hit[:, [space.index(p) for p in labels]]))
        if not all(extra):
            return None
        # Every pair's set contains one of the family's, so these reduce alike.
        minimal = _minimal_masks(minimal + extra)
    components = _components(minimal)
    witness: list[int] = []
    nodes = hits = prunes = 0
    for masks in components:
        part, memo = _solve_component(masks, budget - len(witness))
        if part is None:
            return None
        witness += part
        nodes, hits, prunes = nodes + memo.nodes, hits + memo.hits, prunes + memo.prunes
    basis = tuple(labels[i] for i in sorted(witness))
    all_bases = None
    if enumerate_all:
        all_bases = tuple(
            tuple(labels[i] for i in combo)
            for combo in itertools.combinations(range(space.n), len(basis))
            if all(sum(1 << i for i in combo) & m for m in minimal)
        )
    raw_sets = space.n * (space.n - 1) // 2 + len(must_hit)
    stats = SolveStats(raw_sets, len(minimal), len(components), nodes, hits, prunes)
    return ResolveResult(len(basis), basis, all_bases, stats)


class _TableSolves(dict):
    """A space's :func:`_minimal_family` and metric dimension, computed once per table.

    Constrained solves on the same table start from the stored family.
    """

    def __call__(self, space: FiniteMetricSpace) -> tuple[tuple[list[str], list[int]], int]:
        key = _table_key(space)
        if key not in self:
            _require_finite(space)
            family = _minimal_family(space)
            no_rows = np.zeros((0, space.n), dtype=bool)
            self[key] = family, _least_basis(space, family, no_rows, space.n).dimension
        return self[key]


def metric_dimension(
    space: FiniteMetricSpace,
    enumerate_all: bool = False,
    method: str = "bnb",
    max_enumeration_points: int = DEFAULT_ENUMERATION_CAP,
) -> ResolveResult:
    """Exact metric dimension with the lexicographically least witness basis.

    method "bnb" (default) reduces the pair table to its minimal distinct
    distinguisher sets, splits them into components over shared candidates,
    and solves each component by branch and bound, then reconstructs its
    least witness. Two minimum bases compare by the least point of their
    symmetric difference, which lies in one component, so the union of the
    component witnesses is the least basis. method "enumeration" is the
    independent oracle: it tries subsets in lexicographic order by
    increasing size, checking :func:`resolves` directly, and is only meant
    for small spaces.

    With ``enumerate_all`` the complete list of minimum bases is returned as
    well; that walk over all subsets of the optimal size is exponential, so
    it is refused beyond ``max_enumeration_points`` points.
    """
    if method not in ("bnb", "enumeration"):
        raise ValueError(f"unknown method {method!r}")
    _require_finite(space)
    if enumerate_all and space.n > max_enumeration_points:
        raise EnumerationCapExceeded(
            f"complete basis enumeration is capped at {max_enumeration_points} points, "
            f"got {space.n}"
        )

    if method == "enumeration":
        candidates = sorted(space.points)
        found: tuple[str, ...] | None = None
        for k in range(1, space.n):
            for combo in itertools.combinations(candidates, k):
                if resolves(space, combo):
                    found = combo
                    break
            if found is not None:
                break
        if found is None:
            raise ValueError("no resolving set found; the table is not a metric")
        dimension = len(found)
        all_bases = None
        if enumerate_all:
            all_bases = tuple(
                combo
                for combo in itertools.combinations(candidates, dimension)
                if resolves(space, combo)
            )
        return ResolveResult(dimension, found, all_bases)

    no_rows = np.zeros((0, space.n), dtype=bool)
    return _least_basis(space, _minimal_family(space), no_rows, space.n, enumerate_all)
