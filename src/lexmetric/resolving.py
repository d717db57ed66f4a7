"""Resolving sets and exact metric dimension.

A subset resolves a space when the vector of distances to the subset is
different for every point. Finding a minimum resolving set is a minimum
hitting set problem: for each point pair, collect the points that tell the
pair apart, then hit every one of those sets. The branch-and-bound solver
here is exact; an independent subset-enumeration solver is kept behind a
flag as its oracle.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .space import FiniteMetricSpace

DEFAULT_ENUMERATION_CAP = 16


class EnumerationCapExceeded(ValueError):
    """Complete basis enumeration was requested for a space past the cap."""


@dataclass(frozen=True)
class ResolveResult:
    """Exact metric dimension with a witness.

    ``basis`` is the lexicographically least minimum resolving set (by label
    order). ``all_bases`` is the complete list of minimum resolving sets when
    enumeration was requested, None otherwise.
    """

    dimension: int
    basis: tuple[str, ...]
    all_bases: tuple[tuple[str, ...], ...] | None = None


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

    Checks injectivity directly from the definition, pair by pair, at the
    space's tolerance. Deliberately does not go through the pair table so it
    can serve as an independent check of it.
    """
    idx = sorted({space.index(p) for p in subset})
    if not idx:
        return False
    cols = space.dist[:, idx]
    tau = space.tolerance
    for i in range(space.n):
        for j in range(i + 1, space.n):
            if not (np.abs(cols[i] - cols[j]) > tau).any():
                return False
    return True


def _distinguisher_sets(
    space: FiniteMetricSpace,
) -> tuple[list[str], list[frozenset[int]]]:
    """Label-sorted points and, per pair in label-sorted order, its separators.

    Each set holds the label-sorted positions of the points that tell the
    pair apart; an indistinguishable pair gets an empty set.
    """
    order = sorted(range(space.n), key=space.points.__getitem__)
    labels = [space.points[i] for i in order]
    d = space.dist[np.ix_(order, order)]
    positions = range(space.n)
    sets: list[frozenset[int]] = []
    for i in range(space.n - 1):
        masks = np.abs(d[i + 1 :] - d[i]) > space.tolerance
        sets.extend(frozenset(itertools.compress(positions, m)) for m in masks.tolist())
    return labels, sets


def _greedy_hitting_set(labels: list[str], sets: list[frozenset[int]]) -> list[int]:
    """Greedy hitting set: repeatedly take the position hitting most open sets.

    Ties break toward the smaller position, i.e. the smaller label. Raises
    on the first empty set, naming its pair.
    """
    for pair, s in zip(itertools.combinations(labels, 2), sets):
        if not s:
            raise ValueError(
                f"points {pair[0]!r} and {pair[1]!r} are indistinguishable at tolerance"
            )
    remaining = sets
    chosen: list[int] = []
    while remaining:
        hits = Counter(itertools.chain.from_iterable(remaining))
        best = min(hits, key=lambda p: (-hits[p], p))
        chosen.append(best)
        remaining = [s for s in remaining if best not in s]
    return sorted(chosen)


def pair_table(space: FiniteMetricSpace) -> PairTable:
    """Build the distinguisher sets for every unordered pair of points."""
    labels, sets = _distinguisher_sets(space)
    by_pair = {
        pair: frozenset(labels[k] for k in s)
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
    return tuple(labels[i] for i in _greedy_hitting_set(labels, sets))


def _packing_lower_bound(sets: list[frozenset[int]]) -> int:
    """Greedy packing of pairwise disjoint distinguisher sets.

    Disjoint sets need distinct hitters, so the packing size bounds the
    hitting set from below.
    """
    used: set[int] = set()
    bound = 0
    for s in sorted(sets, key=lambda s: (len(s), sorted(s))):
        if used.isdisjoint(s):
            bound += 1
            used |= s
    return bound


def _min_hitting_set_size(sets: list[frozenset[int]], budget: int) -> int | None:
    """Smallest hitting set size within ``budget``, or None if none fits.

    Branches on the pair with the smallest distinguisher set; a candidate
    tried at a node is banned from its later siblings so subtrees never
    overlap. Singleton sets are forced without branching, and nodes are cut
    once the chosen count plus the disjoint-packing bound cannot beat the
    incumbent.
    """
    best: int | None = None

    def search(active: list[frozenset[int]], chosen: int) -> None:
        nonlocal best
        limit = budget if best is None else best - 1
        if chosen > limit:
            return
        if not active:
            best = chosen
            return
        if chosen + _packing_lower_bound(active) > limit:
            return
        target = min(active, key=lambda s: (len(s), sorted(s)))
        if not target:
            return
        if len(target) == 1:
            (forced,) = target
            search([s for s in active if forced not in s], chosen + 1)
            return
        banned: set[int] = set()
        for cand in sorted(target):
            reduced: list[frozenset[int]] = []
            alive = True
            for s in active:
                if cand in s:
                    continue
                trimmed = s - banned
                if not trimmed:
                    alive = False
                    break
                reduced.append(trimmed)
            if alive:
                search(reduced, chosen + 1)
            banned.add(cand)

    search(sets, 0)
    return best


def _lex_least_hitting_set(
    sets: list[frozenset[int]], n_candidates: int, size: int
) -> list[int]:
    """The lexicographically least hitting set of exactly ``size`` candidates.

    Scans candidates in order; a candidate joins the prefix when the prefix
    can still be completed from strictly later candidates. Leftover budget
    can always be padded, so feasibility only needs the minimum completion
    and enough room on the right.
    """
    chosen: list[int] = []
    active = list(sets)
    for cand in range(n_candidates):
        if len(chosen) == size:
            break
        rest_budget = size - len(chosen) - 1
        remaining = [s for s in active if cand not in s]
        if n_candidates - cand - 1 < rest_budget:
            continue
        restricted = []
        feasible = True
        for s in remaining:
            trimmed = frozenset(i for i in s if i > cand)
            if not trimmed:
                feasible = False
                break
            restricted.append(trimmed)
        if feasible and _min_hitting_set_size(restricted, rest_budget) is None:
            feasible = False
        if feasible:
            chosen.append(cand)
            active = remaining
    if len(chosen) != size or active:
        raise AssertionError("hitting set reconstruction lost the optimum")
    return chosen


def metric_dimension(
    space: FiniteMetricSpace,
    enumerate_all: bool = False,
    method: str = "bnb",
    max_enumeration_points: int = DEFAULT_ENUMERATION_CAP,
) -> ResolveResult:
    """Exact metric dimension with the lexicographically least witness basis.

    method "bnb" (default) solves the minimum hitting set over the pair
    table by branch and bound, then reconstructs the least witness. method
    "enumeration" is the independent oracle: it tries subsets in
    lexicographic order by increasing size, checking :func:`resolves`
    directly, and is only meant for small spaces.

    With ``enumerate_all`` the complete list of minimum bases is returned as
    well; that walk over all subsets of the optimal size is exponential, so
    it is refused beyond ``max_enumeration_points`` points.
    """
    if method not in ("bnb", "enumeration"):
        raise ValueError(f"unknown method {method!r}")
    candidates = sorted(space.points)
    if enumerate_all and space.n > max_enumeration_points:
        raise EnumerationCapExceeded(
            f"complete basis enumeration is capped at {max_enumeration_points} points, "
            f"got {space.n}"
        )

    if method == "enumeration":
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

    _, sets = _distinguisher_sets(space)
    upper = len(_greedy_hitting_set(candidates, sets))
    dimension = _min_hitting_set_size(sets, upper)
    if dimension is None:
        raise AssertionError("greedy witness contradicts the search bound")
    witness_idx = _lex_least_hitting_set(sets, len(candidates), dimension)
    basis = tuple(candidates[i] for i in witness_idx)
    all_bases = None
    if enumerate_all:
        hits = []
        for combo in itertools.combinations(range(len(candidates)), dimension):
            combo_set = set(combo)
            if all(combo_set & s for s in sets):
                hits.append(tuple(candidates[i] for i in combo))
        all_bases = tuple(hits)
    return ResolveResult(dimension, basis, all_bases)
