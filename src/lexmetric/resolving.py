"""Resolving sets and exact metric dimension.

A subset resolves a space when the vector of distances to the subset is
different for every point. Finding a minimum resolving set is a minimum
hitting set problem: for each point pair, collect the points that tell the
pair apart, then hit every one of those sets. Each set is packed into 64-bit
words over the label-sorted points, where duplicates are dropped, and each
distinct set is an ``int`` bitmask from there to the witness. The exact
solver then drops supersets and solves each group of sets that share no point
with the others on its own: a group over 8 to 18 points from the subsets of them
that miss some set, all marked at once, any other by branch and bound. An
independent subset-enumeration solver is kept behind a flag as its oracle.
"""

from __future__ import annotations

import itertools
import pickle
import sys
import threading
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import and_, or_

import numpy as np

from .space import FiniteMetricSpace, _require_finite, _row_blocks

DEFAULT_ENUMERATION_CAP = 16
_MEMO_BYTES = 64 << 20
# An entry's dict slot beyond its two strings, with the spare room a dict keeps after growing.
_ENTRY_BYTES = 160
# Components of this many positions are solved by :func:`_cover_least`, with no search.
# Median us per twin-rich K_k o G component (k = 2-6, G on 3-6 vertices, best of 3);
# past 18 positions the cover's ints of 2**p bits are the cost that grows fastest:
#   positions          8    10    12     15     16     18     20
#   cover             40    44    61    133    268    703  3,072
#   branch and bound 169   233   413  1,294  1,381  2,392  4,933
_COVER_POSITIONS = range(8, 19)
# One-word families past this many distinct sets drop supersets in numpy, which
# measured slower than the Python scan up to about 128 sets and faster past it.
_NUMPY_FILTER_SETS = 128


class EnumerationCapExceeded(ValueError):
    """Complete basis enumeration was requested for a space past the cap."""


@dataclass(frozen=True)
class SolveStats:
    """Size of one exact solve after data reduction.

    ``raw_sets`` counts the distinguisher sets, one per point pair;
    ``reduced_sets`` the distinct ones left after dropping supersets; and
    ``components`` the independent groups those split into. ``nodes`` and
    ``memo_hits`` count the branching nodes searched and those answered from
    the solve's one search table, and ``prunes`` the searches cut by the
    packing bound; components share no position, so no entry hits across
    them. A component of 8 to 18 positions is solved by :func:`_cover_least`
    and adds none of them. ``reused``
    counts the components answered from the process-wide memo, with no search;
    when the whole reduced family was met before, every component counts as
    reused and the other three counters are 0. The four take no part in equality.
    """

    raw_sets: int
    reduced_sets: int
    components: int
    nodes: int = field(default=0, compare=False)
    memo_hits: int = field(default=0, compare=False)
    prunes: int = field(default=0, compare=False)
    reused: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ResolveResult:
    """Exact metric dimension with a witness.

    ``basis`` is the lexicographically least minimum resolving set (by label
    order). ``all_bases`` is the complete list of minimum resolving sets when
    enumeration was requested, None otherwise. ``stats`` describes the exact
    solve (None for the enumeration method); it takes no part in equality.
    """

    dimension: int
    basis: tuple[str, ...]
    all_bases: tuple[tuple[str, ...], ...] | None = None
    stats: SolveStats | None = field(default=None, compare=False, repr=False)


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
    is zero. Blocks of pairs keep memory linear; each is gathered by ``take``, differenced in
    place and compared into a zeroed block of whole words. A label-ordered table is not copied.
    """
    n = space.n
    order = sorted(range(n), key=space.points.__getitem__)
    d = space.dist if order == list(range(n)) else space.dist.take(order, 0).take(order, 1)
    first, second = _pair_index(n)
    words = np.empty((len(first), -(-n // 64)), dtype="<u8")
    for rows in _row_blocks(len(first), n):
        diff = d.take(first[rows], 0)
        diff -= d.take(second[rows], 0)
        apart = np.zeros((len(diff), words.shape[1] * 64), dtype=bool)
        np.greater(np.abs(diff, out=diff), space.tolerance, out=apart[:, :n])
        words[rows] = _packed_words(apart)
    return [space.points[i] for i in order], words


@lru_cache(maxsize=32)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Both members of every pair ``i < j`` of ``n`` points, in lexicographic order; read-only."""
    first, second = np.triu_indices(n, 1)
    first.flags.writeable = second.flags.writeable = False
    return first, second


def _distinguisher_sets(space: FiniteMetricSpace) -> tuple[list[str], list[int]]:
    """:func:`_separator_words` of a finite table, each set an ``int`` bitmask."""
    _require_finite(space)
    labels, words = _separator_words(space)
    return labels, _word_masks(words)


def _packed_words(table: np.ndarray) -> np.ndarray:
    """Each boolean row as zero-padded little-endian 64-bit words, column ``k`` at bit ``k``."""
    if table.shape[1] % 64:
        table = np.concatenate((table, np.zeros((len(table), -table.shape[1] % 64), bool)), 1)
    return np.packbits(table, axis=1, bitorder="little").view("<u8")


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


def pair_table(space: FiniteMetricSpace) -> dict[tuple[str, str], frozenset[str]]:
    """For each label-sorted point pair, in point order, the points that tell it apart.

    A subset resolves the space exactly when it intersects every entry; both members
    of a pair belong to their own entry, each being at distance zero from itself only.
    """
    labels, sets = _distinguisher_sets(space)
    by_pair = {
        pair: frozenset(labels[k] for k in _positions(s))
        for pair, s in zip(itertools.combinations(labels, 2), sets)
    }
    in_point_order = (tuple(sorted(pair)) for pair in itertools.combinations(space.points, 2))
    return {pair: by_pair[pair] for pair in in_point_order}


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
    """A residual family's ``frozenset`` to ``(size, exact)``, with four counters."""

    nodes = hits = prunes = reused = 0


def _search(active: list[int], limit: int, memo: _Memo) -> int:
    """The minimum when it is at most ``limit``, else a lower bound above it.

    The search of :func:`_min_hitting_set_size`. It is a module function rather than
    a closure, so no reference cycle keeps ``memo`` alive past its solve.
    """
    if not active:
        return 0
    if reduce(and_, active):
        return 1
    # Sorted by value, then stably by size: size order with ties by value.
    ordered = sorted(sorted(active), key=int.bit_count)
    bound = _packing_lower_bound(ordered)
    if bound > limit:
        memo.prunes += 1
        return bound
    target = ordered[0]
    if target & (target - 1) == 0:
        return 1 + _search([m for m in active if not m & target], limit - 1, memo)
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
            best = min(best, 1 + _search(reduced, best - 2, memo))
        if best == bound:
            break
        banned |= bit
    memo[key] = (best, best <= limit)
    return best


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
    size = _search(sets, budget, memo)
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
    """The distinct sets that contain no other set, by size, then value.

    A candidate set hits a superset whenever it hits the subset, so dropping
    duplicates and supersets leaves the hitting sets exactly the same
    (Weihe 1998). In (size, value) order a set's subsets and copies come first, so
    it is kept unless a kept set lies in it; the scan stops at the first that does.
    """
    minimal: list[int] = []
    for m in sorted(sorted(sets), key=int.bit_count):
        for least in minimal:
            if least & m == least:
                break
        else:
            minimal.append(m)
    return minimal


def _components(masks: list[int]) -> list[list[int]]:
    """Group the masks into connected components over shared candidates.

    A hitting set splits into independent parts, one per component. Each part grows
    from the last mask left, taking every mask that meets its union, until a pass
    takes none; parts come out in the order of their last masks.
    """
    parts = []
    rest = masks[::-1]
    while rest:
        union, part, taken = rest[0], [], -1
        while taken != len(part):
            taken, apart = len(part), []
            for m in rest:
                if m & union:
                    union |= m
                    part.append(m)
                else:
                    apart.append(m)
            rest = apart
        parts.append(part)
    return parts[::-1]


@lru_cache(maxsize=None)
def _subset_tables(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Subsets of ``p`` positions as the bits of an int, subset ``s`` at bit ``s``: per
    position ``j`` those without bit ``j``, and per size ``k`` those of ``k`` positions.
    Each is the table of ``p - 1`` positions twice, the new position in the upper copy."""
    if not p:
        return (), (1,)
    without, by_size = _subset_tables(p - 1)
    half = 1 << (p - 1)
    without = (*(w | w << half for w in without), (1 << half) - 1)
    return without, tuple(a | b << half for a, b in zip((*by_size, 0), (0, *by_size)))


def _cover_least(masks: list[int]) -> list[int]:
    """The lex-least minimum hitting set, from the subsets of positions that miss some set.

    Subset ``s`` has bit ``j`` for the ``j``-th highest position. A subset misses a set
    exactly when it lies in the set's complement, so each complement is marked missing,
    and the mark spreads to every subset by dropping one position at a time. Of the subsets
    of the least size left, the lex-least holds the least position of any symmetric
    difference, the highest differing bit, so it is the highest. Masks go through bytes,
    as a component may use positions past bit 63.
    """
    positions = _positions(reduce(or_, masks))[::-1]
    width = positions[0] // 8 + 1
    flat = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
    hit = np.unpackbits(flat.reshape(len(masks), width), axis=1, bitorder="little")
    p = len(positions)
    marks = bytearray((1 << p) + 7 >> 3)
    for code in ((hit[:, positions] == 0) @ (1 << np.arange(p))).tolist():
        marks[code >> 3] |= 1 << (code & 7)
    missing = int.from_bytes(marks, "little")
    without, by_size = _subset_tables(p)
    for j, rest in enumerate(without):
        missing |= (missing >> (1 << j)) & rest
    covering = ((1 << (1 << p)) - 1) ^ missing
    least = next(fits for level in by_size if (fits := level & covering))
    return sorted(positions[j] for j in _positions(least.bit_length() - 1))


def _solve_component(masks: list[int], memo: _Memo) -> list[int]:
    """Lex-least minimum hitting set of one component, in global positions.

    Sets sharing a point are closed by their least common point. Otherwise the
    process-wide memo is keyed by the sets shifted down to their least position,
    sorted, so one family has one key; a shift keeps the order of positions, so it
    keeps the lex-least witness, stored as offsets, and a hit counts in
    ``memo.reused``. A new component of 8 to 18 positions is solved by
    :func:`_cover_least`, with no search; any other gets the size search, bounded by
    its position count, and the witness reconstruction, both in ``memo``.
    """
    common = reduce(and_, masks)
    if common:
        return [(common & -common).bit_length() - 1]
    union = reduce(or_, masks)
    low = (union & -union).bit_length() - 1
    key = pickle.dumps(sorted([m >> low for m in masks]))
    held = _TABLES.get(key)
    if held is not None:
        memo.reused += 1
        return [low + k for k in pickle.loads(held)]
    if union.bit_count() in _COVER_POSITIONS:
        witness = _cover_least(masks)
    else:
        size = _min_hitting_set_size(masks, union.bit_count(), memo)
        witness = _lex_least_hitting_set(masks, size, memo)
    _TABLES.store(key, [k - low for k in witness])
    return witness


def _minimal_family(space: FiniteMetricSpace) -> tuple[list[str], list[int]]:
    """Label-sorted points and the minimal distinguisher sets of a finite table.

    Rows are sorted (a 1-D sort for one word) and deduplicated before any int; zero sorts first.
    More than ``_NUMPY_FILTER_SETS`` distinct one-word rows drop supersets in :func:`_minimal_rows`.
    """
    labels, words = _separator_words(space)
    if words.shape[1] == 1:
        rows = np.sort(words, axis=None)
        rows = rows[np.concatenate(([True], rows[1:] != rows[:-1]))]
        if rows[0] and len(rows) > _NUMPY_FILTER_SETS:
            return labels, _minimal_rows(rows)
        masks = rows.tolist()
    else:
        rows = words[np.lexsort(words.T)]
        masks = _word_masks(rows[np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))])
    if not masks[0]:
        _require_distinguishable(labels, ~words.any(axis=1))
    return labels, _minimal_masks(masks)


def _minimal_rows(rows: np.ndarray) -> list[int]:
    """:func:`_minimal_masks` of distinct one-word sets in value order, one size class at a time.

    The smallest class left is minimal, as sets of one size cannot hold one another;
    one broadcast AND drops every larger set that holds a member of it.
    """
    sizes = np.bitwise_count(rows)
    order = np.argsort(sizes, kind="stable")
    rows, sizes = rows[order], sizes[order]
    minimal = []
    while len(rows):
        k = np.searchsorted(sizes, sizes[0], "right")
        least, rows, sizes = rows[:k], rows[k:], sizes[k:]
        minimal.append(least)
        keep = ((rows[:, None] & least) != least).all(axis=1)
        rows, sizes = rows[keep], sizes[keep]
    return np.concatenate(minimal).tolist()


def _least_basis(
    space: FiniteMetricSpace, family: tuple, must_hit: np.ndarray, enumerate_all: bool = False
) -> ResolveResult:
    """The lex-least smallest resolving set that also meets every row of ``must_hit``.

    ``family`` is the space's :func:`_minimal_family`. ``must_hit`` is a
    boolean table with one column per point, in point order; each row is one
    more set the basis must hit, and none may be empty. With no rows this is
    the least metric basis, solved as :func:`metric_dimension` describes. With
    ``enumerate_all`` every such set of the least size is listed as well,
    from the same minimal sets. The reduced family, ``must_hit`` rows merged
    in, is looked up whole in the process-wide memo first: a family met
    before, in any space, is answered in one lookup, with no split into
    components, and a new one is stored once all its components are solved.
    """
    labels, minimal = family
    if len(must_hit):
        extra = _word_masks(_packed_words(must_hit[:, [space.index(p) for p in labels]]))
        # Every pair's set contains one of the family's, so these reduce alike.
        minimal = _minimal_masks([*minimal, *extra])
    # The tag keeps a family's key apart from every component's.
    key = pickle.dumps((minimal, "family"))
    held = _TABLES.get(key)
    memo = _Memo()
    if held is not None:
        witness, components = pickle.loads(held)
        memo.reused = components
    else:
        parts = _components(minimal)
        witness = sorted(i for masks in parts for i in _solve_component(masks, memo))
        witness, components = _TABLES.store(key, (witness, len(parts)))
    basis = tuple(labels[i] for i in witness)
    all_bases = None
    if enumerate_all:
        all_bases = tuple(
            tuple(labels[i] for i in combo)
            for combo in itertools.combinations(range(space.n), len(basis))
            if all(sum(1 << i for i in combo) & m for m in minimal)
        )
    raw_sets = space.n * (space.n - 1) // 2 + len(must_hit)
    stats = SolveStats(
        raw_sets, len(minimal), components, memo.nodes, memo.hits, memo.prunes, memo.reused
    )
    return ResolveResult(len(basis), basis, all_bases, stats)


def _charge(key: bytes, value: bytes) -> int:
    """What a memo entry holds, in bytes."""
    return sys.getsizeof(key) + sys.getsizeof(value) + _ENTRY_BYTES


class _TableMemo(dict):
    """Pickled results under pickled keys, dropped oldest first past ``_MEMO_BYTES``.

    A key is one of two kinds, both canonical: a reduced family's sets in (size, value)
    order tagged ``"family"`` (its value: the least hitting set's positions and the
    component count), or a hitting-set component's sorted, shifted sets. Each hit is a
    fresh copy, so no caller can change what is held. Each entry is charged
    :func:`_charge`, worked out again when dropped. Entries are stored whole under the
    lock, though two threads may compute one; ``nbytes`` rises before a store and falls
    after a drop, so it never reads below the charges held.
    """

    nbytes = 0
    lock = threading.Lock()

    def store(self, key: bytes, value):
        """Keep ``value`` pickled under ``key``, unless an entry is there already; return it."""
        held = pickle.dumps(value)
        with self.lock:
            if key not in self:
                self.nbytes += _charge(key, held)
                self[key] = held
            while self and self.nbytes > _MEMO_BYTES:
                oldest = next(iter(self))
                self.nbytes -= _charge(oldest, self.pop(oldest))
        return value

    def clear(self) -> None:
        with self.lock:
            super().clear()
            self.nbytes = 0


_TABLES = _TableMemo()


def _table_solve(space: FiniteMetricSpace) -> tuple[tuple[list[str], list[int]], int]:
    """A space's :func:`_minimal_family` and metric dimension."""
    _require_finite(space)
    family = _minimal_family(space)
    return family, _least_basis(space, family, np.zeros((0, space.n), bool)).dimension


def metric_dimension(
    space: FiniteMetricSpace,
    enumerate_all: bool = False,
    method: str = "bnb",
    max_enumeration_points: int = DEFAULT_ENUMERATION_CAP,
) -> ResolveResult:
    """Exact metric dimension with the lexicographically least witness basis.

    method "bnb" (default) reduces the pair table to its minimal distinct
    distinguisher sets, splits them into components over shared candidates,
    and solves each component: one of 8 to 18 positions from the subsets of
    them that miss some set, any other by branch and bound, then the
    reconstruction of its least witness. Two minimum bases compare by the
    least point of their symmetric difference, which lies in one component,
    so the union of the component witnesses is the least basis. method
    "enumeration" is the independent oracle: it tries subsets in
    lexicographic order by increasing size, checking :func:`resolves`
    directly, and is only meant for small spaces.

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
        subsets = (c for k in range(1, space.n) for c in itertools.combinations(candidates, k))
        found = next((combo for combo in subsets if resolves(space, combo)), None)
        if found is None:
            raise ValueError("no resolving set found; the table is not a metric")
        dimension = len(found)
        all_bases = None
        if enumerate_all:
            combos = itertools.combinations(candidates, dimension)
            all_bases = tuple(combo for combo in combos if resolves(space, combo))
        return ResolveResult(dimension, found, all_bases)

    return _least_basis(space, _minimal_family(space), np.zeros((0, space.n), bool), enumerate_all)
