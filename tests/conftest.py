"""Shared fixtures and generators.

Random objects are built from seeded random.Random instances so every
test run sees identical inputs; hypothesis supplies the shrinking layer
on top for the property tests.
"""

from __future__ import annotations

import random
import re
from itertools import combinations, permutations
from itertools import product as iter_product
from typing import Callable, Iterator, Sequence

import numpy as np
from hypothesis import HealthCheck, settings

from orderdim.budget import BudgetMeter
from orderdim.dimension import _RealizerSearch, _checked, all_linear_extensions
from orderdim.errors import (
    CycleIntroduced,
    DuplicateLabel,
    ElementMismatch,
    InvalidEmbedding,
    ReflexiveViolation,
    SelfCheckFailed,
    TooSmall,
    TransitivityViolation,
)
from orderdim.geometry import PartialEmbedding, as_fraction
from orderdim.poset import (
    FinitePoset,
    LinearOrder,
    OrderedStructure,
    RealizerTuple,
    _bits,
    _closure,
    _first_loop,
    grid,
    product_less,
    validate_poset,
)
from orderdim.ramsey import _grid_groups, all_subgrids

settings.register_profile(
    "fast",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fast")


def transitive_close(mat: np.ndarray) -> np.ndarray:
    """Matrix closure; the oracle for the library's bit-row closure."""
    out = mat.copy()
    for k in range(out.shape[0]):
        out |= np.outer(out[:, k], out[k, :])
    return out


def random_poset(rng: random.Random, m: int) -> FinitePoset:
    """Random m-element poset: random edges along a random permutation, closed."""
    labels = [f"x{i}" for i in range(m)]
    perm = list(range(m))
    rng.shuffle(perm)
    density = rng.uniform(0.1, 0.6)
    mat = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < density:
                mat[perm[i], perm[j]] = True
    return validate_poset(labels, transitive_close(mat))


def random_structure(rng: random.Random, m: int, n: int) -> OrderedStructure:
    """Random ordered structure: n random orders, poset = their intersection."""
    labels = [f"s{i}" for i in range(m)]
    orders = []
    for _ in range(n):
        seq = labels[:]
        rng.shuffle(seq)
        orders.append(LinearOrder(seq))
    return OrderedStructure.from_orders(orders)


def all_posets_on(labels: tuple[str, ...]) -> list[FinitePoset]:
    """Every strict partial order on the given labels (labeled, exhaustive)."""
    m = len(labels)
    cells = [(i, j) for i in range(m) for j in range(m) if i != j]
    out = []
    for bits in range(1 << len(cells)):
        mat = np.zeros((m, m), dtype=bool)
        for c, (i, j) in enumerate(cells):
            if (bits >> c) & 1:
                mat[i, j] = True
        if (mat & mat.T).any():
            continue
        closed = transitive_close(mat)
        if not np.array_equal(closed, mat):
            continue
        out.append(FinitePoset(labels, mat))
    return out


def naive_is_realizer(p: FinitePoset, t: RealizerTuple) -> bool:
    """Pairwise biconditional check, plain loops, no matrix shortcuts."""
    for a in p.elements:
        for b in p.elements:
            if a == b:
                continue
            in_all = all(o.rank[a] < o.rank[b] for o in t.orders)
            if in_all != p.less(a, b):
                return False
    return True


def is_chain(p: FinitePoset) -> bool:
    """Every two elements are comparable, asked through poset.less."""
    return all(a == b or p.less(a, b) or p.less(b, a) for a in p.elements for b in p.elements)


def less_pairs(p: FinitePoset) -> set[tuple[str, str]]:
    """Every related pair (a, b), a < b, read off `less`."""
    return {(a, b) for a in p.elements for b in p.elements if p.less(a, b)}


def generalised_crown(n: int, k: int) -> FinitePoset:
    """Trotter's crown S_n^k ("Dimension of the crown S_n^k", Discrete
    Math. 8, 1974), built through the checking constructor: minimal
    elements a1..a(n+k) and maximal b1..b(n+k), each a_i incomparable to
    b_i, b_(i+1), ..., b_(i+k), indices mod n + k, and below every other
    b_j.  S_n^0 is the crown of 2n elements; for n >= 3 and k >= 0 the
    dimension is ceil(2(n + k) / (k + 2))."""
    m = n + k
    labels = [f"a{i}" for i in range(1, m + 1)] + [f"b{i}" for i in range(1, m + 1)]
    lt = [[False] * 2 * m for _ in range(2 * m)]
    for i in range(m):
        for j in range(m):
            lt[i][m + j] = (j - i) % m > k
    return FinitePoset(labels, lt)


def random_poset_shuffled(rng: random.Random, m: int) -> FinitePoset:
    """random_poset with its labels dealt out of index order, so that
    breaking ties by label and by element index differ."""
    labels = [f"x{i}" for i in range(m)]
    rng.shuffle(labels)
    return FinitePoset(labels, random_poset(rng, m).lt)


def naive_critical_pairs(p: FinitePoset) -> list[tuple[str, str]]:
    """Critical pairs, in element index order: incomparable x, y with
    everything below x below y and everything above y above x."""
    e = p.elements
    return [
        (x, y)
        for x in e
        for y in e
        if p.incomparable(x, y)
        and all(p.less(z, y) for z in e if p.less(z, x))
        and all(p.less(x, z) for z in e if p.less(y, z))
    ]


def _reversal_masks(
    exts: list[LinearOrder], pairs: list[tuple[str, str]]
) -> list[int]:
    """Bit c set iff the extension puts pairs[c][1] below pairs[c][0]."""
    masks = []
    for ext in exts:
        rank = ext.rank
        mask = 0
        for c, (x, y) in enumerate(pairs):
            if rank[y] < rank[x]:
                mask |= 1 << c
        masks.append(mask)
    return masks


def _search_cover(masks: list[int], full: int, n: int) -> tuple[int, ...] | None:
    """First non-decreasing index tuple of length n whose masks cover full."""
    count = len(masks)
    suffix_union = [0] * (count + 1)
    suffix_best = [0] * (count + 1)
    for i in range(count - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1] | masks[i]
        pop = bin(masks[i]).count("1")
        suffix_best[i] = max(suffix_best[i + 1], pop)
    chosen: list[int] = []

    def rec(start: int, uncovered: int, slots: int) -> bool:
        if uncovered == 0:
            while len(chosen) < n:
                chosen.append(chosen[-1] if chosen else 0)
            return True
        if slots == 0 or start >= count:
            return False
        if uncovered & ~suffix_union[start]:
            return False
        if slots * suffix_best[start] < bin(uncovered).count("1"):
            return False
        for i in range(start, count):
            if slots == 1 and uncovered & ~masks[i]:
                continue
            chosen.append(i)
            if rec(i, uncovered & ~masks[i], slots - 1):
                return True
            chosen.pop()
        return False

    if count == 0:
        return None
    if rec(0, full, n):
        return tuple(chosen)
    return None


class CoverSearch:
    """The enumerate-and-cover realizer search, the oracle for the
    colouring search: list the extension stream once, then search index
    tuples for a cover of the critical pairs."""

    def __init__(self, p: FinitePoset):
        self.exts = list(all_linear_extensions(p))
        pairs = naive_critical_pairs(p)
        self.masks = _reversal_masks(self.exts, pairs)
        self.full = (1 << len(pairs)) - 1

    def realizers(self, n: int) -> RealizerTuple | None:
        """The lexicographically first non-decreasing n-tuple of stream
        indices whose members reverse every critical pair."""
        hit = _search_cover(self.masks, self.full, n)
        if hit is None:
            return None
        return RealizerTuple([self.exts[i] for i in hit])

    def dimension(self) -> tuple[int, RealizerTuple]:
        """Least n with a cover, and its witness."""
        for n in range(1, len(self.exts[0]) + 1):
            witness = self.realizers(n)
            if witness is not None:
                return n, witness
        raise AssertionError("every finite poset has a realizer")


def oracle_conflict_order(search) -> tuple[list[int], list[int]]:
    """A search's conflict rows and pair order, built pair by pair with a
    tuple key, the oracle for `_RealizerSearch._conflict_order`."""
    m = len(search.up)
    by_x = [0] * m
    by_y = [0] * m
    for c, (x, y) in enumerate(search.pairs):
        by_x[x] |= 1 << c
        by_y[y] |= 1 << c
    conflicts = []
    for a, b in search.pairs:
        with_y = with_x = 0
        for v in range(m):
            if v == a or search.up[a] >> v & 1:
                with_y |= by_y[v]
            if v == b or search.down[b] >> v & 1:
                with_x |= by_x[v]
        conflicts.append(with_y & with_x)
    score = [0] * len(search.pairs)
    degree = [bin(c).count("1") for c in conflicts]
    left = set(range(len(search.pairs)))
    out = []
    while left:
        c = max(left, key=lambda i: (score[i], degree[i], -i))
        left.remove(c)
        out.append(c)
        for d in range(len(search.pairs)):
            if conflicts[c] >> d & 1:
                score[d] += 1
    return conflicts, out


def splits(search, mask: int, t: int) -> bool:
    """Whether the pairs in mask split into at most t reversible classes:
    by the pair count, for t = 2 by the odd-cycle test, which refuses but
    cannot accept a subset, and then by `oracle_colour`."""
    if mask == 0:
        return True
    if t <= 0:
        return False
    if mask.bit_count() <= t:
        return True
    return (t != 2 or search._bipartite(mask) is not None) and oracle_colour(search, mask, t)


def oracle_first_extension(search, unreversed: int, r: int) -> tuple[list[int], int]:
    """The first extension in stream order whose leftover pairs, of those
    in unreversed, split into r classes, and the pairs it reverses: a
    depth-first walk, smallest element index first, that asks `splits` at
    every candidate."""
    m = len(search.up)
    x_of = [0] * m
    y_of = [0] * m
    for c, (x, y) in enumerate(search.pairs):
        if unreversed >> c & 1:
            x_of[x] |= 1 << c
            y_of[y] |= 1 << c
    everything = (1 << m) - 1
    order: list[int] = []
    dead: set[tuple[int, int]] = set()
    stack = [[0, 0, 0, 0]]
    while stack:
        frame = stack[-1]
        taken, kept, y_placed, i = frame
        if taken == everything:
            return order, unreversed & ~kept
        while i < m:
            if not taken >> i & 1 and not search.down[i] & ~taken:
                grown = kept | x_of[i] & ~y_placed
                state = (taken | 1 << i, grown)
                if state not in dead and splits(search, grown, r):
                    frame[3] = i + 1
                    order.append(i)
                    stack.append([taken | 1 << i, grown, y_placed | y_of[i], 0])
                    break
            i += 1
        else:
            dead.add((taken, kept))
            stack.pop()
            if order:
                order.pop()
    raise SelfCheckFailed("no linear extension completes the realizer")


def oracle_first_witness(p: FinitePoset, n: int) -> RealizerTuple:
    """The lexicographically first n-order witness in the extension
    stream, rebuilt greedily without listing the stream: slot k of n
    repeats the previous order while the pairs still unreversed split into
    n - k classes, and otherwise takes their `oracle_first_extension`.
    `CoverSearch.realizers` defines the same tuple by enumeration, which
    costs too much memory past about ten elements."""
    search = _RealizerSearch(p, 10**9)
    orders: list[list[int]] = []
    unreversed = search.full
    for k in range(1, n + 1):
        if orders and splits(search, unreversed, n - k):
            orders.append(orders[-1])
            continue
        order, reversed_ = oracle_first_extension(search, unreversed, n - k)
        orders.append(order)
        unreversed &= ~reversed_
    return _checked(p, orders)


def oracle_class_extension(search, mask: int) -> list[int]:
    """The lexicographically least topological order of the poset with y
    put below x for each pair (x, y) in mask, by picking the least element
    whose predecessors are all placed: the oracle for the extension
    `_RealizerSearch.witness` builds for each class."""
    m = len(search.up)
    before = [{i for i in range(m) if search.down[j] >> i & 1} for j in range(m)]
    for c, (x, y) in enumerate(search.pairs):
        if mask >> c & 1:
            before[x].add(y)
    order: list[int] = []
    while len(order) < m:
        order.append(min(j for j in range(m) if j not in order and before[j] <= set(order)))
    return order


def oracle_extensions(down: Sequence[int], meter) -> Iterator[tuple[int, ...]]:
    """The extension stream by an index-by-index walk: at each depth try
    the elements in index order, the first one not taken whose down row
    is all taken goes next, and a dead end moves the deepest element on
    to the next index.  One tick of the meter per sequence, before it is
    yielded, by the number of elements placed since the last one; a
    cyclic relation yields nothing, since the walk stops at its first
    dead end.  The walk the stream `poset._extensions` ran before it
    took its sequences from `poset._complete`, and its oracle."""
    m = len(down)
    order = [0] * m
    taken = d = i = placed = 0
    while True:
        if d == m:
            meter.tick(placed)
            placed = 0
            yield tuple(order)
        else:
            fresh = i == 0
            while i < m and (taken >> i & 1 or down[i] & ~taken):
                i += 1
            if i < m:
                order[d] = i
                taken |= 1 << i
                placed += 1
                d += 1
                i = 0
                continue
            if fresh:
                return
        if d == 0:
            return
        d -= 1
        i = order[d]
        taken ^= 1 << i
        i += 1


def naive_two_colourable(search, mask: int) -> bool:
    """Whether the pairs in mask 2-colour so that no two pairs forming a
    2-cycle (a <= d and c <= b for (a, b), (c, d)) share a colour; by
    depth-first colouring, the oracle for the odd-cycle prune."""
    pairs = [c for c in range(len(search.pairs)) if mask >> c & 1]

    def leq(u: int, v: int) -> bool:
        return u == v or bool(search.up[u] >> v & 1)

    def clash(c: int, d: int) -> bool:
        (a, b), (x, y) = search.pairs[c], search.pairs[d]
        return leq(a, y) and leq(x, b)

    colour: dict[int, int] = {}
    for start in pairs:
        if start in colour:
            continue
        colour[start] = 0
        todo = [start]
        while todo:
            c = todo.pop()
            for d in pairs:
                if d != c and clash(c, d):
                    if d not in colour:
                        colour[d] = 1 - colour[c]
                        todo.append(d)
                    elif colour[d] == colour[c]:
                        return False
    return True


def naturally_labelled_posets(m: int) -> Iterator[FinitePoset]:
    """Every poset on m elements in which i below j implies i < j as
    indices, built as bit rows: element k comes in on top of the first k
    with any down-closed set of them below it."""
    labels = tuple(f"n{i}" for i in range(m))

    def grow(up: list[int], down: list[int]) -> Iterator[FinitePoset]:
        k = len(down)
        if k == m:
            yield FinitePoset.from_rows(labels, up)
            return
        for below in range(1 << k):
            if all(not down[i] & ~below for i in _bits(below)):
                lifted = [row | (below >> i & 1) << k for i, row in enumerate(up)]
                yield from grow(lifted + [0], down + [below])

    return grow([], [])


def reverse_pair(above: Sequence[int], lo: int, hi: int) -> list[int] | None:
    """Strict reachability rows with lo < hi added, or None if that closes
    a cycle: one pair at a time, the oracle for `poset._reverse`,
    which adds every pair ending at hi in one pass on reflexive rows."""
    if above[hi] >> lo & 1:
        return None
    gain = above[hi] | 1 << hi
    bit = 1 << lo
    out = [row | gain if row & bit else row for row in above]
    out[lo] |= gain
    return out


def oracle_verify_chase(
    base: Sequence[int], free: Sequence[tuple[int, int]], fragments: Sequence[int]
) -> bool:
    """The AP chase by a Warshall closure per added relation: the oracle
    for `homogeneity._verify_chase`, which closes each one in one pass.
    Relating either end of a free pair below the other must close a cycle
    or change a relation inside a fragment."""
    for x, y in free:
        for lo, hi in ((x, y), (y, x)):
            rows = list(base)
            rows[lo] |= 1 << hi
            closed = _closure(rows)
            if _first_loop(closed) is None and not any(
                (closed[r] ^ base[r]) & mask for mask in fragments for r in _bits(mask)
            ):
                return False
    return True


def identity_seeded_back_and_forth(monkeypatch):
    """Back-and-forth whose seeds fix the first pair's points, so the
    grown map keeps that pair where it is instead of sending it onto the
    second."""
    from orderdim import homogeneity

    real = homogeneity.back_and_forth_iso

    def seeded(a, b, steps, seed_matches):
        return real(a, b, steps, seed_matches=[(i, i) for i, _ in seed_matches])

    monkeypatch.setattr(homogeneity, "back_and_forth_iso", seeded)


def oracle_colour(search, mask: int, t: int) -> bool:
    """Whether the pairs in mask split into t reversible classes, by the
    chronological backtracking loop that `_RealizerSearch._colour` ran
    before it shared `poset._colour_classes` with the Ramsey search:
    pairs in colouring order, each trying the open classes and then a new
    one, one tick of the search's meter per class tried.  The oracle for
    the kernel's verdicts and step counts."""
    seq = [c for c in search._conflict_order() if mask >> c & 1]
    tick = search.meter.tick
    classes: list[list[int]] = []
    tried = [-1] * len(seq)
    saved: list[list[int] | None] = [None] * len(seq)
    d = 0
    while 0 <= d < len(seq):
        x, y = search.pairs[seq[d]]
        c = tried[d] + 1
        if tried[d] >= 0:
            if saved[d] is None:
                # It opened the newest class, the last option here.
                classes.pop()
                c = t
            else:
                classes[tried[d]] = saved[d]
        while c < len(classes):
            tick()
            grown = reverse_pair(classes[c], y, x)
            if grown is not None:
                break
            c += 1
        if c < len(classes):
            saved[d], classes[c] = classes[c], grown
        elif c == len(classes) < t:
            tick()
            saved[d] = None
            classes.append(reverse_pair(search.up, y, x))
        else:
            tried[d] = -1
            d -= 1
            continue
        tried[d] = c
        d += 1
    return d == len(seq)


def oracle_least_classes(search, limit: int) -> int | None:
    """least_classes as it was before it decided t <= 2 without
    colouring: t = 1 by reversing the pairs in colouring order until a
    cycle closes, t = 2 by the odd-cycle prune and then a 2-colouring,
    each t as a split of the whole pair set, with `oracle_colour` in
    place of the shared kernel.  The oracle for
    `_RealizerSearch.least_classes`."""
    full = search.full
    for t in range(1, limit + 1):
        if full.bit_count() <= t:
            fits = True
        elif t == 1:
            rows = search.up
            for c in search._conflict_order():
                search.meter.tick()
                x, y = search.pairs[c]
                rows = reverse_pair(rows, y, x)
                if rows is None:
                    break
            fits = rows is not None
        elif t == 2:
            fits = search._bipartite(full) is not None and oracle_colour(search, full, 2)
        else:
            fits = oracle_colour(search, full, t)
        if fits:
            return t
    return None


def oracle_intersection_rows(orders, elements) -> list[int]:
    """Bit rows of the pairs every order puts the same way, by sorting on
    each order's ranks: the oracle for `poset._intersection_rows`."""
    m = len(elements)
    out = [(1 << m) - 1] * m
    for o in orders:
        if len(o) != m:
            raise ElementMismatch("orders range over different element sets")
        rank = o.rank
        try:
            pos = [rank[e] for e in elements]
        except KeyError as exc:
            raise ElementMismatch(f"order is missing element {exc.args[0]!r}") from None
        seq = sorted(range(m), key=pos.__getitem__)
        rows = [0] * m
        for k, i in enumerate(seq):
            for j in seq[k + 1:]:
                rows[i] |= 1 << j
        out = [a & b for a, b in zip(out, rows)]
    return out


def cyclic_priority(i: int, n: int) -> list[int]:
    """0-based axis priority i, i+1, ..., n-1, 0, ..., i-1: the axes that
    decide the i-th cyclic lexicographic order, first to last."""
    return [(i + j) % n for j in range(n)]


def lex_less(a: Sequence, b: Sequence, priority: Sequence[int]) -> bool:
    """Is a before b when coordinates are compared in priority order?  The
    pairwise oracle for every cyclic lexicographic order the library
    builds or compares."""
    for axis in priority:
        if a[axis] != b[axis]:
            return a[axis] < b[axis]
    return False


def oracle_grid_points(points: Sequence[tuple], step) -> Iterator[tuple]:
    """Every point of the grid of the given step over the box one unit
    beyond points on every axis: the oracle for the per-axis decisions of
    the Q^n certificates.  A sample of Q^n, so it can refute a decision
    but not prove one."""
    lo = min(v for p in points for v in p) - 1
    hi = max(v for p in points for v in p) + 1
    ticks = []
    t = lo
    while t <= hi:
        ticks.append(t)
        t += step
    return iter_product(ticks, repeat=len(points[0]))


def oracle_point_structure(points: Sequence[tuple]) -> tuple[list[int], list[list[int]]]:
    """The product order's up rows on distinct points, by `product_less`
    on every ordered pair, and the point indices of each cyclic
    lexicographic order, by a sort on coordinate tuples (Fractions for a
    cloud) taken in cyclic priority: the oracle for `poset`'s product
    builder, as clouds and grids were built before it."""
    k, n = len(points), len(points[0])
    up = [sum(1 << j for j in range(k) if product_less(points[i], points[j])) for i in range(k)]
    orders = []
    for i in range(n):
        pri = [(i + j) % n for j in range(n)]
        orders.append(sorted(range(k), key=lambda t: tuple(points[t][a] for a in pri)))
    return up, orders


def oracle_verify(emb: PartialEmbedding) -> None:
    """`PartialEmbedding.verify` as it was written pairwise: the dimension
    and injectivity guards, then every ordered pair of the domain on every
    cyclic lexicographic order (`lex_less`) and on the product order
    (`product_less`).  It assumes what the library now checks: distinct
    domain elements of the source and point indices inside the cloud."""
    n = emb.source.n
    if n != emb.cloud.dim:
        raise InvalidEmbedding(f"structure has {n} orders but cloud dimension is {emb.cloud.dim}")
    seen = [idx for _, idx in emb.images]
    if len(set(seen)) != len(seen):
        raise InvalidEmbedding("two elements map to the same point")
    orders = emb.source.realizers.orders
    pris = [cyclic_priority(i, n) for i in range(n)]
    for x, xi in emb.images:
        for y, yi in emb.images:
            if x == y:
                continue
            px, py = emb.cloud.points[xi], emb.cloud.points[yi]
            for i in range(n):
                before = orders[i].rank[x] < orders[i].rank[y]
                if before != lex_less(px, py, pris[i]):
                    raise InvalidEmbedding(f"order {i + 1} not preserved on ({x}, {y})")
            if emb.source.poset.less(x, y) != product_less(px, py):
                raise InvalidEmbedding(f"product order not preserved on ({x}, {y})")


def naive_free_coloring(
    num_cells: int, k: int, groups: list[list[int]]
) -> list[int] | None:
    """The Ramsey coloring search with no color-symmetry cut, the oracle
    for the library's: the first coloring in lexicographic order, cells
    in index order, that leaves every group non-monochromatic, or None.
    Recursive and unbudgeted, so for small inputs only."""
    closers: dict[int, list[list[int]]] = {}
    for members in groups:
        closers.setdefault(max(members), []).append(members)
    colors = [0] * num_cells

    def alive(t: int) -> bool:
        for members in closers.get(t, ()):
            first = colors[members[0]]
            if all(colors[c] == first for c in members):
                return False
        return True

    def descend(t: int) -> bool:
        if t == num_cells:
            return True
        for col in range(1, k + 1):
            colors[t] = col
            if alive(t) and descend(t + 1):
                return True
        colors[t] = 0
        return False

    return list(colors) if descend(0) else None


def naive_is_copy(
    a: OrderedStructure, b: OrderedStructure, phi: dict[str, str]
) -> bool:
    """Does phi embed a into b?  Label by label: phi keeps every order of
    a, each tested on its neighbouring pairs by rank, and x < y in a
    exactly when phi(x) < phi(y) in b, asked through poset.less for each
    pair."""
    for i in range(a.n):
        seq = a.realizers.orders[i].order
        rank = b.realizers.orders[i].rank
        if any(
            rank[phi[x]] >= rank[phi[y]] for x, y in zip(seq, seq[1:])
        ):
            return False
    for x in a.elements:
        for y in a.elements:
            if x != y and a.poset.less(x, y) != b.poset.less(phi[x], phi[y]):
                return False
    return True


def oracle_copies(b: OrderedStructure, a: OrderedStructure) -> list[tuple[str, ...]]:
    """`ramsey.enumerate_copies` by the subset walk: every subset of the
    host of the pattern's size, in lexicographic order of index lists,
    tested by naive_is_copy against the one map that matches first-order
    ranks (linear realizers allow no other).  Unbudgeted, so for small
    hosts only."""
    if a.n != b.n:
        raise ElementMismatch("pattern and host carry different realizer counts")
    a_by_first = a.realizers.orders[0].order
    first_rank = b.realizers.orders[0].rank
    copies = []
    for subset in combinations(b.elements, len(a)):
        phi = dict(zip(a_by_first, sorted(subset, key=first_rank.__getitem__)))
        if naive_is_copy(a, b, phi):
            copies.append(tuple(phi[e] for e in a.elements))
    return copies


def oracle_embeddings(
    a_up: Sequence[Sequence[int]], b_up: Sequence[Sequence[int]], allowed: Sequence[int]
) -> tuple[list[tuple[int, ...]], int]:
    """`poset._embeddings` by brute force: every one-to-one map of the
    items into b's elements, in lexicographic order, that puts each item
    in its allowed mask and relates every ordered pair of images in each
    relation exactly as the pair of items.  Also the number of nonempty
    partial maps of the first items that pass the same test: the
    placements the search makes."""
    size = len(b_up[0])

    def fits(image: tuple[int, ...]) -> bool:
        return all(allowed[k] >> x & 1 for k, x in enumerate(image)) and all(
            (rel[i] >> j & 1) == (up[x] >> y & 1)
            for rel, up in zip(a_up, b_up)
            for i, x in enumerate(image)
            for j, y in enumerate(image)
            if i != j
        )

    maps = [image for image in permutations(range(size), len(allowed)) if fits(image)]
    placements = sum(
        fits(image)
        for length in range(1, len(allowed) + 1)
        for image in permutations(range(size), length)
    )
    return maps, placements


# --- the induced-coloring argument, object by object ----------------------
#
# `oracle_ramsey_reduction` runs the argument on index lists.  The
# oracles after it run it on axis tuples and label tuples, as the
# library's value-class pipeline did: subgrids as per-axis value tuples in
# canonical order (per-axis combinations, row-major), colourings as lists
# aligned with that order or as dicts keyed by copy.


def oracle_rigid_copies(
    s: OrderedStructure, keys: Sequence[Sequence[Sequence[int]]]
) -> list[tuple[str, ...]]:
    """The label tuple of s's rigid copy in each subgrid of keys, aligned
    with s.elements: coordinate i of element e is the rk_i(e)-th smallest
    value of axis i, read off s's rank points."""
    ranks = s.realizers.rank_points(s.elements)
    return [
        tuple(",".join(str(axis[i - 1]) for axis, i in zip(axes, p)) for p in ranks)
        for axes in keys
    ]


def oracle_first_mono_group(
    colors: Sequence[int], groups: Sequence[Sequence[int]], tick: Callable[[], None]
) -> int | None:
    """Index of the first group whose cells all have one color, or None.
    Reads each group's cells in order up to the first color that differs,
    ticking once per cell read."""
    for g, cells in enumerate(groups):
        first = colors[cells[0]]
        for t in cells:
            tick()
            if colors[t] != first:
                break
        else:
            return g
    return None


def oracle_ramsey_reduction(
    a: OrderedStructure,
    b: OrderedStructure,
    k: int,
    r: int,
    budget: int | None = None,
    scan: Callable = oracle_first_mono_group,
) -> bool:
    """`ramsey_witness_check` by the paper's induced-coloring argument.

    Walks every k-coloring of the copies of a in the r^n grid, in
    lexicographic order.  Each is pulled back to the l^n-subgrids, each
    colored by its rigid copy of a; `scan` finds the first m^n-subgrid
    whose cells share one color, and that subgrid's rigid copy of b must
    then be monochromatic, or SelfCheckFailed.  With no such subgrid (as
    when m > r) the copies of b are checked directly, and a coloring
    that leaves each of them non-monochromatic answers False.  The copies
    of a inside a copy of b are the a-copies on a subset of its labels.
    More colorings than the budget are refused up front under
    "monochromatic-subgrid scan"; each cell read ticks the meter.
    """
    if k < 1:
        raise TooSmall("colorings need k >= 1")
    meter = BudgetMeter(budget, "monochromatic-subgrid scan")
    host = grid(r, a.n)
    copies_a = oracle_copies(host, a)
    inside = {
        bcopy: [t for t, acopy in enumerate(copies_a) if set(acopy) <= set(bcopy)]
        for bcopy in oracle_copies(host, b)
    }
    if not inside:
        return False
    meter.require(k ** len(copies_a), "colorings to scan")
    index_a = {key: t for t, key in enumerate(copies_a)}
    cells, subgrids = _grid_groups(len(a.elements), len(b.elements), a.n, r)
    cell_copy = [index_a[key] for key in oracle_rigid_copies(a, cells)]
    rigid_b = [
        inside[key] for key in oracle_rigid_copies(b, all_subgrids(r, a.n, len(b.elements)))
    ]
    for assignment in iter_product(range(1, k + 1), repeat=len(copies_a)):
        pulled = [assignment[t] for t in cell_copy]
        mono = scan(pulled, subgrids, meter.tick)
        if mono is None:
            if all(len({assignment[t] for t in g}) > 1 for g in inside.values()):
                return False
        elif len({assignment[t] for t in rigid_b[mono]}) != 1:
            raise SelfCheckFailed(
                "a monochromatic subgrid's rigid copy of the target is not monochromatic"
            )
    return True


def oracle_subgrids(r: int, n: int, l: int) -> list[tuple[tuple[int, ...], ...]]:
    """Axis tuples of every l^n-subgrid of r^n, in canonical order."""
    return list(iter_product(combinations(range(1, r + 1), l), repeat=n))


def oracle_rigid_copy_in_subgrid(
    a: OrderedStructure, axes: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    """The unique rigid copy of a inside the subgrid: coordinate i of
    element e is the rk_i(e)-th smallest value of axes[i]; aligned with
    a.elements.  One axis per order of a."""
    orders = a.realizers.orders
    return [
        tuple(axis[o.rank[e] - 1] for axis, o in zip(axes, orders, strict=True))
        for e in a.elements
    ]


def oracle_induced_coloring(
    colour: dict[tuple[str, ...], int], a: OrderedStructure, r: int
) -> list[int]:
    """Pull a colouring of the copies of a in the r^n grid (label tuple,
    aligned with a.elements, to colour) back to the l^n-subgrids, in
    canonical order: each subgrid takes the colour of its rigid copy."""
    out = []
    for axes in oracle_subgrids(r, a.n, len(a.elements)):
        points = oracle_rigid_copy_in_subgrid(a, axes)
        out.append(colour[tuple(",".join(map(str, p)) for p in points)])
    return out


def oracle_find_mono_subgrid(
    colours: Sequence[int], l: int, m: int, n: int, r: int
) -> tuple[tuple[int, ...], ...] | None:
    """The first m^n-subgrid of r^n, in canonical order, whose
    l^n-subgrids all share one colour, or None; colours lists the
    l^n-subgrids' colours in canonical order.  Brute force: every
    m^n-subgrid lists its l^n-subgrids afresh."""
    colour = dict(zip(oracle_subgrids(r, n, l), colours, strict=True))
    for big in oracle_subgrids(r, n, m):
        shades = {
            colour[small] for small in iter_product(*[combinations(axis, l) for axis in big])
        }
        if len(shades) == 1:
            return big
    return None


# --- numpy oracles for the bit-row poset kernel ----------------------------
#
# The library's matrix code before it moved to one Python int per row,
# kept as independent references: same axioms, same first violation, same
# tie-breaks, computed on dense boolean matrices.


def oracle_validate_poset(elements, lt) -> FinitePoset:
    labels = tuple(elements)
    if len(labels) < 1:
        raise TooSmall("a poset needs at least one element")
    seen: set[str] = set()
    for x in labels:
        if x in seen:
            raise DuplicateLabel(x)
        seen.add(x)
    mat = np.array(lt, dtype=bool)
    m = len(labels)
    if mat.shape != (m, m):
        raise ElementMismatch(f"relation shape {mat.shape} does not match {m} elements")
    diag = np.nonzero(np.diagonal(mat))[0]
    if diag.size:
        raise ReflexiveViolation(labels[int(diag[0])])
    gap = (mat @ mat) & ~mat
    bad = np.nonzero(gap)
    if bad[0].size:
        i, k = int(bad[0][0]), int(bad[1][0])
        j = int(np.nonzero(mat[i, :] & mat[:, k])[0][0])
        raise TransitivityViolation(labels[i], labels[j], labels[k])
    return FinitePoset(labels, mat)


def oracle_find_cycle(edges: np.ndarray, start: int, labels) -> list[str]:
    """Breadth-first walk from start back to start, neighbours in index order."""
    parent: dict[int, int | None] = {start: None}
    frontier = [start]
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            for raw in np.nonzero(edges[u, :])[0]:
                v = int(raw)
                if v == start:
                    path = [u]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return [labels[i] for i in path] + [labels[start]]
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    raise AssertionError("no cycle reachable from start")


def oracle_szpilrajn_extend(p: FinitePoset, forced=()) -> LinearOrder:
    edges = np.array(p.lt)
    for a, b in forced:
        edges[p.index(a), p.index(b)] = True
    closed = transitive_close(edges)
    diag = np.nonzero(np.diagonal(closed))[0]
    if diag.size:
        raise CycleIntroduced(oracle_find_cycle(edges, int(diag[0]), p.elements))
    remaining = set(range(len(p)))
    out: list[str] = []
    while remaining:
        minimal = [
            i for i in remaining if not any(closed[j, i] for j in remaining if j != i)
        ]
        pick = min(minimal, key=lambda i: p.elements[i])
        remaining.remove(pick)
        out.append(p.elements[pick])
    return LinearOrder(out)


def oracle_covers(p: FinitePoset) -> list[tuple[str, str]]:
    cov = p.lt & ~(p.lt @ p.lt)
    return [(p.elements[i], p.elements[j]) for i, j in zip(*np.nonzero(cov))]


def oracle_is_realizer(p: FinitePoset, t: RealizerTuple) -> bool:
    out = np.ones((len(p), len(p)), dtype=bool)
    for o in t.orders:
        r = np.array([o.rank[e] for e in p.elements])
        out &= r[:, None] < r[None, :]
    return bool(np.array_equal(out, p.lt))


def random_relation(rng: random.Random, m: int) -> tuple[list[str], np.ndarray]:
    """Shuffled labels and a random relation: a valid poset, a poset with
    a reflexive entry, an acyclic relation left unclosed, or arbitrary
    edges (cycles and 2-cycles included), chosen at random."""
    labels = [f"x{i}" for i in range(m)]
    rng.shuffle(labels)
    kind = rng.choice(("poset", "reflexive", "unclosed", "arbitrary"))
    if kind in ("poset", "reflexive"):
        mat = np.array(random_poset(rng, m).lt)
        if kind == "reflexive":
            i = rng.randrange(m)
            mat[i, i] = True
        return labels, mat
    density = rng.uniform(0.1, 0.5)
    perm = list(range(m))
    rng.shuffle(perm)
    mat = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(m):
            if i == j or (kind == "unclosed" and i > j):
                continue
            if rng.random() < density:
                mat[perm[i], perm[j]] = True
    return labels, mat


# A DOT quoted ID that uses only the escapes \\, \" and \n, and a node or
# edge statement of `export dot` built from such IDs.
_DOT_ID = r'"(?:[^"\\\n]|\\[\\"n])*"'
_DOT_NODE = re.compile(rf"  ({_DOT_ID});")
_DOT_EDGE = re.compile(rf"  ({_DOT_ID}) -> ({_DOT_ID});")


def _dot_label(quoted: str) -> str:
    return re.sub(
        r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], quoted[1:-1]
    )


def parse_dot(text: str) -> tuple[list[str], list[tuple[str, str]]]:
    """Node labels and edges of an `export dot` Hasse diagram, unescaped.

    Raises AssertionError on any line that is not the header, the
    footer, or a statement whose IDs are all well-formed.
    """
    lines = text.split("\n")
    assert lines[:2] == ["digraph hasse {", "  rankdir=BT;"], lines[:2]
    assert lines[-2:] == ["}", ""], lines[-2:]
    nodes, edges = [], []
    for line in lines[2:-2]:
        node, edge = _DOT_NODE.fullmatch(line), _DOT_EDGE.fullmatch(line)
        assert node or edge, line
        if node:
            nodes.append(_dot_label(node[1]))
        else:
            edges.append((_dot_label(edge[1]), _dot_label(edge[2])))
    return nodes, edges


def permutation_witness(
    points: dict[str, tuple],
    t: RealizerTuple,
    biconditional: bool = True,
) -> tuple[int, ...] | None:
    """Coordinate permutation explaining a realizer tuple, or None: the
    lexicographically first sigma with order sigma[i] accounting for
    axis i.  With biconditional=True the order must sort the points
    exactly by their i-th coordinates, so the axis must carry no ties;
    with biconditional=False it only has to respect every strict i-th
    coordinate comparison, the form that survives colinear points.  With
    biconditional=True, the oracle for `flow.classify_realizer`."""
    labels = sorted(points)
    if set(t.orders[0].order) != set(labels):
        raise ElementMismatch("tuple support differs from the point labels")
    pts = {lab: tuple(as_fraction(v) for v in points[lab]) for lab in labels}
    dims = {len(p) for p in pts.values()}
    if len(dims) != 1:
        raise ElementMismatch("points have mixed arities")
    (dim,) = dims
    if t.n != dim:
        raise ElementMismatch(
            f"the tuple has {t.n} orders but the points have {dim} coordinates"
        )
    match = [[False] * dim for _ in range(dim)]
    for i in range(dim):
        if biconditional:
            values = [pts[lab][i] for lab in labels]
            if len(set(values)) != len(values):
                continue
            expected = tuple(sorted(labels, key=lambda lab: pts[lab][i]))
            for j, o in enumerate(t.orders):
                match[i][j] = o.order == expected
        else:
            for j, o in enumerate(t.orders):
                rank = o.rank
                match[i][j] = all(
                    rank[a] < rank[b]
                    for a in labels
                    for b in labels
                    if pts[a][i] < pts[b][i]
                )
    return next(
        (
            sigma
            for sigma in permutations(range(dim))
            if all(match[i][sigma[i]] for i in range(dim))
        ),
        None,
    )
