"""Order dimension: critical pairs, realizer search, Ore embedding.

A pair (x, y) of incomparable elements is critical when down(x) is
contained in down(y) and up(y) is contained in up(x).  A family of linear
extensions realizes the poset exactly when every critical pair (x, y) has
some member placing y below x, and one linear extension can reverse a set
of critical pairs exactly when the poset stays acyclic with all of them
reversed (Trotter & Moore 1977).  So dim(P) <= t exactly when the critical
pairs split into t reversible classes.  `dimension` finds the least such t
without colouring up to t = 2.  One class holds exactly when there are
no critical pairs: one extension reversing them all would realize the
poset alone, so it would be a chain.  Two hold exactly when the graph on
the critical pairs whose edges are the alternating 2-cycles has no odd
cycle (Felsner & Trotter, "Dimension, graph and hypergraph coloring",
Order 17, 2000).  From t = 3 on it backtracks over class assignments:
classes open in order of first use, and each keeps its own reachability
bitsets, grown as pairs join it.  The greedy pair order this colouring
follows is built only when a colouring runs.  Deciding dim(P) <= t is
NP-complete for t >= 3 (Yannakakis 1982), so the search ticks a budget.

The witness is the lexicographically first non-decreasing tuple of
indices into the extension stream of `all_linear_extensions` whose
members reverse every critical pair.  It is rebuilt greedily without
listing the stream: slot k of n repeats the previous order while the
pairs still unreversed split into n - k classes, and otherwise takes the
first extension in stream order whose leftover pairs do.  That extension
is found depth-first, smallest element index first, pruning every prefix
whose pairs already placed unreversed no longer split into n - k classes;
the candidates at each depth are the unplaced elements, taken by lowest
set bit.  On these subsets the shortcuts above do not apply: one class
reverses the pairs one by one until a cycle closes, and two are refused
at once by an odd conflict cycle but otherwise coloured, since the
odd-cycle equivalence is proved for the whole pair set only.  With one
class to go, each frame of the walk carries that class's reachability
rows, so a candidate adds only the pairs it leaves unreversed.  The last
slot reverses every pair left, so it is no search: it is the
lexicographically least topological order of the poset with y below x
added for each such pair (x, y), one step per element placed.  The
enumerate-and-cover search that defines this witness directly lives in
the test suite as the oracle, next to a naive realizer checker.

The witness is checked before any label is looked up: each index
sequence must be a permutation of the elements, and the pairs that all
of them order the same way must be exactly the poset's relation
(`poset._meet_rows`: that test, then `_meet_permutations`, the core that
`is_realizer` runs on labels).  Only then are its linear orders built.

The searches read the poset's own bit rows: bit j of up[i], and bit i of
down[j], say that element i is below element j.  One budget meter
serves a whole `dimension` or `find_realizers` call; its phase name says
which part of the search ran out.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .budget import DEFAULT_MAX_ELEMENTS, BudgetMeter, effective_budget
from .errors import LimitExceeded, NotARealizer, SelfCheckFailed
from .poset import (
    FinitePoset,
    LinearOrder,
    RealizerTuple,
    _beyond,
    _Frozen,
    _meet_rows,
    is_realizer,
)

__all__ = [
    "DimensionResult",
    "all_linear_extensions",
    "critical_pairs",
    "find_realizers",
    "dimension",
    "ore_embedding",
]

COLOURING = "critical-pair colouring"
WITNESS = "witness search"
EXTENSIONS = "linear extension enumeration"


class DimensionResult(_Frozen):
    """The dimension of a poset and a realizer of that many orders."""

    __slots__ = ("dim", "witness")

    def __init__(self, dim: int, witness: RealizerTuple):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "witness", witness)


def all_linear_extensions(
    p: FinitePoset, budget: int | None = None
) -> Iterator[LinearOrder]:
    """Every linear extension exactly once, smallest-available-index first."""
    e = p.elements
    meter = BudgetMeter(effective_budget(budget), EXTENSIONS)
    return (LinearOrder([e[i] for i in seq]) for seq in _extensions(p.down, meter))


def _extensions(down: Sequence[int], meter: BudgetMeter) -> Iterator[tuple[int, ...]]:
    """all_linear_extensions as index sequences, on a meter that the caller
    may share.

    down[i] holds elements that must come before element i; it need not
    be transitively closed.  Sequences come in lexicographic order, one
    tick each.  A cyclic relation yields nothing: the walk stops at its
    first dead end, which for an acyclic relation never occurs.
    """
    m = len(down)
    if m > DEFAULT_MAX_ELEMENTS:
        raise LimitExceeded(
            f"extension enumeration capped at {DEFAULT_MAX_ELEMENTS} elements, got {m}"
        )

    def walk() -> Iterator[tuple[int, ...]]:
        order = [0] * m
        taken = d = i = 0
        while True:
            if d == m:
                meter.tick()
                yield tuple(order)
            else:
                fresh = i == 0
                while i < m and (taken >> i & 1 or down[i] & ~taken):
                    i += 1
                if i < m:
                    order[d] = i
                    taken |= 1 << i
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

    return walk()


def _critical_indices(up: Sequence[int], down: Sequence[int]) -> list[tuple[int, int]]:
    out = []
    everything = (1 << len(up)) - 1
    for x, (above, below) in enumerate(zip(up, down)):
        rest = everything & ~(above | below | 1 << x)
        while rest:
            low = rest & -rest
            rest ^= low
            y = low.bit_length() - 1
            if not (below & ~down[y] or up[y] & ~above):
                out.append((x, y))
    return out


def critical_pairs(p: FinitePoset) -> list[tuple[str, str]]:
    """Ordered pairs (x, y): incomparable, down(x) <= down(y), up(y) <= up(x)."""
    e = p.elements
    return [(e[x], e[y]) for x, y in _critical_indices(p.up, p.down)]


def _reverse(above: Sequence[int], lo: int, hi: int) -> list[int] | None:
    """Reachability rows with lo < hi added, or None if that closes a cycle."""
    if above[hi] >> lo & 1:
        return None
    gain = above[hi] | 1 << hi
    bit = 1 << lo
    out = [row | gain if row & bit else row for row in above]
    out[lo] |= gain
    return out


class _RealizerSearch:
    """Colouring and witness search over one poset's critical pairs.

    A set of critical pairs is a bitmask over their indices.  Every step
    of either phase ticks the one meter.
    """

    def __init__(self, p: FinitePoset, budget: int | None):
        self.up, self.down = p.up, p.down
        self.pairs = _critical_indices(self.up, self.down)
        self.full = (1 << len(self.pairs)) - 1
        self.meter = BudgetMeter(effective_budget(budget), COLOURING)
        self.dim: int | None = None
        self.memo: dict[tuple[int, int], bool] = {}
        # The colouring order, built by _in_order when a colouring first runs.
        self.order: list[int] | None = None
        # As pair masks, conflicts[c]: the pairs that pair c cannot share a
        # class with, each (u, v) with a <= v and u <= b for pair c = (a, b);
        # by_x[i] and by_y[i]: the pairs whose x, or y, is i.
        m = len(self.up)
        self.by_x = by_x = [0] * m
        self.by_y = by_y = [0] * m
        xs = ys = 0
        for c, (x, y) in enumerate(self.pairs):
            by_x[x] |= 1 << c
            by_y[y] |= 1 << c
            xs |= 1 << x
            ys |= 1 << y
        # y_from[a]: pairs whose y is a or above a; x_to[b]: whose x is b or below.
        up, down = self.up, self.down
        y_from = [_beyond(by_y, (up[a] | 1 << a) & ys) if by_x[a] else 0 for a in range(m)]
        x_to = [_beyond(by_x, (down[b] | 1 << b) & xs) if by_y[b] else 0 for b in range(m)]
        self.conflicts = [y_from[a] & x_to[b] for a, b in self.pairs]

    def _in_order(self, mask: int) -> list[int]:
        """The pairs in mask in colouring order: each next pair shares the
        most 2-cycles with those before it, so a class assignment that
        cannot work fails early.  The order is built on first use."""
        if self.order is None:
            self.order = self._conflict_order()
        return [c for c in self.order if mask >> c & 1]

    def _conflict_order(self) -> list[int]:
        count = len(self.pairs)
        # One int per pair packs (conflicts with pairs taken, degree, -index).
        width = count.bit_length()
        keys = [c.bit_count() << width | count - 1 - i for i, c in enumerate(self.conflicts)]
        taken_one = 1 << 2 * width
        left = set(range(count))
        out = []
        while left:
            c = max(left, key=keys.__getitem__)
            left.remove(c)
            out.append(c)
            rest = self.conflicts[c]
            while rest:
                low = rest & -rest
                rest ^= low
                keys[low.bit_length() - 1] += taken_one
        return out

    def splits(self, mask: int, t: int) -> bool:
        """Whether the pairs in mask split into at most t reversible classes."""
        if mask == 0:
            return True
        if t <= 0:
            return False
        if (self.dim is not None and t >= self.dim) or mask.bit_count() <= t:
            return True
        key = (mask, t)
        if key not in self.memo:
            if t == 1:
                self.memo[key] = self._join(self.up, self._in_order(mask)) is not None
            else:
                self.memo[key] = (t > 2 or self._bipartite(mask)) and self._colour(mask, t)
        return self.memo[key]

    def _join(self, rows: Sequence[int] | None, seq: Iterable[int]) -> Sequence[int] | None:
        """rows with the pairs in seq reversed, one tick each; None on a cycle."""
        for c in seq:
            self.meter.tick()
            x, y = self.pairs[c]
            rows = _reverse(rows, y, x)
            if rows is None:
                break
        return rows

    def _bipartite(self, mask: int) -> bool:
        """Whether the 2-cycle conflicts among the pairs in mask close no
        odd cycle; one that does rules out two classes."""
        while mask:
            # Breadth first from the lowest pair left; layers alternate sides.
            frontier, side, other = mask & -mask, 0, 0
            while frontier:
                side |= frontier
                mask &= ~frontier
                reach = 0
                rest = frontier
                while rest:
                    low = rest & -rest
                    rest ^= low
                    reach |= self.conflicts[low.bit_length() - 1]
                if reach & side:
                    return False
                frontier, side, other = reach & mask, other, side
        return True

    def _colour(self, mask: int, t: int) -> bool:
        seq = self._in_order(mask)
        tick = self.meter.tick
        classes: list[list[int]] = []
        tried = [-1] * len(seq)
        saved: list[list[int] | None] = [None] * len(seq)
        d = 0
        while 0 <= d < len(seq):
            x, y = self.pairs[seq[d]]
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
                grown = _reverse(classes[c], y, x)
                if grown is not None:
                    break
                c += 1
            if c < len(classes):
                saved[d], classes[c] = classes[c], grown
            elif c == len(classes) < t:
                tick()
                saved[d] = None
                classes.append(_reverse(self.up, y, x))
            else:
                tried[d] = -1
                d -= 1
                continue
            tried[d] = c
            d += 1
        return d == len(seq)

    def least_classes(self, limit: int) -> int | None:
        """Least t <= limit splitting every critical pair, or None.

        One class holds exactly when there are no pairs: one extension
        reversing every critical pair would realize P alone, so P would be
        a chain.  Two hold exactly when the conflicts close no odd cycle,
        one step per pair; only t >= 3 colours.
        """
        self.meter.what = COLOURING
        if not self.pairs:
            self.dim = 1
            return 1
        if limit >= 2:
            self.meter.tick(len(self.pairs))
            self.memo[self.full, 2] = self._bipartite(self.full)
        for t in range(2, limit + 1):
            if self.splits(self.full, t):
                self.dim = t
                return t
        return None

    def witness(self, n: int) -> list[list[int]]:
        """The lexicographically first n-slot witness, as index sequences."""
        self.meter.what = WITNESS
        orders: list[list[int]] = []
        unreversed = self.full
        for k in range(1, n + 1):
            if orders and self.splits(unreversed, n - k):
                orders.append(orders[-1])
                continue
            order, reversed_ = self._first_extension(unreversed, n - k)
            orders.append(order)
            unreversed &= ~reversed_
        return orders

    def _first_extension(self, unreversed: int, r: int) -> tuple[list[int], int]:
        """First extension in stream order whose leftover pairs split into r."""
        if r == 0:
            return self._last_extension(unreversed)
        m = len(self.up)
        pairs, down = self.pairs, self.down
        x_of = [row & unreversed for row in self.by_x]
        y_of = [row & unreversed for row in self.by_y]
        everything = (1 << m) - 1
        tick = self.meter.tick
        order: list[int] = []
        dead: set[tuple[int, int]] = set()
        # State, saved on the stack at each placement: placed elements, pairs left
        # unreversed, pairs whose y is placed, class rows (r = 1), candidates left.
        stack = []
        taken = kept = y_placed = 0
        rows = self.up
        free = everything
        while taken != everything:
            # Candidates are the elements not placed, lowest index first.
            while free:
                low = free & -free
                free ^= low
                i = low.bit_length() - 1
                if down[i] & ~taken:
                    continue
                tick()
                new = x_of[i] & ~y_placed
                if dead and (taken | low, kept | new) in dead:
                    continue
                grown = rows
                if r == 1:
                    rest = new
                    while rest:
                        bit = rest & -rest
                        rest ^= bit
                        tick()
                        x, y = pairs[bit.bit_length() - 1]
                        grown = _reverse(grown, y, x)
                        if grown is None:
                            break
                    if grown is not None:
                        break
                elif self.splits(kept | new, r):
                    break
            else:
                if not stack:
                    raise SelfCheckFailed("no linear extension completes the realizer")
                dead.add((taken, kept))
                taken, kept, y_placed, rows, free = stack.pop()
                order.pop()
                continue
            stack.append((taken, kept, y_placed, rows, free))
            order.append(i)
            taken, kept, y_placed, rows = taken | low, kept | new, y_placed | y_of[i], grown
            free = everything & ~taken
        return order, unreversed & ~kept

    def _last_extension(self, unreversed: int) -> tuple[list[int], int]:
        """The extension reversing every pair in unreversed: each element
        waits for its predecessors and for the y of each pair it is the x
        of, and the least element ready goes next, one tick each."""
        need = list(self.down)
        rest = unreversed
        while rest:
            low = rest & -rest
            rest ^= low
            x, y = self.pairs[low.bit_length() - 1]
            need[x] |= 1 << y
        tick = self.meter.tick
        order: list[int] = []
        free = (1 << len(need)) - 1
        while free:
            rest = free
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                if not need[i] & free:
                    break
                rest ^= low
            else:
                raise SelfCheckFailed("no linear extension completes the realizer")
            tick()
            order.append(i)
            free ^= low
        return order, unreversed


def _checked(p: FinitePoset, orders: list[list[int]]) -> RealizerTuple:
    """The orders as labels, once their index sequences realize p."""
    rows = _meet_rows(orders, len(p))
    if rows is None or tuple(rows) != p.up:
        raise NotARealizer("the realizer search returned orders that fail its self-check")
    e = p.elements
    return RealizerTuple([LinearOrder([e[i] for i in o]) for o in orders])


def find_realizers(
    p: FinitePoset, n: int, budget: int | None = None
) -> RealizerTuple | None:
    """A tuple of n linear extensions whose intersection is lt, or None."""
    if n < 1:
        raise ValueError("n must be at least 1")
    search = _RealizerSearch(p, budget)
    if search.least_classes(n) is None:
        return None
    return _checked(p, search.witness(n))


def dimension(p: FinitePoset, budget: int | None = None) -> DimensionResult:
    """Smallest n admitting a realizer tuple, with the first witness."""
    search = _RealizerSearch(p, budget)
    n = search.least_classes(len(p))
    if n is None:
        raise SelfCheckFailed("every finite poset has a realizer")
    if len(p) >= 4 and n > len(p) // 2:
        raise SelfCheckFailed(
            f"dimension {n} breaks the Hiraguchi bound for {len(p)} elements"
        )
    return DimensionResult(dim=n, witness=_checked(p, search.witness(n)))


def ore_embedding(
    p: FinitePoset, t: RealizerTuple
) -> dict[str, tuple[int, ...]]:
    """The diagonal map into the product of the witness chains, in rank coordinates."""
    if not is_realizer(p, t):
        raise NotARealizer("ore_embedding needs a realizer of p")
    image = {e: tuple(o.rank[e] for o in t.orders) for e in p.elements}
    for a in p.elements:
        for b in p.elements:
            if a == b:
                continue
            below = all(x < y for x, y in zip(image[a], image[b]))
            if below != p.less(a, b):
                raise SelfCheckFailed(
                    f"the Ore embedding disagrees with the order on ({a!r}, {b!r})"
                )
    return image
