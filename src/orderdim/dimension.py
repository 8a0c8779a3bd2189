"""Order dimension: critical pairs, realizer search, Ore embedding.

A pair (x, y) of incomparable elements is critical when down(x) is
contained in down(y) and up(y) is contained in up(x).  A family of linear
extensions realizes the poset exactly when every critical pair (x, y) has
some member placing y below x, and one linear extension can reverse a set
of critical pairs exactly when the poset stays acyclic with all of them
reversed (Trotter & Moore 1977).  So dim(P) <= t exactly when the critical
pairs split into t reversible classes.  `dimension` finds the least such t
by backtracking over class assignments: classes open in order of first
use, and each keeps its own reachability bitsets, grown as pairs join it.
Deciding dim(P) <= t is NP-complete for t >= 3 (Yannakakis 1982), so the
search ticks a budget.

The witness is the lexicographically first non-decreasing tuple of
indices into the extension stream of `all_linear_extensions` whose
members reverse every critical pair.  It is rebuilt greedily without
listing the stream: slot k of n repeats the previous order while the
pairs still unreversed split into n - k classes, and otherwise takes the
first extension in stream order whose leftover pairs do.  That extension
is found depth-first, smallest element index first, pruning every prefix
whose pairs already placed unreversed no longer split into n - k classes.
The enumerate-and-cover search that defines this witness directly lives
in the test suite as the oracle, next to a naive realizer checker.

The searches read the poset's own bit rows: bit j of up[i], and bit i of
down[j], say that element i is below element j.  One budget meter
serves a whole `dimension` or `find_realizers` call; its phase name says
which part of the search ran out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .budget import DEFAULT_MAX_ELEMENTS, BudgetMeter, effective_budget
from .errors import LimitExceeded, NotARealizer, SelfCheckFailed
from .poset import FinitePoset, LinearOrder, RealizerTuple, _bits, is_realizer

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


@dataclass(frozen=True)
class DimensionResult:
    dim: int
    witness: RealizerTuple


def all_linear_extensions(
    p: FinitePoset, budget: int | None = None
) -> Iterator[LinearOrder]:
    """Every linear extension exactly once, smallest-available-index first."""
    m = len(p)
    if m > DEFAULT_MAX_ELEMENTS:
        raise LimitExceeded(
            f"extension enumeration capped at {DEFAULT_MAX_ELEMENTS} elements, got {m}"
        )
    meter = BudgetMeter(effective_budget(budget), "linear extension enumeration")
    preds = p.down
    order: list[int] = []

    def rec(taken: int) -> Iterator[LinearOrder]:
        if len(order) == m:
            meter.tick()
            yield LinearOrder([p.elements[i] for i in order])
            return
        for i in range(m):
            if not (taken >> i) & 1 and preds[i] & ~taken == 0:
                order.append(i)
                yield from rec(taken | (1 << i))
                order.pop()

    return rec(0)


def _critical_indices(up: Sequence[int], down: Sequence[int]) -> list[tuple[int, int]]:
    out = []
    for x in range(len(up)):
        comparable = up[x] | down[x] | 1 << x
        for y in range(len(up)):
            if comparable >> y & 1:
                continue
            if down[x] & ~down[y] or up[y] & ~up[x]:
                continue
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
        self.order = self._conflict_order()
        self.dim: int | None = None
        self.memo: dict[tuple[int, int], bool] = {}

    def _conflict_order(self) -> list[int]:
        """Pair indices, each next one sharing the most 2-cycles with those
        before it, so a class assignment that cannot work fails early.

        Pairs (a, b) and (c, d) cannot share a class when a <= d and c <= b.
        """
        m = len(self.up)
        by_x = [0] * m
        by_y = [0] * m
        for c, (x, y) in enumerate(self.pairs):
            by_x[x] |= 1 << c
            by_y[y] |= 1 << c
        conflicts = []
        for a, b in self.pairs:
            with_y = 0
            for v in _bits(self.up[a] | 1 << a):
                with_y |= by_y[v]
            with_x = 0
            for u in _bits(self.down[b] | 1 << b):
                with_x |= by_x[u]
            conflicts.append(with_y & with_x)
        score = [0] * len(self.pairs)
        degree = [bin(c).count("1") for c in conflicts]
        left = set(range(len(self.pairs)))
        out = []
        while left:
            c = max(left, key=lambda i: (score[i], degree[i], -i))
            left.remove(c)
            out.append(c)
            for d in _bits(conflicts[c]):
                score[d] += 1
        return out

    def splits(self, mask: int, t: int) -> bool:
        """Whether the pairs in mask split into at most t reversible classes."""
        if mask == 0:
            return True
        if t <= 0:
            return False
        if (self.dim is not None and t >= self.dim) or bin(mask).count("1") <= t:
            return True
        key = (mask, t)
        if key not in self.memo:
            self.memo[key] = self._colour(mask, t)
        return self.memo[key]

    def _colour(self, mask: int, t: int) -> bool:
        seq = [c for c in self.order if mask >> c & 1]
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
        """Least t <= limit splitting every critical pair, or None."""
        self.meter.what = COLOURING
        for t in range(1, limit + 1):
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
        m = len(self.up)
        x_of = [0] * m
        y_of = [0] * m
        for c in _bits(unreversed):
            x, y = self.pairs[c]
            x_of[x] |= 1 << c
            y_of[y] |= 1 << c
        everything = (1 << m) - 1
        tick = self.meter.tick
        order: list[int] = []
        dead: set[tuple[int, int]] = set()
        # Frames: placed elements, pairs already left unreversed, pairs
        # whose lower end is placed, next element to try.
        stack = [[0, 0, 0, 0]]
        while stack:
            frame = stack[-1]
            taken, kept, y_placed, i = frame
            if taken == everything:
                return order, unreversed & ~kept
            while i < m:
                if not taken >> i & 1 and not self.down[i] & ~taken:
                    tick()
                    grown = kept | x_of[i] & ~y_placed
                    state = (taken | 1 << i, grown)
                    if state not in dead and self.splits(grown, r):
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


def _checked(p: FinitePoset, orders: list[list[int]]) -> RealizerTuple:
    witness = RealizerTuple([LinearOrder([p.elements[i] for i in o]) for o in orders])
    if not is_realizer(p, witness):
        raise NotARealizer("the realizer search returned orders that fail its self-check")
    return witness


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
