"""Order dimension: critical pairs and the realizer search.

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
cycle, and then each side of any proper 2-colouring of that graph is a
reversible class: no strict alternating cycle lies inside one side
(Felsner & Trotter, "Dimension, graph and hypergraph coloring", Order
17, 2000; `scripts/check_dim_two.py` checks the split on every naturally
labelled poset up to a given size).  The colouring has to cover the
whole pair set: a subset can close no odd 2-cycle and still need three
classes.  From t = 3 on `poset._colour_classes`, the kernel that
`ramsey` shares, backtracks over class assignments: classes open in
order of first use, and each keeps its own reachability bitsets, grown
by `poset._reverse` as pairs join it, in the greedy pair order built
when a colouring first runs.  Deciding dim(P) <= t is NP-complete
for t >= 3 (Yannakakis 1982).

Linear extensions come from one greedy completion, `poset._complete`:
from a prefix, place the least element whose predecessors are all
placed, again and again.  The extension stream of
`all_linear_extensions`, `poset._extensions`, is the completion of the
empty prefix and then, after each extension, the completion that puts a
larger element in place of the deepest one that has a larger element
ready.  The witness is read off the split that
decided the dimension, one linear extension per class: the completion,
from the empty prefix, of the poset with y put below x for each pair
(x, y) of the class.  The classes are one empty class for t = 1; for
t = 2 the pairs on the side of the breadth-first 2-colouring that holds
each component's lowest pair, and the rest; for t >= 3 the classes the
colouring search found.  The orders are sorted as index sequences, which
is the order of the extension stream, and the last is repeated up to
the number of orders asked for.  That is not in general the
lexicographically first witness in the stream; the enumerate-and-cover
search that defines that one lives in the test suite as an oracle, next
to a naive realizer checker and the index-by-index extension walk that
the stream must match.

The witness is checked before any label is looked up: each index
sequence must be a permutation of the elements, and the pairs that all
of them order the same way must be exactly the poset's relation
(`poset._meet_rows`, one pass per sequence, the predicate that
`is_realizer` runs on labels too).  Only then are its linear orders
built, without the order and tuple constructors' duplicate and support
checks, which that test has just proven.

The searches read the poset's own bit rows: bit j of up[i], and bit i of
down[j], say that element i is below element j.  One budget meter
serves a whole `dimension` or `find_realizers` call; its phase name says
which part of the search ran out.  Colouring charges the meter at every
step.  Each class's extension takes one step per element placed,
charged together once its order is complete.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .budget import BudgetMeter
from .errors import NotARealizer, SelfCheckFailed
from .poset import (
    EXTENSIONS,
    FinitePoset,
    LinearOrder,
    RealizerTuple,
    _beyond,
    _colour_classes,
    _complete,
    _extensions,
    _Frozen,
    _meet_rows,
    _realizer_of_indices,
    _reverse,
    hiraguchi_bound,
)

__all__ = [
    "DimensionResult",
    "all_linear_extensions",
    "critical_pairs",
    "find_realizers",
    "dimension",
]

COLOURING = "critical-pair colouring"
WITNESS = "witness search"


class DimensionResult(_Frozen):
    """The dimension of a poset and a realizer of that many orders."""

    __slots__ = ("dim", "witness")
    dim: int
    witness: RealizerTuple


def all_linear_extensions(
    p: FinitePoset, budget: int | None = None
) -> Iterator[LinearOrder]:
    """Every linear extension exactly once, smallest-available-index first.

    The budget counts the elements placed: all m for the first extension,
    and for each next one those after the prefix it shares with the one
    before."""
    e = p.elements
    meter = BudgetMeter(budget, EXTENSIONS)
    return (LinearOrder([e[i] for i in seq]) for seq in _extensions(p.down, meter))


def _critical_indices(
    up: Sequence[int], down: Sequence[int]
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """The critical pairs (x, y) as element indices, x ascending, then y,
    with by_x[i] and by_y[i], the pairs whose x, or y, is i, as masks over
    the pairs' own indices.  One pass fills all three."""
    pairs: list[tuple[int, int]] = []
    by_x = []
    by_y = [0] * len(up)
    bit = 1
    everything = (1 << len(up)) - 1
    for x, (above, below) in enumerate(zip(up, down)):
        rest = everything & ~(above | below | 1 << x)
        outside = ~above
        mine = 0
        while rest:
            low = rest & -rest
            rest ^= low
            y = low.bit_length() - 1
            if not (below & ~down[y] or up[y] & outside):
                pairs.append((x, y))
                mine |= bit
                by_y[y] |= bit
                bit <<= 1
        by_x.append(mine)
    return pairs, by_x, by_y


def critical_pairs(p: FinitePoset) -> list[tuple[str, str]]:
    """Ordered pairs (x, y): incomparable, down(x) <= down(y), up(y) <= up(x)."""
    e = p.elements
    return [(e[x], e[y]) for x, y in _critical_indices(p.up, p.down)[0]]


class _RealizerSearch:
    """Colouring and witness search over one poset's critical pairs.

    A set of critical pairs is a bitmask over their indices.  Every step
    of either phase is charged to the one meter.
    """

    def __init__(self, p: FinitePoset, budget: int | None):
        self.up, self.down = up, down = p.up, p.down
        # by_x[i] and by_y[i]: the pairs whose x, or y, is i.
        pairs, by_x, by_y = _critical_indices(up, down)
        self.pairs = pairs
        self.full = (1 << len(pairs)) - 1
        self.meter = BudgetMeter(budget, COLOURING)
        # The split least_classes proved, one pair mask per class.
        self.classes: list[int] = []
        # The colouring order, built by _colour when it first runs.
        self.order: list[int] | None = None
        # As pair masks, conflicts[c]: the pairs that pair c cannot share a
        # class with, each (u, v) with a <= v and u <= b for pair c = (a, b):
        # those whose y is a or above a (y_from, the same for a run of pairs
        # with one x) and whose x is b or below b (x_to[b]).
        self.conflicts: list[int] = []
        conflicts = self.conflicts
        x_to: dict[int, int] = {}
        last = -1
        for a, b in pairs:
            if a != last:
                last = a
                y_from = _beyond(by_y, up[a]) | by_y[a]
            if b not in x_to:
                x_to[b] = _beyond(by_x, down[b]) | by_x[b]
            conflicts.append(y_from & x_to[b])

    def _conflict_order(self) -> list[int]:
        """The colouring order: each next pair shares the most 2-cycles
        with those before it, so a class assignment that cannot work
        fails early."""
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

    def _bipartite(self, mask: int) -> int | None:
        """A proper 2-colouring of the 2-cycle conflicts among the pairs in
        mask, as the side holding the lowest pair of each component, or
        None when they close an odd cycle, which rules out two classes."""
        conflicts = self.conflicts
        first_sides = 0
        while mask:
            # Breadth first from the lowest pair left; layers alternate sides.
            start = mask & -mask
            frontier, side, other = start, 0, 0
            while frontier:
                side |= frontier
                mask &= ~frontier
                reach = 0
                rest = frontier
                while rest:
                    low = rest & -rest
                    rest ^= low
                    reach |= conflicts[low.bit_length() - 1]
                if reach & side:
                    return None
                frontier, side, other = reach & mask, other, side
            first_sides |= side if side & start else other
        return first_sides

    def _colour(self, t: int) -> list[int] | None:
        """Every pair, in colouring order, put into one of t classes, each
        kept as reachability rows with its pairs reversed: the classes as
        pair masks, or None."""
        if self.order is None:
            self.order = self._conflict_order()
        flips = [(1 << y, x) for x, y in map(self.pairs.__getitem__, self.order)]
        # leq[i]: the elements at or above i, the rows a class starts from.
        leq = [row | 1 << i for i, row in enumerate(self.up)]
        placed = _colour_classes(
            len(flips), t, leq, lambda rows, d: _reverse(rows, *flips[d]), self.meter.tick
        )
        if placed is None:
            return None
        classes = [0] * t
        for c, k in zip(self.order, placed):
            classes[k] |= 1 << c
        return classes

    def least_classes(self, limit: int) -> int | None:
        """Least t <= limit splitting every critical pair, or None; the
        split is kept in self.classes.

        One class holds exactly when there are no pairs: one extension
        reversing every critical pair would realize P alone, so P would be
        a chain.  Two hold exactly when the conflicts close no odd cycle,
        one step per pair, and the 2-colouring that shows it is the
        split; only t >= 3 colours, and t pairs take one class each.
        """
        self.meter.what = COLOURING
        count = len(self.pairs)
        if not count:
            self.classes = [0]
            return 1
        if limit >= 2:
            self.meter.tick(count)
            side = self._bipartite(self.full)
            if side is not None:
                self.classes = [side, self.full & ~side]
                return 2
        for t in range(3, limit + 1):
            classes = [1 << c for c in range(count)] if count <= t else self._colour(t)
            if classes is not None:
                self.classes = classes
                return t
        return None

    def witness(self, n: int) -> list[list[int]]:
        """One extension per class, as index sequences in stream order,
        the last repeated up to n orders."""
        self.meter.what = WITNESS
        orders = sorted(map(self._last_extension, self.classes))
        return orders + orders[-1:] * (n - len(orders))

    def _last_extension(self, reversed_: int) -> list[int]:
        """The extension reversing every pair in reversed_: each element
        waits for its predecessors and for the y of each pair it is the x
        of, and `_complete` places the least element ready next, one step
        each, charged together once the order is complete."""
        need = list(self.down)
        while reversed_:
            low = reversed_ & -reversed_
            reversed_ ^= low
            x, y = self.pairs[low.bit_length() - 1]
            need[x] |= 1 << y
        order: list[int] = []
        free = (1 << len(need)) - 1
        if not _complete(need, order, free, free):
            raise SelfCheckFailed("no linear extension completes the realizer")
        self.meter.tick(len(order))
        return order


def _checked(p: FinitePoset, orders: list[list[int]]) -> RealizerTuple:
    """The orders as labels, once their index sequences realize p; that
    check proves what the order and tuple constructors would check again."""
    rows = _meet_rows(orders, len(p))
    if rows is None or tuple(rows) != p.up:
        raise NotARealizer("the realizer search returned orders that fail its self-check")
    return _realizer_of_indices(p.elements, orders)


def find_realizers(
    p: FinitePoset, n: int, budget: int | None = None
) -> RealizerTuple | None:
    """A tuple of n linear extensions whose intersection is lt, or None.
    When n exceeds the dimension, the last order is repeated."""
    if n < 1:
        raise ValueError("n must be at least 1")
    search = _RealizerSearch(p, budget)
    if search.least_classes(n) is None:
        return None
    return _checked(p, search.witness(n))


def dimension(p: FinitePoset, budget: int | None = None) -> DimensionResult:
    """Smallest n admitting a realizer tuple, with a realizer of n orders."""
    search = _RealizerSearch(p, budget)
    n = search.least_classes(len(p))
    if n is None:
        raise SelfCheckFailed("every finite poset has a realizer")
    if len(p) >= 4 and n > hiraguchi_bound(p):
        raise SelfCheckFailed(
            f"dimension {n} breaks the Hiraguchi bound for {len(p)} elements"
        )
    return DimensionResult(n, _checked(p, search.witness(n)))
