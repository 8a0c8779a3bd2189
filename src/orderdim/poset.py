"""Finite strict partial orders, linear orders, and realizers.

Conventions that the rest of the package relies on:

- A relation is stored as one Python int per element: bit j of ``up[i]``,
  and bit i of ``down[j]``, say that ``elements[i] < elements[j]``
  strictly.  Rows are frozen into tuples at construction.
- ``FinitePoset.lt`` is the same relation as a read-only numpy bool
  matrix, ``lt[i, j]`` iff ``elements[i] < elements[j]``.  It is built,
  and numpy imported, only when it is first read; nothing in the package
  reads it.
- A linear order is the sequence of labels from bottom to top.
- A realizer is a tuple of linear orders over one element set whose
  intersection equals the poset's relation.
- The 2n-element crown uses the convention a_i < b_j iff i != j.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product as iter_product
from typing import Iterable, Iterator, Sequence

from .errors import (
    CycleIntroduced,
    DuplicateLabel,
    ElementMismatch,
    LimitExceeded,
    NotARealizer,
    NotLinear,
    OrderError,
    ReflexiveViolation,
    SelfCheckFailed,
    TooSmall,
    TransitivityViolation,
)

__all__ = [
    "FinitePoset",
    "LinearOrder",
    "RealizerTuple",
    "OrderedStructure",
    "validate_poset",
    "szpilrajn_extend",
    "is_realizer",
    "crown",
    "chain",
    "antichain",
    "product_order",
    "lex_order",
    "hiraguchi_bound",
    "tuple_label",
]

# Crowns and `ramsey` grids past this size are refused before anything is
# built: their JSON grows with the square of the size, 13 MB at the cap.
MAX_GENERATED_ELEMENTS = 1024


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(rows: Sequence[int], m: int) -> list[int]:
    cols = [0] * m
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            row ^= low
            cols[low.bit_length() - 1] |= bit
    return cols


def _matrix_rows(lt, m: int) -> list[int]:
    """Bit rows of an m x m boolean matrix: a numpy array or nested lists."""
    rows = lt.tolist() if hasattr(lt, "tolist") else lt
    if not (
        isinstance(rows, (list, tuple))
        and len(rows) == m
        and all(isinstance(r, (list, tuple)) and len(r) == m for r in rows)
    ):
        raise ElementMismatch(f"relation is not a {m} x {m} matrix")
    out = []
    for row in rows:
        bits = 0
        for j, v in enumerate(row):
            if v:
                bits |= 1 << j
        out.append(bits)
    return out


def _closure(rows: Sequence[int]) -> list[int]:
    """Transitive closure of bit rows (Warshall); a cycle shows on the diagonal."""
    out = list(rows)
    for k in range(len(out)):
        bit = 1 << k
        for i, row in enumerate(out):
            if row & bit:
                out[i] = row | out[k]
    return out


def _beyond(up: Sequence[int], row: int) -> int:
    """Elements above some element of row: two steps along up."""
    out = 0
    while row:
        low = row & -row
        row ^= low
        out |= up[low.bit_length() - 1]
    return out


def _first_loop(rows: Sequence[int]) -> int | None:
    """Least i with bit i of rows[i] set, or None."""
    return next((i for i, row in enumerate(rows) if row >> i & 1), None)


def _axiom_violation(labels: Sequence[str], up: Sequence[int]) -> OrderError | None:
    """The first broken strict-order axiom, as the error naming it, or None.

    Reflexive entries come first, in index order.  Then the first pair
    (i, k), in row-major order, that is missing although i < j and j < k
    for some j, naming the smallest such j; a 2-cycle a < b < a shows up
    as (a, b, a).
    """
    loop = _first_loop(up)
    if loop is not None:
        return ReflexiveViolation(labels[loop])
    for i, row in enumerate(up):
        gap = _beyond(up, row) & ~row
        if gap:
            k = (gap & -gap).bit_length() - 1
            j = next(j for j in _bits(row) if up[j] >> k & 1)
            return TransitivityViolation(labels[i], labels[j], labels[k])
    return None


def _chain_rows(m: int) -> list[int]:
    """Rows of the chain 0 < 1 < ... < m-1."""
    full = (1 << m) - 1
    return [full ^ ((1 << (i + 1)) - 1) for i in range(m)]


def product_less(a: Sequence, b: Sequence) -> bool:
    """Componentwise <= and not equal: the product order on tuples."""
    return a != b and all(x <= y for x, y in zip(a, b))


def _json_labels(value: object, what: str) -> list[str]:
    """value, when it is a JSON list of strings; TypeError otherwise."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise TypeError(f"{what} must be a list of strings")
    return value


def _distinct(labels: Sequence[str]) -> Sequence[str]:
    """labels, unless one repeats: then DuplicateLabel naming the first repeat."""
    if len(set(labels)) != len(labels):
        raise DuplicateLabel(next(x for i, x in enumerate(labels) if x in labels[:i]))
    return labels


_LABEL_ESCAPES = str.maketrans({"\\": "\\\\", ",": "\\,", "(": "\\(", ")": "\\)"})


def tuple_label(parts: Sequence[str]) -> str:
    """Canonical label for an element of a product: "(a,b,c)".

    A backslash, comma or parenthesis inside a part is escaped with a
    backslash, so that distinct tuples always get distinct labels; a part
    without those characters keeps its bytes.
    """
    return "(" + ",".join(part.translate(_LABEL_ESCAPES) for part in parts) + ")"


class _Frozen:
    """Immutable value over the fields listed in ``__slots__``.

    The fields are every ``__slots__`` name of the class and its bases,
    base fields first; a ``"__dict__"`` slot, for a cached_property, is
    not a field.  The constructor takes the fields by position or
    keyword and raises TypeError when one is missing, unknown or given
    twice.  A subclass that checks its arguments does so in its own
    ``__init__`` and then calls ``super().__init__``.  Equality holds
    only within one class and compares the field tuples; ``hash`` is the
    field tuple's hash, so it raises TypeError when a field is
    unhashable; the repr is ``Name(field=value, ...)``.  Assigning or
    deleting any attribute raises AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls.__match_args__ = tuple(
            name
            for klass in reversed(cls.__mro__)
            for name in klass.__dict__.get("__slots__", ())
            if name != "__dict__"
        )

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__match_args__
        if kwargs:
            # A keyword left over is unknown or repeats a positional field.
            args += tuple(kwargs.pop(n) for n in names[len(args) :] if n in kwargs)
        if len(args) != len(names) or kwargs:
            raise TypeError(
                f"{self.__class__.__qualname__} takes the fields "
                f"({', '.join(names)}) once each, by position or keyword"
            )
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__match_args__
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which re-runs its check.
        return self.__class__, self._values()


class FinitePoset(_Frozen):
    """Strict partial order on an ordered tuple of distinct labels.

    Construct through validate_poset or the module constructors; the
    class itself only checks shape and that no label repeats, not the
    order axioms.  ``lt`` may be a numpy bool array or nested lists of
    bools; ``from_rows`` takes the bit rows directly.  ``down`` is ``up``
    transposed.
    """

    __slots__ = ("elements", "up", "down", "__dict__")
    elements: tuple[str, ...]
    up: tuple[int, ...]
    down: tuple[int, ...]

    def __init__(self, elements: Sequence[str], lt):
        elements = _distinct(tuple(elements))
        m = len(elements)
        up = tuple(_matrix_rows(lt, m))
        super().__init__(elements, up, tuple(_transpose(up, m)))

    @classmethod
    def from_rows(cls, elements: Sequence[str], up: Sequence[int]) -> "FinitePoset":
        """Poset whose bit j of up[i] says elements[i] < elements[j]."""
        elements = _distinct(tuple(elements))
        m = len(elements)
        up = tuple(up)
        if len(up) != m or any(row >> m for row in up):
            raise ElementMismatch(f"relation rows do not match {m} elements")
        p = cls.__new__(cls)
        _Frozen.__init__(p, elements, up, tuple(_transpose(up, m)))
        return p

    def __reduce__(self):
        # The constructor takes a matrix, not the fields.
        return self.from_rows, (self.elements, self.up)

    @cached_property
    def lt(self):
        """The relation as a read-only numpy bool matrix, built on first read."""
        import numpy as np

        m = len(self.elements)
        out = np.zeros((m, m), dtype=bool)
        for i, row in enumerate(self.up):
            out[i, list(_bits(row))] = True
        out.setflags(write=False)
        return out

    @cached_property
    def _index(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __repr__(self) -> str:
        count = sum(row.bit_count() for row in self.up)
        return f"FinitePoset({len(self)} elements, {count} relations)"

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ElementMismatch(f"unknown element {label!r}") from None

    def less(self, a: str, b: str) -> bool:
        return bool(self.up[self.index(a)] >> self.index(b) & 1)

    def leq(self, a: str, b: str) -> bool:
        return a == b or self.less(a, b)

    def incomparable(self, a: str, b: str) -> bool:
        return a != b and not self.less(a, b) and not self.less(b, a)

    def covers(self) -> list[tuple[str, str]]:
        """Covering pairs (a, b): a < b with nothing strictly between."""
        e = self.elements
        return [
            (e[i], e[j])
            for i, row in enumerate(self.up)
            for j in _bits(row & ~_beyond(self.up, row))
        ]

    def is_chain(self) -> bool:
        full = (1 << len(self)) - 1
        return all(
            up | down | 1 << i == full
            for i, (up, down) in enumerate(zip(self.up, self.down))
        )

    def to_json(self) -> dict:
        m = len(self)
        return {
            "elements": list(self.elements),
            "lt": [[bool(row >> j & 1) for j in range(m)] for row in self.up],
        }

    @staticmethod
    def from_json(data: dict) -> "FinitePoset":
        """The poset of a to_json payload.  Stricter than the constructor:
        labels must be strings and relation cells JSON booleans."""
        labels = _json_labels(data["elements"], "elements")
        lt = data["lt"]
        if not all(isinstance(v, bool) for row in lt for v in row):
            raise TypeError("lt cells must be JSON booleans")
        return validate_poset(labels, lt)


def validate_poset(elements: Sequence[str], lt) -> FinitePoset:
    """Check the strict-order axioms, naming the first violation found.

    ``lt`` is a numpy bool array or nested lists of bools.
    """
    labels = tuple(elements)
    if len(labels) < 1:
        raise TooSmall("a poset needs at least one element")
    _distinct(labels)
    up = _matrix_rows(lt, len(labels))
    err = _axiom_violation(labels, up)
    if err is not None:
        raise err
    return FinitePoset.from_rows(labels, up)


class LinearOrder(_Frozen):
    """Total order given as the label sequence from bottom to top."""

    __slots__ = ("order", "__dict__")
    order: tuple[str, ...]

    def __init__(self, order: Sequence[str]):
        super().__init__(_distinct(tuple(order)))

    @cached_property
    def rank(self) -> dict[str, int]:
        """1-based rank of each label."""
        return {e: i + 1 for i, e in enumerate(self.order)}

    def __len__(self) -> int:
        return len(self.order)

    def __repr__(self) -> str:
        return "LinearOrder(" + " < ".join(self.order) + ")"

    def before(self, a: str, b: str) -> bool:
        return self.rank[a] < self.rank[b]


def _sequence_rows(seq: Sequence[int], m: int) -> list[int]:
    """Bit rows, over m elements, of the linear order that lists the
    element indices in seq from bottom to top; other rows stay empty."""
    out = [0] * m
    above = 0
    for i in reversed(seq):
        out[i] = above
        above |= 1 << i
    return out


def _meet_rows(seqs: Iterable[Sequence[int]], m: int) -> list[int] | None:
    """Bit rows of the pairs that every sequence lists in the same
    direction, the AND of their _sequence_rows, or None when some
    sequence is not a permutation of range(m).  The one realizer
    predicate: is_realizer reaches it through _intersection_rows, the
    dimension search directly.  The same pass checks each sequence: m
    entries, all in range(m), that cover every element are a permutation."""
    everything = (1 << m) - 1
    out = [everything] * m
    try:
        for seq in seqs:
            if len(seq) != m:
                return None
            above = 0
            for i in reversed(seq):
                out[i] &= above
                above |= 1 << i
            if above != everything:
                return None
    except (IndexError, ValueError):
        # An index past m fails the row lookup, a negative one the shift.
        return None
    return out


def _intersection_rows(orders: Sequence[LinearOrder], elements: Sequence[str]) -> list[int]:
    """Bit rows of the pairs that every order puts in the same direction."""
    m = len(elements)
    index = {e: i for i, e in enumerate(_distinct(elements))}
    seqs = []
    for o in orders:
        if len(o) != m:
            raise ElementMismatch("orders range over different element sets")
        try:
            seqs.append([index[e] for e in o.order])
        except KeyError:
            missing = next(e for e in elements if e not in o.rank)
            raise ElementMismatch(f"order is missing element {missing!r}") from None
    # Each sequence lists m distinct labels of elements, so it is a
    # permutation and _meet_rows returns rows.
    return _meet_rows(seqs, m)


class RealizerTuple(_Frozen):
    """Tuple of linear orders over one element set."""

    __slots__ = ("orders",)
    orders: tuple[LinearOrder, ...]

    def __init__(self, orders: Sequence[LinearOrder]):
        orders = tuple(orders)
        if not orders:
            raise TooSmall("a realizer tuple needs at least one order")
        support = set(orders[0].order)
        for o in orders[1:]:
            if set(o.order) != support:
                raise ElementMismatch("orders range over different element sets")
        super().__init__(orders)

    @property
    def n(self) -> int:
        return len(self.orders)

    def __repr__(self) -> str:
        return f"RealizerTuple(n={self.n}, m={len(self.orders[0])})"

    def rank_points(self, elements: Iterable[str]) -> list[tuple[int, ...]]:
        """Each element's 1-based rank in every order, in order: the
        structure placed at its realizer ranks.  Ranks are distinct within
        an order, so no two points share a coordinate, and order i becomes
        the order of coordinate i."""
        ranks = [o.rank for o in self.orders]
        return [tuple(rank[e] for rank in ranks) for e in elements]

    def intersection(self, elements: Sequence[str] | None = None) -> FinitePoset:
        elems = tuple(elements) if elements is not None else self.orders[0].order
        return FinitePoset.from_rows(elems, _intersection_rows(self.orders, elems))

    def to_json(self) -> list[list[str]]:
        return [list(o.order) for o in self.orders]

    @staticmethod
    def from_json(data: Sequence[Sequence[str]]) -> "RealizerTuple":
        """The tuple of a to_json payload: a list of lists of labels."""
        if not isinstance(data, list):
            raise TypeError("orders must be a list of label lists")
        return RealizerTuple([LinearOrder(_json_labels(o, "each order")) for o in data])


def _realizer_of_indices(labels: Sequence[str], seqs: Iterable[Sequence[int]]) -> RealizerTuple:
    """The realizer tuple listing labels[i] for each index i of each
    sequence, built without the constructors' duplicate and support
    checks: only for sequences that _meet_rows has just accepted, which
    are permutations of range(len(labels)) over distinct labels."""
    orders = []
    for seq in seqs:
        o = LinearOrder.__new__(LinearOrder)
        _Frozen.__init__(o, tuple([labels[i] for i in seq]))
        orders.append(o)
    t = RealizerTuple.__new__(RealizerTuple)
    _Frozen.__init__(t, tuple(orders))
    return t


def is_realizer(p: FinitePoset, t: RealizerTuple) -> bool:
    """True iff a < b in p exactly when a is before b in every order of t."""
    if set(t.orders[0].order) != set(p.elements):
        raise ElementMismatch("realizer support differs from poset elements")
    return tuple(_intersection_rows(t.orders, p.elements)) == p.up


class OrderedStructure(_Frozen):
    """A poset bundled with a realizer tuple; construction checks the pair."""

    __slots__ = ("poset", "realizers")
    poset: FinitePoset
    realizers: RealizerTuple

    def __init__(self, poset: FinitePoset, realizers: RealizerTuple):
        if not is_realizer(poset, realizers):
            raise NotARealizer("orders do not realize the poset")
        super().__init__(poset, realizers)

    @property
    def elements(self) -> tuple[str, ...]:
        return self.poset.elements

    @property
    def n(self) -> int:
        return self.realizers.n

    def __len__(self) -> int:
        return len(self.poset)

    def __repr__(self) -> str:
        return f"OrderedStructure(m={len(self)}, n={self.n})"

    @staticmethod
    def from_orders(orders: Sequence[LinearOrder]) -> "OrderedStructure":
        """Structure whose poset is the intersection of the given orders."""
        t = RealizerTuple(orders)
        return OrderedStructure(t.intersection(), t)

    def to_json(self) -> dict:
        out = self.poset.to_json()
        out["orders"] = self.realizers.to_json()
        return out

    @staticmethod
    def from_json(data: dict) -> "OrderedStructure":
        p = FinitePoset.from_json(data)
        return OrderedStructure(p, RealizerTuple.from_json(data["orders"]))


def _find_cycle(edges: Sequence[int], start: int, labels: Sequence[str]) -> list[str]:
    """Walk edges from start back to start; edges must admit such a cycle.

    Breadth first, neighbours in index order, so the walk is a shortest
    cycle through start.
    """
    parent: dict[int, int | None] = {start: None}
    frontier = [start]
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            for v in _bits(edges[u]):
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
    raise SelfCheckFailed("no cycle reachable from start")


def _closed_or_cycle(
    edges: Sequence[int], labels: Sequence[str], error: type[OrderError]
) -> list[int]:
    """The transitive closure of edges, or error naming the shortest cycle
    through the least element that lies on one."""
    closed = _closure(edges)
    loop = _first_loop(closed)
    if loop is not None:
        raise error(_find_cycle(edges, loop, labels))
    return closed


def szpilrajn_extend(
    p: FinitePoset, forced: Iterable[tuple[str, str]] = ()
) -> LinearOrder:
    """Linear extension of p placing a before b for each forced pair (a, b).

    Deterministic: repeatedly emits the lexicographically smallest label
    among the current minimal elements of the forced closure.
    """
    edges = list(p.up)
    for a, b in forced:
        edges[p.index(a)] |= 1 << p.index(b)
    closed = _closed_or_cycle(edges, p.elements, CycleIntroduced)
    below = _transpose(closed, len(p))
    remaining = (1 << len(p)) - 1
    out: list[str] = []
    while remaining:
        minimal = [i for i in _bits(remaining) if not below[i] & remaining]
        pick = min(minimal, key=lambda i: p.elements[i])
        remaining ^= 1 << pick
        out.append(p.elements[pick])
    return LinearOrder(out)


def crown(n: int) -> FinitePoset:
    """The 2n-element crown: a_i < b_j iff i != j, nothing else related."""
    if n < 2:
        raise TooSmall("crown(n) needs n >= 2")
    if 2 * n > MAX_GENERATED_ELEMENTS:
        raise LimitExceeded(f"crown({n}) is past the cap of {MAX_GENERATED_ELEMENTS} elements")
    labels = [f"a{i}" for i in range(1, n + 1)] + [f"b{i}" for i in range(1, n + 1)]
    tops = ((1 << n) - 1) << n
    up = [tops & ~(1 << (n + i)) for i in range(n)] + [0] * n
    return FinitePoset.from_rows(labels, up)


def _generated_labels(
    name: str, m: int, labels: Sequence[str] | None, prefix: str
) -> tuple[str, ...]:
    """The m labels of chain or antichain: the given ones, or prefix1..prefixm."""
    if m < 1:
        raise TooSmall(f"{name}(m) needs m >= 1")
    elems = tuple(labels if labels is not None else (f"{prefix}{i}" for i in range(1, m + 1)))
    if len(elems) != m:
        raise ElementMismatch(f"expected {m} labels, got {len(elems)}")
    return elems


def chain(m: int, labels: Sequence[str] | None = None) -> FinitePoset:
    return FinitePoset.from_rows(_generated_labels("chain", m, labels, "c"), _chain_rows(m))


def antichain(m: int, labels: Sequence[str] | None = None) -> FinitePoset:
    return FinitePoset.from_rows(_generated_labels("antichain", m, labels, "e"), [0] * m)


def _product_rows(coords: Sequence[Sequence[int]], axes: Sequence[Sequence[int]]) -> list[int]:
    """Up rows of the product order on distinct points, for every product
    in the package.  coords[a][b] is point b's value on axis a, an index
    into axes[a], the bit rows of that axis's order; point b is below
    point c when c's value is b's or above it on every axis."""
    m = len(coords[0])
    up = [((1 << m) - 1) ^ 1 << b for b in range(m)]
    for coord, rows in zip(coords, axes):
        at = [0] * len(rows)
        for b, v in enumerate(coord):
            at[v] |= 1 << b
        # Points whose value on this axis is v or above it, built from the
        # top down (fewer values above first): with w the lowest-indexed
        # value above v, those are at[v], at_least[w] and at[u] for each u
        # above v but not w or above it.  On a chain listed bottom to top,
        # as the axes of clouds and grids are, w covers v and nothing is
        # left over, so the axis costs one OR per value.
        at_least = at[:]
        for v in sorted(range(len(rows)), key=lambda v: rows[v].bit_count()):
            row = rows[v]
            if row:
                w = (row & -row).bit_length() - 1
                at_least[v] |= at_least[w] | _beyond(at, row & ~(rows[w] | 1 << w))
        for b, v in enumerate(coord):
            up[b] &= at_least[v]
    return up


def _product_structure(labels: Sequence[str], points: Sequence[Sequence]) -> OrderedStructure:
    """Distinct points, labels[b] naming points[b], under the product
    order and its n cyclic lexicographic orders: order i compares axes i,
    i+1, ..., n-1, 0, ..., i-1 in turn.  Each axis's values need only
    compare; they enter as dense ranks, which sort alike."""
    if not points:
        raise TooSmall("the product order needs at least one point")
    coords = []
    for values in zip(*points):
        rank = {v: r for r, v in enumerate(sorted(set(values)))}
        coords.append([rank[v] for v in values])
    up = _product_rows(coords, [_chain_rows(max(c) + 1) for c in coords])
    orders = []
    for i in range(len(coords)):
        key = list(zip(*coords[i:], *coords[:i]))
        seq = sorted(range(len(up)), key=key.__getitem__)
        orders.append(LinearOrder([labels[b] for b in seq]))
    return OrderedStructure(FinitePoset.from_rows(labels, up), RealizerTuple(orders))


def product_order(ps: Sequence[FinitePoset]) -> FinitePoset:
    """Cartesian product with the componentwise order (<= everywhere, not
    equal), built by _product_rows over the factors' rows."""
    if not ps:
        raise TooSmall("product_order needs at least one factor")
    tuples = list(iter_product(*[p.elements for p in ps]))
    coords = [[p.index(t[a]) for t in tuples] for a, p in enumerate(ps)]
    up = _product_rows(coords, [p.up for p in ps])
    return FinitePoset.from_rows([tuple_label(t) for t in tuples], up)


def lex_order(ps: Sequence[FinitePoset], i: int) -> LinearOrder:
    """The i-th lexicographic order on the product of the given chains.

    Coordinates are compared with cyclic priority i, i+1, ..., n, 1, ..., i-1
    (1-based i as in the written convention): the i-th order of the
    product structure that _product_structure builds over chain ranks.
    """
    if not ps:
        raise TooSmall("lex_order needs at least one factor")
    n = len(ps)
    if not 1 <= i <= n:
        raise ElementMismatch(f"priority index {i} out of range 1..{n}")
    if not all(p.is_chain() for p in ps):
        raise NotLinear("lex_order factors must be chains")
    tuples = list(iter_product(*[p.elements for p in ps]))
    ranks = [tuple(p.down[p.index(x)].bit_count() for p, x in zip(ps, t)) for t in tuples]
    return _product_structure([tuple_label(t) for t in tuples], ranks).realizers.orders[i - 1]


def hiraguchi_bound(p: FinitePoset) -> int:
    """floor(|P| / 2), the dimension bound valid from four elements up."""
    if len(p) < 4:
        raise TooSmall("bound asserted only for posets with at least 4 elements")
    return len(p) // 2
