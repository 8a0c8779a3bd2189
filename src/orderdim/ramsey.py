"""Grid combinatorics behind the partition property of realizer classes.

The pipeline mirrors the induced-coloring argument: structures embed
rigidly into grids at their rank coordinates, colorings of copies pull
back to colorings of subgrids, and a monochromatic subgrid found there
pushes forward to a monochromatic copy.  `_grid_groups` is the one
enumeration of the l^n-subgrids inside each m^n-subgrid: the grid
coloring search, the monochromatic-subgrid scan and the reduction of
`ramsey_witness_check` all read its index lists.  Every search here is an
exhaustive sweep over a finite space.  The coloring search cuts only
branches that provably contain nothing (completed monochromatic groups,
color permutations), so it returns the first coloring an uncut
depth-first search would; that uncut search is the test oracle.

Each public call resolves one budget and spends it on one meter, across
every r of `product_ramsey_number` and every scan of a reduction.  The
meter's phase, "grid coloring search at r=...", "copy coloring search"
or "monochromatic-subgrid scan" ("copy enumeration" for a bare
`enumerate_copies`), opens the LimitExceeded message.  Copy enumeration
tries every subset of the host, so more subsets than the budget are
refused before any is tried.

Canonical orderings, used for coloring serialization: grid points are
row-major; copies are indexed by their element subsets in lexicographic
order of sorted index lists; subgrid axes run through per-axis
combinations in the same lexicographic order.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, product as iter_product
from math import comb
from typing import Callable, Iterator, Sequence

from .budget import BudgetMeter
from .dimension import _colour_classes
from .errors import ElementMismatch, LimitExceeded, SelfCheckFailed, TooSmall
from .poset import (
    MAX_GENERATED_ELEMENTS,
    OrderedStructure,
    _Frozen,
    _product_structure,
)

__all__ = [
    "GridStruct",
    "Subgrid",
    "Coloring",
    "rigid_embed",
    "enumerate_copies",
    "all_subgrids",
    "rigid_copy_in_subgrid",
    "induced_coloring",
    "find_mono_subgrid",
    "product_ramsey_number",
    "ramsey_witness_check",
]

GRID_SEARCH = "grid coloring search"
COPY_SEARCH = "copy coloring search"
COPIES = "copy enumeration"
SCAN = "monochromatic-subgrid scan"

GridPoint = tuple[int, ...]


def _point_label(p: GridPoint) -> str:
    return ",".join(str(v) for v in p)


class GridStruct(_Frozen):
    """The m^n grid: product order plus its n cyclic lexicographic orders.

    Order i compares coordinates i, i+1, ..., wrapping around; their
    intersection is the product order.  The points and the structure are
    built lazily, the structure by poset's one product builder, which
    re-checks the pair on construction.
    """

    __slots__ = ("m", "n", "__dict__")
    m: int
    n: int

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise TooSmall("grids need m >= 1 and n >= 1")
        cap = MAX_GENERATED_ELEMENTS
        if max(m, n) > cap or m**n > cap:
            raise LimitExceeded(f"the grid {m}^{n} is past the cap of {cap} points and axes")
        super().__init__(m, n)

    @cached_property
    def points(self) -> tuple[GridPoint, ...]:
        return tuple(iter_product(range(1, self.m + 1), repeat=self.n))

    def __len__(self) -> int:
        return len(self.points)

    def label(self, p: GridPoint) -> str:
        return _point_label(p)

    @cached_property
    def structure(self) -> OrderedStructure:
        return _product_structure([self.label(p) for p in self.points], self.points)


class Subgrid(_Frozen):
    """Per-axis value subsets; the subgrid is their product."""

    __slots__ = ("axes",)

    def __init__(self, axes: tuple[tuple[int, ...], ...]):
        if not axes:
            raise TooSmall("a subgrid needs at least one axis")
        for axis in axes:
            if not axis or any(b <= a for a, b in zip(axis, axis[1:])):
                raise ElementMismatch(
                    "each axis must be a nonempty strictly increasing tuple"
                )
        super().__init__(axes)

    @property
    def side(self) -> int | None:
        sizes = {len(axis) for axis in self.axes}
        return sizes.pop() if len(sizes) == 1 else None

    def points(self) -> Iterator[GridPoint]:
        return iter_product(*self.axes)

    def to_json(self) -> dict:
        return {"axes": [list(axis) for axis in self.axes]}

    @staticmethod
    def from_json(payload: dict) -> "Subgrid":
        return Subgrid(tuple(tuple(axis) for axis in payload["axes"]))


class Coloring(_Frozen):
    """Total map from a canonically ordered target set into {1..k}.

    kind is "copies" (keys are label tuples aligned with the pattern's
    elements) or "subgrids" (keys are axis tuples).  JSON keeps only the
    value array; the key list is regenerated from the same parameters.
    """

    __slots__ = ("kind", "k", "keys", "values", "__dict__")

    def __init__(self, kind: str, k: int, keys: tuple, values: tuple[int, ...]):
        if kind not in ("copies", "subgrids"):
            raise ElementMismatch(f"unknown coloring kind {kind!r}")
        if k < 1:
            raise TooSmall("colorings need k >= 1")
        if len(keys) != len(values):
            raise ElementMismatch("one value per target key required")
        if len(set(keys)) != len(keys):
            raise ElementMismatch("target keys must be distinct")
        if any(not 1 <= v <= k for v in values):
            raise ElementMismatch("colors must lie in 1..k")
        super().__init__(kind, k, keys, values)

    @cached_property
    def _lookup(self) -> dict:
        return dict(zip(self.keys, self.values))

    def color(self, key) -> int:
        try:
            return self._lookup[key]
        except KeyError:
            raise ElementMismatch(f"{key!r} is not in the coloring's target")

    def to_json(self) -> dict:
        return {"kind": self.kind, "k": self.k, "values": list(self.values)}

    @staticmethod
    def from_json(payload: dict, keys: Sequence) -> "Coloring":
        return Coloring(
            payload["kind"], payload["k"], tuple(keys), tuple(payload["values"])
        )


def rigid_embed(s: OrderedStructure) -> list[GridPoint]:
    """Each element at its tuple of realizer ranks, aligned with s.elements:
    `RealizerTuple.rank_points`, which puts no two points on one
    coordinate and makes each order of s the matching coordinate order."""
    return s.realizers.rank_points(s.elements)


def _is_copy(
    a: OrderedStructure, b: OrderedStructure, phi: dict[str, str]
) -> bool:
    """Does phi embed a into b?  Both carry the same number of orders, so
    keeping every order is enough: each poset is the intersection of its
    orders, and phi keeps every order, so it keeps the poset too."""
    for i in range(a.n):
        seq = a.realizers.orders[i].order
        rank = b.realizers.orders[i].rank
        if any(
            rank[phi[x]] >= rank[phi[y]] for x, y in zip(seq, seq[1:])
        ):
            return False
    return True


def enumerate_copies(
    b: OrderedStructure | GridStruct, a: OrderedStructure
) -> list[tuple[str, ...]]:
    """All induced substructures of b isomorphic to a, each once.

    Returns label tuples aligned with a.elements.  A candidate subset
    admits at most one isomorphism: linear realizers force the match of
    first-order ranks, so each subset is tested against that single map.
    More subsets than the budget are refused before any is tried.
    """
    return _copies(b, a, BudgetMeter(None, COPIES))


def _copies(
    b: OrderedStructure | GridStruct, a: OrderedStructure, meter: BudgetMeter
) -> list[tuple[str, ...]]:
    """enumerate_copies, refusing through a meter that the caller may share."""
    bs = b.structure if isinstance(b, GridStruct) else b
    if a.n != bs.n:
        raise ElementMismatch("pattern and host carry different realizer counts")
    l = len(a.elements)
    meter.require(comb(len(bs.elements), l), "subsets of the host to test as copies")
    a_by_first = a.realizers.orders[0].order
    first_rank = bs.realizers.orders[0].rank
    copies = []
    for subset in combinations(bs.elements, l):
        ordered = sorted(subset, key=lambda x: first_rank[x])
        phi = dict(zip(a_by_first, ordered))
        if _is_copy(a, bs, phi):
            copies.append(tuple(phi[e] for e in a.elements))
    return copies


def all_subgrids(r: int, n: int, l: int) -> list[tuple[tuple[int, ...], ...]]:
    """Axis keys of every l^n-subgrid of r^n, in canonical order."""
    per_axis = list(combinations(range(1, r + 1), l))
    return list(iter_product(per_axis, repeat=n))


def rigid_copy_in_subgrid(
    a: OrderedStructure, axes: tuple[tuple[int, ...], ...]
) -> list[GridPoint]:
    """The unique rigid copy of a inside the given subgrid.

    Coordinate i of element e is the rk_i(e)-th smallest value of
    axis i; aligned with a.elements.
    """
    if len(axes) != a.n:
        raise ElementMismatch(f"the subgrid has {len(axes)} axes, the pattern {a.n} orders")
    if any(len(axis) != len(a.elements) for axis in axes):
        raise ElementMismatch("subgrid sides must equal the structure size")
    return _at_ranks(a.realizers.rank_points(a.elements), axes)


def _at_ranks(ranks: Sequence[GridPoint], axes: Sequence[Sequence[int]]) -> list[GridPoint]:
    """Each rank point r sent into the subgrid: coordinate i becomes the
    r[i]-th smallest value of axes[i]."""
    return [tuple([axis[r - 1] for axis, r in zip(axes, p)]) for p in ranks]


def induced_coloring(
    c: Coloring, a: OrderedStructure, grid: GridStruct
) -> Coloring:
    """Pull a coloring of copies of a back to the l^n-subgrids of the grid.

    Each subgrid is colored by its rigid copy of a, the one copy every
    subgrid is guaranteed to contain.
    """
    if c.kind != "copies":
        raise ElementMismatch("induced colorings start from copy colorings")
    if grid.n != a.n:
        raise ElementMismatch("pattern and grid carry different realizer counts")
    keys = all_subgrids(grid.m, grid.n, len(a.elements))
    values = [c.color(copy) for copy in _rigid_copies(a, keys)]
    return Coloring("subgrids", c.k, tuple(keys), tuple(values))


def _rigid_copies(
    s: OrderedStructure, keys: Sequence[Sequence[Sequence[int]]]
) -> list[tuple[str, ...]]:
    """The label tuple of s's rigid copy in each subgrid of keys, aligned
    with s.elements."""
    ranks = s.realizers.rank_points(s.elements)
    return [tuple(_point_label(p) for p in _at_ranks(ranks, axes)) for axes in keys]


def find_mono_subgrid(
    col: Coloring, m: int, budget: int | None = None
) -> Subgrid | None:
    """First m^n-subgrid whose l^n-subgrids share one color, if any."""
    meter = BudgetMeter(budget, SCAN)
    if col.kind != "subgrids":
        raise ElementMismatch("expected a coloring of subgrids")
    if not col.keys:
        raise TooSmall("the coloring's target is empty")
    sample = col.keys[0]
    n = len(sample)
    l = len(sample[0])
    r = max(v for axes in col.keys for axis in axes for v in axis)
    if not l <= m <= r:
        raise TooSmall(f"need l <= m <= r, got l={l}, m={m}, r={r}")
    cells, groups = _grid_groups(l, m, n, r)
    found = _first_mono_group([col.color(key) for key in cells], groups, meter.tick)
    return None if found is None else Subgrid(all_subgrids(r, n, m)[found])


def _first_mono_group(
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


def _search_free_coloring(
    num_cells: int,
    k: int,
    groups: Sequence[Sequence[int]],
    meter: BudgetMeter,
) -> list[int] | None:
    """A coloring of the cells leaving every group non-monochromatic.

    Exhaustive depth-first search in canonical cell order by the kernel
    that the realizer search shares, `dimension._colour_classes`.  A
    color is the bitmask of its cells, and each group, as a bitmask,
    waits under its largest cell: a cell joins a color unless that
    completes one of its groups there, which later cells cannot undo.
    Colors open in first-use order, as renaming them preserves
    (non-)monochromaticity.  Every color tried ticks the meter.  Returns
    None when no such coloring exists.
    """
    if any(not g for g in groups):
        raise ElementMismatch("groups must be nonempty")
    closers: list[list[int]] = [[] for _ in range(num_cells)]
    for members in groups:
        closers[max(members)].append(sum(1 << c for c in set(members)))

    def fits(cells: int, t: int) -> int | None:
        grown = cells | 1 << t
        for group in closers[t]:
            if group & grown == group:
                return None
        return grown

    found = _colour_classes(num_cells, k, 0, fits, meter.tick)
    return None if found is None else [c + 1 for c in found]


def _grid_groups(
    l: int, m: int, n: int, r: int
) -> tuple[list[tuple[tuple[int, ...], ...]], list[list[int]]]:
    """The l^n-subgrids of r^n, and for each m^n-subgrid the indices of
    the l^n-subgrids inside it."""
    cells = all_subgrids(r, n, l)
    index = {key: t for t, key in enumerate(cells)}
    groups = [
        [index[small] for small in iter_product(*[combinations(axis, l) for axis in big])]
        for big in all_subgrids(r, n, m)
    ]
    return cells, groups


def _grid_counterexample(
    k: int,
    l: int,
    m: int,
    n: int,
    r: int,
    meter: BudgetMeter | None = None,
) -> Coloring | None:
    """A k-coloring of the l^n-subgrids of r^n with no monochromatic
    m^n-subgrid, or None when every coloring has one.  Spends the given
    meter, else one of its own."""
    if meter is None:
        meter = BudgetMeter(None, f"{GRID_SEARCH} at r={r}")
    cells, groups = _grid_groups(l, m, n, r)
    found = _search_free_coloring(len(cells), k, groups, meter)
    if found is None:
        return None
    return Coloring("subgrids", k, tuple(cells), tuple(found))


def product_ramsey_number(
    k: int,
    l: int,
    m: int,
    n: int,
    r_max: int = 6,
    budget: int | None = None,
) -> int | None:
    """Least r <= r_max such that every k-coloring of the l^n-subgrids
    of r^n has a monochromatic m^n-subgrid, or None past r_max.

    Exhaustive over colorings via the counterexample search; below m
    no m^n-subgrid exists at all, so the scan starts there.  One budget
    covers every r tried.
    """
    if min(k, l, m, n) < 1:
        raise TooSmall("all parameters must be positive")
    if l > m:
        raise TooSmall("the subgrids being colored must fit in the target")
    meter = BudgetMeter(budget, GRID_SEARCH)
    for r in range(m, r_max + 1):
        meter.what = f"{GRID_SEARCH} at r={r}"
        meter.require(comb(r, l) ** n * k, "cells times colors")
        if _grid_counterexample(k, l, m, n, r, meter) is None:
            return r
    return None


def _copy_groups(
    grid: GridStruct,
    a: OrderedStructure,
    b: OrderedStructure,
    meter: BudgetMeter | None = None,
) -> tuple[list[tuple[str, ...]], list[tuple[str, ...]], list[list[int]]]:
    """Copies of a in the grid, copies of b in the grid, and for each
    copy of b the indices of the grid's a-copies lying inside it.  The
    given meter, else one of its own, refuses too many subsets; b, the
    larger pattern, is enumerated first."""
    if meter is None:
        meter = BudgetMeter(None, COPIES)
    copies_b = _copies(grid, b, meter)
    copies_a = _copies(grid, a, meter)
    index = {key: t for t, key in enumerate(copies_a)}
    inner = _copies(b, a, meter)
    if copies_b and not inner:
        raise ElementMismatch("the pattern does not embed in the target")
    groups = []
    for bcopy in copies_b:
        psi = dict(zip(b.elements, bcopy))
        groups.append([index[tuple(psi[x] for x in acopy)] for acopy in inner])
    return copies_a, copies_b, groups


def ramsey_witness_check(
    a: OrderedStructure,
    b: OrderedStructure,
    k: int,
    r: int,
    method: str = "reduction",
    budget: int | None = None,
) -> bool:
    """Does the r^n grid witness the partition property for a inside b?

    True iff every k-coloring of the copies of a admits a copy of b all
    of whose a-copies share one color.  method "exhaustive" sweeps the
    coloring space by counterexample search; method "reduction" walks
    every coloring and replays the two-step argument (pull back to
    subgrids, locate a monochromatic one, read off the rigid copy of b).
    The pullback (each cell's rigid copy of a) and each m^n-subgrid's
    rigid copy of b are built once per call; per coloring the scan reads
    index lists.  When r^n holds no monochromatic m^n-subgrid, as when
    m > r, the copies of b are scanned directly.  A located subgrid whose
    rigid copy of b is not monochromatic contradicts the argument and
    raises SelfCheckFailed.  Both methods decide the same predicate.  One
    budget covers the whole call, every subgrid scan and the up-front
    refusal of too many copy candidates included.
    """
    if method not in ("exhaustive", "reduction"):
        raise ElementMismatch(f"unknown method {method!r}")
    meter = BudgetMeter(budget, COPY_SEARCH if method == "exhaustive" else SCAN)
    if a.n != b.n:
        raise ElementMismatch("pattern and target carry different realizer counts")
    if len(a.elements) > len(b.elements):
        raise TooSmall("the pattern must fit inside the target")
    grid = GridStruct(r, a.n)
    copies_a, copies_b, groups = _copy_groups(grid, a, b, meter)
    if not groups:
        return False
    if method == "exhaustive":
        return _search_free_coloring(len(copies_a), k, groups, meter) is None
    meter.require(k ** len(copies_a), "colorings to scan")
    # Built once: the copy of a that colors each l^n-subgrid (cell), the
    # cells inside each m^n-subgrid, and the a-copies inside its rigid
    # copy of b, which is one of the groups.
    m = len(b.elements)
    index_a = {key: t for t, key in enumerate(copies_a)}
    index_b = {key: j for j, key in enumerate(copies_b)}
    cells, subgrids = _grid_groups(len(a.elements), m, a.n, r)
    cell_copy = [index_a[key] for key in _rigid_copies(a, cells)]
    rigid_b = [groups[index_b[key]] for key in _rigid_copies(b, all_subgrids(r, a.n, m))]
    for assignment in iter_product(range(1, k + 1), repeat=len(copies_a)):
        pulled = [assignment[t] for t in cell_copy]
        mono = _first_mono_group(pulled, subgrids, meter.tick)
        if mono is None:
            if all(len({assignment[t] for t in g}) > 1 for g in groups):
                return False
        elif len({assignment[t] for t in rigid_b[mono]}) != 1:
            raise SelfCheckFailed(
                "a monochromatic subgrid's rigid copy of the target is not monochromatic"
            )
    return True
