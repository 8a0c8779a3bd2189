"""Grid combinatorics behind the partition property of realizer classes.

The pipeline mirrors the induced-coloring argument: structures embed
rigidly into grids at their rank coordinates, colorings of copies pull
back to colorings of subgrids, and a monochromatic subgrid found there
pushes forward to a monochromatic copy.  Every search here is an
exhaustive sweep over a finite space.  The coloring search cuts only
branches that provably contain nothing (completed monochromatic groups,
color permutations), so it returns the first coloring an uncut
depth-first search would; that uncut search is the test oracle.

Each public call resolves one budget and spends it on one meter, across
every r of `product_ramsey_number` and every scan of a reduction.  The
meter's phase, "grid coloring search at r=...", "copy coloring search"
or "monochromatic-subgrid scan", opens the LimitExceeded message.

Canonical orderings, used for coloring serialization: grid points are
row-major; copies are indexed by their element subsets in lexicographic
order of sorted index lists; subgrid axes run through per-axis
combinations in the same lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product as iter_product
from math import comb
from typing import Iterator, Sequence

from .budget import BudgetMeter, effective_budget
from .errors import ElementMismatch, TooSmall
from .geometry import product_less
from .poset import (
    FinitePoset,
    LinearOrder,
    OrderedStructure,
    RealizerTuple,
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
SCAN = "monochromatic-subgrid scan"

GridPoint = tuple[int, ...]


def _point_label(p: GridPoint) -> str:
    return ",".join(str(v) for v in p)


def _label_point(label: str) -> GridPoint:
    return tuple(int(v) for v in label.split(","))


class GridStruct:
    """The m^n grid: product order plus its n cyclic lexicographic orders.

    Order i compares coordinates i, i+1, ..., wrapping around; their
    intersection is the product order, which the lazily built structure
    re-checks on construction.
    """

    __slots__ = ("m", "n", "points", "__dict__")

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise TooSmall("grids need m >= 1 and n >= 1")
        self.m = m
        self.n = n
        self.points: tuple[GridPoint, ...] = tuple(
            iter_product(range(1, m + 1), repeat=n)
        )

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"GridStruct({self.m}^{self.n})"

    def label(self, p: GridPoint) -> str:
        return _point_label(p)

    @cached_property
    def structure(self) -> OrderedStructure:
        labels = [self.label(p) for p in self.points]
        up = [
            sum(1 << j for j, q in enumerate(self.points) if product_less(p, q))
            for p in self.points
        ]
        poset = FinitePoset.from_rows(labels, up)
        orders = []
        for i in range(self.n):
            pri = [(i + j) % self.n for j in range(self.n)]
            ranked = sorted(self.points, key=lambda p: tuple(p[a] for a in pri))
            orders.append(LinearOrder([self.label(p) for p in ranked]))
        return OrderedStructure(poset, RealizerTuple(orders))


@dataclass(frozen=True)
class Subgrid:
    """Per-axis value subsets; the subgrid is their product."""

    axes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.axes:
            raise TooSmall("a subgrid needs at least one axis")
        for axis in self.axes:
            if not axis or any(b <= a for a, b in zip(axis, axis[1:])):
                raise ElementMismatch(
                    "each axis must be a nonempty strictly increasing tuple"
                )

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


@dataclass(frozen=True)
class Coloring:
    """Total map from a canonically ordered target set into {1..k}.

    kind is "copies" (keys are label tuples aligned with the pattern's
    elements) or "subgrids" (keys are axis tuples).  JSON keeps only the
    value array; the key list is regenerated from the same parameters.
    """

    kind: str
    k: int
    keys: tuple
    values: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("copies", "subgrids"):
            raise ElementMismatch(f"unknown coloring kind {self.kind!r}")
        if self.k < 1:
            raise TooSmall("colorings need k >= 1")
        if len(self.keys) != len(self.values):
            raise ElementMismatch("one value per target key required")
        if len(set(self.keys)) != len(self.keys):
            raise ElementMismatch("target keys must be distinct")
        if any(not 1 <= v <= self.k for v in self.values):
            raise ElementMismatch("colors must lie in 1..k")

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
    """Each element at its tuple of realizer ranks, aligned with s.elements.

    Ranks are distinct within every order, so no two image points share
    a coordinate, and each order of s becomes the corresponding
    coordinate order on the image.
    """
    return [
        tuple(s.realizers.orders[i].rank[e] for i in range(s.n))
        for e in s.elements
    ]


def _is_copy(
    a: OrderedStructure, b: OrderedStructure, phi: dict[str, str]
) -> bool:
    """Does phi embed a into b, orders and poset both?"""
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


def enumerate_copies(
    b: OrderedStructure | GridStruct, a: OrderedStructure
) -> list[tuple[str, ...]]:
    """All induced substructures of b isomorphic to a, each once.

    Returns label tuples aligned with a.elements.  A candidate subset
    admits at most one isomorphism: linear realizers force the match of
    first-order ranks, so each subset is tested against that single map.
    """
    bs = b.structure if isinstance(b, GridStruct) else b
    if a.n != bs.n:
        raise ElementMismatch("pattern and host carry different realizer counts")
    l = len(a.elements)
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
    if any(len(axis) != len(a.elements) for axis in axes):
        raise ElementMismatch("subgrid sides must equal the structure size")
    return [
        tuple(
            axes[i][a.realizers.orders[i].rank[e] - 1] for i in range(a.n)
        )
        for e in a.elements
    ]


def induced_coloring(
    c: Coloring, a: OrderedStructure, grid: GridStruct
) -> Coloring:
    """Pull a coloring of copies of a back to the l^n-subgrids of the grid.

    Each subgrid is colored by its rigid copy of a, the one copy every
    subgrid is guaranteed to contain.
    """
    if c.kind != "copies":
        raise ElementMismatch("induced colorings start from copy colorings")
    keys = all_subgrids(grid.m, grid.n, len(a.elements))
    values = []
    for axes in keys:
        points = rigid_copy_in_subgrid(a, axes)
        values.append(c.color(tuple(_point_label(p) for p in points)))
    return Coloring("subgrids", c.k, tuple(keys), tuple(values))


def find_mono_subgrid(
    col: Coloring, m: int, budget: int | None = None
) -> Subgrid | None:
    """First m^n-subgrid whose l^n-subgrids share one color, if any."""
    return _mono_subgrid_scan(col, m, BudgetMeter(effective_budget(budget), SCAN))


def _mono_subgrid_scan(
    col: Coloring, m: int, meter: BudgetMeter
) -> Subgrid | None:
    """find_mono_subgrid on a meter that the caller may share."""
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
    tick = meter.tick
    for big in iter_product(combinations(range(1, r + 1), m), repeat=n):
        seen: set[int] = set()
        for small in iter_product(
            *[list(combinations(axis, l)) for axis in big]
        ):
            tick()
            seen.add(col.color(small))
            if len(seen) > 1:
                break
        if len(seen) == 1:
            return Subgrid(big)
    return None


def _search_free_coloring(
    num_cells: int,
    k: int,
    groups: Sequence[Sequence[int]],
    meter: BudgetMeter,
) -> list[int] | None:
    """A coloring of the cells leaving every group non-monochromatic.

    Exhaustive depth-first search in canonical cell order, run on an
    explicit stack so that no recursion grows with the cell count.  A
    branch dies once some fully colored group is monochromatic, since
    later cells cannot undo that.  Color names are normalized to
    first-use order, which is sound because renaming colors preserves
    (non-)monochromaticity.  Every color tried ticks the meter.  Returns
    None when no such coloring exists.
    """
    if any(not g for g in groups):
        raise ElementMismatch("groups must be nonempty")
    closers: list[list[Sequence[int]]] = [[] for _ in range(num_cells)]
    for members in groups:
        closers[max(members)].append(members)
    tick = meter.tick
    colors = [0] * num_cells
    # used[t]: how many colors the cells before t have opened.
    used = [0] * (num_cells + 1)
    t = 0
    while 0 <= t < num_cells:
        col = colors[t] + 1
        if col > k or col > used[t] + 1:
            colors[t] = 0
            t -= 1
            continue
        tick()
        colors[t] = col
        for members in closers[t]:
            if all(colors[c] == col for c in members):
                break  # a monochromatic group closes here: try the next color
        else:
            used[t + 1] = max(used[t], col)
            t += 1
    return colors if t == num_cells else None


def _grid_groups(
    l: int, m: int, n: int, r: int
) -> tuple[list[tuple[tuple[int, ...], ...]], list[list[int]]]:
    """The l^n-subgrids of r^n, and for each m^n-subgrid the indices of
    the l^n-subgrids inside it."""
    cells = all_subgrids(r, n, l)
    index = {key: t for t, key in enumerate(cells)}
    groups = []
    for big in iter_product(combinations(range(1, r + 1), m), repeat=n):
        groups.append(
            [
                index[small]
                for small in iter_product(
                    *[list(combinations(axis, l)) for axis in big]
                )
            ]
        )
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
        meter = BudgetMeter(effective_budget(), f"{GRID_SEARCH} at r={r}")
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
    meter = BudgetMeter(effective_budget(budget), GRID_SEARCH)
    for r in range(m, r_max + 1):
        meter.what = f"{GRID_SEARCH} at r={r}"
        meter.require(comb(r, l) ** n * k, "cells times colors")
        if _grid_counterexample(k, l, m, n, r, meter) is None:
            return r
    return None


def _copy_groups(
    grid: GridStruct, a: OrderedStructure, b: OrderedStructure
) -> tuple[list[tuple[str, ...]], list[tuple[str, ...]], list[list[int]]]:
    """Copies of a in the grid, copies of b, and for each b-copy the
    indices of the a-copies lying inside it."""
    copies_a = enumerate_copies(grid, a)
    copies_b = enumerate_copies(grid, b)
    index = {key: t for t, key in enumerate(copies_a)}
    inner = enumerate_copies(b, a)
    if copies_b and not inner:
        raise ElementMismatch("the pattern does not embed in the target")
    groups = []
    for bcopy in copies_b:
        psi = dict(zip(b.elements, bcopy))
        groups.append([index[tuple(psi[x] for x in acopy)] for acopy in inner])
    return copies_a, copies_b, groups


def _mono_copy_exists(
    values: Sequence[int], groups: Sequence[Sequence[int]]
) -> bool:
    return any(
        len({values[t] for t in members}) == 1 for members in groups
    )


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
    subgrids, locate a monochromatic one, read off the rigid copy of b),
    falling back to a direct scan when the located subgrid does not
    settle the coloring.  Both methods decide the same predicate.  One
    budget covers the whole call, every subgrid scan included.
    """
    meter = BudgetMeter(
        effective_budget(budget), COPY_SEARCH if method == "exhaustive" else SCAN
    )
    if a.n != b.n:
        raise ElementMismatch("pattern and target carry different realizer counts")
    if len(a.elements) > len(b.elements):
        raise TooSmall("the pattern must fit inside the target")
    grid = GridStruct(r, a.n)
    copies_a, copies_b, groups = _copy_groups(grid, a, b)
    if not copies_b:
        return False
    if method == "exhaustive":
        return _search_free_coloring(len(copies_a), k, groups, meter) is None
    if method != "reduction":
        raise ElementMismatch(f"unknown method {method!r}")
    meter.require(k ** len(copies_a), "colorings to scan")
    m = len(b.elements)
    inner = enumerate_copies(b, a)
    for assignment in iter_product(range(1, k + 1), repeat=len(copies_a)):
        coloring = Coloring("copies", k, tuple(copies_a), assignment)
        pulled = induced_coloring(coloring, a, grid)
        settled = False
        mono = _mono_subgrid_scan(pulled, m, meter)
        if mono is not None:
            rigid_b = rigid_copy_in_subgrid(b, mono.axes)
            psi = dict(
                zip(b.elements, (_point_label(p) for p in rigid_b))
            )
            shades = {
                coloring.color(tuple(psi[x] for x in acopy)) for acopy in inner
            }
            settled = len(shades) == 1
        if not settled and not _mono_copy_exists(assignment, groups):
            return False
    return True
