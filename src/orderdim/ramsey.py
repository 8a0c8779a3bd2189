"""Grid combinatorics behind the partition property of realizer classes.

Structures embed rigidly into grids at their rank coordinates.  A grid
is an ordinary structure, `poset.grid(r, n)`: the points of r^n under
the product order and its n cyclic lexicographic orders.  Both
partition questions go to one coloring kernel, `poset._colour_classes`,
which the realizer search in `dimension` shares, so this module loads
no `dimension`: `product_ramsey_number` colors the l^n-subgrids of r^n
against the m^n-subgrids (`_grid_groups` lists the l^n-subgrids inside
each), and `ramsey_witness_check` colors the copies of a pattern in the
grid against the copies of a target (`_copy_groups`).  Every
search here is an exhaustive sweep over a finite space.  The coloring
search cuts only branches that provably contain nothing (completed
monochromatic groups, color permutations), so it returns the first
coloring an uncut depth-first search would; that uncut search is the
test oracle, and so is the paper's induced-coloring reduction, which
decides the witness predicate a second way.

Each public call resolves one budget and spends it on one meter, across
every r of `product_ramsey_number`.  The meter's phase, "grid coloring
search at r=..." or "copy coloring search" ("copy enumeration" for a
bare `enumerate_copies`), opens the LimitExceeded message.  Copy
enumeration tries every subset of the host, so more subsets than the
budget are refused before any is tried.

Canonical orderings, which fix the first coloring a search returns:
grid points are row-major; copies are indexed by their element subsets
in lexicographic order of sorted index lists; subgrid axes run through
per-axis combinations in the same lexicographic order.
"""

from __future__ import annotations

from itertools import combinations, product as iter_product
from math import comb
from typing import Sequence

from .budget import BudgetMeter
from .errors import ElementMismatch, TooSmall
from .poset import OrderedStructure, _colour_classes, grid

__all__ = [
    "rigid_embed",
    "enumerate_copies",
    "all_subgrids",
    "product_ramsey_number",
    "ramsey_witness_check",
]

GRID_SEARCH = "grid coloring search"
COPY_SEARCH = "copy coloring search"
COPIES = "copy enumeration"

def rigid_embed(s: OrderedStructure) -> list[tuple[int, ...]]:
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


def enumerate_copies(b: OrderedStructure, a: OrderedStructure) -> list[tuple[str, ...]]:
    """All induced substructures of the host structure b isomorphic to
    a, each once; the host of the partition property is `poset.grid`.

    Returns label tuples aligned with a.elements.  A candidate subset
    admits at most one isomorphism: linear realizers force the match of
    first-order ranks, so each subset is tested against that single map.
    More subsets than the budget are refused before any is tried.
    """
    return _copies(b, a, BudgetMeter(None, COPIES))


def _copies(
    b: OrderedStructure, a: OrderedStructure, meter: BudgetMeter
) -> list[tuple[str, ...]]:
    """enumerate_copies, refusing through a meter that the caller may share."""
    if a.n != b.n:
        raise ElementMismatch("pattern and host carry different realizer counts")
    l = len(a.elements)
    meter.require(comb(len(b.elements), l), "subsets of the host to test as copies")
    a_by_first = a.realizers.orders[0].order
    first_rank = b.realizers.orders[0].rank
    copies = []
    for subset in combinations(b.elements, l):
        ordered = sorted(subset, key=lambda x: first_rank[x])
        phi = dict(zip(a_by_first, ordered))
        if _is_copy(a, b, phi):
            copies.append(tuple(phi[e] for e in a.elements))
    return copies


def all_subgrids(r: int, n: int, l: int) -> list[tuple[tuple[int, ...], ...]]:
    """Axis keys of every l^n-subgrid of r^n, in canonical order."""
    per_axis = list(combinations(range(1, r + 1), l))
    return list(iter_product(per_axis, repeat=n))


def _search_free_coloring(
    num_cells: int,
    k: int,
    groups: Sequence[Sequence[int]],
    meter: BudgetMeter,
) -> list[int] | None:
    """A coloring of the cells leaving every group non-monochromatic.

    Exhaustive depth-first search in canonical cell order by the kernel
    that the realizer search shares, `poset._colour_classes`.  A
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
    meter: BudgetMeter,
) -> list[int] | None:
    """The colors, in canonical cell order, of a k-coloring of the
    l^n-subgrids of r^n with no monochromatic m^n-subgrid, or None when
    every coloring has one."""
    cells, groups = _grid_groups(l, m, n, r)
    return _search_free_coloring(len(cells), k, groups, meter)


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
    host: OrderedStructure,
    a: OrderedStructure,
    b: OrderedStructure,
    meter: BudgetMeter,
) -> tuple[int, list[list[int]]]:
    """The number of copies of a in the host, and for each copy of b in
    the host the indices of the a-copies lying inside it.  The meter
    refuses too many subsets; b, the larger pattern, is enumerated
    first."""
    copies_b = _copies(host, b, meter)
    copies_a = _copies(host, a, meter)
    index = {key: t for t, key in enumerate(copies_a)}
    inner = _copies(b, a, meter)
    if copies_b and not inner:
        raise ElementMismatch("the pattern does not embed in the target")
    groups = []
    for bcopy in copies_b:
        psi = dict(zip(b.elements, bcopy))
        groups.append([index[tuple(psi[x] for x in acopy)] for acopy in inner])
    return len(copies_a), groups


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
    of whose a-copies share one color: the coloring kernel finds no
    k-coloring of the a-copies that leaves every copy of b
    non-monochromatic.  One budget covers the whole call, the up-front
    refusal of too many copy candidates included.

    `method` chooses nothing.  "reduction" and "exhaustive" both run the
    kernel, and any other value is refused; the parameter is kept only
    because `bench/workloads.py` passes it, and goes once that stops.
    An unknown method, and fewer than one color, are refused before any
    copy is counted, as `product_ramsey_number` refuses the latter.
    """
    if method not in ("exhaustive", "reduction"):
        raise ElementMismatch(f"unknown method {method!r}")
    if k < 1:
        raise TooSmall("colorings need k >= 1")
    meter = BudgetMeter(budget, COPY_SEARCH)
    if a.n != b.n:
        raise ElementMismatch("pattern and target carry different realizer counts")
    if len(a.elements) > len(b.elements):
        raise TooSmall("the pattern must fit inside the target")
    num_copies, groups = _copy_groups(grid(r, a.n), a, b, meter)
    return bool(groups) and _search_free_coloring(num_copies, k, groups, meter) is None
