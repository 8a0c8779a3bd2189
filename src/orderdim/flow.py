"""Realizer enumeration, classification, and the automorphism action.

A structure's realizer tuples form a finite stand-in for the realizer
space of the ambient generic order, and the automorphism group of a
point sample stands in for the full (infinite) automorphism group.
Everything here is exhaustive at small scale:

- enumerate_realizers lists every tuple of linear extensions whose
  intersection is the base order, tagging each with the coordinate
  permutation that classifies it when one exists.
- classify_realizer matches a tuple's orders against a cloud's
  coordinate orders as rank sequences; permutation_witness is the same
  matcher with the one-directional variant needed for clouds and grids
  with colinear points.
- extend_realizer_closure replays the closure step of the realizer
  extension argument (checked acyclic rather than trusting the proof).
- cloud_automorphisms, logic_action, symmetric_sample, and
  semidirect_decomposition cover the group side: the action on
  realizer tuples and the factorization of sample automorphisms into a
  coordinate permutation composed with a coordinate-order-preserving
  part.

Finite-scale caveat: the census equals n! and every tuple classifies
only for special base structures; small samples routinely admit
realizer tuples that no coordinate permutation explains, and symmetric
samples in three or more coordinates are forced to contain colinear
point pairs (two axis permutations agreeing at a position send any
base point to images sharing that coordinate).  Tests treat those gaps
as measured facts, not failures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations
from itertools import product as iter_product
from math import factorial
from typing import Mapping, Sequence

import numpy as np

from .budget import effective_budget
from .dimension import all_linear_extensions
from .errors import (
    CycleFound,
    DecompositionFailed,
    ElementMismatch,
    LimitExceeded,
    NotARealizer,
    NotOrderPreserving,
    TooSmall,
)
from .geometry import (
    Point,
    PointCloud,
    as_fraction,
    induced_structure,
    product_less,
)
from .homogeneity import FlipPattern
from .poset import (
    FinitePoset,
    LinearOrder,
    OrderedStructure,
    RealizerTuple,
    _closure,
    _find_cycle,
    is_realizer,
)

__all__ = [
    "FlipPattern",
    "RealizerSet",
    "DecompositionReport",
    "enumerate_realizers",
    "classify_realizer",
    "permutation_witness",
    "extend_realizer_closure",
    "cloud_automorphisms",
    "logic_action",
    "symmetric_sample",
    "factor_automorphism",
    "semidirect_decomposition",
]

# 8! = 40320 permutations is where the brute automorphism scan stops
# being instant.
DEFAULT_MAX_AUTOMORPHISM_POINTS = 8


def _pair_mask(order: LinearOrder, index: Mapping[str, int]) -> int:
    """Ordered pairs of a linear order packed into one big int."""
    m = len(index)
    seq = [index[lab] for lab in order.order]
    mask = 0
    for pos, i in enumerate(seq):
        base = i * m
        for j in seq[pos + 1 :]:
            mask |= 1 << (base + j)
    return mask


def _poset_mask(p: FinitePoset) -> int:
    m = len(p)
    mask = 0
    for i, j in zip(*np.nonzero(p.lt)):
        mask |= 1 << (int(i) * m + int(j))
    return mask


@dataclass(frozen=True)
class RealizerSet:
    """Every realizer tuple of a base structure, with classifications.

    Each entry pairs a tuple with the permutation sigma such that the
    tuple's order at position sigma[i] equals the base's i-th reference
    order, or None when the tuple is not a rearrangement of the
    reference orders.  Construction re-verifies that every tuple
    realizes the base order.
    """

    base: OrderedStructure
    tuples: tuple[tuple[RealizerTuple, tuple[int, ...] | None], ...]

    def __post_init__(self) -> None:
        p = self.base.poset
        index = {e: i for i, e in enumerate(p.elements)}
        want = _poset_mask(p)
        cache: dict[int, int] = {}
        for t, _sigma in self.tuples:
            if set(t.orders[0].order) != set(index):
                raise ElementMismatch(
                    "tuple support differs from the base elements"
                )
            acc = -1
            for o in t.orders:
                key = id(o)
                if key not in cache:
                    cache[key] = _pair_mask(o, index)
                acc &= cache[key]
            if acc != want:
                raise NotARealizer(
                    "a stored tuple does not realize the base order"
                )

    @property
    def census(self) -> int:
        return len(self.tuples)

    @property
    def classified(self) -> int:
        return sum(1 for _t, sigma in self.tuples if sigma is not None)

    def to_json(self) -> dict:
        return {
            "elements": len(self.base.poset),
            "n": self.base.n,
            "census": self.census,
            "sigmas": [
                list(sigma) if sigma is not None else None
                for _t, sigma in self.tuples
            ],
        }


def _sequence_sigma(
    hits: Sequence[tuple[int, ...]], n: int
) -> tuple[int, ...] | None:
    """Permutation sigma with i in hits[sigma[i]] for all i, or None.

    hits[k] lists the reference indices whose order the tuple's k-th
    order equals; n is small, so a direct permutation scan is fine.
    """
    for sigma in permutations(range(n)):
        if all(i in hits[sigma[i]] for i in range(n)):
            return tuple(sigma)
    return None


def enumerate_realizers(
    s: OrderedStructure, budget: int | None = None
) -> RealizerSet:
    """All n-tuples of linear extensions realizing the structure's order.

    Exhaustive: every extension is enumerated, every n-tuple is tested
    by intersecting pair masks.  The reference orders for the sigma tags
    are the structure's own realizers (for an induced cloud structure
    those are its coordinate orders).
    """
    cap = effective_budget(budget)
    exts = list(all_linear_extensions(s.poset, budget=cap))
    count = len(exts) ** s.n
    if count > cap:
        raise LimitExceeded(
            f"{len(exts)} extensions give {count} candidate {s.n}-tuples, "
            f"over the budget of {cap}"
        )
    index = {e: i for i, e in enumerate(s.poset.elements)}
    want = _poset_mask(s.poset)
    masks = [_pair_mask(o, index) for o in exts]
    refs = [o.order for o in s.realizers.orders]
    hits = [
        tuple(i for i, r in enumerate(refs) if o.order == r) for o in exts
    ]
    entries: list[tuple[RealizerTuple, tuple[int, ...] | None]] = []
    for combo in iter_product(range(len(exts)), repeat=s.n):
        acc = masks[combo[0]]
        for k in combo[1:]:
            acc &= masks[k]
        if acc != want:
            continue
        t = RealizerTuple([exts[k] for k in combo])
        entries.append((t, _sequence_sigma([hits[k] for k in combo], s.n)))
    return RealizerSet(s, tuple(entries))


def permutation_witness(
    points: Mapping[str, Point],
    t: RealizerTuple,
    biconditional: bool = True,
) -> tuple[int, ...] | None:
    """Coordinate permutation explaining a realizer tuple, or None.

    Returns sigma with order sigma[i] accounting for axis i: with
    biconditional=True the order must sort the points exactly by their
    i-th coordinates (so the axis must carry no ties); with
    biconditional=False it only has to respect every strict i-th
    coordinate comparison, the form that survives colinear points.
    """
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
    for sigma in permutations(range(dim)):
        if all(match[i][sigma[i]] for i in range(dim)):
            return tuple(sigma)
    return None


def classify_realizer(
    c: PointCloud, t: RealizerTuple
) -> tuple[int, ...] | None:
    """The permutation matching a tuple's orders to the coordinate orders.

    sigma[i] is the position of the order that sorts the cloud by axis
    i; None when no permutation matches biconditionally.  The tuple
    must realize the cloud's product order to be classifiable at all.
    """
    s = induced_structure(c)
    if set(t.orders[0].order) != set(s.poset.elements):
        raise ElementMismatch("tuple support differs from the cloud labels")
    if not is_realizer(s.poset, t):
        raise NotARealizer("the tuple does not realize the cloud's order")
    points = {c.label(i): p for i, p in enumerate(c.points)}
    return permutation_witness(points, t, biconditional=True)


def extend_realizer_closure(
    base_order: FinitePoset, partial: LinearOrder
) -> FinitePoset:
    """Transitive closure of the base order plus a linear order on a subset.

    The closure is checked acyclic outright (a cycle signals that the
    linear order contradicts the base order) and comes back as a
    partial order ready for szpilrajn_extend.
    """
    for lab in partial.order:
        if lab not in base_order:
            raise ElementMismatch(
                f"order element {lab!r} is outside the base order"
            )
    edges = np.array(base_order.lt)
    seq = [base_order.index(lab) for lab in partial.order]
    for pos, i in enumerate(seq):
        for j in seq[pos + 1 :]:
            edges[i, j] = True
    closed = _closure(edges)
    diag = np.nonzero(np.diagonal(closed))[0]
    if diag.size:
        raise CycleFound(_find_cycle(edges, int(diag[0]), base_order.elements))
    return FinitePoset(base_order.elements, closed)


def cloud_automorphisms(
    c: PointCloud, max_points: int = DEFAULT_MAX_AUTOMORPHISM_POINTS
) -> list[dict[str, str]]:
    """All self-bijections preserving the product order both ways.

    Brute force over point permutations, so the cloud size is capped.
    The identity always appears; output is sorted by image sequence.
    """
    m = len(c)
    if m > max_points:
        raise LimitExceeded(
            f"automorphism scan caps at {max_points} points, got {m}"
        )
    pts = list(c.points)
    rel = [
        tuple(product_less(pts[i], pts[j]) for j in range(m)) for i in range(m)
    ]
    out = []
    for perm in permutations(range(m)):
        if all(
            rel[i][j] == rel[perm[i]][perm[j]]
            for i in range(m)
            for j in range(m)
            if i != j
        ):
            out.append({c.label(i): c.label(perm[i]) for i in range(m)})
    out.sort(key=lambda g: tuple(g[c.label(i)] for i in range(m)))
    return out


def logic_action(g: Mapping[str, str], t: RealizerTuple) -> RealizerTuple:
    """Transport a realizer tuple along an automorphism of its intersection.

    The image order puts g(a) before g(b) exactly when a came before b,
    so each transported order is the relabeled original.  The result is
    re-verified to realize the (unchanged) intersection order.
    """
    labels = set(t.orders[0].order)
    if set(g) != labels or set(g.values()) != labels:
        raise ElementMismatch(
            "the map is not a self-bijection of the tuple's elements"
        )
    p = t.intersection(sorted(labels))
    for a in p.elements:
        for b in p.elements:
            if a != b and p.less(a, b) != p.less(g[a], g[b]):
                raise NotOrderPreserving(
                    f"map moves the pair ({a!r}, {b!r}) across the order"
                )
    moved = RealizerTuple(
        [LinearOrder([g[lab] for lab in o.order]) for o in t.orders]
    )
    if not is_realizer(p, moved):
        raise NotARealizer("the transported tuple fails its self-check")
    return moved


def symmetric_sample(n: int, count: int, seed: int = 0) -> PointCloud:
    """Point cloud closed under coordinate permutations.

    The requested count is rounded up to whole orbits (n! points each)
    so closure survives.  All coordinate values across base points are
    distinct, which makes every cross-orbit pair coordinate-disjoint;
    within an orbit that is impossible once n >= 3, because two axis
    permutations agreeing at some position send the base point to
    images sharing that coordinate, so those clouds are built relaxed
    while n <= 2 stays strict.
    """
    if n < 1:
        raise TooSmall("symmetric samples need n >= 1")
    if count < 1:
        raise TooSmall("symmetric samples need count >= 1")
    orbit = factorial(n)
    orbits = -(-count // orbit)
    rng = random.Random(f"{seed}:sym:{n}")
    values = rng.sample(range(1, 100 * n * orbits + 100), n * orbits)
    pts: list[tuple[int, ...]] = []
    for k in range(orbits):
        base = values[k * n : (k + 1) * n]
        for sigma in permutations(range(n)):
            pts.append(tuple(base[sigma[i]] for i in range(n)))
    pts.sort()
    return PointCloud(n, pts, strict=n <= 2)


def _axis_map(c: PointCloud, sigma: Sequence[int]) -> dict[str, str] | None:
    """Label map of the coordinate permutation, or None if it leaves c."""
    index = {p: i for i, p in enumerate(c.points)}
    out = {}
    for i, p in enumerate(c.points):
        j = index.get(tuple(p[sigma[k]] for k in range(len(p))))
        if j is None:
            return None
        out[c.label(i)] = c.label(j)
    return out


def _preserves_each_axis(c: PointCloud, h: Mapping[str, str]) -> bool:
    pts = {c.label(i): p for i, p in enumerate(c.points)}
    labels = list(pts)
    return all(
        (pts[a][i] < pts[b][i]) == (pts[h[a]][i] < pts[h[b]][i])
        for i in range(c.dim)
        for a in labels
        for b in labels
        if a != b
    )


def factor_automorphism(
    c: PointCloud, g: Mapping[str, str]
) -> tuple[tuple[int, ...], dict[str, str]]:
    """Split an automorphism as (coordinate permutation, axis stabilizer).

    Finds the sigma whose coordinate permutation T composes with some h
    preserving every coordinate order to give g = T o h, and returns
    (sigma, h).  Zero or several candidate factorizations raise; both
    are finite-sample defects worth reporting rather than hiding.
    """
    hits: list[tuple[tuple[int, ...], dict[str, str]]] = []
    for sigma in permutations(range(c.dim)):
        t_map = _axis_map(c, sigma)
        if t_map is None:
            continue
        inv = {v: k for k, v in t_map.items()}
        h = {lab: inv[g[lab]] for lab in g}
        if _preserves_each_axis(c, h):
            hits.append((tuple(sigma), h))
    if not hits:
        raise DecompositionFailed(
            "no coordinate permutation factors the map"
        )
    if len(hits) > 1:
        raise DecompositionFailed(
            f"{len(hits)} factorizations; the split is not unique"
        )
    return hits[0]


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of factoring every automorphism of a symmetric sample.

    exact means: all n! coordinate permutations act on the sample, every
    automorphism factored uniquely, and the group size is exactly
    (stabilizer size) * n!.
    """

    group_size: int
    stabilizer_size: int
    axis_permutations: int
    exact: bool
    factorizations: tuple[tuple[dict[str, str], tuple[int, ...], dict[str, str]], ...]
    failures: tuple[tuple[dict[str, str], str], ...]

    def to_json(self) -> dict:
        return {
            "group_size": self.group_size,
            "stabilizer_size": self.stabilizer_size,
            "axis_permutations": self.axis_permutations,
            "exact": self.exact,
            "factorizations": [
                {"map": g, "sigma": list(sigma), "stabilizer_part": h}
                for g, sigma, h in self.factorizations
            ],
            "failures": [
                {"map": g, "reason": reason} for g, reason in self.failures
            ],
        }


def semidirect_decomposition(
    c: PointCloud, max_points: int = DEFAULT_MAX_AUTOMORPHISM_POINTS
) -> DecompositionReport:
    """Factor the whole automorphism group of a symmetric sample.

    Failures are recorded per map, not raised: finite samples can admit
    accidental automorphisms with no coordinate-permutation part.
    """
    autos = cloud_automorphisms(c, max_points)
    stabilizer = [g for g in autos if _preserves_each_axis(c, g)]
    present = sum(
        1
        for sigma in permutations(range(c.dim))
        if _axis_map(c, sigma) is not None
    )
    factorizations = []
    failures = []
    for g in autos:
        try:
            sigma, h = factor_automorphism(c, g)
            factorizations.append((dict(g), sigma, h))
        except DecompositionFailed as exc:
            failures.append((dict(g), str(exc)))
    exact = (
        present == factorial(c.dim)
        and not failures
        and len(autos) == len(stabilizer) * present
    )
    return DecompositionReport(
        group_size=len(autos),
        stabilizer_size=len(stabilizer),
        axis_permutations=present,
        exact=exact,
        factorizations=tuple(factorizations),
        failures=tuple(failures),
    )
