"""Exact-rational point clouds: sampling, regions, forth, back-and-forth.

Geometry is done entirely in fractions.Fraction; floats are rejected at
every entry point because colinearity (two points sharing a coordinate)
is measure zero and float rounding would silently create or destroy it.

A cloud's structure: the product order (componentwise <=, not equal) is
realized by the n cyclic-priority lexicographic orders.  On a strict
cloud (no shared coordinates anywhere) the i-th lexicographic order is
just the i-th coordinate order.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import product as iter_product
from math import prod
from typing import Iterator, Sequence

from .budget import BudgetMeter
from .errors import (
    ColinearPoints,
    ElementMismatch,
    InvalidEmbedding,
    LimitExceeded,
    TooSmall,
)
from .poset import OrderedStructure, _Frozen, _product_structure

__all__ = [
    "Point",
    "PointCloud",
    "Region",
    "PartialEmbedding",
    "frac_str",
    "induced_structure",
    "iter_balls",
    "sample_dn",
    "regions_of",
    "pick_in_region",
    "forth_extend",
    "back_and_forth_iso",
]

Point = tuple[Fraction, ...]

# Clouds with more axes are refused.  Every search over a cloud walks its
# axes, and flow's coordinate-permutation searches refuse dimension 10
# already at the default budget (10! steps); a cap keeps a bare "dim" in
# the input from sizing the per-axis structures downstream.  Samples
# (`sample_dn`, `flow.symmetric_sample`) of more coordinates in all are
# refused before any point is drawn; one at the cap takes some 200 MB.
MAX_CLOUD_DIM = 1000
MAX_SAMPLE_COORDINATES = 500_000

Endpoint = Fraction | None  # None stands for the missing (infinite) bound

# The budget phase of _cells, the one enumeration of minimal cells.
CELLS = "cell enumeration"


def as_fraction(v: object) -> Fraction:
    if isinstance(v, float):
        raise TypeError("floats are not exact; pass int, Fraction, or 'p/q' string")
    if isinstance(v, bool):
        raise TypeError("booleans are not coordinates")
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, str)):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"{v!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {type(v).__name__} as an exact rational")


def frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _check_dim(dim: int) -> None:
    """Refuse more than MAX_CLOUD_DIM axes: the one width cap of clouds and
    of the certificate derivations that build one, checked before any
    point is made."""
    if dim > MAX_CLOUD_DIM:
        raise LimitExceeded(
            f"point clouds are capped at {MAX_CLOUD_DIM} dimensions, got {dim}"
        )


class PointCloud(_Frozen):
    """Finite list of n-dimensional exact-rational points.

    strict=True (the default) additionally forbids any two points from
    sharing a coordinate on any single axis.
    """

    __slots__ = ("dim", "points", "strict", "__dict__")
    dim: int
    points: tuple[Point, ...]
    strict: bool

    def __init__(self, dim: int, points: Sequence[Sequence[object]], strict: bool = True):
        if dim < 2:
            raise TooSmall("point clouds need dimension >= 2")
        _check_dim(dim)
        pts: list[Point] = []
        seen: dict[Point, int] = {}
        axis_values: list[dict[Fraction, int]] = [{} for _ in range(dim)]
        for idx, raw in enumerate(points):
            p = tuple(as_fraction(v) for v in raw)
            if len(p) != dim:
                raise ElementMismatch(
                    f"point {idx} has arity {len(p)}, expected {dim}"
                )
            if p in seen:
                raise ColinearPoints(seen[p], idx, None)
            if strict:
                for j, v in enumerate(p):
                    if v in axis_values[j]:
                        raise ColinearPoints(axis_values[j][v], idx, j)
                    axis_values[j][v] = idx
            seen[p] = idx
            pts.append(p)
        super().__init__(dim, tuple(pts), strict)

    @cached_property
    def _axis_values(self) -> tuple[frozenset[Fraction], ...]:
        return tuple(frozenset(p[j] for p in self.points) for j in range(self.dim))

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        kind = "strict" if self.strict else "relaxed"
        return f"PointCloud(dim={self.dim}, {len(self)} points, {kind})"

    def label(self, idx: int) -> str:
        return f"p{idx}"

    def axis_values(self, axis: int) -> frozenset[Fraction]:
        return self._axis_values[axis]

    def with_point(self, p: Sequence[object]) -> "PointCloud":
        return PointCloud(self.dim, list(self.points) + [tuple(p)], self.strict)

    def to_json(self) -> dict:
        out: dict = {
            "dim": self.dim,
            "points": [[frac_str(v) for v in p] for p in self.points],
        }
        if not self.strict:
            out["strict"] = False
        return out

    @staticmethod
    def from_json(data: dict) -> "PointCloud":
        """The cloud of a to_json payload.  Stricter than the constructor:
        dim must be a JSON integer, points a list of lists, and strict,
        when present, a JSON boolean."""
        dim = data["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise TypeError("dim must be a JSON integer")
        points = data["points"]
        if not isinstance(points, list) or not all(isinstance(p, list) for p in points):
            raise TypeError("points must be a list of lists")
        strict = data.get("strict", True)
        if not isinstance(strict, bool):
            raise TypeError("strict must be a JSON boolean")
        return PointCloud(dim, points, strict)


def induced_structure(c: PointCloud) -> OrderedStructure:
    """Product order on the points, realized by the n lexicographic orders.

    Built by poset's one product builder over each axis's dense ranks.
    """
    return _product_structure([c.label(i) for i in range(len(c))], c.points)


def iter_balls(n: int) -> Iterator[tuple[Point, Fraction]]:
    """Fixed injective enumeration of (center, radius) balls covering Q^n.

    Level t adds, for each denominator exponent b <= t, the centers
    q / 2^b with integer tuples |q| <= 2^t and radius 2^-(b+1), skipping
    what level t-1 already produced.  Every open box of Q^n contains a
    ball of the stream, which is what makes sample_dn fill space.
    """
    t = 0
    while True:
        bound = 1 << t
        prev = bound >> 1
        for b in range(t + 1):
            scale = 1 << b
            radius = Fraction(1, 2 * scale)
            for nums in iter_product(range(-bound, bound + 1), repeat=n):
                if b < t and all(abs(q) <= prev for q in nums):
                    continue
                yield tuple(Fraction(q, scale) for q in nums), radius
        t += 1


def _clear_value(
    base: Fraction,
    radius: Fraction,
    used: frozenset[Fraction] | set[Fraction],
    rng: random.Random,
) -> Fraction:
    """A value within (base - radius, base + radius) avoiding `used`."""
    for _ in range(32):
        r = rng.randrange(-(1 << 20) + 1, 1 << 20)
        v = base + radius * Fraction(r, 1 << 20)
        if v not in used:
            return v
    i = 1
    while True:
        v = base + radius * (1 - Fraction(1, 1 << i))
        if v not in used:
            return v
        i += 1


def _check_sample_size(n: int, count: int) -> None:
    if n > MAX_CLOUD_DIM or n * count > MAX_SAMPLE_COORDINATES:
        raise LimitExceeded(
            f"{count} points of dimension {n} are past the caps of {MAX_CLOUD_DIM} "
            f"dimensions and {MAX_SAMPLE_COORDINATES} coordinates"
        )


def sample_dn(n: int, count: int, seed: int) -> PointCloud:
    """Deterministic strict cloud; the k-th point lies in the k-th ball."""
    if n < 2:
        raise TooSmall("sample_dn needs dimension >= 2")
    if count < 0:
        raise TooSmall("count must be non-negative")
    _check_sample_size(n, count)
    balls = iter_balls(n)
    used: list[set[Fraction]] = [set() for _ in range(n)]
    pts: list[Point] = []
    for k in range(count):
        center, radius = next(balls)
        rng = random.Random(f"{seed}:{k}")
        p = tuple(
            _clear_value(center[j], radius, used[j], rng) for j in range(n)
        )
        for j in range(n):
            used[j].add(p[j])
        pts.append(p)
    return PointCloud(n, pts, strict=True)


class Region(_Frozen):
    """Product of open intervals; None endpoints mean unbounded."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: tuple[tuple[Endpoint, Endpoint], ...]):
        for lo, hi in intervals:
            if lo is not None and hi is not None and not lo < hi:
                raise TooSmall(f"empty interval ({lo}, {hi})")
        super().__init__(intervals)

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def contains(self, p: Point) -> bool:
        for (lo, hi), v in zip(self.intervals, p):
            if lo is not None and not lo < v:
                return False
            if hi is not None and not v < hi:
                return False
        return True

    def to_json(self) -> list[list[str | None]]:
        return [
            [None if lo is None else frac_str(lo), None if hi is None else frac_str(hi)]
            for lo, hi in self.intervals
        ]


def _cells(axes: Sequence[Sequence]) -> Iterator[tuple[tuple, ...]]:
    """Every minimal cell cut by entries listed in order on each axis:
    one gap (lower neighbour, upper neighbour) per axis, None where the
    gap is unbounded.  An axis with no entries has the one gap (None,
    None).  More cells times axes than the budget are refused before any
    cell is built."""
    gaps = [list(zip([None, *entries], [*entries, None])) for entries in axes]
    BudgetMeter(None, CELLS).require(prod(map(len, gaps)) * len(gaps), "cells times axes")
    return iter_product(*gaps)


def regions_of(c: PointCloud) -> list[Region]:
    """Every minimal cell cut out by the coordinate hyperplanes of the
    cloud, through `_cells` on each axis's sorted values."""
    axes = [sorted(c.axis_values(j)) for j in range(c.dim)]
    return [Region(cell) for cell in _cells(axes)]


def pick_in_region(c: PointCloud, r: Region) -> Point:
    """Deterministic point strictly inside r sharing no coordinate with c.

    Midpoint for a bounded interval, endpoint plus or minus one for a
    half-bounded one, zero for an unbounded one; a collision with an
    existing coordinate bisects toward the upper endpoint, or steps up
    by one when there is no upper endpoint.
    """
    if r.dim != c.dim:
        raise ElementMismatch(f"region arity {r.dim} does not match cloud dim {c.dim}")
    coords: list[Fraction] = []
    for j, (lo, hi) in enumerate(r.intervals):
        used = c.axis_values(j)
        if lo is None and hi is None:
            v = Fraction(0)
            while v in used:
                v += 1
        elif lo is None:
            v = hi - 1
            while v in used:
                v = (v + hi) / 2
        elif hi is None:
            v = lo + 1
            while v in used:
                v += 1
        else:
            v = (lo + hi) / 2
            while v in used:
                v = (v + hi) / 2
        coords.append(v)
    return tuple(coords)


class PartialEmbedding(_Frozen):
    """Partial map from a structure's elements to points of a cloud.

    images lists (element, point index) pairs in insertion order; the map
    must preserve the product order and every lexicographic order on its
    domain, which verify() checks through poset's one product builder.
    """

    __slots__ = ("source", "cloud", "images")
    source: OrderedStructure
    cloud: PointCloud
    images: tuple[tuple[str, int], ...]

    @property
    def mapping(self) -> dict[str, int]:
        return dict(self.images)

    def domain(self) -> tuple[str, ...]:
        return tuple(e for e, _ in self.images)

    def verify(self) -> None:
        """Raise unless images map distinct source elements one to one
        onto cloud points so that every order of the source is kept.  The
        image points go through poset's one product builder, and its n
        lexicographic orders must be the source's orders restricted to the
        domain; both posets are the intersections of their orders, so the
        product order is kept too."""
        n = self.source.n
        if n != self.cloud.dim:
            raise InvalidEmbedding(
                f"structure has {n} orders but cloud dimension is {self.cloud.dim}"
            )
        domain = self.domain()
        if len(set(domain)) != len(domain):
            raise InvalidEmbedding("an element is mapped twice")
        for e, idx in self.images:
            if e not in self.source.poset:
                raise ElementMismatch(f"unknown source element {e!r}")
            if not 0 <= idx < len(self.cloud):
                raise ElementMismatch(f"point index {idx} is not in the cloud")
        seen = [idx for _, idx in self.images]
        if len(set(seen)) != len(seen):
            raise InvalidEmbedding("two elements map to the same point")
        if not domain:
            return
        got = _product_structure(domain, [self.cloud.points[i] for i in seen])
        keep = set(domain)
        for i, (o, g) in enumerate(zip(self.source.realizers.orders, got.realizers.orders)):
            want = tuple(x for x in o.order if x in keep)
            if want != g.order:
                x, y = next((x, y) for x, y in zip(want, g.order) if x != y)
                raise InvalidEmbedding(f"order {i + 1} not preserved on ({x}, {y})")


def forth_extend(f: PartialEmbedding, q: str) -> PartialEmbedding:
    """Extend f to one more source element, placing its image by region pick.

    The source sits at its realizer ranks (`RealizerTuple.rank_points`),
    so its i-th order is the order of coordinate i there.  The new image
    goes into the gap region `_region_from_matches` reads off those
    points: on each axis strictly between the images of q's neighbors in
    that order (unbounded on a side where q is extreme), so every order
    relation involving q is preserved.
    """
    if not f.cloud.strict:
        raise InvalidEmbedding("forth extension targets strict clouds only")
    if q not in f.source.poset.elements:
        raise ElementMismatch(f"unknown source element {q!r}")
    if q in f.mapping:
        raise ElementMismatch(f"{q!r} is already embedded")
    f.verify()
    *src, at = f.source.realizers.rank_points([*f.domain(), q])
    dst = [f.cloud.points[i] for _, i in f.images]
    target = pick_in_region(f.cloud, _region_from_matches(src, dst, at))
    new_cloud = f.cloud.with_point(target)
    return PartialEmbedding(f.source, new_cloud, f.images + ((q, len(new_cloud) - 1),))


def _region_from_matches(
    src: Sequence[Sequence], dst: Sequence[Point], at: Sequence
) -> Region:
    """The gap region for a new point at `at`, given points src[k] already
    matched to dst[k].  On each axis it runs from the largest dst value
    whose src value lies below at's to the least one whose src value does
    not; a side with no such value is unbounded.  src values need only
    compare: rank points and cloud points both serve."""
    intervals: list[tuple[Endpoint, Endpoint]] = []
    for i, v in enumerate(at):
        lo: Endpoint = None
        hi: Endpoint = None
        for sp, dp in zip(src, dst):
            if sp[i] < v:
                if lo is None or dp[i] > lo:
                    lo = dp[i]
            elif hi is None or dp[i] < hi:
                hi = dp[i]
        intervals.append((lo, hi))
    return Region(tuple(intervals))


def _whole_space(n: int) -> Region:
    return Region(tuple((None, None) for _ in range(n)))


def _pull(
    src: PointCloud, dst: PointCloud, matched: Sequence[tuple[int, int]]
) -> tuple[PointCloud, PointCloud, int, int]:
    """One back-and-forth round from src to dst, matched holding (src
    index, dst index) pairs.  The first unmatched point of src, or a fresh
    one when all are matched, is paired with the first unmatched point of
    dst inside its gap region, or with a fresh point picked there.
    Returns both clouds, grown as needed, and the new pair."""
    taken = {x for x, _ in matched}
    x = next((i for i in range(len(src)) if i not in taken), None)
    if x is None:
        src = src.with_point(pick_in_region(src, _whole_space(src.dim)))
        x = len(src) - 1
    region = _region_from_matches(
        [src.points[i] for i, _ in matched],
        [dst.points[j] for _, j in matched],
        src.points[x],
    )
    taken = {y for _, y in matched}
    y = next(
        (j for j in range(len(dst)) if j not in taken and region.contains(dst.points[j])),
        None,
    )
    if y is None:
        dst = dst.with_point(pick_in_region(dst, region))
        y = len(dst) - 1
    return src, dst, x, y


def _check_seed_matches(
    a: PointCloud, b: PointCloud, matched: Sequence[tuple[int, int]]
) -> None:
    """Raise unless matched, (a-index, b-index) pairs, is a partial
    embedding: verify over the structure of the seeded points of a."""
    for x, y in matched:
        if not (0 <= x < len(a) and 0 <= y < len(b)):
            raise ElementMismatch(f"seed match ({x}, {y}) is out of range")
    if not matched:
        return
    xs = sorted({x for x, _ in matched})
    seeded = _product_structure([a.label(x) for x in xs], [a.points[x] for x in xs])
    PartialEmbedding(seeded, b, tuple((a.label(x), y) for x, y in matched)).verify()


def back_and_forth_iso(
    a: PointCloud,
    b: PointCloud,
    steps: int,
    seed_matches: Sequence[tuple[int, int]] = (),
) -> tuple[PartialEmbedding, PartialEmbedding]:
    """Alternating partial isomorphism between two clouds of one dimension.

    Odd rounds pull the next unmatched point of a into the domain, even
    rounds the next unmatched point of b into the range; a fresh point is
    picked (and appended) on either side whenever no existing point fits,
    so the map always completes.  seed_matches pins (a-index, b-index)
    pairs up front; they must already be order-consistent.  Returns the
    two mutually inverse partial embeddings over the possibly grown clouds.
    """
    if steps < 0:
        raise TooSmall(f"back-and-forth needs steps >= 0, got {steps}")
    if a.dim != b.dim:
        raise ElementMismatch("clouds must share a dimension")
    if not (a.strict and b.strict):
        raise InvalidEmbedding("back-and-forth targets strict clouds only")
    _check_seed_matches(a, b, seed_matches)
    matched: list[tuple[int, int]] = list(seed_matches)
    for step in range(steps):
        if step % 2 == 0:
            a, b, x, y = _pull(a, b, matched)
        else:
            b, a, y, x = _pull(b, a, [(y, x) for x, y in matched])
        matched.append((x, y))
    if not len(a) or not len(b):
        raise TooSmall("back_and_forth_iso needs a non-empty cloud or steps > 0")
    fwd = PartialEmbedding(
        induced_structure(a), b, tuple((a.label(x), y) for x, y in matched)
    )
    bwd = PartialEmbedding(
        induced_structure(b), a, tuple((b.label(y), x) for x, y in matched)
    )
    return fwd, bwd
