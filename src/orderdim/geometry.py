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
from itertools import product as iter_product
from typing import Iterator, Sequence

from .errors import (
    ColinearPoints,
    ElementMismatch,
    InvalidEmbedding,
    LimitExceeded,
    TooSmall,
)
from .poset import (
    FinitePoset,
    LinearOrder,
    OrderedStructure,
    RealizerTuple,
    _Frozen,
    product_less,
)

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
# the input from sizing the per-axis structures downstream.
MAX_CLOUD_DIM = 1000

Endpoint = Fraction | None  # None stands for the missing (infinite) bound


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


def cyclic_priority(i: int, n: int) -> list[int]:
    """0-based axis priority i, i+1, ..., n-1, 0, ..., i-1."""
    return [(i + j) % n for j in range(n)]


class PointCloud:
    """Finite list of n-dimensional exact-rational points.

    strict=True (the default) additionally forbids any two points from
    sharing a coordinate on any single axis.
    """

    __slots__ = ("dim", "points", "strict", "_axis_values")

    def __init__(self, dim: int, points: Sequence[Sequence[object]], strict: bool = True):
        if dim < 2:
            raise TooSmall("point clouds need dimension >= 2")
        if dim > MAX_CLOUD_DIM:
            raise LimitExceeded(
                f"point clouds are capped at {MAX_CLOUD_DIM} dimensions, got {dim}"
            )
        self.dim = dim
        self.strict = strict
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
                for j in range(dim):
                    if p[j] in axis_values[j]:
                        raise ColinearPoints(axis_values[j][p[j]], idx, j)
            seen[p] = idx
            for j in range(dim):
                axis_values[j].setdefault(p[j], idx)
            pts.append(p)
        self.points: tuple[Point, ...] = tuple(pts)
        self._axis_values = tuple(frozenset(d) for d in axis_values)

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointCloud):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.points == other.points
            and self.strict == other.strict
        )

    def __repr__(self) -> str:
        kind = "strict" if self.strict else "relaxed"
        return f"PointCloud(dim={self.dim}, {len(self)} points, {kind})"

    def label(self, idx: int) -> str:
        return f"p{idx}"

    def index_of(self, label: str) -> int:
        if not label.startswith("p"):
            raise ElementMismatch(f"unknown point label {label!r}")
        try:
            idx = int(label[1:])
            self.points[idx]
        except (ValueError, IndexError):
            raise ElementMismatch(f"unknown point label {label!r}") from None
        return idx

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


def lex_less(a: Point, b: Point, priority: Sequence[int]) -> bool:
    for axis in priority:
        if a[axis] != b[axis]:
            return a[axis] < b[axis]
    return False


def _product_poset(c: PointCloud) -> FinitePoset:
    """The product order on the points, labelled as the cloud labels them."""
    k = len(c)
    if k < 1:
        raise TooSmall("the product order needs at least one point")
    labels = tuple(c.label(i) for i in range(k))
    pts = c.points
    up = [
        sum(1 << j for j in range(k) if product_less(pts[i], pts[j]))
        for i in range(k)
    ]
    return FinitePoset.from_rows(labels, up)


def induced_structure(c: PointCloud) -> OrderedStructure:
    """Product order on the points, realized by the n lexicographic orders."""
    poset = _product_poset(c)
    labels = poset.elements
    k = len(labels)
    orders = []
    for i in range(c.dim):
        pri = cyclic_priority(i, c.dim)
        idx = sorted(range(k), key=lambda t: tuple(c.points[t][a] for a in pri))
        orders.append(LinearOrder([labels[t] for t in idx]))
    return OrderedStructure(poset, RealizerTuple(orders))


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


def sample_dn(n: int, count: int, seed: int) -> PointCloud:
    """Deterministic strict cloud; the k-th point lies in the k-th ball."""
    if n < 2:
        raise TooSmall("sample_dn needs dimension >= 2")
    if count < 0:
        raise TooSmall("count must be non-negative")
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
        object.__setattr__(self, "intervals", intervals)

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

    @staticmethod
    def from_json(data: Sequence[Sequence[str | None]]) -> "Region":
        return Region(
            tuple(
                (
                    None if lo is None else as_fraction(lo),
                    None if hi is None else as_fraction(hi),
                )
                for lo, hi in data
            )
        )


def regions_of(c: PointCloud) -> list[Region]:
    """Every minimal cell cut out by the coordinate hyperplanes of the cloud."""
    per_axis: list[list[tuple[Endpoint, Endpoint]]] = []
    for j in range(c.dim):
        vals = sorted({p[j] for p in c.points})
        bounds: list[Endpoint] = [None] + list(vals) + [None]
        per_axis.append(list(zip(bounds, bounds[1:])))
    return [Region(tuple(cell)) for cell in iter_product(*per_axis)]


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
    must preserve the product order and every coordinate order on its
    domain, which verify() checks pairwise.
    """

    __slots__ = ("source", "cloud", "images")

    def __init__(
        self,
        source: OrderedStructure,
        cloud: PointCloud,
        images: tuple[tuple[str, int], ...],
    ):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "cloud", cloud)
        object.__setattr__(self, "images", images)

    @property
    def mapping(self) -> dict[str, int]:
        return dict(self.images)

    def domain(self) -> tuple[str, ...]:
        return tuple(e for e, _ in self.images)

    def point_of(self, element: str) -> Point:
        return self.cloud.points[self.mapping[element]]

    def verify(self) -> None:
        n = self.source.n
        if n != self.cloud.dim:
            raise InvalidEmbedding(
                f"structure has {n} orders but cloud dimension is {self.cloud.dim}"
            )
        seen = [idx for _, idx in self.images]
        if len(set(seen)) != len(seen):
            raise InvalidEmbedding("two elements map to the same point")
        orders = self.source.realizers.orders
        poset = self.source.poset
        for x, xi in self.images:
            for y, yi in self.images:
                if x == y:
                    continue
                px, py = self.cloud.points[xi], self.cloud.points[yi]
                for i in range(n):
                    want = orders[i].before(x, y)
                    got = lex_less(px, py, cyclic_priority(i, n))
                    if want != got:
                        raise InvalidEmbedding(
                            f"order {i + 1} not preserved on ({x}, {y})"
                        )
                if poset.less(x, y) != product_less(px, py):
                    raise InvalidEmbedding(f"product order not preserved on ({x}, {y})")


def forth_extend(f: PartialEmbedding, q: str) -> PartialEmbedding:
    """Extend f to one more source element, placing its image by region pick.

    For each coordinate i the new image is pinned strictly between the
    images of q's neighbors in the i-th source order (unbounded on a side
    where q is extreme), so every order relation involving q is preserved.
    """
    if not f.cloud.strict:
        raise InvalidEmbedding("forth extension targets strict clouds only")
    if q not in f.source.poset.elements:
        raise ElementMismatch(f"unknown source element {q!r}")
    if q in f.mapping:
        raise ElementMismatch(f"{q!r} is already embedded")
    f.verify()
    n = f.source.n
    intervals: list[tuple[Endpoint, Endpoint]] = []
    for i in range(n):
        order = f.source.realizers.orders[i]
        lo: Endpoint = None
        hi: Endpoint = None
        for x, xi in f.images:
            v = f.cloud.points[xi][i]
            if order.before(x, q):
                if lo is None or v > lo:
                    lo = v
            else:
                if hi is None or v < hi:
                    hi = v
        intervals.append((lo, hi))
    target = pick_in_region(f.cloud, Region(tuple(intervals)))
    new_cloud = f.cloud.with_point(target)
    return PartialEmbedding(
        source=f.source,
        cloud=new_cloud,
        images=f.images + ((q, len(new_cloud) - 1),),
    )


def _region_from_matches(
    src_cloud: PointCloud,
    dst_cloud: PointCloud,
    matched: list[tuple[int, int]],
    src_idx: int,
) -> Region:
    """Target region for src_idx: per axis, between its matched neighbors."""
    n = src_cloud.dim
    intervals: list[tuple[Endpoint, Endpoint]] = []
    sp = src_cloud.points[src_idx]
    for i in range(n):
        lo: Endpoint = None
        hi: Endpoint = None
        for a_idx, b_idx in matched:
            sv = src_cloud.points[a_idx][i]
            dv = dst_cloud.points[b_idx][i]
            if sv < sp[i]:
                if lo is None or dv > lo:
                    lo = dv
            else:
                if hi is None or dv < hi:
                    hi = dv
        intervals.append((lo, hi))
    return Region(tuple(intervals))


def _whole_space(n: int) -> Region:
    return Region(tuple((None, None) for _ in range(n)))


def _first_unmatched(cloud_size: int, taken: set[int]) -> int | None:
    for i in range(cloud_size):
        if i not in taken:
            return i
    return None


def _check_seed_matches(
    a: PointCloud, b: PointCloud, matched: Sequence[tuple[int, int]]
) -> None:
    for x, y in matched:
        if not (0 <= x < len(a) and 0 <= y < len(b)):
            raise ElementMismatch(f"seed match ({x}, {y}) is out of range")
    if len({x for x, _ in matched}) != len(matched) or len(
        {y for _, y in matched}
    ) != len(matched):
        raise InvalidEmbedding("seed matches must be injective on both sides")
    for x, y in matched:
        for x2, y2 in matched:
            if x == x2:
                continue
            for i in range(a.dim):
                if (a.points[x][i] < a.points[x2][i]) != (
                    b.points[y][i] < b.points[y2][i]
                ):
                    raise InvalidEmbedding(
                        f"seed matches break order {i + 1} on points {x} and {x2}"
                    )


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
    if a.dim != b.dim:
        raise ElementMismatch("clouds must share a dimension")
    if not (a.strict and b.strict):
        raise InvalidEmbedding("back-and-forth targets strict clouds only")
    _check_seed_matches(a, b, seed_matches)
    matched: list[tuple[int, int]] = list(seed_matches)
    taken_a: set[int] = {x for x, _ in matched}
    taken_b: set[int] = {y for _, y in matched}
    for step in range(steps):
        if step % 2 == 0:
            src = _first_unmatched(len(a), taken_a)
            if src is None:
                a = a.with_point(pick_in_region(a, _whole_space(a.dim)))
                src = len(a) - 1
            region = _region_from_matches(a, b, matched, src)
            dst = None
            for i in range(len(b)):
                if i not in taken_b and region.contains(b.points[i]):
                    dst = i
                    break
            if dst is None:
                b = b.with_point(pick_in_region(b, region))
                dst = len(b) - 1
            matched.append((src, dst))
        else:
            src = _first_unmatched(len(b), taken_b)
            if src is None:
                b = b.with_point(pick_in_region(b, _whole_space(b.dim)))
                src = len(b) - 1
            region = _region_from_matches(b, a, [(y, x) for x, y in matched], src)
            dst = None
            for i in range(len(a)):
                if i not in taken_a and region.contains(a.points[i]):
                    dst = i
                    break
            if dst is None:
                a = a.with_point(pick_in_region(a, region))
                dst = len(a) - 1
            matched.append((dst, src))
        taken_a.add(matched[-1][0])
        taken_b.add(matched[-1][1])
    if not len(a) or not len(b):
        raise TooSmall("back_and_forth_iso needs a non-empty cloud or steps > 0")
    fwd = PartialEmbedding(
        source=induced_structure(a),
        cloud=b,
        images=tuple((a.label(x), y) for x, y in matched),
    )
    bwd = PartialEmbedding(
        source=induced_structure(b),
        cloud=a,
        images=tuple((b.label(y), x) for x, y in matched),
    )
    return fwd, bwd
