"""Density-axiom reports and machine-checked homogeneity certificates.

Four certificate kinds are produced here, each carrying its finite
configuration in exact rationals plus a replay() that re-runs the whole
check from the stored data:

- ap-failure: every partial order amalgamating the two crown fragments
  over the common antichain is forced back to the full crown, whose
  dimension exceeds the ambient one.
- not-ultrahomogeneous: the three-antichain swap that no product-order
  automorphism can extend (interval propagation shows the image
  constraints are unsatisfiable).
- qn-lex-not-ultrahomogeneous: the colinear triple under lexicographic
  realizers whose extension point is forced to collapse onto an
  existing point.
- two-homogeneity-extension: a pair-to-pair map extended to a larger
  partial automorphism by matching coordinate sign patterns with an
  axis permutation and then running back-and-forth.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product as iter_product
from typing import Sequence

from .budget import BudgetMeter, effective_budget
from .errors import (
    ElementMismatch,
    FlipNotRealizable,
    NotOrderPreserving,
    SelfCheckFailed,
    TooSmall,
)
from .geometry import (
    PartialEmbedding,
    Point,
    PointCloud,
    Region,
    as_fraction,
    back_and_forth_iso,
    cyclic_priority,
    frac_str,
    induced_structure,
    lex_less,
    pick_in_region,
    product_less,
)
from .poset import (
    FinitePoset,
    OrderedStructure,
    _axiom_violation,
    _bits,
    _closure,
    _first_loop,
    crown,
    is_realizer,
)
from .dimension import dimension

__all__ = [
    "AxiomReport",
    "Certificate",
    "CertificateKind",
    "DensityDefect",
    "FlipPattern",
    "check_dpo_fragment",
    "ap_failure_certificate",
    "nonhom_witness",
    "qn_lex_nonhom_witness",
    "two_homogeneity_extend",
    "two_homogeneity_certificate",
    "two_homogeneity_demo",
]


@dataclass(frozen=True)
class FlipPattern:
    """Per-coordinate ascent signs of an ordered point pair.

    True marks an axis on which the pair ascends.  Two pairs of a strict
    cloud can be aligned by permuting axes exactly when their patterns
    have the same number of ascents; the canonical such permutation
    matches ascending axes to ascending axes in increasing order.
    """

    signs: tuple[bool, ...]

    @staticmethod
    def of_pair(u: Point, v: Point) -> "FlipPattern":
        if len(u) != len(v):
            raise ElementMismatch("pair points have different arities")
        if any(a == b for a, b in zip(u, v)):
            raise ElementMismatch(
                "sign patterns need coordinatewise distinct points"
            )
        return FlipPattern(tuple(a < b for a, b in zip(u, v)))

    @property
    def ascents(self) -> int:
        return sum(self.signs)

    def matching_permutation(self, other: "FlipPattern") -> list[int] | None:
        """perm with self.signs[perm[i]] == other.signs[i], lexicographically
        least, or None when the ascent counts differ."""
        if len(self.signs) != len(other.signs):
            return None
        ups = [i for i, b in enumerate(self.signs) if b]
        downs = [i for i, b in enumerate(self.signs) if not b]
        if len(ups) != other.ascents:
            return None
        up_iter, down_iter = iter(ups), iter(downs)
        return [next(up_iter) if b else next(down_iter) for b in other.signs]

    def to_json(self) -> list[str]:
        return ["+" if b else "-" for b in self.signs]

    @staticmethod
    def from_json(payload: Sequence[str]) -> "FlipPattern":
        return FlipPattern(tuple(s == "+" for s in payload))


class CertificateKind(str, Enum):
    APFailure = "ap-failure"
    NotUltrahomogeneous = "not-ultrahomogeneous"
    QnLexNotUltrahomogeneous = "qn-lex-not-ultrahomogeneous"
    TwoHomogeneityExtension = "two-homogeneity-extension"


@dataclass(frozen=True)
class DensityDefect:
    """One empty minimal cell: its open region (None when the cell has
    collapsed to an empty slab, as happens between tied coordinates),
    the elements whose hyperplanes bound it, and the per-axis gap
    (lower neighbor, upper neighbor) in each realizer order."""

    region: Region | None
    witnesses: tuple[str, ...]
    gaps: tuple[tuple[str | None, str | None], ...]


@dataclass(frozen=True)
class AxiomReport:
    poset_ok: bool
    linears_ok: bool
    realization_ok: bool
    density_defects: tuple[DensityDefect, ...]

    @property
    def universal_ok(self) -> bool:
        return self.poset_ok and self.linears_ok and self.realization_ok


@dataclass(frozen=True)
class Certificate:
    kind: CertificateKind
    data: dict

    def replay(self) -> bool:
        return _REPLAYERS[self.kind](self.data)

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "data": self.data}

    @staticmethod
    def from_json(payload: dict) -> "Certificate":
        return Certificate(CertificateKind(payload["kind"]), payload["data"])


def _replayed(kind: CertificateKind, data: dict, what: str) -> Certificate:
    """The certificate, once its own replay has accepted it."""
    cert = Certificate(kind, data)
    if not cert.replay():
        raise SelfCheckFailed(f"{what} certificate failed its own replay")
    return cert


def _structure_parts(
    s: OrderedStructure | PointCloud,
) -> tuple[tuple[str, ...], list[Point], OrderedStructure | None]:
    """Labels, occupancy coordinates, and the structure (None when empty).

    An abstract structure is placed at its rank coordinates: element e
    sits at (rank_1(e), ..., rank_n(e)).  Each rank vector is distinct
    per axis, so the placement is a strict cloud realizing the same
    orders, and gap intervals can be read off it.
    """
    if isinstance(s, PointCloud):
        if len(s) == 0:
            return (), [], None
        struct = induced_structure(s)
        return struct.elements, list(s.points), struct
    labels = s.elements
    points = [
        tuple(Fraction(s.realizers.orders[i].rank[e]) for i in range(s.n))
        for e in labels
    ]
    return labels, points, s


def check_dpo_fragment(s: OrderedStructure | PointCloud) -> AxiomReport:
    """Decide the universal axioms and list every empty minimal cell.

    Finite fragments always report density defects: each open cell cut
    out by the element hyperplanes misses every element, so the defect
    list doubles as a fill worklist for pick_in_region.
    """
    labels, points, struct = _structure_parts(s)
    if struct is None:
        whole = Region(tuple((None, None) for _ in range(s.dim)))
        return AxiomReport(
            poset_ok=True,
            linears_ok=True,
            realization_ok=True,
            density_defects=(DensityDefect(whole, (), ((None, None),) * s.dim),),
        )
    n = struct.n
    poset_ok = _axiom_violation(struct.poset.elements, struct.poset.up) is None
    linears_ok = all(
        sorted(o.order) == sorted(labels) and len(o) == len(labels)
        for o in struct.realizers.orders
    )
    realization_ok = is_realizer(struct.poset, struct.realizers)

    idx = {lab: k for k, lab in enumerate(labels)}
    per_axis: list[list[tuple[str | None, str | None]]] = []
    for i in range(n):
        seq = list(struct.realizers.orders[i].order)
        bounds: list[str | None] = [None] + seq + [None]
        per_axis.append(list(zip(bounds, bounds[1:])))
    defects = []
    for cell in iter_product(*per_axis):
        intervals: list[tuple[Fraction | None, Fraction | None] | None] = []
        witnesses: list[str] = []
        for i, (lo_lab, hi_lab) in enumerate(cell):
            lo = None if lo_lab is None else points[idx[lo_lab]][i]
            hi = None if hi_lab is None else points[idx[hi_lab]][i]
            if lo is not None and hi is not None and not lo < hi:
                intervals.append(None)
            else:
                intervals.append((lo, hi))
            for lab in (lo_lab, hi_lab):
                if lab is not None and lab not in witnesses:
                    witnesses.append(lab)
        region = (
            None
            if any(iv is None for iv in intervals)
            else Region(tuple(intervals))  # type: ignore[arg-type]
        )
        defects.append(DensityDefect(region, tuple(witnesses), cell))
    return AxiomReport(poset_ok, linears_ok, realization_ok, tuple(defects))


# --- amalgamation failure -------------------------------------------------

AP_OPTIONS = ("lt", "gt", "inc")


def _ap_diagram(n: int) -> tuple[list[str], set[tuple[str, str]], list[tuple[str, str]]]:
    """Labels, seeded strict relations, and free pairs of the AP diagram.

    The two fragments share the antichain a1..a{n+1}; one brings
    b2..b{n+1}, the other brings b1 alone.  Their union seeds every
    crown relation, leaving only b1-versus-bj undetermined.
    """
    m = n + 1
    a = [f"a{i}" for i in range(1, m + 1)]
    b = [f"b{i}" for i in range(1, m + 1)]
    seeded = {
        (a[i], b[j]) for i in range(m) for j in range(m) if i != j
    }
    free = [(b[0], b[j]) for j in range(1, m)]
    return a + b, seeded, free


def _ap_rows(n: int) -> tuple[list[str], list[int], list[tuple[int, int]], list[int]]:
    """The AP diagram as bit rows: labels, seeded rows, free pairs as
    index pairs, and the element masks of the two fragments."""
    labels, seeded, free = _ap_diagram(n)
    idx = {lab: k for k, lab in enumerate(labels)}
    base = [0] * len(labels)
    for x, y in seeded:
        base[idx[x]] |= 1 << idx[y]
    mask_b = sum(1 << k for k, lab in enumerate(labels) if lab != "b1")
    mask_c = sum(
        1 << k for k, lab in enumerate(labels) if lab.startswith("a") or lab == "b1"
    )
    return labels, base, [(idx[x], idx[y]) for x, y in free], [mask_b, mask_c]


def _respects(closed: list[int], base: list[int], fragments: list[int]) -> bool:
    """Whether closed is acyclic and agrees with base inside each fragment."""
    if _first_loop(closed) is not None:
        return False
    return not any(
        (closed[r] ^ base[r]) & mask for mask in fragments for r in _bits(mask)
    )


def _enumerate_amalgams(n: int):
    """Yield every partial order on the diagram respecting both fragments."""
    labels, base, free, fragments = _ap_rows(n)
    BudgetMeter(effective_budget(), "amalgam enumeration").require(
        3 ** len(free), "choices for the free pairs"
    )
    for choice in iter_product(AP_OPTIONS, repeat=len(free)):
        rows = list(base)
        for (x, y), opt in zip(free, choice):
            if opt == "lt":
                rows[x] |= 1 << y
            elif opt == "gt":
                rows[y] |= 1 << x
        closed = _closure(rows)
        if _respects(closed, base, fragments):
            yield choice, FinitePoset.from_rows(labels, closed)


def _forced_conclusions(n: int) -> dict:
    """Replay the proof's chase: relating b1 to any bj in either
    direction contradicts a relation both fragments pin down."""
    m = n + 1
    chase = []
    for j in range(2, m + 1):
        # bj < b1 would chain a1 < bj < b1, but a1 is not below b1
        chase.append(
            {
                "assume": [f"b{j}", "b1"],
                "via": f"a1<b{j}",
                "contradicts": "a1<b1 is absent",
            }
        )
        # b1 < bj would chain aj < b1 < bj, but aj is not below bj
        chase.append(
            {
                "assume": ["b1", f"b{j}"],
                "via": f"a{j}<b1",
                "contradicts": f"a{j}<b{j} is absent",
            }
        )
    return {
        "below_b1": [f"a{i}" for i in range(2, m + 1)],
        "not_below_b1": ["a1"] + [f"b{j}" for j in range(2, m + 1)],
        "chase": chase,
    }


def _verify_chase(n: int) -> bool:
    _labels, base, free, fragments = _ap_rows(n)
    for x, y in free:
        for lo, hi in ((x, y), (y, x)):
            rows = list(base)
            rows[lo] |= 1 << hi
            if _respects(_closure(rows), base, fragments):
                return False
    return True


def ap_failure_certificate(n: int = 2) -> Certificate:
    """Certify that the two crown fragments cannot amalgamate at width n.

    At n = 2 every completion of the diagram is enumerated; each
    surviving order is the full crown and has dimension n + 1.  Larger n
    replay only the forced-inequality chase, since the dimension
    computation on the 2(n+1)-element survivors is what grows.
    """
    if n < 2:
        raise TooSmall("amalgamation diagrams need n >= 2")
    labels, seeded, free = _ap_diagram(n)
    data: dict = {
        "n": n,
        "elements": labels,
        "seeded": sorted([x, y] for x, y in seeded),
        "free_pairs": [[x, y] for x, y in free],
        "forced": _forced_conclusions(n),
        "chase_ok": _verify_chase(n),
    }
    if n == 2:
        completions = []
        target = crown(n + 1)
        for choice, poset in _enumerate_amalgams(n):
            completions.append(
                {
                    "choice": list(choice),
                    "is_crown": poset == target,
                    "dimension": dimension(poset).dim,
                }
            )
        data["mode"] = "enumerate"
        data["assignments_tried"] = 3 ** len(free)
        data["completion_count"] = len(completions)
        data["completions"] = completions
    else:
        data["mode"] = "chase"
    return _replayed(CertificateKind.APFailure, data, "amalgamation")


def _replay_ap(data: dict) -> bool:
    n = int(data["n"])
    labels, seeded, free = _ap_diagram(n)
    if data["elements"] != labels:
        return False
    if sorted([x, y] for x, y in seeded) != [list(p) for p in data["seeded"]]:
        return False
    if not _verify_chase(n):
        return False
    if data["mode"] == "chase":
        return True
    target = crown(n + 1)
    found = []
    for choice, poset in _enumerate_amalgams(n):
        if poset != target or dimension(poset).dim != n + 1:
            return False
        found.append(list(choice))
    if len(found) != data["completion_count"]:
        return False
    return found == [c["choice"] for c in data["completions"]]


# --- product-order non-homogeneity ---------------------------------------


def _nonhom_points(n: int) -> dict[str, Point]:
    """First coordinates ascend a, b, c while the others descend, so the
    triple is an antichain; x dominates b and c but not a."""
    a = (Fraction(1),) + (Fraction(4),) * (n - 1)
    b = (Fraction(2),) * n
    c = (Fraction(3),) + (Fraction(1),) * (n - 1)
    x = (Fraction(4),) + (Fraction(3),) * (n - 1)
    return {"a": a, "b": b, "c": c, "x": x}


def nonhom_witness(n: int) -> Certificate:
    """Certify that swapping two antichain points cannot extend.

    The image y of x must lie above both a and c, but every coordinate
    upper bound of {a, c} already exceeds b, so b < y is forced against
    the requirement that it fail.
    """
    if n < 2:
        raise TooSmall("the antichain swap needs n >= 2")
    pts = _nonhom_points(n)
    data = {
        "n": n,
        "points": {k: [frac_str(v) for v in p] for k, p in pts.items()},
        "swap": {"a": "b", "b": "a", "c": "c"},
        "per_axis_bound": [
            frac_str(max(pts["a"][i], pts["c"][i])) for i in range(n)
        ],
        "grid_step": "1/2",
    }
    return _replayed(CertificateKind.NotUltrahomogeneous, data, "antichain-swap")


def _grid_candidates(points: Sequence[Point], step: Fraction):
    """Exact grid over a box one unit beyond the configuration."""
    n = len(points[0])
    lo = min(v for p in points for v in p) - 1
    hi = max(v for p in points for v in p) + 1
    ticks = []
    t = lo
    while t <= hi:
        ticks.append(t)
        t += step
    return iter_product(ticks, repeat=n)


def _replay_nonhom(data: dict) -> bool:
    n = int(data["n"])
    pts = {k: tuple(as_fraction(s) for s in v) for k, v in data["points"].items()}
    a, b, c, x = pts["a"], pts["b"], pts["c"], pts["x"]
    cloud = PointCloud(n, [a, b, c, x])
    s = induced_structure(cloud)
    if not (
        s.poset.incomparable("p0", "p1")
        and s.poset.incomparable("p1", "p2")
        and s.poset.incomparable("p0", "p2")
    ):
        return False
    if not (product_less(b, x) and product_less(c, x)) or product_less(a, x):
        return False
    # propagation: above-both forces above-b on every axis
    if not all(b[i] < max(a[i], c[i]) for i in range(n)):
        return False
    # independent exhaustive search over an exact grid
    step = as_fraction(data["grid_step"])
    for y in _grid_candidates([a, b, c, x], step):
        if product_less(a, y) and product_less(c, y) and not product_less(b, y):
            return False
    # control: dropping the negated constraint is satisfiable
    above_all = Region(
        tuple((max(a[i], b[i], c[i]), None) for i in range(n))
    )
    y = pick_in_region(cloud, above_all)
    return product_less(a, y) and product_less(c, y) and product_less(b, y)


# --- lexicographic non-homogeneity ----------------------------------------


def _qn_lex_points(n: int) -> dict[str, Point]:
    one, x_val, two, four = Fraction(1), Fraction(3, 2), Fraction(2), Fraction(4)
    return {
        "a": (one,) * n,
        "x": (x_val,) * n,
        "b": (two,) + (four,) * (n - 1),
        "c": (four,) + (two,) * (n - 1),
        "a2": (one,) * n,
        "b2": (one,) + (four,) * (n - 1),
        "c2": (four,) + (one,) * (n - 1),
    }


def qn_lex_nonhom_witness(n: int) -> Certificate:
    """Certify the lexicographic collapse: the image of x is pinched
    between points that tie on every deciding axis, forcing it to equal
    an existing point."""
    if n < 2:
        raise TooSmall("the lexicographic collapse needs n >= 2")
    pts = _qn_lex_points(n)
    data = {
        "n": n,
        "points": {k: [frac_str(v) for v in p] for k, p in pts.items()},
        "map": {"a": "a2", "b": "b2", "c": "c2"},
        "forced_equalities": (
            [["1", "a2", "b2"]] + [[str(i + 1), "a2", "c2"] for i in range(1, n)]
        ),
        "grid_step": "1/2",
    }
    return _replayed(CertificateKind.QnLexNotUltrahomogeneous, data, "lexicographic")


def _lex_rel(n: int):
    pris = [cyclic_priority(i, n) for i in range(n)]

    def rel(i: int, u: Point, v: Point) -> bool:
        return lex_less(u, v, pris[i])

    return rel


def _replay_qn_lex(data: dict) -> bool:
    n = int(data["n"])
    pts = {k: tuple(as_fraction(s) for s in v) for k, v in data["points"].items()}
    a, x, b, c = pts["a"], pts["x"], pts["b"], pts["c"]
    a2, b2, c2 = pts["a2"], pts["b2"], pts["c2"]
    lex = _lex_rel(n)
    # source configuration
    if not all(lex(0, p, q) for p, q in ((a, x), (x, b), (b, c))):
        return False
    for i in range(1, n):
        if not all(lex(i, p, q) for p, q in ((a, x), (x, c), (c, b))):
            return False
    # the triple map preserves every lexicographic order and the product order
    for i in range(n):
        for (p, q), (p2, q2) in (
            ((a, b), (a2, b2)),
            ((a, c), (a2, c2)),
            ((b, c), (b2, c2)),
        ):
            if lex(i, p, q) != lex(i, p2, q2) or lex(i, q, p) != lex(i, q2, p2):
                return False
            if product_less(p, q) != product_less(p2, q2):
                return False
    # forced equalities: axis 1 between a2 and b2, later axes between a2 and c2
    if not (a2[0] == b2[0] and all(a2[i] == c2[i] for i in range(1, n))):
        return False
    # independent exhaustive search: no image for x exists
    step = as_fraction(data["grid_step"])
    for y in _grid_candidates([a2, b2, c2], step):
        if lex(0, a2, y) and lex(0, y, b2) and all(
            lex(i, a2, y) and lex(i, y, c2) for i in range(1, n)
        ):
            return False
    # control: a non-colinear target triple admits an image via one pick
    cloud = PointCloud(n, [a, b, c])
    region = Region(
        ((a[0], b[0]),) + tuple((a[i], c[i]) for i in range(1, n))
    )
    y = pick_in_region(cloud, region)
    return lex(0, a, y) and lex(0, y, b) and all(
        lex(i, a, y) and lex(i, y, c) for i in range(1, n)
    )


# --- two-homogeneity -------------------------------------------------------


def two_homogeneity_extend(
    c: PointCloud,
    pair1: tuple[Point, Point],
    pair2: tuple[Point, Point],
    steps: int,
) -> PartialEmbedding:
    """Extend a comparability-preserving pair map to a partial automorphism.

    The coordinate sign patterns of the two pairs are reconciled by an
    axis permutation (an automorphism of the product order), after which
    the map preserves every coordinate order and back-and-forth can grow
    it.  No permutation exists when the pairs disagree on how many axes
    ascend; that imbalance is invariant under every realizer-respecting
    map, so the construction refuses it rather than guess.
    """
    if not c.strict:
        raise ElementMismatch("two-homogeneity extension needs a strict cloud")
    index = {p: i for i, p in enumerate(c.points)}
    pts = []
    for raw in (*pair1, *pair2):
        p = tuple(as_fraction(v) for v in raw)
        if p not in index:
            raise ElementMismatch(f"pair point {p} is not in the cloud")
        pts.append(p)
    u, v, u2, v2 = pts
    if u == v or u2 == v2:
        raise ElementMismatch("pairs must consist of two distinct points")
    for p, q, p2, q2 in ((u, v, u2, v2), (v, u, v2, u2)):
        if product_less(p, q) != product_less(p2, q2):
            raise NotOrderPreserving(
                "pair map does not preserve the product order"
            )
    perm = FlipPattern.of_pair(u, v).matching_permutation(
        FlipPattern.of_pair(u2, v2)
    )
    if perm is None:
        raise FlipNotRealizable(
            "pairs ascend on a different number of axes; no axis "
            "permutation can align their coordinate orders"
        )
    permuted = PointCloud(
        c.dim, [tuple(p[j] for j in perm) for p in c.points], strict=True
    )
    seeds = [
        (index[u], index[u2]),
        (index[v], index[v2]),
    ]
    fwd, _ = back_and_forth_iso(permuted, c, steps, seed_matches=seeds)
    fwd.verify()
    return fwd


def two_homogeneity_certificate(
    c: PointCloud,
    pair1: tuple[Point, Point],
    pair2: tuple[Point, Point],
    steps: int,
) -> Certificate:
    emb = two_homogeneity_extend(c, pair1, pair2, steps)
    index = {p: i for i, p in enumerate(c.points)}
    pat1 = FlipPattern.of_pair(*[tuple(as_fraction(v) for v in p) for p in pair1])
    pat2 = FlipPattern.of_pair(*[tuple(as_fraction(v) for v in p) for p in pair2])
    perm = pat1.matching_permutation(pat2)
    data = {
        "cloud": c.to_json(),
        "pair1": [index[tuple(as_fraction(v) for v in p)] for p in pair1],
        "pair2": [index[tuple(as_fraction(v) for v in p)] for p in pair2],
        "axis_permutation": perm,
        "steps": steps,
        "grown_cloud": emb.cloud.to_json(),
        "mapping": [[lab, i] for lab, i in emb.images],
    }
    return _replayed(CertificateKind.TwoHomogeneityExtension, data, "two-homogeneity")


def two_homogeneity_demo(n: int) -> Certificate:
    """The two-homogeneity certificate on an ascending four-chain in n
    coordinates.  Per-axis values stay distinct and both pairs ascend on
    every axis, so the extension is guaranteed to exist."""
    pts = [tuple(4 * k + i for i in range(n)) for k in range(4)]
    c = PointCloud(n, pts)
    return two_homogeneity_certificate(
        c, (pts[0], pts[1]), (pts[2], pts[3]), steps=4
    )


def _replay_two_hom(data: dict) -> bool:
    c = PointCloud.from_json(data["cloud"])
    i1, j1 = data["pair1"]
    i2, j2 = data["pair2"]
    emb = two_homogeneity_extend(
        c,
        (c.points[i1], c.points[j1]),
        (c.points[i2], c.points[j2]),
        int(data["steps"]),
    )
    if [[lab, i] for lab, i in emb.images] != data["mapping"]:
        return False
    if emb.cloud.to_json() != data["grown_cloud"]:
        return False
    mapping = dict(emb.images)
    if mapping[f"p{i1}"] != i2 or mapping[f"p{j1}"] != j2:
        return False
    emb.verify()
    return True


_REPLAYERS = {
    CertificateKind.APFailure: _replay_ap,
    CertificateKind.NotUltrahomogeneous: _replay_nonhom,
    CertificateKind.QnLexNotUltrahomogeneous: _replay_qn_lex,
    CertificateKind.TwoHomogeneityExtension: _replay_two_hom,
}
