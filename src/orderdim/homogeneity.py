"""Density-axiom reports and machine-checked homogeneity certificates.

A density-axiom report (check_dpo_fragment) lists the empty minimal
cells of a finite structure, cut by geometry's one cell rule, the rule
behind regions_of, on the labels of each realizer order.

Four certificate kinds are produced here.  Each kind has one
derivation, a function of a few parameters (the width n, or a cloud,
two pairs and a step count), that builds the finite configuration in
exact rationals and runs every check of the proof, building nothing when
one fails.  A certificate is the data of one derivation; replay() runs
the derivation again from the parameters the data records and compares
all of the data:

- ap-failure: every partial order amalgamating the two crown fragments
  over the common antichain is forced back to the full crown, whose
  dimension exceeds the ambient one.
- not-ultrahomogeneous: the three-antichain swap that no product-order
  automorphism can extend: every point above the images of two of the
  antichain points is above the third on every axis, which the
  derivation checks axis by axis, so no point of Q^n is an image.
- qn-lex-not-ultrahomogeneous: the colinear triple under lexicographic
  realizers whose extension point is forced to collapse onto an
  existing point: its bounds in each order tie on the axis that order
  compares first, so the point equals the lower bound on every axis.
- two-homogeneity-extension: a pair-to-pair map extended to a larger
  partial automorphism by matching coordinate sign patterns with an
  axis permutation and then running back-and-forth.

The two Q^n kinds decide their claim axis by axis, with no search.  The
kinds that build a point cloud refuse a width past
geometry.MAX_CLOUD_DIM before any point is built.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import permutations, product as iter_product

from .budget import BudgetMeter
from .errors import (
    ElementMismatch,
    FlipNotRealizable,
    LimitExceeded,
    NotOrderPreserving,
    SelfCheckFailed,
    TooSmall,
)
from .geometry import (
    PartialEmbedding,
    Point,
    PointCloud,
    Region,
    _cells,
    _check_dim,
    as_fraction,
    back_and_forth_iso,
    frac_str,
    induced_structure,
    pick_in_region,
)
from .poset import (
    MAX_GENERATED_ELEMENTS,
    FinitePoset,
    OrderedStructure,
    _bits,
    _closure,
    _first_loop,
    _Frozen,
    crown,
    product_less,
)
from .dimension import _reverse, dimension

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


class FlipPattern(_Frozen):
    """Per-coordinate ascent signs of an ordered point pair.

    True marks an axis on which the pair ascends.  Two pairs of a strict
    cloud can be aligned by permuting axes exactly when their patterns
    have the same number of ascents; the canonical such permutation
    matches ascending axes to ascending axes in increasing order.
    """

    __slots__ = ("signs",)
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


class CertificateKind(str, Enum):
    APFailure = "ap-failure"
    NotUltrahomogeneous = "not-ultrahomogeneous"
    QnLexNotUltrahomogeneous = "qn-lex-not-ultrahomogeneous"
    TwoHomogeneityExtension = "two-homogeneity-extension"


class DensityDefect(_Frozen):
    """One empty minimal cell: its open region (None when the cell has
    collapsed to an empty slab, as happens between tied coordinates),
    the elements whose hyperplanes bound it, and the per-axis gap
    (lower neighbor, upper neighbor) in each realizer order."""

    __slots__ = ("region", "witnesses", "gaps")
    region: Region | None
    witnesses: tuple[str, ...]
    gaps: tuple[tuple[str | None, str | None], ...]


class AxiomReport(_Frozen):
    """A structure's empty minimal cells, the density axioms' defects.

    The universal axioms hold by construction: OrderedStructure's
    constructor proves that its orders realize its poset, every order of
    a RealizerTuple lists the same elements, and an intersection of
    linear orders is a strict order.  So their flags are constants, not
    fields."""

    __slots__ = ("density_defects",)
    density_defects: tuple[DensityDefect, ...]
    poset_ok = linears_ok = realization_ok = universal_ok = True


class Certificate(_Frozen):
    """A certificate's kind and the data its derivation built."""

    __slots__ = ("kind", "data")
    kind: CertificateKind
    data: dict

    def replay(self) -> bool:
        """Whether the parameters the data records derive all of it again,
        JSON types included: a 9.0 or a 1 where the derivation gives 9 or
        true does not replay.

        Data whose parameters cannot be read replays False; typed errors
        of the derivation, such as LimitExceeded, propagate."""
        try:
            params = _recorded(self.kind, self.data)
        except (KeyError, IndexError, TypeError, ValueError):
            return False
        return _same_json(_DERIVE[self.kind](*params), self.data)

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "data": self.data}

    @staticmethod
    def from_json(payload: dict) -> "Certificate":
        return Certificate(CertificateKind(payload["kind"]), payload["data"])


def _same_json(a: object, b: object) -> bool:
    """a == b, with the type of every value compared too."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_json(v, b[k]) for k, v in a.items())
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_json, a, b))
    return a == b


def _certified(kind: CertificateKind, data: dict | None) -> Certificate:
    """The certificate of data whose derivation passed every check."""
    if data is None:
        raise SelfCheckFailed(f"{kind.value} certificate failed its own proof check")
    return Certificate(kind, data)


def check_dpo_fragment(s: OrderedStructure | PointCloud) -> AxiomReport:
    """List every empty minimal cell of a structure or cloud.

    Finite fragments always report density defects: each open cell cut
    out by the element hyperplanes misses every element, so the defect
    list doubles as a fill worklist for pick_in_region.  The cells are
    cut by geometry's one rule, `_cells`, on the labels of each realizer
    order; that rule also serves regions_of, and refuses more cells times
    axes than the budget before any cell is built.  A gap's endpoints
    are read off the cloud's points, or off an abstract structure's rank
    points (`RealizerTuple.rank_points`), as Fractions: a strict cloud
    realizing the same orders.  An empty cloud has no structure: no axis
    lists an entry, so its one cell is the whole space.  The universal
    axioms need no check here; see AxiomReport.
    """
    if isinstance(s, PointCloud):
        point = {s.label(k): p for k, p in enumerate(s.points)}
        orders = [()] * s.dim
        if point:
            orders = [o.order for o in induced_structure(s).realizers.orders]
    else:
        ranks = s.realizers.rank_points(s.elements)
        point = {e: tuple(map(Fraction, r)) for e, r in zip(s.elements, ranks)}
        orders = [o.order for o in s.realizers.orders]
    defects = []
    for cell in _cells(orders):
        bounds = tuple(
            (None if lo is None else point[lo][i], None if hi is None else point[hi][i])
            for i, (lo, hi) in enumerate(cell)
        )
        collapsed = any(
            lo is not None and hi is not None and not lo < hi for lo, hi in bounds
        )
        witnesses = dict.fromkeys(lab for gap in cell for lab in gap if lab is not None)
        defects.append(
            DensityDefect(None if collapsed else Region(bounds), tuple(witnesses), cell)
        )
    return AxiomReport(tuple(defects))


# --- amalgamation failure -------------------------------------------------

AP_OPTIONS = ("lt", "gt", "inc")


def _ap_rows(n: int) -> tuple[list[str], list[int], list[tuple[int, int]], list[int]]:
    """The AP diagram as bit rows: labels, seeded rows, free pairs as
    index pairs, and the element masks of the two fragments.

    The two fragments share the antichain a1..a{n+1}; one brings
    b2..b{n+1}, the other brings b1 alone.  Their union seeds every
    relation of crown(n + 1), leaving only b1-versus-bj undetermined.
    """
    m = n + 1
    seeded = crown(m)
    b1 = 1 << m
    # every element but b1; the antichain and b1
    fragments = [(1 << 2 * m) - 1 & ~b1, (1 << m) - 1 | b1]
    free = [(m, m + j) for j in range(1, m)]
    return list(seeded.elements), list(seeded.up), free, fragments


def _agrees(rows: list[int], base: list[int], fragments: list[int]) -> bool:
    """Whether rows and base relate the same pairs inside each fragment."""
    return not any(
        (rows[r] ^ base[r]) & mask for mask in fragments for r in _bits(mask)
    )


def _enumerate_amalgams(n: int):
    """Yield every partial order on the diagram respecting both fragments."""
    labels, base, free, fragments = _ap_rows(n)
    BudgetMeter(None, "amalgam enumeration").require(
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
        if _first_loop(closed) is None and _agrees(closed, base, fragments):
            yield choice, FinitePoset.from_rows(labels, closed)


def _forced_conclusions(n: int) -> dict:
    """The proof's chase: relating b1 to any bj in either direction
    contradicts a relation both fragments pin down."""
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


def _verify_chase(
    base: list[int], free: list[tuple[int, int]], fragments: list[int]
) -> bool:
    """Whether relating either way the two ends of any free pair
    closes a cycle or changes a fragment.

    base is closed, so each relation closes in one pass of _reverse on
    the reflexive rows."""
    leq = [row | 1 << i for i, row in enumerate(base)]
    for x, y in free:
        for lo, hi in ((x, y), (y, x)):
            rows = _reverse(leq, 1 << lo, hi)
            if rows is not None and _agrees(rows, leq, fragments):
                return False
    return True


def _ap_data(n: int) -> dict | None:
    """The amalgamation certificate's data at width n, or None when
    the chase or a completion fails its check."""
    if n < 2:
        raise TooSmall("amalgamation diagrams need n >= 2")
    if 2 * (n + 1) > MAX_GENERATED_ELEMENTS:
        raise LimitExceeded(
            f"the amalgamation diagram at n={n} is past the cap of "
            f"{MAX_GENERATED_ELEMENTS} elements"
        )
    labels, base, free, fragments = _ap_rows(n)
    if not _verify_chase(base, free, fragments):
        return None
    data: dict = {
        "n": n,
        "elements": labels,
        "seeded": sorted(
            [labels[i], labels[j]] for i, row in enumerate(base) for j in _bits(row)
        ),
        "free_pairs": [[labels[x], labels[y]] for x, y in free],
        "forced": _forced_conclusions(n),
        "chase_ok": True,
    }
    if n != 2:
        data["mode"] = "chase"
        return data
    target = crown(n + 1)
    completions = []
    for choice, poset in _enumerate_amalgams(n):
        if poset != target or dimension(poset).dim != n + 1:
            return None
        completions.append(
            {"choice": list(choice), "is_crown": True, "dimension": n + 1}
        )
    data["mode"] = "enumerate"
    data["assignments_tried"] = 3 ** len(free)
    data["completion_count"] = len(completions)
    data["completions"] = completions
    return data


def ap_failure_certificate(n: int = 2) -> Certificate:
    """Certify that the two crown fragments cannot amalgamate at width n.

    At n = 2 every completion of the diagram is enumerated; each
    surviving order is the full crown and has dimension n + 1.  Larger n
    check only the forced-inequality chase, since the dimension
    computation on the 2(n+1)-element survivors is what grows.
    """
    return _certified(CertificateKind.APFailure, _ap_data(n))


# --- product-order non-homogeneity ---------------------------------------

# Both Q^n certificates record a grid step, although no grid is searched:
# each derivation decides its constraints over all of Q^n axis by axis.
# The field stays so that certificate bytes do not change; dropping it
# changes every pinned nonhom and qnlex certificate.
GRID_STEP = "1/2"


def _nonhom_data(n: int) -> dict | None:
    """The antichain-swap certificate's data in n coordinates, or None
    when a check fails.

    First coordinates ascend a, b, c while the others descend, so the
    triple is an antichain; x dominates b and c but not a.
    """
    if n < 2:
        raise TooSmall("the antichain swap needs n >= 2")
    _check_dim(n)
    a = (Fraction(1),) + (Fraction(4),) * (n - 1)
    b = (Fraction(2),) * n
    c = (Fraction(3),) + (Fraction(1),) * (n - 1)
    x = (Fraction(4),) + (Fraction(3),) * (n - 1)
    cloud = PointCloud(n, [a, b, c, x])
    s = induced_structure(cloud)
    bound = [max(a[i], c[i]) for i in range(n)]
    if not (
        s.poset.incomparable("p0", "p1")
        and s.poset.incomparable("p1", "p2")
        and s.poset.incomparable("p0", "p2")
        and product_less(b, x)
        and product_less(c, x)
        and not product_less(a, x)
        # the decision over Q^n: a point above a and c is at or above
        # bound on every axis, and bound exceeds b there, so b < y is forced
        and all(b[i] < bound[i] for i in range(n))
    ):
        return None
    # control: dropping the negated constraint is satisfiable
    y = pick_in_region(
        cloud, Region(tuple((max(a[i], b[i], c[i]), None) for i in range(n)))
    )
    if not (product_less(a, y) and product_less(c, y) and product_less(b, y)):
        return None
    return {
        "n": n,
        "points": {k: [frac_str(v) for v in p] for k, p in zip("abcx", (a, b, c, x))},
        "swap": {"a": "b", "b": "a", "c": "c"},
        "per_axis_bound": [frac_str(v) for v in bound],
        "grid_step": GRID_STEP,
    }


def nonhom_witness(n: int) -> Certificate:
    """Certify that swapping two antichain points cannot extend.

    The image y of x must lie above both a and c, but every coordinate
    upper bound of {a, c} already exceeds b, so b < y is forced against
    the requirement that it fail.  The derivation checks that bound on
    each axis (`per_axis_bound`), which decides the claim over all of
    Q^n in O(n) comparisons; n past geometry.MAX_CLOUD_DIM is refused
    with LimitExceeded before any point is built.
    """
    return _certified(CertificateKind.NotUltrahomogeneous, _nonhom_data(n))


# --- lexicographic non-homogeneity ----------------------------------------


def _qn_lex_data(n: int) -> dict | None:
    """The lexicographic-collapse certificate's data in n coordinates,
    or None when a check fails.

    In order i, x lies between a and its upper neighbour tops[i]; the
    triple map sends those bounds to points that tie on axis i, the
    axis that decides order i first.
    """
    if n < 2:
        raise TooSmall("the lexicographic collapse needs n >= 2")
    _check_dim(n)
    one, two, four = Fraction(1), Fraction(2), Fraction(4)
    pts = {
        "a": (one,) * n,
        "x": (Fraction(3, 2),) * n,
        "b": (two,) + (four,) * (n - 1),
        "c": (four,) + (two,) * (n - 1),
        "a2": (one,) * n,
        "b2": (one,) + (four,) * (n - 1),
        "c2": (four,) + (one,) * (n - 1),
    }
    triple = {"a": "a2", "b": "b2", "c": "c2"}
    tops = ["b"] + ["c"] * (n - 1)
    a, x, b, c, a2, b2, c2 = pts.values()
    src = [pts[t] for t in tops]
    dst = [pts[triple[t]] for t in tops]

    def lex(i: int, u: Point, v: Point) -> bool:
        """Order i: coordinates compared from axis i on, wrapping around."""
        return u[i:] + u[:i] < v[i:] + v[:i]

    def pinched(lo: Point, y: Point, his: list[Point]) -> bool:
        """Whether y lies above lo and below his[i] in each order i."""
        for i, hi in enumerate(his):
            if not (lex(i, lo, y) and lex(i, y, hi)):
                return False
        return True

    pairs = list(permutations(triple, 2))
    if not (
        # source configuration
        pinched(a, x, src)
        and lex(0, b, c)
        and all(lex(i, c, b) for i in range(1, n))
        # the triple map preserves every lexicographic order and the product order
        and all(
            lex(i, pts[p], pts[q]) == lex(i, pts[triple[p]], pts[triple[q]])
            for i in range(n)
            for p, q in pairs
        )
        and all(
            product_less(pts[p], pts[q]) == product_less(pts[triple[p]], pts[triple[q]])
            for p, q in pairs
        )
        # the decision over Q^n: a2 ties with its upper bound in order i on
        # axis i, which order i compares first, so an image y of x has
        # y_i = a2_i on every axis, and y = a2 is not above a2
        and all(a2[i] == dst[i][i] for i in range(n))
    ):
        return None
    # control: a non-colinear target triple admits an image via one pick
    cloud = PointCloud(n, [a, b, c])
    y = pick_in_region(cloud, Region(tuple((a[i], src[i][i]) for i in range(n))))
    if not pinched(a, y, src):
        return None
    return {
        "n": n,
        "points": {k: [frac_str(v) for v in p] for k, p in pts.items()},
        "map": triple,
        "forced_equalities": [[str(i + 1), "a2", triple[t]] for i, t in enumerate(tops)],
        "grid_step": GRID_STEP,
    }


def qn_lex_nonhom_witness(n: int) -> Certificate:
    """Certify the lexicographic collapse: the image of x is pinched
    between points that tie on every deciding axis, forcing it to equal
    an existing point.  The derivation checks each tie
    (`forced_equalities`), which decides the claim over all of Q^n; n
    past geometry.MAX_CLOUD_DIM is refused with LimitExceeded before any
    point is built."""
    return _certified(CertificateKind.QnLexNotUltrahomogeneous, _qn_lex_data(n))


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
    return _aligned_extension(c, pair1, pair2, steps)[0]


def _aligned_extension(
    c: PointCloud,
    pair1: tuple[Point, Point],
    pair2: tuple[Point, Point],
    steps: int,
) -> tuple[PartialEmbedding, list[int], list[int]]:
    """two_homogeneity_extend, with the alignment it found: the cloud
    indices of the four pair points and the axis permutation."""
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
    iu, iv, iu2, iv2 = (index[p] for p in pts)
    fwd, _ = back_and_forth_iso(permuted, c, steps, seed_matches=[(iu, iu2), (iv, iv2)])
    fwd.verify()
    return fwd, [iu, iv, iu2, iv2], perm


def _two_hom_data(
    c: PointCloud,
    pair1: tuple[Point, Point],
    pair2: tuple[Point, Point],
    steps: int,
) -> dict | None:
    """The two-homogeneity certificate's data, or None when the grown
    map does not send the first pair onto the second."""
    emb, points, perm = _aligned_extension(c, pair1, pair2, steps)
    images = dict(emb.images)
    if [images.get(c.label(i)) for i in points[:2]] != points[2:]:
        return None
    return {
        "cloud": c.to_json(),
        "pair1": points[:2],
        "pair2": points[2:],
        "axis_permutation": perm,
        "steps": steps,
        "grown_cloud": emb.cloud.to_json(),
        "mapping": [[lab, i] for lab, i in emb.images],
    }


def two_homogeneity_certificate(
    c: PointCloud,
    pair1: tuple[Point, Point],
    pair2: tuple[Point, Point],
    steps: int,
) -> Certificate:
    return _certified(
        CertificateKind.TwoHomogeneityExtension, _two_hom_data(c, pair1, pair2, steps)
    )


def two_homogeneity_demo(n: int) -> Certificate:
    """The two-homogeneity certificate on an ascending four-chain in n
    coordinates.  Per-axis values stay distinct and both pairs ascend on
    every axis, so the extension is guaranteed to exist.  n past
    geometry.MAX_CLOUD_DIM is refused before any point is built."""
    _check_dim(n)
    pts = [tuple(4 * k + i for i in range(n)) for k in range(4)]
    c = PointCloud(n, pts)
    return two_homogeneity_certificate(
        c, (pts[0], pts[1]), (pts[2], pts[3]), steps=4
    )


# --- replay ----------------------------------------------------------------


def _count(value) -> int:
    """A recorded integer; JSON booleans and floats are refused."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _recorded(kind: CertificateKind, data: dict) -> tuple:
    """The parameters that data records for its kind's derivation: n, or
    for two-homogeneity the cloud, the two pairs and the step count,
    which may not be negative."""
    if kind is not CertificateKind.TwoHomogeneityExtension:
        return (_count(data["n"]),)
    c = PointCloud.from_json(data["cloud"])
    u, v, u2, v2 = (c.points[_count(i)] for i in (*data["pair1"], *data["pair2"]))
    steps = _count(data["steps"])
    if steps < 0:
        raise ValueError(f"negative step count {steps}")
    return c, (u, v), (u2, v2), steps


_DERIVE = {
    CertificateKind.APFailure: _ap_data,
    CertificateKind.NotUltrahomogeneous: _nonhom_data,
    CertificateKind.QnLexNotUltrahomogeneous: _qn_lex_data,
    CertificateKind.TwoHomogeneityExtension: _two_hom_data,
}
