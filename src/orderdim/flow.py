"""Realizer enumeration, classification, and the automorphism action.

A structure's realizer tuples form a finite stand-in for the realizer
space of the ambient generic order, and the automorphism group of a
point sample stands in for the full (infinite) automorphism group.
Everything here lists every answer at small scale, without brute force:

- enumerate_realizers lists every tuple of linear extensions whose
  intersection is the base order, tagging each with the coordinate
  permutation that classifies it when one exists.  Once the first n - 1
  orders are fixed, the last one is built, not searched for.
- classify_realizer tags a tuple by the rule that tags the tuples of
  enumerate_realizers: the first sigma under which the tuple's orders
  equal the cloud's lexicographic orders, which are its coordinate
  orders on axes without ties.
- extend_realizer_closure replays the closure step of the realizer
  extension argument (checked acyclic rather than trusting the proof).
- cloud_automorphisms, logic_action, symmetric_sample, and
  semidirect_decomposition cover the group side: the action on
  realizer tuples and the factorization of sample automorphisms into a
  coordinate permutation composed with a coordinate-order-preserving
  part.  That part is always the identity, so an automorphism factors
  exactly when it is the label map of some coordinate permutation, and
  factoring compares it with each and returns that permutation alone.
  Automorphisms are found by backtracking over bit rows.

Finite-scale caveat: the census equals n! and every tuple classifies
only for special base structures; small samples routinely admit
realizer tuples that no coordinate permutation explains, and symmetric
samples in three or more coordinates are forced to contain colinear
point pairs (two axis permutations agreeing at a position send any
base point to images sharing that coordinate).  Tests treat those gaps
as measured facts, not failures.

Only symmetric_sample and classify_realizer import geometry; the
automorphism search reads a cloud's order from poset's product builder.
So enumerating the realizers of an abstract structure loads neither
geometry nor homogeneity.
"""

from __future__ import annotations

import random
from itertools import permutations
from itertools import product as iter_product
from math import factorial
from operator import and_, or_, xor
from typing import TYPE_CHECKING, Mapping, Sequence

from .budget import BudgetMeter
from .dimension import EXTENSIONS, _extensions
from .errors import (
    CycleFound,
    DecompositionFailed,
    ElementMismatch,
    NotARealizer,
    NotOrderPreserving,
    TooSmall,
)
from .poset import (
    FinitePoset,
    LinearOrder,
    OrderedStructure,
    RealizerTuple,
    _closed_or_cycle,
    _Frozen,
    _product_structure,
    _sequence_rows,
    is_realizer,
)

if TYPE_CHECKING:
    from .geometry import PointCloud

__all__ = [
    "RealizerSet",
    "DecompositionReport",
    "enumerate_realizers",
    "classify_realizer",
    "extend_realizer_closure",
    "cloud_automorphisms",
    "logic_action",
    "symmetric_sample",
    "factor_automorphism",
    "semidirect_decomposition",
]

REALIZERS = "realizer enumeration"
AUTOMORPHISMS = "automorphism search"
FACTORING = "automorphism factoring"


class RealizerSet(_Frozen):
    """Every realizer tuple of a base structure, with classifications.

    Each entry pairs a tuple with the permutation sigma such that the
    tuple's order at position sigma[i] equals the base's i-th reference
    order, or None when the tuple is not a rearrangement of the
    reference orders.  Construction re-verifies that every tuple
    realizes the base order.
    """

    __slots__ = ("base", "tuples")

    def __init__(
        self,
        base: OrderedStructure,
        tuples: tuple[tuple[RealizerTuple, tuple[int, ...] | None], ...],
    ):
        for t, _sigma in tuples:
            # Raises ElementMismatch unless t orders the base's elements.
            if not is_realizer(base.poset, t):
                raise NotARealizer("a stored tuple does not realize the base order")
        super().__init__(base, tuples)

    @property
    def census(self) -> int:
        return len(self.tuples)

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


def _first_sigma(match: Sequence[Sequence[bool]]) -> tuple[int, ...] | None:
    """Lexicographically first sigma with all match[i][sigma[i]] true, or None."""
    n = len(match)
    for sigma in permutations(range(n)):
        if all(match[i][sigma[i]] for i in range(n)):
            return sigma
    return None


def enumerate_realizers(
    s: OrderedStructure, budget: int | None = None
) -> RealizerSet:
    """All n-tuples of linear extensions realizing the structure's order.

    The first n - 1 orders (the head) run over every tuple of linear
    extensions.  The last order must reverse each incomparable pair that
    the whole head puts one way, so it runs over the linear extensions
    of P with those pairs reversed: none when that relation has a cycle,
    and for n = 2 at most one, Dushnik and Miller's conjugate order.
    Tuples come out in lexicographic order of their indices into the
    extension stream.  The sigma tags refer to the structure's own
    realizers (for an induced cloud structure, its coordinate orders).
    One meter counts extensions, heads and tuples.
    """
    p = s.poset
    m, n = len(p), s.n
    meter = BudgetMeter(budget, EXTENSIONS)
    seqs = list(_extensions(p.down, meter))
    meter.what = REALIZERS
    position = {seq: k for k, seq in enumerate(seqs)}
    exts = [LinearOrder([p.elements[i] for i in seq]) for seq in seqs]
    # Bit j of ahead[k][i]: i and j are incomparable, extension k puts i first.
    ahead = [list(map(xor, _sequence_rows(seq, m), p.up)) for seq in seqs]
    # Bit i of equals[k]: extension k is the i-th reference order.
    refs = s.realizers.orders
    equals = [sum(1 << i for i, r in enumerate(refs) if o == r) for o in exts]
    # An empty head (n = 1) puts every incomparable pair both ways.
    unrelated = [((1 << m) - 1) ^ 1 << i ^ p.up[i] ^ p.down[i] for i in range(m)]
    entries: list[tuple[RealizerTuple, tuple[int, ...] | None]] = []
    for head in iter_product(range(len(exts)), repeat=n - 1):
        meter.tick()
        agreed = unrelated
        seen = 0
        for k in head:
            agreed = list(map(and_, agreed, ahead[k]))
            seen |= equals[k]
        below = list(map(or_, p.down, agreed))
        for seq in _extensions(below, meter):
            combo = head + (position[seq],)
            sigma = None
            # Shortcut: a sigma needs every reference order in the tuple.
            if seen | equals[combo[-1]] == (1 << n) - 1:
                sigma = _first_sigma(
                    [[bool(equals[k] >> i & 1) for k in combo] for i in range(n)]
                )
            entries.append((RealizerTuple([exts[k] for k in combo]), sigma))
    return RealizerSet(s, tuple(entries))


def classify_realizer(
    c: PointCloud, t: RealizerTuple
) -> tuple[int, ...] | None:
    """The permutation matching a tuple's orders to the coordinate orders.

    sigma[i] is the position of the tuple's order that equals the
    cloud's i-th lexicographic order, chosen by the rule that tags the
    tuples of enumerate_realizers.  On an axis without ties that order
    sorts the cloud by coordinate i; on an axis with ties no order does,
    so the answer is None.  The tuple must realize the cloud's product
    order, and have one order per axis, to be classifiable at all.
    """
    from .geometry import induced_structure

    s = induced_structure(c)
    if not is_realizer(s.poset, t):  # ElementMismatch on foreign labels
        raise NotARealizer("the tuple does not realize the cloud's order")
    if t.n != c.dim:
        raise ElementMismatch(f"the tuple has {t.n} orders but the cloud has {c.dim} axes")
    if any(len(c.axis_values(i)) < len(c) for i in range(c.dim)):
        return None
    return _first_sigma([[o == r for o in t.orders] for r in s.realizers.orders])


def extend_realizer_closure(
    base_order: FinitePoset, partial: LinearOrder
) -> FinitePoset:
    """Transitive closure of the base order plus a linear order on a subset.

    The closure is checked acyclic outright (a cycle signals that the
    linear order contradicts the base order) and comes back as a
    partial order ready for szpilrajn_extend.
    """
    seq = [base_order.index(lab) for lab in partial.order]
    edges = list(map(or_, base_order.up, _sequence_rows(seq, len(base_order))))
    closed = _closed_or_cycle(edges, base_order.elements, CycleFound)
    return FinitePoset.from_rows(base_order.elements, closed)


def cloud_automorphisms(c: PointCloud, budget: int | None = None) -> list[dict[str, str]]:
    """All self-bijections preserving the product order both ways.

    The identity always appears; output is sorted by image sequence,
    whose labels compare as strings ("p10" < "p2").
    """
    return _automorphisms(c, BudgetMeter(budget, AUTOMORPHISMS))


def _automorphisms(c: PointCloud, meter: BudgetMeter) -> list[dict[str, str]]:
    """cloud_automorphisms on a meter that the caller may share.

    Backtracking maps points in index order to unused images of the same
    up- and down-degree (one tick each) that relate to earlier images as
    the point relates to earlier points.
    """
    p = _product_structure([c.label(i) for i in range(len(c))], c.points).poset
    up, down, labels = p.up, p.down, p.elements
    m = len(p)
    degree = [(u.bit_count(), d.bit_count()) for u, d in zip(up, down)]
    image = [0] * m
    # wants[i]: images of the points before i that lie above i, and below.
    wants = [(0, 0)] * m
    used = 0
    out = []
    i = j = 0
    while True:
        want_up, want_down = wants[i]
        while j < m:
            if not used >> j & 1 and degree[j] == degree[i]:
                meter.tick()
                if up[j] & used == want_up and down[j] & used == want_down:
                    break
            j += 1
        if j < m:
            image[i] = j
            if i < m - 1:
                used |= 1 << j
                i, j = i + 1, 0
                above = below = 0
                for a in range(i):
                    if up[i] >> a & 1:
                        above |= 1 << image[a]
                    elif down[i] >> a & 1:
                        below |= 1 << image[a]
                wants[i] = (above, below)
                continue
            out.append({labels[a]: labels[image[a]] for a in range(m)})
        elif i == 0:
            break
        else:
            i -= 1
            j = image[i]
            used ^= 1 << j
        j += 1
    out.sort(key=lambda g: tuple(g[lab] for lab in labels))
    return out


def logic_action(g: Mapping[str, str], t: RealizerTuple) -> RealizerTuple:
    """Transport a realizer tuple along an automorphism of its intersection.

    The image order puts g(a) before g(b) exactly when a came before b,
    so each transported order is the relabeled original, and the result
    realizes g applied to the intersection order.  That is the
    intersection order itself exactly when g is an automorphism of it,
    so one realizer check decides both; NotOrderPreserving otherwise.
    """
    labels = set(t.orders[0].order)
    if set(g) != labels or set(g.values()) != labels:
        raise ElementMismatch(
            "the map is not a self-bijection of the tuple's elements"
        )
    p = t.intersection(sorted(labels))
    moved = RealizerTuple(
        [LinearOrder([g[lab] for lab in o.order]) for o in t.orders]
    )
    if not is_realizer(p, moved):
        raise NotOrderPreserving("the map does not preserve the intersection order")
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
    from .geometry import PointCloud, _check_sample_size

    if n < 1:
        raise TooSmall("symmetric samples need n >= 1")
    if count < 1:
        raise TooSmall("symmetric samples need count >= 1")
    _check_sample_size(n, count)  # before n! is computed
    orbit = factorial(n)
    orbits = -(-count // orbit)
    _check_sample_size(n, orbits * orbit)
    rng = random.Random(f"{seed}:sym:{n}")
    values = rng.sample(range(1, 100 * n * orbits + 100), n * orbits)
    pts: list[tuple[int, ...]] = []
    for k in range(orbits):
        base = values[k * n : (k + 1) * n]
        for sigma in permutations(range(n)):
            pts.append(tuple(base[sigma[i]] for i in range(n)))
    pts.sort()
    return PointCloud(n, pts, strict=n <= 2)


def _axis_maps(
    c: PointCloud, meter: BudgetMeter
) -> list[tuple[tuple[int, ...], dict[str, str]]]:
    """Each coordinate permutation that maps c onto itself, with its label
    map.  All dim! permutations are tried, so a budget smaller than that
    refuses the cloud before any is; each costs one step plus one per
    point it maps."""
    meter.require(factorial(c.dim), f"{c.dim}! coordinate permutations")
    index = {p: i for i, p in enumerate(c.points)}
    out = []
    for sigma in permutations(range(c.dim)):
        moves = {}
        for i, p in enumerate(c.points):
            j = index.get(tuple(p[k] for k in sigma))
            if j is None:
                break
            moves[c.label(i)] = c.label(j)
        else:
            out.append((sigma, moves))
        meter.tick(1 + len(moves))
    return out


def factor_automorphism(c: PointCloud, g: Mapping[str, str]) -> tuple[int, ...]:
    """The coordinate permutation through which an automorphism factors.

    Finds the sigma whose coordinate permutation T composes with some h
    preserving every coordinate order to give g = T o h, and returns
    sigma alone.  Such an h is one-to-one, so it keeps each point's
    dense rank on every axis; the ranks pin the point down, so h is the
    identity, and g factors through sigma exactly when g is T's label
    map.  A g that is not a self-bijection of c's labels is refused.
    Zero or several candidate factorizations raise; both are
    finite-sample defects worth reporting rather than hiding.  The walk
    over the dim! coordinate permutations runs on the default budget.
    """
    labels = set(map(c.label, range(len(c))))
    if set(g) != labels or set(g.values()) != labels:
        raise ElementMismatch("the map is not a self-bijection of the cloud's labels")
    return _factor(dict(g), _axis_maps(c, BudgetMeter(None, FACTORING)))


def _factor(
    g: dict[str, str], maps: list[tuple[tuple[int, ...], dict[str, str]]]
) -> tuple[int, ...]:
    """factor_automorphism against axis maps built once per cloud."""
    hits = [sigma for sigma, moves in maps if moves == g]
    if not hits:
        raise DecompositionFailed("no coordinate permutation factors the map")
    if len(hits) > 1:
        raise DecompositionFailed(f"{len(hits)} factorizations; the split is not unique")
    return hits[0]


class DecompositionReport(_Frozen):
    """Outcome of factoring every automorphism of a symmetric sample.

    exact means: all n! coordinate permutations act on the sample, every
    automorphism factored uniquely, and the group size is exactly
    (stabilizer size) * n!.  The stabilizer size is the constant 1: only
    the identity keeps every coordinate order (see factor_automorphism),
    so each factorization is a (map, sigma) pair, and its JSON lists the
    identity as the stabilizer part.
    """

    __slots__ = ("group_size", "axis_permutations", "exact", "factorizations", "failures")
    group_size: int
    axis_permutations: int
    exact: bool
    factorizations: tuple[tuple[dict[str, str], tuple[int, ...]], ...]
    failures: tuple[tuple[dict[str, str], str], ...]
    stabilizer_size = 1

    def to_json(self) -> dict:
        return {
            "group_size": self.group_size,
            "stabilizer_size": self.stabilizer_size,
            "axis_permutations": self.axis_permutations,
            "exact": self.exact,
            "factorizations": [
                {"map": g, "sigma": list(sigma), "stabilizer_part": {lab: lab for lab in g}}
                for g, sigma in self.factorizations
            ],
            "failures": [
                {"map": g, "reason": reason} for g, reason in self.failures
            ],
        }


def semidirect_decomposition(
    c: PointCloud, budget: int | None = None
) -> DecompositionReport:
    """Factor the whole automorphism group of a symmetric sample.

    Failures are recorded per map, not raised: finite samples can admit
    accidental automorphisms with no coordinate-permutation part.  One
    meter counts the coordinate permutations tried, the search and each
    map factored; a budget below dim! refuses the cloud up front.
    """
    meter = BudgetMeter(budget, FACTORING)
    maps = _axis_maps(c, meter)
    meter.what = AUTOMORPHISMS
    autos = _automorphisms(c, meter)
    meter.what = FACTORING
    present = len(maps)
    factorizations = []
    failures = []
    for g in autos:
        meter.tick()
        try:
            factorizations.append((dict(g), _factor(g, maps)))
        except DecompositionFailed as exc:
            failures.append((dict(g), str(exc)))
    # Only the identity keeps every coordinate order (factor_automorphism),
    # so the stabilizer is trivial: exact means the group is just the n!
    # axis permutations.
    exact = present == factorial(c.dim) and not failures and len(autos) == present
    return DecompositionReport(
        group_size=len(autos),
        axis_permutations=present,
        exact=exact,
        factorizations=tuple(factorizations),
        failures=tuple(failures),
    )
