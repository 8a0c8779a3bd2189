"""Realizer enumeration, classification, and the automorphism action.

Census counts below were frozen from exhaustive oracle runs made before
these tests were written.  Tests whose names carry a finite_scale_
prefix assert measured behavior of finite samples that the infinite
structure is not bound by (and vice versa): small clouds routinely
admit realizer tuples no coordinate permutation explains, and finite
symmetric samples have accidental automorphisms.
"""

import hashlib
import json
import os
import subprocess
import sys
from functools import lru_cache
from fractions import Fraction
from itertools import permutations
from itertools import product as iter_product
from math import factorial
from random import Random

import numpy as np
import pytest

import orderdim
from conftest import (
    less_pairs,
    naive_is_realizer,
    permutation_witness,
    random_structure,
)
from orderdim.dimension import all_linear_extensions
from orderdim.errors import (
    CycleFound,
    DecompositionFailed,
    ElementMismatch,
    LimitExceeded,
    NotARealizer,
    NotOrderPreserving,
    TooSmall,
)
from orderdim.flow import (
    RealizerSet,
    classify_realizer,
    cloud_automorphisms,
    enumerate_realizers,
    extend_realizer_closure,
    factor_automorphism,
    logic_action,
    semidirect_decomposition,
    symmetric_sample,
)
from orderdim.geometry import (
    PointCloud,
    induced_structure,
    sample_dn,
)
from orderdim.homogeneity import _axis_alignment
from orderdim.poset import (
    FinitePoset,
    LinearOrder,
    OrderedStructure,
    RealizerTuple,
    antichain,
    grid,
    is_realizer,
    product_less,
    szpilrajn_extend,
)

# Frozen from the oracle runs.
GRID_EXTENSIONS = {(2, 2): 2, (3, 2): 42, (2, 3): 48}
GRID_CENSUS = {(2, 2): 2, (3, 2): 2, (2, 3): 384}
CUBE_CLASSIFIED = 6  # the 3! rearrangements of the cube's three lex orders
FOUR_POINT_SEED = 5  # sample_dn(2, 4, seed=5): census exactly 2
FOUR_POINT_SEED_CENSUS_SIX = 0  # same sampler, census 6
SIX_POINT_SEED = 3  # sample_dn(2, 6, seed=3)
SIX_POINT_AUTOMORPHISMS = 12
SIX_POINT_CENSUS = 24
EXACT_EIGHT_SEED = 6  # symmetric_sample(2, 8, seed=6) factors exactly
INEXACT_EIGHT_SEED = 0  # symmetric_sample(2, 8, seed=0): 48 automorphisms
INEXACT_EIGHT_GROUP = 48
INEXACT_EIGHT_CENSUS = 48
N3_ORBIT_GROUP = 720  # one S_3 orbit is a 6-antichain: S_6 acts
# sample_dn(3, 7, seed=1), frozen from the run that tested every triple
LARGE_CENSUS = 117_360
LARGE_CLASSIFIED = 6
LARGE_CENSUS_DIGEST = "1abcf71a33fa0004"
# symmetric_sample(2, 10, seed=3), frozen from a scan of all 10! permutations
TEN_POINT_GROUP = 4


def three_antichain() -> PointCloud:
    # pairwise incomparable, so every permutation preserves the order
    return PointCloud(2, [(1, 6), (2, 5), (3, 4)])


def two_point_three_axes() -> PointCloud:
    return PointCloud(3, [(1, 2, 9), (2, 3, 1)])


def three_point_three_axes() -> PointCloud:
    # p0 < p1, p2 incomparable to both
    return PointCloud(3, [(1, 1, 1), (2, 2, 2), (4, 4, 0)])


SMALL_CLOUDS = {
    "two-chain": lambda: PointCloud(2, [(1, 1), (2, 2)]),
    "three-antichain": three_antichain,
    "two-point-three-axes": two_point_three_axes,
    "three-point-three-axes": three_point_three_axes,
    "dn-2-4-5": lambda: sample_dn(2, 4, seed=FOUR_POINT_SEED),
    "dn-2-4-0": lambda: sample_dn(2, 4, seed=FOUR_POINT_SEED_CENSUS_SIX),
    "dn-2-5-9": lambda: sample_dn(2, 5, seed=9),
    "dn-2-6-0": lambda: sample_dn(2, 6, seed=0),
    "dn-2-7-1": lambda: sample_dn(2, 7, seed=1),
    "dn-2-8-2": lambda: sample_dn(2, 8, seed=2),
    "dn-3-7-3": lambda: sample_dn(3, 7, seed=3),
    "sym-2-2-0": lambda: symmetric_sample(2, 2, seed=0),
    "sym-2-4-3": lambda: symmetric_sample(2, 4, seed=3),
    "sym-2-6-3": lambda: symmetric_sample(2, 6, seed=3),
    "sym-2-8-3": lambda: symmetric_sample(2, 8, seed=3),
    "sym-2-8-6": lambda: symmetric_sample(2, 8, seed=EXACT_EIGHT_SEED),
    "sym-2-8-0": lambda: symmetric_sample(2, 8, seed=INEXACT_EIGHT_SEED),
    "sym-3-6-0": lambda: symmetric_sample(3, 6, seed=0),
    "relaxed-7": lambda: PointCloud(
        2, list(sample_dn(2, 4, seed=0).points) + [(0, 0), (0, 1), (1, 0)], strict=False
    ),
}


def naive_realizer_tuples(
    s: OrderedStructure,
) -> list[tuple[RealizerTuple, tuple[int, ...] | None]]:
    """Census oracle: test every n-tuple of extensions, in iter_product order.

    A tuple is kept when the ordered pairs that all its orders share are
    exactly the base order's pairs.  Its sigma is the first permutation,
    in lexicographic order, with order sigma[i] equal to reference order i.
    """
    labels = s.poset.elements
    pairs = list(permutations(labels, 2))
    want = sum(1 << b for b, (x, y) in enumerate(pairs) if s.poset.less(x, y))
    exts = list(all_linear_extensions(s.poset))
    shared = [
        sum(1 << b for b, (x, y) in enumerate(pairs) if o.rank[x] < o.rank[y])
        for o in exts
    ]
    refs = s.realizers.orders
    out = []
    for combo in iter_product(range(len(exts)), repeat=s.n):
        acc = -1
        for k in combo:
            acc &= shared[k]
        if acc != want:
            continue
        orders = [exts[k] for k in combo]
        sigma = next(
            (
                sg
                for sg in permutations(range(s.n))
                if all(orders[sg[i]] == refs[i] for i in range(s.n))
            ),
            None,
        )
        out.append((RealizerTuple(orders), sigma))
    return out


def brute_automorphisms(c: PointCloud) -> list[dict[str, str]]:
    """Automorphism oracle: every point permutation, sorted by image labels."""
    pts = list(c.points)
    m = len(pts)
    rel = [[product_less(a, b) for b in pts] for a in pts]
    out = []
    for perm in permutations(range(m)):
        if all(
            rel[i][j] == rel[perm[i]][perm[j]] for i in range(m) for j in range(m)
        ):
            out.append({c.label(i): c.label(perm[i]) for i in range(m)})
    return sorted(out, key=lambda g: tuple(g[c.label(i)] for i in range(m)))


def naive_preserves_each_axis(c: PointCloud, h) -> bool:
    """Pairwise check that h keeps every coordinate order both ways."""
    pts = {c.label(i): p for i, p in enumerate(c.points)}
    labels = list(pts)
    return all(
        (pts[a][i] < pts[b][i]) == (pts[h[a]][i] < pts[h[b]][i])
        for i in range(c.dim)
        for a in labels
        for b in labels
        if a != b
    )


def naive_factorizations(c: PointCloud, g) -> list:
    """Every (sigma, h) with g = T_sigma o h and h axis-preserving, each
    axis map rebuilt per sigma and h checked pairwise."""
    index = {p: i for i, p in enumerate(c.points)}
    hits = []
    for sigma in permutations(range(c.dim)):
        images = [index.get(tuple(p[k] for k in sigma)) for p in c.points]
        if None in images:
            continue
        inv = {c.label(j): c.label(i) for i, j in enumerate(images)}
        h = {lab: inv[g[lab]] for lab in g}
        if naive_preserves_each_axis(c, h):
            hits.append((sigma, h))
    return hits


def order_sequences(t: RealizerTuple) -> tuple[tuple[str, ...], ...]:
    return tuple(o.order for o in t.orders)


def classified(rs: RealizerSet) -> int:
    """How many of the set's tuples carry a sigma."""
    return sum(sigma is not None for _t, sigma in rs.tuples)


class TestAxisAlignment:
    @staticmethod
    def pair(signs):
        """Two points that ascend exactly on the axes marked True."""
        return (0,) * len(signs), tuple(1 if up else -1 for up in signs)

    def test_swap(self):
        # (1, 5) -> (3, 2) ascends on axis 0 alone, (7, 1) -> (2, 4) on axis 1
        assert _axis_alignment(((1, 5), (3, 2)), ((7, 1), (2, 4))) == [1, 0]
        assert _axis_alignment(((1, 5), (3, 2)), ((0, 9), (4, 8))) == [0, 1]

    def test_none_on_unequal_ascents(self):
        assert _axis_alignment(self.pair((True, True)), self.pair((True, False))) is None

    def test_least_permutation_exhaustive_small(self):
        # the lexicographically least perm with s1[perm[i]] == s2[i], by
        # brute force over every permutation, or None when there is none
        for k in (1, 2, 3, 4):
            for s1 in iter_product((False, True), repeat=k):
                for s2 in iter_product((False, True), repeat=k):
                    want = next(
                        (
                            list(perm)
                            for perm in permutations(range(k))
                            if all(s1[perm[i]] == s2[i] for i in range(k))
                        ),
                        None,
                    )
                    assert _axis_alignment(self.pair(s1), self.pair(s2)) == want


class TestEnumerateRealizers:
    def test_two_antichain_exact_tuples(self):
        s = OrderedStructure.from_orders(
            [LinearOrder(("a", "b")), LinearOrder(("b", "a"))]
        )
        rs = enumerate_realizers(s)
        assert rs.census == 2
        got = {order_sequences(t): sigma for t, sigma in rs.tuples}
        assert got == {
            (("a", "b"), ("b", "a")): (0, 1),
            (("b", "a"), ("a", "b")): (1, 0),
        }

    def test_chain_single_tuple(self):
        s = OrderedStructure.from_orders([LinearOrder(("a", "b", "c"))])
        rs = enumerate_realizers(s)
        assert rs.census == 1
        assert rs.tuples[0][1] == (0,)

    def test_four_point_cloud_census_two(self):
        st = induced_structure(sample_dn(2, 4, seed=FOUR_POINT_SEED))
        rs = enumerate_realizers(st)
        assert rs.census == 2
        lex0, lex1 = (o.order for o in st.realizers.orders)
        assert {order_sequences(t) for t, _ in rs.tuples} == {
            (lex0, lex1),
            (lex1, lex0),
        }
        assert {sigma for _, sigma in rs.tuples} == {(0, 1), (1, 0)}

    def test_census_matches_naive_oracle(self):
        cases = [
            OrderedStructure.from_orders(
                [LinearOrder(("a", "b")), LinearOrder(("b", "a"))]
            ),
            OrderedStructure.from_orders([LinearOrder(("a", "b", "c"))]),
            induced_structure(three_point_three_axes()),
        ]
        cases += [random_structure(Random(s), 4, 2) for s in range(4)]
        cases += [random_structure(Random(s), 5, 3) for s in range(4)]
        for s in cases:
            rs = enumerate_realizers(s)
            assert list(rs.tuples) == naive_realizer_tuples(s)

    @pytest.mark.parametrize(
        "case",
        [("grid", 2, 2), ("grid", 3, 2), ("grid", 2, 3)]
        + [
            ("dn", 2, 5, 1), ("dn", 2, 6, 2), ("dn", 2, 7, 3), ("dn", 2, 8, 2),
            ("dn", 2, 7, 11), ("dn", 3, 4, 1), ("dn", 3, 5, 4), ("dn", 3, 6, 5),
        ],
        ids=lambda case: "-".join(map(str, case)),
    )
    def test_tuples_and_sigmas_match_naive_oracle_in_order(self, case):
        if case[0] == "grid":
            s = grid(*case[1:])
        else:
            s = induced_structure(sample_dn(*case[1:]))
        assert list(enumerate_realizers(s).tuples) == naive_realizer_tuples(s)

    def test_large_census_matches_the_brute_force_output(self):
        # sample_dn(3, 7, seed=1) has 248 extensions, so 15.3M candidate
        # triples: too many for the oracle here.  The digest and counts
        # were frozen from the run that tested every triple.
        rs = enumerate_realizers(induced_structure(sample_dn(3, 7, seed=1)))
        assert (rs.census, classified(rs)) == (LARGE_CENSUS, LARGE_CLASSIFIED)
        digest = hashlib.sha256(
            json.dumps(
                [[list(o.order) for o in t.orders] + [sigma] for t, sigma in rs.tuples]
            ).encode()
        ).hexdigest()[:16]
        assert digest == LARGE_CENSUS_DIGEST

    def test_budget_gate(self):
        s = OrderedStructure.from_orders(
            [
                LinearOrder(("a", "b", "c")),
                LinearOrder(("c", "b", "a")),
            ]
        )
        with pytest.raises(LimitExceeded):
            enumerate_realizers(s, budget=10)

    def test_one_meter_counts_extensions_heads_and_tuples(self):
        # 2 extensions, each placing both elements (a b, then b a after
        # popping both) and then charged both for the list that keeps
        # it, 2 heads at one step each, and 2 tuples, each the one
        # extension of its head's conjugate order, placing both elements:
        # 8 + 2 + 4 = 14 steps in all
        s = OrderedStructure.from_orders(
            [LinearOrder(("a", "b")), LinearOrder(("b", "a"))]
        )
        assert enumerate_realizers(s, budget=14).census == 2
        with pytest.raises(LimitExceeded, match="^realizer enumeration"):
            enumerate_realizers(s, budget=13)
        with pytest.raises(LimitExceeded, match="^realizer enumeration"):
            enumerate_realizers(s, budget=8)
        with pytest.raises(LimitExceeded, match="^linear extension enumeration"):
            enumerate_realizers(s, budget=7)

    def test_set_reverifies_tuples(self):
        s = OrderedStructure.from_orders(
            [LinearOrder(("a", "b")), LinearOrder(("b", "a"))]
        )
        bogus = RealizerTuple([LinearOrder(("a", "b")), LinearOrder(("a", "b"))])
        with pytest.raises(NotARealizer):
            RealizerSet(s, ((bogus, None),))
        alien = RealizerTuple([LinearOrder(("x", "y")), LinearOrder(("y", "x"))])
        with pytest.raises(ElementMismatch):
            RealizerSet(s, ((alien, None),))

    def test_to_json_shape(self):
        s = OrderedStructure.from_orders(
            [LinearOrder(("a", "b")), LinearOrder(("b", "a"))]
        )
        payload = enumerate_realizers(s).to_json()
        assert payload == {
            "elements": 2,
            "n": 2,
            "census": 2,
            "sigmas": [[0, 1], [1, 0]],
        }


class TestClassifyRealizer:
    def test_coordinate_orders_classify_to_identity(self):
        c = sample_dn(2, 4, seed=FOUR_POINT_SEED)
        st = induced_structure(c)
        assert classify_realizer(c, st.realizers) == (0, 1)

    def test_swapped_orders_classify_to_transposition(self):
        c = sample_dn(2, 4, seed=FOUR_POINT_SEED)
        o0, o1 = induced_structure(c).realizers.orders
        assert classify_realizer(c, RealizerTuple([o1, o0])) == (1, 0)

    def test_rejects_non_realizer(self):
        c = three_antichain()
        o0 = induced_structure(c).realizers.orders[0]
        with pytest.raises(NotARealizer):
            classify_realizer(c, RealizerTuple([o0, o0]))

    def test_rejects_wrong_labels(self):
        c = three_antichain()
        with pytest.raises(ElementMismatch):
            classify_realizer(
                c, RealizerTuple([LinearOrder(("x", "y", "z"))] * 2)
            )

    def test_two_point_three_axes_classification_table(self):
        # ab = p0 before p1.  The cloud ascends on axes 0 and 1 and
        # descends on axis 2, so the reference orders are (ab, ab, ba)
        # and only tuples with that multiset classify.
        c = two_point_three_axes()
        rs = enumerate_realizers(induced_structure(c))
        ab, ba = ("p0", "p1"), ("p1", "p0")
        got = {order_sequences(t): sigma for t, sigma in rs.tuples}
        assert got == {
            (ab, ab, ba): (0, 1, 2),
            (ab, ba, ab): (0, 2, 1),
            (ab, ba, ba): None,
            (ba, ab, ab): (1, 2, 0),
            (ba, ab, ba): None,
            (ba, ba, ab): None,
        }
        for t, sigma in rs.tuples:
            assert classify_realizer(c, t) == sigma


    def test_tied_axes_classify_to_none(self):
        # every axis of this orbit carries ties, so no order sorts the
        # cloud by a coordinate; the one-directional matcher still finds
        # the identity
        c = symmetric_sample(3, 6, seed=0)
        st = induced_structure(c)
        points = {c.label(i): p for i, p in enumerate(c.points)}
        assert classify_realizer(c, st.realizers) is None
        assert permutation_witness(points, st.realizers, biconditional=False) == (0, 1, 2)

    @pytest.mark.parametrize("count", [1, 3])
    def test_order_count_other_than_the_dimension_is_refused(self, count):
        # both tuples realize the 2-chain, but neither has one order per axis
        c = PointCloud(2, [(1, 1), (2, 2)])
        t = RealizerTuple([LinearOrder(("p0", "p1"))] * count)
        assert is_realizer(induced_structure(c).poset, t)
        with pytest.raises(ElementMismatch, match="the tuple has"):
            classify_realizer(c, t)


def matcher_answer(c: PointCloud, t: RealizerTuple):
    """classify_realizer's answer by the pairwise realizer oracle and the
    biconditional matcher: a sigma, None, or the class of the error."""
    try:
        if not naive_is_realizer(induced_structure(c).poset, t):
            return NotARealizer
        points = {c.label(i): p for i, p in enumerate(c.points)}
        return permutation_witness(points, t, biconditional=True)
    except ElementMismatch:
        return ElementMismatch


@lru_cache(maxsize=1)
def enumerated(c: PointCloud) -> tuple[RealizerTuple, ...]:
    """The cloud's realizer tuples at a budget of 200,000 steps, or none
    past it.  A symmetric sample of one orbit comes back under three
    counts in a row, and runs out of budget once."""
    try:
        rs = enumerate_realizers(induced_structure(c), budget=200_000)
    except LimitExceeded:
        return ()
    return tuple(t for t, _ in rs.tuples)


def library_answer(c: PointCloud, t: RealizerTuple):
    try:
        return classify_realizer(c, t)
    except (NotARealizer, ElementMismatch) as exc:
        return type(exc)


class TestClassifyRealizerAgainstMatcher:
    """One classification rule, the one that tags enumerate_realizers,
    against the coordinate matcher that classified tuples before it."""

    CLOUDS = (
        [(sample_dn, n, k, s) for n in (2, 3) for k in range(2, 6) for s in range(4)]
        + [(symmetric_sample, n, k, s) for n in (2, 3) for s in range(3) for k in (1, 2, 6)]
    )
    RELAXED = {
        "relaxed-2": lambda: PointCloud(2, [(1, 1), (1, 4), (4, 1), (2, 3)], strict=False),
        "relaxed-3": lambda: PointCloud(
            3, [(1, 2, 3), (1, 3, 2), (2, 1, 1), (3, 3, 3)], strict=False
        ),
    }

    @staticmethod
    def tuples(c: PointCloud, seed: int) -> list[RealizerTuple]:
        """The cloud's realizer tuples, when the budget lists them, and
        random tuples of n, 1 and n + 1 orders over its labels."""
        out = list(enumerated(c))
        rng = Random(seed)
        labels = [c.label(i) for i in range(len(c))]
        for count in (c.dim, 1, c.dim + 1):
            for _ in range(4):
                orders = [LinearOrder(rng.sample(labels, len(labels))) for _ in range(count)]
                out.append(RealizerTuple(orders))
        return out

    def agree(self, c: PointCloud, seed: int) -> int:
        classified = 0
        for t in self.tuples(c, seed):
            got = library_answer(c, t)
            assert got == matcher_answer(c, t)
            classified += isinstance(got, tuple)
        return classified

    @pytest.mark.parametrize("make, n, k, seed", CLOUDS, ids=lambda v: getattr(v, "__name__", v))
    def test_samples(self, make, n, k, seed):
        self.agree(make(n, k, seed=seed), seed)

    @pytest.mark.parametrize("name", list(RELAXED))
    def test_relaxed_clouds_classify_nothing(self, name):
        assert self.agree(self.RELAXED[name](), 0) == 0


class TestFiniteScaleCensus:
    """The census equals n! with every tuple classified only for special
    clouds; these are the measured counterexamples."""

    def test_finite_scale_antichain_census_exceeds_factorial(self):
        rs = enumerate_realizers(induced_structure(three_antichain()))
        assert rs.census == 6  # every order paired with its reversal
        assert classified(rs) == 2

    def test_finite_scale_three_point_census_twelve(self):
        rs = enumerate_realizers(induced_structure(three_point_three_axes()))
        assert rs.census == 12
        assert classified(rs) == 3

    def test_finite_scale_census_depends_on_cloud_shape(self):
        six = enumerate_realizers(
            induced_structure(sample_dn(2, 4, seed=FOUR_POINT_SEED_CENSUS_SIX))
        )
        two = enumerate_realizers(
            induced_structure(sample_dn(2, 4, seed=FOUR_POINT_SEED))
        )
        assert (six.census, classified(six)) == (6, 2)
        assert (two.census, classified(two)) == (2, 2)

    def test_finite_scale_factorial_census_without_full_classification(self):
        # census hits 3! here, yet half the tuples have no sigma: the
        # three reference orders are not pairwise distinct
        rs = enumerate_realizers(induced_structure(two_point_three_axes()))
        assert rs.census == 6
        assert classified(rs) == 3

    def test_finite_scale_random_six_point_census(self):
        rs = enumerate_realizers(
            induced_structure(sample_dn(2, 6, seed=SIX_POINT_SEED)),
            budget=5_000_000,
        )
        assert rs.census == SIX_POINT_CENSUS
        assert classified(rs) == 2


class TestGridRealizers:
    def test_extension_counts(self):
        for (m, n), expected in GRID_EXTENSIONS.items():
            exts = list(
                all_linear_extensions(
                    grid(m, n).poset, budget=5_000_000
                )
            )
            assert len(exts) == expected

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3)])
    def test_finite_scale_every_grid_tuple_has_directional_sigma(self, m, n):
        # the one-directional form: a_i < b_i forces a before b in the
        # order at position sigma[i]; grids have colinear points, so the
        # biconditional variant is not expected
        g = grid(m, n)
        rs = enumerate_realizers(g, budget=5_000_000)
        assert rs.census == GRID_CENSUS[(m, n)]
        points = {
            lab: tuple(int(v) for v in lab.split(","))
            for lab in g.poset.elements
        }
        for t, _ in rs.tuples:
            assert permutation_witness(points, t, biconditional=False) is not None

    def test_cube_classified_are_lex_rearrangements(self):
        g = grid(2, 3)
        rs = enumerate_realizers(g, budget=5_000_000)
        assert classified(rs) == CUBE_CLASSIFIED
        refs = {o.order for o in g.realizers.orders}
        for t, sigma in rs.tuples:
            if sigma is not None:
                assert {o.order for o in t.orders} == refs

    def test_three_cube_exceeds_extension_cap(self):
        # The 27-element cube has far more extensions than this budget.
        with pytest.raises(LimitExceeded, match="^linear extension enumeration: "):
            enumerate_realizers(grid(3, 3), budget=20_000)

    def test_the_extension_list_is_bounded_by_the_budget(self):
        # Each extension kept is charged its 256 elements on top of the
        # elements it places, so at the default budget of 1,000,000 the
        # 16 x 16 grid's list holds under 4,000 extensions when the meter
        # stops it, not the 181,979 that the placements alone allow (some
        # 380 MB).  Peak RSS, read in a fresh process.
        script = (
            "import resource\n"
            "from orderdim.errors import LimitExceeded\n"
            "from orderdim.flow import enumerate_realizers\n"
            "from orderdim.poset import grid\n"
            "s = grid(16, 2)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "try:\n"
            "    enumerate_realizers(s)\n"
            "except LimitExceeded as exc:\n"
            "    print(str(exc).split(':')[0])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
        )
        src = os.path.dirname(os.path.dirname(orderdim.__file__))
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={
                **{k: v for k, v in os.environ.items() if k != "ORDERDIM_BUDGET"},
                "PYTHONPATH": src,
            },
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        phase, growth_kb = out.stdout.splitlines()
        assert phase == "linear extension enumeration"
        assert int(growth_kb) < 20 * 1024


class TestExtendRealizerClosure:
    def test_linearizes_an_antichain(self):
        base = antichain(3, ("a", "b", "c"))
        out = extend_realizer_closure(base, LinearOrder(("b", "a", "c")))
        assert less_pairs(out) == {("b", "a"), ("b", "c"), ("a", "c")}

    def test_point_above_everything_stays_above(self):
        base = FinitePoset(
            ("a", "b", "t"),
            np.array(
                [
                    [False, False, True],
                    [False, False, True],
                    [False, False, False],
                ]
            ),
        )
        out = extend_realizer_closure(base, LinearOrder(("b", "a")))
        assert less_pairs(out) == {
            ("a", "t"),
            ("b", "t"),
            ("b", "a"),
        }

    def test_cycle_raises_with_witness(self):
        base = OrderedStructure.from_orders(
            [LinearOrder(("a", "b", "c"))]
        ).poset
        with pytest.raises(CycleFound) as exc:
            extend_realizer_closure(base, LinearOrder(("c", "a")))
        cycle = exc.value.cycle
        assert cycle[0] == cycle[-1]
        assert len(cycle) >= 3

    def test_rejects_unknown_label(self):
        base = antichain(2, ("a", "b"))
        with pytest.raises(ElementMismatch):
            extend_realizer_closure(base, LinearOrder(("a", "z")))

    def steered_extensions(self, seed):
        sub = sample_dn(2, 4, seed=seed)
        extra = [
            (Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0)),
        ]
        assert not set(extra) & set(sub.points)
        combined = PointCloud(2, list(sub.points) + extra, strict=False)
        st = induced_structure(combined)
        sub_st = induced_structure(sub)
        return st, sub_st

    def test_finite_replay_of_realizer_extension(self):
        # closure of (product order on the superset) + (one sampled
        # realizer order), then a steered linear extension per axis;
        # the intersection comes back to the product order exactly
        for seed in (0, 1, 2):
            st, sub_st = self.steered_extensions(seed)
            exts = []
            for i in range(2):
                closed = extend_realizer_closure(
                    st.poset, sub_st.realizers.orders[i]
                )
                lex = st.realizers.orders[i]
                forced = [
                    (lex.order[k], lex.order[k + 1])
                    for k in range(len(lex) - 1)
                ]
                exts.append(szpilrajn_extend(closed, forced=forced))
            assert is_realizer(st.poset, RealizerTuple(exts))

    def test_finite_scale_unsteered_extension_misses(self):
        # an arbitrary extension of the closure need not disagree with
        # the other axis on every incomparable pair; the infinite
        # construction leans on density here, a finite replay must
        # steer the extension instead
        st, sub_st = self.steered_extensions(0)
        exts = [
            szpilrajn_extend(
                extend_realizer_closure(st.poset, sub_st.realizers.orders[i])
            )
            for i in range(2)
        ]
        assert not is_realizer(st.poset, RealizerTuple(exts))


class TestCloudAutomorphisms:
    def test_two_chain_identity_only(self):
        autos = cloud_automorphisms(PointCloud(2, [(1, 1), (2, 2)]))
        assert autos == [{"p0": "p0", "p1": "p1"}]

    def test_three_antichain_all_six(self):
        assert len(cloud_automorphisms(three_antichain())) == 6

    def test_random_six_point_matches_brute_force(self):
        c = sample_dn(2, 6, seed=SIX_POINT_SEED)
        autos = cloud_automorphisms(c)
        assert len(autos) == SIX_POINT_AUTOMORPHISMS
        assert autos == brute_automorphisms(c)

    @pytest.mark.parametrize("make", list(SMALL_CLOUDS.values()), ids=list(SMALL_CLOUDS))
    def test_every_small_test_cloud_matches_brute_force(self, make):
        c = make()
        assert len(c) <= 8
        assert cloud_automorphisms(c) == brute_automorphisms(c)

    def test_sorted_by_label_strings_past_ten_points(self):
        # p0, p2 and p10 are an antichain below a 9-chain, so S_3 acts on
        # them alone; their images sort as strings, "p10" before "p2"
        chain = [(10 + k, 10 + k) for k in range(9)]
        pts = chain[:]
        for idx, p in ((0, (1, 3)), (2, (2, 2)), (10, (3, 1))):
            pts.insert(idx, p)
        c = PointCloud(2, pts)
        autos = cloud_automorphisms(c)
        assert [g["p0"] for g in autos] == ["p0", "p0", "p10", "p10", "p2", "p2"]
        assert all(
            g[lab] == lab for g in autos for lab in g if lab not in ("p0", "p2", "p10")
        )

    def test_budget(self):
        # an antichain has m! automorphisms, so the search must spend the
        # budget; there is no size cap any more
        c = PointCloud(2, [(i, 10 - i) for i in range(10)])
        with pytest.raises(LimitExceeded, match="^automorphism search"):
            cloud_automorphisms(c, budget=1_000)

    def test_identity_always_present(self):
        c = sample_dn(2, 5, seed=9)
        ident = {c.label(i): c.label(i) for i in range(5)}
        assert ident in cloud_automorphisms(c)


class TestLogicAction:
    def test_identity_fixes_tuple(self):
        st = induced_structure(three_antichain())
        ident = {f"p{i}": f"p{i}" for i in range(3)}
        assert logic_action(ident, st.realizers) == st.realizers

    def test_antichain_swap_loses_classification(self):
        c = three_antichain()
        st = induced_structure(c)
        swap = {"p0": "p1", "p1": "p0", "p2": "p2"}
        moved = logic_action(swap, st.realizers)
        assert order_sequences(moved) == (
            ("p1", "p0", "p2"),
            ("p2", "p0", "p1"),
        )
        assert classify_realizer(c, moved) is None

    def test_group_law(self):
        st = induced_structure(three_antichain())
        autos = cloud_automorphisms(three_antichain())
        for g in autos:
            for h in autos:
                composed = {x: g[h[x]] for x in h}
                assert logic_action(composed, st.realizers) == logic_action(
                    g, logic_action(h, st.realizers)
                )

    def test_transported_tuples_realize(self):
        c = sample_dn(2, 4, seed=FOUR_POINT_SEED)
        st = induced_structure(c)
        for g in cloud_automorphisms(c):
            moved = logic_action(g, st.realizers)
            assert is_realizer(st.poset, moved)

    def test_rejects_order_breaking_map(self):
        st = induced_structure(PointCloud(2, [(1, 1), (2, 2)]))
        with pytest.raises(NotOrderPreserving):
            logic_action({"p0": "p1", "p1": "p0"}, st.realizers)

    def test_rejects_non_bijection(self):
        st = induced_structure(three_antichain())
        with pytest.raises(ElementMismatch):
            logic_action({"p0": "p1", "p1": "p1", "p2": "p2"}, st.realizers)

    def test_failed_self_check_is_typed(self, monkeypatch):
        import sys

        monkeypatch.setattr(
            sys.modules["orderdim.flow"], "is_realizer", lambda p, t: False
        )
        # the one realizer check also decides whether g preserves the
        # order, so its failure is typed as a moved pair
        st = induced_structure(three_antichain())
        ident = {f"p{i}": f"p{i}" for i in range(3)}
        with pytest.raises(NotOrderPreserving):
            logic_action(ident, st.realizers)

    def test_finite_scale_orbit_covers_antichain_census(self):
        c = three_antichain()
        st = induced_structure(c)
        rs = enumerate_realizers(st)
        orbit = {
            logic_action(g, st.realizers) for g in cloud_automorphisms(c)
        }
        assert len(orbit) == 6
        assert orbit == {t for t, _ in rs.tuples}


class TestSymmetricSample:
    def test_single_orbit_frozen(self):
        c = symmetric_sample(2, 2, seed=0)
        assert [tuple(map(int, p)) for p in c.points] == [(6, 38), (38, 6)]
        assert c.strict

    def test_closure_under_coordinate_swap(self):
        c = symmetric_sample(2, 8, seed=0)
        assert len(c) == 8
        pts = set(c.points)
        assert {(p[1], p[0]) for p in pts} == pts
        # 4 orbits: points pair up by coordinate multiset
        assert len({tuple(sorted(p)) for p in pts}) == 4

    def test_rounds_up_to_whole_orbits(self):
        assert len(symmetric_sample(2, 3, seed=0)) == 4
        assert len(symmetric_sample(3, 7, seed=0)) == 12

    def test_three_axes_orbit_frozen(self):
        c = symmetric_sample(3, 6, seed=0)
        pts = {tuple(map(int, p)) for p in c.points}
        assert pts == set(permutations((6, 11, 364)))
        assert not c.strict
        for sigma in permutations(range(3)):
            assert {tuple(p[sigma[k]] for k in range(3)) for p in pts} == pts

    def test_finite_scale_colinearity_is_unavoidable_beyond_two_axes(self):
        # two axis permutations agreeing at a position send the base
        # point to images sharing that coordinate, so a symmetric cloud
        # with n >= 3 cannot be colinearity-free; cross-orbit pairs
        # stay coordinate-disjoint by construction
        c = symmetric_sample(3, 12, seed=1)
        by_orbit = {}
        for p in c.points:
            by_orbit.setdefault(tuple(sorted(p)), []).append(p)
        assert len(by_orbit) == 2
        for orbit_pts in by_orbit.values():
            assert any(
                any(a[i] == b[i] for i in range(3))
                for a in orbit_pts
                for b in orbit_pts
                if a != b
            )
        (o1, o2) = by_orbit.values()
        assert all(
            a[i] != b[i] for a in o1 for b in o2 for i in range(3)
        )

    def test_too_small(self):
        with pytest.raises(TooSmall):
            symmetric_sample(0, 2)
        with pytest.raises(TooSmall):
            symmetric_sample(2, 0)


class TestSemidirectDecomposition:
    def test_single_orbit_is_exact(self):
        c = symmetric_sample(2, 2, seed=0)
        rep = semidirect_decomposition(c)
        assert rep.group_size == 2
        assert rep.stabilizer_size == 1
        assert rep.axis_permutations == 2
        assert rep.exact
        assert not rep.failures

    def test_nine_axes_are_refused_under_a_small_budget(self, monkeypatch):
        # 9! = 362,880 coordinate permutations, over a budget of 1000:
        # both entry points refuse before trying one.
        c = PointCloud(9, [list(range(1, 10))])
        with pytest.raises(LimitExceeded, match="9! coordinate permutations"):
            semidirect_decomposition(c, budget=1000)
        monkeypatch.setenv("ORDERDIM_BUDGET", "1000")
        with pytest.raises(LimitExceeded, match="9! coordinate permutations"):
            factor_automorphism(c, {"p0": "p0"})

    def test_the_axis_map_walk_is_charged_per_point(self, monkeypatch):
        # 6! = 720 permutations fit a budget of 2000, but each one maps
        # all 720 points of this symmetric cloud: the walk itself runs out.
        c = symmetric_sample(6, 720, seed=0)
        assert factorial(6) < 2000 < factorial(6) * len(c)
        with pytest.raises(LimitExceeded, match="^automorphism factoring: step"):
            semidirect_decomposition(c, budget=2000)
        monkeypatch.setenv("ORDERDIM_BUDGET", "2000")
        with pytest.raises(LimitExceeded, match="^automorphism factoring: step"):
            factor_automorphism(c, {lab: lab for lab in map(c.label, range(len(c)))})

    def test_identity_factors_trivially(self):
        c = symmetric_sample(2, 2, seed=0)
        ident = {c.label(i): c.label(i) for i in range(2)}
        assert factor_automorphism(c, ident) == (0, 1)

    @pytest.mark.parametrize(
        "g",
        [{"p0": "p1"}, {"p0": "p0", "p1": "p1", "p9": "p0"}],
        ids=["partial", "foreign-label"],
    )
    def test_maps_off_the_labels_are_refused(self, g):
        # Each must be a self-bijection of exactly the cloud's labels, as
        # logic_action requires.
        c = symmetric_sample(2, 2, seed=0)
        with pytest.raises(ElementMismatch, match="self-bijection"):
            factor_automorphism(c, g)

    def test_swap_factors_through_axis_swap(self):
        c = symmetric_sample(2, 2, seed=0)
        swap = {"p0": "p1", "p1": "p0"}
        assert factor_automorphism(c, swap) == (1, 0)

    def test_exact_on_a_larger_sample(self):
        rep = semidirect_decomposition(
            symmetric_sample(2, 8, seed=EXACT_EIGHT_SEED)
        )
        assert rep.exact
        assert rep.group_size == 2
        assert rep.stabilizer_size == 1

    def test_finite_scale_accidental_automorphisms_fail_to_factor(self):
        c = symmetric_sample(2, 8, seed=INEXACT_EIGHT_SEED)
        rep = semidirect_decomposition(c)
        assert rep.group_size == INEXACT_EIGHT_GROUP
        assert rep.stabilizer_size == 1
        assert rep.axis_permutations == 2
        assert not rep.exact
        assert len(rep.failures) == INEXACT_EIGHT_GROUP - 2
        bad = dict(rep.failures[0][0])
        with pytest.raises(DecompositionFailed):
            factor_automorphism(c, bad)

    def test_finite_scale_three_axes_orbit_is_an_antichain(self):
        # equal coordinate multisets never dominate each other, so the
        # orbit is a 6-antichain and every bijection preserves <
        rep = semidirect_decomposition(symmetric_sample(3, 6, seed=0))
        assert rep.group_size == N3_ORBIT_GROUP
        assert rep.stabilizer_size == 1
        assert rep.axis_permutations == 6
        assert not rep.exact
        assert len(rep.failures) == N3_ORBIT_GROUP - 6

    def test_ten_point_sample_answers(self):
        # past the old 8-point cap; each map must still preserve the order
        c = symmetric_sample(2, 10, seed=3)
        rep = semidirect_decomposition(c)
        assert rep.group_size == TEN_POINT_GROUP
        assert (rep.stabilizer_size, rep.axis_permutations) == (1, 2)
        assert not rep.exact
        assert len(rep.factorizations) == 2
        assert len(rep.failures) == TEN_POINT_GROUP - 2
        st = induced_structure(c)
        maps = [g for g, _s in rep.factorizations] + [g for g, _r in rep.failures]
        for g in maps:
            assert is_realizer(st.poset, logic_action(g, st.realizers))

    def test_one_meter_counts_search_and_factoring(self):
        # on a 3-antichain the axis-map walk costs 1 + 3 steps for the
        # identity and 1 for the swap, which maps no point; the search
        # tries 3 + 6 + 6 = 15 candidate images, and factoring ticks once
        # for each of its 6 maps: 5 + 15 + 6 = 26
        c = three_antichain()
        assert len(cloud_automorphisms(c, budget=15)) == 6
        with pytest.raises(LimitExceeded, match="^automorphism search"):
            cloud_automorphisms(c, budget=14)
        with pytest.raises(LimitExceeded, match="^automorphism factoring: step"):
            semidirect_decomposition(c, budget=4)
        with pytest.raises(LimitExceeded, match="^automorphism search"):
            semidirect_decomposition(c, budget=19)
        with pytest.raises(LimitExceeded, match="^automorphism factoring"):
            semidirect_decomposition(c, budget=25)
        assert semidirect_decomposition(c, budget=26).group_size == 6

    def test_report_json_shape(self):
        rep = semidirect_decomposition(symmetric_sample(2, 2, seed=0))
        payload = rep.to_json()
        assert payload["group_size"] == 2
        assert payload["exact"] is True
        assert [f["sigma"] for f in payload["factorizations"]] == [
            [0, 1],
            [1, 0],
        ]
        assert payload["failures"] == []


class TestFactoringAgainstPairwiseOracle:
    CLOUDS = [
        (symmetric_sample, 2, 4, 1),
        (symmetric_sample, 2, 6, 8),
        (symmetric_sample, 3, 6, 0),
        (sample_dn, 2, 6, 3),
        (sample_dn, 3, 5, 1),
    ]

    @pytest.mark.parametrize("make, n, k, seed", CLOUDS)
    def test_factorizations_match(self, make, n, k, seed):
        # Automorphisms and random bijections of the labels alike: the
        # stabilizer part of each factorization is found pairwise by the
        # oracle and checked to be the identity, not assumed to be.
        c = make(n, k, seed=seed)
        labels = [c.label(i) for i in range(len(c))]
        rng = Random(seed)
        maps = cloud_automorphisms(c)[:60]
        for _ in range(40):
            shuffled = labels[:]
            rng.shuffle(shuffled)
            maps.append(dict(zip(labels, shuffled)))
        for g in maps:
            hits = naive_factorizations(c, g)
            if len(hits) == 1:
                assert factor_automorphism(c, g) == hits[0][0]
                assert hits[0][1] == {lab: lab for lab in g}
            else:
                with pytest.raises(DecompositionFailed):
                    factor_automorphism(c, g)

    @pytest.mark.parametrize("make, n, k, seed", CLOUDS)
    def test_maps_that_are_no_self_bijection_are_refused(self, make, n, k, seed):
        c = make(n, k, seed=seed)
        labels = [c.label(i) for i in range(len(c))]
        rng = Random(seed)
        for _ in range(40):
            shuffled = labels[:]
            rng.shuffle(shuffled)
            g = dict(zip(labels, shuffled))
            g[labels[0]] = g[labels[-1]]
            with pytest.raises(ElementMismatch):
                factor_automorphism(c, g)


class TestOrbitTransport:
    def test_finite_scale_minimal_orbit_matches_classified_tuples(self):
        c = symmetric_sample(2, 2, seed=0)
        st = induced_structure(c)
        rs = enumerate_realizers(st)
        orbit = {
            logic_action(g, st.realizers) for g in cloud_automorphisms(c)
        }
        classified = {t for t, sigma in rs.tuples if sigma is not None}
        assert orbit == classified == {t for t, _ in rs.tuples}

    def test_finite_scale_orbit_covers_census_beyond_classified(self):
        # all n! coordinate permutations act, and the orbit sweeps out
        # the whole census; classification still only explains the two
        # lex rearrangements
        c = symmetric_sample(2, 8, seed=INEXACT_EIGHT_SEED)
        st = induced_structure(c)
        rs = enumerate_realizers(st, budget=5_000_000)
        assert rs.census == INEXACT_EIGHT_CENSUS
        assert classified(rs) == 2
        orbit = {
            logic_action(g, st.realizers) for g in cloud_automorphisms(c)
        }
        assert orbit == {t for t, _ in rs.tuples}

    def test_finite_scale_axis_transports_carry_matching_weak_sigma(self):
        c = symmetric_sample(3, 6, seed=0)
        st = induced_structure(c)
        points = {c.label(i): p for i, p in enumerate(c.points)}
        index = {p: i for i, p in enumerate(c.points)}
        for sigma in permutations(range(3)):
            gmap = {
                c.label(i): c.label(
                    index[tuple(p[sigma[k]] for k in range(3))]
                )
                for i, p in enumerate(c.points)
            }
            moved = logic_action(gmap, st.realizers)
            assert (
                permutation_witness(points, moved, biconditional=False)
                == sigma
            )
