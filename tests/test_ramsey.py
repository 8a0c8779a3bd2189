"""Grids, rigid embeddings, copy colorings, and the partition searches."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import combinations, permutations, product as iter_product
from math import comb

import pytest

import orderdim
from conftest import (
    cyclic_priority,
    is_chain,
    lex_less,
    naive_free_coloring,
    oracle_copies,
    oracle_find_mono_subgrid,
    oracle_first_mono_group,
    oracle_point_structure,
    oracle_ramsey_reduction,
    oracle_rigid_copies,
    oracle_rigid_copy_in_subgrid,
    oracle_subgrids,
    random_structure,
)
from orderdim.budget import BudgetMeter
from orderdim.errors import (
    ElementMismatch,
    LimitExceeded,
    NotARealizer,
    SelfCheckFailed,
    TooSmall,
)
from orderdim.poset import (
    LinearOrder,
    OrderedStructure,
    RealizerTuple,
    _product_structure,
    antichain,
    chain,
    crown,
    grid,
    product_less,
)
from orderdim.dimension import dimension
from orderdim.ramsey import (
    _copy_groups,
    _grid_counterexample,
    _grid_groups,
    _search_free_coloring,
    all_subgrids,
    enumerate_copies,
    product_ramsey_number,
    ramsey_witness_check,
    rigid_embed,
)

# Frozen from the enumeration: of the six point pairs in the 2^2 grid,
# the five product-comparable ones match the aligned 2-chain on both
# lexicographic orders (colinear pairs included).
ALIGNED_CHAIN_COPIES_IN_SQUARE = 5

# Frozen from the counterexample search: 4^2 still admits a 2-coloring
# of its points with no monochromatic 2^2-subgrid, 5^2 does not.
SQUARE_POINT_THRESHOLD = 5


def aligned_chain():
    return OrderedStructure.from_orders(
        [LinearOrder(["u", "v"]), LinearOrder(["u", "v"])]
    )


def crossed_antichain():
    return OrderedStructure.from_orders(
        [LinearOrder(["u", "v"]), LinearOrder(["v", "u"])]
    )


def one_point(n=2):
    return OrderedStructure.from_orders([LinearOrder(["p"])] * n)


def aligned_chain_of_three():
    return OrderedStructure.from_orders([LinearOrder(["u", "v", "w"])] * 2)


def figure_structure():
    # one bottom, one top, two incomparable middles
    return OrderedStructure.from_orders(
        [
            LinearOrder(["w", "x", "y", "z"]),
            LinearOrder(["w", "y", "x", "z"]),
        ]
    )


def assert_matches_point_oracle(m: int, n: int) -> None:
    """grid(m, n)'s labels, rows and orders against the points of (1..m)^n
    in row-major order: pairwise product comparison and tuple sorts."""
    s = grid(m, n)
    points = list(iter_product(range(1, m + 1), repeat=n))
    up, seqs = oracle_point_structure(points)
    assert list(s.elements) == [",".join(map(str, p)) for p in points]
    assert list(s.poset.up) == up
    assert [list(o.order) for o in s.realizers.orders] == [
        [s.elements[b] for b in seq] for seq in seqs
    ]


class TestGrid:
    def test_square_orders(self):
        s = grid(2, 2)
        assert s.realizers.orders[0].order == ("1,1", "1,2", "2,1", "2,2")
        assert s.realizers.orders[1].order == ("1,1", "2,1", "1,2", "2,2")
        assert s.poset.less("1,1", "2,2")
        assert s.poset.incomparable("1,2", "2,1")

    def test_lex_orders_realize_product_order_all_small_grids(self):
        # Construction re-checks that the orders realize the rows.
        for m in range(1, 6):
            for n in range(1, 4):
                assert_matches_point_oracle(m, n)

    def test_structure_at_the_cap_is_the_product_of_chains(self):
        # The 1024 points of `gen grid --m 32 --n 2`.
        assert_matches_point_oracle(32, 2)

    def test_line_grid(self):
        assert is_chain(grid(3, 1).poset)

    def test_too_small(self):
        for m, n in ((0, 2), (2, 0)):
            with pytest.raises(TooSmall, match="^grids need m >= 1 and n >= 1$"):
                grid(m, n)


def is_rigid_placement(s, image):
    """Full embedding predicate for a colinearity-free placement."""
    pts = dict(zip(s.elements, image))
    for axis in range(s.n):
        if len({p[axis] for p in image}) != len(image):
            return False
    for x in s.elements:
        for y in s.elements:
            if x == y:
                continue
            if product_less(pts[x], pts[y]) != s.poset.less(x, y):
                return False
            for i in range(s.n):
                want = (
                    s.realizers.orders[i].rank[x] < s.realizers.orders[i].rank[y]
                )
                if lex_less(pts[x], pts[y], cyclic_priority(i, s.n)) != want:
                    return False
    return True


class TestRigidEmbed:
    def test_aligned_chain(self):
        assert rigid_embed(aligned_chain()) == [(1, 1), (2, 2)]

    def test_crossed_antichain(self):
        assert rigid_embed(crossed_antichain()) == [(1, 2), (2, 1)]

    def test_four_point_figure(self):
        assert rigid_embed(figure_structure()) == [
            (1, 1),
            (2, 3),
            (3, 2),
            (4, 4),
        ]

    def test_image_never_shares_coordinates(self):
        for seed in range(5):
            s = random_structure(random.Random(seed), 5, 3)
            image = rigid_embed(s)
            assert is_rigid_placement(s, image)

    def test_single_order_gives_rank_coordinates(self):
        p = chain(2, ("a", "b"))
        s = OrderedStructure(p, RealizerTuple([LinearOrder(("a", "b"))]))
        assert rigid_embed(s) == [(1,), (2,)]

    def test_non_realizer_is_refused_before_embedding(self):
        p = antichain(2, ("a", "b"))
        t = RealizerTuple([LinearOrder(("a", "b")), LinearOrder(("a", "b"))])
        with pytest.raises(NotARealizer):
            OrderedStructure(p, t)

    def test_crown3_six_points_in_cube(self):
        p = crown(3)
        s = OrderedStructure(p, dimension(p).witness)
        image = dict(zip(s.elements, rigid_embed(s)))
        assert len(image) == 6
        for coords in image.values():
            assert all(1 <= c <= 6 for c in coords)
        # projections recover each witness order
        for axis, o in enumerate(s.realizers.orders):
            assert tuple(sorted(p.elements, key=lambda e: image[e][axis])) == o.order

    def test_rank_points_rebuild_the_structure(self):
        # Dushnik-Miller: the product order on the rank points is the
        # poset.  No two points share a coordinate, so each cyclic
        # lexicographic order is decided by its first axis: the realizers.
        for seed in range(8):
            s = random_structure(random.Random(seed), 7, 3)
            rebuilt = _product_structure(s.elements, rigid_embed(s))
            assert rebuilt == s

    def test_uniqueness_by_exhaustion_width_two(self):
        s = figure_structure()
        m = len(s.elements)
        hits = []
        for sig0 in permutations(range(1, m + 1)):
            for sig1 in permutations(range(1, m + 1)):
                image = list(zip(sig0, sig1))
                if is_rigid_placement(s, image):
                    hits.append(image)
        assert hits == [rigid_embed(s)]

    def test_uniqueness_by_exhaustion_width_three(self):
        s = random_structure(random.Random(4), 3, 3)
        m = len(s.elements)
        hits = []
        for sigs in iter_product(permutations(range(1, m + 1)), repeat=3):
            image = list(zip(*sigs))
            if is_rigid_placement(s, image):
                hits.append(image)
        assert hits == [rigid_embed(s)]


def naive_copy_check(a, host, labels):
    """Is some bijection onto the subset an isomorphism with realizers?"""
    for perm in permutations(labels):
        phi = dict(zip(a.elements, perm))
        ok = True
        for x in a.elements:
            for y in a.elements:
                if x == y:
                    continue
                if a.poset.less(x, y) != host.poset.less(phi[x], phi[y]):
                    ok = False
                for i in range(a.n):
                    fwd = a.realizers.orders[i].rank[x] < a.realizers.orders[i].rank[y]
                    img = (
                        host.realizers.orders[i].rank[phi[x]]
                        < host.realizers.orders[i].rank[phi[y]]
                    )
                    if fwd != img:
                        ok = False
        if ok:
            return True
    return False


class TestEnumerateCopies:
    def test_one_point_pattern_counts_points(self):
        assert len(enumerate_copies(grid(3, 2), one_point())) == 9

    def test_aligned_chain_in_square(self):
        copies = enumerate_copies(grid(2, 2), aligned_chain())
        assert len(copies) == ALIGNED_CHAIN_COPIES_IN_SQUARE
        assert ("1,2", "2,1") not in copies and ("2,1", "1,2") not in copies

    def test_aligned_chain_in_square_against_naive_oracle(self):
        host = grid(2, 2)
        found = {
            frozenset(c) for c in enumerate_copies(host, aligned_chain())
        }
        for pair in combinations(host.elements, 2):
            expect = naive_copy_check(aligned_chain(), host, pair)
            assert (frozenset(pair) in found) == expect

    def test_self_copy_is_unique(self):
        s = figure_structure()
        assert enumerate_copies(s, s) == [tuple(s.elements)]

    def test_pattern_larger_than_host(self):
        assert enumerate_copies(aligned_chain(), figure_structure()) == []

    def test_random_hosts_against_naive_oracle(self):
        rng = random.Random(9)
        for _ in range(5):
            host = random_structure(rng, 4, 2)
            a = random_structure(rng, 2, 2)
            found = {frozenset(c) for c in enumerate_copies(host, a)}
            for pair in combinations(host.elements, 2):
                assert (frozenset(pair) in found) == naive_copy_check(
                    a, host, pair
                )

    def test_mismatched_widths(self):
        with pytest.raises(ElementMismatch):
            enumerate_copies(grid(2, 2), one_point(n=3))

    def test_placements_past_the_budget_are_refused(self, monkeypatch):
        # One step per element placed: the 16 points of the 4^2 grid for
        # u, then v on each point above u's in the product order, 84 in
        # all; 100 steps against the C(16, 2) = 120 subsets of the walk
        copies = enumerate_copies(grid(4, 2), aligned_chain())
        assert len(copies) == 84
        monkeypatch.setenv("ORDERDIM_BUDGET", "99")
        with pytest.raises(LimitExceeded, match="^copy enumeration: step budget exhausted"):
            enumerate_copies(grid(4, 2), aligned_chain())
        monkeypatch.setenv("ORDERDIM_BUDGET", "100")
        assert enumerate_copies(grid(4, 2), aligned_chain()) == copies

    @pytest.mark.parametrize("n", [2, 3])
    def test_grids_match_the_subset_walk(self, n):
        # random patterns of each size whose subset walk stays small
        rng = random.Random(23 + n)
        for r in range(1, 6):
            host = grid(r, n)
            for size in range(1, 5):
                if comb(len(host), size) > 20_000:
                    break
                patterns = [random_structure(rng, size, n) for _ in range(3)]
                if (n, size) == (2, 4):
                    patterns.append(figure_structure())
                for a in patterns:
                    assert enumerate_copies(host, a) == oracle_copies(host, a)

    def test_random_hosts_match_the_subset_walk(self):
        rng = random.Random(23)
        found = 0
        for _ in range(300):
            n = rng.randint(1, 3)
            b = random_structure(rng, rng.randint(1, 8), n)
            a = random_structure(rng, rng.randint(1, len(b)), n)
            copies = enumerate_copies(b, a)
            assert copies == oracle_copies(b, a)
            found += len(copies)
        assert found


class TestRigidCopies:
    # The reduction oracle's pullback: rank points against per-order ranks.

    def test_spot_values(self):
        cells = [((1, 2), (1, 2)), ((2, 3), (1, 3)), ((1, 3), (2, 3))]
        assert oracle_rigid_copies(aligned_chain(), cells) == [
            ("1,1", "2,2"),
            ("2,1", "3,3"),
            ("1,2", "3,3"),
        ]
        assert oracle_rigid_copies(crossed_antichain(), cells[:1]) == [("1,2", "2,1")]

    def test_every_copy_is_the_oracle_placement(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(1, 3)
            s = random_structure(rng, rng.randint(1, 4), n)
            r = len(s) + rng.randint(0, 2)
            keys = oracle_subgrids(r, n, len(s))
            want = [
                tuple(",".join(map(str, p)) for p in oracle_rigid_copy_in_subgrid(s, axes))
                for axes in keys
            ]
            assert oracle_rigid_copies(s, keys) == want

    def test_every_cell_holds_its_rigid_copy(self):
        # the pullback reads a copy of the pattern in every l^n-subgrid
        for a in (one_point(), aligned_chain(), crossed_antichain(), figure_structure()):
            copies = set(enumerate_copies(grid(len(a) + 1, 2), a))
            cells = all_subgrids(len(a) + 1, 2, len(a))
            assert set(oracle_rigid_copies(a, cells)) <= copies


class TestFirstMonoGroup:
    # The reduction oracle's scan, against the brute-force object scan.

    def test_pigeonhole_on_a_line(self):
        _, groups = _grid_groups(1, 2, 1, 3)
        for colors in iter_product((1, 2), repeat=3):
            assert oracle_first_mono_group(colors, groups, lambda: None) is not None

    def test_constant_coloring_returns_the_leading_block(self):
        cells, groups = _grid_groups(1, 3, 2, 4)
        assert oracle_first_mono_group([1] * len(cells), groups, lambda: None) == 0
        assert all_subgrids(4, 2, 3)[0] == ((1, 2, 3), (1, 2, 3))

    @pytest.mark.parametrize("l, m, n, r", [(1, 2, 2, 3), (1, 2, 1, 4), (2, 3, 2, 4), (1, 3, 2, 4)])
    def test_agreement_with_the_brute_scan(self, l, m, n, r):
        rng = random.Random(5)
        cells, groups = _grid_groups(l, m, n, r)
        bigs = oracle_subgrids(r, n, m)
        for _ in range(40):
            colors = [rng.choice((1, 2)) for _ in cells]
            got = oracle_first_mono_group(colors, groups, lambda: None)
            want = oracle_find_mono_subgrid(colors, l, m, n, r)
            assert (None if got is None else bigs[got]) == want

    def test_each_cell_read_ticks_the_budget(self):
        cells, groups = _grid_groups(1, 2, 2, 4)
        meter = BudgetMeter(3, "monochromatic-subgrid scan")
        with pytest.raises(LimitExceeded, match="^monochromatic-subgrid scan: "):
            oracle_first_mono_group([1] * len(cells), groups, meter.tick)
        meter = BudgetMeter(4, "monochromatic-subgrid scan")
        assert oracle_first_mono_group([1] * len(cells), groups, meter.tick) == 0


class TestColoringSearch:
    def test_deep_search_does_not_recurse(self):
        meter = BudgetMeter(None, "test")
        found = _search_free_coloring(1100, 2, [[0, 1]], meter)
        assert found == [1, 2] + [1] * 1098

    def test_matches_the_uncut_oracle_on_random_groups(self):
        rng = random.Random(11)
        for _ in range(200):
            cells = rng.randrange(1, 9)
            k = rng.randrange(1, 5)
            groups = [
                rng.sample(range(cells), rng.randrange(1, min(cells, 4) + 1))
                for _ in range(rng.randrange(0, 12))
            ]
            meter = BudgetMeter(None, "test")
            assert _search_free_coloring(cells, k, groups, meter) == (
                naive_free_coloring(cells, k, groups)
            )


class TestGridSearchPins:
    # (k, l, m, n, r): steps of _grid_counterexample, and its coloring's
    # values as a digit string (None when every coloring has a
    # monochromatic m^n-subgrid), frozen from the search as it ran
    # before it shared the class-colouring kernel with dimension.
    PINS = {
        (2, 1, 2, 2, 2): (5, "1112"),
        (2, 1, 2, 2, 3): (17, "111122212"),
        (2, 1, 2, 2, 4): (119, "1112122121212211"),
        (2, 1, 2, 2, 5): (17367, None),
        (2, 1, 2, 1, 2): (3, "12"),
        (2, 1, 2, 1, 3): (5, None),
        (3, 1, 2, 1, 3): (6, "123"),
        (3, 1, 2, 1, 4): (9, None),
        (2, 1, 2, 3, 3): (39, "111111111111122122111122212"),
        (2, 2, 3, 2, 4): (50, "111111111111111111111222111222112211"),
    }

    @pytest.mark.parametrize("args", sorted(PINS), ids=str)
    def test_steps_and_coloring_are_pinned(self, args):
        meter = BudgetMeter(10**9, "test")
        found = _grid_counterexample(*args, meter=meter)
        values = None if found is None else "".join(map(str, found))
        assert (10**9 - meter.remaining, values) == self.PINS[args]

    @pytest.mark.parametrize(
        "args", sorted(a for a, (_, values) in PINS.items() if values), ids=str
    )
    def test_pinned_coloring_has_no_monochromatic_subgrid(self, args):
        # the lower side of each threshold, checked by the brute-force scan
        k, l, m, n, r = args
        colors = [int(c) for c in self.PINS[args][1]]
        assert set(colors) <= set(range(1, k + 1))
        assert oracle_find_mono_subgrid(colors, l, m, n, r) is None


class TestProductRamseyNumber:
    def test_pigeonhole_line(self):
        assert product_ramsey_number(2, 1, 2, 1) == 3

    def test_single_color_is_immediate(self):
        assert product_ramsey_number(1, 1, 2, 2) == 2
        assert product_ramsey_number(1, 2, 3, 2) == 3

    def test_square_point_threshold(self):
        assert product_ramsey_number(2, 1, 2, 2) == SQUARE_POINT_THRESHOLD

    def test_threshold_is_sharp(self):
        r = SQUARE_POINT_THRESHOLD - 1
        cex = _grid_counterexample(2, 1, 2, 2, r, BudgetMeter(None, "test"))
        assert cex is not None
        assert oracle_find_mono_subgrid(cex, 1, 2, 2, r) is None
        assert (
            _grid_counterexample(2, 1, 2, 2, r + 1, BudgetMeter(None, "test")) is None
        )

    def test_unreachable_within_r_max(self):
        assert product_ramsey_number(2, 1, 2, 2, r_max=4) is None

    def test_pruning_does_not_change_verdicts(self):
        # the library's search against the uncut oracle on the same groups
        for r in (2, 3, 4):
            cells, groups = _grid_groups(1, 2, 2, r)
            pruned = _grid_counterexample(2, 1, 2, 2, r, BudgetMeter(None, "test"))
            assert pruned == naive_free_coloring(len(cells), 2, groups)

    def test_invalid_parameters(self):
        with pytest.raises(TooSmall):
            product_ramsey_number(0, 1, 2, 2)
        with pytest.raises(TooSmall):
            product_ramsey_number(2, 3, 2, 2)

    def test_budget(self):
        with pytest.raises(LimitExceeded):
            product_ramsey_number(2, 1, 2, 2, budget=10)

    def test_env_budget_honoured(self, monkeypatch):
        monkeypatch.setenv("ORDERDIM_BUDGET", "100")
        with pytest.raises(LimitExceeded, match="grid coloring search at r=4"):
            product_ramsey_number(2, 1, 2, 2, r_max=5)

    def test_one_meter_serves_every_r(self):
        steps = []
        for r in range(2, SQUARE_POINT_THRESHOLD + 1):
            meter = BudgetMeter(10**9, "test")
            _grid_counterexample(2, 1, 2, 2, r, meter)
            steps.append(10**9 - meter.remaining)
        # enough for any single r, too little for all of them together
        budget = sum(steps) - 1
        assert max(steps) <= budget
        assert product_ramsey_number(2, 1, 2, 2, budget=sum(steps)) == (
            SQUARE_POINT_THRESHOLD
        )
        with pytest.raises(LimitExceeded, match="grid coloring search"):
            product_ramsey_number(2, 1, 2, 2, budget=budget)

    def test_oversized_space_refused_up_front(self):
        # r = 2 and 3 spend 22 steps; r = 4 has 16 cells of 2 colors
        with pytest.raises(LimitExceeded, match="at r=4: cells times colors: 32"):
            product_ramsey_number(2, 1, 2, 2, r_max=4, budget=25)


class TestChainRamseyCase:
    """Two colours on the aligned 2-chains of r^2, asking for an aligned
    3-chain whose three pairs share a colour.  Aligned copies are chains
    of the product order.  At r = 4 the grid holds the diagonal 7-chain
    from (1, 1) to (4, 4); by R(3, 3) = 6 every 2-colouring of its pairs
    has a monochromatic triangle, and each triangle of a chain is an
    aligned 3-chain.  So the answer is False below r = 4 and True from
    there on, whatever the search."""

    @pytest.mark.parametrize("r", [2, 3])
    def test_a_free_colouring_exists_below_four(self, monkeypatch, r):
        monkeypatch.delenv("ORDERDIM_BUDGET", raising=False)
        assert not ramsey_witness_check(aligned_chain(), aligned_chain_of_three(), 2, r)

    @pytest.mark.xfail(
        strict=True,
        raises=LimitExceeded,
        reason="runs out of the default budget before every colouring is ruled out",
    )
    def test_four_holds_by_r33(self, monkeypatch):
        monkeypatch.delenv("ORDERDIM_BUDGET", raising=False)
        assert ramsey_witness_check(aligned_chain(), aligned_chain_of_three(), 2, 4)


class TestRamseyWitnessCheck:
    def test_pattern_equal_to_target(self):
        assert ramsey_witness_check(aligned_chain(), aligned_chain(), 2, 2)

    def test_point_in_chain_at_the_grid_threshold(self):
        assert ramsey_witness_check(one_point(), aligned_chain(), 2, SQUARE_POINT_THRESHOLD)

    def test_crossed_pair_fails_then_holds(self):
        assert not ramsey_witness_check(one_point(), crossed_antichain(), 2, 2)
        assert ramsey_witness_check(one_point(), crossed_antichain(), 2, 3)

    def test_reduction_and_exhaustive_agree(self):
        # Both method names run the kernel; the reduction oracle agrees.
        cases = [(b, r) for r in (2, 3) for b in (aligned_chain(), crossed_antichain())]
        # 2^2 holds copies of the 3-chain but no 3^2-subgrid
        cases.append((aligned_chain_of_three(), 2))
        for b, r in cases:
            fast = ramsey_witness_check(one_point(), b, 2, r, method="reduction")
            full = ramsey_witness_check(one_point(), b, 2, r, method="exhaustive")
            assert fast == full == oracle_ramsey_reduction(one_point(), b, 2, r)

    def test_reduction_steps_are_pinned(self):
        # The reduction oracle, frozen from the scan that re-listed the
        # subgrids per coloring: 8,014 cell reads over the 2^9 colorings
        # of r = 3.
        for b in (aligned_chain(), crossed_antichain()):
            assert oracle_ramsey_reduction(one_point(), b, 2, 3, budget=8014)
            with pytest.raises(LimitExceeded, match="^monochromatic-subgrid scan: step"):
                oracle_ramsey_reduction(one_point(), b, 2, 3, budget=8013)

    def test_unsettled_monochromatic_subgrid_is_a_failed_self_check(self):
        # The argument makes the rigid copy of b in a monochromatic subgrid
        # monochromatic; a scan that reports the first subgrid whatever
        # its colors breaks that on some coloring.
        with pytest.raises(SelfCheckFailed):
            oracle_ramsey_reduction(
                one_point(), crossed_antichain(), 2, 3, scan=lambda colors, groups, tick: 0
            )

    def test_pruning_does_not_change_verdicts(self):
        # the library's search against the uncut oracle on the same groups
        for r in (2, 3):
            count, groups = _copy_groups(
                grid(r, 2), one_point(), crossed_antichain(), BudgetMeter(None, "test")
            )
            meter = BudgetMeter(None, "test")
            pruned = _search_free_coloring(count, 2, groups, meter)
            plain = naive_free_coloring(count, 2, groups)
            assert pruned == plain
            assert ramsey_witness_check(one_point(), crossed_antichain(), 2, r) == (
                plain is None
            )

    def test_inner_copies_sit_rigidly_in_subgrids(self):
        # the reduction oracle's key step: inside a rigidly embedded target,
        # every pattern copy spans a subgrid whose rigid copy it is
        for a in (aligned_chain(), crossed_antichain()):
            for axes in (
                ((1, 2, 3, 4), (1, 2, 3, 4)),
                ((1, 3, 4, 5), (2, 3, 4, 5)),
            ):
                b = figure_structure()
                placed = dict(zip(b.elements, oracle_rigid_copies(b, [axes])[0]))
                for copy in enumerate_copies(b, a):
                    labels = tuple(placed[x] for x in copy)
                    points = [tuple(map(int, lab.split(","))) for lab in labels]
                    span = tuple(
                        tuple(sorted(p[i] for p in points))
                        for i in range(2)
                    )
                    assert oracle_rigid_copies(a, [span]) == [labels]

    def test_pattern_must_embed(self):
        with pytest.raises(ElementMismatch):
            ramsey_witness_check(crossed_antichain(), aligned_chain(), 2, 3)

    def test_mismatched_widths(self):
        with pytest.raises(ElementMismatch):
            ramsey_witness_check(one_point(n=3), aligned_chain(), 2, 2)

    @pytest.mark.parametrize("method", ["reduction", "exhaustive"])
    def test_copy_placements_are_charged_to_the_call_budget(self, method):
        # 2-chains into 3-chains at r = 3: 115 copy placements and 1,378
        # colouring steps; the call's own budget= decides
        assert not ramsey_witness_check(
            aligned_chain(), aligned_chain_of_three(), 2, 3, method, budget=1493
        )
        for budget in (1492, 114):
            with pytest.raises(LimitExceeded, match="^copy coloring search: step budget"):
                ramsey_witness_check(
                    aligned_chain(), aligned_chain_of_three(), 2, 3, method, budget=budget
                )

    def test_copies_past_the_budget_stay_small(self):
        # The 3-chains of the 30^2 grid take far more steps than this
        # budget; each copy found is kept as a tuple of host indices until
        # the meter stops the enumeration.  Peak RSS, read in a fresh
        # process.
        script = (
            "import resource\n"
            "from orderdim.errors import LimitExceeded\n"
            "from orderdim.poset import LinearOrder, OrderedStructure\n"
            "from orderdim.ramsey import ramsey_witness_check\n"
            "a = OrderedStructure.from_orders([LinearOrder(['u', 'v'])] * 2)\n"
            "b = OrderedStructure.from_orders([LinearOrder(['u', 'v', 'w'])] * 2)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "try:\n"
            "    ramsey_witness_check(a, b, 2, 30, budget=200_000)\n"
            "except LimitExceeded as exc:\n"
            "    print(exc)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
        )
        src = os.path.dirname(os.path.dirname(orderdim.__file__))
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        message, growth_kb = out.stdout.splitlines()
        assert message.startswith("copy coloring search: step budget exhausted")
        assert int(growth_kb) < 40 * 1024

    @pytest.mark.parametrize("a, b, r", [
        (one_point(), aligned_chain_of_three(), 1),
        # the 3-chains of 30^2 run out the budget: the method is refused
        # before any copy is placed
        (aligned_chain(), aligned_chain_of_three(), 30),
    ])
    def test_unknown_method_is_refused_first(self, a, b, r):
        with pytest.raises(ElementMismatch, match="^unknown method 'typo'$"):
            ramsey_witness_check(a, b, 2, r, method="typo")

    @pytest.mark.parametrize("method", ["reduction", "exhaustive"])
    @pytest.mark.parametrize("k", [0, -3])
    def test_fewer_than_one_color_is_refused(self, method, k):
        # before any copy is placed: the 3-chains of the 30^2 grid would
        # run out the budget otherwise
        with pytest.raises(TooSmall, match="^colorings need k >= 1$"):
            ramsey_witness_check(one_point(), aligned_chain(), k, 2, method)
        with pytest.raises(TooSmall, match="^colorings need k >= 1$"):
            ramsey_witness_check(aligned_chain(), aligned_chain_of_three(), k, 30, method)

    def test_pattern_larger_than_target(self):
        with pytest.raises(TooSmall):
            ramsey_witness_check(aligned_chain(), one_point(), 2, 2)

    def test_reduction_budget(self):
        # 2^25 copy colorings: the reduction oracle refuses them up front,
        # and the kernel decides the call inside the default budget.
        with pytest.raises(LimitExceeded, match="colorings to scan: 33554432 cases"):
            oracle_ramsey_reduction(one_point(), aligned_chain(), 2, 5)
        assert ramsey_witness_check(one_point(), aligned_chain(), 2, 5)

    def test_env_budget_honoured(self, monkeypatch):
        monkeypatch.setenv("ORDERDIM_BUDGET", "20")
        with pytest.raises(LimitExceeded, match="copy coloring search"):
            ramsey_witness_check(one_point(), crossed_antichain(), 2, 3)

    def test_one_meter_serves_every_scan(self, monkeypatch):
        # One meter under one phase counts every copy placement and every
        # step of the kernel: 16 + 36 placements for the crossed pairs in
        # 4^2, 16 for its points and 2 for the points of the pair, then
        # 1,017 for three colors: 1,087 in all.
        a, b = one_point(), crossed_antichain()
        meter = BudgetMeter(10**9, "test")
        count, groups = _copy_groups(grid(4, 2), a, b, meter)
        assert 10**9 - meter.remaining == 70
        assert _search_free_coloring(count, 3, groups, meter) is None
        assert 10**9 - meter.remaining == 1087
        assert ramsey_witness_check(a, b, 3, 4, budget=1087)
        monkeypatch.setenv("ORDERDIM_BUDGET", "1086")
        with pytest.raises(LimitExceeded, match="^copy coloring search: step budget"):
            ramsey_witness_check(a, b, 3, 4)
        with pytest.raises(LimitExceeded, match="^copy coloring search: step budget"):
            ramsey_witness_check(a, b, 3, 4, budget=69)
