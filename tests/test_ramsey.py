"""Grids, rigid embeddings, copy colorings, and the partition searches."""

from __future__ import annotations

import random
from itertools import combinations, permutations, product as iter_product

import pytest

from conftest import naive_free_coloring, random_structure
from orderdim.budget import BudgetMeter, effective_budget
from orderdim.errors import ElementMismatch, LimitExceeded, TooSmall
from orderdim.geometry import cyclic_priority, lex_less, product_less
from orderdim.poset import LinearOrder, OrderedStructure
from orderdim.ramsey import (
    Coloring,
    GridStruct,
    Subgrid,
    _copy_groups,
    _grid_counterexample,
    _grid_groups,
    _search_free_coloring,
    all_subgrids,
    enumerate_copies,
    find_mono_subgrid,
    induced_coloring,
    product_ramsey_number,
    ramsey_witness_check,
    rigid_copy_in_subgrid,
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


def figure_structure():
    # one bottom, one top, two incomparable middles
    return OrderedStructure.from_orders(
        [
            LinearOrder(["w", "x", "y", "z"]),
            LinearOrder(["w", "y", "x", "z"]),
        ]
    )


class TestGridStruct:
    def test_square_orders(self):
        g = GridStruct(2, 2)
        s = g.structure
        assert s.realizers.orders[0].order == ("1,1", "1,2", "2,1", "2,2")
        assert s.realizers.orders[1].order == ("1,1", "2,1", "1,2", "2,2")
        assert s.poset.less("1,1", "2,2")
        assert s.poset.incomparable("1,2", "2,1")

    def test_lex_orders_realize_product_order_all_small_grids(self):
        for m in range(1, 6):
            for n in range(1, 4):
                GridStruct(m, n).structure  # construction re-checks

    def test_line_grid(self):
        g = GridStruct(3, 1)
        assert g.structure.poset.is_chain()

    def test_too_small(self):
        with pytest.raises(TooSmall):
            GridStruct(0, 2)


class TestSubgrid:
    def test_side_and_points(self):
        sub = Subgrid(((1, 3), (2, 4)))
        assert sub.side == 2
        assert list(sub.points()) == [(1, 2), (1, 4), (3, 2), (3, 4)]

    def test_ragged_has_no_side(self):
        assert Subgrid(((1, 2), (3,))).side is None

    def test_axes_must_increase(self):
        with pytest.raises(ElementMismatch):
            Subgrid(((2, 1),))
        with pytest.raises(ElementMismatch):
            Subgrid(((1, 1),))
        with pytest.raises(ElementMismatch):
            Subgrid(((),))

    def test_json_round_trip(self):
        sub = Subgrid(((1, 3), (2, 4)))
        assert Subgrid.from_json(sub.to_json()) == sub


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
        assert len(enumerate_copies(GridStruct(3, 2), one_point())) == 9

    def test_aligned_chain_in_square(self):
        copies = enumerate_copies(GridStruct(2, 2), aligned_chain())
        assert len(copies) == ALIGNED_CHAIN_COPIES_IN_SQUARE
        assert ("1,2", "2,1") not in copies and ("2,1", "1,2") not in copies

    def test_aligned_chain_in_square_against_naive_oracle(self):
        grid = GridStruct(2, 2)
        host = grid.structure
        found = {
            frozenset(c) for c in enumerate_copies(grid, aligned_chain())
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
            enumerate_copies(GridStruct(2, 2), one_point(n=3))


def parity_coloring(grid, a):
    """Color 1 when the copy's first element has even first coordinate."""
    keys = tuple(enumerate_copies(grid, a))
    values = tuple(
        1 if int(key[0].split(",")[0]) % 2 == 0 else 2 for key in keys
    )
    return Coloring("copies", 2, keys, values)


class TestInducedColoring:
    def test_constant_stays_constant(self):
        grid = GridStruct(3, 2)
        keys = tuple(enumerate_copies(grid, aligned_chain()))
        const = Coloring("copies", 2, keys, (1,) * len(keys))
        pulled = induced_coloring(const, aligned_chain(), grid)
        assert set(pulled.values) == {1}
        assert len(pulled.keys) == 9

    def test_parity_coloring_spot_values(self):
        grid = GridStruct(3, 2)
        col = parity_coloring(grid, aligned_chain())
        assert len(col.keys) == 27
        pulled = induced_coloring(col, aligned_chain(), grid)
        assert pulled.color(((1, 2), (1, 2))) == 2  # rigid copy starts at (1,1)
        assert pulled.color(((2, 3), (1, 3))) == 1  # rigid copy starts at (2,1)
        assert pulled.color(((1, 3), (2, 3))) == 2  # rigid copy starts at (1,2)

    def test_every_value_replays_the_definition(self):
        grid = GridStruct(3, 2)
        a = aligned_chain()
        col = parity_coloring(grid, a)
        pulled = induced_coloring(col, a, grid)
        for axes, value in zip(pulled.keys, pulled.values):
            points = rigid_copy_in_subgrid(a, axes)
            key = tuple(",".join(str(v) for v in p) for p in points)
            assert value == col.color(key)

    def test_requires_copy_coloring(self):
        keys = tuple(all_subgrids(2, 2, 1))
        col = Coloring("subgrids", 2, keys, (1,) * len(keys))
        with pytest.raises(ElementMismatch):
            induced_coloring(col, one_point(), GridStruct(2, 2))


class TestColoring:
    def test_total_and_in_range(self):
        with pytest.raises(ElementMismatch):
            Coloring("copies", 2, (("a",),), (3,))
        with pytest.raises(ElementMismatch):
            Coloring("copies", 2, (("a",), ("b",)), (1,))
        with pytest.raises(ElementMismatch):
            Coloring("copies", 2, (("a",), ("a",)), (1, 2))
        with pytest.raises(ElementMismatch):
            Coloring("spam", 2, (("a",),), (1,))
        with pytest.raises(TooSmall):
            Coloring("copies", 0, (), ())

    def test_lookup_outside_target(self):
        col = Coloring("copies", 2, (("a",),), (2,))
        with pytest.raises(ElementMismatch):
            col.color(("b",))

    def test_json_keeps_only_the_value_array(self):
        keys = tuple(all_subgrids(3, 1, 1))
        col = Coloring("subgrids", 2, keys, (1, 2, 1))
        payload = col.to_json()
        assert payload == {"kind": "subgrids", "k": 2, "values": [1, 2, 1]}
        assert Coloring.from_json(payload, keys) == col


def brute_mono_subgrid(col, m):
    sample = col.keys[0]
    n, l = len(sample), len(sample[0])
    r = max(v for axes in col.keys for axis in axes for v in axis)
    for big in iter_product(combinations(range(1, r + 1), m), repeat=n):
        shades = {
            col.color(small)
            for small in iter_product(
                *[list(combinations(axis, l)) for axis in big]
            )
        }
        if len(shades) == 1:
            return big
    return None


class TestFindMonoSubgrid:
    def test_pigeonhole_on_a_line(self):
        keys = tuple(all_subgrids(3, 1, 1))
        for values in iter_product((1, 2), repeat=3):
            col = Coloring("subgrids", 2, keys, values)
            assert find_mono_subgrid(col, 2) is not None

    def test_constant_coloring_returns_leading_block(self):
        keys = tuple(all_subgrids(4, 2, 1))
        col = Coloring("subgrids", 2, keys, (1,) * len(keys))
        assert find_mono_subgrid(col, 3) == Subgrid(((1, 2, 3), (1, 2, 3)))

    def test_agreement_with_brute_scan(self):
        rng = random.Random(5)
        keys = tuple(all_subgrids(3, 2, 1))
        for _ in range(40):
            values = tuple(rng.choice((1, 2)) for _ in keys)
            col = Coloring("subgrids", 2, keys, values)
            got = find_mono_subgrid(col, 2)
            brute = brute_mono_subgrid(col, 2)
            assert (got is None) == (brute is None)
            if got is not None:
                assert got.axes == brute

    def test_out_of_range_m(self):
        keys = tuple(all_subgrids(3, 1, 2))
        col = Coloring("subgrids", 2, keys, (1,) * len(keys))
        with pytest.raises(TooSmall):
            find_mono_subgrid(col, 4)

    def test_budget(self):
        keys = tuple(all_subgrids(4, 2, 1))
        col = Coloring("subgrids", 2, keys, (1,) * len(keys))
        with pytest.raises(LimitExceeded):
            find_mono_subgrid(col, 2, budget=3)

    def test_env_budget_names_the_scan(self, monkeypatch):
        monkeypatch.setenv("ORDERDIM_BUDGET", "3")
        keys = tuple(all_subgrids(4, 2, 1))
        col = Coloring("subgrids", 2, keys, (1,) * len(keys))
        with pytest.raises(LimitExceeded, match="^monochromatic-subgrid scan: "):
            find_mono_subgrid(col, 2)


class TestColoringSearch:
    def test_deep_search_does_not_recurse(self):
        meter = BudgetMeter(effective_budget(), "test")
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
            meter = BudgetMeter(effective_budget(), "test")
            assert _search_free_coloring(cells, k, groups, meter) == (
                naive_free_coloring(cells, k, groups)
            )


class TestProductRamseyNumber:
    def test_pigeonhole_line(self):
        assert product_ramsey_number(2, 1, 2, 1) == 3

    def test_single_color_is_immediate(self):
        assert product_ramsey_number(1, 1, 2, 2) == 2
        assert product_ramsey_number(1, 2, 3, 2) == 3

    def test_square_point_threshold(self):
        assert product_ramsey_number(2, 1, 2, 2) == SQUARE_POINT_THRESHOLD

    def test_threshold_is_sharp(self):
        cex = _grid_counterexample(2, 1, 2, 2, SQUARE_POINT_THRESHOLD - 1)
        assert cex is not None
        assert find_mono_subgrid(cex, 2) is None
        assert (
            _grid_counterexample(2, 1, 2, 2, SQUARE_POINT_THRESHOLD) is None
        )

    def test_unreachable_within_r_max(self):
        assert product_ramsey_number(2, 1, 2, 2, r_max=4) is None

    def test_pruning_does_not_change_verdicts(self):
        # the library's search against the uncut oracle on the same groups
        for r in (2, 3, 4):
            cells, groups = _grid_groups(1, 2, 2, r)
            pruned = _grid_counterexample(2, 1, 2, 2, r)
            plain = naive_free_coloring(len(cells), 2, groups)
            assert (pruned is None) == (plain is None)
            if pruned is not None:
                assert list(pruned.values) == plain

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


class TestRamseyWitnessCheck:
    def test_pattern_equal_to_target(self):
        assert ramsey_witness_check(aligned_chain(), aligned_chain(), 2, 2)

    def test_point_in_chain_at_the_grid_threshold(self):
        assert ramsey_witness_check(
            one_point(), aligned_chain(), 2, SQUARE_POINT_THRESHOLD,
            method="exhaustive",
        )

    def test_crossed_pair_fails_then_holds(self):
        assert not ramsey_witness_check(
            one_point(), crossed_antichain(), 2, 2, method="exhaustive"
        )
        assert ramsey_witness_check(
            one_point(), crossed_antichain(), 2, 3, method="exhaustive"
        )

    def test_reduction_and_exhaustive_agree(self):
        for r in (2, 3):
            for b in (aligned_chain(), crossed_antichain()):
                fast = ramsey_witness_check(one_point(), b, 2, r)
                full = ramsey_witness_check(
                    one_point(), b, 2, r, method="exhaustive"
                )
                assert fast == full

    def test_pruning_does_not_change_verdicts(self):
        # the library's search against the uncut oracle on the same groups
        for r in (2, 3):
            copies_a, _, groups = _copy_groups(
                GridStruct(r, 2), one_point(), crossed_antichain()
            )
            meter = BudgetMeter(effective_budget(), "test")
            pruned = _search_free_coloring(len(copies_a), 2, groups, meter)
            plain = naive_free_coloring(len(copies_a), 2, groups)
            assert pruned == plain
            assert ramsey_witness_check(
                one_point(), crossed_antichain(), 2, r, method="exhaustive"
            ) == (plain is None)

    def test_inner_copies_sit_rigidly_in_subgrids(self):
        # the reduction's key step: inside a rigidly embedded target,
        # every pattern copy spans a subgrid whose rigid copy it is
        for a in (aligned_chain(), crossed_antichain()):
            for axes in (
                ((1, 2, 3, 4), (1, 2, 3, 4)),
                ((1, 3, 4, 5), (2, 3, 4, 5)),
            ):
                b = figure_structure()
                placed = dict(
                    zip(b.elements, rigid_copy_in_subgrid(b, axes))
                )
                for copy in enumerate_copies(b, a):
                    points = [placed[x] for x in copy]
                    span = tuple(
                        tuple(sorted(p[i] for p in points))
                        for i in range(2)
                    )
                    assert rigid_copy_in_subgrid(a, span) == points

    def test_pattern_must_embed(self):
        with pytest.raises(ElementMismatch):
            ramsey_witness_check(crossed_antichain(), aligned_chain(), 2, 3)

    def test_mismatched_widths(self):
        with pytest.raises(ElementMismatch):
            ramsey_witness_check(one_point(n=3), aligned_chain(), 2, 2)

    def test_pattern_larger_than_target(self):
        with pytest.raises(TooSmall):
            ramsey_witness_check(aligned_chain(), one_point(), 2, 2)

    def test_reduction_budget(self):
        with pytest.raises(LimitExceeded):
            ramsey_witness_check(one_point(), aligned_chain(), 2, 5)

    def test_env_budget_honoured(self, monkeypatch):
        monkeypatch.setenv("ORDERDIM_BUDGET", "20")
        with pytest.raises(LimitExceeded, match="copy coloring search"):
            ramsey_witness_check(
                one_point(), crossed_antichain(), 2, 3, method="exhaustive"
            )

    def test_one_meter_serves_every_scan(self, monkeypatch):
        # 2^9 colorings pass the up-front check; each scan alone is far
        # below the budget, their sum is not
        monkeypatch.setenv("ORDERDIM_BUDGET", "1000")
        with pytest.raises(
            LimitExceeded, match="monochromatic-subgrid scan: step budget"
        ):
            ramsey_witness_check(one_point(), crossed_antichain(), 2, 3)
        assert ramsey_witness_check(
            one_point(), crossed_antichain(), 2, 3, budget=10_000
        )
