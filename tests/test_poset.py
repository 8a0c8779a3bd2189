"""Core order types: validation, extension, realizers, constructors."""

from __future__ import annotations

import random
from itertools import permutations, product as iter_product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orderdim.errors import (
    CycleIntroduced,
    DuplicateLabel,
    ElementMismatch,
    ReflexiveViolation,
    TooSmall,
    TransitivityViolation,
)
from orderdim.flow import symmetric_sample
from orderdim.geometry import PointCloud, induced_structure, sample_dn
from orderdim.poset import (
    FinitePoset,
    LinearOrder,
    OrderedStructure,
    RealizerTuple,
    antichain,
    chain,
    crown,
    grid,
    hiraguchi_bound,
    is_realizer,
    _intersection_rows,
    _meet_rows,
    _product_structure,
    szpilrajn_extend,
    validate_poset,
)

from conftest import (
    all_posets_on,
    less_pairs,
    naive_is_realizer,
    oracle_intersection_rows,
    oracle_point_structure,
    random_poset,
)


def rel(labels, pairs):
    m = len(labels)
    idx = {x: i for i, x in enumerate(labels)}
    mat = np.zeros((m, m), dtype=bool)
    for a, b in pairs:
        mat[idx[a], idx[b]] = True
    return mat


class TestValidatePoset:
    def test_empty_relation_is_antichain(self):
        p = validate_poset(("a", "b", "c"), np.zeros((3, 3), dtype=bool))
        assert not less_pairs(p)

    def test_missing_transitive_pair_named(self):
        labels = ("a", "b", "c")
        with pytest.raises(TransitivityViolation) as exc:
            validate_poset(labels, rel(labels, [("a", "b"), ("b", "c")]))
        assert exc.value.triple == ("a", "b", "c")

    def test_crown3_relation_valid(self):
        labels = tuple(f"a{i}" for i in (1, 2, 3)) + tuple(f"b{i}" for i in (1, 2, 3))
        pairs = [
            (f"a{i}", f"b{j}") for i in (1, 2, 3) for j in (1, 2, 3) if i != j
        ]
        p = validate_poset(labels, rel(labels, pairs))
        assert p == crown(3)

    def test_reflexive_entry_named(self):
        mat = np.zeros((2, 2), dtype=bool)
        mat[1, 1] = True
        with pytest.raises(ReflexiveViolation) as exc:
            validate_poset(("a", "b"), mat)
        assert exc.value.label == "b"

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            validate_poset(("a", "a"), np.zeros((2, 2), dtype=bool))

    def test_two_cycle_reported_as_transitivity_gap(self):
        labels = ("a", "b")
        with pytest.raises(TransitivityViolation):
            validate_poset(labels, rel(labels, [("a", "b"), ("b", "a")]))

    def test_empty_element_list_rejected(self):
        with pytest.raises(TooSmall):
            validate_poset((), np.zeros((0, 0), dtype=bool))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: FinitePoset([], []),
            lambda: FinitePoset((), np.zeros((0, 0), dtype=bool)),
            lambda: FinitePoset.from_rows([], []),
            lambda: RealizerTuple([LinearOrder([])]).intersection(),
        ],
        ids=["matrix", "numpy", "rows", "intersection"],
    )
    def test_every_constructor_refuses_no_elements(self, build):
        # dimension() would give no elements dimension 1, with a
        # zero-element witness
        with pytest.raises(TooSmall, match="^a poset needs at least one element$"):
            build()


T, F = True, False

# Relations that are no strict order, with the violation each one names.
NON_ORDERS = {
    "reflexive": (("a", "b"), [[T, F], [F, F]], ReflexiveViolation, "label", "a"),
    "two-cycle": (("a", "b"), [[F, T], [T, F]], TransitivityViolation, "triple", ("a", "b", "a")),
    "transitivity-gap": (
        ("a", "b", "c"),
        [[F, T, F], [F, F, T], [F, F, F]],
        TransitivityViolation,
        "triple",
        ("a", "b", "c"),
    ),
}


class TestMatrixConstructorChecksAxioms:
    """FinitePoset(elements, lt) refuses a relation that is no strict
    order, with the error validate_poset raises; built anyway, each of
    these made dimension() fail its self-check."""

    @pytest.mark.parametrize("case", list(NON_ORDERS))
    def test_non_order_is_refused(self, case):
        labels, lt, error, field, named = NON_ORDERS[case]
        for build in (FinitePoset, validate_poset):
            with pytest.raises(error) as exc:
                build(labels, lt)
            assert getattr(exc.value, field) == named

    def test_every_order_on_three_labels_is_accepted(self):
        for p in all_posets_on(("a", "b", "c")):
            assert FinitePoset(p.elements, p.lt) == p

    @given(st.integers(0, 2**32), st.integers(1, 9))
    def test_random_orders_are_accepted(self, seed, m):
        p = random_poset(random.Random(seed), m)
        assert FinitePoset(p.elements, p.lt) == p


class TestRepeatedLabels:
    """Every FinitePoset constructor refuses a repeated label, as
    validate_poset and LinearOrder do."""

    def test_chain(self):
        # a chain a < b < a would read less("b", "a") and not less("a", "b")
        with pytest.raises(DuplicateLabel, match="a"):
            chain(3, ["a", "b", "a"])

    def test_antichain(self):
        with pytest.raises(DuplicateLabel, match="x"):
            antichain(2, ["x", "x"])

    def test_from_rows(self):
        with pytest.raises(DuplicateLabel, match="b"):
            FinitePoset.from_rows(["a", "b", "b"], [0b110, 0, 0])

    def test_matrix_constructor(self):
        with pytest.raises(DuplicateLabel, match="a"):
            FinitePoset(["a", "a"], [[False, False], [False, False]])

    def test_antichain_refuses_a_label_count_other_than_m(self):
        with pytest.raises(ElementMismatch, match="expected 2 labels, got 3"):
            antichain(2, ["x", "y", "z"])
        with pytest.raises(ElementMismatch, match="expected 2 labels, got 1"):
            antichain(2, ["x"])


class TestSzpilrajn:
    def test_two_chain_unique_extension(self):
        p = validate_poset(("a", "b"), rel(("a", "b"), [("a", "b")]))
        assert szpilrajn_extend(p).order == ("a", "b")

    def test_forced_pair_pulls_isolated_element_down(self):
        labels = ("a", "b", "c")
        p = validate_poset(labels, rel(labels, [("a", "b")]))
        assert szpilrajn_extend(p, [("c", "a")]).order == ("c", "a", "b")

    def test_contradictory_forced_pairs_cycle(self):
        p = antichain(2, ("a", "b"))
        with pytest.raises(CycleIntroduced) as exc:
            szpilrajn_extend(p, [("a", "b"), ("b", "a")])
        assert exc.value.cycle == ("a", "b", "a")

    def test_minimal_label_tiebreak(self):
        p = antichain(2, ("b", "a"))
        assert szpilrajn_extend(p).order == ("a", "b")

    @given(st.integers(0, 10_000), st.integers(2, 8))
    def test_output_extends_input(self, seed, m):
        p = random_poset(random.Random(seed), m)
        ext = szpilrajn_extend(p)
        for a, b in less_pairs(p):
            assert ext.rank[a] < ext.rank[b]

    @given(st.integers(0, 10_000), st.integers(2, 7))
    def test_forced_incomparable_pair_respected(self, seed, m):
        rng = random.Random(seed)
        p = random_poset(rng, m)
        incomp = [
            (a, b)
            for a in p.elements
            for b in p.elements
            if a < b and p.incomparable(a, b)
        ]
        if not incomp:
            return
        a, b = rng.choice(incomp)
        assert szpilrajn_extend(p, [(b, a)]).rank[b] < szpilrajn_extend(p, [(b, a)]).rank[a]

    def test_unknown_forced_label(self):
        p = chain(2)
        with pytest.raises(ElementMismatch):
            szpilrajn_extend(p, [("zz", "c1")])


class TestIsRealizer:
    def test_chain_realizes_itself(self):
        p = chain(2, ("a", "b"))
        assert is_realizer(p, RealizerTuple([LinearOrder(("a", "b"))]))

    def test_two_antichain_reversed_pair(self):
        p = antichain(2, ("a", "b"))
        t = RealizerTuple([LinearOrder(("a", "b")), LinearOrder(("b", "a"))])
        assert is_realizer(p, t)
        assert naive_is_realizer(p, t)

    def test_crown3_hand_built_triple(self):
        # order i puts b_i directly below a_i and every other a below b_i
        p = crown(3)
        orders = []
        for i in (1, 2, 3):
            rest_a = [f"a{j}" for j in (1, 2, 3) if j != i]
            rest_b = [f"b{j}" for j in (1, 2, 3) if j != i]
            orders.append(LinearOrder(rest_a + [f"b{i}", f"a{i}"] + rest_b))
        t = RealizerTuple(orders)
        assert is_realizer(p, t)
        assert naive_is_realizer(p, t)

    def test_element_mismatch(self):
        p = chain(2, ("a", "b"))
        with pytest.raises(ElementMismatch):
            is_realizer(p, RealizerTuple([LinearOrder(("a", "c"))]))

    @given(st.integers(0, 2_000), st.integers(2, 6), st.integers(1, 3))
    def test_agrees_with_naive_checker(self, seed, m, n):
        rng = random.Random(seed)
        p = random_poset(rng, m)
        orders = []
        for _ in range(n):
            seq = list(p.elements)
            rng.shuffle(seq)
            orders.append(LinearOrder(seq))
        t = RealizerTuple(orders)
        assert is_realizer(p, t) == naive_is_realizer(p, t)

    def test_agreement_exhaustive_small(self):
        # every labeled poset on <= 4 elements, every candidate single order
        # and the coordinate pair; optimized and naive checkers must agree
        for m in (2, 3):
            labels = tuple(f"e{i}" for i in range(m))
            for p in all_posets_on(labels):
                for perm in permutations(labels):
                    t = RealizerTuple([LinearOrder(perm)])
                    assert is_realizer(p, t) == naive_is_realizer(p, t)
                for perm in permutations(labels):
                    t = RealizerTuple(
                        [LinearOrder(perm), LinearOrder(tuple(reversed(perm)))]
                    )
                    assert is_realizer(p, t) == naive_is_realizer(p, t)


def _rows_outcome(orders, elements):
    try:
        return _intersection_rows(orders, elements)
    except ElementMismatch as exc:
        return ("ElementMismatch", str(exc))


def _oracle_rows_outcome(orders, elements):
    try:
        return oracle_intersection_rows(orders, elements)
    except ElementMismatch as exc:
        return ("ElementMismatch", str(exc))


class TestIntersectionRows:
    @given(
        st.integers(0, 2**32),
        st.integers(1, 7),
        st.integers(1, 3),
        st.sampled_from(["same", "foreign", "short", "elements-foreign"]),
    )
    def test_matches_the_rank_sort_oracle(self, seed, m, n, fault):
        rng = random.Random(seed)
        elements = [f"e{i}" for i in range(m)]
        rng.shuffle(elements)
        orders = []
        for _ in range(n):
            seq = elements[:]
            rng.shuffle(seq)
            orders.append(seq)
        k = rng.randrange(n)
        if fault == "foreign":
            orders[k][rng.randrange(m)] = "zz"
        elif fault == "short":
            orders[k].pop(rng.randrange(m))
        elif fault == "elements-foreign":
            elements[rng.randrange(m)] = "zz"
        orders = [LinearOrder(o) for o in orders]
        got = _rows_outcome(orders, tuple(elements))
        assert got == _oracle_rows_outcome(orders, tuple(elements))
        if fault != "same":
            assert got[0] == "ElementMismatch"

    @given(
        st.integers(0, 2**32),
        st.integers(1, 10),
        st.integers(1, 3),
        st.sampled_from(["same", "repeated", "short", "long", "out of range"]),
    )
    def test_index_core_matches_the_rank_sort_oracle(self, seed, m, n, fault):
        # _meet_rows on index sequences: the rows of the labelled orders
        # when each sequence is a permutation of range(m), None otherwise.
        rng = random.Random(seed)
        seqs = [rng.sample(range(m), m) for _ in range(n)]
        k = rng.randrange(n)
        if fault == "repeated" and m > 1:
            pos = rng.randrange(m)
            seqs[k][pos] = seqs[k][(pos + 1 + rng.randrange(m - 1)) % m]
        elif fault == "short":
            seqs[k].pop(rng.randrange(m))
        elif fault == "long":
            seqs[k].insert(rng.randrange(m + 1), m)
        elif fault == "out of range":
            seqs[k][rng.randrange(m)] = rng.choice([-1, m])
        got = _meet_rows(seqs, m)
        if fault == "same" or (fault == "repeated" and m == 1):
            elements = [f"e{i}" for i in range(m)]
            orders = [LinearOrder([elements[i] for i in seq]) for seq in seqs]
            assert got == oracle_intersection_rows(orders, elements)
        else:
            assert got is None

    def test_duplicate_elements_are_refused(self):
        t = RealizerTuple([LinearOrder(("a", "b", "c"))])
        with pytest.raises(DuplicateLabel):
            t.intersection(("a", "a", "b"))


class TestCrown:
    def test_crown3_shape(self):
        p = crown(3)
        assert len(p) == 6
        assert len(less_pairs(p)) == 6
        assert p.covers() == sorted(less_pairs(p))

    def test_crown2_explicit(self):
        p = crown(2)
        assert less_pairs(p) == {("a1", "b2"), ("a2", "b1")}

    def test_crown4_relation_count(self):
        assert len(less_pairs(crown(4))) == 12

    def test_too_small(self):
        with pytest.raises(TooSmall):
            crown(1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_constructor_output_validates(self, n):
        p = crown(n)
        assert validate_poset(p.elements, p.lt) == p


def _built(s: OrderedStructure) -> tuple:
    return list(s.elements), list(s.poset.up), [list(o.order) for o in s.realizers.orders]


def _expected(labels: list[str], points: list[tuple]) -> tuple:
    up, seqs = oracle_point_structure(points)
    return labels, up, [[labels[t] for t in seq] for seq in seqs]


def _cloud_case(c: PointCloud) -> tuple[tuple, tuple]:
    return _built(induced_structure(c)), _expected([c.label(i) for i in range(len(c))], c.points)


def _relaxed_cloud(n: int, k: int, seed: int) -> PointCloud:
    """k distinct points on the grid {0..3}^n, so that they share coordinates."""
    points = random.Random(seed).sample(list(iter_product(range(4), repeat=n)), k)
    return PointCloud(n, points, strict=False)


def _grid_case(m: int, n: int) -> tuple[tuple, tuple]:
    return _built(grid(m, n)), _expected(*_grid_points([m] * n))


def _grid_points(lengths) -> tuple[list[str], list[tuple]]:
    """The points of a product of chains of the given lengths, values
    from 1, with labels "a,b,c"."""
    points = list(iter_product(*[range(1, k + 1) for k in lengths]))
    return [",".join(map(str, p)) for p in points], points


def _chains_case(seed: int) -> tuple[tuple, tuple]:
    """A product of chains whose axis values are spread out and whose
    points are listed in random order, not bottom to top."""
    rng = random.Random(seed)
    axes = [rng.sample(range(-20, 20), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
    points = list(iter_product(*axes))
    rng.shuffle(points)
    labels = [f"y{b}" for b in range(len(points))]
    return _built(_product_structure(labels, points)), _expected(labels, points)


PRODUCT_CASES = {
    "sample_dn-2d": lambda: _cloud_case(sample_dn(2, 200, seed=1)),
    "sample_dn-3d": lambda: _cloud_case(sample_dn(3, 100, seed=2)),
    "sample_dn-4d": lambda: _cloud_case(sample_dn(4, 60, seed=3)),
    "symmetric-2d": lambda: _cloud_case(symmetric_sample(2, 40, seed=4)),
    "symmetric-3d-relaxed": lambda: _cloud_case(symmetric_sample(3, 24, seed=5)),
    "relaxed-2d": lambda: _cloud_case(_relaxed_cloud(2, 12, seed=6)),
    "relaxed-3d": lambda: _cloud_case(_relaxed_cloud(3, 40, seed=7)),
    "relaxed-4d": lambda: _cloud_case(_relaxed_cloud(4, 90, seed=9)),
    "grid-7^1": lambda: _grid_case(7, 1),
    "grid-6^2": lambda: _grid_case(6, 2),
    "grid-4^3": lambda: _grid_case(4, 3),
    **{f"chains-{seed}": lambda seed=seed: _chains_case(seed) for seed in range(4)},
}


class TestProductBuilderAgainstOracle:
    """Labels, rows and every order of the one product builder's callers
    against pairwise product comparison and tuple sorts."""

    @pytest.mark.parametrize("case", list(PRODUCT_CASES))
    def test_matches_pairwise_oracle(self, case):
        built, expected = PRODUCT_CASES[case]()
        assert built == expected


class TestProductOfChains:
    """`_product_structure` called directly: the product order of chains
    and its cyclic lexicographic orders."""

    def test_two_two_chains_make_grid(self):
        labels, points = _grid_points((2, 2))
        p = _product_structure(labels, points).poset
        assert p.elements == ("1,1", "1,2", "2,1", "2,2")
        assert less_pairs(p) == {
            ("1,1", "1,2"),
            ("1,1", "2,1"),
            ("1,1", "2,2"),
            ("1,2", "2,2"),
            ("2,1", "2,2"),
        }

    def test_three_chain_squared_size(self):
        p = _product_structure(*_grid_points((3, 3))).poset
        assert len(p) == 9
        assert validate_poset(p.elements, p.lt) == p

    def test_one_chain_factor_is_identity(self):
        # A one-value axis compares every pair equal, so it adds no relation.
        labels, points = _grid_points((2, 3))
        flat = _product_structure(labels, points)
        padded = _product_structure(labels, [(0,) + q for q in points])
        assert padded.poset == flat.poset
        assert padded.realizers.orders[0] == flat.realizers.orders[0]

    def test_empty_point_list_rejected(self):
        with pytest.raises(TooSmall):
            _product_structure([], [])

    def test_labels_name_points_in_input_order(self):
        labels, points = _grid_points((2, 2, 2))
        seq = list(range(len(points)))
        random.Random(3).shuffle(seq)
        s = _product_structure([labels[b] for b in seq], [points[b] for b in seq])
        assert s.elements == tuple(labels[b] for b in seq)
        assert less_pairs(s.poset) == less_pairs(_product_structure(labels, points).poset)

    def test_values_enter_as_dense_ranks(self):
        # Values that only compare, with gaps, build what their ranks build.
        labels, points = _grid_points((3, 2, 4))
        words = ["ant", "bee", "cat", "dog"]
        spread = [(words[a - 1], -10.5 * (3 - b), 7**c) for a, b, c in points]
        assert _product_structure(labels, spread) == _product_structure(labels, points)

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=30, unique=True
            )
        )
    )
    def test_random_points_match_the_pairwise_oracle(self, points):
        labels = [f"q{b}" for b in range(len(points))]
        assert _built(_product_structure(labels, points)) == _expected(labels, points)

    def test_standard_lexicographic(self):
        o = _product_structure(*_grid_points((2, 2))).realizers.orders[0]
        assert o.order == ("1,1", "1,2", "2,1", "2,2")

    def test_colexicographic(self):
        o = _product_structure(*_grid_points((2, 2))).realizers.orders[1]
        assert o.order == ("1,1", "2,1", "1,2", "2,2")

    def test_cyclic_priority_against_brute_comparator(self):
        o = _product_structure(*_grid_points((2, 2, 2))).realizers.orders[1]
        # priority 2, 3, 1: sort tuples by (t[1], t[2], t[0])
        expect = sorted(iter_product("12", repeat=3), key=lambda t: (t[1], t[2], t[0]))
        assert o.order == tuple(",".join(t) for t in expect)

    def test_lex_orders_realize_product_of_chains(self):
        # exhaustive over chain lengths <= 3 and n <= 3
        for n in (1, 2, 3):
            for lengths in iter_product((1, 2, 3), repeat=n):
                s = _product_structure(*_grid_points(lengths))
                assert s.n == n
                assert naive_is_realizer(s.poset, s.realizers)

    def test_lex_implies_weak_coordinate_inequality(self):
        s = _product_structure(*_grid_points((3, 3, 3)))
        for i, o in enumerate(s.realizers.orders):
            coords = {lab: lab.split(",") for lab in o.order}
            for a in o.order:
                for b in o.order:
                    if o.rank[a] < o.rank[b]:
                        assert coords[a][i] <= coords[b][i]


class TestHiraguchi:
    @pytest.mark.parametrize("m,expect", [(4, 2), (6, 3), (7, 3)])
    def test_floor_values(self, m, expect):
        assert hiraguchi_bound(antichain(m)) == expect

    def test_too_small(self):
        with pytest.raises(TooSmall):
            hiraguchi_bound(chain(3))


class TestCoversAndJson:
    def test_covers_against_brute_force(self):
        for seed in range(40):
            p = random_poset(random.Random(seed), 6)
            brute = [
                (a, b)
                for a, b in less_pairs(p)
                if not any(p.less(a, c) and p.less(c, b) for c in p.elements)
            ]
            assert sorted(p.covers()) == sorted(brute)

    def test_poset_json_round_trip(self):
        p = crown(3)
        assert FinitePoset.from_json(p.to_json()) == p

    def test_structure_json_round_trip(self):
        p = antichain(2, ("a", "b"))
        t = RealizerTuple([LinearOrder(("a", "b")), LinearOrder(("b", "a"))])
        s = OrderedStructure(p, t)
        assert OrderedStructure.from_json(s.to_json()) == s

    @pytest.mark.parametrize(
        "elements",
        ["ab", [1, "b"], [None, "b"], ("a", "b"), {"a": 0, "b": 1}],
    )
    def test_json_labels_must_be_a_list_of_strings(self, elements):
        with pytest.raises(TypeError):
            FinitePoset.from_json(
                {"elements": elements, "lt": [[False, False], [False, False]]}
            )

    @pytest.mark.parametrize("cell", [2, 1.5, "x", None, 0, 1, [True]])
    @pytest.mark.parametrize("where", [(0, 1), (1, 1)])
    def test_json_cells_must_be_booleans(self, cell, where):
        lt = [[False, False], [False, False]]
        lt[where[0]][where[1]] = cell
        with pytest.raises(TypeError):
            FinitePoset.from_json({"elements": ["a", "b"], "lt": lt})

    @pytest.mark.parametrize("orders", ["ab", ["ab", "ba"], [["a", 1], ["b", "a"]]])
    def test_json_orders_must_be_lists_of_strings(self, orders):
        payload = antichain(2, ("a", "b")).to_json()
        payload["orders"] = orders
        with pytest.raises(TypeError):
            OrderedStructure.from_json(payload)

    @pytest.mark.parametrize(
        "cls, payload, detail",
        [
            (FinitePoset, {"dim": 2, "points": []}, "has no 'elements' field"),
            (FinitePoset, {"elements": ["a"]}, "has no 'lt' field"),
            (OrderedStructure, {"dim": 2, "points": []}, "has no 'elements' field"),
            (OrderedStructure, crown(2).to_json(), "has no 'orders' field"),
        ]
        + [
            (cls, payload, "is not a JSON object")
            for cls in (FinitePoset, OrderedStructure)
            for payload in ([], "x")
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else None,
    )
    def test_json_payload_of_another_kind_is_a_type_error(self, cls, payload, detail):
        with pytest.raises(TypeError, match=f"^the payload {detail}$"):
            cls.from_json(payload)

    def test_json_checks_keep_shape_and_axiom_errors(self):
        with pytest.raises(ElementMismatch):
            FinitePoset.from_json({"elements": ["a", "b"], "lt": [[False]]})
        with pytest.raises(ReflexiveViolation):
            FinitePoset.from_json(
                {"elements": ["a", "b"], "lt": [[False, False], [False, True]]}
            )
