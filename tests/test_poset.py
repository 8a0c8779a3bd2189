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
    NotLinear,
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
    hiraguchi_bound,
    is_realizer,
    _intersection_rows,
    _meet_rows,
    lex_order,
    product_order,
    szpilrajn_extend,
    tuple_label,
    validate_poset,
)
from orderdim.ramsey import GridStruct

from conftest import (
    all_posets_on,
    less_pairs,
    naive_is_realizer,
    oracle_intersection_rows,
    oracle_point_structure,
    oracle_product_rows,
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


class TestProductOrder:
    def test_two_two_chains_make_grid(self):
        p = product_order([chain(2, ("1", "2"))] * 2)
        assert p.elements == ("(1,1)", "(1,2)", "(2,1)", "(2,2)")
        assert less_pairs(p) == {
            ("(1,1)", "(1,2)"),
            ("(1,1)", "(2,1)"),
            ("(1,1)", "(2,2)"),
            ("(1,2)", "(2,2)"),
            ("(2,1)", "(2,2)"),
        }

    def test_three_chain_squared_size(self):
        p = product_order([chain(3, ("1", "2", "3"))] * 2)
        assert len(p) == 9
        assert validate_poset(p.elements, p.lt) == p

    def test_one_chain_factor_is_identity(self):
        q = crown(2)
        p = product_order([chain(1, ("u",)), q])
        assert np.array_equal(p.lt, q.lt)

    def test_empty_factor_list_rejected(self):
        with pytest.raises(TooSmall):
            product_order([])

    def test_labels_with_commas_stay_distinct(self):
        # joined unescaped, ("a", "b,c") and ("a,b", "c") both read "(a,b,c)"
        p = product_order([antichain(2, ["a", "a,b"]), antichain(2, ["b,c", "c"])])
        assert len(set(p.elements)) == len(p) == 4
        assert p.elements == ("(a,b\\,c)", "(a,c)", "(a\\,b,b\\,c)", "(a\\,b,c)")

    @given(
        st.lists(
            st.lists(st.text("ab,()\\", max_size=4), min_size=1, max_size=3, unique=True),
            min_size=1,
            max_size=3,
        )
    )
    def test_labels_of_distinct_tuples_are_distinct(self, factors):
        tuples = list(iter_product(*factors))
        assert len({tuple_label(t) for t in tuples}) == len(tuples)
        p = product_order([antichain(len(f), f) for f in factors])
        assert p.elements == tuple(tuple_label(t) for t in tuples)

    @given(st.integers(0, 2**32), st.integers(1, 3))
    def test_random_factors_match_the_pairwise_oracle(self, seed, count):
        # General posets, and chains whose order does not follow element
        # index, where the lowest-indexed value above v need not cover v.
        rng = random.Random(seed)
        factors = []
        for _ in range(count):
            k = rng.randint(1, 5)
            if rng.random() < 0.5:
                factors.append(random_poset(rng, k))
            else:
                perm = rng.sample(range(k), k)
                rows = [0] * k
                for a in range(k):
                    for b in range(a + 1, k):
                        rows[perm[a]] |= 1 << perm[b]
                factors.append(FinitePoset.from_rows([f"y{v}" for v in range(k)], rows))
        assert list(product_order(factors).up) == oracle_product_rows(factors)


class TestLexOrder:
    def test_standard_lexicographic(self):
        two = chain(2, ("1", "2"))
        o = lex_order([two, two], 1)
        assert o.order == ("(1,1)", "(1,2)", "(2,1)", "(2,2)")

    def test_colexicographic(self):
        two = chain(2, ("1", "2"))
        o = lex_order([two, two], 2)
        assert o.order == ("(1,1)", "(2,1)", "(1,2)", "(2,2)")

    def test_cyclic_priority_against_brute_comparator(self):
        two = chain(2, ("1", "2"))
        o = lex_order([two, two, two], 2)
        # priority 2, 3, 1: sort tuples by (t[1], t[2], t[0])
        expect = sorted(
            iter_product("12", repeat=3), key=lambda t: (t[1], t[2], t[0])
        )
        assert o.order == tuple(tuple_label(t) for t in expect)

    def test_non_chain_rejected(self):
        with pytest.raises(NotLinear):
            lex_order([antichain(2), chain(2)], 1)

    def test_lex_orders_realize_product_of_chains(self):
        # exhaustive over chain lengths <= 3 and n <= 3
        for n in (1, 2, 3):
            for lengths in iter_product((1, 2, 3), repeat=n):
                factors = [
                    chain(l, tuple(f"{c}" for c in range(1, l + 1))) for l in lengths
                ]
                p = product_order(factors)
                t = RealizerTuple([lex_order(factors, i) for i in range(1, n + 1)])
                assert is_realizer(p, t)

    def test_lex_implies_weak_coordinate_inequality(self):
        three = chain(3, ("1", "2", "3"))
        factors = [three, three, three]
        for i in (1, 2, 3):
            o = lex_order(factors, i)
            tuples = {lab: lab.strip("()").split(",") for lab in o.order}
            for a in o.order:
                for b in o.order:
                    if o.before(a, b):
                        assert tuples[a][i - 1] <= tuples[b][i - 1]


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
    g = GridStruct(m, n)
    return _built(g.structure), _expected([g.label(p) for p in g.points], list(g.points))


def _factors_case(seed: int) -> tuple[tuple, tuple]:
    """product_order over random posets that are not chains."""
    rng = random.Random(seed)
    count = rng.randint(2, 3)
    ps = []
    while len(ps) < count:
        p = random_poset(rng, rng.randint(2, 4))
        if not p.is_chain():
            ps.append(p)
    p = product_order(ps)
    labels = [tuple_label(t) for t in iter_product(*[q.elements for q in ps])]
    return (list(p.elements), list(p.up), []), (labels, oracle_product_rows(ps), [])


def _chains_case(seed: int) -> tuple[tuple, tuple]:
    """product_order and every lex_order over chains whose elements are
    not listed bottom to top."""
    rng = random.Random(seed)
    labels = [f"y{v}" for v in range(5)]
    seqs = [rng.sample(labels, rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
    chains = [chain(len(seq), seq) for seq in seqs]
    tuples = list(iter_product(*[c.elements for c in chains]))
    ranks = [tuple(seq.index(x) for seq, x in zip(seqs, t)) for t in tuples]
    p = product_order(chains)
    orders = [list(lex_order(chains, i).order) for i in range(1, len(chains) + 1)]
    expected = _expected([tuple_label(t) for t in tuples], ranks)
    return (list(p.elements), list(p.up), orders), expected


PRODUCT_CASES = {
    "sample_dn-2d": lambda: _cloud_case(sample_dn(2, 200, seed=1)),
    "sample_dn-3d": lambda: _cloud_case(sample_dn(3, 100, seed=2)),
    "sample_dn-4d": lambda: _cloud_case(sample_dn(4, 60, seed=3)),
    "symmetric-2d": lambda: _cloud_case(symmetric_sample(2, 40, seed=4)),
    "symmetric-3d-relaxed": lambda: _cloud_case(symmetric_sample(3, 24, seed=5)),
    "relaxed-2d": lambda: _cloud_case(_relaxed_cloud(2, 12, seed=6)),
    "relaxed-3d": lambda: _cloud_case(_relaxed_cloud(3, 40, seed=7)),
    "grid-7^1": lambda: _grid_case(7, 1),
    "grid-6^2": lambda: _grid_case(6, 2),
    "grid-4^3": lambda: _grid_case(4, 3),
    **{f"factors-{seed}": lambda seed=seed: _factors_case(seed) for seed in range(4)},
    **{f"chains-{seed}": lambda seed=seed: _chains_case(seed) for seed in range(4)},
}


class TestProductBuilderAgainstOracle:
    """Labels, rows and every order of the one product builder's callers
    against pairwise product comparison and tuple sorts."""

    @pytest.mark.parametrize("case", list(PRODUCT_CASES))
    def test_matches_pairwise_oracle(self, case):
        built, expected = PRODUCT_CASES[case]()
        assert built == expected


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

    def test_json_checks_keep_shape_and_axiom_errors(self):
        with pytest.raises(ElementMismatch):
            FinitePoset.from_json({"elements": ["a", "b"], "lt": [[False]]})
        with pytest.raises(ReflexiveViolation):
            FinitePoset.from_json(
                {"elements": ["a", "b"], "lt": [[False, False], [False, True]]}
            )
