"""Dimension search against brute-force oracles.

The naive oracle below ignores the critical-pair reduction entirely: a
tuple realizes the poset iff every incomparable ordered pair is reversed
in some member, checked over all index multisets of the extension stream.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, strategies as st

from orderdim.errors import LimitExceeded, NotARealizer, SelfCheckFailed
from orderdim.poset import (
    FinitePoset,
    LinearOrder,
    RealizerTuple,
    antichain,
    chain,
    crown,
    hiraguchi_bound,
    is_realizer,
)
from orderdim.budget import BudgetMeter
from orderdim.dimension import (
    _RealizerSearch,
    _checked,
    _critical_indices,
    _extensions,
    all_linear_extensions,
    critical_pairs,
    dimension,
    find_realizers,
    ore_embedding,
)

from conftest import (
    all_posets_on,
    CoverSearch,
    naive_critical_pairs,
    naive_is_realizer,
    naive_two_colourable,
    naturally_labelled_posets,
    oracle_colour,
    oracle_conflict_order,
    oracle_dimension,
    oracle_first_extension,
    oracle_least_classes,
    random_poset,
    random_poset_shuffled,
    random_relation,
    random_structure,
)

# frozen from a brute-force permutation filter over all |P|! orders
CROWN_EXTENSION_COUNTS = {2: 6, 3: 48, 4: 720}
# sha256 prefix of [[dim, witness], ...] for the 20 posets of
# TestTwentyEightElements, frozen from the search as it stood before the
# greedy last slot, the carried one-class closure and the odd-cycle prune
WITNESS_DIGEST_28 = "17bda5d72c82313a"


def naive_dimension(p, max_n=4):
    """Smallest multiset of extensions reversing every incomparable pair."""
    exts = list(all_linear_extensions(p))
    inc = [
        (a, b)
        for a in p.elements
        for b in p.elements
        if a != b and p.incomparable(a, b)
    ]
    masks = []
    for e in exts:
        mask = 0
        for c, (a, b) in enumerate(inc):
            if e.rank[b] < e.rank[a]:
                mask |= 1 << c
        masks.append(mask)
    full = (1 << len(inc)) - 1
    for n in range(1, max_n + 1):
        for combo in combinations_with_replacement(range(len(exts)), n):
            got = 0
            for i in combo:
                got |= masks[i]
            if got == full:
                t = RealizerTuple([exts[i] for i in combo])
                assert naive_is_realizer(p, t)
                return n
    raise AssertionError(f"dimension exceeds {max_n}")


class TestExtensionStream:
    def test_two_antichain(self):
        assert sum(1 for _ in all_linear_extensions(antichain(2))) == 2

    def test_three_chain_rigid(self):
        exts = list(all_linear_extensions(chain(3)))
        assert len(exts) == 1
        assert exts[0].order == ("c1", "c2", "c3")

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_crown_counts_frozen(self, n):
        got = sum(1 for _ in all_linear_extensions(crown(n)))
        assert got == CROWN_EXTENSION_COUNTS[n]

    def test_stream_is_deterministic_and_duplicate_free(self):
        a = [e.order for e in all_linear_extensions(crown(3))]
        b = [e.order for e in all_linear_extensions(crown(3))]
        assert a == b
        assert len(set(a)) == len(a)

    @given(st.integers(0, 5_000), st.integers(2, 6))
    def test_every_yield_extends_the_poset(self, seed, m):
        p = random_poset(random.Random(seed), m)
        for ext in all_linear_extensions(p):
            for a, b in p.lt_pairs():
                assert ext.rank[a] < ext.rank[b]

    @given(st.integers(0, 5_000), st.integers(1, 6))
    def test_index_stream_matches_a_permutation_filter(self, seed, m):
        # any relation, closed or not, cyclic or reflexive or not: the
        # sequences are the permutations, in lexicographic order, that put
        # every i before j whenever i is related to j
        _labels, mat = random_relation(random.Random(seed), m)
        down = [sum(1 << i for i in range(m) if mat[i][j]) for j in range(m)]
        want = []
        for seq in permutations(range(m)):
            pos = {x: k for k, x in enumerate(seq)}
            if all(pos[i] < pos[j] for i in range(m) for j in range(m) if mat[i][j]):
                want.append(seq)
        assert list(_extensions(down, BudgetMeter(10**6, "test"))) == want

    def test_element_cap(self):
        # No size cap: the budget bounds the walk, one tick per extension,
        # so a chain of any length has its one extension, and the 11! of
        # an 11-antichain run out of an explicit budget.
        assert [o.order for o in all_linear_extensions(chain(11))] == [chain(11).elements]
        with pytest.raises(LimitExceeded, match="^linear extension enumeration: "):
            list(all_linear_extensions(antichain(11), budget=10_000))

    def test_budget_cap(self):
        with pytest.raises(LimitExceeded):
            list(all_linear_extensions(antichain(7), budget=100))

    def test_env_budget_override(self, monkeypatch):
        monkeypatch.setenv("ORDERDIM_BUDGET", "10")
        with pytest.raises(LimitExceeded):
            list(all_linear_extensions(antichain(4)))
        monkeypatch.setenv("ORDERDIM_BUDGET", "not-a-number")
        with pytest.raises(ValueError):
            list(all_linear_extensions(antichain(4)))


class TestCriticalPairs:
    def test_crown_criticals_are_the_matched_pairs(self):
        assert critical_pairs(crown(3)) == [
            ("a1", "b1"),
            ("a2", "b2"),
            ("a3", "b3"),
        ]

    def test_chain_has_none(self):
        assert critical_pairs(chain(4)) == []

    def test_antichain_has_all_ordered_pairs(self):
        got = critical_pairs(antichain(3))
        assert len(got) == 6


class TestFindRealizers:
    def test_chain_single_order(self):
        t = find_realizers(chain(3), 1)
        assert t is not None and t.orders[0].order == ("c1", "c2", "c3")

    def test_crown3_needs_three(self):
        assert find_realizers(crown(3), 2) is None
        t = find_realizers(crown(3), 3)
        assert t is not None
        assert is_realizer(crown(3), t)
        assert naive_is_realizer(crown(3), t)

    def test_lexicographically_first_witness(self):
        t = find_realizers(antichain(2, ("a", "b")), 2)
        assert [o.order for o in t.orders] == [("a", "b"), ("b", "a")]

    @given(st.integers(0, 5_000), st.integers(2, 6))
    def test_padding_monotonicity(self, seed, m):
        p = random_poset(random.Random(seed), m)
        d = dimension(p).dim
        assert find_realizers(p, d) is not None
        assert find_realizers(p, d + 1) is not None


class TestDimension:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_crown_dimension_is_n(self, n):
        assert dimension(crown(n)).dim == n

    def test_chain_dimension_one(self):
        assert dimension(chain(5)).dim == 1

    def test_two_antichain(self):
        assert dimension(antichain(2)).dim == 2

    def test_dim_one_iff_chain_exhaustive(self):
        for m in (1, 2, 3, 4):
            labels = tuple(f"e{i}" for i in range(m))
            for p in all_posets_on(labels):
                assert (dimension(p).dim == 1) == p.is_chain()

    def test_hiraguchi_bound_random(self):
        rng = random.Random(12)
        for _ in range(100):
            m = rng.randint(4, 8)
            p = random_poset(rng, m)
            assert dimension(p).dim <= hiraguchi_bound(p)

    def test_agreement_with_naive_oracle_exhaustive_small(self):
        for m in (1, 2, 3, 4):
            labels = tuple(f"e{i}" for i in range(m))
            for p in all_posets_on(labels):
                assert dimension(p).dim == naive_dimension(p)

    def test_agreement_with_naive_oracle_random(self):
        rng = random.Random(99)
        for _ in range(60):
            p = random_poset(rng, rng.randint(5, 6))
            assert dimension(p).dim == naive_dimension(p)

    def test_agreement_on_crown3(self):
        assert dimension(crown(3)).dim == naive_dimension(crown(3))

    def test_witness_deterministic(self):
        a = dimension(crown(3)).witness
        b = dimension(crown(3)).witness
        assert a == b


class TestOreEmbedding:
    def test_chain_into_itself(self):
        p = chain(2, ("a", "b"))
        t = RealizerTuple([LinearOrder(("a", "b"))])
        assert ore_embedding(p, t) == {"a": (1,), "b": (2,)}

    def test_two_antichain_rank_coordinates(self):
        p = antichain(2, ("a", "b"))
        t = RealizerTuple([LinearOrder(("a", "b")), LinearOrder(("b", "a"))])
        assert ore_embedding(p, t) == {"a": (1, 2), "b": (2, 1)}

    def test_crown3_six_points_in_cube(self):
        p = crown(3)
        t = dimension(p).witness
        img = ore_embedding(p, t)
        assert len(img) == 6
        for coords in img.values():
            assert all(1 <= c <= 6 for c in coords)
        # projections recover each witness order
        for axis, o in enumerate(t.orders):
            by_axis = sorted(p.elements, key=lambda e: img[e][axis])
            assert tuple(by_axis) == o.order

    def test_rejects_non_realizer(self):
        from orderdim.errors import NotARealizer

        p = antichain(2, ("a", "b"))
        t = RealizerTuple([LinearOrder(("a", "b")), LinearOrder(("a", "b"))])
        with pytest.raises(NotARealizer):
            ore_embedding(p, t)


def assert_matches_cover_search(p):
    """dimension() and find_realizers(p, n), n = d .. d + 2, return the
    witnesses of the enumerate-and-cover oracle."""
    oracle = CoverSearch(p)
    d, first = oracle.dimension()
    res = dimension(p)
    assert res.dim == d
    assert res.witness == first
    for n in (d, d + 1, d + 2):
        got = find_realizers(p, n)
        assert got == oracle.realizers(n)
        assert naive_is_realizer(p, got)
    if d > 1:
        assert find_realizers(p, d - 1) is None


class TestAgainstCoverSearch:
    """The colouring search rebuilds the cover search's witness exactly."""

    # Labels out of index order: a tie broken by label instead of by
    # element index picks a different extension.
    LABELS = ("c", "a", "d", "b")

    def test_critical_pairs_match_naive(self):
        for p in all_posets_on(self.LABELS):
            assert critical_pairs(p) == naive_critical_pairs(p)
        rng = random.Random(7)
        for _ in range(100):
            p = random_poset_shuffled(rng, rng.randint(2, 8))
            assert critical_pairs(p) == naive_critical_pairs(p)

    def test_every_poset_on_four_labels(self):
        for p in all_posets_on(self.LABELS):
            assert_matches_cover_search(p)

    def test_shuffled_random_posets(self):
        rng = random.Random(2024)
        for _ in range(300):
            p = random_poset_shuffled(rng, rng.randint(2, 8))
            assert_matches_cover_search(p)

    def test_shuffled_labels_change_the_witness(self):
        """The stream breaks ties by element index, not by label."""
        p = antichain(2, ("b", "a"))
        t = dimension(p).witness
        assert [o.order for o in t.orders] == [("b", "a"), ("a", "b")]


def _walk_outcome(walk, *args):
    try:
        return walk(*args)
    except SelfCheckFailed:
        return "no extension"


def assert_walks_match_the_splits_walk(p, rng):
    """r = 0 and r = 1 of _first_extension against the walk that asks
    splits() at every candidate, for the whole pair set and random
    subsets of it (some of which no extension reverses)."""
    fast = _RealizerSearch(p, 10**9)
    slow = _RealizerSearch(p, 10**9)
    for unreversed in (fast.full, rng.getrandbits(len(fast.pairs)), rng.getrandbits(len(fast.pairs))):
        for r in (0, 1):
            assert _walk_outcome(fast._first_extension, unreversed, r) == _walk_outcome(
                oracle_first_extension, slow, unreversed, r
            )


def assert_colours_like_the_loop(p, rng):
    """_colour, on the shared kernel, against conftest.oracle_colour: the
    same verdict and the same steps for t = 1..4, on the whole pair set
    and on random subsets of it."""
    fast = _RealizerSearch(p, 10**9)
    slow = _RealizerSearch(p, 10**9)
    for mask in (fast.full, rng.getrandbits(len(fast.pairs)), rng.getrandbits(len(fast.pairs))):
        for t in range(1, 5):
            assert fast._colour(mask, t) == oracle_colour(slow, mask, t)
            assert fast.meter.remaining == slow.meter.remaining


class TestFastPathsAgainstOracles:
    """The straight last slot, the bit-jumping one-class walk, the packed
    conflict order, the odd-cycle prune, the bit-loop critical pairs and
    the shared colouring kernel against the code they replace."""

    @given(st.integers(0, 2**32), st.integers(2, 10), st.booleans())
    def test_colouring_kernel_matches_the_chronological_loop(self, seed, m, shuffled):
        rng = random.Random(seed)
        p = (random_poset_shuffled if shuffled else random_poset)(rng, m)
        assert_colours_like_the_loop(p, rng)

    @pytest.mark.parametrize("m", range(8, 15))
    def test_colouring_kernel_on_structures_of_three_and_four_orders(self, m):
        # Posets of dimension 3 and 4 make t = 2 and 3 backtrack.
        rng = random.Random(m)
        for n in (3, 4, 3, 4):
            assert_colours_like_the_loop(random_structure(rng, m, n).poset, rng)

    @pytest.mark.parametrize("p", [crown(3), crown(4), crown(5), antichain(6)], ids=repr)
    def test_colouring_kernel_on_fixed_posets(self, p):
        assert_colours_like_the_loop(p, random.Random(len(p)))

    @given(st.integers(0, 2**32), st.integers(1, 10), st.booleans())
    def test_greedy_and_carried_walks_match_the_splits_walk(self, seed, m, shuffled):
        rng = random.Random(seed)
        p = (random_poset_shuffled if shuffled else random_poset)(rng, m)
        assert_walks_match_the_splits_walk(p, rng)

    @pytest.mark.parametrize("m", range(2, 11))
    def test_walks_on_seeded_posets_up_to_ten_elements(self, m):
        rng = random.Random(m)
        for _ in range(20):
            assert_walks_match_the_splits_walk(random_poset(rng, m), rng)
            assert_walks_match_the_splits_walk(random_poset_shuffled(rng, m), rng)

    @given(st.integers(0, 2**32), st.integers(1, 10))
    def test_critical_indices_match_the_definition(self, seed, m):
        p = random_poset_shuffled(random.Random(seed), m)
        e = p.elements
        got = [(e[x], e[y]) for x, y in _critical_indices(p.up, p.down)]
        assert got == naive_critical_pairs(p)

    # (dim, colouring steps, witness steps), from the search before the
    # walks jumped by bits and the last slot ran straight.
    @pytest.mark.parametrize(
        "p, steps",
        [
            (crown(3), (3, 3, 26)),
            (crown(4), (4, 13, 44)),
            (crown(5), (5, 28, 76)),
            (antichain(8), (2, 56, 44)),
            (antichain(16), (2, 240, 152)),
            (chain(10), (1, 0, 10)),
            (
                FinitePoset.from_rows(
                    [f"x{i}" for i in range(10)], [16, 0, 0, 530, 0, 16, 534, 2, 539, 18]
                ),
                (3, 41, 125),
            ),
        ],
        ids=["crown3", "crown4", "crown5", "antichain8", "antichain16", "chain10", "dim3-10"],
    )
    def test_step_counts_are_pinned(self, p, steps):
        search = _RealizerSearch(p, 10**9)
        n = search.least_classes(len(p))
        colouring = 10**9 - search.meter.remaining
        search.witness(n)
        witness = 10**9 - colouring - search.meter.remaining
        assert (n, colouring, witness) == steps

    @pytest.mark.parametrize("p", [antichain(6), crown(3), crown(4), chain(4)], ids=repr)
    def test_walks_on_every_witness_slot(self, p):
        fast = _RealizerSearch(p, 10**9)
        slow = _RealizerSearch(p, 10**9)
        n = slow.least_classes(len(p))
        unreversed = slow.full
        for r in range(n - 1, -1, -1):
            order, reversed_ = oracle_first_extension(slow, unreversed, r)
            if r <= 1:
                assert fast._first_extension(unreversed, r) == (order, reversed_)
            unreversed &= ~reversed_
        assert unreversed == 0

    @given(st.integers(0, 2**32), st.integers(1, 9), st.booleans())
    def test_conflict_order_matches_the_tuple_key(self, seed, m, shuffled):
        rng = random.Random(seed)
        p = (random_poset_shuffled if shuffled else random_poset)(rng, m)
        search = _RealizerSearch(p, None)
        assert (search.conflicts, search._in_order(search.full)) == oracle_conflict_order(search)

    @pytest.mark.parametrize("p", [antichain(8), crown(3), crown(5)], ids=repr)
    def test_conflict_order_on_fixed_posets(self, p):
        search = _RealizerSearch(p, None)
        assert (search.conflicts, search._in_order(search.full)) == oracle_conflict_order(search)

    @given(st.integers(0, 2**32), st.integers(2, 8))
    def test_odd_cycle_prune_agrees_with_colouring(self, seed, m):
        rng = random.Random(seed)
        search = _RealizerSearch(random_poset_shuffled(rng, m), 10**9)
        for mask in (search.full, rng.getrandbits(len(search.pairs))):
            bipartite = search._bipartite(mask)
            assert bipartite == naive_two_colourable(search, mask)
            if not bipartite:
                assert not search._colour(mask, 2)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_odd_cycle_prune_on_crowns(self, n):
        # Crowns of dimension 3 and more carry odd conflict cycles that
        # random posets this small almost never do.
        search = _RealizerSearch(crown(n), 10**9)
        assert not search._bipartite(search.full)
        assert search.splits(search.full, 2) is False
        rng = random.Random(n)
        for _ in range(30):
            mask = rng.getrandbits(len(search.pairs))
            bipartite = search._bipartite(mask)
            assert bipartite == naive_two_colourable(search, mask)
            if not bipartite:
                assert not search._colour(mask, 2)


def assert_decides_like_the_colouring(p):
    """least_classes and dimension() agree with the path that coloured
    t = 1 and t = 2; a call of dimension <= 2 never builds the order.
    dimension() gets the oracle's budget: this checks the decision, and
    some posets of dimension 3 need more witness steps than the default."""
    search = _RealizerSearch(p, 10**9)
    n = search.least_classes(len(p))
    assert n == oracle_least_classes(_RealizerSearch(p, 10**9), len(p))
    res = dimension(p, budget=10**9)
    assert (res.dim, res.witness) == oracle_dimension(p)
    search.witness(n)
    if n <= 2:
        assert search.order is None
    else:
        assert search.order == oracle_conflict_order(search)[1]
    return n


class TestTwoClassDecision:
    """No pairs decides one class, and an odd-cycle-free conflict graph
    two, against the join and the colouring they replace."""

    # Naturally labelled posets on m elements, one per labelled order
    # whose relation follows index order: OEIS A006455.
    COUNTS = {1: 1, 2: 2, 3: 7, 4: 40, 5: 357, 6: 4824}

    @pytest.mark.parametrize("m", sorted(COUNTS))
    def test_every_naturally_labelled_poset(self, m):
        dims = [assert_decides_like_the_colouring(p) for p in naturally_labelled_posets(m)]
        assert len(dims) == self.COUNTS[m]
        if m == 6:
            assert max(dims) == 3

    # At 10-16 elements about a third of these have dimension 3 or more.
    @given(st.integers(0, 2**32), st.integers(10, 16), st.integers(3, 4))
    def test_random_structures_with_three_or_four_orders(self, seed, m, n):
        rng = random.Random(seed)
        assert_decides_like_the_colouring(random_structure(rng, m, n).poset)

    @pytest.mark.parametrize("p", [chain(4), antichain(8), crown(3), crown(4)], ids=repr)
    def test_fixed_posets(self, p):
        assert_decides_like_the_colouring(p)

    @pytest.mark.xfail(strict=True, raises=LimitExceeded)
    def test_sixteen_elements_of_dimension_three_at_the_default_budget(self):
        # random_structure(Random(1_000_000), 16, 3): 180 colouring steps,
        # then 3,988,072 witness steps, about four times the default
        # budget, nearly all in the slot with two classes to go, which
        # colours each candidate's pairs anew (ROADMAP item 4).
        p = random_structure(random.Random(1_000_000), 16, 3).poset
        assert dimension(p).dim == 3

    def test_odd_cycle_test_alone_does_not_decide_subsets(self):
        # Seven critical pairs of a 12-element poset of dimension 3 whose
        # conflicts close no odd cycle, yet no two reversible classes
        # hold them: the witness phase must keep colouring its subsets.
        up = (3202, 128, 2688, 0, 2568, 3787, 136, 0, 128, 2048, 2048, 0)
        p = FinitePoset.from_rows([f"x{i}" for i in range(12)], up)
        search = _RealizerSearch(p, 10**9)
        subset = [(0, 9), (1, 11), (2, 1), (2, 3), (4, 10), (5, 2), (10, 7)]
        mask = sum(1 << search.pairs.index(pair) for pair in subset)
        assert search._bipartite(mask)
        assert not search._colour(mask, 2)
        assert not search.splits(mask, 2)
        assert dimension(p).dim == 3

    def test_find_realizers_below_two(self):
        # A limit of 1 decides from the pair count alone.
        search = _RealizerSearch(antichain(3), 10**9)
        assert search.least_classes(1) is None
        assert search.meter.remaining == 10**9
        assert find_realizers(chain(3), 1) is not None


class TestTwentyEightElements:
    def test_seeded_set_finishes_with_frozen_witnesses(self):
        # 20 posets from random_poset with random.Random(28); the digest
        # was taken from the search before the carried class, the greedy
        # last slot and the odd-cycle prune, under the default budget.
        rng = random.Random(28)
        out = []
        for _ in range(20):
            res = dimension(random_poset(rng, 28))
            out.append([res.dim, res.witness.to_json()])
        digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()[:16]
        assert digest == WITNESS_DIGEST_28


class TestNoElementCap:
    def test_antichain16(self):
        p = antichain(16)
        res = dimension(p)
        assert res.dim == 2
        assert naive_is_realizer(p, res.witness)

    def test_crown6(self):
        p = crown(6)
        res = dimension(p)
        assert res.dim == 6
        assert naive_is_realizer(p, res.witness)

    def test_find_realizers_past_cap(self):
        p = antichain(12)
        assert find_realizers(p, 1) is None
        t = find_realizers(p, 3)
        assert t is not None and naive_is_realizer(p, t)

    def test_budget_probe_antichain10(self):
        assert dimension(antichain(10), budget=20_000).dim == 2


class TestSearchBudget:
    def test_tiny_budget_names_colouring(self):
        with pytest.raises(LimitExceeded, match="critical-pair colouring"):
            dimension(crown(6), budget=5)

    def test_tiny_budget_find_realizers(self):
        with pytest.raises(LimitExceeded):
            find_realizers(crown(6), 6, budget=5)

    def test_one_meter_spans_both_phases(self):
        # antichain(16) takes 240 colouring steps, one per critical pair,
        # and 152 witness steps: 16 candidates and 120 carried pairs in the
        # first slot, 16 picks in the greedy last one.  300 covers either
        # phase alone, not both.
        search = _RealizerSearch(antichain(16), 300)
        assert search.least_classes(16) == 2
        assert search.meter.remaining == 300 - 240
        search.meter = BudgetMeter(300, "fresh meter")
        assert len(search.witness(2)) == 2
        assert search.meter.remaining == 300 - 152
        with pytest.raises(LimitExceeded, match="witness search"):
            dimension(antichain(16), budget=300)

    def test_env_budget_honoured(self, monkeypatch):
        monkeypatch.setenv("ORDERDIM_BUDGET", "5")
        with pytest.raises(LimitExceeded):
            dimension(crown(6))
        with pytest.raises(LimitExceeded):
            find_realizers(crown(6), 6)


class TestSelfChecks:
    # _checked tests the search's index sequences with poset._meet_rows;
    # a stand-in returning the rows of an antichain fails it on crown(3).
    def test_failed_witness_check_is_typed(self, monkeypatch):
        dim_mod = sys.modules["orderdim.dimension"]
        monkeypatch.setattr(dim_mod, "_meet_rows", lambda seqs, m: [0] * m)
        with pytest.raises(NotARealizer):
            dimension(crown(3))
        with pytest.raises(NotARealizer):
            find_realizers(crown(3), 3)

    def test_sequences_that_are_not_permutations_fail(self):
        p = crown(3)
        search = _RealizerSearch(p, None)
        orders = search.witness(search.least_classes(len(p)))
        assert _checked(p, orders) == dimension(p).witness
        repeated = [o[:] for o in orders]
        repeated[0][0] = repeated[0][1]
        for bad in (repeated, [o[:-1] for o in orders], [o + [6] for o in orders]):
            with pytest.raises(NotARealizer):
                _checked(p, bad)

    # The cross-check compares the product order on the rank points with
    # p; rank points placed the wrong way up fail it.
    def test_failed_ore_cross_check_is_typed(self, monkeypatch):
        p = chain(2, ("a", "b"))
        t = RealizerTuple([LinearOrder(("a", "b"))])
        monkeypatch.setattr(RealizerTuple, "rank_points", lambda self, elements: [(2,), (1,)])
        with pytest.raises(SelfCheckFailed):
            ore_embedding(p, t)

    def test_checks_run_under_optimize(self):
        script = (
            "import sys\n"
            "from orderdim.poset import crown\n"
            "d = sys.modules['orderdim.dimension']\n"
            "d._meet_rows = lambda seqs, m: [0] * m\n"
            "try:\n"
            "    d.dimension(crown(3))\n"
            "except d.NotARealizer:\n"
            "    print('typed')\n"
        )
        import orderdim

        src = os.path.dirname(os.path.dirname(orderdim.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "typed"
