"""Dimension search against brute-force oracles.

The naive oracle below ignores the critical-pair reduction entirely: a
tuple realizes the poset iff every incomparable ordered pair is reversed
in some member, checked over all index multisets of the extension stream.
"""

from __future__ import annotations

import functools
import hashlib
import json
import operator
import os
import random
import subprocess
import sys
from itertools import combinations_with_replacement, islice, permutations

import pytest
from hypothesis import given, strategies as st

from orderdim.errors import LimitExceeded, NotARealizer, SelfCheckFailed
from orderdim.poset import (
    FinitePoset,
    RealizerTuple,
    _bits,
    _colour_classes,
    _extensions,
    _reverse,
    antichain,
    chain,
    crown,
    grid,
    hiraguchi_bound,
    is_realizer,
)
from orderdim.budget import BudgetMeter
from orderdim.dimension import (
    _RealizerSearch,
    _checked,
    _critical_indices,
    all_linear_extensions,
    critical_pairs,
    dimension,
    find_realizers,
)

from conftest import (
    all_posets_on,
    CoverSearch,
    generalised_crown,
    is_chain,
    less_pairs,
    naive_critical_pairs,
    naive_is_realizer,
    naive_two_colourable,
    naturally_labelled_posets,
    oracle_class_extension,
    oracle_colour,
    oracle_conflict_order,
    oracle_extensions,
    oracle_first_witness,
    oracle_least_classes,
    random_poset,
    random_poset_shuffled,
    random_relation,
    random_structure,
    reverse_pair,
)

# frozen from a brute-force permutation filter over all |P|! orders
CROWN_EXTENSION_COUNTS = {2: 6, 3: 48, 4: 720}
# sha256 prefix of [[dim, witness], ...] for the 20 posets of
# TestTwentyEightElements, frozen when the witness came to be one extension
# per colour class; the dims are those of the lexicographically first
# witness search before it
WITNESS_DIGEST_28 = "7f8c671ec55187d5"
# sha256 prefix of [[dim, colouring steps, witness steps], ...] for the 280
# posets of test_step_counts_on_seeded_posets, frozen when the witness came
# to be one extension per colour class; the dims and colouring steps are
# those of the search when it charged the meter one step at a time
STEP_DIGEST_280 = "04d5a2ea430b33ba"


def drain(walk, down, budget):
    """The sequences an extension walk yields on a fresh meter of the given
    budget, and whether it ran out before the stream ended."""
    out = []
    try:
        for seq in walk(down, BudgetMeter(budget, "test")):
            out.append(seq)
    except LimitExceeded:
        return out, True
    return out, False


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
            for a, b in less_pairs(p):
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

    def test_stream_matches_the_index_walk_on_random_relations(self):
        # 5,000 relations of 1-9 elements, closed or not, cyclic or not,
        # each under a budget of 1-60 steps: the same sequences in the same
        # order, and LimitExceeded at the same one, as conftest's walk.
        rng = random.Random(17)
        outcomes = {"empty": 0, "ran out": 0, "finished": 0}
        for _ in range(5_000):
            m = rng.randint(1, 9)
            _labels, mat = random_relation(rng, m)
            down = [sum(1 << i for i in range(m) if mat[i][j]) for j in range(m)]
            budget = rng.randint(1, 60)
            got = drain(_extensions, down, budget)
            assert got == drain(oracle_extensions, down, budget)
            outcomes["ran out" if got[1] else "finished" if got[0] else "empty"] += 1
        assert min(outcomes.values()) > 500, outcomes

    @pytest.mark.parametrize("m, count", [(8, 4_108), (16, 2_994)])
    def test_stream_matches_the_index_walk_on_grids(self, m, count):
        # The extensions of the m x m grid that 20,000 placements reach,
        # where the index walk rescans every placed element at each step.
        down = grid(m, 2).poset.down
        got = drain(_extensions, down, 20_000)
        assert got[1] and len(got[0]) == count
        assert got == drain(oracle_extensions, down, 20_000)

    def test_each_tick_is_the_placements_since_the_last_extension(self):
        # An extension that shares its first d elements with the one
        # before has placed the other m - d anew; the first places all m.
        # The stream's ticks are exactly those counts, on every 1-7
        # element poset drawn here and on the first extensions of grids.
        class Costs:
            def __init__(self):
                self.paid = []

            def tick(self, cost=1):
                self.paid.append(cost)

        rng = random.Random(5)
        downs = [random_poset(rng, rng.randint(1, 7)).down for _ in range(300)]
        downs += [grid(m, n).poset.down for m, n in ((3, 2), (2, 3), (4, 3))]
        for down in downs:
            meter = Costs()
            seqs = list(islice(_extensions(down, meter), 2_000))
            m = len(down)
            want = [m] + [
                m - next(d for d in range(m) if a[d] != b[d]) for a, b in zip(seqs, seqs[1:])
            ]
            assert meter.paid == want

    def test_element_cap(self):
        # No size cap: the budget bounds the walk, one step per element
        # placed, so a chain of any length has its one extension, and the
        # 11! of an 11-antichain run out of an explicit budget.
        assert [o.order for o in all_linear_extensions(chain(11))] == [chain(11).elements]
        with pytest.raises(LimitExceeded, match="^linear extension enumeration: "):
            list(all_linear_extensions(antichain(11), budget=10_000))

    def test_budget_cap(self):
        with pytest.raises(LimitExceeded):
            list(all_linear_extensions(antichain(7), budget=100))

    @pytest.mark.parametrize("m", [1, 4, 11])
    def test_the_first_extension_costs_every_element(self, m):
        # A chain's one extension places all m elements: m steps, not one.
        assert len(list(all_linear_extensions(chain(m), budget=m))) == 1
        if m > 1:
            with pytest.raises(LimitExceeded, match="^linear extension enumeration: "):
                list(all_linear_extensions(chain(m), budget=m - 1))

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

    def test_witness_orders_come_in_stream_order(self):
        t = find_realizers(antichain(2, ("a", "b")), 2)
        assert [o.order for o in t.orders] == [("a", "b"), ("b", "a")]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_padding_repeats_the_last_order(self, n):
        # crown(3) has three classes; past three orders the last class's
        # extension repeats.
        t = find_realizers(crown(3), n)
        assert t.orders[:3] == dimension(crown(3)).witness.orders
        assert t.orders[2:] == (t.orders[2],) * (n - 2)

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
                assert (dimension(p).dim == 1) == is_chain(p)

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


def assert_agrees_with_cover_search(p):
    """dimension() finds the enumerate-and-cover oracle's dimension with a
    realizer, find_realizers(p, n) a realizer of n orders for n = d ..
    d + 2 and none for d - 1; the greedy walk rebuilds the oracle's
    lexicographically first witness."""
    oracle = CoverSearch(p)
    d, first = oracle.dimension()
    res = dimension(p)
    assert res.dim == d
    assert naive_is_realizer(p, res.witness)
    assert oracle_first_witness(p, d) == first
    for n in (d, d + 1, d + 2):
        got = find_realizers(p, n)
        assert got.n == n
        assert naive_is_realizer(p, got)
    if d > 1:
        assert find_realizers(p, d - 1) is None


class TestAgainstCoverSearch:
    """The colouring search finds the cover search's dimension, with a
    realizer of its own."""

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
            assert_agrees_with_cover_search(p)

    def test_shuffled_random_posets(self):
        rng = random.Random(2024)
        for _ in range(300):
            p = random_poset_shuffled(rng, rng.randint(2, 8))
            assert_agrees_with_cover_search(p)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_crown_witness_is_the_first_realizer(self, n):
        # Each pair of a crown conflicts with every other, so each gets a
        # class of its own, and their extensions in stream order are the
        # lexicographically first realizer: the bytes `gen crown | dim`
        # prints.  Past crown(5) the cover search lists too many
        # extensions; the greedy walk stands in for it.
        witness = dimension(crown(n)).witness
        assert witness == oracle_first_witness(crown(n), n)
        if n <= 5:
            assert witness == CoverSearch(crown(n)).realizers(n)

    def test_shuffled_labels_change_the_witness(self):
        """The stream breaks ties by element index, not by label."""
        p = antichain(2, ("b", "a"))
        t = dimension(p).witness
        assert [o.order for o in t.orders] == [("b", "a"), ("a", "b")]


def kernel_colour(search, mask: int, t: int) -> list[int] | None:
    """The pairs in mask, in colouring order, put into t classes by the
    shared kernel, `_colour_classes`, on the search's meter, each class
    starting from the reflexive rows of the poset: each pair's class, or
    None.  `_RealizerSearch._colour` runs it on every pair."""
    seq = [c for c in search._conflict_order() if mask >> c & 1]
    flips = [(1 << y, x) for x, y in map(search.pairs.__getitem__, seq)]
    leq = [row | 1 << i for i, row in enumerate(search.up)]
    return _colour_classes(
        len(flips), t, leq, lambda rows, d: _reverse(rows, *flips[d]), search.meter.tick
    )


def assert_colours_like_the_loop(p, rng):
    """The shared kernel against conftest.oracle_colour: the same verdict
    and the same steps for t = 1..4, through _colour on the whole pair set
    and directly on random subsets of it."""
    fast = _RealizerSearch(p, 10**9)
    slow = _RealizerSearch(p, 10**9)
    for t in range(1, 5):
        assert (fast._colour(t) is not None) == oracle_colour(slow, slow.full, t)
        assert fast.meter.remaining == slow.meter.remaining
    for mask in (rng.getrandbits(len(fast.pairs)), rng.getrandbits(len(fast.pairs))):
        for t in range(1, 5):
            assert (kernel_colour(fast, mask, t) is not None) == oracle_colour(slow, mask, t)
            assert fast.meter.remaining == slow.meter.remaining


def assert_split_is_proper(search, t):
    """least_classes kept t classes that partition the pairs, none holding
    two pairs of a 2-cycle."""
    classes = search.classes
    assert len(classes) == t
    assert sum(classes) == search.full == functools.reduce(operator.or_, classes)
    for c, pairs in enumerate(search.conflicts):
        assert all(not (k >> c & 1 and k & pairs) for k in classes)


# Sixteen elements of dimension 3 from random_structure(Random(1_000_000),
# 16, 3); before the witness came from the colouring's classes it took
# 3,988,072 witness steps, about four times the default budget.
SIXTEEN = random_structure(random.Random(1_000_000), 16, 3).poset

# (poset, (dim, colouring steps, witness steps)).  The dims and colouring
# steps are those of the lexicographically first witness search before;
# the witness takes one step per element for each class's extension.
PINNED_STEPS = [
    (crown(3), (3, 3, 18)),
    (crown(4), (4, 13, 32)),
    (crown(5), (5, 28, 50)),
    (antichain(8), (2, 56, 16)),
    (antichain(16), (2, 240, 32)),
    (chain(10), (1, 0, 10)),
    (
        FinitePoset.from_rows(
            [f"x{i}" for i in range(10)], [16, 0, 0, 530, 0, 16, 534, 2, 539, 18]
        ),
        (3, 41, 30),
    ),
    (SIXTEEN, (3, 180, 48)),
]
PINNED_IDS = [
    "crown3", "crown4", "crown5", "antichain8", "antichain16", "chain10", "dim3-10", "dim3-16"
]


class RecordingMeter(BudgetMeter):
    """A meter that keeps each charge and never runs out."""

    def __init__(self):
        super().__init__(10**9, "recorder")
        self.charges: list[int] = []

    def tick(self, cost: int = 1) -> None:
        self.charges.append(cost)


class TestFastPathsAgainstOracles:
    """The class extensions, the packed conflict order, the odd-cycle
    prune, the bit-loop critical pairs and the shared colouring kernel
    against the code they replace."""

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

    @given(st.integers(0, 2**32), st.integers(1, 10))
    def test_critical_indices_match_the_definition(self, seed, m):
        # The pairs, the masks of pairs by x and by y, and each pair
        # (a, b)'s conflicts, the pairs (u, v) with a <= v and u <= b.
        p = random_poset_shuffled(random.Random(seed), m)
        e = p.elements
        want = naive_critical_pairs(p)
        pairs, by_x, by_y = _critical_indices(p.up, p.down)
        assert [(e[x], e[y]) for x, y in pairs] == want
        assert by_x == [sum(1 << c for c, (x, _) in enumerate(want) if x == i) for i in e]
        assert by_y == [sum(1 << c for c, (_, y) in enumerate(want) if y == i) for i in e]
        conflicts = [
            sum(1 << d for d, (u, v) in enumerate(want) if (a == v or p.less(a, v)) and (u == b or p.less(u, b)))
            for a, b in want
        ]
        assert _RealizerSearch(p, None).conflicts == conflicts

    @given(st.integers(0, 2**32), st.integers(2, 10))
    def test_batched_reversal_matches_pair_by_pair(self, seed, m):
        # _reverse adds every lo < hi of a mask in one pass on reflexive
        # rows; reverse_pair adds them one at a time on strict rows.  The
        # class starts from the poset with some critical pairs reversed.
        rng = random.Random(seed)
        search = _RealizerSearch(random_poset_shuffled(rng, m), None)
        strict = list(search.up)
        for x, y in search.pairs:
            if rng.random() < 0.5:
                strict = reverse_pair(strict, y, x) or strict
        hi = rng.randrange(m)
        lows = rng.getrandbits(m) & ~(1 << hi)
        want = strict
        for lo in _bits(lows):
            want = want and reverse_pair(want, lo, hi)
        leq = [row | 1 << i for i, row in enumerate(strict)]
        got = _reverse(leq, lows, hi)
        assert got == (want and [row | 1 << i for i, row in enumerate(want)])

    @pytest.mark.parametrize("p, steps", PINNED_STEPS, ids=PINNED_IDS)
    def test_step_counts_are_pinned(self, p, steps):
        search = _RealizerSearch(p, 10**9)
        n = search.least_classes(len(p))
        colouring = 10**9 - search.meter.remaining
        search.witness(n)
        witness = 10**9 - colouring - search.meter.remaining
        assert (n, colouring, witness) == steps

    def test_step_counts_on_seeded_posets(self):
        # Random posets of 2-10 elements, in index order and shuffled, and
        # structures of three and four orders.  Every witness is one
        # extension per class of a proper split, in stream order.
        rng = random.Random(15)
        posets = [
            make(rng, m) for m in range(2, 11) for _ in range(15)
            for make in (random_poset, random_poset_shuffled)
        ]
        posets += [random_structure(rng, m, n).poset for m in range(8, 13) for n in (3, 4)]
        out = []
        for p in posets:
            search = _RealizerSearch(p, 10**9)
            n = search.least_classes(len(p))
            colouring = 10**9 - search.meter.remaining
            orders = search.witness(n)
            out.append([n, colouring, 10**9 - colouring - search.meter.remaining])
            assert_split_is_proper(search, n)
            assert orders == sorted(oracle_class_extension(search, c) for c in search.classes)
            assert naive_is_realizer(p, _checked(p, orders))
        assert hashlib.sha256(json.dumps(out).encode()).hexdigest()[:16] == STEP_DIGEST_280

    @pytest.mark.parametrize("p, steps", PINNED_STEPS, ids=PINNED_IDS)
    def test_budget_thresholds_of_the_pinned_posets(self, p, steps):
        # The witness search charges each class's extension in one batch;
        # every budget verdict, and the phase it names, is the one
        # step-by-step charging would give.
        _, colouring, witness = steps
        assert dimension(p, budget=colouring + witness).dim == steps[0]
        with pytest.raises(LimitExceeded, match="^witness search"):
            dimension(p, budget=colouring + witness - 1)
        if colouring:
            with pytest.raises(LimitExceeded, match="^witness search"):
                dimension(p, budget=colouring)
        if colouring > 1:
            with pytest.raises(LimitExceeded, match="^critical-pair colouring"):
                dimension(p, budget=colouring - 1)

    @pytest.mark.parametrize("p, steps", PINNED_STEPS, ids=PINNED_IDS)
    def test_witness_charges_once_per_class(self, p, steps):
        # Each class's extension charges one step per element, once its
        # order is complete; a witness padded past the classes charges no
        # more.
        search = _RealizerSearch(p, 10**9)
        n = search.least_classes(len(p))
        search.meter = RecordingMeter()
        search.witness(n + 2)
        assert search.meter.charges == [len(p)] * n
        assert sum(search.meter.charges) == steps[2]

    @given(st.integers(0, 2**32), st.integers(1, 9), st.booleans())
    def test_conflict_order_matches_the_tuple_key(self, seed, m, shuffled):
        rng = random.Random(seed)
        p = (random_poset_shuffled if shuffled else random_poset)(rng, m)
        search = _RealizerSearch(p, None)
        assert (search.conflicts, search._conflict_order()) == oracle_conflict_order(search)

    @pytest.mark.parametrize("p", [antichain(8), crown(3), crown(5)], ids=repr)
    def test_conflict_order_on_fixed_posets(self, p):
        search = _RealizerSearch(p, None)
        assert (search.conflicts, search._conflict_order()) == oracle_conflict_order(search)

    @given(st.integers(0, 2**32), st.integers(2, 8))
    def test_odd_cycle_prune_agrees_with_colouring(self, seed, m):
        rng = random.Random(seed)
        search = _RealizerSearch(random_poset_shuffled(rng, m), 10**9)
        for mask in (search.full, rng.getrandbits(len(search.pairs))):
            bipartite = search._bipartite(mask) is not None
            assert bipartite == naive_two_colourable(search, mask)
            if not bipartite:
                assert not oracle_colour(search, mask, 2)

    @given(st.integers(0, 2**32), st.integers(2, 10), st.booleans())
    def test_two_colouring_is_proper_and_holds_each_lowest_pair(self, seed, m, shuffled):
        # The side _bipartite returns holds the lowest pair of every
        # component of the conflict graph among the mask, and no conflict
        # joins two pairs on one side.
        rng = random.Random(seed)
        search = _RealizerSearch((random_poset_shuffled if shuffled else random_poset)(rng, m), None)
        for mask in (search.full, rng.getrandbits(len(search.pairs))):
            side = search._bipartite(mask)
            if side is None:
                continue
            assert side & ~mask == 0
            for c in _bits(mask):
                same = side if side >> c & 1 else mask & ~side
                assert not search.conflicts[c] & same
                component = 1 << c
                while True:
                    grown = component | functools.reduce(
                        operator.or_, (search.conflicts[d] & mask for d in _bits(component))
                    )
                    if grown == component:
                        break
                    component = grown
                low = component & -component
                assert side & low

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_odd_cycle_prune_on_crowns(self, n):
        # Crowns of dimension 3 and more carry odd conflict cycles that
        # random posets this small almost never do.
        search = _RealizerSearch(crown(n), 10**9)
        assert search._bipartite(search.full) is None
        assert search.least_classes(2) is None
        rng = random.Random(n)
        for _ in range(30):
            mask = rng.getrandbits(len(search.pairs))
            bipartite = search._bipartite(mask) is not None
            assert bipartite == naive_two_colourable(search, mask)
            if not bipartite:
                assert not oracle_colour(search, mask, 2)


def assert_decides_like_the_colouring(p):
    """least_classes and dimension() agree with the path that coloured
    t = 1 and t = 2, the split they keep is proper, and the witness, at
    the default budget, realizes p; the order is built only for a
    colouring, so never for dimension <= 2."""
    search = _RealizerSearch(p, 10**9)
    n = search.least_classes(len(p))
    assert n == oracle_least_classes(_RealizerSearch(p, 10**9), len(p))
    assert_split_is_proper(search, n)
    res = dimension(p)
    assert res.dim == n
    assert naive_is_realizer(p, res.witness)
    if n <= 2:
        assert search.order is None
    elif search.order is not None:
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

    def test_sixteen_elements_of_dimension_three_at_the_default_budget(self):
        # 180 colouring steps, then 48 witness steps, one per element for
        # each of the three classes (PINNED_STEPS).
        res = dimension(SIXTEEN)
        assert res.dim == 3
        assert naive_is_realizer(SIXTEEN, res.witness)

    def test_odd_cycle_test_alone_does_not_decide_subsets(self):
        # Seven critical pairs of a 12-element poset of dimension 3 whose
        # conflicts close no odd cycle, yet no two reversible classes
        # hold them: the odd-cycle test decides two classes, and gives a
        # split, for the whole pair set only.
        up = (3202, 128, 2688, 0, 2568, 3787, 136, 0, 128, 2048, 2048, 0)
        p = FinitePoset.from_rows([f"x{i}" for i in range(12)], up)
        search = _RealizerSearch(p, 10**9)
        subset = [(0, 9), (1, 11), (2, 1), (2, 3), (4, 10), (5, 2), (10, 7)]
        mask = sum(1 << search.pairs.index(pair) for pair in subset)
        assert naive_two_colourable(search, mask)
        assert not oracle_colour(search, mask, 2)
        assert dimension(p).dim == 3

    def test_find_realizers_below_two(self):
        # A limit of 1 decides from the pair count alone.
        search = _RealizerSearch(antichain(3), 10**9)
        assert search.least_classes(1) is None
        assert search.meter.remaining == 10**9
        assert find_realizers(chain(3), 1) is not None


class TestTwentyEightElements:
    def test_seeded_set_finishes_with_frozen_witnesses(self):
        # 20 posets from random_poset with random.Random(28), under the
        # default budget.
        rng = random.Random(28)
        out = []
        for _ in range(20):
            p = random_poset(rng, 28)
            res = dimension(p)
            assert naive_is_realizer(p, res.witness)
            out.append([res.dim, res.witness.to_json()])
        digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()[:16]
        assert digest == WITNESS_DIGEST_28


# Every S_n^k with n >= 3, k >= 0 and at most 32 elements.
GENERALISED_CROWNS = [(n, k) for n in range(3, 17) for k in range(17 - n)]

# The two of them that the default budget does not decide: both have
# dimension 3 and run out while finding the colouring at t = 3.
UNDECIDED_CROWNS = [(6, 8), (6, 9)]


class TestGeneralisedCrowns:
    """Trotter's crowns S_n^k: dimension ceil(2(n + k) / (k + 2)) at every
    size, an answer that reaches past every oracle of this suite and, at
    k >= 1, needs the colouring kernel at t >= 3."""

    def test_builder_is_the_crown_at_k0(self):
        for n in range(3, 9):
            assert generalised_crown(n, 0) == crown(n)

    @pytest.mark.parametrize("n, k", GENERALISED_CROWNS)
    def test_critical_pairs_are_the_incomparable_a_b(self, n, k):
        m = n + k
        want = [(f"a{i + 1}", f"b{(i + d) % m + 1}") for i in range(m) for d in range(k + 1)]
        got = critical_pairs(generalised_crown(n, k))
        assert len(got) == m * (k + 1)
        assert sorted(got) == sorted(want)

    def test_dimension_is_trotters_formula(self, monkeypatch):
        # The default budget decides 103 of the 105; a change in that count
        # is a change in the kernel's reach, to be argued where it lands.
        monkeypatch.delenv("ORDERDIM_BUDGET", raising=False)
        decided, undecided = [], []
        for n, k in GENERALISED_CROWNS:
            p = generalised_crown(n, k)
            try:
                res = dimension(p)
            except LimitExceeded:
                undecided.append((n, k))
                continue
            assert res.dim == -(-2 * (n + k) // (k + 2)), (n, k)
            assert is_realizer(p, res.witness)
            decided.append((n, k))
        assert len(GENERALISED_CROWNS) == 105
        assert undecided == UNDECIDED_CROWNS
        assert len(decided) == 103


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
        # and 32 witness steps, 16 picks for each class's extension.  250
        # covers either phase alone, not both.
        search = _RealizerSearch(antichain(16), 250)
        assert search.least_classes(16) == 2
        assert search.meter.remaining == 250 - 240
        search.meter = BudgetMeter(250, "fresh meter")
        assert len(search.witness(2)) == 2
        assert search.meter.remaining == 250 - 32
        with pytest.raises(LimitExceeded, match="witness search"):
            dimension(antichain(16), budget=250)

    def test_a_count_past_the_digit_cap_is_named_by_a_power_of_ten(self):
        # 11^5000 has more digits than an int may print with by default
        with pytest.raises(
            LimitExceeded, match=r"^phase: cases: at least 10\^5206 cases, over the budget of 5$"
        ):
            BudgetMeter(5, "phase").require(11**5000, "cases")

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

    # The split comes from the 2-colouring for antichain(4), one pair per
    # class for crown(3) and the colouring search for SIXTEEN.  With the
    # last class replaced by the first, the witness has fewer distinct
    # orders than the dimension, so it cannot realize p.
    @pytest.mark.parametrize("p", [antichain(4), crown(3), SIXTEEN], ids=repr)
    def test_split_with_a_class_twice_fails_the_self_check(self, p, monkeypatch):
        least_classes = _RealizerSearch.least_classes

        def repeating(search, limit):
            t = least_classes(search, limit)
            search.classes[-1] = search.classes[0]
            return t

        monkeypatch.setattr(_RealizerSearch, "least_classes", repeating)
        with pytest.raises(NotARealizer):
            dimension(p)

    def test_split_that_is_no_reversible_class_fails_the_self_check(self, monkeypatch):
        # Every pair of antichain(2) on one side closes a cycle.
        monkeypatch.setattr(_RealizerSearch, "_bipartite", lambda search, mask: mask)
        with pytest.raises(SelfCheckFailed, match="no linear extension"):
            dimension(antichain(2))

    def test_checks_run_under_optimize(self):
        script = (
            "import sys\n"
            "import orderdim.dimension\n"
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
