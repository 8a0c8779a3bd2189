import random
from fractions import Fraction as F
from itertools import product as iter_product

import pytest
from hypothesis import given, strategies as st

from orderdim.errors import (
    ColinearPoints,
    ElementMismatch,
    InvalidEmbedding,
    LimitExceeded,
    TooSmall,
)
from orderdim.geometry import (
    PartialEmbedding,
    PointCloud,
    Region,
    back_and_forth_iso,
    cyclic_priority,
    forth_extend,
    induced_structure,
    iter_balls,
    lex_less,
    pick_in_region,
    regions_of,
    sample_dn,
)
from orderdim.poset import LinearOrder, OrderedStructure, product_less

from conftest import less_pairs, oracle_verify, random_structure

# Figure with six marked points; the hyperplanes through them cut the
# plane into 49 cells.
SIX_POINTS = [
    (3, 2),
    (1, F(7, 2)),
    (4, 6),
    (F(-1, 2), -1),
    (F(3, 2), -3),
    (7, F(-3, 2)),
]

# First count at which every open unit square with corners in {0..9}^2
# holds a sample point, for seed 0.  Frozen from scripts/density_probe.py.
DENSITY_COVER_COUNT = 10724


def six_cloud() -> PointCloud:
    return PointCloud(2, SIX_POINTS)


class TestPointCloud:
    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            PointCloud(2, [(0.5, 1)])

    def test_json_rejects_floats(self):
        with pytest.raises(TypeError):
            PointCloud.from_json({"dim": 2, "points": [[1.5, 2]]})

    @pytest.mark.parametrize(
        "payload",
        [
            {"dim": 2.7, "points": [[1, 2]]},
            {"dim": "2", "points": [[1, 2]]},
            {"dim": True, "points": [[1, 2]]},
            {"dim": 2, "points": [[True, False]]},
            {"dim": 2, "points": [[1, 2]], "strict": "false"},
            {"dim": 2, "points": [[1, 2]], "strict": 0},
            {"dim": 2, "points": "12"},
            {"dim": 2, "points": [(1, 2)]},
        ],
    )
    def test_json_is_read_strictly(self, payload):
        with pytest.raises(TypeError):
            PointCloud.from_json(payload)

    def test_rejects_boolean_coordinates(self):
        with pytest.raises(TypeError):
            PointCloud(2, [(True, 2)])

    def test_rejects_duplicate_points_even_relaxed(self):
        with pytest.raises(ColinearPoints) as e:
            PointCloud(2, [(0, 1), (2, 3), (0, 1)], strict=False)
        assert e.value.pair == (0, 2) and e.value.axis is None

    def test_rejects_shared_coordinate_when_strict(self):
        with pytest.raises(ColinearPoints) as e:
            PointCloud(2, [(0, 1), (2, 1)])
        assert e.value.pair == (0, 1) and e.value.axis == 1

    def test_relaxed_allows_shared_coordinate(self):
        c = PointCloud(2, [(0, 1), (2, 1)], strict=False)
        assert len(c) == 2 and not c.strict

    def test_rejects_arity_mismatch(self):
        with pytest.raises(ElementMismatch):
            PointCloud(2, [(0, 1, 2)])

    def test_rejects_dim_below_two(self):
        with pytest.raises(TooSmall):
            PointCloud(1, [(0,)])

    def test_json_round_trip(self):
        c = six_cloud()
        again = PointCloud.from_json(c.to_json())
        assert again == c
        assert c.to_json()["points"][1] == ["1/1", "7/2"]

    def test_json_round_trip_relaxed(self):
        c = PointCloud(2, [(0, 1), (0, 2)], strict=False)
        data = c.to_json()
        assert data["strict"] is False
        assert PointCloud.from_json(data) == c

    def test_with_point_checks_invariant(self):
        c = six_cloud()
        grown = c.with_point((F(1, 3), F(1, 5)))
        assert len(grown) == 7 and len(c) == 6
        with pytest.raises(ColinearPoints):
            c.with_point((3, 100))


class TestInducedStructure:
    def test_two_comparable_points_give_chain(self):
        s = induced_structure(PointCloud(2, [(0, 0), (1, 1)]))
        assert s.poset.less("p0", "p1")
        for o in s.realizers.orders:
            assert o.before("p0", "p1")

    def test_two_incomparable_points_give_antichain(self):
        s = induced_structure(PointCloud(2, [(0, 1), (1, 0)]))
        assert s.poset.incomparable("p0", "p1")
        assert s.realizers.orders[0].before("p0", "p1")
        assert s.realizers.orders[1].before("p1", "p0")

    def test_six_point_figure_orders(self):
        s = induced_structure(six_cloud())
        assert list(s.realizers.orders[0].order) == ["p3", "p1", "p4", "p0", "p2", "p5"]
        assert list(s.realizers.orders[1].order) == ["p4", "p5", "p3", "p0", "p1", "p2"]
        assert sorted(less_pairs(s.poset)) == [
            ("p0", "p2"),
            ("p1", "p2"),
            ("p3", "p0"),
            ("p3", "p1"),
            ("p3", "p2"),
            ("p4", "p0"),
            ("p4", "p2"),
            ("p4", "p5"),
        ]

    @given(st.integers(0, 10_000), st.integers(1, 8), st.integers(2, 3))
    def test_matches_componentwise_comparison(self, seed, k, n):
        c = sample_dn(n, k, seed)
        s = induced_structure(c)
        for i in range(k):
            for j in range(k):
                expect = i != j and all(
                    c.points[i][t] <= c.points[j][t] for t in range(n)
                )
                assert s.poset.less(c.label(i), c.label(j)) == expect

    def test_empty_cloud_rejected(self):
        with pytest.raises(TooSmall):
            induced_structure(PointCloud(2, []))


class TestIterBalls:
    def test_stream_starts_at_unit_scale(self):
        center, radius = next(iter_balls(2))
        assert center == (F(-1), F(-1)) and radius == F(1, 2)

    def test_no_ball_repeats(self):
        stream = iter_balls(2)
        seen = set()
        for _ in range(2000):
            ball = next(stream)
            assert ball not in seen
            seen.add(ball)

    def test_every_dyadic_ball_appears(self):
        targets = {
            ((F(3, 2), F(-1, 2)), F(1, 4)),
            ((F(0), F(5)), F(1, 2)),
            ((F(-9, 4), F(1, 4)), F(1, 8)),
        }
        stream = iter_balls(2)
        for _ in range(30000):
            targets.discard(next(stream))
            if not targets:
                return
        pytest.fail(f"balls never enumerated: {targets}")

    def test_sample_points_land_in_their_balls(self):
        cloud = sample_dn(2, 100, seed=5)
        stream = iter_balls(2)
        for p in cloud.points:
            center, radius = next(stream)
            assert all(abs(p[t] - center[t]) < radius for t in range(2))


class TestSampleDn:
    def test_zero_count_gives_empty_cloud(self):
        assert len(sample_dn(2, 0, seed=0)) == 0

    def test_two_points_have_four_distinct_coordinates(self):
        c = sample_dn(2, 2, seed=3)
        values = [v for p in c.points for v in p]
        assert len(set(values)) == 4

    @given(st.integers(0, 10**9), st.integers(2, 4))
    def test_invariants_hold_for_any_seed(self, seed, n):
        c = sample_dn(n, 12, seed)
        assert len(c) == 12 and c.strict

    def test_deterministic_and_prefix_stable(self):
        a = sample_dn(2, 40, seed=7)
        b = sample_dn(2, 55, seed=7)
        assert b.points[:40] == a.points
        assert sample_dn(2, 40, seed=8).points != a.points

    def test_rejects_dimension_one(self):
        with pytest.raises(TooSmall):
            sample_dn(1, 3, seed=0)

    def test_unit_square_coverage_first_hit(self):
        cloud = sample_dn(2, DENSITY_COVER_COUNT, seed=0)
        todo = {(i, j) for i in range(9) for j in range(9)}
        last_needed = -1
        for k, (x, y) in enumerate(cloud.points):
            hit = {
                (i, j) for (i, j) in todo if i < x < i + 1 and j < y < j + 1
            }
            if hit:
                todo -= hit
                last_needed = k
        assert not todo
        assert last_needed == DENSITY_COVER_COUNT - 1


class TestRegionsOf:
    def test_single_point_plane_has_four_cells(self):
        assert len(regions_of(PointCloud(2, [(0, 0)]))) == 4

    def test_six_point_figure_has_49_cells(self):
        assert len(regions_of(six_cloud())) == 49

    def test_two_points_in_three_dimensions(self):
        assert len(regions_of(PointCloud(3, [(0, 0, 0), (1, 1, 1)]))) == 27

    def test_count_law(self):
        for n in (2, 3):
            for k in range(7):
                c = sample_dn(n, k, seed=11)
                assert len(regions_of(c)) == (k + 1) ** n

    def test_cells_past_the_budget_are_refused(self, monkeypatch):
        # 2^2 cells of 2 intervals each
        cloud = PointCloud(2, [(0, 0)])
        monkeypatch.setenv("ORDERDIM_BUDGET", "7")
        with pytest.raises(
            LimitExceeded, match="^cell enumeration: cells times axes: 8 cases"
        ):
            regions_of(cloud)
        monkeypatch.setenv("ORDERDIM_BUDGET", "8")
        assert len(regions_of(cloud)) == 4

    def test_a_relaxed_cloud_counts_its_distinct_values(self, monkeypatch):
        # 2 values on axis 0, 1 on axis 1: 3 * 2 cells of 2 intervals
        cloud = PointCloud(2, [(0, 5), (1, 5)], strict=False)
        monkeypatch.setenv("ORDERDIM_BUDGET", "12")
        assert len(regions_of(cloud)) == 6
        monkeypatch.setenv("ORDERDIM_BUDGET", "11")
        with pytest.raises(LimitExceeded, match="12 cases"):
            regions_of(cloud)

    def test_cells_partition_off_hyperplane_space(self):
        c = sample_dn(2, 3, seed=2)
        cells = regions_of(c)
        for r in cells:
            p = pick_in_region(c, r)
            assert sum(other.contains(p) for other in cells) == 1


class TestPickInRegion:
    def test_unit_square_empty_cloud(self):
        p = pick_in_region(PointCloud(2, []), Region(((F(0), F(1)), (F(0), F(1)))))
        assert all(0 < v < 1 for v in p)

    def test_whole_plane_avoids_the_cloud(self):
        c = PointCloud(2, [(0, 0)])
        p = pick_in_region(c, Region(((None, None), (None, None))))
        assert p[0] != 0 and p[1] != 0
        c.with_point(p)

    def test_shaded_cell_of_six_point_figure(self):
        region = Region(((F(4), F(7)), (F(2), F(7, 2))))
        p = pick_in_region(six_cloud(), region)
        assert region.contains(p)
        six_cloud().with_point(p)
        assert p == pick_in_region(six_cloud(), region)

    def test_bisects_toward_upper_end_on_collision(self):
        c = PointCloud(2, [(1, 5)])
        p = pick_in_region(c, Region(((F(0), F(2)), (F(0), F(2)))))
        assert p == (F(3, 2), F(1))

    def test_half_bounded_and_unbounded_cases(self):
        c = PointCloud(2, [(1, 0)])
        below = pick_in_region(c, Region(((None, F(1)), (None, None))))
        above = pick_in_region(c, Region(((F(1), None), (None, None))))
        assert below[0] < 1 < above[0]
        assert below[1] != 0 and above[1] != 0

    def test_region_rejects_empty_interval(self):
        with pytest.raises(TooSmall):
            Region(((F(1), F(1)), (F(0), F(1))))

    def test_region_json_round_trip(self):
        r = Region(((None, F(7, 2)), (F(-1), None)))
        assert Region.from_json(r.to_json()) == r

    def test_region_json_rejects_floats(self):
        with pytest.raises(TypeError):
            Region.from_json([[None, 3.5], ["-1/1", None]])

    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_result_in_region_and_insertable(self, seed, k):
        c = sample_dn(2, k, seed)
        rng = random.Random(seed)
        r = rng.choice(regions_of(c))
        p = pick_in_region(c, r)
        assert r.contains(p)
        assert len(c.with_point(p)) == k + 1


def embed_everything(s: OrderedStructure, order=None) -> PartialEmbedding:
    emb = PartialEmbedding(source=s, cloud=PointCloud(s.n, []), images=())
    for el in order or s.elements:
        emb = forth_extend(emb, el)
    return emb


def assert_isomorphic_to_image(s: OrderedStructure, emb: PartialEmbedding):
    """The induced structure on the image must copy s under the image map."""
    image = induced_structure(emb.cloud)
    to_label = {el: image.poset.elements[idx] for el, idx in emb.images}
    for x in s.elements:
        for y in s.elements:
            assert s.poset.less(x, y) == image.poset.less(to_label[x], to_label[y])
            for i in range(s.n):
                assert s.realizers.orders[i].before(x, y) == image.realizers.orders[
                    i
                ].before(to_label[x], to_label[y])


class TestForthExtend:
    def test_first_element_lands_anywhere(self):
        s = OrderedStructure.from_orders([LinearOrder(["a"]), LinearOrder(["a"])])
        emb = embed_everything(s)
        assert emb.domain() == ("a",)
        emb.verify()

    def test_element_above_in_all_orders_dominates(self):
        s = OrderedStructure.from_orders(
            [LinearOrder(["a", "b"]), LinearOrder(["a", "b"])]
        )
        emb = embed_everything(s, order=["a", "b"])
        pa, pb = (emb.cloud.points[emb.mapping[e]] for e in ("a", "b"))
        assert all(pa[i] < pb[i] for i in range(2))

    def test_interleaved_element_lands_in_its_cell(self):
        s = OrderedStructure.from_orders(
            [LinearOrder(["a", "q", "b", "c"]), LinearOrder(["c", "a", "q", "b"])]
        )
        emb = embed_everything(s, order=["a", "b", "c", "q"])
        emb.verify()
        assert_isomorphic_to_image(s, emb)

    @given(st.integers(0, 10_000), st.integers(1, 7), st.integers(2, 3))
    def test_random_structures_embed_faithfully(self, seed, m, n):
        rng = random.Random(seed)
        s = random_structure(rng, m, n)
        order = list(s.elements)
        rng.shuffle(order)
        emb = embed_everything(s, order=order)
        emb.verify()
        assert_isomorphic_to_image(s, emb)

    def test_unknown_and_repeated_elements_rejected(self):
        s = OrderedStructure.from_orders([LinearOrder(["a"]), LinearOrder(["a"])])
        emb = embed_everything(s)
        with pytest.raises(ElementMismatch):
            forth_extend(emb, "zz")
        with pytest.raises(ElementMismatch):
            forth_extend(emb, "a")

    def test_broken_embedding_rejected(self):
        s = OrderedStructure.from_orders(
            [LinearOrder(["a", "b", "c"]), LinearOrder(["a", "b", "c"])]
        )
        cloud = PointCloud(2, [(0, 0), (-1, -1)])
        broken = PartialEmbedding(source=s, cloud=cloud, images=(("a", 0), ("b", 1)))
        with pytest.raises(InvalidEmbedding):
            forth_extend(broken, "c")


def random_cloud(rng: random.Random, n: int, count: int, strict: bool) -> PointCloud:
    """count points of dimension n: a strict cloud draws distinct values
    per axis, a relaxed one draws from {0..3}^n, so its points share
    coordinates heavily."""
    if strict:
        axes = [rng.sample(range(-20, 20), count) for _ in range(n)]
        return PointCloud(n, list(zip(*axes)))
    return PointCloud(n, rng.sample(list(iter_product(range(4), repeat=n)), count), strict=False)


def verdict(emb: PartialEmbedding, check) -> str | None:
    try:
        check(emb)
    except InvalidEmbedding:
        return "invalid"
    return None


class TestVerifyAgainstPairwiseOracle:
    def test_verdicts_match_on_random_maps(self):
        # Maps of 0-6 elements into strict and relaxed clouds of dimension
        # 2 and 3: a cloud's own points (always embeddings), the same with
        # one image moved, and random structures under random maps.
        rng = random.Random(14)
        tally = {"invalid": 0, None: 0}
        for trial in range(3000):
            n = rng.choice((2, 3))
            cloud = random_cloud(rng, n, rng.randint(6, 9), strict=trial % 2 == 0)
            kind = trial % 3
            if kind == 2:
                source = random_structure(rng, rng.randint(6, 8), n)
            else:
                source = induced_structure(cloud)
            domain = rng.sample(range(len(source)), rng.randint(0, 6))
            if kind == 2:
                targets = rng.sample(range(len(cloud)), len(domain))
            else:
                targets = list(domain)
                unused = [i for i in range(len(cloud)) if i not in targets]
                if kind == 1 and targets and unused:
                    targets[rng.randrange(len(targets))] = rng.choice(unused)
            images = tuple((source.elements[d], t) for d, t in zip(domain, targets))
            emb = PartialEmbedding(source, cloud, images)
            want = verdict(emb, oracle_verify)
            assert verdict(emb, PartialEmbedding.verify) == want, images
            tally[want] += 1
        assert min(tally.values()) > 500

    def test_wrong_order_is_named(self):
        s = OrderedStructure.from_orders([LinearOrder(["a", "b"]), LinearOrder(["b", "a"])])
        emb = PartialEmbedding(s, PointCloud(2, [(0, 0), (1, 2)]), (("a", 0), ("b", 1)))
        with pytest.raises(InvalidEmbedding, match=r"order 2 not preserved on \(b, a\)"):
            emb.verify()


class TestVerifyRefusesNonMaps:
    SOURCE = OrderedStructure.from_orders([LinearOrder(["a", "b"]), LinearOrder(["a", "b"])])
    CLOUD = PointCloud(2, [(0, 0), (1, 1)])

    def embedding(self, *images) -> PartialEmbedding:
        return PartialEmbedding(self.SOURCE, self.CLOUD, images)

    def test_element_mapped_twice(self):
        with pytest.raises(InvalidEmbedding, match="mapped twice"):
            self.embedding(("a", 0), ("a", 1)).verify()

    def test_unknown_element_alone_or_with_others(self):
        for images in ((("zz", 0),), (("a", 0), ("zz", 1))):
            with pytest.raises(ElementMismatch, match="unknown source element"):
                self.embedding(*images).verify()

    def test_index_outside_the_cloud(self):
        for images in ((("a", 2),), (("a", 0), ("b", 5)), (("a", 0), ("b", -1))):
            with pytest.raises(ElementMismatch, match="not in the cloud"):
                self.embedding(*images).verify()


class TestBackAndForth:
    def test_zero_steps_empty_map(self):
        f, g = back_and_forth_iso(sample_dn(2, 3, 1), sample_dn(2, 3, 2), 0)
        assert f.images == () and g.images == ()

    @pytest.mark.parametrize("steps", [-1, -2])
    def test_negative_steps_are_refused(self, steps):
        with pytest.raises(TooSmall, match="steps >= 0"):
            back_and_forth_iso(sample_dn(2, 3, 1), sample_dn(2, 3, 2), steps)

    def test_one_step_single_pair(self):
        f, g = back_and_forth_iso(sample_dn(2, 3, 1), sample_dn(2, 3, 2), 1)
        assert len(f.images) == 1 and len(g.images) == 1
        f.verify()
        g.verify()

    def test_ten_steps_partial_isomorphism(self):
        a, b = sample_dn(2, 6, 10), sample_dn(2, 6, 20)
        f, g = back_and_forth_iso(a, b, 10)
        assert len(f.images) == 10
        f.verify()
        g.verify()
        assert sorted((int(x[1:]), y) for x, y in f.images) == sorted(
            (y, int(x[1:])) for x, y in g.images
        )

    def test_every_stage_is_partial_isomorphism(self):
        a, b = sample_dn(3, 4, 30), sample_dn(3, 4, 40)
        for steps in range(9):
            f, g = back_and_forth_iso(a, b, steps)
            f.verify()
            g.verify()
            assert len(f.images) == steps

    def test_enumeration_covers_cloud_prefixes(self):
        a, b = sample_dn(2, 8, 50), sample_dn(2, 8, 60)
        for steps in (4, 7, 10):
            f, g = back_and_forth_iso(a, b, steps)
            domain = {lbl for lbl, _ in f.images}
            hit_in_b = {idx for _, idx in f.images}
            assert {f"p{i}" for i in range((steps + 1) // 2)} <= domain
            assert set(range(steps // 2)) <= hit_in_b

    def test_grows_exhausted_clouds(self):
        f, g = back_and_forth_iso(sample_dn(2, 1, 1), sample_dn(2, 1, 2), 6)
        assert len(f.images) == 6
        f.verify()
        g.verify()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ElementMismatch):
            back_and_forth_iso(sample_dn(2, 2, 1), sample_dn(3, 2, 1), 2)

    def test_seed_matches_are_kept(self):
        f, f_inv = back_and_forth_iso(sample_dn(2, 3, 10), sample_dn(2, 3, 20), 8)
        a, b = f_inv.cloud, f.cloud  # as the first run grew them
        seeds = [(int(x[1:]), y) for x, y in f.images]
        g, h = back_and_forth_iso(a, b, 2, seed_matches=seeds[:4])
        assert g.images[:4] == f.images[:4]
        g.verify()
        h.verify()

    def test_bad_seed_matches_rejected(self):
        a = PointCloud(2, [(0, 0), (1, 1), (2, 3)])
        b = PointCloud(2, [(5, 5), (6, 6), (7, 4)])
        back_and_forth_iso(a, b, 0, seed_matches=[(0, 0), (1, 1)])
        for seeds in ([(0, 0), (0, 1)], [(0, 0), (1, 0)], [(0, 1), (1, 0)], [(1, 1), (2, 2)]):
            with pytest.raises(InvalidEmbedding):
                back_and_forth_iso(a, b, 0, seed_matches=seeds)
        with pytest.raises(ElementMismatch, match="out of range"):
            back_and_forth_iso(a, b, 0, seed_matches=[(0, 3)])


class TestLexHelpers:
    def test_cyclic_priority_rotates(self):
        assert cyclic_priority(0, 3) == [0, 1, 2]
        assert cyclic_priority(2, 3) == [2, 0, 1]

    def test_lex_less_breaks_ties_by_priority(self):
        a, b = (F(1), F(5)), (F(1), F(3))
        assert lex_less(b, a, [0, 1])
        assert lex_less(b, a, [1, 0])
        assert product_less(b, a) and not product_less(a, b)
