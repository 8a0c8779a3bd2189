"""Axiom reports and the four certificate kinds."""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import product as iter_product

import pytest
from hypothesis import given, strategies as st

from conftest import all_posets_on, naive_is_realizer, random_structure
from orderdim.dimension import dimension
from orderdim.errors import (
    ElementMismatch,
    FlipNotRealizable,
    LimitExceeded,
    NotOrderPreserving,
    SelfCheckFailed,
    TooSmall,
)
from orderdim.geometry import (
    PointCloud,
    Region,
    cyclic_priority,
    lex_less,
    pick_in_region,
    regions_of,
    sample_dn,
)
from orderdim.homogeneity import (
    AxiomReport,
    Certificate,
    CertificateKind,
    ap_failure_certificate,
    check_dpo_fragment,
    nonhom_witness,
    qn_lex_nonhom_witness,
    two_homogeneity_certificate,
    two_homogeneity_demo,
    two_homogeneity_extend,
)
from orderdim.poset import OrderedStructure, crown, product_less, validate_poset

SIX_POINTS = [
    (F(3), F(2)),
    (F(1), F(7, 2)),
    (F(4), F(6)),
    (F(-1, 2), F(-1)),
    (F(3, 2), F(-3)),
    (F(7), F(-3, 2)),
]

# Frozen from the first ap_failure_certificate(2) run: of the nine
# relation assignments to the two free pairs, exactly one closes to a
# partial order compatible with both fragments.
AP_COMPLETION_COUNT = 1


def grid_points(points, step, n):
    lo = min(v for p in points for v in p) - 1
    hi = max(v for p in points for v in p) + 1
    ticks = []
    t = lo
    while t <= hi:
        ticks.append(t)
        t += step
    return iter_product(ticks, repeat=n)


class TestCheckDpoFragment:
    def test_single_point_has_four_defects(self):
        report = check_dpo_fragment(PointCloud(2, [(F(0), F(0))]))
        assert report.universal_ok
        assert len(report.density_defects) == 4
        for d in report.density_defects:
            assert d.region is not None
            assert d.witnesses == ("p0",)

    def test_six_point_figure_matches_region_decomposition(self):
        cloud = PointCloud(2, SIX_POINTS)
        report = check_dpo_fragment(cloud)
        assert report.poset_ok and report.linears_ok and report.realization_ok
        assert len(report.density_defects) == 49
        assert {d.region for d in report.density_defects} == set(regions_of(cloud))

    def test_strict_cloud_defect_count_law(self):
        cloud = sample_dn(2, 12, seed=3)
        report = check_dpo_fragment(cloud)
        assert report.universal_ok
        assert len(report.density_defects) == 13 * 13

    def test_every_strict_defect_is_fillable(self):
        cloud = sample_dn(2, 6, seed=1)
        for d in check_dpo_fragment(cloud).density_defects:
            assert d.region is not None
            p = pick_in_region(cloud, d.region)
            cloud.with_point(p)

    def test_empty_cloud_reports_whole_space(self):
        report = check_dpo_fragment(PointCloud(3, []))
        assert report.universal_ok
        (defect,) = report.density_defects
        assert defect.region == Region(((None, None),) * 3)
        assert defect.witnesses == ()

    def test_relaxed_cloud_has_collapsed_cell(self):
        # colinear triple: a and b tie on axis 0, a and c on axis 1
        cloud = PointCloud(
            2,
            [(F(1), F(1)), (F(1), F(4)), (F(4), F(1))],
            strict=False,
        )
        report = check_dpo_fragment(cloud)
        assert report.poset_ok and report.linears_ok and report.realization_ok
        collapsed = [d for d in report.density_defects if d.region is None]
        assert collapsed
        gaps = {d.gaps for d in collapsed}
        assert (("p0", "p1"), ("p0", "p2")) in gaps

    def test_abstract_structure_uses_rank_coordinates(self):
        p = crown(2)
        s = OrderedStructure(p, dimension(p).witness)
        report = check_dpo_fragment(s)
        assert report.universal_ok
        assert len(report.density_defects) == 5 * 5
        for d in report.density_defects:
            assert d.region is not None

    def test_flags_agree_with_direct_checks_exhaustively(self):
        for p in all_posets_on(("x", "y", "z")):
            s = OrderedStructure(p, dimension(p).witness)
            report = check_dpo_fragment(s)
            assert report.poset_ok == (
                validate_poset(p.elements, p.lt) is not None
            )
            assert report.linears_ok == all(
                sorted(o.order) == sorted(p.elements) for o in s.realizers.orders
            )
            assert report.realization_ok == naive_is_realizer(p, s.realizers)

    @given(st.integers(0, 2**30), st.integers(2, 6), st.integers(2, 3))
    def test_flags_true_on_random_structures(self, seed, m, n):
        s = random_structure(random.Random(seed), m, n)
        report = check_dpo_fragment(s)
        assert report.universal_ok
        assert len(report.density_defects) == (m + 1) ** n


class TestApFailure:
    def test_enumeration_finds_one_completion(self):
        cert = ap_failure_certificate(2)
        assert cert.kind is CertificateKind.APFailure
        assert cert.data["assignments_tried"] == 9
        assert cert.data["completion_count"] == AP_COMPLETION_COUNT
        (only,) = cert.data["completions"]
        assert only["is_crown"] and only["dimension"] == 3
        assert only["choice"] == ["inc", "inc"]
        assert cert.replay()

    def test_forced_conclusions_match_the_chase(self):
        cert = ap_failure_certificate(2)
        forced = cert.data["forced"]
        assert forced["below_b1"] == ["a2", "a3"]
        assert forced["not_below_b1"] == ["a1", "b2", "b3"]
        assert cert.data["chase_ok"]
        assert len(forced["chase"]) == 4

    def test_every_completion_is_the_crown_with_higher_dimension(self):
        # independent of the certificate path: re-enumerate by hand
        from orderdim.homogeneity import _enumerate_amalgams

        survivors = list(_enumerate_amalgams(2))
        assert len(survivors) == AP_COMPLETION_COUNT
        for _, poset in survivors:
            assert poset == crown(3)
            assert dimension(poset).dim == 3

    def test_amalgam_enumeration_honours_env_budget(self, monkeypatch):
        # two free pairs at width two: 3^2 completions to try
        monkeypatch.setenv("ORDERDIM_BUDGET", "8")
        with pytest.raises(LimitExceeded, match="amalgam enumeration: .*: 9 cases"):
            ap_failure_certificate(2)
        from orderdim.homogeneity import _enumerate_amalgams

        monkeypatch.setenv("ORDERDIM_BUDGET", "9")
        assert len(list(_enumerate_amalgams(2))) == AP_COMPLETION_COUNT

    def test_chase_mode_at_width_three(self):
        cert = ap_failure_certificate(3)
        assert cert.data["mode"] == "chase"
        assert cert.data["chase_ok"]
        assert len(cert.data["free_pairs"]) == 3
        assert cert.replay()

    def test_json_round_trip_replays(self):
        cert = ap_failure_certificate(2)
        again = Certificate.from_json(cert.to_json())
        assert again.replay()

    def test_too_small(self):
        with pytest.raises(TooSmall):
            ap_failure_certificate(1)

    def test_tampered_data_fails_replay(self):
        cert = ap_failure_certificate(2)
        bad = dict(cert.data)
        bad["completion_count"] = 2
        assert not Certificate(cert.kind, bad).replay()


class TestNonhomWitness:
    def test_width_two(self):
        cert = nonhom_witness(2)
        assert cert.kind is CertificateKind.NotUltrahomogeneous
        assert cert.data["points"]["a"] == ["1/1", "4/1"]
        assert cert.data["points"]["x"] == ["4/1", "3/1"]
        assert cert.replay()

    def test_width_three(self):
        assert nonhom_witness(3).replay()

    def test_unsat_reproduced_by_independent_grid_search(self):
        a, b, c = (F(1), F(4)), (F(2), F(2)), (F(3), F(1))
        hits = [
            y
            for y in grid_points([a, b, c], F(1, 2), 2)
            if product_less(a, y) and product_less(c, y)
        ]
        assert hits
        assert all(product_less(b, y) for y in hits)

    def test_control_point_exists_without_the_negated_constraint(self):
        a, b, c = (F(1), F(4)), (F(2), F(2)), (F(3), F(1))
        cloud = PointCloud(2, [a, b, c, (F(4), F(3))])
        y = pick_in_region(cloud, Region(((F(3), None), (F(4), None))))
        assert product_less(a, y) and product_less(b, y) and product_less(c, y)

    def test_configuration_is_an_antichain_plus_dominator(self):
        pts = [(F(1), F(4)), (F(2), F(2)), (F(3), F(1)), (F(4), F(3))]
        a, b, c, x = pts
        for p, q in ((a, b), (a, c), (b, c)):
            assert not product_less(p, q) and not product_less(q, p)
        assert product_less(b, x) and product_less(c, x)
        assert not product_less(a, x)

    def test_json_round_trip_replays(self):
        cert = nonhom_witness(2)
        assert Certificate.from_json(cert.to_json()).replay()

    def test_too_small(self):
        with pytest.raises(TooSmall):
            nonhom_witness(1)

    def test_tampered_points_fail_replay(self):
        cert = nonhom_witness(2)
        bad = dict(cert.data)
        bad["points"] = dict(bad["points"], b=["1/2", "1/2"])
        assert not Certificate(cert.kind, bad).replay()


class TestQnLexWitness:
    def test_width_two(self):
        cert = qn_lex_nonhom_witness(2)
        assert cert.kind is CertificateKind.QnLexNotUltrahomogeneous
        assert cert.data["points"]["x"] == ["3/2", "3/2"]
        assert cert.data["forced_equalities"] == [["1", "a2", "b2"], ["2", "a2", "c2"]]
        assert cert.replay()

    def test_width_three(self):
        assert qn_lex_nonhom_witness(3).replay()

    def test_unsat_reproduced_by_independent_grid_search(self):
        # between a2 and b2 in the first order and between a2 and c2 in
        # the second leaves no room: the bounding pairs tie on the axis
        # that decides each comparison
        a2, b2, c2 = (F(1), F(1)), (F(1), F(4)), (F(4), F(1))
        pri0, pri1 = cyclic_priority(0, 2), cyclic_priority(1, 2)
        for y in grid_points([a2, b2, c2], F(1, 2), 2):
            assert not (
                lex_less(a2, y, pri0)
                and lex_less(y, b2, pri0)
                and lex_less(a2, y, pri1)
                and lex_less(y, c2, pri1)
            )

    def test_control_triple_admits_an_image(self):
        a, b, c = (F(1), F(1)), (F(2), F(4)), (F(4), F(2))
        cloud = PointCloud(2, [a, b, c])
        y = pick_in_region(cloud, Region(((a[0], b[0]), (a[1], c[1]))))
        assert y == (F(3, 2), F(3, 2))
        pri0, pri1 = cyclic_priority(0, 2), cyclic_priority(1, 2)
        assert lex_less(a, y, pri0) and lex_less(y, b, pri0)
        assert lex_less(a, y, pri1) and lex_less(y, c, pri1)

    def test_triple_map_preserves_all_orders(self):
        cert = qn_lex_nonhom_witness(2)
        pts = {
            k: tuple(F(s) for s in v) for k, v in cert.data["points"].items()
        }
        for i in range(2):
            pri = cyclic_priority(i, 2)
            for src, dst in (("a", "a2"), ("b", "b2"), ("c", "c2")):
                for src2, dst2 in (("a", "a2"), ("b", "b2"), ("c", "c2")):
                    assert lex_less(pts[src], pts[src2], pri) == lex_less(
                        pts[dst], pts[dst2], pri
                    )

    def test_json_round_trip_replays(self):
        cert = qn_lex_nonhom_witness(3)
        assert Certificate.from_json(cert.to_json()).replay()

    def test_too_small(self):
        with pytest.raises(TooSmall):
            qn_lex_nonhom_witness(1)


def pairwise_order_preserved(emb):
    labels = [lab for lab, _ in emb.images]
    src = {lab: emb.source.poset for lab in labels}
    for x in labels:
        for y in labels:
            if x == y:
                continue
            px, py = emb.point_of(x), emb.point_of(y)
            assert src[x].less(x, y) == product_less(px, py)


class TestTwoHomogeneity:
    def make_cloud(self, pts):
        return PointCloud(2, [tuple(F(v) for v in p) for p in pts])

    def test_identity_pair_extends(self):
        cloud = sample_dn(2, 5, seed=7)
        pair = (cloud.points[0], cloud.points[1])
        emb = two_homogeneity_extend(cloud, pair, pair, steps=6)
        mapping = dict(emb.images)
        assert mapping["p0"] == 0 and mapping["p1"] == 1
        pairwise_order_preserved(emb)

    def test_aligned_comparable_pairs(self):
        cloud = self.make_cloud([(0, 0), (1, 1), (5, 2), (7, 3)])
        emb = two_homogeneity_extend(
            cloud, (cloud.points[0], cloud.points[1]),
            (cloud.points[2], cloud.points[3]), steps=4,
        )
        mapping = dict(emb.images)
        assert mapping["p0"] == 2 and mapping["p1"] == 3
        assert len(set(mapping.values())) == len(mapping)
        pairwise_order_preserved(emb)

    def test_flipped_incomparable_pairs_need_the_axis_swap(self):
        # pair1 ascends on axis 0 only, pair2 on axis 1 only
        cloud = self.make_cloud([(1, 4), (2, 3), (8, 5), (7, 6)])
        emb = two_homogeneity_extend(
            cloud, (cloud.points[0], cloud.points[1]),
            (cloud.points[2], cloud.points[3]), steps=4,
        )
        mapping = dict(emb.images)
        assert mapping["p0"] == 2 and mapping["p1"] == 3
        pairwise_order_preserved(emb)

    def test_unbalanced_sign_patterns_are_refused(self):
        cloud = PointCloud(
            3,
            [
                (F(0), F(0), F(9)),
                (F(1), F(1), F(8)),
                (F(5), F(6), F(2)),
                (F(6), F(5), F(1)),
            ],
        )
        with pytest.raises(FlipNotRealizable):
            two_homogeneity_extend(
                cloud, (cloud.points[0], cloud.points[1]),
                (cloud.points[2], cloud.points[3]), steps=2,
            )

    def test_comparable_to_incomparable_is_refused(self):
        cloud = self.make_cloud([(0, 0), (1, 1), (5, 2), (4, 3)])
        with pytest.raises(NotOrderPreserving):
            two_homogeneity_extend(
                cloud, (cloud.points[0], cloud.points[1]),
                (cloud.points[2], cloud.points[3]), steps=2,
            )

    def test_unknown_point_is_refused(self):
        cloud = self.make_cloud([(0, 0), (1, 1)])
        with pytest.raises(ElementMismatch):
            two_homogeneity_extend(
                cloud, (cloud.points[0], (F(9), F(9))),
                (cloud.points[0], cloud.points[1]), steps=2,
            )

    def test_degenerate_pair_is_refused(self):
        cloud = self.make_cloud([(0, 0), (1, 1)])
        with pytest.raises(ElementMismatch):
            two_homogeneity_extend(
                cloud, (cloud.points[0], cloud.points[0]),
                (cloud.points[0], cloud.points[1]), steps=2,
            )

    def test_relaxed_cloud_is_refused(self):
        cloud = PointCloud(2, [(F(0), F(0)), (F(0), F(1))], strict=False)
        with pytest.raises(ElementMismatch):
            two_homogeneity_extend(
                cloud, (cloud.points[0], cloud.points[1]),
                (cloud.points[0], cloud.points[1]), steps=2,
            )

    @given(st.integers(0, 2**30), st.integers(4, 8), st.integers(0, 8))
    def test_random_pairs_extend_or_refuse(self, seed, count, steps):
        rng = random.Random(seed)
        cloud = sample_dn(2, count, seed=seed % 1000)
        i, j = rng.sample(range(count), 2)
        k, l = rng.sample(range(count), 2)
        pair1 = (cloud.points[i], cloud.points[j])
        pair2 = (cloud.points[k], cloud.points[l])
        cmp1 = product_less(*pair1) or product_less(pair1[1], pair1[0])
        cmp2 = product_less(*pair2) or product_less(pair2[1], pair2[0])
        if cmp1 != cmp2 or (
            cmp1 and product_less(*pair1) != product_less(*pair2)
        ):
            with pytest.raises(NotOrderPreserving):
                two_homogeneity_extend(cloud, pair1, pair2, steps)
            return
        emb = two_homogeneity_extend(cloud, pair1, pair2, steps)
        mapping = dict(emb.images)
        assert mapping[f"p{i}"] == k and mapping[f"p{j}"] == l
        assert len(set(mapping.values())) == len(mapping)
        assert len(mapping) >= 2 + steps // 2
        pairwise_order_preserved(emb)

    def test_certificate_round_trip(self):
        cloud = self.make_cloud([(1, 4), (2, 3), (8, 5), (7, 6)])
        cert = two_homogeneity_certificate(
            cloud, (cloud.points[0], cloud.points[1]),
            (cloud.points[2], cloud.points[3]), steps=4,
        )
        assert cert.kind is CertificateKind.TwoHomogeneityExtension
        assert cert.data["axis_permutation"] == [1, 0]
        assert Certificate.from_json(cert.to_json()).replay()

    def test_at_width_two_incomparable_pairs_always_align(self):
        # one ascending axis each is the only incomparable shape, so the
        # refusal case cannot arise until width three
        cloud = sample_dn(2, 6, seed=11)
        incs = [
            (cloud.points[i], cloud.points[j])
            for i in range(6)
            for j in range(6)
            if i != j
            and not product_less(cloud.points[i], cloud.points[j])
            and not product_less(cloud.points[j], cloud.points[i])
        ]
        for pair1 in incs[:3]:
            for pair2 in incs[:3]:
                emb = two_homogeneity_extend(cloud, pair1, pair2, steps=2)
                pairwise_order_preserved(emb)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ap_failure_certificate(2),
        lambda: ap_failure_certificate(3),
        lambda: nonhom_witness(2),
        lambda: qn_lex_nonhom_witness(2),
        lambda: two_homogeneity_demo(2),
    ],
    ids=["ap-enumerate", "ap-chase", "nonhom", "qnlex", "twohom"],
)
def test_failed_self_replay_is_typed(build, monkeypatch):
    monkeypatch.setattr(Certificate, "replay", lambda self: False)
    with pytest.raises(SelfCheckFailed):
        build()
