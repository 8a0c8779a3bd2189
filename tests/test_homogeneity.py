"""Axiom reports and the four certificate kinds."""

from __future__ import annotations

import copy
import json
import random
from fractions import Fraction as F
from itertools import product as iter_product
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from conftest import (
    all_posets_on,
    identity_seeded_back_and_forth,
    naive_is_realizer,
    oracle_verify_chase,
    random_poset,
    random_structure,
)
from orderdim import homogeneity
from orderdim.dimension import dimension
from orderdim.errors import (
    ElementMismatch,
    FlipNotRealizable,
    LimitExceeded,
    NotOrderPreserving,
    SelfCheckFailed,
    TooSmall,
)
from orderdim.flow import symmetric_sample
from orderdim.geometry import (
    PointCloud,
    Region,
    cyclic_priority,
    induced_structure,
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
from orderdim.poset import (
    MAX_GENERATED_ELEMENTS,
    OrderedStructure,
    crown,
    product_less,
    validate_poset,
)

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
    def test_cells_past_the_budget_are_refused(self, monkeypatch):
        # (1 + 1)^2 cells of 2 intervals each, for a cloud and a structure
        point = PointCloud(2, [(F(0), F(0))])
        for s in (point, induced_structure(point)):
            monkeypatch.setenv("ORDERDIM_BUDGET", "7")
            with pytest.raises(
                LimitExceeded, match="^cell enumeration: cells times axes: 8 cases"
            ):
                check_dpo_fragment(s)
            monkeypatch.setenv("ORDERDIM_BUDGET", "8")
            assert len(check_dpo_fragment(s).density_defects) == 4

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
        # one cell rule: the defects list regions_of's cells, in its order,
        # on strict samples and on the empty cloud's one whole-space cell
        clouds = [cloud, PointCloud(3, [])]
        clouds += [sample_dn(n, k, seed=0) for n in (2, 3) for k in range(6)]
        for c in clouds:
            regions = [d.region for d in check_dpo_fragment(c).density_defects]
            assert regions == regions_of(c)
        # a relaxed cloud's lexicographic orders tie on coordinates: of its
        # 7^3 defects 279 collapse to no region, and the rest are its
        # 4^3 cells, in order
        relaxed = symmetric_sample(3, 6, seed=0)
        regions = [d.region for d in check_dpo_fragment(relaxed).density_defects]
        assert len(regions) == 343
        assert regions.count(None) == 279
        assert [r for r in regions if r is not None] == regions_of(relaxed)

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
            px, py = (emb.cloud.points[emb.mapping[e]] for e in (x, y))
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


def _refuse_dimension(monkeypatch):
    monkeypatch.setattr(homogeneity, "dimension", lambda poset: SimpleNamespace(dim=2))


def _refuse_chase(monkeypatch):
    monkeypatch.setattr(homogeneity, "_verify_chase", lambda *rows: False)


def _misplace_control(monkeypatch):
    # the control point lands below every configuration point
    monkeypatch.setattr(
        homogeneity, "pick_in_region", lambda cloud, region: (F(0),) * cloud.dim
    )


@pytest.mark.parametrize(
    "build, break_check",
    [
        (lambda: ap_failure_certificate(2), _refuse_dimension),
        (lambda: ap_failure_certificate(3), _refuse_chase),
        (lambda: nonhom_witness(2), _misplace_control),
        (lambda: qn_lex_nonhom_witness(2), _misplace_control),
        (lambda: two_homogeneity_demo(2), identity_seeded_back_and_forth),
    ],
    ids=["ap-enumerate", "ap-chase", "nonhom", "qnlex", "twohom"],
)
def test_failed_self_replay_is_typed(build, break_check, monkeypatch):
    # a builder runs its kind's derivation once, the same one replay runs;
    # a check failing inside it refuses the certificate
    break_check(monkeypatch)
    with pytest.raises(SelfCheckFailed, match="failed its own proof check"):
        build()


def sampled_two_homogeneity():
    cloud = sample_dn(2, 8, seed=0)
    return two_homogeneity_certificate(
        cloud, (cloud.points[0], cloud.points[1]), (cloud.points[2], cloud.points[3]), 6
    )


CERTIFICATES = {
    **{
        f"{name}-{n}": (lambda b=build, n=n: b(n))
        for name, build in (
            ("ap", ap_failure_certificate),
            ("nonhom", nonhom_witness),
            ("qnlex", qn_lex_nonhom_witness),
            ("twohom", two_homogeneity_demo),
        )
        for n in (2, 3)
    },
    "twohom-sampled": sampled_two_homogeneity,
}


def altered(value):
    """A value of the same JSON type as value that differs from it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "0"
    if isinstance(value, list):
        return value[:-1] if value else [0]
    if isinstance(value, dict):
        return dict(list(value.items())[1:]) if value else {"x": 0}
    raise AssertionError(f"not a JSON value: {value!r}")


def retyped(value):
    """value with its first number or boolean, in document order, turned
    into a float or an int that == still finds equal; None if it has none."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return float(value)
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        return None
    for key, inner in items:
        other = retyped(inner)
        if other is not None:
            out = dict(value) if isinstance(value, dict) else list(value)
            out[key] = other
            return out
    return None


def replays(kind, data) -> bool:
    return Certificate(kind, data).replay()


@pytest.mark.parametrize("name", CERTIFICATES)
class TestReplayChecksEveryField:
    def test_json_round_trip_replays(self, name):
        cert = CERTIFICATES[name]()
        assert Certificate.from_json(json.loads(json.dumps(cert.to_json()))).replay()

    def test_altering_any_field_fails(self, name):
        cert = CERTIFICATES[name]()
        for field, value in cert.data.items():
            assert not replays(cert.kind, {**cert.data, field: altered(value)}), field

    def test_dropping_any_field_fails(self, name):
        cert = CERTIFICATES[name]()
        for field in cert.data:
            bad = {k: v for k, v in cert.data.items() if k != field}
            assert not replays(cert.kind, bad), field

    def test_a_retyped_number_or_boolean_fails(self, name):
        # 9.0 == 9 and 1 == True, but the derivation records 9 and true
        cert = CERTIFICATES[name]()
        checked = 0
        for field, value in cert.data.items():
            other = retyped(value)
            if other is not None:
                assert other == value
                assert not replays(cert.kind, {**cert.data, field: other}), field
                checked += 1
        assert checked

    def test_an_extra_field_fails(self, name):
        cert = CERTIFICATES[name]()
        assert not replays(cert.kind, {**cert.data, "note": "unchecked"})


def test_altered_completion_dimension_fails():
    cert = ap_failure_certificate(2)
    bad = copy.deepcopy(cert.data)
    bad["completions"][0]["dimension"] = 2
    assert not replays(cert.kind, bad)


def test_every_kind_has_a_derivation():
    assert set(homogeneity._DERIVE) == set(CertificateKind)


class TestMalformedData:
    def test_empty_data(self):
        assert not Certificate.from_json({"kind": "ap-failure", "data": {}}).replay()

    @pytest.mark.parametrize("n", ["x", "2", 2.0, True, None])
    def test_width_that_is_no_integer(self, n):
        assert not Certificate(CertificateKind.APFailure, {"n": n}).replay()

    def test_negative_step_count(self):
        # at steps=-7 the certificate's data would differ from the steps=0
        # data in that field alone, as if no step had run
        pts = [(4 * k, 4 * k + 1) for k in range(4)]
        cloud, pair1, pair2 = PointCloud(2, pts), (pts[0], pts[1]), (pts[2], pts[3])
        with pytest.raises(TooSmall):
            two_homogeneity_certificate(cloud, pair1, pair2, steps=-7)
        cert = two_homogeneity_certificate(cloud, pair1, pair2, steps=0)
        assert cert.replay()
        assert not Certificate(cert.kind, dict(cert.data, steps=-7)).replay()

    def test_pair_index_past_the_cloud(self):
        data = dict(two_homogeneity_demo(2).data, pair2=[2, 4])
        assert not Certificate(CertificateKind.TwoHomogeneityExtension, data).replay()

    def test_data_that_is_a_list(self):
        assert not Certificate.from_json({"kind": "ap-failure", "data": []}).replay()

    def test_typed_errors_of_the_derivation_propagate(self):
        with pytest.raises(LimitExceeded, match="certificate grid search"):
            Certificate(CertificateKind.NotUltrahomogeneous, {"n": 8}).replay()
        with pytest.raises(TooSmall):
            Certificate(CertificateKind.QnLexNotUltrahomogeneous, {"n": 1}).replay()


class TestGridBudget:
    @pytest.mark.parametrize("build", [nonhom_witness, qn_lex_nonhom_witness])
    def test_grid_past_the_budget_is_refused(self, build, monkeypatch):
        # the box one unit beyond the points has 11 ticks per axis
        monkeypatch.setenv("ORDERDIM_BUDGET", str(11**3 - 1))
        with pytest.raises(
            LimitExceeded, match="certificate grid search: grid points: 1331 cases"
        ):
            build(3)
        monkeypatch.setenv("ORDERDIM_BUDGET", str(11**3))
        assert build(3).replay()

    def test_a_count_past_the_digit_cap_is_refused(self):
        # 11^5000 has more digits than an int may print with by default
        with pytest.raises(
            LimitExceeded, match=r"^certificate grid search: grid points: at least 10\^5206 cases"
        ):
            nonhom_witness(5000)


class TestApChase:
    def test_matches_the_warshall_chase_on_the_diagram(self):
        for n in range(2, 31):
            base, free, fragments = homogeneity._ap_rows(n)[1:]
            assert homogeneity._verify_chase(base, free, fragments)
            assert oracle_verify_chase(base, free, fragments)

    def test_matches_the_warshall_chase_on_random_relations(self):
        rng = random.Random(18)
        verdicts = []
        for _ in range(400):
            m = rng.randint(2, 9)
            base = list(random_poset(rng, m).up)
            free = [tuple(rng.sample(range(m), 2)) for _ in range(rng.randint(1, 3))]
            fragments = [rng.getrandbits(m) for _ in range(rng.randint(1, 3))]
            verdict = homogeneity._verify_chase(base, free, fragments)
            assert verdict == oracle_verify_chase(base, free, fragments)
            verdicts.append(verdict)
        assert True in verdicts and False in verdicts

    def test_largest_diagram_builds_and_replays(self):
        cert = ap_failure_certificate(511)
        assert len(cert.data["elements"]) == MAX_GENERATED_ELEMENTS
        assert cert.data["mode"] == "chase" and cert.replay()

    def test_diagram_past_the_cap_is_refused(self):
        with pytest.raises(LimitExceeded, match="past the cap of 1024 elements"):
            ap_failure_certificate(512)
