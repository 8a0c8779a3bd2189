"""One test per advertised guarantee, end to end through the public API.

Each test is self-contained and states what it checks; pinned constants
were computed by independent oracles in the module test files before
being frozen here.  Test eleven documents a genuine finite-scale gap and
is expected to fail: small clouds admit realizer tuples beyond the n!
axis-permutation classes, so the census law of the infinite structure
has no faithful finite witness.  The decision is deliberate; weakening
the assertion would hide the gap.
"""

import random
import time
from fractions import Fraction
from itertools import permutations, product as iter_product
from math import factorial

import pytest

from conftest import naive_is_realizer, random_poset, random_structure
from orderdim.dimension import dimension
from orderdim.flow import (
    cloud_automorphisms,
    enumerate_realizers,
    extend_realizer_closure,
    logic_action,
    symmetric_sample,
)
from orderdim.geometry import (
    PartialEmbedding,
    PointCloud,
    back_and_forth_iso,
    cyclic_priority,
    forth_extend,
    induced_structure,
    lex_less,
    regions_of,
    sample_dn,
)
from orderdim.homogeneity import (
    FlipPattern,
    ap_failure_certificate,
    nonhom_witness,
    qn_lex_nonhom_witness,
    two_homogeneity_extend,
)
from orderdim.poset import (
    LinearOrder,
    OrderedStructure,
    RealizerTuple,
    crown,
    is_realizer,
    product_less,
    szpilrajn_extend,
)
from orderdim.ramsey import (
    GridStruct,
    product_ramsey_number,
    ramsey_witness_check,
    rigid_embed,
)

SIX_POINT_PLANE_CELLS = 49  # 7 * 7: six strict points cut each axis seven ways
PRODUCT_RAMSEY_SINGLETON = 3  # points of a 3-chain, 2 colors: pigeonhole
PRODUCT_RAMSEY_PLANE = 5  # exhaustive search result, frozen as a regression


def test_01_crown_dimensions_exact():
    start = time.monotonic()
    for n in (2, 3, 4):
        res = dimension(crown(n))
        assert res.dim == n
        assert is_realizer(crown(n), res.witness)
    assert time.monotonic() - start < 60


def test_02_hiraguchi_bound_on_random_posets():
    rng = random.Random(11)
    violations = 0
    for i in range(500):
        m = 4 + (i % 5)
        p = random_poset(rng, m)
        if dimension(p).dim > m // 2:
            violations += 1
    assert violations == 0


def test_03_minimal_cell_counts():
    six = sample_dn(2, 6, seed=17)
    assert len(regions_of(six)) == SIX_POINT_PLANE_CELLS
    # clouds live in dimension >= 2, so the law is swept over n in {2, 3}
    for k in range(7):
        for n in (2, 3):
            cloud = sample_dn(n, k, seed=10 * n + k)
            assert len(regions_of(cloud)) == (k + 1) ** n


def test_04_forth_extension_soundness():
    rng = random.Random(4)
    good = 0
    for run in range(1000):
        m = rng.randint(2, 7)
        n = rng.choice((2, 3))
        s = random_structure(rng, m, n)
        emb = PartialEmbedding(
            source=s, cloud=sample_dn(n, 3, seed=run), images=()
        )
        for e in s.elements:
            emb = forth_extend(emb, e)
        emb.verify()
        # plain-loop re-check that the image carries the source structure
        pts = {e: emb.cloud.points[i] for e, i in emb.mapping.items()}
        ok = True
        for x in s.elements:
            for y in s.elements:
                if x == y:
                    continue
                if s.poset.less(x, y) != product_less(pts[x], pts[y]):
                    ok = False
                for i in range(n):
                    want = s.realizers.orders[i].before(x, y)
                    if want != lex_less(pts[x], pts[y], cyclic_priority(i, n)):
                        ok = False
        good += ok
    assert good == 1000


def test_05_back_and_forth_partial_isomorphism():
    a = sample_dn(2, 4, seed=21)
    b = sample_dn(2, 5, seed=22)
    fwd, bwd = back_and_forth_iso(a, b, 20)
    fwd.verify()
    bwd.verify()
    assert len(fwd.images) == 20
    assert len(bwd.images) == 20
    for x, yi in fwd.images:
        assert bwd.mapping[f"p{yi}"] == int(x[1:])


def test_06_amalgamation_failure_certificate():
    start = time.monotonic()
    cert = ap_failure_certificate(2)
    completions = cert.data["completions"]
    assert cert.data["assignments_tried"] == 9
    assert len(completions) >= 1
    assert all(c["dimension"] > 2 for c in completions)
    assert all(c["is_crown"] for c in completions)
    assert cert.replay()
    assert time.monotonic() - start < 30


def test_07_nonhomogeneity_witnesses_replay():
    for n in (2, 3):
        assert nonhom_witness(n).replay()
        assert qn_lex_nonhom_witness(n).replay()


def test_08_two_homogeneity_extensions():
    rng = random.Random(88)
    done = 0
    while done < 200:
        c = sample_dn(2, 5, seed=3000 + done)
        i, j = rng.sample(range(5), 2)
        i2, j2 = rng.sample(range(5), 2)
        u, v = c.points[i], c.points[j]
        u2, v2 = c.points[i2], c.points[j2]
        if (
            FlipPattern.of_pair(u, v).ascents
            != FlipPattern.of_pair(u2, v2).ascents
        ):
            continue
        emb = two_homogeneity_extend(c, (u, v), (u2, v2), steps=10)
        assert len(emb.images) >= 12
        emb.verify()
        for x, xi in emb.images:
            for y, yi in emb.images:
                if x == y:
                    continue
                assert emb.source.poset.less(x, y) == product_less(
                    emb.cloud.points[xi], emb.cloud.points[yi]
                )
        done += 1
    assert done == 200


def _plane_structures(m):
    """All two-order structures on m elements, one per isomorphism class.

    Relabeling by the first order's ranks turns any pair of linear
    orders into (identity, pi), and the only label bijection fixing a
    linear order is the identity, so the classes are exactly the
    permutations pi of the m labels.
    """
    labels = [f"e{i}" for i in range(m)]
    for pi in permutations(range(m)):
        yield OrderedStructure.from_orders(
            [LinearOrder(labels), LinearOrder([labels[k] for k in pi])]
        )


def _brute_grid_embeddings(s, m):
    """Every colinearity-free order-preserving map into the m x m grid."""
    cells = list(iter_product(range(1, m + 1), repeat=2))
    found = []
    for image in permutations(cells, m):
        if any(
            image[i][ax] == image[j][ax]
            for i in range(m)
            for j in range(i + 1, m)
            for ax in range(2)
        ):
            continue
        ok = True
        for i, x in enumerate(s.elements):
            for j, y in enumerate(s.elements):
                if i == j:
                    continue
                for ax in range(2):
                    want = s.realizers.orders[ax].before(x, y)
                    if want != (image[i][ax] < image[j][ax]):
                        ok = False
        if ok:
            found.append(image)
    return found


def test_09_rigid_embedding_uniqueness():
    examined = 0
    for m in range(1, 6):
        for s in _plane_structures(m):
            examined += 1
            ranks = rigid_embed(s)
            # a colinearity-free embedding restricts to a bijection onto
            # {1..m} on each axis, so scanning per-axis bijections is
            # exhaustive over all candidate embeddings
            for ax in range(2):
                order = s.realizers.orders[ax]
                survivors = [
                    phi
                    for phi in permutations(range(1, m + 1))
                    if all(
                        (phi[i] < phi[j]) == order.before(x, y)
                        for i, x in enumerate(s.elements)
                        for j, y in enumerate(s.elements)
                        if i != j
                    )
                ]
                assert survivors == [tuple(r[ax] for r in ranks)]
            for i, x in enumerate(s.elements):
                for j, y in enumerate(s.elements):
                    if i != j:
                        below = all(a < b for a, b in zip(ranks[i], ranks[j]))
                        assert below == s.poset.less(x, y)
            if m <= 3:
                assert _brute_grid_embeddings(s, m) == [tuple(ranks)]
    assert examined == sum(factorial(m) for m in range(1, 6))


def _agreement_instances():
    def grid(m, n):
        return GridStruct(m, n).structure

    def plane_chain(m):
        labs = [f"c{i}" for i in range(m)]
        return OrderedStructure.from_orders(
            [LinearOrder(labs), LinearOrder(labs)]
        )

    def plane_antichain(m):
        labs = [f"c{i}" for i in range(m)]
        return OrderedStructure.from_orders(
            [LinearOrder(labs), LinearOrder(list(reversed(labs)))]
        )

    crown_s = OrderedStructure(crown(2), dimension(crown(2)).witness)
    out = []
    for r in (2, 3, 4, 5):
        for k in (2, 3):
            out.append((grid(1, 1), grid(2, 1), k, r))
    for r in (3, 4, 5):
        out.append((grid(1, 1), grid(3, 1), 2, r))
        out.append((grid(2, 1), grid(3, 1), 2, r))
    out.append((grid(1, 1), grid(3, 1), 3, 4))
    for r in (4, 5):
        out.append((grid(2, 1), grid(4, 1), 2, r))
        out.append((grid(3, 1), grid(4, 1), 2, r))
    for r in (2, 3):
        for k in (2, 3):
            out.append((grid(1, 2), plane_chain(2), k, r))
        out.append((grid(1, 2), plane_antichain(2), 2, r))
        out.append((plane_antichain(2), plane_antichain(2), 2, r))
    out.append((plane_chain(2), plane_chain(2), 2, 2))
    out.append((plane_antichain(2), plane_antichain(3), 2, 3))
    out.append((grid(1, 2), crown_s, 2, 4))
    return out


def test_10_product_ramsey_oracle_agreement():
    assert product_ramsey_number(2, 1, 2, 1) == PRODUCT_RAMSEY_SINGLETON
    assert product_ramsey_number(2, 1, 2, 2) == PRODUCT_RAMSEY_PLANE
    instances = _agreement_instances()
    assert len(instances) >= 20
    for a, b, k, r in instances:
        red = ramsey_witness_check(a, b, k, r, method="reduction")
        exh = ramsey_witness_check(a, b, k, r, method="exhaustive")
        assert red == exh


@pytest.mark.xfail(
    strict=True,
    reason="finite-scale gap: small generic clouds admit realizer tuples "
    "beyond the n! axis classes (four plane points can carry census six), "
    "and no sampled three-axis cloud classifies a full census of six; the "
    "census law holds only in the infinite limit",
)
def test_11_realizer_census_is_factorial():
    for k in range(50):
        n = 2 if k % 2 == 0 else 3
        size = 3 + (k % 4)
        c = sample_dn(n, size, seed=2000 + k)
        rs = enumerate_realizers(induced_structure(c))
        sigmas = [sigma for _t, sigma in rs.tuples]
        assert rs.census == factorial(n)
        assert None not in sigmas
        assert len(set(sigmas)) == rs.census


def test_12_realizer_extension_to_supersets():
    for k in range(50):
        n = 2 if k % 2 == 0 else 3
        size = 3 + (k % 4)
        sub = sample_dn(n, size, seed=1000 + k)
        extras = [
            tuple(Fraction(v) for v in e)
            for e in (
                [(0, 0), (0, 1), (1, 0)]
                if n == 2
                else [(0, 0, 0), (0, 0, 1), (0, 1, 0)]
            )
        ]
        assert not set(extras) & set(sub.points)
        combined = PointCloud(n, list(sub.points) + extras, strict=False)
        st = induced_structure(combined)
        sub_st = induced_structure(sub)
        exts = []
        for i in range(n):
            closed = extend_realizer_closure(
                st.poset, sub_st.realizers.orders[i]
            )
            lex = st.realizers.orders[i]
            forced = [
                (lex.order[t], lex.order[t + 1]) for t in range(len(lex) - 1)
            ]
            exts.append(szpilrajn_extend(closed, forced=forced))
        assert is_realizer(st.poset, RealizerTuple(exts))


def test_13_logic_action_on_clouds():
    clouds = [
        PointCloud(2, [(1, 6), (2, 5), (3, 4)]),
        PointCloud(2, [(1, 8), (2, 7), (3, 6), (4, 5)]),
        symmetric_sample(2, 2, seed=0),
        sample_dn(2, 4, seed=5),
        sample_dn(2, 4, seed=0),
        PointCloud(3, [(1, 1, 1), (2, 2, 2), (4, 4, 0)]),
        PointCloud(3, [(1, 2, 9), (2, 3, 1)]),
        sample_dn(3, 6, seed=1),
    ]
    for c in clouds:
        st = induced_structure(c)
        autos = cloud_automorphisms(c)
        tuples = [st.realizers]
        if len(c) <= 4:
            rs = enumerate_realizers(st)
            tuples.extend(t for t, _sigma in rs.tuples)
        for g in autos:
            for t in tuples:
                moved = logic_action(g, t)
                assert naive_is_realizer(st.poset, moved)
            for h in autos:
                composed = {x: g[h[x]] for x in h}
                assert logic_action(composed, st.realizers) == logic_action(
                    g, logic_action(h, st.realizers)
                )
