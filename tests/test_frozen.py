"""The library's result classes against frozen-dataclass twins.

Each result class was a ``@dataclass(frozen=True)`` and is now a
``__slots__`` subclass of ``poset._Frozen``.  The oracle is a frozen
dataclass with the same name and fields, built here: on sample values
the two must agree on repr, ==, hash (or the TypeError of an unhashable
field), construction and the refusal of attribute assignment, and each
class's constructor must still refuse what its ``__post_init__``
refused.  ``Narrower``, a subclass that adds no slot, must keep the
fields of its base.  The value classes that joined the same base
(posets, orders, realizer tuples, structures, clouds and grids) have no
dataclass past; they are held to the base's immutability, copy, pickle
and hashing.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from fractions import Fraction
from functools import lru_cache

import pytest

from orderdim.dimension import DimensionResult, dimension
from orderdim.errors import ElementMismatch, NotARealizer, TooSmall
from orderdim.flow import (
    DecompositionReport,
    RealizerSet,
    enumerate_realizers,
    semidirect_decomposition,
    symmetric_sample,
)
from orderdim.geometry import (
    PartialEmbedding,
    PointCloud,
    Region,
    back_and_forth_iso,
    sample_dn,
)
from orderdim.homogeneity import (
    AxiomReport,
    Certificate,
    CertificateKind,
    DensityDefect,
    FlipPattern,
    ap_failure_certificate,
    check_dpo_fragment,
)
from orderdim.poset import (
    FinitePoset,
    LinearOrder,
    OrderedStructure,
    RealizerTuple,
    antichain,
    chain,
    crown,
    is_realizer,
    validate_poset,
)
from orderdim.ramsey import Coloring, GridStruct, Subgrid


class Narrower(Region):
    """A subclass that adds no field; its twin is a dataclass of Region's."""

    __slots__ = ()


# The dataclass fields of each former class, in order.
FIELDS = {
    DimensionResult: ("dim", "witness"),
    Region: ("intervals",),
    PartialEmbedding: ("source", "cloud", "images"),
    FlipPattern: ("signs",),
    DensityDefect: ("region", "witnesses", "gaps"),
    AxiomReport: ("density_defects",),
    Certificate: ("kind", "data"),
    Subgrid: ("axes",),
    Coloring: ("kind", "k", "keys", "values"),
    RealizerSet: ("base", "tuples"),
    Narrower: ("intervals",),
    DecompositionReport: (
        "group_size",
        "axis_permutations",
        "exact",
        "factorizations",
        "failures",
    ),
}

STRUCTURE = OrderedStructure.from_orders(
    [LinearOrder(("a", "b", "c")), LinearOrder(("b", "c", "a"))]
)


@lru_cache(maxsize=None)
def twin(cls: type) -> type:
    """A frozen dataclass named like cls, with cls's former fields."""
    return dataclasses.make_dataclass(cls.__name__, FIELDS[cls], frozen=True)


@lru_cache(maxsize=None)
def samples() -> dict[type, list]:
    """At least two instances of each class, most from library calls."""
    report = check_dpo_fragment(sample_dn(2, 3, seed=0))
    fwd, bwd = back_and_forth_iso(sample_dn(2, 3, seed=0), sample_dn(2, 3, seed=1), 3)
    coloring = Coloring("subgrids", 2, ((1,), (2,), (3,)), (1, 2, 1))
    coloring.color((2,))  # fills the cached lookup, which is no field
    return {
        DimensionResult: [
            dimension(crown(3)),
            dimension(antichain(3)),
            DimensionResult(3, dimension(crown(3)).witness),
        ],
        Region: [
            Region(((Fraction(0), Fraction(1)), (None, Fraction(2)))),
            Region(((None, None),)),
            Region(((Fraction(0), Fraction(1)), (None, Fraction(2)))),
        ],
        PartialEmbedding: [fwd, bwd],
        FlipPattern: [FlipPattern((True, False)), FlipPattern((False, True))],
        DensityDefect: list(report.density_defects[:3]),
        AxiomReport: [report, check_dpo_fragment(sample_dn(2, 4, seed=2))],
        Certificate: [
            ap_failure_certificate(2),
            Certificate(CertificateKind.APFailure, {}),
        ],
        Subgrid: [Subgrid(((1, 2), (1, 3))), Subgrid(((1,),)), Subgrid(((1, 2), (1, 3)))],
        Coloring: [
            coloring,
            Coloring("subgrids", 2, ((1,), (2,), (3,)), (1, 2, 1)),
            Coloring("copies", 3, (("a",), ("b",)), (3, 1)),
        ],
        RealizerSet: [enumerate_realizers(STRUCTURE), RealizerSet(STRUCTURE, ())],
        DecompositionReport: [
            semidirect_decomposition(symmetric_sample(2, 2)),
            DecompositionReport(1, 1, False, (), ()),
        ],
        Narrower: [
            Narrower(((Fraction(0), Fraction(1)),)),
            Narrower(((None, Fraction(2)), (Fraction(1), None))),
            Narrower(((Fraction(0), Fraction(1)),)),
        ],
    }


def as_twin(x):
    cls = type(x)
    return twin(cls)(*(getattr(x, f) for f in FIELDS[cls]))


def hash_or_error(x):
    try:
        return hash(x)
    except TypeError as exc:
        return TypeError, str(exc)


CLASSES = sorted(FIELDS, key=lambda c: c.__name__)
IDS = [c.__name__ for c in CLASSES]


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
class TestAgainstTheDataclassTwin:
    def test_repr(self, cls):
        for x in samples()[cls]:
            assert repr(x) == repr(as_twin(x))

    def test_equality_within_the_class(self, cls):
        xs = samples()[cls]
        for a in xs:
            for b in xs:
                assert (a == b) == (as_twin(a) == as_twin(b))
                assert (a != b) == (as_twin(a) != as_twin(b))

    def test_no_equality_across_classes(self, cls):
        for x in samples()[cls]:
            assert x != as_twin(x)
            assert as_twin(x) != x
            assert x.__eq__(as_twin(x)) is NotImplemented
            assert x != tuple(getattr(x, f) for f in FIELDS[cls])

    def test_hash_or_the_same_type_error(self, cls):
        for x in samples()[cls]:
            assert hash_or_error(x) == hash_or_error(as_twin(x))

    def test_construction_by_position_and_keyword(self, cls):
        assert cls.__match_args__ == twin(cls).__match_args__ == FIELDS[cls]
        for x in samples()[cls]:
            values = [getattr(x, f) for f in FIELDS[cls]]
            assert cls(*values) == x
            assert cls(**dict(zip(FIELDS[cls], values))) == x

    def test_missing_unknown_and_repeated_fields_raise_type_error(self, cls):
        x = samples()[cls][0]
        values = [getattr(x, f) for f in FIELDS[cls]]
        first = FIELDS[cls][0]
        for make in (cls, twin(cls)):
            with pytest.raises(TypeError):
                make(*values[:-1])
            with pytest.raises(TypeError):
                make(*values, None)
            with pytest.raises(TypeError):
                make(*values, extra=None)
            with pytest.raises(TypeError):
                make(*values, **{first: values[0]})
            with pytest.raises(TypeError):
                make(**dict(zip(FIELDS[cls][1:], values[1:])))

    def test_assignment_and_deletion_raise(self, cls):
        for x in samples()[cls]:
            for f in (*FIELDS[cls], "extra"):
                with pytest.raises(AttributeError):
                    setattr(x, f, None)
                with pytest.raises(AttributeError):
                    setattr(as_twin(x), f, None)
            for f in FIELDS[cls]:
                with pytest.raises(AttributeError):
                    delattr(x, f)
            assert repr(x) == repr(as_twin(x))

    def test_copy_and_pickle(self, cls):
        for x in samples()[cls]:
            assert copy.copy(x) == x
            assert copy.deepcopy(x) == x
            assert pickle.loads(pickle.dumps(x)) == x


def test_equal_fields_of_another_class_are_unequal():
    intervals = ((1, 2),)
    assert Region(intervals) != Subgrid(intervals)
    assert Subgrid(intervals) != Region(intervals)

    twin_narrower = dataclasses.make_dataclass(
        "Narrower", [], bases=(twin(Region),), frozen=True
    )
    assert Narrower(intervals) != Region(intervals)
    assert twin_narrower(intervals) != twin(Region)(intervals)


class TestFormerPostInitChecks:
    @pytest.mark.parametrize(
        "intervals, message",
        [
            (((Fraction(1), Fraction(1)),), "empty interval (1, 1)"),
            (((None, None), (Fraction(2), Fraction(1))), "empty interval (2, 1)"),
        ],
    )
    def test_region_refuses_an_empty_interval(self, intervals, message):
        with pytest.raises(TooSmall) as info:
            Region(intervals)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "axes, error",
        [
            ((), TooSmall),
            (((),), ElementMismatch),
            (((1, 1),), ElementMismatch),
            (((1, 2), (3, 2)), ElementMismatch),
        ],
    )
    def test_subgrid_refuses_bad_axes(self, axes, error):
        with pytest.raises(error):
            Subgrid(axes)

    @pytest.mark.parametrize(
        "args, error, message",
        [
            (("cells", 2, ((1,),), (1,)), ElementMismatch, "unknown coloring kind 'cells'"),
            (("copies", 0, (), ()), TooSmall, "colorings need k >= 1"),
            (("copies", 2, ((1,),), ()), ElementMismatch, "one value per target key required"),
            (("copies", 2, ((1,), (1,)), (1, 2)), ElementMismatch, "target keys must be distinct"),
            (("copies", 2, ((1,),), (3,)), ElementMismatch, "colors must lie in 1..k"),
            (("copies", 2, ((1,),), (0,)), ElementMismatch, "colors must lie in 1..k"),
        ],
    )
    def test_coloring_refuses_bad_colours(self, args, error, message):
        with pytest.raises(error) as info:
            Coloring(*args)
        assert str(info.value) == message

    def test_realizer_set_refuses_a_non_realizer(self):
        order = STRUCTURE.realizers.orders[0]
        with pytest.raises(NotARealizer):
            RealizerSet(STRUCTURE, ((RealizerTuple([order, order]), None),))
        foreign = LinearOrder(("a", "b", "x"))
        with pytest.raises(ElementMismatch):
            RealizerSet(STRUCTURE, ((RealizerTuple([foreign, foreign]), None),))

    def test_coloring_keeps_its_cached_lookup(self):
        c = Coloring("copies", 2, (("a",), ("b",)), (2, 1))
        assert c.color(("b",)) == 1
        assert "_lookup" in c.__dict__
        with pytest.raises(ElementMismatch):
            c.color(("z",))


# The value classes that sit on the same base, each with its fields.
VALUE_FIELDS = {
    FinitePoset: ("elements", "up", "down"),
    LinearOrder: ("order",),
    RealizerTuple: ("orders",),
    OrderedStructure: ("poset", "realizers"),
    PointCloud: ("dim", "points", "strict"),
    GridStruct: ("m", "n"),
}


def value_samples(cls: type) -> list:
    """Two or more instances of a value class, some with their cached
    properties filled, which are no fields."""
    read = crown(3)
    read.lt  # fills the cached matrix
    order = LinearOrder(("b", "a", "c"))
    order.rank  # fills the cached ranks
    relaxed = PointCloud(3, [(0, 0, 0), (0, 1, 2)], strict=False)
    relaxed.axis_values(1)
    grid = GridStruct(2, 2)
    grid.structure  # fills the cached points and structure
    return {
        FinitePoset: [read, antichain(2), chain(3)],
        LinearOrder: [order, LinearOrder(("x",))],
        RealizerTuple: [STRUCTURE.realizers, RealizerTuple([order, order])],
        OrderedStructure: [STRUCTURE, grid.structure],
        PointCloud: [sample_dn(2, 3, seed=0), relaxed, PointCloud(2, [])],
        GridStruct: [grid, GridStruct(3, 1)],
    }[cls]


VALUE_CLASSES = sorted(VALUE_FIELDS, key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=[c.__name__ for c in VALUE_CLASSES])
class TestValueClasses:
    def test_fields(self, cls):
        assert cls.__match_args__ == VALUE_FIELDS[cls]

    def test_assignment_and_deletion_raise(self, cls):
        for x in value_samples(cls):
            before = tuple(getattr(x, f) for f in VALUE_FIELDS[cls])
            for f in (*VALUE_FIELDS[cls], "extra"):
                with pytest.raises(AttributeError):
                    setattr(x, f, None)
            for f in VALUE_FIELDS[cls]:
                with pytest.raises(AttributeError):
                    delattr(x, f)
            assert tuple(getattr(x, f) for f in VALUE_FIELDS[cls]) == before

    def test_pickle_and_deepcopy_give_an_equal_value_and_hash(self, cls):
        for x in value_samples(cls):
            for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
                assert type(y) is cls
                assert y == x
                assert hash(y) == hash(x)
                assert repr(y) == repr(x)

    def test_equal_values_hash_alike_and_differ_from_others(self, cls):
        xs = value_samples(cls)
        assert len(set(xs)) == len(xs)
        for a in xs:
            assert {a: 1}[pickle.loads(pickle.dumps(a))] == 1
            for b in xs:
                assert (a == b) == (a is b)


def test_a_structure_keeps_the_realizer_it_was_checked_with():
    other = OrderedStructure.from_orders([LinearOrder(("a", "b", "c"))] * 2)
    with pytest.raises(AttributeError):
        STRUCTURE.realizers = other.realizers  # type: ignore[misc]
    assert is_realizer(STRUCTURE.poset, STRUCTURE.realizers)


def test_a_poset_keeps_its_rows_in_step():
    p = crown(3)
    with pytest.raises(AttributeError):
        p.up = chain(6).up  # type: ignore[misc]
    assert p == validate_poset(p.elements, [list(r) for r in p.lt])
    assert p.down == crown(3).down


def test_a_poset_pickles_through_its_rows():
    # the constructor takes a matrix, not the fields; the rows come back
    p = crown(4)
    again = pickle.loads(pickle.dumps(p))
    assert (again.elements, again.up, again.down) == (p.elements, p.up, p.down)
