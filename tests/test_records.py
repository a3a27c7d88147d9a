"""The package's immutable records: fields, equality, hash, repr, checks.

Each record is compared with a frozen dataclass of the same fields and
values, the format the records printed in before they had a base of their
own.
"""

import dataclasses
from fractions import Fraction

import pytest

from aacohom.ce_complex import AlgebraSpec, CohomologyBasis, cohomology_basis
from aacohom.errors import InvalidParameterError, Record
from aacohom.kneser import InvertibilityCertificate, KneserGraph, verify_invertible
from aacohom.lattice import (
    Hypothesis1Certificate,
    LatticeSpec,
    PellSolution,
    build_lattice,
    hypothesis1_certificate,
    pell_min_solution,
)
from aacohom.lefschetz import (
    Block,
    HardLefschetzReport,
    LefschetzMatrix,
    OperatorSummary,
    SymplecticForm,
    hard_lefschetz_report,
    lefschetz_matrix,
)
from aacohom.render import OnesRows
from oracles import replace

# record -> (two unequal instances of it, built by the package where it can)
INSTANCES = {
    AlgebraSpec: lambda: (AlgebraSpec.explicit([1, 2]), AlgebraSpec.ones(3)),
    CohomologyBasis: lambda: (
        cohomology_basis(AlgebraSpec.ones(3), 2),
        cohomology_basis(AlgebraSpec.generic(3), 2),
    ),
    KneserGraph: lambda: (KneserGraph(5, 2), KneserGraph(5, 1)),
    InvertibilityCertificate: lambda: (
        verify_invertible(KneserGraph(5, 2)),
        verify_invertible(KneserGraph(4, 1)),
    ),
    PellSolution: lambda: (pell_min_solution(5), pell_min_solution(2)),
    Hypothesis1Certificate: lambda: (
        hypothesis1_certificate([3, 4]),
        hypothesis1_certificate([3]),
    ),
    LatticeSpec: lambda: (build_lattice("II", 2, 3), build_lattice("II", 3, 3)),
    SymplecticForm: lambda: (
        SymplecticForm.standard(AlgebraSpec.ones(3)),
        SymplecticForm.standard(AlgebraSpec.ones(2)),
    ),
    LefschetzMatrix: lambda: (
        lefschetz_matrix(AlgebraSpec.ones(3), 1),
        lefschetz_matrix(AlgebraSpec.ones(3), 2),
    ),
    Block: lambda: (
        Block(0, 10, "kneser", (5, 2), "p=0"),
        Block(0, 1, "identity", (), "p=0"),
    ),
    OperatorSummary: lambda: (
        OperatorSummary(0, 1, Fraction(1)),
        OperatorSummary(1, 2, Fraction(-1)),
    ),
    HardLefschetzReport: lambda: (
        hard_lefschetz_report(AlgebraSpec.ones(3)),
        hard_lefschetz_report(AlgebraSpec.generic(3)),
    ),
    OnesRows: lambda: (OnesRows(2, ((1,), (0,))), OnesRows(2, ((0,), (1,)))),
}


def _values(record):
    return [getattr(record, name) for name in record.__annotations__]


def test_every_record_is_listed():
    assert set(Record.__subclasses__()) == set(INSTANCES)


@pytest.mark.parametrize("cls", INSTANCES, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    record, other = INSTANCES[cls]()
    assert type(record) is cls and type(other) is cls
    assert record._fields == tuple(cls.__annotations__)
    # a copy made through the constructor, and the dataclass of old
    copy = replace(record)
    old = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
    assert copy is not record and copy == record and not copy != record
    assert record != other
    assert repr(record) == repr(old(*_values(record)))
    assert vars(copy) == dict(zip(cls._fields, _values(record)))
    if cls is LefschetzMatrix:  # its columns are dicts
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(copy) == hash(record)
    # equality is strict by type
    assert record != tuple(_values(record)) and record != old(*_values(record))
    for stranger in INSTANCES:
        if stranger is not cls:
            assert record != INSTANCES[stranger]()[0]
    # no field can be assigned or deleted, nor a new attribute set
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert replace(record) == copy  # the refused changes changed nothing


def test_equal_values_in_another_record_class_differ():
    assert KneserGraph(5, 2) != OnesRows(5, 2) and OnesRows(5, 2) != KneserGraph(5, 2)


def test_pinned_reprs():
    assert repr(KneserGraph(5, 2)) == "KneserGraph(n=5, k=2)"
    assert repr(AlgebraSpec.explicit([1, "1/2"])) == (
        "AlgebraSpec(n=3, mode=<Mode.EXPLICIT: 'explicit'>, "
        "b=(Fraction(1, 1), Fraction(1, 2)))"
    )
    assert repr(AlgebraSpec.ones(4)) == (
        "AlgebraSpec(n=4, mode=<Mode.ONES: 'ones'>, b=None)"
    )
    assert repr(Block(0, 10, "kneser", (5, 2), "p=0")) == (
        "Block(offset=0, size=10, kind='kneser', params=(5, 2), tag='p=0')"
    )
    assert repr(pell_min_solution(5)) == "PellSolution(d=5, m=3, k=1)"
    assert repr(OnesRows(1, ((0,),))) == "OnesRows(width=1, ones=((0,),))"


def test_defaults_and_keywords():
    assert AlgebraSpec.ones(3).b is None
    assert AlgebraSpec(n=3, mode=AlgebraSpec.ones(3).mode) == AlgebraSpec.ones(3)
    package = build_lattice("II", 2, 3)
    assert package.certificate is None
    assert LatticeSpec(*_values(package)[:-1]) == package
    assert Block(0, 1, "identity", (), tag="") == Block(0, 1, "identity", (), "")
    with pytest.raises(TypeError, match="misses the field 'tag'"):
        Block(0, 1, "identity", ())
    for extra in ({"colour": 1}, {"offset": 0}):
        with pytest.raises(TypeError, match="has only the fields"):
            Block(0, 1, "identity", (), "", **extra)
    with pytest.raises(TypeError, match="has only the fields"):
        Block(0, 1, "identity", (), "", None)


def test_records_check_their_input():
    spec = AlgebraSpec.explicit([1, 2])
    assert spec.b == (1, 2) and all(type(v) is Fraction for v in spec.b)
    assert spec.bit_weights == ((0, 1, 2, -1, -2, 0), 1)  # a cached_property
    assert "bit_weights" in vars(spec) and spec == AlgebraSpec.explicit([1, 2])
    with pytest.raises(InvalidParameterError):
        KneserGraph(3, 4)
    with pytest.raises(InvalidParameterError):
        PellSolution(5, 2, 0)
    with pytest.raises(ValueError, match="explicit mode needs exactly 2"):
        AlgebraSpec(3, spec.mode, (1, 2, 3))
    # a copy with changes is checked again
    with pytest.raises(InvalidParameterError):
        replace(KneserGraph(5, 2), k=6)
    with pytest.raises(InvalidParameterError):
        replace(pell_min_solution(5), k=2)
    assert replace(spec, b=(3, 4)).b == (Fraction(3), Fraction(4))
