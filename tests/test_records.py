"""The package's value types: nine NamedTuple records and two read-only
slotted classes, none of them a dataclass."""

import copy
import pickle

import pytest

from crystalk.cli import CATALOG
from crystalk.intlin import IntMatrix, nonzeros, smith_normal_form
from crystalk.lattice import validate_involution
from crystalk.oracle import fixed_grid_components, involution_corpus
from crystalk.toruskt import cohomology_invariants, fixed_set

PM = IntMatrix.from_rows([[1, 0], [0, -1]])


def records():
    lat = validate_involution(PM)
    return [
        smith_normal_form(PM),
        nonzeros(PM),
        lat.analysis.invariants,
        lat.analysis,
        fixed_set(lat.analysis),
        cohomology_invariants(lat.analysis),
        fixed_grid_components(PM, 2),
        involution_corpus(1, seed=0, count=1)[0],
        CATALOG[0],
    ]


RECORD_IDS = [
    "SmithDecomposition", "Nonzeros", "StructureInvariants", "LatticeAnalysis",
    "FixedSetDescription", "CohomologyAction", "FixedGridResult", "CorpusMember", "CatalogEntry",
]


@pytest.mark.parametrize("name, record", list(zip(RECORD_IDS, records())), ids=RECORD_IDS)
def test_named_tuple_record_is_read_only(name, record):
    assert type(record).__name__ == name
    assert isinstance(record, tuple) and hasattr(type(record), "_fields")
    with pytest.raises(AttributeError):
        setattr(record, type(record)._fields[0], None)


def test_rank_of_invariants_is_read_only():
    inv = validate_involution(PM).analysis.invariants
    assert inv.n == 2
    with pytest.raises(AttributeError):
        inv.n = 3


@pytest.mark.parametrize(
    "obj, field",
    [
        (IntMatrix(1, 1, (1,)), "entries"),
        (validate_involution(PM), "matrix"),
        (validate_involution(PM), "_analysis"),
    ],
    ids=["IntMatrix", "InvolutiveLattice", "InvolutiveLattice-cache"],
)
def test_slotted_class_is_read_only(obj, field):
    before = repr(obj)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert repr(obj) == before


def test_slotted_equality_checks_the_type():
    assert IntMatrix(1, 1, (1,)) != (1, 1, (1,))
    lat = validate_involution(PM)
    assert lat != (lat.n, lat.matrix)
    assert IntMatrix(1, 1, (1,)) == IntMatrix.identity(1)


def test_slotted_hash_and_repr_keep_the_dataclass_form():
    m = IntMatrix(1, 2, (3, -4))
    assert hash(m) == hash((1, 2, (3, -4)))
    assert repr(m) == "IntMatrix(rows=1, cols=2, entries=(3, -4))"
    assert repr(validate_involution(IntMatrix(1, 1, (-1,)))) == (
        "InvolutiveLattice(n=1, matrix=IntMatrix(rows=1, cols=1, entries=(-1,)))"
    )


def test_slotted_classes_copy_and_pickle():
    lat = validate_involution(PM)
    assert lat.analysis is not None  # filled cache: it is not pickled
    for obj in (PM, lat):
        assert copy.copy(obj) == obj
        assert copy.deepcopy(obj) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj
    assert pickle.loads(pickle.dumps(lat)).analysis == lat.analysis


@pytest.mark.parametrize(
    "make",
    [lambda: IntMatrix(2, 2, (1,)), lambda: IntMatrix(-1, 0, ())],
    ids=["IntMatrix-shape", "IntMatrix-negative"],
)
def test_construction_checks_still_raise(make):
    with pytest.raises(ValueError):
        make()
