import copy
import pickle

import pytest

from nullpoly.canonical import canonical_form
from nullpoly.counting import count_monic_le, count_null_le
from nullpoly.modulus import FactoredModulus, PrimePower, factor
from nullpoly.polys import Polynomial


def _records():
    return [
        Polynomial([1, 2]),
        Polynomial(()),
        PrimePower(7, 2),
        factor(360),
        count_null_le(10, 3, 2),
        count_monic_le(12, 2, 5),
        canonical_form(Polynomial([1, 0, 1]), 8),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_pickle_and_deepcopy_round_trip(record):
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(copied) is type(record)
        assert copied == record
        assert hash(copied) == hash(record)
        assert repr(copied) == repr(record)


@pytest.mark.parametrize("record", _records()[2:], ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    name = record.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 0


def test_record_equality_is_by_class_and_fields():
    assert PrimePower(2, 3) == PrimePower(2, 3)
    assert PrimePower(2, 3) != PrimePower(2, 5)
    assert PrimePower(2, 3) != (2, 3)
    assert len({PrimePower(2, 3), PrimePower(2, 3), PrimePower(3, 1)}) == 2
    assert repr(PrimePower(2, 3)) == "PrimePower(p=2, d=3)"
    assert repr(FactoredModulus((PrimePower(5, 1),))) == "FactoredModulus(factors=(PrimePower(p=5, d=1),))"


def test_records_keep_their_validation():
    with pytest.raises(ValueError):
        PrimePower(4, 1)
    with pytest.raises(ValueError):
        PrimePower(2, 0)
    with pytest.raises(ValueError):
        FactoredModulus(())
