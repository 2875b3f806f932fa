import copy
import pickle

import pytest

from nullpoly.canonical import CanonicalForm, canonical_form
from nullpoly.cli import _parse_prime_power
from nullpoly.counting import count_monic_le, count_null_le
from nullpoly.modulus import crt_combine_poly, factor
from nullpoly.polys import Polynomial


def _records():
    return [
        Polynomial([1, 2]),
        Polynomial(()),
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


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    name = record.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 0


def test_record_equality_is_by_class_and_fields():
    assert CanonicalForm(8, (1, 0, 1)) == CanonicalForm(8, (1, 0, 1))
    assert CanonicalForm(8, (1, 0, 1)) != CanonicalForm(8, (1, 0, 2))
    assert CanonicalForm(8, (1, 0, 1)) != (8, (1, 0, 1))
    assert len({CanonicalForm(8, (1,)), CanonicalForm(8, (1,)), CanonicalForm(9, (1,))}) == 2
    assert repr(CanonicalForm(8, (1, 0))) == "CanonicalForm(m=8, a=(1, 0))"


def test_records_keep_their_validation():
    # a prime power needs a prime base and d >= 1; a factorization needs a part
    with pytest.raises(ValueError):
        _parse_prime_power("4")
    with pytest.raises(ValueError):
        _parse_prime_power("2^0")
    with pytest.raises(ValueError):
        factor(1)
    with pytest.raises(ValueError):
        crt_combine_poly([])
    # a record is built from exactly its fields, in __slots__ order
    assert CanonicalForm(8, (1,)).m == 8
    with pytest.raises(TypeError):
        CanonicalForm(8)
    with pytest.raises(TypeError):
        CanonicalForm(8, (1,), 0)
