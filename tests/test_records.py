"""The result records are NamedTuples: immutable, equal and hashed by
value, and the three that check their fields check them however they are
built."""

import re

import pytest

from jahangir_ssc.errors import InvalidParameterError
from jahangir_ssc.complexes import HilbertSeries
from jahangir_ssc.records import EdgeLabel, Graph, build_jahangir
from jahangir_ssc.reports import ClaimResult
from jahangir_ssc.spanning import verify_partition


def test_fields_cannot_be_assigned():
    claim = ClaimResult("count", 1, "rule", 1, "oracle", "match")
    records = ((build_jahangir(3), "edges"),
               (verify_partition(3), "total"),
               (claim, "verdict"),
               (HilbertSeries((1, 2), 2), "numerator"))
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None  # no instance dict either


# (class, fields of a bad instance, error type, the message it has always had)
BAD_INPUT = [
    (EdgeLabel, (0, 1), InvalidParameterError, "cycle index must be >= 1, got 0"),
    (EdgeLabel, (1, 4), InvalidParameterError, "position index must be in 1..3, got 4"),
    (Graph, (-1, ()), InvalidParameterError, "vertex count must be nonnegative"),
    (Graph, (2, ((0, 2),)), InvalidParameterError,
     "edges[0]: endpoint out of range in (0, 2)"),
    (Graph, (2, ((1, 1),)), InvalidParameterError, "edges[0]: loop at vertex 1"),
    (Graph, (2, ((0, 1), (1, 0))), InvalidParameterError,
     "edges[1]: duplicate edge (1, 0)"),
    (Graph, (3, ((0, 1), (1, 2)), (EdgeLabel(1, 1),)), InvalidParameterError,
     "label count 1 != edge count 2"),
    (Graph, (3, ((0, 1), (1, 2)), (EdgeLabel(1, 1), EdgeLabel(1, 1))),
     InvalidParameterError, "duplicate edge labels"),
    (HilbertSeries, ((), 1), InvalidParameterError, "numerator must be nonempty"),
    (HilbertSeries, ((2,), 1), InvalidParameterError, "series must evaluate to 1 at t=0"),
    (HilbertSeries, ((1,), -1), InvalidParameterError,
     "denominator power must be nonnegative"),
]


@pytest.mark.parametrize("cls, fields, error, message", BAD_INPUT)
def test_checked_records_reject_bad_input_however_built(cls, fields, error, message):
    keywords = dict(zip(cls._fields, fields))
    builds = (lambda: cls(*fields), lambda: cls(**keywords),
              lambda: cls._make(fields))
    for build in builds:
        with pytest.raises(error, match=re.escape(message)):
            build()


def test_replace_checks_the_new_fields():
    with pytest.raises(InvalidParameterError, match="position index"):
        EdgeLabel(1, 2)._replace(i=4)
    with pytest.raises(InvalidParameterError, match="loop at vertex 0"):
        build_jahangir(3)._replace(edges=((0, 0),))
    assert HilbertSeries((1, 2), 2)._replace(denominator_power=3) == ((1, 2), 3)


def test_records_compare_and_hash_by_value():
    assert EdgeLabel(2, 3) == EdgeLabel(j=2, i=3) == EdgeLabel.parse("e23")
    assert hash(EdgeLabel(2, 3)) == hash(EdgeLabel.parse("e23"))
    assert len({EdgeLabel(2, 3), EdgeLabel(j=2, i=3), EdgeLabel(3, 2)}) == 2
