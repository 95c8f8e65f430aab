"""The result records are NamedTuples: immutable, equal and hashed by
value, and the three that check their fields check them however they are
built. memo keeps one result per function."""

import re
import sys
import threading
import time

import pytest

from jahangir_ssc.errors import CapacityError, InvalidParameterError
from jahangir_ssc.complexes import HilbertSeries
from jahangir_ssc.records import EdgeLabel, Graph, build_jahangir, memo
from jahangir_ssc.reports import ClaimResult
from jahangir_ssc.spanning import verify_partition

from conftest import package_memos


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


def test_memo_keeps_the_last_result_by_type_and_value():
    runs = []

    @memo
    def double(x):
        runs.append(x)
        return [x, x]

    first = double(2)
    assert double(2) is first and runs == [2]
    assert double(2.0) == [2.0, 2.0] and runs == [2, 2.0]  # 2 == 2.0, but a float
    assert double(True) == [True, True] and double(1) == [1, 1]
    assert double(2) == first and double(2) is not first  # one slot
    double.cache_clear()
    double(2)
    assert runs == [2, 2.0, True, 1, 2, 2]
    # equal arguments that are different objects are compared, not hashed
    assert double([1]) is double([1]) and runs[-1] == [1]


def test_memo_takes_keyword_arguments_in_their_positions():
    runs = []

    @memo
    def pair(x, y):
        runs.append((x, y))
        return [x, y]

    first = pair(1, y=2)
    assert pair(1, 2) is first and pair(x=1, y=2) is first and pair(y=2, x=1) is first
    assert pair(y=2.0, x=1) == [1, 2.0] and runs == [(1, 2), (1, 2.0)]
    for bad in ({"z": 2}, {"x": 1, "y": 2}):
        with pytest.raises(TypeError):
            pair(1, **bad)
    assert len(runs) == 2


def test_memoized_public_functions_take_their_documented_keywords():
    from jahangir_ssc import graphs, cycles
    from jahangir_ssc.records import is_connected

    g = build_jahangir(m=3)
    assert g is build_jahangir(3)
    assert graphs.matrix_tree_count(g=g) == 50
    assert cycles.word_cycle_catalog(m=3) is cycles.word_cycle_catalog(3)
    assert is_connected(g=g)


def test_memo_raises_a_kept_refusal_again_and_keeps_no_other_error():
    runs = []

    @memo
    def refuse(kind):
        runs.append(kind)
        raise kind("no")

    for _ in range(2):
        with pytest.raises(CapacityError, match="^no$"):
            refuse(CapacityError)
    assert runs == [CapacityError]
    for _ in range(2):
        with pytest.raises(InvalidParameterError):
            refuse(InvalidParameterError)
    assert runs == [CapacityError, InvalidParameterError, InvalidParameterError]


def test_memo_raises_a_fresh_refusal_whose_traceback_does_not_grow():
    @memo
    def refuse():
        raise CapacityError("no")

    def depth(exc):
        tb, n = exc.__traceback__, 0
        while tb is not None:
            tb, n = tb.tb_next, n + 1
        return n

    caught = []
    for _ in range(4):
        with pytest.raises(CapacityError, match="^no$") as info:
            refuse()
        caught.append(info.value)
    assert len({id(exc) for exc in caught}) == 4
    assert depth(caught[0]) == depth(caught[1]) + 1  # only the refused call ran refuse
    assert depth(caught[1]) == depth(caught[2]) == depth(caught[3])


class _Key:
    """An argument whose comparison lets other threads run, as one that
    compares large arrays may: another thread can replace the memo's
    slot while a call compares its key with the kept one."""

    def __init__(self, n):
        self.n = n

    def __eq__(self, other):
        time.sleep(0)
        return self.n == other.n


def test_memo_gives_each_thread_its_own_arguments_result():
    @memo
    def value(key):
        return key.n

    wrong = []
    start = threading.Barrier(2)

    def alternate(m):
        start.wait()
        for _ in range(2000):
            g = build_jahangir(m)
            n = value(_Key(m))
            if g.vertex_count != 2 * m + 1 or n != m:
                wrong.append((m, g.vertex_count, n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=alternate, args=(m,)) for m in (3, 4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_every_memo_is_cleared_between_tests():
    from jahangir_ssc import cycles, graphs, spanning  # noqa: F401  (runs the layers)

    names = {f"{read.__module__}.{read.__qualname__}" for read in package_memos()}
    assert {"jahangir_ssc.records.build_jahangir", "jahangir_ssc.records.spanning_forest",
            "jahangir_ssc.graphs.matrix_tree_count",
            "jahangir_ssc.graphs._simple_cycles", "jahangir_ssc.cycles.word_cycle_catalog",
            "jahangir_ssc.spanning._generic_trees",
            "jahangir_ssc.spanning._structured_trees"} <= names
