import itertools

import pytest

from jahangir_ssc import (
    Graph,
    InvalidParameterError,
    build_jahangir,
    claimed_order,
    enumerate_simple_cycles,
    intersection_survey,
    oracle_cycle_catalog,
    predict_intersection,
    word_cycle_catalog,
    word_edge_set,
    word_of,
)
from jahangir_ssc import cycles
from jahangir_ssc.cycles import all_words, cyclic_runs, follows, validate_word
from jahangir_ssc.records import edge_indices


def _by_word(catalog):
    return {e.word: e for e in catalog.entries}


# ---------------------------------------------------------------------------
# word catalog


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_catalog_shape(m):
    cat = word_cycle_catalog(m)
    assert cat.m == m
    assert len(cat) == m * m
    lengths = [len(e.word) for e in cat.entries]
    for k in range(1, m + 1):
        assert lengths.count(k) == m
    # edge sets are pairwise distinct
    assert len({e.edges for e in cat.entries}) == m * m


def test_catalog_rejects_small_m():
    with pytest.raises(InvalidParameterError):
        word_cycle_catalog(2)


def test_catalog_entry_single_cycle(j3):
    entry = _by_word(word_cycle_catalog(3))[(1,)]
    labels = {str(j3.labels[i]) for i in edge_indices(entry.edges)}
    assert labels == {"e11", "e12", "e13", "e21"}
    assert entry.beta == 4
    assert entry.is_simple_cycle


def test_catalog_entry_two_cycles(j3):
    # two joined base cycles: the shared spoke drops out
    entry = _by_word(word_cycle_catalog(3))[(1, 2)]
    labels = {str(j3.labels[i]) for i in edge_indices(entry.edges)}
    assert labels == {"e11", "e12", "e13", "e22", "e23", "e31"}
    assert entry.beta == 6
    assert entry.is_simple_cycle


@pytest.mark.parametrize("m", [3, 4, 5])
def test_catalog_full_length_words_are_not_cycles(m):
    cat = word_cycle_catalog(m)
    for entry in cat.entries:
        if len(entry.word) == m:
            # all rim edges plus the one non-interior spoke: a theta
            # shape, one edge more than the claimed order
            assert entry.beta == 2 * m + 1
            assert entry.beta == claimed_order(m - 1) + 1
            assert not entry.is_simple_cycle
        else:
            assert entry.beta == claimed_order(len(entry.word))
            assert entry.is_simple_cycle


def test_catalog_simple_entries_match_cycle_oracle(j4):
    true_cycles = set(enumerate_simple_cycles(j4))
    for entry in word_cycle_catalog(4).entries:
        assert (entry.edges in true_cycles) == entry.is_simple_cycle


def test_word_edge_set_wraparound():
    # the word through cycle m back to 1 keeps only its first spoke
    m = 4
    edges = word_edge_set((4, 1), m)
    g = build_jahangir(m)
    labels = {str(g.labels[i]) for i in edge_indices(edges)}
    assert labels == {"e41", "e42", "e43", "e12", "e13", "e21"}


def test_validate_word_errors():
    for bad, m in [((), 3), ((0,), 3), ((4,), 3), ((1, 3), 3), ((1, 2, 1), 3)]:
        with pytest.raises(InvalidParameterError):
            validate_word(bad, m)
    validate_word((3, 1, 2), 3)  # wrapping runs are fine


def test_word_of():
    assert word_of(1, 2, 3) == (1, 2)
    assert word_of(3, 2, 3) == (3, 1)
    assert word_of(2, 3, 3) == (2, 3, 1)
    assert all_words(3)[:4] == [(1,), (2,), (3,), (1, 2)]


def test_follows_and_runs():
    assert follows(1, 2, 3) and follows(3, 1, 3) and not follows(2, 1, 3)
    assert cyclic_runs([1, 2, 4], 5) == [[1, 2], [4]]
    assert cyclic_runs([5, 1], 5) == [[5, 1]]  # wraps across m
    assert cyclic_runs([1, 2, 3], 3) == [[1, 2, 3]]


# ---------------------------------------------------------------------------
# oracle catalog


def test_oracle_catalog_j3(j3):
    cat = oracle_cycle_catalog(j3)
    assert cat.m == 3
    assert len(cat) == 7
    worded = [e for e in cat.entries if e.word is not None]
    bare = [e for e in cat.entries if e.word is None]
    assert len(worded) == 6
    assert len(bare) == 1
    assert bare[0].beta == 6  # the rim cycle no word produces
    assert all(e.is_simple_cycle for e in cat.entries)
    for e in worded:
        assert e.edges == word_edge_set(e.word, 3)


def test_oracle_catalog_j4(j4):
    cat = oracle_cycle_catalog(j4)
    assert len(cat) == 13
    assert sum(1 for e in cat.entries if e.word is None) == 1


def test_oracle_catalog_generic_graph():
    g = Graph(3, ((0, 1), (1, 2), (0, 2)))
    cat = oracle_cycle_catalog(g)
    assert cat.m is None
    assert len(cat) == 1
    assert cat.entries[0].word is None
    assert cat.entries[0].beta == 3


def test_oracle_catalog_scrambled_edge_order(j3):
    # same graph, edges listed backwards: detection and translation
    # must still line up with the words
    g = Graph(j3.vertex_count, tuple(reversed(j3.edges)))
    cat = oracle_cycle_catalog(g)
    assert cat.m == 3
    assert sum(1 for e in cat.entries if e.word is not None) == 6


# ---------------------------------------------------------------------------
# intersection predictions, worked examples first


# (u, v, m, predicted |edges(u) & edges(v)|) for nested pairs
NESTED_EXAMPLES = [
    ((1,), (1, 2), 3, 3),
    ((2,), (2,), 4, 4),
    ((2,), (1, 2, 3), 4, 2),
]

# (relation, u, v, m, predicted) for the other two relations; the
# relation is the rule each example exercises
WORKED_EXAMPLES = [
    ("partial", (1, 2), (2, 3), 3, 3),
    ("partial", (1, 2), (2, 3), 4, 2),
    ("partial", (1, 2, 3), (3, 4), 4, 3),
    ("disjoint", (1,), (2,), 3, 1),
    ("disjoint", (1, 2), (3,), 3, 2),
    ("disjoint", (1,), (3,), 5, 0),
]


def test_predict_nested_examples():
    for u, v, m, predicted in NESTED_EXAMPLES:
        assert predict_intersection(u, v, m) == predicted


@pytest.mark.parametrize("relation, u, v, m, predicted", WORKED_EXAMPLES,
                         ids=["-".join((r, "".join(map(str, u)), "".join(map(str, v)), f"m{m}"))
                              for r, u, v, m, _ in WORKED_EXAMPLES])
def test_predict_worked_examples(relation, u, v, m, predicted):
    assert predict_intersection(u, v, m) == predicted


def test_predict_dispatch_matches_specialists():
    # each relation's rule is a branch of the router: every worked
    # example must be routed to the rule it exercises
    rows = [("nested", *row) for row in NESTED_EXAMPLES] + WORKED_EXAMPLES
    for relation, u, v, m, predicted in rows:
        assert cycles._predict(u, v, m) == (relation, predicted)


def test_predict_preconditions():
    # both words are validated before the pair is routed
    for u, v, m in [((1,), (4,), 3), ((1, 3), (2,), 3), ((2,), (), 3), ((1,), (1, 2, 3, 1), 3)]:
        with pytest.raises(InvalidParameterError):
            predict_intersection(u, v, m)


def test_predict_is_symmetric():
    for m in (3, 4, 5):
        for u, v in itertools.combinations(all_words(m), 2):
            assert predict_intersection(u, v, m) == predict_intersection(v, u, m)


# ---------------------------------------------------------------------------
# the survey: predictions vs edge sets, divergences pinned exactly


@pytest.mark.parametrize("m", range(3, 11))
def test_survey_divergences_are_exactly_the_full_length_overlaps(m):
    survey = intersection_survey(m)
    total_words = m * m
    assert survey.pairs_checked == total_words * (total_words - 1) // 2
    got = {(mm.word_a, mm.word_b, mm.relation, mm.predicted, mm.actual)
           for mm in survey.mismatches}
    want = set()
    for s in range(1, m + 1):
        u = word_of(s, 2, m)
        v = word_of(s % m + 1, m, m)
        want.add((u, v, "nested", 6, 4))
    assert got == want


@pytest.mark.parametrize("m", [3, 4, 5])
def test_survey_agreements_hold_pairwise(m):
    # every non-divergent pair really does match its edge-set count
    survey = intersection_survey(m)
    flagged = {(mm.word_a, mm.word_b) for mm in survey.mismatches}
    for u, v in itertools.combinations(all_words(m), 2):
        predicted = predict_intersection(u, v, m)
        actual = (word_edge_set(u, m) & word_edge_set(v, m)).bit_count()
        if (u, v) in flagged or (v, u) in flagged:
            assert predicted != actual
        else:
            assert predicted == actual
