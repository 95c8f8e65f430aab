import math
import random
import time
from collections import Counter

import pytest

from jahangir_ssc import (
    Graph,
    TreeClass,
    build_jahangir,
    enumerate_spanning_trees_generic,
    enumerate_spanning_trees_jahangir,
    matrix_tree_count,
    build_jahangir_report,
    verify_partition,
)
from jahangir_ssc import spanning
from jahangir_ssc.records import spoke_index

from oracles import (
    as_mask,
    as_set,
    brute_spanning_trees,
    is_spanning_tree,
    jahangir_tree_class,
    laplacian_tree_count,
    partition_by_sets,
    random_connected_graph,
)

# class sizes frozen from the structured enumeration, cross-checked
# against the determinant and the generic enumeration below
CLASS_COUNTS = {
    3: (8, 24, 18, 0, 0),
    4: (16, 64, 80, 32, 0),
    5: (32, 160, 250, 160, 120),
    6: (64, 384, 672, 704, 876),
    7: (128, 896, 1666, 2688, 4704),
    8: (256, 2048, 3936, 9728, 21664),
}


# ---------------------------------------------------------------------------
# generic enumeration


def test_generic_triangle():
    trees = enumerate_spanning_trees_generic(Graph(3, ((0, 1), (1, 2), (0, 2))))
    assert trees == [as_mask({0, 1}), as_mask({0, 2}), as_mask({1, 2})]


def test_generic_path_and_singleton():
    path = Graph(3, ((0, 1), (1, 2)))
    assert enumerate_spanning_trees_generic(path) == [as_mask({0, 1})]
    assert enumerate_spanning_trees_generic(Graph(1, ())) == [0]
    # far deeper than the interpreter's recursion limit
    long = Graph(3000, tuple((i, i + 1) for i in range(2999)))
    assert enumerate_spanning_trees_generic(long) == [(1 << 2999) - 1]


def test_generic_disconnected_is_empty():
    assert enumerate_spanning_trees_generic(Graph(4, ((0, 1), (2, 3)))) == []
    # two 20-vertex wheels: refused before any search, which would
    # otherwise walk the product of both components' tree sets
    edges = []
    for base in (0, 20):
        edges += [(base, base + i) for i in range(1, 20)]
        edges += [(base + i, base + i % 19 + 1) for i in range(1, 20)]
    start = time.perf_counter()
    assert enumerate_spanning_trees_generic(Graph(40, tuple(edges))) == []
    assert time.perf_counter() - start < 0.1


def test_generic_matches_brute_force(j3):
    assert set(map(as_set, enumerate_spanning_trees_generic(j3))) == brute_spanning_trees(
        j3.vertex_count, list(j3.edges))


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_generic_count_matches_determinant(m):
    g = build_jahangir(m)
    assert len(enumerate_spanning_trees_generic(g)) == matrix_tree_count(g)


def test_generic_random_graphs():
    # shuffled edge lists, so that bridges and cycle-closing edges turn
    # up at every position of the search
    rng = random.Random(11)
    for _ in range(120):
        n, edges = random_connected_graph(rng)
        rng.shuffle(edges)
        g = Graph(n, tuple(edges))
        trees = enumerate_spanning_trees_generic(g)
        assert len(trees) == len(set(trees)) == matrix_tree_count(g)
        assert set(map(as_set, trees)) == brute_spanning_trees(n, edges)
        tuples = [sorted(as_set(t)) for t in trees]
        assert tuples == sorted(tuples)


def test_generic_canonical_order(j3, j4):
    # emitted in order, lexicographic by sorted edge tuple, also when the
    # edge list is not in the family's own order; the block ordering
    # ranks J(2,m)'s trees by their positions in this list
    shuffled = list(j4.edges)
    random.Random(13).shuffle(shuffled)
    for g in (j3, j4, Graph(j4.vertex_count, tuple(shuffled)),
              *map(build_jahangir, (5, 6, 7))):
        trees = enumerate_spanning_trees_generic(g)
        tuples = [sorted(as_set(t)) for t in trees]
        assert tuples == sorted(tuples)
        assert len(trees) == matrix_tree_count(g)


def _adversarial_orders() -> list:
    """Edge orders that stress the frontier: long frontiers, edges that
    close cycles only at the end, bridges everywhere."""
    rng = random.Random(17)
    # the golden 150-vertex document scaled down: every chord end waits
    # in the frontier until the chords, listed last, close their cycles
    shapes = [("path, chords last", 24,
               [(i, i + 1) for i in range(23)] + [(a, a + 3) for a in (2, 8, 14, 20)])]
    cycle = [(i, (i + 1) % 13) for i in range(13)]
    rng.shuffle(cycle)
    shapes.append(("scrambled cycle", 13, cycle))
    tree = [(rng.randrange(v), v) for v in range(1, 12)]
    rng.shuffle(tree)
    shapes.append(("tree", 12, tree))
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    leaves = [(i, 5 + i) for i in range(5)]
    shapes.append(("K5, pendant leaves first", 10, leaves + k5))
    shapes.append(("K5, pendant leaves last", 10, k5 + leaves))
    for k in range(12):
        n, edges = random_connected_graph(rng, max_vertices=12, max_extra=5, max_edges=16)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        rng.shuffle(edges)
        shapes.append((f"sparse random {k}", n, edges))
    return [pytest.param(n, edges, id=name) for name, n, edges in shapes]


def _assert_canonical(trees: list[int]) -> None:
    tuples = [sorted(as_set(t)) for t in trees]
    assert all(a < b for a, b in zip(tuples, tuples[1:]))


@pytest.mark.parametrize("n, edges", _adversarial_orders())
def test_generic_adversarial_orders(n, edges):
    trees = enumerate_spanning_trees_generic(Graph(n, tuple(edges)))
    assert set(map(as_set, trees)) == brute_spanning_trees(n, edges)
    assert len(trees) == laplacian_tree_count(n, edges)
    _assert_canonical(trees)


# ---------------------------------------------------------------------------
# structured enumeration


@pytest.mark.parametrize("m", list(CLASS_COUNTS))
def test_structured_class_counts(m):
    counts = spanning._class_counts(m)
    assert tuple(name for name, _ in counts) == tuple(cls.value for cls in TreeClass)
    assert tuple(count for _, count in counts) == CLASS_COUNTS[m]
    assert len(enumerate_spanning_trees_jahangir(m)) == matrix_tree_count(build_jahangir(m))


@pytest.mark.parametrize("m", range(3, 8))
def test_class_counts_equal_the_classified_trees(m):
    # the counts per spoke set against every listed tree classified on
    # its own by the test oracle, each checked to be a spanning tree on
    # the way
    g = build_jahangir(m)
    trees = enumerate_spanning_trees_jahangir(m)
    every_edge = (1 << 3 * m) - 1
    assert all(is_spanning_tree(g.vertex_count, [g.edges[i] for i in as_set(t)])
               for t in trees)
    classified = Counter(jahangir_tree_class(every_edge ^ t, m) for t in trees)
    counts = dict(spanning._class_counts(m))
    assert set(classified) <= set(counts)
    assert counts == {name: classified[name] for name in counts}
    assert sum(counts.values()) == len(trees) == matrix_tree_count(g)


@pytest.mark.parametrize("m", range(3, 10))
def test_structured_equals_generic_as_sets(m):
    g = build_jahangir(m)
    structured = set(enumerate_spanning_trees_jahangir(m))
    assert structured == set(enumerate_spanning_trees_generic(g))


def test_structured_trees_are_consistent(j4):
    all_edges = frozenset(range(j4.edge_count))
    for tree in enumerate_spanning_trees_jahangir(4):
        kept = as_set(tree)
        assert kept <= all_edges
        assert len(all_edges - kept) == 4  # cyclomatic number of J(2,m) is m
        chosen = [j4.edges[i] for i in kept]
        assert is_spanning_tree(j4.vertex_count, chosen)


def test_structured_keeps_at_least_one_spoke():
    # dropping every spoke isolates the hub, so no class allows it
    for m in (3, 4, 5):
        spokes = {spoke_index(j, m) for j in range(1, m + 1)}
        for tree in enumerate_spanning_trees_jahangir(m):
            assert spokes & as_set(tree)


# ---------------------------------------------------------------------------
# classification


@pytest.mark.parametrize("m", [3, 4])
def test_classify_round_trip(m):
    # each spoke set's trees, in enumeration order, are of its class:
    # one of 2 * length rim edges deleted per arc
    every_edge = (1 << 3 * m) - 1
    trees = iter(enumerate_spanning_trees_jahangir(m))
    for _, cls, arcs in spanning._spoke_sets(m):
        for _ in range(math.prod(2 * length for _, length in arcs)):
            assert jahangir_tree_class(every_edge ^ next(trees), m) == cls.value
    assert next(trees, None) is None


def test_classify_named_examples(j3):
    from jahangir_ssc import EdgeLabel

    def by_labels(*names):
        return as_mask(j3.labels.index(EdgeLabel.parse(n)) for n in names)

    assert jahangir_tree_class(by_labels("e12", "e22", "e32"), 3) == "CJ1"
    assert jahangir_tree_class(by_labels("e11", "e12", "e22"), 3) == "CJ2"
    assert jahangir_tree_class(by_labels("e11", "e21", "e13"), 3) == "CJ3a"
    # J(2,5): spokes 1 and 3 apart, then 1, 2 and 4
    assert jahangir_tree_class(as_mask({0, 2, 6, 8, 10}), 5) == "CJ3b"
    assert jahangir_tree_class(as_mask({0, 2, 3, 9, 10}), 5) == "CJ3c"


# ---------------------------------------------------------------------------
# the partition claim


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_verify_partition(m):
    report = verify_partition(m)
    assert report.ok
    assert report.disjoint
    assert report.union_matches
    assert report.total == report.generic_total == matrix_tree_count(build_jahangir(m))
    assert not report.missing and not report.extra
    assert tuple(count for _, count in report.class_counts) == CLASS_COUNTS[m]


def test_verify_partition_reports_overlaps_and_gaps(monkeypatch):
    trees = enumerate_spanning_trees_jahangir(4)
    tampered = trees[1:] + [trees[-1], 1]
    monkeypatch.setattr(spanning, "enumerate_spanning_trees_jahangir", lambda m: tampered)
    report = verify_partition(4)
    assert not report.disjoint and not report.union_matches and not report.ok
    assert report.missing == (trees[0],)
    assert report.extra == (1,)
    assert report.total == report.generic_total + 1


def _tampered_tree_lists(trees, m, rng):
    """Shuffled copies of trees: intact, with a duplicate far from its
    original, with a foreign tree, with a tree dropped, and all three."""
    def shuffled(masks):
        masks = list(masks)
        rng.shuffle(masks)
        return masks

    n = len(trees)
    foreign = (1 << 3 * m) - 1  # every edge: not a tree
    intact = shuffled(trees)
    yield intact
    yield [intact[-1]] + intact
    yield intact[: n // 2] + [intact[0]] + intact[n // 2:]
    yield shuffled(trees + [foreign])
    yield shuffled(trees[1:])
    yield shuffled(trees[2:] + [trees[-1], foreign])
    yield shuffled(trees[1:] + [1])


@pytest.mark.parametrize("m", [3, 4, 5])
def test_verify_partition_equals_the_set_oracle(m, monkeypatch):
    trees = enumerate_spanning_trees_jahangir(m)
    generic = enumerate_spanning_trees_generic(build_jahangir(m))
    # the class counts come from the cutting-down rule, whatever the list
    counts = tuple((cls.value, n) for cls, n in zip(TreeClass, CLASS_COUNTS[m]))
    rng = random.Random(m)
    for k, tampered in enumerate(_tampered_tree_lists(trees, m, rng)):
        listed = generic[:]
        rng.shuffle(listed)
        monkeypatch.setattr(spanning, "enumerate_spanning_trees_jahangir",
                            lambda _: list(tampered))
        monkeypatch.setattr(spanning, "enumerate_spanning_trees_generic",
                            lambda _: list(listed))
        report = verify_partition(m)
        fields = report._asdict()
        assert fields.pop("m") == m
        assert fields.pop("class_counts") == counts
        assert fields == partition_by_sets(tampered, listed)
        assert report.ok == (k == 0)


# ---------------------------------------------------------------------------
# the one-slot memo behind each enumerator

@pytest.mark.parametrize("enumerate_", [
    lambda: enumerate_spanning_trees_jahangir(4),
    lambda: enumerate_spanning_trees_generic(build_jahangir(4)),
])
def test_memoized_enumerators_return_fresh_lists(enumerate_):
    first, second = enumerate_(), enumerate_()
    assert first == second and first is not second
    before = list(first)
    first.pop()
    first.reverse()
    first.append(first[0])
    assert enumerate_() == before


def test_memoized_enumerators_agree_with_the_oracle_after_eviction(j3, j4):
    # cache_clear() empties each enumerator's slot before each graph
    for g in (j3, j4, j3):
        m = g.edge_count // 3
        for memo in (spanning._structured_trees, spanning._generic_trees):
            memo.cache_clear()
        oracle = brute_spanning_trees(g.vertex_count, list(g.edges))
        for _ in range(2):  # computed, then read from the memo
            structured = enumerate_spanning_trees_jahangir(m)
            assert set(map(as_set, structured)) == oracle
            assert len(structured) == len(oracle)
            generic = enumerate_spanning_trees_generic(g)
            assert set(map(as_set, generic)) == oracle and len(generic) == len(oracle)


def test_a_report_enumerates_each_kind_of_tree_once(body_runs):
    # on J(2,5) the tree count, the partition and the cm claim ask for
    # the structured trees, the partition, the facets and the cm claim
    # for the generic ones, three times each, and each list is built once
    _, runs = body_runs(lambda: build_jahangir_report(5),
                        enumerate_spanning_trees_jahangir, spanning._structured_trees,
                        enumerate_spanning_trees_generic, spanning._generic_trees)
    assert runs == [3, 1, 3, 1]
