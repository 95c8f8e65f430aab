import math
import random

import pytest

from jahangir_ssc import (
    CapacityError,
    Graph,
    InvalidParameterError,
    build_graph_report,
    build_jahangir,
    cohen_macaulay_verdict,
    enumerate_simple_cycles,
    enumerate_spanning_trees_generic,
    f_vector_direct,
    f_vector_exact_ie,
    matrix_tree_count,
)

from oracles import (
    as_mask,
    as_set,
    brute_f_vector,
    brute_simple_cycles,
    is_acyclic,
    random_connected_graph,
)

TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))

J3_F = (9, 36, 84, 123, 111, 50)
J4_F = (12, 66, 220, 491, 760, 808, 552, 192)


# ---------------------------------------------------------------------------
# the complex itself


def test_spanning_complex_triangle():
    facets = enumerate_spanning_trees_generic(TRIANGLE)
    assert facets == [as_mask({0, 1}), as_mask({0, 2}), as_mask({1, 2})]
    assert set(map(int.bit_count, facets)) == {2}


def test_spanning_complex_j3(j3):
    facets = enumerate_spanning_trees_generic(j3)
    assert len(facets) == 50
    assert all(f.bit_count() == 6 for f in facets)


DISCONNECTED = "a graph with no vertex or more than one component has no spanning complex"


def test_spanning_complex_rejects_disconnected():
    # a disconnected graph has no facet; the verdict refuses it rather
    # than judge the empty list Cohen-Macaulay
    split = Graph(4, ((0, 1), (2, 3)))
    assert enumerate_spanning_trees_generic(split) == []
    with pytest.raises(InvalidParameterError, match=f"^{DISCONNECTED}$"):
        cohen_macaulay_verdict(split, "search")
    # the precondition comes before the tree count, so no vertex fails
    # there too, not at the determinant
    with pytest.raises(InvalidParameterError, match=f"^{DISCONNECTED}$"):
        cohen_macaulay_verdict(Graph(0, ()), "search")


@pytest.mark.parametrize("entry", [
    f_vector_direct,
    f_vector_exact_ie,
    build_graph_report,
    lambda g: cohen_macaulay_verdict(g, "search"),
    lambda g: cohen_macaulay_verdict(g, "block"),
], ids=["f_vector_direct", "f_vector_exact_ie", "build_graph_report",
        "cm_search", "cm_block"])
@pytest.mark.parametrize("g", [Graph(0, ()), Graph(4, ((0, 1), (2, 3)))],
                         ids=["no-vertex", "two-components"])
def test_every_entry_point_words_the_missing_complex_alike(entry, g):
    with pytest.raises(InvalidParameterError, match=f"^{DISCONNECTED}$"):
        entry(g)


def test_dimension_empty_errors():
    # an empty facet list has no dimension: the graph report refuses the
    # disconnected graph before any claim is made
    with pytest.raises(InvalidParameterError, match=f"^{DISCONNECTED}$"):
        build_graph_report(Graph(4, ((0, 1), (2, 3))))


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
def test_family_dimension_and_purity(m):
    # every facet has 2m edges: pure of dimension 2m - 1
    facets = enumerate_spanning_trees_generic(build_jahangir(m))
    assert set(map(int.bit_count, facets)) == {2 * m}


# ---------------------------------------------------------------------------
# direct f-vector


def test_f_vector_triangle():
    assert f_vector_direct(TRIANGLE) == (3, 3)


def test_f_vector_j3(j3):
    f = f_vector_direct(j3)
    assert f == J3_F
    assert f == brute_f_vector(j3.vertex_count, list(j3.edges))
    assert f[-1] == matrix_tree_count(j3)


def test_f_vector_j4(j4):
    f = f_vector_direct(j4)
    assert f == J4_F
    assert f == brute_f_vector(j4.vertex_count, list(j4.edges))


def test_f_vector_trees():
    for t in (2, 4, 6):
        g = Graph(t + 1, tuple((i, i + 1) for i in range(t)))
        f = f_vector_direct(g)
        # every subset of a tree is a forest
        assert f == tuple(math.comb(t, i + 1) for i in range(t))


def test_f_vector_random_graphs():
    rng = random.Random(23)
    for _ in range(60):
        n, edges = random_connected_graph(rng, max_vertices=10, max_extra=6, max_edges=14)
        g = Graph(n, tuple(edges))
        assert f_vector_direct(g) == brute_f_vector(n, edges)


def test_f_vector_ignores_edge_order():
    # the sweep's frontier depends on the order, the forest counts do not
    rng = random.Random(29)
    for g in (build_jahangir(5), Graph(10, tuple(
            (u, v) for u in range(5) for v in range(u + 1, 10) if (v - u) % 3))):
        want = f_vector_direct(g)
        for _ in range(5):
            edges = list(g.edges)
            rng.shuffle(edges)
            assert f_vector_direct(Graph(g.vertex_count, tuple(edges))) == want


def test_f_vector_jahangir_ends():
    for m in range(3, 41):
        g = build_jahangir(m)
        f = f_vector_direct(g)
        assert len(f) == 2 * m
        assert f[0] == 3 * m
        assert f[-1] == matrix_tree_count(g)


def test_f_vector_complete_graph_top_entry():
    # Cayley: K_n has n^(n-2) spanning trees
    for n in range(2, 11):
        g = Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))
        f = f_vector_direct(g)
        assert f[0] == n * (n - 1) // 2
        assert f[-1] == n ** (n - 2)


def test_f_vector_length_matches_dimension(j3):
    f = f_vector_direct(j3)
    assert len(f) == max(map(int.bit_count, enumerate_spanning_trees_generic(j3)))


def test_f_vector_capacity():
    # a 31-edge path is swept at once; K12 is past the step bound
    path = Graph(32, tuple((i, i + 1) for i in range(31)))
    assert f_vector_direct(path) == tuple(math.comb(31, i + 1) for i in range(31))
    with pytest.raises(CapacityError) as refused:
        f_vector_direct(Graph(12, tuple((u, v) for u in range(12) for v in range(u + 1, 12))))
    assert str(refused.value) == ("forest sweep: 1237333 steps (on 66 edges) exceed "
                                  "F_VECTOR_STEP_LIMIT = 1200000")


def test_f_vector_rejects_disconnected():
    with pytest.raises(InvalidParameterError):
        f_vector_direct(Graph(4, ((0, 1), (2, 3))))


# ---------------------------------------------------------------------------
# faces and non-faces


def test_minimal_nonfaces_are_the_simple_cycles(j3):
    # each simple cycle is a non-face whose every proper subset is a face
    for g in (j3, TRIANGLE):
        n, edges = g.vertex_count, list(g.edges)
        cycles = [as_set(c) for c in enumerate_simple_cycles(g)]
        assert set(cycles) == brute_simple_cycles(n, edges)
        for cycle in cycles:
            assert not is_acyclic(n, [edges[i] for i in cycle])
            for drop in cycle:
                assert is_acyclic(n, [edges[i] for i in cycle - {drop}])
    tree = Graph(4, ((0, 1), (1, 2), (2, 3)))
    assert enumerate_simple_cycles(tree) == []


def test_faces_are_downward_closed(j3):
    # sample edge subsets; every subset of an acyclic set is acyclic
    rng = random.Random(5)
    edges = list(j3.edges)
    for _ in range(200):
        size = rng.randint(1, 6)
        subset = rng.sample(range(len(edges)), size)
        if is_acyclic(j3.vertex_count, [edges[i] for i in subset]):
            for drop in range(size):
                smaller = subset[:drop] + subset[drop + 1:]
                assert is_acyclic(j3.vertex_count, [edges[i] for i in smaller])
