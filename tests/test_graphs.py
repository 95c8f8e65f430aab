import json
import random
import time

import pytest

from jahangir_ssc import (
    CapacityError,
    EdgeLabel,
    Graph,
    GraphParseError,
    InvalidParameterError,
    build_jahangir,
    edge_indices,
    emit_graph,
    enumerate_simple_cycles,
    is_connected,
    jahangir_order,
    matrix_tree_count,
    parse_graph,
)
from jahangir_ssc.errors import MAX_INDEPENDENT_CYCLES
from jahangir_ssc.graphs import _cactus_tree_bound, _is_simple_cycle_mask
from jahangir_ssc.records import base_cycle_indices, rim_indices, spoke_index

from oracles import (
    as_mask,
    as_set,
    brute_simple_cycles,
    laplacian_tree_count,
    random_connected_graph,
)

TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))

# frozen by the fraction-determinant oracle below (see test_matrix_tree_family)
TREE_COUNTS = {3: 50, 4: 192, 5: 722, 6: 2700, 7: 10082, 8: 37632}


# ---------------------------------------------------------------------------
# construction


def test_build_shape():
    for m in (3, 4, 8):
        g = build_jahangir(m)
        assert g.vertex_count == 2 * m + 1
        assert g.edge_count == 3 * m
        assert g.labels is not None and len(g.labels) == 3 * m


@pytest.mark.parametrize("m", [0, 1, 2, -5])
def test_build_rejects_small_m(m):
    with pytest.raises(InvalidParameterError):
        build_jahangir(m)


def test_degree_profile(j4):
    deg = [0] * j4.vertex_count
    for u, v in j4.edges:
        deg[u] += 1
        deg[v] += 1
    assert deg[0] == 4                      # hub meets every spoke
    rim = sorted(deg[1:])
    assert rim == [2, 2, 2, 2, 3, 3, 3, 3]  # spoke feet have degree 3


def test_edge_index_helpers():
    m = 4
    g = build_jahangir(m)
    for j in range(1, m + 1):
        s = spoke_index(j, m)
        assert g.labels[s] == EdgeLabel(j, 1)
        r1, r2 = rim_indices(j, m)
        assert g.labels[r1] == EdgeLabel(j, 2)
        assert g.labels[r2] == EdgeLabel(j, 3)
    # cycle j closes with the next spoke, wrapping at m
    assert base_cycle_indices(1, m) == as_mask({0, 1, 2, 3})
    assert base_cycle_indices(m, m) == as_mask({9, 10, 11, 0})


def test_edge_indices():
    assert edge_indices(0) == ()
    assert edge_indices(0b1011) == (0, 1, 3)
    assert edge_indices(1 << 70) == (70,)
    with pytest.raises(InvalidParameterError, match="nonnegative"):
        edge_indices(-1)


def test_base_cycles_are_cycles(j3):
    for j in range(1, 4):
        idx = base_cycle_indices(j, 3)
        deg: dict[int, int] = {}
        for i in edge_indices(idx):
            for x in j3.edges[i]:
                deg[x] = deg.get(x, 0) + 1
        assert all(d == 2 for d in deg.values())


def test_label_bijection(j5):
    for i, label in enumerate(j5.labels):
        assert j5.labels.index(label) == i
    assert EdgeLabel(9, 1) not in j5.labels
    assert TRIANGLE.labels is None


def test_label_parse_round_trip():
    for text in ("e11", "e53", "e122", "e301"):
        assert str(EdgeLabel.parse(text)) == text
    # multi-digit j: the final digit is always the position
    assert EdgeLabel.parse("e123") == EdgeLabel(12, 3)
    for bad in ("e1", "x11", "e1x", "", "e1\u00b2", "e\u0661\u0662"):
        with pytest.raises(InvalidParameterError):
            EdgeLabel.parse(bad)
    with pytest.raises(InvalidParameterError):
        EdgeLabel.parse("e10")  # position must be 1..3
    with pytest.raises(InvalidParameterError):
        EdgeLabel(0, 1)


@pytest.mark.parametrize("label", ["e1\u00b2", "e\u0661\u0662"])
def test_labels_take_ascii_digits_only(tmp_path, run_cli, label):
    # str.isdigit accepts a superscript two and Arabic-Indic digits: int()
    # fails on the first, and the second would be read back as e12
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"vertices": 2, "edges": [[0, 1]], "labels": [label]}))
    result = run_cli("graph", "--input", str(doc), "facets")
    assert result.code == 1
    assert result.stdout == ""
    assert result.stderr == f"error: labels[0]: bad edge label {label!r}\n"


# Each document holds one value of about a megabyte that its error
# names; the echo is cut, and says where and how long the value was.
@pytest.mark.parametrize("doc, echoed", [
    ({"vertices": 2, "edges": [list(range(200_000))]}, "edges[0]: expected a pair"),
    ({"vertices": 2, "edges": [[0, 1]], "labels": ["e" * 1_000_000]}, "labels[0]: bad edge"),
    ({"vertices": 2, "edges": [], **{f"k{i}": 0 for i in range(100_000)}}, "unknown keys"),
])
def test_parse_errors_echo_a_bounded_value(tmp_path, run_cli, doc, echoed):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    result = run_cli("graph", "--input", str(path), "f-vector")
    assert result.code == 1
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith(f"error: {echoed}")
    assert " (first 64 of " in line
    assert len(result.stderr.encode()) < 200


def test_graph_validation():
    with pytest.raises(InvalidParameterError):
        Graph(2, ((0, 2),))
    with pytest.raises(InvalidParameterError):
        Graph(3, ((1, 1),))
    with pytest.raises(InvalidParameterError):
        Graph(3, ((0, 1), (1, 0)))
    with pytest.raises(InvalidParameterError):
        Graph(3, ((0, 1),), labels=(EdgeLabel(1, 1), EdgeLabel(1, 2)))
    with pytest.raises(InvalidParameterError):
        Graph(3, ((0, 1), (1, 2)), labels=(EdgeLabel(1, 1), EdgeLabel(1, 1)))


def test_jahangir_order_detection(j3, j4):
    assert jahangir_order(j3) == 3
    assert jahangir_order(j4) == 4
    assert jahangir_order(TRIANGLE) is None
    # same edge set, scrambled order: still recognized
    shuffled = Graph(j3.vertex_count, tuple(reversed(j3.edges)))
    assert jahangir_order(shuffled) == 3
    # right size, wrong wiring
    wrong = Graph(7, tuple((i, (i + 1) % 7) for i in range(7)) + ((0, 2), (0, 3)))
    assert jahangir_order(wrong) is None


# ---------------------------------------------------------------------------
# document format


def test_round_trip(j3):
    assert parse_graph(emit_graph(j3)) == j3
    assert parse_graph(emit_graph(TRIANGLE)) == TRIANGLE


def test_parse_minimal():
    g = parse_graph('{"vertices": 2, "edges": [[0, 1]]}')
    assert g.edge_count == 1 and g.labels is None


@pytest.mark.parametrize(
    "text, needle",
    [
        ('{"vertices": 3, "edges": [[0, 1], [0]]}', "edges[1]"),
        ('{"vertices": 3, "edges": [[0, 1], [1, true]]}', "edges[1]"),
        ('{"vertices": 3, "edges": [[0, 1.5]]}', "edges[0]"),
        ('{"vertices": 3, "edges": [[0, 1]], "labels": ["zz"]}', "labels[0]"),
        ('{"vertices": 3, "edges": [[0, 5]]}', "edges[0]"),
        ('{"vertices": 3, "edges": [[0, 1], [1, 0]]}', "edges[1]"),
        ('{"vertices": true, "edges": []}', "vertices"),
        ('{"vertices": 3, "edges": [[0, 1]], "extra": 1}', "extra"),
        ('[1, 2]', "object"),
        ('{"vertices": 3 "edges": []}', "line 1"),
        # past the interpreter's limits on an integer's digits and on
        # nesting; 3.13 reads the deep labels value, and the labels
        # check refuses it
        pytest.param('{"vertices": ' + "9" * 5000 + ', "edges": []}', "5000 digits",
                     id="long-integer"),
        pytest.param("[" * 100_000, "nested too deeply", id="deep-array"),
        pytest.param('{"vertices": 1, "edges": [], "labels": '
                     + "[" * 5000 + "]" * 5000 + "}", "", id="deep-labels"),
    ],
)
def test_parse_errors_name_the_entry(text, needle):
    with pytest.raises(GraphParseError) as exc:
        parse_graph(text)
    assert needle in str(exc.value)


def test_parse_refuses_a_duplicated_key():
    # json.loads keeps the last value of a repeated key: this document
    # would be read as 4 vertices and refused as disconnected
    text = '{"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]], "vertices": 4}'
    with pytest.raises(GraphParseError, match='^duplicate key "vertices"$'):
        parse_graph(text)
    assert parse_graph(text.replace(', "vertices": 4', "")).vertex_count == 3
    with pytest.raises(GraphParseError, match='^duplicate key "u"$'):
        parse_graph('{"vertices": 2, "edges": [{"u": 0, "u": 1}]}')
    # a nested object without a repeat still reaches the entry check
    with pytest.raises(GraphParseError, match=r"edges\[0\]"):
        parse_graph('{"vertices": 2, "edges": [{"u": 0, "v": 1}]}')


# ---------------------------------------------------------------------------
# spanning-tree count


def relabelled(n, edges, rng):
    """The graph with its vertices permuted, its edges shuffled and each
    edge's ends swapped at random: the pivot order must not care."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
           for u, v in edges]
    rng.shuffle(out)
    return Graph(n, tuple(out))


def test_matrix_tree_small():
    assert matrix_tree_count(TRIANGLE) == 3
    path = Graph(4, ((0, 1), (1, 2), (2, 3)))
    assert matrix_tree_count(path) == 1
    disconnected = Graph(4, ((0, 1), (2, 3)))
    assert matrix_tree_count(disconnected) == 0
    assert matrix_tree_count(Graph(1, ())) == 1
    with pytest.raises(InvalidParameterError):
        matrix_tree_count(Graph(0, ()))


def test_matrix_tree_complete_graphs():
    # Cayley: n^(n-2)
    rng = random.Random(15)
    for n in range(2, 11):
        edges = tuple((u, v) for u in range(n) for v in range(u + 1, n))
        assert matrix_tree_count(Graph(n, edges)) == n ** (n - 2)
        complete = relabelled(n, edges, rng)
        assert matrix_tree_count(complete) == n ** (n - 2) == \
            laplacian_tree_count(n, list(complete.edges))


def test_matrix_tree_family():
    for m, want in TREE_COUNTS.items():
        g = build_jahangir(m)
        assert matrix_tree_count(g) == want
        assert laplacian_tree_count(g.vertex_count, list(g.edges)) == want


def test_matrix_tree_random_agrees_with_fraction_oracle():
    rng = random.Random(1)
    for _ in range(25):
        n, edges = random_connected_graph(rng)
        g = Graph(n, tuple(edges))
        assert matrix_tree_count(g) == laplacian_tree_count(n, edges)


def test_matrix_tree_relabelled_random_graphs_agree_with_fraction_oracle():
    rng = random.Random(11)
    for _ in range(80):
        n, edges = random_connected_graph(rng, max_vertices=16, max_extra=30, max_edges=45)
        g = relabelled(n, edges, rng)
        assert matrix_tree_count(g) == laplacian_tree_count(n, list(g.edges))


def test_matrix_tree_trees_and_cycles():
    rng = random.Random(12)
    for n in range(1, 40):
        tree = relabelled(n, [(rng.randrange(v), v) for v in range(1, n)], rng)
        assert matrix_tree_count(tree) == 1
    for n in range(3, 40):
        cycle = relabelled(n, [(i, (i + 1) % n) for i in range(n)], rng)
        assert matrix_tree_count(cycle) == n


def test_matrix_tree_jahangir_agrees_with_fraction_oracle():
    for m in range(3, 31):
        g = build_jahangir(m)
        assert matrix_tree_count(g) == laplacian_tree_count(g.vertex_count, list(g.edges))


def test_matrix_tree_long_sparse_path_under_relabelling():
    # a 150-vertex path with chords (a, a+3), the benchmark's long shape:
    # the oracle judges it once, each relabelling must agree
    n = 150
    edges = [(i, i + 1) for i in range(n - 1)] + [(a, a + 3) for a in range(0, n - 3, 9)]
    want = laplacian_tree_count(n, edges)
    assert want == 4 ** 17
    rng = random.Random(13)
    for _ in range(5):
        assert matrix_tree_count(relabelled(n, edges, rng)) == want


def test_matrix_tree_disconnected_documents_count_zero():
    n = 12
    cycle = [(i, (i + 1) % 7) for i in range(7)]
    two_components = cycle + [(i, i + 1) for i in range(7, n - 1)]
    isolated_first = [(u + 1, v + 1) for u, v in cycle] + [(7, 8), (8, 9), (9, 10), (10, 11)]
    isolated_last = cycle + [(6, 7), (7, 8), (8, 9), (9, 10)]
    rng = random.Random(14)
    for edges in (two_components, isolated_first, isolated_last):
        assert laplacian_tree_count(n, edges) == 0
        assert matrix_tree_count(Graph(n, tuple(edges))) == 0
        assert matrix_tree_count(relabelled(n, edges, rng)) == 0
    assert matrix_tree_count(Graph(3, ())) == 0


@pytest.mark.parametrize("g", [
    build_jahangir(207),
    Graph(415, tuple((i, (i + 1) % 415) for i in range(415))),
], ids=["J(2,207)", "cycle415"])
def test_matrix_tree_count_at_the_guard_cap_within_budget(g):
    # the largest graphs the CLI guard counts: they take milliseconds,
    # and a dense O(V^3) elimination takes seconds
    start = time.perf_counter()
    count = matrix_tree_count(g)
    assert time.perf_counter() - start < 0.25
    assert count > 0


def test_cactus_bound_never_exceeds_the_tree_count():
    # the bound is the tree count of a subgraph, so at most the graph's
    rng = random.Random(15)
    for _ in range(150):
        n, edges = random_connected_graph(rng, max_vertices=14, max_extra=25, max_edges=40)
        g = relabelled(n, edges, rng)
        bound = _cactus_tree_bound(g, 10 ** 100)
        assert 1 <= bound <= laplacian_tree_count(n, list(g.edges))
    for n in range(3, 40):  # a cycle is its own cactus
        assert _cactus_tree_bound(relabelled(n, [(i, (i + 1) % n) for i in range(n)],
                                             rng), 10 ** 100) == n
    assert _cactus_tree_bound(Graph(5, ((0, 1), (1, 2), (3, 4))), 10 ** 100) == 0


def test_cactus_bound_stops_once_it_passes_the_limit():
    # K9's greedy cactus is four triangles at vertex 0: 81 trees; J(2,207)'s
    # 4-cycles pass 500,000 at the tenth, long before all are multiplied
    k9 = Graph(9, tuple((u, v) for u in range(9) for v in range(u + 1, 9)))
    assert _cactus_tree_bound(k9, 10 ** 100) == 81
    j207 = build_jahangir(207)
    assert _cactus_tree_bound(j207, 500_000) == 4 ** 10
    assert 4 ** 10 < _cactus_tree_bound(j207, 10 ** 100) <= matrix_tree_count(j207)


# ---------------------------------------------------------------------------
# simple cycles


def test_simple_cycles_j3(j3):
    cycles = enumerate_simple_cycles(j3)
    assert len(cycles) == 7
    assert sorted(c.bit_count() for c in cycles) == [4, 4, 4, 6, 6, 6, 6]
    assert set(map(as_set, cycles)) == brute_simple_cycles(j3.vertex_count, list(j3.edges))


def test_simple_cycles_j4(j4):
    cycles = enumerate_simple_cycles(j4)
    assert len(cycles) == 13
    assert set(map(as_set, cycles)) == brute_simple_cycles(j4.vertex_count, list(j4.edges))


def test_simple_cycles_counts_follow_family_rule():
    # m base cycles, then one merged cycle per run of consecutive
    # spokes dropped: m^2 - m + 1 in total
    for m in (3, 4, 5, 6, 17):
        cycles = enumerate_simple_cycles(build_jahangir(m))
        assert len(cycles) == m * m - m + 1
    # J(2,17) sits exactly at the rank cap: 51 edges, 35 vertices
    g = build_jahangir(17)
    assert g.edge_count - g.vertex_count + 1 == MAX_INDEPENDENT_CYCLES


def test_simple_cycles_acyclic_graphs():
    assert enumerate_simple_cycles(Graph(4, ((0, 1), (1, 2), (2, 3)))) == []
    assert enumerate_simple_cycles(Graph(2, ((0, 1),))) == []
    assert enumerate_simple_cycles(Graph(1, ())) == []


def test_simple_cycles_disconnected():
    g = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    cycles = enumerate_simple_cycles(g)
    assert len(cycles) == 2
    assert set(map(as_set, cycles)) == brute_simple_cycles(6, list(g.edges))


def test_simple_cycles_random():
    rng = random.Random(7)
    for _ in range(20):
        n, edges = random_connected_graph(rng)
        g = Graph(n, tuple(edges))
        assert set(map(as_set, enumerate_simple_cycles(g))) == \
            brute_simple_cycles(n, edges)


def _with_pendant_paths(rng, n, core):
    """core's edges shuffled among those of 1-3 pendant paths of 20-200
    edges each, and the document indices of the core's edges."""
    edges, v = list(core), n
    for _ in range(rng.randint(1, 3)):
        end = rng.randrange(v)
        for _ in range(rng.randint(20, 200)):
            edges.append((end, v))
            end, v = v, v + 1
    rng.shuffle(edges)
    return Graph(v, tuple(edges)), [i for i, e in enumerate(edges) if max(e) < n]


def test_simple_cycles_ignore_long_pendant_paths():
    # the cycles are the core's, at the document's indices, in canonical
    # order, however the pendant edges interleave with the core's
    rng = random.Random(16)
    for _ in range(30):
        n, core = random_connected_graph(rng, max_vertices=7, max_extra=4, max_edges=10)
        g, at = _with_pendant_paths(rng, n, core)
        want = {frozenset(at[i] for i in c)
                for c in brute_simple_cycles(n, [g.edges[i] for i in at])}
        cycles = enumerate_simple_cycles(g)
        assert len(cycles) == len(want) and set(map(as_set, cycles)) == want
        tuples = [sorted(as_set(c)) for c in cycles]
        assert tuples == sorted(tuples)


def test_simple_cycles_after_a_long_path_cost_the_cycles_alone():
    # the scan's masks span the cyclic part only: K7 listed after a
    # 2000-vertex path takes what K7 alone takes (0.05-0.06 s here), where
    # masks as wide as the edge list took 2.1-3.9 s
    k7 = [(u, v) for u in range(7) for v in range(u + 1, 7)]
    path = [(6 + i, 7 + i) for i in range(2000)]
    start = time.perf_counter()
    cycles = enumerate_simple_cycles(Graph(2007, tuple(path + k7)))
    assert time.perf_counter() - start < 0.5
    assert len(cycles) == 1172
    assert cycles == [c << 2000 for c in enumerate_simple_cycles(Graph(7, tuple(k7)))]


def test_simple_cycles_canonical_order(j3):
    # ascending index tuples, mixed sizes included
    tuples = [sorted(as_set(c)) for c in enumerate_simple_cycles(j3)]
    assert tuples == sorted(tuples)


def test_simple_cycle_mask_named_shapes():
    # a theta graph (three paths from 0 to 4: edges 0-1, 2-3, 4-5), two
    # triangles on 5..7 (6-8) and 8..10 (9-11), a chord 1-2 (12), a
    # pendant edge at 5 (13) and a triangle 5-9-10 (14, 10, 15)
    edges = ((0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4),
             (5, 6), (6, 7), (5, 7), (8, 9), (9, 10), (8, 10),
             (1, 2), (5, 11), (5, 9), (5, 10))

    def simple(*indices):
        return _is_simple_cycle_mask(as_mask(indices), edges)

    assert not simple()
    assert not any(simple(i) for i in range(len(edges)))
    assert not simple(0, 1) and not simple(0, 1, 3) and not simple(6, 7)
    assert simple(0, 1, 2, 3) and simple(2, 3, 4, 5) and simple(0, 1, 4, 5)
    assert not simple(0, 1, 2, 3, 4, 5)        # the whole theta graph
    assert not simple(0, 1, 2, 3, 12)          # a square with a chord
    assert simple(0, 2, 12) and simple(6, 7, 8) and simple(14, 10, 15)
    assert not simple(6, 7, 8, 9, 10, 11)      # two disjoint cycles
    assert not simple(6, 7, 8, 14, 10, 15)     # two cycles sharing vertex 5
    assert not simple(6, 7, 8, 13)             # a cycle with a pendant edge


def test_simple_cycle_mask_matches_brute_force():
    # random graphs, edge lists shuffled and reoriented: every mask up to 8
    # edges, else 256 random masks, the empty mask and every cycle
    rng = random.Random(11)
    for _ in range(60):
        n, edges = random_connected_graph(rng, max_vertices=10, max_extra=6, max_edges=13)
        rng.shuffle(edges)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        cycles = brute_simple_cycles(n, edges)
        masks = range(1 << len(edges))
        if len(edges) > 8:
            masks = [0, *rng.sample(masks, 256), *map(as_mask, cycles)]
        for mask in masks:
            assert _is_simple_cycle_mask(mask, tuple(edges)) == (as_set(mask) in cycles)


def test_simple_cycles_at_the_rank_cap():
    # a chain of 17 triangles has rank 17 and exactly its 17 triangles
    k = MAX_INDEPENDENT_CYCLES
    edges = []
    for i in range(k):
        edges += [(2 * i, 2 * i + 1), (2 * i + 1, 2 * i + 2), (2 * i, 2 * i + 2)]
    cycles = enumerate_simple_cycles(Graph(2 * k + 1, tuple(edges)))
    assert cycles == [0b111 << 3 * i for i in range(k)]


def test_simple_cycles_capacity():
    n = 9  # K9 has 28 independent cycles, above the cap
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n))
    with pytest.raises(CapacityError):
        enumerate_simple_cycles(Graph(n, edges))


def test_is_connected():
    assert is_connected(TRIANGLE)
    assert not is_connected(Graph(4, ((0, 1), (2, 3))))
    assert is_connected(Graph(1, ()))
    assert not is_connected(Graph(0, ()))
