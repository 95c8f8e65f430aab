"""Named graph families against their spanning-tree counts from the
literature: wheels, fans and complete bipartite graphs, built and
counted in tests/oracles.py with no code of the library's."""

import pytest

from jahangir_ssc import (
    Graph,
    emit_graph,
    enumerate_spanning_trees_generic,
    f_vector_direct,
    matrix_tree_count,
)

from oracles import complete_bipartite, family_tree_counts, wheel

FAMILIES = family_tree_counts()


@pytest.mark.parametrize("name, n, edges, count", FAMILIES,
                         ids=[family[0] for family in FAMILIES])
def test_three_engines_count_the_closed_form(name, n, edges, count):
    # the determinant, the forest sweep's top entry and the enumerator
    g = Graph(n, tuple(edges))
    assert matrix_tree_count(g) == f_vector_direct(g)[-1] == count
    assert len(enumerate_spanning_trees_generic(g)) == count


@pytest.mark.parametrize("family", [wheel(6), complete_bipartite(3, 3)],
                         ids=["W6", "K3,3"])
def test_graph_verify_finds_no_mismatch(family, run_cli, tmp_path):
    n, edges = family
    doc = tmp_path / "family.json"
    doc.write_text(emit_graph(Graph(n, tuple(edges))))
    res = run_cli("graph", "--input", str(doc), "verify")
    assert res.code == 0, res.stdout
