"""Spanning simplicial complexes of Jahangir graphs J(2,m).

Library plus CLI that builds the complex, computes its combinatorics
(spanning-tree classes, f-vectors, Hilbert series) by both structured
rules and independent brute-force oracles, checks Cohen-Macaulayness
through quasi-linear quotients, and reports every divergence between
the structured claims and the oracles instead of hiding it.
"""

from .algebra import (
    CMVerdict,
    certify,
    cohen_macaulay_verdict,
    prefix_block_ordering,
)
from .complexes import f_vector_direct
from .cycles import (
    CycleCatalog,
    CycleCatalogEntry,
    IntersectionMismatch,
    IntersectionSurvey,
    claimed_order,
    intersection_survey,
    oracle_cycle_catalog,
    predict_intersection,
    word_cycle_catalog,
    word_edge_set,
    word_of,
)
from .errors import (
    CapacityError,
    GraphParseError,
    InvalidParameterError,
    JssError,
    PurityError,
)
from .formulas import (
    FormulaFVector,
    FormulaTerm,
    HilbertSeries,
    f_vector_exact_ie,
    f_vector_formula,
    hilbert_function,
    hilbert_series,
)
from .graphs import (
    EdgeLabel,
    EdgeSet,
    Graph,
    build_jahangir,
    edge_indices,
    emit_graph,
    enumerate_simple_cycles,
    is_connected,
    jahangir_order,
    matrix_tree_count,
    parse_graph,
)
from .reports import ClaimResult, RunReport, build_graph_report, build_jahangir_report
from .spanning import (
    PartitionReport,
    TreeClass,
    enumerate_spanning_trees_generic,
    enumerate_spanning_trees_jahangir,
    verify_partition,
)

__version__ = "0.1.0"

__all__ = [
    "CMVerdict",
    "CapacityError",
    "ClaimResult",
    "CycleCatalog",
    "CycleCatalogEntry",
    "EdgeLabel",
    "EdgeSet",
    "FormulaFVector",
    "FormulaTerm",
    "Graph",
    "GraphParseError",
    "HilbertSeries",
    "IntersectionMismatch",
    "IntersectionSurvey",
    "InvalidParameterError",
    "JssError",
    "PartitionReport",
    "PurityError",
    "RunReport",
    "TreeClass",
    "build_graph_report",
    "build_jahangir",
    "build_jahangir_report",
    "certify",
    "claimed_order",
    "cohen_macaulay_verdict",
    "edge_indices",
    "emit_graph",
    "enumerate_simple_cycles",
    "enumerate_spanning_trees_generic",
    "enumerate_spanning_trees_jahangir",
    "f_vector_direct",
    "f_vector_exact_ie",
    "f_vector_formula",
    "hilbert_function",
    "hilbert_series",
    "intersection_survey",
    "is_connected",
    "jahangir_order",
    "matrix_tree_count",
    "oracle_cycle_catalog",
    "parse_graph",
    "predict_intersection",
    "prefix_block_ordering",
    "verify_partition",
    "word_cycle_catalog",
    "word_edge_set",
    "word_of",
]
