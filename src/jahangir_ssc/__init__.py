"""Spanning simplicial complexes of Jahangir graphs J(2,m).

Library plus CLI that builds the complex, computes its combinatorics
(spanning-tree classes, f-vectors, Hilbert series) by both structured
rules and independent brute-force oracles, checks Cohen-Macaulayness
through quasi-linear quotients, and reports every divergence between
the structured claims and the oracles instead of hiding it.

Importing the package runs only `errors`. Every other layer is found
and registered at once, in `sys.modules` and as an attribute of the
package, but its body runs on the first attribute read: a CLI request
runs only the layers its action reaches. The first read runs the body
under one lock, so a second thread waits for the whole module, and a
body that raises is run again, and raises again, at the next read.
`type(module) is types.ModuleType` once it has run. The public names
below resolve through `__getattr__`, which reads them from their home
layer.
"""

import importlib.util
import sys
import threading
import types

from . import errors

__version__ = "0.1.0"

# Each public name and the layer that defines it. The re-exports and
# __all__ both read this table.
_HOMES = {
    "CMVerdict": "algebra",
    "certify": "algebra",
    "cohen_macaulay_verdict": "algebra",
    "prefix_block_ordering": "algebra",
    "f_vector_direct": "complexes",
    "CycleCatalog": "cycles",
    "CycleCatalogEntry": "cycles",
    "IntersectionMismatch": "cycles",
    "IntersectionSurvey": "cycles",
    "claimed_order": "cycles",
    "intersection_survey": "cycles",
    "oracle_cycle_catalog": "cycles",
    "predict_intersection": "cycles",
    "word_cycle_catalog": "cycles",
    "word_edge_set": "cycles",
    "word_of": "cycles",
    "CapacityError": "errors",
    "GraphParseError": "errors",
    "InvalidParameterError": "errors",
    "JssError": "errors",
    "PurityError": "errors",
    "FormulaFVector": "formulas",
    "FormulaTerm": "formulas",
    "HilbertSeries": "formulas",
    "f_vector_exact_ie": "formulas",
    "f_vector_formula": "formulas",
    "hilbert_function": "formulas",
    "hilbert_series": "formulas",
    "EdgeLabel": "graphs",
    "EdgeSet": "graphs",
    "Graph": "graphs",
    "build_jahangir": "graphs",
    "edge_indices": "graphs",
    "emit_graph": "graphs",
    "enumerate_simple_cycles": "graphs",
    "is_connected": "graphs",
    "jahangir_order": "graphs",
    "matrix_tree_count": "graphs",
    "parse_graph": "graphs",
    "ClaimResult": "reports",
    "RunReport": "reports",
    "build_graph_report": "reports",
    "build_jahangir_report": "reports",
    "PartitionReport": "spanning",
    "TreeClass": "spanning",
    "enumerate_spanning_trees_generic": "spanning",
    "enumerate_spanning_trees_jahangir": "spanning",
    "verify_partition": "spanning",
}

__all__ = sorted(_HOMES)


# Held while a layer's body runs; reentrant, since a body's imports run
# the layers it imports from.
_RUN_LOCK = threading.RLock()
_RUNNING: set[str] = set()


class _Layer(types.ModuleType):
    """A layer module whose body has not run. Every attribute read runs
    it first, under _RUN_LOCK, and only then makes it a plain module:
    a thread that reads it meanwhile waits for the whole module instead
    of seeing a half-run one. If the body raises, the module stays
    unrun, so the next read runs it again and raises the real error."""

    def __getattribute__(self, attr: str):
        with _RUN_LOCK:
            spec = types.ModuleType.__getattribute__(self, "__spec__")
            # not for the loader's own reads while the body runs
            if type(self) is _Layer and spec.name not in _RUNNING:
                _RUNNING.add(spec.name)
                try:
                    spec.loader.exec_module(self)
                finally:
                    _RUNNING.discard(spec.name)
                self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, attr)


def _lazy(layer: str) -> types.ModuleType:
    """Register the layer module in sys.modules, to run on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _Layer
    sys.modules[spec.name] = module
    return module


graphs = _lazy("graphs")
cycles = _lazy("cycles")
spanning = _lazy("spanning")
complexes = _lazy("complexes")
formulas = _lazy("formulas")
algebra = _lazy("algebra")
reports = _lazy("reports")


def __getattr__(name: str):
    try:
        layer = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[layer], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
