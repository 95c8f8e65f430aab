"""Spanning simplicial complexes of Jahangir graphs J(2,m).

Library plus CLI that builds the complex, computes its combinatorics
(spanning-tree classes, f-vectors, Hilbert series) by both structured
rules and independent brute-force oracles, checks Cohen-Macaulayness
through quasi-linear quotients, and reports every divergence between
the structured claims and the oracles instead of hiding it.

Importing the package runs only `errors`. Every other layer is found
and registered at once, in `sys.modules` and as an attribute of the
package, but its body runs on the first attribute read other than the
import metadata the import system sets, such as `__spec__`: a CLI
request runs only the layers its action reaches. The first read runs the body
under one lock, so a second thread waits for the whole module, and a
body that raises is run again, and raises again, at the next read.
`type(module) is types.ModuleType` once it has run. The public names
in `__all__` resolve through `__getattr__`, which reads each from the
module that defines it, its home in `_EXPORTS`, so reading a re-export
runs its home layer and the layers that layer imports, and no other.
"""

import importlib.util
import sys
import threading
import types

from . import errors

__version__ = "0.1.0"

# Each public name under the module that defines it, its home.
_EXPORTS = {
    "errors": ("CapacityError", "GraphParseError", "InvalidParameterError",
               "JssError"),
    "records": ("EdgeLabel", "EdgeSet", "Graph", "build_jahangir", "edge_indices",
                "is_connected", "word_edge_set", "word_of"),
    "graphs": ("emit_graph", "enumerate_simple_cycles", "matrix_tree_count",
               "parse_graph"),
    "cycles": ("CycleCatalog", "CycleCatalogEntry", "IntersectionMismatch",
               "IntersectionSurvey", "claimed_order", "intersection_survey",
               "jahangir_order", "oracle_cycle_catalog", "predict_intersection",
               "word_cycle_catalog"),
    "complexes": ("HilbertSeries", "f_vector_direct", "hilbert_function",
                  "hilbert_series"),
    "spanning": ("PartitionReport", "TreeClass", "enumerate_spanning_trees_generic",
                 "enumerate_spanning_trees_jahangir", "verify_partition"),
    "formulas": ("FormulaFVector", "FormulaTerm", "f_vector_exact_ie",
                 "f_vector_formula"),
    "algebra": ("CMVerdict", "block_ordering_histogram", "block_ordering_verdict",
                "cohen_macaulay_verdict", "prefix_block_ordering",
                "search_ordering_histogram"),
    "reports": ("ClaimResult", "RunReport", "build_graph_report",
                "build_jahangir_report"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)

# The layers in import order: each imports only from errors and the
# layers before it. complexes imports from records alone, and precedes
# spanning, whose enumerator imports the frontier helpers of complexes'
# forest sweep, so a sweep runs complexes and records alone.
_LAYERS = ("records", "graphs", "cycles", "complexes", "spanning", "formulas",
           "algebra", "reports")


# Held while a layer's body runs; reentrant, since a body's imports run
# the layers it imports from.
_RUN_LOCK = threading.RLock()
_RUNNING: set[str] = set()


# What module_from_spec sets on a module before its body runs: an unrun
# layer answers these, so importlib.util.find_spec reads its __spec__
# without running it.
_IMPORT_METADATA = frozenset({"__name__", "__loader__", "__package__", "__spec__",
                              "__path__", "__file__", "__cached__"})


class _Layer(types.ModuleType):
    """A layer module whose body has not run. Every attribute read but
    _IMPORT_METADATA, vars() included, runs it first, under _RUN_LOCK,
    and only then makes it a plain module: a thread that reads it
    meanwhile waits for the whole module instead of seeing a half-run
    one. If the body raises, the module stays unrun, so the next read
    runs it again and raises the real error."""

    def __getattribute__(self, attr: str):
        if attr in _IMPORT_METADATA:
            return types.ModuleType.__getattribute__(self, attr)
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


globals().update({layer: _lazy(layer) for layer in _LAYERS})


def __getattr__(name: str):
    # a public name is read from its home alone, which runs that layer
    # and the layers it imports
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
