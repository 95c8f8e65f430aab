"""Run one jssc request with every public function of the package wrapped
from outside, and write the spans to a JSON file:

    python -X importtime perfbench/spantrace.py SPANS.json ARGS...

ARGS are the CLI arguments, as after `jssc`. Nothing under src/ changes.
After `import jahangir_ssc.cli`, each public function defined in one of
the package modules is replaced by a wrapper in every module namespace
that binds it. `from .x import y` names and module globals alike then
lead to the wrapper, so nested calls are traced too.

A span is [function, parent span, start, end, raised, work]: work is one
count taken from the arguments or the return value, for the functions in
WORK, and null otherwise. The parent is the innermost open span, so a
span's self time is its length minus its children's.
"""

import sys
import time

PACKAGE = "jahangir_ssc"
LAYERS = ("graphs", "cycles", "spanning", "complexes", "formulas", "algebra",
          "reports", "cli")


def _cycle_rank(g) -> int:
    """Edges minus vertices plus components: the cycle-space dimension."""
    parent = list(range(g.vertex_count))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    merged = 0
    for u, v in g.edges:
        a, b = root(u), root(v)
        if a != b:
            parent[a] = b
            merged += 1
    return g.edge_count - merged


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _pairs(r: int) -> int:
    return r * (r - 1) // 2


WORK = {
    "spanning.enumerate_spanning_trees_generic": lambda a, k, r: len(r),
    "spanning.enumerate_spanning_trees_jahangir": lambda a, k, r: len(r),
    "complexes.f_vector_direct": lambda a, k, r: sum(r) + 1,
    "graphs.enumerate_simple_cycles":
        lambda a, k, r: [len(r), 2 ** _cycle_rank(_first(a, k)) - 1],
    "algebra.facet_ideal": lambda a, k, r: len(r.generators),
    "algebra.has_quasi_linear_quotients":
        lambda a, k, r: _pairs(len(_first(a, k).generators)),
    "algebra.is_shelling": lambda a, k, r: _pairs(len(_first(a, k))),
}


def _wrapper(fn, fid, work, spans, stack):
    clock = time.perf_counter

    def traced(*args, **kwargs):
        parent = stack[-1]
        sid = len(spans)
        spans.append(None)
        stack.append(sid)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            spans[sid] = [fid, parent, start, clock(), 1, None]
            raise
        finally:
            stack.pop()
        end = clock()
        spans[sid] = [fid, parent, start, end, 0,
                      None if work is None else work(args, kwargs, result)]
        return result

    traced.__name__ = fn.__name__
    traced.__doc__ = fn.__doc__
    return traced


def install(spans: list, stack: list) -> list[str]:
    """Wrap every public function of the layer modules, rebind it in all
    package modules, and return the function names by span id."""
    names: list[str] = []
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in sorted(vars(module).items()):
            if (type(obj).__name__ == "function" and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                qual = f"{layer}.{name}"
                wrappers[id(obj)] = _wrapper(obj, len(names), WORK.get(qual), spans, stack)
                names.append(qual)
    for modname, module in list(sys.modules.items()):
        if modname == PACKAGE or modname.startswith(PACKAGE + "."):
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, name, wrappers[id(obj)])
    return names


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import jahangir_ssc.cli  # noqa: F401  (the import span)
    import_s = time.perf_counter() - start
    spans: list = []
    names = install(spans, [-1])
    try:
        return sys.modules[f"{PACKAGE}.cli"].main(argv)
    finally:
        import json
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "functions": names, "spans": spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
