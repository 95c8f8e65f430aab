"""Per-layer figures from one traced request, and their sum over a pass.

A layer is a package module. Its self time is the import time of the
module plus the self time of its spans (see spantrace.py). Import time
comes from `python -X importtime`: each line is charged to the nearest
jahangir_ssc module above it in the import tree, so a standard-library
module is charged to the package module that first imported it, and the
charges are scaled to the import span the child measured. The package
`__init__` and `errors` are charged to `cli`, whose import pulls them in.
What neither covers, interpreter start and teardown, is
`trace.unattributed_s`, so the layers plus that add up to the wall time.
"""

from __future__ import annotations

from spantrace import LAYERS, PACKAGE

# inclusive span time of one function, reported under its own name
TIMED = {
    "spanning.enumerate_spanning_trees_generic": "spanning.generic_s",
    "spanning.enumerate_spanning_trees_jahangir": "spanning.structured_s",
    "graphs.matrix_tree_count": "graphs.determinant_s",
    "algebra.has_quasi_linear_quotients": "algebra.quotient_s",
    "algebra.is_shelling": "algebra.shelling_s",
    "algebra.find_qlq_ordering": "algebra.search_s",
}
ENUMERATORS = ("spanning.enumerate_spanning_trees_generic",
               "spanning.enumerate_spanning_trees_jahangir")


def split_importtime(stderr: str) -> tuple[dict[str, float], str]:
    """Import seconds per layer from `-X importtime` lines, and the rest
    of stderr."""
    rows, rest = [], []
    for line in stderr.splitlines(keepends=True):
        if line.startswith("import time:") and "|" in line:
            self_us, _, name = line[len("import time:"):].split("|")
            if self_us.strip().isdigit():
                depth = (len(name) - len(name.lstrip()) - 1) // 2
                rows.append((int(self_us), depth, name.strip()))
        else:
            rest.append(line)
    charged = {layer: 0.0 for layer in LAYERS}
    owners: list[str | None] = []
    for self_us, depth, name in reversed(rows):      # parents before children
        del owners[depth:]
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            layer = name[len(PACKAGE) + 1:]
            owner = layer if layer in charged else "cli"
        else:
            owner = owners[-1] if owners else None
        owners.append(owner)
        if owner is not None:
            charged[owner] += self_us / 1e6
    return charged, "".join(rest)


def request_figures(trace: dict, imports: dict[str, float], wall_s: float) -> dict:
    """Additive figures of one traced request."""
    names, spans = trace["functions"], trace["spans"]
    fig: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    fig.update({f"{layer}.calls": 0 for layer in LAYERS})
    fig.update({metric: 0.0 for metric in TIMED.values()})
    for key in ("spanning.trees", "complexes.forests", "graphs.cycle_masks",
                "graphs.cycles_found", "formulas.ie_cycles", "algebra.generators",
                "algebra.pair_bound", "enumerating_requests", "enumerations"):
        fig[key] = 0
    total_import = sum(imports.values())
    for layer, seconds in imports.items():
        share = seconds / total_import if total_import else 0.0
        fig[f"{layer}.self_s"] += share * trace["import_s"]

    child = [0.0] * len(spans)
    for fid, parent, start, end, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = {name: 0 for name in ENUMERATORS}
    main_s = 0.0
    for sid, (fid, parent, start, end, raised, work) in enumerate(spans):
        name = names[fid]
        layer = name.split(".")[0]
        fig[f"{layer}.self_s"] += end - start - child[sid]
        fig[f"{layer}.calls"] += 1
        if parent < 0:
            main_s += end - start
        if name in TIMED:
            fig[TIMED[name]] += end - start
        if name in calls:
            calls[name] += 1
            fig["spanning.trees"] += work or 0
        elif name == "complexes.f_vector_direct":
            fig["complexes.forests"] += work or 0
        elif name == "graphs.enumerate_simple_cycles" and work:
            fig["graphs.cycles_found"] += work[0]
            fig["graphs.cycle_masks"] += work[1]
            if parent >= 0 and names[spans[parent][0]] == "formulas.f_vector_exact_ie" \
                    and not spans[parent][4]:
                fig["formulas.ie_cycles"] += work[0]
        elif name == "algebra.facet_ideal":
            fig["algebra.generators"] += work or 0
        elif name in ("algebra.has_quasi_linear_quotients", "algebra.is_shelling"):
            fig["algebra.pair_bound"] += work or 0
    if any(calls.values()):
        fig["enumerating_requests"] = 1
        fig["enumerations"] = max(calls.values())
    fig["trace.wall_s"] = wall_s
    fig["trace.unattributed_s"] = wall_s - trace["import_s"] - main_s
    return fig


def workload_figures(per_request: list[dict], untraced_wall_s: float) -> dict:
    """Per-layer metrics of a pass: sums of the requests' figures, plus
    the ratios derived from them."""
    total: dict[str, float] = {}
    for fig in per_request:
        for key, value in fig.items():
            total[key] = total.get(key, 0) + value
    requests = total.pop("enumerating_requests")
    enumerations = total.pop("enumerations")
    found = total.pop("graphs.cycles_found")
    total["spanning.enumerations_per_request"] = enumerations / requests if requests else 0.0
    total["graphs.cycle_yield"] = found / total["graphs.cycle_masks"] \
        if total["graphs.cycle_masks"] else 0.0
    total["trace.overhead_frac"] = total["trace.wall_s"] / untraced_wall_s - 1
    return total
