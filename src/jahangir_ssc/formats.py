"""The CSV and text renderings of a CLI payload.

Imported by `cli.main` only when --format asks for one of them, so a
JSON request does not compile this module. A payload's `facets` and
`entries` may be iterators: each rendering reads them once.
"""

from __future__ import annotations

import json
from collections.abc import Iterator


def write(payload: dict, fmt: str, out) -> None:
    """Write payload by out.write() as CSV (fmt "csv") or text."""
    if fmt == "csv":
        import csv

        csv.writer(out, lineterminator="\n").writerows(csv_rows(payload))
    else:
        for line in text_lines(payload):
            out.write(line + "\n")


def csv_rows(payload: dict) -> Iterator[list[object]]:
    """The CSV rows of a payload, yielded one at a time."""
    action = payload["action"]
    if action == "facets":
        yield ["index", "edges"]
        for i, f in enumerate(payload["facets"]):
            yield [i, " ".join(str(x) for x in f)]
    elif action == "classes":
        yield ["class", "count"]
        yield from ([k, v] for k, v in payload["counts"].items())
        yield ["total", payload["total"]]
    elif action == "cycles":
        yield ["word", "beta", "is_simple_cycle", "edges"]
        for e in payload["entries"]:
            word = " ".join(str(x) for x in e["word"]) if e["word"] else ""
            yield [word, e["beta"], e["is_simple_cycle"],
                   " ".join(str(x) for x in e["edges"])]
    elif action == "f-vector":
        yield ["i", "f_i"]
        yield from ([i, v] for i, v in enumerate(payload["f_vector"]))
        for item in payload.get("mismatch_indices", []):
            yield ["mismatch", f"i={item['index']} closed_form={item['closed_form']}"
                   f" direct={item['direct']}"]
        for row in payload.get("audit", []):
            yield ["audit", f"sign={row['sign']} union_estimate={row['union_estimate']}"
                   f" multiplicity={row['multiplicity']}"]
    elif action == "hilbert":
        yield ["k", "numerator_coefficient"]
        yield from ([k, c] for k, c in enumerate(payload["numerator"]))
        yield ["denominator_power", payload["denominator_power"]]
    elif action == "cm":
        yield ["key", "value"]
        for k in ("cohen_macaulay", "ordering_source", "block_first_failure",
                  "shelling_agrees"):
            yield [k, payload[k]]
    else:
        # --timings adds a column of each claim's seconds
        timings = payload["timings"]
        yield ["claim", "verdict", "claimed", "oracle"] + (["seconds"] if timings else [])
        for c in payload["claims"]:
            row = [c["name"], c["verdict"], json.dumps(c["claimed"]), json.dumps(c["oracle"])]
            yield row + [timings[c["name"]]] if timings else row


def text_lines(payload: dict) -> Iterator[str]:
    """The text rendering of a payload, yielded line by line."""
    action = payload["action"]
    if action == "facets":
        yield (f"{payload['count']} facets "
               f"(matrix-tree count {payload['matrix_tree_count']})")
        for f in payload["facets"]:
            yield " ".join(str(x) for x in f)
    elif action == "classes":
        yield from (f"{k}: {v}" for k, v in payload["counts"].items())
        yield (f"total: {payload['total']} "
               f"(matrix-tree count {payload['matrix_tree_count']})")
    elif action == "cycles":
        yield f"{payload['count']} catalog entries"
        for e in payload["entries"]:
            word = ",".join(str(x) for x in e["word"]) if e["word"] else "-"
            flag = "" if e["is_simple_cycle"] else "  [not a simple cycle]"
            yield (f"word {word}: beta {e['beta']}, edges "
                   + " ".join(str(x) for x in e["edges"]) + flag)
    elif action == "f-vector":
        yield "f = (" + ", ".join(payload["f_vector"]) + ")"
        for item in payload.get("mismatch_indices", []):
            yield (f"  diverges from the direct oracle at i={item['index']}: "
                   f"{item['closed_form']} vs {item['direct']}")
        for row in payload.get("audit", []):
            yield (f"  audit: sign {row['sign']}, union estimate {row['union_estimate']}, "
                   f"multiplicity {row['multiplicity']}")
    elif action == "hilbert":
        terms = [f"{c}*t^{k}" if k else c
                 for k, c in enumerate(payload["numerator"]) if c != "0"]
        yield " + ".join(terms) + f" over (1-t)^{payload['denominator_power']}"
    elif action == "cm":
        for key in ("cohen_macaulay", "ordering_source", "shelling_agrees"):
            yield f"{key}: {payload[key]}"
    else:
        timings = payload["timings"]
        for c in payload["claims"]:
            line = (f"[{c['verdict']:>9}] {c['name']}: "
                    f"claimed {json.dumps(c['claimed'])} "
                    f"vs oracle {json.dumps(c['oracle'])}")
            # --timings appends each claim's seconds
            yield f"{line} ({timings[c['name']]} s)" if timings else line
        yield f"mismatches: {payload['mismatches']}"
