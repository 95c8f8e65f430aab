"""Labeled simple graphs: the document reader and writer, and the two
ground-truth oracles everything else is checked against: an exact
fraction-free spanning-tree count and exhaustive simple-cycle
enumeration. The Graph record, J(2,m) itself and the spanning forest
that the tree guard and the cycle scan read are in records.
"""

from __future__ import annotations

from .errors import (MAX_CYCLE_SCAN_VERTICES, MAX_INDEPENDENT_CYCLES, TREE_ENUMERATION_LIMIT,
                     TREE_GUARD_VERTEX_LIMIT, GraphParseError, InvalidParameterError,
                     capacity_error)
from .records import (EdgeLabel, EdgeSet, Graph, _echo, edge_indices, memo,
                      require_spanning_complex, spanning_forest)


# ---------------------------------------------------------------------------
# Document format: {"vertices": N, "edges": [[u, v], ...], "labels": [...]}
# json is imported by the functions that read or write a document, so
# that a request on J(2,m) imports none.


def _read_document(path: str) -> Graph:
    """The graph of the document file at path, which must be UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise GraphParseError(
            f"cannot read {path}: not UTF-8 ({exc.reason} at byte {exc.start})"
        ) from None
    return parse_graph(text)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object of a document as a dict, refused if it repeats a
    key, whose earlier values json.loads would drop without a word."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                import json
                raise GraphParseError(f"duplicate key {json.dumps(key)}")
            seen.add(key)
    return obj


def parse_graph(text: str) -> Graph:
    """Parse the JSON graph document format.

    Malformed documents raise GraphParseError naming the offending
    entry; structural violations (loops, duplicates), a key repeated
    in any object, an integer past the interpreter's digit limit and
    nesting past its recursion limit are reported the same way.
    """
    import json

    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"line {exc.lineno}: {exc.msg}") from None
    except GraphParseError:  # a repeated key; a ValueError too
        raise
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise GraphParseError(f"unreadable number: {str(exc).partition(';')[0]}") from None
    except RecursionError:
        raise GraphParseError("arrays or objects nested too deeply") from None
    if not isinstance(doc, dict):
        raise GraphParseError("document root must be an object")
    unknown = set(doc) - {"vertices", "edges", "labels"}
    if unknown:
        raise GraphParseError(f"unknown keys: {_echo(sorted(unknown))}")
    if not isinstance(doc.get("vertices"), int) or isinstance(doc.get("vertices"), bool):
        raise GraphParseError('"vertices" must be an integer')
    raw_edges = doc.get("edges")
    if not isinstance(raw_edges, list):
        raise GraphParseError('"edges" must be a list of [u, v] pairs')
    # bool is JSON's only subclass of int, so an exact type test refuses it
    for pos, item in enumerate(raw_edges):
        if not (type(item) is list and len(item) == 2
                and type(item[0]) is int and type(item[1]) is int):
            raise GraphParseError(
                f"edges[{pos}]: expected a pair of integers, got {_echo(item)}")
    edges = tuple(map(tuple, raw_edges))
    labels: tuple[EdgeLabel, ...] | None = None
    if "labels" in doc:
        raw_labels = doc["labels"]
        if not isinstance(raw_labels, list) or not all(isinstance(s, str) for s in raw_labels):
            raise GraphParseError('"labels" must be a list of strings')
        parsed = []
        for pos, s in enumerate(raw_labels):
            try:
                parsed.append(EdgeLabel.parse(s))
            except InvalidParameterError as exc:
                raise GraphParseError(f"labels[{pos}]: {exc}") from None
        labels = tuple(parsed)
    try:
        return Graph(doc["vertices"], edges, labels)
    except InvalidParameterError as exc:
        raise GraphParseError(str(exc)) from None


def emit_graph(g: Graph) -> str:
    """Serialize g in the document format; parse_graph round-trips it."""
    import json

    doc: dict = {"vertices": g.vertex_count, "edges": [list(e) for e in g.edges]}
    if g.labels is not None:
        doc["labels"] = [str(lab) for lab in g.labels]
    return json.dumps(doc) + "\n"


def _edge_lister(g: Graph):
    """Edge sets as output sequences: lists of labels where g has them,
    else tuples of indices, which JSON writes as lists."""
    if g.labels is None:
        return edge_indices
    names = [str(label) for label in g.labels]
    return lambda mask: [names[i] for i in edge_indices(mask)]


# ---------------------------------------------------------------------------
# Oracle 1: exact spanning-tree count


@memo
def matrix_tree_count(g: Graph) -> int:
    """Number of spanning trees, as a cofactor of the Laplacian computed
    by sparse fraction-free (Bareiss) elimination.

    The Laplacian keeps one dict of nonzero entries per vertex. Pivots
    are taken in minimum-degree order on the fill graph, which keeps the
    fill of a sparse graph small whatever its labels, and the vertex
    left last is the one deleted: the leading minor of order V - 1 is
    the count. A step rewrites only the entries between two neighbours
    of its pivot. Any other entry is scaled by D[k] / D[k-1] at step k,
    D[k] being the k-th leading minor, so one written at step s reads
    value * D[k] // D[s] at step k, exactly, as Bareiss entries are
    minors. The matrix is positive semidefinite, so a zero pivot means a
    zero count.

    Exact for any size; disconnected graphs give 0.
    """
    n = g.vertex_count
    if n == 0:
        raise InvalidParameterError("graph must have at least one vertex")
    # row u maps each column v to (value, step the value was written at)
    rows: list[dict[int, tuple[int, int]]] = [{} for _ in range(n)]
    for u, v in g.edges:
        rows[u][v] = rows[v][u] = (-1, 0)
    # vertices by row length, a stale entry skipped when popped: a sparse
    # fill graph has few distinct lengths, and no request imports heapq
    by_size: dict[int, set[int]] = {}
    for v, row in enumerate(rows):
        row[v] = (len(row), 0)
        by_size.setdefault(len(row), set()).add(v)
    minors = [1]
    while len(minors) < n:
        size = min(by_size)
        p = by_size[size].pop()
        if not by_size[size]:
            del by_size[size]
        if len(rows[p]) != size:
            continue
        prev, last = len(minors) - 1, minors[-1]
        value, s = rows[p].pop(p)
        pivot = value * last // minors[s]
        if pivot == 0:
            return 0
        pivot_row = [(c, v if s == prev else v * last // minors[s])
                     for c, (v, s) in rows[p].items()]
        rows[p] = {}  # a stale entry of p never matches length 0
        for i, (r, a_rp) in enumerate(pivot_row):
            row = rows[r]
            del row[p]
            for c, a_pc in pivot_row[i:]:
                v, s = row.get(c, (0, prev))
                if s != prev:
                    v = v * last // minors[s]
                row[c] = rows[c][r] = ((pivot * v - a_rp * a_pc) // last, prev + 1)
        for r, _ in pivot_row:
            by_size.setdefault(len(rows[r]), set()).add(r)
        minors.append(pivot)
    return minors[-1]


def _forest_path(edges, up: list[int], depth: list[int], u: int, v: int):
    """The edge indices of the forest path between u and v, climbing
    from the deeper end until the ends meet."""
    while u != v:
        if depth[u] < depth[v]:
            u, v = v, u
        idx = up[u]
        yield idx
        a, b = edges[idx]
        u = b if a == u else a


def _cactus_tree_bound(g: Graph, stop: int) -> int:
    """A lower bound on the spanning-tree count of g, multiplied out only
    until it passes stop; 0 when g is disconnected.

    A breadth-first tree from vertex 0 plus non-tree edges, taken in
    document order when their tree paths share no edge with the paths
    already taken, is a cactus: each taken edge closes a cycle of its
    own, and the cactus's spanning-tree count is the product of those
    cycles' lengths. Deleting edges never adds a spanning tree, so the
    product is at most g's count."""
    edges = g.edges
    up, depth = spanning_forest(g)
    if depth.count(0) != 1:
        return 0
    taken = bytearray(len(edges))  # 1: a tree edge on a path already taken
    tree = set(up)
    bound = 1
    for chord in range(len(edges)):
        if chord in tree:
            continue
        path = []
        for idx in _forest_path(edges, up, depth, *edges[chord]):
            if taken[idx]:
                break
            path.append(idx)
        else:
            for idx in path:
                taken[idx] = 1
            bound *= len(path) + 1
            if bound > stop:
                break
    return bound


@memo
def _guard_tree_enumeration(g: Graph) -> None:
    """The precondition of every computation that lists or counts g's
    spanning trees: a spanning complex, then at most
    TREE_ENUMERATION_LIMIT trees, refused before the determinant past
    TREE_GUARD_VERTEX_LIMIT vertices or when a cactus subgraph already
    has more trees. The facets, classes, verdict, block ordering,
    partition and report entry points call it first; the enumerators do not."""
    require_spanning_complex(g)
    if g.vertex_count > TREE_GUARD_VERTEX_LIMIT:
        raise capacity_error("TREE_GUARD_VERTEX_LIMIT", g.vertex_count)
    bound = _cactus_tree_bound(g, TREE_ENUMERATION_LIMIT)
    if bound > TREE_ENUMERATION_LIMIT:
        raise capacity_error("TREE_ENUMERATION_LIMIT", f"at least {bound}",
                             "a cactus subgraph's count")
    count = matrix_tree_count(g)
    if count > TREE_ENUMERATION_LIMIT:
        raise capacity_error("TREE_ENUMERATION_LIMIT", count)


# ---------------------------------------------------------------------------
# Oracle 2: simple-cycle enumeration via the cycle space


def _is_simple_cycle_mask(mask: int, edges: tuple[tuple[int, int], ...]) -> bool:
    # A simple cycle is a connected 2-regular edge subset. Only the
    # mask's own edges are read, found in its binary string as
    # edge_indices finds them (linear, where peeling off the lowest bit
    # of a wide int is not), and a vertex's third edge ends the test.
    nbrs: dict[int, list[int]] = {}
    size = 0
    for i, bit in enumerate(bin(mask)[:1:-1]):
        if bit == "0":
            continue
        u, v = edges[i]
        size += 1
        a, b = nbrs.setdefault(u, []), nbrs.setdefault(v, [])
        if len(a) == 2 or len(b) == 2:
            return False
        a.append(v)
        b.append(u)
    # degrees sum to 2 * size and none exceeds 2, so all are 2 exactly
    # when size vertices are touched
    if not size or len(nbrs) != size:
        return False
    # 2-regular: connected when the walk around one cycle uses every edge
    prev, x, length = u, v, 1
    while x != u:
        a, b = nbrs[x]
        prev, x = x, b if a == prev else a
        length += 1
    return length == size


def enumerate_simple_cycles(g: Graph) -> list[EdgeSet]:
    """Every simple cycle of g as an edge set, each exactly once, sorted
    canonically (by ascending index tuple).

    Strategy: a breadth-first forest records each vertex's edge to its
    parent and its depth; the rank E - V + roots meets the cap before any mask is
    built. A non-tree edge's fundamental cycle is its bit plus the forest
    path between its ends. The fundamental cycles are independent: a
    Gray-code walk visits each nonzero combination once, one xor per
    step, and keeps the connected 2-regular ones. Its masks are as wide
    as the union of the fundamental cycles, not the edge list, and each
    kept one is mapped back to the document's edge indices.
    """
    return list(_simple_cycles(g))


@memo
def _simple_cycles(g: Graph) -> tuple[EdgeSet, ...]:
    n, edges = g.vertex_count, g.edges
    if n > MAX_CYCLE_SCAN_VERTICES:
        raise capacity_error("MAX_CYCLE_SCAN_VERTICES", n)
    up, depth = spanning_forest(g)
    rank = len(edges) - n + depth.count(0)  # one root per component
    if rank > MAX_INDEPENDENT_CYCLES:
        raise capacity_error("MAX_INDEPENDENT_CYCLES", rank)
    tree = set(up)
    walks = [[chord, *_forest_path(edges, up, depth, *edges[chord])]
             for chord in range(len(edges)) if chord not in tree]
    # The masks run over the support of the cycle space alone, the
    # edges of some fundamental cycle, in document order: an edge off
    # every cycle, on a pendant path say, widens no mask.
    support = sorted({idx for walk in walks for idx in walk})
    position = {idx: k for k, idx in enumerate(support)}
    cyclic = tuple(edges[idx] for idx in support)
    fundamental = []
    for walk in walks:
        bits = bytearray(len(support) // 8 + 1)  # linear, unlike big-int xors
        for idx in walk:
            k = position[idx]
            bits[k >> 3] |= 1 << (k & 7)
        fundamental.append(int.from_bytes(bits, "little"))
    cycles, mask = [], 0
    for k in range(1, 1 << len(fundamental)):
        mask ^= fundamental[(k & -k).bit_length() - 1]
        if _is_simple_cycle_mask(mask, cyclic):
            cycles.append(mask)
    # the support is in document order, so the canonical order of the
    # masks is that of the document's edge sets they stand for
    out = []
    for indices in sorted(map(edge_indices, cycles)):
        bits = bytearray(len(edges) // 8 + 1)
        for k in indices:
            idx = support[k]
            bits[idx >> 3] |= 1 << (idx & 7)
        out.append(int.from_bytes(bits, "little"))
    return tuple(out)
