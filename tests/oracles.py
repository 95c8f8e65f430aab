"""Brute-force reference implementations used only by the tests.

Everything here is deliberately naive and structurally different from
the library: determinants over Fraction instead of fraction-free
integer elimination, powerset scans instead of frontier search, component
counting by breadth-first search instead of union-find. Slow is fine;
independence is the point.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter, deque
from collections.abc import Sequence
from fractions import Fraction

from jahangir_ssc.errors import InvalidParameterError

Edge = tuple[int, int]


class PurityError(ValueError):
    """certify's refusal of facets of more than one size."""


def as_set(mask: int) -> frozenset[int]:
    """The index set of one of the library's edge-set masks (bit i
    stands for edge i)."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def as_mask(indices) -> int:
    """The library's edge-set mask of an index set."""
    return sum(1 << i for i in set(indices))


def component_count(n: int, edges: list[Edge]) -> int:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    count = 0
    for s in range(n):
        if seen[s]:
            continue
        count += 1
        seen[s] = True
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
    return count


def is_acyclic(n: int, edges: list[Edge]) -> bool:
    # a subset is a forest iff |edges| + #components == n
    return len(edges) + component_count(n, edges) == n


def is_spanning_tree(n: int, edges: list[Edge]) -> bool:
    return len(edges) == n - 1 and component_count(n, edges) == 1


def brute_spanning_trees(n: int, edges: list[Edge]) -> set[frozenset[int]]:
    """Every (n-1)-subset of edge indices that forms a spanning tree."""
    out: set[frozenset[int]] = set()
    if n < 1:
        return out
    if n == 1:
        return {frozenset()} if component_count(n, []) == 1 else set()
    for combo in itertools.combinations(range(len(edges)), n - 1):
        chosen = [edges[i] for i in combo]
        if is_spanning_tree(n, chosen):
            out.add(frozenset(combo))
    return out


def binomial(a: int, b: int) -> int:
    """C(a, b) with the convention that out-of-range lower indices give
    0 (including negative upper index)."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def brute_f_vector(n: int, edges: list[Edge]) -> tuple[int, ...]:
    """f_i = number of acyclic (i+1)-subsets, found by scanning 2^E."""
    counts: list[int] = []
    for size in range(1, len(edges) + 1):
        c = 0
        for combo in itertools.combinations(range(len(edges)), size):
            if is_acyclic(n, [edges[i] for i in combo]):
                c += 1
        counts.append(c)
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def brute_simple_cycles(n: int, edges: list[Edge]) -> set[frozenset[int]]:
    """Edge subsets in which every touched vertex has degree 2 and the
    touched vertices form one component."""
    out: set[frozenset[int]] = set()
    for size in range(3, len(edges) + 1):
        for combo in itertools.combinations(range(len(edges)), size):
            deg = [0] * n
            for i in combo:
                u, v = edges[i]
                deg[u] += 1
                deg[v] += 1
            if any(d not in (0, 2) for d in deg):
                continue
            touched = [v for v in range(n) if deg[v] > 0]
            chosen = [edges[i] for i in combo]
            sub = component_count(n, chosen) - (n - len(touched))
            if sub == 1:
                out.add(frozenset(combo))
    return out


def cycle_subset_f_vector(n: int, edge_count: int,
                          cycles: list[frozenset[int]]) -> tuple[int, ...]:
    """f_i of a connected graph by inclusion-exclusion over every subset
    T of its simple cycles, given as edge index sets, walked depth first:
    the (i+1)-subsets of edges that hold every cycle of T number
    C(E - |U|, i + 1 - |U|), U the union of T, with sign (-1)^|T|. A T
    whose union has more than n - 1 edges, the largest forest, is
    skipped with every superset, since each has no face to count."""
    f = [math.comb(edge_count, k) for k in range(1, n)]

    def walk(start: int, union: frozenset[int], sign: int) -> None:
        for t in range(start, len(cycles)):
            merged = union | cycles[t]
            u = len(merged)
            if u > n - 1:
                continue
            for k in range(u, n):
                f[k - 1] -= sign * math.comb(edge_count - u, k - u)
            walk(t + 1, merged, -sign)

    walk(0, frozenset(), 1)
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def listed_closed_form(entries) -> tuple[tuple[int, ...], list[tuple[int, int, int]]]:
    """The published closed form of J(2,m) over a listed word catalog
    (the m*m entries of `word_cycle_catalog(m)`), pair by pair: f_i =
    C(3m, i+1) - sum_w C(3m - |w|, i+1 - |w|) + sum_(v<w) C(3m - U,
    i+1 - U) with U = |v| + |w| - |v & w| from the entries' edge index
    sets. Also the audit rows (sign, U, count of words or pairs), for
    each U that reaches some index, singles first."""
    sets = [as_set(e.edges) for e in entries]
    m = math.isqrt(len(sets))
    tally = {-1: {}, 1: {}}
    for w in sets:
        tally[-1][len(w)] = tally[-1].get(len(w), 0) + 1
    for v, w in itertools.combinations(sets, 2):
        u = len(v) + len(w) - len(v & w)
        tally[1][u] = tally[1].get(u, 0) + 1
    rows = [(sign, u, n) for sign in (-1, 1) for u, n in sorted(tally[sign].items())
            if u <= 2 * m]
    f = []
    for i in range(2 * m):
        value = math.comb(3 * m, i + 1)
        for sign, u, n in rows:
            if i + 1 >= u:
                value += sign * n * math.comb(3 * m - u, i + 1 - u)
        f.append(value)
    return tuple(f), rows


def det_fraction(matrix: list[list[int]]) -> Fraction:
    """Plain Gaussian elimination over exact rationals."""
    size = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, size):
            factor = a[r][col] * inv
            if factor:
                for c in range(col, size):
                    a[r][c] -= factor * a[col][c]
    return det


def laplacian_tree_count(n: int, edges: list[Edge]) -> int:
    """Spanning-tree count as a Laplacian cofactor, over Fraction."""
    if n == 0:
        raise ValueError("empty graph")
    if n == 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for u, v in edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    minor = [row[1:] for row in lap[1:]]
    value = det_fraction(minor)
    assert value.denominator == 1
    return int(value)


def naive_is_shelling(facets: list[frozenset[int]]) -> bool:
    """Literal definition: each facet must meet the union of its
    predecessors in a nonempty pure collection of codimension-1 faces."""
    for i in range(1, len(facets)):
        fi = facets[i]
        want = len(fi) - 1
        witnesses = [fj & fi for fj in facets[:i] if len(fj & fi) == want]
        if not witnesses:
            return False
        for fj in facets[:i]:
            inter = fj & fi
            if not any(inter <= w for w in witnesses):
                return False
    return True


def brute_face_counts(facets: list[frozenset[int]]) -> tuple[int, ...]:
    """f_i = number of (i+1)-element faces of the complex the facets
    generate: every nonempty subset of every facet, gathered in one set."""
    faces = {frozenset(c) for facet in facets for size in range(1, len(facet) + 1)
             for c in itertools.combinations(sorted(facet), size)}
    counts = [0] * max(map(len, facets), default=0)
    for face in faces:
        counts[len(face) - 1] += 1
    return tuple(counts)


def naive_colon_mindeg(previous: list[frozenset[int]],
                       current: frozenset[int]) -> int:
    return min(len(p - current) for p in previous)


def certify(facets: Sequence[int]) -> tuple[int | None, tuple[int, ...] | None]:
    """Both certificate checks of an ordered list of equal-sized facets,
    from one pass that keeps the set of earlier facets and looks up each
    swap in it, for any order: (first_failure, histogram).

    first_failure is the first position after 0 whose facet has no
    usable element, where the pass stops with histogram None. Otherwise
    it is None, and histogram[k] counts the facets with k usable
    elements, up to the largest k: the order is a shelling exactly
    when that is the h-vector (Bjorner 1992, sections 7.2-7.3). An order
    can have quasi-linear quotients and still not be a shelling."""
    if len({f.bit_count() for f in facets}) > 1:
        raise PurityError("shelling test requires equal-sized facets")
    universe = 0
    for mask in facets:
        universe |= mask
    if universe < 0:
        raise InvalidParameterError("edge-set masks must be nonnegative")
    elements = [1 << x for x in range(universe.bit_length()) if universe >> x & 1]
    histogram: Counter[int] = Counter()
    seen: set[int] = set()
    for i, mask in enumerate(facets):
        outside = [y for y in elements if not mask & y]
        usable = 0
        for x in elements:
            if mask & x:
                base = mask ^ x
                for y in outside:
                    if base | y in seen:
                        usable += 1
                        break
        if i and not usable:
            return i, None
        histogram[usable] += 1
        seen.add(mask)
    return None, tuple(histogram[k] for k in range(max(histogram, default=-1) + 1))


def random_connected_graph(rng: random.Random,
                           max_vertices: int = 8,
                           max_extra: int = 4,
                           max_edges: int = 10) -> tuple[int, list[Edge]]:
    """Random connected graph with at most `max_edges` edges and at most
    `max_extra` independent cycles (keeps cycle scans cheap)."""
    n = rng.randint(2, max_vertices)
    edges: list[Edge] = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v))
    edges = list(dict.fromkeys(tuple(sorted(e)) for e in edges))
    # the random tree may repeat a pair only if it had a loop; it cannot,
    # so n-1 edges survive the dedup
    non_edges = [
        (u, v)
        for u in range(n) for v in range(u + 1, n)
        if (u, v) not in set(edges)
    ]
    rng.shuffle(non_edges)
    budget = min(max_extra, max_edges - len(edges), len(non_edges))
    extra = rng.randint(0, budget) if budget > 0 else 0
    edges.extend(non_edges[:extra])
    return n, edges


# ---------------------------------------------------------------------------
# Named graph families and their spanning-tree counts from the literature
# (Boesch and Prodinger, Graphs and Combinatorics 2, 1986; Scoins 1962)


def fibonacci(k: int) -> int:
    """F_k, with F_0 = 0 and F_1 = 1."""
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def lucas(k: int) -> int:
    """L_k, with L_0 = 2 and L_1 = 1."""
    a, b = 2, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def wheel(n: int) -> tuple[int, list[Edge]]:
    """W_n: an n-cycle on vertices 1..n and a hub 0 joined to each;
    tau(W_n) = L_(2n) - 2."""
    rim = [(i, i % n + 1) for i in range(1, n + 1)]
    return n + 1, [(0, i) for i in range(1, n + 1)] + rim


def fan(n: int) -> tuple[int, list[Edge]]:
    """fan_n: a path on vertices 1..n and a hub 0 joined to each;
    tau(fan_n) = F_(2n)."""
    return n + 1, [(0, i) for i in range(1, n + 1)] + [(i, i + 1) for i in range(1, n)]


def complete_bipartite(a: int, b: int) -> tuple[int, list[Edge]]:
    """K_(a,b) on sides 0..a-1 and a..a+b-1; tau = a^(b-1) b^(a-1)."""
    return a + b, [(i, a + j) for j in range(b) for i in range(a)]


def family_tree_counts() -> list[tuple[str, int, list[Edge], int]]:
    """(name, vertices, edges, spanning-tree count by the closed form)
    for W_3..W_10, fan_2..fan_10 and K_(a,b) with 1 <= a <= b <= 5."""
    out = [(f"W{n}", *wheel(n), lucas(2 * n) - 2) for n in range(3, 11)]
    out += [(f"fan{n}", *fan(n), fibonacci(2 * n)) for n in range(2, 11)]
    out += [(f"K{a},{b}", *complete_bipartite(a, b), a ** (b - 1) * b ** (a - 1))
            for a in range(1, 6) for b in range(a, 6)]
    return out


def partition_by_sets(trees: list[int], generic: list[int]) -> dict:
    """Every field of the library's partition report but m and the class
    counts, by hashing the masks: trees are the structured list, generic
    the oracle's, and tree lists ascend by their index lists."""
    tree_set, generic_set = set(trees), set(generic)

    def by_indices(masks: set[int]) -> tuple[int, ...]:
        return tuple(sorted(masks, key=lambda mask: sorted(as_set(mask))))

    return {
        "total": len(trees),
        "generic_total": len(generic),
        "disjoint": len(tree_set) == len(trees),
        "union_matches": tree_set == generic_set and len(trees) == len(generic),
        "missing": by_indices(generic_set - tree_set),
        "extra": by_indices(tree_set - generic_set),
    }


def jahangir_tree_class(removed: int, m: int) -> str:
    """Class name of the spanning tree of J(2,m) whose deleted edge set
    is removed, by the definition: spoke j is edge 3(j-1); CJ1 deletes
    no spoke, CJ2 one; past one, the deleted spokes form a single cyclic
    run (CJ3a), runs of one spoke each (CJ3b), or both kinds (CJ3c).
    Read straight off the mask bit by bit, with no run list."""
    deleted = [removed >> 3 * j & 1 for j in range(m)]
    rho = sum(deleted)
    if rho < 2:
        return ("CJ1", "CJ2")[rho]
    # a run starts at every deleted spoke whose cyclic predecessor is
    # kept (deleted[-1] is spoke m)
    starts = sum(d and not deleted[j - 1] for j, d in enumerate(deleted))
    if starts == 1:
        return "CJ3a"
    return "CJ3b" if starts == rho else "CJ3c"


def termwise_hilbert_numerator(f: tuple[int, ...]) -> tuple[int, ...]:
    """h_k = sum_{j<=k} (-1)^(k-j) C(D-j, k-j) f_{j-1}, with D = len(f)
    and f_{-1} = 1, one term at a time; each binomial is the one before
    it in its row times (D-j-i)/(i+1). Trailing zeros are dropped."""
    faces = (1, *f)
    top = len(f)
    h = [0] * (top + 1)
    for j, fj in enumerate(faces):
        c = 1
        for i in range(top - j + 1):
            h[j + i] += -c * fj if i % 2 else c * fj
            c = c * (top - j - i) // (i + 1)
    while len(h) > 1 and h[-1] == 0:
        h.pop()
    return tuple(h)


def leading_spoke_run(deleted: frozenset[int], m: int) -> int:
    """How many of spokes 1, 2, ... (edges 0, 3, ...) a deleted edge
    set holds before the first it lacks, walked spoke by spoke."""
    k = 0
    while k < m and 3 * k in deleted:
        k += 1
    return k


def block_order_histograms(trees: set[frozenset[int]], m: int) -> dict:
    """For the spanning trees of J(2,m), given as edge index sets: per
    deleted spoke set (spoke numbers, ascending), the histogram of the
    trees' usable-element counts in the block order. The order is
    written from its definition: longest leading run of deleted spokes
    first, then the deleted edge tuples ascending. x in F is usable when
    some F - x + y is a tree at an earlier position, found by trying
    every y outside F."""
    universe = frozenset(range(3 * m))

    def key(tree):
        deleted = universe - tree
        return -leading_spoke_run(deleted, m), sorted(deleted)

    position = {tree: i for i, tree in enumerate(sorted(trees, key=key))}
    counts: dict = {}
    for tree, i in position.items():
        usable = sum(1 for x in tree if any(
            position.get(tree - {x} | {y}, i) < i for y in universe - tree))
        spokes = tuple(j + 1 for j in range(m) if 3 * j not in tree)
        counts.setdefault(spokes, []).append(usable)
    return {spokes: tuple(found.count(u) for u in range(max(found) + 1))
            for spokes, found in counts.items()}


def _gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of rows given as bit vectors, by elimination on
    each row's leading bit."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    return len(pivots)


def _acyclic_below_top(faces: set[frozenset[int]]) -> bool:
    """Whether the complex with this face set (the empty face included)
    has H~_i = 0 over GF(2) for every i below its dimension: the reduced
    Betti number |C_i| - rank d_i - rank d_(i+1), with C_(-1) spanned by
    the empty face, is 0."""
    by_dim: dict[int, list[frozenset[int]]] = {}
    for face in faces:
        by_dim.setdefault(len(face) - 1, []).append(face)
    position = {face: i for group in by_dim.values() for i, face in enumerate(group)}

    def boundary_rank(d: int) -> int:
        return _gf2_rank([sum(1 << position[face - {v}] for v in face)
                          for face in by_dim.get(d, ())] if d >= 0 else [])

    return all(len(by_dim.get(i, ())) - boundary_rank(i) - boundary_rank(i + 1) == 0
               for i in range(-1, max(by_dim)))


def reisner_cohen_macaulay(facets) -> bool:
    """Reisner's criterion (Reisner 1976; Stanley, Combinatorics and
    Commutative Algebra, II.4.1): k[complex] is Cohen-Macaulay over GF(2)
    exactly when the link of every face, the empty face's link (the
    whole complex) included, has no reduced homology below its top
    dimension. Every face's link is built from the full face set."""
    faces = {frozenset(c) for facet in facets for size in range(len(facet) + 1)
             for c in itertools.combinations(sorted(facet), size)}
    return all(_acyclic_below_top({tau for tau in faces
                                   if not tau & sigma and tau | sigma in faces})
               for sigma in faces)
