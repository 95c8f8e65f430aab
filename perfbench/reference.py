"""Independent reference values the output checker compares against.

Written from the definitions, not from the package: a tree count by
Schur-complement elimination over Fraction in minimum-degree order
(the package uses dense fraction-free Bareiss), a simple-cycle count by
depth-first path extension (the package xors cycle-space masks), and the
h-vector by its alternating binomial sum (the package multiplies
polynomials), and the published closed form from the word edge sets.
Nothing here imports jahangir_ssc.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

Edge = tuple[int, int]


def jahangir_edges(m: int) -> list[Edge]:
    """J(2,m) from its definition: hub 0, rim 1..2m, a spoke from the
    hub to every odd rim vertex, listed cycle by cycle spoke first."""
    edges: list[Edge] = []
    for k in range(1, m + 1):
        a, b = 2 * k - 1, 2 * k
        edges += [(0, a), (a, b), (b, 2 * k + 1 if k < m else 1)]
    return edges


def tree_count(n: int, edges: list[Edge]) -> int:
    """Spanning trees of a simple graph: the determinant of the Laplacian
    with vertex 0 deleted, as the product of Schur-complement pivots."""
    if n == 1:
        return 1
    rows: dict[int, dict[int, Fraction]] = {v: {} for v in range(1, n)}
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            if a:
                rows[a][a] = rows[a].get(a, Fraction(0)) + 1
                if b:
                    rows[a][b] = rows[a].get(b, Fraction(0)) - 1
    det = Fraction(1)
    while rows:
        p = min(rows, key=lambda v: (len(rows[v]), v))
        row = rows.pop(p)
        pivot = row.pop(p, Fraction(0))
        if pivot == 0:
            return 0
        det *= pivot
        # the Laplacian is symmetric, so column p holds the same entries
        for i, lip in row.items():
            target = rows[i]
            del target[p]
            factor = lip / pivot
            for j, lpj in row.items():
                value = target.get(j, Fraction(0)) - factor * lpj
                if value:
                    target[j] = value
                else:
                    target.pop(j, None)
    assert det.denominator == 1
    return int(det)


def simple_cycle_count(n: int, edges: list[Edge]) -> int:
    """Simple cycles of a simple graph: every path from its smallest
    vertex s through larger vertices that closes back on s, found twice
    (once per direction)."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    found = 0
    for s in range(n):
        on_path = [False] * n
        on_path[s] = True
        stack = [(s, iter(adj[s]), 1)]
        while stack:
            x, it, length = stack[-1]
            y = next(it, None)
            if y is None:
                on_path[x] = False
                stack.pop()
                continue
            if y == s and length >= 3:
                found += 1
            elif y > s and not on_path[y]:
                on_path[y] = True
                stack.append((y, iter(adj[y]), length + 1))
        on_path[s] = False
    return found // 2


def is_simple_cycle(edge_ids: list[int], edges: list[Edge]) -> bool:
    """True when the edges form one connected 2-regular subgraph."""
    degree: dict[int, int] = {}
    adj: dict[int, list[int]] = {}
    for i in edge_ids:
        u, v = edges[i]
        for a, b in ((u, v), (v, u)):
            degree[a] = degree.get(a, 0) + 1
            adj.setdefault(a, []).append(b)
    if len(edge_ids) < 3 or any(d != 2 for d in degree.values()):
        return False
    start = next(iter(adj))
    seen, todo = {start}, [start]
    while todo:
        for y in adj[todo.pop()]:
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return len(seen) == len(degree)


def is_spanning_tree(n: int, edge_ids: list[int], edges: list[Edge]) -> bool:
    """n-1 distinct edges that join every vertex into one component."""
    if len(set(edge_ids)) != n - 1:
        return False
    label = list(range(n))

    def root(x: int) -> int:
        while label[x] != x:
            x = label[x]
        return x

    for i in edge_ids:
        a, b = root(edges[i][0]), root(edges[i][1])
        if a == b:
            return False
        label[a] = b
    return True


def h_vector(f: list[int]) -> list[int]:
    """h_k = sum_i (-1)^(k-i) C(D-i, k-i) f_(i-1), with f_(-1) = 1 and
    D = len(f); trailing zeros dropped, as in the printed numerator."""
    ext = [1] + list(f)
    d = len(f)
    h = [sum((-1) ** (k - i) * comb(d - i, k - i) * ext[i] for i in range(k + 1))
         for k in range(d + 1)]
    while len(h) > 1 and h[-1] == 0:
        h.pop()
    return h


def word_edges(start: int, length: int, m: int) -> frozenset[int]:
    """Edge indices of the catalog entry for the word of `length` cycles
    from `start` in jahangir_edges(m): the union of those base cycles
    (spokes j and j+1 plus the two rim edges of cycle j) minus the
    interior spokes, which leaves one spoke when the word wraps fully."""
    cycles = [(start - 1 + t) % m for t in range(length)]
    edges = {3 * j + r for j in cycles for r in (1, 2)}
    edges |= {3 * start - 3, 3 * ((start - 1 + length) % m)}
    return frozenset(edges)


def closed_form_f(m: int) -> list[int]:
    """The published pair-truncated closed form over the m*m words:
    f_i = C(3m, i+1) - sum_w C(3m-b_w, i+1-b_w) + sum_(v<w) C(3m-U, i+1-U)
    with b_w = |w| and U = b_v + b_w - |v & w|."""
    def binom(a: int, b: int) -> int:
        return comb(a, b) if 0 <= b <= a else 0

    e = 3 * m
    words = [word_edges(s, k, m) for k in range(1, m + 1) for s in range(1, m + 1)]
    f = []
    for i in range(2 * m):
        value = binom(e, i + 1) - sum(binom(e - len(w), i + 1 - len(w)) for w in words)
        for a in range(len(words)):
            for b in range(a + 1, len(words)):
                u = len(words[a] | words[b])
                value += binom(e - u, i + 1 - u)
        f.append(value)
    return f
