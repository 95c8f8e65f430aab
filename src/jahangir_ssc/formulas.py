"""Closed-form f-vector engines.

Two inclusion-exclusion engines live here, deliberately kept apart:

* f_vector_formula reproduces the published closed form over the word
  catalog. Its correction terms are the single-entry and pair bands
  only, with the pair union estimated as beta_a + beta_b minus the
  pairwise intersection. That is exactly the arithmetic demonstrated by
  the source material's own worked examples; extending the alternating
  sum beyond pairs with per-pair union estimates diverges (the
  estimates are not unions once three or more entries interact), which
  is recorded by the verification report rather than repaired here.
  Its terms depend only on the words' orders and the pairs' union
  estimates, so it counts the words and the m^4/2 pairs by union
  estimate, a class of pairs at a time, instead of listing them; the
  counts are its audit, rows (sign, union estimate, multiplicity) from
  which any value can be recomputed by hand. It reads the words' edge
  sets from records, so it runs neither cycles nor graphs, and answers
  at every m the command line serves, up to JAHANGIR_M_LIMIT.

* f_vector_exact_ie is the corrected engine: it runs full
  inclusion-exclusion over the true simple-cycle catalog using exact
  union cardinalities at every order, so it must agree with the
  direct forest count wherever both run. It sums the subsets' signs
  by their union in one table (Rota 1964), so its cost follows the
  distinct unions of cycles rather than the subsets of cycles.
"""

from __future__ import annotations

from typing import NamedTuple

# module bindings, read at call time: the layers run at first use, so a
# request runs only those its engine reaches
from . import complexes, graphs
from .errors import EXACT_IE_STEP_LIMIT, capacity_error
from .records import (Graph, build_jahangir, require_spanning_complex, spoke_index,
                      word_edge_set, word_of)


class FormulaTerm(NamedTuple):
    """One row of the closed form: `multiplicity` terms of one sign and
    one union estimate U. Together they add
    sign * multiplicity * C(3m - U, i+1 - U) to f_i."""

    sign: int
    union_estimate: int
    multiplicity: int


class FormulaFVector(NamedTuple):
    m: int
    values: tuple[int, ...]
    terms: tuple[FormulaTerm, ...]


class _Word(NamedTuple):
    """The catalog word of one length that starts at cycle 1: its length
    k, its order beta and its end spokes, as offsets from its first
    cycle. Every other word of that length is a rotation of it."""

    length: int
    beta: int
    ends: frozenset[int]


def _representatives(m: int) -> list[_Word]:
    """The words of lengths 1..m from cycle 1, read from their edge sets."""
    out = []
    for k in range(1, m + 1):
        edges = word_edge_set(word_of(1, k, m), m)
        ends = frozenset(j for j in range(m) if edges >> spoke_index(j + 1, m) & 1)
        out.append(_Word(k, edges.bit_count(), ends))
    return out


def _arc_overlap(p: int, q: int, d: int, m: int) -> int:
    """Cycles shared by the arcs [0, p) and [d, d+q) of the m-cycle,
    0 <= d < m: the second arc's part before m, then its wrapped part."""
    return max(0, min(p, d + q) - d) + max(0, min(p, d + q - m))


def _shared_ends(a: _Word, b: _Word, m: int) -> dict[int, int]:
    """The offsets d at which b, turned d cycles on from a, shares an end
    spoke with a, each with the number it shares. The words' overlap
    |a & b| is twice their rim-arc overlap plus these shared spokes."""
    shared: dict[int, int] = {}
    for x in a.ends:
        for y in b.ends:
            d = (x - y) % m
            shared[d] = shared.get(d, 0) + 1
    return shared


def _arc_counts(p: int, q: int, m: int) -> tuple[list[tuple[int, int]], range]:
    """The rim-arc overlap g of arcs of lengths p <= q over the m offsets,
    as (g, offsets) points and a range of values each taken at two
    offsets. Until the arcs can overlap at both ends (p + q <= m + 1)
    the overlap is a trapezoid: it climbs from 0 to p, stays there for
    q - p + 1 offsets and falls back. Past that, p minus the overlap of
    the first arc with the complement of the second, m - q cycles long,
    is such a trapezoid."""
    if p + q <= m + 1:
        return [(p, q - p + 1), (0, m - p - q + 1)], range(1, p)
    rest = m - q
    if not rest:
        return [(p, m)], range(0)
    return [(p - rest, p - rest + 1), (p, m - p - rest + 1)], range(p - rest + 1, p)


def _union_histograms(m: int) -> tuple[list[int], list[int]]:
    """How many single words, and how many pairs of distinct words, have
    each union estimate U = beta_a + beta_b - |a & b| (index U).

    Rotating both words of a pair keeps U, so a pair is known by its
    lengths k1 <= k2 and the offset d of the second word's start from
    the first's, and each such class holds m ordered pairs. Each
    unordered pair is counted twice, then halved: one of different
    lengths as its class's twice, one of equal lengths as d and m - d.
    Without the end spokes U is beta_1 + beta_2 - 2g, g the rim-arc
    overlap, whose offsets _arc_counts sums in ranges; the few offsets
    where end spokes meet are then moved to their true U one by one,
    and a word's pair with itself is taken out."""
    words = _representatives(m)
    size = 4 * m + 8  # past every beta_1 + beta_2 + 2
    singles = [0] * size
    points = [0] * size
    runs = [0] * size  # steps of 2: runs[U] opens a run, runs[U+2k] closes it
    for a in words:
        singles[a.beta] += m
    for i, a in enumerate(words):
        for b in words[i:]:
            weight = m if a is b else 2 * m
            top = a.beta + b.beta
            counts, run = _arc_counts(a.length, b.length, m)
            for g, offsets in counts:
                points[top - 2 * g] += weight * offsets
            if run:
                runs[top - 2 * run[-1]] += 2 * weight
                runs[top - 2 * run[0] + 2] -= 2 * weight
            for d, spokes in _shared_ends(a, b, m).items():
                u = top - 2 * _arc_overlap(a.length, b.length, d, m)
                points[u] -= weight
                if a is not b or d:
                    points[u - spokes] += weight
    for u in range(2, size):
        runs[u] += runs[u - 2]
    return singles, [(x + y) // 2 for x, y in zip(points, runs)]


def f_vector_formula(m: int) -> FormulaFVector:
    """Closed-form f-vector of the spanning complex of J(2,m) over the
    word catalog, dimension 2m-1, with its audit rows.

    f_i = C(3m, i+1) - sum over words of C(3m - beta, i+1 - beta)
    + sum over pairs of distinct words of C(3m - U, i+1 - U). The words
    and pairs are counted by union estimate, not listed, so the cost is
    O(m^2) length pairs and O(m^2) binomials. The audit holds one row
    per sign and union estimate that reaches some index; the rows and
    C(3m, i+1) rebuild every f_i by hand.
    """
    build_jahangir(m)  # refuses m < 3
    dim = 2 * m - 1
    edge_count = 3 * m
    singles, pairs = _union_histograms(m)
    # a union past dim + 1 edges reaches no index
    terms = tuple([FormulaTerm(-1, u, n) for u, n in enumerate(singles[:dim + 2]) if n]
                  + [FormulaTerm(1, u, n) for u, n in enumerate(pairs[:dim + 2]) if n])
    values = [0] * (dim + 1)
    for union, weight in [(0, 1)] + [(t.union_estimate, t.sign * t.multiplicity)
                                     for t in terms]:
        # weight * C(edge_count - union, k) into f_i with i + 1 = union + k
        top = edge_count - union
        c = weight
        for k, i in enumerate(range(union - 1, dim + 1)):
            if i >= 0:
                values[i] += c
            c = c * (top - k) // (k + 1)
    return FormulaFVector(m=m, values=tuple(values), terms=terms)


def f_vector_divergence(closed_form: tuple[int, ...],
                        direct: tuple[int, ...]) -> list[dict]:
    """Where the closed-form f-vector departs from the direct one: one
    entry per differing index, and one more when the lengths differ."""
    diverging = [{"index": i, "closed_form": str(a), "direct": str(b)}
                 for i, (a, b) in enumerate(zip(closed_form, direct)) if a != b]
    if len(closed_form) != len(direct):
        diverging.append({"index": "length", "closed_form": str(len(closed_form)),
                          "direct": str(len(direct))})
    return diverging


def _formula_payload(g: Graph, m: int, meta: dict) -> dict:
    """The CLI's f-vector answer in formula mode: the closed form, the
    forest sweep's f-vector beside it, where they differ, and the audit.
    The sweep runs only once the closed form has answered."""
    formula = f_vector_formula(m)
    oracle = complexes.f_vector_direct(g)
    audit = [{"sign": t.sign, "union_estimate": t.union_estimate,
              "multiplicity": t.multiplicity} for t in formula.terms]
    return {**meta,
            "f_vector": [str(x) for x in formula.values],
            "oracle_f_vector": [str(x) for x in oracle],
            "mismatch_indices": f_vector_divergence(formula.values, oracle),
            "audit": audit}


def f_vector_exact_ie(g: Graph) -> tuple[int, ...]:
    """f-vector by inclusion-exclusion over the true cycle catalog with
    exact unions at every order.

    For each subset T of simple cycles, subsets of edges containing all
    of T are counted with sign (-1)^|T|, summed by T's union; a union
    past the largest face is dropped. The work, not the cycle count, is
    capped: past EXACT_IE_STEP_LIMIT steps the engine refuses.
    """
    require_spanning_complex(g)
    masks = graphs.enumerate_simple_cycles(g)
    edge_count = g.edge_count
    fmax = g.vertex_count - 1  # largest forest of a connected graph
    over = f"over {len(masks)} simple cycles"  # the refusal's note
    counts = [0] * (fmax + 1)  # counts[j]: j-edge subsets, signed over T
    steps = 0

    def add_row(size: int, weight: int) -> None:
        """Add weight * C(edge_count - size, j - size) to counts[j] for
        j = size..fmax, each binomial by the multiplicative recurrence
        from the one before. A term costs one step per machine word of
        the sum it leaves, since its add, multiply and divide are linear
        in the words."""
        nonlocal steps
        top = edge_count - size
        c = weight
        for k, j in enumerate(range(size, fmax + 1)):
            total = counts[j] + c
            counts[j] = total
            steps += total.bit_length() // 64 + 1
            if steps > EXACT_IE_STEP_LIMIT:
                raise capacity_error("EXACT_IE_STEP_LIMIT", steps, over)
            c = c * (top - k) // (k + 1)

    add_row(0, 1)  # the empty T: every edge subset
    # Each entry of the answer is at most this row's, and writing an entry
    # of W machine words in decimal takes time quadratic in W: on a large
    # sparse document that, not the sum, dominates the request.
    steps += sum((x.bit_length() // 64 + 1) ** 2 for x in counts)
    if steps > EXACT_IE_STEP_LIMIT:
        raise capacity_error("EXACT_IE_STEP_LIMIT", steps, over)
    # A subset T of cycles counts with sign (-1)^|T| and depends only on
    # its union's size, so the table maps each union of the cycles taken
    # so far to the sum of its subsets' signs (Moebius inversion on the
    # lattice of unions, Rota 1964): a cycle c carries every entry (U, s)
    # of the table as it stood before c to U | c with sign -s. A union
    # past the largest face is dropped, since its supersets are too, and
    # a zero sum is deleted, since every later entry is linear in it. A
    # key's or, count and hash are linear in its machine words, so an
    # entry carried costs one step per word of the widest cycle.
    words = max(masks, default=0).bit_length() // 64 + 1
    table = {0: 1}
    for cycle in masks:
        steps += len(table) * words
        if steps > EXACT_IE_STEP_LIMIT:
            raise capacity_error("EXACT_IE_STEP_LIMIT", steps, over)
        for union, sign in zip(list(table), list(table.values())):
            merged = union | cycle
            if merged.bit_count() <= fmax:
                total = table.get(merged, 0) - sign
                if total:
                    table[merged] = total
                else:
                    del table[merged]
    del table[0]  # the empty T, whose row is the first
    signs = [0] * (fmax + 1)
    for union, sign in table.items():
        signs[union.bit_count()] += sign
    for size, total in enumerate(signs):
        if total:
            add_row(size, total)
    values = counts[1:]
    while values and values[-1] == 0:
        values.pop()
    return tuple(values)
