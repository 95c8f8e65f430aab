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
  Every nonzero term is returned in an audit list so any value can be
  recomputed from the catalog by hand.

* f_vector_exact_ie is the corrected engine: it runs full
  inclusion-exclusion over the true simple-cycle catalog using exact
  union cardinalities at every order, so it must agree with the
  direct forest count wherever both run. It sums the subsets' signs
  by their union in one table (Rota 1964), so its cost follows the
  distinct unions of cycles rather than the subsets of cycles.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import NamedTuple

# module bindings, read at call time: the layers run at first use, so a
# closed form refused by its m range runs none of them
from . import complexes, cycles, graphs
from .errors import CapacityError
from .records import Graph, require_spanning_complex

FORMULA_M_RANGE = (3, 5)
# Work bound of exact inclusion-exclusion, in steps: one per 64-bit
# machine word of each entry of the union table carried across one
# cycle, and of the sum each binomial term leaves, in the first row
# C(E, j) and in one row per union size, so an entry or a term of a small
# graph costs 1; and the square of the words of each first-row entry,
# the cost of writing the answer in decimal. A pass is charged before it
# runs and at most doubles the table, so the table never holds more than
# 4/3 of the bound in words of keys. On one core of a shared 2-core
# Intel Xeon machine (least of 3 runs, in-process, the simple-cycle
# enumeration included), J(2,8) (57 cycles) answers in 2.6-4.7 ms,
# J(2,13) (157) in 0.43-0.78 s with 113,037 unions in the table, and K7
# (1172) in 0.14-0.24 s, while J(2,14) is refused after 0.42-0.76 s and
# K7 with 15 pendant leaves after 0.65-1.1 s. A path with two chords
# answers at 2,000 vertices in 7-10 ms and is refused at 4,000 in
# 9-14 ms and at 20,000 in 0.11-0.14 s, before its first row is
# complete. The simple-cycle enumeration is not counted in the steps.
EXACT_IE_STEP_LIMIT = 3_000_000


def binomial(a: int, b: int) -> int:
    """C(a, b) with the convention that out-of-range lower indices give
    0 (including negative upper index)."""
    if b < 0 or a < 0 or b > a:
        return 0
    return comb(a, b)


class FormulaTerm(NamedTuple):
    """One correction term of the closed form: the catalog words it
    involves, its sign, and its union estimate U. It contributes
    sign * C(3m - U, i+1 - U) to f_i."""

    words: tuple[tuple[int, ...], ...]
    sign: int
    union_estimate: int


class FormulaFVector(NamedTuple):
    m: int
    values: tuple[int, ...]
    terms: tuple[FormulaTerm, ...]


def f_vector_formula(m: int) -> FormulaFVector:
    """Closed-form f-vector of the spanning complex of J(2,m) over the
    word catalog, dimension 2m-1, with a per-term audit.

    The audit lists every term whose contribution is nonzero for some
    index; recomputing any listed term from the catalog reproduces it.
    """
    lo, hi = FORMULA_M_RANGE
    if not lo <= m <= hi:
        raise CapacityError(f"closed-form engine supports m in {lo}..{hi}, got {m}")
    catalog = cycles.word_cycle_catalog(m)
    dim = 2 * m - 1
    edge_count = 3 * m
    values = [binomial(edge_count, i + 1) for i in range(dim + 1)]
    terms: list[FormulaTerm] = []

    def apply(words: tuple[tuple[int, ...], ...], sign: int, union: int) -> None:
        hit = False
        for i in range(dim + 1):
            c = binomial(edge_count - union, i + 1 - union)
            if c:
                values[i] += sign * c
                hit = True
        if hit:
            terms.append(FormulaTerm(words=words, sign=sign, union_estimate=union))

    for entry in catalog.entries:
        apply((entry.word,), -1, entry.beta)
    for a, b in itertools.combinations(catalog.entries, 2):
        union = a.beta + b.beta - (a.edges & b.edges).bit_count()
        apply((a.word, b.word), +1, union)
    return FormulaFVector(m=m, values=tuple(values), terms=tuple(terms))


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
    audit = [{"words": [list(w) for w in t.words], "sign": t.sign,
              "union_estimate": t.union_estimate} for t in formula.terms]
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
    refusal = (f"inclusion-exclusion over {len(masks)} simple cycles "
               f"exceeds the step bound {EXACT_IE_STEP_LIMIT}")
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
                raise CapacityError(refusal)
            c = c * (top - k) // (k + 1)

    add_row(0, 1)  # the empty T: every edge subset
    # Each entry of the answer is at most this row's, and writing an entry
    # of W machine words in decimal takes time quadratic in W: on a large
    # sparse document that, not the sum, dominates the request.
    steps += sum((x.bit_length() // 64 + 1) ** 2 for x in counts)
    if steps > EXACT_IE_STEP_LIMIT:
        raise CapacityError(refusal)
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
            raise CapacityError(refusal)
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
