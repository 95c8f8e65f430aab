"""Closed-form f-vector engines and the Hilbert series of the face ring.

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
  direct forest count wherever both run.
"""

from __future__ import annotations

import itertools
from math import comb
from operator import sub
from typing import NamedTuple

from . import cycles
from .errors import CapacityError, InvalidParameterError
from .graphs import Graph, _Checked, enumerate_simple_cycles, is_connected

FORMULA_M_RANGE = (3, 5)
# Work bound of exact inclusion-exclusion, in steps: one per candidate
# cycle tried, pruned or not; one per 64-bit machine word of the sum each
# binomial term leaves, the first row C(E, j) included, so a term of a
# small graph costs 1; and the square of the words of each first-row
# entry, the cost of writing the answer in decimal. On one core of a
# shared 2-core AMD EPYC machine (least of 3 runs, in-process), J(2,8)
# (57 cycles) answers in 0.76 s and K7 (1172 cycles) in 0.57 s, while
# J(2,9) is refused after 1.09 s and K7 with 15 pendant leaves, whose
# steps are mostly short rows, after 3.1 s. A path with two chords
# answers at 2,000 vertices in 0.013 s and is refused at 4,000 in
# 0.019 s and at 20,000 in 0.16 s, before its first row is complete.
# The simple-cycle enumeration that precedes it is not counted here.
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


def f_vector_exact_ie(g: Graph) -> tuple[int, ...]:
    """f-vector by inclusion-exclusion over the true cycle catalog with
    exact unions at every order.

    For each subset T of simple cycles, subsets of edges containing all
    of T are counted with sign (-1)^|T|; pruning drops T once its union
    already exceeds the largest face. The work, not the cycle count, is
    capped: past EXACT_IE_STEP_LIMIT steps the engine refuses.
    """
    if not is_connected(g):
        raise InvalidParameterError("f-vector of the spanning complex needs a connected graph")
    masks = enumerate_simple_cycles(g)
    edge_count = g.edge_count
    fmax = g.vertex_count - 1  # largest forest of a connected graph
    refusal = (f"inclusion-exclusion over {len(masks)} simple cycles "
               f"exceeds the step bound {EXACT_IE_STEP_LIMIT}")
    counts = [0] * (fmax + 1)  # counts[j]: j-edge subsets, signed over T
    steps = 0

    def add_row(size: int, sign: int) -> None:
        """Add sign * C(edge_count - size, j - size) to counts[j] for
        j = size..fmax, each binomial by the multiplicative recurrence
        from the one before. A term costs one step per machine word of
        the sum it leaves, since its add, multiply and divide are linear
        in the words."""
        nonlocal steps
        top = edge_count - size
        c = sign
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
    # Depth-first over subsets with an explicit stack, so the depth (up to
    # the cycle count) is bounded by the step cap, not by the interpreter's
    # recursion limit. A frame is (remaining candidates, union, sign).
    n = len(masks)
    stack = [(iter(range(n)), 0, 1)]
    while stack:
        candidates, union_mask, sign = stack[-1]
        for t in candidates:
            merged = union_mask | masks[t]
            size = merged.bit_count()
            steps += 1
            if steps > EXACT_IE_STEP_LIMIT:
                raise CapacityError(refusal)
            if size > fmax:
                continue
            add_row(size, -sign)
            stack.append((iter(range(t + 1, n)), merged, -sign))
            break
        else:
            stack.pop()
    values = counts[1:]
    while values and values[-1] == 0:
        values.pop()
    return tuple(values)


# ---------------------------------------------------------------------------
# Hilbert series of the face ring


class _HilbertSeriesFields(NamedTuple):
    numerator: tuple[int, ...]
    denominator_power: int


class HilbertSeries(_Checked, _HilbertSeriesFields):
    """Exact rational function: integer numerator coefficients in
    ascending powers of t over (1 - t)**denominator_power."""

    __slots__ = ()

    def _check(self) -> None:
        if not self.numerator:
            raise InvalidParameterError("numerator must be nonempty")
        if self.numerator[0] != 1:
            raise InvalidParameterError("series must evaluate to 1 at t=0")
        if self.denominator_power < 0:
            raise InvalidParameterError("denominator power must be nonnegative")

    def numerator_at(self, t: int) -> int:
        return sum(c * t ** k for k, c in enumerate(self.numerator))


def hilbert_series(f: tuple[int, ...]) -> HilbertSeries:
    """Hilbert series of the face ring of a complex with f-vector f:
    numerator sum_j f_{j-1} t^j (1-t)^(d+1-j) over (1-t)^(d+1), with
    f_{-1} = 1, in exact integer arithmetic. Its coefficients are
    h_k = sum_{j<=k} (-1)^(k-j) C(d+1-j, k-j) f_{j-1}. The complex
    {empty set}, with f = (), has series 1.

    The numerator is built by Horner's rule, Q <- Q (1-t) + f_{j-1} t^j
    for j = 1..d+1 from Q = 1: O(d^2) additions and no binomials."""
    num = [1]
    for j, fj in enumerate(f, 1):
        num = list(map(sub, num + [0], [0] + num))
        num[j] += fj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return HilbertSeries(numerator=tuple(num), denominator_power=len(f))


def hilbert_function(series: HilbertSeries, j: int) -> int:
    """Coefficient of t^j in the power-series expansion of series."""
    if j < 0:
        raise InvalidParameterError(f"degree must be nonnegative, got {j}")
    dpow = series.denominator_power
    if dpow == 0:
        return series.numerator[j] if j < len(series.numerator) else 0
    # 1/(1-t)^D expands to sum_k C(k+D-1, D-1) t^k
    total = 0
    for k, c in enumerate(series.numerator):
        if k > j:
            break
        total += c * binomial(j - k + dpow - 1, dpow - 1)
    return total
