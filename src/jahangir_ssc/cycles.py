"""Word-indexed cycle catalog of J(2,m) and closed-form predictions for
pairwise intersection sizes.

A word is a tuple of cyclically consecutive cycle indices, e.g. (2,3,4)
or, wrapping, (5,1) for m=5. The catalog entry for a word is the union
of its base cycles with the interior spokes deleted. For word length
k < m this is a simple cycle on 2(k+1) edges; the length-m entries are
kept in the catalog but flagged, since deleting only the interior
spokes of a full wrap leaves a non-simple subgraph (2m+1 edges, one
surviving spoke). The outer rim cycle has no word at all. Both facts
are surfaced by the verification report rather than corrected here.

The intersection predictions depend only on the words (their endpoint
cycles and cyclic adjacency), never on the edge sets; the survey at the
bottom compares every prediction against the actual edge-set
intersection and collects disagreements.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

from .errors import InvalidParameterError
from .graphs import _edge_lister, _is_simple_cycle_mask, enumerate_simple_cycles
from .records import (
    EdgeSet,
    Graph,
    _normalize,
    base_cycle_indices,
    build_jahangir,
    edge_indices,
    memo,
    spoke_index,
)


class CycleCatalogEntry(NamedTuple):
    """One catalog cycle: its word (None for cycles with no word), its
    edge set, its recorded order beta = |edges|, and whether the edge
    set really is a simple cycle."""

    word: tuple[int, ...] | None
    edges: EdgeSet
    beta: int
    is_simple_cycle: bool


class CycleCatalog(NamedTuple):
    m: int | None
    entries: tuple[CycleCatalogEntry, ...]

    # The entry count, not the field count: len(catalog) is how callers
    # size a catalog. Iterating still yields the two fields.
    def __len__(self) -> int:
        return len(self.entries)


def word_of(start: int, length: int, m: int) -> tuple[int, ...]:
    """The word of `length` consecutive cycle indices beginning at
    `start`, wrapping after m."""
    return tuple((start - 1 + t) % m + 1 for t in range(length))


def all_words(m: int) -> list[tuple[int, ...]]:
    """All m*m words, shortest first, then by start index."""
    return [word_of(start, k, m) for k in range(1, m + 1) for start in range(1, m + 1)]


def validate_word(word: tuple[int, ...], m: int) -> None:
    if not word or len(word) > m:
        raise InvalidParameterError(f"word length must be 1..{m}, got {word!r}")
    if any(not 1 <= j <= m for j in word):
        raise InvalidParameterError(f"word indices must be in 1..{m}, got {word!r}")
    for a, b in zip(word, word[1:]):
        if b != a % m + 1:
            raise InvalidParameterError(f"word indices must be consecutive, got {word!r}")


def word_edge_set(word: tuple[int, ...], m: int) -> EdgeSet:
    """Union of the word's base cycles minus the interior spokes."""
    edges = 0
    for j in word:
        edges |= base_cycle_indices(j, m)
    for j in word[1:]:
        edges &= ~(1 << spoke_index(j, m))
    return edges


def claimed_order(k: int) -> int:
    """The catalog's stated size for a length-k entry. Holds for k < m;
    the length-m entries actually have 2m+1 edges."""
    return 2 * (k + 1)


def jahangir_order(g: Graph) -> int | None:
    """Return m when g is structurally J(2,m) under the canonical vertex
    numbering (edge order may differ), else None."""
    if g.vertex_count < 7 or g.vertex_count % 2 == 0:
        return None
    m = (g.vertex_count - 1) // 2
    if g.edge_count != 3 * m:
        return None
    want = {_normalize(u, v) for u, v in build_jahangir(m).edges}
    have = {_normalize(u, v) for u, v in g.edges}
    return m if want == have else None


@memo
def word_cycle_catalog(m: int) -> CycleCatalog:
    """The full word catalog: m*m entries, one per (length, start)."""
    g = build_jahangir(m)
    entries = []
    for word in all_words(m):
        edges = word_edge_set(word, m)
        entries.append(CycleCatalogEntry(
            word=word,
            edges=edges,
            beta=edges.bit_count(),
            is_simple_cycle=_is_simple_cycle_mask(edges, g.edges)))
    return CycleCatalog(m=m, entries=tuple(entries))


def oracle_cycle_catalog(g: Graph) -> CycleCatalog:
    """Ground-truth catalog: one entry per actual simple cycle of g.

    When g is structurally a Jahangir graph, cycles matching a word
    keep that word; everything else (notably the outer rim cycle) gets
    word None. The cycles are enumerated first, so the cycle-space rank
    cap refuses a large graph before the m*m words are built.
    """
    if not g.edges and g.vertex_count == 0:
        raise InvalidParameterError("graph must have at least one vertex")
    cycles = enumerate_simple_cycles(g)
    m = jahangir_order(g)
    by_edges: dict[EdgeSet, tuple[int, ...]] = {}
    if m is not None:
        # g's edge order may differ from the canonical one; translate.
        pos = {_normalize(u, v): idx for idx, (u, v) in enumerate(g.edges)}
        trans = [pos[_normalize(u, v)] for u, v in build_jahangir(m).edges]
        for e in word_cycle_catalog(m).entries:
            translated = sum(1 << trans[i] for i in edge_indices(e.edges))
            by_edges.setdefault(translated, e.word)
    entries = tuple(CycleCatalogEntry(word=by_edges.get(cyc), edges=cyc,
                                      beta=cyc.bit_count(), is_simple_cycle=True)
                    for cyc in cycles)
    return CycleCatalog(m=m, entries=entries)


def _catalog_payload(catalog: CycleCatalog, g: Graph, meta: dict) -> dict:
    """The CLI's cycles answer, its entries made as they are written."""
    listed = _edge_lister(g)
    entries = ({"word": list(e.word) if e.word is not None else None,
                "edges": listed(e.edges), "beta": e.beta,
                "is_simple_cycle": e.is_simple_cycle} for e in catalog.entries)
    return {**meta, "count": len(catalog.entries), "entries": entries}


# ---------------------------------------------------------------------------
# Intersection predictions


def follows(a: int, b: int, m: int) -> bool:
    """True when cycle b comes right after cycle a, cyclically."""
    return b == a % m + 1


def _nested(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """The nested rule, u's index set inside v's: the order of u, minus
    one for each endpoint cycle of u that is not also an endpoint of v
    (shared or crossed)."""
    beta = claimed_order(len(u))
    u1, up = u[0], u[-1]
    v1, vq = v[0], v[-1]
    if (u1 == v1 and up == vq) or (u1 == vq and up == v1):
        return beta
    if u1 == v1 or up == vq:
        return beta - 1
    return beta - 2


def cyclic_runs(indices: set[int], m: int) -> list[list[int]]:
    """Decompose a set of cycle indices into maximal cyclic runs of
    consecutive indices, each run listed in cyclic order."""
    if len(indices) == m:
        return [sorted(indices)]
    runs = []
    for j in sorted(indices):
        prev = j - 1 if j > 1 else m
        if prev in indices:
            continue  # not the head of a run
        run = [j]
        nxt = j % m + 1
        while nxt in indices:
            run.append(nxt)
            nxt = nxt % m + 1
        runs.append(run)
    return runs


def _partial_one_way(u: tuple[int, ...], v: tuple[int, ...], common: set[int],
                     m: int) -> int | None:
    # Sum the overlap rule over maximal runs of the shared indices.
    # Each run must sit at an end of v; a run at v's start earns a
    # bonus spoke when v wraps straight into u, a run at v's end when
    # u wraps straight into v. Returns None if a run is anchored at
    # neither end (the caller then retries with the roles swapped).
    total = 0
    for run in cyclic_runs(common, m):
        if run[0] == v[0]:
            bonus = 1 if follows(v[-1], u[0], m) else 0
        elif run[-1] == v[-1]:
            bonus = 1 if follows(u[-1], v[0], m) else 0
        else:
            return None
        total += claimed_order(len(run)) - 2 + bonus
    return total


def predict_intersection(u: tuple[int, ...], v: tuple[int, ...], m: int) -> int:
    """Predicted |edges(u) & edges(v)| of two catalog words, by the rule
    for their relation. Total over valid words: every pair is nested,
    disjoint, or partially overlapping."""
    validate_word(u, m)
    validate_word(v, m)
    return _predict(u, v, m)[1]


def _predict(u: tuple[int, ...], v: tuple[int, ...], m: int) -> tuple[str, int]:
    """(relation, predicted intersection) of two valid words."""
    su, sv = set(u), set(v)
    if su <= sv:
        return "nested", _nested(u, v)
    if sv <= su:
        return "nested", _nested(v, u)
    common = su & sv
    if not common:
        # one shared spoke per cyclic adjacency between the end of one
        # word and the start of the other
        return "disjoint", follows(u[-1], v[0], m) + follows(v[-1], u[0], m)
    for a, b in ((u, v), (v, u)):
        result = _partial_one_way(a, b, common, m)
        if result is not None:
            return "partial", result
    raise InvalidParameterError(
        f"overlap of {u!r} and {v!r} is not anchored at a word boundary")


class IntersectionMismatch(NamedTuple):
    word_a: tuple[int, ...]
    word_b: tuple[int, ...]
    relation: str
    predicted: int
    actual: int


class IntersectionSurvey(NamedTuple):
    m: int
    pairs_checked: int
    mismatches: tuple[IntersectionMismatch, ...]


def intersection_survey(m: int) -> IntersectionSurvey:
    """Predict every unordered pair of distinct catalog words and
    compare against the actual edge sets, read from the word catalog.
    Disagreements are collected, never asserted away."""
    entries = word_cycle_catalog(m).entries
    bad = []
    for (u, a, _, _), (v, b, _, _) in combinations(entries, 2):
        relation, predicted = _predict(u, v, m)
        actual = (a & b).bit_count()
        if predicted != actual:
            bad.append(IntersectionMismatch(u, v, relation, predicted, actual))
    return IntersectionSurvey(m=m, pairs_checked=comb(len(entries), 2),
                              mismatches=tuple(bad))
