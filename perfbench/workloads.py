"""The benchmark's request lists and the seeded graph documents.

Each workload is a fixed composition of CLI requests; the seed only
shuffles the order, picks the ordering-search seeds and, for
`graph-docs`, relabels the documents other than Petersen and draws the
random document. The program sees nothing but the generated files and
the command lines.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

import reference

# Random documents are drawn until they land in this band, so every seed
# costs about the same and the cm search never recurses near Python's
# default limit of 1000 frames.
RANDOM_DOC_SHAPE = (10, 14)          # vertices, edges
RANDOM_DOC_TREES = (350, 450)
RANDOM_DOC_MAX_CYCLES = 22           # exact inclusion-exclusion still answers

PETERSEN_SEARCH_SEED = 0

LONG_DOC_VERTICES = 150
LONG_DOC_CHORDS = (16, 48, 80, 112)

GRAPH_ACTIONS = (("facets", None), ("cycles", None), ("f-vector", "direct"),
                 ("f-vector", "exact-ie"), ("hilbert", "direct"), ("cm", None),
                 ("verify", None))


@dataclass
class Doc:
    """A graph as the benchmark knows it, independent of the program."""

    name: str
    vertices: int
    edges: list[tuple[int, int]]
    m: int | None = None             # set for J(2,m)
    path: str | None = None          # set for written graph documents

    @functools.cached_property
    def trees(self) -> int:
        return reference.tree_count(self.vertices, self.edges)

    @functools.cached_property
    def cycles(self) -> int:
        """Computed only when a cycles answer is checked: K9 has about
        63 thousand simple cycles."""
        if self.m is not None:
            return self.m * self.m - self.m + 1
        return reference.simple_cycle_count(self.vertices, self.edges)


@dataclass(frozen=True)
class Request:
    doc: Doc
    action: str
    mode: str | None = None
    ordering: str | None = None
    seed: int | None = None

    def argv(self) -> list[str]:
        if self.doc.m is not None:
            out = ["jahangir", "--m", str(self.doc.m), self.action]
        else:
            out = ["graph", "--input", self.doc.path, self.action]
        if self.mode is not None:
            out += ["--mode", self.mode]
        if self.ordering is not None:
            out += ["--ordering", self.ordering]
        if self.seed is not None:
            out += ["--seed", str(self.seed)]
        return out

    @property
    def label(self) -> str:
        argv = self.argv()
        if self.doc.m is None:
            argv[1:3] = [self.doc.name]
        return " ".join(argv)


@functools.cache
def jahangir(m: int) -> Doc:
    return Doc(f"J(2,{m})", 2 * m + 1, reference.jahangir_edges(m), m=m)


def _jahangir_verify(rng: random.Random, work: Path) -> list[Request]:
    # m = 9 is left out: one request takes about 9 s and 582 MB.
    return [Request(jahangir(m), "verify") for m in range(3, 9)]


def _jahangir_fvector(rng: random.Random, work: Path) -> list[Request]:
    return [Request(jahangir(m), action, mode=mode)
            for m in range(3, 8)
            for action in ("f-vector", "hilbert")
            for mode in ("direct", "exact-ie", "formula")]


def _jahangir_cm(rng: random.Random, work: Path) -> list[Request]:
    out = [Request(jahangir(m), "cm", ordering="block") for m in range(3, 7)]
    out += [Request(jahangir(m), "cm", ordering="search", seed=rng.randrange(1000))
            for m in (3, 4)]
    return out


def _petersen() -> list[tuple[int, int]]:
    edges = []
    for i in range(5):
        edges += [(i, (i + 1) % 5), (i, i + 5), (i + 5, (i + 2) % 5 + 5)]
    return edges


def _long_sparse() -> list[tuple[int, int]]:
    """A path with chords (a, a+3) at four fixed, separated places:
    256 trees, and the same enumeration cost for every seed."""
    n = LONG_DOC_VERTICES
    return [(i, i + 1) for i in range(n - 1)] + [(a, a + 3) for a in LONG_DOC_CHORDS]


def _random_doc(rng: random.Random) -> list[tuple[int, int]]:
    n, e = RANDOM_DOC_SHAPE
    lo, hi = RANDOM_DOC_TREES
    while True:
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        while len(edges) < e:
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        edges = sorted(edges)
        if (lo <= reference.tree_count(n, edges) <= hi
                and reference.simple_cycle_count(n, edges) <= RANDOM_DOC_MAX_CYCLES):
            return edges


def _write_doc(name: str, n: int, edges: list[tuple[int, int]],
               rng: random.Random | None, work: Path) -> Doc:
    """Relabel the vertices (unless rng is None) and write the file. Edge
    order and orientation are kept: the generic enumerator's cost depends
    on them."""
    perm = list(range(n))
    if rng is not None:
        rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    path = work / f"{name}.json"
    path.write_text(json.dumps({"vertices": n, "edges": [list(e) for e in out]}) + "\n",
                    encoding="utf-8")
    return Doc(name, n, out, path=str(path))


def _graph_docs(rng: random.Random, work: Path) -> list[Request]:
    # Petersen keeps its labels and search seed: its cm and verify requests
    # are the workload's largest, and how long the search runs before it
    # fails depends on both, so they would make the workload's cost differ
    # from seed to seed.
    petersen = _write_doc("petersen", 10, _petersen(), None, work)
    randoc = _write_doc("random", RANDOM_DOC_SHAPE[0], _random_doc(rng), rng, work)
    long = _write_doc("long", LONG_DOC_VERTICES, _long_sparse(), rng, work)
    k9 = _write_doc("k9", 9, list(itertools.combinations(range(9), 2)), rng, work)
    out = []
    for doc, search_seed in ((petersen, PETERSEN_SEARCH_SEED), (randoc, rng.randrange(1000))):
        for action, mode in GRAPH_ACTIONS:
            out.append(Request(doc, action, mode=mode,
                               seed=search_seed if action in ("cm", "verify") else None))
    # the long document exercises the O(n^3) determinant guard, which
    # facets pays twice; K9 is past every cap, so each request is refused
    out += [Request(long, "facets"), Request(long, "f-vector", mode="exact-ie")]
    out += [Request(k9, "facets"), Request(k9, "cycles"), Request(k9, "f-vector", mode="direct")]
    return out


WORKLOADS = {
    "jahangir-verify": _jahangir_verify,
    "jahangir-fvector": _jahangir_fvector,
    "jahangir-cm": _jahangir_cm,
    "graph-docs": _graph_docs,
}


def build(name: str, seed: int, work: Path) -> list[Request]:
    """The workload's requests in the seed's order; documents go to work."""
    rng = random.Random(seed)
    requests = WORKLOADS[name](rng, work)
    rng.shuffle(requests)
    return requests
