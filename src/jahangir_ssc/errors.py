"""Exception taxonomy shared across the package, and the budget table.

Every deliberate failure derives from JssError so the CLI can map errors
to exit codes without fishing for stdlib exception types. Every cap on
the size or the work of a request is defined once, in CAPS below, and
every refusal past one is built by capacity_error, so that it names the
engine, the measured size, the cap and its limit.
"""


class JssError(Exception):
    """Base class for all errors raised on purpose by this package."""


class InvalidParameterError(JssError, ValueError):
    """An argument violates a documented precondition."""


class GraphParseError(JssError, ValueError):
    """A graph document is malformed; the message names the offending entry."""


class CapacityError(JssError, RuntimeError):
    """The requested computation exceeds a cap of the budget table."""


# ---------------------------------------------------------------------------
# The budget table: each cap's name -> (limit, the engine that refuses
# past it, the unit of its measured size). The comment above a cap is
# its cost note: what the engine costs at the cap and what else the cap
# bounds. Figures are wall time and peak RSS on one core of a shared
# 2-core AMD EPYC or Intel Xeon machine, CPython 3.11.7, least of 3.

CAPS: dict[str, tuple[int, str, str]] = {}


def _cap(name: str, limit: int, engine: str, unit: str) -> int:
    CAPS[name] = (limit, engine, unit)
    return limit


# The largest m served, refused before J(2,m) is built. The forest sweep
# reaches furthest: it answers J(2,207) and refuses J(2,208) (see
# F_VECTOR_STEP_LIMIT). Past it only the word catalog would go on, with
# m*m entries and about m^3 output lines. At m = 207 (EPYC): f-vector
# 0.15 s, hilbert 0.55 s; the oracle catalog and exact-ie are refused in
# 0.10-0.12 s and the tree-enumerating actions by the tree guard in
# 0.12-0.13 s, all at 16 MB. On the Xeon the formula modes answer in
# 0.21-0.32 s, 16 MB, and the word catalog, with PYTHONUNBUFFERED=1 and
# stdout to /dev/null, takes 15 s as JSON, 11.6 s as CSV and 9.3 s as
# text, 62 MB in each format, most of it the catalog itself.
JAHANGIR_M_LIMIT = _cap("JAHANGIR_M_LIMIT", 207, "jahangir command", "spokes")

# The tree guard refuses a graph larger than J(2,JAHANGIR_M_LIMIT)
# before it counts trees. The count is a sparse elimination: in-process
# (EPYC) J(2,207) takes 3-6 ms, and 415- and 800-vertex cycles 1-2 ms.
# Dense graphs cost O(V^3) steps on entries thousands of bits wide: 29 s
# and 99 s on random 415-vertex graphs with 4,296 and 42,932 edges, which
# the cactus bound of TREE_ENUMERATION_LIMIT refuses first, in 1.4 ms and
# 16 ms (Xeon). The cap bounds the determinant on graphs that bound leaves
# undecided, and an answer's output: up to TREE_ENUMERATION_LIMIT trees
# of at most 414 edges. Lifting it needs a budget on the output.
TREE_GUARD_VERTEX_LIMIT = _cap("TREE_GUARD_VERTEX_LIMIT", 2 * JAHANGIR_M_LIMIT + 1,
                               "spanning-tree count", "vertices")

# One guard, before any tree is listed, is called first by the facets
# and classes answers (classes reports the count), the Cohen-Macaulay
# verdict and both report builders, so the CLI's cm and verify and a
# library caller are refused alike; the enumerators list unguarded. It
# is sized by the costliest of them, the search ordering's walk. Past
# it, J(2,10)'s 524,172 trees (runs in a child under a 1 GB address-space
# cap, Xeon, stdout to /dev/null) take graph ... cm 3.6-4.0 s and 55 MB,
# graph ... verify 3.5-3.7 s and 59 MB, facets 2.8-2.9 s and 41 MB,
# jahangir verify 0.5 s and 68 MB and cm --ordering block 0.3 s and
# 68 MB. It also bounds verify's O(m^4) intersection survey.
TREE_ENUMERATION_LIMIT = _cap("TREE_ENUMERATION_LIMIT", 500_000,
                              "tree enumeration", "spanning trees")

# The forest sweep, in steps: one per count carried across an edge,
# checked before each edge, so the table can at most double past it. A
# step costs 20 ns on J(2,m) and 150-300 ns on complete graphs and on
# graphs with long frontiers. On the EPYC J(2,200) (1.12M steps)
# answers in 0.023 s and K10 in 0.08 s; K11, K12, K20, a 12x12 grid
# and shuffled random graphs are refused after 0.15-0.45 s, and a
# 24-edge matching swept before the edges joining it after 0.63 s.
F_VECTOR_STEP_LIMIT = _cap("F_VECTOR_STEP_LIMIT", 1_200_000, "forest sweep", "steps")

# Exact inclusion-exclusion, in steps: one per 64-bit word of each
# entry of the union table carried across one cycle, and of the sum
# each binomial term leaves, and the square of the words of each entry
# of the first row, the cost of writing the answer in decimal. A pass is
# charged before it runs and at most doubles the table, so the table
# never holds more than 4/3 of the limit in words of keys. In-process
# (Xeon, the simple-cycle scan included, which is not charged): J(2,8)
# (57 cycles) answers in 2.6-4.7 ms, J(2,13) (157) in 0.43-0.78 s with
# 113,037 unions in the table, and K7 (1172) in 0.14-0.24 s; J(2,14) is
# refused after 0.42-0.76 s and K7 with 15 pendant leaves after
# 0.65-1.1 s. A path with two chords answers at 2,000 vertices in
# 7-10 ms and is refused at 4,000 in 9-14 ms and at 20,000 in
# 0.11-0.14 s, before its first row is complete.
EXACT_IE_STEP_LIMIT = _cap("EXACT_IE_STEP_LIMIT", 3_000_000,
                           "exact inclusion-exclusion", "steps")

# The simple-cycle scan walks 2^rank masks, so a scan stays under 1 s.
# A mask costs 1.2-4.0 us (EPYC): at rank 17 a chain of triangles takes
# 0.16 s, J(2,17) 0.17 s and the 2x18 ladder, the slowest shape,
# 0.52 s; each further rank doubles the time.
MAX_INDEPENDENT_CYCLES = _cap("MAX_INDEPENDENT_CYCLES", 17,
                              "simple-cycle scan", "independent cycles")

# The scan keeps adjacency lists and two entries per vertex, so a larger
# graph is refused before any of them is built: a 250,000-vertex path
# closed into one cycle is scanned by `graph ... cycles` in 0.7 s at
# 182 MB (EPYC).
MAX_CYCLE_SCAN_VERTICES = _cap("MAX_CYCLE_SCAN_VERTICES", 250_000,
                               "simple-cycle scan", "vertices")


def capacity_error(cap: str, measured: object, note: str = "") -> CapacityError:
    """The refusal past cap, the name of a row of CAPS, as one line:
    `<engine>: <measured> <unit> (<note>) exceed <cap> = <limit>`, the
    note and its parentheses only when a note is given."""
    limit, engine, unit = CAPS[cap]
    if note:
        unit = f"{unit} ({note})"
    return CapacityError(f"{engine}: {measured} {unit} exceed {cap} = {limit}")
