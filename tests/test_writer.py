"""The CLI's JSON writer against json.dump(..., indent=2), and the number
of writes each output format makes."""

from __future__ import annotations

import contextlib
import enum
import hashlib
import io
import json
import math
import random
import tracemalloc

import pytest

from jahangir_ssc.cli import _SLICE, _Batched, _write_json, main


class Shade(str, enum.Enum):
    DARK = "dark"
    QUOTED = 'say "é"'


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 10**30


class Record(dict):
    pass


class Row(list):
    pass


ALPHABET = ['a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\x00', '\x1f', '\x7f',
            'é', '☃', '\U0001f600', '\ud800']


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(6)))


def _int(rng: random.Random) -> int:
    return rng.choice([0, -1, rng.randint(-10**6, 10**6), -10**40 - rng.randrange(99),
                       10**200 + rng.randrange(99)])


def _scalar(rng: random.Random) -> object:
    return rng.choice([
        _text(rng), _int(rng), True, False, None, math.nan, math.inf, -math.inf,
        -0.0, 0.0, rng.uniform(-1e300, 1e300), 1e-310, Shade.DARK, Shade.QUOTED,
        Level.LOW, Level.HIGH,
    ])


def _key(rng: random.Random) -> object:
    return rng.choice([_text(rng), _int(rng), True, False, None, 2.5, -0.0, math.inf,
                       Shade.QUOTED, Level.HIGH])


def _sequence(items: list, rng: random.Random, lazy: bool) -> object:
    """items as a list, a tuple or a list subclass; when lazy, the same
    items as a generator or a map object, written as a list."""
    kind = rng.randrange(5)
    if lazy and kind == 3:
        return (x for x in items)
    if lazy and kind == 4:
        return map(lambda x: x, items)
    return (list, tuple, Row, list, list)[kind](items)


def _value(rng: random.Random, depth: int, lazy: bool) -> object:
    """A random payload; for one seed, the lazy and the eager payload
    hold the same values."""
    shape = rng.randrange(8) if depth < 4 else 0
    if shape <= 1:
        return _scalar(rng)
    size = rng.choice([0, 1, 2, rng.randrange(12)])
    if shape == 2:  # all plain str or all plain int, bools and None mixed in
        pick = rng.choice([_text, _int, lambda r: r.choice([_int(r), True, False, None])])
        return _sequence([pick(rng) for _ in range(size)], rng, lazy)
    if shape <= 4:
        return _sequence([_value(rng, depth + 1, lazy) for _ in range(size)], rng, lazy)
    pairs = [(_key(rng), _value(rng, depth + 1, lazy)) for _ in range(size)]
    return (dict, Record)[rng.randrange(2)](pairs)


def _written(obj: object) -> str:
    out = io.StringIO()
    _write_json(obj, out.write)
    return out.getvalue() + "\n"


def _dumped(obj: object) -> str:
    out = io.StringIO()
    json.dump(obj, out, indent=2)
    return out.getvalue() + "\n"


@pytest.mark.parametrize("seed", range(40))
def test_writer_matches_json_dump(seed):
    lazy = _value(random.Random(seed), 0, lazy=True)
    eager = _value(random.Random(seed), 0, lazy=False)
    assert _written(lazy) == _dumped(eager)


@pytest.mark.parametrize("payload, eager", [
    ({}, {}),
    ([], []),
    ((), ()),
    (iter(()), []),
    ({"a": (x for x in ())}, {"a": []}),
    ({"a": map(str, range(3)), "b": {}}, {"a": ["0", "1", "2"], "b": {}}),
    ([[], {}, [[]], ""], [[], {}, [[]], ""]),
    ({1: 2, True: 3, None: 4, 2.5: 5, "x": 6}, {1: 2, True: 3, None: 4, 2.5: 5, "x": 6}),
    ([1, True, None, -(10**50)], [1, True, None, -(10**50)]),
    (["é\n\"\\", Shade.DARK], ["é\n\"\\", Shade.DARK]),
    ([Level.HIGH, Level.LOW], [Level.HIGH, Level.LOW]),
    ([math.nan, -math.inf, -0.0], [math.nan, -math.inf, -0.0]),
    (Record(a=Row([1, 2])), Record(a=Row([1, 2]))),
    ("top", "top"),
    (None, None),
    # a list of one scalar type leaves _SLICE items at a time
    *[({"ints": list(range(size)), "strs": tuple(map(str, range(size)))},
       {"ints": list(range(size)), "strs": list(map(str, range(size)))})
      for size in (_SLICE - 1, _SLICE, _SLICE + 1, 2 * _SLICE)],
])
def test_writer_edge_cases(payload, eager):
    assert _written(payload) == _dumped(eager)


# bool and None are written from _SCALARS, not by json.dumps, and only a
# float or a str or int subclass imports json: each scalar kind alone, in
# one-kind lists, beside the kinds it may be confused with, and as keys
@pytest.mark.parametrize("payload", [
    True, False, None,
    [True, False, True], [False], [None, None], [None],
    (True, None), [True, 1, None, 0, False], [1, True], [0, False], ["true", True],
    {"flag": True, "none": None, "bools": [False, True], "nones": [None]},
    {True: None, False: [None, True], None: False},
    [[True], [None], [False, None]],
    1.5, [0.1, -2.5e-300, math.inf, math.nan], [1, 1.0], {"t": 0.001, 2.5: [1.0]},
    Shade.DARK, [Shade.DARK, Shade.QUOTED], [Shade.DARK, "dark"], ["x", Shade.QUOTED],
    Level.HIGH, [Level.LOW, Level.HIGH], [Level.LOW, 1], [True, Level.LOW],
    {Level.HIGH: Shade.QUOTED, Shade.DARK: Level.LOW},
])
def test_writer_scalars_match_json_dump(payload):
    assert _written(payload) == _dumped(payload)


def test_long_scalar_lists_are_written_in_slices():
    # the 140,450 positions of cm --m 9's certificate: joined into one
    # string they peaked at 10.3 MB under tracemalloc, in slices at 0.36 MB
    payload = {"certificate": tuple(range(140_450))}
    digest = hashlib.sha256()
    out = _Batched(lambda text: digest.update(text.encode()))
    tracemalloc.start()
    try:
        _write_json(payload, out.write)
        out.flush()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"tracemalloc peak {peak} bytes"
    assert digest.digest() == hashlib.sha256(json.dumps(payload, indent=2).encode()).digest()


def test_writer_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        _written({"a": {1, 2}})


class _CountingStdout(io.StringIO):
    def __init__(self) -> None:
        super().__init__()
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


def _counted(*argv: str) -> _CountingStdout:
    out = _CountingStdout()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out


def test_facets_json_leaves_in_a_few_writes():
    # json.dump made 171,423 writes of this document, each a system call
    # when stdout is unbuffered
    out = _counted("jahangir", "--m", "7", "facets")
    text = out.getvalue()
    assert out.writes <= min(64, len(text) // (1 << 16) + 1)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert len(json.loads(text)["facets"]) == 10082


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_csv_and_text_leave_in_a_few_writes(fmt):
    # one write per row made 3,601 writes of each document; now every
    # write but the last holds at least 64 KB
    out = _counted("jahangir", "--m", "60", "cycles", "--format", fmt)
    assert out.writes <= len(out.getvalue()) // (1 << 16) + 1
    assert len(out.getvalue().splitlines()) == 3601


def test_batches_hold_at_least_the_write_size():
    pieces: list[str] = []
    batched = _Batched(pieces.append)
    for i in range(100_000):
        batched.write(str(i))
    batched.flush()
    assert "".join(pieces) == "".join(map(str, range(100_000)))
    assert all(len(p) >= 1 << 16 for p in pieces[:-1])
    assert len(pieces) == 8
