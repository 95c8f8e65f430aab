"""cli._read_argv against usage's argparse parser, its reference: on every argv the
reader either declines (None), leaving argparse to read it, or returns
exactly argparse's namespace. The corpus is seeded and built from the
option table itself: every action with every subset of its command's
options in shuffled order, and the same argvs bent into the forms the
reader must decline or read as argparse does.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random

import pytest

from jahangir_ssc import cli, usage

SEED = 20260
BENT_PER_ARGV = 2

# values an int option may meet, beside plain digits: argparse's int()
# reads most of them, the reader none
ODD_INTS = ("03", "+3", "-3", "3_0", " 3", "٣", "", "1" * 5000, "0x3")
# values a path may meet: those starting with "-" are declined
ODD_PATHS = ("-", "-x", "--", "-3", "--input", "", "a b", "a=b", "facets")


@pytest.fixture(scope="module")
def parser():
    return usage.build_parser()


def _argparse(parser, argv: list[str]) -> dict | None:
    """argparse's namespace as a dict, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def _value(kind, rng: random.Random) -> str:
    if kind is int:
        return str(rng.choice((0, 2, 3, 7, 207, 10 ** 30)))
    if kind is str:
        return rng.choice(("triangle.json", "docs/graph.json", "g"))
    return rng.choice(kind)


def _well_formed(rng: random.Random) -> list[list[str]]:
    """Every command, action and subset of options, shuffled; each option
    a token group [flag] or [flag, value]."""
    corpus = []
    for command, (_, own) in cli._COMMANDS.items():
        options = {**own, **cli._COMMON_OPTIONS}
        for action in cli.ACTIONS:
            for r in range(len(options) + 1):
                for subset in itertools.combinations(options, r):
                    groups = [[action]] + [
                        [flag] if options[flag][0] is bool
                        else [flag, _value(options[flag][0], rng)] for flag in subset]
                    rng.shuffle(groups)
                    corpus.append([command, *itertools.chain.from_iterable(groups)])
    return corpus


def _bent(argv: list[str], rng: random.Random) -> list[str]:
    """argv with one change the reader must decline or match argparse on."""
    command, rest = argv[0], list(argv[1:])
    options = {**cli._COMMANDS[command][1], **cli._COMMON_OPTIONS}
    flag = rng.choice(list(options))
    kind = options[flag][0]
    where = rng.randrange(len(rest) + 1)
    bend = rng.randrange(11)
    if bend == 0:    # a repeated option, with a valid value
        extra = [flag] if kind is bool else [flag, _value(kind, rng)]
    elif bend == 1:  # a second action
        extra = [rng.choice(cli.ACTIONS)]
    elif bend == 2:  # an abbreviation
        extra = [flag[:rng.randrange(3, len(flag))] if len(flag) > 3 else "--",
                 _value(kind, rng) if kind is not bool else "json"]
    elif bend == 3:  # --flag=value
        extra = [f"{flag}={_value(kind, rng) if kind is not bool else ''}"]
    elif bend == 4:  # "--", or a help flag
        extra = [rng.choice(("--", "-h", "--help"))]
    elif bend == 5:  # an odd int
        extra = [rng.choice(("--m", "--n", "--seed")) if command == "jahangir"
                 else "--seed", rng.choice(ODD_INTS)]
    elif bend == 6:  # an odd path, or a path-like value for another option
        extra = [rng.choice(("--input", "--format")), rng.choice(ODD_PATHS)]
    elif bend == 7:  # an invalid choice
        extra = [rng.choice(("--format", "--mode", "--catalog", "--ordering")),
                 rng.choice(("JSON", "paper ", "bogus", "", "-x", "direct,formula"))]
    elif bend == 8:  # a missing value: the option ends argv
        rest.append(rng.choice([f for f, spec in options.items() if spec[0] is not bool]))
        return [command, *rest]
    elif bend == 9:  # a token dropped
        if rest:
            del rest[rng.randrange(len(rest))]
        return [command, *rest]
    else:            # a stray token, or the other command's option
        extra = [rng.choice(("x", "3", "-", "-m", "--m", "--input", "jahangir", "graph",
                             "--timings=1", "-5"))]
    rest[where:where] = extra
    return [command, *rest]


def test_the_reader_reads_every_well_formed_argv_as_argparse(parser):
    rng = random.Random(SEED)
    corpus = _well_formed(rng)
    assert len(corpus) == 7 * (2 ** 8 + 2 ** 7)
    accepted = 0
    for argv in corpus:
        want, have = _argparse(parser, argv), cli._read_argv(argv)
        # argparse refuses only the argvs without --m or --input
        assert (have is None) == (want is None), argv
        if have is not None:
            assert vars(have) == want, argv
            accepted += 1
    assert accepted == len(corpus) // 2


def test_the_reader_declines_or_matches_argparse_on_bent_argv(parser):
    rng = random.Random(SEED + 1)
    declined = matched = 0
    # each argv that names its --m or --input, bent
    for argv in filter(cli._read_argv, _well_formed(rng)):
        for _ in range(BENT_PER_ARGV):
            bent = _bent(argv, rng)
            have = cli._read_argv(bent)
            if have is None:
                declined += 1
                continue
            assert vars(have) == _argparse(parser, bent), bent
            matched += 1
    # both outcomes occur: a repeated option, "03" or a path such as
    # "a b" is read, the rest declined
    assert declined > 2000 and matched > 100


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["jahangir"], ["graph"], ["nonsense", "--m", "3", "facets"],
    ["jahangir", "--m", "3"], ["jahangir", "facets"], ["graph", "--input", "g", "--m", "3"],
    ["jahangir", "--m", "3", "facets", "cm"], ["jahangir", "--m", "3", "facets", "--"],
    ["jahangir", "--", "--m", "3", "facets"], ["jahangir", "--m=3", "facets"],
    ["jahangir", "--m", "3", "facets", "--form", "csv"],
    ["jahangir", "--m", "3", "facets", "--timings", "1"],
    ["jahangir", "--m", "3", "facets", "--mode"],
    ["jahangir", "--m", "1" * 5000, "facets"],
    ["graph", "--input", "-", "facets"], ["graph", "--input", "--timings", "facets"],
    *(["jahangir", "--m", value, "facets"] for value in ODD_INTS if value != "03"),
])
def test_the_reader_declines(argv):
    assert cli._read_argv(argv) is None


@pytest.mark.parametrize("argv, want", [
    (["jahangir", "--m", "3", "--m", "4", "facets"], {"m": 4}),
    (["jahangir", "facets", "--m", "003"], {"m": 3}),
    (["jahangir", "--timings", "--m", "3", "verify", "--timings"], {"timings": True}),
    (["graph", "--input", "facets", "f-vector"], {"input": "facets", "action": "f-vector"}),
    (["graph", "--input", "", "cm", "--input", "a b"], {"input": "a b"}),
    (["jahangir", "--mode", "paper", "--m", "3", "hilbert", "--mode", "exact-ie"],
     {"mode": "exact-ie"}),
])
def test_the_reader_reads_as_argparse(parser, argv, want):
    have = cli._read_argv(argv)
    assert have is not None and vars(have) == _argparse(parser, argv)
    assert want.items() <= vars(have).items()


def test_every_golden_request_argparse_accepts_takes_the_reader(parser):
    from test_golden_cli import requests

    read = 0
    for argv in map(list, requests()):
        want = _argparse(parser, argv)
        have = cli._read_argv(argv)
        if want is None:
            assert have is None, argv
        else:
            assert have is not None and vars(have) == want, argv
            read += 1
    # all but the usage errors (--m missing, the action missing, no
    # command, an unknown action, an invalid choice)
    assert read == len(requests()) - 5
