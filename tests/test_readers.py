"""A seeded fuzzer for the readers of command-line text: UPoly.parse,
FieldTower.parse, the integer flags and cli.main.  Valid polynomials,
elements of L and q-lists are mutated with Unicode digits and spaces,
control characters, signs, '_', brackets and empty entries, and every
outcome is checked against the grammar the README states: printable ASCII
with spaces ignored, numbers in ASCII digits."""

import argparse
import random
import re

import pytest

from drinfeld2 import UPoly, build_tower
from drinfeld2.cli import _positive_int, main

SEED = 20040
TOKENS = ["\uff12", "\u0661", "\u0966", "\u00b2",  # Unicode digits, superscript two
          " ", "  ", "\t", "\n", "\r", "\x0b", "\x0c",  # ASCII whitespace
          "\u00a0", "\u2003", "\u3000", "\u200b", "\x85",  # Unicode spaces, NEL
          "\x00", "\x1b", "\x7f", "\u00e9",  # controls, DEL, a letter
          "+", "-", "_", "[", "]", ",", ",,", "*", "^", "0"]
DIGITS = re.compile(r"[0-9]+")
VECTOR = re.compile(r"\[([0-9]+(,[0-9]+)*)?\]")


def _layout(text):
    """The README's rule, written apart from the library's: None if text
    holds anything outside printable ASCII, else text without spaces."""
    if any(not " " <= c <= "~" for c in text):
        return None
    return text.replace(" ", "")


def _element(tw, text):
    """The element that text names in tw, or None where it is invalid."""
    s = _layout(text)
    if s is not None and DIGITS.fullmatch(s):
        return int(s) if int(s) < tw.order else None
    if s is None or not VECTOR.fullmatch(s):
        return None
    vec = [int(c) for c in s[1:-1].split(",")] if s != "[]" else []
    if len(vec) != tw.n or any(c >= tw.q for c in vec):
        return None
    return sum(c * tw.q ** i for i, c in enumerate(vec))


def _mutate(rng, text):
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + rng.choice(TOKENS) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(TOKENS) + text[i + 1:]
    return text


def _outcome(read, text):
    """read(text), or the ValueError it raised; any other exception escapes."""
    try:
        return read(text)
    except ValueError as exc:
        return exc


def _inputs(rng, fq, tw):
    """(kind, text) pairs: mutated polynomials, elements, q-lists and flags."""
    seeds = []
    for _ in range(40):
        f = UPoly(fq, [rng.randrange(fq.q) for _ in range(rng.randrange(4))])
        seeds.append(("poly", str(f)))
        x = rng.randrange(tw.order)
        seeds.append(("element", rng.choice([tw.format(x), str(x)])))
    seeds += [("poly", "2*T^2 + T - 1"), ("qs", "3,5"), ("qs", " 3 , 5 "),
              ("int", "3"), ("int", "12")]
    return [(kind, _mutate(rng, text)) for kind, text in seeds for _ in range(24)]


def test_readers_follow_one_grammar():
    rng = random.Random(SEED)
    fq, tw = build_tower(3, 1, 1).fq, build_tower(3, 1, 2)
    inputs = _inputs(rng, fq, tw)
    refused = 0
    for kind, text in inputs:
        clean = _layout(text)
        poly = _outcome(lambda t: UPoly.parse(fq, t), text)
        element = _outcome(tw.parse, text)
        try:
            flag = _positive_int(text)
        except argparse.ArgumentTypeError:
            flag = None
        assert isinstance(poly, (UPoly, ValueError)), (text, poly)
        assert element == _element(tw, text) or (
            isinstance(element, ValueError) and _element(tw, text) is None), (text, element)
        assert flag == (int(text) if DIGITS.fullmatch(text) and int(text) >= 1 else None), text
        if clean is None:
            refused += 1
            assert isinstance(poly, ValueError) and isinstance(element, ValueError), text
        elif not isinstance(poly, ValueError):
            # spaces are ignored: the text without them reads the same
            assert UPoly.parse(fq, clean) == poly, text
    assert refused > len(inputs) // 3  # the mutations reach the refusals


def test_cli_exits_with_a_code_and_no_traceback(capsys):
    rng = random.Random(SEED + 1)
    fq, tw = build_tower(3, 1, 1).fq, build_tower(3, 1, 2)
    module = ["--p", "3", "--P", "T", "--m", "2"]
    # '--flag=text' hands text to the reader even where it starts with '-'
    for kind, text in _inputs(rng, fq, tw)[::4]:
        if kind == "element":
            argv = ["charpoly", *module, "--g=" + text, "--delta", "1"]
        elif kind == "poly":
            argv = ["realize", *module, "--i1=" + text, "--i2", "1"]
        elif kind == "qs":
            argv = ["trend", "--q=" + text, "--d", "1", "--m", "1"]
        else:
            argv = ["census", "--p=" + text, "--d", "1", "--m", "1"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3) and "Traceback" not in err, (argv, code, err)
        if _layout(text) is None:
            assert code == 2, argv
        if kind == "element":
            assert code == (2 if _element(tw, text) is None else 0), (argv, err)
        if code in (2, 3) and kind != "int":  # argparse adds its usage for flags
            assert err.count("\n") == 1, (argv, err)


@pytest.mark.parametrize("p,s,n", [(3, 1, 6), (2, 3, 3), (5, 1, 4), (3, 2, 3)])
def test_readers_round_trip(p, s, n):
    tw = build_tower(p, s, n)
    assert tw.order <= 729
    assert all(tw.parse(tw.format(x)) == x for x in tw.elements())
    rng = random.Random(SEED + tw.order)
    for _ in range(200):
        f = UPoly(tw.fq, [rng.randrange(tw.q) for _ in range(rng.randrange(8))])
        assert UPoly.parse(tw.fq, str(f)) == f
