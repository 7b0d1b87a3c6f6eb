"""The JSON edge: the report renderer and the rational reader against the
standard library's json and Fraction."""

import json
from fractions import Fraction

import pytest

from ktoric import jsonio

# characters json escapes, or escapes only as ASCII: quotes, backslashes,
# control characters, non-ASCII letters, line separators and astral ones
AWKWARD = ['"', "\\", "/", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "\u00e9",
           "\u00a0", "\u2028", "\ufeff", "\U0001f600", "a", " "]


def test_dumps_matches_json_dumps_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    text = st.text() | st.lists(st.sampled_from(AWKWARD)).map("".join)
    leaves = (st.none() | st.booleans() | st.integers() | st.integers(
        -2 ** 70, 2 ** 70) | text | st.floats())
    values = st.recursive(
        leaves,
        lambda inner: (st.lists(inner, max_size=5)
                       | st.lists(inner, max_size=3).map(tuple)
                       | st.dictionaries(text, inner, max_size=5)
                       # keys json turns into strings: the fallback's case
                       | st.dictionaries(st.integers() | st.booleans()
                                         | st.none() | text, inner,
                                         max_size=3)),
        max_leaves=20)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(values)
    def check(value):
        assert jsonio.dumps(value) == json.dumps(value, indent=2) + "\n"

    check()


def test_dumps_fails_where_json_dumps_fails():
    for value in (Fraction(1, 2), {"a": [1, {2, 3}]}, {(1, 2): 3}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            jsonio.dumps(value)


def fraction_or_error(x):
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError):
        return ValueError


def rational_or_error(x):
    try:
        return jsonio.rational(x, "field")
    except ValueError as exc:
        assert str(exc).startswith("field: ")
        return ValueError


STRINGS = ["", "-", "+", "--1", "-+1", "+-1", "0", "-0", "007", "-007", "12",
           "+12", "-12", " 12", "12 ", "\t-3\n", "1_000", "-1_000", "1__0",
           "_1", "1_", "\u0661\u0662", "-\u0663", "\uff11", "\u00b2", "1/2",
           "-1/2", "1/0", "0/0", "1/-2", "1.5", "-.5", "1e3", "1E-2", "inf",
           "nan", "0x10", "1 /2", "12a", "- 1", "1" * 50]


@pytest.mark.parametrize("x", STRINGS)
def test_rational_reads_strings_as_fraction_does(x):
    assert rational_or_error(x) == fraction_or_error(x)


def test_rational_matches_fraction_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    digits = st.text("0123456789", min_size=0, max_size=30)
    strings = (st.text()
               | st.tuples(st.sampled_from(["", "-", "+", "--", " "]), digits,
                           st.sampled_from(["", "/", "/0", "/7", "_1", " ",
                                            ".5", "e2"])).map("".join)
               | st.lists(st.sampled_from(
                   ["-", "+", "1", "0", "9", "_", "/", " ", ".", "\u0661",
                    "\uff15"]), max_size=8).map("".join))

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(strings | st.integers())
    def check(x):
        assert rational_or_error(x) == fraction_or_error(x)

    check()


@pytest.mark.parametrize("x", [True, 1.5, None, [1], Fraction(1, 2)])
def test_rational_refuses_other_types(x):
    with pytest.raises(ValueError, match="field: expected an integer or a string"):
        jsonio.rational(x, "field")
