"""Fuzz the text parsers: any input either parses or raises an OuError.

An input is a header word, a numeral, then a run of pieces: the grammar's
own words and punctuation, more numerals and arbitrary short text.  Half
the numerals are written in non-ASCII digit characters (other scripts'
decimal digits, superscripts, circled digits), because ``str.isdigit``
accepts some that ``int`` rejects.  Long numerals, beyond the 4300 digits
CPython's ``int`` converts, go in every place the grammars read a number.
Derandomized, so every run tries the same inputs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import outangles as ou

_LONG_NUMERALS = st.tuples(st.sampled_from("0123456789"), st.integers(4301, 6000)).map(
    lambda run: "1" + run[0] * run[1]
)
_LONG_NUMERAL_PLACES = [
    "vd {}\neos 1\n",
    "vd 1\nx + {} 2\neos 5\n",
    "vd 1\nx + 1 -{}\neos 5\n",
    "vd 1\nx + 1/{} 2\neos 5\n",
    "vd 1\nx + {}/3 2\neos 5\n",
    "vd 2\neos 1 {}\n",
    "vpb {}:",
    "vpb {}: s1,2",
    "vpb 3: s{},2",
    "vpb 3: s1,{}'",
    "br {}:",
    "br {}: 1 -1",
    "br 3: -{}",
]

_NUMERALS = st.one_of(
    st.integers(-2, 12).map(str),
    st.text(st.characters(categories=["Nd", "No"], min_codepoint=128), min_size=1, max_size=2),
)
_PIECES = st.one_of(
    st.sampled_from(["vd", "x", "eos", "vpb", "br", "s", ",", "'", ":", "+", "-", "/", " ", "\n"]),
    _NUMERALS,
    st.text(max_size=3),
)
_TEXTS = st.tuples(
    st.sampled_from(["", "vd ", "vpb ", "br "]), _NUMERALS, st.lists(_PIECES, max_size=16).map("".join)
).map("".join)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_TEXTS)
def test_parsers_raise_only_domain_errors(text):
    for parse in (ou.parse, ou.parse_vpb, ou.parse_classical):
        try:
            parse(text)
        except ou.OuError:
            pass


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(_LONG_NUMERAL_PLACES), _LONG_NUMERALS)
def test_long_numerals_are_parse_errors(place, numeral):
    text = place.format(numeral)
    for parse in (ou.parse, ou.parse_vpb, ou.parse_classical):
        with pytest.raises(ou.ParseError):
            parse(text)
