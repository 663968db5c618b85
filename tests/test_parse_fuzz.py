"""Fuzz the text parsers: any input either parses or raises an OuError.

An input is a header word, a numeral, then a run of pieces: the grammar's
own words and punctuation, more numerals and arbitrary short text.  Half
the numerals are written in non-ASCII digit characters (other scripts'
decimal digits, superscripts, circled digits), because ``str.isdigit``
accepts some that ``int`` rejects.  Derandomized, so every run tries the
same inputs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import outangles as ou

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
