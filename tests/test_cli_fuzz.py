"""Fuzz the command line: every argv either runs or fails with a message.

An argv is a subcommand with flags and arguments drawn from good and bad
values: small and malformed ``-n``/``-m``, caps, well-formed and malformed
braid words, and diagram files holding a valid, a cyclic or a malformed
diagram (also read from standard input, or missing, or a directory).
Counts stay small so each run is quick.  Derandomized, so every run tries
the same argvs.
"""

import contextlib
import io
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import outangles as ou
from outangles.cli import main

_BAD_NUMERALS = st.sampled_from(["-1", "x", "٣", "1" * 5000])


def _mostly(good):
    """``good`` two times in three, else a malformed numeral."""
    return st.one_of(good, good, _BAD_NUMERALS)


_STRAND_COUNTS = _mostly(st.integers(1, 3).map(str))
_LENGTHS = _mostly(st.integers(0, 3).map(str))
_STRANDS = _mostly(st.sampled_from(["0", "1", "2", "3", "4", "100000000"]))
_LETTERS = st.sampled_from(
    ["s1,2", "s2,1'", "s1,3", "s3,2'", "s2,4", "s1,1", "sA,B", "1", "-1", "2", "-3", "0", "'", ","]
)
_WORDS = st.one_of(
    st.sampled_from(["vpb 3: s1,2 s1,3 s2,3", "br 3: 1 2 1", "vpb 2: s1,2 s2,1", "br 4: 1 -3"]),
    st.tuples(
        st.sampled_from(["vpb", "br", "vd", "vpb\n", ""]),
        _STRANDS,
        st.sampled_from([":", ": ", ""]),
        st.lists(_LETTERS, max_size=4).map(" ".join),
    ).map(lambda parts: f"{parts[0]} {parts[1]}{parts[2]}{parts[3]}"),
)
_DIAGRAM_PIECES = st.one_of(
    st.sampled_from(["vd", "x", "eos", "+", "-", "/", " ", "\n", "1/0", "²"]),
    st.integers(-2, 8).map(str),
    st.text(max_size=2),
)
_DIAGRAMS = st.one_of(
    st.sampled_from(
        [
            ou.serialize(ou.iota(ou.parse_vpb("vpb 2: s1,2 s2,1"))),
            ou.serialize(ou.ch(ou.parse_vpb("vpb 3: s1,2 s1,3 s2,3"))),
            "vd 2\nx + 3 1\nx + 2 5\neos 4 6\n",
        ]
    ),
    st.lists(_DIAGRAM_PIECES, max_size=14).map(lambda pieces: "vd " + "".join(pieces)),
)


_COMMANDS = ["normalize", "ch", "eq", "divisors", "core", "eg", "tabulate", "worst", "fibcheck"]


def _outputs(files, flag):
    return st.sampled_from([[], [flag, files["output"]], [flag, files["unwritable"]]])


@st.composite
def _argvs(draw, files):
    """``(argv, diagram text)``: the text is in ``files["diagram"]`` and
    on standard input."""
    diagram = draw(_DIAGRAMS)
    source = draw(st.sampled_from(["diagram", "-", "missing", "directory"]))
    tangle = draw(st.one_of(_WORDS, st.just(files.get(source, source))))
    command = draw(st.sampled_from(_COMMANDS))
    if command == "normalize":
        args = [files.get(source, source)]
    elif command == "ch":
        args = [draw(_WORDS)]
    elif command == "eq":
        args = [draw(_WORDS), draw(_WORDS)]
    elif command in ("divisors", "core"):
        args = [tangle]
    elif command == "eg":
        args = [tangle] + draw(st.sampled_from([[], ["--dot"]])) + draw(_outputs(files, "-o"))
    elif command in ("tabulate", "worst"):
        args = ["--kind", draw(st.sampled_from(["virtual", "classical", "nope"]))]
        args += ["-n", draw(_STRAND_COUNTS), "-m", draw(_LENGTHS)]
        if command == "tabulate":
            args += draw(_outputs(files, "--representatives"))
            args += draw(st.sampled_from([[], ["--max-keys", "1"], ["--max-keys", "0"]]))
    else:
        args = ["-m", draw(_mostly(st.integers(0, 4).map(str)))]
    cap = draw(st.sampled_from([None, "0", "2", "-1"]))
    caps = [] if cap is None else ["--max-iters", cap]
    return caps + [command] + args, diagram


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli-fuzz")
    return {
        "diagram": str(base / "diagram.vd"),
        "missing": str(base / "missing.vd"),
        "directory": str(base),
        "output": str(base / "out.txt"),
        "unwritable": str(base / "missing-dir" / "out.txt"),
    }


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_main_exits_with_a_code_and_a_message(files, data):
    argv, diagram = data.draw(_argvs(files))
    with open(files["diagram"], "w", encoding="utf-8") as fh:
        fh.write(diagram)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        with mock.patch.object(sys, "stdin", io.StringIO(diagram)):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    err = stderr.getvalue()
    assert code in (0, 1, 2), (argv, err)
    if code:
        assert err.startswith(("error:", "usage:")), (argv, err)
    assert "Traceback" not in err
