import pytest
from helpers import HASH_SEEDS, run_cli, tabulate_in_children

import outangles as ou
from outangles import division, enumeration
from outangles.cli import main

SCR_LONG = "vpb 3: s2,1' s1,3 s3,1 s1,3 s3,1 s1,3 s2,3 s2,1"
SCR_SHORT = "vpb 3: s2,3 s1,3 s3,1 s1,3 s3,1 s1,3"
CYCLIC_GERM = "vd 2\nx + 3 1\nx + 2 5\neos 4 6\n"


def test_eq_equal_words(capsys):
    assert main(["eq", SCR_LONG, SCR_SHORT]) == 0
    assert capsys.readouterr().out == "equal\n"


def test_eq_distinct_words(capsys):
    assert main(["eq", "vpb 2: s1,2", "vpb 2: s2,1"]) == 0
    assert capsys.readouterr().out == "distinct\n"


def test_eq_classical_words(capsys):
    assert main(["eq", "br 3: 1 2 1", "br 3: 2 1 2"]) == 0
    assert capsys.readouterr().out == "equal\n"
    assert main(["eq", "br 3: 1", "br 3: 2"]) == 0
    assert capsys.readouterr().out == "distinct\n"


def test_eq_compares_end_permutations_first(capsys):
    # the permutations differ, so no glide is needed to tell the words apart
    assert main(["--max-iters", "0", "eq", "br 3: 1 2 1 2 -1 2", "br 3: 1"]) == 0
    assert capsys.readouterr().out == "distinct\n"
    assert main(["--max-iters", "0", "eq", "vpb 3: s1,2", "br 3: 1"]) == 0
    assert capsys.readouterr().out == "distinct\n"
    assert main(["--max-iters", "0", "eq", "br 3: 1 2 1", "br 3: 2 1 2"]) == 1
    assert "no OU form after 0 glide moves" in capsys.readouterr().err


def test_eq_strand_mismatch_is_domain_error(capsys):
    assert main(["eq", "vpb 2: s1,2", "vpb 3: s1,2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_normalize_cyclic_diagram(tmp_path, capsys):
    path = tmp_path / "germ.vd"
    path.write_text(CYCLIC_GERM)
    assert main(["normalize", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cyclic")


def test_normalize_twist(tmp_path, capsys):
    path = tmp_path / "twist.vd"
    path.write_text(ou.serialize(ou.iota(ou.parse_vpb("vpb 2: s1,2 s2,1"))))
    assert main(["normalize", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == ou.serialize(ou.ch(ou.parse_vpb("vpb 2: s1,2 s2,1")))
    assert out.count("\nx ") == 3


def test_ch_command(capsys):
    assert main(["ch", "vpb 2: s1,2"]) == 0
    assert capsys.readouterr().out == "vd 2\nx + 1 3\neos 2 4\n"


def test_divisors_command(capsys):
    assert main(["divisors", "vpb 3: s1,2 s1,3 s2,3"]) == 0
    assert capsys.readouterr().out == "s1,2\ns2,3\n"


def test_divisors_from_diagram_file(tmp_path, capsys):
    path = tmp_path / "tangle.vd"
    path.write_text(ou.serialize(ou.ch(ou.parse_vpb("vpb 2: s1,2"))))
    assert main(["divisors", str(path)]) == 0
    assert capsys.readouterr().out == "s1,2\n"


def test_divisors_rejects_unreduced_diagram(tmp_path, capsys):
    path = tmp_path / "twist.vd"
    path.write_text(ou.serialize(ou.iota(ou.parse_vpb("vpb 2: s1,2 s2,1"))))
    assert main(["divisors", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_normalize_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("vd 2\nx + 1 3\neos 2 4\n"))
    assert main(["normalize", "-"]) == 0
    assert capsys.readouterr().out == "vd 2\nx + 1 3\neos 2 4\n"


def test_core_command(capsys):
    assert main(["core", "vpb 2: s1,2 s2,1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "vpb 2: s1,2 s2,1"
    assert out[1] == "vd 2"


def test_eg_dot_deterministic(capsys):
    assert main(["eg", "--dot", "vpb 3: s1,2 s1,3 s2,3"]) == 0
    first = capsys.readouterr().out
    assert main(["eg", "--dot", "vpb 3: s1,2 s1,3 s2,3"]) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("digraph {")
    assert first.count("->") == 6


def test_eg_structured_to_file(tmp_path):
    out = tmp_path / "graph.txt"
    assert main(["eg", "vpb 2: s1,2", "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3  # two nodes, one edge


def test_eg_accepts_classical_words(capsys):
    assert main(["eg", "--dot", "br 8: 1 3 5 7"]) == 0
    out = capsys.readouterr().out
    assert out.count("->") == 32


def test_eg_dot_bytes_identical_across_processes():
    # guard against anything hash-seed dependent leaking into emissions
    runs = set()
    for seed in HASH_SEEDS:
        proc = run_cli(["eg", "--dot", "vpb 3: s1,2 s1,3 s2,3"], seed)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert proc.stderr == b""
        runs.add(proc.stdout)
    assert len(runs) == 1 and runs != {b""}


def test_tabulate_command(capsys):
    assert main(["tabulate", "--kind", "virtual", "-n", "2", "-m", "3"]) == 0
    out = capsys.readouterr().out
    assert out.rstrip().splitlines()[-1] == "2 3 virtual 36"


def test_tabulate_command_desk_scale(capsys):
    assert main(["tabulate", "--kind", "virtual", "-n", "3", "-m", "4"]) == 0
    out = capsys.readouterr().out
    assert out.rstrip().splitlines()[-1] == "3 4 virtual 15156"


def test_tabulate_bytes_do_not_depend_on_the_hash_seed(tmp_path, capsys):
    # stdout and representatives bytes do not depend on the process, and so
    # on the hash seed, that computes them
    path = tmp_path / "here.txt"
    argv = ["tabulate", "--kind", "classical", "-n", "3", "-m", "4"]
    assert main(argv + ["--representatives", str(path)]) == 0
    expect = (capsys.readouterr().out.encode("ascii"), path.read_bytes())
    assert tabulate_in_children(tmp_path, 3, 4, "classical") == {expect}


def test_a_run_that_fails_later_leaves_an_empty_file(tmp_path, capsys):
    # both output files are opened, and so emptied, before the tabulation or
    # the graph starts, and written only once it has finished
    out = tmp_path / "out.txt"
    out.write_text("stale\n")
    argv = ["tabulate", "--kind", "classical", "-n", "3", "-m", "4", "--max-keys", "114"]
    assert main(argv + ["--representatives", str(out)]) == 1  # the table has 115 braids
    assert capsys.readouterr().err.startswith("error:")
    assert out.read_bytes() == b""

    twist = tmp_path / "twist.vd"
    assert main(["ch", "br 6: 1 2 3 4 5 1 2 3 4 1 2 3 1 2 1"]) == 0
    twist.write_text(capsys.readouterr().out)
    out.write_text("stale\n")
    assert main(["--max-iters", "0", "eg", "-o", str(out), str(twist)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert out.read_bytes() == b""


def test_unwritable_representatives_path_fails_before_tabulating(monkeypatch, capsys):
    def no_frontier(*args, **kwargs):
        raise AssertionError("the frontier ran before the representatives file was opened")

    monkeypatch.setattr(enumeration, "_children", no_frontier)
    argv = ["tabulate", "--kind", "virtual", "-n", "3", "-m", "4"]
    assert main(argv + ["--representatives", "/nonexistent/dir/x.txt"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_unwritable_eg_output_fails_before_building_graph(monkeypatch, capsys):
    def no_graph(*args, **kwargs):
        raise AssertionError("the graph was built before the output file was opened")

    monkeypatch.setattr(division, "extraction_graph", no_graph)
    assert main(["eg", "-o", "/nonexistent/dir/x", "vpb 3: s1,2"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_worst_command(capsys):
    assert main(["worst", "--kind", "virtual", "-n", "2", "-m", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "vpb 2: s1,2 s2,1'"
    assert out[1] == "xi 4"


def test_fibcheck_command(capsys, monkeypatch):
    assert main(["fibcheck", "-m", "3"]) == 0
    assert "ok" in capsys.readouterr().out
    monkeypatch.setattr(enumeration, "fibonacci_check", lambda m, counts: False)
    assert main(["fibcheck", "-m", "1"]) == 1
    assert capsys.readouterr().out == "mismatch within m=1..1\n"


def test_fibcheck_obeys_the_glide_cap(capsys, monkeypatch):
    # tabulating m = 1 .. 5 needs glides, so a cap of 0 stops it as it stops
    # tabulate, by flag or by environment
    assert main(["--max-iters", "0", "fibcheck", "-m", "5"]) == 1
    assert capsys.readouterr().err.startswith("error: no OU form after 0 glide moves")
    monkeypatch.setenv("OU_MAX_ITERS", "0")
    assert main(["fibcheck", "-m", "2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["tabulate", "--kind", "nonsense", "-n", "2", "-m", "1"])
    assert exc.value.code == 2


def test_word_syntax_error_exit_code(capsys):
    assert main(["ch", "vpb 2: sA,B"]) == 2
    assert "error:" in capsys.readouterr().err


def test_diagram_syntax_error_names_line(tmp_path, capsys):
    path = tmp_path / "bad.vd"
    path.write_text("vd 2\nx ? 1 3\neos 2 4\n")
    assert main(["normalize", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_max_iters_env_and_flag(tmp_path, capsys, monkeypatch):
    path = tmp_path / "twist.vd"
    path.write_text(ou.serialize(ou.iota(ou.parse_vpb("vpb 2: s1,2 s2,1"))))
    monkeypatch.setenv("OU_MAX_ITERS", "0")
    assert main(["normalize", str(path)]) == 1
    assert "error:" in capsys.readouterr().err
    # explicit flag beats the environment default
    assert main(["--max-iters", "64", "normalize", str(path)]) == 0
    capsys.readouterr()


def test_missing_file_is_usage_error(capsys):
    assert main(["normalize", "/nonexistent/x.vd"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, env, diagram",
    [
        (["tabulate", "--kind", "virtual", "-n", "1", "-m", "2"], None, None),
        (["tabulate", "--kind", "virtual", "-n", "2", "-m", "-1"], None, None),
        (["worst", "--kind", "virtual", "-n", "2", "-m", "0"], None, None),
        (["fibcheck", "-m", "0"], None, None),
        (["ch", "vpb 2: s1,2"], "abc", None),
        (["normalize"], None, "vd 1\nx + 1/0 2\neos 3\n"),
        (["--max-iters", "-1", "ch", "vpb 2: s1,2"], None, None),
        (["ch", "vpb 2: s1,2"], "-4", None),
        (["tabulate", "--kind", "virtual", "-n", "2", "-m", "2", "--max-keys", "-5"], None, None),
        (["tabulate", "--kind", "virtual", "-n", "2", "-m", "2", "--max-keys", "0"], None, None),
        (["normalize"], None, "vd \u00b2\neos 1\n"),
        (["ch", "vpb 0:"], None, None),
        (["ch", "vpb 100000000:"], None, None),
        (["normalize"], None, "vd 0\neos\n"),
        (["ch", "br 12: 1_0"], None, None),
        (["ch", "br \u0663: 1"], None, None),
        (["eq", "vpb 3: s\u0661,2", "vpb 3: s1,2"], None, None),
        (["tabulate", "--kind", "virtual", "-n", "1001", "-m", "0"], None, None),
        (["worst", "--kind", "classical", "-n", "1001", "-m", "1"], None, None),
        (["fibcheck", "-m", "1_0"], None, None),
        (["fibcheck", "-m", "\uff13"], None, None),
        (["fibcheck", "-m", "\u0663"], None, None),
        (["fibcheck", "-m", "+3"], None, None),
        (["fibcheck", "-m", " 3 "], None, None),
        (["fibcheck", "-m", "9" * 5000], None, None),
        (["ch", "vpb 2: s1,2"], "1_000", None),
    ],
    ids=[
        "tabulate-n1",
        "tabulate-m-1",
        "worst-m0",
        "fibcheck-m0",
        "max-iters-env",
        "zero-denominator",
        "max-iters-flag-negative",
        "max-iters-env-negative",
        "max-keys-negative",
        "max-keys-zero",
        "non-ascii-file",
        "zero-strands",
        "too-many-strands",
        "zero-strand-diagram",
        "underscore-letter",
        "non-ascii-strand-count",
        "non-ascii-generator",
        "tabulate-too-many-strands",
        "worst-too-many-strands",
        "underscore-option",
        "fullwidth-digit-option",
        "arabic-indic-digit-option",
        "plus-sign-option",
        "spaced-option",
        "too-long-option",
        "underscore-env",
    ],
)
def test_bad_input_is_usage_error_without_traceback(argv, env, diagram, tmp_path, monkeypatch, capsys):
    if env is not None:
        monkeypatch.setenv("OU_MAX_ITERS", env)
    if diagram is not None:
        path = tmp_path / "bad.vd"
        path.write_text(diagram, encoding="utf-8")
        argv = argv + [str(path)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(("error:", "usage:"))
    assert "Traceback" not in err
