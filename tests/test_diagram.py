import copy
import dataclasses
import functools
import pickle
import random
import types
from fractions import Fraction

import pytest
from helpers import oracle_renumber, oracle_serialize, random_gauss, random_vpb_word

import outangles as ou
from outangles import Crossing, Diagram, diagram


def test_identity_diagram_tidy():
    d = ou.identity_diagram(3)
    assert ou.tidy(d) == d
    assert d.eos_keys == (1, 2, 3)
    assert ou.crossing_number(d) == 0


def test_tidy_single_crossing_rational_keys():
    d = Diagram(2, (Crossing(1, (1, Fraction(7, 10)), (2, Fraction(1, 5))),), (1, 2))
    t = ou.tidy(d)
    assert t.crossings == (Crossing(1, (1, 1), (2, 3)),)
    assert t.eos_keys == (2, 4)


def test_tidy_post_glide_diagram_matches_oracle():
    # one glide applied to: strand1 over@1 (a), strand2 under@3 (b),
    # strand3 under@5 (a) then over@6 (b)
    a = Crossing(1, (1, 1), (3, 5))
    b = Crossing(1, (3, 6), (2, 3))
    d = Diagram(3, (a, b), (2, 4, 7))
    out = ou.glide_once(d, ou.uo_intervals(d)[0])
    assert out == oracle_renumber(out)
    assert set(out.crossings) == {
        Crossing(1, (3, 9), (2, 6)),
        Crossing(1, (1, 2), (3, 10)),
        Crossing(1, (1, 1), (2, 7)),
        Crossing(-1, (1, 3), (2, 5)),
    }
    assert out.eos_keys == (4, 8, 11)


def test_tidy_matches_oracle_on_random_words():
    rng = random.Random(7)
    for _ in range(30):
        w = random_vpb_word(rng, rng.randrange(2, 5), rng.randrange(0, 6))
        d = ou.iota(w)
        assert ou.tidy(d) == oracle_renumber(d)


def test_tidy_idempotent_and_order_preserving():
    d = Diagram(
        2,
        (
            Crossing(-1, (1, Fraction(1, 3)), (2, 10)),
            Crossing(1, (2, 9), (1, Fraction(2, 3))),
        ),
        (5, 20),
    )
    t = ou.tidy(d)
    assert ou.tidy(t) == t
    # per-strand order and roles survive renumbering
    assert t.crossings[0].sign == -1 and t.crossings[0].over[0] == 1
    assert [c.sign for c in t.crossings] == [-1, 1]


def test_compose_identity_laws():
    rng = random.Random(3)
    for _ in range(10):
        w = random_vpb_word(rng, 3, rng.randrange(0, 5))
        d = ou.iota(w)
        ident = ou.identity_diagram(3)
        assert ou.compose(ident, d) == ou.tidy(d)
        assert ou.compose(d, ident) == ou.tidy(d)


def test_compose_crossing_counts_add():
    w1 = ou.parse_vpb("vpb 3: s1,2 s2,3 s3,1")
    w2 = ou.parse_vpb("vpb 3: s2,1' s1,3 s3,2")
    d = ou.compose(ou.iota(w1), ou.iota(w2))
    assert ou.crossing_number(d) == 6


def test_compose_two_twist():
    # brute force: stack the two one-crossing diagrams and tidy
    d1 = ou.iota(ou.parse_vpb("vpb 2: s1,2"))
    d2 = ou.iota(ou.parse_vpb("vpb 2: s2,1"))
    raw = Diagram(
        2,
        (
            Crossing(1, (1, 1), (2, 2)),
            Crossing(1, (2, Fraction(5, 2)), (1, Fraction(3, 2))),
        ),
        (2, 3),
    )
    expected = oracle_renumber(raw)
    assert ou.compose(d1, d2) == expected
    assert expected.crossings == (
        Crossing(1, (1, 1), (2, 4)),
        Crossing(1, (2, 5), (1, 2)),
    )


def test_compose_associative_up_to_canonical_key():
    rng = random.Random(11)
    for _ in range(10):
        a, b, c = (ou.iota(random_vpb_word(rng, 3, rng.randrange(0, 4))) for _ in range(3))
        left = ou.compose(ou.compose(a, b), c)
        right = ou.compose(a, ou.compose(b, c))
        assert ou.canonical_key(left) == ou.canonical_key(right)
        # one pass over many diagrams is the two-argument fold, exactly
        assert ou.compose(a, b, c) == left
        assert ou.compose(a) == ou.tidy(a)


def test_compose_strand_mismatch():
    with pytest.raises(ou.StrandCountMismatch):
        ou.compose(ou.identity_diagram(2), ou.identity_diagram(3))
    with pytest.raises(ou.StrandCountMismatch):
        ou.compose(ou.identity_diagram(2), ou.identity_diagram(2), ou.identity_diagram(3))


def test_one_pass_compose_is_the_fold_on_random_gauss_diagrams():
    # rational keys, crossings in random order, and on 1 strand both passes
    # of every crossing on one strand
    rng = random.Random(71)
    same_strand = 0
    for _ in range(200):
        n = rng.randrange(1, 4)
        ds = [random_gauss(rng, n, rng.randrange(0, 5)) for _ in range(rng.randrange(1, 5))]
        same_strand += sum(c.over[0] == c.under[0] for d in ds for c in d.crossings)
        assert ou.compose(*ds) == functools.reduce(ou.compose, ds, ou.identity_diagram(n))
        assert ou.compose(ds[0]) == ou.tidy(ds[0])
        stack = ds + ds[:1]
        for at in range(len(stack)):
            other = random_gauss(rng, n % 3 + 1, rng.randrange(0, 3))
            with pytest.raises(ou.StrandCountMismatch):
                ou.compose(*stack[:at], other, *stack[at + 1 :])
    assert same_strand > 100


def test_iota_sorts_no_diagram_per_letter(monkeypatch):
    calls = []
    inner = ou.diagram._strand_sequences

    def counting(d):
        calls.append(d)
        return inner(d)

    monkeypatch.setattr(ou.diagram, "_strand_sequences", counting)
    word = ou.parse_vpb("vpb 3: " + " ".join(["s1,2 s2,3' s3,1"] * 4))
    assert len(word.letters) == 12
    d = ou.iota(word)
    assert calls == [] and ou.crossing_number(d) == 12
    ou.tidy(d)
    assert calls == [d]


def test_crossing_number_examples():
    assert ou.crossing_number(ou.identity_diagram(4)) == 0
    assert ou.crossing_number(ou.iota(ou.parse_vpb("vpb 2: s1,2 s2,1 s1,2"))) == 3


def test_canonical_key_examples():
    scaled = Diagram(2, (Crossing(1, (1, Fraction(1, 7)), (2, 100)),), (50, 200))
    plain = Diagram(2, (Crossing(1, (1, 1), (2, 3)),), (2, 4))
    assert ou.canonical_key(scaled) == ou.canonical_key(plain)
    flipped = Diagram(2, (Crossing(-1, (1, 1), (2, 3)),), (2, 4))
    assert ou.canonical_key(flipped) != ou.canonical_key(plain)
    assert ou.canonical_key(ou.tidy(scaled)) == ou.canonical_key(scaled)


def test_canonical_text_writes_every_key_as_str_does(monkeypatch):
    # the shared table of decimal strings against the plain formatter: on
    # tabulation states, on a diagram whose keys run past every key written
    # so far in this process, and on 1,000 strands
    states = []
    inner = ou.OuAccumulator.canonical_text

    def recording(self):
        text = inner(self)
        states.append((self.to_diagram(), text))
        return text

    monkeypatch.setattr(ou.OuAccumulator, "canonical_text", recording)
    ou.tabulate(3, 3, "virtual")
    ou.tabulate(3, 7, "classical")
    monkeypatch.undo()
    assert len(states) > 1000
    for d, text in states:
        assert text == oracle_serialize(d)
    top = len(diagram._DECIMAL)
    d = random_gauss(random.Random(71), 3, top // 2 + 5)  # largest key 2c + 3 > top
    assert ou.serialize(d) == oracle_serialize(d)
    assert len(diagram._DECIMAL) > top
    wide = ou.identity_diagram(1000)
    assert ou.serialize(wide) == oracle_serialize(wide)


def test_parse_trivial_and_generator():
    assert ou.parse("vd 1\neos 1\n") == ou.identity_diagram(1)
    assert ou.parse("vd 2\nx + 1 3\neos 2 4\n") == ou.iota(ou.parse_vpb("vpb 2: s1,2"))


def test_parse_serialize_roundtrips():
    rng = random.Random(23)
    for _ in range(20):
        d = ou.iota(random_vpb_word(rng, rng.randrange(2, 5), rng.randrange(0, 6)))
        text = ou.serialize(d)
        assert ou.serialize(ou.parse(text)) == text
        assert ou.parse(text) == ou.tidy(d)


def test_parse_accepts_rationals_tidies():
    d = ou.parse("vd 2\nx - 1/3 7/2\neos 2 4\n")
    assert d.crossings[0].over == (1, Fraction(1, 3))
    assert ou.serialize(d) == "vd 2\nx - 1 3\neos 2 4\n"


def test_parse_syntax_errors_carry_position():
    with pytest.raises(ou.ParseError) as exc:
        ou.parse("vd 2\nx * 1 3\neos 2 4\n")
    assert exc.value.line == 2
    with pytest.raises(ou.ParseError):
        ou.parse("")
    with pytest.raises(ou.ParseError):
        ou.parse("vd 2\neos 2 4\nx + 1 3\n")
    with pytest.raises(ou.ParseError) as exc:
        ou.parse("vd 1\nx + 1/0 2\neos 3\n")
    assert (exc.value.line, exc.value.column) == (2, 5)
    # '²'.isdigit() holds but int('²') fails: strand counts are ASCII digits
    with pytest.raises(ou.ParseError) as exc:
        ou.parse("vd \u00b2\neos 1\n")
    assert (exc.value.line, exc.value.column) == (1, 1)
    # a zero strand count is a syntax error, as in 'vpb 0:' and 'br 0:'
    with pytest.raises(ou.ParseError) as exc:
        ou.parse("vd 0\neos\n")
    assert (exc.value.line, exc.value.column) == (1, 4)
    for text, line, message in (
        ("vd 1\nx + a 1\neos 3\n", 2, "expected integer or p/q rational, got 'a'"),
        ("vd 1\nx + 1\neos 3\n", 2, "expected 'x <\\+\\|-> <o> <u>'"),
        ("vd 1\neos 1\neos 2\n", 3, "duplicate 'eos' line"),
        ("vd 2\neos 1\n", 2, "expected 2 end-of-strand keys"),
        ("vd 1\ny\neos 1\n", 2, "unexpected record 'y'"),
    ):
        with pytest.raises(ou.ParseError, match=message) as exc:
            ou.parse(text)
        assert exc.value.line == line


def test_parse_semantic_errors():
    with pytest.raises(ou.InvalidDiagram):
        ou.parse("vd 2\neos 4 2\n")  # end keys must increase
    with pytest.raises(ou.InvalidDiagram):
        ou.parse("vd 2\nx + 2 3\neos 2 4\n")  # mark collides with end key
    with pytest.raises(ou.InvalidDiagram, match="mark 5 on line 2 does not fall inside any strand"):
        ou.parse("vd 1\nx + 1 5\neos 3\n")


def test_invalid_diagram_construction():
    with pytest.raises(ou.InvalidDiagram, match="coincide"):
        Diagram(2, (Crossing(1, (1, 1), (1, 1)),), (2, 3))  # coincident marks
    with pytest.raises(ou.InvalidDiagram, match="not strictly maximal"):
        Diagram(1, (Crossing(1, (1, 1), (1, 2)),), (2,))  # end key not maximal
    with pytest.raises(ou.InvalidDiagram, match="over mark key must be an exact rational, got 0.5"):
        Diagram(2, (Crossing(1, (1, 0.5), (2, 1)),), (2, 3))  # float key
    with pytest.raises(ou.InvalidDiagram, match="sign must be"):
        Diagram(2, (Crossing(2, (1, 1), (2, 2)),), (3, 4))  # bad sign
    with pytest.raises(ou.InvalidDiagram, match="crossing sign must be \\+1 or -1, got True"):
        Crossing(True, (1, 1), (2, 3))  # a bool is no sign
    with pytest.raises(ou.InvalidDiagram, match="crossing sign must be \\+1 or -1, got -1.0"):
        Crossing(-1.0, (1, 1), (2, 3))  # nor is a float
    with pytest.raises(ou.InvalidDiagram, match="strand 3 out of range 1..2"):
        Diagram(2, (Crossing(1, (3, 1), (2, 2)),), (3, 4))  # strand out of range
    with pytest.raises(ou.InvalidDiagram, match="duplicate"):
        Diagram(2, (Crossing(1, (1, 1), (2, 3)), Crossing(1, (1, 1), (2, 4))), (2, 5))  # duplicate key
    # a strand with a duplicate key and a key above its end: the first bad
    # key in crossing order is named, whichever fault it has
    with pytest.raises(ou.InvalidDiagram, match="strand 1 is not strictly maximal"):
        Diagram(2, (Crossing(1, (1, 3), (2, 5)), Crossing(1, (1, 1), (2, 6)), Crossing(1, (1, 1), (2, 7))), (2, 8))
    with pytest.raises(ou.InvalidDiagram, match="duplicate mark key 1 on strand 1"):
        Diagram(2, (Crossing(1, (1, 1), (2, 5)), Crossing(1, (1, 1), (2, 6)), Crossing(1, (1, 3), (2, 7))), (2, 8))
    # exact rationals other than ints are still keys; a bool is no strand
    d = Diagram(2, (Crossing(1, (1, Fraction(1, 2)), (2, Fraction(7, 3))),), (1, 3))
    assert ou.serialize(d) == "vd 2\nx + 1 3\neos 2 4\n"
    with pytest.raises(ou.InvalidDiagram, match="over strand must be a positive integer, got True"):
        Crossing(1, (True, 1), (2, 2))
    with pytest.raises(ou.InvalidDiagram, match="strand count must be a positive integer, got True"):
        Diagram(True, (), (1,))
    with pytest.raises(ou.InvalidDiagram, match="under strand must be a positive integer, got 0"):
        Crossing(1, (1, 1), (0, 2))
    with pytest.raises(ou.InvalidDiagram, match="expected 2 end-of-strand keys, got 1"):
        Diagram(2, (), (1,))
    with pytest.raises(ou.InvalidDiagram, match="strand 2 out of range 1..1"):
        Diagram(1, (Crossing(1, (1, 1), (2, 2)),), (3,))  # under strand out of range
    # lists would make a diagram mutable, unhashable and unequal to its tidy form
    for crossings, eos in (([], (1,)), ((), [1]), ([Crossing(1, (1, 1), (1, 2))], [3])):
        with pytest.raises(ou.InvalidDiagram, match="crossings and end-of-strand keys must be tuples"):
            Diagram(1, crossings, eos)
    for over, under in (([1, 1], (1, 2)), ((1, 1), [1, 2]), ([1, 1], [1, 2]), ((1,), (1, 2)), ((1, 1), (1, 2, 3))):
        with pytest.raises(ou.InvalidDiagram, match=r"crossing over and under marks must be \(strand, key\) tuples"):
            Crossing(1, over, under)
    # every element is a Crossing, so its own checks ran: a bare pair, or a
    # look-alike with a sign of 5 that would serialize as "x +", is refused
    with pytest.raises(ou.InvalidDiagram, match=r"crossings must be Crossing objects, got \(1, 2\)"):
        Diagram(1, ((1, 2),), (3,))
    fake = types.SimpleNamespace(sign=5, over=(1, 1), under=(1, 2))
    with pytest.raises(ou.InvalidDiagram, match="crossings must be Crossing objects"):
        Diagram(1, (fake,), (3,))
    # every key is an exact rational, wherever it sits; equal rationals coincide
    with pytest.raises(ou.InvalidDiagram, match="under mark key must be an exact rational, got 0.5"):
        Crossing(1, (1, 1), (2, 0.5))
    with pytest.raises(ou.InvalidDiagram, match="over mark key must be an exact rational, got True"):
        Crossing(1, (1, True), (2, 2))
    for eos in (1.5, True):
        with pytest.raises(ou.InvalidDiagram, match=f"end-of-strand key must be an exact rational, got {eos!r}"):
            Diagram(1, (), (eos,))
    with pytest.raises(ou.InvalidDiagram, match="over and under marks of a crossing coincide"):
        Crossing(1, (1, Fraction(1)), (1, 1))


def test_engine_built_diagrams_pass_the_constructor_checks():
    # the engine builds its diagrams without the constructor checks, and
    # without their crossings until those are read; each must pass the
    # checks, equal the one the checked constructor builds, and copy,
    # pickle and replace as that one does
    rng = random.Random(26)
    built, stacks = [], []
    for _ in range(40):
        n = rng.randrange(1, 5)
        d, e = random_gauss(rng, n, rng.randrange(0, 7)), random_gauss(rng, n, rng.randrange(0, 7))
        stacks += [ou.compose(d, e), ou.compose(e, d, e)]
        built += [ou.tidy(d), *stacks[-2:]]
        built += [ou.ou_normal_form(x) for x in (d, e) if ou.is_acyclic(x)]
    tops = [ou.ch(ou.classical_to_vpb(ou.ClassicalBraidWord(4, (1, 2, 1, 3, 2, 1)))[0])]
    for _ in range(20):
        w = random_vpb_word(rng, rng.randrange(2, 6), rng.randrange(0, 9))
        tops.append(ou.ch(w))
        built += [ou.iota(w), tops[-1]]
        built += [ou.generator_diagram(w.n, g) for g in w.letters]
    for T in tops:
        built.append(ou.peel(T, random.Random(0))[1])
        built += [ou.quotient(T, g) for g in ou.divisors(T)]
    assert sum(ou.crossing_number(D) for D in built) > 500
    assert not hasattr(object.__new__(Diagram), "crossings")
    lazy = 0
    for D in built:
        # copies taken before anything reads the crossings
        lazy += "crossings" not in vars(D)
        copies = [pickle.loads(pickle.dumps(D)), copy.copy(D), copy.deepcopy(D)]
        copies.append(dataclasses.replace(D))
        Diagram.__post_init__(D)
        for c in D.crossings:
            Crossing.__post_init__(c)
        checked = Diagram(D.n, tuple(Crossing(c.sign, c.over, c.under) for c in D.crossings), D.eos_keys)
        for x in (D, *copies):
            assert x == checked
            assert hash(x) == hash(checked)
            assert repr(x) == repr(checked)
            assert diagram._strand_sequences(x) == diagram._strand_sequences(checked)
    assert lazy > 100
    # mark ids are crossing indexes: the intervals and the cascade digraph,
    # which name crossings by index, agree with the rebuild's
    slots = 0
    for D in stacks:
        checked = Diagram(D.n, D.crossings, D.eos_keys)
        assert ou.uo_intervals(D) == ou.uo_intervals(checked)
        assert ou.cascade_graph(D) == ou.cascade_graph(checked)
        slots += len(ou.uo_intervals(D))
    assert slots > 50
