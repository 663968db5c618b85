import itertools
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    artin_image,
    burau_matrix,
    count_diagram_builds,
    mccool_image,
    random_vpb_word,
    twist_word,
    word_is_proud,
)

import outangles as ou
from outangles import BraidGenerator, ClassicalBraidWord, VirtualBraidWord
from outangles.diagram import _assemble, _mark

SCR_LONG = "vpb 3: s2,1' s1,3 s3,1 s1,3 s3,1 s1,3 s2,3 s2,1"
SCR_SHORT = "vpb 3: s2,3 s1,3 s3,1 s1,3 s3,1 s1,3"


def _words(n_strands=3, max_len=4):
    pair = st.tuples(
        st.integers(1, n_strands), st.integers(1, n_strands), st.sampled_from((1, -1))
    ).filter(lambda t: t[0] != t[1])
    return st.lists(pair, max_size=max_len).map(
        lambda ls: VirtualBraidWord(n_strands, tuple(BraidGenerator(*t) for t in ls))
    )


def test_iota_examples():
    assert ou.iota(VirtualBraidWord(2, ())) == ou.identity_diagram(2)
    assert ou.serialize(ou.iota(ou.parse_vpb("vpb 2: s1,2"))) == "vd 2\nx + 1 3\neos 2 4\n"
    three = ou.parse_vpb("vpb 2: s1,2 s2,1 s1,2")
    assert ou.crossing_number(ou.iota(three)) == 3
    assert ou.xi(ou.iota(three)) == 5


def test_iota_crossing_count_is_word_length():
    rng = random.Random(2)
    for _ in range(20):
        w = random_vpb_word(rng, 4, rng.randrange(0, 7))
        assert ou.crossing_number(ou.iota(w)) == len(w.letters)


def test_iota_builds_one_diagram_per_letter_plus_two(monkeypatch):
    # the identity, one diagram per letter, and the one stack of them all
    built = count_diagram_builds(monkeypatch)
    rng = random.Random(5)
    for length in range(2, 13):
        w = random_vpb_word(rng, 4, length)
        built.clear()
        d = ou.iota(w)
        assert len(built) <= length + 2
        assert ou.crossing_number(d) == length


def test_ch_relations():
    assert ou.braids_equal(
        ou.parse_vpb("vpb 3: s1,2 s1,3 s2,3"), ou.parse_vpb("vpb 3: s2,3 s1,3 s1,2")
    )
    assert ou.braids_equal(
        ou.parse_vpb("vpb 4: s1,2 s3,4"), ou.parse_vpb("vpb 4: s3,4 s1,2")
    )


def test_ch_slashed_roll_word_has_18_crossings():
    assert ou.crossing_number(ou.ch(ou.parse_vpb(SCR_LONG))) == 18


def test_braids_equal_examples():
    assert ou.braids_equal(ou.parse_vpb(SCR_LONG), ou.parse_vpb(SCR_SHORT))
    assert not ou.braids_equal(ou.parse_vpb("vpb 2: s1,2"), ou.parse_vpb("vpb 2: s2,1"))
    w = ou.parse_vpb("vpb 2: s2,1 s1,2")
    padded = w * ou.parse_vpb("vpb 2: s1,2 s1,2'")
    assert ou.braids_equal(w, padded)
    with pytest.raises(ou.StrandCountMismatch):
        ou.braids_equal(ou.parse_vpb("vpb 2: s1,2"), ou.parse_vpb("vpb 3: s1,2"))
    with pytest.raises(ou.StrandCountMismatch):
        VirtualBraidWord(2, ()) * VirtualBraidWord(3, ())
    with pytest.raises(ou.StrandCountMismatch):
        ou.classical_braids_equal(ClassicalBraidWord(2, ()), ClassicalBraidWord(3, ()))


def test_inverse_examples():
    empty = VirtualBraidWord(3, ())
    assert empty.inverse() == empty
    w = ou.parse_vpb("vpb 3: s1,2 s2,3")
    assert w.inverse() == ou.parse_vpb("vpb 3: s2,3' s1,2'")


@settings(max_examples=30, deadline=None)
@given(_words())
def test_inverse_involution_and_cancellation(w):
    assert w.inverse().inverse() == w
    assert ou.braids_equal(w * w.inverse(), VirtualBraidWord(w.n, ()))


@settings(max_examples=20, deadline=None)
@given(_words(max_len=3), _words(max_len=3))
def test_ch_is_a_monoid_map(w1, w2):
    product = ou.canonical_key(ou.ch(w1 * w2))
    stacked = ou.canonical_key(ou.ou_normal_form(ou.compose(ou.ch(w1), ou.ch(w2))))
    assert product == stacked


def test_relation_insertion_fuzz():
    rng = random.Random(101)
    for _ in range(150):
        n = rng.choice((3, 4))
        w = random_vpb_word(rng, n, rng.randrange(0, 4))
        cut = rng.randrange(0, len(w.letters) + 1)
        head = VirtualBraidWord(n, w.letters[:cut])
        tail = VirtualBraidWord(n, w.letters[cut:])
        kind = rng.choice(("inverse", "mixed", "commute") if n == 4 else ("inverse", "mixed"))
        if kind == "inverse":
            g = random_vpb_word(rng, n, 1)
            ins1 = g * g.inverse()
            ins2 = VirtualBraidWord(n, ())
        elif kind == "mixed":
            i, j, k = rng.sample(range(1, n + 1), 3)
            ins1 = ou.parse_vpb(f"vpb {n}: s{i},{j} s{i},{k} s{j},{k}")
            ins2 = ou.parse_vpb(f"vpb {n}: s{j},{k} s{i},{k} s{i},{j}")
        else:
            i, j, k, l = rng.sample(range(1, n + 1), 4)
            ins1 = ou.parse_vpb(f"vpb {n}: s{i},{j} s{k},{l}")
            ins2 = ou.parse_vpb(f"vpb {n}: s{k},{l} s{i},{j}")
        assert ou.braids_equal(head * ins1 * tail, head * ins2 * tail)


def test_classical_to_vpb_traces():
    empty = ClassicalBraidWord(3, ())
    w, perm = ou.classical_to_vpb(empty)
    assert w == VirtualBraidWord(3, ()) and perm == (1, 2, 3)

    w, perm = ou.classical_to_vpb(ClassicalBraidWord(2, (1, 1, 1)))
    assert w == ou.parse_vpb("vpb 2: s1,2 s2,1 s1,2")
    assert perm == (2, 1)

    w, perm = ou.classical_to_vpb(ClassicalBraidWord(3, (1, 2)))
    assert w == ou.parse_vpb("vpb 3: s1,2 s1,3")
    assert perm == (2, 3, 1)


def test_classical_permutation_matches_transposition_product():
    rng = random.Random(59)
    for _ in range(40):
        n = rng.randrange(2, 6)
        letters = tuple(
            rng.choice((1, -1)) * rng.randrange(1, n) for _ in range(rng.randrange(0, 7))
        )
        _, perm = ou.classical_to_vpb(ClassicalBraidWord(n, letters))
        expected = list(range(1, n + 1))
        for k in letters:
            p = abs(k) - 1
            expected[p], expected[p + 1] = expected[p + 1], expected[p]
        assert perm == tuple(expected)


def test_classical_words_normalize_to_ou():
    rng = random.Random(61)
    for _ in range(25):
        n = rng.randrange(2, 5)
        letters = tuple(
            rng.choice((1, -1)) * rng.randrange(1, n) for _ in range(rng.randrange(0, 7))
        )
        w, _ = ou.classical_to_vpb(ClassicalBraidWord(n, letters))
        d = ou.ch(w)
        assert ou.is_ou(d) and ou.is_reduced(d)


def test_classical_braids_equal_uses_permutation():
    # same pure part, different permutation
    assert not ou.classical_braids_equal(
        ClassicalBraidWord(3, (1,)), ClassicalBraidWord(3, (2,))
    )
    assert ou.classical_braids_equal(
        ClassicalBraidWord(3, (1, 2, 1)), ClassicalBraidWord(3, (2, 1, 2))
    )


def test_braids_with_different_permutations_are_not_normalized(monkeypatch):
    # (1 2)^40 1 ends in a transposition and 1 2 in a 3-cycle: distinct
    # without a normal form, and the keys still tell them apart
    long_word = ClassicalBraidWord(3, (1, 2) * 40 + (1,))
    short_word = ClassicalBraidWord(3, (1, 2))
    assert ou.classical_key(long_word) != ou.classical_key(short_word)
    calls = []
    monkeypatch.setattr(ou.braid, "ch", lambda *args: calls.append(args))
    assert not ou.classical_braids_equal(long_word, short_word)
    assert not ou.classical_braids_equal(ClassicalBraidWord(3, (1,)), ClassicalBraidWord(3, ()))
    assert calls == []
    with pytest.raises(ou.StrandCountMismatch):
        ou.classical_braids_equal(ClassicalBraidWord(3, (1,)), ClassicalBraidWord(4, (1, 2)))


def test_word_parsing_and_formatting():
    w = ou.parse_vpb("vpb 3: s2,1' s1,3 s3,1")
    assert w.text() == "vpb 3: s2,1' s1,3 s3,1"
    assert ou.parse_vpb(w.text()) == w
    assert ou.parse_vpb("vpb 2:") == VirtualBraidWord(2, ())
    b = ou.parse_classical("br 4: 1 -2 1")
    assert b == ClassicalBraidWord(4, (1, -2, 1))
    assert ou.parse_classical(b.text()) == b
    with pytest.raises(ou.ParseError):
        ou.parse_vpb("vpb 2: s1,1")
    with pytest.raises(ou.ParseError):
        ou.parse_vpb("vpb 2: s1,3")
    with pytest.raises(ou.ParseError):
        ou.parse_classical("br 2: 2")
    with pytest.raises(ou.ParseError):
        ou.parse_vpb("s1,2")
    # numerals are ASCII digits, with no underscores
    for text in ("br 12: 1_0", "br \u0663: 1", "br 3: \u0661"):
        with pytest.raises(ou.ParseError):
            ou.parse_classical(text)
    for text in ("vpb 3: s\u0661,2", "vpb \u0663: s1,2", "vpb 12: s1_0,2"):
        with pytest.raises(ou.ParseError):
            ou.parse_vpb(text)


def test_generators_and_words_take_exact_ints():
    # a bool or a float would print a token that the parsers reject
    bad = (
        lambda: BraidGenerator(True, 2, 1),
        lambda: BraidGenerator(1.0, 2, 1),
        lambda: BraidGenerator(1, 2, True),
        lambda: BraidGenerator(1, 2, 0),
        lambda: VirtualBraidWord(2, (BraidGenerator(1, 3, 1),)),
        lambda: ClassicalBraidWord(3, (True,)),
        lambda: ClassicalBraidWord(3, (0,)),
        lambda: ClassicalBraidWord(3, (3,)),
        lambda: VirtualBraidWord(True, ()),
        lambda: VirtualBraidWord(0, ()),
        lambda: ClassicalBraidWord(2.0, (1,)),
        lambda: ClassicalBraidWord(0, ()),
        lambda: ou.identity_diagram(True),
        lambda: ou.identity_diagram(2.0),
        lambda: ou.vpb_generators(2.0),
        lambda: ou.vpb_generators(True),
        lambda: ou.vpb_generators(0),
        lambda: ou.vpb_generators(-2),
        lambda: ou.generator_diagram(2.0, BraidGenerator(1, 2, 1)),
        # letters are a tuple, and a virtual word's are BraidGenerators: a
        # list is unhashable, and a look-alike with a sign of 5 would pass as +
        lambda: VirtualBraidWord(3, ((1, 2, 1),)),
        lambda: VirtualBraidWord(3, (types.SimpleNamespace(i=1, j=2, sign=5),)),
        lambda: VirtualBraidWord(3, [BraidGenerator(1, 2, 1)]),
        lambda: ClassicalBraidWord(3, [1, 2]),
        # look-alike generators and words
        lambda: ou.generator_diagram(3, (1, 2, 1)),
        lambda: ou.iota((1, 2)),
        lambda: ou.ch((1, 2)),
        lambda: ou.quotient(ou.ch(ou.parse_vpb("vpb 3: s1,2")), (1, 2, 1)),
        lambda: ou.classical_to_vpb((1, 2)),
        lambda: ou.classical_key((1, 2)),
        lambda: ou.classical_braids_equal((1, 2), (1, 2)),
        lambda: ou.braids_equal((1,), (2,)),
        lambda: ou.braids_equal(ou.parse_vpb("vpb 2:"), (2,)),
    )
    ou.generator_diagram(2, BraidGenerator(1, 2, 1))  # 2.0 must not hit this memo entry
    for make in bad:
        with pytest.raises(ValueError):
            make()
    assert ou.vpb_generators(1) == []
    with pytest.raises(TypeError):
        VirtualBraidWord(2, ()) * 3
    w = VirtualBraidWord(3, (BraidGenerator(3, 1, -1),))
    assert ou.parse_vpb(w.text()) == w


def test_twist_words_match_parity_convention():
    assert twist_word(4) == ou.parse_vpb("vpb 2: s1,2 s2,1 s1,2 s2,1")
    assert twist_word(3) == ou.parse_vpb("vpb 2: s2,1 s1,2 s2,1")


def _burau_histogram(n: int, m: int) -> tuple[int, ...]:
    """Distinct Burau images of proud classical words, each counted at the
    length of its shortest word, for lengths 0..m."""
    letters = [k for a in range(1, n) for k in (a, -a)]
    seen: set = set()
    counts = []
    for length in range(m + 1):
        new = 0
        for w in itertools.product(letters, repeat=length):
            if word_is_proud(w, "classical") and (image := burau_matrix(n, w)) not in seen:
                seen.add(image)
                new += 1
        counts.append(new)
    return tuple(counts)


def test_burau_images_match_classical_tables(tab):
    # Burau is faithful on 3 strands, so there its images count braids
    assert _burau_histogram(3, 7) == tab(3, 9, "classical").count_exactly[:8]
    assert _burau_histogram(4, 5) == tab(4, 5, "classical").count_exactly


def test_artin_images_tell_classical_representatives_apart(tab):
    # the Artin action is faithful on every braid group, so the
    # representatives of distinct braids have distinct images
    for n, m in ((3, 7), (4, 5), (5, 3)):
        report = tab(n, m, "classical")
        images = {artin_image(n, word.letters) for word, _, _ in ou.read_representatives(report.representatives_path)}
        assert len(images) == sum(report.count_exactly)


def test_mccool_images_agree_on_equal_ch_keys():
    # the McCool action is sound for virtual pure braids: one ch key, one
    # image.  The images count the welded braids, 1 + 12 + 120 + 1,116 on
    # (3, <= 3) and 1 + 24 + 456 on (4, <= 2), among the virtual ones
    for n, m, welded, virtual in ((3, 3, 1249, 1561), (4, 2, 481, 529)):
        image_of = {}
        for length in range(m + 1):
            for word in ou.proud_words(n, length, "virtual"):
                key = ou.canonical_key(ou.ch(VirtualBraidWord(n, word)))
                assert image_of.setdefault(key, mccool_image(n, word)) == mccool_image(n, word)
        assert (len(set(image_of.values())), len(image_of)) == (welded, virtual)


def test_key_path_builds_no_crossing(monkeypatch):
    # the normal forms behind braid equality stay as strand marks: nothing
    # on the key path, nor the checks and division on a ch output, reads
    # an engine-built diagram's crossings
    built = []
    lazy = ou.Diagram.__getattr__

    def counting(self, name):
        if name == "crossings":
            built.append(self)
        return lazy(self, name)

    monkeypatch.setattr(ou.Diagram, "__getattr__", counting)
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randrange(2, 5)
        letters = [tuple(rng.choice((-k, k)) for k in rng.choices(range(1, n), k=rng.randrange(9))) for _ in range(2)]
        b1, b2 = (ClassicalBraidWord(n, word) for word in letters)
        w1, w2 = random_vpb_word(rng, n, rng.randrange(0, 8)), random_vpb_word(rng, n, rng.randrange(0, 8))
        ou.braids_equal(w1, w2)
        ou.classical_braids_equal(b1, b2)
        ou.classical_key(b1)
        T = ou.ch(w1)
        ou.canonical_key(T)
        ou.crossing_number(T)
        assert ou.is_reduced(T)
        ou.divisors(T)
        ou.peel(T)
        ou.extraction_graph(T)
    assert built == []
    assert len(T.crossings) == ou.crossing_number(T)  # the wrapper counts a read
    assert built == [T]


def test_conjugate_power_identity_under_both_deciders():
    # 2 1^k -2 = -1 2^k 1: sigma2 conjugates sigma1 to sigma1^-1 sigma2 sigma1
    for k in range(7):
        left = ClassicalBraidWord(3, (2,) + (1,) * k + (-2,))
        right = ClassicalBraidWord(3, (-1,) + (2,) * k + (1,))
        assert ou.classical_braids_equal(left, right)
        assert burau_matrix(3, left.letters) == burau_matrix(3, right.letters)
        assert artin_image(3, left.letters) == artin_image(3, right.letters)


def test_generator_diagram_is_built_once_per_generator():
    for n in range(2, 6):
        for g in ou.vpb_generators(n):
            strands = [[] for _ in range(n)]
            strands[g.i - 1].append(_mark(0, True, g.sign))
            strands[g.j - 1].append(_mark(0, False, g.sign))
            d = ou.generator_diagram(n, g)
            assert d == _assemble(strands)
            assert ou.generator_diagram(n, g) is d


def test_generator_diagram_rejects_a_strand_beyond_n():
    for g in ou.vpb_generators(4):  # warm the memo on 4 strands
        ou.generator_diagram(4, g)
    for g in (BraidGenerator(4, 1, 1), BraidGenerator(1, 4, -1)):
        with pytest.raises(ou.StrandCountMismatch, match=f"{g.token()}.* 3 "):
            ou.generator_diagram(3, g)
