import collections
import hashlib
import itertools

import pytest
from helpers import artin_image, artin_step, mccool_image, mccool_step, tabulate_in_children, word_is_proud

import outangles as ou
from outangles import BraidGenerator


def test_generators_virtual():
    g2 = ou.generators(2, "virtual")
    assert g2 == [
        BraidGenerator(1, 2, 1),
        BraidGenerator(1, 2, -1),
        BraidGenerator(2, 1, 1),
        BraidGenerator(2, 1, -1),
    ]
    assert len(ou.generators(3, "virtual")) == 12
    assert len(ou.generators(5, "virtual")) == 40


def test_generators_classical():
    assert ou.generators(4, "classical") == [1, -1, 2, -2, 3, -3]
    assert len(ou.generators(2, "classical")) == 2


def test_generators_rejects_bad_input():
    with pytest.raises(ValueError):
        ou.generators(1, "virtual")
    with pytest.raises(ValueError):
        ou.generators(3, "welded")
    for g, n, kind in (
        (0, 3, "classical"),
        (5, 3, "classical"),
        (BraidGenerator(3, 4, 1), 2, "virtual"),
        (1, 3, "virtual"),
        (BraidGenerator(1, 2, 1), 3, "classical"),
        (True, 3, "classical"),
    ):
        with pytest.raises(ValueError):
            ou.proud_followers(g, n, kind)


@pytest.mark.parametrize(
    "name, args",
    [
        ("generators", (3.0,)),
        ("tabulate", (3.0, 2)),
        ("tabulate", (3, 2.0)),
        ("tabulate", (3, True)),
        ("worst_braid", (3.0, 2)),
        ("worst_braid", (3, True, "classical")),
        ("proud_words", (3.0, 1)),
        ("proud_words", (2, -3)),
        ("proud_words", (3, -1)),
        ("fibonacci_check", (2.5,)),
        ("fibonacci_check", (True,)),
    ],
)
def test_counts_must_be_exact_ints(name, args):
    # a float or bool strand count or length, or a negative length
    with pytest.raises(ValueError):
        out = getattr(ou, name)(*args)
        if name == "proud_words":
            next(out)  # a generator checks its arguments on the first next()


def test_proud_followers_examples():
    for g in ou.generators(3, "virtual"):
        assert len(ou.proud_followers(g, 3, "virtual")) == 11
    assert len(ou.proud_followers(BraidGenerator(3, 4, 1), 4, "virtual")) == 19
    assert len(ou.proud_followers(3, 4, "classical")) == 3


def test_proud_followers_match_word_level_pride():
    for n, kind in ((2, "virtual"), (3, "virtual"), (4, "virtual"), (4, "classical"), (5, "classical")):
        for g in ou.generators(n, kind):
            expected = [
                h for h in ou.generators(n, kind) if word_is_proud((g, h), kind)
            ]
            assert ou.proud_followers(g, n, kind) == expected


def test_proud_words_are_proud_and_complete():
    for kind, n, m in (("virtual", 3, 2), ("classical", 4, 2)):
        words = list(ou.proud_words(n, m, kind))
        assert len(set(words)) == len(words)
        for w in words:
            assert word_is_proud(w, kind)
        # against brute force over all words
        brute = [
            w
            for w in itertools.product(ou.generators(n, kind), repeat=m)
            if word_is_proud(w, kind)
        ]
        assert sorted(map(repr, words)) == sorted(map(repr, brute))


def test_two_strand_virtual_words_all_distinct():
    # 4 * 3^(m-1) proud words, and none collide as braids
    report = ou.tabulate(2, 4, "virtual")
    assert report.count_exactly == (1, 4, 12, 36, 108)
    for m in range(1, 5):
        assert len(list(ou.proud_words(2, m, "virtual"))) == 4 * 3 ** (m - 1)


def test_tabulate_small_tables():
    assert ou.tabulate(3, 2, "virtual").count_exactly == (1, 12, 132)
    assert ou.tabulate(3, 4, "classical").count_exactly == (1, 4, 12, 30, 68)
    assert ou.tabulate(2, 5, "classical").count_exactly == (1, 2, 2, 2, 2, 2)


def test_tabulate_wide_tables():
    assert ou.tabulate(6, 2, "virtual").count_exactly == (1, 60, 2820)
    assert ou.tabulate(6, 3, "classical").count_exactly == (1, 10, 66, 362)


def test_follower_lists_are_built_on_first_lookup(monkeypatch):
    # one-letter words get no second letter, so no generator's follower
    # list is needed, which on 40 strands would be 3120 lists; tabulate
    # extends words by their grown letters and never builds one
    calls = []
    inner = ou.enumeration.proud_followers

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(ou.enumeration, "proud_followers", counting)
    assert ou.tabulate(40, 1, "virtual").count_exactly == (1, 3120)
    assert ou.worst_braid(40, 1)[1] == 1
    assert ou.tabulate(4, 3, "virtual").count_exactly[:2] == (1, 24)
    assert ou.tabulate(4, 4, "classical").count_exactly[:2] == (1, 6)
    assert not calls


def test_tabulate_agrees_with_definitional_route():
    # independent route: normalize every proud word from scratch and dedup
    def naive(n, m, kind):
        index = {}
        for length in range(m + 1):
            for w in ou.proud_words(n, length, kind):
                if kind == "virtual":
                    key = ou.canonical_key(ou.ch(ou.VirtualBraidWord(n, w)))
                else:
                    key = ou.classical_key(ou.ClassicalBraidWord(n, w))
                if key not in index or length < index[key]:
                    index[key] = length
        counts = [0] * (m + 1)
        for length in index.values():
            counts[length] += 1
        return tuple(counts)

    # the grown-letter pruning starts at level 4; four strands bring far
    # commutation into its proof
    for n, m, kind in ((3, 2, "virtual"), (3, 3, "classical"), (3, 5, "classical"), (4, 4, "classical")):
        assert naive(n, m, kind) == ou.tabulate(n, m, kind).count_exactly


@pytest.mark.parametrize(
    "n, m, wasted, total, kind",
    [
        # pushes that find no new braid at level 2 and up are the minimal
        # forbidden factors of the representatives (Sabalka's count on B3)
        (3, 8, (0, 4, 6, 4, 8, 10, 12, 14), 2646, "classical"),
        (4, 5, (0, 10, 12, 20, 36), 1656, "classical"),
        (5, 4, (0, 20, 18, 36), 1216, "classical"),
        (3, 4, (0, 12, 36, 48), 16812, "virtual"),
        (4, 3, (0, 72, 176), 11120, "virtual"),
    ],
)
def test_frontier_pushes_only_children_with_a_representative_suffix(monkeypatch, n, m, wasted, total, kind):
    pushes = []
    inner = ou.enumeration._children

    def counting(*args):
        pushes.append(0)
        for child in inner(*args):
            pushes[-1] += 1
            yield child

    monkeypatch.setattr(ou.enumeration, "_children", counting)
    report = ou.tabulate(n, m, kind)
    assert tuple(p - new for p, new in zip(pushes, report.count_exactly[1:])) == wasted
    assert sum(pushes) == total


def test_children_free_each_parent_once_its_children_are_made():
    # the frontier's level list is emptied as it is read, in order, so only
    # the parents not yet extended stay referenced
    root, step, _ = ou.enumeration._ou_frontier(3, "classical", 100)
    level = [((k,), root) for k in (1, 2, 3)]
    children = ou.enumeration._children(level, step, lambda word: [1, -2])
    assert [next(children)[:2], next(children)[:2]] == [((1,), 1), ((1,), -2)]
    assert sorted(word for word, _ in level) == [(2,), (3,)]
    assert [child[:2] for child in children] == [((2,), 1), ((2,), -2), ((3,), 1), ((3,), -2)]
    assert level == []


def test_artin_keyed_frontier_chooses_the_same_representatives(tab):
    # tabulate's proof uses only the group and the letter order, and the
    # Artin action is faithful (Artin 1925): keyed by Artin images the
    # frontier must choose the same words in the same order, which checks
    # every merge the OU engine made on these tables, in both directions
    for n, m in ((3, 9), (4, 5), (5, 4)):
        index = ou.enumeration._braid_index(
            artin_image(n, ()), artin_step, lambda images: images, ou.generators(n, "classical"), m, None
        )
        reps = ou.read_representatives(tab(n, m, "classical").representatives_path)
        assert list(index.values()) == [word.letters for word, _, _ in reps]


def test_mccool_keyed_frontier_counts_the_welded_braids(tab):
    # the McCool action is faithful on the welded pure braid group (Fenn,
    # Rimanyi and Rourke 1997), so keyed by it the frontier gives each welded
    # braid its minimal length.  That is the least first length of its
    # virtual members, read off the virtual representatives, which are
    # written by first length
    for n, m, welded in ((3, 4, (1, 12, 120, 1116, 10080)), (4, 3, (1, 24, 456, 8024))):
        index = ou.enumeration._braid_index(
            mccool_image(n, ()), mccool_step, lambda images: images, ou.generators(n, "virtual"), m, None
        )
        first_length = {}
        for word, length, _ in ou.read_representatives(tab(n, m, "virtual").representatives_path):
            first_length.setdefault(mccool_image(n, word.letters), length)
        assert {images: len(word) for images, word in index.items()} == first_length
        counts = collections.Counter(first_length.values())
        assert tuple(counts[length] for length in range(m + 1)) == welded


def test_tabulate_monotone_cumulative():
    report = ou.tabulate(3, 3, "virtual")
    cum = report.cumulative()
    assert all(cum[i] <= cum[i + 1] for i in range(len(cum) - 1))
    assert [cum[i + 1] - cum[i] for i in range(len(cum) - 1)] == list(
        report.count_exactly[1:]
    )


def test_tabulate_worker_independence_small(tmp_path):
    # the representatives bytes do not depend on the process's hash seed
    path = tmp_path / "here.txt"
    ou.tabulate(3, 2, "virtual", representatives_path=path)
    runs = tabulate_in_children(tmp_path, 3, 2, "virtual")
    assert {reps for _, reps in runs} == {path.read_bytes()}


def test_tabulate_mirror_symmetry():
    # flipping every sign is a crossing-count-preserving bijection of braids
    def mirrored_counts(n, m):
        index = {}
        for length in range(m + 1):
            for w in ou.proud_words(n, length, "virtual"):
                flipped = ou.VirtualBraidWord(n, tuple(g.inverse() for g in w))
                key = ou.canonical_key(ou.ch(flipped))
                if key not in index or length < index[key]:
                    index[key] = length
        counts = [0] * (m + 1)
        for length in index.values():
            counts[length] += 1
        return tuple(counts)

    assert mirrored_counts(3, 2) == ou.tabulate(3, 2, "virtual").count_exactly
    assert mirrored_counts(2, 3) == ou.tabulate(2, 3, "virtual").count_exactly


def test_tabulate_mirror_symmetry_classical():
    def mirrored_counts(n, m):
        index = {}
        for length in range(m + 1):
            for w in ou.proud_words(n, length, "classical"):
                flipped = ou.ClassicalBraidWord(n, tuple(-k for k in w))
                key = ou.classical_key(flipped)
                if key not in index or length < index[key]:
                    index[key] = length
        counts = [0] * (m + 1)
        for length in index.values():
            counts[length] += 1
        return tuple(counts)

    assert mirrored_counts(3, 3) == ou.tabulate(3, 3, "classical").count_exactly
    assert mirrored_counts(4, 2) == ou.tabulate(4, 2, "classical").count_exactly


def test_tables_are_closed_under_their_symmetries(tab):
    # a length-preserving symmetry of the group maps each braid of minimal
    # length L to a braid of minimal length L, so every image of a
    # representative must be a braid of the table at its length.  A braid
    # the frontier missed shows here, which counts alone cannot show.  Full
    # keys are compared, not their hashes
    def misses(n, m, kind, key, symmetries):
        words = [word.letters for word, _, _ in ou.read_representatives(tab(n, m, kind).representatives_path)]
        keys = collections.defaultdict(set)
        for w in words:
            keys[len(w)].add(key(w))
        return [(w, s) for w in words for s in symmetries if key(s(w)) not in keys[len(w)]]

    for n, m in ((3, 6), (4, 4)):
        symmetries = [
            lambda w: tuple(-k for k in reversed(w)),  # inverse
            lambda w: tuple(-k for k in w),  # mirror
            lambda w: tuple(n - k if k > 0 else -n - k for k in w),  # flip: k -> ±(n - |k|)
        ]
        assert misses(n, m, "classical", lambda w: ou.classical_key(ou.ClassicalBraidWord(n, w)), symmetries) == []

    for n, m in ((3, 3), (4, 2)):
        symmetries = [
            lambda w: tuple(g.inverse() for g in reversed(w)),  # inverse
            lambda w: tuple(g.inverse() for g in w),  # mirror
            *(  # every strand relabelling
                lambda w, p=p: tuple(BraidGenerator(p[g.i - 1], p[g.j - 1], g.sign) for g in w)
                for p in itertools.permutations(range(1, n + 1))
            ),
        ]
        assert misses(n, m, "virtual", lambda w: ou.canonical_key(ou.ch(ou.VirtualBraidWord(n, w))), symmetries) == []


def test_representatives_file_roundtrip(tab):
    def letter_key(letter):
        if isinstance(letter, BraidGenerator):
            return letter.sort_key()
        return (abs(letter), 0 if letter > 0 else 1)

    for n, m, kind in ((3, 3, "virtual"), (4, 4, "classical")):
        report = tab(n, m, kind)
        rows = list(ou.read_representatives(report.representatives_path))
        assert len(rows) == sum(report.count_exactly)
        seen_keys = set()
        for word, first_len, digest in rows:
            assert len(word.letters) == first_len
            if kind == "virtual":
                key = ou.canonical_key(ou.ch(word))
            else:
                key = ou.classical_key(word)
            assert ou.key_hash(key) == digest
            seen_keys.add(key)
        assert len(seen_keys) == len(rows)
        # written by first length, then word, letters compared in generator order
        order = [(length, tuple(map(letter_key, w.letters))) for w, length, _ in rows]
        assert order == sorted(order)
        assert len(set(order)) == len(order)


@pytest.mark.parametrize(
    "line",
    [
        "virtual x 1 s1,2 abc",  # strand count is not a number
        "virtual 3 one s1,2 abc",  # first length is not a number
        "virtual 3 1 s1,9 abc",  # letter out of range
        "classical 3 1 q abc",  # bad letter
        "welded 3 1 1 abc",  # unknown kind
        "virtual 3",  # short line
        "classical 3 1 \u00b9 abc",  # not ASCII
        "virtual 3 2 s1,2 0123456789ab",  # first length is not the word's length
        "virtual 3 1 s1,2",  # no key hash: the last letter would be read as one
        "virtual 3 1 s1,2 s1,2",  # a key hash is 12 lowercase hex digits
    ],
)
def test_read_representatives_errors_name_the_line(tmp_path, line):
    path = tmp_path / "reps.txt"
    path.write_text("virtual 3 0 0123456789ab\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ou.ParseError) as exc:
        list(ou.read_representatives(path))
    assert exc.value.line == 2


# SHA-256 of every representatives file the session ``tab`` fixture writes
# (the criterion 1, 2 and 8e tables), recorded from an exhaustive walk over
# every proud word: any change to counts, representative words, their order
# or the key hashes shows here.
REPRESENTATIVES_SHA256 = {
    (2, 6, "virtual"): "776ba98dcb08e5a2f925dfe76327d993c71ae3fc3bb3533e8b041e2298b6af62",
    (3, 4, "virtual"): "c93b37d6d02cc85d6d8a19724fc0072b91d35e31fdbc3656b8e163a17c10685d",
    (4, 3, "virtual"): "9f05d0ec66c515c5a748a2bbbcdd629fe265b19201090f5ad7b73a607881d34f",
    (5, 2, "virtual"): "0f39b3bda9054067e6e8c069e06f764f760cc40b3defb9b314428305f03466c3",
    (3, 3, "virtual"): "679d3d9404fa6489b2a14da6012bf4587df3dffbc1028d749d8911c745c7d7b2",
    (2, 9, "classical"): "46fe7447722b26df2e47bed27eb5e6324b6c3b4a18135a08a96cf74bd273a5e3",
    (3, 9, "classical"): "759071c832a5396a4ab898353fd98447cd1dd6d60612e76e0385a20005c8530c",
    (4, 5, "classical"): "17dcca2518d2f827654813838fd839ba0630a1f8cce83ecd1445af18344d38b4",
    (5, 4, "classical"): "964aca537f5187c13ee55334eb09c509eff2f94fa989a79996b0af82ca08edae",
}


@pytest.mark.parametrize("table", sorted(REPRESENTATIVES_SHA256), ids=lambda t: "%d-%d-%s" % t)
def test_representatives_files_golden(tab, table):
    with open(tab(*table).representatives_path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == REPRESENTATIVES_SHA256[table]


def test_classical_representatives_key_includes_permutation(tmp_path):
    path = tmp_path / "creps.txt"
    ou.tabulate(3, 2, "classical", representatives_path=path)
    for word, _, digest in ou.read_representatives(path):
        assert ou.key_hash(ou.classical_key(word)) == digest


def test_tabulate_resource_limit():
    with pytest.raises(ou.ResourceLimit):
        ou.tabulate(3, 2, "virtual", max_keys=10)


def test_tabulate_report_formats():
    report = ou.tabulate(2, 2, "virtual")
    text = report.table_text()
    assert "exact" in text.splitlines()[0]
    lines = report.structured_lines().splitlines()
    assert lines == ["2 0 virtual 1", "2 1 virtual 4", "2 2 virtual 12"]


def test_fibonacci_check_small():
    assert ou.fibonacci_check(4)
    assert ou.fibonacci_check(3, counts=(1, 4, 12, 30))
    assert not ou.fibonacci_check(3, counts=(1, 4, 12, 31))


@pytest.mark.parametrize("counts", [(), (1, 4), (1, 4, 12)])
def test_fibonacci_check_too_few_counts(counts):
    with pytest.raises(ValueError):
        ou.fibonacci_check(3, counts)


def test_worst_braid_bounds_and_determinism():
    for m in (1, 2, 3, 4):
        word, value = ou.worst_braid(2, m, "virtual")
        assert len(word.letters) == m
        assert 2 * m - 1 <= value <= (3**m - 1) // 2
        again = ou.worst_braid(2, m, "virtual")
        assert again == (word, value)
    word, value = ou.worst_braid(2, 1, "virtual")
    assert value == 1
    # alternating-sign twists are the two-strand maximizers at small length
    word4, value4 = ou.worst_braid(2, 4, "virtual")
    assert word4 == ou.parse_vpb("vpb 2: s1,2 s2,1' s1,2 s2,1'")
    assert value4 == 28
    cword, cvalue = ou.worst_braid(3, 2, "classical")
    assert isinstance(cword, ou.ClassicalBraidWord) and cvalue >= 2
    # maximizers and values recorded from an exhaustive walk over every proud word
    for (n, m, kind), (text, xi) in {
        (4, 5, "classical"): ("br 4: -1 2 -1 2 -1", 36),
        (2, 6, "virtual"): ("vpb 2: s1,2 s2,1' s1,2 s2,1' s1,2 s2,1'", 168),
        (3, 3, "virtual"): ("vpb 3: s1,2 s2,1' s1,2", 11),
    }.items():
        word, value = ou.worst_braid(n, m, kind)
        assert (word.text(), value) == (text, xi)


def test_worst_case_families_are_fibonacci_and_pell():
    # with F(1) = F(2) = 1 and P(0) = 0, P(1) = 1, P(k) = 2P(k-1) + P(k-2):
    # the prefix of -1 2 -1 2 ... of length m has xi = 2F(m+3) - 6, and the
    # prefix of s1,2 s2,1' s1,2 ... has xi = P(m+1) - 1, on the push path
    fib, pell = [0, 1], [0, 1]
    for _ in range(20):
        fib.append(fib[-1] + fib[-2])
        pell.append(2 * pell[-1] + pell[-2])
    classical = ou.ClassicalBraidWord(3, (-1, 2) * 6)
    virtual = ou.parse_vpb("vpb 3: " + "s1,2 s2,1' " * 5)
    # (kind, word, its pure word, lengths pushed, lengths searched, xi)
    families = (
        (
            "classical", classical, ou.classical_to_vpb(classical)[0], range(2, 13), range(2, 8),
            lambda m: 2 * fib[m + 3] - 6,
        ),
        ("virtual", virtual, virtual, range(1, 10), range(1, 5), lambda m: pell[m + 1] - 1),
    )
    for kind, word, pure, pushed, searched, xi in families:
        acc = ou.OuAccumulator(3)
        for m, g in enumerate(pure.letters, start=1):
            acc.push(g.i, g.j, g.sign)
            if m in pushed:
                assert acc.crossing_count() == xi(m), m
        # worst_braid finds the family's prefixes as the maximizers
        for m in searched:
            assert ou.worst_braid(3, m, kind) == (type(word)(3, word.letters[:m]), xi(m))
