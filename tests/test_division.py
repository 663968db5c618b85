import collections
import itertools
import random

import pytest
from helpers import (
    _reference_normal_form,
    all_path_words,
    all_two_crossing_diagrams_two_strands,
    count_diagram_builds,
    is_bipartite_undirected,
    random_reduced_ou,
    random_vpb_word,
    reduced_word,
    twist_word,
    weak_order_interval,
)

import outangles as ou
from outangles import BraidGenerator

GARSIDE3 = "vpb 3: s1,2 s1,3 s2,3"


def roll(k):
    return ou.ch(twist_word(k))


def test_divisors_identity_empty():
    assert ou.divisors(ou.identity_diagram(3)) == []


def test_divisors_of_three_strand_half_twist():
    divs = ou.divisors(ou.ch(ou.parse_vpb(GARSIDE3)))
    assert divs == [BraidGenerator(1, 2, 1), BraidGenerator(2, 3, 1)]


def test_divisors_requires_reduced_ou():
    with pytest.raises(ou.NotReducedOU):
        ou.divisors(ou.iota(ou.parse_vpb("vpb 2: s1,2 s2,1")))
    with pytest.raises(ou.NotReducedOU, match="R1 or R2"):
        ou.divisors(ou.iota(ou.parse_vpb("vpb 2: s1,2 s1,2'")))
    with pytest.raises(ou.NotReducedOU):
        ou.peel(ou.iota(twist_word(2)))
    with pytest.raises(ou.NotReducedOU):
        ou.extraction_graph(ou.iota(twist_word(2)))


def test_quotient_examples():
    one = ou.ch(ou.parse_vpb("vpb 2: s1,2"))
    assert ou.quotient(one, BraidGenerator(1, 2, 1)) == ou.identity_diagram(2)
    with pytest.raises(ou.NotADivisor):
        ou.quotient(one, BraidGenerator(2, 1, 1))
    for g in (BraidGenerator(4, 1, 1), BraidGenerator(1, 4, -1)):
        with pytest.raises(ou.StrandCountMismatch, match=f"{g.token()}.* 3 "):
            ou.quotient(ou.ch(ou.parse_vpb("vpb 3: s1,2 s2,3")), g)


def test_twist_roll_division_chain():
    s12 = BraidGenerator(1, 2, 1)
    s21 = BraidGenerator(2, 1, 1)
    for k in (1, 2, 3):
        assert ou.quotient(roll(2 * k), s12) == roll(2 * k - 1)
        assert ou.quotient(roll(2 * k + 1), s21) == roll(2 * k)
    assert ou.quotient(roll(1), s21) == ou.identity_diagram(2)


def test_quotient_of_half_twist_by_first_divisor():
    garside = ou.ch(ou.parse_vpb(GARSIDE3))
    q = ou.quotient(garside, BraidGenerator(1, 2, 1))
    assert ou.canonical_key(q) == ou.canonical_key(ou.ch(ou.parse_vpb("vpb 3: s1,3 s2,3")))


def test_divisor_round_trip():
    rng = random.Random(3)
    for _ in range(15):
        w = ou.VirtualBraidWord(
            3,
            tuple(
                BraidGenerator(*rng.choice([(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]), rng.choice((1, -1)))
                for _ in range(rng.randrange(1, 4))
            ),
        )
        T = ou.ch(w)
        for g in ou.divisors(T):
            q = ou.quotient(T, g)
            back = ou.ou_normal_form(ou.compose(ou.generator_diagram(3, g), q))
            assert ou.canonical_key(back) == ou.canonical_key(T)


def test_peel_examples():
    word, core = ou.peel(ou.identity_diagram(2))
    assert word.letters == () and core == ou.identity_diagram(2)

    word, core = ou.peel(roll(5))
    assert core == ou.identity_diagram(2)
    assert word == ou.parse_vpb("vpb 2: s2,1 s1,2 s2,1 s1,2 s2,1")

    for text in (GARSIDE3, "vpb 3: s2,1' s1,3 s2,3", "vpb 2: s1,2 s1,2 s2,1'"):
        w = ou.parse_vpb(text)
        word, core = ou.peel(ou.ch(w))
        assert core == ou.identity_diagram(w.n)
        assert ou.braids_equal(word, w)


def test_peel_confluence_random_divisor_choice():
    T = ou.ch(ou.parse_vpb(GARSIDE3))
    det_word, det_core = ou.peel(T)
    for seed in range(30):
        word, core = ou.peel(T, rng=random.Random(seed))
        assert core == det_core
        assert ou.braids_equal(word, det_word)


def test_indivisible_witness_is_a_quotient():
    # stacking a generator on an indivisible tangle gives a divisible one
    # whose quotient is the original
    s12 = BraidGenerator(1, 2, 1)
    found = False
    for d in all_two_crossing_diagrams_two_strands():
        if not (ou.is_ou(d) and ou.is_reduced(d)) or ou.divisors(d):
            continue
        bigger = ou.ou_normal_form(ou.compose(ou.generator_diagram(2, s12), ou.tidy(d)))
        assert s12 in ou.divisors(bigger)
        assert ou.quotient(bigger, s12) == ou.tidy(d)
        found = True
        break
    assert found


def test_peel_indivisible_core_from_search():
    # exhaustive: some reduced OU tangle with two crossings on two strands
    # has no divisor at all, so braid images are a proper subset
    seen = set()
    indivisible = []
    for d in all_two_crossing_diagrams_two_strands():
        if not (ou.is_ou(d) and ou.is_reduced(d)):
            continue
        key = ou.canonical_key(d)
        if key in seen:
            continue
        seen.add(key)
        if not ou.divisors(d):
            indivisible.append(d)
    assert indivisible
    for d in indivisible:
        word, core = ou.peel(d)
        assert word.letters == () and core == ou.tidy(d)
        assert ou.xi(d) == 2


def test_extraction_graph_single_node():
    g = ou.extraction_graph(ou.identity_diagram(2))
    assert g.node_count() == 1 and g.edge_count() == 0
    assert g.source == g.sink


def test_extraction_graph_hexagon():
    g = ou.extraction_graph(ou.ch(ou.parse_vpb(GARSIDE3)))
    assert g.node_count() == 6
    assert g.edge_count() == 6
    assert g.out_degree(g.source) == 2
    assert sorted(g.nodes.values()) == [0, 1, 1, 2, 2, 3]
    assert g.sink == ou.canonical_key(ou.identity_diagram(3))
    assert is_bipartite_undirected(g)
    # the five divisor braids are the distinct proper-and-full path prefixes
    words = all_path_words(g)
    assert len(words) == 2
    prefixes = {w[:k] for w in words for k in range(1, len(w) + 1)}
    classes = []
    for p in prefixes:
        wp = ou.VirtualBraidWord(3, p)
        if not any(ou.braids_equal(wp, c) for c in classes):
            classes.append(wp)
    assert len(classes) == 5


def test_extraction_graph_half_twist_skeletons():
    # half-twist graphs carry the permutation-order skeleton: n! nodes and
    # n! * (n-1) / 2 edges
    for n, letters in ((3, (1, 2, 1)), (4, (1, 2, 3, 1, 2, 1)), (5, (1, 2, 3, 4, 1, 2, 3, 1, 2, 1))):
        word, _ = ou.classical_to_vpb(ou.ClassicalBraidWord(n, letters))
        g = ou.extraction_graph(ou.ch(word))
        fact = 1
        for k in range(2, n + 1):
            fact *= k
        assert g.node_count() == fact
        assert g.edge_count() == fact * (n - 1) // 2
        assert is_bipartite_undirected(g)


def test_extraction_graphs_of_permutation_braids_are_weak_order_intervals():
    # the positive braid of a reduced word of a permutation is a simple
    # braid, and its graph has the nodes and edges of the weak-order interval
    # below the permutation and of its Hasse diagram: division recovers the
    # left divisors of the half twist in the positive monoid (Garside 1969;
    # Elrifai and Morton 1994).  The 6-strand half twist gives the whole
    # permutohedron
    half_twist = tuple(range(6, 0, -1))
    assert weak_order_interval(half_twist) == (720, 1800)
    for perm in [*(p for n in (3, 4, 5) for p in itertools.permutations(range(1, n + 1))), half_twist]:
        word, end = ou.classical_to_vpb(ou.ClassicalBraidWord(len(perm), reduced_word(perm)))
        assert end == perm
        g = ou.extraction_graph(ou.ch(word))
        assert (g.node_count(), g.edge_count()) == weak_order_interval(perm), perm


def test_extraction_graph_edges_decrease_xi():
    g = ou.extraction_graph(roll(4))
    for src, _, dst in g.edges:
        assert g.nodes[dst] < g.nodes[src]


def test_extraction_graph_path_words_all_equal():
    for text in (GARSIDE3, "vpb 2: s1,2 s2,1", "vpb 3: s1,3 s3,1'"):
        w = ou.parse_vpb(text)
        g = ou.extraction_graph(ou.ch(w))
        assert g.node_count() <= 10
        words = all_path_words(g)
        assert words
        for pw in words:
            assert ou.braids_equal(ou.VirtualBraidWord(w.n, pw), w)
        assert is_bipartite_undirected(g)


def test_to_dot_single_node_shape():
    text = ou.to_dot(ou.extraction_graph(ou.identity_diagram(1)))
    assert text == 'digraph {\n  "k0" [label="0"];\n}\n'


def test_to_dot_hexagon_line_counts_and_determinism():
    g = ou.extraction_graph(ou.ch(ou.parse_vpb(GARSIDE3)))
    text = ou.to_dot(g)
    lines = text.strip().splitlines()
    node_lines = [ln for ln in lines if "->" not in ln and "label" in ln]
    edge_lines = [ln for ln in lines if "->" in ln]
    assert len(node_lines) == 6 and len(edge_lines) == 6
    again = ou.to_dot(ou.extraction_graph(ou.ch(ou.parse_vpb(GARSIDE3))))
    assert again == text


def test_to_edge_lines_structured_export():
    g = ou.extraction_graph(roll(2))
    text = ou.to_edge_lines(g)
    lines = text.strip().splitlines()
    node_lines = [ln for ln in lines if len(ln.split()) == 2]
    edge_lines = [ln for ln in lines if len(ln.split()) == 3]
    assert len(node_lines) == g.node_count()
    assert len(edge_lines) == g.edge_count()
    hashes = {ou.key_hash(k) for k in g.nodes}
    for ln in edge_lines:
        src, token, dst = ln.split()
        assert src in hashes and dst in hashes
        assert token.startswith("s")
    assert ou.to_edge_lines(ou.extraction_graph(roll(2))) == text


def test_division_dichotomy_smoke():
    rng = random.Random(71)
    gens = ou.vpb_generators(3)
    for _ in range(60):
        letters = tuple(rng.choice(gens) for _ in range(rng.randrange(0, 4)))
        T = ou.ch(ou.VirtualBraidWord(3, letters))
        base = ou.crossing_number(T)
        for g in gens:
            cand = ou.ou_normal_form(ou.compose(ou.generator_diagram(3, g), T))
            assert ou.crossing_number(cand) != base


def _brute_quotients(T):
    """Every generator's quotient that lowers the crossing number, found by
    normalizing the inverse stacked before ``T`` for all generators."""
    out = []
    for g in ou.vpb_generators(T.n):
        q = ou.ou_normal_form(ou.compose(ou.generator_diagram(T.n, g.inverse()), T))
        if ou.crossing_number(q) < ou.crossing_number(T):
            out.append((g, q))
    return out


def _brute_graph(T):
    source = ou.canonical_key(T)
    nodes = {source: ou.crossing_number(T)}
    edges, frontier = [], [T]
    while frontier:
        nxt = []
        for d in frontier:
            for g, q in _brute_quotients(d):
                qkey = ou.canonical_key(q)
                if qkey not in nodes:
                    nodes[qkey] = ou.crossing_number(q)
                    nxt.append(q)
                edges.append((ou.canonical_key(d), g, qkey))
        frontier = nxt
    (sink,) = set(nodes) - {src for src, _, _ in edges}
    return ou.ExtractionGraph(nodes, tuple(edges), source, sink)


def test_division_matches_brute_force_with_crossing_free_strands():
    rng = random.Random(83)
    skipped = 0
    for _ in range(14):
        n = rng.randrange(3, 9)
        active = rng.sample(range(1, n + 1), rng.randrange(2, n + 1))
        letters = []
        for _ in range(rng.randrange(1, 5)):
            i, j = rng.sample(active, 2)
            letters.append(BraidGenerator(i, j, rng.choice((1, -1))))
        T = ou.ch(ou.VirtualBraidWord(n, tuple(letters)))
        crossed = {strand for c in T.crossings for strand in (c.over[0], c.under[0])}
        if T.crossings and len(crossed) < n:
            skipped += 1
        brute = _brute_quotients(T)
        assert ou.divisors(T) == [g for g, _ in brute]
        letters, core = [], T
        while pairs := _brute_quotients(core):
            g, core = pairs[0]
            letters.append(g)
        assert ou.peel(T) == (ou.VirtualBraidWord(n, tuple(letters)), core)
        assert ou.to_edge_lines(ou.extraction_graph(T)) == ou.to_edge_lines(_brute_graph(T))
    assert skipped >= 8


def test_divisors_try_the_generator_each_first_under_mark_names(monkeypatch):
    calls = []
    inner = ou.division._quotient_or_none

    def counting(T, g, max_iters):
        calls.append(g)
        return inner(T, g, max_iters)

    monkeypatch.setattr(ou.division, "_quotient_or_none", counting)
    w, _ = ou.classical_to_vpb(ou.parse_classical("br 30: 1 3"))
    ou.divisors(ou.ch(w))
    # strands 2 and 4 each hold one under mark; the other 28 strands hold none
    assert calls == [BraidGenerator(1, 2, 1), BraidGenerator(3, 4, 1)]


def _half_twist(n):
    letters = tuple(k for top in range(n - 1, 0, -1) for k in range(1, top + 1))
    word, _ = ou.classical_to_vpb(ou.ClassicalBraidWord(n, letters))
    return ou.ch(word)


def test_division_builds_diagrams_only_for_nodes(monkeypatch):
    T = _half_twist(5)
    built = count_diagram_builds(monkeypatch)
    g = ou.extraction_graph(T)
    assert g.node_count() == 120 and not built
    built.clear()
    ou.peel(T)
    assert len(built) <= 2
    built.clear()
    ou.divisors(T)
    assert len(built) <= 1


def test_extraction_graph_node_keys_parse_to_their_nodes():
    # a node is stored as its key and xi; the key's text is its diagram
    for T in (ou.ch(ou.parse_vpb(GARSIDE3)), _half_twist(5)):
        g = ou.extraction_graph(T)
        for k, xi in g.nodes.items():
            d = ou.parse(k.decode("ascii"))
            assert ou.canonical_key(d) == k
            assert ou.crossing_number(d) == xi
            assert ou.is_ou(d) and ou.is_reduced(d)


def test_division_runs_no_cascade_check(monkeypatch):
    # candidate quotients prepend one crossing to a reduced OU state, which
    # stays acyclic by construction
    cases = []
    for T in (ou.ch(ou.parse_vpb(GARSIDE3)), _half_twist(5)):
        divs = ou.divisors(T)
        cases.append((T, divs, ou.quotient(T, divs[-1]), ou.peel(T), ou.to_edge_lines(ou.extraction_graph(T))))

    def refuse(self):
        raise AssertionError("cascade check on a state the engine built")

    monkeypatch.setattr(ou.rewrite._Scratch, "is_acyclic", refuse)
    for T, divs, q, peeled, lines in cases:
        assert ou.divisors(T) == divs
        assert ou.quotient(T, divs[-1]) == q
        assert ou.peel(T) == peeled
        assert ou.to_edge_lines(ou.extraction_graph(T)) == lines


def _prepended(d, i, j, sign, max_iters):
    """The scratch state of ``s(i,j)^sign`` prepended to the reduced OU
    diagram ``d``, as division computes it: the mirrored crossing pushed on
    the mirror of ``d``, then mirrored back."""
    q = ou.rewrite._Scratch.from_diagram(d).mirrored()
    q.append_crossing(j, i, sign, max_iters)
    return q.mirrored()


def test_quotient_glides_once_per_over_mark_of_its_under_strand():
    # a candidate quotient's glide chain walks the pushed over mark left past
    # the mirror's under marks of strand j (the over marks of strand j before
    # mirroring), one glide each, so a cap of exactly that many is enough;
    # tried for every generator at every node
    candidates = [
        (ou.rewrite._Scratch.from_diagram(ou.parse(key.decode("ascii"))).mirrored(), g)
        for key in ou.extraction_graph(_half_twist(5)).nodes
        for g in ou.vpb_generators(5)
    ]
    assert len(candidates) > 1000
    inner = ou.division._quotient_or_none
    gliding = 0
    for T, g in candidates:
        k = sum(1 for mk in T.strands[g.j - 1] if not mk & 2)
        expect = inner(T, g, ou.rewrite.DEFAULT_MAX_ITERS)
        got = inner(T, g, k)
        assert (got is None) == (expect is None)
        if got is not None:
            assert got.canonical_text() == expect.canonical_text()
        if k:
            gliding += 1
            with pytest.raises(ou.CapExceeded):
                inner(T, g, k - 1)
    assert gliding > len(candidates) // 2


def _filter_cases():
    """Every node of the 5-strand half twist's extraction graph, then 300
    seeded random reduced OU tangles on 2 to 5 strands, many of them with
    self-crossings."""
    rng = random.Random(5)
    nodes = [ou.parse(key.decode("ascii")) for key in ou.extraction_graph(_half_twist(5)).nodes]
    return nodes + [random_reduced_ou(rng, rng.randrange(2, 6), rng.randrange(0, 10)) for _ in range(300)]


def test_divisors_match_all_generator_brute_force():
    cases = _filter_cases()
    assert sum(any(c.over[0] == c.under[0] for c in d.crossings) for d in cases) >= 100
    found = 0
    for d in cases:
        divs = ou.divisors(d)
        assert divs == [g for g, _ in _brute_quotients(d)]
        found += len(divs)
    assert found >= 300


def test_prepended_crossing_is_removed_exactly_when_the_count_drops():
    # lemma (B) of division._divisor_quotients, and (A): a prepended crossing
    # that survives holds the first under mark of its under strand
    removed = 0
    for d in _filter_cases():
        for g in ou.vpb_generators(d.n):
            new = len(d.crossings)  # the id the prepended crossing gets
            q = _prepended(d, g.i, g.j, g.sign, ou.rewrite.DEFAULT_MAX_ITERS)
            ids = [mk >> 2 for lst in q.strands for mk in lst]
            assert (new not in ids) == (q.crossing_count() < len(d.crossings))
            if new in ids:
                assert next(mk >> 2 for mk in q.strands[g.j - 1] if not mk & 2) == new
            else:
                removed += 1
    assert removed >= 300


def test_prepend_matches_reference_normal_form():
    # a prepend leaves the normal form of the generator's inverse
    # stacked before the node, for every generator and not only divisors:
    # on the four fixed starts the oracle reference's, on the random ones
    # ou_normal_form's, which test_normal_form_matches_full_scan_reference
    # ties to that reference
    rng = random.Random(71)
    fixed = [_half_twist(n) for n in (3, 4, 5)] + [ou.ch(ou.parse_vpb(GARSIDE3))]
    randoms = [ou.ch(random_vpb_word(rng, rng.randrange(2, 5), rng.randrange(0, 9))) for _ in range(30)]
    for T, by_oracle in [(T, True) for T in fixed] + [(T, False) for T in randoms]:
        g = ou.extraction_graph(T)
        for key in g.nodes:
            node = ou.parse(key.decode("ascii"))
            for gen in ou.vpb_generators(T.n):
                walked = _prepended(node, gen.i, gen.j, -gen.sign, 1 << 20)
                stacked = ou.compose(ou.generator_diagram(T.n, gen.inverse()), node)
                expect = _reference_normal_form(stacked)[0] if by_oracle else ou.ou_normal_form(stacked)
                assert walked.canonical_text() == ou.serialize(expect)
                assert not walked.uo_slots()


def _shortest_descent(word) -> int:
    """The length of the shortest source-to-sink path of the extraction
    graph of ``ch(word)``."""
    g = ou.extraction_graph(ou.ch(word))
    succ = collections.defaultdict(list)
    for src, _, dst in g.edges:
        succ[src].append(dst)
    length, frontier = 0, {g.source}
    while g.sink not in frontier:
        frontier = {dst for key in frontier for dst in succ[key]}
        length += 1
    return length


def test_shortest_descent_against_word_length(tab):
    # every source-to-sink path spells a word for the braid, so the shortest
    # is never shorter than the braid's minimal word, the representative
    for n, m, table in ((3, 3, 3), (4, 2, 3)):
        for word, length, _ in ou.read_representatives(tab(n, table, "virtual").representatives_path):
            if length <= m:
                assert _shortest_descent(word) == length, word
    # classical braids, as pure vpb words of the same length: the descent
    # is longer on a few braids from five letters on
    longer = collections.Counter()
    for word, length, _ in ou.read_representatives(tab(3, 9, "classical").representatives_path):
        if length <= 6:
            descent = _shortest_descent(ou.classical_to_vpb(word)[0])
            assert descent >= length, word
            longer[length] += descent > length
    assert +longer == {5: 2, 6: 10}
    word = ou.parse_classical("br 3: 1 2 2 1 1")
    assert (len(word.letters), _shortest_descent(ou.classical_to_vpb(word)[0])) == (5, 7)
