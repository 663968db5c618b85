"""Acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -v -s``).  All counts
are exact-integer comparisons; the heavy shared artifacts (tables, corpus,
divisor closure) come from session fixtures.
"""

import random
import time
from contextlib import contextmanager

from helpers import (
    all_path_words,
    all_two_crossing_diagrams_two_strands,
    is_bipartite_undirected,
    random_vpb_word,
    tabulate_in_children,
    twist_word,
)

import outangles as ou
from outangles import BraidGenerator, ClassicalBraidWord, VirtualBraidWord


@contextmanager
def criterion(num, label):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL  {label}")
        raise
    print(f"criterion {num}: PASS  {label}  ({time.time() - start:.1f}s)")


def test_criterion_1_virtual_braid_counts(tab):
    with criterion(1, "virtual braid counts per crossing number"):
        assert tab(2, 6, "virtual").count_exactly == (1, 4, 12, 36, 108, 324, 972)
        assert tab(3, 4, "virtual").count_exactly == (1, 12, 132, 1416, 15156)
        assert tab(4, 3, "virtual").count_exactly == (1, 24, 504, 10344)
        assert tab(5, 2, "virtual").count_exactly == (1, 40, 1320)


def test_criterion_2_classical_braid_counts(tab):
    with criterion(2, "classical braid counts per crossing number"):
        assert tab(2, 9, "classical").count_exactly == (1,) + (2,) * 9
        assert tab(3, 9, "classical").count_exactly == (
            1, 4, 12, 30, 68, 148, 314, 656, 1356, 2782,
        )
        assert tab(4, 5, "classical").count_exactly == (1, 6, 26, 98, 338, 1110)
        assert tab(5, 4, "classical").count_exactly == (1, 8, 44, 206, 884)


def test_criterion_3_fibonacci_fit(tab):
    with criterion(3, "three-strand classical counts fit 6*2^m - 2*F(m+3) - 2"):
        counts = tab(3, 9, "classical").count_exactly
        assert ou.fibonacci_check(9, counts) is True


def test_criterion_4_complete_invariant_identities():
    with criterion(4, "complete-invariant identities and relation fuzz"):
        long_word = ou.parse_vpb("vpb 3: s2,1' s1,3 s3,1 s1,3 s3,1 s1,3 s2,3 s2,1")
        short_word = ou.parse_vpb("vpb 3: s2,3 s1,3 s3,1 s1,3 s3,1 s1,3")
        assert ou.braids_equal(long_word, short_word)
        assert ou.crossing_number(ou.ch(long_word)) == 18

        rng = random.Random(2024)
        failures = 0
        for trial in range(1000):
            n = 4 if trial % 2 else 3
            u = random_vpb_word(rng, n, rng.randrange(0, 3))
            v = random_vpb_word(rng, n, rng.randrange(0, 3))
            if trial % 2 and rng.random() < 0.5:
                i, j, k, l = rng.sample(range(1, n + 1), 4)
                lhs = ou.parse_vpb(f"vpb {n}: s{i},{j} s{k},{l}")
                rhs = ou.parse_vpb(f"vpb {n}: s{k},{l} s{i},{j}")
            else:
                i, j, k = rng.sample(range(1, n + 1), 3)
                lhs = ou.parse_vpb(f"vpb {n}: s{i},{j} s{i},{k} s{j},{k}")
                rhs = ou.parse_vpb(f"vpb {n}: s{j},{k} s{i},{k} s{i},{j}")
            if not ou.braids_equal(u * lhs * v, u * rhs * v):
                failures += 1
        assert failures == 0


def test_criterion_5_twist_rolls_and_division_chain():
    with criterion(5, "twist-braid normal forms and their division chain"):
        for k in range(1, 7):
            assert ou.xi(ou.iota(twist_word(k))) == 2 * k - 1
        rolls = {k: ou.ch(twist_word(k)) for k in range(0, 5)}
        assert rolls[0] == ou.identity_diagram(2)
        s12 = BraidGenerator(1, 2, 1)
        s21 = BraidGenerator(2, 1, 1)
        assert ou.quotient(rolls[4], s12) == rolls[3]
        assert ou.quotient(rolls[3], s21) == rolls[2]
        assert ou.quotient(rolls[2], s12) == rolls[1]
        assert ou.quotient(rolls[1], s21) == rolls[0]


def test_criterion_6_extraction_graph_shapes():
    with criterion(6, "extraction graphs: tesseract, hexagon, permutahedron"):
        word, _ = ou.classical_to_vpb(ClassicalBraidWord(8, (1, 3, 5, 7)))
        tesseract = ou.extraction_graph(ou.ch(word))
        assert tesseract.node_count() == 16
        assert tesseract.edge_count() == 32
        for key in tesseract.nodes:
            assert tesseract.out_degree(key) + tesseract.in_degree(key) == 4

        hexagon = ou.extraction_graph(ou.ch(ou.parse_vpb("vpb 3: s1,2 s1,3 s2,3")))
        assert hexagon.node_count() == 6
        assert hexagon.edge_count() == 6
        assert hexagon.out_degree(hexagon.source) == 2

        word4, _ = ou.classical_to_vpb(ClassicalBraidWord(4, (1, 2, 3, 1, 2, 1)))
        permutahedron = ou.extraction_graph(ou.ch(word4))
        assert permutahedron.node_count() == 24
        assert permutahedron.edge_count() == 36


def test_criterion_7_indivisible_two_crossing_tangle():
    with criterion(7, "two-crossing reduced OU tangle with no divisors exists"):
        seen = set()
        witnesses = []
        for d in all_two_crossing_diagrams_two_strands():
            if not (ou.is_ou(d) and ou.is_reduced(d)):
                continue
            key = ou.canonical_key(d)
            if key in seen:
                continue
            seen.add(key)
            if not ou.divisors(d):
                witnesses.append(d)
        assert witnesses, "every two-crossing reduced OU tangle was divisible"
        for d in witnesses:
            assert ou.xi(d) == 2


def test_criterion_8a_normal_form_confluence(corpus):
    with criterion(8, "normal-form confluence: 100 random orderings per braid"):
        for word, tangle in corpus:
            stacked = ou.iota(word)
            expect = ou.canonical_key(tangle)
            for seed in range(100):
                got = ou.canonical_key(ou.ou_normal_form(stacked, rng=random.Random(seed)))
                assert got == expect, f"order-dependent normal form for {word.text()}"


def test_criterion_8b_division_dichotomy(closure):
    with criterion(8, "division dichotomy: one multiplication never preserves xi"):
        pairs = 0
        for key, row in closure.candidates.items():
            base = ou.crossing_number(closure.store[key])
            for _, count, _ in row:
                assert count != base
                pairs += 1
        assert pairs >= 10000


def test_criterion_8c_round_trip_multiply_back(closure):
    with criterion(8, "divisor round trip: multiplying the quotient back"):
        edges = 0
        for key, row in closure.candidates.items():
            diagram = closure.store[key]
            n = diagram.n
            for g, _, qkey in row:
                if qkey is None:
                    continue
                back = ou.ou_normal_form(
                    ou.compose(ou.generator_diagram(n, g), closure.store[qkey])
                )
                assert ou.canonical_key(back) == key
                edges += 1
        assert edges > 0


def test_criterion_8d_peel_confluence(corpus, closure):
    with criterion(8, "peel confluence: 100 random divisor orders per braid"):
        identity_keys = {n: ou.canonical_key(ou.identity_diagram(n)) for n in (2, 3)}
        word_key_cache: dict = {}

        def word_key(n, letters):
            entry = (n, letters)
            if entry not in word_key_cache:
                word_key_cache[entry] = ou.canonical_key(ou.ch(VirtualBraidWord(n, letters)))
            return word_key_cache[entry]

        for word, tangle in corpus:
            start = ou.canonical_key(tangle)
            expect_core = identity_keys[word.n]
            for seed in range(100):
                rng = random.Random(seed)
                key = start
                letters = []
                while True:
                    divisor_edges = closure.divisor_edges(key)
                    if not divisor_edges:
                        break
                    g, key = rng.choice(divisor_edges)
                    letters.append(g)
                assert key == expect_core
                assert word_key(word.n, tuple(letters)) == start

        # the public peel function, fuzzed directly on a sample
        rng = random.Random(77)
        for word, tangle in rng.sample(corpus, 25):
            det = ou.peel(tangle)
            for seed in range(8):
                got_word, got_core = ou.peel(tangle, rng=random.Random(seed))
                assert got_core == det[1]
                assert ou.braids_equal(got_word, det[0])


def test_criterion_8e_tabulate_worker_independence(tab, tmp_path):
    with criterion(8, "tabulation bytes identical in processes with other hash seeds"):
        here = tab(3, 3, "virtual")
        with open(here.representatives_path, "rb") as fh:
            expect = (here.table_text() + here.structured_lines()).encode("ascii"), fh.read()
        assert tabulate_in_children(tmp_path, 3, 3, "virtual") == {expect}


def test_criterion_9_growth_bound(closure):
    with criterion(9, "one multiplication grows xi by at most 3*xi + 1"):
        samples = 0
        violations = []
        for key, row in closure.candidates.items():
            base = ou.crossing_number(closure.store[key])
            for g, count, _ in row:
                samples += 1
                if count > 3 * base + 1:
                    violations.append((key, g.token(), base, count))
        assert samples >= 10000
        assert not violations, f"growth bound exceeded: {violations[:5]}"


def test_extraction_graph_structural_invariants(corpus):
    # bipartiteness, unique sink, and path-word agreement on small graphs
    rng = random.Random(5)
    sample = rng.sample(corpus, 40)
    for word, tangle in sample:
        graph = ou.extraction_graph(tangle)
        assert is_bipartite_undirected(graph)
        sinks = [k for k in graph.nodes if graph.out_degree(k) == 0]
        assert sinks == [graph.sink]
        sources = [k for k in graph.nodes if graph.in_degree(k) == 0]
        assert sources == [graph.source]
        if graph.node_count() <= 10:
            for path in all_path_words(graph):
                assert ou.braids_equal(VirtualBraidWord(word.n, path), word)
