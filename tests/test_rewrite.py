import random
import re

import pytest
from helpers import (
    oracle_glide,
    oracle_is_acyclic,
    oracle_is_ou,
    oracle_reduce_r12,
    _reference_normal_form,
    random_gauss,
    random_vpb_word,
    twist_word,
)
from test_golden import _corpus

import outangles as ou
from outangles import ClassicalBraidWord, Crossing, Diagram


def _glide_example_input() -> Diagram:
    a = Crossing(1, (1, 1), (3, 5))
    b = Crossing(1, (3, 6), (2, 3))
    return Diagram(3, (a, b), (2, 4, 7))


def test_is_ou_examples():
    assert ou.is_ou(ou.identity_diagram(3))
    assert ou.is_ou(ou.iota(ou.parse_vpb("vpb 2: s1,2")))
    two_twist = ou.iota(ou.parse_vpb("vpb 2: s1,2 s2,1"))
    assert not ou.is_ou(two_twist)
    assert oracle_is_ou(two_twist) is False


def test_is_ou_matches_oracle():
    rng = random.Random(5)
    for _ in range(40):
        d = ou.iota(random_vpb_word(rng, rng.randrange(2, 4), rng.randrange(0, 5)))
        assert ou.is_ou(d) == oracle_is_ou(d)


def test_is_acyclic_examples():
    assert ou.is_acyclic(ou.identity_diagram(2))
    over_then_under = Diagram(1, (Crossing(1, (1, 1), (1, 2)),), (3,))
    under_then_over = Diagram(1, (Crossing(1, (1, 2), (1, 1)),), (3,))
    assert ou.is_acyclic(over_then_under)
    assert not ou.is_acyclic(under_then_over)
    assert oracle_is_acyclic(over_then_under)
    assert not oracle_is_acyclic(under_then_over)


def test_cascade_graph_matches_acyclicity():
    def has_cycle(nodes, edges):
        succ = {i: [] for i in range(len(nodes))}
        for u, v in edges:
            succ[u].append(v)
        state = [0] * len(nodes)

        def dfs(v):
            state[v] = 1
            for w in succ[v]:
                if state[w] == 1 or (state[w] == 0 and dfs(w)):
                    return True
            state[v] = 2
            return False

        return any(state[v] == 0 and dfs(v) for v in range(len(nodes)))

    rng = random.Random(29)
    cases = [ou.iota(random_vpb_word(rng, 3, rng.randrange(0, 5))) for _ in range(10)]
    cases.append(Diagram(1, (Crossing(1, (1, 2), (1, 1)),), (3,)))
    cases.append(ou.parse("vd 2\nx + 3 1\nx + 2 5\neos 4 6\n"))
    # random Gauss diagrams: the strand walk against the exhaustive path
    # search and against a cycle search on the exported digraph
    rng = random.Random(31)
    gauss = [random_gauss(rng, rng.randint(1, 5), rng.randint(0, 8)) for _ in range(1000)]
    for d in cases + gauss:
        nodes, edges = ou.cascade_graph(d)
        assert len(nodes) == 2 * ou.crossing_number(d)
        assert ou.is_acyclic(d) == oracle_is_acyclic(d) == (not has_cycle(nodes, edges))
    # cyclic and acyclic diagrams, one-strand diagrams and self-crossings
    # are all common
    assert 400 < sum(not ou.is_acyclic(d) for d in gauss) < 700
    assert sum(d.n == 1 for d in gauss) > 150
    assert sum(any(c.over[0] == c.under[0] for c in d.crossings) for d in gauss) > 500


def test_braid_diagrams_are_acyclic():
    rng = random.Random(9)
    for _ in range(40):
        d = ou.iota(random_vpb_word(rng, rng.randrange(2, 5), rng.randrange(0, 7)))
        assert ou.is_acyclic(d)
        assert oracle_is_acyclic(d)


def test_reduce_r12_examples():
    ident = ou.identity_diagram(2)
    assert ou.reduce_r12(ident) == ident
    kink = Diagram(1, (Crossing(1, (1, 1), (1, 2)),), (3,))
    assert ou.reduce_r12(kink) == ou.identity_diagram(1)
    # opposite signs, over marks adjacent on strand 1, under marks adjacent on strand 2
    r2 = Diagram(
        2,
        (Crossing(1, (1, 1), (2, 5)), Crossing(-1, (1, 2), (2, 4))),
        (3, 6),
    )
    assert ou.reduce_r12(r2) == ou.identity_diagram(2)
    # the same layout with equal signs is no R2: both crossings stay
    same_signs = Diagram(
        2,
        (Crossing(1, (1, 1), (2, 5)), Crossing(1, (1, 2), (2, 4))),
        (3, 6),
    )
    assert ou.reduce_r12(same_signs) == same_signs
    assert ou.is_reduced(same_signs)


def test_reduce_r12_fixpoint_has_no_patterns():
    rng = random.Random(13)
    for _ in range(30):
        d = ou.iota(random_vpb_word(rng, 3, rng.randrange(0, 6)))
        out = ou.reduce_r12(d)
        assert ou.is_reduced(out)
        assert ou.reduce_r12(out) == out


def test_glide_once_example_exact_output():
    d = _glide_example_input()
    (iv,) = ou.uo_intervals(d)
    assert iv == ou.UoInterval(strand=3, under_crossing=0, over_crossing=1)
    out = ou.glide_once(d, iv)
    assert out == ou.tidy(oracle_glide(d, iv))
    assert ou.is_ou(out)
    assert ou.crossing_number(out) == ou.crossing_number(d) + 2
    # the two new crossings are not an R2 pair: marks 1 and 3 are split by 2
    assert ou.is_reduced(out)


def test_glide_once_matches_rational_rule_randomized():
    rng = random.Random(31)
    checked = 0
    for _ in range(60):
        d = ou.iota(random_vpb_word(rng, rng.randrange(2, 4), rng.randrange(1, 5)))
        ivs = ou.uo_intervals(d)
        if not ivs:
            continue
        iv = rng.choice(ivs)
        assert ou.glide_once(d, iv) == ou.tidy(oracle_glide(d, iv))
        checked += 1
    assert checked >= 20


def test_glide_preserves_acyclicity_and_adds_two():
    rng = random.Random(17)
    for _ in range(30):
        d = ou.iota(random_vpb_word(rng, 3, rng.randrange(1, 5)))
        ivs = ou.uo_intervals(d)
        if not ivs:
            continue
        out = ou.glide_once(d, ivs[0])
        assert ou.crossing_number(out) == ou.crossing_number(d) + 2
        assert ou.is_acyclic(out)


def test_glide_same_crossing_error():
    kink = Diagram(1, (Crossing(1, (1, 2), (1, 1)),), (3,))
    (iv,) = ou.uo_intervals(kink)
    assert iv.under_crossing == iv.over_crossing
    with pytest.raises(ou.SameCrossing):
        ou.glide_once(kink, iv)
    with pytest.raises(ou.InvalidDiagram):
        ou.glide_once(ou.iota(ou.parse_vpb("vpb 2: s1,2 s2,1")), ou.UoInterval(1, 0, 1))


def test_uo_interval_crossings_differ_after_reduction():
    rng = random.Random(19)
    for _ in range(30):
        d = ou.reduce_r12(ou.iota(random_vpb_word(rng, 3, rng.randrange(0, 6))))
        for iv in ou.uo_intervals(d):
            assert iv.under_crossing != iv.over_crossing


def test_ou_normal_form_fixpoint():
    d = ou.ch(ou.parse_vpb("vpb 3: s2,3 s1,3 s1,2"))
    assert ou.ou_normal_form(d) == d


def test_ou_normal_form_cyclic_error():
    # an under-then-over self-crossing whose marks are split by another
    # crossing, so no R1 applies and the cascade cycle survives
    germ = ou.parse("vd 2\nx + 3 1\nx + 2 5\neos 4 6\n")
    with pytest.raises(ou.CyclicDiagram):
        ou.ou_normal_form(germ)
    with pytest.raises(ou.CyclicDiagram):
        ou.xi(germ)


def test_ou_normal_form_removable_kink_is_not_cyclic():
    kink = Diagram(1, (Crossing(1, (1, 2), (1, 1)),), (3,))
    assert ou.ou_normal_form(kink) == ou.identity_diagram(1)


def test_cap_exceeded():
    d = ou.iota(twist_word(3))
    with pytest.raises(ou.CapExceeded):
        ou.ou_normal_form(d, max_iters=0)
    with pytest.raises(ou.CapExceeded):
        ou.xi(d, max_iters=1)


def test_twist_normal_forms():
    # the four-twist reduces to the seven-crossing roll; 2k-1 in general
    for k in range(1, 7):
        assert ou.xi(ou.iota(twist_word(k))) == 2 * k - 1
    assert ou.xi(ou.identity_diagram(2)) == 0
    assert ou.xi(ou.iota(ou.parse_vpb("vpb 3: s1,2 s1,3 s2,3"))) == 3


def test_three_strand_half_twist_is_reduced_ou():
    d = ou.ch(ou.parse_vpb("vpb 3: s1,2 s1,3 s2,3"))
    assert ou.is_ou(d) and ou.is_reduced(d)
    assert ou.crossing_number(d) == 3


def test_normal_form_idempotent_and_reduced():
    rng = random.Random(37)
    for _ in range(25):
        d = ou.iota(random_vpb_word(rng, 3, rng.randrange(0, 6)))
        nf = ou.ou_normal_form(d)
        assert ou.is_ou(nf)
        assert ou.is_reduced(nf)
        assert ou.ou_normal_form(nf) == nf


def test_confluence_random_interval_selection_smoke():
    rng = random.Random(41)
    words = [random_vpb_word(rng, 3, rng.randrange(2, 6)) for _ in range(10)]
    for w in words:
        d = ou.iota(w)
        expect = ou.canonical_key(ou.ou_normal_form(d))
        for seed in range(25):
            got = ou.canonical_key(ou.ou_normal_form(d, rng=random.Random(seed)))
            assert got == expect


def test_xi_invariant_under_defining_relations():
    rng = random.Random(43)
    for _ in range(40):
        n = 4
        u = random_vpb_word(rng, n, rng.randrange(0, 3))
        v = random_vpb_word(rng, n, rng.randrange(0, 3))
        i, j, k, l = rng.sample(range(1, n + 1), 4)
        mixed1 = ou.parse_vpb(f"vpb {n}: s{i},{j} s{i},{k} s{j},{k}")
        mixed2 = ou.parse_vpb(f"vpb {n}: s{j},{k} s{i},{k} s{i},{j}")
        assert ou.xi(ou.iota(u * mixed1 * v)) == ou.xi(ou.iota(u * mixed2 * v))
        comm1 = ou.parse_vpb(f"vpb {n}: s{i},{j} s{k},{l}")
        comm2 = ou.parse_vpb(f"vpb {n}: s{k},{l} s{i},{j}")
        assert ou.xi(ou.iota(u * comm1 * v)) == ou.xi(ou.iota(u * comm2 * v))


def test_growth_bound_smoke():
    rng = random.Random(47)
    gens = ou.vpb_generators(3)
    for _ in range(150):
        w = random_vpb_word(rng, 3, rng.randrange(0, 4))
        T = ou.ch(w)
        g = rng.choice(gens)
        grown = ou.xi(ou.compose(ou.generator_diagram(3, g), T))
        assert grown <= 3 * ou.xi(T) + 1


def _classical_diagram(n: int, letters: tuple[int, ...]) -> Diagram:
    return ou.iota(ou.classical_to_vpb(ClassicalBraidWord(n, letters))[0])


def test_glide_counts_of_long_classical_words():
    # the first under-then-over interval in strand then position order is
    # fixed at each step; any other order costs these words far more glides
    for letters, xi, glides in (((1, 2) * 30, 89, 3057), ((2, 1) * 30, 89, 2967)):
        d = _classical_diagram(3, letters)
        assert ou.xi(d, max_iters=glides) == xi
        with pytest.raises(ou.CapExceeded):
            ou.xi(d, max_iters=glides - 1)


def test_normal_form_matches_full_scan_reference():
    rng = random.Random(53)
    cases = [ou.iota(random_vpb_word(rng, rng.randrange(2, 5), rng.randrange(0, 9))) for _ in range(40)]
    for _ in range(30):
        n = rng.randrange(2, 5)
        letters = [rng.choice((1, -1)) * rng.randrange(1, n) for _ in range(rng.randrange(0, 12))]
        cases.append(_classical_diagram(n, tuple(letters)))
    cases += [random_gauss(rng, rng.randrange(1, 4), rng.randrange(0, 7)) for _ in range(80)]
    cyclic = 0
    for d in cases:
        try:
            expect, glides = _reference_normal_form(d)
        except ou.CyclicDiagram:
            cyclic += 1
            with pytest.raises(ou.CyclicDiagram):
                ou.ou_normal_form(d)
            continue
        assert ou.ou_normal_form(d) == expect
        assert ou.ou_normal_form(d, max_iters=glides) == expect
        if glides:
            with pytest.raises(ou.CapExceeded):
                ou.ou_normal_form(d, max_iters=glides - 1)
    assert 0 < cyclic < len(cases) // 2


def test_normal_form_matches_reference_on_one_and_two_strands(monkeypatch):
    # on one or two strands an R2's two pairs, and a glide's two insertions,
    # often share a strand, so positions marked dirty go stale and the
    # settle loop removes the later pair of an R2 first
    rng = random.Random(79)
    cases = [random_gauss(rng, rng.randrange(1, 3), rng.randrange(0, 11)) for _ in range(500)]
    cases += [ou.iota(random_vpb_word(rng, 2, rng.randrange(1, 9))) for _ in range(100)]
    shared = {"r2": 0}
    inner_drop = ou.rewrite._Scratch._drop

    def counting_drop(self, marks, where, dirty, *at):
        if len(at) == 2 and at[0][0] == at[1][0]:
            shared["r2"] += 1
        inner_drop(self, marks, where, dirty, *at)

    monkeypatch.setattr(ou.rewrite._Scratch, "_drop", counting_drop)
    cyclic = glided = 0
    for d in cases:
        try:
            expect, glides = _reference_normal_form(d)
        except ou.CyclicDiagram:
            cyclic += 1
            with pytest.raises(ou.CyclicDiagram):
                ou.ou_normal_form(d)
            continue
        assert ou.ou_normal_form(d, max_iters=glides) == expect
        if glides:
            glided += 1
            with pytest.raises(ou.CapExceeded):
                ou.ou_normal_form(d, max_iters=glides - 1)
    assert len(cases) - cyclic >= 300 and glided > 80 and shared["r2"] > 100


def test_whole_walks_match_the_reference_on_random_acyclic_diagrams(monkeypatch):
    # every glide settles by one rule, whose proof needs x ^ 2 left of y ^ 2
    # when the glide's anchors share a strand: acyclicity gives it, so
    # whole-diagram walks reach the reference's normal form in its number of
    # glides, and a random slot order reaches the same key
    rng = random.Random(89)
    cases = []
    while len(cases) < 500:
        d = random_gauss(rng, rng.randrange(1, 5), rng.randrange(1, 14))
        if ou.is_acyclic(d):
            cases.append(d)
    Scratch = ou.rewrite._Scratch
    inner_glide = Scratch.glide
    counts = {"on": False, "glides": 0, "shared": 0}

    def counting_glide(self, s, i, where):
        if counts["on"]:
            x, y = self.strands[s][i], self.strands[s][i + 1]
            counts["glides"] += 1
            counts["shared"] += where[x ^ 2] == where[y ^ 2]
        return inner_glide(self, s, i, where)

    monkeypatch.setattr(Scratch, "glide", counting_glide)
    for d in cases:
        expect, glides = _reference_normal_form(d)
        counts.update(on=True, glides=0)
        assert ou.ou_normal_form(d) == expect
        assert counts["glides"] == glides
        key = ou.canonical_key(ou.ou_normal_form(d, rng=random.Random(glides)))
        counts["on"] = False
        assert key == ou.canonical_key(expect)
    assert counts["shared"] >= 100


def test_accumulator_max_iters_is_checked_when_set():
    acc = ou.OuAccumulator(3, max_iters=5)
    for cap in (2.5, True, -1):
        with pytest.raises(ValueError, match=re.escape(f"max_iters must be an int >= 0, got {cap!r}")):
            acc.max_iters = cap
        assert acc.max_iters == 5
    acc.max_iters = 0
    assert acc.copy().max_iters == 0
    acc.push(1, 2, 1)  # no glide: the cap is not reached
    with pytest.raises(ou.CapExceeded, match="no OU form after 0 glide moves"):
        acc.push(2, 1, 1)


def test_accumulator_matches_whole_word_normal_form():
    rng = random.Random(59)
    words = [random_vpb_word(rng, rng.randrange(2, 5), rng.randrange(0, 12)) for _ in range(60)]
    for _ in range(30):
        n = rng.randrange(2, 6)
        letters = [rng.choice((1, -1)) * rng.randrange(1, n) for _ in range(rng.randrange(0, 16))]
        words.append(ou.classical_to_vpb(ClassicalBraidWord(n, tuple(letters)))[0])
    for word in words:
        acc = ou.OuAccumulator(word.n)
        for g in word.letters:
            acc.push(g.i, g.j, g.sign)
            d = acc.to_diagram()
            assert ou.is_ou(d) and ou.is_reduced(d) and ou.is_acyclic(d)
        assert acc.canonical_text() == ou.serialize(ou.ch(word))


def test_accumulator_pushes_run_no_cascade_check(monkeypatch):
    # pushes keep a reduced OU state, which is acyclic by construction
    word, _ = ou.classical_to_vpb(ClassicalBraidWord(3, (1, 2) * 30))
    expect = ou.serialize(ou.ch(word))

    def refuse(self):
        raise AssertionError("cascade check on a state the engine built")

    monkeypatch.setattr(ou.rewrite._Scratch, "is_acyclic", refuse)
    assert ou.tabulate(3, 5, "classical").count_exactly == (1, 4, 12, 30, 68, 148)
    assert ou.tabulate(3, 3, "virtual").count_exactly == (1, 12, 132, 1416)
    assert ou.worst_braid(3, 4, "classical") == (ClassicalBraidWord(3, (-1, 2, -1, 2)), 20)
    acc = ou.OuAccumulator(3)
    for g in word.letters:
        acc.push(g.i, g.j, g.sign)
    assert acc.canonical_text() == expect


def test_pushes_without_a_glide_build_no_strand_lookup(monkeypatch):
    # a push whose over strand ends in an over mark, or is empty, is
    # appended or cancels the last crossing at the tails: no strand lookup
    # and no settle loop
    words = [
        ou.parse_vpb("vpb 4: s1,2 s1,3 s1,4 s1,2'"),  # no tail matches
        ou.parse_vpb("vpb 4: s1,2 s3,4 s1,2'"),  # a tail cancel across another letter
        ou.parse_vpb("vpb 3: s1,2 s1,2'"),  # back to the empty state
    ]
    expect = {
        (w.n, w.letters[:k]): ou.serialize(ou.ch(ou.VirtualBraidWord(w.n, w.letters[:k])))
        for w in words
        for k in range(1, len(w.letters) + 1)
    }
    generators = ou.vpb_generators(4)
    expect.update({(4, (g,)): ou.serialize(ou.ch(ou.VirtualBraidWord(4, (g,)))) for g in generators})

    def refuse(self, *args):
        raise AssertionError("strand lookup or settle loop on a push that makes no glide")

    monkeypatch.setattr(ou.rewrite._Scratch, "strand_of", refuse)
    monkeypatch.setattr(ou.rewrite._Scratch, "_settle", refuse)
    for w in words:
        acc = ou.OuAccumulator(w.n)
        for k, g in enumerate(w.letters, start=1):
            acc.push(g.i, g.j, g.sign)
            assert acc.canonical_text() == expect[w.n, w.letters[:k]]
    assert acc.canonical_text() == "vd 3\neos 1 2 3\n"

    pushed = []
    inner = ou.OuAccumulator.push

    def recording(self, i, j, sign):
        inner(self, i, j, sign)
        pushed.append((ou.BraidGenerator(i, j, sign), self.canonical_text()))

    monkeypatch.setattr(ou.OuAccumulator, "push", recording)
    assert ou.tabulate(4, 1, "virtual").count_exactly == (1, 24)
    assert [g for g, _ in pushed] == generators
    for g, text in pushed:
        assert text == expect[4, (g,)]


def test_normalization_checks_every_outside_diagram_once(monkeypatch):
    # every diagram from outside is checked once, whether or not it is
    # already OU after R1/R2 removal
    words = [twist_word(2), twist_word(5), ou.classical_to_vpb(ClassicalBraidWord(3, (1, 2) * 5))[0]]
    diagrams = [ou.iota(w) for w in words] + [ou.ch(w) for w in words]
    assert [ou.is_ou(ou.reduce_r12(d)) for d in diagrams] == [False] * 3 + [True] * 3
    calls = []
    inner = ou.rewrite._Scratch.is_acyclic

    def counting(self):
        calls.append(self)
        return inner(self)

    monkeypatch.setattr(ou.rewrite._Scratch, "is_acyclic", counting)
    for d in diagrams:
        for normalize in (ou.ou_normal_form, ou.xi, lambda d: ou.ou_normal_form(d, rng=random.Random(3))):
            calls.clear()
            normalize(d)
            assert len(calls) == 1


def _overlap_chains() -> list[Diagram]:
    """Hand-built diagrams whose R1 and R2 patterns overlap."""

    def on_strands(n, signs, strands):
        # strands list (crossing, is_over) marks in order; keys count up
        keys, eos, k = {}, [], 0
        for a, marks in enumerate(strands, start=1):
            for mark in marks:
                k += 1
                keys[mark] = (a, k)
            k += 1
            eos.append(k)
        crossings = tuple(Crossing(sg, keys[(c, True)], keys[(c, False)]) for c, sg in enumerate(signs))
        return Diagram(n, crossings, tuple(eos))

    out = []
    for k in range(1, 7):
        alternating = [(-1) ** c for c in range(k)]
        overs = [(c, True) for c in range(k)]
        unders = [(c, False) for c in range(k)]
        # R2(c, c+1) for every c: each middle crossing is in two R2s
        out.append(on_strands(2, alternating, [overs, unders]))
        out.append(on_strands(2, alternating, [overs, unders[::-1]]))
        out.append(on_strands(1, alternating, [overs + unders[::-1]]))
        # nested kinks: the innermost is an R1 inside every enclosing R2
        out.append(on_strands(1, [1] * k, [overs[::-1] + unders]))
        out.append(on_strands(1, alternating, [overs[::-1] + unders]))
        # an R1 between the two halves of an R2 on another strand
        out.append(on_strands(2, alternating, [overs[:1] + unders[:1] + overs[1:], unders[1:]]))
    return out


def test_reduce_r12_matches_oracle():
    rng = random.Random(61)
    cases = _overlap_chains()
    cases += [random_gauss(rng, rng.randrange(1, 4), rng.randrange(0, 9)) for _ in range(200)]
    for _ in range(150):
        w = random_vpb_word(rng, rng.randrange(2, 5), rng.randrange(0, 6))
        cases.append(ou.iota(w * w.inverse()))
    reduced = 0
    for d in cases:
        expect = oracle_reduce_r12(d)
        assert ou.reduce_r12(d) == ou.tidy(expect)
        assert ou.is_reduced(d) == (len(expect.crossings) == len(d.crossings))
        reduced += ou.is_reduced(d)
    assert 0 < reduced < len(cases) // 2


def test_push_glides_once_per_under_mark_of_its_over_strand(monkeypatch):
    # a push's glide chain walks the new over mark left past the under marks
    # of strand i, one glide each, so a cap of exactly that many is enough
    pushes = []
    inner = ou.OuAccumulator.push

    def recording(self, i, j, sign):
        pushes.append((self.copy(), i, j, sign))
        inner(self, i, j, sign)

    monkeypatch.setattr(ou.OuAccumulator, "push", recording)
    ou.tabulate(3, 5, "classical")
    ou.tabulate(3, 3, "virtual")
    monkeypatch.setattr(ou.OuAccumulator, "push", inner)
    assert len(pushes) > 1000
    gliding = 0
    for acc, i, j, sign in pushes:
        k = sum(1 for mk in acc._scratch.strands[i - 1] if not mk & 2)
        ok = acc.copy()
        ok.max_iters = k
        ok.push(i, j, sign)
        if k:
            gliding += 1
            short = acc.copy()
            short.max_iters = k - 1
            with pytest.raises(ou.CapExceeded):
                short.push(i, j, sign)
    assert gliding > len(pushes) // 2


def test_push_matches_reference_normal_form(monkeypatch):
    # after every push, the accumulator's state is the oracle reference's
    # normal form of the state before it with the generator stacked after,
    # and the walk's narrow settle sets trigger R1 and R2 removals after its
    # glides
    rng = random.Random(67)
    words = []
    for _ in range(60):
        words.append(random_vpb_word(rng, rng.randrange(2, 7), rng.randrange(0, 14)))
        n = rng.randrange(2, 7)
        letters = [rng.choice((1, -1)) * rng.randrange(1, n) for _ in range(rng.randrange(0, 14))]
        words.append(ou.classical_to_vpb(ClassicalBraidWord(n, tuple(letters)))[0])
        w = random_vpb_word(rng, rng.randrange(2, 5), rng.randrange(1, 6))
        cut = rng.randrange(len(w.letters) + 1)
        g = rng.choice(ou.vpb_generators(w.n))
        words.append(ou.VirtualBraidWord(w.n, w.letters[:cut] + (g, g.inverse()) + w.letters[cut:]))
    # w g v g^-1 with v off both of g's strands: g^-1 may cancel g at the
    # tails across the letters of v
    for _ in range(20):
        w = random_vpb_word(rng, rng.randrange(4, 7), rng.randrange(0, 7))
        g = rng.choice(ou.vpb_generators(w.n))
        apart = [h for h in ou.vpb_generators(w.n) if not {h.i, h.j} & {g.i, g.j}]
        v = tuple(rng.choice(apart) for _ in range(rng.randrange(1, 5)))
        words.append(ou.VirtualBraidWord(w.n, w.letters + (g,) + v + (g.inverse(),)))

    Scratch = ou.rewrite._Scratch
    removals = {1: 0, 2: 0}
    walk = {"running": False, "glided": False}
    inner_drop, inner_glide = Scratch._drop, Scratch.glide

    def counting_drop(self, marks, *args):
        if walk["running"] and walk["glided"]:
            removals[len(marks)] += 1
        inner_drop(self, marks, *args)

    def flagging_glide(self, *args):
        walk["glided"] = True
        return inner_glide(self, *args)

    monkeypatch.setattr(Scratch, "_drop", counting_drop)
    monkeypatch.setattr(Scratch, "glide", flagging_glide)
    for word in words:
        acc = ou.OuAccumulator(word.n)
        for g in word.letters:
            stacked = ou.compose(acc.to_diagram(), ou.generator_diagram(word.n, g))
            walk.update(running=True, glided=False)
            acc.push(g.i, g.j, g.sign)
            walk["running"] = False
            expect, _ = _reference_normal_form(stacked)
            assert acc.canonical_text() == ou.serialize(expect)
            assert ou.is_ou(acc.to_diagram())
    assert removals[1] and removals[2]


def test_push_glides_settle_the_left_neighbours_of_their_insertions(monkeypatch):
    # every glide, on a push walk or a whole-diagram walk, runs on an acyclic
    # state and hands the settle loop the mark left of each insertion, at its
    # position, and a last inserted mark only when the two last inserted
    # marks are one crossing's: the one around y ^ 2
    Scratch = ou.rewrite._Scratch
    inner_append, inner_glide = Scratch.append_crossing, Scratch.glide
    pushed = []
    seen = {"one crossing": 0, "two crossings": 0, "whole": 0}

    def recording_append(self, *args):
        pushed.append(self._next)
        try:
            inner_append(self, *args)
        finally:
            pushed.pop()

    def checking_glide(self, s, i, *args):
        assert self.is_acyclic()
        x, y = self.strands[s][i], self.strands[s][i + 1]
        new = (self._next, self._next + 1)
        dirty = inner_glide(self, s, i, *args)
        lefts, lasts = set(), []
        for anchor in (x ^ 2, y ^ 2):
            lst = next(lst for lst in self.strands if anchor in lst)
            k = lst.index(anchor)
            assert lst[k - 1] >> 2 in new and lst[k + 1] >> 2 in new
            if k > 1:
                lefts.add(lst[k - 2])
            lasts.append(lst[k + 1])
        one = lasts[0] >> 2 == lasts[1] >> 2
        assert set(dirty) == lefts | ({lasts[1]} if one else set())
        for mk, at in dirty.items():
            assert next(lst for lst in self.strands if mk in lst)[at] == mk
        if pushed:
            assert y >> 2 == pushed[-1]  # the mover is the pushed over mark
            seen["one crossing" if one else "two crossings"] += 1
        else:
            seen["whole"] += 1
        return dirty

    monkeypatch.setattr(Scratch, "append_crossing", recording_append)
    monkeypatch.setattr(Scratch, "glide", checking_glide)
    ou.tabulate(3, 6, "classical")
    ou.tabulate(3, 3, "virtual")
    for k in range(2, 7):
        ou.ou_normal_form(ou.iota(twist_word(k)))
        ou.ch(ou.classical_to_vpb(ClassicalBraidWord(3, (1, 2) * k))[0])
    assert min(seen.values()) > 100


def test_push_rejects_a_generator_outside_its_strands():
    # a strand count that would not print as one is refused up front
    for n in (-2, 0, True, 3.0):
        with pytest.raises(ValueError):
            ou.OuAccumulator(n)
    acc = ou.OuAccumulator(3)
    for i, j in ((0, 2), (2, 0), (4, 1), (1, 4), (-1, 2)):
        with pytest.raises(ou.StrandCountMismatch, match=f"s{i},{j} .* 3 "):
            acc.push(i, j, 1)
    for i, j, sign in ((1, 1, 1), (3, 3, -1), (1, 2, 0), (1, 2, 2)):
        with pytest.raises(ValueError):
            acc.push(i, j, sign)
    assert acc.crossing_count() == 0
    acc.push(3, 1, -1)
    assert acc.canonical_text() == ou.serialize(ou.ch(ou.parse_vpb("vpb 3: s3,1'")))


def _mirror(d: Diagram) -> Diagram:
    return ou.rewrite._Scratch.from_diagram(d).mirrored().to_diagram()


def test_mirrored_is_an_involution():
    moved = 0
    for d, _ in _corpus():
        scratch = ou.rewrite._Scratch.from_diagram(d)
        mirror = scratch.mirrored()
        back = mirror.mirrored()
        assert (back.strands, back._next) == (scratch.strands, scratch._next)
        moved += mirror.strands != scratch.strands
    assert moved > 40


def test_normal_form_commutes_with_the_mirror():
    # NF(R D) = R NF(D), which division's pushes on mirror images rest on; R
    # keeps acyclicity, so the mirror of a cyclic diagram is cyclic too
    cyclic = 0
    for d, _ in _corpus():
        try:
            expect = ou.serialize(_mirror(ou.ou_normal_form(d)))
        except ou.CyclicDiagram:
            cyclic += 1
            with pytest.raises(ou.CyclicDiagram):
                ou.ou_normal_form(_mirror(d))
        else:
            assert ou.serialize(ou.ou_normal_form(_mirror(d))) == expect
    assert cyclic


def test_cap_message_names_the_cap_on_every_path():
    # the walk carries what is left of the budget from strand to strand, but
    # the message, which the CLI prints, names the cap the caller gave
    def message(k):
        return f"no OU form after {k} glide moves"

    d = _classical_diagram(3, (1, 2) * 5)  # 23 glides, on all three strands
    assert ou.ou_normal_form(d, max_iters=23) == ou.ou_normal_form(d)
    for k in range(23):
        with pytest.raises(ou.CapExceeded) as exc:
            ou.ou_normal_form(d, max_iters=k)
        assert str(exc.value) == message(k)

    word, _ = ou.classical_to_vpb(ClassicalBraidWord(3, (1, 2) * 10))
    for k in (0, 1, 2, 5):
        acc = ou.OuAccumulator(3, max_iters=k)
        with pytest.raises(ou.CapExceeded) as exc:
            for g in word.letters:
                acc.push(g.i, g.j, g.sign)
        assert str(exc.value) == message(k)

    T = ou.ou_normal_form(_classical_diagram(4, (1, 2, 3, 1, 2, 1)))
    capped = 0
    for g in ou.divisors(T):
        k = sum(1 for c in T.crossings if c.over[0] == g.j)
        if k:
            capped += 1
            with pytest.raises(ou.CapExceeded) as exc:
                ou.quotient(T, g, max_iters=k - 1)
            assert str(exc.value) == message(k - 1)
    assert capped

    long_pair = ClassicalBraidWord(3, (1, 2) * 30), ClassicalBraidWord(3, (2, 1) * 30)
    with pytest.raises(ou.CapExceeded) as exc:
        ou.classical_braids_equal(*long_pair, max_iters=10)
    assert str(exc.value) == message(10)



_WORD = ClassicalBraidWord(3, (1, 2, 1, 2, 1, 2))
_VWORD, _ = ou.classical_to_vpb(_WORD)
_CAPPED = {
    "ch": lambda cap, path: ou.ch(_VWORD, cap),
    "ou_normal_form": lambda cap, path: ou.ou_normal_form(ou.identity_diagram(2), cap),
    "xi": lambda cap, path: ou.xi(ou.identity_diagram(2), cap),
    "braids_equal": lambda cap, path: ou.braids_equal(_VWORD, _VWORD, cap),
    "classical_key": lambda cap, path: ou.classical_key(_WORD, cap),
    "classical_braids_equal": lambda cap, path: ou.classical_braids_equal(_WORD, _WORD, cap),
    "OuAccumulator": lambda cap, path: ou.OuAccumulator(3, max_iters=cap),
    "tabulate": lambda cap, path: ou.tabulate(3, 1, representatives_path=path, max_iters=cap),
    "divisors": lambda cap, path: ou.divisors(ou.identity_diagram(2), cap),
    "quotient": lambda cap, path: ou.quotient(ou.identity_diagram(2), ou.BraidGenerator(1, 2, 1), cap),
    "peel": lambda cap, path: ou.peel(ou.identity_diagram(2), max_iters=cap),
    "extraction_graph": lambda cap, path: ou.extraction_graph(ou.identity_diagram(2), cap),
    "tabulate max_keys": lambda cap, path: ou.tabulate(3, 1, representatives_path=path, max_keys=cap),
}


@pytest.mark.parametrize(
    "entry, cap",
    [(entry, cap) for entry in _CAPPED if entry != "tabulate max_keys" for cap in (2.5, True, -1, None)]
    + [("tabulate max_keys", cap) for cap in (2.5, True, 0)],
)
def test_caps_must_be_exact_ints(tmp_path, entry, cap):
    # a glide cap is an int >= 0 and a key cap an int >= 1 (or None), checked
    # where the call comes in: before any glide, and before tabulate opens
    # its representatives file
    what, low = ("max_keys", 1) if entry.endswith("max_keys") else ("max_iters", 0)
    path = tmp_path / "reps.txt"
    with pytest.raises(ValueError, match=re.escape(f"{what} must be an int >= {low}, got {cap!r}")):
        _CAPPED[entry](cap, path)
    assert not path.exists()
