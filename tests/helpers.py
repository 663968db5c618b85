"""Independent oracles and small builders used across the test suite.

Everything here recomputes results from first principles (brute force,
exhaustive path enumeration, literal substitution rules) without touching
the library's rewriting engine, so agreement is a real cross-check.  It also
runs the CLI in child processes, for tests that check that output bytes do
not depend on the process.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import outangles
from outangles import (
    BraidGenerator,
    Crossing,
    Diagram,
    UoInterval,
    VirtualBraidWord,
    parse_vpb,
)


def oracle_renumber(d: Diagram) -> Diagram:
    """Sort-and-renumber tidy, written directly from the field definitions."""
    new_over: dict[int, tuple[int, int]] = {}
    new_under: dict[int, tuple[int, int]] = {}
    eos = []
    k = 1
    for a in range(1, d.n + 1):
        on_strand = []
        for idx, c in enumerate(d.crossings):
            if c.over[0] == a:
                on_strand.append((c.over[1], "o", idx))
            if c.under[0] == a:
                on_strand.append((c.under[1], "u", idx))
        on_strand.sort(key=lambda item: item[0])
        for _, role, idx in on_strand:
            if role == "o":
                new_over[idx] = (a, k)
            else:
                new_under[idx] = (a, k)
            k += 1
        eos.append(k)
        k += 1
    crossings = sorted(
        (Crossing(c.sign, new_over[idx], new_under[idx]) for idx, c in enumerate(d.crossings)),
        key=lambda c: c.over[1],
    )
    return Diagram(d.n, tuple(crossings), tuple(eos))


def oracle_serialize(d: Diagram) -> str:
    """Canonical text of :func:`oracle_renumber`'s tidy form, every key
    written by ``str``."""
    t = oracle_renumber(d)
    lines = [f"vd {t.n}"]
    lines += [f"x {'+' if c.sign > 0 else '-'} {c.over[1]} {c.under[1]}" for c in t.crossings]
    lines.append("eos " + " ".join(str(k) for k in t.eos_keys))
    return "\n".join(lines) + "\n"


def cascade_edges(d: Diagram) -> tuple[list[tuple[int, object]], list[tuple[object, object]]]:
    """Mark nodes and cascade edges (strand successors plus over-to-under
    drops), built straight from the keys."""
    nodes = []
    for idx, c in enumerate(d.crossings):
        nodes.append((c.over[0], c.over[1], "o", idx))
        nodes.append((c.under[0], c.under[1], "u", idx))
    edges = []
    for a in range(1, d.n + 1):
        on_strand = sorted(nd for nd in nodes if nd[0] == a)
        for u, v in zip(on_strand, on_strand[1:]):
            edges.append((u, v))
    for idx, c in enumerate(d.crossings):
        edges.append(
            ((c.over[0], c.over[1], "o", idx), (c.under[0], c.under[1], "u", idx))
        )
    return nodes, edges


def oracle_is_acyclic(d: Diagram) -> bool:
    """Exhaustive cascade-path search: follow every path, fail on a repeat."""
    nodes, edges = cascade_edges(d)
    succ: dict[object, list[object]] = {nd: [] for nd in nodes}
    for u, v in edges:
        succ[u].append(v)

    def explore(node, on_path):
        for nxt in succ[node]:
            if nxt in on_path:
                return False
            if not explore(nxt, on_path | {nxt}):
                return False
        return True

    return all(explore(nd, frozenset([nd])) for nd in nodes)


def oracle_is_ou(d: Diagram) -> bool:
    for a in range(1, d.n + 1):
        marks = []
        for c in d.crossings:
            if c.over[0] == a:
                marks.append((c.over[1], True))
            if c.under[0] == a:
                marks.append((c.under[1], False))
        marks.sort()
        roles = [over for _, over in marks]
        if roles != sorted(roles, reverse=True):
            return False
    return True


def oracle_glide(d: Diagram, iv: UoInterval) -> Diagram:
    """Literal substitution rule with rational one-third offsets (pre-tidy)."""
    a = d.crossings[iv.under_crossing]
    b = d.crossings[iv.over_crossing]
    s1, s2 = a.sign, b.sign
    i1, j1, i2, j2 = a.over, a.under, b.over, b.under
    rest = [
        c
        for idx, c in enumerate(d.crossings)
        if idx not in (iv.under_crossing, iv.over_crossing)
    ]
    rest.append(Crossing(s2, j1, j2))
    rest.append(Crossing(s1, i1, i2))
    rest.append(
        Crossing(
            s1 * s2,
            (i1[0], i1[1] - Fraction(s1, 3)),
            (j2[0], j2[1] + Fraction(s2, 3)),
        )
    )
    rest.append(
        Crossing(
            -s1 * s2,
            (i1[0], i1[1] + Fraction(s1, 3)),
            (j2[0], j2[1] - Fraction(s2, 3)),
        )
    )
    return Diagram(d.n, tuple(rest), d.eos_keys)


def oracle_reduce_r12(d: Diagram) -> Diagram:
    """Remove R1 and R2 patterns until none remain, least pattern first
    (untidied).

    Patterns are read off the keys: marks of one strand are adjacent when
    no other key of that strand lies between them.  An R1 is a crossing
    whose two marks are adjacent; an R2 is two crossings of opposite signs
    whose over marks are adjacent and whose under marks are adjacent.  A
    pattern's place is its first mark in (strand, key) order, and an R1
    goes before an R2 at the same place.
    """
    crossings = list(d.crossings)
    while True:
        nxt: dict[tuple[int, object], tuple[int, object]] = {}
        for a in range(1, d.n + 1):
            keys = sorted(
                {c.over[1] for c in crossings if c.over[0] == a}
                | {c.under[1] for c in crossings if c.under[0] == a}
            )
            nxt.update(((a, k), (a, m)) for k, m in zip(keys, keys[1:]))

        def adjacent(p, q):
            return nxt.get(p) == q or nxt.get(q) == p

        patterns = [(min(c.over, c.under), 0, (c,)) for c in crossings if adjacent(c.over, c.under)]
        for c, e in itertools.combinations(crossings, 2):
            if c.sign == -e.sign and adjacent(c.over, e.over) and adjacent(c.under, e.under):
                patterns.append((min(c.over, c.under, e.over, e.under), 1, (c, e)))
        if not patterns:
            return Diagram(d.n, tuple(crossings), d.eos_keys)
        _, _, dead = min(patterns, key=lambda p: p[:2])
        crossings = [c for c in crossings if c not in dead]


def _reference_normal_form(d: Diagram) -> tuple[Diagram, int]:
    """The normal form by the oracle's R1/R2 removal and the public
    full-scan steps, and its glide count: reduce, then glide at the first
    under-then-over interval, repeated.  The glide, the interval scan and
    the cascade check are the library's public ones (``glide_once`` is
    checked against :func:`oracle_glide`); the R1/R2 removal and the choice
    of interval are not the engine's."""
    d = outangles.tidy(oracle_reduce_r12(d))
    if outangles.uo_intervals(d) and not outangles.is_acyclic(d):
        raise outangles.CyclicDiagram("cyclic")
    glides = 0
    while intervals := outangles.uo_intervals(d):
        d = outangles.tidy(oracle_reduce_r12(outangles.glide_once(d, intervals[0])))
        glides += 1
    return d, glides


def word_is_proud(word, kind: str) -> bool:
    """Two-letter pride predicate applied along the word."""
    for g, h in zip(word, word[1:]):
        if kind == "virtual":
            if h == g.inverse():
                return False
            if not ({g.i, g.j} & {h.i, h.j}) and h.sort_key() < g.sort_key():
                return False
        else:
            if h == -g:
                return False
            gk = (abs(g), 0 if g > 0 else 1)
            hk = (abs(h), 0 if h > 0 else 1)
            if abs(abs(g) - abs(h)) >= 2 and hk < gk:
                return False
    return True


def _poly_add(*terms: tuple[dict[int, int], int, int]) -> dict[int, int]:
    """Sum of ``c * t**e * p`` over the ``(p, c, e)`` terms, zeros dropped."""
    out: dict[int, int] = {}
    for p, c, e in terms:
        for exp, coef in p.items():
            out[exp + e] = out.get(exp + e, 0) + c * coef
    return {exp: coef for exp, coef in out.items() if coef}


def burau_matrix(n: int, letters) -> tuple:
    """Unreduced Burau image of the classical word ``letters`` on ``n``
    strands, as a hashable tuple of rows of Laurent polynomials (each a
    sorted tuple of ``(exponent, coefficient)`` pairs).

    Letter ``k`` right-multiplies by the identity with the block
    ``[[1-t, t], [1, 0]]`` on rows and columns ``k, k+1``, so it updates
    only columns ``k`` and ``k+1``; letter ``-k`` uses the inverse block
    ``[[0, 1], [1/t, 1 - 1/t]]``.  Faithful on 3 strands (Magnus-Peluso
    1969), so there it decides braid equality.
    """
    rows = [[{0: 1} if r == c else {} for c in range(n)] for r in range(n)]
    for letter in letters:
        a = abs(letter) - 1
        for row in rows:
            x, y = row[a], row[a + 1]
            if letter > 0:
                row[a], row[a + 1] = _poly_add((x, 1, 0), (x, -1, 1), (y, 1, 0)), _poly_add((x, 1, 1))
            else:
                row[a], row[a + 1] = _poly_add((y, 1, -1)), _poly_add((x, 1, 0), (y, 1, 0), (y, -1, -1))
    return tuple(tuple(tuple(sorted(p.items())) for p in row) for row in rows)


def _free_inverse(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-g for g in reversed(word))


def _free_reduced(word: tuple[int, ...]) -> tuple[int, ...]:
    """``word`` with every adjacent ``g, -g`` cancelled."""
    out: list[int] = []
    for g in word:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def artin_step(images: tuple, k: int) -> tuple:
    """The Artin images after one more classical letter ``k``: the images of
    the free generators x_1 .. x_n, each a freely reduced tuple of signed
    indices (``-k`` is x_k's inverse).

    Letter ``k`` acts by x_k -> x_k x_{k+1} x_k^-1, x_{k+1} -> x_k, and
    ``-k`` by x_k -> x_{k+1}, x_{k+1} -> x_{k+1}^-1 x_k x_{k+1}; the images
    compose by substitution.
    """
    a = abs(k) - 1
    x, y = images[a], images[a + 1]
    if k > 0:
        x, y = _free_reduced(x + y + _free_inverse(x)), x
    else:
        x, y = y, _free_reduced(_free_inverse(y) + x + y)
    return images[:a] + (x, y) + images[a + 2:]


def artin_image(n: int, letters) -> tuple:
    """Artin image of the classical word ``letters`` on ``n`` strands, one
    :func:`artin_step` per letter.  Faithful on every braid group (Artin
    1925), so it decides braid equality.  Images grow exponentially on
    mixed-sign words: keep the words short.
    """
    return functools.reduce(artin_step, letters, tuple((k,) for k in range(1, n + 1)))


def mccool_step(images: tuple, g: BraidGenerator) -> tuple:
    """The McCool images after one more virtual pure braid letter ``g``, in
    the form of :func:`artin_step`: ``s(i,j)^e`` acts by
    x_j -> x_i^-e x_j x_i^e and fixes the other generators."""
    x = images[g.i - 1]
    if g.sign > 0:
        x = _free_inverse(x)
    j = g.j - 1
    return images[:j] + (_free_reduced(x + images[j] + _free_inverse(x)),) + images[j + 1:]


def mccool_image(n: int, letters) -> tuple:
    """McCool image of the virtual pure braid word ``letters`` (a sequence
    of :class:`BraidGenerator`) on ``n`` strands, one :func:`mccool_step`
    per letter.  The action factors through the welded quotient (Fenn,
    Rimanyi and Rourke 1997), so it is only sound for virtual braids: equal
    braids have equal images, but unequal braids may too.  It is faithful
    on the welded pure braid group.
    """
    return functools.reduce(mccool_step, letters, tuple((k,) for k in range(1, n + 1)))


def twist_word(k: int) -> VirtualBraidWord:
    """The k-twist two-strand braid."""
    if k % 2 == 0:
        toks = ["s1,2", "s2,1"] * (k // 2)
    else:
        toks = ["s2,1"] + ["s1,2", "s2,1"] * ((k - 1) // 2)
    return parse_vpb("vpb 2: " + " ".join(toks))


def all_two_crossing_diagrams_two_strands():
    """Every Gauss diagram with exactly two crossings on two strands.

    Enumerates all strand assignments of the four marks, all interleavings
    on each strand, and both sign choices.
    """
    marks = [("o", 0), ("u", 0), ("o", 1), ("u", 1)]
    for strands in itertools.product((1, 2), repeat=4):
        groups: dict[int, list[tuple[str, int]]] = {1: [], 2: []}
        for mk, a in zip(marks, strands):
            groups[a].append(mk)
        orders1 = itertools.permutations(groups[1])
        for o1 in orders1:
            for o2 in itertools.permutations(groups[2]):
                key_of: dict[tuple[str, int], tuple[int, int]] = {}
                k = 1
                for a, seq in ((1, o1), (2, o2)):
                    for mk in seq:
                        key_of[mk] = (a, k)
                        k += 1
                    k += 1  # reserve an end-of-strand key
                eos = (len(o1) + 1, len(o1) + len(o2) + 2)
                for s0, s1 in itertools.product((1, -1), repeat=2):
                    yield Diagram(
                        2,
                        (
                            Crossing(s0, key_of[("o", 0)], key_of[("u", 0)]),
                            Crossing(s1, key_of[("o", 1)], key_of[("u", 1)]),
                        ),
                        eos,
                    )


def all_path_words(graph) -> list[tuple[BraidGenerator, ...]]:
    """Every source-to-sink label sequence of an extraction graph."""
    succ: dict[bytes, list[tuple[BraidGenerator, bytes]]] = {}
    for src, g, dst in graph.edges:
        succ.setdefault(src, []).append((g, dst))
    out = []

    def walk(key, acc):
        if key == graph.sink and key not in succ:
            out.append(tuple(acc))
            return
        for g, dst in succ.get(key, []):
            walk(dst, acc + [g])

    walk(graph.source, [])
    return out


def is_bipartite_undirected(graph) -> bool:
    adj: dict[bytes, set[bytes]] = {k: set() for k in graph.nodes}
    for src, _, dst in graph.edges:
        adj[src].add(dst)
        adj[dst].add(src)
    color: dict[bytes, int] = {}
    for start in graph.nodes:
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def reduced_word(perm: tuple[int, ...]) -> tuple[int, ...]:
    """A reduced word of ``perm`` (one-line notation) as positive classical
    letters: letter ``k`` swaps the entries in positions ``k`` and ``k + 1``,
    and the letters turn the identity into ``perm``.  Bubble sort makes one
    swap per inversion, so the word is reduced."""
    p, swaps = list(perm), []
    for end in range(len(p) - 1, 0, -1):
        for k in range(end):
            if p[k] > p[k + 1]:
                p[k], p[k + 1] = p[k + 1], p[k]
                swaps.append(k + 1)
    return tuple(reversed(swaps))


def inversions(perm: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    """The value pairs ``(a, b)``, ``a < b``, with ``b`` before ``a`` in ``perm``."""
    return frozenset((b, a) for i, a in enumerate(perm) for b in perm[:i] if b > a)


def weak_order_interval(perm: tuple[int, ...]) -> tuple[int, int]:
    """Node and edge counts of the interval [e, ``perm``] of the right weak
    order on S_n and of its Hasse diagram.  ``u <= w`` iff the inversions of
    ``u`` are inversions of ``w`` (Bjorner and Brenti, Combinatorics of
    Coxeter Groups, Prop. 3.1.3), and a cover swaps two adjacent entries
    into an inversion."""
    top = inversions(perm)
    below = {u for u in itertools.permutations(sorted(perm)) if inversions(u) <= top}
    covers = [
        u for u in below for k in range(len(u) - 1)
        if u[k] < u[k + 1] and u[:k] + (u[k + 1], u[k]) + u[k + 2:] in below
    ]
    return len(below), len(covers)


def random_gauss(rng: random.Random, n: int, c: int) -> Diagram:
    """A random Gauss diagram with ``c`` crossings on ``n`` strands, with
    rational keys and its crossings in random order."""
    per_strand: list[list[tuple[int, bool]]] = [[] for _ in range(n)]
    for cid in range(c):
        for over in (True, False):
            per_strand[rng.randrange(n)].append((cid, over))
    keys: dict[tuple[int, bool], tuple[int, Fraction]] = {}
    eos = []
    k = Fraction(rng.randrange(-3, 3))
    for a, marks in enumerate(per_strand, start=1):
        rng.shuffle(marks)
        for mark in marks:
            k += Fraction(rng.randrange(1, 4), rng.randrange(1, 4))
            keys[mark] = (a, k)
        k += Fraction(1, rng.randrange(1, 3))
        eos.append(k)
    crossings = [
        Crossing(rng.choice((1, -1)), keys[(cid, True)], keys[(cid, False)]) for cid in range(c)
    ]
    rng.shuffle(crossings)
    return Diagram(n, tuple(crossings), tuple(eos))


def random_reduced_ou(rng: random.Random, n: int, c: int) -> Diagram:
    """A random reduced OU tangle with at most ``c`` crossings on ``n``
    strands, built mark by mark: each crossing's over mark goes at a random
    place among its strand's over marks and its under mark among its
    strand's under marks, on two random strands that may be one; then
    :func:`oracle_reduce_r12` removes R1 and R2 patterns, which keeps every
    strand over-then-under."""
    overs: list[list[int]] = [[] for _ in range(n)]
    unders: list[list[int]] = [[] for _ in range(n)]
    for cid in range(c):
        for marks in (overs[rng.randrange(n)], unders[rng.randrange(n)]):
            marks.insert(rng.randint(0, len(marks)), cid)
    keys: dict[tuple[int, bool], tuple[int, int]] = {}
    eos = []
    k = 1
    for a in range(1, n + 1):
        for over, marks in ((True, overs[a - 1]), (False, unders[a - 1])):
            for cid in marks:
                keys[(cid, over)] = (a, k)
                k += 1
        eos.append(k)
        k += 1
    crossings = tuple(Crossing(rng.choice((1, -1)), keys[(cid, True)], keys[(cid, False)]) for cid in range(c))
    return outangles.tidy(oracle_reduce_r12(Diagram(n, crossings, tuple(eos))))


def random_vpb_word(rng: random.Random, n: int, length: int) -> VirtualBraidWord:
    letters = []
    for _ in range(length):
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        while j == i:
            j = rng.randrange(1, n + 1)
        letters.append(BraidGenerator(i, j, rng.choice((1, -1))))
    return VirtualBraidWord(n, tuple(letters))


def count_diagram_builds(monkeypatch) -> list[Diagram]:
    """A list that collects every diagram built from now on: each one the
    checked constructor makes (``Diagram.__post_init__``, which also builds
    each generator's one-crossing diagram) and each one the engine makes
    without the checks (``diagram._assemble``, rebound in every module that
    imports it)."""
    built: list[Diagram] = []
    check = Diagram.__post_init__
    assemble = outangles.diagram._assemble

    def counting_check(self):
        built.append(self)
        check(self)

    def counting_assemble(strands):
        d = assemble(strands)
        built.append(d)
        return d

    monkeypatch.setattr(Diagram, "__post_init__", counting_check)
    for module in (outangles.diagram, outangles.rewrite):
        assert module._assemble is assemble
        monkeypatch.setattr(module, "_assemble", counting_assemble)
    return built


# string hashes, and so the iteration order of sets of strings, differ between these
HASH_SEEDS = ("0", "1", "31337")


def run_cli(argv: list[str], hash_seed: str) -> subprocess.CompletedProcess:
    """``python -m outangles.cli *argv`` in a child process whose
    ``PYTHONHASHSEED`` is ``hash_seed``.

    The child imports the same package as this process, whether it is
    installed or found through ``PYTHONPATH``, from any working directory; a
    glide cap set in the caller's shell must not change what it emits.
    """
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(outangles.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "OU_MAX_ITERS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, "-m", "outangles.cli", *argv], capture_output=True, env=env
    )


def index_words(levels) -> list[tuple]:
    """The words of ``_braid_index``'s ``levels``, in index order: each
    representative is its parent's word and its letter."""
    words, out = [()], [()]
    for parents, letters in levels:
        words = [words[p] + (h,) for p, h in zip(parents, letters)]
        out += words
    return out


def tabulate_in_children(tmp_dir, n: int, m: int, kind: str) -> set[tuple[bytes, bytes]]:
    """Run ``outangles tabulate`` once per seed in :data:`HASH_SEEDS` and
    return the distinct ``(stdout, representatives file)`` byte pairs."""
    runs = set()
    for seed in HASH_SEEDS:
        path = os.path.join(tmp_dir, f"representatives-{seed}.txt")
        argv = ["tabulate", "--kind", kind, "-n", str(n), "-m", str(m), "--representatives", path]
        proc = run_cli(argv, seed)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        with open(path, "rb") as fh:
            runs.add((proc.stdout, fh.read()))
    return runs
