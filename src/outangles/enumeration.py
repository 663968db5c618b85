"""Braid tabulation and proud-word enumeration.

:func:`tabulate` counts the braids with at most ``m`` crossings by growing
one representative word per braid, one level (one letter) at a time: a word
is extended only by its "grown" letters, those that made a new braid from
the word's suffix one level earlier (see :func:`tabulate`).  Distinct braids
are found by deduplicating on the canonical key of the reduced OU form
(joined with the end permutation for classical words, which need not be
pure).  :func:`proud_words` and :func:`worst_braid` walk "proud" words: no
letter is immediately followed by its inverse, and adjacent commuting
letters (disjoint strand support, or positions at distance two or more in
the classical case) must appear in generator order.  Pride only prunes
redundant words; every braid keeps a proud word of its minimal length.
"""

from __future__ import annotations

import contextlib
import functools
import os
import re
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .braid import (
    BraidGenerator,
    ClassicalBraidWord,
    VirtualBraidWord,
    _classical_crossing,
    parse_classical,
    parse_vpb,
    permuted_key,
    vpb_generators,
)
from .diagram import _check_count, key_hash
from .errors import ParseError, ResourceLimit
from .rewrite import DEFAULT_MAX_ITERS, OuAccumulator

__all__ = [
    "TabulationReport",
    "fibonacci_check",
    "generators",
    "proud_followers",
    "proud_words",
    "read_representatives",
    "tabulate",
    "worst_braid",
]

KINDS = ("virtual", "classical")


def generators(n: int, kind: str = "virtual") -> list[BraidGenerator] | list[int]:
    """Generator alphabet, in the fixed enumeration order.

    Virtual: all ``s(i,j)^±`` sorted by ``(i, j, sign)`` with + before -.
    Classical: ``+1, -1, +2, -2, ...`` up to position ``n - 1``.
    """
    _check_kind(kind)
    _check_count(n, 2)
    if kind == "virtual":
        return vpb_generators(n)
    out: list[int] = []
    for k in range(1, n):
        out.extend((k, -k))
    return out


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def _commute_virtual(g: BraidGenerator, h: BraidGenerator) -> bool:
    return not ({g.i, g.j} & {h.i, h.j})


def proud_followers(g, n: int, kind: str = "virtual"):
    """Generators that may follow ``g`` without ruining a word's pride:
    everything except ``g``'s inverse and commuting generators that sort
    before ``g``.  Classical letters commute when their positions are two or
    more apart, and then sort by position alone."""
    _check_kind(kind)
    if type(g) is not (BraidGenerator if kind == "virtual" else int):
        raise ValueError(f"{g!r} is not a {kind} generator")
    if kind == "virtual":
        if max(g.i, g.j) > n:
            raise ValueError(f"{g.token()} is not a generator on {n} strands")
        return [
            h
            for h in vpb_generators(n)
            if h != g.inverse() and not (_commute_virtual(g, h) and h.sort_key() < g.sort_key())
        ]
    if not 0 < abs(g) < n:
        raise ValueError(f"letter {g!r} is not a generator on {n} strands")
    return [h for h in generators(n, "classical") if h != -g and abs(g) - abs(h) < 2]


def proud_words(n: int, m: int, kind: str = "virtual"):
    """Yield all proud words of length exactly ``m``, in lexicographic order."""
    _check_count(m, 0, "m")
    letters = _proud_letters(n, kind)
    # one lazy generator per level, each drawing on the one before it
    words = iter([()])
    for _ in range(m):
        words = (w + (h,) for w in words for h in letters(w))
    yield from words


def _proud_letters(n: int, kind: str):
    """``letters(word)``: the proud followers of ``word``'s last letter, and
    every generator after the empty word.  Each generator's follower list is
    built on its first lookup."""
    first = generators(n, kind)
    followers = functools.cache(lambda g: proud_followers(g, n, kind))
    return lambda word: followers(word[-1]) if word else first


@dataclass(frozen=True)
class TabulationReport:
    """Exact braid counts per crossing number, plus where the
    representatives were written (one representative word per braid)."""

    n: int
    m: int
    kind: str
    count_exactly: tuple[int, ...]
    representatives_path: str | None = None

    def cumulative(self) -> tuple[int, ...]:
        return tuple(accumulate(self.count_exactly))

    def table_text(self) -> str:
        rows = [("m", "exact", "cumulative")]
        for m, (exact, cum) in enumerate(zip(self.count_exactly, self.cumulative())):
            rows.append((str(m), str(exact), str(cum)))
        widths = [max(len(r[c]) for r in rows) for c in range(3)]
        return "\n".join(
            "  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)) for row in rows
        ) + "\n"

    def structured_lines(self) -> str:
        return "".join(
            f"{self.n} {m} {self.kind} {count}\n"
            for m, count in enumerate(self.count_exactly)
        )


def _ou_frontier(n: int, kind: str, max_iters: int) -> tuple:
    """The OU engine's ``(root, step, key)`` for :func:`_braid_index`, the
    only code that knows how a letter moves a state.  A virtual state is an
    :class:`OuAccumulator`; a classical one also holds the position
    permutation, which joins the key because the braid need not be pure."""
    root = OuAccumulator(n, max_iters)
    if kind == "virtual":
        def step(acc: OuAccumulator, g: BraidGenerator) -> OuAccumulator:
            child = acc.copy()
            child.push(g.i, g.j, g.sign)
            return child

        return root, step, lambda acc: acc.canonical_text().encode("ascii")

    def classical_step(state: tuple, k: int) -> tuple:
        acc, perm = state[0].copy(), list(state[1])
        acc.push(*_classical_crossing(perm, k))
        return acc, perm

    def classical_key(state: tuple) -> bytes:
        return permuted_key(tuple(state[1]), state[0].canonical_text().encode("ascii"))

    return (root, list(range(1, n + 1))), classical_step, classical_key


def _children(states: list, step, letters):
    """The children of one level's ``(tag, state)`` pairs, as ``(parent tag,
    letter, child state, parent position)``: each state stepped by every
    letter of ``letters(tag)``, in parent order then in the order given,
    which must be generator order (or stand for it, as the positions of
    :func:`_braid_index` do).  A level built from these children in that
    order stays in lexicographic word order.  The list ``states`` is emptied
    as it is read, so a parent is freed once its children are made, not
    with its whole level; that lowers the peak memory of the deepest level."""
    states.reverse()
    for position in range(len(states)):
        tag, state = states.pop()
        for h in letters(tag):
            yield tag, h, step(state, h), position


def tabulate(
    n: int,
    m: int,
    kind: str = "virtual",
    *,
    representatives_path: str | os.PathLike | None = None,
    max_keys: int | None = None,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> TabulationReport:
    """Count braids with exactly ``0 .. m`` crossings on ``n`` strands.

    A level-synchronous frontier over distinct braids: level ``L`` holds one
    word per braid first reached with ``L`` letters, and only those words
    are extended to level ``L + 1``.  A word whose braid was already
    reached by a shorter word cannot give a braid a smaller first length, so
    each braid is counted at its minimal crossing number.  Levels stay in
    lexicographic order, so the first word seen for a braid is its
    lexicographically smallest minimal word; every prefix of that word is
    itself the smallest minimal word of its own braid, so the frontier does
    reach it.  That word is the braid's representative.

    Every suffix of a representative is a representative as well, so a
    frontier word ``w`` is extended only by the letters ``h`` for which
    ``w[1:] h`` was a new braid one level earlier ("grown" letters), and the
    empty word by every generator.  Proof.
    Let ``w = a v`` be a representative.  Then ``v`` is minimal, or ``a``
    followed by a shorter word for ``v``'s braid would be a shorter word for
    ``w``'s braid.  And ``v`` is least among the minimal words of its braid,
    or swapping the least one in would give a lexicographically smaller
    minimal word for ``w``'s braid.  So a child whose suffix is no
    representative is no representative, and the representative of its braid
    enters the index earlier: at a shorter level, or earlier in the same
    lexicographically ordered level.  Conversely every representative is
    still pushed, by induction on its length: its prefix is on the frontier
    and its suffix was new.  So counts and file bytes do not change.  The
    rule implies pride: a kept word is minimal and least, so no letter in it
    is followed by its inverse or by a commuting letter that sorts before it.

    ``representatives_path`` is opened for writing before the frontier
    runs, so an unwritable path fails at once, but written only after it
    returns, so a run that raises leaves it empty.  It has one line per braid
    in index order: by first length, then lexicographic word order.  No
    word is held: the index holds keys, a frontier entry its suffix's
    position, and a line's tokens are its parent's and its letter's.
    """
    _check_kind(kind)
    _check_count(n, 2)
    _check_count(m, 0, "m")
    _check_count(max_iters, 0, "max_iters")
    if max_keys is not None:
        _check_count(max_keys, 1, "max_keys")
    path_str = None if representatives_path is None else os.fspath(representatives_path)
    alphabet = generators(n, kind)
    with contextlib.nullcontext() if path_str is None else open(path_str, "w", encoding="ascii") as fh:
        index, levels = _braid_index(*_ou_frontier(n, kind, max_iters), alphabet, m, max_keys)
        if fh is not None:
            token = BraidGenerator.token if kind == "virtual" else str
            spaced = {h: token(h) + " " for h in alphabet}
            keys = iter(index)
            tokens = [""]  # a level's letter tokens, each followed by a space
            for depth in range(m + 1):
                if depth:
                    parents, letters = levels[depth - 1]
                    prev = tokens
                    tokens = (prev[p] + spaced[h] for p, h in zip(parents, letters))
                    if depth < m:  # the next level's parents
                        tokens = list(tokens)
                fh.writelines(f"{kind} {n} {depth} {t}{key_hash(next(keys))}\n" for t in tokens)
    counts = (1, *(len(letters) for _, letters in levels))
    return TabulationReport(n, m, kind, counts, path_str)


def _braid_index(root, step, key, alphabet: list, m: int, max_keys: int | None) -> tuple:
    """``(index, levels)`` of every braid with at most ``m`` letters of
    ``alphabet``, by the frontier of :func:`tabulate` from the empty word's
    state ``root``: ``index`` maps keys to ``None`` in file order, and
    ``levels[L - 1]`` holds level ``L``'s parent positions and letters.
    ``step(state, letter)`` returns a new state, and ``key`` must decide
    equality in the group: the proof uses nothing else.

    A frontier entry is ``(suffix position, state)``: where its word less
    the first letter sits in the level before.  Its grown letters are that
    suffix's children one level on, a run of that level's parent positions
    (non-decreasing, by :func:`_children`'s order), and a child's suffix is
    the position in the run that gave its letter."""
    index = {key(root): None}
    levels = []
    level = [(0, root)]
    runs, grown = [0] * len(alphabet), alphabet  # the empty word grows every letter

    def run(parent):  # where the children of ``parent`` sit one level on
        return range(bisect_left(runs, parent), bisect_right(runs, parent))

    for depth in range(1, m + 1):
        fresh = []
        parents, letters = array("I"), []
        for _, at, state, position in _children(level, lambda state, at: step(state, grown[at]), run):
            k = key(state)
            if k in index:
                continue
            if max_keys is not None and len(index) >= max_keys:
                raise ResourceLimit(f"more than {max_keys} stored keys")
            index[k] = None
            parents.append(position)
            letters.append(grown[at])
            if depth < m:  # the last level's states are never extended
                fresh.append((at if depth > 1 else 0, state))  # level 1: the empty suffix
        levels.append((parents, letters))
        level, runs, grown = fresh, parents, letters
    return index, levels


def read_representatives(path: str | os.PathLike):
    """Parse a representatives file back into words.

    Yields ``(word, first_length, key_hash)`` where ``word`` is a
    :class:`VirtualBraidWord` or :class:`ClassicalBraidWord`.  A malformed
    line raises :class:`ParseError` carrying its line number.
    """
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if not raw.isascii():
                raise ParseError("non-ASCII representative line", line_no)
            parts = raw.decode("ascii").split()
            if len(parts) < 4 or parts[0] not in KINDS:
                raise ParseError("expected '<kind> <n> <length> <letters> <key hash>'", line_no)
            kind, n, length, tokens = parts[0], parts[1], parts[2], " ".join(parts[3:-1])
            try:
                if kind == "virtual":
                    word = parse_vpb(f"vpb {n}: {tokens}")
                else:
                    word = parse_classical(f"br {n}: {tokens}")
            except ParseError as exc:
                raise ParseError(str(exc), line_no) from None
            if length != str(len(word.letters)):
                raise ParseError(f"first length {length!r} is not the word's length {len(word.letters)}", line_no)
            if not re.fullmatch("[0-9a-f]{12}", parts[-1]):
                raise ParseError(f"key hash {parts[-1]!r} is not 12 lowercase hex digits", line_no)
            yield word, len(word.letters), parts[-1]


def fibonacci_check(m_max: int, counts: tuple[int, ...] | None = None) -> bool:
    """Whether classical 3-strand counts match ``6*2^m - 2*F(m+3) - 2``.

    ``counts`` may supply precomputed exact-m counts (index = m); otherwise
    the table is tabulated here.
    """
    _check_count(m_max, 1, "m_max")
    if counts is None:
        counts = tabulate(3, m_max, "classical").count_exactly
    if len(counts) <= m_max:
        raise ValueError(f"need counts for m = 0 .. {m_max}, got {len(counts)}")
    fib = [0, 1, 1]
    while len(fib) <= m_max + 3:
        fib.append(fib[-1] + fib[-2])
    return all(
        counts[m] == 6 * 2**m - 2 * fib[m + 3] - 2 for m in range(1, m_max + 1)
    )


def worst_braid(
    n: int,
    m: int,
    kind: str = "virtual",
    max_iters: int = DEFAULT_MAX_ITERS,
) -> tuple[VirtualBraidWord | ClassicalBraidWord, int]:
    """A proud word of length ``m`` maximizing the reduced crossing number.

    Ties break to the lexicographically first word, so the result is
    deterministic.
    """
    _check_kind(kind)
    _check_count(n, 2)
    _check_count(m, 1, "m")
    root, step, key = _ou_frontier(n, kind, max_iters)
    proud = _proud_letters(n, kind)
    level = [((), root)]
    for _ in range(m - 1):
        # same braid and same last letter: identical proud subtrees
        seen = set()
        fresh = []
        for word, h, state, _ in _children(level, step, proud):
            if (pair := (key(state), h)) not in seen:
                seen.add(pair)
                fresh.append((word + (h,), state))
        level = fresh
    xi = (lambda acc: acc.crossing_count()) if kind == "virtual" else (lambda state: state[0].crossing_count())
    # max() keeps the first of equal maxima, and the last level is in lex order
    word, h, state, _ = max(_children(level, step, proud), key=lambda child: xi(child[2]))
    return (VirtualBraidWord if kind == "virtual" else ClassicalBraidWord)(n, word + (h,)), xi(state)
