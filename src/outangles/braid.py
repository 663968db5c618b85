"""Virtual pure braid words, classical braid words, and their OU invariants.

A virtual pure braid word is a sequence of generators ``s(i,j)^±``, read
"strand i crosses over strand j".  Words include into diagrams one crossing
per letter (``iota``); the reduced OU form of that diagram (``ch``) is a
complete invariant: two words are equal in the virtual pure braid group iff
their ``ch`` diagrams have equal canonical keys.

Classical braid words use the usual signed position notation: letter ``+k``
crosses the strand in position ``k`` over the strand in position ``k + 1``,
``-k`` is its inverse.  They convert to virtual words by tracking which
strand currently occupies each position; non-pure words additionally carry
their end permutation, which joins the canonical key for identity tests.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .diagram import Crossing, Diagram, _check_count, _parse_int, canonical_key, compose, identity_diagram
from .errors import ParseError, StrandCountMismatch
from .rewrite import DEFAULT_MAX_ITERS, ou_normal_form

__all__ = [
    "BraidGenerator",
    "ClassicalBraidWord",
    "VirtualBraidWord",
    "braids_equal",
    "ch",
    "classical_braids_equal",
    "classical_key",
    "classical_to_vpb",
    "generator_diagram",
    "iota",
    "parse_classical",
    "parse_vpb",
    "vpb_generators",
]

Permutation = tuple[int, ...]  # image array: position -> strand occupying it

# the most strands a parsed word may name: a diagram holds one entry per strand
MAX_STRANDS = 1000


@dataclass(frozen=True)
class BraidGenerator:
    """The generator in which strand ``i`` crosses over strand ``j``."""

    i: int
    j: int
    sign: int

    def __post_init__(self) -> None:
        # exact ints only: a bool or a float would not print as a token
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        if type(self.i) is not int or type(self.j) is not int or self.i == self.j or self.i < 1 or self.j < 1:
            raise ValueError(f"invalid strand pair ({self.i!r}, {self.j!r})")

    def inverse(self) -> "BraidGenerator":
        return BraidGenerator(self.i, self.j, -self.sign)

    def sort_key(self) -> tuple[int, int, int]:
        # lexicographic (i, j, sign) with + before -
        return (self.i, self.j, 0 if self.sign > 0 else 1)

    def token(self) -> str:
        return f"s{self.i},{self.j}" + ("" if self.sign > 0 else "'")


def vpb_generators(n: int) -> list[BraidGenerator]:
    """All ``2n(n-1)`` generators on ``n`` strands, in sort-key order."""
    _check_count(n)
    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                out.append(BraidGenerator(i, j, 1))
                out.append(BraidGenerator(i, j, -1))
    return out


@dataclass(frozen=True)
class VirtualBraidWord:
    n: int
    letters: tuple[BraidGenerator, ...]

    def __post_init__(self) -> None:
        _check_count(self.n)
        # a tuple keeps the word hashable and equal to its parsed twin
        if not isinstance(self.letters, tuple):
            raise ValueError(f"letters must be a tuple, got {type(self.letters).__name__}")
        for g in self.letters:
            if not isinstance(g, BraidGenerator):
                raise ValueError(f"letters must be BraidGenerator objects, got {g!r}")
            if g.i > self.n or g.j > self.n:
                raise ValueError(f"generator {g.token()} out of range for {self.n} strands")

    def __mul__(self, other: "VirtualBraidWord") -> "VirtualBraidWord":
        if not isinstance(other, VirtualBraidWord):
            return NotImplemented
        if self.n != other.n:
            raise StrandCountMismatch("cannot concatenate words on different strand counts")
        return VirtualBraidWord(self.n, self.letters + other.letters)

    def inverse(self) -> "VirtualBraidWord":
        return VirtualBraidWord(self.n, tuple(g.inverse() for g in reversed(self.letters)))

    def text(self) -> str:
        return f"vpb {self.n}:" + "".join(" " + g.token() for g in self.letters)


@dataclass(frozen=True)
class ClassicalBraidWord:
    n: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_count(self.n)
        if not isinstance(self.letters, tuple):
            raise ValueError(f"letters must be a tuple, got {type(self.letters).__name__}")
        for k in self.letters:
            if type(k) is not int or k == 0 or abs(k) > self.n - 1:
                raise ValueError(f"letter {k!r} out of range for {self.n} strands")

    def text(self) -> str:
        return f"br {self.n}:" + "".join(f" {k}" for k in self.letters)


def generator_diagram(n: int, g: BraidGenerator) -> Diagram:
    """The one-crossing diagram of a generator, tidied.  Built once per
    ``(n, generator)`` and then shared, which is safe because diagrams are
    immutable."""
    if not isinstance(g, BraidGenerator):
        raise ValueError(f"expected a BraidGenerator, got {g!r}")
    if max(g.i, g.j) > n:
        raise StrandCountMismatch(f"{g.token()} is not a generator on {n} strands")
    _check_count(n)
    return _generator_diagram(n, g.i, g.j, g.sign)


# a cached diagram holds one end-of-strand key per strand, and n may reach MAX_STRANDS
@functools.lru_cache(maxsize=1024)
def _generator_diagram(n: int, i: int, j: int, sign: int) -> Diagram:
    # tidy keys, through the checked constructor: a mark on strand a comes
    # after the a - 1 end keys and the marks of the strands below a
    over, under = (i, i + (j < i)), (j, j + (i < j))
    return Diagram(n, (Crossing(sign, over, under),), tuple(a + (i <= a) + (j <= a) for a in range(1, n + 1)))


def iota(w: VirtualBraidWord) -> Diagram:
    """Include a word into diagrams: one crossing per letter, stacked."""
    if not isinstance(w, VirtualBraidWord):
        raise ValueError(f"expected a VirtualBraidWord, got {w!r}")
    return compose(identity_diagram(w.n), *(generator_diagram(w.n, g) for g in w.letters))


def ch(w: VirtualBraidWord, max_iters: int = DEFAULT_MAX_ITERS) -> Diagram:
    """Reduced OU form of the word's diagram; a complete invariant.

    Never raises :class:`CyclicDiagram`: braid diagrams are acyclic.  Give
    each mark the index of its letter; a strand step raises the index, a drop
    from an over mark to its under mark keeps it, and two drops never follow
    each other, so no cascade path comes back to where it started.
    """
    return ou_normal_form(iota(w), max_iters)


def braids_equal(w1: VirtualBraidWord, w2: VirtualBraidWord, max_iters: int = DEFAULT_MAX_ITERS) -> bool:
    """Word equality in the virtual pure braid group."""
    if not isinstance(w1, VirtualBraidWord) or not isinstance(w2, VirtualBraidWord):
        raise ValueError(f"expected two VirtualBraidWords, got {w1!r} and {w2!r}")
    if w1.n != w2.n:
        raise StrandCountMismatch(f"words on {w1.n} and {w2.n} strands")
    return canonical_key(ch(w1, max_iters)) == canonical_key(ch(w2, max_iters))


def classical_to_vpb(b: ClassicalBraidWord) -> tuple[VirtualBraidWord, Permutation]:
    """Convert a classical word by walking its position permutation.

    ``perm[p]`` is the strand currently in position ``p + 1``.  Letter ``+k``
    becomes the strand in position ``k`` crossing over the strand in position
    ``k + 1``; ``-k`` the inverse crossing; both then swap the two positions.
    """
    if not isinstance(b, ClassicalBraidWord):
        raise ValueError(f"expected a ClassicalBraidWord, got {b!r}")
    perm = list(range(1, b.n + 1))
    letters = tuple(BraidGenerator(*_classical_crossing(perm, k)) for k in b.letters)
    return VirtualBraidWord(b.n, letters), tuple(perm)


def _classical_crossing(perm: list[int], k: int) -> tuple[int, int, int]:
    """The crossing of classical letter ``k`` as ``(over strand, under
    strand, sign)``, where ``perm[p]`` is the strand in position ``p + 1``;
    swaps the two positions in ``perm``.  A plain triple, so that
    enumeration can push it without building a :class:`BraidGenerator`."""
    p = abs(k) - 1
    left, right = perm[p], perm[p + 1]
    perm[p], perm[p + 1] = right, left
    return (left, right, 1) if k > 0 else (right, left, -1)


def classical_key(b: ClassicalBraidWord, max_iters: int = DEFAULT_MAX_ITERS) -> bytes:
    """Identity key of a classical braid: end permutation plus canonical key."""
    w, perm = classical_to_vpb(b)
    return permuted_key(perm, canonical_key(ch(w, max_iters)))


def permuted_key(perm: Permutation, key: bytes) -> bytes:
    return ("perm " + " ".join(str(p) for p in perm) + "\n").encode("ascii") + key


def classical_braids_equal(
    b1: ClassicalBraidWord, b2: ClassicalBraidWord, max_iters: int = DEFAULT_MAX_ITERS
) -> bool:
    """Equality of classical braids: equal :func:`classical_key` values."""
    return _permuted_braids_equal(*classical_to_vpb(b1), *classical_to_vpb(b2), max_iters)


def _permuted_braids_equal(
    w1: VirtualBraidWord,
    p1: Permutation,
    w2: VirtualBraidWord,
    p2: Permutation,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> bool:
    """Equality of two braids, each a pure word and an end permutation (see
    :func:`classical_to_vpb`).  Different permutations decide it without
    normalizing either word."""
    if w1.n != w2.n:
        raise StrandCountMismatch(f"words on {w1.n} and {w2.n} strands")
    return p1 == p2 and braids_equal(w1, w2, max_iters)


def _parse_strand_count(digits: str) -> int:
    n = _parse_int(digits)
    if not 1 <= n <= MAX_STRANDS:
        raise ParseError(f"strand count {n} is outside 1..{MAX_STRANDS}")
    return n


# numerals are ASCII digits only: \d and int() would also take other
# scripts' digits, and int() underscores between digits
_VPB_TOKEN = re.compile(r"^s([0-9]+),([0-9]+)('?)$")
_LETTER = re.compile(r"^[+-]?[0-9]+$")


def parse_vpb(text: str) -> VirtualBraidWord:
    """Parse ``vpb <n>: s<i>,<j> s<i>,<j>' ...`` (tokens optional)."""
    m = re.match(r"^\s*vpb\s+([0-9]+)\s*:\s*(.*?)\s*$", text, re.S)
    if not m:
        raise ParseError("expected 'vpb <n>: <tokens>'")
    n = _parse_strand_count(m.group(1))
    letters = []
    for idx, tok in enumerate(m.group(2).split()):
        tm = _VPB_TOKEN.match(tok)
        if not tm:
            raise ParseError(f"bad generator token {tok!r} (token {idx + 1})")
        try:
            g = BraidGenerator(int(tm.group(1)), int(tm.group(2)), -1 if tm.group(3) else 1)
        except ValueError as exc:
            raise ParseError(f"bad generator token {tok!r} (token {idx + 1})") from exc
        if g.i > n or g.j > n:
            raise ParseError(f"token {tok!r} out of range for {n} strands (token {idx + 1})")
        letters.append(g)
    return VirtualBraidWord(n, tuple(letters))


def parse_classical(text: str) -> ClassicalBraidWord:
    """Parse ``br <n>: 1 -2 1 ...``."""
    m = re.match(r"^\s*br\s+([0-9]+)\s*:\s*(.*?)\s*$", text, re.S)
    if not m:
        raise ParseError("expected 'br <n>: <letters>'")
    n = _parse_strand_count(m.group(1))
    letters = []
    for idx, tok in enumerate(m.group(2).split()):
        if not _LETTER.match(tok):
            raise ParseError(f"bad letter {tok!r} (token {idx + 1})")
        k = _parse_int(tok)
        if k == 0 or abs(k) > n - 1:
            raise ParseError(f"letter {tok!r} out of range for {n} strands (token {idx + 1})")
        letters.append(k)
    return ClassicalBraidWord(n, tuple(letters))
