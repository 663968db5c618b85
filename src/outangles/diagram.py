"""Gauss-diagram model of virtual tangle diagrams.

A diagram on ``n`` ordered, oriented interval strands records each signed
crossing by the positions ("mark keys") of its over pass and its under pass
along the strands, plus one end-of-strand key per strand.  Virtual crossings
are drawing artifacts, not data, and are never represented.  Closed
components do not exist in this model: every strand is an interval.

Mark keys are exact rationals (``int`` or ``fractions.Fraction``); floats are
rejected because the rewriting rules rely on exact order comparisons.  Only
the per-strand order of keys carries meaning.  A *tidied* diagram has keys
exactly ``1 .. 2c + n``, assigned by walking strand 1's marks in order, then
its end-of-strand, then strand 2, and so on; its crossings are listed in
increasing order of their over-mark.  Tidied diagrams serialize to a
canonical text form whose exact bytes serve as an equality key.

``Diagram(...)`` validates its arguments, so every diagram that comes from
:func:`parse`, from user code or from a braid generator is checked.
Diagrams the engine builds from marks (:func:`tidy`, :func:`compose`, the
rewriting state's export) skip the checks and build their crossings only
when read; see :func:`_assemble`.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidDiagram, ParseError, StrandCountMismatch

__all__ = [
    "Crossing",
    "Diagram",
    "canonical_key",
    "compose",
    "crossing_number",
    "identity_diagram",
    "key_hash",
    "parse",
    "serialize",
    "tidy",
]

Key = int | Fraction


def _check_key(value: Key, what: str) -> None:
    # bool is an int subclass; reject it along with floats and the rest
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise InvalidDiagram(f"{what} must be an exact rational, got {value!r}")


def _check_count(value, low: int = 1, what: str = "strand count") -> None:
    # exact ints only: a bool or a float would not print as a count
    if type(value) is not int or value < low:
        raise ValueError(f"{what} must be an int >= {low}, got {value!r}")


@dataclass(frozen=True)
class Crossing:
    """One signed crossing: ``over`` and ``under`` are ``(strand, key)`` pairs."""

    sign: int
    over: tuple[int, Key]
    under: tuple[int, Key]

    def __post_init__(self) -> None:
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise InvalidDiagram(f"crossing sign must be +1 or -1, got {self.sign!r}")
        # (strand, key) tuples keep the crossing, and so its diagram, immutable and hashable
        over, under = self.over, self.under
        if not (isinstance(over, tuple) and isinstance(under, tuple) and len(over) == len(under) == 2):
            raise InvalidDiagram("crossing over and under marks must be (strand, key) tuples")
        for what, (a, k) in (("over", over), ("under", under)):
            if type(a) is not int or a < 1:
                raise InvalidDiagram(f"{what} strand must be a positive integer, got {a!r}")
            _check_key(k, f"{what} mark key")
        if over == under:
            raise InvalidDiagram("over and under marks of a crossing coincide")


@dataclass(frozen=True)
class Diagram:
    """A virtual tangle diagram on ``n`` strands.

    Immutable; all operations return new diagrams.  ``Diagram(...)``
    validates its arguments: every crossing is a :class:`Crossing`, mark
    keys on one strand are pairwise distinct, and each strand's
    end-of-strand key is strictly the largest key on that strand.  Each
    strand's keys are walked in crossing order, so the first bad key is the
    one named.  Each diagram keeps ``_marks``, per strand its marks in key
    order with ``crossings[cid]`` as crossing ``cid``, never changed.
    Diagrams the engine builds from marks are not re-checked and build
    ``crossings`` on first read (see :func:`_assemble`).  ``==``, ``hash``
    and ``repr`` read the fields: marks forget keys, so a diagram with
    rational keys has the marks of its tidy form.
    """

    n: int
    crossings: tuple[Crossing, ...]
    eos_keys: tuple[Key, ...]

    def __getattr__(self, name: str) -> tuple[Crossing, ...]:
        # only an unread engine-built diagram lacks a field
        marks = self.__dict__.get("_marks") if name == "crossings" else None
        if marks is None:
            raise AttributeError(name)
        where, k = {}, 1  # mark -> (strand, tidy key); over marks come in id order
        for a, seq in enumerate(marks, start=1):
            for mk in seq:
                where[mk] = (a, k)
                k += 1
            k += 1
        new, put = object.__new__, object.__setattr__
        crossings = []
        for mk, at in where.items():
            if mk & 2:
                c = new(Crossing)
                put(c, "sign", 1 if mk & 1 else -1)
                put(c, "over", at)
                put(c, "under", where[mk ^ 2])
                crossings.append(c)
        crossings = tuple(crossings)
        put(self, "crossings", crossings)
        return crossings

    def __post_init__(self) -> None:
        n = self.n
        if type(n) is not int or n < 1:
            raise InvalidDiagram(f"strand count must be a positive integer, got {n!r}")
        # tuples keep the diagram immutable, hashable and equal to its tidy form
        if not isinstance(self.crossings, tuple) or not isinstance(self.eos_keys, tuple):
            raise InvalidDiagram("crossings and end-of-strand keys must be tuples")
        if len(self.eos_keys) != n:
            raise InvalidDiagram(f"expected {n} end-of-strand keys, got {len(self.eos_keys)}")
        for k in self.eos_keys:
            _check_key(k, "end-of-strand key")
        per_strand: list[list[tuple[Key, int]]] = [[] for _ in range(n)]
        for cid, c in enumerate(self.crossings):
            # a crossing's own checks ran only if it is a Crossing
            if not isinstance(c, Crossing):
                raise InvalidDiagram(f"crossings must be Crossing objects, got {c!r}")
            mk = _mark(cid, True, c.sign)
            for (a, k), m in ((c.over, mk), (c.under, mk ^ 2)):
                if a > n:
                    raise InvalidDiagram(f"strand {a} out of range 1..{n}")
                per_strand[a - 1].append((k, m))
        marks = []
        for a, (pairs, eos) in enumerate(zip(per_strand, self.eos_keys), start=1):
            # keys on a strand are distinct: sort keys, not pairs
            bucket: dict[Key, int] = {}
            for k, m in pairs:
                if k in bucket:
                    raise InvalidDiagram(f"duplicate mark key {k} on strand {a}")
                if k >= eos:
                    raise InvalidDiagram(f"end-of-strand key of strand {a} is not strictly maximal")
                bucket[k] = m
            marks.append(tuple([bucket[k] for k in sorted(bucket)]))
        # tuples: the memo keeps these, and an empty strand is the shared ()
        object.__setattr__(self, "_marks", tuple(marks))


def identity_diagram(n: int) -> Diagram:
    """The crossingless diagram on ``n`` strands (tidied)."""
    _check_count(n)
    return Diagram(n, (), tuple(range(1, n + 1)))


def crossing_number(d: Diagram) -> int:
    """Number of crossings of ``d`` (virtual intersections are not crossings)."""
    return sum(map(len, d._marks)) >> 1


def _mark(cid: int, over: bool, sign: int) -> int:
    """The integer mark of one pass of crossing ``cid``, as the rewriting
    engine stores it: ``4 * cid + 2 * over + (sign > 0)``.  So ``mark >> 2``
    is the crossing id, bit 1 tells the over pass from the under pass (a
    pass's partner is ``mark ^ 2``), and bit 0, carried by both passes, is
    set for a positive crossing."""
    return (cid << 2) | (over << 1) | (sign > 0)


def _strand_sequences(d: Diagram) -> list[list[int]]:
    """A copy of ``d._marks`` that the caller may edit."""
    return [list(seq) for seq in d._marks]


def _assemble(strands: list[list[int]]) -> Diagram:
    """The tidied diagram of the given per-strand mark lists (see
    :func:`_mark`), which the caller may still edit.

    Its marks are renumbered so that ids run ``0 .. c - 1`` in the walk
    order of the over marks, the order of the tidy ``crossings`` that
    :meth:`Diagram.__getattr__` builds.  No ``__post_init__`` runs: the
    marks come from a rewriting state, or from :func:`tidy` or
    :func:`compose` of checked diagrams, and every crossing id has one over
    and one under mark.  So the tidy keys are the distinct ints
    ``1 .. 2c + n``, each below its strand's end key, and bit 0 gives a sign
    of +1 or -1: every check already holds.  The cascade check, too, runs
    only on diagrams from outside."""
    ids: dict[int, int] = {}
    eos: list[int] = []
    k = 0
    for seq in strands:
        for mk in seq:
            if mk & 2:
                ids[mk >> 2] = len(ids) << 2
        k += len(seq) + 1
        eos.append(k)
    d = object.__new__(Diagram)
    put = object.__setattr__
    put(d, "n", len(strands))
    put(d, "eos_keys", tuple(eos))
    put(d, "_marks", [[ids[mk >> 2] | (mk & 3) for mk in seq] for seq in strands])
    return d


def tidy(d: Diagram) -> Diagram:
    """Renumber marks to the canonical ``1 .. 2c + n`` scheme.

    Preserves the per-strand order of marks and all (sign, over-strand,
    under-strand) data.  Idempotent; always returns a new diagram with
    integer keys, equal to ``d`` when ``d`` is already tidy.
    """
    return _assemble(_strand_sequences(d))


def compose(d1: Diagram, *rest: Diagram) -> Diagram:
    """Stack the diagrams in order, strand by strand, in one pass.

    Equivalent to rescaling each strand of each later diagram into the gap
    before the end-of-strand mark of the matching strand of the stack so
    far, then tidying.  Stacking is associative: ``compose(a, b, c) ==
    compose(compose(a, b), c)``, and ``compose(d) == tidy(d)``.
    Crossing counts add; each strand's marks are concatenated, not sorted.
    """
    strands: list[list[int]] = [[] for _ in range(d1.n)]
    shift = 0  # 4 * the crossings of the diagrams stacked so far
    for d in (d1, *rest):
        if d.n != d1.n:
            raise StrandCountMismatch(f"cannot compose diagrams on {d1.n} and {d.n} strands")
        for seq, marks in zip(strands, d._marks):
            for mk in marks:
                seq.append(mk + shift)
        shift += sum(map(len, d._marks)) << 1
    return _assemble(strands)


# _DECIMAL[k] == str(k) up to the largest key written so far.  Growing it
# replaces the list instead of extending it, so a thread that read the old
# one still finds correct strings in it.
_DECIMAL: list[str] = ["0"]


def _canonical_text(strands: list[list[int]]) -> str:
    """Canonical text of the tidied diagram with the given per-strand
    orders of marks (see :func:`_mark`).

    Most of the cost of this text was converting keys to decimal, so every
    key is written through the shared table ``_DECIMAL``, grown here up to
    the largest key, ``2c + n``."""
    global _DECIMAL
    key: dict[int, int] = {}
    eos: list[int] = []
    k = 1
    for seq in strands:
        for mk in seq:
            key[mk] = k
            k += 1
        eos.append(k)
        k += 1
    decimal = _DECIMAL
    if len(decimal) < k:
        decimal = _DECIMAL = decimal + list(map(str, range(len(decimal), k)))
    lines = ["vd " + decimal[len(strands)]]
    for mk, o in key.items():
        if mk & 2:
            lines.append(f"x {'+' if mk & 1 else '-'} {decimal[o]} {decimal[key[mk ^ 2]]}")
    lines.append("eos " + " ".join([decimal[e] for e in eos]))
    return "\n".join(lines) + "\n"


def serialize(d: Diagram) -> str:
    """Canonical text form of ``d`` (the diagram is tidied first)."""
    return _canonical_text(d._marks)


def canonical_key(d: Diagram) -> bytes:
    """Exact bytes of the canonical serialization.

    Two diagrams have equal keys iff they are the same Gauss diagram (same
    strand count, same signed arrow configuration); this is the equality
    used everywhere downstream.
    """
    return serialize(d).encode("ascii")


def key_hash(key: bytes) -> str:
    """Short stable fingerprint of a canonical key, for compact reports."""
    return hashlib.sha256(key).hexdigest()[:12]


_KEY_RE = re.compile(r"^(-?[0-9]+)(?:/([0-9]+))?$")


def _parse_int(digits: str, line: int | None = None, column: int | None = None) -> int:
    """``int`` of a checked digit run; a run longer than the interpreter
    converts is a :class:`ParseError`, not a ``ValueError``."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"numeral of {len(digits)} characters is too long", line, column) from None


def _parse_key(token: str, line: int, column: int) -> Key:
    m = _KEY_RE.match(token)
    if not m:
        raise ParseError(f"expected integer or p/q rational, got {token!r}", line, column)
    numerator = _parse_int(m.group(1), line, column)
    if m.group(2) is None:
        return numerator
    denominator = _parse_int(m.group(2), line, column)
    if denominator == 0:
        raise ParseError(f"zero denominator in {token!r}", line, column)
    value = Fraction(numerator, denominator)
    return int(value) if value.denominator == 1 else value


def _tokens_with_columns(text_line: str) -> list[tuple[str, int]]:
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", text_line)]


def parse(text: str) -> Diagram:
    """Parse diagram text.

    Grammar (one record per line, blank lines ignored)::

        vd <n>
        x <+|-> <over-mark> <under-mark>     (zero or more)
        eos <k1> <k2> ... <kn>

    Marks are integers, or ``p/q`` rationals on input only.  Strand
    membership of a mark is positional: end-of-strand keys must increase
    left to right, and a crossing mark belongs to the strand whose segment
    of the key line contains it.
    """
    rows = [
        (idx + 1, _tokens_with_columns(raw))
        for idx, raw in enumerate(text.splitlines())
        if raw.strip()
    ]
    if not rows:
        raise ParseError("empty input", 1, 1)
    line, toks = rows[0]
    if toks[0][0] != "vd":
        raise ParseError(f"expected 'vd <n>' header, got {toks[0][0]!r}", line, toks[0][1])
    if len(toks) != 2 or not (toks[1][0].isascii() and toks[1][0].isdigit()):
        raise ParseError("expected 'vd <n>' header", line, toks[0][1])
    n = _parse_int(toks[1][0], line, toks[1][1])
    if n < 1:
        raise ParseError("strand count must be at least 1", line, toks[1][1])

    x_rows: list[tuple[int, int, Key, Key]] = []  # (line, sign, over key, under key)
    eos: list[Key] | None = None
    for line, toks in rows[1:]:
        word = toks[0][0]
        if word == "x":
            if eos is not None:
                raise ParseError("crossing line after 'eos' line", line, toks[0][1])
            if len(toks) != 4:
                raise ParseError("expected 'x <+|-> <o> <u>'", line, toks[0][1])
            if toks[1][0] not in ("+", "-"):
                raise ParseError(f"expected '+' or '-', got {toks[1][0]!r}", line, toks[1][1])
            sign = 1 if toks[1][0] == "+" else -1
            o = _parse_key(toks[2][0], line, toks[2][1])
            u = _parse_key(toks[3][0], line, toks[3][1])
            x_rows.append((line, sign, o, u))
        elif word == "eos":
            if eos is not None:
                raise ParseError("duplicate 'eos' line", line, toks[0][1])
            if len(toks) != n + 1:
                raise ParseError(f"expected {n} end-of-strand keys", line, toks[0][1])
            eos = [_parse_key(t, line, col) for t, col in toks[1:]]
        else:
            raise ParseError(f"unexpected record {word!r}", line, toks[0][1])
    if eos is None:
        raise ParseError("missing 'eos' line", rows[-1][0], 1)
    for a in range(n - 1):
        if eos[a] >= eos[a + 1]:
            raise InvalidDiagram(
                f"end-of-strand keys must increase (strand {a + 1} vs {a + 2})"
            )

    def strand_of(key: Key, line: int) -> int:
        for a in range(n):
            if key < eos[a]:
                return a + 1
        raise InvalidDiagram(f"mark {key} on line {line} does not fall inside any strand")

    crossings = []
    for line, sign, o, u in x_rows:
        if o in eos or u in eos:
            raise InvalidDiagram(f"mark on line {line} collides with an end-of-strand key")
        crossings.append(Crossing(sign, (strand_of(o, line), o), (strand_of(u, line), u)))
    return Diagram(n, tuple(crossings), tuple(eos))
