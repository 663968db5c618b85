"""Divisor testing, quotients, braid peeling, and extraction graphs.

A generator ``g`` divides a reduced OU tangle ``T`` when prepending ``g``'s
inverse and renormalizing lowers the crossing number; the renormalized
diagram is the quotient.  ``s(i,j)^sigma`` can divide ``T`` only if strand
``j``'s first under mark belongs to a crossing of sign ``sigma`` whose over
mark is on strand ``i``, so each strand names at most one candidate.
Repeatedly dividing extracts a maximal braid and leaves a unique
indivisible core, independent of which divisor is taken at each step.
Recording every divisor descent from ``T`` gives its extraction graph: a
finite DAG with one source, one sink, and generator-labelled edges.
Candidate quotients and graph nodes are mirrored scratch states, on which
a prepend is a push (:meth:`_Scratch.mirrored`).  A node is stored as its
key and ``xi``, and its diagram is ``parse(key.decode("ascii"))``.  Only
the results, a ``quotient`` and the ``peel`` core, are built as ``Diagram``s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# bench/tracer.py CONSUMERS pins compose, generator_diagram, ou_normal_form and canonical_key here
from .braid import BraidGenerator, VirtualBraidWord, generator_diagram  # noqa: F401
from .diagram import Diagram, _check_count, canonical_key, compose, crossing_number, key_hash  # noqa: F401
from .errors import NotADivisor, NotReducedOU, OuError, StrandCountMismatch
from .rewrite import DEFAULT_MAX_ITERS, _Scratch, ou_normal_form  # noqa: F401

__all__ = [
    "ExtractionGraph",
    "divisors",
    "extraction_graph",
    "peel",
    "quotient",
    "to_dot",
    "to_edge_lines",
]


def _require_reduced_ou(T: Diagram, max_iters: int) -> _Scratch:
    """The mirror image of ``T``, checked to be reduced OU, after checking
    the glide cap ``max_iters``."""
    _check_count(max_iters, 0, "max_iters")
    scratch = _Scratch.from_diagram(T)
    if scratch.uo_slots():
        raise NotReducedOU("diagram is not in over-then-under form")
    scratch.reduce()
    if scratch.crossing_count() != crossing_number(T):
        raise NotReducedOU("diagram admits an R1 or R2 reduction")
    return scratch.mirrored()


def _quotient_or_none(T: _Scratch, g: BraidGenerator, max_iters: int) -> _Scratch | None:
    """R of the reduced OU form of ``g``-inverse stacked before R ``T``, if it
    has fewer crossings than ``T``, else ``None``; ``T`` is the mirror R of a
    reduced OU state.  On a copy, the prepend is a push of the mirrored
    crossing (:meth:`_Scratch.mirrored`), and ``max_iters`` caps its glides.
    No cascade check is run, by the argument of :meth:`OuAccumulator.push`."""
    q = T.copy()
    q.append_crossing(g.j, g.i, -g.sign, max_iters)
    return q if q.crossing_count() < T.crossing_count() else None


def _divisor_quotients(T: _Scratch, max_iters: int) -> list[tuple[BraidGenerator, _Scratch]]:
    """All ``(g, quotient)`` pairs, in generator order, of the mirror ``T`` of
    a reduced OU state; the quotients are mirrors too.  One generator per
    strand ``j`` is tried: the crossing that holds ``T``'s last over mark on
    ``j``, as ``s(i,j)^sign`` with ``i`` its under strand, when ``i != j``."""
    # No other generator divides.  Prepend a crossing c to a reduced OU
    # state S (computed as a push on the mirror): its over mark o heads
    # strand i, its under mark u heads strand j != i.  Call the over marks of
    # S on strand j y_1 .. y_k, and the crossings of S whose over mark is on
    # strand i i-crossings.  A glide at (u, y) puts a left and a right over
    # mark right beside o, of the signs of y and -y, and two under marks
    # right beside the anchor y ^ 2, the one of sign -sign(c) on its left.
    # (A) Strand j never gains an over mark, and new under marks go beside
    #     anchors, under marks of S.  So u is the only under mark ahead of an
    #     over mark on strand j, the walk's glides swap u with y_1 .. y_k in
    #     turn, and if c survives, u ends as strand j's first under mark.
    # (B) If c is removed, the walk ends below xi(S).  Left of o lie only
    #     left marks, and right of o the right marks, newest nearest, then
    #     strand i's over marks of S, then under marks.  Each anchor is used
    #     once, and nothing is put between it and its two new marks.
    #     Claim: until c goes, every removal takes a right crossing, by an R1
    #     or by an R2 with an i-crossing.  Then left crossings, the y's and
    #     the anchors stay.  Only the outermost right mark meets a mark other
    #     than o and right marks, so right crossings go oldest first; only
    #     the first over mark of S on strand i meets a right mark, so
    #     i-crossings go in strand-i order.  A removed i-crossing's under
    #     mark was next to that of its right crossing, which is right beside
    #     that one's anchor.  Take the first removal of another kind that
    #     leaves c.  A left mark's neighbours are left marks and o, and a
    #     right mark's over-mark neighbours are right marks and i-crossings,
    #     so it is one of two:
    #     * An R2 of two left or of two right crossings.  They come from
    #       glides t and t + 1, so y_t, y_(t+1) are adjacent in S, of
    #       opposite signs.  Their under marks face each other between the
    #       anchors.  A mark of S that left that gap went beside a right
    #       crossing's under mark, so beside an anchor that is an end of the
    #       gap, and on its facing side; but those sides hold the pair.  So
    #       the anchors were adjacent in S too: an R2 of S.
    #     * An R1 or an R2 of crossings of S.  Marks of S left a gap between
    #       two of its marks.  An over mark of S on strand i goes only as the
    #       first one left there, never from between two marks of S, so the
    #       marks that left were under marks, each beside a right crossing's
    #       anchor at an end of the gap.  So that end is some y ^ 2.  An R1
    #       of y is split by u, which lies after y and before y ^ 2.  In an
    #       R2 the other crossing is the y before or after it on strand j,
    #       and the gap lies between their anchors.  Both facing new marks
    #       went, so both are right marks.  An R1 would need a right mark
    #       after an under mark of S, so each went by an R2 with one of the
    #       gap's marks of S, and those were all of them.  These two
    #       i-crossings went one after the other, so they were adjacent over
    #       and under in S, with the opposite signs of the two y's: an R2.
    #     c's marks lie on different strands, so c goes by an R2 with some
    #     crossing d, of sign -sign(c), whose under mark follows u, so u has
    #     passed y_1 .. y_k.  If d were a left or right crossing, it would be
    #     the newest of its side, from y_k, with its under mark just before
    #     y_k ^ 2 on strand j.  Strand j's under marks of S ahead of y_k ^ 2
    #     could not have left (their anchor would lie among them or face
    #     them from y_k ^ 2, where d is), so y_k and y_k ^ 2 were adjacent in
    #     S: an R1.  So d is an i-crossing, and every right crossing went
    #     first, by an R2 with another i-crossing, since d's over mark keeps
    #     right marks from meeting their under marks.  After c and d go,
    #     xi(S) + 1 + 2k - 2k - 2 crossings are left, strand j has no slot,
    #     and the walk ends with removals only.
    # If g = s(i,j)^sigma divides T with quotient q, prepending g to q gives
    # NF(g q) = T with xi(T) > xi(q).  By (B) g's crossing survives, by (A)
    # it heads strand j's under marks, and NF is unique.
    where = T.strand_of()
    candidates = []
    for j, marks in enumerate(T.strands, start=1):
        o = next((mk for mk in reversed(marks) if mk & 2), None)
        if o is not None and (i := where[o ^ 2] + 1) != j:
            candidates.append(BraidGenerator(i, j, 1 if o & 1 else -1))
    candidates.sort(key=BraidGenerator.sort_key)
    return [(g, q) for g in candidates if (q := _quotient_or_none(T, g, max_iters)) is not None]


def divisors(T: Diagram, max_iters: int = DEFAULT_MAX_ITERS) -> list[BraidGenerator]:
    """Generators that divide ``T``, in generator order (possibly empty)."""
    return [g for g, _ in _divisor_quotients(_require_reduced_ou(T, max_iters), max_iters)]


def quotient(T: Diagram, g: BraidGenerator, max_iters: int = DEFAULT_MAX_ITERS) -> Diagram:
    """The reduced OU form of ``g``-inverse stacked before ``T``.

    Defined only when ``g`` divides ``T``; otherwise raises
    :class:`NotADivisor`.  A ``g`` naming a strand beyond ``T.n`` raises
    :class:`StrandCountMismatch`.
    """
    if not isinstance(g, BraidGenerator):
        raise ValueError(f"expected a BraidGenerator, got {g!r}")
    if max(g.i, g.j) > T.n:
        raise StrandCountMismatch(f"{g.token()} is not a generator on {T.n} strands")
    q = _quotient_or_none(_require_reduced_ou(T, max_iters), g, max_iters)
    if q is None:
        raise NotADivisor(f"{g.token()} does not lower the crossing number")
    return q.mirrored().to_diagram()


def peel(
    T: Diagram,
    rng: random.Random | None = None,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> tuple[VirtualBraidWord, Diagram]:
    """Extract a maximal braid, leaving the indivisible core.

    Deterministically takes the first divisor in generator order at each
    step; with ``rng`` a uniformly random divisor is taken instead.  The
    resulting (braid, core) pair does not depend on the choices.
    """
    current = _require_reduced_ou(T, max_iters)
    letters: list[BraidGenerator] = []
    while pairs := _divisor_quotients(current, max_iters):
        g, current = pairs[0] if rng is None else rng.choice(pairs)
        letters.append(g)
    return VirtualBraidWord(T.n, tuple(letters)), current.mirrored().to_diagram()


@dataclass(frozen=True)
class ExtractionGraph:
    """All divisor descents from one reduced OU tangle.

    ``nodes`` maps canonical keys to ``xi``; a node's diagram is
    ``parse(key.decode("ascii"))``.  ``edges`` are
    ``(from key, generator, to key)``.  Edges strictly decrease ``xi``, so
    the graph is a DAG with a unique source (the start tangle) and a unique
    sink (the core).
    """

    nodes: dict[bytes, int] = field(repr=False)
    edges: tuple[tuple[bytes, BraidGenerator, bytes], ...]
    source: bytes
    sink: bytes

    def node_count(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return len(self.edges)

    def out_degree(self, key: bytes) -> int:
        return sum(1 for src, _, _ in self.edges if src == key)

    def in_degree(self, key: bytes) -> int:
        return sum(1 for _, _, dst in self.edges if dst == key)


def extraction_graph(T: Diagram, max_iters: int = DEFAULT_MAX_ITERS) -> ExtractionGraph:
    """Breadth-first closure of divisor edges from ``T``.

    Nodes are keyed by canonical form, so each tangle is expanded once and
    divisor sets are effectively memoized per key.
    """
    start = _require_reduced_ou(T, max_iters)
    source = start.mirrored().canonical_text().encode("ascii")
    nodes: dict[bytes, int] = {source: start.crossing_count()}
    edges: list[tuple[bytes, BraidGenerator, bytes]] = []
    sinks: list[bytes] = []  # each node is expanded once, so these are the keys with no out-edge
    frontier = [(source, start)]
    while frontier:
        next_frontier: list[tuple[bytes, _Scratch]] = []
        for key, scratch in frontier:
            pairs = _divisor_quotients(scratch, max_iters)
            if not pairs:
                sinks.append(key)
            for g, q in pairs:
                qkey = q.mirrored().canonical_text().encode("ascii")
                if qkey not in nodes:
                    nodes[qkey] = q.crossing_count()
                    next_frontier.append((qkey, q))
                edges.append((key, g, qkey))
        frontier = next_frontier
    if len(sinks) != 1:
        raise OuError(f"extraction graph has {len(sinks)} sinks; expected exactly one")
    return ExtractionGraph(nodes, tuple(edges), source, sinks[0])


def _ordered(g: ExtractionGraph):
    """Nodes in ascending key order, each node's position in that order, and
    the edges sorted by (source position, generator, target position)."""
    keys = sorted(g.nodes)
    index = {k: pos for pos, k in enumerate(keys)}
    edges = sorted(g.edges, key=lambda e: (index[e[0]], e[1].sort_key(), index[e[2]]))
    return keys, index, edges


def to_dot(g: ExtractionGraph) -> str:
    """Deterministic DOT rendering: nodes labelled by xi in ascending key
    order, edges labelled ``s(i,j)`` / ``s(i,j)'``."""
    keys, index, edges = _ordered(g)
    lines = ["digraph {"]
    for k in keys:
        lines.append(f'  "k{index[k]}" [label="{g.nodes[k]}"];')
    for src, gen, dst in edges:
        label = f"s({gen.i},{gen.j})" + ("" if gen.sign > 0 else "'")
        lines.append(f'  "k{index[src]}" -> "k{index[dst]}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_edge_lines(g: ExtractionGraph) -> str:
    """Structured export: node table ``<key-hash> <xi>`` then one line per
    edge ``<from-hash> <token> <to-hash>``, in deterministic order."""
    keys, _, edges = _ordered(g)
    lines = [f"{key_hash(k)} {g.nodes[k]}" for k in keys]
    for src, gen, dst in edges:
        lines.append(f"{key_hash(src)} {gen.token()} {key_hash(dst)}")
    return "\n".join(lines) + "\n"
