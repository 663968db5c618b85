"""Divisor testing, quotients, braid peeling, and extraction graphs.

A generator ``g`` divides a reduced OU tangle ``T`` when prepending ``g``'s
inverse and renormalizing lowers the crossing number; the renormalized
diagram is the quotient.  Repeatedly dividing extracts a maximal braid and
leaves a unique indivisible core, independent of which divisor is taken at
each step.  Recording every divisor descent from ``T`` gives its extraction
graph: a finite DAG with one source, one sink, and generator-labelled edges.
Candidate quotients are rewriting scratch states; only graph nodes and
returned results are built as ``Diagram`` objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# bench/tracer.py CONSUMERS pins compose, generator_diagram, ou_normal_form and canonical_key here
from .braid import BraidGenerator, VirtualBraidWord, generator_diagram, vpb_generators  # noqa: F401
from .diagram import Diagram, canonical_key, compose, key_hash  # noqa: F401
from .errors import NotADivisor, NotReducedOU, OuError
from .rewrite import DEFAULT_MAX_ITERS, _Scratch, is_ou, is_reduced, ou_normal_form  # noqa: F401


def _require_reduced_ou(T: Diagram) -> _Scratch:
    if not is_ou(T):
        raise NotReducedOU("diagram is not in over-then-under form")
    if not is_reduced(T):
        raise NotReducedOU("diagram admits an R1 or R2 reduction")
    return _Scratch.from_diagram(T)


def _quotient_or_none(T: _Scratch, g: BraidGenerator, max_iters: int) -> _Scratch | None:
    """The reduced OU form of ``g``-inverse stacked before ``T`` if it has
    fewer crossings than ``T``, else ``None``.  ``T`` must be reduced OU.

    Works on a copy; only the two prepended marks are settled, and no
    cascade check is run.  ``T`` is OU, so it has no closed cascade path.
    The new over mark heads its strand, so no cascade path enters it, and
    the new under mark is entered only from that over mark.  So a closed
    path would avoid the new crossing and be a closed path of ``T``; glides
    and R1/R2 removal keep acyclicity.
    """
    q = T.copy()
    where, uo = q.reduce(q.prepend_crossing(g.i, g.j, -g.sign))
    q._glide_loop(where, uo, max_iters)
    return q if q.crossing_count() < T.crossing_count() else None


def _divisor_quotients(T: _Scratch, max_iters: int) -> list[tuple[BraidGenerator, _Scratch]]:
    """All ``(g, quotient)`` pairs over the ``2n(n-1)`` generators, in
    generator order.  ``T`` must be reduced OU."""
    # A generator onto a strand k of T with no mark (k = g.i or g.j) never
    # divides.  Delete strand k's crossings from each diagram in the rewriting
    # of g-inverse stacked before T: each step maps to the same diagram, the
    # same R1/R2 removal or glide, or an inserted R2 pair (from a glide at a
    # slot on k whose two new crossings miss k).  The deleted start is T, so
    # by confluence the deleted end, which is OU, has normal form T, and T
    # has at most its crossings: xi(g-inverse T) >= c.
    crossed = {s for s, marks in enumerate(T.strands, start=1) if marks}
    return [
        (g, q)
        for g in vpb_generators(len(T.strands))
        if g.i in crossed and g.j in crossed and (q := _quotient_or_none(T, g, max_iters)) is not None
    ]


def divisors(T: Diagram, max_iters: int = DEFAULT_MAX_ITERS) -> list[BraidGenerator]:
    """Generators that divide ``T``, in generator order (possibly empty)."""
    return [g for g, _ in _divisor_quotients(_require_reduced_ou(T), max_iters)]


def quotient(T: Diagram, g: BraidGenerator, max_iters: int = DEFAULT_MAX_ITERS) -> Diagram:
    """The reduced OU form of ``g``-inverse stacked before ``T``.

    Defined only when ``g`` divides ``T``; otherwise raises
    :class:`NotADivisor`.
    """
    q = _quotient_or_none(_require_reduced_ou(T), g, max_iters)
    if q is None:
        raise NotADivisor(f"{g.token()} does not lower the crossing number")
    return q.to_diagram()


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
    current = _require_reduced_ou(T)
    letters: list[BraidGenerator] = []
    while pairs := _divisor_quotients(current, max_iters):
        g, current = pairs[0] if rng is None else rng.choice(pairs)
        letters.append(g)
    return VirtualBraidWord(T.n, tuple(letters)), current.to_diagram()


@dataclass(frozen=True)
class ExtractionGraph:
    """All divisor descents from one reduced OU tangle.

    ``nodes`` maps canonical keys to ``(diagram, xi)``; ``edges`` are
    ``(from key, generator, to key)``.  Edges strictly decrease ``xi``, so
    the graph is a DAG with a unique source (the start tangle) and a unique
    sink (the core).
    """

    nodes: dict[bytes, tuple[Diagram, int]] = field(repr=False)
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
    start = _require_reduced_ou(T)
    source = start.canonical_text().encode("ascii")
    nodes: dict[bytes, tuple[Diagram, int]] = {source: (start.to_diagram(), start.crossing_count())}
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
                qkey = q.canonical_text().encode("ascii")
                if qkey not in nodes:
                    nodes[qkey] = (q.to_diagram(), q.crossing_count())
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
        lines.append(f'  "k{index[k]}" [label="{g.nodes[k][1]}"];')
    for src, gen, dst in edges:
        label = f"s({gen.i},{gen.j})" + ("" if gen.sign > 0 else "'")
        lines.append(f'  "k{index[src]}" -> "k{index[dst]}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_edge_lines(g: ExtractionGraph) -> str:
    """Structured export: node table ``<key-hash> <xi>`` then one line per
    edge ``<from-hash> <token> <to-hash>``, in deterministic order."""
    keys, _, edges = _ordered(g)
    lines = [f"{key_hash(k)} {g.nodes[k][1]}" for k in keys]
    for src, gen, dst in edges:
        lines.append(f"{key_hash(src)} {gen.token()} {key_hash(dst)}")
    return "\n".join(lines) + "\n"
