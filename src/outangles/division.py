"""Divisor testing, quotients, braid peeling, and extraction graphs.

A generator ``g`` divides a reduced OU tangle ``T`` when prepending ``g``'s
inverse and renormalizing lowers the crossing number; the renormalized
diagram is the quotient.  Repeatedly dividing extracts a maximal braid and
leaves a unique indivisible core, independent of which divisor is taken at
each step.  Recording every divisor descent from ``T`` gives its extraction
graph: a finite DAG with one source, one sink, and generator-labelled edges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .braid import BraidGenerator, VirtualBraidWord, generator_diagram, vpb_generators
from .diagram import Diagram, canonical_key, compose, crossing_number, key_hash, tidy
from .errors import NotADivisor, NotReducedOU, OuError
from .rewrite import DEFAULT_MAX_ITERS, is_ou, is_reduced, ou_normal_form


def _require_reduced_ou(T: Diagram) -> Diagram:
    if not is_ou(T):
        raise NotReducedOU("diagram is not in over-then-under form")
    if not is_reduced(T):
        raise NotReducedOU("diagram admits an R1 or R2 reduction")
    return tidy(T)


def _quotient_or_none(T: Diagram, g: BraidGenerator, max_iters: int) -> Diagram | None:
    """The reduced OU form of ``g``-inverse stacked before ``T`` if it has
    fewer crossings than ``T``, else ``None``.  ``T`` must already be reduced
    OU and tidied."""
    candidate = ou_normal_form(compose(generator_diagram(T.n, g.inverse()), T), max_iters)
    return candidate if crossing_number(candidate) < crossing_number(T) else None


def _divisor_quotients(
    T: Diagram, max_iters: int
) -> list[tuple[BraidGenerator, Diagram]]:
    """All ``(g, quotient)`` pairs over the ``2n(n-1)`` generators, in
    generator order.  ``T`` must already be reduced OU and tidied."""
    # A generator onto a strand k of T with no mark (k = g.i or g.j) never
    # divides.  Delete strand k's crossings from each diagram in the rewriting
    # of g-inverse stacked before T: each step maps to the same diagram, the
    # same R1/R2 removal or glide, or an inserted R2 pair (from a glide at a
    # slot on k whose two new crossings miss k).  The deleted start is T, so
    # by confluence the deleted end, which is OU, has normal form T, and T
    # has at most its crossings: xi(g-inverse T) >= c.
    crossed = {strand for c in T.crossings for strand in (c.over[0], c.under[0])}
    return [
        (g, q)
        for g in vpb_generators(T.n)
        if g.i in crossed and g.j in crossed and (q := _quotient_or_none(T, g, max_iters)) is not None
    ]


def divisors(T: Diagram, max_iters: int = DEFAULT_MAX_ITERS) -> list[BraidGenerator]:
    """Generators that divide ``T``, in generator order (possibly empty)."""
    T = _require_reduced_ou(T)
    return [g for g, _ in _divisor_quotients(T, max_iters)]


def quotient(T: Diagram, g: BraidGenerator, max_iters: int = DEFAULT_MAX_ITERS) -> Diagram:
    """The reduced OU form of ``g``-inverse stacked before ``T``.

    Defined only when ``g`` divides ``T``; otherwise raises
    :class:`NotADivisor`.
    """
    q = _quotient_or_none(_require_reduced_ou(T), g, max_iters)
    if q is None:
        raise NotADivisor(f"{g.token()} does not lower the crossing number")
    return q


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
    while True:
        pairs = _divisor_quotients(current, max_iters)
        if not pairs:
            return VirtualBraidWord(T.n, tuple(letters)), current
        g, current = pairs[0] if rng is None else rng.choice(pairs)
        letters.append(g)


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
    source = canonical_key(start)
    nodes: dict[bytes, tuple[Diagram, int]] = {source: (start, crossing_number(start))}
    edges: list[tuple[bytes, BraidGenerator, bytes]] = []
    frontier = [source]
    while frontier:
        next_frontier: list[bytes] = []
        for key in frontier:
            diagram, _ = nodes[key]
            for g, q in _divisor_quotients(diagram, max_iters):
                qkey = canonical_key(q)
                if qkey not in nodes:
                    nodes[qkey] = (q, crossing_number(q))
                    next_frontier.append(qkey)
                edges.append((key, g, qkey))
        frontier = next_frontier
    with_out = {src for src, _, _ in edges}
    sinks = [k for k in nodes if k not in with_out]
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
