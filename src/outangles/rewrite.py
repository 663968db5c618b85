"""Rewriting of virtual tangle diagrams to reduced over-then-under form.

The pipeline: remove every kink (R1) and cancelling pair (R2); if an
under-then-over interval is left in a diagram that comes in from outside,
check once that it has no closed cascade path; then repeatedly fix the first
under-then-over interval with a glide move.  For cascade-acyclic diagrams
this terminates in the unique reduced OU representative of the diagram's
equivalence class, independently of the order in which patterns are
removed and intervals are fixed.  States the engine built itself (the braid
accumulator's, and division's candidate quotients) are acyclic by
construction and are not checked.

One settle loop finds every pattern and every under-then-over slot, by
rechecking each dirty mark against its right neighbour.  An R1 is an
adjacent pair of one crossing; an R2 is an adjacent pair of over marks (or
of under marks) of opposite signs whose partner marks are adjacent too, in
either order; an under mark followed by an over mark is a slot.  Normalizing
a diagram starts with every mark dirty.  Later only the marks whose right
neighbour changed are dirty: after a glide, the mark left of the swapped
pair, the pair itself and the marks around each of its two insertions;
after a removal, the left neighbour of each removed mark; after a crossing
is appended to a reduced OU state (the braid accumulator), the two old tail
marks; after one is prepended (a division candidate), the two new marks.
R1/R2 removal terminates, and overlapping patterns (an R1 inside an R2, two
R2s sharing a crossing) leave the same signed marks in the same places, so
by Newman's lemma its fixpoint does not depend on the order of removal.

A glide replaces the two crossings ``a = X_{s1}[i1, j1]`` and
``b = X_{s2}[i2, j2]`` around a under-then-over interval ``(j1, i2)`` with::

    X_{s2}[j1, j2]   X_{s1}[i1, i2]
    X_{s1*s2}[i1 - s1/3, j2 + s2/3]   X_{-s1*s2}[i1 + s1/3, j2 - s2/3]

so the interval flips to over-then-under at the cost of two new crossings
between the other two arcs.  Internally the offsets are realized as list
insertions next to the anchor marks, which is exactly the rational rule
followed by tidying.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass

from .diagram import Diagram, _assemble, _canonical_text, _mark, _strand_sequences
from .errors import CapExceeded, CyclicDiagram, InvalidDiagram, SameCrossing

DEFAULT_MAX_ITERS = 1 << 24


@dataclass(frozen=True)
class UoInterval:
    """An under-mark immediately followed by an over-mark on one strand.

    Crossings are identified by their index in ``diagram.crossings``.
    """

    strand: int
    under_crossing: int
    over_crossing: int


class _Scratch:
    """Mutable working copy of a diagram used by the rewriting loop.

    ``strands[s]`` lists the marks of strand ``s`` in order, each mark
    carrying its crossing id, pass and sign as :func:`diagram._mark` lays
    out; ``_next`` is the next unused crossing id.  Only the order matters,
    so all moves are list surgery.
    """

    __slots__ = ("strands", "_next")

    def __init__(self, strands: list[list[int]], nxt: int):
        self.strands = strands
        self._next = nxt

    @classmethod
    def from_diagram(cls, d: Diagram) -> "_Scratch":
        return cls(_strand_sequences(d), len(d.crossings))

    @classmethod
    def identity(cls, n: int) -> "_Scratch":
        return cls([[] for _ in range(n)], 0)

    def copy(self) -> "_Scratch":
        return _Scratch([list(s) for s in self.strands], self._next)

    def crossing_count(self) -> int:
        return sum(map(len, self.strands)) >> 1

    def append_crossing(self, i: int, j: int, sign: int) -> list[int]:
        """Add one crossing at the tails of strands ``i`` and ``j`` (1-based);
        return the marks whose right neighbour changed."""
        mk = _mark(self._next, True, sign)
        self._next += 1
        over, under = self.strands[i - 1], self.strands[j - 1]
        touched = over[-1:]
        over.append(mk)
        touched += under[-1:]
        under.append(mk ^ 2)
        return touched

    def prepend_crossing(self, i: int, j: int, sign: int) -> list[int]:
        """Add one crossing at the heads of strands ``i`` and ``j`` (1-based);
        return the marks whose right neighbour changed, the two new ones."""
        mk = _mark(self._next, True, sign)
        self._next += 1
        self.strands[i - 1].insert(0, mk)
        self.strands[j - 1].insert(0, mk ^ 2)
        return [mk, mk ^ 2]

    # -- full scans ---------------------------------------------------------

    def uo_slots(self) -> list[tuple[int, int]]:
        out = []
        for s, lst in enumerate(self.strands):
            for i in range(len(lst) - 1):
                if not lst[i] & 2 and lst[i + 1] & 2:
                    out.append((s, i))
        return out

    def cascade_edges(self) -> tuple[list[int], list[tuple[int, int]]]:
        """The digraph walked by cascade paths: the marks in traversal order,
        and edges as index pairs, first from each mark to its strand
        successor, then from each over mark down to its under mark in
        crossing-id order."""
        marks: list[int] = []
        edges: list[tuple[int, int]] = []
        for lst in self.strands:
            start = len(marks)
            marks.extend(lst)
            edges.extend((v, v + 1) for v in range(start, len(marks) - 1))
        index = {mk: v for v, mk in enumerate(marks)}
        edges.extend((index[mk], index[mk ^ 2]) for mk in sorted(m for m in marks if m & 2))
        return marks, edges

    def is_acyclic(self) -> bool:
        """No closed cascade path: :meth:`cascade_edges` is acyclic."""
        marks, edges = self.cascade_edges()
        indeg = [0] * len(marks)
        adj: list[list[int]] = [[] for _ in marks]
        for u, v in edges:
            adj[u].append(v)
            indeg[v] += 1
        stack = [v for v, deg in enumerate(indeg) if deg == 0]
        seen = 0
        while stack:
            v = stack.pop()
            seen += 1
            for w in adj[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    stack.append(w)
        return seen == len(marks)

    # -- the glide move ----------------------------------------------------

    def strand_of(self) -> dict[int, int]:
        """The strand index of every mark."""
        return {mk: s for s, lst in enumerate(self.strands) for mk in lst}

    def glide(self, s: int, i: int, where: dict[int, int]) -> list[int]:
        """Fix the under-then-over interval at marks ``i``, ``i + 1`` of
        strand ``s`` (0-based), keeping the strand lookup ``where`` current.
        The marks belong to different crossings: :func:`glide_once` checks
        that, and :meth:`_settle` removes a same-crossing pair as an R1.

        Returns the marks whose right neighbour changed: those around the
        swapped pair and around each anchor insertion.
        """
        lst = self.strands[s]
        x, y = lst[i], lst[i + 1]
        sign = -1 if (x ^ y) & 1 else 1  # s1 * s2
        over1 = _mark(self._next, True, sign)
        over2 = _mark(self._next + 1, True, -sign)
        self._next += 2

        # b's over mark slides back to the old under slot, a's under mark
        # slides forward to the old over slot: the interval becomes OU
        lst[i], lst[i + 1] = y, x
        touched = [y, x] if i == 0 else [lst[i - 1], y, x]

        # the new crossings' over marks flank a's over mark and their under
        # marks flank b's under mark, in the order the sign bits of x and y give
        touched += self._insert_around(where, x ^ 2, over1, over2, x & 1)
        touched += self._insert_around(where, y ^ 2, over2 ^ 2, over1 ^ 2, y & 1)
        return touched

    def _insert_around(
        self, where: dict[int, int], anchor: int, before: int, after: int, keep: int
    ) -> list[int]:
        """Put ``before`` just ahead of ``anchor`` and ``after`` just behind
        it, or the other way round when ``keep`` is false; return the marks
        whose right neighbour changed."""
        if not keep:
            before, after = after, before
        s = where[anchor]
        where[before] = where[after] = s
        marks = self.strands[s]
        at = marks.index(anchor)
        marks[at : at + 1] = (before, anchor, after)
        touched = [before, anchor, after]
        if at:
            touched.append(marks[at - 1])
        return touched

    # -- normalization --------------------------------------------------------

    def marks(self) -> list[int]:
        return [mk for lst in self.strands for mk in lst]

    def reduce(self, dirty: Iterable[int]) -> tuple[dict[int, int], list[set[int]]]:
        """Settle the ``dirty`` marks (every mark, or those whose right
        neighbour changed since the state was reduced OU); return the strand
        lookup and the UO slot sets that :meth:`_glide_loop` keeps current."""
        where = self.strand_of()
        uo: list[set[int]] = [set() for _ in self.strands]
        self._settle(where, uo, set(dirty))
        return where, uo

    def _glide_loop(
        self, where: dict[int, int], uo: list[set[int]], max_iters: int, rng: random.Random | None = None
    ) -> None:
        """Glide at the first UO slot in (strand, position) order, or at a
        random one, and settle the marks the glide touched, until no slot is
        left.  ``uo[s]`` holds the under marks of strand ``s`` that an over
        mark follows; the state is R1/R2-reduced on entry."""
        strands = self.strands
        glides = 0
        while True:
            if rng is None:
                for s, marks in enumerate(uo):
                    if marks:
                        break
                else:
                    return
                i = min(map(strands[s].index, marks))
            else:
                pool = [(s, mk) for s, marks in enumerate(uo) for mk in marks]
                if not pool:
                    return
                s, mk = rng.choice(pool)
                i = strands[s].index(mk)
            if glides >= max_iters:
                raise CapExceeded(f"no OU form after {max_iters} glide moves")
            glides += 1
            self._settle(where, uo, set(self.glide(s, i, where)))

    def _settle(self, where: dict[int, int], uo: list[set[int]], dirty: set[int]) -> None:
        """Recheck the adjacency to the right of each dirty mark: remove an
        R1 or R2 pattern found there, marking the left neighbours of the
        removed marks dirty in turn, and add or drop the mark's UO slot."""
        strands = self.strands
        while dirty:
            x = dirty.pop()
            s = where.get(x)
            if s is None:  # removed after it was marked
                continue
            lst = strands[s]
            i = lst.index(x) + 1
            if i == len(lst):
                uo[s].discard(x)
                continue
            y = lst[i]
            if x ^ y == 2:  # the two passes of one crossing: an R1
                self._drop((x,), where, uo, dirty)
            elif (x ^ y) & 2:  # one over and one under mark
                if y & 2:
                    uo[s].add(x)
            else:
                uo[s].discard(x)
                if (x ^ y) & 1 and self._adjacent(x ^ 2, y ^ 2, where):  # opposite signs
                    self._drop((x, y), where, uo, dirty)

    def _adjacent(self, p: int, q: int, where: dict[int, int]) -> bool:
        """Marks ``p`` and ``q`` are neighbours, in either order."""
        if where[p] != where[q]:
            return False
        lst = self.strands[where[p]]
        k = lst.index(p)
        return lst[k + 1 : k + 2] == [q] or (k > 0 and lst[k - 1] == q)

    def _drop(
        self, marks: tuple[int, ...], where: dict[int, int], uo: list[set[int]], dirty: set[int]
    ) -> None:
        """Remove the crossings that ``marks`` are passes of; the left
        neighbour of each removed mark becomes dirty."""
        for m in marks:
            for mk in (m, m ^ 2):
                s = where.pop(mk)
                lst = self.strands[s]
                k = lst.index(mk)
                del lst[k]
                uo[s].discard(mk)
                if k:
                    dirty.add(lst[k - 1])

    # -- export --------------------------------------------------------------

    def canonical_text(self) -> str:
        return _canonical_text(self.strands)

    def to_diagram(self) -> Diagram:
        return _assemble(self.strands)


class OuAccumulator:
    """Reduced OU form of a growing product of braid generators.

    Appending a generator and re-normalizing realizes the right action of
    braids on reduced OU diagrams; enumeration walks word trees by pushing
    one letter per node.
    """

    __slots__ = ("_scratch", "max_iters")

    def __init__(self, n: int, max_iters: int = DEFAULT_MAX_ITERS):
        self._scratch = _Scratch.identity(n)
        self.max_iters = max_iters

    def copy(self) -> "OuAccumulator":
        dup = OuAccumulator.__new__(OuAccumulator)
        dup._scratch = self._scratch.copy()
        dup.max_iters = self.max_iters
        return dup

    def push(self, i: int, j: int, sign: int) -> None:
        """Multiply by the generator ``s(i,j)^sign`` on the right.

        Only the two new tail adjacencies are checked before gliding, since
        every push leaves a reduced OU state.  No cascade check is run: the
        state before the push is reduced OU, and on an OU strand a cascade
        path that has dropped once meets only under marks, so it cannot
        close.  The appended over mark drops only to the appended under
        mark, the last on its strand, so no closed path runs through the new
        crossing either; glides and R1/R2 removal keep acyclicity.  After a
        push that raised, the state is not reduced and the accumulator must
        not be reused.
        """
        scratch = self._scratch
        where, uo = scratch.reduce(scratch.append_crossing(i, j, sign))
        scratch._glide_loop(where, uo, self.max_iters)

    def crossing_count(self) -> int:
        return self._scratch.crossing_count()

    def canonical_text(self) -> str:
        return self._scratch.canonical_text()

    def to_diagram(self) -> Diagram:
        return self._scratch.to_diagram()


def is_ou(d: Diagram) -> bool:
    """True iff on every strand all over marks precede all under marks."""
    return not _Scratch.from_diagram(d).uo_slots()


def is_acyclic(d: Diagram) -> bool:
    """True iff the diagram admits no closed cascade path."""
    return _Scratch.from_diagram(d).is_acyclic()


def cascade_graph(d: Diagram) -> tuple[list[tuple[int, int, bool]], list[tuple[int, int]]]:
    """The digraph walked by cascade paths.

    Nodes are the marks of ``d`` in traversal order, as ``(strand, crossing
    index, is_over)``; edges are index pairs, first from each mark to its
    strand successor in node order, then from each over mark down to its
    under mark in crossing-index order.  ``d`` is acyclic exactly when this
    digraph has no directed cycle.
    """
    scratch = _Scratch.from_diagram(d)
    _, edges = scratch.cascade_edges()
    nodes = [(s + 1, mk >> 2, bool(mk & 2)) for s, lst in enumerate(scratch.strands) for mk in lst]
    return nodes, edges


def is_reduced(d: Diagram) -> bool:
    """True iff no R1 kink and no R2 cancelling pair is present."""
    scratch = _Scratch.from_diagram(d)
    scratch.reduce(scratch.marks())
    return scratch.crossing_count() == len(d.crossings)


def uo_intervals(d: Diagram) -> list[UoInterval]:
    """All under-then-over intervals of ``d``, in mark order."""
    scratch = _Scratch.from_diagram(d)
    return [_interval(scratch.strands, s, i) for s, i in scratch.uo_slots()]


def _interval(strands: list[list[int]], s: int, i: int) -> UoInterval:
    return UoInterval(s + 1, strands[s][i] >> 2, strands[s][i + 1] >> 2)


def reduce_r12(d: Diagram) -> Diagram:
    """Remove R1 and R2 patterns until none remain; result is tidied.

    Removal runs to a fixpoint that does not depend on the order in which
    patterns are removed: overlapping patterns leave the same signed marks
    in the same places, so the tidied result is unique.
    """
    scratch = _Scratch.from_diagram(d)
    scratch.reduce(scratch.marks())
    return scratch.to_diagram()


def glide_once(d: Diagram, iv: UoInterval) -> Diagram:
    """Apply one glide move at ``iv``; result is tidied.

    Raises :class:`SameCrossing` when the interval's two marks belong to a
    single crossing, where the move is undefined.
    """
    if iv.under_crossing == iv.over_crossing:
        raise SameCrossing("under and over marks of the interval belong to one crossing")
    scratch = _Scratch.from_diagram(d)
    for s, i in scratch.uo_slots():
        if _interval(scratch.strands, s, i) == iv:
            scratch.glide(s, i, scratch.strand_of())
            return scratch.to_diagram()
    raise InvalidDiagram("not an under-then-over interval of this diagram")


def ou_normal_form(
    d: Diagram,
    max_iters: int = DEFAULT_MAX_ITERS,
    rng: random.Random | None = None,
) -> Diagram:
    """The unique reduced OU representative of an acyclic diagram.

    Alternates R1/R2 removal with single glide moves.  With ``rng`` the
    interval fixed at each step is chosen at random instead of first in mark
    order; the result does not depend on that choice.

    Raises :class:`CyclicDiagram` for diagrams with a closed cascade path
    and :class:`CapExceeded` after ``max_iters`` glides.
    """
    return _normalized(d, max_iters, rng).to_diagram()


def xi(d: Diagram, max_iters: int = DEFAULT_MAX_ITERS) -> int:
    """Crossing number of the reduced OU form of ``d``."""
    return _normalized(d, max_iters).crossing_count()


def _normalized(d: Diagram, max_iters: int, rng: random.Random | None = None) -> _Scratch:
    """The reduced OU form of ``d`` as a scratch state: settle every mark,
    check for a closed cascade path if a slot is left, then glide."""
    scratch = _Scratch.from_diagram(d)
    where, uo = scratch.reduce(scratch.marks())
    if any(uo) and not scratch.is_acyclic():
        raise CyclicDiagram("cyclic")
    scratch._glide_loop(where, uo, max_iters, rng)
    return scratch
