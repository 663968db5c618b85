"""Rewriting of virtual tangle diagrams to reduced over-then-under form.

The pipeline: remove every kink (R1) and cancelling pair (R2); check once,
by walking its strands (:meth:`_Scratch.is_acyclic`), that a diagram from
outside has no closed cascade path; then repeatedly fix the first
under-then-over interval with a glide move.  For cascade-acyclic diagrams
this terminates in the unique reduced OU representative of the diagram's
equivalence class, independently of the order in which patterns are
removed and intervals are fixed.  States the engine built itself (the
braid accumulator's, and division's candidate quotients) are acyclic by
construction and are not checked.

One settle loop finds every pattern by rechecking each dirty mark against
its right neighbour.  An R1 is an adjacent pair of one crossing; an R2 is an
adjacent pair of over marks (or of under marks) of opposite signs whose
partner marks are adjacent too, in either order.  Normalizing a diagram
starts with every mark dirty; after a glide only the marks that
:meth:`_Scratch.glide` returns are dirty (the left neighbours of its two
insertions, and its last inserted mark when one crossing owns both last
inserted marks), and after a removal the left neighbour of each removed
pair; the glide's proof rests on the state being acyclic.  A dirty mark
carries its position when it was marked, so the loop scans for it only if
it has moved since, and it removes each pattern where it found it.  R1/R2
removal terminates, and overlapping patterns (an R1 inside an R2, two R2s
sharing a crossing) leave the same signed marks in the same places, so by
Newman's lemma its fixpoint does not depend on the order of removal.

One walk fixes the intervals (:meth:`_Scratch._walk`).  It glides at one
strand's under-then-over slots in position order, and after each glide it
steps back to the left of the over mark the glide moved; so every glide is
at the first slot of the state in (strand, position) order.  A diagram from
outside is walked strand by strand.  A crossing pushed at the tails of a
reduced OU state (by the braid accumulator, and by division on a mirror
image, :meth:`_Scratch.mirrored`) is settled by one check of the two old
tails (:meth:`_Scratch.append_crossing`): it is appended, or cancels the
last crossing as an R2, or makes a slot on its over strand only, which is
walked from beside the new mark.  Only that walk builds a strand lookup.
On the tested tables a push glides once per under mark of its over strand.

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
from dataclasses import dataclass

from .diagram import Diagram, _assemble, _canonical_text, _check_count, _mark, _strand_sequences, crossing_number
from .errors import CapExceeded, CyclicDiagram, InvalidDiagram, SameCrossing, StrandCountMismatch

__all__ = [
    "DEFAULT_MAX_ITERS",
    "OuAccumulator",
    "UoInterval",
    "cascade_graph",
    "glide_once",
    "is_acyclic",
    "is_ou",
    "is_reduced",
    "ou_normal_form",
    "reduce_r12",
    "uo_intervals",
    "xi",
]

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
        return cls(_strand_sequences(d), crossing_number(d))

    def copy(self) -> "_Scratch":
        return _Scratch([list(s) for s in self.strands], self._next)

    def crossing_count(self) -> int:
        return sum(map(len, self.strands)) >> 1

    def append_crossing(self, i: int, j: int, sign: int, max_iters: int) -> None:
        """Add one crossing at the tails of strands ``i`` and ``j`` (1-based)
        of a reduced OU state and bring it back to reduced OU form.

        The two old tails decide the push, with no strand lookup:

        * Slot: strand ``i``'s old tail is an under mark.  Both marks are
          appended, and strand ``i`` is walked from the left of the new over
          mark, whose left neighbour heads the only slot of the state.
        * Cancel: strand ``i``'s old tail is an over mark whose partner is
          strand ``j``'s old tail, of the sign opposite to the new
          crossing's.  The new crossing and the old one are an R2, so both
          tails are popped and nothing is appended.
        * Otherwise both marks are appended, and the state is reduced OU.

        The state was reduced OU, so the only new adjacencies are the old
        tail of ``i`` with the new over mark, and the old tail of ``j`` with
        the new under mark.  No R1 is there: the new crossing's id is fresh.
        An R2 needs both pairs to be of one pass with opposite signs and
        their partners adjacent, which is the cancel case; removing two tail
        marks makes no new adjacency.  The cancel case needs an over tail on
        strand ``i`` and the slot case an under one, so the slot case has
        nothing to settle before its walk, and every other strand stays OU:
        strand ``j`` gains an under mark at its tail.  ``max_iters`` caps the
        glides of the walk.
        """
        mk = _mark(self._next, True, sign)
        self._next += 1
        over, under = self.strands[i - 1], self.strands[j - 1]
        if over and under and over[-1] == under[-1] ^ 2 and (over[-1] ^ mk) & 3 == 1:  # cancel
            over.pop()
            under.pop()
            return
        over.append(mk)
        under.append(mk ^ 2)
        if len(over) > 1 and not over[-2] & 2:  # slot
            self._walk(i - 1, len(over) - 2, self.strand_of(), 0, max_iters)

    def mirrored(self) -> "_Scratch":
        """The mirror image R: strands reversed, passes swapped, signs and
        ids kept.  R is an involution, keeps OU strands OU, and turns a
        crossing stacked before a state into its image stacked after the
        mirror.  NF(R D) = R NF(D): R maps R1s to R1s, R2s to R2s, and the
        UO slot ``(x, y)`` to ``(R y, R x)``, where R a = ``X_{s1}[-j1, -i1]``
        and R b = ``X_{s2}[-j2, -i2]`` glide (module docstring) to R of the
        glide's output at ``(x, y)``: ``X_{s1}[-i2, -i1]``,
        ``X_{s2}[-j2, -j1]``, ``X_{s1*s2}[-j2 - s2/3, -i1 + s1/3]`` and
        ``X_{-s1*s2}[-j2 + s2/3, -i1 - s1/3]``.  R reverses every edge of the
        cascade digraph (:func:`cascade_graph`): strand successors run the
        other way, and each crossing drops from its old under mark, now its
        over mark, to its old over mark.  So R runs a closed cascade path
        backwards and keeps acyclicity.  So R NF(D) is reduced OU and
        equivalent to R D: by uniqueness, NF(R D)."""
        return _Scratch([[mk ^ 2 for mk in reversed(s)] for s in self.strands], self._next)

    # -- full scans ---------------------------------------------------------

    def uo_slots(self) -> list[tuple[int, int]]:
        out = []
        for s, lst in enumerate(self.strands):
            for i in range(len(lst) - 1):
                if not lst[i] & 2 and lst[i + 1] & 2:
                    out.append((s, i))
        return out

    def is_acyclic(self) -> bool:
        """No closed cascade path: Kahn's algorithm on the cascade digraph
        (:func:`cascade_graph`), walked strand by strand.  A mark's only
        in-edges are from its strand predecessor and, for an under mark,
        from its over mark.  So each strand's head, a ``(strand, position)``
        pair, passes marks until an under mark whose over mark is not yet
        passed, parks there, and resumes when that over mark is passed.  The
        digraph is acyclic exactly when every head reaches its strand's end,
        that is when no head is left parked."""
        passed: set[int] = set()
        waiting: dict[int, tuple[int, int]] = {}  # over mark -> the head parked at its under mark
        heads = [(s, 0) for s in range(len(self.strands))]
        while heads:
            s, k = heads.pop()
            lst = self.strands[s]
            while k < len(lst):
                mk = lst[k]
                if mk & 2:
                    passed.add(mk)
                    if mk in waiting:
                        heads.append(waiting.pop(mk))
                elif mk ^ 2 not in passed:
                    waiting[mk ^ 2] = (s, k)
                    break
                k += 1
        return not waiting

    # -- the glide move ----------------------------------------------------

    def strand_of(self) -> dict[int, int]:
        """The strand index of every mark."""
        return {mk: s for s, lst in enumerate(self.strands) for mk in lst}

    def glide(self, s: int, i: int, where: dict[int, int]) -> dict[int, int]:
        """Fix the under-then-over interval at marks ``i``, ``i + 1`` of
        strand ``s`` (0-based), keeping the strand lookup ``where`` current.
        The marks belong to different crossings: :func:`glide_once` checks
        that, and :meth:`_settle` removes a same-crossing pair as an R1.

        Returns the marks to settle, each mapped to its position when marked:
        the mark left of each insertion, and the last mark inserted around
        ``y ^ 2`` when the two last inserted marks are one crossing's.  On a
        reduced acyclic state, settling them finds every new R1 and R2.  A
        new pattern has a changed adjacency, and an R2 is found from either
        of its two adjacencies; so it is enough that no changed adjacency
        left out is a pattern when the glide ends.  (One that a removal turns
        into a pattern later is found from the partners' new adjacency, whose
        left mark the removal makes dirty.)  Let the glide turn ``L, x, y, R``
        into ``L, y, x, R`` and insert new marks around the anchors ``x ^ 2``
        and ``y ^ 2``.  After the insertions each anchor sits between two new
        marks, and each new mark's partner sits beside the other anchor.

        * ``y, x`` are an over and an under mark of two crossings.
        * ``L, y``: ``L`` is not the anchor ``y ^ 2``, or a new mark would
          stand between them, so this is no R1.  An R2 needs the partners
          ``L ^ 2`` and ``y ^ 2`` adjacent, but the anchor's neighbours are
          new marks and ``L ^ 2`` is not new.  ``x, R`` is the same with the
          anchor ``x ^ 2``.
        * An anchor and a new mark beside it are of one pass, so only an R2
          can be there.  It needs the new mark's partner, which is beside
          the other anchor, next to ``x`` (for the anchor ``x ^ 2``) or
          ``y`` (for ``y ^ 2``).  As ``x`` follows ``y``, that partner would
          be ``x``'s right neighbour, put there around the anchor ``y ^ 2``,
          or ``y``'s left one, put there around ``x ^ 2``.  Then ``y, y ^ 2``
          or ``x ^ 2, x`` were adjacent before the glide: an R1, which the
          reduced state cannot hold.
        * If the anchors share a strand, ``x ^ 2`` is left of ``y ^ 2``: the
          cascade path ``x ^ 2, x, y, y ^ 2`` (a drop, the strand step, a
          drop) would close a cycle with strand steps from ``y ^ 2`` to
          ``x ^ 2``.  So ``x ^ 2`` is inserted around first, and an adjacency
          between marks of the two insertions has the mark left of the
          second insertion as its left mark, which is marked.
        * A new R1 is a new mark beside its partner, which sits beside the
          other anchor: only such an adjacency between the insertions.
        * A new R2 pairs a new crossing with an old one (the new crossings'
          over marks have ``x ^ 2`` between them).  It has one adjacency at
          each insertion, between the new crossing's mark and its neighbour
          away from the anchor (an anchor and a new mark are no pattern, as
          above), and it is found from either.  A first inserted mark's
          left neighbour is marked; so only a crossing whose two marks are
          both last inserted, which happens when ``x`` and ``y`` have
          opposite signs, needs one of them marked: the one around
          ``y ^ 2``.

        The state is acyclic: :func:`_normalized` checks a diagram from
        outside, :meth:`OuAccumulator.push` and :meth:`mirrored` argue it for
        the accumulator's and division's states, and glides and R1/R2 removal
        keep it.  (:func:`glide_once` settles nothing.)
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

        # the new crossings' over marks flank a's over mark and their under
        # marks flank b's under mark, in the order the sign bits of x and y give
        dirty: dict[int, int] = {}
        for anchor, before, after, keep in ((x ^ 2, over1, over2, x & 1), (y ^ 2, over2 ^ 2, over1 ^ 2, y & 1)):
            if not keep:
                before, after = after, before
            t = where[anchor]
            where[before] = where[after] = t
            marks = self.strands[t]
            at = marks.index(anchor)
            marks[at : at + 1] = (before, anchor, after)
            if at:
                dirty[marks[at - 1]] = at - 1
        if sign < 0:  # the two last inserted marks are one crossing's
            dirty[after] = at + 2
        return dirty

    # -- normalization --------------------------------------------------------

    def reduce(self) -> dict[int, int]:
        """Settle every mark; return the strand lookup."""
        return self._settle(self.strand_of(), {mk: k for lst in self.strands for k, mk in enumerate(lst)})

    def _walk(self, s: int, at: int, where: dict[int, int], glides: int, max_iters: int) -> int:
        """Glide at the slots of strand ``s`` in position order, from
        position ``at`` on, until none is left; return ``glides`` plus the
        glides made.  The state must be reduced, with no slot before
        position ``at`` of strand ``s`` or on an earlier strand.

        A slot is an under mark followed by an over mark.  After each glide
        the walk steps back to the position left of the *mover*, the over
        mark that the glide swapped one step left.  So each glide is at the
        first slot of the state in (strand, position) order, by two facts:

        * No glide makes a slot behind the walk.  A glide puts its new over
          marks next to an over anchor and its new under marks next to an
          under anchor.  On a strand whose marks run over-then-under,
          neither makes a slot.  R1/R2 removal only deletes marks, which
          keeps that form.  So the strands before ``s`` stay OU, and the
          part of strand ``s`` before the mover stays over-then-under.
        * The walk always finds the next slot.  After a glide, the first
          slot of the whole state is at the mover's left or later on strand
          ``s``, or on a later strand.  The walk re-finds the mover by
          identity when an insertion or a removal to its left shifted it.
          If R1/R2 removal deleted the mover, the walk rescans strand ``s``
          from 0.

        The state stays reduced and acyclic, as :meth:`glide` proves for the
        marks it returns.  Raises :class:`CapExceeded` instead of glide
        ``max_iters + 1``.
        """
        lst = self.strands[s]
        while True:
            for k in range(max(at, 0), len(lst) - 1):
                if not lst[k] & 2 and lst[k + 1] & 2:
                    break
            else:
                return glides
            mover = lst[k + 1]
            glides = self._glide_settled(s, k, where, glides, max_iters)
            if k < len(lst) and lst[k] == mover:
                at = k - 1
            elif mover in where:  # shifted by an insertion or a removal
                at = lst.index(mover) - 1
            else:  # removed by R1/R2
                at = 0

    def _glide_settled(self, s: int, i: int, where: dict[int, int], glides: int, max_iters: int) -> int:
        """Glide at slot ``i`` of strand ``s`` of a reduced acyclic state and
        settle the marks the glide returns; return the glide count
        ``glides + 1``.  Raises :class:`CapExceeded` instead when ``glides``
        is already ``max_iters``."""
        if glides >= max_iters:
            raise CapExceeded(f"no OU form after {max_iters} glide moves")
        self._settle(where, self.glide(s, i, where))
        return glides + 1

    def _settle(self, where: dict[int, int], dirty: dict[int, int]) -> dict[int, int]:
        """Recheck the adjacency to the right of each dirty mark, which is
        scanned for only if it has left the position ``dirty`` maps it to:
        remove an R1 or R2 pattern found there, where it was found, marking
        the left neighbours of the removed pairs dirty in turn.  Returns
        the strand lookup ``where``, kept current."""
        strands = self.strands
        while dirty:
            x, i = dirty.popitem()
            s = where.get(x)
            if s is None:  # removed after it was marked
                continue
            lst = strands[s]
            if i >= len(lst) or lst[i] != x:  # moved since it was marked
                i = lst.index(x)
            if i + 1 == len(lst):
                continue
            y = lst[i + 1]
            if x ^ y == 2:  # the two passes of one crossing: an R1
                self._drop((x,), where, dirty, (s, i))
            elif (x ^ y) & 3 == 1 and (t := where[x ^ 2]) == where[y ^ 2]:  # one pass, opposite signs
                other = strands[t]  # an R2 if the partners are neighbours too, in either order
                k = other.index(x ^ 2)
                if k + 1 < len(other) and other[k + 1] == y ^ 2:
                    self._drop((x, y), where, dirty, (s, i), (t, k))
                elif k and other[k - 1] == y ^ 2:
                    self._drop((x, y), where, dirty, (s, i), (t, k - 1))
        return where

    def _drop(self, marks: tuple[int, ...], where: dict[int, int], dirty: dict[int, int], *at: tuple[int, int]) -> None:
        """Remove the crossings that ``marks`` are passes of, adjacent pairs
        at the ``(strand, position)`` places ``at``: one slice each, the
        later pair first if both share a strand, so the earlier one's place
        holds.  Each pair's left neighbour becomes dirty at its position."""
        for m in marks:
            del where[m], where[m ^ 2]
        for s, k in sorted(at, reverse=True):
            lst = self.strands[s]
            del lst[k : k + 2]
            if k:
                dirty[lst[k - 1]] = k - 1

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

    __slots__ = ("_scratch", "_max_iters")

    def __init__(self, n: int, max_iters: int = DEFAULT_MAX_ITERS):
        _check_count(n)
        self.max_iters = max_iters
        self._scratch = _Scratch([[] for _ in range(n)], 0)

    @property
    def max_iters(self) -> int:
        """The glide cap of each push, an int >= 0, checked when set."""
        return self._max_iters

    @max_iters.setter
    def max_iters(self, value: int) -> None:
        _check_count(value, 0, "max_iters")
        self._max_iters = value

    def copy(self) -> "OuAccumulator":
        dup = OuAccumulator.__new__(OuAccumulator)
        dup._scratch = self._scratch.copy()
        dup._max_iters = self._max_iters
        return dup

    def push(self, i: int, j: int, sign: int) -> None:
        """Multiply by the generator ``s(i,j)^sign`` on the right, by
        :meth:`_Scratch.append_crossing` with the glide cap ``max_iters``.
        Raises :class:`StrandCountMismatch` for a strand outside ``1 .. n``,
        and ``ValueError`` for ``i == j`` or a sign other than 1 and -1.
        No cascade check is run: the state before the push is reduced OU,
        and on an OU strand a cascade path that has dropped once meets only
        under marks, so it cannot close.  The appended over mark drops only
        to the appended under mark, the last on its strand, so no closed path
        runs through the new crossing either; glides and R1/R2 removal keep
        acyclicity.  After a push that raised, the state is not reduced and
        the accumulator must not be reused.
        """
        n = len(self._scratch.strands)
        if not 0 < i <= n >= j > 0:
            raise StrandCountMismatch(f"s{i},{j} is not a generator on {n} strands")
        if i == j or sign not in (1, -1):
            raise ValueError(f"invalid generator s{i},{j} of sign {sign!r}")
        self._scratch.append_crossing(i, j, sign, self._max_iters)

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
    strands = _strand_sequences(d)
    index = {mk: v for v, mk in enumerate(mk for lst in strands for mk in lst)}
    edges = [(index[mk], index[mk] + 1) for lst in strands for mk in lst[:-1]]
    edges += [(index[mk], index[mk ^ 2]) for mk in sorted(index) if mk & 2]
    return [(s + 1, mk >> 2, bool(mk & 2)) for s, lst in enumerate(strands) for mk in lst], edges


def is_reduced(d: Diagram) -> bool:
    """True iff no R1 kink and no R2 cancelling pair is present."""
    scratch = _Scratch.from_diagram(d)
    scratch.reduce()
    return scratch.crossing_count() == crossing_number(d)


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
    scratch.reduce()
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
    check for a closed cascade path (an OU state has none, as
    :meth:`OuAccumulator.push` argues), then walk every strand from position
    0 under one glide budget, or with ``rng`` glide at random slots."""
    _check_count(max_iters, 0, "max_iters")
    scratch = _Scratch.from_diagram(d)
    where = scratch.reduce()
    if not scratch.is_acyclic():
        raise CyclicDiagram("cyclic")
    glides = 0
    if rng is None:
        for s in range(len(scratch.strands)):
            glides = scratch._walk(s, 0, where, glides, max_iters)
    else:
        while slots := scratch.uo_slots():
            glides = scratch._glide_settled(*rng.choice(slots), where, glides, max_iters)
    return scratch
