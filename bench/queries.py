"""Seeded batch of braid-equality questions whose answers are known by construction.

Equal pairs differ by one relation move applied inside a random word:

* classical words: the braid relation ``k k+1 k = k+1 k k+1`` (all letters of
  one sign), far commutation of positions at distance two or more, and free
  cancellation of a letter against its inverse;
* virtual pure words: ``s_ij s_ik s_jk = s_jk s_ik s_ij`` (or its inverse,
  with every letter inverted and the order reversed) and commutation of
  generators on disjoint strand pairs.

Distinct pairs differ by one inverted letter.  That changes the exponent sum
of one generator in the abelianization by two (the total exponent sum for
classical braids, the ``s_ij`` count for virtual pure braids), so the two
words can never be equal.

Word lengths are drawn from a fixed range and nothing is filtered by running
the program, so the rare words whose normal forms blow up stay in the batch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CLASSICAL_STRANDS = (3, 4, 5)
VIRTUAL_STRANDS = (3, 4)
# Letters per word, by kind.  Virtual words stop at 10 letters: on 3 strands
# their normal forms grow so fast that single 12-letter words take up to 3 s
# and 14-letter ones up to 30 s, so a batch would cost 10 s or 60 s depending
# on the seed.  The fixed long pair carries the large blow-up instead.
LETTERS = {"classical": (6, 14), "virtual": (6, 10)}


@dataclass(frozen=True)
class Question:
    """Two words on ``n`` strands and the verdict known by construction.

    Classical letters are signed positions; virtual letters are
    ``(i, j, sign)`` triples for ``s_ij`` (``i`` crosses over ``j``).
    """

    kind: str
    n: int
    left: tuple
    right: tuple
    equal: bool


def _classical_letter(rng: random.Random, n: int) -> int:
    k = rng.randrange(1, n)
    return k if rng.random() < 0.5 else -k


def _virtual_letter(rng: random.Random, n: int) -> tuple[int, int, int]:
    i, j = rng.sample(range(1, n + 1), 2)
    return (i, j, rng.choice((1, -1)))


def _classical_relation(rng: random.Random, n: int) -> tuple[tuple, tuple]:
    moves = ["braid", "cancel"] + (["far"] if n >= 4 else [])
    move = rng.choice(moves)
    if move == "braid":
        k = rng.randrange(1, n - 1)
        e = rng.choice((1, -1))
        return (e * k, e * (k + 1), e * k), (e * (k + 1), e * k, e * (k + 1))
    if move == "far":
        a, b = rng.sample(range(1, n), 2)
        while abs(a - b) < 2:
            a, b = rng.sample(range(1, n), 2)
        a *= rng.choice((1, -1))
        b *= rng.choice((1, -1))
        return (a, b), (b, a)
    g = _classical_letter(rng, n)
    return (), (g, -g)


def _virtual_relation(rng: random.Random, n: int) -> tuple[tuple, tuple]:
    if n >= 4 and rng.random() < 0.5:
        i, j, k, l = rng.sample(range(1, n + 1), 4)
        a = (i, j, rng.choice((1, -1)))
        b = (k, l, rng.choice((1, -1)))
        return (a, b), (b, a)
    i, j, k = rng.sample(range(1, n + 1), 3)
    lhs = ((i, j, 1), (i, k, 1), (j, k, 1))
    rhs = ((j, k, 1), (i, k, 1), (i, j, 1))
    if rng.random() < 0.5:
        lhs, rhs = (
            tuple((a, b, -1) for a, b, _ in reversed(side)) for side in (lhs, rhs)
        )
    return lhs, rhs


def _inverted(kind: str, letter):
    if kind == "classical":
        return -letter
    i, j, sign = letter
    return (i, j, -sign)


def question(rng: random.Random, kind: str, equal: bool) -> Question:
    """One question of the given kind and verdict; both words have a
    number of letters in the kind's ``LETTERS`` range."""
    shortest, longest = LETTERS[kind]
    if kind == "classical":
        n = rng.choice(CLASSICAL_STRANDS)
        letter, relation = _classical_letter, _classical_relation
    else:
        n = rng.choice(VIRTUAL_STRANDS)
        letter, relation = _virtual_letter, _virtual_relation
    if not equal:
        word = tuple(letter(rng, n) for _ in range(rng.randint(shortest, longest)))
        pos = rng.randrange(len(word))
        other = word[:pos] + (_inverted(kind, word[pos]),) + word[pos + 1:]
        return Question(kind, n, word, other, False)
    lhs, rhs = relation(rng, n)
    filler = rng.randint(shortest, longest) - max(len(lhs), len(rhs))
    filler = max(filler, shortest - min(len(lhs), len(rhs)))
    cut = rng.randint(0, filler)
    before = tuple(letter(rng, n) for _ in range(cut))
    after = tuple(letter(rng, n) for _ in range(filler - cut))
    left, right = before + lhs + after, before + rhs + after
    if rng.random() < 0.5:
        left, right = right, left
    return Question(kind, n, left, right, True)


def batch(seed: int, size: int) -> list[Question]:
    """``size`` questions: a quarter each of classical/virtual and equal/distinct."""
    rng = random.Random(seed)
    plan = [(kind, equal) for kind in ("classical", "virtual") for equal in (True, False)]
    return [question(rng, *plan[i % len(plan)]) for i in range(size)]
