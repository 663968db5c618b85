"""Session-wide fixtures: cached tabulations and the divisor closure.

The acceptance suite and several property tests share the same expensive
artifacts (braid tables, the corpus of small reduced OU tangles, and the
per-tangle divisor candidates), so they are computed once per session.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

import outangles as ou
from outangles.braid import generator_diagram, vpb_generators


@pytest.fixture(scope="session")
def tab(tmp_path_factory):
    """Memoized ``tabulate`` that always persists representatives."""
    reps_dir = tmp_path_factory.mktemp("representatives")
    cache: dict[tuple, ou.TabulationReport] = {}

    def get(n: int, m: int, kind: str) -> ou.TabulationReport:
        key = (n, m, kind)
        if key not in cache:
            path = reps_dir / f"{kind}-{n}-{m}.txt"
            cache[key] = ou.tabulate(n, m, kind, representatives_path=str(path))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def corpus(tab):
    """All distinct virtual braids with n <= 3 strands and m <= 3 crossings,
    as (representative word, reduced OU diagram) pairs."""
    out = []
    for n in (2, 3):
        report = tab(n, 3, "virtual")
        for word, _, _ in ou.read_representatives(report.representatives_path):
            out.append((word, ou.ch(word)))
    return out


@dataclass
class Closure:
    """Divisor candidates for every tangle reachable from the corpus.

    ``candidates[key]`` lists ``(generator, candidate crossing count,
    quotient key or None)`` for all 2n(n-1) generators, where the candidate
    is the normal form of the generator's inverse stacked before the tangle.
    """

    store: dict[bytes, ou.Diagram] = field(default_factory=dict)
    candidates: dict[bytes, list] = field(default_factory=dict)

    def divisor_edges(self, key: bytes):
        return [(g, qk) for g, _, qk in self.candidates[key] if qk is not None]


@pytest.fixture(scope="session")
def closure(corpus):
    clo = Closure()
    work = []
    for _, diagram in corpus:
        key = ou.canonical_key(diagram)
        if key not in clo.store:
            clo.store[key] = diagram
            work.append(key)
    while work:
        key = work.pop()
        diagram = clo.store[key]
        base = ou.crossing_number(diagram)
        row = []
        for g in vpb_generators(diagram.n):
            candidate = ou.ou_normal_form(
                ou.compose(generator_diagram(diagram.n, g.inverse()), diagram)
            )
            count = ou.crossing_number(candidate)
            if count < base:
                qkey = ou.canonical_key(candidate)
                row.append((g, count, qkey))
                if qkey not in clo.store:
                    clo.store[qkey] = candidate
                    work.append(qkey)
            else:
                row.append((g, count, None))
        clo.candidates[key] = row
    return clo
