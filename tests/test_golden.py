"""Golden differential test: SHA-256 digests of the outputs of a fixed,
seeded corpus.

The digests were recorded before the mark encoding and the tidy numbering
were unified, and any refactor of the diagram or rewriting layers must leave
them unchanged.  Each group hashes the ``repr`` of its outputs, so the exact
crossing order, mark keys and key types count, not just canonical texts.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest
from helpers import random_gauss, random_vpb_word

import outangles as ou
from outangles import ClassicalBraidWord, Crossing, Diagram
from outangles.errors import OuError

GOLDEN_SHA256 = {
    "ch": "2ef2a6c960aa764396f4b23d73e937cf8e018fdadccf9a0e965df76920bde2e9",
    "tidy": "b3d8cc83ecb1342d1a45dd7dd7040d68cd55e00e333664df5ea7e44110c11fc8",
    "reduce_r12": "32e0285a0eb7002897366508d86a7e0cba9934bc43ddb165c54bee9759e4ac77",
    "cascade_graph": "be0ba2403077224638b3cdff2b7692d4a65d570b9084b876b17aa4fc65e7bee5",
    "glide_once": "6b2725765326a56f3619c1cb61acbfd9272924f090cd5eaaa23b7af791e18d9d",
    "normal_form": "dd23d98b8e9b23c65df52b2820bed8d7cf6cf085cfad469efcb22f551bb1095e",
    "compose": "d3f2e5bbd59ab2c76aef1a837b29d6a6d29206d94ccae0f9419deeac2020959d",
    "peel": "3f3298de870d6915b0d089fd703b31ab60c08b263b47fb2e3c8e71c67af5d023",
    "extraction_graphs": "2e8f96a555a2033c7da101458f7b2534ff754838deabfe78553d40b5fe09f6e9",
}


def _scramble(rng: random.Random, d: Diagram) -> Diagram:
    """``d`` with every key scaled and shifted and its crossings reordered:
    the same Gauss diagram, no longer tidy."""
    scale = Fraction(rng.randrange(1, 7), rng.randrange(1, 5))
    shift = Fraction(rng.randrange(-9, 9), 2)

    def move(mark):
        return (mark[0], mark[1] * scale + shift)

    crossings = [Crossing(c.sign, move(c.over), move(c.under)) for c in d.crossings]
    rng.shuffle(crossings)
    return Diagram(d.n, tuple(crossings), tuple(k * scale + shift for k in d.eos_keys))


def _outcome(fn, *args, **kwargs) -> str:
    try:
        return repr(fn(*args, **kwargs))
    except OuError as exc:
        return f"{type(exc).__name__}: {exc}"


def _corpus() -> list[tuple[Diagram, ou.VirtualBraidWord | None]]:
    rng = random.Random(20261018)
    cases: list[tuple[Diagram, ou.VirtualBraidWord | None]] = []
    for _ in range(40):
        word = random_vpb_word(rng, rng.randrange(2, 5), rng.randrange(0, 7))
        cases.append((_scramble(rng, ou.iota(word)), word))
    for _ in range(40):
        cases.append((random_gauss(rng, rng.randrange(1, 4), rng.randrange(0, 5)), None))
    return cases


def _digests() -> dict[str, str]:
    groups: dict[str, list[str]] = {name: [] for name in GOLDEN_SHA256}
    cases = _corpus()
    for idx, (d, word) in enumerate(cases):
        if word is not None:
            groups["ch"].append(ou.serialize(ou.ch(word)))
        groups["tidy"] += [repr(ou.tidy(d)), ou.serialize(d)]
        groups["reduce_r12"].append(repr(ou.reduce_r12(d)))
        groups["cascade_graph"] += [
            repr(ou.cascade_graph(d)),
            repr((ou.is_ou(d), ou.is_acyclic(d), ou.is_reduced(d))),
        ]
        intervals = ou.uo_intervals(d)
        groups["glide_once"].append(repr(intervals))
        for iv in intervals[:2]:
            groups["glide_once"].append(_outcome(ou.glide_once, d, iv))
        groups["normal_form"] += [
            _outcome(ou.ou_normal_form, d, 1000),
            _outcome(ou.ou_normal_form, d, 1000, rng=random.Random(idx)),
        ]
        other = cases[(idx * 7 + 3) % len(cases)][0]
        if other.n == d.n:
            groups["compose"].append(repr(ou.compose(d, other)))
    for n in (2, 3, 4):
        for g in ou.vpb_generators(n):
            groups["compose"].append(repr(ou.generator_diagram(n, g)))
    for text in ("vpb 3: s1,2 s1,3 s2,3", "vpb 3: s1,2 s2,1' s3,1 s1,3", "vpb 2: s1,2 s1,2 s2,1"):
        tangle = ou.ch(ou.parse_vpb(text))
        for seed in (None, 0, 1):
            rng = None if seed is None else random.Random(seed)
            word, core = ou.peel(tangle, rng=rng)
            groups["peel"] += [word.text(), repr(core)]
    hexagon = ou.parse_vpb("vpb 3: s1,2 s1,3 s2,3")
    tesseract, _ = ou.classical_to_vpb(ClassicalBraidWord(8, (1, 3, 5, 7)))
    permutahedron, _ = ou.classical_to_vpb(ClassicalBraidWord(4, (1, 2, 3, 1, 2, 1)))
    for word in (hexagon, tesseract, permutahedron):
        graph = ou.extraction_graph(ou.ch(word))
        groups["extraction_graphs"] += [ou.to_dot(graph), ou.to_edge_lines(graph)]
    return {
        name: hashlib.sha256("\n\x00".join(parts).encode("utf-8")).hexdigest()
        for name, parts in groups.items()
    }


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    return _digests()


@pytest.mark.parametrize("group", sorted(GOLDEN_SHA256))
def test_outputs_match_golden_digests(digests, group):
    assert digests[group] == GOLDEN_SHA256[group]
