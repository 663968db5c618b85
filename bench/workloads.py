"""The benchmark's workloads: inputs made from a seed, timed parts, checks.

A workload is a list of :class:`Part` objects.  ``run`` does the timed work
through the public ``outangles`` API and returns its raw output; ``check``
runs after the clock stops and compares that output with references that do
not come from the program wherever possible; ``digests`` gives regression
digests of the output, which ``run.py`` compares with ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import queries

REFERENCE_PATH = Path(__file__).with_name("reference.json")

TABLES = {
    "tabulate-classical": ((3, 8, "classical"), (4, 5, "classical"), (5, 4, "classical")),
    "tabulate-virtual": ((3, 4, "virtual"), (4, 3, "virtual"), (5, 2, "virtual")),
}

# Exact braid counts per crossing number, from the paper's tables.
PAPER_COUNTS = {
    (3, 8, "classical"): (1, 4, 12, 30, 68, 148, 314, 656, 1356),
    (4, 5, "classical"): (1, 6, 26, 98, 338, 1110),
    (5, 4, "classical"): (1, 8, 44, 206, 884),
    (3, 4, "virtual"): (1, 12, 132, 1416, 15156),
    (4, 3, "virtual"): (1, 24, 504, 10344),
    (5, 2, "virtual"): (1, 40, 1320),
}

BATCH_SIZE = 600
# reference.json holds the eq batch digest of seeds 0 .. REFERENCE_SEEDS - 1
REFERENCE_SEEDS = 32
# (1 2)^30 and (2 1)^30 are both the 20th power of the 3-strand half twist
LONG_PAIR = ("br 3:" + " 1 2" * 30, "br 3:" + " 2 1" * 30)
# the 6-strand half twist: 15 crossings, extraction graph = permutahedron
HALF_TWIST_6 = "br 6: " + " ".join(str(k) for top in range(5, 0, -1) for k in range(1, top + 1))
HALF_TWIST_NODES = 720  # 6!
HALF_TWIST_EDGES = 1800  # 6! * 5 / 2


@dataclass
class Outcome:
    """Checked result of one part: operations attempted and failed, the
    ``(start, end)`` clock readings of single operations in parts with many
    of them, and failure notes."""

    attempted: int
    failed: int = 0
    samples: list[tuple[float, float]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def no_digests(output) -> dict[str, str]:
    return {}


@dataclass
class Part:
    """``run`` is timed; ``check`` compares its output with independent
    references; ``digests`` gives regression digests of it by label."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    operations: int = 1
    digests: Callable[[object], dict[str, str]] = no_digests


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("ascii")
    return hashlib.sha256(data).hexdigest()


def load_reference() -> dict[str, str]:
    with open(REFERENCE_PATH, encoding="ascii") as fh:
        return json.load(fh)["digests"]


def fibonacci_counts(m_max: int) -> list[int]:
    """``6*2^m - 2*F(m+3) - 2`` for ``m = 1 .. m_max``, computed here."""
    fib = [0, 1]
    while len(fib) <= m_max + 3:
        fib.append(fib[-1] + fib[-2])
    return [6 * 2**m - 2 * fib[m + 3] - 2 for m in range(1, m_max + 1)]


def _expect(outcome: Outcome, ok: bool, note: str) -> None:
    if not ok:
        outcome.failed = 1
        outcome.notes.append(note)


def tabulate_parts(ou, workload: str, scratch_dir: str) -> list[Part]:
    """One part per table, each writing its representatives file."""
    parts = []
    for n, m, kind in TABLES[workload]:
        path = os.path.join(scratch_dir, f"{kind}-{n}-{m}.txt")
        label = f"tabulate({n},{m},{kind})"

        def run(n=n, m=m, kind=kind, path=path):
            return ou.tabulate(n, m, kind, representatives_path=path)

        def check(report, n=n, m=m, kind=kind, label=label):
            outcome = Outcome(attempted=1)
            counts = tuple(report.count_exactly)
            _expect(outcome, counts == PAPER_COUNTS[(n, m, kind)], f"{label}: counts {counts}")
            if (n, kind) == (3, "classical"):
                _expect(outcome, list(counts[1:]) == fibonacci_counts(m), f"{label}: Fibonacci fit")
                _expect(outcome, ou.fibonacci_check(m, counts), f"{label}: fibonacci_check")
            return outcome

        def digests(report, path=path, label=label):
            with open(path, "rb") as fh:
                return {label: sha256(fh.read())}

        parts.append(Part(label, run, check, digests=digests))
    return parts


def make_word(ou, kind: str, n: int, letters: tuple):
    if kind == "classical":
        return ou.ClassicalBraidWord(n, letters)
    return ou.VirtualBraidWord(n, tuple(ou.BraidGenerator(*g) for g in letters))


def queries_parts(ou, seed: int) -> list[Part]:
    """The ``eq`` batch, the long pair, and the Delta_6 extraction graph."""
    batch = queries.batch(seed, BATCH_SIZE)
    pairs = [
        (
            ou.classical_braids_equal if q.kind == "classical" else ou.braids_equal,
            make_word(ou, q.kind, q.n, q.left),
            make_word(ou, q.kind, q.n, q.right),
        )
        for q in batch
    ]
    clock = time.perf_counter

    def run_batch():
        out = []
        for equal, left, right in pairs:
            start = clock()
            try:
                verdict = equal(left, right)
            except Exception:  # a failed decision is counted, not fatal
                verdict = traceback.format_exc()
            out.append((start, clock(), verdict))
        return out

    def check_batch(out):
        outcome = Outcome(attempted=len(out), samples=[(start, end) for start, end, _ in out])
        for q, (_, _, verdict) in zip(batch, out):
            if isinstance(verdict, str):
                outcome.failed += 1
                outcome.notes.append(f"eq raised on {q}:\n{verdict}")
            elif verdict != q.equal:
                outcome.failed += 1
                outcome.notes.append(f"eq verdict wrong on {q}")
        return outcome

    def digest_batch(out):
        """The verdicts, and the identity key of the left word of each equal pair."""
        blob = bytearray(v is True for _, _, v in out)
        for q, (_, left, _) in zip(batch, pairs):
            if q.equal:
                blob += ou.classical_key(left) if q.kind == "classical" else ou.canonical_key(ou.ch(left))
        return {f"eq_batch(seed {seed})": sha256(bytes(blob))}

    long_left, long_right = (ou.parse_classical(text) for text in LONG_PAIR)

    def check_long(equal):
        outcome = Outcome(attempted=1)
        _expect(outcome, equal is True, "long pair decided distinct")
        return outcome

    twist, _ = ou.classical_to_vpb(ou.parse_classical(HALF_TWIST_6))
    tangle = ou.ch(twist)

    def run_graph():
        return ou.extraction_graph(tangle), ou.peel(tangle)

    def check_graph(out):
        graph, (word, core) = out
        outcome = Outcome(attempted=2)
        sources = set(graph.nodes) - {dst for _, _, dst in graph.edges}
        sinks = set(graph.nodes) - {src for src, _, _ in graph.edges}
        shape = (graph.node_count(), graph.edge_count(), len(sources), len(sinks))
        if shape != (HALF_TWIST_NODES, HALF_TWIST_EDGES, 1, 1) or sources != {graph.source}:
            outcome.failed += 1
            outcome.notes.append(f"extraction graph shape (nodes, edges, sources, sinks) = {shape}")
        if len(word.letters) != 15 or ou.crossing_number(core) != 0:
            outcome.failed += 1
            outcome.notes.append(f"peel gave {len(word.letters)} letters and a {ou.crossing_number(core)}-crossing core")
        return outcome

    return [
        Part("eq_batch", run_batch, check_batch, operations=len(pairs), digests=digest_batch),
        Part("long_eq", lambda: ou.classical_braids_equal(long_left, long_right), check_long,
             digests=lambda equal: {"long_pair": sha256(ou.classical_key(long_left))}),
        Part("eg", run_graph, check_graph, operations=2,
             digests=lambda out: {"half_twist_edge_lines": sha256(ou.to_edge_lines(out[0]))}),
    ]


def warm_up(ou, workload: str, scratch_dir: str) -> None:
    """Exercise the code paths once on small inputs before timing."""
    if workload in TABLES:
        kind = TABLES[workload][0][2]
        ou.tabulate(3, 2, kind, representatives_path=os.path.join(scratch_dir, "warm-up.txt"))
        return
    hexagon = ou.ch(ou.parse_vpb("vpb 3: s1,2 s1,3 s2,3"))
    ou.extraction_graph(hexagon)
    ou.peel(hexagon)
    ou.classical_braids_equal(*(ou.parse_classical(t) for t in ("br 4: 1 -2 3 2 -1", "br 4: 1 -2 3 -1 2")))


def build(ou, workload: str, seed: int, scratch_dir: str) -> list[Part]:
    if workload in TABLES:
        parts = tabulate_parts(ou, workload, scratch_dir)
    else:
        parts = queries_parts(ou, seed)
    warm_up(ou, workload, scratch_dir)
    return parts


WORKLOADS = tuple(TABLES) + ("queries",)
