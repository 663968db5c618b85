"""Benchmark of the outangles library: braid tabulation and braid queries.

Run one workload from the root of a checkout::

    python3 bench/run.py --workload tabulate-classical --seed 1 --seconds 30 --trace 0

or every workload, each in its own process, with ``--workload all``.  The
library is imported from ``src/`` next to this directory and driven through
its public API in one process, serially.

The workload's parts run as passes, one after another, until the next pass
would end after ``--seconds``.  Every output is checked against independent
references after its part's clock stops, and the first pass's outputs also
against the regression digests in ``reference.json``; any mismatch or
exception counts as a failed operation.  Times are normalised to a reference
CPU speed by ``speed.py``, because the host's speed changes while a run lasts.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced.  With ``--trace 1`` untraced
and traced passes alternate (see ``tracer.py``), at least
``MIN_TRACED_PAIRS`` of each, and the metrics are the per-layer ones plus the
tracing overhead.  Lines before the JSON give the same numbers in readable
form, with raw and per-part times the JSON leaves out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from tracer import TARGETS, Layer, Tracer  # noqa: E402

# set-up rounds at the start of a run; setup_s is their median
SETUP_ROUNDS = 5
# a traced run makes at least this many (untraced, traced) pairs of passes,
# even if that takes longer than --seconds
MIN_TRACED_PAIRS = 2
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
# the layers called on the tabulate workloads; all other traced layers run on queries only
TABULATE_LAYERS = ("rewrite.push", "rewrite.copy", "rewrite.canonical_text", "enumeration.tabulate")
DIVISION_CONTEXT = "division.extraction_graph"
TABULATE_CONTEXT = "enumeration.tabulate"


def import_library():
    """Import ``outangles`` afresh from this checkout's ``src`` directory."""
    for name in [m for m in sys.modules if m == "outangles" or m.startswith("outangles.")]:
        del sys.modules[name]
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import outangles

    if SRC_DIR not in Path(outangles.__file__).resolve().parents:
        raise ImportError(f"outangles was imported from {outangles.__file__}, not {SRC_DIR}")
    return outangles


@dataclass
class Pass:
    """One pass over a workload's parts: per-part times, normalised and raw,
    the checked outcomes, and the normalised times of single operations."""

    seconds: dict[str, float] = field(default_factory=dict)
    raw: dict[str, float] = field(default_factory=dict)
    outcomes: list[workloads.Outcome] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)

    def total(self) -> float:
        return sum(self.seconds.values())

    def raw_total(self) -> float:
        return sum(self.raw.values())


def run_pass(parts, meter: SpeedMeter, reference: dict[str, str] | None) -> Pass:
    """Run each part once and check its output after the clock stops;
    compare regression digests with ``reference`` unless it is ``None``."""
    clock = time.perf_counter
    result = Pass()
    for part in parts:
        begin = clock()
        end = None
        try:
            output = part.run()
            end = clock()
            outcome = part.check(output)
            if reference is not None:
                for label, digest in part.digests(output).items():
                    if label in reference and digest != reference[label]:
                        outcome.failed = max(outcome.failed, 1)
                        outcome.notes.append(f"{label}: digest {digest} differs from reference.json")
        except Exception:  # a raising call or a malformed output is counted and reported
            end = end or clock()
            outcome = workloads.Outcome(part.operations, part.operations, notes=[traceback.format_exc()])
        result.seconds[part.name] = meter.normalized(begin, end)
        result.raw[part.name] = end - begin
        result.outcomes.append(outcome)
        if outcome.samples:
            result.samples[part.name] = [meter.normalized(a, b) for a, b in outcome.samples]
    return result


def set_up(workload: str, seed: int, scratch_dir: str, meter: SpeedMeter) -> tuple[list, float]:
    """Import, input generation and warm-up, ``SETUP_ROUNDS`` times; returns
    the last round's parts and the median normalised time of a round."""
    times = []
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        parts = workloads.build(import_library(), workload, seed, scratch_dir)
        times.append(meter.normalized(start, time.perf_counter()))
    return parts, statistics.median(times)


def mean_of(passes: list[Pass], part: str, raw: bool = False) -> float:
    """A part's mean time over the passes.  The error left after speed
    normalisation goes either way, so a mean cancels part of it, where a
    median of a few passes keeps one pass's error whole."""
    return statistics.fmean((p.raw if raw else p.seconds)[part] for p in passes)


def wall(passes: list[Pass], raw: bool = False) -> float:
    """One pass: the sum over parts of each part's mean time."""
    return sum(mean_of(passes, name, raw) for name in passes[0].seconds)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile of the ladder with at least ten samples beyond
    it, by nearest rank, as ``(percentile, value)``."""
    ordered = sorted(samples)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def untraced_run(args, scratch_dir, meter, reference) -> tuple[dict, list[Pass], list[str]]:
    """Set-up rounds, then untraced passes until the next would end after
    ``--seconds``."""
    passes: list[Pass] = []
    start = time.perf_counter()
    parts, setup_s = set_up(args.workload, args.seed, scratch_dir, meter)
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(parts, meter, reference if not passes else None))
        if len(passes) == 1:
            # later passes only add allocator fragmentation, whose amount
            # depends on how many passes fit in the time
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        took = time.perf_counter() - pass_start
        if time.perf_counter() - start + took > args.seconds:
            break
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall(passes), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    lines = [
        f"{SETUP_ROUNDS} set-up rounds, {len(passes)} passes; raw wall_s {wall(passes, raw=True):.4f} s",
        "passes: " + ", ".join(f"{p.total():.4f} s (raw {p.raw_total():.4f} s)" for p in passes),
    ]
    for name in passes[0].seconds:
        lines.append(f"part {name}: mean {mean_of(passes, name):.4f} s "
                     f"(raw {mean_of(passes, name, raw=True):.4f} s) over {len(passes)} passes")
    batches = [p.samples["eq_batch"] for p in passes if "eq_batch" in p.samples]
    if batches:
        pct = tail(batches[0])[0]
        p50 = statistics.median(statistics.median(s) for s in batches)
        tails = statistics.median(tail(s)[1] for s in batches)
        lines.append(f"eq_p50_ms {p50 * 1e3:.4f} ms")
        lines.append(f"eq_tail_ms {tails * 1e3:.4f} ms (p{pct:g} of {len(batches[0])} decisions per pass, "
                     f"median of {len(batches)} passes)")
        lines.append(f"long_eq_s {mean_of(passes, 'long_eq'):.4f} s")
        lines.append(f"eg_s {mean_of(passes, 'eg'):.4f} s")
    return metrics, passes, lines


def observers() -> dict:
    return {
        "rewrite.push": lambda args, result: args[0].crossing_count(),
        "rewrite.canonical_text": lambda args, result: len(result),
        "rewrite.ou_normal_form": lambda args, result: len(result.crossings),
        "enumeration.tabulate": lambda args, result: sum(result.count_exactly),
        "division.extraction_graph": lambda args, result: result.edge_count(),
    }


def fold_pass(tracer: Tracer, scale: float) -> dict:
    """Per-layer metrics of one traced pass; times are multiplied by
    ``scale``, the pass's normalised over raw time."""
    layers, under = tracer.layers(context=(TABULATE_CONTEXT, DIVISION_CONTEXT))
    seen = tracer.observed
    out = {}
    for layer, _, _ in TARGETS:
        stats = layers.get(layer, Layer())
        out[f"{layer}.calls"] = (stats.calls, "count")
        out[f"{layer}.self_s"] = (stats.self_s * scale, "s")
    pushes = layers.get("rewrite.push", Layer()).durations
    out["rewrite.push.p50_us"] = (statistics.median(pushes) * scale * 1e6 if pushes else 0.0, "us")
    out["rewrite.push.tail_us"] = (tail(pushes)[1] * scale * 1e6 if pushes else 0.0, "us")
    xis = seen.get("rewrite.push", [])
    out["rewrite.push.peak_xi"] = (max(xis, default=0), "count")
    out["rewrite.push.mean_xi"] = (statistics.fmean(xis) if xis else 0.0, "count")
    enumerated = under.get((TABULATE_CONTEXT, "rewrite.push"), 0)
    out["enumeration.pushes"] = (enumerated, "count")
    distinct = sum(seen.get("enumeration.tabulate", []))
    out["enumeration.useful_ratio"] = (distinct / enumerated if enumerated else 0.0, "ratio")
    out["rewrite.canonical_text.bytes"] = (sum(seen.get("rewrite.canonical_text", [])), "B")
    out["rewrite.ou_normal_form.xi_sum"] = (sum(seen.get("rewrite.ou_normal_form", [])), "count")
    candidates = under.get((DIVISION_CONTEXT, "rewrite.ou_normal_form"), 0)
    out["division.candidates"] = (candidates, "count")
    edges = sum(seen.get(DIVISION_CONTEXT, []))
    out["division.useful_ratio"] = (edges / candidates if candidates else 0.0, "ratio")
    bench_self = sum(s.self_s for name, s in layers.items() if name.startswith("bench."))
    out["bench.self_s"] = (bench_self * scale, "s")
    out["trace.self_sum_s"] = (sum(s.self_s for s in layers.values()) * scale, "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    out["trace.overhead_est_s"] = (len(tracer.spans) * tracer.outer_s * scale, "s")
    return out


def idle_and_busy(workload: str, metrics: dict) -> tuple[list[str], list[str]]:
    """Layers predicted busy on a workload that made no call, which means
    the tracer missed them; and layers predicted idle that were called,
    which a change of how the library routes its calls may bring about."""
    tabulating = workload in workloads.TABLES
    missed, unexpected = [], []
    for layer, _, _ in TARGETS:
        calls = metrics[f"{layer}.calls"][0]
        if (layer in TABULATE_LAYERS) == tabulating:
            if calls == 0:
                missed.append(f"{layer} made no call; predicted some on {workload}")
        elif calls > 0:
            unexpected.append(f"{layer} made {calls} calls; predicted none on {workload}")
    return missed, unexpected


def traced_run(args, scratch_dir, meter, reference) -> tuple[dict, list[Pass], list[str], list[str]]:
    """(untraced, traced) pairs of passes over the same inputs, until the
    next pair would end after ``--seconds`` and at least
    ``MIN_TRACED_PAIRS`` are done.  Per-layer metrics are medians over the
    traced passes; ``trace.overhead_s`` is the median of the pairs'
    differences."""
    parts, _ = set_up(args.workload, args.seed, scratch_dir, meter)
    tracer = Tracer()
    tracer.calibrate()

    def traced_run_of(part):
        """The part's run, traced; checks and digests stay untraced."""
        run = tracer.wrap(f"bench.{part.name}", part.run)

        def run_traced():
            tracer.install(observers())
            try:
                return run()
            finally:
                tracer.uninstall()

        return run_traced

    traced_parts = [
        workloads.Part(p.name, traced_run_of(p), p.check, p.operations, p.digests) for p in parts
    ]
    untraced, traced, folded = [], [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        untraced.append(run_pass(parts, meter, reference if not untraced else None))
        traced.append(run_pass(traced_parts, meter, reference if not traced else None))
        folded.append(fold_pass(tracer, traced[-1].total() / traced[-1].raw_total()))
        tracer.reset()
        took = time.perf_counter() - pair_start
        if len(traced) >= MIN_TRACED_PAIRS and time.perf_counter() - start + took > args.seconds:
            break
    remarks = []
    metrics = {}
    for name, (_, unit) in folded[0].items():
        values = [f[name][0] for f in folded]
        if unit in ("count", "B") and len(set(values)) > 1:
            remarks.append(f"{name} differs between traced passes: {values}")
        middle = statistics.median_low if unit in ("count", "B") else statistics.median
        metrics[name] = (middle(values), unit)
    failures, unexpected = idle_and_busy(args.workload, metrics)
    remarks += unexpected
    differences = [t.total() - u.total() for u, t in zip(untraced, traced)]
    metrics["trace.wall_s"] = (statistics.median(t.total() for t in traced), "s")
    metrics["trace.untraced_wall_s"] = (statistics.median(u.total() for u in untraced), "s")
    metrics["trace.overhead_s"] = (statistics.median(differences), "s")
    traced_wall = metrics["trace.wall_s"][0]
    estimate = metrics["trace.overhead_est_s"][0]
    lines = [
        f"{len(traced)} pairs of untraced and traced passes, {metrics['trace.spans'][0]} spans per traced pass; "
        f"wrapper cost {tracer.outer_s * 1e6:.3f} us per call ({tracer.inner_s * 1e6:.3f} us inside the span)",
        "traced minus untraced wall_s per pair: " + ", ".join(f"{d:.4f}" for d in differences) + " s",
        f"self times sum to {metrics['trace.self_sum_s'][0]:.4f} s; traced wall {traced_wall:.4f} s "
        f"less estimated overhead {estimate:.4f} s = {traced_wall - estimate:.4f} s; "
        f"untraced wall {metrics['trace.untraced_wall_s'][0]:.4f} s",
    ]
    lines += [f"note: {remark}" for remark in remarks]
    return metrics, untraced + traced, failures, lines


def measure(args) -> int:
    reference = workloads.load_reference()
    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=BENCH_DIR) as scratch_dir, SpeedMeter() as meter:
        try:
            if args.trace:
                metrics, passes, failures, lines = traced_run(args, scratch_dir, meter, reference)
            else:
                metrics, passes, lines = untraced_run(args, scratch_dir, meter, reference)
                failures = []
        except ImportError as exc:
            print(f"error: cannot import the library: {exc}", file=sys.stderr)
            return 2
    outcomes = [o for p in passes for o in p.outcomes]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    notes = [note for o in outcomes for note in o.notes] + failures
    print(f"outangles {sys.modules['outangles'].__version__}; {os.cpu_count()} CPUs, Python {platform.python_version()} "
          f"on {platform.machine()}; times in seconds at the reference CPU speed (speed.py)")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} operations, {failed} failed (fail_ratio {failed / attempted:g})")
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for note in notes[:20]:
        print(f"check failed: {note}", file=sys.stderr)
    result = {
        "correct": not notes and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    print("all workloads correct" if status == 0 else "some workload failed or gave a wrong output")
    return status


def main(argv=None) -> int:
    # turn a termination request into an exit, so temporary files and
    # child processes are cleaned up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
