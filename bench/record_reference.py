"""Write ``reference.json``: regression digests of the library's outputs.

    python3 bench/record_reference.py

Runs every part of every workload once, checks its output against the
independent references, and records the part's digests: the representatives
file of every table, the identity key of the long pair, the edge lines of the
Delta_6 extraction graph, and the ``eq`` batch (verdicts and the key of the
left word of each equal pair) of seeds ``0 .. workloads.REFERENCE_SEEDS - 1``.
They are regression references, not independent ones; re-record them only for
an accepted change of output bytes.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run
import workloads


def main() -> int:
    ou = run.import_library()
    digests = {}
    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=run.BENCH_DIR) as scratch_dir:
        for workload in workloads.WORKLOADS:
            seeds = range(workloads.REFERENCE_SEEDS) if workload == "queries" else (0,)
            for seed in seeds:
                for part in workloads.build(ou, workload, seed, scratch_dir):
                    # only the eq batch depends on the seed
                    if seed > 0 and part.name != "eq_batch":
                        continue
                    output = part.run()
                    outcome = part.check(output)
                    if outcome.failed:
                        raise SystemExit(f"{workload} {part.name} failed its checks; not recording:\n"
                                         + "\n".join(outcome.notes[:5]))
                    digests.update(part.digests(output))
                print(f"{workload} seed {seed} recorded", file=sys.stderr, flush=True)
    reference = {
        "about": f"regression digests recorded from outangles {ou.__version__} by bench/record_reference.py",
        "digests": digests,
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="ascii") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
