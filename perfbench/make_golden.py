#!/usr/bin/env python3
"""Record golden.json: the outputs the benchmark checks every op against.

    python3 perfbench/make_golden.py

For every CLI workload and every master seed a run may draw, it runs the
op once and records the sha256 of each CSV written; it also records the
full outcome sequence and mean payoffs of the six golden matches, and
checks that the two stochastic ones go through at least three of the four
joint outcomes.  Run it
only when a change is meant to alter outputs, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    golden = {
        "master_seeds": list(run.MASTER_SEEDS),
        "cli": {},
        "matches": [run.play_golden_match(a, b, seed) for a, b, seed in run.GOLDEN_MATCHES],
    }
    for match in golden["matches"][-2:]:
        if len(run.outcome_kinds(match)) < 3:
            print(f"error: {match['a']}-{match['b']} does not mix outcomes", file=sys.stderr)
            return 1
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        out = Path(tmp) / "out"
        for workload in run.CLI_WORKLOADS:
            golden["cli"][workload] = {}
            for seed in run.MASTER_SEEDS:
                wall, ok = run.run_cli_op(run.cli_argv(workload, seed, out))
                if not ok:
                    print(f"error: {workload} seed {seed} failed", file=sys.stderr)
                    return 1
                golden["cli"][workload][str(seed)] = run.output_hashes(out)
                for path in out.iterdir():
                    path.unlink()
                print(f"{workload} seed {seed}: {wall:.2f} s", file=sys.stderr)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
