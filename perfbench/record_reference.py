#!/usr/bin/env python3
"""Record the final loss and MoS per point of every workload at every
reference seed into perfbench/reference.json, the values the benchmark's
correctness gate compares each trial against.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record_reference.py [WORKLOAD ...]

Re-record only when a change is meant to alter training results, and say
why in that change.
"""

import os
import sys

# The same single-threaded BLAS as the benchmark, so the numbers match bit for bit.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402


def main(argv) -> int:
    names = argv or list(workloads.WORKLOADS)
    reference = workloads.load_reference()
    out_dir = Path.cwd() / ".perfbench" / "out" / "reference"
    for name in names:
        entries = {}
        for seed in range(workloads.REFERENCE_SEEDS):
            trial = workloads.run_trial(name, seed, out_dir)
            entries[str(seed)] = {"final_loss": trial.final_loss, "mos_per_point": trial.mos_per_point}
            # every other part of the gate (charges, epochs, finiteness) must pass
            reasons = trial.failures(name, seed, {name: entries})
            if reasons:
                print(f"{name} seed {seed}: {'; '.join(reasons)}", file=sys.stderr)
                return 1
            print(f"{name} seed {seed}: final_loss={trial.final_loss!r} "
                  f"mos_per_point={trial.mos_per_point!r}", flush=True)
        reference[name] = entries
        workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
