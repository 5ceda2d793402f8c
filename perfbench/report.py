#!/usr/bin/env python3
"""Run the benchmark on every workload and print one table.

Run from the repository root:

    python3 perfbench/report.py [--seed 0] [--seconds 30]

Each workload runs in its own process (``perfbench/run.py``), one after the
other, so peak memory is per workload.  The table gives every end-to-end
metric with its unit, ``precompute_s`` where the workload has a precompute,
and failed/attempted trials.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    names = [m["name"] for m in spec["end_to_end"]] + ["precompute_s"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | {"precompute_s": "s"}
    print(f"{'workload':<16}" + "".join(f"{f'{n} [{units[n]}]':>20}" for n in names) + "  failed/attempted")
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(f"{workload:<16} run failed (exit {proc.returncode}): {proc.stderr.strip()[-300:]}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((ROOT / ".perfbench" / "results" /
                             f"{workload}-seed{args.seed}-trace0.json").read_text())
        values = {n: m["value"] for n, m in result["metrics"].items()}
        if record["precompute_s"]:
            values["precompute_s"] = record["precompute_s"]
        cells = "".join(f"{values[n]:>20.6g}" if n in values else f"{'-':>20}" for n in names)
        print(f"{workload:<16}{cells}  {result['failed']}/{result['attempted']}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
