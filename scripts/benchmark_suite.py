#!/usr/bin/env python3
"""Run the stock benchmark matrix and print a summary table.

Trains each requested (problem, model) pair with its shipped default
configuration and reports the final loss, the measure of success per grid
point, and the instrumented circuit-evaluation total.  Full per-run
artifacts land under --out/<problem>/<model>/.
"""

import argparse
import pathlib
import sys
import time

from dqsolve import cli, problems
from dqsolve.config import ConfigurationError

DEFAULT_PROBLEMS = list(problems.PROBLEMS)
DEFAULT_MODELS = ["original", "to-loc2", "fs-exact"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--problems", nargs="+", default=DEFAULT_PROBLEMS,
                        choices=DEFAULT_PROBLEMS)
    parser.add_argument("--models", nargs="+", default=DEFAULT_MODELS,
                        help="model specs like original, to-loc2, to-all, fs-exact, fs-shadow")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=None,
                        help="optional cap overriding every default epoch budget")
    parser.add_argument("--out", default="runs/benchmarks")
    args = parser.parse_args()

    # validate every configuration before training any of them
    runs = []
    try:
        for problem_name in args.problems:
            for spec in args.models:
                out_dir = str(pathlib.Path(args.out) / problem_name / spec)
                config = cli.spec_config(problem_name, spec, args.epochs, seed=args.seed, out_dir=out_dir)
                runs.append((problem_name, spec, config))
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return cli.EXIT_CONFIG

    header = f"{'problem':<12} {'model':<10} {'epochs':>6} {'loss':>10} {'MoS/pt':>10} {'evals':>12} {'secs':>6}"
    print(header)
    print("-" * len(header))
    for problem_name, spec, config in runs:
        start = time.time()
        problem, trial_models, trace, counter = cli.execute(config)
        elapsed = time.time() - start
        cli.write_run_artifacts(config, problem, trial_models, trace, counter)
        last = trace.records[-1]
        per_point = last.mos / (problem.grid.size * problem.n_functions)
        print(f"{problem_name:<12} {spec:<10} {len(trace.records):>6} "
              f"{last.loss:>10.3e} {per_point:>10.3e} {counter.total:>12} "
              f"{elapsed:>6.1f}")
    print(f"\nper-run artifacts under {args.out}/")


if __name__ == "__main__":
    raise SystemExit(main())
