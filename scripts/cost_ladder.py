#!/usr/bin/env python3
"""Reproduce the circuit-evaluation scaling ladder.

Sweeps the training length and the grid size on the damped-oscillator
benchmark and records instrumented totals for the three model families:

* original trial function  -- total grows like epochs * grid size
* trainable observable     -- total is the precompute alone, epoch-independent
* flipped (shadow-budget)  -- per-epoch charge scales with log2(grid size)

Every run goes through the command line's validated run path
(``cli.spec_config`` then ``cli.execute``) with early stopping off, so each
trains exactly the epochs asked for.  Writes one CSV per family under --out
and prints the least-squares fits.
"""

import argparse
import csv
import pathlib

import numpy as np

from dqsolve import cli


def fit_r2(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * np.asarray(x) + intercept
    ss_res = float(np.sum((np.asarray(y) - fitted) ** 2))
    ss_tot = float(np.sum((np.asarray(y) - np.mean(y)) ** 2))
    return slope, intercept, 1.0 - ss_res / ss_tot


def run(spec, epochs, m, seed, **overrides):
    """Train one damped-oscillator model on an m-point grid for exactly
    ``epochs`` epochs; returns (problem, trial models, trace, counter)."""
    config = cli.spec_config("damped_osc", spec, epochs, grid_m=m, seed=seed, stop_loss=0.0,
                             patience=epochs + 1, **overrides)
    return cli.execute(config)


def sweep_original(epoch_grid, m_grid, seed):
    rows = []
    for epochs in epoch_grid:
        for m in m_grid:
            *_, counter = run("original", epochs, m, seed, depth=1)
            rows.append((epochs, m, epochs * m, counter.total))
    return rows


def sweep_to(epoch_grid, m_grid, seed):
    rows = []
    for epochs in epoch_grid:
        for m in m_grid:
            problem, trial_models, _, counter = run("to-loc2", epochs, m, seed)
            d = trial_models[0].table.n_observables
            rows.append((epochs, m, d * problem.eval_points.shape[0], counter.total))
    return rows


def sweep_fs(m_grid, seed):
    rows = []
    for m in m_grid:
        problem, trial_models, _, counter = run("fs-exact", 2, m, seed, depth=1)
        rows.append((m, problem.eval_points.shape[0], trial_models[0].snapshots, counter.total // 2))
    return rows


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="runs/cost_ladder")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, nargs="+", default=[10, 40, 70, 100])
    parser.add_argument("--grids", type=int, nargs="+", default=[5, 10, 20, 40])
    args = parser.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = sweep_original(args.epochs, args.grids, args.seed)
    write_csv(out / "original.csv", ("epochs", "m", "epochs_times_m", "total_evals"), rows)
    slope, intercept, r2 = fit_r2([r[2] for r in rows], [r[3] for r in rows])
    print(f"original: total ~ {slope:.1f} * (epochs*m) + {intercept:.0f}   R^2 = {r2:.6f}")

    rows = sweep_to(args.epochs, args.grids, args.seed)
    write_csv(out / "trainable_observable.csv", ("epochs", "m", "d_times_m", "total_evals"), rows)
    by_m = {}
    for epochs, m, _, total in rows:
        by_m.setdefault(m, set()).add(total)
    flat = all(len(v) == 1 for v in by_m.values())
    print(f"trainable observable: totals epoch-independent: {flat} "
          f"(precompute only; e.g. m={args.grids[0]} -> {rows[0][3]} evals)")

    rows = sweep_fs(args.grids, args.seed)
    write_csv(out / "flipped.csv", ("m", "eval_points", "snapshot_budget", "per_epoch_evals"), rows)
    scaled = [r[2] / np.log2(r[1] * 2) for r in rows]
    print("flipped: snapshot budget / log2(points * (order+1)) = "
          + ", ".join(f"{s:.1f}" for s in scaled))
    print(f"wrote CSVs to {out}")


if __name__ == "__main__":
    raise SystemExit(main())
