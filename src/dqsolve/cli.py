"""Command-line front end: single runs, model comparisons, cost inspection
and a quick invariant self-test.

Artifacts per run: ``trace.csv`` (per-epoch loss / measure-of-success /
cumulative evaluation count), ``solution.csv`` (trained solution on a dense
grid, with the reference solution where one exists), ``summary.json``
(config echo, seed, final metrics, counter breakdown) and, on request, a
small self-contained ``chart.svg``.

Exit codes: 0 success, 2 configuration error (a run that does not fit in
memory among them: numpy raised ``MemoryError``), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import models, pauli, problems, shadows, training
from .config import (
    CHOICES,
    KINDS,
    ConfigurationError,
    RunConfig,
    apply_overrides,
    config_to_text,
    default_config,
    load_config,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

DENSE_1D = 200
DENSE_2D = 50   # per axis


# ---------------------------------------------------------------------------
# experiment assembly


def build_problem(config: RunConfig):
    factory = problems.PROBLEMS[config.problem]
    if config.grid_m:
        return factory(config.grid_m)
    return factory()


def observable_set(config: RunConfig):
    if config.observables == "loc1":
        return pauli.enumerate_k_local(config.n_qubits, 1)
    if config.observables == "loc2":
        return pauli.enumerate_k_local(config.n_qubits, 2)
    return pauli.all_strings(config.n_qubits)


def shadow_budget(config: RunConfig) -> shadows.ShadowBudget:
    return shadows.ShadowBudget(c0=config.shadow_c0, eps=config.shadow_eps,
                                exponent=config.shadow_exponent, w_max=config.shadow_w_max)


def build_models(config: RunConfig, problem, counter):
    """One trial model per dependent variable; TO variants share one table."""
    if config.variant == "original":
        return [
            models.OriginalModel(config.n_qubits, config.depth, problem.eval_points, counter=counter)
            for _ in range(problem.n_functions)
        ]
    if config.variant == "to":
        table = models.precompute_to_table(
            problem.eval_points,
            problem.all_modes,
            observable_set(config),
            config.n_qubits,
            counter=counter,
        )
        return [models.TOModel(table, counter=counter) for _ in range(problem.n_functions)]
    return [
        models.FlippedModel(
            config.n_qubits,
            config.depth,
            problem.eval_points,
            mode=config.fs_mode,
            budget=shadow_budget(config),
            max_order=problem.order,
            counter=counter,
        )
        for _ in range(problem.n_functions)
    ]


def train_config(config: RunConfig) -> dict:
    return {key: getattr(config, key) for key in ("epochs", "lr", "stop_loss", "patience")}


def execute(config: RunConfig):
    """Run precompute (if any) + training; returns (problem, models, trace, counter)."""
    problem = build_problem(config)
    counter = training.EvalCounter()
    trial_models = build_models(config, problem, counter)
    rng = np.random.default_rng(config.seed)
    trace = training.train(problem, trial_models, train_config(config), rng, counter=counter)
    return problem, trial_models, trace, counter


# ---------------------------------------------------------------------------
# artifacts


def trace_csv(trace: training.TrainTrace) -> str:
    lines = ["epoch,loss,loss_de,loss_bc,mos,cum_evals"]
    lines.extend(
        "%d,%.17g,%.17g,%.17g,%.17g,%d" % (r.epoch, r.loss, r.loss_de, r.loss_bc, r.mos, r.cum_evals)
        for r in trace.records
    )
    return "\n".join(lines) + "\n"


def dense_points(problem) -> np.ndarray:
    count = DENSE_1D if problem.dimension == 1 else DENSE_2D
    return problems.tensor_points([np.linspace(lo, hi, count) for lo, hi in problem.grid.bounds])


def solution_csv(problem, trial_models, trace: training.TrainTrace) -> str:
    points = dense_points(problem)
    coords = [f"x{d}" for d in range(problem.dimension)]
    columns = list(coords)
    data = [points[:, d] for d in range(problem.dimension)]
    for fn, (model, params) in enumerate(zip(trial_models, trace.final_params)):
        values = model.values_at(params, points, ())
        exact = problem.analytic[fn](points)
        columns.extend([f"f{fn}_model", f"f{fn}_exact", f"f{fn}_sq_err"])
        data.extend([values, exact, (values - exact) ** 2])
    row_format = ",".join(["%.17g"] * len(columns))
    lines = [",".join(columns)]
    lines.extend(row_format % tuple(row) for row in np.column_stack(data).tolist())
    return "\n".join(lines) + "\n"


def summary_doc(config: RunConfig, problem, trace: training.TrainTrace, counter) -> dict:
    final = trace.records[-1]
    return {
        "config": dataclasses.asdict(config),
        "problem": {
            "name": problem.name,
            "dimension": problem.dimension,
            "n_functions": problem.n_functions,
            "grid_size": problem.grid.size,
            "n_boundary_terms": len(problem.boundary),
        },
        "seed": config.seed,
        "epochs_run": len(trace.records),
        "final": {
            "loss": final.loss,
            "loss_de": final.loss_de,
            "loss_bc": final.loss_bc,
            "mos": final.mos,
        },
        "counter": counter.snapshot(),
        "final_params": [p.tolist() for p in trace.final_params],
    }


def loss_chart_svg(trace: training.TrainTrace) -> str:
    """Minimal log-scale loss (and MoS) line chart; no plotting dependency."""
    width, height, pad = 640, 400, 50
    records = trace.records

    def path_for(values):
        vals = np.array([max(v, 1e-16) for v in values])
        ys = np.log10(vals)
        lo, hi = ys.min(), ys.max()
        span = (hi - lo) or 1.0
        pts = []
        for i, y in enumerate(ys):
            px = pad + (width - 2 * pad) * (i / max(1, len(ys) - 1))
            py = height - pad - (height - 2 * pad) * ((y - lo) / span)
            pts.append(f"{px:.1f},{py:.1f}")
        return " ".join(pts)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" '
        f'points="{path_for([r.loss for r in records])}"/>',
        f'<polyline fill="none" stroke="#d62728" stroke-width="1.5" '
        f'stroke-dasharray="4 3" points="{path_for([r.mos for r in records])}"/>',
        f'<text x="{pad}" y="20" font-family="sans-serif" font-size="13">'
        "loss (solid), measure of success (dashed), log scale</text>",
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def make_out_dir(path) -> Path:
    """Create an output directory; a path that cannot be one is a configuration error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory: {exc}") from exc
    return out


def write_artifact(path: Path, text: str) -> None:
    """Write one artifact; a file that cannot be written is a configuration error."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_run_artifacts(config: RunConfig, problem, trial_models, trace, counter) -> Path:
    out = make_out_dir(config.out_dir)
    write_artifact(out / "trace.csv", trace_csv(trace))
    write_artifact(out / "solution.csv", solution_csv(problem, trial_models, trace))
    write_artifact(
        out / "summary.json", json.dumps(summary_doc(config, problem, trace, counter), indent=2) + "\n"
    )
    write_artifact(out / "config.ini", config_to_text(config))
    if config.chart:
        write_artifact(out / "chart.svg", loss_chart_svg(trace))
    return out


# ---------------------------------------------------------------------------
# subcommands


def _resolve_config(args) -> RunConfig:
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)
                 if getattr(args, f.name) is not None}
    if args.config:
        base = load_config(args.config)
    else:
        base = default_config(overrides.get("problem", RunConfig.problem),
                              overrides.get("variant", RunConfig.variant))
    return apply_overrides(base, overrides)


def cmd_run(args) -> int:
    config = _resolve_config(args)
    make_out_dir(config.out_dir)   # refuse an unusable --out before training
    problem, trial_models, trace, counter = execute(config)
    out = write_run_artifacts(config, problem, trial_models, trace, counter)
    final = trace.records[-1]
    print(
        f"{config.problem}/{config.variant}: epochs={len(trace.records)} "
        f"loss={final.loss:.3e} mos={final.mos:.3e} evals={counter.total} -> {out}"
    )
    return EXIT_OK


def parse_model_spec(spec: str) -> tuple[str, dict]:
    """Parse a compare entry like 'original', 'to-loc2', 'fs-exact'."""
    variant, *suffix = spec.split("-")
    keys = {"to": "observables", "fs": "fs_mode"}
    if len(suffix) > 1 or (suffix and variant not in keys):
        raise ConfigurationError(f"unknown model spec {spec!r}")
    return variant, {keys[variant]: suffix[0]} if suffix else {}


def spec_config(problem: str, spec: str, epochs: int | None, **overrides) -> RunConfig:
    """One model spec's validated configuration on ``problem``: its variant's
    defaults, the spec's suffix, an epoch cap unless None, then ``overrides``."""
    variant, extra = parse_model_spec(spec)
    cap = {} if epochs is None else {"epochs": epochs}
    return apply_overrides(default_config(problem, variant), {**extra, **cap, **overrides})


def cmd_compare(args) -> int:
    specs = args.models
    if len(specs) < 2:
        raise ConfigurationError("compare needs at least two model specs")
    repeated = sorted({spec for spec in specs if specs.count(spec) > 1})
    if repeated:
        raise ConfigurationError(f"compare got a model spec more than once: {', '.join(repeated)}")
    out = Path(args.out_dir)
    # refuse any bad configuration or unusable directory before training
    configs = {spec: spec_config(args.problem, spec, args.epochs, seed=args.seed, out_dir=str(out / spec))
               for spec in specs}
    make_out_dir(out)
    for config in configs.values():
        make_out_dir(config.out_dir)
    merged = ["model,epoch,loss,mos,cum_evals"]
    totals = {}
    d_max = 0
    for spec, config in configs.items():
        problem, trial_models, trace, counter = execute(config)
        write_run_artifacts(config, problem, trial_models, trace, counter)
        for r in trace.records:
            merged.append("%s,%d,%.17g,%.17g,%d" % (spec, r.epoch, r.loss, r.mos, r.cum_evals))
        totals[spec] = counter.total
        final = trace.records[-1]
        if config.variant == "to":
            d_max = max(d_max, trial_models[0].table.n_observables)
        print(f"{spec}: epochs={len(trace.records)} loss={final.loss:.3e} "
              f"mos={final.mos:.3e} evals={counter.total}")
    write_artifact(out / "merged.csv", "\n".join(merged) + "\n")
    report = [f"problem: {args.problem}", f"seed: {args.seed}"]
    if d_max:
        report.append(f"d_max (largest trainable-observable candidate set): {d_max}")
    baseline = next((s for s in specs if configs[s].variant == "original"), None)
    for spec in [s for s in specs if baseline and s != baseline]:
        ratio = totals[baseline] / max(1, totals[spec])
        report.append(f"saving ratio {baseline}/{spec}: {ratio:.2f}")
        print(report[-1])
    write_artifact(out / "report.txt", "\n".join(report) + "\n")
    return EXIT_OK


def cmd_count(args) -> int:
    """Print the closed-form charges of a run; nothing is simulated."""
    config = _resolve_config(args)
    problem = build_problem(config)
    lines = [f"{config.problem}/{config.variant} cost model:"]
    lines += [f"  {phase}: {rule}" for phase, rule in training.counting_policy(config.variant).items()]
    if config.variant == "to":
        # the table's size and encoding gates, without measuring it
        d = len(observable_set(config))
        circuit = models.encoding_circuit(config.n_qubits, problem.dimension)
        enc = models._enc_by_dim(circuit, problem.dimension)
        charges = training.expected_charges(problem, to_table=(d, enc))
        lines.append(f"  candidate observables d: {d}")
    else:
        trial_models = build_models(config, problem, None)
        charges = training.expected_charges(problem, trial_models)
        if config.variant == "fs":
            lines.append(f"  snapshot budget M: {trial_models[0].snapshots}")
    per_epoch = charges["per_epoch"]
    lines.append(f"  precompute charge: {charges['precompute']}")
    lines.append(f"  per-epoch charge at m={problem.grid.size}, "
                 f"summed over {problem.n_functions} function(s): {per_epoch}")
    lines.append(f"  {config.epochs} epochs: {charges['precompute'] + config.epochs * per_epoch}")
    # printed once every charge is known, so a refused configuration prints nothing
    print("\n".join(lines))
    return EXIT_OK


def cmd_selftest(args) -> int:
    if args.seed < 0:   # numpy's generators refuse it; RunConfig.validate checks run seeds alike
        raise ConfigurationError(f"seed must be nonnegative; got {args.seed}")
    rng = np.random.default_rng(args.seed)
    failures = 0

    from .differentiation import self_check

    report = self_check(rng)
    ok = report["first"] < 1e-6 and report["second"] < 1e-4
    failures += not ok
    print(f"[{'ok' if ok else 'FAIL'}] parameter-shift vs finite differences: "
          f"first {report['first']:.2e}, second {report['second']:.2e}")

    counts = (
        len(pauli.enumerate_k_local(4, 1)),
        len(pauli.enumerate_k_local(4, 2)),
        len(pauli.all_strings(4)),
    )
    ok = counts == (13, 67, 256)
    failures += not ok
    print(f"[{'ok' if ok else 'FAIL'}] Pauli set sizes (13, 67, 256): {counts}")

    for name, build in problems.PROBLEMS.items():
        problem = build()
        F = {(fn, mode): problems.analytic_mode_values(problem, fn, mode)
             for fn in range(problem.n_functions) for mode in problem.all_modes}
        worst = np.abs(problem.residual(F)).max()
        ok = worst < 1e-9
        failures += not ok
        print(f"[{'ok' if ok else 'FAIL'}] {name} reference solution residual: {worst:.2e}")

    poles = problems.burgers_poles()
    ok = len(poles) == 1 and abs(poles[0] - 0.2025) < 1e-2
    failures += not ok
    print(f"[{'ok' if ok else 'FAIL'}] viscous-flow closed form has a pole in (0,1) "
          f"near x = {poles[0]:.4f}" if poles else "[FAIL] expected a pole in (0,1)")

    from .circuits import hea, run_batch
    from .statevector import expectation

    circ = hea(4, 1)
    bindings = {pid: float(rng.uniform(-np.pi, np.pi)) for pid in circ.variational_params}
    psi = run_batch(circ, bindings, 1)
    shadow = shadows.collect(psi, 20000, rng)
    z0 = pauli.PauliString("ZIII")
    err = abs(shadows.estimate_pauli(shadow, [z0])[0, 0] - expectation(psi, z0)[0])
    ok = err < 0.1
    failures += not ok
    print(f"[{'ok' if ok else 'FAIL'}] shadow estimate within 0.1 of exact: err={err:.3f}")

    print("self-test:", "all checks passed" if failures == 0 else f"{failures} check(s) FAILED")
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# argument parsing


# the flags whose spelling is not "--" plus the field name with dashes
_FLAG_NAMES = {"variant": ("--variant", "--model"), "observables": ("--obs",), "out_dir": ("--out",)}


def _add_config_flags(sub):
    """``--config``, then one flag per RunConfig field, typed by KINDS and limited
    by CHOICES; a bool field is a switch.  A flag left out is None: no override."""
    sub.add_argument("--config", help="configuration file (INI, [run] section)")
    for field in dataclasses.fields(RunConfig):
        names = _FLAG_NAMES.get(field.name, ("--" + field.name.replace("_", "-"),))
        if field.type == "bool":
            sub.add_argument(*names, dest=field.name, action="store_const", const=True, default=None)
        else:
            sub.add_argument(*names, dest=field.name, type=KINDS[field.type][0],
                             choices=CHOICES.get(field.name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqsolve",
        description="Differential-equation solving on differentiable quantum "
        "circuits with instrumented evaluation accounting.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="train one model and write artifacts")
    _add_config_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = subs.add_parser("compare", help="train several models on one problem")
    p_cmp.add_argument("--problem", required=True, choices=CHOICES["problem"])
    p_cmp.add_argument("--models", nargs="+", required=True,
                       help="e.g. original to-loc2 to-loc1 fs-exact")
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--epochs", type=int, default=None,
                       help="cap the epoch budget of every member run")
    p_cmp.add_argument("--out", dest="out_dir", default="runs/compare")
    p_cmp.set_defaults(func=cmd_compare)

    p_count = subs.add_parser("count", help="print the cost model without training")
    _add_config_flags(p_count)
    p_count.set_defaults(func=cmd_count)

    p_self = subs.add_parser("selftest", help="run the quick invariant checks")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except training.NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"configuration error: the run does not fit in memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
