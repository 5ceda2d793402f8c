#!/usr/bin/env python3
"""dqsolve benchmark: train one workload end to end, repeatedly, for a fixed time.

Run from the repository root:

    python3 perfbench/run.py --workload original_2d --seed 0 --seconds 30 --trace 0

``--trace 0`` runs untraced trials back to back for ``--seconds`` (a trial
starts only if it should end in time; the first always runs) and reports the
end-to-end metrics of BENCHMARK.json as medians over trials, scaled to the
reference host speed that ``hostspeed.py`` probes between trials.  ``--trace 1``
runs one untraced and one traced trial and reports the per-layer metrics of
the traced one; the tracing overhead is the difference of their run times.  Every trial is
checked against closed-form charges and recorded final losses; the last
line of standard output is the JSON result.  A result file with the host
description goes to ``.perfbench/results/`` and spans to ``.perfbench/spans/``.
"""

import os
import sys

# One BLAS/OpenMP thread, set before numpy loads anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# `import dqsolve` is timed in this process and then in a fresh interpreter
# after each trial, up to this many samples, so that the median spans the run
IMPORT_SAMPLES = 6
# Host-speed probing after each trial, as a share of the trial's own time.  A
# single 40 ms reading varies by about 20 % from the next, so a run needs
# dozens of them, spread like the trials, to know the host's speed.
PROBE_SHARE = 0.1


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_import_s() -> float:
    """Time ``import dqsolve`` in a fresh interpreter (run to completion)."""
    code = "import time; t = time.perf_counter(); import dqsolve; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """SHA-256 over src/**/*.py, which identifies the code in a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_description() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')}-{blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


class BenchmarkRun:
    """The trials of one benchmark run, each with the reasons it failed."""

    def __init__(self, workload: str, seed: int, import_s: float):
        import workloads

        self.workload, self.seed = workload, seed
        self.imports = [import_s]           # seconds per timed `import dqsolve`
        self.reference = workloads.load_reference()
        self.out_dir = OUT / "out" / workload
        self.attempts: list[tuple] = []     # (Trial or None, [reason, ...])

    @property
    def done(self) -> list:
        return [t for t, _ in self.attempts if t is not None]

    @property
    def import_s(self) -> float:
        return median(self.imports)

    @property
    def failed(self) -> int:
        return sum(1 for _, reasons in self.attempts if reasons)

    def attempt(self, tracer=None):
        """Run and check one trial; returns it, or None if the program failed."""
        import spans
        import workloads

        # Every trial writes fresh files, as a run into a new directory does:
        # on ext4, truncating and rewriting a file forces it to disk on close,
        # which would time the shared disk instead of the program.
        shutil.rmtree(self.out_dir, ignore_errors=True)
        try:
            with spans.instrumented(tracer) if tracer else contextlib.nullcontext():
                trial = workloads.run_trial(self.workload, self.seed, self.out_dir)
        except workloads.RUN_FAILURES as exc:
            self.attempts.append((None, [f"{type(exc).__name__}: {exc}"]))
            print(f"trial {len(self.attempts)}: FAILED: {self.attempts[-1][1][0]}")
            return None
        reasons = trial.failures(self.workload, self.seed, self.reference)
        self.attempts.append((trial, reasons))
        print(f"trial {len(self.attempts)}{' (traced)' if tracer else ''}: "
              f"wall_s={trial.wall_s:.4f} precompute_s={trial.precompute_s:.4f} "
              f"train_s={trial.train_s:.4f} artifacts_s={trial.artifacts_s:.4f} "
              f"final_loss={trial.final_loss!r} mos_per_point={trial.mos_per_point!r} "
              f"{'ok' if not reasons else 'FAILED: ' + '; '.join(reasons)}")
        return trial


def measure_untraced(bench: BenchmarkRun, started: float, seconds: float):
    """End-to-end values as medians over trials run for ``seconds``.

    After every trial (and the import timed after it) the host-speed probe
    runs for PROBE_SHARE of the time the trial took, so each stretch of the
    run is sampled alike; the medians are scaled to the reference host speed
    by the median probe reading (``hostspeed``) and returned with the raw ones.
    """
    import hostspeed

    probes = []
    spent = []                          # seconds per trial, probes and import included
    while True:
        start = time.perf_counter()
        bench.attempt()
        if len(bench.imports) < IMPORT_SAMPLES:
            bench.imports.append(child_import_s())
        probe_until = time.perf_counter() + PROBE_SHARE * (time.perf_counter() - start)
        probes.append(hostspeed.probe_s())
        while time.perf_counter() < probe_until:
            probes.append(hostspeed.probe_s())
        spent.append(time.perf_counter() - start)
        # start another trial only if it should end in time
        if time.perf_counter() - started + median(spent) > seconds:
            break
    done = bench.done
    if not done:
        return None
    raw = {
        "run_s": median([bench.import_s + t.wall_s for t in done]),
        "setup_s": median([bench.import_s + t.construct_s for t in done]),
        "epoch_ms": median([1e3 * t.train_s / t.epochs for t in done]),
        "artifacts_s": median([t.artifacts_s for t in done]),
        "precompute_s": median([t.precompute_s for t in done]),
    }
    factor = hostspeed.scale(probes)
    rss = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return {k: v * factor for k, v in raw.items()} | rss | {"raw": raw | rss, "probe_s": probes}


def measure_traced(bench: BenchmarkRun):
    """Per-layer values of one traced trial, checked against an untraced one."""
    import layers
    import spans

    plain = bench.attempt()
    tracer = spans.Tracer(f"{bench.workload}-seed{bench.seed}")
    traced = bench.attempt(tracer)
    if plain is None or traced is None:
        return None
    reasons = bench.attempts[-1][1]
    if (plain.charged, plain.final_loss) != (traced.charged, traced.final_loss):
        reasons.append("traced trial differs from the untraced one in charges or final loss")
    values = spans.layer_values(tracer, traced.charged)
    values["trace.overhead_s"] = traced.wall_s - plain.wall_s
    gaps = layers.coverage_gaps(bench.workload, values)
    if gaps:
        reasons.append("trace coverage: zero on a workload that must use it: " + ", ".join(gaps))
    print(f"tracing overhead: {values['trace.overhead_s']:.4f} s (traced {traced.wall_s:.4f} s, "
          f"untraced {plain.wall_s:.4f} s, {int(values['trace.spans'])} spans)")
    tracer.write_csv(OUT / "spans" / f"{bench.workload}-seed{bench.seed}.csv")
    return values


def print_charges(bench: BenchmarkRun) -> None:
    last = bench.done[-1]
    print("charged: " + ", ".join(
        f"{phase}={last.charged[phase]} (closed form {last.expected[phase]})"
        for phase in ("precompute", "per_epoch", "inference")))
    if bench.workload.startswith("fs_"):
        print(f"known defect (ROADMAP item 2, stale flipped-model inference cache): "
              f"inference charge {last.charged['inference']}, closed form "
              f"M = {last.expected['inference']}; shown, not counted as a failed run")


def main(argv=None) -> int:
    started = time.perf_counter()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (SRC / "dqsolve" / "__init__.py").is_file():
        print(f"no dqsolve sources under {SRC}; run from the repository root", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import dqsolve  # noqa: F401  (timed: every user pays it in set-up)
    import_s = time.perf_counter() - t0

    import hostspeed
    import workloads

    bench = BenchmarkRun(args.workload, args.seed, import_s)
    host = host_description()
    print(f"dqsolve benchmark: workload={args.workload} seed={args.seed} "
          f"(RunConfig.seed={args.seed % workloads.REFERENCE_SEEDS}) "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))

    if args.trace:
        values, metric_specs = measure_traced(bench), spec["per_layer"]
    else:
        values, metric_specs = measure_untraced(bench, started, args.seconds), spec["end_to_end"]
    if values is not None and not args.trace:
        print(f"medians of {len(bench.done)} trials at reference host speed (raw in brackets); "
              f"median host probe {1e3 * median(values['probe_s']):.2f} ms of {len(values['probe_s'])}, "
              f"reference {1e3 * hostspeed.REFERENCE_S:.2f} ms")
        for m in spec["end_to_end"]:
            print(f"{m['name']:<12} {values[m['name']]:>12.6g} {m['unit']:<5} "
                  f"({values['raw'][m['name']]:.6g}), {m['better']} is better")
        if values["precompute_s"]:
            print(f"{'precompute_s':<12} {values['precompute_s']:>12.6g} s     "
                  f"({values['raw']['precompute_s']:.6g}), the TO table build, inside run_s")
    if bench.done:
        print_charges(bench)
    for i, (_, reasons) in enumerate(bench.attempts):
        for reason in reasons:
            print(f"FAIL trial {i + 1}: {reason}")
    print(f"failed/attempted: {bench.failed}/{len(bench.attempts)}")

    metrics = {}
    if values is not None:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    result = {"correct": bench.failed == 0 and bool(metrics), "attempted": len(bench.attempts),
              "failed": bench.failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, host=host, import_s=bench.imports,
                  precompute_s=None if args.trace or values is None else values["precompute_s"],
                  raw=None if args.trace or values is None else values["raw"],
                  probe_s=None if args.trace or values is None else values["probe_s"],
                  trials=[{"failures": reasons, **(dataclasses.asdict(t) if t else {})}
                          for t, reasons in bench.attempts])
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if not metrics:
        print("no trial completed; no result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
