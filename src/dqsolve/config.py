"""Run configuration, the one declaration of every run option: a RunConfig
field is an INI key and, with dashes, a command-line flag; KINDS parses it by
its annotation, CHOICES lists its allowed values.  What every run shares is
not an option: the flipped model's weights are Chebyshev polynomials, and the
trainable observable's basis change is drawn from ``models.UB_SEED``.  Also:
an INI file format with exact round-tripping, and per-variant defaults for
the benchmarks."""

from __future__ import annotations

import configparser
import dataclasses
import io
import math
from dataclasses import dataclass, fields

from . import models, pauli, problems, shadows
# one error class for every layer: the circuits and the statevector raise it too
from .statevector import MAX_QUBITS, ConfigurationError

PROBLEMS = tuple(problems.PROBLEMS)
VARIANTS = ("original", "to", "fs")
OBSERVABLE_SETS = ("loc1", "loc2", "all")
FS_MODES = models.FS_MODES

# the allowed values of every field that takes one of a list
CHOICES = {"problem": PROBLEMS, "variant": VARIANTS, "observables": OBSERVABLE_SETS,
           "fs_mode": FS_MODES}

# annotation -> (parser of its text, what it expects); bools: see _parse_value
KINDS = {"int": (int, "an integer"), "float": (float, "a number"), "str": (str, "a string")}


@dataclass
class RunConfig:
    """Everything needed to reproduce one training run byte for byte."""

    problem: str = "damped_osc"
    variant: str = "to"
    # model shape
    n_qubits: int = 4
    depth: int = 3                  # ansatz depth (original / fs)
    observables: str = "loc2"       # candidate set for the trainable observable
    fs_mode: str = "exact"          # exact expectations or simulated shadows
    # optimization
    epochs: int = 2000
    lr: float = 0.05
    stop_loss: float = 1e-6
    patience: int = 200
    seed: int = 0
    # problem-size overrides (0 = keep the problem's default grid)
    grid_m: int = 0
    # shadow budget knobs
    shadow_c0: float = shadows.ShadowBudget.c0
    shadow_eps: float = shadows.ShadowBudget.eps
    shadow_exponent: int = shadows.ShadowBudget.exponent
    shadow_w_max: int = shadows.ShadowBudget.w_max
    # output
    out_dir: str = "runs/latest"
    chart: bool = False

    def validate(self) -> "RunConfig":
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigurationError(f"{name} must be one of {', '.join(allowed)}; got {value!r}")
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ConfigurationError(f"n_qubits must be between 1 and {MAX_QUBITS}")
        if self.depth < 1:
            raise ConfigurationError("depth must be at least 1")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be at least 1")
        if self.patience < 1:
            raise ConfigurationError("patience must be at least 1")
        if self.seed < 0:   # numpy's generators refuse it
            raise ConfigurationError(f"seed must be nonnegative; got {self.seed}")
        # comparisons with nan are false, so "not 0 < x" rejects nan too
        if not 0 < self.lr < math.inf:
            raise ConfigurationError(f"lr must be positive and finite; got {self.lr}")
        if not math.isfinite(self.stop_loss):
            raise ConfigurationError(f"stop_loss must be finite; got {self.stop_loss}")
        # a grid needs two points per dimension
        if self.grid_m < 0 or self.grid_m == 1:
            raise ConfigurationError(f"grid_m must be 0 (default) or at least 2; got {self.grid_m}")
        if not (0 < self.shadow_eps < math.inf and 0 < self.shadow_c0 < math.inf):
            raise ConfigurationError("shadow budget constants must be positive and finite")
        # a negative exponent would shrink the per-state budget M instead of growing it
        if self.shadow_exponent < 0 or self.shadow_w_max < 0:
            raise ConfigurationError(
                f"shadow_exponent and shadow_w_max must be nonnegative; got "
                f"{self.shadow_exponent} and {self.shadow_w_max}"
            )
        if self.variant == "to":   # only the trainable observable reads a candidate set
            limit = pauli.MAX_FULL_ENUMERATION_QUBITS
            if self.observables == "all" and self.n_qubits > limit:
                raise ConfigurationError(f"the full Pauli candidate set needs n_qubits <= {limit}")
            if self.observables == "loc2" and self.n_qubits < 2:
                raise ConfigurationError("the 2-local candidate set needs n_qubits >= 2")
        return self


_FIELDS = {f.name: f for f in fields(RunConfig)}


def _parse_value(name: str, raw: str):
    kind = _FIELDS[name].type
    raw = raw.strip()
    if kind == "bool":
        low = raw.lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise ConfigurationError(f"{name} expects a boolean, got {raw!r}")
    convert, expected = KINDS[kind]
    try:
        return convert(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{name} expects {expected}, got {raw!r}") from exc


def config_from_text(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)   # literal values: a % too
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"could not parse configuration: {exc}") from exc
    if parser.sections() != ["run"]:
        raise ConfigurationError("expected exactly one [run] section")
    values = {}
    for key, raw in parser.items("run"):
        if key not in _FIELDS:
            raise ConfigurationError(f"unknown configuration key {key!r}")
        values[key] = _parse_value(key, raw)
    return RunConfig(**values).validate()


def config_to_text(config: RunConfig) -> str:
    parser = configparser.ConfigParser(interpolation=None)   # literal values: a % too
    parser["run"] = {}
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        parser["run"][f.name] = str(value).lower() if isinstance(value, bool) else str(value)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"could not read configuration file: {exc}") from exc
    return config_from_text(text)


def apply_overrides(config: RunConfig, overrides: dict) -> RunConfig:
    """Return a copy with the given fields replaced (command-line flags win)."""
    unknown = set(overrides) - set(_FIELDS)
    if unknown:
        raise ConfigurationError(f"unknown configuration keys: {sorted(unknown)}")
    return dataclasses.replace(config, **overrides).validate()


# defaults tuned so the stock runs converge, each only where it differs from
# RunConfig's own (a (problem, variant) entry: from its variant's entry); a file
# or the command line still overrides anything
_VARIANT_DEFAULTS = {
    "original": dict(epochs=1500),
    "to": dict(epochs=4000, stop_loss=1e-9, patience=1000),
    "fs": dict(stop_loss=1e-7, patience=500),
}
_PROBLEM_DEFAULTS = {
    ("twod_linear", "original"): dict(epochs=3000, lr=0.08, stop_loss=1e-3, patience=2000),
    ("twod_linear", "fs"): dict(depth=1, epochs=400, stop_loss=1e-3, patience=400),
}


def default_config(problem: str, variant: str) -> RunConfig:
    tweaks = {**_VARIANT_DEFAULTS.get(variant, {}), **_PROBLEM_DEFAULTS.get((problem, variant), {})}
    return RunConfig(problem=problem, variant=variant, **tweaks).validate()
