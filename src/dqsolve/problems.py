"""Benchmark differential equations, collocation grids, the training loss
and the measure-of-success metric.

A problem's residuals are functions of the trial values gathered in ``F``, a
dict keyed by (function index, mode) holding one array over the collocation
grid; modes are input-derivative tuples as in :mod:`dqsolve.models`.
Boundary conditions are separate loss terms at their own coordinates, so
collocation grids stay strictly interior to the stated open domain.

A factory states a benchmark: its residual and partials, its boundary terms,
its grid, and its reference solution with derivatives in closed form, which
the measure of success and the residual checks compare against.  The rest,
dimension, function count and derivative order among it, is derived.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .statevector import ConfigurationError

# The largest collocation grid, in points; runs keep per-point arrays of it.
MAX_GRID_POINTS = 10**6


@dataclass(frozen=True)
class Grid:
    points: np.ndarray                 # (m, D)
    bounds: tuple[tuple[float, float], ...]

    @property
    def size(self) -> int:
        return self.points.shape[0]


def tensor_points(axes) -> np.ndarray:
    """Every combination of one value per axis, shape (prod of lengths, D),
    the first axis slowest (``itertools.product`` order)."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


def make_grid(counts, bounds) -> Grid:
    """Uniform interior grid: per dimension x_i = lo + (i+1)*(hi-lo)/(m+1)."""
    counts = tuple(int(c) for c in counts)
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    if any(c < 2 for c in counts):
        raise ValueError("need at least 2 points per dimension")
    if math.prod(counts) > MAX_GRID_POINTS:
        raise ConfigurationError(f"a grid of {math.prod(counts)} points exceeds {MAX_GRID_POINTS}")
    axes = [lo + (np.arange(c) + 1) * (hi - lo) / (c + 1) for c, (lo, hi) in zip(counts, bounds)]
    return Grid(tensor_points(axes), bounds)


@dataclass(frozen=True)
class BoundaryTerm:
    point: tuple[float, ...]
    function: int
    target: float


@dataclass(frozen=True)
class DEProblem:
    """A benchmark as its factory states it.  ``residual`` and
    ``residual_partials`` read F on the grid their factory built them on, so
    ``dataclasses.replace(problem, grid=...)`` is not supported."""
    name: str
    residual_modes: tuple[tuple[int, ...], ...]
    residual: callable                          # F -> (n_eq, m)
    residual_partials: callable                 # F -> {(eq, fn, mode): (m,) or a number}
    boundary: tuple[BoundaryTerm, ...]
    grid: Grid
    analytic: tuple                             # one callable per function
    analytic_modes: dict                        # (fn, mode) -> callable, closed-form derivatives

    @property
    def dimension(self) -> int:
        return self.grid.points.shape[1]

    @property
    def n_functions(self) -> int:
        return len(self.analytic)

    @property
    def order(self) -> int:
        """The highest derivative order in the residual."""
        return max(len(mode) for mode in self.residual_modes)

    @functools.cached_property
    def jacobian_modes(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        """Per function, the modes the residual couples to, sorted by (order,
        mode): the Jacobians an epoch evaluates.  Read off the partials of an
        all-zero probe: fixed by the residual's structure, not by runtime
        values, so charges are deterministic."""
        fns = range(self.n_functions)
        probe = {key: np.zeros(self.grid.size) for key in product(fns, self.all_modes)}
        partials = self.residual_partials(probe)
        modes = {fn: {mode for (_eq, f, mode) in partials if f == fn} for fn in fns}
        return {fn: tuple(sorted(s, key=lambda t: (len(t), t))) for fn, s in modes.items()}

    @functools.cached_property
    def boundary_rows(self) -> dict[int, list[int]]:
        """Per function, the indices t of its terms in ``boundary``, in order."""
        terms = list(enumerate(self.boundary))
        return {fn: [t for t, term in terms if term.function == fn] for fn in range(self.n_functions)}

    @functools.cached_property
    def boundary_targets(self) -> np.ndarray:
        """The target of every term in ``boundary``, in order."""
        return np.array([t.target for t in self.boundary])

    @functools.cached_property
    def reference_values(self) -> tuple[np.ndarray, ...]:
        """Each function's reference solution on the grid, evaluated once."""
        return tuple(f(self.grid.points) for f in self.analytic)

    @property
    def all_modes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(dict.fromkeys(((),) + self.residual_modes))

    @property
    def eval_points(self) -> np.ndarray:
        """Collocation grid followed by the boundary coordinates; models are
        built over this fixed point set."""
        bc = np.array([t.point for t in self.boundary], dtype=np.float64)
        if bc.size == 0:
            return self.grid.points
        return np.vstack([self.grid.points, bc])


# ---------------------------------------------------------------------------
# the four benchmarks


def damped_oscillator(m: int = 20) -> DEProblem:
    """f' + k*exp(-k x)cos(l x) + l*exp(-k x)sin(l x) = 0, f(0)=1,
    with k=3, l=12; solution exp(-k x) cos(l x)."""
    kappa, lam = 3.0, 12.0

    def forcing(x):
        return kappa * np.exp(-kappa * x) * np.cos(lam * x) + lam * np.exp(-kappa * x) * np.sin(lam * x)

    grid = make_grid((m,), ((0.0, 1.0),))
    forcing_on_grid = forcing(grid.points[:, 0])

    def residual(F):
        return (F[(0, (0,))] + forcing_on_grid)[None, :]

    def partials(F):
        return {(0, 0, (0,)): 1.0}

    return DEProblem(
        name="damped_osc",
        residual_modes=((0,),),
        residual=residual,
        residual_partials=partials,
        boundary=(BoundaryTerm((0.0,), 0, 1.0),),
        grid=grid,
        analytic=(lambda pts: np.exp(-kappa * pts[:, 0]) * np.cos(lam * pts[:, 0]),),
        analytic_modes={(0, (0,)): lambda pts: -forcing(pts[:, 0])},
    )


BURGERS_NU = 0.1
BURGERS_A = 1.0
BURGERS_B = 0.5


def burgers_closed_form(x):
    """The textbook tangent solution; it has a pole inside (0,1)."""
    c = np.sqrt(2.0 * BURGERS_NU * BURGERS_A)
    k = np.sqrt(BURGERS_A / (2.0 * BURGERS_NU))
    return c * np.tan(k * (np.asarray(x, dtype=np.float64) + BURGERS_B))


def burgers_poles(lo: float = 0.0, hi: float = 1.0) -> list[float]:
    """Locations inside (lo, hi) where the closed-form solution diverges."""
    k = np.sqrt(BURGERS_A / (2.0 * BURGERS_NU))
    poles = []
    j = 0
    while True:
        x = (np.pi / 2.0 + j * np.pi) / k - BURGERS_B
        if x >= hi:
            break
        if x > lo:
            poles.append(float(x))
        j += 1
    return poles


def _burgers_smooth_branch(f0: float, f1: float, nu: float) -> tuple[float, float]:
    """(k, x0) of the smooth solution -k tanh(k (x - x0) / (2 nu)) through
    f(0) = f0 and f(1) = f1, both below k.

    f f' = nu f'' integrates once to the Riccati equation nu f' = f^2/2 - C;
    with C = k^2/2 its bounded branch is the tanh above.  f(1) fixes
    x0 = 1 + (2 nu / k) atanh(f1 / k), and f(0) = k tanh(k x0 / (2 nu)) then
    rises with slope about 1 in k, so k is bisected on that one scalar
    equation until the midpoint meets an end of the bracket.  (Fixing x0 by
    f(0) instead puts atanh's argument at f0 / k ~ 0.9998, where one ulp of k
    moves f(1) by 3e-13.)
    """

    def x0_of(k):
        return 1.0 + 2.0 * nu / k * math.atanh(f1 / k)

    lo, hi = f0, 2.0 * f0 + 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid, x0_of(mid)
        if mid * math.tanh(mid * x0_of(mid) / (2.0 * nu)) < f0:
            lo = mid
        else:
            hi = mid


def stationary_burgers(m: int = 20) -> DEProblem:
    """f f' - nu f'' = 0 with nu=0.1 and boundary values from the closed form
    at x=0 and x=1.

    The printed tangent closed form meets those boundary values but diverges
    at x ~ 0.2025 inside the domain, so the reference for the measure of
    success is the smooth solution through the same boundary values,
    f = -k tanh(k (x - x0) / (2 nu)), with its derivatives in closed form.
    """
    nu = BURGERS_NU
    f_minus = float(burgers_closed_form(0.0))
    f_plus = float(burgers_closed_form(1.0))
    k, x0 = _burgers_smooth_branch(f_minus, f_plus, nu)

    def t_of(pts):
        return np.tanh(k * (pts[:, 0] - x0) / (2.0 * nu))

    def residual(F):
        return (F[(0, ())] * F[(0, (0,))] - nu * F[(0, (0, 0))])[None, :]

    def partials(F):
        return {
            (0, 0, ()): F[(0, (0,))],
            (0, 0, (0,)): F[(0, ())],
            (0, 0, (0, 0)): -nu,
        }

    return DEProblem(
        name="burgers",
        residual_modes=((), (0,), (0, 0)),
        residual=residual,
        residual_partials=partials,
        boundary=(
            BoundaryTerm((0.0,), 0, f_minus),
            BoundaryTerm((1.0,), 0, f_plus),
        ),
        grid=make_grid((m,), ((0.0, 1.0),)),
        analytic=(lambda pts: -k * t_of(pts),),
        analytic_modes={
            (0, (0,)): lambda pts: -(k**2) * (1.0 - t_of(pts) ** 2) / (2.0 * nu),
            (0, (0, 0)): lambda pts: k**3 * t_of(pts) * (1.0 - t_of(pts) ** 2) / (2.0 * nu**2),
        },
    )


def coupled_oscillators(m: int = 20) -> DEProblem:
    """f' = 3*pi*g, g' = -3*pi*f with f(0)=1, g(0)=-1; the two dependent
    variables are modelled by separate trial functions."""
    omega = 3.0 * np.pi
    f0, g0 = 1.0, -1.0

    def residual(F):
        r1 = F[(0, (0,))] - omega * F[(1, ())]
        r2 = F[(1, (0,))] + omega * F[(0, ())]
        return np.stack([r1, r2], axis=0)

    def partials(F):
        return {
            (0, 0, (0,)): 1.0,
            (0, 1, ()): -omega,
            (1, 1, (0,)): 1.0,
            (1, 0, ()): omega,
        }

    return DEProblem(
        name="coupled",
        residual_modes=((), (0,)),
        residual=residual,
        residual_partials=partials,
        boundary=(
            BoundaryTerm((0.0,), 0, f0),
            BoundaryTerm((0.0,), 1, g0),
        ),
        grid=make_grid((m,), ((0.0, 1.0),)),
        analytic=(
            lambda pts: f0 * np.cos(omega * pts[:, 0]) + g0 * np.sin(omega * pts[:, 0]),
            lambda pts: -f0 * np.sin(omega * pts[:, 0]) + g0 * np.cos(omega * pts[:, 0]),
        ),
        analytic_modes={
            (0, (0,)): lambda pts: omega
            * (-f0 * np.sin(omega * pts[:, 0]) + g0 * np.cos(omega * pts[:, 0])),
            (1, (0,)): lambda pts: -omega
            * (f0 * np.cos(omega * pts[:, 0]) + g0 * np.sin(omega * pts[:, 0])),
        },
    )


def twod_linear(m_per_dim: int = 20) -> DEProblem:
    """df/dy - 2y - x = 0 on (0,1)^2 with f(x,0)=1; solution y^2 + x*y + 1."""

    grid = make_grid((m_per_dim, m_per_dim), ((0.0, 1.0), (0.0, 1.0)))
    x, two_y = grid.points[:, 0], 2.0 * grid.points[:, 1]

    def residual(F):
        return (F[(0, (1,))] - two_y - x)[None, :]

    def partials(F):
        return {(0, 0, (1,)): 1.0}

    xs = sorted(set(grid.points[:, 0]))
    boundary = tuple(BoundaryTerm((float(x), 0.0), 0, 1.0) for x in xs)
    return DEProblem(
        name="twod_linear",
        residual_modes=((1,),),
        residual=residual,
        residual_partials=partials,
        boundary=boundary,
        grid=grid,
        analytic=(lambda pts: pts[:, 1] ** 2 + pts[:, 0] * pts[:, 1] + 1.0,),
        analytic_modes={(0, (1,)): lambda pts: 2.0 * pts[:, 1] + pts[:, 0]},
    )


PROBLEMS = {
    "damped_osc": damped_oscillator,
    "burgers": stationary_burgers,
    "coupled": coupled_oscillators,
    "twod_linear": twod_linear,
}


def analytic_mode_values(problem: DEProblem, fn: int, mode) -> np.ndarray:
    """Closed-form solution (or its derivative, per ``mode``) on the grid."""
    mode = tuple(mode)
    if len(mode) == 0:
        return problem.reference_values[fn]
    if (fn, mode) not in problem.analytic_modes:
        raise ValueError(f"{problem.name} has no closed-form derivative for {(fn, mode)}")
    return problem.analytic_modes[(fn, mode)](problem.grid.points)


# ---------------------------------------------------------------------------
# loss and metric


def gather_values(problem: DEProblem, trial_models, params_list):
    """Evaluate every (function, mode) over the grid plus boundary values.

    Returns (F, bc_values) where F maps (fn, mode) to grid arrays and
    bc_values is one trial value per boundary term.
    """
    m = problem.grid.size
    grid_idx = slice(0, m)  # a view of each model's grid rows, not a copy
    F = {}
    for fn, (model, params) in enumerate(zip(trial_models, params_list)):
        for mode in problem.all_modes:
            F[(fn, mode)] = model.values(params, grid_idx, mode)
    bc_values = np.zeros(len(problem.boundary))
    for fn, terms in problem.boundary_rows.items():
        if terms:
            bc_values[terms] = trial_models[fn].values(params_list[fn], m + np.array(terms), ())
    return F, bc_values


def loss_from_values(problem: DEProblem, F, bc_values):
    residuals = problem.residual(F)
    l_de = float(np.mean(residuals**2))
    l_bc = float(np.sum((bc_values - problem.boundary_targets) ** 2))
    return l_de + l_bc, l_de, l_bc


def mos_from_values(problem: DEProblem, F) -> float:
    refs = problem.reference_values
    return sum(float(np.sum((F[(fn, ())] - ref) ** 2)) for fn, ref in enumerate(refs))
