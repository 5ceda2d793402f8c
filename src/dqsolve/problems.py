"""Benchmark differential equations, collocation grids, the training loss
and the measure-of-success metric.

A problem's residuals are functions of the trial values gathered in ``F``, a
dict keyed by (function index, mode) holding one array over the collocation
grid; modes are input-derivative tuples as in :mod:`dqsolve.models`.
Boundary conditions are separate loss terms at their own coordinates, so
collocation grids stay strictly interior to the stated open domain.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import product

import numpy as np


@dataclass(frozen=True)
class Grid:
    points: np.ndarray                 # (m, D)
    counts: tuple[int, ...]
    bounds: tuple[tuple[float, float], ...]

    @property
    def size(self) -> int:
        return self.points.shape[0]


def make_grid(counts, bounds) -> Grid:
    """Uniform interior grid: per dimension x_i = lo + (i+1)*(hi-lo)/(m+1)."""
    counts = tuple(int(c) for c in counts)
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    if any(c < 2 for c in counts):
        raise ValueError("need at least 2 points per dimension")
    axes = []
    for c, (lo, hi) in zip(counts, bounds):
        i = np.arange(c)
        axes.append(lo + (i + 1) * (hi - lo) / (c + 1))
    pts = np.array([p for p in product(*axes)], dtype=np.float64)
    return Grid(pts, counts, bounds)


@dataclass(frozen=True)
class BoundaryTerm:
    point: tuple[float, ...]
    function: int
    target: float


@dataclass(frozen=True)
class DEProblem:
    name: str
    dimension: int
    n_functions: int
    order: int                                  # max derivative order in the residual
    residual_modes: tuple[tuple[int, ...], ...]
    residual: callable                          # (points, F) -> (n_eq, m)
    residual_partials: callable                 # (points, F) -> {(eq, fn, mode): (m,)}
    boundary: tuple[BoundaryTerm, ...]
    grid: Grid
    analytic: tuple | None = None               # one callable per function, or None
    analytic_modes: dict | None = None          # (fn, mode) -> callable, closed-form derivatives
    notes: dict = field(default_factory=dict)

    @functools.cached_property
    def jacobian_modes(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        """Per function, the modes the residual couples to, sorted by (order,
        mode): the Jacobians an epoch evaluates.  Read off the partials of an
        all-zero probe: fixed by the residual's structure, not by runtime
        values, so charges are deterministic."""
        fns = range(self.n_functions)
        probe = {key: np.zeros(self.grid.size) for key in product(fns, self.all_modes)}
        partials = self.residual_partials(self.grid.points, probe)
        modes = {fn: {mode for (_eq, f, mode) in partials if f == fn} for fn in fns}
        return {fn: tuple(sorted(s, key=lambda t: (len(t), t))) for fn, s in modes.items()}

    @functools.cached_property
    def reference_values(self) -> tuple[np.ndarray, ...]:
        """Each function's reference solution on the grid, evaluated once."""
        if self.analytic is None:
            raise ValueError(f"problem {self.name} has no reference solution")
        return tuple(f(self.grid.points) for f in self.analytic)

    @property
    def all_modes(self) -> tuple[tuple[int, ...], ...]:
        modes = [()]
        for m in self.residual_modes:
            if m not in modes:
                modes.append(m)
        return tuple(modes)

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

    def residual(points, F):
        x = points[:, 0]
        return (F[(0, (0,))] + forcing(x))[None, :]

    def partials(points, F):
        return {(0, 0, (0,)): np.ones(points.shape[0])}

    return DEProblem(
        name="damped_osc",
        dimension=1,
        n_functions=1,
        order=1,
        residual_modes=((0,),),
        residual=residual,
        residual_partials=partials,
        boundary=(BoundaryTerm((0.0,), 0, 1.0),),
        grid=make_grid((m,), ((0.0, 1.0),)),
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


def _burgers_reference():
    """High-accuracy two-point boundary-value oracle for the Burgers benchmark.

    The printed closed form solves the equation but diverges at
    x ~ 0.2025 inside the domain, so the reference solution used for the
    measure of success is the smooth BVP solution with the same boundary
    values, obtained by collocation.  scipy is imported here, not at module
    scope: it is most of the package's import time, and only this oracle uses it.
    """
    from scipy.integrate import solve_bvp

    f_minus = float(burgers_closed_form(0.0))
    f_plus = float(burgers_closed_form(1.0))

    def rhs(x, y):
        return np.vstack([y[1], y[0] * y[1] / BURGERS_NU])

    def bc(ya, yb):
        return np.array([ya[0] - f_minus, yb[0] - f_plus])

    x0 = np.linspace(0.0, 1.0, 101)
    y0 = np.vstack([np.linspace(f_minus, f_plus, 101), np.full(101, f_plus - f_minus)])
    sol = solve_bvp(rhs, bc, x0, y0, tol=1e-10, max_nodes=20000)
    if not sol.success:
        raise RuntimeError(f"Burgers reference BVP failed: {sol.message}")
    return sol


def stationary_burgers(m: int = 20) -> DEProblem:
    """f f' - nu f'' = 0 with nu=0.1 and boundary values from the closed form
    at x=0 and x=1."""
    nu = BURGERS_NU
    reference = _burgers_reference()

    def residual(points, F):
        return (F[(0, ())] * F[(0, (0,))] - nu * F[(0, (0, 0))])[None, :]

    def partials(points, F):
        return {
            (0, 0, ()): F[(0, (0,))],
            (0, 0, (0,)): F[(0, ())],
            (0, 0, (0, 0)): np.full(points.shape[0], -nu),
        }

    return DEProblem(
        name="burgers",
        dimension=1,
        n_functions=1,
        order=2,
        residual_modes=((), (0,), (0, 0)),
        residual=residual,
        residual_partials=partials,
        boundary=(
            BoundaryTerm((0.0,), 0, float(burgers_closed_form(0.0))),
            BoundaryTerm((1.0,), 0, float(burgers_closed_form(1.0))),
        ),
        grid=make_grid((m,), ((0.0, 1.0),)),
        analytic=(lambda pts: reference.sol(pts[:, 0])[0],),
        notes={"poles": burgers_poles(), "reference": "numerical BVP (collocation)"},
    )


def coupled_oscillators(m: int = 20) -> DEProblem:
    """f' = 3*pi*g, g' = -3*pi*f with f(0)=1, g(0)=-1; the two dependent
    variables are modelled by separate trial functions."""
    omega = 3.0 * np.pi
    f0, g0 = 1.0, -1.0

    def residual(points, F):
        r1 = F[(0, (0,))] - omega * F[(1, ())]
        r2 = F[(1, (0,))] + omega * F[(0, ())]
        return np.stack([r1, r2], axis=0)

    def partials(points, F):
        m_pts = points.shape[0]
        ones = np.ones(m_pts)
        return {
            (0, 0, (0,)): ones,
            (0, 1, ()): np.full(m_pts, -omega),
            (1, 1, (0,)): ones,
            (1, 0, ()): np.full(m_pts, omega),
        }

    return DEProblem(
        name="coupled",
        dimension=1,
        n_functions=2,
        order=1,
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

    def residual(points, F):
        x, y = points[:, 0], points[:, 1]
        return (F[(0, (1,))] - 2.0 * y - x)[None, :]

    def partials(points, F):
        return {(0, 0, (1,)): np.ones(points.shape[0])}

    grid = make_grid((m_per_dim, m_per_dim), ((0.0, 1.0), (0.0, 1.0)))
    xs = sorted(set(grid.points[:, 0]))
    boundary = tuple(BoundaryTerm((float(x), 0.0), 0, 1.0) for x in xs)
    return DEProblem(
        name="twod_linear",
        dimension=2,
        n_functions=1,
        order=1,
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
    if problem.analytic_modes is None or (fn, mode) not in problem.analytic_modes:
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
    for fn in range(problem.n_functions):
        idx = [m + t for t, term in enumerate(problem.boundary) if term.function == fn]
        if idx:
            vals = trial_models[fn].values(params_list[fn], np.array(idx), ())
            for pos, t in enumerate(idx):
                bc_values[t - m] = vals[pos]
    return F, bc_values


def loss_from_values(problem: DEProblem, F, bc_values):
    residuals = problem.residual(problem.grid.points, F)
    l_de = float(np.mean(residuals**2))
    targets = np.array([t.target for t in problem.boundary])
    l_bc = float(np.sum((bc_values - targets) ** 2))
    return l_de + l_bc, l_de, l_bc


def mos_from_values(problem: DEProblem, F) -> float:
    refs = problem.reference_values
    return sum(float(np.sum((F[(fn, ())] - ref) ** 2)) for fn, ref in enumerate(refs))
