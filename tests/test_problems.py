"""Benchmark problems, grids, loss and the success metric."""

import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dqsolve
from dqsolve import problems
from dqsolve.problems import (
    BURGERS_A,
    BURGERS_NU,
    analytic_mode_values,
    burgers_closed_form,
    burgers_poles,
    make_grid,
)
from dqsolve.statevector import ConfigurationError


def test_make_grid_interior_points():
    grid = make_grid((4,), ((0.0, 1.0),))
    assert np.allclose(grid.points[:, 0], [0.2, 0.4, 0.6, 0.8])
    assert grid.size == 4
    with pytest.raises(ValueError):
        make_grid((1,), ((0.0, 1.0),))


def test_make_grid_refuses_a_grid_beyond_the_cap(monkeypatch):
    # refused before anything is allocated: 10**12 points would not fit
    bounds = ((0.0, 1.0), (0.0, 1.0))
    for counts in [(problems.MAX_GRID_POINTS + 1,), (1001, 1000), (10**6, 10**6)]:
        with pytest.raises(ConfigurationError):
            make_grid(counts, bounds[: len(counts)])
    monkeypatch.setattr(problems, "MAX_GRID_POINTS", 12)
    assert make_grid((3, 4), bounds).size == 12
    with pytest.raises(ConfigurationError):
        make_grid((13,), bounds[:1])


def test_make_grid_2d_is_product():
    grid = make_grid((3, 3), ((0.0, 1.0), (0.0, 2.0)))
    assert grid.size == 9
    assert np.allclose(sorted(set(grid.points[:, 0])), [0.25, 0.5, 0.75])
    assert np.allclose(sorted(set(grid.points[:, 1])), [0.5, 1.0, 1.5])


def test_grid_symmetry():
    grid = make_grid((10,), ((0.0, 1.0),))
    assert np.allclose(grid.points[:, 0] + grid.points[::-1, 0], 1.0)


@pytest.mark.parametrize("name", list(problems.PROBLEMS))
def test_analytic_solutions_satisfy_residual(name):
    problem = problems.PROBLEMS[name]()
    F = {
        (fn, mode): analytic_mode_values(problem, fn, mode)
        for fn in range(problem.n_functions)
        for mode in problem.all_modes
    }
    residual = problem.residual(problem.grid.points, F)
    assert np.abs(residual).max() < 1e-9


@pytest.mark.parametrize("name", list(problems.PROBLEMS))
def test_analytic_solutions_satisfy_boundary(name):
    problem = problems.PROBLEMS[name]()
    for term in problem.boundary:
        point = np.array([term.point])
        value = problem.analytic[term.function](point)[0]
        assert value == pytest.approx(term.target, abs=1e-14)


def test_burgers_closed_form_satisfies_equation():
    """f f' = nu f'' for the tangent solution, away from its pole; the
    identity c = 2 nu k ties its amplitude and frequency together."""
    c = np.sqrt(2.0 * BURGERS_NU * BURGERS_A)
    k = np.sqrt(BURGERS_A / (2.0 * BURGERS_NU))
    assert c == pytest.approx(2.0 * BURGERS_NU * k, abs=1e-15)
    xs = np.array([0.02, 0.1, 0.4, 0.8, 0.95])  # clear of the pole
    h = 1e-5
    f = burgers_closed_form
    d1 = (f(xs + h) - f(xs - h)) / (2 * h)
    d2 = (f(xs + h) - 2 * f(xs) + f(xs - h)) / h**2
    residual = f(xs) * d1 - BURGERS_NU * d2
    assert np.abs(residual).max() < 1e-3


def test_burgers_pole_detected():
    poles = burgers_poles()
    assert len(poles) == 1
    k = np.sqrt(BURGERS_A / (2.0 * BURGERS_NU))
    assert poles[0] == pytest.approx(np.pi / (2 * k) - 0.5, abs=1e-12)
    assert poles[0] == pytest.approx(0.2025, abs=5e-4)
    problem = problems.stationary_burgers()
    assert problem.notes["poles"] == poles


def test_burgers_reference_is_smooth_bvp_solution():
    problem = problems.stationary_burgers()
    assert problem.notes["reference"] == "closed form (smooth tanh branch)"
    xs = problem.grid.points
    f = problem.analytic[0](xs)
    assert np.all(np.isfinite(f))
    # matches the closed form at the boundary, diverges from it near the pole
    assert problem.analytic[0](np.array([[0.0]]))[0] == pytest.approx(
        float(burgers_closed_form(0.0)), abs=1e-14
    )


def test_burgers_reference_solves_the_equation_in_closed_form():
    problem = problems.stationary_burgers()
    pts = np.linspace(0.0, 1.0, 2001)[:, None]
    f = problem.analytic[0](pts)
    d1 = problem.analytic_modes[(0, (0,))](pts)
    d2 = problem.analytic_modes[(0, (0, 0))](pts)
    assert np.abs(f * d1 - BURGERS_NU * d2).max() < 1e-12


def test_burgers_reference_agrees_with_a_bvp_solver():
    integrate = pytest.importorskip("scipy.integrate")
    problem = problems.stationary_burgers()
    f_minus, f_plus = (term.target for term in problem.boundary)

    def rhs(x, y):
        return np.vstack([y[1], y[0] * y[1] / BURGERS_NU])

    def bc(ya, yb):
        return np.array([ya[0] - f_minus, yb[0] - f_plus])

    x0 = np.linspace(0.0, 1.0, 101)
    y0 = np.vstack([np.linspace(f_minus, f_plus, 101), np.full(101, f_plus - f_minus)])
    sol = integrate.solve_bvp(rhs, bc, x0, y0, tol=1e-10, max_nodes=20000)
    assert sol.success
    xs = np.linspace(0.0, 1.0, 2001)
    assert np.abs(sol.sol(xs)[0] - problem.analytic[0](xs[:, None])).max() < 1e-10


def test_coupled_circle_invariant():
    problem = problems.coupled_oscillators()
    pts = problem.grid.points
    f = problem.analytic[0](pts)
    g = problem.analytic[1](pts)
    assert np.allclose(f**2 + g**2, 2.0, atol=1e-12)


def test_eval_points_appends_boundary():
    problem = problems.damped_oscillator(m=5)
    assert problem.eval_points.shape == (6, 1)
    assert problem.eval_points[-1, 0] == 0.0


def test_all_modes_starts_with_value():
    for name in problems.PROBLEMS:
        problem = problems.PROBLEMS[name]()
        assert problem.all_modes[0] == ()


def test_jacobian_modes_are_the_residual_couplings():
    expected = {
        "damped_osc": {0: {(0,)}},
        "burgers": {0: {(), (0,), (0, 0)}},
        "coupled": {0: {(), (0,)}, 1: {(), (0,)}},
        "twod_linear": {0: {(1,)}},
    }
    for name, modes in expected.items():
        found = problems.PROBLEMS[name](4).jacobian_modes
        assert {fn: set(m) for fn, m in found.items()} == modes
        # sorted by (order, mode): the order loss_gradients evaluates them in
        assert all(list(m) == sorted(m, key=lambda t: (len(t), t)) for m in found.values())


@pytest.mark.parametrize("name", list(problems.PROBLEMS))
def test_residual_partials_are_the_complex_step_derivatives(name):
    """Each hand-written partial is Im r(F + i h e_key) / h, bit for bit: the
    complex step is exact for residuals at most quadratic in F.  A pair with
    no partial has an identically zero derivative."""
    problem = problems.PROBLEMS[name](5)
    points = problem.grid.points
    rng = np.random.default_rng(len(name))
    keys = list(itertools.product(range(problem.n_functions), problem.all_modes))
    F = {key: rng.normal(size=len(points)) for key in keys}
    partials = problem.residual_partials(points, F)
    h = 2.0**-30
    n_eq = len(problem.residual(points, F))
    assert set(partials) <= {(eq, fn, mode) for eq in range(n_eq) for fn, mode in keys}
    for fn, mode in keys:
        stepped = {key: value.astype(np.complex128) for key, value in F.items()}
        stepped[fn, mode] = F[fn, mode] + 1j * h
        derivative = problem.residual(points, stepped).imag / h
        for eq in range(n_eq):
            want = partials.get((eq, fn, mode), np.zeros(len(points)))
            assert np.array_equal(derivative[eq], want), (eq, fn, mode)


def test_reference_values_are_evaluated_once():
    problem = problems.stationary_burgers(m=5)
    calls = []

    def reference(points):
        calls.append(len(points))
        return problem.analytic[0](points)

    counted = dataclasses.replace(problem, analytic=(reference,))
    F = {(0, ()): np.zeros(5)}
    first = problems.mos_from_values(counted, F)
    assert problems.mos_from_values(counted, F) == first == problems.mos_from_values(problem, F)
    exact = problem.analytic[0](problem.grid.points)
    assert np.array_equal(problems.analytic_mode_values(counted, 0, ()), exact)
    assert calls == [5]


class TableModel:
    """Trial model stub backed by explicit per-mode arrays."""

    def __init__(self, arrays, n_params=2):
        self.arrays = arrays
        self.n_params = n_params

    def init_params(self, rng):
        return np.zeros(self.n_params)

    def values(self, params, idx, mode=()):
        return self.arrays[tuple(mode)][idx]

    def values_at(self, params, points, mode=(), phase=None):
        raise NotImplementedError

    def jacobian(self, params, idx, mode=()):
        return np.zeros((len(idx), self.n_params))


def exact_stub(problem, fn):
    m = problem.grid.size
    arrays = {}
    for mode in problem.all_modes:
        grid_vals = problems.analytic_mode_values(problem, fn, mode)
        bc_vals = (
            problem.analytic[fn](np.array([t.point for t in problem.boundary]))
            if problem.boundary
            else np.zeros(0)
        )
        arrays[mode] = np.concatenate([grid_vals, bc_vals])
    return TableModel(arrays)


def test_loss_vanishes_at_exact_solution():
    problem = problems.damped_oscillator()
    stub = exact_stub(problem, 0)
    F, bc_values = problems.gather_values(problem, [stub], [np.zeros(2)])
    total, l_de, l_bc = problems.loss_from_values(problem, F, bc_values)
    assert total == pytest.approx(0.0, abs=1e-18)
    assert l_de >= 0.0 and l_bc >= 0.0


def test_loss_is_nonnegative_and_additive():
    problem = problems.damped_oscillator()
    m = problem.grid.size
    arrays = {mode: np.ones(m + 1) for mode in problem.all_modes}
    stub = TableModel(arrays)
    F, bc_values = problems.gather_values(problem, [stub], [np.zeros(2)])
    total, l_de, l_bc = problems.loss_from_values(problem, F, bc_values)
    assert total == pytest.approx(l_de + l_bc)
    assert l_de > 0.0
    assert l_bc == pytest.approx(0.0)  # boundary target for f(0) is 1


def test_mos_zero_at_exact_solution():
    problem = problems.coupled_oscillators()
    stubs = [exact_stub(problem, 0), exact_stub(problem, 1)]
    F, _ = problems.gather_values(problem, stubs, [np.zeros(2), np.zeros(2)])
    value = problems.mos_from_values(problem, F)
    assert value == pytest.approx(0.0, abs=1e-18)


def test_mos_counts_squared_deviation():
    problem = problems.damped_oscillator(m=5)
    stub = exact_stub(problem, 0)
    stub.arrays[()] = stub.arrays[()] + 0.1
    F, _ = problems.gather_values(problem, [stub], [np.zeros(2)])
    value = problems.mos_from_values(problem, F)
    assert value == pytest.approx(5 * 0.01, abs=1e-12)


def test_importing_the_cli_loads_no_scipy():
    """No module of the package imports scipy."""
    code = "import sys, dqsolve.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(dqsolve.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_building_burgers_loads_no_scipy():
    """The Burgers reference is closed form: building the problem needs no solver."""
    code = ("import sys; from dqsolve import problems; problems.stationary_burgers(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(dqsolve.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_boundary_rows_map_each_function_to_its_terms():
    assert problems.coupled_oscillators().boundary_rows == {0: [0], 1: [1]}
    assert problems.twod_linear().boundary_rows == {0: list(range(20))}
    assert problems.stationary_burgers().boundary_rows == {0: [0, 1]}
