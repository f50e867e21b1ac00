"""Unit and property-based tests for the ODE solver substrate."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.solvers import (
    DormandPrince45Solver,
    EulerSolver,
    RungeKutta4Solver,
    get_solver,
    solve_ode,
)
from repro.solvers.base import OdeProblem, OdeSolution


def exponential_decay(t, x, u):
    return -x


def forced_first_order(t, x, u):
    return -0.5 * x + u


class TestOdeProblem:
    def test_rejects_inverted_interval(self):
        with pytest.raises(SolverError):
            OdeProblem(rhs=exponential_decay, x0=[1.0], t0=1.0, t1=0.0)

    def test_rejects_non_finite_initial_state(self):
        with pytest.raises(SolverError):
            OdeProblem(rhs=exponential_decay, x0=[float("nan")], t0=0.0, t1=1.0)

    def test_input_defaults_to_empty_vector(self):
        problem = OdeProblem(rhs=exponential_decay, x0=[1.0], t0=0.0, t1=1.0)
        assert problem.input_at(0.5).size == 0

    def test_input_function_is_used(self):
        problem = OdeProblem(
            rhs=forced_first_order, x0=[0.0], t0=0.0, t1=1.0, inputs=lambda t: [2.0]
        )
        assert problem.input_at(0.3) == pytest.approx([2.0])


class TestOdeSolution:
    def test_length_mismatch_rejected(self):
        with pytest.raises(SolverError):
            OdeSolution(times=[0.0, 1.0], states=[[1.0]])

    def test_interpolation_clamps_to_boundaries(self):
        solution = OdeSolution(times=[0.0, 1.0], states=[[1.0], [2.0]])
        assert solution.interpolate(-5.0) == pytest.approx([1.0])
        assert solution.interpolate(5.0) == pytest.approx([2.0])

    def test_interpolation_is_linear_between_points(self):
        solution = OdeSolution(times=[0.0, 1.0], states=[[0.0], [10.0]])
        assert solution.interpolate(0.25) == pytest.approx([2.5])

    def test_final_state(self):
        solution = OdeSolution(times=[0.0, 1.0], states=[[1.0], [3.0]])
        assert solution.final_state == pytest.approx([3.0])


class TestRegistry:
    def test_unknown_solver_raises(self):
        with pytest.raises(ValueError):
            get_solver("does-not-exist")

    @pytest.mark.parametrize("name,cls", [
        ("euler", EulerSolver),
        ("rk4", RungeKutta4Solver),
        ("rk45", DormandPrince45Solver),
        ("cvode", DormandPrince45Solver),
    ])
    def test_registry_names(self, name, cls):
        assert isinstance(get_solver(name), cls)


class TestAccuracy:
    @pytest.mark.parametrize("solver", ["rk4", "rk45"])
    def test_exponential_decay_accuracy(self, solver):
        solution = solve_ode(exponential_decay, [1.0], 0.0, 5.0, solver=solver)
        assert solution.final_state[0] == pytest.approx(math.exp(-5.0), rel=1e-4)

    def test_euler_is_less_accurate_but_converges(self):
        coarse = solve_ode(exponential_decay, [1.0], 0.0, 2.0, solver="euler", step=0.1)
        fine = solve_ode(exponential_decay, [1.0], 0.0, 2.0, solver="euler", step=0.01)
        exact = math.exp(-2.0)
        assert abs(fine.final_state[0] - exact) < abs(coarse.final_state[0] - exact)

    def test_rk45_tracks_forced_system(self):
        # x' = -0.5 x + 1, x(0)=0 -> x(t) = 2 (1 - exp(-t/2))
        solution = solve_ode(
            forced_first_order, [0.0], 0.0, 4.0, inputs=lambda t: [1.0], solver="rk45"
        )
        assert solution.final_state[0] == pytest.approx(2.0 * (1 - math.exp(-2.0)), rel=1e-4)

    def test_output_grid_is_respected(self):
        grid = np.linspace(0.0, 3.0, 7)
        solution = solve_ode(exponential_decay, [1.0], 0.0, 3.0, solver="rk4", output_times=grid)
        assert np.allclose(solution.times, grid)

    def test_two_dimensional_system(self):
        # Harmonic oscillator: energy should be approximately conserved.
        def oscillator(t, x, u):
            return np.array([x[1], -x[0]])

        solution = solve_ode(oscillator, [1.0, 0.0], 0.0, 2.0 * math.pi, solver="rk45")
        assert solution.final_state[0] == pytest.approx(1.0, abs=1e-3)
        assert solution.final_state[1] == pytest.approx(0.0, abs=1e-3)

    def test_divergence_raises(self):
        with pytest.raises(SolverError):
            solve_ode(lambda t, x, u: x * x, [10.0], 0.0, 10.0, solver="euler", step=0.5)

    def test_solver_statistics_are_reported(self):
        solution = solve_ode(exponential_decay, [1.0], 0.0, 1.0, solver="rk45")
        assert solution.n_rhs_evals > 0
        assert solution.n_steps > 0
        assert solution.solver_name == "rk45"


class TestStepValidation:
    def test_zero_step_rejected(self):
        with pytest.raises(SolverError):
            solve_ode(exponential_decay, [1.0], 0.0, 1.0, solver="euler", step=0.0)

    def test_rk45_invalid_tolerance_rejected(self):
        with pytest.raises(SolverError):
            DormandPrince45Solver(rtol=0.0)

    def test_rk45_step_limit(self):
        solver = DormandPrince45Solver(max_steps=3)
        problem = OdeProblem(rhs=lambda t, x, u: np.sin(50 * t) * x, x0=[1.0], t0=0.0, t1=100.0)
        with pytest.raises(SolverError):
            solver.solve(problem)


class TestLinearSystemProperties:
    """Property-based checks on the scalar linear ODE x' = a x + b."""

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(min_value=-2.0, max_value=-0.05),
        b=st.floats(min_value=-3.0, max_value=3.0),
        x0=st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_rk45_matches_closed_form(self, a, b, x0):
        horizon = 3.0
        solution = solve_ode(lambda t, x, u: a * x + b, [x0], 0.0, horizon, solver="rk45")
        exact = (x0 + b / a) * math.exp(a * horizon) - b / a
        assert solution.final_state[0] == pytest.approx(exact, rel=1e-3, abs=1e-5)

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(min_value=-1.0, max_value=-0.1),
        x0=st.floats(min_value=0.1, max_value=5.0),
    )
    def test_decay_is_monotone(self, a, x0):
        grid = np.linspace(0.0, 4.0, 9)
        solution = solve_ode(lambda t, x, u: a * x, [x0], 0.0, 4.0, solver="rk4", output_times=grid)
        values = solution.states[:, 0]
        assert np.all(np.diff(values) <= 1e-9)
        assert np.all(values >= -1e-9)


class TestHotLoopEdgeCases:
    """Regression tests for edge cases of the scalar solver loops."""

    @pytest.mark.parametrize("solver", ["euler", "rk4", "rk45"])
    def test_zero_state_problems_integrate(self, solver):
        solution = solve_ode(
            lambda t, x, u: np.empty(0), np.empty(0), 0.0, 1.0, solver=solver
        )
        assert solution.states.shape[1] == 0
        assert solution.times[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("solver", ["euler", "rk4"])
    def test_huge_finite_states_are_not_reported_as_divergence(self, solver):
        # The components are finite even though their sum overflows to inf;
        # the scalar pre-check must fall back to the exact per-component test.
        solution = solve_ode(
            lambda t, x, u: np.zeros(2),
            np.array([1e308, 1e308]),
            0.0,
            1.0,
            solver=solver,
            step=0.25,
        )
        assert np.isfinite(solution.final_state).all()

    @pytest.mark.parametrize("solver", ["euler", "rk4", "rk45"])
    def test_true_divergence_still_raises(self, solver):
        with pytest.raises(SolverError, match="diverged"):
            solve_ode(
                lambda t, x, u: np.array([x[0] ** 2]),
                np.array([1e200]),
                0.0,
                10.0,
                solver=solver,
            )
