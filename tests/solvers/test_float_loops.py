"""The scalar solver loops step in Python floats and must equal, bit for bit,
the numpy loops they replaced (frozen in ``numpy_reference.py``)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import SolverError
from repro.fmi.model import FmuModel
from repro.solvers.base import OdeProblem, float_rhs
from repro.solvers.rk45 import DormandPrince45Solver, _error_norm, _numpy_sum
from tests.conftest import make_corpus_inputs, make_random_archive, make_random_system
from tests.solvers.numpy_reference import REFERENCE

DIMS = (1, 2, 3, 8, 9)
HORIZON = 6.0


def _random_case(seed: int, d: int):
    """A coupled, mildly nonlinear, input-driven system ``x' = F(t, x, u)``:
    the same arithmetic as an ndarray rhs and as a :func:`float_rhs`.

    Some rows are stiff for the default first step, so RK45 rejects; the
    input is piecewise linear with kinks between output points.
    """
    rng = np.random.default_rng(seed)
    stiff = rng.random() < 0.5
    a = -rng.uniform(0.1, 60.0 if stiff else 3.0, d)
    b, c = rng.uniform(-1.0, 1.0, d), rng.uniform(-0.2, 0.2, d)
    e, g = rng.uniform(-0.5, 0.5, d), rng.uniform(-2.0, 2.0, d)
    knots = np.sort(rng.uniform(0.0, HORIZON, 7))
    values = rng.uniform(-1.0, 1.0, 7)
    x0 = rng.uniform(-2.0, 2.0, d)

    def vector_rhs(t, x, u):
        return a * x + b * np.roll(x, 1) + c * x * x + e * t + g * u[0]

    coefficients = list(zip(a.tolist(), b.tolist(), c.tolist(), e.tolist(), g.tolist()))

    @float_rhs
    def list_rhs(t, x):
        u = float(np.interp(t, knots, values))
        return [
            aj * x[j] + bj * x[j - 1] + cj * x[j] * x[j] + ej * t + gj * u
            for j, (aj, bj, cj, ej, gj) in enumerate(coefficients)
        ]

    vector_problem = OdeProblem(
        rhs=vector_rhs, x0=x0, t0=0.0, t1=HORIZON,
        inputs=lambda t: [np.interp(t, knots, values)],
    )
    list_problem = OdeProblem(rhs=list_rhs, x0=x0, t0=0.0, t1=HORIZON)
    return vector_problem, list_problem


def _random_options(seed: int, name: str) -> dict:
    rng = np.random.default_rng(10_000 + seed)
    options = {}
    if rng.random() < 0.4:
        options["max_step"] = float(rng.uniform(0.05, 0.5))
    if name == "rk45":
        options["rtol"] = float(10.0 ** -rng.uniform(3, 9))
        options["atol"] = options["rtol"] * 1e-2
    elif rng.random() < 0.6:
        options["step"] = float(rng.uniform(0.01, 0.2))
    return options


def _assert_same_solution(actual, expected) -> None:
    np.testing.assert_array_equal(actual.times, expected.times)
    np.testing.assert_array_equal(actual.states, expected.states)
    assert actual.n_steps == expected.n_steps
    assert actual.n_rejected == expected.n_rejected
    assert actual.n_rhs_evals == expected.n_rhs_evals
    assert actual.solver_name == expected.solver_name


def _outcome(solve, solver, problem, grid):
    """``solve``'s solution, or its :class:`SolverError` message."""
    args = (problem, grid) if solver is None else (solver, problem, grid)
    try:
        return solve(*args)
    except SolverError as error:
        return str(error)


class TestFloatLoopsMatchNumpyReference:
    @pytest.mark.parametrize("name", sorted(REFERENCE))
    @pytest.mark.parametrize("d", DIMS)
    def test_random_systems(self, name, d):
        cls, reference = REFERENCE[name]
        solved = rejected = 0
        for seed in range(6):
            options = _random_options(seed, name)
            vector_problem, list_problem = _random_case(100 * d + seed, d)
            grid = np.linspace(0.0, HORIZON, 13)
            expected = _outcome(reference, cls(**options), vector_problem, grid)
            for problem in (vector_problem, list_problem):
                actual = _outcome(cls(**options).solve, None, problem, grid)
                if isinstance(expected, str):  # a fixed step too large for a stiff row
                    assert actual == expected
                else:
                    _assert_same_solution(actual, expected)
            if not isinstance(expected, str):
                solved += 1
                rejected += expected.n_rejected
        assert solved >= 3
        if name == "rk45":
            assert rejected > 0, "the corpus must force step rejections"

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    @pytest.mark.parametrize(
        "derivative",
        [
            lambda x: x * x * 1e10,  # overflows to inf
            lambda x: x * x + (x * x * x - x * x * x),  # inf - inf: nan
        ],
        ids=["overflow", "nan"],
    )
    def test_divergence_is_reported_identically(self, name, derivative):
        cls, reference = REFERENCE[name]
        problem = OdeProblem(
            rhs=lambda t, x, u: derivative(x), x0=[1e3, 2e3], t0=0.0, t1=10.0
        )
        grid = np.linspace(0.0, 10.0, 5)
        expected = _outcome(reference, cls(), problem, grid)
        assert isinstance(expected, str) and "diverged" in expected
        assert _outcome(cls().solve, None, problem, grid) == expected

    def test_step_limit_is_reported_identically(self):
        cls, reference = REFERENCE["rk45"]
        problem = OdeProblem(
            rhs=lambda t, x, u: np.sin(50 * t) * x, x0=[1.0], t0=0.0, t1=100.0
        )
        expected = _outcome(reference, cls(max_steps=40), problem, None)
        assert "exceeded" in expected
        assert _outcome(cls(max_steps=40).solve, None, problem, None) == expected

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    @pytest.mark.parametrize("seed", range(4))
    def test_compiled_kernel_simulate(self, name, seed):
        """``FmuModel.simulate`` (compiled kernel on float lists) equals the
        numpy reference driving the same kernel through an ndarray rhs."""
        system = make_random_system(seed)
        model = FmuModel(make_random_archive(f"float{seed}", system))
        kernel = system.kernel
        inputs = make_corpus_inputs(system) or {}
        grid = np.linspace(0.0, 2.0, 41)
        options = {} if name == "rk45" else {"step": 0.02}
        result = model.simulate(
            inputs=inputs or None, start_time=0.0, stop_time=2.0,
            output_times=grid, solver=name, solver_options=options,
        )

        p = kernel.parameter_vector(model.parameters())

        def input_vector(t):
            return [
                float(np.interp(t, *inputs[n])) if n in inputs else model.get(n)
                for n in kernel.input_names
            ]

        problem = OdeProblem(
            rhs=lambda t, x, _u: kernel.derivs(t, x, input_vector(t), p),
            x0=[model.get(n) for n in system.state_names], t0=0.0, t1=2.0,
        )
        cls, reference = REFERENCE[name]
        expected = reference(cls(**options), problem, grid)
        for i, n in enumerate(system.state_names):
            np.testing.assert_array_equal(result[n], expected.states[:, i], err_msg=n)
        assert result.solver_stats["n_steps"] == expected.n_steps
        assert result.solver_stats["n_rejected"] == expected.n_rejected
        assert result.solver_stats["n_rhs_evals"] == expected.n_rhs_evals


class TestFloatArithmeticRules:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 300])
    def test_numpy_sum_matches_add_reduce(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            values = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-8, 8, n)
            assert _numpy_sum(values.tolist()) == np.add.reduce(values)

    @pytest.mark.parametrize("position", [0, 1])
    def test_nan_trial_state_rejects_with_the_clamped_factor(self, position):
        """A nan in ``x5`` makes the norm nan as in the numpy form, wherever
        it sits, so the step is rejected and the factor clamps to 0.2."""
        atol, rtol = 1e-8, 1e-6
        x, x5, x4 = [1.0, 2.0], [1.1, 2.5], [1.0, 2.4]
        x5[position] = float("nan")
        scale = atol + rtol * np.maximum(np.abs(x), np.abs(x5))
        expected = np.sqrt(np.mean(((np.array(x5) - x4) / scale) ** 2))
        err = _error_norm(x, x5, x4, atol, rtol)
        assert math.isnan(err) and math.isnan(expected)
        assert not err <= 1.0
        assert min(5.0, max(0.2, 0.9 * err ** (-0.2))) == 0.2

    @pytest.mark.parametrize("d", DIMS)
    def test_error_norm_matches_numpy_form(self, d):
        rng = np.random.default_rng(d)
        for _ in range(200):
            x, x5 = rng.normal(size=d), rng.normal(size=d) * 10.0 ** rng.integers(-3, 3, d)
            x4 = x5 + rng.normal(size=d) * 1e-5
            scale = 1e-8 + 1e-6 * np.maximum(np.abs(x), np.abs(x5))
            expected = np.sqrt(np.mean(((x5 - x4) / scale) ** 2))
            assert _error_norm(x.tolist(), x5.tolist(), x4.tolist(), 1e-8, 1e-6) == expected

    def test_float_rhs_rejects_problem_inputs(self):
        problem = OdeProblem(
            rhs=float_rhs(lambda t, x: [-x[0]]), x0=[1.0], t0=0.0, t1=1.0,
            inputs=lambda t: [0.0],
        )
        with pytest.raises(SolverError, match="inputs"):
            DormandPrince45Solver().solve(problem)
