"""Batched Euler and RK4 fleets sample their inputs once, before the step
loop, and step in preallocated buffers; they must equal, bit for bit, the
loops that sampled every stage on its own (frozen in
``fixed_step_reference.py``), divergence messages included."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.fmi.dynamics import OdeSystem, StateEquation
from repro.fmi.model import _FleetBindings, _InputInterpolator
from repro.solvers.base import BatchOdeProblem
from tests.conftest import make_random_system
from tests.solvers.fixed_step_reference import REFERENCE, ScalarTimeInputs

SEEDS = range(16)


def _knots(rng: np.random.Generator) -> np.ndarray:
    """Knot times: an even grid over the window (which a step may not
    divide) or irregular times inside it (so the window clamps), sometimes
    with a duplicated knot (an infinite or nan slope)."""
    if rng.random() < 0.4:
        knots = np.linspace(0.0, 2.0, int(rng.integers(3, 12)))
    else:
        knots = np.sort(rng.uniform(0.2, 1.8, int(rng.integers(2, 9))))
    if len(knots) > 2 and rng.random() < 0.5:
        k = int(rng.integers(0, len(knots) - 1))
        knots[k + 1] = knots[k]
    return knots


def _bindings(system: OdeSystem, n_rows: int, rng: np.random.Generator) -> _FleetBindings:
    """Random input bindings: a random subset of the inputs measured, on one
    shared mapping or per-row mappings; the rest held at per-row starts."""
    kernel = system.kernel
    bound = [name for name in system.inputs if rng.random() < 0.8]
    knots = _knots(rng)
    n_mappings = 1 if rng.random() < 0.5 else int(rng.integers(2, n_rows + 1))
    interps = []
    for _ in range(n_mappings):
        values = {name: rng.uniform(-1.0, 1.0, len(knots)) for name in bound}
        if len(knots) > 2 and bound and rng.random() < 0.3:
            values[bound[0]][1] = values[bound[0]][2]  # a flat interval
        interps.append(_InputInterpolator({name: (knots, values[name]) for name in bound}))
    cols = [int(c) for c in rng.integers(0, n_mappings, n_rows)]
    cols[: n_mappings] = range(n_mappings)
    base = rng.uniform(-1.0, 1.0, (n_rows, kernel.n_inputs))
    return _FleetBindings(kernel, interps, cols, base)


def _random_fleet(seed: int):
    """``(rhs, x0, bindings, t0, t1, step)`` of a random fleet of a random
    system (zero to two inputs)."""
    rng = np.random.default_rng(seed)
    system = make_random_system(seed)
    kernel = system.kernel
    n_rows = int(rng.integers(2, 7))
    P = kernel.parameter_matrix(
        [{name: rng.uniform(0.5, 2.0) for name in system.parameters} for _ in range(n_rows)]
    )
    step_fn = kernel._bind_derivs_batch(P)

    def rhs(t, X, U):
        return step_fn(t, X, U, np.empty_like(X))

    x0 = rng.uniform(-1.0, 1.0, (n_rows, len(system.state_names)))
    t0 = float(rng.choice([0.0, 0.1]))
    t1 = float(rng.choice([1.9, 2.0, 2.3]))
    step = float(rng.choice([0.1, 0.13, 0.25, 0.3]))
    return rhs, x0, _bindings(system, n_rows, rng), t0, t1, step


def _outcome(solve, problem, grid):
    try:
        return solve(problem, grid)
    except SolverError as error:
        return str(error)


def _assert_same(actual, expected) -> None:
    if isinstance(expected, str):
        assert actual == expected
        return
    np.testing.assert_array_equal(actual.times, expected.times)
    np.testing.assert_array_equal(actual.states, expected.states)
    np.testing.assert_array_equal(actual.n_steps, expected.n_steps)
    np.testing.assert_array_equal(actual.n_rejected, expected.n_rejected)
    assert actual.n_rhs_evals == expected.n_rhs_evals
    assert actual.solver_name == expected.solver_name


class TestFixedStepFleetsMatchFrozenReference:
    @pytest.mark.parametrize("name", sorted(REFERENCE))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_fleets(self, name, seed):
        cls, reference = REFERENCE[name]
        rhs, x0, bindings, t0, t1, step = _random_fleet(seed)
        grid = np.linspace(t0, t1, 9)

        def problem(inputs):
            return BatchOdeProblem(rhs=rhs, x0=x0, t0=t0, t1=t1, inputs=inputs)

        expected = _outcome(
            lambda p, g: reference(cls(step=step), p, g),
            problem(ScalarTimeInputs(bindings)), grid,
        )
        assert not isinstance(expected, str)
        # The bindings' one-pass sampler, and a plain callable that reuses
        # one buffer (sampled time by time, each matrix copied).
        for inputs in (bindings, ScalarTimeInputs(bindings)):
            _assert_same(_outcome(cls(step=step).solve_batch, problem(inputs), grid), expected)

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    @pytest.mark.parametrize("seed", range(4))
    def test_input_less_fleets(self, name, seed):
        cls, reference = REFERENCE[name]
        rhs, x0, bindings, t0, t1, step = _random_fleet(seed)
        starts = bindings.base  # every input held at its start value

        def held(t, X, _U):
            return rhs(t, X, starts)

        problem = BatchOdeProblem(rhs=held, x0=x0, t0=t0, t1=t1)
        grid = np.linspace(t0, t1, 7)
        expected = reference(cls(step=step), problem, grid)
        _assert_same(cls(step=step).solve_batch(problem, grid), expected)

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    @pytest.mark.parametrize("per_row", [False, True])
    def test_divergence_is_reported_identically(self, name, per_row):
        cls, reference = REFERENCE[name]
        system = OdeSystem(
            states=[StateEquation("x", "p * x * x + u", start=0.0)],
            inputs=["u"],
            parameters={"p": 1.0},
        )
        kernel = system.kernel
        x0 = np.array([[0.1], [5.0], [0.2], [9.0]])
        P = kernel.parameter_matrix([{"p": p} for p in (0.5, 1.0, 0.3, 2.0)])
        step_fn = kernel._bind_derivs_batch(P)
        knots = np.array([0.0, 0.35, 0.35, 1.0, 3.0])
        interps = [
            _InputInterpolator({"u": (knots, np.array([0.0, 0.5, 0.7, 1.0, 2.0]) * (1 + k))})
            for k in range(2 if per_row else 1)
        ]
        cols = [0, 1, 0, 1] if per_row else [0] * 4
        bindings = _FleetBindings(kernel, interps, cols, np.zeros((4, 1)))

        def problem(inputs):
            return BatchOdeProblem(
                rhs=lambda t, X, U: step_fn(t, X, U, np.empty_like(X)),
                x0=x0, t0=0.0, t1=3.0, inputs=inputs,
            )

        grid = np.linspace(0.0, 3.0, 4)
        expected = _outcome(
            lambda p, g: reference(cls(step=0.05), p, g), problem(ScalarTimeInputs(bindings)), grid
        )
        assert isinstance(expected, str) and "diverged" in expected and "rows [" in expected
        assert _outcome(cls(step=0.05).solve_batch, problem(bindings), grid) == expected


class TestOnePassSampler:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sample_equals_scalar_time_interpolation(self, seed):
        rng = np.random.default_rng(500 + seed)
        system = make_random_system(seed)
        n_rows = int(rng.integers(2, 6))
        bindings = _bindings(system, n_rows, rng)
        knots = bindings.series[0].knots if bindings.series else np.array([0.0, 2.0])
        # Knots themselves, points between and beyond them.
        times = np.concatenate(
            [knots, (knots[1:] + knots[:-1]) / 2.0, [-1.0, knots[0] - 1e-12, 2.5],
             rng.uniform(-0.5, 2.5, 20)]
        )
        scalar = ScalarTimeInputs(bindings)
        expected = np.array([scalar(float(t)).copy() for t in times])
        np.testing.assert_array_equal(bindings.sample(times), expected)
