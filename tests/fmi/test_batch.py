"""Fleet simulation tests: kernels, solvers, model and session layer.

The randomized corpus (drawn from the shared factory in
``tests/conftest.py``) builds fleets of instances with per-instance
parameters and start values, then asserts that every row of a fleet equals
its instance's one-row ``simulate`` bit for bit, step counts included, for
every solver.  Fixed-step fleets (Euler, RK4) step all rows at once in the
solver's batched loop; an RK45 fleet steps each row in the scalar float
loop, so its rows are one-row solves by construction.
"""

from __future__ import annotations

import dataclasses
import random
import warnings

import numpy as np
import pytest

from repro import faults
from repro.errors import FmuFormatError, FmuStateError, SimulationInputError, SolverError
from repro.fmi import load_fmu
from repro.fmi.model import FmuModel
from repro.modelica.compiler import compile_model
from repro.solvers import SOLVER_REGISTRY, get_solver
from repro.solvers.base import BatchOdeProblem, BatchOdeSolution, OdeProblem, OdeSolver
from repro.solvers.euler import EulerSolver
from repro.solvers.rk45 import DormandPrince45Solver

ALL_SOLVERS = ("euler", "rk4", "rk45")
#: The solvers with a batched fleet loop (``solve_batch``).
FIXED_STEP_SOLVERS = ("euler", "rk4")

#: ``der(x) = x / (k - 1)`` with ``k = 1``: every rhs evaluation divides by zero.
DIVIDING_SOURCE = """
model Div
  parameter Real k = 1.0;
  Real x(start=1.0);
equation
  der(x) = x / (k - 1);
end Div;
"""

#: As DIVIDING_SOURCE, but the division is parameter-only, so the kernels
#: divide once at bind time instead of in every rhs evaluation.
BIND_DIVIDING_SOURCE = DIVIDING_SOURCE.replace("x / (k - 1)", "x * (1 / (k - 1))")

#: ``der(x) = x * x`` from ``x = 30`` blows up at ``t = 1/30``.
DIVERGING_SOURCE = """
model Blowup
  Real x(start=30.0);
equation
  der(x) = x * x;
end Blowup;
"""


# --------------------------------------------------------------------------- #
# Kernel layer
# --------------------------------------------------------------------------- #
class TestBatchKernel:
    @pytest.mark.parametrize("seed", range(8))
    def test_derivs_batch_matches_scalar_rows(self, seed, random_system):
        system = random_system(seed)
        kernel = system.kernel
        rng = random.Random(100 + seed)
        n_rows = 5
        P = kernel.parameter_matrix(
            [
                {name: rng.uniform(0.5, 2.0) for name in kernel.parameter_names}
                for _ in range(n_rows)
            ]
        )
        X = np.array(
            [[rng.uniform(-2.0, 2.0) for _ in kernel.state_names] for _ in range(n_rows)]
        )
        U = np.array(
            [[rng.uniform(-1.0, 1.0) for _ in kernel.input_names] for _ in range(n_rows)]
        )
        t = rng.uniform(0.0, 5.0)
        batched = kernel.derivs_batch(t, X, U, P)
        for row in range(n_rows):
            scalar = kernel.derivs(t, X[row], list(U[row]), tuple(P[row]))
            np.testing.assert_array_equal(batched[row], scalar)

    @pytest.mark.parametrize("seed", range(8))
    def test_outputs_batch_matches_per_row_outputs(self, seed, random_system):
        system = random_system(seed)
        kernel = system.kernel
        rng = np.random.default_rng(200 + seed)
        n_rows, n_times = 4, 11
        times = np.linspace(0.0, 2.0, n_times)
        states = rng.uniform(-2.0, 2.0, (n_rows, n_times, len(kernel.state_names)))
        inputs = rng.uniform(-1.0, 1.0, (n_rows, n_times, len(kernel.input_names)))
        P = kernel.parameter_matrix([None] * n_rows)
        batched = kernel.outputs_batch(times, states, inputs, P)
        for row in range(n_rows):
            for k in range(n_times):
                single = system.evaluate_outputs(
                    times[k], states[row, k],
                    dict(zip(kernel.input_names, inputs[row, k])), {},
                )
                assert set(batched) == set(single)
                for name, value in single.items():
                    assert batched[name].shape == (n_rows, n_times)
                    assert batched[name][row, k] == pytest.approx(value, abs=1e-12)

    def test_parameter_matrix_layout(self, hp1_archive):
        kernel = hp1_archive.ode_system.kernel
        P = kernel.parameter_matrix([{"Cp": 9.0}, None])
        assert P.shape == (2, len(kernel.parameter_names))
        assert P[0, kernel.parameter_names.index("Cp")] == 9.0
        np.testing.assert_array_equal(P[1], kernel.parameter_vector(None))

# --------------------------------------------------------------------------- #
# Solver layer
# --------------------------------------------------------------------------- #
def _linear_batch_problem(n_rows: int = 4):
    """Independent exponential decays with per-row rates."""
    rates = np.linspace(0.5, 2.0, n_rows)

    def rhs(t, X, _u):
        return -rates[:, None] * X

    x0 = np.linspace(1.0, 2.0, n_rows)[:, None]
    return BatchOdeProblem(rhs=rhs, x0=x0, t0=0.0, t1=2.0), rates


class TestBatchSolvers:
    @pytest.mark.parametrize("name", FIXED_STEP_SOLVERS)
    def test_solve_batch_matches_row_solves(self, name):
        problem, rates = _linear_batch_problem()
        grid = np.linspace(0.0, 2.0, 21)
        solver = get_solver(name)
        batched = solver.solve_batch(problem, output_times=grid)
        assert isinstance(batched, BatchOdeSolution)
        assert batched.states.shape[1] == problem.n_rows
        for row in range(problem.n_rows):
            rate = rates[row]
            scalar = get_solver(name).solve(
                OdeProblem(
                    rhs=lambda t, x, u, _r=rate: -_r * x,
                    x0=problem.x0[row],
                    t0=0.0,
                    t1=2.0,
                ),
                output_times=grid,
            )
            np.testing.assert_array_equal(batched.states[:, row, :], scalar.states)
            assert int(batched.n_steps[row]) == scalar.n_steps

    def test_base_class_solve_batch_is_abstract(self):
        problem, _ = _linear_batch_problem()
        with pytest.raises(NotImplementedError):
            OdeSolver().solve_batch(problem)
        # The adaptive solver has no fleet loop: it inherits the stub.
        assert DormandPrince45Solver.adaptive and not EulerSolver.adaptive
        with pytest.raises(NotImplementedError):
            DormandPrince45Solver().solve_batch(problem)

    def test_batch_divergence_raises(self):
        def rhs(t, X, _u):
            return X ** 2

        problem = BatchOdeProblem(
            rhs=rhs, x0=np.array([[0.1], [50.0]]), t0=0.0, t1=10.0
        )
        with pytest.raises(SolverError, match="diverged"):
            EulerSolver(step=0.5).solve_batch(problem)

    def test_batch_problem_validation(self):
        with pytest.raises(SolverError, match="matrix"):
            BatchOdeProblem(rhs=lambda t, X, u: X, x0=np.ones(3), t0=0.0, t1=1.0)
        with pytest.raises(SolverError, match="at least one row"):
            BatchOdeProblem(rhs=lambda t, X, u: X, x0=np.ones((0, 2)), t0=0.0, t1=1.0)
        with pytest.raises(SolverError, match="non-finite"):
            BatchOdeProblem(
                rhs=lambda t, X, u: X, x0=np.array([[np.nan]]), t0=0.0, t1=1.0
            )


# --------------------------------------------------------------------------- #
# RK45 fleets whose rows take different step counts
# --------------------------------------------------------------------------- #
class TestRaggedRk45Fleet:
    def test_batch_problem_has_no_row_narrowing_hook(self):
        names = [field.name for field in dataclasses.fields(BatchOdeProblem)]
        assert names == ["rhs", "x0", "t0", "t1", "inputs"]

    def test_model_layer_ragged_fleet_matches_sequential(self, hp1_archive):
        # Per-instance parameters that make row time constants differ by two
        # orders of magnitude, so rows finish at very different step counts.
        models = [FmuModel(hp1_archive, instance_name=f"i{i}") for i in range(3)]
        for model, cp in zip(models, (1.5, 0.15, 0.015)):
            model.set("Cp", cp)
        hours = np.linspace(0.0, 10.0, 11)
        inputs = {"u": (hours, 0.5 + 0.4 * np.sin(hours))}
        batched = FmuModel.simulate_batch(
            models, inputs=inputs, start_time=0.0, stop_time=10.0
        )
        assert int(batched[2].solver_stats["n_steps"]) > int(batched[0].solver_stats["n_steps"])
        for model, result in zip(models, batched):
            sequential = model.simulate(inputs=inputs, start_time=0.0, stop_time=10.0)
            for name in ("x", "y"):
                np.testing.assert_array_equal(result[name], sequential[name])
            assert result.solver_stats["n_steps"] == sequential.solver_stats["n_steps"]
            assert result.solver_stats["n_rejected"] == sequential.solver_stats["n_rejected"]

    def test_model_layer_fleet_order_does_not_change_rows(self, hp1_archive):
        # Parameters are bound per row: reversing the fleet reverses the
        # results and changes no row's trajectory or step counts.
        models = [FmuModel(hp1_archive, instance_name=f"i{i}") for i in range(4)]
        for model, cp in zip(models, (1.5, 0.15, 0.015, 0.6)):
            model.set("Cp", cp)
        hours = np.linspace(0.0, 10.0, 11)
        call = dict(
            inputs={"u": (hours, 0.5 + 0.4 * np.sin(hours))}, start_time=0.0, stop_time=10.0
        )
        forward = FmuModel.simulate_batch(models, **call)
        backward = FmuModel.simulate_batch(models[::-1], **call)[::-1]
        for a, b in zip(forward, backward):
            for name in ("x", "y"):
                np.testing.assert_array_equal(a[name], b[name])
            assert a.solver_stats["n_steps"] == b.solver_stats["n_steps"]
            assert a.solver_stats["n_rejected"] == b.solver_stats["n_rejected"]


# --------------------------------------------------------------------------- #
# Model layer: one input mapping per model
# --------------------------------------------------------------------------- #
class TestPerRowInputs:
    """Each row interpolates its own measured series on the shared knots
    and must match its own scalar ``simulate`` bit for bit."""

    HOURS = np.linspace(0.0, 10.0, 11)

    def _fleet(self, hp1_archive, capacitances):
        models = [FmuModel(hp1_archive, instance_name=f"i{i}") for i in range(len(capacitances))]
        for model, cp in zip(models, capacitances):
            model.set("Cp", cp)
        inputs = [
            {"u": (self.HOURS, 0.5 + 0.4 * np.sin(self.HOURS + phase))}
            for phase in range(len(models))
        ]
        return models, inputs

    def _assert_rows_match(self, models, inputs, results, **kwargs):
        for model, mapping, result in zip(models, inputs, results):
            sequential = model.simulate(inputs=mapping, **kwargs)
            for name in ("x", "y", "u"):
                np.testing.assert_array_equal(result[name], sequential[name])
            assert result.solver_stats["n_steps"] == sequential.solver_stats["n_steps"]
            assert result.solver_stats["n_rejected"] == sequential.solver_stats["n_rejected"]

    def test_rk4_rows_match_their_scalar_solves(self, hp1_archive):
        models, inputs = self._fleet(hp1_archive, (1.5, 0.9, 2.4, 1.1))
        kwargs = dict(
            start_time=0.0, stop_time=10.0, output_times=self.HOURS,
            solver="rk4", solver_options={"step": 0.25},
        )
        results = FmuModel.simulate_batch(models, inputs=inputs, **kwargs)
        self._assert_rows_match(models, inputs, results, **kwargs)

    def test_rk45_ragged_rows_match_their_scalar_solves(self, hp1_archive):
        # Time constants two orders of magnitude apart: rows finish at very
        # different step counts.
        models, inputs = self._fleet(hp1_archive, (1.5, 0.15, 0.015))
        kwargs = dict(start_time=0.0, stop_time=10.0)
        results = FmuModel.simulate_batch(models, inputs=inputs, **kwargs)
        assert int(results[2].solver_stats["n_steps"]) > int(results[0].solver_stats["n_steps"])
        self._assert_rows_match(models, inputs, results, **kwargs)

    def test_window_outside_the_knots_clamps(self, hp1_archive):
        models, inputs = self._fleet(hp1_archive, (1.5, 0.9))
        for solver in ("rk4", "rk45"):
            kwargs = dict(start_time=-2.0, stop_time=12.0, solver=solver)
            results = FmuModel.simulate_batch(models, inputs=inputs, **kwargs)
            self._assert_rows_match(models, inputs, results, **kwargs)

    def test_shared_mapping_list_equals_one_mapping(self, hp1_archive):
        models, inputs = self._fleet(hp1_archive, (1.5, 0.9, 2.4))
        shared = FmuModel.simulate_batch(models, inputs=inputs[0], start_time=0.0, stop_time=10.0)
        listed = FmuModel.simulate_batch(
            models, inputs=[inputs[0]] * 3, start_time=0.0, stop_time=10.0
        )
        for a, b in zip(shared, listed):
            np.testing.assert_array_equal(a["x"], b["x"])

    def test_bound_inputs_stand_in_for_their_mappings(self, hp1_archive):
        models, inputs = self._fleet(hp1_archive, (1.5, 0.9, 2.4))
        bound = [models[0].bind_inputs(mapping) for mapping in inputs]
        kwargs = dict(start_time=0.0, stop_time=10.0, solver="rk4", solver_options={"step": 0.5})
        for given in (bound, bound[0]):
            expected = FmuModel.simulate_batch(
                models, inputs=inputs if given is bound else inputs[0], **kwargs
            )
            for a, b in zip(FmuModel.simulate_batch(models, inputs=given, **kwargs), expected):
                np.testing.assert_array_equal(a["x"], b["x"])
        shifted = models[0].bind_inputs({"u": (self.HOURS + 0.5, inputs[1]["u"][1])})
        with pytest.raises(SimulationInputError, match="same knot times"):
            FmuModel.simulate_batch(models[:2], inputs=[bound[0], shifted], stop_time=10.0)
        with pytest.raises(SimulationInputError, match="no input variables named"):
            models[0].bind_inputs({"ghost": (self.HOURS, self.HOURS)})

    def test_mappings_must_share_names_and_knots(self, hp1_archive):
        models, inputs = self._fleet(hp1_archive, (1.5, 0.9))
        shifted = {"u": (self.HOURS + 0.5, inputs[1]["u"][1])}
        with pytest.raises(SimulationInputError, match="same knot times"):
            FmuModel.simulate_batch(models, inputs=[inputs[0], shifted], stop_time=10.0)
        with pytest.raises(SimulationInputError, match="same knot times"):
            FmuModel.simulate_batch(models, inputs=[inputs[0], {}], stop_time=10.0)
        with pytest.raises(SimulationInputError, match="2 models"):
            FmuModel.simulate_batch(models, inputs=inputs[:1], stop_time=10.0)


# --------------------------------------------------------------------------- #
# Model layer: randomized fleet corpus
# --------------------------------------------------------------------------- #
#: Input knots that start with a duplicate: the first interval has an
#: infinite slope, and a time on the first knot must take the first value.
DUPLICATE_FIRST_KNOT = np.array([0.0, 0.0, 1.0, 2.0, 3.0, 4.0])


class TestSimulateBatchCorpus:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    @pytest.mark.parametrize("knots", ["corpus", "duplicate_first_knot"])
    def test_fleet_rows_equal_their_one_row_simulate(
        self, seed, solver, knots, random_system, random_archive, random_fleet, corpus_inputs
    ):
        system = random_system(seed)
        archive = random_archive(f"batch{seed}", system)
        models = random_fleet(system, archive, n_rows=4, seed=3000 + seed)
        if knots == "corpus":
            inputs = corpus_inputs(system)
        else:
            # Values by knot index, so the two values on knot 0 differ.
            inputs = {
                name: (DUPLICATE_FIRST_KNOT, np.sin(np.arange(6.0) + i))
                for i, name in enumerate(system.inputs)
            } or None
        grid = np.linspace(0.0, 2.0, 41)
        batched = FmuModel.simulate_batch(
            models, inputs=inputs, start_time=0.0, stop_time=2.0,
            output_times=grid, solver=solver,
        )
        for model, result in zip(models, batched):
            sequential = model.simulate(
                inputs=inputs, start_time=0.0, stop_time=2.0,
                output_times=grid, solver=solver,
            )
            for name in list(system.state_names) + list(system.output_names):
                np.testing.assert_array_equal(
                    result[name], sequential[name],
                    err_msg=f"seed={seed} solver={solver} variable={name}",
                )
            for stat in ("n_steps", "n_rejected"):
                assert result.solver_stats[stat] == sequential.solver_stats[stat], stat

    @pytest.mark.parametrize(
        "derivative",
        [
            # The vectorized lowering evaluates both conditional branches;
            # a domain error in the discarded branch must not raise (the
            # scalar path short-circuits and never sees it).
            "log(x) if x > 0.5 else 0.1 - 0.2 * x",
            "sqrt(x) if x > 0.5 else 0.1 - 0.2 * x",
            "x ** (-0.5) if x > 0.5 else 0.1 - 0.2 * x",
            "x ** 0.5 if x > 0.5 else 0.1 - 0.2 * x",
            # Two-argument log: the strict wrappers must broadcast extra
            # arguments elementwise like a ufunc.
            "log(x, 2.0) if x > 0.5 else 0.1 - 0.2 * x",
        ],
    )
    def test_discarded_branch_domain_errors_do_not_raise(self, derivative):
        from repro.fmi.archive import FmuArchive
        from repro.fmi.dynamics import OdeSystem, StateEquation
        from repro.fmi.model_description import DefaultExperiment, ModelDescription
        from repro.fmi.variables import ScalarVariable

        system = OdeSystem(
            states=[StateEquation(name="x", derivative=derivative, start=-1.0)]
        )
        description = ModelDescription(
            model_name="guarded",
            default_experiment=DefaultExperiment(start_time=0.0, stop_time=2.0),
        )
        description.add_variable(ScalarVariable(name="x", causality="local", start=-1.0))
        archive = FmuArchive(model_description=description, ode_system=system)
        models = [FmuModel(archive) for _ in range(2)]
        models[1].set("x", -2.0)
        batched = FmuModel.simulate_batch(models, start_time=0.0, stop_time=2.0)
        for model, result in zip(models, batched):
            sequential = model.simulate(start_time=0.0, stop_time=2.0)
            np.testing.assert_allclose(
                result["x"], sequential["x"], rtol=0, atol=1e-9, err_msg=derivative
            )

    def test_hp1_fleet_matches_interpreted_reference(
        self, hp1_archive, interpreted_simulate
    ):
        models = [FmuModel(hp1_archive, instance_name=f"i{i}") for i in range(2)]
        models[1].set("Cp", 2.0 * models[0].get("Cp"))
        hours = np.linspace(0.0, 10.0, 11)
        inputs = {"u": (hours, 0.5 + 0.4 * np.sin(hours))}
        batched = FmuModel.simulate_batch(
            models, inputs=inputs, start_time=0.0, stop_time=10.0
        )
        for model, result in zip(models, batched):
            reference = interpreted_simulate(model, inputs, 0.0, 10.0, result.time)
            for name in ("x", "y"):
                np.testing.assert_allclose(
                    result[name], reference[name], rtol=0, atol=1e-9
                )


class TestSimulateBatchApi:
    def test_empty_fleet(self):
        assert FmuModel.simulate_batch([]) == []

    def test_mixed_models_rejected(self, hp1_archive, random_system, random_archive):
        other = random_archive("other", random_system(0))
        models = [FmuModel(hp1_archive), FmuModel(other)]
        with pytest.raises(SimulationInputError, match="one model"):
            FmuModel.simulate_batch(models, start_time=0.0, stop_time=1.0)

    def test_terminated_instance_rejected(self, hp1_archive):
        models = [FmuModel(hp1_archive), FmuModel(hp1_archive)]
        models[1].terminate()
        with pytest.raises(FmuStateError, match="terminated"):
            FmuModel.simulate_batch(models, start_time=0.0, stop_time=1.0)

    def test_solver_error_names_the_rows(self):
        # der(x) = x*x diverges; the batched solve fails mid-flight and the
        # SolverError propagates, naming the diverged rows (recovering is
        # the caller's job: see TestSimulateManyBatching).
        from repro.fmi.archive import FmuArchive
        from repro.fmi.dynamics import OdeSystem, StateEquation
        from repro.fmi.model_description import DefaultExperiment, ModelDescription
        from repro.fmi.variables import ScalarVariable

        system = OdeSystem(states=[StateEquation(name="x", derivative="x * x", start=30.0)])
        description = ModelDescription(
            model_name="diverge",
            default_experiment=DefaultExperiment(start_time=0.0, stop_time=10.0),
        )
        description.add_variable(ScalarVariable(name="x", causality="local", start=30.0))
        archive = FmuArchive(model_description=description, ode_system=system)
        models = [FmuModel(archive) for _ in range(2)]
        with pytest.raises(SolverError, match=r"diverged at t=.* \(rows \[0, 1\]\)"):
            FmuModel.simulate_batch(
                models, start_time=0.0, stop_time=10.0,
                solver="euler", solver_options={"step": 0.5},
            )

    def test_batched_stats_reported(self, hp1_archive):
        models = [FmuModel(hp1_archive, instance_name=f"i{i}") for i in range(3)]
        hours = np.linspace(0.0, 10.0, 11)
        inputs = {"u": (hours, np.full(11, 0.5))}
        results = FmuModel.simulate_batch(
            models, inputs=inputs, start_time=0.0, stop_time=10.0, solver="rk4"
        )
        for result in results:
            assert result.solver_stats["batched"] is True
            assert result.solver_stats["fleet_size"] == 3
            assert result.solver_stats["n_steps"] > 0

    def test_row_by_row_stats_reported(self, hp1_archive):
        """An RK45 fleet reports each row's own step counts, the rhs
        evaluations summed over its rows, and no batched keys."""
        models = [FmuModel(hp1_archive, instance_name=f"i{i}") for i in range(3)]
        for model, cp in zip(models, (1.5, 0.15, 0.015)):
            model.set("Cp", cp)
        call = dict(
            inputs={"u": (np.linspace(0.0, 10.0, 11), np.full(11, 0.5))},
            start_time=0.0, stop_time=10.0,
        )
        results = FmuModel.simulate_batch(models, **call)
        singles = [model.simulate(**call) for model in models]
        total = sum(single.solver_stats["n_rhs_evals"] for single in singles)
        for result, single in zip(results, singles):
            assert result.solver_stats == dict(single.solver_stats, n_rhs_evals=total)


# --------------------------------------------------------------------------- #
# Model layer: one pipeline for a single row and for fleets
# --------------------------------------------------------------------------- #
class TestOnePipeline:
    """``simulate`` is a one-row fleet of ``simulate_batch``'s pipeline: it
    steps in the scalar float loop, as every row of an RK45 fleet does; a
    fixed-step fleet of two or more rows steps in ``solve_batch``."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_one_row_fleet_is_simulate(
        self, seed, solver, random_system, random_archive, random_fleet, corpus_inputs,
        monkeypatch,
    ):
        """A one-row ``simulate_batch`` is ``simulate`` bit for bit, stats
        included, and never reaches ``solve_batch``; two rows do, unless the
        solver is adaptive."""
        system = random_system(seed)
        archive = random_archive(f"one{seed}", system)
        (model,) = random_fleet(system, archive, n_rows=1, seed=4000 + seed)
        call = dict(
            inputs=corpus_inputs(system), start_time=0.0, stop_time=2.0,
            output_times=np.linspace(0.0, 2.0, 41), solver=solver,
        )
        sequential = model.simulate(**call)

        def refuse(self, problem, output_times=None):
            raise AssertionError("called solve_batch")

        for cls in SOLVER_REGISTRY.values():
            monkeypatch.setattr(cls, "solve_batch", refuse)
        (result,) = FmuModel.simulate_batch([model], **call)
        assert result.solver_stats == sequential.solver_stats
        assert "batched" not in result.solver_stats
        np.testing.assert_array_equal(result.time, sequential.time)
        assert result.variables == sequential.variables
        for name in sequential.variables:
            np.testing.assert_array_equal(result[name], sequential[name], err_msg=name)
        if solver in FIXED_STEP_SOLVERS:
            with pytest.raises(AssertionError, match="called solve_batch"):
                FmuModel.simulate_batch([model, model.clone()], **call)
        else:
            FmuModel.simulate_batch([model, model.clone()], **call)

    @pytest.mark.parametrize("solver", ["rk45", "rk4"])
    @pytest.mark.parametrize("fleet_size", [None, 1, 2])
    def test_kernel_eval_fault_point_fires(self, hp1_archive, fleet_size, solver):
        """The ``kernel.eval`` point guards the float loop and the batched
        fleet loop alike (``fleet_size=None`` calls ``simulate``)."""
        model = FmuModel(hp1_archive)
        call = dict(start_time=0.0, stop_time=10.0, solver=solver)
        injector = faults.FaultInjector().arm("kernel.eval", nth=3)
        with faults.activate(injector), pytest.raises(SolverError, match="kernel.eval"):
            if fleet_size is None:
                model.simulate(**call)
            else:
                fleet = [model] + [model.clone() for _ in range(fleet_size - 1)]
                FmuModel.simulate_batch(fleet, **call)
        assert injector.events == ["kernel.eval"]

    @pytest.mark.parametrize("source", [DIVIDING_SOURCE, BIND_DIVIDING_SOURCE])
    def test_division_raises_the_typed_error_without_warning(self, source):
        """A fleet stepping in the float loop (one row, or RK45 rows)
        divides on Python floats and raises the kernel's FmuFormatError, as
        ``simulate`` does, whether it divides per step or once at bind time.
        A batched fixed-step fleet divides on numpy rows and fails its solve
        with a SolverError naming them (the session recovers with
        per-instance reruns, see TestSimulateManyBatching); none warns."""
        archive = compile_model(source)
        pair = [load_fmu(archive), load_fmu(archive)]
        window = dict(start_time=0.0, stop_time=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FmuFormatError, match="divided by zero"):
                load_fmu(archive).simulate(**window)
            with pytest.raises(FmuFormatError, match="divided by zero"):
                FmuModel.simulate_batch([load_fmu(archive)], **window)
            with pytest.raises(FmuFormatError, match="divided by zero"):
                FmuModel.simulate_batch(pair, **window)
            with pytest.raises(SolverError, match=r"rows \[0, 1\]"):
                FmuModel.simulate_batch(pair, solver="euler", **window)


# --------------------------------------------------------------------------- #
# Session layer
# --------------------------------------------------------------------------- #
class TestSimulateManyBatching:
    @pytest.fixture()
    def fleet_session(self, session_with_data):
        base = session_with_data.instance("HP1Instance1")
        ids = ["HP1Instance1"]
        for i in range(2, 5):
            clone = base.copy(f"HP1Instance{i}")
            clone.set_initial("Cp", 1.0 + 0.2 * i)
            clone.set_initial("R", 0.8 + 0.1 * i)
            ids.append(str(clone))
        return session_with_data, ids

    def test_batched_equals_sequential_path(self, fleet_session):
        session, ids = fleet_session
        query = "SELECT * FROM measurements"
        batched = session.simulate_many(ids, query)
        # Sequential reference: one-row fleets over inputs bound once.
        simulator = session.simulator
        prepared = simulator.prepare_inputs(query)
        sequential = {i: simulator._simulate_group([i], prepared)[0] for i in ids}
        assert list(batched) == list(sequential) == ids
        for instance_id in ids:
            stats = batched[instance_id].solver_stats
            assert "batched" not in stats  # rk45 fleets step row by row
            for stat in ("n_steps", "n_rejected"):
                assert stats[stat] == sequential[instance_id].solver_stats[stat]
            for name in sequential[instance_id].variables:
                np.testing.assert_allclose(
                    batched[instance_id][name],
                    sequential[instance_id][name],
                    rtol=0,
                    atol=1e-9,
                )

    def test_udf_array_rows_match_sequential(self, fleet_session):
        session, ids = fleet_session
        literal = "{" + ", ".join(ids) + "}"
        batched_rows = session.execute(
            f"SELECT * FROM fmu_simulate('{literal}', 'SELECT * FROM measurements')"
        ).rows
        # Sequential reference: one scalar fmu_simulate call per instance.
        sequential_rows = [
            row
            for instance_id in ids
            for row in session.execute(
                f"SELECT * FROM fmu_simulate('{instance_id}', 'SELECT * FROM measurements')"
            ).rows
        ]
        assert len(batched_rows) == len(sequential_rows) > 0
        for got, want in zip(batched_rows, sequential_rows):
            assert got[:3] == want[:3]
            assert got[3] == pytest.approx(want[3], abs=1e-9)

    def test_duplicate_ids_simulated_once(self, fleet_session):
        session, ids = fleet_session
        results = session.simulate_many(
            [ids[0], ids[1], ids[0]], "SELECT * FROM measurements"
        )
        assert list(results) == [ids[0], ids[1]]

    def test_single_instance_stays_unbatched(self, fleet_session):
        session, ids = fleet_session
        results = session.simulate_many([ids[0]], "SELECT * FROM measurements")
        assert "batched" not in results[ids[0]].solver_stats

    def test_one_instance_equals_fmu_model_simulate(self, fleet_session):
        """``Session.simulate`` and a one-instance ``fmu_simulate`` are
        ``FmuModel.simulate`` on the instance's model, bit for bit."""
        session, ids = fleet_session
        query = "SELECT * FROM measurements"
        instance_id = ids[1]
        model = session.catalog.runtime_model(instance_id)
        rows = session.database.query_dicts(query + " ORDER BY time")
        time = np.array([row["time"] for row in rows])
        reference = model.simulate(
            inputs={
                name: (time, np.array([row[name] for row in rows]))
                for name in model.input_names()
            },
            start_time=float(time[0]),
            stop_time=float(time[-1]),
            output_times=time,
        )
        result = session.simulate(instance_id, query)
        assert result.solver_stats == reference.solver_stats
        np.testing.assert_array_equal(result.time, reference.time)
        assert result.variables == reference.variables
        for name in reference.variables:
            np.testing.assert_array_equal(result[name], reference[name], err_msg=name)

        reported = model.state_names() + [
            name for name in model.output_names() if name not in model.state_names()
        ]
        want = [
            [float(t), instance_id, name, float(reference[name][i])]
            for i, t in enumerate(reference.time)
            for name in reported
        ]
        got = session.execute(f"SELECT * FROM fmu_simulate('{instance_id}', '{query}')").rows
        assert [list(row) for row in got] == want

    def test_failing_instance_walks_the_ladder_once(self, session, monkeypatch):
        """A single diverging instance makes one ``simulate_batch`` call per
        rung of the rk45 ladder (rk45, tightened rk45, rk4); a failing fleet
        walks the ladder, then each instance walks its own."""
        for name in ("A", "B"):
            session.create(DIVERGING_SOURCE, name)
        sizes = []
        real = FmuModel.simulate_batch

        def recording(models, *args, **kwargs):
            sizes.append(len(models))
            return real(models, *args, **kwargs)

        monkeypatch.setattr(FmuModel, "simulate_batch", staticmethod(recording))
        with pytest.raises(SolverError):
            session.simulate("A")
        assert sizes == [1, 1, 1]
        sizes.clear()
        with pytest.raises(SolverError):
            session.simulate_many(["A", "B"])
        # A's own ladder raises, so B is never rerun.
        assert sizes == [2, 2, 2, 1, 1, 1]

    @pytest.mark.parametrize("source", [DIVIDING_SOURCE, BIND_DIVIDING_SOURCE])
    def test_dividing_fleet_raises_the_typed_error_without_warning(self, session, source):
        """A fleet that divides by zero fails every batched rung, reruns
        instance by instance and raises what one fmu_simulate call raises -
        the kernel's FmuFormatError - with no numpy warning on the way,
        whether it divides per step or once at bind time."""
        for name in ("A", "B"):
            session.create(source, name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FmuFormatError, match="divided by zero"):
                session.execute("SELECT * FROM fmu_simulate('{A, B}')")

    def test_diverging_fleet_raises_the_single_instance_error(self, session):
        for name in ("A", "B"):
            session.create(DIVERGING_SOURCE, name)
        with pytest.raises(SolverError) as single:
            session.execute("SELECT * FROM fmu_simulate('A')")
        with pytest.raises(SolverError) as fleet:
            session.execute("SELECT * FROM fmu_simulate('{A, B}')")
        assert str(fleet.value) == str(single.value)
