"""Compiled-kernel tests: codegen, equivalence corpus, and the simulate path.

The corpus draws random ODE systems from the shared factory in
``tests/conftest.py`` (every whitelisted function plus conditionals,
boolean operators, chained comparisons and min/max) and asserts that the
compiled kernel agrees with the interpreted reference
(``OdeSystem.derivatives`` / ``evaluate_outputs``, and the
``interpreted_simulate`` oracle for whole simulations) within 1e-9 on every
trajectory.
"""

from __future__ import annotations

import ast
import random
import warnings

import numpy as np
import pytest

from repro.errors import FmuFormatError
from repro.fmi import load_fmu
from repro.fmi.dynamics import OdeSystem, OutputEquation, StateEquation
from repro.fmi.kernel import SimulationKernel
from repro.fmi.model import FmuModel


def _outputs_at(kernel, t, x, u, p):
    """The kernel's outputs at one point: a fleet of one row, one time."""
    outputs = kernel.outputs_batch(
        np.array([t]),
        np.asarray(x, dtype=float).reshape(1, 1, -1),
        np.array(u, dtype=float).reshape(1, 1, len(u)),
        np.array([p], dtype=float).reshape(1, len(p)),
    )
    return {name: values[0, 0] for name, values in outputs.items()}


# --------------------------------------------------------------------------- #
# Randomized equivalence corpus
# --------------------------------------------------------------------------- #
class TestEquivalenceCorpus:
    @pytest.mark.parametrize("seed", range(25))
    def test_pointwise_derivatives_and_outputs_agree(self, seed, random_system):
        system = random_system(seed)
        kernel = system.kernel
        rng = random.Random(1000 + seed)
        for _ in range(10):
            t = rng.uniform(0.0, 5.0)
            x = np.array([rng.uniform(-2.0, 2.0) for _ in system.state_names])
            u = {name: rng.uniform(-1.0, 1.0) for name in system.inputs}
            p = {name: rng.uniform(0.5, 2.0) for name in system.parameters}
            u_vec = [u[name] for name in kernel.input_names]
            p_vec = kernel.parameter_vector(p)
            dx_compiled = kernel.derivs(t, x, u_vec, p_vec)
            out_compiled = _outputs_at(kernel, t, x, u_vec, p_vec)
            dx_interp = system.derivatives(t, x, u, p)
            out_interp = system.evaluate_outputs(t, x, u, p)
            np.testing.assert_allclose(dx_compiled, dx_interp, rtol=0, atol=1e-9)
            assert set(out_compiled) == set(out_interp)
            for name in out_interp:
                assert out_compiled[name] == pytest.approx(out_interp[name], abs=1e-9)

    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("solver", ["rk4", "rk45"])
    def test_full_simulation_trajectories_agree(
        self, seed, solver, random_system, random_archive, interpreted_simulate
    ):
        system = random_system(seed)
        archive = random_archive(f"corpus{seed}", system)
        inputs = {
            name: (np.linspace(0.0, 2.0, 21), np.sin(np.linspace(0.0, 6.0, 21) + i))
            for i, name in enumerate(system.inputs)
        }
        grid = np.linspace(0.0, 2.0, 41)
        compiled_result = FmuModel(archive).simulate(
            inputs=inputs or None,
            start_time=0.0,
            stop_time=2.0,
            output_times=grid,
            solver=solver,
        )
        interp_result = interpreted_simulate(
            FmuModel(archive), inputs, 0.0, 2.0, grid, solver=solver
        )
        for name in list(system.state_names) + list(system.output_names):
            np.testing.assert_allclose(
                compiled_result[name],
                interp_result[name],
                rtol=0,
                atol=1e-9,
                err_msg=f"seed={seed} solver={solver} variable={name}",
            )


# --------------------------------------------------------------------------- #
# Targeted kernel behaviour
# --------------------------------------------------------------------------- #
class TestKernelCodegen:
    def test_scalar_kernel_is_bit_identical(self, random_system):
        system = random_system(7)
        kernel = system.kernel
        rng = random.Random(99)
        x = np.array([rng.uniform(-1, 1) for _ in system.state_names])
        u = {name: 0.5 for name in system.inputs}
        compiled = kernel.derivs(
            1.0, x, [u[name] for name in kernel.input_names], kernel.parameter_vector()
        )
        interpreted = system.derivatives(1.0, x, u, {})
        # Same expressions, same math functions, names lowered to indexing:
        # the scalar kernel is exactly the interpreted arithmetic.
        assert np.array_equal(compiled, interpreted)

    def test_constants_are_folded(self):
        system = OdeSystem(
            states=[StateEquation("x", "2 * pi * x + (3 + 4) * e")],
            parameters={},
        )
        kernel = system.kernel
        assert "pi" not in kernel.source
        assert str(2 * np.pi) in kernel.source

    def test_output_referencing_output_is_rejected(self):
        # Only states, inputs, parameters and time are bound when equations
        # run; an output named in another equation fails at construction.
        with pytest.raises(FmuFormatError, match=r"'y \+ 1' references 'y'"):
            OdeSystem(
                states=[StateEquation("a", "-a")],
                outputs=[OutputEquation("y", "a * 2"), OutputEquation("z", "y + 1")],
                parameters={},
            )

    def test_division_by_zero_maps_to_fmu_error_in_both_modes(self, random_archive):
        system = OdeSystem(states=[StateEquation("a", "1.0 / (a - a)")], parameters={})
        with pytest.raises(FmuFormatError, match="divided by zero"):
            system.derivatives(0.0, np.array([1.0]), {}, {})
        with pytest.raises(FmuFormatError, match="divided by zero"):
            FmuModel(random_archive("divzero_rhs", system)).simulate(
                start_time=0.0, stop_time=1.0
            )

    def test_parameter_vector_defaults_and_overrides(self):
        system = OdeSystem(
            states=[StateEquation("x", "-k * x")],
            parameters={"k": 2.0},
        )
        kernel = system.kernel
        assert kernel.parameter_vector() == (2.0,)
        assert kernel.parameter_vector({"k": 5.0}) == (5.0,)

    def test_vectorized_outputs_match_scalar_outputs(self, random_system):
        system = random_system(11)
        kernel = system.kernel
        rng = random.Random(3)
        n = 17
        times = np.linspace(0.0, 4.0, n)
        states = np.array(
            [[rng.uniform(-2, 2) for _ in system.state_names] for _ in range(n)]
        )
        inputs = np.array(
            [[rng.uniform(-1, 1) for _ in system.inputs] for _ in range(n)]
        ).reshape(n, len(system.inputs))
        p = kernel.parameter_vector()
        vectorized = {
            name: values[0]
            for name, values in kernel.outputs_batch(
                times, states[None], inputs[None], np.array([p])
            ).items()
        }
        assert set(vectorized) == set(system.output_names)
        for k in range(n):
            scalar = system.evaluate_outputs(
                times[k], states[k], dict(zip(system.inputs, inputs[k])), {}
            )
            for name, value in scalar.items():
                assert vectorized[name][k] == pytest.approx(value, abs=1e-12)

    def test_kernel_for_compiled_hp1(self, hp1_archive):
        model = load_fmu(hp1_archive)
        kernel = model.ode_system.kernel
        assert isinstance(kernel, SimulationKernel)
        assert kernel.state_names == ["x"]
        assert kernel.input_names == ["u"]


class TestCompiledSimulatePath:
    def test_hp1_simulation_matches_interpreted_reference(
        self, hp1_archive, interpreted_simulate
    ):
        inputs = {"u": ([0.0, 12.0, 24.0, 36.0, 48.0], [0.0, 1.0, 0.3, 0.8, 0.2])}
        compiled = load_fmu(hp1_archive).simulate(inputs=inputs, output_step=0.5)
        reference = interpreted_simulate(
            load_fmu(hp1_archive), inputs, 0.0, 48.0, compiled.time
        )
        for name in ("x", "y"):
            np.testing.assert_allclose(
                compiled[name], reference[name], rtol=0, atol=1e-9
            )
        assert compiled.solver_stats["n_rhs_evals"] == reference.solver_stats["n_rhs_evals"]

    def test_solver_stats_and_grid_preserved(self, hp1_archive):
        model = load_fmu(hp1_archive)
        result = model.simulate(
            inputs={"u": ([0.0, 48.0], [0.5, 0.5])}, output_step=1.0, solver="euler"
        )
        assert result.time[0] == 0.0 and result.time[-1] == 48.0
        assert result.solver_stats["n_rhs_evals"] > 0


class TestKernelSemanticsEdgeCases:
    def test_post_construction_parameter_mutation_is_visible(self):
        """Model builders mutate ode_system.parameters in place after the
        kernel is built; the compiled path must see the new defaults."""
        system = OdeSystem(states=[StateEquation("x", "a * x")], parameters={"a": 1.0})
        system.parameters["a"] = 5.0
        kernel = system.kernel
        compiled = kernel.derivs(0.0, np.array([2.0]), [], kernel.parameter_vector())
        interpreted = system.derivatives(0.0, np.array([2.0]), {}, {})
        assert compiled[0] == interpreted[0] == 10.0

    def test_vectorized_output_division_by_zero_raises_like_interpreted(
        self, random_archive, interpreted_simulate
    ):
        system = OdeSystem(
            states=[StateEquation("x", "-1.0", start=1.0)],
            outputs=[OutputEquation("y", "1.0 / x")],
            parameters={},
        )
        archive = random_archive("divzero", system)
        # x crosses zero at t = 1; the output grid samples it exactly there.
        options = {"step": 0.5}
        with pytest.raises(FmuFormatError, match="divided by zero"):
            FmuModel(archive).simulate(
                start_time=0.0,
                stop_time=2.0,
                output_times=[0.0, 1.0, 2.0],
                solver="euler",
                solver_options=options,
            )
        with pytest.raises(FmuFormatError, match="divided by zero"):
            interpreted_simulate(
                FmuModel(archive), None, 0.0, 2.0, [0.0, 1.0, 2.0],
                solver="euler", solver_options=options,
            )

    @pytest.mark.parametrize("expression", ["1.0 / u", "1.0 / time"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_output_divisor_hitting_zero_on_the_grid_raises(
        self, expression, batched, random_archive, interpreted_simulate
    ):
        """u crosses zero at t = 1 and time is zero at t = 0, both exactly
        on the output grid.  The reference raises there, so both simulate
        paths must raise too rather than report an infinite output."""
        system = OdeSystem(
            states=[StateEquation("x", "-x", start=1.0)],
            outputs=[OutputEquation("y", expression)],
            inputs=["u"],
            parameters={},
        )
        archive = random_archive("divisor", system)
        inputs = {"u": ([0.0, 1.0, 2.0], [-1.0, 0.0, 1.0])}
        grid = [0.0, 1.0, 2.0]
        with pytest.raises(FmuFormatError, match="divided by zero"):
            interpreted_simulate(FmuModel(archive), inputs, 0.0, 2.0, grid)
        call = dict(inputs=inputs, start_time=0.0, stop_time=2.0, output_times=grid)
        with pytest.raises(FmuFormatError, match="divided by zero"):
            if batched:
                FmuModel.simulate_batch([FmuModel(archive), FmuModel(archive)], **call)
            else:
                FmuModel(archive).simulate(**call)

    def test_legitimate_infinities_do_not_raise(self):
        kernel = OdeSystem(
            states=[StateEquation("x", "0.0", start=1e308)],
            outputs=[OutputEquation("y", "x * 10.0")],
            parameters={},
        ).kernel
        values = kernel.outputs_batch(
            np.array([0.0]), np.array([[[1e308]]]), np.empty((1, 1, 0)), np.empty((1, 0))
        )
        # Multiplication overflow is silent inf in Python floats too; the
        # pointwise fallback must return it rather than raise.
        assert np.isinf(values["y"][0, 0])

    def test_variable_named_after_constant_shadows_it(self):
        """A model variable named 'e' (e.g. emissivity) must shadow the math
        constant, matching the interpreted namespace overlay order."""
        system = OdeSystem(
            states=[StateEquation("x", "-e * x", start=1.0)],
            parameters={"e": 0.5},
        )
        kernel = system.kernel
        compiled = kernel.derivs(0.0, np.array([2.0]), [], kernel.parameter_vector())
        interpreted = system.derivatives(0.0, np.array([2.0]), {}, {})
        assert compiled[0] == interpreted[0] == -1.0

    def test_pi_named_state_shadows_constant(self):
        system = OdeSystem(
            states=[StateEquation("pi", "2.0 * pi", start=1.0)],
            parameters={},
        )
        compiled = system.kernel.derivs(0.0, np.array([3.0]), [], ())
        interpreted = system.derivatives(0.0, np.array([3.0]), {}, {})
        assert compiled[0] == interpreted[0] == 6.0

    def test_variable_shadowing_a_function_name_is_rejected(self):
        """Calling 'sin' when a variable named sin exists cannot run: the
        variable shadows the function.  The system fails at construction
        rather than silently calling math.sin."""
        with pytest.raises(FmuFormatError, match=r"'sin\(x\) \+ sin' calls sin\(\)"):
            OdeSystem(
                states=[StateEquation("x", "sin(x) + sin", start=1.0)],
                parameters={"sin": 0.25},
            )

    def test_identity_output_does_not_alias_state_trajectory(self):
        """output y = x lowers to a column slice; the returned trajectory
        must be a fresh array, not a view into the state matrix."""
        system = OdeSystem(
            states=[StateEquation("x", "-x", start=1.0)],
            outputs=[OutputEquation("y", "x")],
            parameters={},
        )
        states = np.linspace(0.0, 1.0, 5).reshape(5, 1)
        outputs = system.kernel.outputs_batch(
            np.linspace(0.0, 1.0, 5), states[None], np.empty((1, 5, 0)), np.empty((1, 0))
        )
        assert not np.shares_memory(outputs["y"], states)
        outputs["y"] += 100.0
        assert states[0, 0] == 0.0

    def test_single_argument_min_is_rejected(self):
        """min(x) with one argument is a TypeError in Python; the vectorized
        reduce would silently accept it, so the system fails at construction."""
        with pytest.raises(FmuFormatError, match=r"'min\(x\)' calls min\(\)"):
            OdeSystem(
                states=[StateEquation("x", "-x", start=1.0)],
                outputs=[OutputEquation("y", "min(x)")],
                parameters={},
            )

    def test_division_error_names_candidate_equations(self, random_archive):
        system = OdeSystem(states=[StateEquation("a", "1.0 / (a - a)")], parameters={})
        model = FmuModel(random_archive("divzero_names", system))
        with pytest.raises(FmuFormatError, match=r"one of: '1\.0 / \(a - a\)'"):
            model.simulate(start_time=0.0, stop_time=1.0)


# --------------------------------------------------------------------------- #
# Bind-time parameter hoisting
# --------------------------------------------------------------------------- #
def _per_step_source(kernel, name: str) -> str:
    """Source of the per-step function ``name`` inside its bind factory."""
    for node in ast.walk(ast.parse(kernel.source)):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return ast.unparse(node)
    raise AssertionError(f"no {name} in the kernel source")


def _bind_source(kernel, name: str) -> str:
    return _per_step_source(kernel, f"_bind{name}")


def _lifted_source(kernel, name: str) -> str:
    """The bind factory's lifted assignments (its body minus the per-step def)."""
    factory = ast.parse(_bind_source(kernel, name)).body[0]
    return "\n".join(ast.unparse(stmt) for stmt in factory.body if isinstance(stmt, ast.Assign))


class TestParameterHoisting:
    def test_hp1_golden_source(self, hp1_archive):
        kernel = hp1_archive.ode_system.kernel
        assert _per_step_source(kernel, "_derivs_batch") == (
            "def _derivs_batch(_t, _X, _U, _out):\n"
            "    _out[:, 0] = (_c0 - _X[:, 0]) / _c1 + _c2 * _U[:, 0]\n"
            "    return _out"
        )
        assert _bind_source(kernel, "_derivs_batch") == (
            "def _bind_derivs_batch(_P):\n"
            "    _c0 = _P[:, 4]\n"
            "    _c1 = _P[:, 1] * _P[:, 0]\n"
            "    _c2 = _P[:, 2] * _P[:, 3] / _P[:, 0]\n\n"
            "    def _derivs_batch(_t, _X, _U, _out):\n"
            "        _out[:, 0] = (_c0 - _X[:, 0]) / _c1 + _c2 * _U[:, 0]\n"
            "        return _out\n"
            "    return _derivs_batch"
        )
        # The scalar kernel has the same shape; neither per-step function
        # reads a parameter slot.
        scalar = _per_step_source(kernel, "_derivs")
        assert "(_c0 - _x[0]) / _c1 + _c2 * _u[0]" in scalar
        assert "_p[" not in scalar
        assert "_P[" not in _per_step_source(kernel, "_derivs_batch")

    def test_identical_subtrees_share_one_local(self):
        kernel = OdeSystem(
            states=[
                StateEquation("a", "-a / (k * 2)"),
                StateEquation("b", "-b / (k * 2) + exp(k)"),
            ],
            parameters={"k": 1.5},
        ).kernel
        assert _bind_source(kernel, "_derivs") == (
            "def _bind_derivs(_p):\n"
            "    _c0 = _p[0] * 2\n"
            "    _c1 = exp(_p[0])\n\n"
            "    def _derivs(_t, _x, _u):\n"
            "        return [-_x[0] / _c0, -_x[1] / _c0 + _c1]\n"
            "    return _derivs"
        )

    @pytest.mark.parametrize(
        "derivative, kept",
        [
            ("1 / (k - 1) if x > 100 else -x", "1 / ({p}0{q} - 1)"),
            ("x > 100 and 1 / (k - 1) or -x", "1 / ({p}0{q} - 1)"),
            ("1.0 if 0 < x < 1 / (k - 1) else -x", "1 / ({p}0{q} - 1)"),
        ],
    )
    def test_nothing_is_lifted_out_of_a_branch(self, derivative, kept):
        kernel = OdeSystem(
            states=[StateEquation("x", derivative, start=1.0)], parameters={"k": 1.0}
        ).kernel
        assert kept.format(p="_p[", q="]") in _per_step_source(kernel, "_derivs")
        assert kept.format(p="_P[:, ", q="]") in _per_step_source(kernel, "_derivs_batch")
        assert "1 /" not in _lifted_source(kernel, "_derivs")
        assert "1 /" not in _lifted_source(kernel, "_derivs_batch")

    def test_branch_divisor_simulates_without_error(self, random_archive):
        """``der(x) = if x > 100 then 1/(k-1) else -x`` with ``k = 1``: the
        branch never runs, so neither path may divide at bind time."""
        system = OdeSystem(
            states=[StateEquation("x", "1 / (k - 1) if x > 100 else -x", start=1.0)],
            parameters={"k": 1.0},
        )
        archive = random_archive("branchdiv", system)
        models = [FmuModel(archive), FmuModel(archive)]
        models[1].set("x", 2.0)
        grid = np.linspace(0.0, 2.0, 11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solver in ("euler", "rk4", "rk45"):
                call = dict(start_time=0.0, stop_time=2.0, output_times=grid, solver=solver)
                batched = FmuModel.simulate_batch(models, **call)
                for model, result in zip(models, batched):
                    np.testing.assert_array_equal(result["x"], model.simulate(**call)["x"])

    def test_top_level_divisor_raises_at_bind_time(self):
        kernel = OdeSystem(
            states=[StateEquation("x", "x * (1 / (k - 1))", start=1.0)],
            parameters={"k": 1.0},
        ).kernel
        with pytest.raises(ZeroDivisionError):
            kernel.derivs(0.0, np.array([1.0]), [], kernel.parameter_vector())
        with np.errstate(divide="ignore"):
            batched = kernel.derivs_batch(0.0, np.ones((2, 1)), np.empty((2, 0)), np.ones((2, 1)))
        assert np.isinf(batched).all()
