"""The solver degradation ladder (:class:`RetryPolicy`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults
from repro.errors import CancelledError, SolverError, TimeoutError
from repro.fmi.dynamics import OdeSystem, OutputEquation, StateEquation
from repro.solvers import RetryPolicy
from repro.solvers.retry import FALLBACK_SOLVER, STEP_FACTOR
from tests.conftest import make_random_archive


def stable_system():
    return OdeSystem(
        states=[StateEquation(name="x", derivative="-k * x", start=1.0)],
        outputs=[OutputEquation(name="y", expression="2 * x")],
        inputs=[],
        parameters={"k": 0.5},
    )


class TestLadder:
    def test_adaptive_defaults_ladder(self):
        ladder = RetryPolicy().attempts("rk45")
        assert [name for name, _ in ladder] == ["rk45", "rk45", "rk4"]
        first, tightened, fallback = [options for _, options in ladder]
        assert first == {}
        # Nothing was configured, so the tightened rung scales the adaptive
        # defaults and raises the step budget.
        assert tightened["rtol"] == pytest.approx(1e-6 * 0.25)
        assert tightened["atol"] == pytest.approx(1e-8 * 0.25)
        assert tightened["max_steps"] == 400_000
        # The fixed-step fallback only takes options rk4 understands.
        assert fallback == {}

    def test_explicit_options_are_tightened(self):
        ladder = RetryPolicy().attempts("rk45", {"rtol": 1e-4, "max_step": 2.0})
        _, tightened = ladder[1]
        assert tightened["rtol"] == pytest.approx(1e-4 * STEP_FACTOR)
        assert tightened["max_step"] == pytest.approx(2.0 * STEP_FACTOR)
        _, fallback = ladder[2]
        assert fallback == {"max_step": pytest.approx(2.0 * STEP_FACTOR)}
        assert "rtol" not in fallback

    def test_fixed_step_solver_with_default_step_skips_tighten_rung(self):
        # A fixed-step solver without an explicit step derives it from the
        # span at solve time: there is nothing to scale, so the ladder has
        # no middle rung - and the fallback solver itself has no last rung.
        ladder = RetryPolicy().attempts("euler")
        assert [name for name, _ in ladder] == ["euler", FALLBACK_SOLVER]
        assert [name for name, _ in RetryPolicy().attempts(FALLBACK_SOLVER)] == [
            FALLBACK_SOLVER
        ]


    def test_fixed_step_solver_with_explicit_step_is_tightened(self):
        # An explicit step is a knob to scale: the middle rung quarters it,
        # adds no adaptive-only option, and the fallback takes the same step.
        ladder = RetryPolicy().attempts("euler", {"step": 0.1})
        assert [name for name, _ in ladder] == ["euler", "euler", FALLBACK_SOLVER]
        first, tightened, fallback = [options for _, options in ladder]
        assert first == {"step": 0.1}
        assert tightened == {"step": pytest.approx(0.1 * STEP_FACTOR)}
        assert fallback == {"step": pytest.approx(0.1 * STEP_FACTOR)}


class TestRun:
    def test_first_attempt_success_needs_one_call(self):
        calls = []

        def simulate(name, options):
            calls.append((name, dict(options)))
            return "ok"

        assert RetryPolicy().run(simulate, "rk45") == "ok"
        assert calls == [("rk45", {})]

    def test_transient_failure_recovers_on_retry(self):
        calls = []

        def simulate(name, options):
            calls.append(name)
            if len(calls) == 1:
                raise SolverError("diverged")
            return "recovered"

        assert RetryPolicy().run(simulate, "rk45") == "recovered"
        assert calls == ["rk45", "rk45"]

    def test_ladder_reaches_the_fallback_solver(self):
        calls = []

        def simulate(name, options):
            calls.append(name)
            if name != "rk4":
                raise SolverError("diverged")
            return "fallback saved it"

        assert RetryPolicy().run(simulate, "rk45") == "fallback saved it"
        assert calls == ["rk45", "rk45", "rk4"]

    def test_each_rung_receives_its_ladder_options(self):
        calls = []

        def simulate(name, options):
            calls.append((name, dict(options)))
            raise SolverError("diverged")

        options = {"rtol": 1e-4, "max_step": 2.0}
        with pytest.raises(SolverError):
            RetryPolicy().run(simulate, "rk45", options)
        assert calls == RetryPolicy().attempts("rk45", options)
        assert options == {"rtol": 1e-4, "max_step": 2.0}  # caller's dict untouched

    def test_exhausted_ladder_reraises_last_error(self):
        def simulate(name, options):
            raise SolverError(f"diverged with {name}")

        with pytest.raises(SolverError, match="rk4"):
            RetryPolicy().run(simulate, "rk45")

    @pytest.mark.parametrize("error", [TimeoutError("t"), CancelledError("c"), ValueError("v")])
    def test_non_solver_errors_propagate_immediately(self, error):
        calls = []

        def simulate(name, options):
            calls.append(name)
            raise error

        with pytest.raises(type(error)):
            RetryPolicy().run(simulate, "rk45")
        assert calls == ["rk45"]  # no retry burned on a doomed attempt


class TestEndToEnd:
    def test_simulate_survives_transient_injected_divergence(self):
        """A one-shot kernel.eval fault kills the first attempt; the retry
        ladder's second rung completes the simulation."""
        from repro.fmi import load_fmu

        archive = make_random_archive("Stable", stable_system())
        model = load_fmu(archive)

        def run():
            return model.simulate(
                start_time=0.0, stop_time=50.0, output_step=1.0, solver="rk4"
            )

        with faults.activate(faults.FaultInjector().arm("kernel.eval", trips=1)):
            with pytest.raises(SolverError):
                run()  # no policy: the injected divergence is fatal

        injector = faults.FaultInjector().arm("kernel.eval", trips=1)
        with faults.activate(injector):
            result = RetryPolicy().run(
                lambda name, options: model.simulate(
                    start_time=0.0,
                    stop_time=50.0,
                    output_step=1.0,
                    solver=name,
                    solver_options=options or None,
                ),
                "rk45",
            )
        assert injector.events == ["kernel.eval"]
        assert len(result.time) == 51
        assert np.isfinite(result["x"]).all()

    def test_solver_step_point_fires_on_long_fixed_step_runs(self):
        """The sparse per-step check reaches the solver.step point once the
        loop passes the check interval."""
        from repro.fmi import load_fmu

        archive = make_random_archive("Stable", stable_system())
        model = load_fmu(archive)
        injector = faults.FaultInjector().arm("solver.step", trips=1)
        with faults.activate(injector):
            with pytest.raises(SolverError, match="solver.step"):
                # 500 fixed steps >> the 64-step check interval.
                model.simulate(
                    start_time=0.0,
                    stop_time=50.0,
                    output_step=1.0,
                    solver="rk4",
                    solver_options={"step": 0.1},
                )
        assert injector.events == ["solver.step"]

    def test_objective_penalizes_a_diverging_candidate(self):
        """Calibration has no ladder: a candidate whose one-row fleet
        diverges counts one evaluation and scores ``inf``; a fatal timeout
        propagates without counting one."""
        from repro.estimation.objective import MeasurementSet, SimulationObjective
        from repro.fmi import load_fmu
        from repro.fmi.model import FmuModel

        archive = make_random_archive("Stable", stable_system())
        time = np.linspace(0.0, 2.0, 21)
        reference = load_fmu(archive).simulate(
            start_time=0.0, stop_time=2.0, output_times=time, solver="rk4"
        )
        measurements = MeasurementSet(time=time, series={"x": reference["x"]})
        objective = SimulationObjective(
            model=load_fmu(archive), measurements=measurements, parameter_names=["k"]
        )
        with faults.activate(faults.FaultInjector().arm("kernel.eval", trips=1)):
            assert objective([0.5]) == float("inf")
        assert objective.n_evaluations == 1
        assert np.isfinite(objective([0.4]))
        assert objective.n_evaluations == 2

        def expired(*args, **kwargs):
            raise TimeoutError("deadline")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FmuModel, "simulate_batch", staticmethod(expired))
            with pytest.raises(TimeoutError):
                objective([0.3])
        assert objective.n_evaluations == 2
