"""Solver degradation ladder: retry a diverged integration, then fall back.

When a simulation hits a :class:`~repro.errors.SolverError` (divergence,
step-limit exhaustion, an injected ``solver.step`` fault),
:meth:`RetryPolicy.run` walks a ladder of progressively more conservative
attempts before giving up:

1. the requested solver with the requested options;
2. the same solver with *tightened* numerics - step sizes and tolerances
   scaled by :data:`STEP_FACTOR`, and the adaptive step limit raised so
   smaller steps do not trip it;
3. the :data:`FALLBACK_SOLVER` (rk45 -> rk4), a fixed-step method immune to
   step-controller runaway, with only the options it understands.

Only :class:`~repro.errors.SolverError` is retried.  Typed timeout /
cancellation errors, storage errors, and everything else propagate
immediately - a deadline must not be burned on doomed retries.

:class:`repro.core.simulate.Simulator` applies the ladder to every
``fmu_simulate`` fleet solve.  Calibration does not use it: the population
objective penalizes a diverging candidate with ``inf`` (bisecting failed
fleets down to it), so estimation results never depend on a rescue.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SolverError

#: Options understood by the fixed-step fallback solvers (rk4, euler);
#: adaptive-only options (rtol, atol, max_steps) are dropped on fallback.
_FIXED_STEP_OPTIONS = ("step", "max_step")

#: Options scaled by :data:`STEP_FACTOR` when tightening an attempt.
_TIGHTENABLE_OPTIONS = ("step", "max_step", "rtol", "atol")

#: Default tightened tolerances for an adaptive solver invoked with no
#: explicit options (there is nothing to scale, so tighten from these).
_ADAPTIVE_DEFAULTS = {"rtol": 1e-6, "atol": 1e-8}

_ADAPTIVE_SOLVERS = {"rk45", "cvode"}

#: Multiplier applied to step sizes / tolerances on the tightened attempt
#: (four times smaller steps) and to the fixed-step fallback's step.
STEP_FACTOR = 0.25

#: Solver of the last rung: a registered fixed-step solver.
FALLBACK_SOLVER = "rk4"


class RetryPolicy:
    """The degradation ladder of the module docstring."""

    def attempts(
        self, solver: str, solver_options: Optional[Dict[str, Any]] = None
    ) -> List[Tuple[str, Dict[str, Any]]]:
        """The ladder of ``(solver_name, options)`` attempts."""
        options = dict(solver_options or {})
        ladder: List[Tuple[str, Dict[str, Any]]] = [(solver, options)]
        tightened = self._tighten(solver, options)
        if tightened is not None:
            ladder.append((solver, tightened))
        if solver != FALLBACK_SOLVER:
            ladder.append((FALLBACK_SOLVER, self._fallback_options(options)))
        return ladder

    def _tighten(
        self, solver: str, options: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        tightened = dict(options)
        changed = False
        for key in _TIGHTENABLE_OPTIONS:
            if tightened.get(key) is not None:
                tightened[key] = float(tightened[key]) * STEP_FACTOR
                changed = True
        if not changed and solver in _ADAPTIVE_SOLVERS:
            for key, default in _ADAPTIVE_DEFAULTS.items():
                tightened[key] = default * STEP_FACTOR
            changed = True
        if not changed:
            # Fixed-step solver at its span-derived default step: there is
            # no knob to scale without knowing the span, so skip this rung.
            return None
        if solver in _ADAPTIVE_SOLVERS:
            # Smaller steps need more of them; keep the safety limit from
            # turning the tightened attempt into an instant failure.
            tightened["max_steps"] = int(tightened.get("max_steps", 100_000)) * 4
        return tightened

    def _fallback_options(self, options: Dict[str, Any]) -> Dict[str, Any]:
        fallback: Dict[str, Any] = {}
        for key in _FIXED_STEP_OPTIONS:
            if options.get(key) is not None:
                fallback[key] = float(options[key]) * STEP_FACTOR
        return fallback

    def run(
        self,
        simulate: Callable[[str, Dict[str, Any]], Any],
        solver: str,
        solver_options: Optional[Dict[str, Any]] = None,
    ) -> Any:
        """Run ``simulate(solver_name, options)`` down the ladder.

        Re-raises the *last* attempt's :class:`~repro.errors.SolverError`
        when every rung fails; anything that is not a :class:`SolverError`
        propagates immediately.
        """
        last: Optional[SolverError] = None
        for name, options in self.attempts(solver, solver_options):
            try:
                return simulate(name, options)
            except SolverError as exc:
                last = exc
        assert last is not None
        raise last
