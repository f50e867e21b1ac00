"""The equation payload ("binary") of our FMU archives.

A real FMU ships compiled C code implementing the model equations.  Our
archives instead carry an :class:`OdeSystem`: an explicit first-order ODE

    der(x_i) = f_i(t, states, inputs, parameters)
    y_j      = g_j(t, states, inputs, parameters)

whose right-hand sides are arithmetic expressions (see
:mod:`repro.fmi.expressions`).  The system is JSON-serializable so it can be
stored inside the ``.fmu`` zip next to ``modelDescription.xml``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping

import numpy as np

from repro.errors import FmuFormatError
from repro.fmi.expressions import CompiledExpression

#: Name under which the independent variable is exposed to equations.
TIME_NAME = "time"


@dataclass
class StateEquation:
    """One continuous state and its derivative expression."""

    name: str
    derivative: str
    start: float = 0.0

    def to_dict(self) -> dict:
        return {"name": self.name, "derivative": self.derivative, "start": self.start}

    @classmethod
    def from_dict(cls, data: dict) -> "StateEquation":
        return cls(
            name=data["name"],
            derivative=data["derivative"],
            start=float(data.get("start", 0.0)),
        )


@dataclass
class OutputEquation:
    """One algebraic output defined by an expression."""

    name: str
    expression: str

    def to_dict(self) -> dict:
        return {"name": self.name, "expression": self.expression}

    @classmethod
    def from_dict(cls, data: dict) -> "OutputEquation":
        return cls(name=data["name"], expression=data["expression"])


@dataclass
class OdeSystem:
    """An explicit ODE system with named states, inputs, outputs and parameters.

    Attributes
    ----------
    states:
        Ordered state equations.  Order defines the state vector layout.
    outputs:
        Ordered output equations.
    inputs:
        Input variable names (values are provided externally at runtime).
    parameters:
        Mapping of parameter name to default value.
    """

    states: List[StateEquation] = field(default_factory=list)
    outputs: List[OutputEquation] = field(default_factory=list)
    inputs: List[str] = field(default_factory=list)
    parameters: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        self._validate()
        self._compile()

    # ------------------------------------------------------------------ #
    # Validation and compilation
    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        names = [s.name for s in self.states] + [o.name for o in self.outputs]
        names += list(self.inputs) + list(self.parameters)
        seen = set()
        for name in names:
            if name == TIME_NAME:
                raise FmuFormatError(f"variable name {TIME_NAME!r} is reserved")
            if name in seen:
                raise FmuFormatError(f"duplicate variable name in ODE system: {name!r}")
            seen.add(name)
        if not self.states:
            raise FmuFormatError("an ODE system must declare at least one state")

    def _compile(self) -> None:
        known = self.variable_names() | {TIME_NAME}
        self._state_exprs = []
        for state in self.states:
            expr = CompiledExpression(state.derivative)
            expr.validate_names(known)
            self._state_exprs.append(expr)
        self._output_exprs = []
        for output in self.outputs:
            expr = CompiledExpression(output.expression)
            expr.validate_names(known)
            self._output_exprs.append(expr)
        # The code-generated kernel every simulation runs (see
        # repro.fmi.kernel); it rejects equations it cannot lower.
        from repro.fmi.kernel import SimulationKernel

        self._kernel = SimulationKernel(self)

    @property
    def kernel(self):
        """The compiled :class:`~repro.fmi.kernel.SimulationKernel`."""
        return self._kernel

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def variable_names(self) -> set:
        """All declared variable names (states, outputs, inputs, parameters)."""
        names = {s.name for s in self.states}
        names |= {o.name for o in self.outputs}
        names |= set(self.inputs)
        names |= set(self.parameters)
        return names

    @property
    def state_names(self) -> List[str]:
        return [s.name for s in self.states]

    @property
    def output_names(self) -> List[str]:
        return [o.name for o in self.outputs]

    # ------------------------------------------------------------------ #
    # Interpreted reference evaluation (the oracle the kernel tests use;
    # simulations run the compiled kernel)
    # ------------------------------------------------------------------ #
    def _namespace(
        self,
        t: float,
        state_vector: np.ndarray,
        input_values: Mapping[str, float],
        parameter_values: Mapping[str, float],
    ) -> Dict[str, float]:
        namespace: Dict[str, float] = {TIME_NAME: float(t)}
        namespace.update(self.parameters)
        namespace.update(parameter_values)
        for name, value in zip(self.state_names, np.atleast_1d(state_vector)):
            namespace[name] = float(value)
        for name in self.inputs:
            if name in input_values:
                namespace[name] = float(input_values[name])
            elif name not in namespace:
                namespace[name] = 0.0
        return namespace

    def derivatives(
        self,
        t: float,
        state_vector: np.ndarray,
        input_values: Mapping[str, float],
        parameter_values: Mapping[str, float],
    ) -> np.ndarray:
        """Evaluate ``der(x)`` for the whole state vector."""
        namespace = self._namespace(t, state_vector, input_values, parameter_values)
        return np.array([expr(namespace) for expr in self._state_exprs], dtype=float)

    def evaluate_outputs(
        self,
        t: float,
        state_vector: np.ndarray,
        input_values: Mapping[str, float],
        parameter_values: Mapping[str, float],
    ) -> Dict[str, float]:
        """Evaluate all output equations at the given state."""
        namespace = self._namespace(t, state_vector, input_values, parameter_values)
        return {
            output.name: expr(namespace)
            for output, expr in zip(self.outputs, self._output_exprs)
        }

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "states": [s.to_dict() for s in self.states],
            "outputs": [o.to_dict() for o in self.outputs],
            "inputs": list(self.inputs),
            "parameters": dict(self.parameters),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "OdeSystem":
        return cls(
            states=[StateEquation.from_dict(s) for s in data.get("states", [])],
            outputs=[OutputEquation.from_dict(o) for o in data.get("outputs", [])],
            inputs=list(data.get("inputs", [])),
            parameters={k: float(v) for k, v in data.get("parameters", {}).items()},
        )

    @classmethod
    def from_json(cls, text: str) -> "OdeSystem":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FmuFormatError(f"invalid model equations JSON: {exc}") from exc
        return cls.from_dict(data)
