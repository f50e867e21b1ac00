"""Scalar variable metadata as declared by ``modelDescription.xml``.

FMI 2.0 describes every exposed quantity of a model as a *scalar variable*
with a causality (parameter, input, output, local), a variability (constant,
fixed, tunable, discrete, continuous) and a declared type with optional
start/min/max attributes.  pgFMU's model catalogue (the ``ModelVariable``
table) is populated directly from this metadata, and the automatic data
binding of ``fmu_simulate``/``fmu_parest`` keys off causality.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import FmuVariableError


class Causality(str, enum.Enum):
    """How a variable participates in the model interface."""

    PARAMETER = "parameter"
    INPUT = "input"
    OUTPUT = "output"
    LOCAL = "local"
    INDEPENDENT = "independent"

    @classmethod
    def parse(cls, text: str) -> "Causality":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise FmuVariableError(f"unknown causality: {text!r}") from None


class Variability(str, enum.Enum):
    """How a variable may change over simulation time."""

    CONSTANT = "constant"
    FIXED = "fixed"
    TUNABLE = "tunable"
    DISCRETE = "discrete"
    CONTINUOUS = "continuous"

    @classmethod
    def parse(cls, text: str) -> "Variability":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise FmuVariableError(f"unknown variability: {text!r}") from None


class VariableType(str, enum.Enum):
    """Declared type of a scalar variable."""

    REAL = "Real"
    INTEGER = "Integer"
    BOOLEAN = "Boolean"
    STRING = "String"

    @classmethod
    def parse(cls, text: str) -> "VariableType":
        normalized = text.strip().lower()
        for member in cls:
            if member.value.lower() == normalized:
                return member
        raise FmuVariableError(f"unknown variable type: {text!r}")

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` to the Python representation of this type."""
        if value is None:
            return None
        if self is VariableType.REAL:
            return float(value)
        if self is VariableType.INTEGER:
            return int(value)
        if self is VariableType.BOOLEAN:
            if isinstance(value, str):
                return value.strip().lower() in ("true", "t", "1", "yes")
            return bool(value)
        return str(value)


@dataclass
class ScalarVariable:
    """One entry of the model description's ``ModelVariables`` section.

    Attributes
    ----------
    name:
        Variable name, unique within the model.
    causality / variability / var_type:
        FMI attributes controlling how the variable is used.
    start:
        Initial value (``start`` attribute in FMI).  For parameters this is
        the nominal value used unless overridden by the caller.
    minimum / maximum:
        Optional declared bounds; pgFMU's parameter estimation uses them as
        search-space bounds.
    description / unit:
        Free-text documentation attributes.
    value_reference:
        Integer handle, mirroring FMI value references; assigned by the
        model description when variables are registered.
    """

    name: str
    causality: Causality = Causality.LOCAL
    variability: Variability = Variability.CONTINUOUS
    var_type: VariableType = VariableType.REAL
    start: Optional[Any] = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    description: str = ""
    unit: str = ""
    value_reference: int = field(default=-1)

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise FmuVariableError(f"invalid variable name: {self.name!r}")
        if isinstance(self.causality, str):
            self.causality = Causality.parse(self.causality)
        if isinstance(self.variability, str):
            self.variability = Variability.parse(self.variability)
        if isinstance(self.var_type, str):
            self.var_type = VariableType.parse(self.var_type)
        if self.start is not None:
            self.start = self.var_type.coerce(self.start)
        if self.minimum is not None:
            self.minimum = float(self.minimum)
        if self.maximum is not None:
            self.maximum = float(self.maximum)
        if (
            self.minimum is not None
            and self.maximum is not None
            and self.minimum > self.maximum
        ):
            raise FmuVariableError(
                f"variable {self.name!r}: minimum {self.minimum} exceeds maximum {self.maximum}"
            )

    @property
    def is_parameter(self) -> bool:
        """True if the variable is an estimable/tunable model parameter."""
        return self.causality is Causality.PARAMETER

    @property
    def is_input(self) -> bool:
        return self.causality is Causality.INPUT

    @property
    def is_state(self) -> bool:
        """True for continuous local variables, which we treat as states."""
        return (
            self.causality is Causality.LOCAL
            and self.variability is Variability.CONTINUOUS
        )

    def to_dict(self) -> dict:
        """Serialize to a plain dict (used by both XML and JSON writers)."""
        return {
            "name": self.name,
            "causality": self.causality.value,
            "variability": self.variability.value,
            "type": self.var_type.value,
            "start": self.start,
            "min": self.minimum,
            "max": self.maximum,
            "description": self.description,
            "unit": self.unit,
            "valueReference": self.value_reference,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScalarVariable":
        """Deserialize from the dict produced by :meth:`to_dict`."""
        return cls(
            name=data["name"],
            causality=data.get("causality", "local"),
            variability=data.get("variability", "continuous"),
            var_type=data.get("type", "Real"),
            start=data.get("start"),
            minimum=data.get("min"),
            maximum=data.get("max"),
            description=data.get("description", ""),
            unit=data.get("unit", ""),
            value_reference=int(data.get("valueReference", -1)),
        )
