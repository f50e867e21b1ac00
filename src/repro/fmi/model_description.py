"""The ``modelDescription.xml`` document of an FMU archive.

The model description is the metadata that pgFMU reads once at
``fmu_create`` time to populate its model catalogue (Challenge 2 in the
paper): variable names, causalities, types, start/min/max values, and the
default experiment (start/stop time, step size, tolerance) that configures
simulation when the user does not override it.
"""

from __future__ import annotations

import uuid
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.errors import FmuFormatError, FmuVariableError
from repro.fmi.variables import Causality, ScalarVariable

FMI_VERSION = "2.0"


@dataclass
class DefaultExperiment:
    """Default simulation window and solver settings of an FMU."""

    start_time: float = 0.0
    stop_time: float = 1.0
    tolerance: float = 1e-6
    step_size: float = 0.0

    def __post_init__(self):
        if self.stop_time <= self.start_time:
            raise FmuFormatError(
                "default experiment stopTime must be greater than startTime "
                f"(got {self.start_time} .. {self.stop_time})"
            )
        if self.step_size < 0:
            raise FmuFormatError("default experiment stepSize must be non-negative")

    def to_dict(self) -> dict:
        return {
            "startTime": self.start_time,
            "stopTime": self.stop_time,
            "tolerance": self.tolerance,
            "stepSize": self.step_size,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DefaultExperiment":
        return cls(
            start_time=float(data.get("startTime", 0.0)),
            stop_time=float(data.get("stopTime", 1.0)),
            tolerance=float(data.get("tolerance", 1e-6)),
            step_size=float(data.get("stepSize", 0.0)),
        )


@dataclass
class ModelDescription:
    """In-memory representation of ``modelDescription.xml``.

    Attributes
    ----------
    model_name:
        Human-readable model name (the Modelica class name for compiled
        models).
    guid:
        FMI GUID; pgFMU uses it as the ``modelId`` (UUID) of the catalogue.
    variables:
        Ordered list of :class:`ScalarVariable`.
    default_experiment:
        The default simulation window.
    description / generation_tool:
        Documentation attributes.
    """

    model_name: str
    guid: str = field(default_factory=lambda: str(uuid.uuid4()))
    variables: List[ScalarVariable] = field(default_factory=list)
    default_experiment: DefaultExperiment = field(default_factory=DefaultExperiment)
    description: str = ""
    generation_tool: str = "repro.modelica"

    def __post_init__(self):
        self._reindex()

    def _reindex(self) -> None:
        """Assign value references and rebuild the name index."""
        self._by_name: Dict[str, ScalarVariable] = {}
        for i, var in enumerate(self.variables):
            var.value_reference = i
            if var.name in self._by_name:
                raise FmuFormatError(f"duplicate variable name in model description: {var.name!r}")
            self._by_name[var.name] = var

    # ------------------------------------------------------------------ #
    # Variable access
    # ------------------------------------------------------------------ #
    def add_variable(self, variable: ScalarVariable) -> ScalarVariable:
        """Append a variable and assign its value reference."""
        if variable.name in self._by_name:
            raise FmuFormatError(f"duplicate variable name: {variable.name!r}")
        variable.value_reference = len(self.variables)
        self.variables.append(variable)
        self._by_name[variable.name] = variable
        return variable

    def variable(self, name: str) -> ScalarVariable:
        """Look up a variable by name, raising ``FmuVariableError`` if absent."""
        try:
            return self._by_name[name]
        except KeyError:
            raise FmuVariableError(
                f"model {self.model_name!r} has no variable named {name!r}"
            ) from None

    def variables_by_causality(self, causality: Causality) -> List[ScalarVariable]:
        """All variables with the given causality, in declaration order."""
        return [v for v in self.variables if v.causality is causality]

    @property
    def parameters(self) -> List[ScalarVariable]:
        return self.variables_by_causality(Causality.PARAMETER)

    @property
    def inputs(self) -> List[ScalarVariable]:
        return self.variables_by_causality(Causality.INPUT)

    @property
    def outputs(self) -> List[ScalarVariable]:
        return self.variables_by_causality(Causality.OUTPUT)

    @property
    def states(self) -> List[ScalarVariable]:
        return [v for v in self.variables if v.is_state]

    # ------------------------------------------------------------------ #
    # XML (de)serialization
    # ------------------------------------------------------------------ #
    def to_xml(self) -> str:
        """Serialize to an FMI-2.0-flavoured ``modelDescription.xml`` string."""
        root = ET.Element(
            "fmiModelDescription",
            {
                "fmiVersion": FMI_VERSION,
                "modelName": self.model_name,
                "guid": self.guid,
                "description": self.description,
                "generationTool": self.generation_tool,
                "numberOfEventIndicators": "0",
            },
        )
        experiment = ET.SubElement(root, "DefaultExperiment")
        for key, value in self.default_experiment.to_dict().items():
            experiment.set(key, repr(float(value)))

        model_vars = ET.SubElement(root, "ModelVariables")
        for var in self.variables:
            attrs = {
                "name": var.name,
                "valueReference": str(var.value_reference),
                "causality": var.causality.value,
                "variability": var.variability.value,
            }
            if var.description:
                attrs["description"] = var.description
            sv = ET.SubElement(model_vars, "ScalarVariable", attrs)
            type_attrs = {}
            if var.start is not None:
                type_attrs["start"] = str(var.start)
            if var.minimum is not None:
                type_attrs["min"] = repr(var.minimum)
            if var.maximum is not None:
                type_attrs["max"] = repr(var.maximum)
            if var.unit:
                type_attrs["unit"] = var.unit
            ET.SubElement(sv, var.var_type.value, type_attrs)

        return ET.tostring(root, encoding="unicode")

    @classmethod
    def from_xml(cls, text: str) -> "ModelDescription":
        """Parse a ``modelDescription.xml`` string."""
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise FmuFormatError(f"invalid modelDescription.xml: {exc}") from exc
        if root.tag != "fmiModelDescription":
            raise FmuFormatError(
                f"unexpected root element {root.tag!r} in modelDescription.xml"
            )

        experiment = DefaultExperiment()
        exp_node = root.find("DefaultExperiment")
        if exp_node is not None:
            experiment = DefaultExperiment.from_dict(exp_node.attrib)

        variables: List[ScalarVariable] = []
        model_vars = root.find("ModelVariables")
        if model_vars is not None:
            for sv in model_vars.findall("ScalarVariable"):
                if len(sv) == 0:
                    raise FmuFormatError(
                        f"ScalarVariable {sv.get('name')!r} has no type element"
                    )
                type_node = sv[0]
                variables.append(
                    ScalarVariable(
                        name=sv.get("name", ""),
                        causality=sv.get("causality", "local"),
                        variability=sv.get("variability", "continuous"),
                        var_type=type_node.tag,
                        start=type_node.get("start"),
                        minimum=type_node.get("min"),
                        maximum=type_node.get("max"),
                        description=sv.get("description", ""),
                        unit=type_node.get("unit", ""),
                    )
                )

        return cls(
            model_name=root.get("modelName", "unnamed"),
            guid=root.get("guid", str(uuid.uuid4())),
            variables=variables,
            default_experiment=experiment,
            description=root.get("description", ""),
            generation_tool=root.get("generationTool", ""),
        )

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        model_name: str,
        variables: Iterable[ScalarVariable],
        default_experiment: Optional[DefaultExperiment] = None,
        description: str = "",
    ) -> "ModelDescription":
        """Build a model description from an iterable of variables."""
        md = cls(
            model_name=model_name,
            variables=list(variables),
            description=description,
        )
        if default_experiment is not None:
            md.default_experiment = default_experiment
        return md
