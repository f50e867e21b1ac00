"""A registry mapping model names to builders, true parameters and metadata.

The experiment harness, the benchmarks and the examples all need to iterate
over "the three models of the paper"; the registry is the single place that
knows how to build each model, what its ground-truth parameters are, which
variables are inputs/outputs and which measured series is the calibration
target (Table 5 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.errors import ReproError
from repro.fmi.archive import FmuArchive
from repro.models.classroom import (
    CLASSROOM_TRUE_PARAMETERS,
    build_classroom_archive,
)
from repro.models.heatpump import (
    HP0_TRUE_PARAMETERS,
    HP1_TRUE_PARAMETERS,
    build_hp0_archive,
    build_hp1_archive,
)


@dataclass
class ModelSpec:
    """Metadata for one evaluation model.

    Attributes
    ----------
    name:
        Model identifier (``"HP0"``, ``"HP1"``, ``"Classroom"``).
    builder:
        Callable producing the FMU archive with *nominal* (uncalibrated)
        parameter values.
    true_builder:
        Callable producing the FMU archive with *ground-truth* parameter
        values (used by the data generators).
    true_parameters:
        Ground-truth parameter values the calibration should recover.
    estimated_parameters:
        Names of the parameters pgFMU estimates for this model.
    inputs / outputs / observed:
        Input variable names, output variable names and the measured series
        compared during calibration (the indoor temperature for all three).
    dataset_description:
        Human-readable description of the measurement dataset (Table 5).
    """

    name: str
    builder: Callable[[], FmuArchive]
    true_builder: Callable[[], FmuArchive]
    true_parameters: Dict[str, float]
    estimated_parameters: List[str]
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    observed: List[str] = field(default_factory=list)
    dataset_description: str = ""


MODEL_REGISTRY: Dict[str, ModelSpec] = {
    "HP0": ModelSpec(
        name="HP0",
        builder=build_hp0_archive,
        true_builder=lambda: build_hp0_archive(true_parameters=HP0_TRUE_PARAMETERS),
        true_parameters=dict(HP0_TRUE_PARAMETERS),
        estimated_parameters=["Cp", "R"],
        inputs=[],
        outputs=["y"],
        observed=["x"],
        dataset_description=(
            "Synthetic equivalent of the NIST Net-Zero Energy Residential Test "
            "Facility dataset with the heat pump held at a constant 1.38% rating"
        ),
    ),
    "HP1": ModelSpec(
        name="HP1",
        builder=build_hp1_archive,
        true_builder=lambda: build_hp1_archive(true_parameters=HP1_TRUE_PARAMETERS),
        true_parameters=dict(HP1_TRUE_PARAMETERS),
        estimated_parameters=["Cp", "R"],
        inputs=["u"],
        outputs=["y"],
        observed=["x"],
        dataset_description=(
            "Synthetic equivalent of the NIST Net-Zero Energy Residential Test "
            "Facility dataset with a thermostat-like heat pump rating profile"
        ),
    ),
    "Classroom": ModelSpec(
        name="Classroom",
        builder=build_classroom_archive,
        true_builder=lambda: build_classroom_archive(
            true_parameters=CLASSROOM_TRUE_PARAMETERS
        ),
        true_parameters=dict(CLASSROOM_TRUE_PARAMETERS),
        estimated_parameters=["RExt", "occheff", "shgc", "tmass"],
        inputs=["solrad", "tout", "occ", "dpos", "vpos"],
        outputs=["t"],
        observed=["t"],
        dataset_description=(
            "Synthetic equivalent of the SDU Campus Odense classroom dataset "
            "(building O44): solar radiation, outdoor temperature, occupancy, "
            "damper and radiator valve positions"
        ),
    ),
}


def get_model_spec(name: str) -> ModelSpec:
    """Look up a model spec by case-insensitive name."""
    for key, spec in MODEL_REGISTRY.items():
        if key.lower() == name.lower():
            return spec
    known = ", ".join(MODEL_REGISTRY)
    raise ReproError(f"unknown model {name!r}; known models: {known}")
