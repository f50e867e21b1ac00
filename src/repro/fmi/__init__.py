"""FMI 2.0-style Functional Mock-up Unit substrate.

The original pgFMU builds on PyFMI and FMU binaries produced by
JModelica/OpenModelica.  Neither is available offline, so this subpackage
implements the same *surface* from scratch:

* :mod:`repro.fmi.variables` - scalar variables with causality, variability
  and type attributes, as declared in ``modelDescription.xml``.
* :mod:`repro.fmi.model_description` - the model description document with
  XML (de)serialization and a default experiment section.
* :mod:`repro.fmi.dynamics` - the "binary" payload of our FMUs: an
  expression-based ODE system (state derivatives and output equations as
  arithmetic expressions over parameters, states, inputs and time).
* :mod:`repro.fmi.kernel` - compiled simulation kernels: the equation
  payload code-generated into the positional-indexing functions every
  simulation runs.
* :mod:`repro.fmi.archive` - packing/unpacking ``.fmu`` zip archives.
* :mod:`repro.fmi.model` - the runtime: instantiate, get/set, simulate.
* :mod:`repro.fmi.results` - simulation result container.

The public helpers :func:`load_fmu` and :func:`dump_fmu` mirror PyFMI's
``load_fmu`` and the write side used by the Modelica compiler.
"""

from repro.fmi.variables import (
    Causality,
    Variability,
    VariableType,
    ScalarVariable,
)
from repro.fmi.model_description import DefaultExperiment, ModelDescription
from repro.fmi.dynamics import OdeSystem, StateEquation, OutputEquation
from repro.fmi.kernel import SimulationKernel
from repro.fmi.archive import FmuArchive, dump_fmu, read_fmu
from repro.fmi.model import FmuModel, load_fmu
from repro.fmi.results import SimulationResult

__all__ = [
    "Causality",
    "Variability",
    "VariableType",
    "ScalarVariable",
    "DefaultExperiment",
    "ModelDescription",
    "OdeSystem",
    "StateEquation",
    "OutputEquation",
    "SimulationKernel",
    "FmuArchive",
    "dump_fmu",
    "read_fmu",
    "FmuModel",
    "load_fmu",
    "SimulationResult",
]
