"""Compiler driver: Modelica source/file -> FMU archive.

The entry point :func:`compile_fmu` mirrors JModelica/PyFMI's ``compile_fmu``:
it accepts either a path to a ``.mo`` file or inline Modelica source, runs the
parser and flattener, and packages the result into an FMU archive, optionally
writing it to disk.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.errors import ModelicaError
from repro.fmi.archive import FmuArchive
from repro.fmi.model_description import DefaultExperiment
from repro.modelica.flatten import flatten_model
from repro.modelica.parser import parse_model

PathLike = Union[str, Path]


def _read_source(model_ref: str) -> str:
    """Return Modelica source text given a path or inline code."""
    text = model_ref.strip()
    if "model" in text and "end" in text and ";" in text and not text.lower().endswith(".mo"):
        return model_ref
    path = Path(text)
    if path.suffix == ".mo":
        if not path.exists():
            raise ModelicaError(f"Modelica file does not exist: {path}")
        return path.read_text(encoding="utf-8")
    # Fall back to treating the reference as inline source; the parser will
    # produce a precise error if it is not.
    return model_ref


def compile_model(
    model_ref: str,
    default_experiment: Optional[DefaultExperiment] = None,
) -> FmuArchive:
    """Compile Modelica source (inline or a ``.mo`` path) into an FMU archive."""
    source = _read_source(model_ref)
    model = parse_model(source)
    flattened = flatten_model(model, default_experiment=default_experiment)
    return FmuArchive(
        model_description=flattened.model_description,
        ode_system=flattened.ode_system,
        source=source,
    )


def compile_fmu(
    model_ref: str,
    output_path: Optional[PathLike] = None,
    default_experiment: Optional[DefaultExperiment] = None,
) -> Union[FmuArchive, Path]:
    """Compile a Modelica model and optionally write the ``.fmu`` file.

    Parameters
    ----------
    model_ref:
        A ``.mo`` file path or inline Modelica source.
    output_path:
        When given, the compiled FMU is written there and the path is
        returned; otherwise the in-memory :class:`FmuArchive` is returned.
    default_experiment:
        Optional default experiment to embed into ``modelDescription.xml``.
    """
    archive = compile_model(model_ref, default_experiment=default_experiment)
    if output_path is None:
        return archive
    return archive.write(output_path)
