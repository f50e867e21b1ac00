"""Simulation result container, mirroring PyFMI's result object surface."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.errors import FmuVariableError


@dataclass
class SimulationResult:
    """Trajectories produced by :meth:`repro.fmi.model.FmuModel.simulate`.

    Access patterns supported:

    * ``result["x"]`` - the sampled trajectory of variable ``x`` (PyFMI style).
    * ``result.time`` - the shared time grid.
    * ``result.variables`` - names of all recorded variables.
    * ``result.rows()`` - long-format rows ``(time, varName, value)``, the
      shape pgFMU's ``fmu_simulate`` UDF emits.
    """

    time: np.ndarray
    trajectories: Dict[str, np.ndarray]
    solver_stats: dict = field(default_factory=dict)

    def __post_init__(self):
        self.time = np.asarray(self.time, dtype=float)
        clean: Dict[str, np.ndarray] = {}
        for name, values in self.trajectories.items():
            arr = np.asarray(values, dtype=float)
            if arr.shape != self.time.shape:
                raise FmuVariableError(
                    f"trajectory for {name!r} has length {arr.shape} but the time "
                    f"grid has length {self.time.shape}"
                )
            clean[name] = arr
        self.trajectories = clean

    @property
    def variables(self) -> List[str]:
        """Names of all recorded variables."""
        return list(self.trajectories)

    def __contains__(self, name: str) -> bool:
        return name in self.trajectories

    def __getitem__(self, name: str) -> np.ndarray:
        if name == "time":
            return self.time
        try:
            return self.trajectories[name]
        except KeyError:
            raise FmuVariableError(f"simulation result has no variable {name!r}") from None

    def final(self, name: str) -> float:
        """The last recorded value of a variable."""
        return float(self[name][-1])

    def rows(self) -> Iterator[Tuple[float, str, float]]:
        """Yield long-format rows ``(time, varName, value)``."""
        for i, t in enumerate(self.time):
            for name, values in self.trajectories.items():
                yield float(t), name, float(values[i])

    def to_dict(self) -> dict:
        """Plain-dict form used by tests and the experiment harness."""
        return {
            "time": self.time.tolist(),
            "trajectories": {k: v.tolist() for k, v in self.trajectories.items()},
            "solver_stats": dict(self.solver_stats),
        }

    def __len__(self) -> int:
        return len(self.time)


@dataclass
class FleetResult:
    """Trajectories of a whole simulated fleet, as arrays with one row per
    instance (see :meth:`repro.fmi.model.FmuModel.simulate_fleet`).

    * ``fleet["x"]`` - variable ``x``'s ``(N, T)`` trajectories, C-contiguous.
    * ``trajectories`` - every state's and output's ``(N, T)`` array.
    * ``inputs`` / ``input_rows`` - each measured input on the grid, one row
      per input mapping, and each instance's mapping.
    * ``solver_stats`` - :class:`SimulationResult`'s keys, with one
      ``n_steps`` and one ``n_rejected`` entry per row.
    * :meth:`results` - one :class:`SimulationResult` per instance.
    """

    time: np.ndarray
    trajectories: Dict[str, np.ndarray]
    inputs: Dict[str, np.ndarray]
    input_rows: List[int]
    solver_stats: dict

    def __getitem__(self, name: str) -> np.ndarray:
        if name in self.inputs:
            return self.inputs[name][self.input_rows]
        try:
            return self.trajectories[name]
        except KeyError:
            raise FmuVariableError(f"simulation result has no variable {name!r}") from None

    def results(self) -> List[SimulationResult]:
        """One :class:`SimulationResult` per instance, in fleet order."""
        stats = self.solver_stats
        results = []
        for row, col in enumerate(self.input_rows):
            # Copies, so one retained result does not pin the whole fleet.
            trajectories = {name: values[row].copy() for name, values in self.trajectories.items()}
            for name, values in self.inputs.items():
                trajectories[name] = values[col].copy()
            row_stats = dict(
                stats, n_steps=int(stats["n_steps"][row]), n_rejected=int(stats["n_rejected"][row])
            )
            results.append(
                SimulationResult(time=self.time, trajectories=trajectories, solver_stats=row_stats)
            )
        return results
