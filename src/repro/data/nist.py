"""Synthetic equivalents of the NIST heat-pump measurement dataset.

The paper calibrates HP0 and HP1 on hourly-aggregated data from the NIST
Net-Zero Energy Residential Test Facility, February 1-21, validating on
February 22-28 (672 hourly samples overall).  The substitute datasets here
are produced by simulating the ground-truth heat pump model (Table 7
parameter values) under a thermostat-like power-rating profile and adding a
small Gaussian measurement noise, so the measured columns are::

    time [h] | x (indoor temperature) | y (HP power consumption) | u (rating)

HP0 uses the same layout with ``u`` frozen at the constant 1.38 % rate.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.data.dataset import Dataset
from repro.fmi.model import load_fmu
from repro.models.heatpump import (
    HP0_CONSTANT_RATING,
    HP0_TRUE_PARAMETERS,
    HP1_TRUE_PARAMETERS,
    HP_RATED_POWER,
    build_hp0_archive,
    build_hp1_archive,
)

#: Calibration period of the paper: Feb 1-21 (hours 0..503), validation Feb 22-28.
TRAINING_HOURS = 21 * 24
TOTAL_HOURS = 28 * 24
#: Standard deviation of the synthetic measurement noise on temperatures [degC].
TEMPERATURE_NOISE_STD = 0.05


def _thermostat_profile(time: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A realistic heat pump power-rating profile in [0, 1].

    The profile combines a diurnal heating schedule (more heating at night
    when it is colder and in the morning), a weekly modulation, and a small
    random dither, then clips to the valid range.  It is deliberately
    persistent (smooth) so the indoor temperature dynamics are informative
    for calibration.
    """
    hours_of_day = np.mod(time, 24.0)
    diurnal = 0.45 + 0.25 * np.cos(2.0 * np.pi * (hours_of_day - 3.0) / 24.0)
    weekly = 0.05 * np.sin(2.0 * np.pi * time / (24.0 * 7.0))
    dither = rng.normal(0.0, 0.04, size=time.shape)
    # The centred 5-tap moving average, one value per sample: "same" mode
    # would return 5 values for a series shorter than the kernel.
    smooth_dither = np.convolve(dither, np.ones(5) / 5.0, mode="full")[2 : 2 + time.size]
    return np.clip(diurnal + weekly + smooth_dither, 0.0, 1.0)


def generate_hp1_dataset(
    hours: int = TOTAL_HOURS,
    seed: int = 11,
    noise_std: float = TEMPERATURE_NOISE_STD,
    true_parameters: Optional[dict] = None,
) -> Dataset:
    """Generate the HP1 measurement dataset (hourly samples).

    Parameters
    ----------
    hours:
        Number of hourly samples (default: the paper's four February weeks).
    seed:
        Seed controlling both the rating profile and the measurement noise.
    noise_std:
        Standard deviation of the additive temperature measurement noise.
    true_parameters:
        Ground-truth ``Cp``/``R`` values; defaults to the Table 7 values.
    """
    rng = np.random.default_rng(seed)
    time = np.arange(0.0, float(hours), 1.0)
    rating = _thermostat_profile(time, rng)

    archive = build_hp1_archive(true_parameters=true_parameters or HP1_TRUE_PARAMETERS)
    model = load_fmu(archive)
    result = model.simulate(
        inputs={"u": (time, rating)},
        start_time=float(time[0]),
        stop_time=float(time[-1]),
        output_times=time,
    )

    temperature = result["x"] + rng.normal(0.0, noise_std, size=time.shape)
    power = HP_RATED_POWER * rating
    return Dataset(
        name="hp1_measurements",
        time=time,
        series={"x": temperature, "y": power, "u": rating},
        meta={
            "model": "HP1",
            "true_parameters": dict(true_parameters or HP1_TRUE_PARAMETERS),
            "seed": seed,
            "noise_std": noise_std,
            "training_hours": min(TRAINING_HOURS, hours),
        },
    )


def generate_hp0_dataset(
    hours: int = TOTAL_HOURS,
    seed: int = 10,
    noise_std: float = TEMPERATURE_NOISE_STD,
    true_parameters: Optional[dict] = None,
) -> Dataset:
    """Generate the HP0 measurement dataset (constant 1.38 % rating)."""
    rng = np.random.default_rng(seed)
    time = np.arange(0.0, float(hours), 1.0)

    archive = build_hp0_archive(true_parameters=true_parameters or HP0_TRUE_PARAMETERS)
    model = load_fmu(archive)
    result = model.simulate(
        start_time=float(time[0]),
        stop_time=float(time[-1]),
        output_times=time,
    )

    temperature = result["x"] + rng.normal(0.0, noise_std, size=time.shape)
    power = np.full(time.shape, HP_RATED_POWER * HP0_CONSTANT_RATING)
    return Dataset(
        name="hp0_measurements",
        time=time,
        series={"x": temperature, "y": power},
        meta={
            "model": "HP0",
            "true_parameters": dict(true_parameters or HP0_TRUE_PARAMETERS),
            "seed": seed,
            "noise_std": noise_std,
            "training_hours": min(TRAINING_HOURS, hours),
        },
    )
