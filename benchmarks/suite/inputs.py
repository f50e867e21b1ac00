"""Seeded benchmark inputs, generated without the program under test.

Measurements come from this module's own numpy integrator of the HP1 heat
pump (RK4 at 0.1 h, inputs interpolated linearly between hourly samples), so
a change to the solvers or kernels of ``repro`` cannot change what the
benchmark feeds it.  The program only ever receives the generated rows and
SQL text.  Everything here is a pure function of the seed.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

#: HP1 calibrated values of the paper's Table 7.
TABLE7 = {"Cp": 1.49, "R": 1.481}
RATED_POWER = 7.8
COP = 2.65
OUTDOOR = -10.0
INDOOR_START = 20.0
RK4_STEP = 0.1
NOISE_STD = 0.05

#: Every fleet has the same layout of "near" and "far" houses relative to
#: its reference house (house 0).  Near houses share the reference's heating
#: schedule and have truth within :data:`NEAR_SPREAD` of it, so their
#: measurements stay well under pgFMU's 20 % similarity threshold and
#: ``fmu_parest`` warm-starts them (MI local-only search).  Far houses run a
#: schedule shifted by :data:`FAR_SHIFT_HOURS` and get a full global+local
#: search.  The share of warm starts - and so the cost of a fleet - is then
#: the same for every seed.
NEAR_SPREAD = 0.02
FAR_SHIFT_HOURS = 12.0


def hp1_source() -> str:
    """Modelica text of HP1 (the program compiles it; the benchmark doesn't)."""
    return f"""
model HP1 "Heat pump heated house, power rating setting as input"
  parameter Real Cp(min=0.1, max=10) = 1.5 "thermal capacitance [kWh/degC]";
  parameter Real R(min=0.1, max=10) = 1.5 "thermal resistance [degC/kW]";
  constant Real P = {RATED_POWER} "rated electrical power [kW]";
  constant Real eta = {COP} "coefficient of performance";
  constant Real Ta = {OUTDOOR} "outdoor temperature [degC]";
  input Real u(min=0, max=1, start=0) "heat pump power rating setting";
  output Real y "heat pump power consumption [kW]";
  Real x(start={INDOOR_START}, min=-30, max=60) "indoor temperature [degC]";
equation
  der(x) = (Ta - x) / (R * Cp) + (P * eta / Cp) * u;
  y = P * u;
end HP1;
"""


def near_houses(houses: int) -> int:
    """How many houses after house 0 are "near" ones (the rest are far)."""
    return (houses - 1) // 2


def rating_profiles(rng: np.random.Generator, houses: int, hours: int) -> np.ndarray:
    """``(houses, hours)`` heat pump ratings in [0, 1]: a diurnal and weekly
    schedule (shifted for far houses) plus a smoothed per-house dither."""
    t = np.arange(hours, dtype=float)
    shift = np.where(np.arange(houses) > near_houses(houses), FAR_SHIFT_HOURS, 0.0)
    hour_of_day = np.mod(t[None, :] - shift[:, None], 24.0)
    base = (
        0.45
        + 0.25 * np.cos(2.0 * np.pi * (hour_of_day - 3.0) / 24.0)
        + 0.05 * np.sin(2.0 * np.pi * t / (24.0 * 7.0))
    )
    dither = rng.normal(0.0, 0.04, size=(houses, hours))
    kernel = np.ones(5) / 5.0
    smooth = np.array([np.convolve(row, kernel, mode="same") for row in dither])
    return np.clip(base + smooth, 0.0, 1.0)


def simulate_hp1(cp: np.ndarray, r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Indoor temperature at each hourly sample, for a fleet at once.

    ``cp``/``r`` have shape ``(N,)`` and ``u`` shape ``(N, hours)``.  RK4 at
    :data:`RK4_STEP` with ``u`` linearly interpolated between samples.
    """
    cp = np.asarray(cp, dtype=float)
    r = np.asarray(r, dtype=float)
    n, hours = u.shape
    sub = int(round(1.0 / RK4_STEP))
    h = 1.0 / sub
    x = np.full(n, INDOOR_START)
    out = np.empty((n, hours))
    out[:, 0] = x
    gain = RATED_POWER * COP / cp
    tau = r * cp

    def f(xv, uv):
        return (OUTDOOR - xv) / tau + gain * uv

    for k in range(hours - 1):
        u0, u1 = u[:, k], u[:, k + 1]
        for j in range(sub):
            a = j * h
            ua = u0 + (u1 - u0) * a
            um = u0 + (u1 - u0) * (a + 0.5 * h)
            ub = u0 + (u1 - u0) * (a + h)
            k1 = f(x, ua)
            k2 = f(x + 0.5 * h * k1, um)
            k3 = f(x + 0.5 * h * k2, um)
            k4 = f(x + h * k3, ub)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[:, k + 1] = x
    return out


def fleet_truth(rng: np.random.Generator, houses: int) -> Dict[str, np.ndarray]:
    """Per-house true ``Cp``/``R``, all within +-10 % of Table 7.

    House 0 is drawn within +-5 %, near houses within :data:`NEAR_SPREAD` of
    house 0 and far houses anywhere in the +-10 % box.
    """
    truth = {}
    for name, value in TABLE7.items():
        ref = value * (1.0 + rng.uniform(-0.05, 0.05))
        near = ref * (1.0 + rng.uniform(-NEAR_SPREAD, NEAR_SPREAD, houses))
        far = value * (1.0 + rng.uniform(-0.10, 0.10, houses))
        k = np.arange(houses)
        truth[name] = np.where(k == 0, ref, np.where(k <= near_houses(houses), near, far))
    return truth


def fleet(
    rng: np.random.Generator, houses: int, hours: int
) -> Tuple[Dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """One fleet: its truth, its ``(houses, hours, 3)`` measured x, y, u,
    and the noise-free ``(houses, hours)`` indoor temperature."""
    truth = fleet_truth(rng, houses)
    u = rating_profiles(rng, houses, hours)
    clean = simulate_hp1(truth["Cp"], truth["R"], u)
    x = clean + rng.normal(0.0, NOISE_STD, (houses, hours))
    return truth, np.stack([x, RATED_POWER * u, u], axis=-1), clean


def hp1_window(u: np.ndarray, cp: float = 1.5, r: float = 1.5) -> np.ndarray:
    """Indoor temperature of one house over a window of hourly ratings ``u``,
    starting from :data:`INDOOR_START` (the HP1 defaults are 1.5 / 1.5)."""
    return simulate_hp1(np.array([cp]), np.array([r]), u[None, :])[0]


def meas_rows(series: np.ndarray, house_ids: Sequence[int]) -> List[Tuple]:
    """``(house, time, x, y, u)`` rows of a fleet, house-major."""
    rows = []
    for house, per_house in zip(house_ids, series):
        for t, (x, y, u) in enumerate(per_house.tolist()):
            rows.append((int(house), float(t), x, y, u))
    return rows


def serve_fixture(seed: int, houses: int, hours: int) -> Dict[str, object]:
    """The measurements the served database is loaded with."""
    _, series, _ = fleet(substream(seed, 4), houses, hours)
    return {"series": series, "rows": meas_rows(series, range(houses))}


def deck(rng: np.random.Generator, counts: Dict[str, int]) -> Iterator[str]:
    """Op kinds, endlessly, in shuffled blocks that hold each kind exactly
    ``counts[kind]`` times, so every block has the same mix of cheap and
    expensive ops and a window of one block measures the same work."""
    cards = [kind for kind, n in counts.items() for _ in range(n)]
    while True:
        for i in rng.permutation(len(cards)):
            yield cards[i]


def substream(seed: int, *labels: int) -> np.random.Generator:
    """An independent generator for one part of a run (e.g. one day)."""
    return np.random.default_rng([int(seed), *[int(x) for x in labels]])
