"""ARIMA(p, d, q) time-series model.

The implementation follows the classical conditional-sum-of-squares (CSS)
approach: the series is differenced ``d`` times, an ARMA(p, q) model with an
intercept is fitted to the differenced series by minimizing the one-step
prediction residuals, and forecasts are integrated back to the original
scale.  This is the same model family MADlib's ``arima_train`` exposes and is
sufficient for the occupancy-forecasting experiment of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np
from scipy import optimize

from repro.errors import MlError


@dataclass(frozen=True)
class ArimaOrder:
    """The (p, d, q) order of an ARIMA model."""

    p: int = 1
    d: int = 0
    q: int = 1

    def __post_init__(self):
        if self.p < 0 or self.d < 0 or self.q < 0:
            raise MlError(f"invalid ARIMA order {self!r}: components must be non-negative")
        if self.p == 0 and self.q == 0:
            raise MlError("ARIMA order must have p > 0 or q > 0")


@dataclass
class ArimaModel:
    """A fitted ARIMA model.

    Use :meth:`fit` to estimate coefficients and :meth:`forecast` /
    :meth:`predict_in_sample` afterwards.
    """

    order: ArimaOrder = field(default_factory=ArimaOrder)
    ar_coefficients: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ma_coefficients: np.ndarray = field(default_factory=lambda: np.zeros(0))
    intercept: float = 0.0
    sigma2: float = 0.0
    fitted: bool = False
    _training_series: np.ndarray = field(default_factory=lambda: np.zeros(0), repr=False)

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(self, series: Sequence[float]) -> "ArimaModel":
        """Fit the model to a series by conditional sum of squares."""
        values = np.asarray(series, dtype=float)
        if values.ndim != 1:
            raise MlError("ARIMA expects a 1-D series")
        min_length = self.order.p + self.order.q + self.order.d + 3
        if values.size < max(8, min_length):
            raise MlError(
                f"series too short for ARIMA{(self.order.p, self.order.d, self.order.q)}: "
                f"{values.size} points"
            )
        if not np.isfinite(values).all():
            raise MlError("ARIMA training series contains non-finite values")

        differenced = self._difference(values, self.order.d)
        p, q = self.order.p, self.order.q

        def unpack(theta: np.ndarray):
            ar = theta[:p]
            ma = theta[p : p + q]
            intercept = theta[p + q]
            return ar, ma, intercept

        def css(theta: np.ndarray) -> float:
            ar, ma, intercept = unpack(theta)
            residuals = self._residuals(differenced, ar, ma, intercept)
            return float(np.sum(residuals**2))

        initial = np.zeros(p + q + 1)
        initial[p + q] = float(np.mean(differenced))
        bounds = [(-0.99, 0.99)] * (p + q) + [(None, None)]
        outcome = optimize.minimize(css, initial, method="L-BFGS-B", bounds=bounds)
        ar, ma, intercept = unpack(outcome.x)

        residuals = self._residuals(differenced, ar, ma, intercept)
        self.ar_coefficients = np.asarray(ar, dtype=float)
        self.ma_coefficients = np.asarray(ma, dtype=float)
        self.intercept = float(intercept)
        self.sigma2 = float(np.mean(residuals**2)) if residuals.size else 0.0
        self._training_series = values
        self.fitted = True
        return self

    @staticmethod
    def _difference(values: np.ndarray, d: int) -> np.ndarray:
        for _ in range(d):
            values = np.diff(values)
        return values

    @staticmethod
    def _residuals(
        series: np.ndarray, ar: np.ndarray, ma: np.ndarray, intercept: float
    ) -> np.ndarray:
        p, q = len(ar), len(ma)
        n = series.size
        residuals = np.zeros(n)
        for t in range(n):
            prediction = intercept
            for i in range(p):
                if t - 1 - i >= 0:
                    prediction += ar[i] * series[t - 1 - i]
            for j in range(q):
                if t - 1 - j >= 0:
                    prediction += ma[j] * residuals[t - 1 - j]
            residuals[t] = series[t] - prediction
        start = max(p, q)
        return residuals[start:] if n > start else residuals

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def _require_fitted(self) -> None:
        if not self.fitted:
            raise MlError("the ARIMA model has not been fitted yet")

    def predict_in_sample(self) -> np.ndarray:
        """One-step-ahead predictions over the training series.

        The first ``max(p, q)`` values have no usable history; for those the
        observed value is returned (the conventional "pre-sample" treatment),
        so downstream consumers are not polluted by a startup transient.
        """
        self._require_fitted()
        values = self._training_series
        differenced = self._difference(values, self.order.d)
        p, q = self.order.p, self.order.q
        warmup = max(p, q)
        n = differenced.size
        residuals = np.zeros(n)
        predictions = np.zeros(n)
        for t in range(n):
            prediction = self.intercept
            for i in range(p):
                if t - 1 - i >= 0:
                    prediction += self.ar_coefficients[i] * differenced[t - 1 - i]
            for j in range(q):
                if t - 1 - j >= 0:
                    prediction += self.ma_coefficients[j] * residuals[t - 1 - j]
            if t < warmup:
                prediction = differenced[t]
            predictions[t] = prediction
            residuals[t] = differenced[t] - prediction
        if self.order.d == 0:
            return predictions
        # Integrate the differenced predictions back onto the original scale.
        base = values[self.order.d - 1 : -1]
        if self.order.d == 1:
            return np.concatenate((values[:1], base + predictions))
        integrated = predictions
        for level in range(self.order.d, 0, -1):
            previous = self._difference(values, level - 1)
            integrated = previous[level - 1 : -1] + integrated
        return np.concatenate((values[: self.order.d], integrated))

    def forecast(self, steps: int) -> np.ndarray:
        """Forecast ``steps`` values beyond the end of the training series."""
        self._require_fitted()
        if steps < 1:
            raise MlError("forecast horizon must be at least 1")
        values = self._training_series
        differenced = self._difference(values, self.order.d)
        p, q = self.order.p, self.order.q

        history = list(differenced)
        residual_history = list(self._residuals(differenced, self.ar_coefficients, self.ma_coefficients, self.intercept))
        # Pad residual history so indexing from the end is aligned with history.
        while len(residual_history) < len(history):
            residual_history.insert(0, 0.0)

        forecasts_diff: List[float] = []
        for _ in range(steps):
            prediction = self.intercept
            for i in range(p):
                if len(history) - 1 - i >= 0:
                    prediction += self.ar_coefficients[i] * history[len(history) - 1 - i]
            for j in range(q):
                if len(residual_history) - 1 - j >= 0:
                    prediction += self.ma_coefficients[j] * residual_history[len(residual_history) - 1 - j]
            forecasts_diff.append(prediction)
            history.append(prediction)
            residual_history.append(0.0)  # expected future shocks are zero

        if self.order.d == 0:
            return np.asarray(forecasts_diff)
        # Undifference the forecasts cumulatively from the last observed values.
        result = np.asarray(forecasts_diff, dtype=float)
        for level in range(self.order.d, 0, -1):
            last_value = self._difference(values, level - 1)[-1]
            result = last_value + np.cumsum(result)
        return result

    # ------------------------------------------------------------------ #
    # Serialization helpers (used by the SQL UDFs)
    # ------------------------------------------------------------------ #
    def coefficients(self) -> dict:
        """All fitted coefficients as a plain dict."""
        self._require_fitted()
        return {
            "p": self.order.p,
            "d": self.order.d,
            "q": self.order.q,
            "ar": self.ar_coefficients.tolist(),
            "ma": self.ma_coefficients.tolist(),
            "intercept": self.intercept,
            "sigma2": self.sigma2,
        }
