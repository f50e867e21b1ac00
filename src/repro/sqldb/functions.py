"""Built-in SQL functions: scalar functions, aggregates, table functions."""

from __future__ import annotations

import datetime as _dt
import math
from typing import Any, Callable, Dict, List, Optional

from repro.errors import SqlExecutionError
from repro.sqldb.types import Variant, parse_timestamp

# --------------------------------------------------------------------------- #
# Scalar functions
# --------------------------------------------------------------------------- #


def _null_safe(func: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap a function so that any NULL argument yields NULL."""

    def wrapper(*args: Any) -> Any:
        if any(a is None for a in args):
            return None
        return func(*args)

    return wrapper


def _coalesce(*args: Any) -> Any:
    for arg in args:
        if arg is not None:
            return arg
    return None


def _nullif(a: Any, b: Any) -> Any:
    return None if a == b else a


def _round(value: float, digits: int = 0) -> float:
    return round(float(value), int(digits))


def _power(base: float, exponent: float) -> float:
    return float(base) ** float(exponent)


def _concat(*args: Any) -> str:
    return "".join("" if a is None else str(a) for a in args)


def _extract_epoch(value: Any) -> float:
    ts = parse_timestamp(value)
    return ts.timestamp()


def _date_part(part: str, value: Any) -> float:
    ts = parse_timestamp(value)
    part = str(part).lower()
    if part == "hour":
        return float(ts.hour)
    if part == "minute":
        return float(ts.minute)
    if part == "day":
        return float(ts.day)
    if part == "month":
        return float(ts.month)
    if part == "year":
        return float(ts.year)
    if part == "dow":
        return float(ts.weekday())
    if part == "epoch":
        return ts.timestamp()
    raise SqlExecutionError(f"unsupported date_part field: {part!r}")


def _interval(text: str) -> _dt.timedelta:
    parts = str(text).strip().split()
    if len(parts) != 2:
        raise SqlExecutionError(f"unsupported interval literal: {text!r}")
    amount = float(parts[0])
    unit = parts[1].rstrip("s").lower()
    seconds = {"second": 1, "minute": 60, "hour": 3600, "day": 86400, "week": 604800}
    if unit not in seconds:
        raise SqlExecutionError(f"unsupported interval unit: {unit!r}")
    return _dt.timedelta(seconds=amount * seconds[unit])


def _variant_value(value: Any) -> Any:
    if isinstance(value, Variant):
        return value.value
    return value


def _variant_type(value: Any) -> Optional[str]:
    if isinstance(value, Variant):
        return value.original_type.value
    return None


SCALAR_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "abs": _null_safe(abs),
    "round": _null_safe(_round),
    "floor": _null_safe(lambda v: math.floor(float(v))),
    "ceil": _null_safe(lambda v: math.ceil(float(v))),
    "ceiling": _null_safe(lambda v: math.ceil(float(v))),
    "sqrt": _null_safe(lambda v: math.sqrt(float(v))),
    "exp": _null_safe(lambda v: math.exp(float(v))),
    "ln": _null_safe(lambda v: math.log(float(v))),
    "log": _null_safe(lambda v: math.log10(float(v))),
    "power": _null_safe(_power),
    "pow": _null_safe(_power),
    "mod": _null_safe(lambda a, b: float(a) % float(b)),
    "sign": _null_safe(lambda v: math.copysign(1.0, float(v)) if float(v) != 0 else 0.0),
    "greatest": _null_safe(max),
    "least": _null_safe(min),
    "upper": _null_safe(lambda s: str(s).upper()),
    "lower": _null_safe(lambda s: str(s).lower()),
    "length": _null_safe(lambda s: len(str(s))),
    "trim": _null_safe(lambda s: str(s).strip()),
    "substr": _null_safe(lambda s, start, n=None: str(s)[int(start) - 1 : (int(start) - 1 + int(n)) if n is not None else None]),
    "replace": _null_safe(lambda s, a, b: str(s).replace(str(a), str(b))),
    "concat": _concat,
    "coalesce": _coalesce,
    "nullif": _nullif,
    "now": lambda: _dt.datetime(2020, 3, 30, 0, 0, 0),  # deterministic "now" for reproducibility
    "extract_epoch": _null_safe(_extract_epoch),
    "date_part": _null_safe(_date_part),
    "interval": _null_safe(_interval),
    "to_timestamp": _null_safe(parse_timestamp),
    "variant_value": _variant_value,
    "variant_type": _variant_type,
    "random_seeded": _null_safe(lambda seed: (math.sin(float(seed)) * 10000.0) % 1.0),
}


# --------------------------------------------------------------------------- #
# Aggregates
# --------------------------------------------------------------------------- #
class Aggregate:
    """Base class for aggregate implementations (one instance per group)."""

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError


class CountAggregate(Aggregate):
    def __init__(self):
        self.count = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self.count += 1

    def result(self) -> Any:
        return self.count


class CountStarAggregate(Aggregate):
    def __init__(self):
        self.count = 0

    def add(self, value: Any) -> None:
        self.count += 1

    def result(self) -> Any:
        return self.count


class SumAggregate(Aggregate):
    def __init__(self):
        self.total = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.total = float(value) if self.total is None else self.total + float(value)

    def result(self) -> Any:
        return self.total


class AvgAggregate(Aggregate):
    def __init__(self):
        self.total = 0.0
        self.count = 0

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.total += float(value)
        self.count += 1

    def result(self) -> Any:
        return self.total / self.count if self.count else None


class MinAggregate(Aggregate):
    def __init__(self):
        self.value = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.value is None or value < self.value:
            self.value = value

    def result(self) -> Any:
        return self.value


class MaxAggregate(Aggregate):
    def __init__(self):
        self.value = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.value is None or value > self.value:
            self.value = value

    def result(self) -> Any:
        return self.value


class StddevAggregate(Aggregate):
    """Sample standard deviation (matching PostgreSQL's ``stddev``)."""

    def __init__(self):
        self.values: List[float] = []

    def add(self, value: Any) -> None:
        if value is not None:
            self.values.append(float(value))

    def result(self) -> Any:
        n = len(self.values)
        if n < 2:
            return None
        mean = sum(self.values) / n
        return math.sqrt(sum((v - mean) ** 2 for v in self.values) / (n - 1))


class VarianceAggregate(StddevAggregate):
    def result(self) -> Any:
        n = len(self.values)
        if n < 2:
            return None
        mean = sum(self.values) / n
        return sum((v - mean) ** 2 for v in self.values) / (n - 1)


class StringAggAggregate(Aggregate):
    def __init__(self):
        self.parts: List[str] = []

    def add(self, value: Any) -> None:
        if value is not None:
            self.parts.append(str(value))

    def result(self) -> Any:
        return ", ".join(self.parts) if self.parts else None


AGGREGATE_FUNCTIONS: Dict[str, Callable[[], Aggregate]] = {
    "count": CountAggregate,
    "sum": SumAggregate,
    "avg": AvgAggregate,
    "min": MinAggregate,
    "max": MaxAggregate,
    "stddev": StddevAggregate,
    "stddev_samp": StddevAggregate,
    "variance": VarianceAggregate,
    "var_samp": VarianceAggregate,
    "string_agg": StringAggAggregate,
}


def is_aggregate(name: str) -> bool:
    return name.lower() in AGGREGATE_FUNCTIONS


# --------------------------------------------------------------------------- #
# Built-in table (set-returning) functions
# --------------------------------------------------------------------------- #
def generate_series(start: Any, stop: Any, step: Any = None) -> List[List[Any]]:
    """PostgreSQL-style ``generate_series`` over integers, floats or timestamps."""
    if isinstance(start, (_dt.datetime, str)) and not _is_number(start):
        start_ts = parse_timestamp(start)
        stop_ts = parse_timestamp(stop)
        delta = step if isinstance(step, _dt.timedelta) else _interval(step or "1 hour")
        if delta.total_seconds() <= 0:
            raise SqlExecutionError("generate_series step must be positive")
        rows = []
        current = start_ts
        while current <= stop_ts:
            rows.append([current])
            current = current + delta
        return rows
    start_num = float(start)
    stop_num = float(stop)
    step_num = float(step) if step is not None else 1.0
    if step_num == 0:
        raise SqlExecutionError("generate_series step must not be zero")
    rows = []
    value = start_num
    if step_num > 0:
        while value <= stop_num + 1e-12:
            rows.append([_maybe_int(value, start, stop, step)])
            value += step_num
    else:
        while value >= stop_num - 1e-12:
            rows.append([_maybe_int(value, start, stop, step)])
            value += step_num
    return rows


def _is_number(value: Any) -> bool:
    if isinstance(value, (int, float)):
        return True
    try:
        float(value)
        return True
    except (TypeError, ValueError):
        return False


def _maybe_int(value: float, *originals: Any) -> Any:
    use_int = all(
        original is None or isinstance(original, int) or (isinstance(original, str) and original.lstrip("-").isdigit())
        for original in originals
    )
    return int(round(value)) if use_int else value


TABLE_FUNCTIONS: Dict[str, Dict[str, Any]] = {
    "generate_series": {
        "func": generate_series,
        "columns": ["generate_series"],
        "min_args": 2,
        "max_args": 3,
    },
}
