"""Electricity price schedules (the ``p_t`` of Eqs. 7 and 14).

HARMONY's formulation is price-aware: the controller weighs energy against
utility at the *current* price, so time-varying prices shift provisioning
toward cheap hours.  Two schedules are provided: constant and time-of-use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

PriceFn = Callable[[float], float]


@dataclass(frozen=True)
class PriceSchedule:
    """A price curve ``$ / kWh`` as a function of time (seconds)."""

    fn: PriceFn
    name: str = "custom"

    def __call__(self, t: float) -> float:
        price = float(self.fn(t))
        if price < 0:
            raise ValueError(f"price schedule {self.name!r} returned negative price {price}")
        return price

    def series(self, horizon: float, interval: float) -> np.ndarray:
        """Prices sampled at interval starts over ``[0, horizon)``."""
        if interval <= 0 or horizon <= 0:
            raise ValueError("horizon and interval must be positive")
        times = np.arange(0.0, horizon, interval)
        return np.array([self(t) for t in times])


def constant_price(price: float = 0.10) -> PriceSchedule:
    """Flat $/kWh price."""
    if price < 0:
        raise ValueError(f"price must be >= 0, got {price}")
    return PriceSchedule(fn=lambda t: price, name=f"constant({price})")


def time_of_use_price(
    off_peak: float = 0.07,
    mid_peak: float = 0.11,
    on_peak: float = 0.15,
) -> PriceSchedule:
    """A utility-style time-of-use tariff.

    Off-peak 19:00-07:00, on-peak 11:00-17:00, mid-peak otherwise.
    """

    def fn(t: float) -> float:
        hour = (t / 3600.0) % 24.0
        if hour < 7.0 or hour >= 19.0:
            return off_peak
        if 11.0 <= hour < 17.0:
            return on_peak
        return mid_peak

    return PriceSchedule(fn=fn, name="time_of_use")
