"""Machine energy models (Eq. 7), the Table II server catalog and prices."""

from repro.energy.models import LinearPowerModel, MachineModel
from repro.energy.catalog import (
    table2_fleet,
    TABLE2_MODELS,
    google_like_energy_models,
)
from repro.energy.prices import (
    PriceSchedule,
    constant_price,
    time_of_use_price,
)
from repro.energy.accounting import EnergyMeter, EnergyRecord

__all__ = [
    "LinearPowerModel",
    "MachineModel",
    "table2_fleet",
    "TABLE2_MODELS",
    "google_like_energy_models",
    "PriceSchedule",
    "constant_price",
    "time_of_use_price",
    "EnergyMeter",
    "EnergyRecord",
]
