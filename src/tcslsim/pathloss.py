"""Close-in free-space reference path loss model and link budget."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import InvalidParamsError
from .scenario import ScenarioParams, SimConfig

SPEED_OF_LIGHT_M_PER_S = 299_792_458.0
SPEED_OF_LIGHT_M_PER_NS = SPEED_OF_LIGHT_M_PER_S * 1e-9


@dataclass(frozen=True)
class LinkBudget:
    """Received power bookkeeping for one drop."""

    frequency_hz: float
    distance_m: float
    tx_power_dbm: float
    fspl_1m_db: float
    shadow_fading_db: float
    path_loss_db: float
    rx_power_dbm: float
    rx_power_mw: float


@functools.lru_cache(maxsize=16)  # a run uses one frequency
def fspl_1m(frequency_hz: float) -> float:
    """Free-space path loss in dB at the 1 m reference distance."""
    if frequency_hz <= 0:
        raise InvalidParamsError(f"frequency must be > 0, got {frequency_hz}")
    return 20.0 * math.log10(4.0 * math.pi * frequency_hz / SPEED_OF_LIGHT_M_PER_S)


def path_loss_ci(frequency_hz: float, distance_m: float, ple: float,
                 shadow_db: float = 0.0) -> float:
    """Close-in path loss: FSPL at 1 m plus 10*ple dB per decade of distance.

    `shadow_db` is a realization of the lognormal shadow fading term.
    """
    if distance_m < 1.0:
        raise InvalidParamsError(
            f"distance {distance_m} m is below the 1 m reference")
    return fspl_1m(frequency_hz) + 10.0 * ple * math.log10(distance_m) + shadow_db


def link_budget(config: SimConfig, params: ScenarioParams, shadow_db: float,
                distance_m: float) -> LinkBudget:
    """Compute received power for one drop at `distance_m` from its drawn
    shadow fading (a Normal(0, sigma_sf) draw in dB)."""
    frequency_hz = config.scenario.frequency_hz
    pl_db = path_loss_ci(frequency_hz, distance_m, params.ple, shadow_db)
    rx_dbm = config.tx_power_dbm - pl_db
    return LinkBudget(
        frequency_hz=frequency_hz,
        distance_m=distance_m,
        tx_power_dbm=config.tx_power_dbm,
        fspl_1m_db=fspl_1m(frequency_hz),
        shadow_fading_db=shadow_db,
        path_loss_db=pl_db,
        rx_power_dbm=rx_dbm,
        rx_power_mw=dbm_to_mw(rx_dbm),
    )


def dbm_to_mw(power_dbm: float) -> float:
    return 10.0 ** (power_dbm / 10.0)
