"""Close-in free-space reference path loss model and link budget."""

from __future__ import annotations

import math

from .errors import InvalidParamsError
from .randcore import float_exp10, float_log10
from .scenario import ScenarioParams, SimConfig

SPEED_OF_LIGHT_M_PER_S = 299_792_458.0
SPEED_OF_LIGHT_M_PER_NS = SPEED_OF_LIGHT_M_PER_S * 1e-9


def fspl_1m(frequency_hz: float) -> float:
    """Free-space path loss in dB at the 1 m reference distance."""
    if frequency_hz <= 0:
        raise InvalidParamsError(f"frequency must be > 0, got {frequency_hz}")
    return 20.0 * float_log10(4.0 * math.pi * frequency_hz / SPEED_OF_LIGHT_M_PER_S)


def link_budget(config: SimConfig, params: ScenarioParams, shadows_db: list,
                distances_m: list) -> tuple[list, list, list]:
    """Path loss (dB), received power (dBm) and received power (mW) of
    each drop of a block, from its distance (validated to be at least
    1 m) and its drawn shadow fading (a Normal(0, sigma_sf) draw in dB).

    The path loss is the close-in model: FSPL at 1 m, plus 10*ple dB per
    decade of distance, plus the shadow fading. Each is a list of Python
    floats, one scalar evaluation per drop, so a drop's values do not
    depend on the block it is in. Nothing is refused here: a received
    power past the float range is inf or 0.0 mW, and `generate_batch`
    refuses its drop.
    """
    fspl_db, slope_db = fspl_1m(config.scenario.frequency_hz), 10.0 * params.ple
    path_loss = [fspl_db + slope_db * float_log10(distance) + shadow
                 for shadow, distance in zip(shadows_db, distances_m)]
    rx_dbm = [config.tx_power_dbm - pl_db for pl_db in path_loss]
    return path_loss, rx_dbm, [float_exp10(dbm / 10.0) for dbm in rx_dbm]
