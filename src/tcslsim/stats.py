"""Secondary channel statistics: angular spectra and spreads.

Each per-drop spread has one kernel: `rms_delay_spread(delays, weights)`
for the RMS delay spread and `circular_angular_spread(angles, powers)`
for the wrapped angular spread. `drop_metrics` applies them to a drop:
the delay spread once and the angular spread on both sides in both
planes, all weighted by the subpath power fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError
from .generate import ChannelDrop

AZ_CELLS = 360
EL_CELLS = 181  # -90 .. +90 inclusive at 1 degree


@dataclass
class PowerAngularSpectrum:
    """Power on the occupied cells of a 1-degree azimuth x elevation grid.

    `cells` holds the sorted flat indices az * EL_CELLS + (el + 90) of
    the cells that received power, for azimuth az in 0..359 and
    elevation el in -90..90 degrees, and `power_mw` the summed power of
    each; every other cell holds none. Azimuth wraps circularly,
    elevation does not. `cell_index` and `angles` convert between the
    two.
    """

    side: str
    cells: np.ndarray     # (k,) int64, sorted flat cell indices
    power_mw: np.ndarray  # (k,) float64, mW per cell

    @staticmethod
    def cell_index(az_deg, el_deg):
        """Flat index of whole-degree azimuth (wrapped) and elevation
        (-90..90), for ints or int arrays."""
        return az_deg % AZ_CELLS * EL_CELLS + el_deg + 90

    def angles(self) -> tuple:
        """Whole-degree (azimuth, elevation) int64 arrays of the cells."""
        az, el_idx = np.divmod(self.cells, EL_CELLS)
        return az, el_idx - 90


def rms_delay_spread(delays_ns, weights) -> float:
    """Weighted standard deviation of the tap delays, in the unit of
    `delays_ns`.

    Weights need not be normalized: scaling them all by one factor
    leaves the spread unchanged up to rounding.
    """
    delays = np.asarray(delays_ns, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if len(delays) == 0:
        raise InvalidParamsError("no taps")
    total = weights.sum()
    if not total > 0:
        raise InvalidParamsError("profile has no power")
    mean = float(np.dot(weights, delays) / total)
    second = float(np.dot(weights, delays**2) / total)
    return math.sqrt(max(second - mean * mean, 0.0))


def build_pas(drop: ChannelDrop, side: str) -> PowerAngularSpectrum:
    """Deposit each subpath's power into its nearest 1-degree cell.

    Powers landing in one cell are summed in subpath order from 0.0.
    """
    az = getattr(drop, f"{side}_az_deg")
    el = getattr(drop, f"{side}_el_deg")
    flat = PowerAngularSpectrum.cell_index(np.rint(az).astype(np.int64),
                                          np.clip(np.rint(el).astype(np.int64), -90, 90))
    cells, inverse = np.unique(flat, return_inverse=True)
    power = np.zeros(len(cells))
    np.add.at(power, inverse, drop.powers_mw())
    return PowerAngularSpectrum(side=side, cells=cells, power_mw=power)


def circular_angular_spread(angles_deg, powers) -> float:
    """Wrapped angular spread in degrees.

    Computed from the power-weighted mean resultant of the angles:
    sqrt(-2 ln |sum p*exp(j*theta)| / sum p). The resultant magnitude is
    clamped below at 1e-12, and magnitudes within 1e-15 of unity count
    as 1 (spread 0), so a single direction is exactly spread-free.
    """
    angles = np.asarray(angles_deg, dtype=float)
    weights = np.asarray(powers, dtype=float)
    if angles.size == 0 or weights.size == 0:
        raise InvalidParamsError("no angles")
    total = weights.sum()
    if not total > 0:
        raise InvalidParamsError("no power")
    theta = np.deg2rad(angles)
    resultant = float(np.abs(np.dot(weights, np.exp(1j * theta))) / total)
    if resultant >= 1.0 - 1e-15:
        return 0.0
    resultant = max(resultant, 1e-12)
    return math.degrees(math.sqrt(-2.0 * math.log(resultant)))


def drop_metrics(drop: ChannelDrop) -> dict:
    """The drop's RMS delay spread (ns) and its four angular spreads
    (degrees, `as_<side>_<plane>_deg`).

    Power fractions weight the subpaths, so no value depends on transmit
    power or distance in any bit.
    """
    weights = drop.power_fractions
    return {
        "rms_ds_ns": rms_delay_spread(drop.excess_delays_ns(), weights),
        "as_aod_az_deg": circular_angular_spread(drop.aod_az_deg, weights),
        "as_aod_el_deg": circular_angular_spread(drop.aod_el_deg, weights),
        "as_aoa_az_deg": circular_angular_spread(drop.aoa_az_deg, weights),
        "as_aoa_el_deg": circular_angular_spread(drop.aoa_el_deg, weights),
    }


@dataclass
class Summary:
    """Order statistics of a metric across drops."""

    count: int
    median: float
    mean: float
    cdf_grid: np.ndarray
    cdf_probs: np.ndarray


def summarize(values) -> Summary:
    """Median (lower-middle for even counts), mean and empirical CDF.

    The CDF is evaluated at the sorted sample values themselves;
    P(X <= max) is exactly 1.
    """
    data = np.sort(np.asarray(values, dtype=float))
    if data.size == 0:
        raise InvalidParamsError("no values")
    median = float(data[(data.size - 1) // 2])
    return Summary(
        count=int(data.size),
        median=median,
        mean=float(data.mean()),
        cdf_grid=data,
        cdf_probs=np.searchsorted(data, data, side="right") / data.size,
    )
