"""Secondary channel statistics: delay profiles, angular spectra and spreads."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError
from .generate import ChannelDrop

AZ_CELLS = 360
EL_CELLS = 181  # -90 .. +90 inclusive at 1 degree


@dataclass
class PowerDelayProfile:
    """Tap list of (excess delay, power)."""

    delays_ns: np.ndarray
    powers_mw: np.ndarray

    @property
    def num_taps(self) -> int:
        return len(self.delays_ns)

    @property
    def total_power_mw(self) -> float:
        return float(self.powers_mw.sum())


@dataclass
class PowerAngularSpectrum:
    """Power on the occupied cells of a 1-degree azimuth x elevation grid.

    `cells` holds the sorted flat indices az * EL_CELLS + (el + 90) of
    the cells that received power, for azimuth az in 0..359 and
    elevation el in -90..90 degrees, and `power_mw` the summed power of
    each; every other cell holds none. Azimuth wraps circularly,
    elevation does not. `cell_index` and `angles` convert between the
    two, and `grid` expands the cells into the dense (360, 181) array,
    grid[az, el + 90].
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

    @property
    def grid(self) -> np.ndarray:
        grid = np.zeros(AZ_CELLS * EL_CELLS)
        grid[self.cells] = self.power_mw
        return grid.reshape(AZ_CELLS, EL_CELLS)

    @property
    def total_power_mw(self) -> float:
        return float(self.power_mw.sum())

    def cell_power(self, az_deg: int, el_deg: int) -> float:
        if not -90 <= el_deg <= 90:
            raise IndexError(f"elevation {el_deg} outside -90..90")
        cell = self.cell_index(az_deg, el_deg)
        pos = int(np.searchsorted(self.cells, cell))
        if pos < len(self.cells) and self.cells[pos] == cell:
            return float(self.power_mw[pos])
        return 0.0


def build_pdp(drop: ChannelDrop) -> PowerDelayProfile:
    """Collect the drop's subpaths into a delay-sorted tap list."""
    delays = drop.excess_delays_ns()
    powers = drop.powers_mw()
    order = np.argsort(delays, kind="stable")
    return PowerDelayProfile(delays_ns=delays[order], powers_mw=powers[order])


def rms_delay_spread(pdp: PowerDelayProfile) -> float:
    """Power-weighted standard deviation of the exact tap delays, ns."""
    return _weighted_delay_spread(pdp.delays_ns, pdp.powers_mw)


def drop_rms_delay_spread(drop: ChannelDrop) -> float:
    """RMS delay spread straight from the drop's subpaths.

    Power fractions are used as weights, so the value does not depend on
    transmit power or distance in any bit.
    """
    return _weighted_delay_spread(drop.excess_delays_ns(), drop.power_fractions)


def _weighted_delay_spread(delays: np.ndarray, weights: np.ndarray) -> float:
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
    az = _angles(drop, side, "azimuth")
    el = _angles(drop, side, "elevation")
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


def global_rms_as(drop: ChannelDrop, side: str, plane: str) -> float:
    """Circular angular spread of the delay-integrated power, degrees.

    `side` is 'aod' or 'aoa'; `plane` is 'azimuth' or 'elevation'.
    Power fractions weight the subpath directions, so the spread is
    invariant to transmit power and distance.
    """
    return circular_angular_spread(_angles(drop, side, plane), drop.power_fractions)


def _angles(drop: ChannelDrop, side: str, plane: str) -> np.ndarray:
    return getattr(drop, f"{side}_{'az' if plane == 'azimuth' else 'el'}_deg")


def drop_metrics(drop: ChannelDrop) -> dict:
    """All per-drop spread metrics in one pass over the subpaths.

    Equals {rms_ds_ns: drop_rms_delay_spread, as_<side>_<plane>_deg:
    global_rms_as}.
    """
    weights = drop.power_fractions
    return {
        "rms_ds_ns": _weighted_delay_spread(drop.excess_delays_ns(), weights),
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

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "median": self.median,
            "mean": self.mean,
            "cdf_grid": self.cdf_grid.tolist(),
            "cdf_probs": self.cdf_probs.tolist(),
        }


def summarize(values, cdf_grid=None) -> Summary:
    """Median (lower-middle for even counts), mean and empirical CDF.

    The CDF is evaluated at `cdf_grid` when given, otherwise at the
    sorted sample values themselves; P(X <= max) is exactly 1.
    """
    data = np.sort(np.asarray(values, dtype=float))
    if data.size == 0:
        raise InvalidParamsError("no values")
    median = float(data[(data.size - 1) // 2])
    grid = data if cdf_grid is None else np.sort(np.asarray(cdf_grid, dtype=float))
    probs = np.searchsorted(data, grid, side="right") / data.size
    return Summary(
        count=int(data.size),
        median=median,
        mean=float(data.mean()),
        cdf_grid=np.asarray(grid, dtype=float),
        cdf_probs=probs,
    )
