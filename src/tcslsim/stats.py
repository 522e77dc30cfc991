"""Secondary channel statistics: angular spectra and spreads.

The block is the unit: `build_pas` and `drop_metrics` read the flat
arrays of a `DropBlock` (a single drop is a block of one) and build no
per-drop object.

A `PowerAngularSpectrum` holds sparse angular spectra of one side: one
per drop of a block (`build_pas`), or one per drop of an exported file.

Each spread is an elementwise part (squared delays, unit phasors) and a
per-profile part of dot products and scalar arithmetic (`_delay_spread`,
`_angular_spread`). `drop_metrics` runs the first once over a block and
the second on each drop's slice, with the operands and summation order
of the single-profile functions, so bits are equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError
from .generate import DropBlock

AZ_CELLS = 360
EL_CELLS = 181  # -90 .. +90 inclusive at 1 degree
GRID_CELLS = AZ_CELLS * EL_CELLS
METRIC_NAMES = ("rms_ds_ns", "as_aod_az_deg", "as_aod_el_deg", "as_aoa_az_deg", "as_aoa_el_deg")


@dataclass
class PowerAngularSpectrum:
    """Power on the occupied cells of 1-degree azimuth x elevation
    grids, one grid per spectrum.

    `cells` holds the sorted keys spectrum * GRID_CELLS + az * EL_CELLS
    + (el + 90) of the cells that received power, for azimuth az in
    0..359 and elevation el in -90..90 degrees, and `power_mw` the
    summed power of each; every other cell holds none. One spectrum is
    spectrum 0, its keys the flat cells of `cell_index`. Azimuth wraps
    circularly, elevation does not.
    """

    side: str
    cells: np.ndarray     # (k,) int64, sorted keys
    power_mw: np.ndarray  # (k,) float64, mW per cell

    @classmethod
    def from_deposits(cls, side: str, spectrum, cells, power_mw) -> "PowerAngularSpectrum":
        """Sum the power deposited in each (spectrum, flat cell) in the
        order given, from 0.0. A sum that overflows is inf, of which
        np.bincount, unlike np.add.at, does not warn."""
        keys, inverse = np.unique(spectrum * GRID_CELLS + cells, return_inverse=True)
        power = np.bincount(inverse, weights=power_mw, minlength=len(keys))
        return cls(side=side, cells=keys, power_mw=power)

    @staticmethod
    def cell_index(az_deg, el_deg):
        """Flat index of whole-degree azimuth (wrapped) and elevation
        (-90..90), for ints or int arrays."""
        return az_deg % AZ_CELLS * EL_CELLS + el_deg + 90

    def angles(self) -> tuple:
        """Whole-degree (azimuth, elevation) int64 arrays of the cells."""
        az, el_idx = np.divmod(self.cells % GRID_CELLS, EL_CELLS)
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
    return _delay_spread(weights.sum(), weights, delays, delays**2)


def _delay_spread(total, weights, delays, squares) -> float:
    """RMS delay spread of one profile, given its total weight."""
    if not total > 0:
        raise InvalidParamsError("profile has no power")
    mean = float(np.dot(weights, delays) / total)
    second = float(np.dot(weights, squares) / total)
    return math.sqrt(max(second - mean * mean, 0.0))


def build_pas(block: DropBlock, side: str) -> PowerAngularSpectrum:
    """Deposit each subpath's power into its nearest 1-degree cell of
    its drop's spectrum, spectrum k for the block's k-th drop. Powers
    landing in one cell are summed in subpath order from 0.0.
    """
    az = getattr(block, f"{side}_az_deg")
    el = getattr(block, f"{side}_el_deg")
    flat = PowerAngularSpectrum.cell_index(np.rint(az).astype(np.int64),
                                          np.clip(np.rint(el).astype(np.int64), -90, 90))
    return PowerAngularSpectrum.from_deposits(side, block.subpath_drops(), flat,
                                              block.powers_mw())


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
    return _angular_spread(weights.sum(), weights.astype(complex), _phasors(angles))


def _phasors(angles_deg: np.ndarray) -> np.ndarray:
    return np.exp(1j * np.deg2rad(angles_deg))


def _angular_spread(total, weights, phasors) -> float:
    """Angular spread of one profile, given its total and complex weights."""
    if not total > 0:
        raise InvalidParamsError("no power")
    resultant = float(np.abs(np.dot(weights, phasors)) / total)
    if resultant >= 1.0 - 1e-15:
        return 0.0
    resultant = max(resultant, 1e-12)
    return math.degrees(math.sqrt(-2.0 * math.log(resultant)))


def drop_metrics(block: DropBlock) -> dict:
    """{METRIC_NAMES entry: one value per drop of `block`}: RMS delay
    spread in ns, angular spreads in degrees. Power fractions weight the
    subpaths, so no value depends on transmit power or distance in any
    bit."""
    delays = block.excess_delays_ns()
    squares = delays**2
    weights = block.power_fractions
    complex_weights = weights.astype(complex)
    # as_aod_az_deg: the block's aod_az_deg
    phasors = [_phasors(getattr(block, name[3:])) for name in METRIC_NAMES[1:]]
    bounds = block.subpath_offsets.tolist()
    rows = []
    for a, b in zip(bounds, bounds[1:]):
        total = weights[a:b].sum()
        rows.append([_delay_spread(total, weights[a:b], delays[a:b], squares[a:b]),
                     *[_angular_spread(total, complex_weights[a:b], p[a:b]) for p in phasors]])
    return dict(zip(METRIC_NAMES, map(list, zip(*rows))))


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
