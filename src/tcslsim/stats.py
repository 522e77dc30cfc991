"""Secondary channel statistics: angular spectra and spreads.

The block is the unit: `build_pas` and `drop_metrics` read the flat
arrays of a `DropBlock` (a single drop is a block of one) and build no
per-drop object.

A `PowerAngularSpectrum` holds sparse angular spectra of one side: one
per drop of a block (`build_pas`), or one per drop of an exported file.

Each spread of a profile is its total weight, a few dot products and
arithmetic on them. `randcore.profile_sums`, which also totals
generation's power shares, reduces all profiles of a block at once,
grouped by length, each total and dot equal in every bit to the
profile's own `.sum()` and `ndarray.dot`. Everything after the sums
runs once over the block: the divisions by the totals, the variances,
the resultant magnitudes, the clamps, logs and square roots. A caller
pays for the dots of the spreads it asks for: `delay_spreads` makes two
per drop, and `drop_metrics` (records and files) six, the two plus four
of the phasors of the angle columns. `rms_delay_spread` and
`circular_angular_spread` are the one-profile case of the same code.

Replay depends on the exact primitives: the sums, phasors and logs are
`randcore`'s, whose table says which give the same bits on every host.
The magnitude of a complex resultant is the `np.abs` ufunc; builtin
`abs` on a numpy complex takes another hypot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError
from .generate import DelayProfile, DropBlock
from .randcore import log_each, phasors, profile_sums

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


def _reduce(weights, lengths, columns) -> tuple:
    """`profile_sums`, refusing a profile whose total is not positive."""
    totals, dots = profile_sums(weights, lengths, columns)
    if not (totals > 0).all():
        raise InvalidParamsError("profile has no power")
    return totals, dots


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
    return _delay_spreads(*_reduce(weights, [len(weights)], (delays, delays**2))).item()


def _delay_spreads(totals, sums) -> np.ndarray:
    """RMS delay spreads from profile totals and the weighted sums of
    the delays and of their squares."""
    mean = sums[0] / totals
    variance = sums[1] / totals - mean * mean
    return np.sqrt(np.where(variance < 0.0, 0.0, variance))


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
    totals, (resultants,) = _reduce(weights, [len(weights)], (phasors(angles),))
    return _angular_spreads(totals, resultants).item()


def _angular_spreads(totals, resultants) -> np.ndarray:
    """Angular spreads in degrees from profile totals and the complex
    weighted sums of their phasors."""
    magnitude = np.abs(resultants) / totals
    single = magnitude >= 1.0 - 1e-15
    # a single direction may round above 1; its log is taken of 1.0 so no
    # square root of a negative runs
    magnitude = np.where(single, 1.0, np.where(magnitude < 1e-12, 1e-12, magnitude))
    return np.where(single, 0.0, np.degrees(np.sqrt(-2.0 * log_each(magnitude))))


def delay_spreads(profiles: list[DelayProfile]) -> list:
    """RMS delay spread in ns of each drop of each of `profiles`, an
    array a profile, each the `rms_ds_ns` column of `drop_metrics` in
    every bit: two dot products per drop, and no phasor, angular dot or
    log. It reads only the delays and power shares, so a `DelayProfile`
    serves as well as a `DropBlock`. The drops of all `profiles` are
    reduced in one `profile_sums` pass, grouped by length across them,
    so the four scenarios of a `reproduce` block share each length's
    gathers."""
    delays = np.concatenate([profile.excess_delays_ns() for profile in profiles])
    spreads = _delay_spreads(*_reduce(
        np.concatenate([profile.power_fractions for profile in profiles]),
        np.concatenate([profile.num_subpaths for profile in profiles]), (delays, delays**2)))
    return np.split(spreads, np.cumsum([len(profile) for profile in profiles])[:-1])


def drop_metrics(block: DropBlock) -> dict:
    """{METRIC_NAMES entry: one value per drop of `block`}: RMS delay
    spread in ns, angular spreads in degrees. Power fractions weight the
    subpaths, so no value depends on transmit power or distance in any
    bit.

    One `profile_sums` pass over the block, grouped by drop length,
    gives each drop's total and six dot products: the two of
    `delay_spreads`, and four of the power fractions with the unit
    phasors of the drop's angle columns, which share one gather a
    length. Everything after the sums runs once over the block, element
    by element; every value equals that of the one-profile functions.
    """
    delays = block.excess_delays_ns()
    # as_aod_az_deg: the block's aod_az_deg
    angles = [phasors(getattr(block, name[3:])) for name in METRIC_NAMES[1:]]
    totals, dots = _reduce(block.power_fractions, block.num_subpaths,
                           (delays, delays**2, *angles))
    spreads = [_delay_spreads(totals, dots[:2])]
    spreads += [_angular_spreads(totals, resultants) for resultants in dots[2:]]
    return {name: values.tolist() for name, values in zip(METRIC_NAMES, spreads)}


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
