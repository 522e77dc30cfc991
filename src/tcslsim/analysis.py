"""Closed-loop channel analysis on plain arrays.

Partitions sorted tap delays into time clusters and inverts the
cluster-delay construction into intra-cluster delays and inter-cluster
offsets, extracts spatial lobes from sparse angular spectra, and re-fits
the generating distribution families by maximum likelihood, so simulated
(or imported) channels can be checked against the parameters that
produced them. Every fit is closed form; the log-likelihoods and KS
distances are written out from their formulas with `scipy.special`
alone.

A whole exported file is analysed as one block: the partition takes the
delays of every drop at once, and one labelling pass finds the lobes of
every spectrum a `PowerAngularSpectrum` holds. A single profile or
spectrum is the block of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import expm1, gammaln, ndtr, xlogy

from .errors import InvalidParamsError
from .stats import AZ_CELLS, EL_CELLS, GRID_CELLS, PowerAngularSpectrum


# --- time-cluster partitioning ---------------------------------------------

@dataclass
class ClusterPartition:
    """Time clusters of a delay-sorted tap list.

    `starts` holds the index of each cluster's first tap, ascending from
    0, as `ChannelDrop.cluster_start` does for the subpaths of a drop:
    cluster k holds taps starts[k] up to starts[k + 1], the last cluster
    the taps from its start to the end of the profile.
    """

    starts: np.ndarray  # (num_clusters,) int64

    @property
    def num_clusters(self) -> int:
        return len(self.starts)


def partition_time_clusters(delays_ns, mti_ns: float, drop_starts=None) -> ClusterPartition:
    """Greedy left-to-right grouping of sorted tap delays into time clusters.

    A tap starts a new cluster when its delay gap to the previous tap
    reaches the minimum inter-cluster time void interval. With
    `drop_starts`, `delays_ns` is a block of many drops' sorted profiles
    one after another, drop k from tap drop_starts[k] on (the first at
    0), and each drop's first tap starts a cluster too: a whole file is
    partitioned in one pass.
    """
    if not mti_ns > 0:  # also rejects NaN
        raise InvalidParamsError(f"mti must be > 0, got {mti_ns}")
    if len(delays_ns) == 0:
        raise InvalidParamsError("no taps to partition")
    new = np.diff(delays_ns) >= mti_ns
    if drop_starts is not None:
        new[drop_starts[1:] - 1] = True
    return ClusterPartition(starts=np.concatenate(([0], np.flatnonzero(new) + 1)))


def cluster_delay_samples(delays_ns: np.ndarray, starts: np.ndarray, mti_ns: float) -> tuple:
    """Invert the cluster-delay construction of sorted tap delays.

    `starts` holds the index of each cluster's first tap. Returns
    (intra, inter): the delay of every tap after its cluster's first,
    leaving out each cluster's structural zero, and the offset of each
    cluster after the first beyond the void interval, i.e.
    tau_n - (tau_{n-1} + rho_last,{n-1}) - mti. For exponential draws
    the intra delays are again independent exponentials with the
    generating mean; the offsets are the sorted-draw offsets, so fitting
    them recovers the generating distribution's order statistics.
    """
    first = np.repeat(starts, np.diff(starts, append=len(delays_ns)))
    intra = np.delete(delays_ns - delays_ns[first], starts)
    inter = (delays_ns[starts[1:]] - delays_ns[starts[1:] - 1]) - mti_ns
    return intra, inter


# --- spatial-lobe extraction -------------------------------------------------

@dataclass
class Lobe:
    index: int
    cells: np.ndarray           # (k, 2) array of (az_deg, el_deg) ints
    peak_az_deg: int
    peak_el_deg: int
    power_mw: float
    mean_az_deg: float
    mean_el_deg: float


@dataclass
class LobeSet:
    """The spatial lobes of every spectrum of a PowerAngularSpectrum.

    `counts` holds the lobes of each spectrum, in key order. `lobes`
    holds them one spectrum after another, each spectrum's strongest
    first, ties in the order of their first cell, with power-weighted
    mean directions; `Lobe.index` numbers a spectrum's lobes from 1.
    It is worked out when first read.
    """

    counts: np.ndarray  # (num_spectra,) int64
    slt_db: float
    pas: PowerAngularSpectrum = field(repr=False)
    kept: np.ndarray = field(repr=False)   # (k,) bool, the cells that join a lobe
    first: np.ndarray = field(repr=False)  # for each kept cell, the first kept cell of its lobe

    @property
    def num_lobes(self) -> int:
        """Lobes of all spectra together."""
        return int(self.counts.sum())

    @cached_property
    def lobes(self) -> list:
        if not self.kept.any():  # a positive or NaN threshold keeps no cell
            return []
        power = self.pas.power_mw[self.kept]
        az, el = (a[self.kept] for a in self.pas.angles())
        spectrum = (self.pas.cells[self.kept] // GRID_CELLS).tolist()
        cells = np.column_stack((az, el))
        az_deg = az.astype(float)
        el_deg = el.astype(float)
        component = np.unique(self.first, return_inverse=True)[1]
        order = np.argsort(component, kind="stable")
        lobes = []
        for members in np.split(order, np.flatnonzero(np.diff(component[order])) + 1):
            powers = power[members]
            total = powers.sum()
            peak_cell = cells[members[np.argmax(powers)]]
            lobes.append((spectrum[members[0]], Lobe(
                index=0,
                cells=cells[members],
                peak_az_deg=int(peak_cell[0]),
                peak_el_deg=int(peak_cell[1]),
                power_mw=float(total),
                mean_az_deg=_circular_mean_deg(az_deg[members], powers),
                mean_el_deg=float(np.dot(powers, el_deg[members]) / total),
            )))
        lobes.sort(key=lambda pair: (pair[0], -pair[1].power_mw))
        rank: dict = {}
        for k, lobe in lobes:
            lobe.index = rank[k] = rank.get(k, 0) + 1
        return [lobe for _, lobe in lobes]


def extract_spatial_lobes(pas: PowerAngularSpectrum, slt_db: float = -10.0) -> LobeSet:
    """Find spatial lobes: connected regions above the lobe threshold.

    Cells with power within `slt_db` of their spectrum's peak are kept
    and grouped by 4-neighborhood adjacency (azimuth wraps, elevation
    does not); a cell without power never joins a lobe. One pass labels
    the kept cells of every spectrum of `pas` at once.
    """
    keys, power = pas.cells, pas.power_mw
    spectrum = keys // GRID_CELLS
    finite = np.isfinite(power)
    if not finite.all():  # inf power would make the mean directions NaN
        raise InvalidParamsError("spectrum power must be finite",
                                 int(spectrum[np.argmin(finite)]))
    starts = np.flatnonzero(np.diff(spectrum, prepend=-1))
    peak = np.maximum.reduceat(power, starts)
    if not len(keys):
        raise InvalidParamsError("spectrum has no power")
    if not (peak > 0).all():
        raise InvalidParamsError("spectrum has no power",
                                 int(spectrum[starts[np.argmin(peak > 0)]]))
    try:
        ratio = 10.0 ** (slt_db / 10.0)
    except OverflowError:  # a threshold above every finite power keeps no cell
        ratio = math.inf
    with np.errstate(over="ignore"):  # and so does one whose product overflows
        threshold = np.repeat(peak * ratio, np.diff(starts, append=len(keys)))
    kept = (power >= threshold) & (power > 0)
    first = _first_of_component(keys[kept])
    is_first = np.zeros(len(keys), dtype=np.int64)
    is_first[np.flatnonzero(kept)[first == np.arange(len(first))]] = 1
    return LobeSet(np.add.reduceat(is_first, starts), slt_db, pas, kept, first)


def _first_of_component(keys: np.ndarray) -> np.ndarray:
    """For each of the sorted `keys`, the index of the first key of its
    connected component under 4-adjacency.

    Elevation neighbours are el +- 1 within -90..90; azimuth neighbours
    are az +- 1, wrapping at the 359 -> 0 seam, within the key's
    spectrum. Components are labelled by min-label propagation with
    pointer jumping.
    """
    n = len(keys)
    az, el_index = np.divmod(keys % GRID_CELLS, EL_CELLS)
    tails, heads = [], []
    for neighbour, inside in (
            (keys + 1, el_index < EL_CELLS - 1),
            (np.where(az < AZ_CELLS - 1, keys + EL_CELLS, keys - (AZ_CELLS - 1) * EL_CELLS), True)):
        pos = np.minimum(np.searchsorted(keys, neighbour), n - 1)
        linked = (keys[pos] == neighbour) & inside
        tails.append(np.flatnonzero(linked))
        heads.append(pos[linked])
    a, b = np.concatenate(tails), np.concatenate(heads)
    label = np.arange(n)
    while True:
        low = np.minimum(label[a], label[b])
        lowered = label.copy()
        np.minimum.at(lowered, a, low)
        np.minimum.at(lowered, b, low)
        lowered = lowered[lowered]
        if np.array_equal(lowered, label):
            return label
        label = lowered


def _circular_mean_deg(angles_deg: np.ndarray, weights: np.ndarray) -> float:
    theta = np.deg2rad(angles_deg)
    vec = np.dot(weights, np.exp(1j * theta))
    return float(np.rad2deg(np.angle(vec)) % 360.0)


# --- distribution fitting -----------------------------------------------------

@dataclass
class FitReport:
    family: str
    params: dict
    log_likelihood: float
    n_samples: int
    extras: dict = field(default_factory=dict)


def fit_poisson_shifted(samples) -> FitReport:
    """MLE for counts distributed as 1 + Poisson(lambda)."""
    x = _check_counts(samples)
    shifted = x - 1
    lam = float(shifted.mean())
    loglik = float((xlogy(shifted, lam) - gammaln(shifted + 1) - lam).sum())
    return FitReport("poisson_shifted", {"lambda": lam}, loglik, len(x))


def fit_composite_subpath(samples) -> FitReport:
    """Closed-form MLE for the composite subpath-count distribution.

    With M' = count - 1 and q = e^{-1/mu_s}, P(M' = 0) = 1 - beta*q and
    P(M' = k >= 1) = beta*q * (1 - q) * q^(k-1): a Bernoulli(beta*q)
    times a geometric, so beta*q = n_pos/n and q = (T - n_pos)/T, where
    n_pos counts the positive M' and T is their sum. If that puts beta
    above 1 (q = 0 included) the maximum lies on beta = 1, at
    q = T/(n + T). If every M' is zero the weight is zero and the decay
    scale is undefined (reported as NaN).
    """
    x = _check_counts(samples)
    shifted = x - 1
    n = len(x)
    n_pos = int((shifted > 0).sum())
    total_pos = int(shifted.sum())
    n0 = n - n_pos

    if n_pos == 0:
        return FitReport("composite_subpath", {"beta": 0.0, "mu_s": math.nan}, 0.0, n)
    if n_pos * total_pos > n * (total_pos - n_pos):  # beta > 1
        beta, q = 1.0, total_pos / (n + total_pos)
    else:
        beta, q = n_pos * total_pos / (n * (total_pos - n_pos)), (total_pos - n_pos) / total_pos
    loglik = (n0 * math.log1p(-beta * q) + n_pos * math.log(beta)
              + total_pos * math.log(q) + n_pos * math.log1p(-q))
    return FitReport("composite_subpath", {"beta": beta, "mu_s": -1.0 / math.log(q)}, loglik, n)


def fit_exponential(samples) -> FitReport:
    """Closed-form exponential MLE (sample mean)."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise InvalidParamsError("no samples")
    if (x < 0).any():
        raise InvalidParamsError("exponential samples must be >= 0")
    mu = float(x.mean())
    loglik = float(-x.size * math.log(mu) - x.sum() / mu) if mu > 0 else math.inf
    return FitReport("exponential", {"mu": mu}, loglik, x.size)


def fit_lognormal(samples) -> FitReport:
    """Closed-form lognormal MLE: mean/std of log samples (population std)."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise InvalidParamsError("no samples")
    if (x <= 0).any():
        raise InvalidParamsError("lognormal samples must be > 0")
    logs = np.log(x)
    mu = float(logs.mean())
    sigma = float(logs.std())
    if sigma > 0:
        loglik = float(-logs.sum() - x.size * (math.log(sigma) + 0.5 * math.log(2 * math.pi))
                       - ((logs - mu) ** 2).sum() / (2 * sigma * sigma))
    else:
        loglik = math.inf
    return FitReport("lognormal", {"mu": mu, "sigma": sigma}, loglik, x.size)


# family -> (fitter, test that some sample lies outside the family's support,
#            CDF at x under the fitted params, as scipy evaluates expon and lognorm)
_FITTERS = {
    "exponential": (fit_exponential, lambda x: (x < 0).any(),
                    lambda x, mu: -expm1(-(x / mu))),
    "lognormal": (fit_lognormal, lambda x: (x <= 0).any(),
                  lambda x, mu, sigma: ndtr(np.log(x / math.exp(mu)) / max(sigma, 1e-12))),
}


def compare_distributions(samples) -> list:
    """Fit each candidate family, attach a KS statistic, rank by likelihood.

    Families whose support does not cover the data (lognormal on zeros)
    are skipped. Requires at least 20 samples.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 20:
        raise InvalidParamsError(f"need >= 20 samples, got {x.size}")
    reports = []
    for fit, outside_support, cdf in _FITTERS.values():
        if outside_support(x):
            continue
        report = fit(x)
        report.extras["ks_stat"] = _ks_stat(cdf(np.sort(x), **report.params))
        reports.append(report)
    reports.sort(key=lambda r: r.log_likelihood, reverse=True)
    return reports


def _ks_stat(cdf: np.ndarray) -> float:
    """One-sample KS distance of the CDF values of a sorted sample."""
    n = len(cdf)
    return float(max((np.arange(1.0, n + 1) / n - cdf).max(),
                     (cdf - np.arange(0.0, n) / n).max()))


def _check_counts(samples) -> np.ndarray:
    x = np.asarray(samples)
    if x.size == 0:
        raise InvalidParamsError("no samples")
    if (x < 1).any():
        raise InvalidParamsError("counts must be >= 1")
    return x.astype(np.int64)
