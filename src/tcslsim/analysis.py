"""Closed-loop channel analysis.

Partitions delay profiles into time clusters, extracts spatial lobes
from angular spectra, and re-fits the generating distribution families
by maximum likelihood, so simulated (or imported) channels can be
checked against the parameters that produced them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParamsError
from .generate import ChannelDrop
from .stats import PowerAngularSpectrum, PowerDelayProfile


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


def partition_time_clusters(pdp: PowerDelayProfile, mti_ns: float) -> ClusterPartition:
    """Greedy left-to-right grouping of taps into time clusters.

    A tap starts a new cluster when its delay gap to the previous tap
    reaches the minimum inter-cluster time void interval.
    """
    if not mti_ns > 0:  # also rejects NaN
        raise InvalidParamsError(f"mti must be > 0, got {mti_ns}")
    delays = pdp.delays_ns
    if len(delays) == 0:
        raise InvalidParamsError("no taps to partition")
    boundaries = np.flatnonzero(np.diff(delays) >= mti_ns) + 1
    return ClusterPartition(starts=np.concatenate(([0], boundaries)))


def inter_cluster_offsets(drop: ChannelDrop, mti_ns: float) -> np.ndarray:
    """Invert the cluster-delay construction of a generated drop.

    Returns the per-cluster delay offsets beyond the void interval,
    i.e. tau_n - tau_{n-1} - rho_last,{n-1} - mti for n >= 2. These are
    the sorted-draw offsets, so fitting them recovers the generating
    distribution's order statistics, not its raw parameter.
    """
    tau = drop.cluster_delays_ns
    last_intra = drop.intra_delays_ns[drop.cluster_start[1:] - 1]
    return tau[1:] - tau[:-1] - last_intra - mti_ns


def intra_delay_samples(drop: ChannelDrop) -> np.ndarray:
    """Intra-cluster delays excluding each cluster's structural zero.

    For exponential draws, the deltas above the cluster minimum are
    again independent exponentials with the same mean, so these samples
    estimate mu_rho without sorting bias.
    """
    return np.delete(drop.intra_delays_ns, drop.cluster_start)


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
    lobes: list
    slt_db: float

    @property
    def num_lobes(self) -> int:
        return len(self.lobes)


def extract_spatial_lobes(pas: PowerAngularSpectrum, slt_db: float = -10.0) -> LobeSet:
    """Find spatial lobes: connected regions above the lobe threshold.

    Cells with power within `slt_db` of the spectrum peak are kept and
    grouped by 4-neighborhood adjacency (azimuth wraps, elevation does
    not); a cell without power never joins a lobe. Lobes are returned
    strongest first, ties in the order of their first cell, with
    power-weighted mean directions.
    """
    peak = pas.power_mw.max(initial=0.0)
    if not peak > 0:
        raise InvalidParamsError("spectrum has no power")
    threshold = peak * 10.0 ** (slt_db / 10.0)
    kept = (pas.power_mw >= threshold) & (pas.power_mw > 0)
    if not kept.any():  # a positive or NaN threshold keeps no cell
        return LobeSet(lobes=[], slt_db=slt_db)
    power = pas.power_mw[kept]
    az, el = (a[kept] for a in pas.angles())

    cells = np.column_stack((az, el))
    az_deg = az.astype(float)
    el_deg = el.astype(float)
    component = _connected_cells(pas.cells[kept], az, el)
    order = np.argsort(component, kind="stable")
    lobes = []
    for members in np.split(order, np.flatnonzero(np.diff(component[order])) + 1):
        powers = power[members]
        total = powers.sum()
        peak_cell = cells[members[np.argmax(powers)]]
        lobes.append(Lobe(
            index=0,
            cells=cells[members],
            peak_az_deg=int(peak_cell[0]),
            peak_el_deg=int(peak_cell[1]),
            power_mw=float(total),
            mean_az_deg=_circular_mean_deg(az_deg[members], powers),
            mean_el_deg=float(np.dot(powers, el_deg[members]) / total),
        ))
    lobes.sort(key=lambda l: l.power_mw, reverse=True)
    for i, lobe in enumerate(lobes):
        lobe.index = i + 1
    return LobeSet(lobes=lobes, slt_db=slt_db)


def _connected_cells(flat: np.ndarray, az: np.ndarray, el: np.ndarray) -> np.ndarray:
    """Component number of each sorted flat cell (at azimuth `az` and
    elevation `el`) under 4-adjacency.

    Elevation neighbours are el +- 1 within -90..90; azimuth neighbours
    are az +- 1, wrapping at the 359 -> 0 seam. Components are numbered
    0, 1, ... in the order of their first cell.
    """
    n = len(flat)
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for neighbour, inside in ((PowerAngularSpectrum.cell_index(az, el + 1), el < 90),
                              (PowerAngularSpectrum.cell_index(az + 1, el), True)):
        pos = np.minimum(np.searchsorted(flat, neighbour), n - 1)
        linked = (flat[pos] == neighbour) & inside
        for i, j in zip(np.flatnonzero(linked).tolist(), pos[linked].tolist()):
            ri, rj = root(i), root(j)
            parent[max(ri, rj)] = min(ri, rj)
    return np.unique([root(i) for i in range(n)], return_inverse=True)[1]


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
    from scipy import stats as sps

    x = _check_counts(samples)
    shifted = x - 1
    lam = float(shifted.mean())
    loglik = float(sps.poisson.logpmf(shifted, lam).sum()) if lam > 0 else (
        0.0 if not shifted.any() else -math.inf)
    return FitReport("poisson_shifted", {"lambda": lam}, loglik, len(x))


def fit_composite_subpath(samples) -> FitReport:
    """MLE for the composite subpath-count distribution.

    The likelihood is profiled: for each weight beta the inner optimum
    over mu_s has a closed form (root of a quadratic in q = e^{-1/mu_s}),
    so the outer search is a fine beta grid followed by a bounded refine.
    If every shifted sample is zero the weight is zero and the decay
    scale is undefined (reported as NaN).
    """
    from scipy import optimize

    x = _check_counts(samples)
    shifted = x - 1
    n0 = int((shifted == 0).sum())
    pos = shifted[shifted > 0]
    n_pos = len(pos)
    total_pos = int(pos.sum())

    if n_pos == 0:
        return FitReport("composite_subpath", {"beta": 0.0, "mu_s": math.nan}, 0.0, len(x))

    def profile(beta):
        q = _composite_inner_q(beta, n0, n_pos, total_pos)
        return _composite_loglik(beta, q, n0, n_pos, total_pos), q

    betas = np.linspace(1e-3, 1.0, 1000)
    lls = np.array([profile(b)[0] for b in betas])
    best = int(np.argmax(lls))
    lo = betas[max(best - 1, 0)]
    hi = betas[min(best + 1, len(betas) - 1)]
    res = optimize.minimize_scalar(lambda b: -profile(b)[0], bounds=(lo, hi),
                                   method="bounded", options={"xatol": 1e-10})
    beta_hat = float(min(res.x, 1.0))
    ll_hat, q_hat = profile(beta_hat)
    if lls[best] > ll_hat:  # guard against a refine that did not improve
        beta_hat = float(betas[best])
        ll_hat, q_hat = profile(beta_hat)
    mu_s = -1.0 / math.log(q_hat)
    return FitReport("composite_subpath", {"beta": beta_hat, "mu_s": mu_s}, float(ll_hat), len(x))


def _composite_inner_q(beta: float, n0: int, n_pos: int, total_pos: int) -> float:
    # d/dq log-likelihood = 0 reduces to a*q^2 - b*q + c = 0
    a = beta * (n0 + n_pos + total_pos)
    b = n0 * beta + total_pos * (1.0 + beta) + n_pos
    c = float(total_pos)
    disc = max(b * b - 4.0 * a * c, 0.0)
    q = (b - math.sqrt(disc)) / (2.0 * a)
    return min(max(q, 1e-15), 1.0 - 1e-15)


def _composite_loglik(beta: float, q: float, n0: int, n_pos: int, total_pos: int) -> float:
    if beta <= 0.0:
        return -math.inf if n_pos else 0.0
    return (n0 * math.log1p(-beta * q) + n_pos * math.log(beta)
            + total_pos * math.log(q) + n_pos * math.log1p(-q))


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


# family -> (fitter, test that some sample lies outside the family's support)
_FITTERS = {
    "exponential": (fit_exponential, lambda x: (x < 0).any()),
    "lognormal": (fit_lognormal, lambda x: (x <= 0).any()),
}


def compare_distributions(samples, families=("exponential", "lognormal")) -> list:
    """Fit each candidate family, attach a KS statistic, rank by likelihood.

    Families whose support does not cover the data (lognormal on zeros)
    are skipped. Requires at least 20 samples.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 20:
        raise InvalidParamsError(f"need >= 20 samples, got {x.size}")
    reports = []
    for family in families:
        if family not in _FITTERS:
            raise InvalidParamsError(f"unknown family {family!r}")
        fit, outside_support = _FITTERS[family]
        if outside_support(x):
            continue
        report = fit(x)
        report.extras["ks_stat"] = _ks_stat(x, family, report.params)
        reports.append(report)
    reports.sort(key=lambda r: r.log_likelihood, reverse=True)
    return reports


def _ks_stat(x: np.ndarray, family: str, params: dict) -> float:
    from scipy import stats as sps

    if family == "exponential":
        dist = sps.expon(scale=params["mu"])
    else:
        dist = sps.lognorm(s=max(params["sigma"], 1e-12), scale=math.exp(params["mu"]))
    return float(sps.kstest(x, dist.cdf).statistic)


def _check_counts(samples) -> np.ndarray:
    x = np.asarray(samples)
    if x.size == 0:
        raise InvalidParamsError("no samples")
    if (x < 1).any():
        raise InvalidParamsError("counts must be >= 1")
    return x.astype(np.int64)
