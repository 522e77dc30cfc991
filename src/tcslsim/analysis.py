"""Closed-loop channel analysis on plain arrays.

Partitions sorted tap delays into time clusters and inverts the
cluster-delay construction into intra-cluster delays and inter-cluster
offsets, extracts spatial lobes from sparse angular spectra, and re-fits
the generating distribution families by maximum likelihood, so simulated
(or imported) channels can be checked against the parameters that
produced them. Every fit is closed form; the log-likelihoods and KS
distances are written out from their formulas. Their special functions
are scipy's Cephes code ported to numpy at the end of this module, bit
for bit, so analysis imports no scipy.

A whole exported file is analysed as one block: the partition takes the
delays of every drop at once, and one labelling pass finds the lobes of
every spectrum a `PowerAngularSpectrum` holds. A single profile or
spectrum is the block of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import InvalidParamsError
from .randcore import phasors, profile_sums
from .stats import AZ_CELLS, EL_CELLS, GRID_CELLS, PowerAngularSpectrum


# --- time-cluster partitioning ---------------------------------------------

@dataclass
class ClusterPartition:
    """Time clusters of a delay-sorted tap list.

    `starts` holds the index of each cluster's first tap, ascending from
    0, as `DropBlock.cluster_start` does for a block of one drop:
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
        sizes = np.bincount(component)
        # each lobe's power, its weighted elevations and its resultant, all lobes at once
        totals, (el_sums, resultants) = profile_sums(
            power[order], sizes, (el_deg[order], phasors(az_deg[order])))
        lobes = []
        for i, members in enumerate(np.split(order, np.cumsum(sizes)[:-1])):
            peak_cell = cells[members[np.argmax(power[members])]]
            lobes.append((spectrum[members[0]], Lobe(
                index=0,
                cells=cells[members],
                peak_az_deg=int(peak_cell[0]),
                peak_el_deg=int(peak_cell[1]),
                power_mw=float(totals[i]),
                mean_az_deg=float(np.rad2deg(np.angle(resultants[i])) % 360.0),
                mean_el_deg=float(el_sums[i] / totals[i]),
            )))
        lobes.sort(key=lambda pair: (pair[0], -pair[1].power_mw))
        rank: dict = {}
        for k, lobe in lobes:
            lobe.index = rank[k] = rank.get(k, 0) + 1
        return [lobe for _, lobe in lobes]


DEFAULT_SLT_DB = -10.0  # the spatial lobe threshold, below each spectrum's peak


def extract_spatial_lobes(pas: PowerAngularSpectrum, slt_db: float = DEFAULT_SLT_DB) -> LobeSet:
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


# --- distribution fitting -----------------------------------------------------

@dataclass
class FitReport:
    family: str
    params: dict
    log_likelihood: float
    n_samples: int
    ks_stat: float | None = None  # set by `compare_distributions`


def fit_poisson_shifted(samples) -> FitReport:
    """MLE for counts distributed as 1 + Poisson(lambda)."""
    x = _check_counts(samples)
    shifted = x - 1
    lam = float(shifted.mean())
    loglik = float((_xlogy(shifted, lam) - _gammaln(shifted + 1) - lam).sum())
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
    # a sum past the float range can hold a finite mean, so samples from
    # 2**960 on are scaled below it by a power of two, which is exact
    scale = 2.0 ** min(0, 960 - math.frexp(x.max())[1])
    scaled = x * scale
    mu = float(scaled.mean()) / scale
    if not math.isfinite(mu):  # a sample that is not finite
        raise InvalidParamsError("exponential sample mean is not finite")
    loglik = float(-x.size * math.log(mu) - scaled.sum() / (mu * scale)) if mu > 0 else math.inf
    return FitReport("exponential", {"mu": mu}, loglik, x.size)


# the largest log-sample std of a point mass: equal samples whose logs
# round apart give about 1e-13 (eps times log x up to 745)
POINT_MASS_SIGMA = 1e-12


def fit_lognormal(samples) -> FitReport:
    """Closed-form lognormal MLE: mean/std of log samples (population
    std). A sigma of at most POINT_MASS_SIGMA is a point mass, whose
    likelihood is infinite."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise InvalidParamsError("no samples")
    if (x <= 0).any():
        raise InvalidParamsError("lognormal samples must be > 0")
    logs = np.log(x)
    mu = float(logs.mean())
    sigma = float(logs.std())
    if sigma > POINT_MASS_SIGMA:
        loglik = float(-logs.sum() - x.size * (math.log(sigma) + 0.5 * math.log(2 * math.pi))
                       - ((logs - mu) ** 2).sum() / (2 * sigma * sigma))
    else:
        loglik = math.inf
    return FitReport("lognormal", {"mu": mu, "sigma": sigma}, loglik, x.size)


MIN_FIT_SAMPLES = 20  # fewest samples `compare_distributions` fits

# family -> (fitter, CDF at x under the fitted params with `exp` for
# Cephes's libm exp, as scipy evaluates expon and lognorm)
_FITTERS = {
    "exponential": (fit_exponential, lambda x, exp, mu: -_expm1(-(x / mu), exp)),
    "lognormal": (fit_lognormal,
                  lambda x, exp, mu, sigma: _ndtr(np.log(x / math.exp(mu)) / sigma, exp)),
}


def compare_distributions(samples) -> list:
    """Fit each candidate family, attach a KS statistic, rank by likelihood.

    A family is skipped when its fit refuses the data (lognormal on
    zeros) or its likelihood is not finite (a point mass). Requires at
    least MIN_FIT_SAMPLES samples.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < MIN_FIT_SAMPLES:
        raise InvalidParamsError(f"need >= {MIN_FIT_SAMPLES} samples, got {x.size}")
    reports = []
    for fit, cdf in _FITTERS.values():
        try:
            report = fit(x)
        except InvalidParamsError:  # a sample outside the family's support
            continue
        if math.isfinite(report.log_likelihood):
            # a ratio x / exp(mu) that underflows or overflows gives a CDF of 0 or 1
            with np.errstate(divide="ignore", over="ignore"):
                report.ks_stat = _ks_stat(partial(cdf, **report.params), np.sort(x))
            reports.append(report)
    reports.sort(key=lambda r: r.log_likelihood, reverse=True)
    return reports


KS_MARGIN = 1e-12  # far above the 1e-15 by which numpy's exp moves a CDF value


def _ks_stat(cdf, x: np.ndarray) -> float:
    """One-sample KS distance of a sorted sample under `cdf(x, exp)`, as
    with glibc's exp throughout: numpy's, within 1 ulp of it, finds the
    points within KS_MARGIN of the largest distance, and glibc's redoes them."""
    n = len(x)
    above, below = np.arange(1.0, n + 1) / n, np.arange(0.0, n) / n
    near = cdf(x, np.exp)
    gap = np.maximum(above - near, near - below)
    at = ~(gap < gap.max() - KS_MARGIN)  # every point if a distance is NaN
    exact = cdf(x[at], _exp_each)
    return float(max((above[at] - exact).max(), (exact - below[at]).max()))


def _check_counts(samples) -> np.ndarray:
    x = np.asarray(samples)
    if x.size == 0:
        raise InvalidParamsError("no samples")
    if (x < 1).any():
        raise InvalidParamsError("counts must be >= 1")
    return x.astype(np.int64)


# --- special functions ---------------------------------------------------------
# Cephes (S. L. Moshier, Methods and Programs for Mathematical Functions,
# 1989) as scipy.special 1.17 evaluates it, bit for bit: its coefficients,
# as shortest decimals, highest power first; its order of + - * /, which
# numpy never fuses; and glibc's exp and log where it calls libm. `exp` is
# glibc's (`_exp_each`) or, for a first pass, numpy's, within 1 ulp of it.
# A leading 1.0 is p1evl's unstated one (1.0 * x is exact).

_LGAM_A = (0.0008116141674705085, -0.0005950619042843014, 0.0007936503404577169,
           -0.002777777777300997, 0.08333333333333319)
_LGAM_B = (0.0007936507936507937, -0.002777777777777778, 0.08333333333333333)  # from 1000 on
_EXPM1_P = (0.00012617719307481058, 0.030299440770744195, 1.0)
_EXPM1_Q = (3.0019850513866446e-06, 0.002524483403496841, 0.22726554820815503, 2.0)
_ERF_T = (9.604973739870516, 90.02601972038427, 2232.005345946843, 7003.325141128051,
          55592.30130103949)
_ERF_U = (1.0, 33.56171416475031, 521.3579497801527, 4594.323829709801, 22629.000061389095,
          49267.39426086359)
_ERFC_P = (2.461969814735305e-10, 0.5641895648310689, 7.463210564422699, 48.63719709856814,
           196.5208329560771, 526.4451949954773, 934.5285271719576, 1027.5518868951572,
           557.5353353693994)
_ERFC_Q = (1.0, 13.228195115474499, 86.70721408859897, 354.9377788878199, 975.7085017432055,
           1823.9091668790973, 2246.3376081871097, 1656.6630919416134, 557.5353408177277)
_ERFC_R = (0.5641895835477551, 1.275366707599781, 5.019050422511805, 6.160210979930536,
           7.4097426995044895, 2.9788666537210022)
_ERFC_S = (1.0, 2.2605286322011726, 9.396035249380015, 12.048953980809666, 17.08144507475659,
           9.608968090632859, 3.369076451000815)
_SQRTH = 0.7071067811865476  # sqrt(1/2)
_MAXLOG = 709.782712893384  # log of the largest float


def _polevl(x, coef):
    """Horner's rule (Cephes polevl), in place after its first step."""
    y = coef[0] * x + coef[1]
    for c in coef[2:]:
        y *= x
        y += c
    return y


def _exp_each(x) -> np.ndarray:
    """glibc's exp of each of `x` (math.exp), inf past the float range."""
    return np.fromiter((math.inf if v > _MAXLOG else math.exp(v) for v in x.tolist()),
                       float, len(x))


def _xlogy(k, lam: float) -> np.ndarray:
    """xlogy(k, lam) of counts k and a mean lam >= 0: 0 wherever k is 0."""
    return np.where(k == 0, 0.0, k * (math.log(lam) if lam > 0 else 0.0))


def _gammaln(x) -> np.ndarray:
    """gammaln of integers x >= 1 (Cephes lgam), once per distinct x."""
    values, inverse = np.unique(x, return_inverse=True)
    return np.array([_lgam(float(v)) for v in values.tolist()])[inverse]


def _lgam(x: float) -> float:
    if x < 13.0:  # the log of the exact product (x - 1)(x - 2)...2
        return math.log(float(math.factorial(int(x) - 1)))
    # Stirling's series, log(2 pi) / 2 its constant; past 1e8, where Cephes
    # returns q alone, the sum is q too, its last term below half q's ulp
    q = (x - 0.5) * math.log(x) - x + 0.9189385332046727
    return q + _polevl(1.0 / (x * x), _LGAM_A if x < 1000.0 else _LGAM_B) / x


def _expm1(x, exp) -> np.ndarray:
    """exp(x) - 1 past |x| = 0.5 (and for inf and NaN), a rational function within."""
    c = np.minimum(np.maximum(x, -0.5), 0.5)
    r = c * _polevl(c * c, _EXPM1_P)
    r = r / (_polevl(c * c, _EXPM1_Q) - r)
    return np.where(np.abs(x) <= 0.5, r + r, exp(x) - 1.0)


def _ndtr(a, exp) -> np.ndarray:
    """The standard normal CDF of a = x / sqrt(1/2): 1/2 + erf(x)/2 within
    |x| < sqrt(1/2), else erfc(|x|)/2, and 1 less that for x > 0."""
    x = a * _SQRTH
    z = np.abs(x)
    w = np.minimum(z, 1.0)  # erf's range; erf(-x) is -erf(x) in every bit
    erf = w * _polevl(w * w, _ERF_T) / _polevl(w * w, _ERF_U)
    erfc = 1.0 - erf
    tail = np.flatnonzero(~(z < 1.0))
    if tail.size:
        erfc[tail] = _erfc_tail(z[tail], exp)
    half = 0.5 * erfc
    y = np.where(z < _SQRTH, 0.5 + 0.5 * np.copysign(erf, x), np.where(x > 0, 1.0 - half, half))
    y[np.isnan(a)] = math.nan  # scipy's NaN, whatever the sign
    return y


def _erfc_tail(z, exp):
    """Cephes erfc of z >= 1: from P/Q below 8 and R/S from 8 on, and 0
    where exp(-z * z) underflows (from 26.7 on)."""
    w = np.minimum(z, 27.0)
    e = exp(-w * w)
    y = e * _polevl(np.minimum(w, 8.0), _ERFC_P) / _polevl(np.minimum(w, 8.0), _ERFC_Q)
    far = w >= 8.0
    if far.any():
        y[far] = e[far] * _polevl(w[far], _ERFC_R) / _polevl(w[far], _ERFC_S)
    y[-w * w < -_MAXLOG] = 0.0
    return y
