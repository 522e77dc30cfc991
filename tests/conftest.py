"""Shared fixtures and independent oracles used across the test suite."""

import math

import numpy as np
import pytest
from scipy import stats as sps

import tcslsim as t
from tcslsim.randcore import (
    RandomStream,
    composite_subpath,
    discrete_uniform,
    exponential,
    lognormal,
    normal,
    poisson_shifted,
    uniform,
)
from tcslsim.stats import AZ_CELLS, EL_CELLS

SCENARIO_LABELS = ("28GHz-LOS", "28GHz-NLOS", "140GHz-LOS", "140GHz-NLOS")


@pytest.fixture(params=SCENARIO_LABELS)
def scenario_label(request):
    return request.param


def make_config(label, **kwargs):
    defaults = dict(scenario=t.Scenario.parse(label), num_drops=1, master_seed=1234)
    defaults.update(kwargs)
    return t.validate_config(t.SimConfig(**defaults))


# --- independent oracles ------------------------------------------------------

def naive_circular_spread_deg(angles_deg, powers):
    """Reference angular-spread evaluation with plain Python sums.

    Applies the same resultant clamping rules as the library: below at
    1e-12, and within 1e-15 of unity counts as a single direction.
    """
    sx = sy = total = 0.0
    for a, p in zip(angles_deg, powers):
        sx += p * math.cos(math.radians(a))
        sy += p * math.sin(math.radians(a))
        total += p
    r = math.hypot(sx, sy) / total
    if r >= 1.0 - 1e-15:
        return 0.0
    r = max(r, 1e-12)
    return math.degrees(math.sqrt(-2.0 * math.log(r)))


def composite_pmf(k, beta, mu_s):
    """P(M' = k) for the composite extra-subpath count."""
    q = math.exp(-1.0 / mu_s)
    p = beta * q**k * (1.0 - q)
    if k == 0:
        p += 1.0 - beta
    return p


# each inverse CDF's law as scipy.stats gives it: a CDF for the
# continuous families, a pmf of the drawn values for the discrete ones
_CDF_ORACLES = {
    uniform: lambda a, b: sps.uniform(loc=a, scale=b - a).cdf,
    normal: lambda mu, sigma: sps.norm(loc=mu, scale=sigma).cdf,
    exponential: lambda mu: sps.expon(scale=mu).cdf,
    lognormal: lambda mu, sigma: sps.lognorm(s=sigma, scale=math.exp(mu)).cdf,
}
_PMF_ORACLES = {
    poisson_shifted: lambda lam: lambda k: sps.poisson.pmf(k - 1, lam),
    discrete_uniform: lambda lo, hi: lambda k: np.where(
        (k >= lo) & (k <= hi), 1.0 / (hi - lo + 1), 0.0),
    composite_subpath: lambda beta, mu_s: lambda k: np.array(
        [composite_pmf(int(v) - 1, beta, mu_s) for v in np.atleast_1d(k)]),
}


def family_gof_pvalue(inverse, *params, n=100_000, seed=99, label="gof"):
    """Goodness-of-fit p-value of n stream draws of `inverse(u, *params)`
    against the analytic law.

    Continuous families use the KS test, discrete families a chi-square
    with expected counts merged to at least five per bin.
    """
    draws = RandomStream(seed, 0, label).sample(inverse, *params, size=n)
    if inverse in _CDF_ORACLES:
        return sps.kstest(draws, _CDF_ORACLES[inverse](*params)).pvalue
    return _chi2_pvalue(draws, _PMF_ORACLES[inverse](*params), n)


def dense_grid(pas):
    """The dense (360, 181) array of a sparse spectrum, grid[az, el + 90]."""
    grid = np.zeros(AZ_CELLS * EL_CELLS)
    grid[pas.cells] = pas.power_mw
    return grid.reshape(AZ_CELLS, EL_CELLS)


def drops_alone(config, start, count):
    """Drops start .. start + count - 1 of `config`, each generated
    alone, as a block of one."""
    return [t.generate_drop(config, i) for i in range(start, start + count)]


def drop_slices(block):
    """(cluster slice, subpath slice) of each drop of `block`."""
    c, p = block.cluster_offsets.tolist(), block.subpath_offsets.tolist()
    return [(slice(*c[d:d + 2]), slice(*p[d:d + 2])) for d in range(len(block))]


def spectrum_deposits(block, side):
    """(drop rank, flat cell, mW) of every subpath of `block` on one
    side, drop after drop in subpath order, each at its nearest cell."""
    az = np.rint(getattr(block, f"{side}_az_deg")).astype(np.int64) % AZ_CELLS
    el = np.clip(np.rint(getattr(block, f"{side}_el_deg")).astype(np.int64), -90, 90)
    ranks = np.repeat(np.arange(len(block)), np.diff(block.subpath_offsets))
    return ranks, az * EL_CELLS + el + 90, block.powers_mw()


def _chi2_pvalue(draws, pmf, n):
    values, counts = np.unique(draws, return_counts=True)
    expected = n * np.asarray(pmf(values), dtype=float)
    # fold the unobserved tail into the last bin, then merge small bins
    tail = n - expected.sum()
    expected[-1] += tail
    obs, exp = _merge_small_bins(counts.astype(float), expected)
    return sps.chisquare(obs, exp).pvalue


def _merge_small_bins(obs, exp, min_expected=5.0):
    merged_obs, merged_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, exp):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0:
        if merged_obs:
            merged_obs[-1] += acc_o
            merged_exp[-1] += acc_e
        else:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
    return np.array(merged_obs), np.array(merged_exp)
