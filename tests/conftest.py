"""Shared fixtures and independent oracles used across the test suite."""

import math

import numpy as np
import pytest
from scipy import stats as sps

import tcslsim as t
from tcslsim.randcore import (
    CompositeSubpath,
    DiscreteUniform,
    Exponential,
    Lognormal,
    Normal,
    PoissonShifted,
    RandomStream,
    Uniform,
)

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


def family_gof_pvalue(spec, n=100_000, seed=99, label="gof"):
    """Goodness-of-fit p-value of n stream draws against the analytic law.

    Continuous families use the KS test, discrete families a chi-square
    with expected counts merged to at least five per bin.
    """
    draws = RandomStream(seed, 0, label).sample(spec, n)
    if isinstance(spec, Uniform):
        return sps.kstest(draws, sps.uniform(loc=spec.a, scale=spec.b - spec.a).cdf).pvalue
    if isinstance(spec, Normal):
        return sps.kstest(draws, sps.norm(loc=spec.mu, scale=spec.sigma).cdf).pvalue
    if isinstance(spec, Exponential):
        return sps.kstest(draws, sps.expon(scale=spec.mu).cdf).pvalue
    if isinstance(spec, Lognormal):
        return sps.kstest(draws, sps.lognorm(s=spec.sigma, scale=math.exp(spec.mu)).cdf).pvalue
    if isinstance(spec, PoissonShifted):
        return _chi2_pvalue(draws, lambda k: sps.poisson.pmf(k - 1, spec.lam), n)
    if isinstance(spec, DiscreteUniform):
        span = spec.hi - spec.lo + 1
        return _chi2_pvalue(draws, lambda k: np.where(
            (k >= spec.lo) & (k <= spec.hi), 1.0 / span, 0.0), n)
    if isinstance(spec, CompositeSubpath):
        return _chi2_pvalue(
            draws, lambda k: np.array([composite_pmf(int(v) - 1, spec.beta, spec.mu_s)
                                       for v in np.atleast_1d(k)]), n)
    raise AssertionError(f"no oracle for {spec!r}")


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
