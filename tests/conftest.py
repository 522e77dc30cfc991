"""Shared fixtures and independent oracles used across the test suite."""

import json
import math

import numpy as np
import pytest
from scipy import stats as sps

import tcslsim as t
from tcslsim.campaign import REFERENCE_RMS_DS, REPRODUCE_DISTANCE_M, run_campaign
from tcslsim.errors import InvalidParamsError
from tcslsim.generate import SIDES
from tcslsim.pathloss import fspl_1m
from tcslsim.randcore import (
    RandomStream,
    composite_subpath,
    discrete_uniform,
    exponential,
    lognormal,
    log10,
    normal,
    poisson_shifted,
    uniform,
)
from tcslsim.stats import AZ_CELLS, EL_CELLS, METRIC_NAMES

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


def reference_delay_spread(delays_ns, weights):
    """RMS delay spread of one profile, one scalar operation at a time:
    the total by `.sum()`, the weighted sums by `np.dot`, the rest in
    Python floats. Every value of the library's spreads equals it."""
    total = weights.sum()
    if not total > 0:
        raise InvalidParamsError("profile has no power")
    mean = float(np.dot(weights, delays_ns) / total)
    second = float(np.dot(weights, delays_ns**2) / total)
    return math.sqrt(max(second - mean * mean, 0.0))


def reference_angular_spread(angles_deg, weights):
    """Angular spread of one profile in degrees, one scalar operation at
    a time, with the library's clamps; see `reference_delay_spread`."""
    total = weights.sum()
    if not total > 0:
        raise InvalidParamsError("profile has no power")
    phasors = np.exp(1j * np.deg2rad(angles_deg))
    resultant = float(np.abs(np.dot(weights.astype(complex), phasors)) / total)
    if resultant >= 1.0 - 1e-15:
        return 0.0
    resultant = max(resultant, 1e-12)
    return math.degrees(math.sqrt(-2.0 * math.log(resultant)))


def reference_metrics(block):
    """METRIC_NAMES values of each drop of `block`, one row per drop,
    from the reference spreads on copies of the drop's slices."""
    delays = block.excess_delays_ns()
    rows = []
    for _, p in drop_slices(block):
        weights = block.power_fractions[p].copy()
        rows.append([reference_delay_spread(delays[p].copy(), weights)]
                    + [reference_angular_spread(getattr(block, name[3:])[p].copy(), weights)
                       for name in METRIC_NAMES[1:]])
    return rows


def path_loss_ci(frequency_hz, distance_m, ple, shadow_db=0.0):
    """Close-in path loss of one drop in dB, one scalar operation at a
    time: FSPL at 1 m plus 10*ple dB per decade of distance, plus the
    shadow fading. `link_budget`'s path loss equals it in every bit."""
    return fspl_1m(frequency_hz) + 10.0 * ple * math.log10(distance_m) + shadow_db


def dbm_to_mw(power_dbm):
    """A power in mW, one scalar operation: inf above the float range,
    0.0 below it. `link_budget`'s received power equals it in every bit."""
    try:
        return 10.0 ** (power_dbm / 10.0)
    except OverflowError:
        return math.inf


def reference_links(block):
    """Each drop's drops.jsonl `link` object, by its keys: the drop's
    columns, the block's transmit power and its scenario's frequency
    and 1 m free-space loss."""
    frequency_hz = block.scenario.frequency_hz
    return [{"distance_m": distance, "frequency_hz": frequency_hz,
             "fspl_1m_db": fspl_1m(frequency_hz), "path_loss_db": path_loss,
             "rx_power_dbm": rx_dbm, "rx_power_mw": rx_mw, "shadow_fading_db": shadow,
             "tx_power_dbm": block.tx_power_dbm}
            for distance, path_loss, rx_dbm, rx_mw, shadow in zip(
                block.distance_m, block.path_loss_db, block.rx_power_dbm, block.rx_power_mw,
                block.shadow_fading_db, strict=True)]


def assert_same_text(text, expected, what):
    """`text == expected`, without pytest's diff of the two texts, which
    runs for minutes on megabytes: a failure names the line and column
    of the first difference and shows 30 characters either side of it."""
    if text != expected:
        at = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b),
                  min(len(text), len(expected)))
        line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
        around = slice(max(at - 30, 0), at + 30)
        pytest.fail(f"{what}, line {line}, column {column}: "
                    f"{text[around]!r} != {expected[around]!r}")


def reference_jsonl_rows(block):
    """drops.jsonl rows of `block` as a nested dict of Python lists per
    drop, written by `json.dumps(sort_keys=True)`: the writer's bytes
    must equal these."""
    subpath = {name: getattr(block, name) for name in (
        "intra_delays_ns", "phase_rad", "aod_az_deg", "aod_el_deg",
        "aoa_az_deg", "aoa_el_deg", "aod_lobe_index", "aoa_lobe_index")}
    subpath["subpath_power_mw"] = block.powers_mw()
    subpath["subpath_power_fraction"] = block.power_fractions
    starts = [*block.cluster_start.tolist(), int(block.subpath_offsets[-1])]
    delays = block.cluster_delays_ns.tolist()
    fractions = block.cluster_power_fractions.tolist()
    first_cluster = block.cluster_offsets.tolist()
    lobes = {side: (block.lobe_offsets[side].tolist(), block.lobe_az_deg[side].tolist(),
                    block.lobe_el_deg[side].tolist()) for side in SIDES}
    rows = []
    for d, link in enumerate(reference_links(block)):
        a, b = first_cluster[d:d + 2]
        p = starts[a]
        columns = {name: values[p:starts[b]].tolist() for name, values in subpath.items()}
        drop = {
            "scenario": block.scenario.value,
            "drop_index": block.drop_index[d],
            "master_seed": block.master_seed,
            "distance_m": block.distance_m[d],
            "link": link,
            "clusters": [
                {**{name: values[starts[n] - p:starts[n + 1] - p]
                    for name, values in columns.items()},
                 "index": n - a + 1,
                 "excess_delay_ns": delays[n],
                 "power_mw": fractions[n] * link["rx_power_mw"],
                 "power_fraction": fractions[n]}
                for n in range(a, b)],
        }
        for side, (offsets, az, el) in lobes.items():
            drop[f"{side}_lobes"] = [
                {"index": i - offsets[d] + 1, "mean_az_deg": az[i], "mean_el_deg": el[i]}
                for i in range(offsets[d], offsets[d + 1])]
        rows.append(json.dumps(drop, sort_keys=True) + "\n")
    return "".join(rows)


def reference_pdp_rows(block):
    """pdp.csv rows of `block`, one subpath at a time in block order:
    the drop index, the cluster's number in its drop and the subpath's
    in its cluster (from 1), then its excess and absolute delay (ns),
    power (mW) and power (dBm, -inf for 0 mW), each float by
    `format(x, ".9g")`. The writer's bytes must equal these."""
    excess = block.excess_delays_ns().tolist()
    powers = block.powers_mw()
    with np.errstate(divide="ignore"):
        dbm = (10.0 * log10(powers)).tolist()
    powers = powers.tolist()
    starts = [*block.cluster_start.tolist(), int(block.subpath_offsets[-1])]
    first_cluster = block.cluster_offsets.tolist()
    rows = []
    for d, first_arrival in enumerate(block.propagation_delay_ns.tolist()):
        for c, n in enumerate(range(first_cluster[d], first_cluster[d + 1]), start=1):
            for k, i in enumerate(range(starts[n], starts[n + 1]), start=1):
                floats = (excess[i], first_arrival + excess[i], powers[i], dbm[i])
                rows.append(f"{block.drop_index[d]},{c},{k},"
                            + ",".join(format(x, ".9g") for x in floats) + "\n")
    return "".join(rows)


def reference_cdf_rows(aggregates):
    """cdf.csv rows of a campaign's aggregates, one value at a time:
    each metric's sorted values with their empirical CDF, each float by
    `format(x, ".9g")`, metrics in METRIC_NAMES order."""
    rows = []
    for name in METRIC_NAMES:
        summary = aggregates[name]
        for value, prob in zip(summary.cdf_grid.tolist(), summary.cdf_probs.tolist(),
                               strict=True):
            rows.append(f"{name},{format(value, '.9g')},{format(prob, '.9g')}\n")
    return "".join(rows)


def reference_reproduce(num_drops, master_seed, workers):
    """`reproduce_report(...).to_dict()` as four `run_campaign` calls
    made it, one per scenario: the median of the `rms_ds_ns` of each
    campaign's records against the reference table."""
    rows = []
    for scenario in t.ALL_SCENARIOS:
        config = t.SimConfig(scenario=scenario, distance_m=REPRODUCE_DISTANCE_M,
                             num_drops=num_drops, master_seed=master_seed, workers=workers)
        spreads = sorted(r.rms_ds_ns for r in run_campaign(config).records)
        median = spreads[(len(spreads) - 1) // 2]  # the lower middle for even counts
        ref = REFERENCE_RMS_DS[scenario.value]
        passed = abs(median - ref["simulated"]) <= ref["tolerance"] * ref["simulated"]
        rows.append({"scenario": scenario.value, "simulated_median_ns": median,
                     "reference_simulated_ns": ref["simulated"],
                     "reference_measured_ns": ref["measured"], "tolerance": ref["tolerance"],
                     "passed": passed})
    return {"num_drops": num_drops, "master_seed": master_seed, "rows": rows}


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
