import math

import numpy as np
import pytest
from scipy import ndimage
from scipy import stats as sps

import tcslsim as t
from tcslsim.analysis import (
    cluster_delay_samples,
    fit_composite_subpath,
    fit_exponential,
    fit_lognormal,
    fit_poisson_shifted,
    partition_time_clusters,
)
from tcslsim.errors import InvalidParamsError
from tcslsim.stats import AZ_CELLS, EL_CELLS, PowerAngularSpectrum
from tcslsim.generate import cluster_delays, sort_from_first
from tcslsim.randcore import RandomStream, composite_subpath

from conftest import (
    composite_pmf,
    dense_grid,
    drop_slices,
    drops_alone,
    make_config,
    spectrum_deposits,
)


# --- time-cluster partitioning -------------------------------------------------

@pytest.mark.parametrize("delays, mti, starts", [
    ([0.0, 6.0], 6.0, [0, 1]),                       # a gap of exactly the mti
    ([0.0, np.nextafter(6.0, 0.0)], 6.0, [0]),       # a gap just below it
    ([0.0, 6.0], np.nextafter(6.0, np.inf), [0]),
    ([0.0, 1.0, 7.0, 7.5], 6.0, [0, 2]),
    ([3.5], 6.0, [0]),                               # one tap
])
def test_a_gap_of_at_least_the_mti_starts_a_cluster(delays, mti, starts):
    part = partition_time_clusters(np.array(delays), mti)
    assert part.starts.tolist() == starts
    assert part.num_clusters == len(starts)


@pytest.mark.parametrize("delays, mti", [([], 6.0), ([0.0, 10.0], 0.0), ([0.0, 10.0], -1.0),
                                         ([0.0, 10.0], math.nan)],
                         ids=["no-taps", "zero-mti", "negative-mti", "nan-mti"])
def test_partition_rejects_an_empty_profile_and_a_non_positive_mti(delays, mti):
    with pytest.raises(InvalidParamsError):
        partition_time_clusters(np.array(delays), mti)


def test_partition_finds_every_generated_cluster_start(scenario_label):
    cfg = make_config(scenario_label, master_seed=24)
    params = t.resolved_params(cfg)
    block = t.generate_batch(cfg, 0, 100)
    for c, p in drop_slices(block):
        delays = block.excess_delays_ns()[p]
        order = np.argsort(delays, kind="stable")
        position = np.empty_like(order)
        position[order] = np.arange(len(order))
        # just below the mti, so that rounding in (tau + last) + (mti + delta)
        # cannot shrink a generated gap under the threshold
        part = partition_time_clusters(delays[order], params.mti - 1e-9)
        assert part.starts[0] == 0 and (np.diff(part.starts) > 0).all()
        cluster_start = block.cluster_start[c] - p.start
        assert set(position[cluster_start].tolist()) <= set(part.starts.tolist())


def test_cluster_delay_samples_of_a_hand_built_profile():
    delays = np.array([0.0, 1.0, 7.5, 8.0, 20.0])
    starts = partition_time_clusters(delays, 6.0).starts
    assert starts.tolist() == [0, 2, 4]
    intra, inter = cluster_delay_samples(delays, starts, 6.0)
    assert intra.tolist() == [1.0, 0.5]
    assert inter.tolist() == [0.5, 6.0]


def drop_delay_samples(block, mti):
    """(intra, inter) of each generated drop of `block`, whose excess
    delays are sorted and whose subpaths start each cluster at
    `cluster_start`."""
    delays = block.excess_delays_ns()
    return [cluster_delay_samples(delays[p], block.cluster_start[c] - p.start, mti)
            for c, p in drop_slices(block)]


def test_inter_cluster_offsets_recover_the_sorted_delay_draws(scenario_label):
    cfg = make_config(scenario_label, master_seed=21)
    params = t.resolved_params(cfg)
    block = t.generate_batch(cfg, 0, 100)
    samples = drop_delay_samples(block, params.mti)
    for index, clusters, (_, offsets) in zip(block.drop_index, block.num_clusters.tolist(),
                                             samples, strict=True):
        assert len(offsets) == clusters - 1
        assert (offsets >= 0).all()
        draws = cluster_delays(
            params, RandomStream(21, index, "cluster_delay").uniform(clusters))
        assert offsets == pytest.approx(sort_from_first(draws)[1:], rel=1e-9, abs=1e-9)


def test_intra_delay_samples_leave_out_each_cluster_zero(scenario_label):
    cfg = make_config(scenario_label, master_seed=22)
    params = t.resolved_params(cfg)
    block = t.generate_batch(cfg, 0, 100)
    per_cluster = np.split(block.intra_delays_ns, block.cluster_start[1:])
    for (c, _), (samples, _) in zip(drop_slices(block), drop_delay_samples(block, params.mti)):
        # (tau + rho) - tau rounds, so rho comes back to within an ulp of tau
        assert samples == pytest.approx(np.concatenate([rho[1:] for rho in per_cluster[c]]),
                                        rel=0, abs=1e-9)


def test_intra_delay_samples_estimate_mu_rho():
    cfg = make_config("28GHz-NLOS", master_seed=23)  # mu_rho 15.7
    params = t.resolved_params(cfg)
    samples = np.concatenate([intra for intra, _ in drop_delay_samples(
        t.generate_batch(cfg, 0, 300), params.mti)])
    assert len(samples) > 1000
    # exponential: the sample mean has standard error mu / sqrt(n); allow 5 of them
    assert abs(samples.mean() - 15.7) < 5 * 15.7 / np.sqrt(len(samples))


# --- spatial lobes against the dense-grid labelling ---------------------------

def dense_lobes(grid, slt_db):
    """Lobes as a dense labelling finds them: `ndimage.label` on the
    thresholded (360, 181) grid, then a union of the labels that touch
    across the azimuth 359 -> 0 seam, lobes strongest first."""
    mask = grid >= grid.max() * 10.0 ** (slt_db / 10.0)
    labels, _ = ndimage.label(mask)
    remap = {}

    def root(lab):
        while lab in remap:
            lab = remap[lab]
        return lab

    for e in np.flatnonzero(mask[0] & mask[-1]):
        a, b = root(labels[0, e]), root(labels[-1, e])
        if a != b:
            remap[max(a, b)] = min(a, b)
    merged = labels.copy()
    for lab in np.unique(labels[labels > 0]):
        merged[labels == lab] = root(lab)

    lobes = []
    for lab in np.unique(merged[merged > 0]):
        cells = np.argwhere(merged == lab)
        powers = grid[cells[:, 0], cells[:, 1]]
        total = powers.sum()
        peak = cells[np.argmax(powers)]
        theta = np.deg2rad(cells[:, 0].astype(float))
        lobes.append(dict(
            cells=np.column_stack((cells[:, 0], cells[:, 1] - 90)),
            peak_az_deg=int(peak[0]),
            peak_el_deg=int(peak[1]) - 90,
            power_mw=float(total),
            mean_az_deg=float(np.rad2deg(np.angle(np.dot(powers, np.exp(1j * theta)))) % 360.0),
            mean_el_deg=float(np.dot(powers, cells[:, 1] - 90.0) / total),
        ))
    lobes.sort(key=lambda lobe: lobe["power_mw"], reverse=True)
    return lobes


def assert_lobes_match_dense(pas, slt_db):
    got = t.extract_spatial_lobes(pas, slt_db)
    want = dense_lobes(dense_grid(pas), slt_db)
    assert got.slt_db == slt_db
    assert got.num_lobes == len(want)
    for i, (lobe, ref) in enumerate(zip(got.lobes, want)):
        assert lobe.index == i + 1
        assert lobe.cells.dtype == ref["cells"].dtype
        assert np.array_equal(lobe.cells, ref["cells"])
        for name in ("peak_az_deg", "peak_el_deg", "power_mw", "mean_az_deg", "mean_el_deg"):
            assert type(getattr(lobe, name)) is type(ref[name]), name
            assert getattr(lobe, name) == ref[name], name
    return got


def pas_from_cells(*cells, side="aoa"):
    """Spectrum of (az_deg, el_deg, power_mw) cells; a repeated cell adds up."""
    grid = np.zeros((AZ_CELLS, EL_CELLS))
    for az, el, power in cells:
        grid[az, el + 90] += power
    flat = np.flatnonzero(grid)
    return PowerAngularSpectrum(side=side, cells=flat, power_mw=grid.ravel()[flat])


@pytest.mark.parametrize("slt_db", [-3.0, -10.0, -30.0])
def test_sparse_lobes_match_dense_labelling_on_generated_spectra(scenario_label, slt_db):
    cfg = make_config(scenario_label, distance_m=(2.0, 40.0), master_seed=31)
    for drop in drops_alone(cfg, 0, 100):
        for side in ("aod", "aoa"):
            assert_lobes_match_dense(t.build_pas(drop, side), slt_db)


def lobe_fields(lobe) -> tuple:
    """A Lobe's fields, floats by their hex text."""
    return (lobe.index, lobe.cells.tolist(), lobe.peak_az_deg, lobe.peak_el_deg,
            *(getattr(lobe, name).hex() for name in ("power_mw", "mean_az_deg", "mean_el_deg")))


@pytest.mark.parametrize("slt_db", [-3.0, -10.0, -30.0])
def test_each_spectrum_of_a_set_has_the_lobes_it_has_alone(scenario_label, slt_db):
    cfg = make_config(scenario_label, distance_m=(2.0, 40.0), master_seed=47)
    block = t.generate_batch(cfg, 0, 60)
    drops = drops_alone(cfg, 0, 60)
    for side in ("aod", "aoa"):
        rank, cells, power = spectrum_deposits(block, side)
        # spectra numbered 0, 3, 6, ...: counts follow the spectra present
        got = t.extract_spatial_lobes(
            PowerAngularSpectrum.from_deposits(side, 3 * rank, cells, power), slt_db)
        alone = [t.extract_spatial_lobes(t.build_pas(drop, side), slt_db) for drop in drops]
        assert got.slt_db == slt_db
        assert got.counts.tolist() == [one.num_lobes for one in alone]
        assert len(got.lobes) == got.num_lobes == sum(one.num_lobes for one in alone)
        assert ([lobe_fields(lobe) for lobe in got.lobes]
                == [lobe_fields(lobe) for one in alone for lobe in one.lobes])


def test_a_set_of_spectra_is_refused_when_one_has_no_power_or_an_infinite_cell():
    cells = PowerAngularSpectrum.cell_index(np.array([10, 20]), np.array([0, 0]))
    for power, message in (([1.0, 0.0], "no power"), ([np.inf, 1.0], "must be finite")):
        pas = PowerAngularSpectrum.from_deposits("aoa", np.array([0, 1]), cells, np.array(power))
        with pytest.raises(InvalidParamsError, match=message):
            t.extract_spatial_lobes(pas)


def test_lobe_across_the_azimuth_seam_is_one_lobe():
    pas = pas_from_cells((358, 4, 1.0), (359, 4, 2.0), (0, 4, 3.0), (1, 4, 1.5), (180, 0, 0.5))
    lobes = assert_lobes_match_dense(pas, -10.0)
    assert lobes.num_lobes == 2
    assert lobes.lobes[0].cells.tolist() == [[0, 4], [1, 4], [358, 4], [359, 4]]
    assert lobes.lobes[0].peak_az_deg == 0
    assert lobes.lobes[0].mean_az_deg > 359.0 or lobes.lobes[0].mean_az_deg < 1.0


def test_regions_joined_only_through_the_seam_are_one_lobe():
    # az 0 holds two separate runs; the az 359 column joins both, and a
    # region at az 100 lies between them in cell order
    pas = pas_from_cells((0, 30, 1.0), (0, 34, 1.0), (100, 0, 1.0),
                         *((359, el, 1.0) for el in range(30, 35)))
    lobes = assert_lobes_match_dense(pas, -10.0)
    assert [len(lobe.cells) for lobe in lobes.lobes] == [7, 1]


def test_elevation_edges_do_not_wrap():
    # (10, +90) and (11, -90) are neighbours in flat cell order, and
    # (20, +90) and (20, -90) the two ends of one azimuth column
    pas = pas_from_cells((10, 90, 1.0), (11, -90, 2.0), (20, 90, 3.0), (20, -90, 4.0))
    lobes = assert_lobes_match_dense(pas, -10.0)
    assert lobes.num_lobes == 4


def test_equal_power_lobes_keep_the_order_of_their_first_cell():
    pas = pas_from_cells((200, 0, 1.0), (50, 10, 1.0), (359, 5, 1.0), (5, 5, 1.0))
    lobes = assert_lobes_match_dense(pas, -10.0)
    assert [lobe.peak_az_deg for lobe in lobes.lobes] == [5, 50, 200, 359]


def test_repeated_deposits_sum_into_one_cell():
    cfg = make_config("28GHz-NLOS", master_seed=12)
    drop = next(d for d in drops_alone(cfg, 0, 50) if d.num_subpaths[0] >= 4)
    n = drop.num_subpaths[0]
    drop.aoa_az_deg[:] = 10.0 + 0.1 * (np.arange(n) % 5)
    drop.aoa_el_deg[:] = [(-3.2, -2.9)[i % 2] for i in range(n)]
    pas = t.build_pas(drop, "aoa")
    assert pas.cells.tolist() == [PowerAngularSpectrum.cell_index(10, -3)]
    expected = 0.0
    for power in drop.powers_mw():
        expected += power
    assert pas.power_mw[0] == expected
    lobes = assert_lobes_match_dense(pas, -10.0)
    assert lobes.num_lobes == 1 and lobes.lobes[0].power_mw == expected


def test_cells_without_power_never_join_a_lobe():
    # -4000 dB puts the threshold at 0.0: a dense mask would take every
    # empty cell, and so one lobe of all 65,160 cells
    pas = pas_from_cells((10, 0, 1.0), (200, 45, 2.0))
    assert 10.0 ** (-4000 / 10.0) == 0.0
    lobes = t.extract_spatial_lobes(pas, -4000.0)
    assert [lobe.cells.tolist() for lobe in lobes.lobes] == [[[200, 45]], [[10, 0]]]
    # a stored zero-power cell does not bridge its two neighbours
    gap = PowerAngularSpectrum(side="aoa", cells=np.array([100, 101, 102]),
                               power_mw=np.array([1.0, 0.0, 1.0]))
    assert t.extract_spatial_lobes(gap, -4000.0).num_lobes == 2


@pytest.mark.filterwarnings("error")  # as under python -W error
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_spectrum_with_non_finite_power_is_refused_without_a_warning(bad):
    cells = PowerAngularSpectrum.cell_index(np.array([10, 10, 11]), np.array([0, 1, 0]))
    finite = PowerAngularSpectrum(side="aoa", cells=cells, power_mw=np.array([3.0, 1.0, 2.0]))
    assert t.extract_spatial_lobes(finite).num_lobes == 1
    # one overflowed cell (two 1e308 deposits) gave a NaN mean elevation
    pas = PowerAngularSpectrum(side="aoa", cells=cells, power_mw=np.array([bad, 1.0, 2.0]))
    with pytest.raises(InvalidParamsError, match="spectrum power must be finite"):
        t.extract_spatial_lobes(pas)


# --- fits against scipy.stats --------------------------------------------------

@pytest.mark.parametrize("lam", [0.0, 0.7, 4.3])
def test_poisson_log_likelihood_matches_scipy(lam):
    counts = 1 + np.random.default_rng(3).poisson(lam, 500)
    fit = fit_poisson_shifted(counts)
    assert fit.params["lambda"] == (counts - 1).mean()
    want = float(sps.poisson.logpmf(counts - 1, fit.params["lambda"]).sum())
    assert fit.log_likelihood == pytest.approx(want, rel=1e-12, abs=0.0)


def frozen(report):
    if report.family == "exponential":
        return sps.expon(scale=report.params["mu"])
    return sps.lognorm(s=report.params["sigma"], scale=math.exp(report.params["mu"]))


@pytest.mark.parametrize("sample", ["exponential", "lognormal", "with-zero"])
def test_ks_stat_matches_scipy_kstest(sample):
    rng = np.random.default_rng(9)
    x = {"exponential": rng.exponential(3.0, 300),
         "lognormal": rng.lognormal(1.0, 0.6, 300),
         "with-zero": np.append(rng.exponential(3.0, 299), 0.0)}[sample]
    reports = t.compare_distributions(x)
    assert len(reports) == (1 if sample == "with-zero" else 2)
    for report in reports:
        want = sps.kstest(x, frozen(report).cdf).statistic
        assert report.extras["ks_stat"] == pytest.approx(want, rel=1e-12), report.family


def test_closed_form_fits_match_scipy_fit():
    rng = np.random.default_rng(11)
    x = rng.exponential(2.5, 400)
    _, scale = sps.expon.fit(x, floc=0)
    assert fit_exponential(x).params["mu"] == pytest.approx(scale, rel=1e-12)
    y = rng.lognormal(0.4, 0.8, 400)
    s, _, scale = sps.lognorm.fit(y, floc=0)
    params = fit_lognormal(y).params
    assert params["sigma"] == pytest.approx(s, rel=1e-12)
    assert math.exp(params["mu"]) == pytest.approx(scale, rel=1e-12)


def test_compare_distributions_skips_families_whose_support_misses_a_sample():
    rng = np.random.default_rng(5)
    positive = rng.exponential(2.0, 40)
    assert sorted(r.family for r in t.compare_distributions(positive)) == [
        "exponential", "lognormal"]
    with_zero = np.append(positive, 0.0)
    assert [r.family for r in t.compare_distributions(with_zero)] == ["exponential"]
    assert t.compare_distributions(np.append(positive, -1.0)) == []


# --- subpath-count fit ---------------------------------------------------------

def composite_loglik(counts, beta, mu_s):
    """Log-likelihood of subpath counts under the conftest pmf oracle."""
    values, freq = np.unique(counts, return_counts=True)
    return float(sum(f * math.log(composite_pmf(int(v) - 1, beta, mu_s))
                     for v, f in zip(values, freq)))


@pytest.mark.parametrize("beta, mu_s", [(0.8, 2.4), (0.6, 4.1), (0.8, 1.0)])
def test_fit_composite_subpath_recovers_the_generating_pair(beta, mu_s):
    counts = RandomStream(41, 0, "composite_fit").sample(composite_subpath, beta, mu_s, size=20_000)
    fit = fit_composite_subpath(counts)
    assert fit.family == "composite_subpath" and fit.n_samples == 20_000
    # the maximum is at least the likelihood at the truth, up to rounding
    truth = composite_loglik(counts, beta, mu_s)
    assert fit.log_likelihood >= truth - 1e-9 * abs(truth)
    # standard errors from the spread of replicate fits on independent streams
    replicates = [fit_composite_subpath(
        RandomStream(41, k, "composite_fit").sample(composite_subpath, beta, mu_s, size=20_000)
    ).params for k in range(1, 21)]
    for name, true_value in (("beta", beta), ("mu_s", mu_s)):
        se = np.std([r[name] for r in replicates], ddof=1)
        assert abs(fit.params[name] - true_value) <= 5 * se, name


def test_fit_composite_subpath_on_all_ones_has_no_decay_scale():
    fit = fit_composite_subpath(np.ones(50, dtype=np.int64))
    assert fit.params["beta"] == 0.0
    assert math.isnan(fit.params["mu_s"])


@pytest.mark.parametrize("counts, beta, mu_s", [
    ([1, 3, 5, 9], 21 / 22, -1.0 / math.log(11 / 14)),  # interior maximum
    ([2, 2, 2], 1.0, 1.0 / math.log(2.0)),               # on the beta = 1 edge
])
def test_fit_composite_subpath_closed_form_on_hand_built_counts(counts, beta, mu_s):
    fit = fit_composite_subpath(counts)
    assert fit.params["beta"] == pytest.approx(beta, rel=1e-15)
    assert fit.params["mu_s"] == pytest.approx(mu_s, rel=1e-15)
    assert fit.log_likelihood == pytest.approx(composite_loglik(counts, beta, mu_s), rel=1e-12)


@pytest.mark.parametrize("beta, mu_s", [(0.8, 2.4), (0.6, 4.1), (0.8, 1.0)])
def test_fit_composite_subpath_is_at_least_every_grid_point(beta, mu_s):
    counts = RandomStream(41, 0, "composite_fit").sample(composite_subpath, beta, mu_s, size=20_000)
    fit = fit_composite_subpath(counts)
    shifted = counts - 1
    n0, n_pos, total = (shifted == 0).sum(), (shifted > 0).sum(), shifted.sum()
    b = np.linspace(0.005, 1.0, 200)[:, None]
    q = np.exp(-1.0 / np.linspace(0.05, 10.0, 200))[None, :]
    grid = (n0 * np.log1p(-b * q) + n_pos * np.log(b)
            + total * np.log(q) + n_pos * np.log1p(-q))
    assert fit.log_likelihood >= grid.max() - 1e-12 * abs(grid.max())
    # the grid formula is the pmf oracle's likelihood
    i, j = np.unravel_index(np.argmax(grid), grid.shape)
    assert grid[i, j] == pytest.approx(
        composite_loglik(counts, b[i, 0], -1.0 / math.log(q[0, j])), rel=1e-9)
