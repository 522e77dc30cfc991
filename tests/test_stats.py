import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tcslsim as t
from tcslsim import stats
from tcslsim.campaign import METRIC_NAMES, run_campaign
from tcslsim.errors import InvalidParamsError
from tcslsim.generate import BLOCK_DROPS, generate_batch
from tcslsim.randcore import profile_sums
from tcslsim.stats import GRID_CELLS, PowerAngularSpectrum, delay_spreads, drop_metrics, summarize

from conftest import (
    SCENARIO_LABELS,
    dense_grid,
    drop_slices,
    drops_alone,
    make_config,
    naive_circular_spread_deg,
    reference_metrics,
    spectrum_deposits,
)


def single_path_config(label="140GHz-LOS", **kwargs):
    """One cluster, one subpath: the whole budget lands on a single tap."""
    overrides = {"n_c_max": "1", "beta_s": "0.0"}
    overrides.update(kwargs.pop("overrides", {}))
    return make_config(label, overrides=overrides, **kwargs)


def test_rms_delay_spread_single_tap_is_zero():
    assert t.rms_delay_spread(np.array([12.0]), np.array([3.0])) == 0.0


def test_rms_delay_spread_two_equal_taps():
    assert t.rms_delay_spread([0.0, 10.0], [1.0, 1.0]) == pytest.approx(5.0, rel=1e-12)


def test_rms_delay_spread_scale_invariance():
    delays = np.array([0.0, 4.0, 9.5, 30.0])
    powers = np.array([1.0, 0.5, 0.25, 0.01])
    a = t.rms_delay_spread(delays, powers)
    b = t.rms_delay_spread(delays, powers * 1e7)
    assert a == pytest.approx(b, rel=1e-12)


def test_rms_delay_spread_empty_profile():
    with pytest.raises(InvalidParamsError, match="no taps"):
        t.rms_delay_spread(np.array([]), np.array([]))


@pytest.mark.parametrize("spread", [t.rms_delay_spread, t.circular_angular_spread])
@pytest.mark.parametrize("values, weights", [([0.0, 1.0, 2.0], [1.0, 1.0]),
                                             ([0.0, 1.0], [1.0, 1.0, 1.0])])
def test_a_profile_whose_values_and_weights_differ_in_length_is_refused(spread, values, weights):
    with pytest.raises(InvalidParamsError, match="differ in length"):
        spread(values, weights)


def test_build_pas_nearest_cell():
    cfg = single_path_config(master_seed=5)
    drop = t.generate_drop(cfg)
    drop.aoa_az_deg[0] = 10.4
    drop.aoa_el_deg[0] = 5.2
    pas = t.build_pas(drop, "aoa")
    assert dense_grid(pas)[10, 5 + 90] == pytest.approx(drop.rx_power_mw[0], rel=1e-12)
    assert np.count_nonzero(dense_grid(pas)) == 1


def test_build_pas_conserves_power(scenario_label):
    cfg = make_config(scenario_label, master_seed=37)
    drop = t.generate_drop(cfg)
    for side in ("aod", "aoa"):
        pas = t.build_pas(drop, side)
        total = drop.powers_mw().sum()
        assert abs(pas.power_mw.sum() - total) / total < 1e-9


def test_build_pas_same_direction_powers_add():
    cfg = make_config("28GHz-LOS", overrides={"n_c_max": "1", "beta_s": "1.0",
                                              "mu_s": "9.0", "sigma_phi_aoa": "0",
                                              "sigma_theta_aoa": "0", "l_aoa_max": "1"},
                      master_seed=11)
    drop = t.generate_drop(cfg)
    pas = t.build_pas(drop, "aoa")
    assert np.count_nonzero(dense_grid(pas)) == 1
    assert dense_grid(pas).max() == pytest.approx(drop.rx_power_mw[0], rel=1e-9)


def test_azimuth_wrap_rounds_to_cell_zero():
    cfg = single_path_config(master_seed=5)
    drop = t.generate_drop(cfg)
    drop.aoa_az_deg[0] = 359.7
    pas = t.build_pas(drop, "aoa")
    assert dense_grid(pas)[0, round(drop.aoa_el_deg[0]) + 90] > 0


def test_deposits_by_drop_rank_hold_each_drops_spectrum_at_its_rank(scenario_label):
    cfg = make_config(scenario_label, distance_m=(2.0, 40.0), master_seed=43)
    block = generate_batch(cfg, 0, 60)
    drops = drops_alone(cfg, 0, 60)
    for side in ("aod", "aoa"):
        pas = PowerAngularSpectrum.from_deposits(side, *spectrum_deposits(block, side))
        assert pas.side == side and (np.diff(pas.cells) > 0).all()
        rank = pas.cells // GRID_CELLS
        assert set(rank.tolist()) == set(range(60))
        for k, drop in enumerate(drops):
            alone = t.build_pas(drop, side)
            assert pas.cells[rank == k].tolist() == (alone.cells + k * GRID_CELLS).tolist()
            assert ([p.hex() for p in pas.power_mw[rank == k].tolist()]
                    == [p.hex() for p in alone.power_mw.tolist()])
            az, el = (a[rank == k] for a in pas.angles())
            assert (az.tolist(), el.tolist()) == tuple(a.tolist() for a in alone.angles())


def test_circular_spread_single_direction():
    assert t.circular_angular_spread([123.4], [2.0]) == 0.0
    assert t.circular_angular_spread([10.0, 10.0, 10.0], [1.0, 2.0, 3.0]) == 0.0


def test_circular_spread_two_orthogonal_equal_powers():
    expected = math.degrees(math.sqrt(math.log(2.0)))
    assert t.circular_angular_spread([0.0, 90.0], [1.0, 1.0]) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(47.70, abs=0.01)


def test_circular_spread_rotation_invariance():
    angles = np.array([10.0, 40.0, 200.0, 355.0])
    powers = np.array([1.0, 0.3, 0.6, 0.1])
    base = t.circular_angular_spread(angles, powers)
    for shift in (13.7, 90.0, 180.0, 271.3):
        assert t.circular_angular_spread((angles + shift) % 360.0, powers) == pytest.approx(
            base, rel=1e-9)


def test_circular_spread_matches_naive_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(500):
        n = rng.integers(1, 40)
        angles = rng.uniform(0, 360, n)
        powers = rng.uniform(1e-6, 5.0, n)
        a = t.circular_angular_spread(angles, powers)
        b = naive_circular_spread_deg(angles, powers)
        assert a == pytest.approx(b, rel=1e-10, abs=1e-10)


def test_circular_spread_empty_inputs():
    with pytest.raises(InvalidParamsError, match="no angles"):
        t.circular_angular_spread([], [])
    with pytest.raises(InvalidParamsError, match="no power"):
        t.circular_angular_spread([1.0], [0.0])


def test_global_as_zero_when_single_lobe_no_offsets():
    cfg = make_config("140GHz-NLOS", overrides={
        "l_aod_max": "1", "l_aoa_max": "1",
        "sigma_phi_aod": "0", "sigma_theta_aod": "0",
        "sigma_phi_aoa": "0", "sigma_theta_aoa": "0"}, master_seed=41)
    drop = t.generate_drop(cfg)
    metrics = drop_metrics(drop)
    assert metrics["as_aod_az_deg"] == [0.0]
    assert metrics["as_aoa_az_deg"] == [0.0]


def test_one_direction_gives_exactly_zero_angular_spreads_without_a_warning():
    # every subpath of every drop at its one lobe's mean, on both sides
    cfg = make_config("28GHz-NLOS", overrides={
        "l_aod_max": "1", "l_aoa_max": "1",
        "sigma_phi_aod": "0", "sigma_theta_aod": "0",
        "sigma_phi_aoa": "0", "sigma_theta_aoa": "0"}, master_seed=47)
    for drop in drops_alone(cfg, 0, 8):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            metrics = drop_metrics(drop)
        assert [metrics[name][0].hex() for name in METRIC_NAMES[1:]] == [(0.0).hex()] * 4


def test_a_drop_without_power_in_a_block_is_refused():
    block = generate_batch(make_config("140GHz-LOS", master_seed=48), 0, 5)
    _, p = drop_slices(block)[2]
    block.power_fractions[p] = 0.0
    with pytest.raises(InvalidParamsError, match="no power"):
        drop_metrics(block)


def test_global_as_bit_identical_under_tx_power():
    a = t.generate_drop(make_config("28GHz-NLOS", master_seed=61, tx_power_dbm=0.0))
    b = t.generate_drop(make_config("28GHz-NLOS", master_seed=61, tx_power_dbm=20.0))
    assert drop_metrics(a) == drop_metrics(b)


def test_drop_metrics_match_individual_ops():
    cfg = make_config("28GHz-LOS", master_seed=83)
    drop = t.generate_drop(cfg)
    metrics = drop_metrics(drop)
    weights = drop.power_fractions
    assert metrics["rms_ds_ns"] == [t.rms_delay_spread(drop.excess_delays_ns(), weights)]
    for side in ("aod", "aoa"):
        for plane in ("az", "el"):
            angles = getattr(drop, f"{side}_{plane}_deg")
            assert metrics[f"as_{side}_{plane}_deg"][0] == pytest.approx(
                naive_circular_spread_deg(angles, weights), rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("label, distance_m", [
    *((label, 10.0) for label in SCENARIO_LABELS), ("28GHz-NLOS", (5.0, 45.0))])
def test_block_metrics_equal_the_single_drop_kernels_in_every_bit(label, distance_m):
    # the campaign takes drop_metrics once per block: two full blocks and
    # a partial one; each value must equal the reference on the drop's own arrays
    n = 2 * BLOCK_DROPS + 41
    config = make_config(label, distance_m=distance_m, num_drops=n, master_seed=17)
    records = run_campaign(config).records
    expected = [row for block in t.generate_drops(config) for row in reference_metrics(block)]
    assert len(records) == len(expected) == n
    for index, (record, want) in enumerate(zip(records, expected, strict=True)):
        got = [getattr(record, name) for name in METRIC_NAMES]
        assert [v.hex() for v in got] == [v.hex() for v in want], index


def test_drop_metrics_of_any_split_are_the_columns_of_the_whole():
    cfg = make_config("140GHz-NLOS", master_seed=3)
    whole = drop_metrics(generate_batch(cfg, 0, 60))
    assert sorted(whole) == sorted(METRIC_NAMES)
    parts = [drop_metrics(generate_batch(cfg, a, b - a))
             for a, b in ((0, 1), (1, 17), (17, 60))]
    for name in METRIC_NAMES:
        assert len(whole[name]) == 60
        assert all(type(v) is float for v in whole[name])
        assert [v.hex() for v in whole[name]] == [v.hex() for p in parts for v in p[name]]


@pytest.mark.parametrize("start, count", [(0, 1), (0, BLOCK_DROPS), (2 * BLOCK_DROPS, 41)])
@pytest.mark.parametrize("distance, overrides", [(10.0, None), ((5.0, 45.0), None),
                                                 (10.0, {"sigma_u": "0"})])
def test_delay_spreads_are_the_rms_ds_column_of_drop_metrics_in_every_bit(
        scenario_label, distance, overrides, start, count):
    cfg = make_config(scenario_label, distance_m=distance, overrides=overrides or {},
                      master_seed=31)
    block = generate_batch(cfg, start, count)
    spreads, = delay_spreads([block])
    assert spreads.dtype == np.float64 and spreads.shape == (count,)
    assert ([v.hex() for v in spreads.tolist()]
            == [v.hex() for v in drop_metrics(block)["rms_ds_ns"]])


def wide_values(rng, size):
    """Floats of every scale: mostly 2**-30 to 2**30, some subnormal or
    near the top of the range, some +0.0 and -0.0, either sign."""
    values = rng.uniform(1.0, 2.0, size) * 2.0 ** rng.integers(-30, 31, size)
    kind = rng.integers(0, 20, size)
    values[kind == 0] = 2.0 ** -1074 * rng.integers(1, 2**20, np.count_nonzero(kind == 0))
    values[kind == 1] = rng.uniform(1.0, 2.0, np.count_nonzero(kind == 1)) * 2.0 ** 480
    values[kind == 2] = 0.0
    values[kind == 3] = -0.0
    return np.where(rng.random(size) < 0.5, -values, values)


def wide_complex(rng, size):
    """Complex values with `wide_values` parts, signed zeros kept."""
    values = np.empty(size, complex)
    values.real, values.imag = wide_values(rng, size), wide_values(rng, size)
    return values


def shuffled_lengths(rng, groups):
    """Profile lengths, `count` of each `n` of `groups`, in random order."""
    return rng.permutation(np.repeat(*np.array(list(groups.items())).T))


def hex_of(value) -> tuple:
    value = complex(value)
    return value.real.hex(), value.imag.hex()


# group sizes from 1 to several hundred, the edges of OpenBLAS's
# unrolled ddot and numpy's pairwise blocks among the lengths
DOT_GROUPS = {**{n: 1 + n % 7 for n in range(201)},
              1: 400, 2: 300, 3: 250, 31: 120, 32: 200, 33: 90, 64: 60, 128: 40, 129: 30}


@pytest.mark.parametrize("seed", [1, 2])
def test_grouped_dots_equal_each_slices_dot_in_every_bit(seed):
    rng = np.random.default_rng(seed)
    lengths = shuffled_lengths(rng, DOT_GROUPS)
    size = int(lengths.sum())
    weights = wide_values(rng, size)
    # the last two are views that step over every other value
    columns = (wide_values(rng, size), wide_complex(rng, size),
               np.repeat(wide_values(rng, size), 2)[::2], np.repeat(wide_complex(rng, size), 2)[::2])
    totals, dots = profile_sums(weights, lengths, columns)
    assert [d.dtype for d in dots] == [np.float64, np.complex128] * 2
    starts = np.cumsum(lengths) - lengths
    for i, (a, n) in enumerate(zip(starts.tolist(), lengths.tolist())):
        w = weights[a:a + n]
        assert totals[i].hex() == w.sum().hex()
        for column, got in zip(columns, dots):
            x = column[a:a + n].copy()  # laid contiguous, as the slice of a block column
            want = (w.astype(complex) if x.dtype == complex else w).dot(x)
            assert hex_of(got[i]) == hex_of(want), (i, n, x.dtype)


def pinned_magnitudes(rng, size, magnitudes):
    """Floats of `wide_values`, or decimal magnitudes: `wide` 1e-300 to
    1e300, `signed` those of either sign with some -0.0, `fractions`
    power shares from 1e-6 to 1."""
    if magnitudes == "binary":
        return wide_values(rng, size)
    if magnitudes == "fractions":
        return rng.uniform(0.0, 1.0, size) * 10.0 ** rng.uniform(-6, 0, size)
    values = rng.uniform(1.0, 10.0, size) * 10.0 ** rng.integers(-300, 300, size)
    if magnitudes == "signed":
        values *= rng.choice([-1.0, 1.0], size)
        values[rng.random(size) < 0.05] = -0.0
    return values


@pytest.mark.parametrize("lead", [0, 1, 3, 5, 8, 13])
def test_grouped_row_sums_equal_each_slices_sum_in_every_bit(lead):
    # pins numpy's summation order, on which replay depends: every
    # length 0-200, each three times, and lengths 1-40, each in a group
    # of 300-1,000 rows, at offsets the shuffle and a leading profile of
    # `lead` terms vary
    rng = np.random.default_rng(100 + lead)
    groups = {**dict.fromkeys(range(201), 3),
              **{n: int(rng.integers(300, 1001)) for n in range(1, 41)}}
    lengths = np.append(lead, shuffled_lengths(rng, groups))
    starts = np.cumsum(lengths) - lengths
    for magnitudes in ("binary", "wide", "signed", "fractions"):
        weights = pinned_magnitudes(rng, int(lengths.sum()), magnitudes)
        totals, dots = profile_sums(weights, lengths)
        assert dots == []
        assert ([v.hex() for v in totals.tolist()]
                == [weights[a:a + n].sum().hex() for a, n in zip(starts.tolist(), lengths.tolist())])


def test_each_block_is_reduced_in_one_grouped_pass(monkeypatch):
    calls = []

    def counting(weights, lengths, columns, _original=stats.profile_sums):
        calls.append((len(lengths), len(columns)))
        return _original(weights, lengths, columns)

    block = generate_batch(make_config("28GHz-NLOS", distance_m=(5.0, 45.0), master_seed=7),
                           0, BLOCK_DROPS)
    monkeypatch.setattr(stats, "profile_sums", counting)
    drop_metrics(block)
    assert calls == [(BLOCK_DROPS, 6)]
    delay_spreads([block, block, block])
    assert calls == [(BLOCK_DROPS, 6), (3 * BLOCK_DROPS, 2)]


def test_summarize_medians():
    assert summarize([1.0, 2.0, 3.0]).median == 2.0
    assert summarize([1.0, 2.0, 3.0, 4.0]).median == 2.0  # lower-middle rule
    assert summarize([3.0, 1.0, 2.0]).median == 2.0


def test_summarize_cdf_reaches_one():
    s = summarize([5.0, 1.0, 3.0])
    assert s.cdf_probs[-1] == 1.0
    assert s.cdf_grid.tolist() == [1.0, 3.0, 5.0]
    assert s.cdf_probs.tolist() == [pytest.approx(1 / 3), pytest.approx(2 / 3), 1.0]


def test_summarize_empty():
    with pytest.raises(InvalidParamsError, match="no values"):
        summarize([])


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_summarize_median_is_order_statistic(values):
    s = summarize(values)
    data = sorted(values)
    assert s.median == data[(len(data) - 1) // 2]
    assert s.cdf_probs[-1] == 1.0


@pytest.mark.parametrize("distance", [10.0, (5.0, 45.0)])
def test_drop_metrics_of_a_block_equal_the_kernels_on_each_drop_in_every_bit(scenario_label,
                                                                             distance):
    cfg = make_config(scenario_label, distance_m=distance, master_seed=29)
    block = generate_batch(cfg, 40, BLOCK_DROPS)
    of_block = drop_metrics(block)
    of_drops = [list(values) for values in zip(*reference_metrics(block))]
    for name, want in zip(METRIC_NAMES, of_drops, strict=True):
        assert all(type(v) is float for v in of_block[name])
        assert [v.hex() for v in of_block[name]] == [v.hex() for v in want], name
