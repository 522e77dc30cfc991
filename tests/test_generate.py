import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tcslsim as t
from tcslsim import generate
from tcslsim.generate import (
    BLOCK_DROPS,
    cluster_counts,
    cluster_delays,
    delay_profiles,
    generate_batch,
    lobe_mean_angles,
    place_cluster_delays,
    ragged,
    sort_from_first,
)
from tcslsim.campaign import CSV_FLOAT, DROP_FILES, _jsonl_rows, _pdp_rows
from tcslsim.errors import ConfigError, InvalidParamsError
from tcslsim.stats import METRIC_NAMES, drop_metrics
from tcslsim.pathloss import SPEED_OF_LIGHT_M_PER_NS
from tcslsim.randcore import (
    RandomStream,
    composite_subpath,
    derive_keys,
    exponential,
    normal,
    profile_sums,
)
from tcslsim.scenario import apply_overrides, resolved_params

from conftest import (
    SCENARIO_LABELS,
    dbm_to_mw,
    drop_slices,
    drops_alone,
    make_config,
    reference_links,
    reference_metrics,
)


def params_for(label, **overrides):
    p = t.lookup_params(t.Scenario.parse(label))
    return apply_overrides(p, overrides) if overrides else p


def drops_for(label, count, master_seed=1234, **overrides):
    """Drops 0 .. count - 1 as one block."""
    cfg = make_config(label, master_seed=master_seed, overrides=overrides)
    return generate_batch(cfg, 0, count)


def per_cluster(block, values):
    """Split a per-subpath array into one array per cluster."""
    return np.split(values, block.cluster_start[1:])


def lobe_counts(block, side):
    """Lobes of each drop on one side."""
    return np.diff(block.lobe_offsets[side])


def jsonl_drops(block):
    """Each drop's drops.jsonl object."""
    return [json.loads(line) for line in _jsonl_rows(block).splitlines()]


def void_gaps(block):
    """Each cluster's start after the previous cluster's last subpath,
    in the drop: the gaps the void interval bounds."""
    gaps = []
    for c, _ in drop_slices(block):
        tau = block.cluster_delays_ns[c]
        gaps.append(tau[1:] - (tau[:-1] + block.intra_delays_ns[block.cluster_start[c][1:] - 1]))
    return np.concatenate(gaps)


def five_sigma(p, n):
    """Five standard errors of a frequency p estimated from n draws."""
    return 5.0 * math.sqrt(p * (1.0 - p) / n)


# --- step 1: number of time clusters ---------------------------------------

def test_num_clusters_los_uniform_frequencies():
    params = params_for("28-los")
    draws = cluster_counts(params, RandomStream(1, 0, "nc").uniform(1_000_000))
    for k in range(1, 6):
        assert abs(np.mean(draws == k) - 0.2) < 0.005
    counts = drops_for("28GHz-LOS", 500, master_seed=1).num_clusters
    assert set(counts.tolist()) == set(range(1, 6))


def test_num_clusters_140_nlos_mean():
    draws = cluster_counts(params_for("140-nlos"), RandomStream(2, 0, "nc").uniform(200_000))
    assert abs(draws.mean() - 2.3) < 0.01


def test_num_clusters_28_nlos_single_cluster_probability():
    draws = cluster_counts(params_for("28-nlos"), RandomStream(3, 0, "nc").uniform(200_000))
    assert abs(np.mean(draws == 1) - math.exp(-3.4)) < 0.002
    assert draws.min() >= 1


# --- step 2: subpath counts --------------------------------------------------

def subpath_counts(params, stream, n):
    return stream.sample(composite_subpath, params.beta_s, params.mu_s, size=n)


def test_num_subpaths_140_nlos_single_subpath_probability():
    # beta 1.0, mu_s 1.0
    draws = subpath_counts(params_for("140-nlos"), RandomStream(4, 0, "m"), 1_000_000)
    assert abs(np.mean(draws == 1) - (1 - math.exp(-1))) < 0.005


def test_num_subpaths_beta_zero_all_one():
    draws = subpath_counts(params_for("140-nlos", beta_s="0.0"), RandomStream(4, 0, "m"), 10_000)
    assert (draws == 1).all()


def test_num_subpaths_28_nlos_mean_matches_analytic():
    # beta 0.6, mu_s 4.1
    draws = subpath_counts(params_for("28-nlos"), RandomStream(5, 0, "m"), 1_000_000)
    q = math.exp(-1.0 / 4.1)
    analytic = 0.6 * q / (1.0 - q)  # mean of the composite extra count
    sample_mean = (draws - 1).mean()
    assert abs(sample_mean - analytic) / analytic < 0.01


# --- step 3: intra-cluster delays ---------------------------------------------

def test_intra_delays_single_subpath_is_zero():
    block = drops_for("28GHz-LOS", 50, master_seed=6, beta_s="0.0")
    assert np.array_equal(block.num_subpaths, block.num_clusters)
    assert (block.intra_delays_ns == 0.0).all()


def test_sort_from_first_example():
    assert sort_from_first([5.0, 2.0, 9.0], [3]).tolist() == [0.0, 3.0, 7.0]
    assert sort_from_first([5.0, 2.0, 9.0, 4.0], [2, 2]).tolist() == [0.0, 3.0, 0.0, 5.0]


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_sort_from_first_properties(values):
    out = sort_from_first(values, [len(values)])
    assert out[0] == 0.0
    assert (np.diff(out) >= 0).all()


# delays with ties and +inf; no -0.0, whose order against 0.0 is the sort's choice
DELAYS = st.one_of(st.sampled_from([0.0, 1.0, 2.5, math.inf]),
                   st.floats(min_value=0.0, max_value=1e6))


@st.composite
def segments(draw, values=DELAYS):
    """Segment lengths of at least 1 and values for them, end to end."""
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    return lengths, draw(st.lists(values, min_size=sum(lengths), max_size=sum(lengths)))


def hexes(values) -> list:
    return [float(v).hex() for v in values]


def split(values, lengths) -> list:
    return np.split(np.asarray(values, dtype=float), np.cumsum(lengths)[:-1])


@given(segments())
@settings(max_examples=100, deadline=None)
def test_sort_from_first_sorts_each_segment_from_its_minimum(case):
    lengths, values = case
    with np.errstate(invalid="ignore"):  # a segment of +inf alone re-anchors to NaN
        expected = np.concatenate([np.sort(x) - x.min() for x in split(values, lengths)])
        assert hexes(sort_from_first(values, lengths)) == hexes(expected)


@given(segments(), st.lists(DELAYS, min_size=48, max_size=48),
       st.sampled_from([0.0, 6.0, 25.0]))
@settings(max_examples=100, deadline=None)
def test_place_cluster_delays_is_the_recurrence_of_each_drop(case, last, mti):
    lengths, draws = case
    expected = []
    for x, gaps in zip(split(draws, lengths), split(last[:len(draws)], lengths)):
        ordered = sorted(x.tolist())
        tau = [0.0]
        for n in range(1, len(ordered)):
            tau.append((tau[-1] + gaps[n - 1]) + (mti + (ordered[n] - ordered[0])))
        expected += tau
    with np.errstate(invalid="ignore"):
        got = place_cluster_delays(draws, last[:len(draws)], lengths, mti)
    assert hexes(got) == hexes(expected)


@given(st.lists(st.integers(0, 5), max_size=10))
@settings(max_examples=100, deadline=None)
def test_ragged_numbers_each_element_as_a_loop_does(lengths):
    starts, segment, index = [], [], []
    for s, n in enumerate(lengths):
        starts.append(sum(lengths[:s]))
        for i in range(n):
            segment.append(s)
            index.append(i)
    assert [a.tolist() for a in ragged(lengths)] == [starts, segment, index]


def test_intra_delays_nondecreasing_and_anchored():
    block = drops_for("28GHz-NLOS", 200, master_seed=7)
    for intra in per_cluster(block, block.intra_delays_ns):
        assert intra[0] == 0.0
        assert (np.diff(intra) >= 0).all()


# --- step 4: cluster delays ---------------------------------------------------

def test_place_cluster_delays_example():
    tau = place_cluster_delays([5.0, 10.0, 30.0], [4.0, 2.0, 0.0], [3], mti=6.0)
    assert tau.tolist() == [0.0, 15.0, 48.0]
    # a block: the drops' clusters end to end, three of the first and one of the second
    block = place_cluster_delays([5.0, 10.0, 30.0, 7.0], [4.0, 2.0, 0.0, 1.0], [3, 1], mti=6.0)
    assert block.tolist() == [0.0, 15.0, 48.0, 0.0]


def test_compose_single_cluster_is_zero():
    block = drops_for("140GHz-LOS", 20, master_seed=8, n_c_max="1")
    assert block.cluster_delays_ns.tolist() == [0.0] * 20


def test_compose_respects_void_interval():
    mti = params_for("140-nlos").mti
    block = drops_for("140GHz-NLOS", 1000, master_seed=9, lambda_c="3.0", mu_s="3.0")
    assert (block.num_clusters >= 4).sum() > 100
    assert (void_gaps(block) >= mti).all()


# --- steps 5-6: powers ----------------------------------------------------------

def test_cluster_power_single_cluster_gets_everything():
    block = drops_for("140GHz-LOS", 20, master_seed=10, n_c_max="1")
    assert block.cluster_power_fractions.tolist() == [1.0] * 20
    for drop, rx_mw in zip(jsonl_drops(block), block.rx_power_mw, strict=True):
        assert drop["clusters"][0]["power_mw"] == rx_mw


def test_cluster_power_decay_ratio():
    block = drops_for("28GHz-NLOS", 50, master_seed=11, sigma_z="0.0")  # gamma_cluster 20.1
    assert (block.num_clusters > 1).sum() > 25
    for c, _ in drop_slices(block):
        frac = block.cluster_power_fractions[c]
        tau = block.cluster_delays_ns[c]
        expected = np.exp(-(tau - tau[0]) / 20.1)
        assert frac / frac[0] == pytest.approx(expected, rel=1e-12)
        assert frac.sum() == pytest.approx(1.0, rel=1e-12)


def test_subpath_power_decay_ratio():
    block = drops_for("140GHz-NLOS", 50, master_seed=12, sigma_u="0.0")  # gamma_subpath 2.0
    assert (block.num_subpaths > block.num_clusters).sum() > 25
    for n, (intra, frac) in enumerate(zip(per_cluster(block, block.intra_delays_ns),
                                          per_cluster(block, block.power_fractions))):
        assert frac / frac[0] == pytest.approx(np.exp(-intra / 2.0), rel=1e-12)
        assert frac.sum() == pytest.approx(block.cluster_power_fractions[n], rel=1e-12)


def test_subpath_power_single_subpath_gets_cluster_power():
    block = drops_for("28GHz-LOS", 20, master_seed=13, beta_s="0.0")
    assert np.array_equal(block.power_fractions, block.cluster_power_fractions)


# --- step 7: phases --------------------------------------------------------------

def test_phases_range_and_isotropy():
    phases = drops_for("28GHz-NLOS", 4000, master_seed=14).phase_rad
    n = len(phases)
    assert n > 40_000
    assert phases.min() >= 0.0
    assert phases.max() < 2.0 * math.pi
    # the resultant of n uniform phases has mean square 1/n
    assert abs(np.exp(1j * phases).mean()) < 4.0 / math.sqrt(n)
    assert abs(np.cos(phases).mean()) < 5.0 / math.sqrt(2 * n)


# --- steps 8-9: spatial lobes ------------------------------------------------------

def test_num_lobes_28_nlos_aoa_frequencies():
    n = 6000
    counts = lobe_counts(drops_for("28GHz-NLOS", n, master_seed=15), "aoa")  # l_aoa_max 3
    for k in (1, 2, 3):
        assert abs(np.mean(counts == k) - 1 / 3) < five_sigma(1 / 3, n)


def test_num_lobes_ranges_and_degenerate():
    block = drops_for("140GHz-LOS", 500, master_seed=16)
    for side in ("aod", "aoa"):
        assert set(lobe_counts(block, side).tolist()) <= {1, 2}
    block = drops_for("140GHz-LOS", 50, master_seed=16, l_aod_max="1", l_aoa_max="1")
    for side in ("aod", "aoa"):
        assert (lobe_counts(block, side) == 1).all()
    assert (block.aod_lobe_index == 1).all() and (block.aoa_lobe_index == 1).all()


def lobes_from_stream(params, side, counts, seed):
    counts = np.asarray(counts)
    stream = RandomStream(seed, 0, "la")
    return lobe_mean_angles(params, side, counts, stream.uniform(counts.sum()),
                            stream.uniform(counts.sum()))


def test_lobe_sectors_partition_the_circle():
    params = params_for("28-los")
    az, _ = lobes_from_stream(params, "aoa", [2] * 500, seed=17)
    assert ((0.0 <= az[0::2]) & (az[0::2] < 180.0)).all()
    assert ((180.0 <= az[1::2]) & (az[1::2] < 360.0)).all()
    singles, _ = lobes_from_stream(params, "aoa", [1] * 500, seed=17)
    assert min(singles) >= 0.0 and max(singles) < 360.0
    assert max(singles) > 300.0 and min(singles) < 60.0  # fills the full circle
    block = drops_for("28GHz-LOS", 200, master_seed=17)
    for side in ("aod", "aoa"):
        offsets = block.lobe_offsets[side].tolist()
        for a, b in zip(offsets, offsets[1:]):
            sector = 360.0 / (b - a)
            for i, mean_az in enumerate(block.lobe_az_deg[side][a:b]):
                assert i * sector <= mean_az < (i + 1) * sector


def test_lobe_elevation_mean_140_nlos_aoa():
    draws = RandomStream(18, 0, "el").sample(normal, 4.8, 2.8, size=1_000_000)
    assert abs(draws.mean() - 4.8) < 0.02
    _, el = lobes_from_stream(params_for("140-nlos"), "aoa", [1] * 20_000, seed=18)
    assert abs(np.mean(el) - 4.8) < 0.1


def test_lobe_elevation_uses_departure_params_for_aod():
    _, el = lobes_from_stream(params_for("28-los"), "aod", [1] * 20_000, seed=19)  # mu_l_zod -7.3
    assert abs(np.mean(el) - (-7.3)) < 0.15


# --- step 10: angle offsets -----------------------------------------------------------

def test_wrap_azimuth_example():
    """Each azimuth is its lobe mean plus its offset draw, modulo 360."""
    params = params_for("28-nlos")
    block = drops_for("28GHz-NLOS", 50, master_seed=23)
    means = {side: lobe_means(block, side)[0] for side in ("aod", "aoa")}
    wrapped = 0
    for index, (_, p) in zip(block.drop_index, drop_slices(block)):
        n = p.stop - p.start
        stream = RandomStream(23, index, "angle_offset")
        stream.uniform(2 * n)  # the lobe picks of both sides
        for side in ("aod", "aoa"):
            d_az = stream.sample(normal, 0.0, params.sigma_phi(side), size=n)
            stream.uniform(n)  # the elevation offsets
            raw = means[side][p] + d_az
            assert np.array_equal(getattr(block, f"{side}_az_deg")[p], raw % 360.0)
            wrapped += int(((raw < 0.0) | (raw >= 360.0)).sum())
    assert wrapped > 0


def lobe_means(block, side):
    """Each subpath's lobe mean (azimuth, elevation) on one side: lobe
    `{side}_lobe_index` of the subpath's own drop."""
    drop = np.repeat(np.arange(len(block)), block.num_subpaths)
    lobe = block.lobe_offsets[side][drop] + getattr(block, f"{side}_lobe_index") - 1
    return block.lobe_az_deg[side][lobe], block.lobe_el_deg[side][lobe]


def test_zero_offsets_put_subpaths_on_lobe_means():
    block = drops_for("28GHz-NLOS", 50, master_seed=20, sigma_phi_aod="0", sigma_theta_aod="0",
                      sigma_phi_aoa="0", sigma_theta_aoa="0")
    for side in ("aod", "aoa"):
        az, el = lobe_means(block, side)
        assert np.array_equal(getattr(block, f"{side}_az_deg"), az)
        assert np.array_equal(getattr(block, f"{side}_el_deg"), el)


def test_offset_std_28_nlos_aoa():
    draws = RandomStream(21, 0, "off").sample(normal, 0.0, 25.5, size=1_000_000)
    assert abs(draws.std() - 25.5) < 0.1
    block = drops_for("28GHz-NLOS", 3000, master_seed=21)
    az, _ = lobe_means(block, "aoa")
    offsets = (block.aoa_az_deg - az + 180.0) % 360.0 - 180.0
    assert abs(offsets.std() - 25.5) < 5.0 * 25.5 / math.sqrt(2 * len(offsets))


def test_offsets_wrap_and_clamp():
    block = drops_for("28GHz-NLOS", 300, master_seed=22, mu_l_zod="88", mu_l_zoa="-88")
    aod_el, aoa_el = block.aod_el_deg, block.aoa_el_deg
    assert aod_el.max() == 90.0 and aoa_el.min() == -90.0  # clamped, not exceeded
    assert aod_el.min() >= -90.0 and aoa_el.max() <= 90.0
    wrapped = 0
    for side in ("aod", "aoa"):
        az = getattr(block, f"{side}_az_deg")
        assert az.min() >= 0.0 and az.max() < 360.0
        wrapped += int((abs(az - lobe_means(block, side)[0]) > 180.0).sum())
    assert wrapped > 0


def test_lobe_assignment_covers_all_lobes():
    block = drops_for("28GHz-NLOS", 1000, master_seed=23)
    of_subpath = {side: np.repeat(lobe_counts(block, side), block.num_subpaths)
                  for side in ("aod", "aoa")}
    assert set(block.aoa_lobe_index[of_subpath["aoa"] == 3].tolist()) == {1, 2, 3}
    picks = block.aod_lobe_index[of_subpath["aod"] == 2]
    assert set(picks.tolist()) == {1, 2}
    assert abs(np.mean(picks == 1) - 0.5) < five_sigma(0.5, len(picks))


# --- full drops -----------------------------------------------------------------------

def test_generate_drop_deterministic(scenario_label):
    cfg = make_config(scenario_label, num_drops=3, master_seed=99)
    a = t.generate_drop(cfg, drop_index=2)
    b = t.generate_drop(cfg, drop_index=2)
    assert len(a) == 1 and a.drop_index == [2]
    assert drop_rows(a) == drop_rows(b)


def test_generate_drop_power_conservation(scenario_label):
    cfg = make_config(scenario_label, master_seed=5)
    block = generate_batch(cfg, 0, 200)
    powers = block.powers_mw()
    for rx, (c, p) in zip(block.rx_power_mw, drop_slices(block), strict=True):
        cluster_mw = block.cluster_power_fractions[c] * rx
        assert abs(cluster_mw.sum() - rx) / rx < 1e-9
        for mw, subpath_mw in zip(cluster_mw, per_cluster(block, powers)[c]):
            assert abs(subpath_mw.sum() - mw) / mw < 1e-9
        assert abs(powers[p].sum() - rx) / rx < 1e-9


def test_generate_drop_invariant_sweep_140_nlos():
    cfg = make_config("140GHz-NLOS", master_seed=31)
    block = generate_batch(cfg, 0, 1000)
    assert (block.num_clusters >= 1).all()
    assert (void_gaps(block) >= 6.0).all()
    for az in (block.aod_az_deg, block.aoa_az_deg):
        assert az.min() >= 0.0 and az.max() < 360.0
    for el in (block.aod_el_deg, block.aoa_el_deg):
        assert el.min() >= -90.0 and el.max() <= 90.0


def test_cluster_structure_fields():
    cfg = make_config("28GHz-NLOS", master_seed=8)
    drop = t.generate_drop(cfg)
    assert drop.cluster_start[0] == 0 and (np.diff(drop.cluster_start) >= 1).all()
    assert drop.cluster_sizes().sum() == drop.num_subpaths.sum()
    for intra in per_cluster(drop, drop.intra_delays_ns):
        assert intra[0] == 0.0
        assert (np.diff(intra) >= 0).all()
    assert (drop.phase_rad >= 0).all() and (drop.phase_rad < 2 * math.pi).all()
    rx = drop.rx_power_mw[0]
    (data,) = jsonl_drops(drop)
    for c, size in zip(data["clusters"], drop.cluster_sizes(), strict=True):
        assert len(c["intra_delays_ns"]) == len(c["subpath_power_mw"]) == size
        assert abs(c["power_fraction"] * rx - c["power_mw"]) <= 1e-12 * c["power_mw"]


def test_absolute_delay_is_propagation_plus_excess():
    cfg = make_config("28GHz-LOS", distance_m=30.0, master_seed=44)
    drop = t.generate_drop(cfg)
    t0 = 30.0 / SPEED_OF_LIGHT_M_PER_NS
    assert drop.propagation_delay_ns.tolist() == pytest.approx([t0], rel=1e-12)
    absolute = [row.split(",")[4] for row in _pdp_rows(drop).splitlines()]  # pdp.csv's column
    assert absolute == [CSV_FLOAT % (t0 + tau) for tau in drop.excess_delays_ns().tolist()]
    expected = np.concatenate([tau + intra for tau, intra in zip(
        drop.cluster_delays_ns, per_cluster(drop, drop.intra_delays_ns))])
    assert np.array_equal(drop.excess_delays_ns(), expected)


def test_subpath_arrays_consistency():
    cfg = make_config("140GHz-LOS", master_seed=70)
    drop = t.generate_drop(cfg)
    (n_clusters,), (n_subpaths,) = drop.num_clusters, drop.num_subpaths
    for name in ("intra_delays_ns", "power_fractions", "phase_rad", "aod_az_deg", "aod_el_deg",
                 "aoa_az_deg", "aoa_el_deg", "aod_lobe_index", "aoa_lobe_index"):
        assert len(getattr(drop, name)) == n_subpaths, name
    assert len(drop.cluster_delays_ns) == len(drop.cluster_power_fractions) == n_clusters
    assert np.array_equal(drop.powers_mw(), drop.power_fractions * drop.rx_power_mw[0])
    for side in ("aod", "aoa"):
        index = getattr(drop, f"{side}_lobe_index")
        assert 1 <= index.min() and index.max() <= lobe_counts(drop, side)[0]
        assert len(drop.lobe_az_deg[side]) == len(drop.lobe_el_deg[side]) == index.max()


def assert_json_roundtrip(block):
    """Each drops.jsonl row is one drop of the block, and each
    per-subpath, per-cluster and per-lobe field, its clusters or lobes
    concatenated drop after drop, is the flat array it came from."""
    drops = jsonl_drops(block)
    assert [d["drop_index"] for d in drops] == block.drop_index
    assert [d["distance_m"] for d in drops] == block.distance_m
    assert [d["link"] for d in drops] == reference_links(block)
    clusters = [c for d in drops for c in d["clusters"]]
    fields = {name: name for name in ("intra_delays_ns", "phase_rad", "aod_az_deg",
                                      "aod_el_deg", "aoa_az_deg", "aoa_el_deg",
                                      "aod_lobe_index", "aoa_lobe_index")}
    fields.update(subpath_power_fraction="power_fractions")
    for key, name in fields.items():
        assert [v for c in clusters for v in c[key]] == getattr(block, name).tolist(), key
    assert [v for c in clusters for v in c["subpath_power_mw"]] == block.powers_mw().tolist()
    assert [len(c["intra_delays_ns"]) for c in clusters] == block.cluster_sizes().tolist()
    assert [c["excess_delay_ns"] for c in clusters] == block.cluster_delays_ns.tolist()
    assert [c["power_fraction"] for c in clusters] == block.cluster_power_fractions.tolist()
    assert [len(d["clusters"]) for d in drops] == block.num_clusters.tolist()
    assert [c["index"] for d in drops for c in d["clusters"]] == [
        n for d in drops for n in range(1, len(d["clusters"]) + 1)]
    for side in ("aod", "aoa"):
        lobes = [lobe for d in drops for lobe in d[f"{side}_lobes"]]
        assert [len(d[f"{side}_lobes"]) for d in drops] == lobe_counts(block, side).tolist()
        assert [lobe["mean_az_deg"] for lobe in lobes] == block.lobe_az_deg[side].tolist()
        assert [lobe["mean_el_deg"] for lobe in lobes] == block.lobe_el_deg[side].tolist()
        assert [lobe["index"] for d in drops for lobe in d[f"{side}_lobes"]] == [
            i for d in drops for i in range(1, len(d[f"{side}_lobes"]) + 1)]


def test_drop_roundtrip_through_json():
    cfg = make_config("28GHz-NLOS", distance_m=(5.0, 45.0), master_seed=202)
    drop = t.generate_drop(cfg, drop_index=7)
    assert_json_roundtrip(drop)


def test_distance_range_draws_within_bounds():
    cfg = make_config("28GHz-LOS", distance_m=(5.0, 45.0), master_seed=77)
    distances = generate_batch(cfg, 0, 300).distance_m
    assert min(distances) >= 5.0 and max(distances) < 45.0
    assert np.std(distances) > 1.0  # actually varies


@pytest.mark.parametrize("distance_m", [(45.0, 5.0), (math.nan, 5.0)])
def test_generation_validates_its_config(distance_m):
    cfg = t.SimConfig(scenario=t.Scenario.parse("28GHz-LOS"), distance_m=distance_m)
    with pytest.raises(ConfigError, match="distance range"):
        t.generate_drop(cfg)
    with pytest.raises(ConfigError, match="distance range"):
        t.generate_drops(cfg)


def test_fixed_distance_consumes_no_distance_stream():
    cfg = make_config("140GHz-NLOS", distance_m=25.0, master_seed=12)
    drop = t.generate_drop(cfg)
    assert drop.distance_m == [25.0]
    assert jsonl_drops(drop)[0]["link"]["distance_m"] == 25.0


def test_json_roundtrip_every_scenario(scenario_label):
    cfg = make_config(scenario_label, master_seed=203)
    assert_json_roundtrip(generate_batch(cfg, 0, 10))


def test_batched_draws_match_single_cluster_operations():
    """generate_drop consumes its substreams exactly like cluster-by-cluster
    draws: intra delays, cluster delays and within-cluster power shares."""
    cfg = make_config("28GHz-NLOS", master_seed=909)
    params = resolved_params(cfg)
    drop = t.generate_drop(cfg, drop_index=4)
    (n_clusters,), (n_subpaths,) = drop.num_clusters, drop.num_subpaths
    assert n_clusters > 1 and n_subpaths > n_clusters

    rho_stream = RandomStream(909, 4, "intra_delay")
    intra = [sort_from_first(rho_stream.sample(exponential, params.mu_rho, size=m), [m])
             for m in drop.cluster_sizes()]
    assert np.array_equal(drop.intra_delays_ns, np.concatenate(intra))

    draws = cluster_delays(params, RandomStream(909, 4, "cluster_delay").uniform(n_clusters))
    tau = place_cluster_delays(draws, [rho[-1] for rho in intra], [n_clusters], params.mti)
    assert np.array_equal(drop.cluster_delays_ns, tau)
    z_db = RandomStream(909, 4, "cluster_power").sample(normal, 0.0, params.sigma_z,
                                                         size=n_clusters)
    raw = np.exp(-tau / params.gamma_cluster) * 10.0 ** (z_db / 10.0)
    cluster_frac = raw / raw.sum()
    assert np.array_equal(drop.cluster_power_fractions, cluster_frac)

    u_stream = RandomStream(909, 4, "subpath_power")
    shares = []
    for frac, rho in zip(cluster_frac, intra):
        u_db = u_stream.sample(normal, 0.0, params.sigma_u, size=len(rho))
        raw = np.exp(-rho / params.gamma_subpath) * 10.0 ** (u_db / 10.0)
        shares.append(frac * (raw / raw.sum()))
    assert np.array_equal(drop.power_fractions, np.concatenate(shares))


def test_tx_power_scales_subpath_powers_only():
    base = make_config("28GHz-NLOS", master_seed=55, tx_power_dbm=0.0)
    boosted = make_config("28GHz-NLOS", master_seed=55, tx_power_dbm=20.0)
    a = t.generate_drop(base)
    b = t.generate_drop(boosted)
    scale = 10.0 ** 2  # +20 dB
    assert np.allclose(b.powers_mw(), a.powers_mw() * scale, rtol=1e-12)
    assert np.array_equal(a.power_fractions, b.power_fractions)
    assert np.array_equal(a.excess_delays_ns(), b.excess_delays_ns())
    for name in ("aod_az_deg", "aod_el_deg", "aoa_az_deg", "aoa_el_deg"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


# --- blocks ---------------------------------------------------------------------------

LABELS = ("distance", "shadow", "num_clusters", "num_subpaths", "intra_delay", "cluster_delay",
          "cluster_power", "subpath_power", "phase", "num_lobes", "lobe_angle", "angle_offset")

BLOCK_CONFIGS = [(label, 10.0) for label in SCENARIO_LABELS] + [("28GHz-NLOS", (5.0, 45.0))]


def drop_rows(block):
    """Each drop's rows in drops.jsonl, pdp.csv and pas.csv, keyed by
    file, and the dtypes of the block's arrays."""
    rows = {kind: {index: "" for index in block.drop_index} for kind in DROP_FILES}
    for kind, (_, _, text) in DROP_FILES.items():
        for row in text(block).splitlines(keepends=True):
            index = json.loads(row)["drop_index"] if kind == "jsonl" else int(row.split(",")[0])
            rows[kind][index] += row
    dtypes = [(name, v.dtype.str) for name, v in vars(block).items() if isinstance(v, np.ndarray)]
    return [{kind: rows[kind][index] for kind in rows} for index in block.drop_index], dtypes


def rows_alone(cfg, start, count):
    """drop_rows of drops start .. start + count - 1, each generated
    alone, as a block of one."""
    alone = [drop_rows(block) for block in drops_alone(cfg, start, count)]
    assert all(dtypes == alone[0][1] for _, dtypes in alone)
    return [rows for each, _ in alone for rows in each], alone[0][1]


@pytest.mark.parametrize("label, distance", BLOCK_CONFIGS)
def test_generate_batch_is_independent_of_the_block_split(label, distance):
    cfg = make_config(label, distance_m=distance, master_seed=31)
    start, count = 17, 40
    reference = drop_rows(generate_batch(cfg, start, count))
    assert rows_alone(cfg, start, count) == reference
    assert all(rows["pdp"] and rows["pas"] for rows in reference[0])
    rng = np.random.default_rng(7)
    for _ in range(5):
        cuts = rng.choice(np.arange(1, count), size=rng.integers(1, 6), replace=False)
        bounds = [0, *sorted(cuts.tolist()), count]
        pieces = [drop_rows(generate_batch(cfg, start + a, b - a))
                  for a, b in zip(bounds, bounds[1:])]
        assert [rows for piece, _ in pieces for rows in piece] == reference[0]
        assert all(dtypes == reference[1] for _, dtypes in pieces)


@pytest.mark.parametrize("label, distance", BLOCK_CONFIGS)
def test_a_block_has_the_counts_and_metrics_of_its_drops_alone(label, distance):
    cfg = make_config(label, distance_m=distance, master_seed=35)
    start, count = 250, 12
    block = generate_batch(cfg, start, count)
    alone = drops_alone(cfg, start, count)
    assert len(block) == count and all(len(drop) == 1 for drop in alone)
    assert block.drop_index == [i for drop in alone for i in drop.drop_index]
    for name in ("num_clusters", "num_subpaths"):
        assert getattr(block, name).tolist() == [n for d in alone for n in getattr(d, name)]
    for side in ("aod", "aoa"):
        assert lobe_counts(block, side).tolist() == [n for d in alone
                                                     for n in lobe_counts(d, side)]
    metrics = drop_metrics(block)
    for d, expected in enumerate(reference_metrics(block)):
        got = [metrics[name][d] for name in METRIC_NAMES]
        assert [v.hex() for v in got] == [v.hex() for v in expected], d
        assert got == [drop_metrics(alone[d])[name][0] for name in METRIC_NAMES]


def test_generate_drops_crosses_blocks_like_single_drops():
    cfg = make_config("140GHz-NLOS", master_seed=33)
    edge = range(BLOCK_DROPS - 2, BLOCK_DROPS + 2)
    blocks = list(t.generate_drops(cfg, start=edge[0] - BLOCK_DROPS,
                                   count=BLOCK_DROPS + 4))
    assert [len(block) for block in blocks] == [BLOCK_DROPS, 4]
    assert ([i for block in blocks for i in block.drop_index]
            == list(range(edge[0] - BLOCK_DROPS, edge[-1] + 1)))
    assert drop_rows(blocks[-1]) == rows_alone(cfg, edge[0], len(edge))


def arrays_of(block):
    """Every array a block holds, the per-side ones included."""
    for value in vars(block).values():
        if isinstance(value, dict):
            yield from value.values()
        elif isinstance(value, np.ndarray):
            yield value


def test_blocks_of_one_share_no_memory():
    cfg = make_config("28GHz-NLOS", master_seed=32)
    drops = drops_alone(cfg, 0, 3)
    before = [drop_rows(drop) for drop in drops]
    for a in arrays_of(drops[1]):
        for neighbour in (drops[0], drops[2]):
            assert not any(np.shares_memory(a, b) for b in arrays_of(neighbour))
        a[...] = 0
    assert [drop_rows(drops[0]), drop_rows(drops[2])] == [before[0], before[2]]


@pytest.mark.parametrize("label, distance", BLOCK_CONFIGS)
def test_uniforms_drawn_per_drop_follow_its_structure(monkeypatch, label, distance):
    drawn, calls = {}, []
    stream_uniforms = generate.stream_uniforms

    def recording(keys, counts):
        calls.append(len(keys))
        for key, count in zip(keys, counts):
            drawn[key.tobytes()] = drawn.get(key.tobytes(), 0) + int(count)
        return stream_uniforms(keys, counts)

    monkeypatch.setattr(generate, "stream_uniforms", recording)
    cfg = make_config(label, distance_m=distance, master_seed=34)
    block = generate_batch(cfg, 100, 30)
    assert len(calls) == 3  # one Philox call per stage
    ranged = cfg.distance_range() is not None
    lobes = lobe_counts(block, "aod") + lobe_counts(block, "aoa")
    total = 0
    for index, clusters, subpaths, n_lobes in zip(block.drop_index, block.num_clusters,
                                                  block.num_subpaths, lobes, strict=True):
        keys = derive_keys(34, [index], LABELS)
        used = sum(drawn.get(key.tobytes(), 0) for key in keys)
        assert used == 2 + ranged + 3 * clusters + 9 * subpaths + 2 + 2 * n_lobes
        total += used
    assert total == sum(drawn.values())  # no stream outside the twelve labels


def block_bits(block) -> dict:
    """Every field of a block: arrays by dtype, shape and bytes, lists
    by each entry's type and, for a float, its hex."""
    def bits(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, value.tobytes()
        if isinstance(value, dict):
            return {key: bits(v) for key, v in value.items()}
        if isinstance(value, list):
            return [(type(v), v.hex() if isinstance(v, float) else v) for v in value]
        return type(value), value
    return {name: bits(value) for name, value in vars(block).items()}


# configs of one seed that read their streams to very different lengths:
# the four scenarios, a distance range (the only reader of "distance"),
# and 21 clusters a drop on average beside exactly one
LOCKSTEP_CONFIGS = {
    "scenarios": [dict(scenario=label) for label in SCENARIO_LABELS],
    "ranged among fixed": [dict(scenario="28GHz-LOS"),
                           dict(scenario="28GHz-NLOS", distance_m=(5.0, 45.0)),
                           dict(scenario="140GHz-NLOS")],
    "long beside short": [dict(scenario="28GHz-NLOS", overrides={"lambda_c": "20"}),
                          dict(scenario="28GHz-LOS", overrides={"n_c_max": "1"}),
                          dict(scenario="140GHz-LOS", overrides={"n_c_max": "1"})],
    # both cluster-count laws, both cluster-delay families and two void intervals
    "laws, families and mti": [dict(scenario="28GHz-LOS"),
                               dict(scenario="140GHz-NLOS", overrides={"mti": "3.5"}),
                               dict(scenario="28GHz-NLOS", overrides={"beta_s": "1.0"})],
}


@pytest.mark.parametrize("count", [1, BLOCK_DROPS])
@pytest.mark.parametrize("case", sorted(LOCKSTEP_CONFIGS))
def test_delay_profiles_equal_their_blocks_arrays_in_every_bit(case, count):
    configs = [make_config(kwargs.pop("scenario"), master_seed=38, **kwargs)
               for kwargs in map(dict, LOCKSTEP_CONFIGS[case])]
    start = 700 + count
    profiles = delay_profiles(configs, start, count)
    assert len(profiles) == len(configs)
    names = [f.name for f in dataclasses.fields(generate.DelayProfile)]
    for config, profile in zip(configs, profiles):
        assert type(profile) is generate.DelayProfile
        block = block_bits(generate_batch(config, start, count))
        assert block_bits(profile) == {name: block[name] for name in names}
    if case == "long beside short":
        assert profiles[0].num_clusters.sum() > 10 * count == 10 * profiles[1].num_clusters.sum()


@pytest.mark.parametrize("name", ["mu_rho", "mu_tau", "sigma_z", "sigma_u"])
def test_delay_profiles_refuse_as_their_blocks_do(name):
    config = make_config("28GHz-NLOS", master_seed=39, overrides={name: "1e308"})
    with pytest.raises(InvalidParamsError) as block:
        generate_batch(config, 5, 40)
    assert "are not finite; check" in str(block.value) and name in str(block.value)
    with pytest.raises(InvalidParamsError) as profile:
        delay_profiles([config], 5, 40)
    assert str(profile.value) == str(block.value)


def test_lockstep_refuses_configs_of_different_master_seeds():
    configs = [make_config(label, master_seed=seed)
               for label, seed in zip(SCENARIO_LABELS, (41, 42, 41, 40))]
    with pytest.raises(InvalidParamsError, match=r"master seeds \[40, 41, 42\]"):
        delay_profiles(configs, 0, 3)


def test_delay_profiles_refuse_an_empty_config_list():
    with pytest.raises(InvalidParamsError, match="no config"):
        delay_profiles([], 0, 3)


def test_lockstep_names_the_drop_of_the_config_that_overflows():
    # the second config's intra delays overflow: the refusal is the one
    # that config makes alone, raised as an error, not a warning
    good = make_config("28GHz-NLOS", master_seed=37)
    bad = make_config("28GHz-NLOS", master_seed=37, overrides={"mu_rho": "1e308"})
    start, count = 60, 20
    generate_batch(good, start, count)
    with pytest.raises(InvalidParamsError) as alone:
        generate_batch(bad, start, count)
    assert str(alone.value).startswith("intra-cluster delays of drop ")
    with pytest.raises(InvalidParamsError) as lockstep:
        delay_profiles([good, bad], start, count)
    assert str(lockstep.value) == str(alone.value)


@pytest.mark.parametrize("first, second", [("sigma_u", "mu_rho"), ("mu_rho", "sigma_u")])
def test_lockstep_refuses_as_the_first_config_that_overflows_does(first, second):
    # each config alone fails another check (subpath power shares are
    # checked after intra-cluster delays): the first config's refusal wins
    configs = [make_config("28GHz-NLOS", master_seed=37, overrides={name: "1e308"})
               for name in (first, second)]
    with pytest.raises(InvalidParamsError) as alone:
        generate_batch(configs[0], 60, 20)
    with pytest.raises(InvalidParamsError) as lockstep:
        delay_profiles(configs, 60, 20)
    assert str(lockstep.value) == str(alone.value) and first in str(alone.value)


@pytest.mark.parametrize("count", [0, -1])
def test_generate_batch_refuses_a_count_below_one(count):
    with pytest.raises(InvalidParamsError, match="count"):
        generate_batch(make_config("28GHz-LOS"), 0, count)


def sums_one_by_one(weights, lengths, columns=()):
    """`profile_sums` of a generator's call, from the `.sum()` of each
    segment of `lengths` laid end to end in `weights`."""
    assert not columns
    return np.array([s.sum() for s in np.split(weights, np.cumsum(lengths)[:-1])]), []


@pytest.mark.parametrize("weights, lengths", [
    ([1.0, 2.0, 3.0], [2]),       # the third weight in no profile
    ([1.0, 2.0], [3]),            # a profile past the weights
    ([1.0, 2.0], [3, -1]),        # a negative length
    ([1.0, 2.0], [-1, 3]),
])
def test_profile_sums_refuses_lengths_that_do_not_lay_out_the_weights(weights, lengths):
    with pytest.raises(InvalidParamsError, match="profile lengths"):
        profile_sums(weights, lengths)


def test_delay_profiles_total_each_configs_power_shares_in_one_grouped_pass(monkeypatch):
    calls = []

    def counting(weights, lengths, columns=(), _original=generate.profile_sums):
        calls.append((len(lengths), len(columns)))
        return _original(weights, lengths, columns)

    configs = [make_config(label, master_seed=7) for label in SCENARIO_LABELS]
    monkeypatch.setattr(generate, "profile_sums", counting)
    profiles = delay_profiles(configs, 0, 40)
    # all configs' drop totals of their clusters and cluster totals of
    # their subpaths, in one call
    assert calls == [(sum(40 + int(p.num_clusters.sum()) for p in profiles), 0)]


def test_the_link_budget_is_computed_once_per_block(monkeypatch):
    blocks = []

    def recording(config, params, shadows_db, distances_m, _original=generate.link_budget):
        blocks.append(len(distances_m))
        return _original(config, params, shadows_db, distances_m)

    monkeypatch.setattr(generate, "link_budget", recording)
    cfg = make_config("28GHz-NLOS", distance_m=(5.0, 45.0))
    for block in t.generate_drops(cfg, count=2 * BLOCK_DROPS + 3):
        assert block.rx_power_mw == list(map(dbm_to_mw, block.rx_power_dbm))
        columns = (block.shadow_fading_db, block.path_loss_db, block.rx_power_dbm,
                   block.rx_power_mw)
        assert {type(v) for column in columns for v in column} == {float}
    assert blocks == [BLOCK_DROPS, BLOCK_DROPS, 3]


def test_segments_over_128_terms_are_summed_as_numpy_does(monkeypatch):
    # clusters of up to about 1,000 subpaths, drops of up to about 2,000
    cfg = make_config("28GHz-NLOS", overrides={"beta_s": "1.0", "mu_s": "200.0"},
                      master_seed=5)
    block = generate_batch(cfg, 0, 24)
    sizes = block.cluster_sizes()
    assert sizes.max() > 128 and sizes.min() < 8 and block.num_subpaths.max() > 128
    metrics = drop_metrics(block)
    for d, expected in enumerate(reference_metrics(block)):
        got = [metrics[name][d] for name in METRIC_NAMES]
        assert [v.hex() for v in got] == [v.hex() for v in expected], d
    monkeypatch.setattr(generate, "profile_sums", sums_one_by_one)
    for got, want in zip(arrays_of(block), arrays_of(generate_batch(cfg, 0, 24)), strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
