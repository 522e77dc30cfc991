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
    generate_batch,
    lobe_mean_angles,
    place_cluster_delays,
    sort_from_first,
)
from tcslsim.errors import ConfigValidationError
from tcslsim.pathloss import SPEED_OF_LIGHT_M_PER_NS
from tcslsim.randcore import RandomStream, composite_subpath, derive_keys, exponential, normal

from conftest import SCENARIO_LABELS, make_config


def params_for(label, **overrides):
    p = t.lookup_params(t.Scenario.parse(label))
    return t.apply_overrides(p, overrides) if overrides else p


def drops_for(label, count, master_seed=1234, **overrides):
    cfg = make_config(label, master_seed=master_seed, overrides=overrides)
    return list(t.generate_drops(cfg, count=count))


def per_cluster(drop, values):
    """Split a per-subpath array into one array per cluster."""
    return np.split(values, drop.cluster_start[1:])


def five_sigma(p, n):
    """Five standard errors of a frequency p estimated from n draws."""
    return 5.0 * math.sqrt(p * (1.0 - p) / n)


# --- step 1: number of time clusters ---------------------------------------

def test_num_clusters_los_uniform_frequencies():
    params = params_for("28-los")
    draws = cluster_counts(params, RandomStream(1, 0, "nc").uniform(1_000_000))
    for k in range(1, 6):
        assert abs(np.mean(draws == k) - 0.2) < 0.005
    counts = [d.num_clusters for d in drops_for("28GHz-LOS", 500, master_seed=1)]
    assert set(counts) == set(range(1, 6))


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
    for drop in drops_for("28GHz-LOS", 50, master_seed=6, beta_s="0.0"):
        assert drop.num_subpaths == drop.num_clusters
        assert (drop.intra_delays_ns == 0.0).all()


def test_sort_from_first_example():
    assert sort_from_first([5.0, 2.0, 9.0]).tolist() == [0.0, 3.0, 7.0]


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_sort_from_first_properties(values):
    out = sort_from_first(values)
    assert out[0] == 0.0
    assert (np.diff(out) >= 0).all()


def test_intra_delays_nondecreasing_and_anchored():
    for drop in drops_for("28GHz-NLOS", 200, master_seed=7):
        for intra in per_cluster(drop, drop.intra_delays_ns):
            assert intra[0] == 0.0
            assert (np.diff(intra) >= 0).all()


# --- step 4: cluster delays ---------------------------------------------------

def test_place_cluster_delays_example():
    tau = place_cluster_delays([5.0, 10.0, 30.0], [4.0, 2.0, 0.0], mti=6.0)
    assert tau.tolist() == [0.0, 15.0, 48.0]
    # a block: one drop per row, padded with +inf past its cluster count
    block = place_cluster_delays([[5.0, 10.0, 30.0], [7.0, math.inf, math.inf]],
                                 [[4.0, 2.0, 0.0], [1.0, 0.0, 0.0]], mti=6.0)
    assert block[0].tolist() == [0.0, 15.0, 48.0]
    assert block[1, 0] == 0.0 and np.isinf(block[1, 1:]).all()


def test_compose_single_cluster_is_zero():
    for drop in drops_for("140GHz-LOS", 20, master_seed=8, n_c_max="1"):
        assert drop.cluster_delays_ns.tolist() == [0.0]


def test_compose_respects_void_interval():
    mti = params_for("140-nlos").mti
    drops = drops_for("140GHz-NLOS", 1000, master_seed=9, lambda_c="3.0", mu_s="3.0")
    assert sum(d.num_clusters >= 4 for d in drops) > 100
    for drop in drops:
        tau = drop.cluster_delays_ns
        last_intra = drop.intra_delays_ns[drop.cluster_start[1:] - 1]
        assert (tau[1:] - (tau[:-1] + last_intra) >= mti).all()


# --- steps 5-6: powers ----------------------------------------------------------

def test_cluster_power_single_cluster_gets_everything():
    for drop in drops_for("140GHz-LOS", 20, master_seed=10, n_c_max="1"):
        assert drop.cluster_power_fractions.tolist() == [1.0]
        assert drop.to_dict()["clusters"][0]["power_mw"] == drop.link.rx_power_mw


def test_cluster_power_decay_ratio():
    drops = drops_for("28GHz-NLOS", 50, master_seed=11, sigma_z="0.0")  # gamma_cluster 20.1
    assert sum(d.num_clusters > 1 for d in drops) > 25
    for drop in drops:
        frac = drop.cluster_power_fractions
        expected = np.exp(-(drop.cluster_delays_ns - drop.cluster_delays_ns[0]) / 20.1)
        assert frac / frac[0] == pytest.approx(expected, rel=1e-12)
        assert frac.sum() == pytest.approx(1.0, rel=1e-12)


def test_subpath_power_decay_ratio():
    drops = drops_for("140GHz-NLOS", 50, master_seed=12, sigma_u="0.0")  # gamma_subpath 2.0
    assert sum(d.num_subpaths > d.num_clusters for d in drops) > 25
    for drop in drops:
        for n, (intra, frac) in enumerate(zip(per_cluster(drop, drop.intra_delays_ns),
                                              per_cluster(drop, drop.power_fractions))):
            assert frac / frac[0] == pytest.approx(np.exp(-intra / 2.0), rel=1e-12)
            assert frac.sum() == pytest.approx(drop.cluster_power_fractions[n], rel=1e-12)


def test_subpath_power_single_subpath_gets_cluster_power():
    for drop in drops_for("28GHz-LOS", 20, master_seed=13, beta_s="0.0"):
        assert np.array_equal(drop.power_fractions, drop.cluster_power_fractions)


# --- step 7: phases --------------------------------------------------------------

def test_phases_range_and_isotropy():
    phases = np.concatenate([d.phase_rad for d in drops_for("28GHz-NLOS", 4000, master_seed=14)])
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
    drops = drops_for("28GHz-NLOS", n, master_seed=15)  # l_aoa_max 3
    counts = np.array([len(d.aoa_lobes) for d in drops])
    for k in (1, 2, 3):
        assert abs(np.mean(counts == k) - 1 / 3) < five_sigma(1 / 3, n)


def test_num_lobes_ranges_and_degenerate():
    for drop in drops_for("140GHz-LOS", 500, master_seed=16):
        assert len(drop.aod_lobes) in (1, 2) and len(drop.aoa_lobes) in (1, 2)
    for drop in drops_for("140GHz-LOS", 50, master_seed=16, l_aod_max="1", l_aoa_max="1"):
        assert len(drop.aod_lobes) == len(drop.aoa_lobes) == 1
        assert (drop.aod_lobe_index == 1).all() and (drop.aoa_lobe_index == 1).all()


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
    for drop in drops_for("28GHz-LOS", 200, master_seed=17):
        for lobes in (drop.aod_lobes, drop.aoa_lobes):
            sector = 360.0 / len(lobes)
            for i, lobe in enumerate(lobes):
                assert lobe.index == i + 1
                assert i * sector <= lobe.mean_az_deg < (i + 1) * sector


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
    wrapped = 0
    for drop in drops_for("28GHz-NLOS", 50, master_seed=23):
        n = drop.num_subpaths
        stream = RandomStream(23, drop.drop_index, "angle_offset")
        stream.uniform(2 * n)  # the lobe picks of both sides
        for side in ("aod", "aoa"):
            d_az = stream.sample(normal, 0.0, params.sigma_phi(side), size=n)
            stream.uniform(n)  # the elevation offsets
            raw = lobe_means(drop, side)[0] + d_az
            assert np.array_equal(getattr(drop, f"{side}_az_deg"), raw % 360.0)
            wrapped += int(((raw < 0.0) | (raw >= 360.0)).sum())
    assert wrapped > 0


def lobe_means(drop, side):
    """Each subpath's lobe mean (azimuth, elevation) on one side."""
    lobes = getattr(drop, f"{side}_lobes")
    picked = [lobes[i - 1] for i in getattr(drop, f"{side}_lobe_index")]
    return (np.array([l.mean_az_deg for l in picked]), np.array([l.mean_el_deg for l in picked]))


def test_zero_offsets_put_subpaths_on_lobe_means():
    drops = drops_for("28GHz-NLOS", 50, master_seed=20, sigma_phi_aod="0", sigma_theta_aod="0",
                      sigma_phi_aoa="0", sigma_theta_aoa="0")
    for drop in drops:
        for side in ("aod", "aoa"):
            az, el = lobe_means(drop, side)
            assert np.array_equal(getattr(drop, f"{side}_az_deg"), az)
            assert np.array_equal(getattr(drop, f"{side}_el_deg"), el)


def test_offset_std_28_nlos_aoa():
    draws = RandomStream(21, 0, "off").sample(normal, 0.0, 25.5, size=1_000_000)
    assert abs(draws.std() - 25.5) < 0.1
    offsets = []
    for drop in drops_for("28GHz-NLOS", 3000, master_seed=21):
        az, _ = lobe_means(drop, "aoa")
        offsets.append((drop.aoa_az_deg - az + 180.0) % 360.0 - 180.0)
    offsets = np.concatenate(offsets)
    assert abs(offsets.std() - 25.5) < 5.0 * 25.5 / math.sqrt(2 * len(offsets))


def test_offsets_wrap_and_clamp():
    drops = drops_for("28GHz-NLOS", 300, master_seed=22, mu_l_zod="88", mu_l_zoa="-88")
    aod_el = np.concatenate([d.aod_el_deg for d in drops])
    aoa_el = np.concatenate([d.aoa_el_deg for d in drops])
    assert aod_el.max() == 90.0 and aoa_el.min() == -90.0  # clamped, not exceeded
    assert aod_el.min() >= -90.0 and aoa_el.max() <= 90.0
    wrapped = 0
    for drop in drops:
        for side in ("aod", "aoa"):
            az = getattr(drop, f"{side}_az_deg")
            assert az.min() >= 0.0 and az.max() < 360.0
            wrapped += int((abs(az - lobe_means(drop, side)[0]) > 180.0).sum())
    assert wrapped > 0


def test_lobe_assignment_covers_all_lobes():
    drops = drops_for("28GHz-NLOS", 1000, master_seed=23)
    three = [d for d in drops if len(d.aoa_lobes) == 3]
    assert set(np.concatenate([d.aoa_lobe_index for d in three]).tolist()) == {1, 2, 3}
    picks = np.concatenate([d.aod_lobe_index for d in drops if len(d.aod_lobes) == 2])
    assert set(picks.tolist()) == {1, 2}
    assert abs(np.mean(picks == 1) - 0.5) < five_sigma(0.5, len(picks))


# --- full drops -----------------------------------------------------------------------

def test_generate_drop_deterministic(scenario_label):
    cfg = make_config(scenario_label, num_drops=3, master_seed=99)
    a = t.generate_drop(cfg, drop_index=2)
    b = t.generate_drop(cfg, drop_index=2)
    assert a.to_dict() == b.to_dict()


def test_generate_drop_power_conservation(scenario_label):
    cfg = make_config(scenario_label, master_seed=5)
    params = t.resolved_params(cfg)
    for drop in t.generate_drops(cfg, params, count=200):
        rx = drop.link.rx_power_mw
        cluster_mw = drop.cluster_power_fractions * rx
        assert abs(cluster_mw.sum() - rx) / rx < 1e-9
        for mw, subpath_mw in zip(cluster_mw, per_cluster(drop, drop.powers_mw())):
            assert abs(subpath_mw.sum() - mw) / mw < 1e-9
        assert abs(drop.powers_mw().sum() - rx) / rx < 1e-9


def test_generate_drop_invariant_sweep_140_nlos():
    cfg = make_config("140GHz-NLOS", master_seed=31)
    params = t.resolved_params(cfg)
    for drop in t.generate_drops(cfg, params, count=1000):
        assert drop.num_clusters >= 1
        tau = drop.cluster_delays_ns
        last_intra = drop.intra_delays_ns[drop.cluster_start[1:] - 1]
        assert (tau[1:] - (tau[:-1] + last_intra) >= 6.0).all()
        for az in (drop.aod_az_deg, drop.aoa_az_deg):
            assert az.min() >= 0.0 and az.max() < 360.0
        for el in (drop.aod_el_deg, drop.aoa_el_deg):
            assert el.min() >= -90.0 and el.max() <= 90.0


def test_cluster_structure_fields():
    cfg = make_config("28GHz-NLOS", master_seed=8)
    drop = t.generate_drop(cfg)
    assert drop.cluster_start[0] == 0 and (np.diff(drop.cluster_start) >= 1).all()
    assert drop.cluster_sizes().sum() == drop.num_subpaths
    for intra in per_cluster(drop, drop.intra_delays_ns):
        assert intra[0] == 0.0
        assert (np.diff(intra) >= 0).all()
    assert (drop.phase_rad >= 0).all() and (drop.phase_rad < 2 * math.pi).all()
    rx = drop.link.rx_power_mw
    for c, size in zip(drop.to_dict()["clusters"], drop.cluster_sizes()):
        assert len(c["intra_delays_ns"]) == len(c["subpath_power_mw"]) == size
        assert abs(c["power_fraction"] * rx - c["power_mw"]) <= 1e-12 * c["power_mw"]


def test_absolute_delay_is_propagation_plus_excess():
    cfg = make_config("28GHz-LOS", distance_m=30.0, master_seed=44)
    drop = t.generate_drop(cfg)
    t0 = 30.0 / SPEED_OF_LIGHT_M_PER_NS
    assert drop.propagation_delay_ns == pytest.approx(t0, rel=1e-12)
    assert np.allclose(drop.absolute_delays_ns(), t0 + drop.excess_delays_ns(), rtol=1e-12)
    expected = np.concatenate([tau + intra for tau, intra in zip(
        drop.cluster_delays_ns, per_cluster(drop, drop.intra_delays_ns))])
    assert np.array_equal(drop.excess_delays_ns(), expected)


def test_subpath_arrays_consistency():
    cfg = make_config("140GHz-LOS", master_seed=70)
    drop = t.generate_drop(cfg)
    for name in ("intra_delays_ns", "power_fractions", "phase_rad", "aod_az_deg", "aod_el_deg",
                 "aoa_az_deg", "aoa_el_deg", "aod_lobe_index", "aoa_lobe_index"):
        assert len(getattr(drop, name)) == drop.num_subpaths, name
    assert len(drop.cluster_delays_ns) == len(drop.cluster_power_fractions) == drop.num_clusters
    assert np.array_equal(drop.powers_mw(), drop.power_fractions * drop.link.rx_power_mw)
    assert 1 <= drop.aod_lobe_index.min() and drop.aod_lobe_index.max() <= len(drop.aod_lobes)
    assert 1 <= drop.aoa_lobe_index.min() and drop.aoa_lobe_index.max() <= len(drop.aoa_lobes)


def assert_json_roundtrip(drop):
    """The JSON form survives a text round trip, and each per-subpath
    field, its clusters concatenated, is the flat array it came from."""
    data = drop.to_dict()
    assert json.loads(json.dumps(data)) == data
    clusters = data["clusters"]
    fields = {name: name for name in ("intra_delays_ns", "phase_rad", "aod_az_deg",
                                      "aod_el_deg", "aoa_az_deg", "aoa_el_deg",
                                      "aod_lobe_index", "aoa_lobe_index")}
    fields.update(subpath_power_fraction="power_fractions")
    for key, name in fields.items():
        assert [v for c in clusters for v in c[key]] == getattr(drop, name).tolist(), key
    assert [len(c["intra_delays_ns"]) for c in clusters] == drop.cluster_sizes().tolist()
    assert [c["excess_delay_ns"] for c in clusters] == drop.cluster_delays_ns.tolist()
    assert [c["power_fraction"] for c in clusters] == drop.cluster_power_fractions.tolist()


def test_drop_roundtrip_through_json():
    cfg = make_config("28GHz-NLOS", distance_m=(5.0, 45.0), master_seed=202)
    drop = t.generate_drop(cfg, drop_index=7)
    assert_json_roundtrip(drop)


def test_distance_range_draws_within_bounds():
    cfg = make_config("28GHz-LOS", distance_m=(5.0, 45.0), master_seed=77)
    distances = [drop.distance_m for drop in t.generate_drops(cfg, count=300)]
    assert min(distances) >= 5.0 and max(distances) < 45.0
    assert np.std(distances) > 1.0  # actually varies


@pytest.mark.parametrize("distance_m", [(45.0, 5.0), (math.nan, 5.0)])
def test_generation_validates_its_config(distance_m):
    cfg = t.SimConfig(scenario=t.Scenario.parse("28GHz-LOS"), distance_m=distance_m)
    with pytest.raises(ConfigValidationError, match="distance range"):
        t.generate_drop(cfg)
    with pytest.raises(ConfigValidationError, match="distance range"):
        t.generate_drops(cfg)


def test_fixed_distance_consumes_no_distance_stream():
    cfg = make_config("140GHz-NLOS", distance_m=25.0, master_seed=12)
    drop = t.generate_drop(cfg)
    assert drop.distance_m == 25.0
    assert drop.link.distance_m == 25.0


def test_json_roundtrip_every_scenario(scenario_label):
    cfg = make_config(scenario_label, master_seed=203)
    for drop in t.generate_drops(cfg, count=10):
        assert_json_roundtrip(drop)


def test_batched_draws_match_single_cluster_operations():
    """generate_drop consumes its substreams exactly like cluster-by-cluster
    draws: intra delays, cluster delays and within-cluster power shares."""
    cfg = make_config("28GHz-NLOS", master_seed=909)
    params = t.resolved_params(cfg)
    drop = t.generate_drop(cfg, params, drop_index=4)
    assert drop.num_clusters > 1 and drop.num_subpaths > drop.num_clusters

    rho_stream = RandomStream(909, 4, "intra_delay")
    intra = [sort_from_first(rho_stream.sample(exponential, params.mu_rho, size=m))
             for m in drop.cluster_sizes()]
    assert np.array_equal(drop.intra_delays_ns, np.concatenate(intra))

    draws = cluster_delays(params, RandomStream(909, 4, "cluster_delay").uniform(drop.num_clusters))
    tau = place_cluster_delays(draws, [rho[-1] for rho in intra], params.mti)
    assert np.array_equal(drop.cluster_delays_ns, tau)
    z_db = RandomStream(909, 4, "cluster_power").sample(normal, 0.0, params.sigma_z,
                                                         size=drop.num_clusters)
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


def canonical(drop):
    """A drop's JSON form and the dtypes of its arrays."""
    dtypes = [(name, v.dtype.str) for name, v in vars(drop).items() if isinstance(v, np.ndarray)]
    return json.dumps(drop.to_dict(), sort_keys=True), dtypes


def arrays_of(drop):
    return [v for v in vars(drop).values() if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("label, distance", BLOCK_CONFIGS)
def test_generate_batch_is_independent_of_the_block_split(label, distance):
    cfg = make_config(label, distance_m=distance, master_seed=31)
    params = t.resolved_params(cfg)
    start, count = 17, 40
    reference = [canonical(d) for d in generate_batch(cfg, params, start, count)]
    assert reference == [canonical(t.generate_drop(cfg, params, start + i)) for i in range(count)]
    rng = np.random.default_rng(7)
    for _ in range(5):
        cuts = rng.choice(np.arange(1, count), size=rng.integers(1, 6), replace=False)
        bounds = [0, *sorted(cuts.tolist()), count]
        pieces = [drop for a, b in zip(bounds, bounds[1:])
                  for drop in generate_batch(cfg, params, start + a, b - a)]
        assert [canonical(d) for d in pieces] == reference


def test_generate_drops_crosses_blocks_like_single_drops():
    cfg = make_config("140GHz-NLOS", master_seed=33)
    params = t.resolved_params(cfg)
    edge = range(BLOCK_DROPS - 2, BLOCK_DROPS + 2)
    drops = list(t.generate_drops(cfg, params, start=edge[0] - BLOCK_DROPS, count=BLOCK_DROPS + 4))
    assert [d.drop_index for d in drops] == list(range(edge[0] - BLOCK_DROPS, edge[-1] + 1))
    assert ([canonical(d) for d in drops[-4:]]
            == [canonical(t.generate_drop(cfg, params, i)) for i in edge])


def test_block_neighbours_share_no_memory():
    cfg = make_config("28GHz-NLOS", master_seed=32)
    drops = generate_batch(cfg, t.resolved_params(cfg), 0, 3)
    before = [canonical(d) for d in drops]
    for a in arrays_of(drops[1]):
        for neighbour in (drops[0], drops[2]):
            assert not any(np.shares_memory(a, b) for b in arrays_of(neighbour))
        a[...] = 0
    assert [canonical(drops[0]), canonical(drops[2])] == [before[0], before[2]]


@pytest.mark.parametrize("label, distance", BLOCK_CONFIGS)
def test_uniforms_drawn_per_drop_follow_its_structure(monkeypatch, label, distance):
    drawn, calls = {}, []
    stream_uniforms = generate.stream_uniforms

    def recording(keys, counts, starts=None):
        calls.append(len(keys))
        for key, count in zip(keys, counts):
            drawn[key.tobytes()] = drawn.get(key.tobytes(), 0) + int(count)
        return stream_uniforms(keys, counts, starts)

    monkeypatch.setattr(generate, "stream_uniforms", recording)
    cfg = make_config(label, distance_m=distance, master_seed=34)
    drops = generate_batch(cfg, t.resolved_params(cfg), 100, 30)
    assert len(calls) == 3  # one Philox call per stage
    ranged = cfg.distance_range() is not None
    total = 0
    for drop in drops:
        keys = derive_keys(34, [drop.drop_index], LABELS)
        used = sum(drawn.get(key.tobytes(), 0) for key in keys)
        assert used == (2 + ranged + 3 * drop.num_clusters + 9 * drop.num_subpaths
                        + 2 + 2 * (len(drop.aod_lobes) + len(drop.aoa_lobes)))
        total += used
    assert total == sum(drawn.values())  # no stream outside the twelve labels
