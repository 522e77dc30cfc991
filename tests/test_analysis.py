import numpy as np
import pytest

import tcslsim as t
from tcslsim.analysis import inter_cluster_offsets, intra_delay_samples
from tcslsim.generate import cluster_delay_spec, sort_from_first
from tcslsim.randcore import RandomStream

from conftest import make_config


def test_inter_cluster_offsets_recover_the_sorted_delay_draws(scenario_label):
    cfg = make_config(scenario_label, master_seed=21)
    params = t.resolved_params(cfg)
    for drop in t.generate_drops(cfg, params, count=100):
        offsets = inter_cluster_offsets(drop, params.mti)
        assert len(offsets) == drop.num_clusters - 1
        assert (offsets >= 0).all()
        draws = RandomStream(21, drop.drop_index, "cluster_delay").sample(
            cluster_delay_spec(params), drop.num_clusters)
        assert offsets == pytest.approx(sort_from_first(draws)[1:], rel=1e-9, abs=1e-9)


def test_intra_delay_samples_leave_out_each_cluster_zero(scenario_label):
    cfg = make_config(scenario_label, master_seed=22)
    for drop in t.generate_drops(cfg, count=100):
        samples = intra_delay_samples(drop)
        assert len(samples) == drop.num_subpaths - drop.num_clusters
        per_cluster = np.split(drop.intra_delays_ns, drop.cluster_start[1:])
        assert np.array_equal(samples, np.concatenate([c[1:] for c in per_cluster]))


def test_intra_delay_samples_estimate_mu_rho():
    cfg = make_config("28GHz-NLOS", master_seed=23)  # mu_rho 15.7
    samples = np.concatenate([intra_delay_samples(d) for d in t.generate_drops(cfg, count=300)])
    assert len(samples) > 1000
    # exponential: the sample mean has standard error mu / sqrt(n); allow 5 of them
    assert abs(samples.mean() - 15.7) < 5 * 15.7 / np.sqrt(len(samples))
