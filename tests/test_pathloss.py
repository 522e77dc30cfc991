import math

import numpy as np
import pytest

import tcslsim as t
from tcslsim.errors import InvalidParamsError
from tcslsim.pathloss import SPEED_OF_LIGHT_M_PER_S, dbm_to_mw, fspl_1m, path_loss_ci
from conftest import make_config


def friis_1m_db(frequency_hz):
    """Independent closed-form free-space loss at 1 m."""
    return 20.0 * math.log10(4.0 * math.pi * frequency_hz / 299_792_458.0)


def test_fspl_28ghz_closed_form():
    value = fspl_1m(28e9)
    assert value == pytest.approx(friis_1m_db(28e9), abs=1e-9)
    assert value == pytest.approx(61.39, abs=0.01)


def test_fspl_140ghz_closed_form():
    value = fspl_1m(140e9)
    assert value == pytest.approx(friis_1m_db(140e9), abs=1e-9)
    assert value == pytest.approx(75.37, abs=0.01)


def test_fspl_decade_frequency_law():
    assert fspl_1m(280e9) - fspl_1m(28e9) == pytest.approx(20.0, abs=1e-9)


def test_fspl_rejects_nonpositive_frequency():
    with pytest.raises(InvalidParamsError, match="frequency must be > 0"):
        fspl_1m(0.0)
    with pytest.raises(InvalidParamsError, match="frequency must be > 0"):
        fspl_1m(-1e9)


def test_path_loss_at_reference_is_fspl():
    assert path_loss_ci(28e9, 1.0, 1.2) == fspl_1m(28e9)


def test_path_loss_example_10m():
    value = path_loss_ci(28e9, 10.0, 1.2)
    assert value == pytest.approx(fspl_1m(28e9) + 12.0, abs=1e-9)
    assert value == pytest.approx(73.39, abs=0.02)


def test_path_loss_example_max_measured_distance():
    value = path_loss_ci(28e9, 45.9, 2.8)
    assert value == pytest.approx(fspl_1m(28e9) + 28.0 * math.log10(45.9), abs=1e-9)
    assert value == pytest.approx(107.9, abs=0.1)


def test_path_loss_shadow_term_is_additive():
    base = path_loss_ci(140e9, 20.0, 2.0)
    assert path_loss_ci(140e9, 20.0, 2.0, shadow_db=4.5) == pytest.approx(base + 4.5, abs=1e-12)


def test_path_loss_rejects_below_reference():
    with pytest.raises(InvalidParamsError, match="below the 1 m reference"):
        path_loss_ci(28e9, 0.99, 2.0)


@pytest.mark.parametrize("f,ple,d", [(28e9, 1.2, 1.0), (28e9, 2.8, 3.2), (140e9, 2.0, 4.9)])
def test_decade_law(f, ple, d):
    gap = path_loss_ci(f, 10 * d, ple) - path_loss_ci(f, d, ple)
    assert abs(gap - 10.0 * ple) < 1e-12


def test_dbm_mw_roundtrip():
    for dbm in (-120.5, -73.38, 0.0, 17.25):
        assert 10.0 * math.log10(dbm_to_mw(dbm)) == pytest.approx(dbm, rel=1e-12, abs=1e-12)


def test_link_budget_fields_consistent():
    cfg = make_config("28GHz-NLOS", distance_m=10.0)
    params = t.resolved_params(cfg)
    link = t.link_budget(cfg, params, 3.7, 10.0)
    assert link.shadow_fading_db == 3.7
    assert link.rx_power_dbm == pytest.approx(cfg.tx_power_dbm - link.path_loss_db, abs=1e-12)
    assert link.rx_power_mw == pytest.approx(10 ** (link.rx_power_dbm / 10.0), rel=1e-12)
    assert link.path_loss_db == pytest.approx(
        link.fspl_1m_db + 10 * params.ple * math.log10(10.0) + link.shadow_fading_db, abs=1e-12)


def test_link_budget_rx_example():
    # tx 0 dBm against a 73.38 dB loss leaves -73.38 dBm
    cfg = make_config("28GHz-LOS", distance_m=10.0)
    params = t.resolved_params(cfg)
    link = t.link_budget(cfg, params, 0.0, 10.0)
    assert link.rx_power_dbm == pytest.approx(-(fspl_1m(28e9) + 12.0), abs=1e-9)
    assert link.rx_power_mw == pytest.approx(10 ** (link.rx_power_dbm / 10), rel=1e-12)


def test_zero_sigma_shadowing_is_exactly_zero():
    cfg = make_config("140GHz-LOS", master_seed=5)
    for link in t.generate_batch(cfg, 0, 50).link:
        assert link.shadow_fading_db == 0.0


def test_shadowing_mean_over_draws():
    n = 10_000
    cfg = make_config("140GHz-NLOS", master_seed=77, overrides={"sigma_sf": "4.0"})
    params = t.resolved_params(cfg)
    vals = np.array([link.rx_power_dbm for block in t.generate_drops(cfg, count=n)
                     for link in block.link])
    expected = cfg.tx_power_dbm - path_loss_ci(140e9, 10.0, params.ple)
    assert abs(vals.mean() - expected) < 5 * 4.0 / math.sqrt(n)
    assert abs(vals.std() - 4.0) < 5 * 4.0 / math.sqrt(2 * n)


def test_speed_of_light_constant():
    assert SPEED_OF_LIGHT_M_PER_S == 299_792_458.0
