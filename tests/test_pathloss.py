import math
import re

import numpy as np
import pytest

import tcslsim as t
from tcslsim.errors import ConfigError, InvalidParamsError
from tcslsim.pathloss import SPEED_OF_LIGHT_M_PER_S, fspl_1m, link_budget
from tcslsim.randcore import float_exp10
from tcslsim.scenario import resolved_params
from conftest import dbm_to_mw, make_config, path_loss_ci


def friis_1m_db(frequency_hz):
    """Independent closed-form free-space loss at 1 m."""
    return 20.0 * math.log10(4.0 * math.pi * frequency_hz / 299_792_458.0)


def budget_path_loss(frequency_hz, ple, distances, shadows=None):
    """`link_budget`'s path loss in dB of drops at `distances`, in the LOS
    scenario at `frequency_hz` with path loss exponent `ple`."""
    label = {28e9: "28GHz-LOS", 140e9: "140GHz-LOS"}[frequency_hz]
    cfg = make_config(label, overrides={"ple": repr(ple)})
    shadows = [0.0] * len(distances) if shadows is None else shadows
    return link_budget(cfg, resolved_params(cfg), shadows, distances)[0]


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
    assert budget_path_loss(28e9, 1.2, [1.0]) == [fspl_1m(28e9)]


def test_path_loss_example_10m():
    (value,) = budget_path_loss(28e9, 1.2, [10.0])
    assert value == pytest.approx(fspl_1m(28e9) + 12.0, abs=1e-9)
    assert value == pytest.approx(73.39, abs=0.02)


def test_path_loss_example_max_measured_distance():
    (value,) = budget_path_loss(28e9, 2.8, [45.9])
    assert value == pytest.approx(fspl_1m(28e9) + 28.0 * math.log10(45.9), abs=1e-9)
    assert value == pytest.approx(107.9, abs=0.1)


def test_path_loss_shadow_term_is_additive():
    base, shadowed = budget_path_loss(140e9, 2.0, [20.0, 20.0], [0.0, 4.5])
    assert shadowed == pytest.approx(base + 4.5, abs=1e-12)


def test_path_loss_rejects_below_reference():
    # link_budget takes distances the config has checked against the 1 m reference
    with pytest.raises(ConfigError, match=r"^distance 0\.99 m outside \[1\.0, 50\.0\] m$"):
        make_config("28GHz-LOS", distance_m=0.99)


@pytest.mark.parametrize("f,ple,d", [(28e9, 1.2, 1.0), (28e9, 2.8, 3.2), (140e9, 2.0, 4.9)])
def test_decade_law(f, ple, d):
    near, far = budget_path_loss(f, ple, [d, 10 * d])
    gap = far - near
    assert abs(gap - 10.0 * ple) < 1e-12


def test_dbm_mw_roundtrip():
    for dbm in (-120.5, -73.38, 0.0, 17.25):
        assert 10.0 * math.log10(dbm_to_mw(dbm)) == pytest.approx(dbm, rel=1e-12, abs=1e-12)


def test_link_budget_fields_consistent():
    cfg = make_config("28GHz-NLOS", distance_m=10.0)
    params = resolved_params(cfg)
    (path_loss,), (rx_dbm,), (rx_mw,) = link_budget(cfg, params, [3.7], [10.0])
    assert rx_dbm == pytest.approx(cfg.tx_power_dbm - path_loss, abs=1e-12)
    assert rx_mw == pytest.approx(10 ** (rx_dbm / 10.0), rel=1e-12)
    assert path_loss == pytest.approx(
        fspl_1m(28e9) + 10 * params.ple * math.log10(10.0) + 3.7, abs=1e-12)


def test_link_budget_rx_example():
    # tx 0 dBm against a 73.38 dB loss leaves -73.38 dBm
    cfg = make_config("28GHz-LOS", distance_m=10.0)
    params = resolved_params(cfg)
    _, (rx_dbm,), (rx_mw,) = link_budget(cfg, params, [0.0], [10.0])
    assert rx_dbm == pytest.approx(-(fspl_1m(28e9) + 12.0), abs=1e-9)
    assert rx_mw == pytest.approx(10 ** (rx_dbm / 10), rel=1e-12)


@pytest.mark.parametrize("tx_power_dbm", [0.0, 23.5, -17, 30])
def test_link_budget_equals_the_scalar_formulas_bit_for_bit(tx_power_dbm):
    cfg = make_config("140GHz-NLOS", distance_m=(1.0, 50.0), tx_power_dbm=tx_power_dbm)
    params = resolved_params(cfg)
    shadows, distances = [3.7, -12.25, 0.0, 1e-9], [10.0, 1.0, 45.9, 2.0 ** 0.5]
    path_loss, rx_dbm, rx_mw = link_budget(cfg, params, shadows, distances)
    assert path_loss == [path_loss_ci(140e9, d, params.ple, s)
                         for s, d in zip(shadows, distances)]
    assert rx_dbm == [tx_power_dbm - pl for pl in path_loss]
    assert rx_mw == list(map(dbm_to_mw, rx_dbm))
    assert {type(v) for v in path_loss + rx_dbm + rx_mw} == {float}


def test_float_exp10_is_inf_above_and_zero_below_the_float_range():
    assert float_exp10(400.0) == math.inf
    assert float_exp10(-400.0) == 0.0


def test_link_budget_refuses_nothing():
    # the second drop's power overflows in mW and the third's underflows
    cfg = make_config("28GHz-LOS")
    params = resolved_params(cfg)
    _, rx_dbm, rx_mw = link_budget(cfg, params, [0.0, -4000.0, 4000.0], [10.0] * 3)
    assert rx_mw == [dbm_to_mw(rx_dbm[0]), math.inf, 0.0]


# sigma_sf 1000 dB draws shadowing whose received power in mW overflows
# or underflows to 0 within 300 drops at each of these seeds
@pytest.mark.parametrize("seed", [1, 3, 4])
@pytest.mark.parametrize("start", [0, 50])
def test_generate_batch_refuses_the_first_power_outside_the_float_range(seed, start):
    count = 300 - start
    cfg = make_config("28GHz-LOS", master_seed=seed, overrides={"sigma_sf": "1000"})
    params = resolved_params(cfg)
    # a Normal(0, sigma) draw is 0.0 + sigma * z, and z is the draw at sigma 1
    unit = make_config("28GHz-LOS", master_seed=seed, overrides={"sigma_sf": "1"})
    rx_dbm = [cfg.tx_power_dbm - path_loss_ci(28e9, 10.0, params.ple, 0.0 + 1000.0 * z)
              for z in t.generate_batch(unit, start, count).shadow_fading_db]
    drop = next(i for i, dbm in enumerate(rx_dbm) if not 0.0 < dbm_to_mw(dbm) < math.inf)
    message = (f"received power {rx_dbm[drop]!r} dBm of drop {start + drop} is outside "
               f"the float range in mW; check tx_power_dbm, ple and sigma_sf")
    with pytest.raises(InvalidParamsError, match=f"^{re.escape(message)}$"):
        t.generate_batch(cfg, start, count)


def test_zero_sigma_shadowing_is_exactly_zero():
    cfg = make_config("140GHz-LOS", master_seed=5)
    assert t.generate_batch(cfg, 0, 50).shadow_fading_db == [0.0] * 50


def test_shadowing_mean_over_draws():
    n = 10_000
    cfg = make_config("140GHz-NLOS", master_seed=77, overrides={"sigma_sf": "4.0"})
    params = resolved_params(cfg)
    vals = np.array([v for block in t.generate_drops(cfg, count=n) for v in block.rx_power_dbm])
    expected = cfg.tx_power_dbm - path_loss_ci(140e9, 10.0, params.ple)
    assert abs(vals.mean() - expected) < 5 * 4.0 / math.sqrt(n)
    assert abs(vals.std() - 4.0) < 5 * 4.0 / math.sqrt(2 * n)


def test_speed_of_light_constant():
    assert SPEED_OF_LIGHT_M_PER_S == 299_792_458.0
