import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tcslsim as t
from tcslsim.campaign import run_campaign
from tcslsim.errors import ConfigError
from tcslsim.scenario import apply_overrides, parse_override_file, resolved_params

# The full measured parameter table, frozen field by field.
EXPECTED_TABLE = {
    "28GHz-LOS": dict(
        n_c_max=5, lambda_c=None, beta_s=0.8, mu_s=2.4,
        cluster_delay_family="lognormal", mu_tau=2.7, sigma_tau=1.4,
        mu_rho=2.6, mti=6.0, gamma_cluster=38.7, sigma_z=5.0,
        gamma_subpath=2.5, sigma_u=7.0, l_aod_max=2, l_aoa_max=2,
        mu_l_zod=-7.3, sigma_l_zod=3.8, mu_l_zoa=7.4, sigma_l_zoa=3.8,
        sigma_phi_aod=23.5, sigma_theta_aod=16.0,
        sigma_phi_aoa=19.3, sigma_theta_aoa=14.5,
        ple=1.2, sigma_sf=0.0,
    ),
    "28GHz-NLOS": dict(
        n_c_max=None, lambda_c=3.4, beta_s=0.6, mu_s=4.1,
        cluster_delay_family="exponential", mu_tau=12.1, sigma_tau=None,
        mu_rho=15.7, mti=6.0, gamma_cluster=20.1, sigma_z=7.0,
        gamma_subpath=5.0, sigma_u=8.0, l_aod_max=2, l_aoa_max=3,
        mu_l_zod=-5.5, sigma_l_zod=2.9, mu_l_zoa=5.5, sigma_l_zoa=2.9,
        sigma_phi_aod=31.6, sigma_theta_aod=15.6,
        sigma_phi_aoa=25.5, sigma_theta_aoa=14.6,
        ple=2.8, sigma_sf=0.0,
    ),
    "140GHz-LOS": dict(
        n_c_max=4, lambda_c=None, beta_s=0.8, mu_s=1.0,
        cluster_delay_family="exponential", mu_tau=18.6, sigma_tau=None,
        mu_rho=2.2, mti=6.0, gamma_cluster=6.0, sigma_z=3.0,
        gamma_subpath=1.4, sigma_u=5.0, l_aod_max=2, l_aoa_max=2,
        mu_l_zod=-6.8, sigma_l_zod=4.9, mu_l_zoa=7.4, sigma_l_zoa=4.5,
        sigma_phi_aod=4.8, sigma_theta_aod=4.2,
        sigma_phi_aoa=4.8, sigma_theta_aoa=4.3,
        ple=2.0, sigma_sf=0.0,
    ),
    "140GHz-NLOS": dict(
        n_c_max=None, lambda_c=1.3, beta_s=1.0, mu_s=1.0,
        cluster_delay_family="exponential", mu_tau=23.5, sigma_tau=None,
        mu_rho=2.2, mti=6.0, gamma_cluster=13.4, sigma_z=5.0,
        gamma_subpath=2.0, sigma_u=6.0, l_aod_max=2, l_aoa_max=2,
        mu_l_zod=-2.5, sigma_l_zod=2.7, mu_l_zoa=4.8, sigma_l_zoa=2.8,
        sigma_phi_aod=5.1, sigma_theta_aod=4.1,
        sigma_phi_aoa=5.4, sigma_theta_aoa=4.2,
        ple=3.0, sigma_sf=0.0,
    ),
}


def test_exactly_four_scenarios():
    assert len(t.ALL_SCENARIOS) == 4
    assert len({s.value for s in t.ALL_SCENARIOS}) == 4


def test_the_scenario_enum_is_closed():
    with pytest.raises(ValueError):
        t.Scenario("60GHz-LOS")
    assert t.ALL_SCENARIOS == tuple(t.Scenario)
    assert all(t.Scenario.parse(s.value) is s for s in t.Scenario)
    assert [s.frequency_hz for s in t.ALL_SCENARIOS] == [28e9, 28e9, 140e9, 140e9]


@pytest.mark.parametrize("text,label", [
    ("28GHz-LOS", "28GHz-LOS"),
    ("28-los", "28GHz-LOS"),
    ("140_nlos", "140GHz-NLOS"),
    ("140 NLOS", "140GHz-NLOS"),
])
def test_scenario_parse(text, label):
    assert t.Scenario.parse(text).value == label


def test_scenario_parse_rejects_garbage():
    with pytest.raises(ValueError):
        t.Scenario.parse("60GHz-LOS")


def test_table_roundtrip_verbatim():
    dumped = t.params_table()
    assert dumped == EXPECTED_TABLE


def test_lookup_examples_28_nlos():
    p = t.lookup_params(t.Scenario.parse("28-nlos"))
    assert p.lambda_c == 3.4
    assert p.beta_s == 0.6
    assert p.mu_s == 4.1
    assert p.mu_tau == 12.1
    assert p.mu_rho == 15.7
    assert p.gamma_cluster == 20.1
    assert p.sigma_z == 7.0
    assert p.gamma_subpath == 5.0
    assert p.sigma_u == 8.0
    assert (p.l_aod_max, p.l_aoa_max) == (2, 3)


def test_lookup_examples_140_los():
    p = t.lookup_params(t.Scenario.parse("140-los"))
    assert p.n_c_max == 4
    assert p.beta_s == 0.8
    assert p.mu_s == 1.0
    assert p.mu_tau == 18.6
    assert p.cluster_delay_family == "exponential"
    assert p.gamma_cluster == 6.0
    assert p.sigma_z == 3.0


def test_lookup_examples_28_los():
    p = t.lookup_params(t.Scenario.parse("28-los"))
    assert p.cluster_delay_family == "lognormal"
    assert (p.mu_tau, p.sigma_tau) == (2.7, 1.4)
    assert p.ple == 1.2


def test_lookup_is_pure():
    s = t.Scenario.parse("140-nlos")
    assert t.lookup_params(s) == t.lookup_params(s)
    assert t.lookup_params(s) is t.lookup_params(s)


def test_exactly_one_cluster_count_parameter():
    for s in t.ALL_SCENARIOS:
        p = t.lookup_params(s)
        assert (p.n_c_max is None) != (p.lambda_c is None)
        if s.value.endswith("-LOS"):
            assert p.n_c_max is not None
        else:
            assert p.lambda_c is not None


def test_params_json_serializable():
    json.dumps(t.params_table())


def test_validate_accepts_measured_min_distance():
    cfg = t.SimConfig(scenario=t.ALL_SCENARIOS[0], distance_m=3.9)
    assert t.validate_config(cfg).distance_m == 3.9


def test_validate_rejects_below_reference():
    cfg = t.SimConfig(scenario=t.ALL_SCENARIOS[0], distance_m=0.5)
    with pytest.raises(ConfigError) as exc:
        t.validate_config(cfg)
    assert [str(v) for v in exc.value.violations] == ["distance 0.5 m outside [1.0, 50.0] m"]


def test_validate_rejects_zero_drops():
    cfg = t.SimConfig(scenario=t.ALL_SCENARIOS[0], num_drops=0)
    with pytest.raises(ConfigError) as exc:
        t.validate_config(cfg)
    assert [str(v) for v in exc.value.violations] == ["num_drops must be >= 1, got 0"]


@pytest.mark.parametrize("field", ["num_drops", "workers"])
@pytest.mark.parametrize("value", [True, False, None, 2.0, "3"])
def test_validate_says_a_count_that_is_no_integer_is_no_integer(field, value):
    cfg = dataclasses.replace(t.SimConfig(scenario=t.ALL_SCENARIOS[0]), **{field: value})
    with pytest.raises(ConfigError) as exc:
        t.validate_config(cfg)
    assert exc.value.violations == [f"{field} must be an integer, got {value!r}"]


@pytest.mark.parametrize("value", [0, -2])
def test_validate_says_a_worker_count_below_one_is_below_one(value):
    cfg = t.SimConfig(scenario=t.ALL_SCENARIOS[0], workers=value)
    with pytest.raises(ConfigError) as exc:
        t.validate_config(cfg)
    assert exc.value.violations == [f"workers must be >= 1, got {value}"]


def test_validate_collects_every_violation():
    cfg = t.SimConfig(scenario=t.ALL_SCENARIOS[0], distance_m=0.2, num_drops=-3,
                      overrides={"no_such": "1"})
    with pytest.raises(ConfigError) as exc:
        t.validate_config(cfg)
    violations = exc.value.violations
    assert all(isinstance(v, str) for v in violations)
    for expected in ("distance 0.2 m outside", "num_drops must be >= 1, got -3",
                     "unknown parameter 'no_such'"):
        assert sum(expected in str(v) for v in violations) == 1, expected


def test_validate_lists_every_unknown_key_and_bad_value_of_the_overrides():
    overrides = {"foo": "1", "mu_rho": "x", "bar": "2", "ple": True, "beta_s": "0.5"}
    cfg = t.SimConfig(scenario=t.Scenario.parse("28-los"), num_drops=0, overrides=overrides)
    with pytest.raises(ConfigError) as exc:
        t.validate_config(cfg)
    assert exc.value.violations == [
        "num_drops must be >= 1, got 0",
        "unknown parameter 'foo'",
        "bad value for 'mu_rho': could not convert string to float: 'x'",
        "unknown parameter 'bar'",
        "bad value for 'ple': True is a flag, not a number",
    ]


def test_validate_distance_range():
    cfg = t.SimConfig(scenario=t.ALL_SCENARIOS[0], distance_m=(5.0, 45.0))
    assert t.validate_config(cfg).distance_range() == (5.0, 45.0)
    with pytest.raises(ConfigError):
        t.validate_config(t.SimConfig(scenario=t.ALL_SCENARIOS[0], distance_m=(45.0, 5.0)))


def test_validate_master_seed_bounds():
    with pytest.raises(ConfigError):
        t.validate_config(t.SimConfig(scenario=t.ALL_SCENARIOS[0], master_seed=-1))
    t.validate_config(t.SimConfig(scenario=t.ALL_SCENARIOS[0], master_seed=2**64 - 1))


@pytest.mark.parametrize("field, value", [
    ("workers", None), ("workers", 2.5), ("overrides", None), ("distance_m", (5.0, "x")),
    ("tx_power_dbm", math.nan), ("tx_power_dbm", "x"), ("num_drops", True), ("master_seed", True),
    ("scenario", "28GHz-LOS"), ("outputs", None),
    ("scenario", np.array([1, 2])),  # whose == gives no truth value
])
def test_validate_rejects_wrong_types(field, value):
    cfg = dataclasses.replace(t.SimConfig(scenario=t.ALL_SCENARIOS[0]), **{field: value})
    with pytest.raises(ConfigError):
        t.validate_config(cfg)


@pytest.mark.parametrize("out_dir", [3, 2.5, b"out", ["out"], True])
def test_validate_rejects_an_out_dir_that_is_not_a_path(out_dir):
    cfg = t.SimConfig(scenario=t.ALL_SCENARIOS[0], out_dir=out_dir, outputs=("summary",))
    with pytest.raises(ConfigError, match="out_dir must be a path or None"):
        t.validate_config(cfg)
    # run_campaign validates first, so Path(out_dir) never raises TypeError
    with pytest.raises(ConfigError, match="out_dir must be a path or None"):
        run_campaign(cfg)


def test_validate_accepts_a_str_or_path_out_dir(tmp_path):
    for out_dir in (None, str(tmp_path), tmp_path):
        t.validate_config(t.SimConfig(scenario=t.ALL_SCENARIOS[0], out_dir=out_dir))
    result = run_campaign(t.SimConfig(scenario=t.ALL_SCENARIOS[0], out_dir=tmp_path,
                                      outputs=("summary",)))
    assert result.paths["summary"] == tmp_path / "summary.json"


def test_validate_rejects_lambda_c_past_the_poisson_search():
    # the shifted-Poisson inverse CDF starts its search at exp(-lambda_c),
    # which is no longer a normal float past lambda_c of about 708.4
    nlos = t.Scenario.parse("28GHz-NLOS")
    for value in ("708.5", "745", "800", "1e6"):
        with pytest.raises(ConfigError, match="lambda_c must keep exp"):
            t.validate_config(t.SimConfig(scenario=nlos, overrides={"lambda_c": value}))
    cfg = t.validate_config(t.SimConfig(scenario=nlos, overrides={"lambda_c": "708"}))
    assert resolved_params(cfg).lambda_c == 708.0


_PARAM_NAMES = sorted(f.name for f in dataclasses.fields(t.ScenarioParams))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6))
_VALUES = st.one_of(
    _SCALARS,
    st.sampled_from(t.ALL_SCENARIOS),
    st.tuples(_SCALARS, _SCALARS),
    st.lists(_SCALARS, max_size=3),
    st.dictionaries(st.one_of(st.sampled_from(_PARAM_NAMES), st.text(max_size=6)),
                    _SCALARS, max_size=3),
)


@given(field=st.sampled_from([f.name for f in dataclasses.fields(t.SimConfig)]),
       value=_VALUES)
@settings(max_examples=400, deadline=None)
def test_validate_config_raises_only_validation_error(field, value):
    cfg = dataclasses.replace(t.SimConfig(scenario=t.ALL_SCENARIOS[1]), **{field: value})
    try:
        t.validate_config(cfg)
    except ConfigError:
        pass


def test_apply_overrides_changes_one_field():
    base = t.lookup_params(t.Scenario.parse("28-nlos"))
    out = apply_overrides(base, {"mu_rho": "3.5"})
    assert out.mu_rho == 3.5
    assert dataclasses.replace(out, mu_rho=base.mu_rho) == base


def test_apply_overrides_unknown_key():
    base = t.lookup_params(t.Scenario.parse("28-nlos"))
    with pytest.raises(ConfigError, match="unknown parameter 'mu_bogus'"):
        apply_overrides(base, {"mu_bogus": "1"})


def test_apply_overrides_bad_value():
    base = t.lookup_params(t.Scenario.parse("28-nlos"))
    with pytest.raises(ConfigError, match="bad value for 'mu_rho'"):
        apply_overrides(base, {"mu_rho": "not-a-number"})


_FLOAT_PARAMS = sorted(f.name for f in dataclasses.fields(t.ScenarioParams)
                       if f.type in ("float", "float | None"))
_NUMBER_PARAMS = sorted(f.name for f in dataclasses.fields(t.ScenarioParams)
                        if f.type != "str")


@pytest.mark.parametrize("name", _NUMBER_PARAMS)
@pytest.mark.parametrize("value", [True, False])
def test_a_bool_override_is_refused_for_every_number_parameter(name, value):
    # True == 1 and False == 0, but a flag is no path loss exponent
    cfg = t.SimConfig(scenario=t.Scenario.parse("28-nlos"), overrides={name: value})
    with pytest.raises(ConfigError, match=f"^bad value for '{name}': {value} is a flag"):
        t.validate_config(cfg)


@pytest.mark.parametrize("name", _FLOAT_PARAMS)
def test_apply_overrides_rejects_non_finite_values(name):
    base = t.lookup_params(t.Scenario.parse("28-nlos"))
    for value in (math.nan, math.inf, -math.inf, "nan", "inf", "-inf", "NaN", "Infinity"):
        with pytest.raises(ConfigError, match=f"bad value for '{name}': .* is not finite"):
            apply_overrides(base, {name: value})


@pytest.mark.parametrize("name", _FLOAT_PARAMS)
def test_params_reject_non_finite_values_however_built(name):
    # dataclasses.replace re-runs the invariants without apply_overrides'
    # coercion, as building a ScenarioParams directly does
    base = t.lookup_params(t.Scenario.parse("28-nlos"))
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            dataclasses.replace(base, **{name: value})


@pytest.mark.parametrize("name, value", [("sigma_z", math.nan), ("mti", math.inf),
                                         ("lambda_c", math.inf), ("mu_rho", -math.inf)])
def test_params_reject_a_non_finite_value_the_invariants_miss(name, value):
    # `mti <= 0` and the other comparisons are false for NaN, and +inf
    # passes every lower bound
    base = t.lookup_params(t.Scenario.parse("28-nlos"))
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        dataclasses.replace(base, **{name: value})
    assert dataclasses.asdict(dataclasses.replace(base, **{name: 1.0}))[name] == 1.0


def test_validate_rejects_nan_override():
    cfg = t.SimConfig(scenario=t.Scenario.parse("28GHz-NLOS"), overrides={"mu_rho": "nan"})
    with pytest.raises(ConfigError):
        t.validate_config(cfg)


def test_apply_overrides_invariant_violation():
    base = t.lookup_params(t.Scenario.parse("28-nlos"))
    with pytest.raises(ConfigError, match=r"beta_s must be in \[0, 1\]"):
        apply_overrides(base, {"beta_s": "1.5"})


def test_override_file_parsing(tmp_path):
    path = tmp_path / "o.cfg"
    path.write_text("# comment\nmu_rho = 4.0\nsigma_u=2.0  # trailing\n\n")
    assert parse_override_file(path) == {"mu_rho": "4.0", "sigma_u": "2.0"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("mu_rho 4.0\n")
    with pytest.raises(ConfigError, match=":1: expected key=value"):
        parse_override_file(bad)


def test_override_file_names_every_bad_line_in_order(tmp_path):
    path = tmp_path / "o.cfg"
    path.write_bytes(b"garbage\n# caf\xe9\nmu_rho = 4.0\nsigma_u\xff = 2\n")
    with pytest.raises(ConfigError) as exc:
        parse_override_file(path)
    assert exc.value.violations == [f"{path}:1: expected key=value, got 'garbage'",
                                    f"{path}:2: byte 0xe9 is not UTF-8",
                                    f"{path}:4: byte 0xff is not UTF-8"]


def test_resolved_params_uses_overrides():
    cfg = t.validate_config(t.SimConfig(scenario=t.Scenario.parse("140-los"),
                                        overrides={"gamma_cluster": "9.0"}))
    assert resolved_params(cfg).gamma_cluster == 9.0
