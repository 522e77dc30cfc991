"""Scenario parameter sets and simulation configuration.

`Scenario` is closed: its four members are the indoor office scenarios
the paper fits, 28 GHz and 140 GHz, each LOS and NLOS, and each member's
value is its label. Each scenario carries the full set of cluster,
subpath and spatial-lobe statistics needed by the channel generator,
plus the close-in path loss parameters for the link budget.
`validate_config` checks a `SimConfig` whole and raises one
`ConfigError` listing every violated constraint.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path, PurePath
from typing import Mapping

from .errors import ConfigError

MIN_DISTANCE_M = 1.0   # close-in reference distance
MAX_DISTANCE_M = 50.0

# Transmit powers beyond any transmitter's, yet about 2,000 dB inside the
# range of float mW on either side, so that the received power, each
# subpath's share of it and their dB values stay positive and finite
# whatever the path loss of the built-in tables at 1-50 m.
MIN_TX_POWER_DBM = -1000.0
MAX_TX_POWER_DBM = 1000.0

DEFAULT_MTI_NS = 6.0   # minimum inter-cluster time void interval, indoor office


class Scenario(enum.Enum):
    """The four scenarios the paper fits; a member's value is its label."""

    GHZ28_LOS = "28GHz-LOS"
    GHZ28_NLOS = "28GHz-NLOS"
    GHZ140_LOS = "140GHz-LOS"
    GHZ140_NLOS = "140GHz-NLOS"

    @property
    def frequency_hz(self) -> float:
        return 28e9 if self.value.startswith("28") else 140e9

    @classmethod
    def parse(cls, text: str) -> "Scenario":
        """Parse labels like '28GHz-LOS', '28-los' or '140_nlos'."""
        t = text.strip().lower().replace("ghz", "").replace("_", "-").replace(" ", "-")
        parts = [p for p in t.split("-") if p]
        if len(parts) == 2 and parts[0] in ("28", "140") and parts[1] in ("los", "nlos"):
            return cls(f"{parts[0]}GHz-{parts[1].upper()}")
        raise ValueError(f"unrecognized scenario {text!r}")


ALL_SCENARIOS = tuple(Scenario)


@dataclass(frozen=True)
class ScenarioParams:
    """Statistical inputs for channel generation in one scenario.

    Delay-type quantities are in nanoseconds, angles in degrees and
    shadowing / per-path gain variations in dB. `n_c_max` is set for LOS
    scenarios (discrete-uniform cluster count) and `lambda_c` for NLOS
    (shifted-Poisson cluster count); exactly one of the two is present.
    """

    # temporal
    n_c_max: int | None          # max number of time clusters (LOS)
    lambda_c: float | None       # Poisson mean of extra clusters (NLOS)
    beta_s: float                # weight of the discrete-exponential subpath component
    mu_s: float                  # mean of the discrete-exponential subpath count
    cluster_delay_family: str    # 'exponential' or 'lognormal'
    mu_tau: float                # ns (exponential), or mean of ln(ns) (lognormal)
    sigma_tau: float | None      # std of ln(ns), lognormal only
    mu_rho: float                # intra-cluster delay mean, ns
    mti: float                   # minimum inter-cluster time void interval, ns
    gamma_cluster: float         # cluster power decay constant, ns
    sigma_z: float               # per-cluster shadowing std, dB
    gamma_subpath: float         # subpath power decay constant, ns
    sigma_u: float               # per-subpath shadowing std, dB
    # spatial
    l_aod_max: int
    l_aoa_max: int
    mu_l_zod: float              # departure lobe mean elevation, deg (negative = below horizon)
    sigma_l_zod: float
    mu_l_zoa: float              # arrival lobe mean elevation, deg
    sigma_l_zoa: float
    sigma_phi_aod: float         # subpath azimuth offset std, deg
    sigma_theta_aod: float       # subpath elevation offset std, deg
    sigma_phi_aoa: float
    sigma_theta_aoa: float
    # path loss
    ple: float                   # path loss exponent
    sigma_sf: float              # shadow fading std, dB

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if (f.type in ("float", "float | None") and value is not None
                    and not math.isfinite(value)):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if (self.n_c_max is None) == (self.lambda_c is None):
            raise ValueError("exactly one of n_c_max / lambda_c must be set")
        if self.n_c_max is not None and self.n_c_max < 1:
            raise ValueError("n_c_max must be >= 1")
        if self.lambda_c is not None and self.lambda_c <= 0:
            raise ValueError("lambda_c must be > 0")
        if self.lambda_c is not None and math.exp(-self.lambda_c) < sys.float_info.min:
            # the Poisson inverse CDF starts its search at exp(-lambda_c)
            raise ValueError("lambda_c must keep exp(-lambda_c) a normal float (about 708 at most)")
        if not 0.0 <= self.beta_s <= 1.0:
            raise ValueError("beta_s must be in [0, 1]")
        if self.cluster_delay_family not in ("exponential", "lognormal"):
            raise ValueError(f"unknown cluster delay family {self.cluster_delay_family!r}")
        if self.cluster_delay_family == "lognormal" and self.sigma_tau is None:
            raise ValueError("lognormal cluster delays need sigma_tau")
        if self.sigma_tau is not None and self.sigma_tau < 0:
            raise ValueError("sigma_tau must be >= 0")
        if self.cluster_delay_family == "exponential" and self.mu_tau <= 0:
            raise ValueError("exponential mu_tau must be > 0")
        for name in ("mti", "mu_s", "mu_rho", "gamma_cluster", "gamma_subpath", "ple"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in (
            "sigma_z", "sigma_u", "sigma_l_zod", "sigma_l_zoa",
            "sigma_phi_aod", "sigma_theta_aod", "sigma_phi_aoa", "sigma_theta_aoa",
            "sigma_sf",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.l_aod_max < 1 or self.l_aoa_max < 1:
            raise ValueError("lobe count maxima must be >= 1")

    def sigma_phi(self, side: str) -> float:
        return self.sigma_phi_aod if side == "aod" else self.sigma_phi_aoa

    def sigma_theta(self, side: str) -> float:
        return self.sigma_theta_aod if side == "aod" else self.sigma_theta_aoa

    def lobe_elevation_params(self, side: str) -> tuple[float, float]:
        if side == "aod":
            return self.mu_l_zod, self.sigma_l_zod
        return self.mu_l_zoa, self.sigma_l_zoa


# Measured parameter table for the four scenarios. 28 GHz path loss
# exponents come from the same measurement campaign; the 140 GHz
# exponents are placeholders (no published fit for this environment) and
# only scale total received power, which all shape statistics are
# invariant to. Shadow fading defaults to 0 dB (deterministic link
# budget) and can be overridden per run.
_TABLE: dict[Scenario, ScenarioParams] = {
    Scenario.GHZ28_LOS: ScenarioParams(
        n_c_max=5, lambda_c=None, beta_s=0.8, mu_s=2.4,
        cluster_delay_family="lognormal", mu_tau=2.7, sigma_tau=1.4,
        mu_rho=2.6, mti=DEFAULT_MTI_NS,
        gamma_cluster=38.7, sigma_z=5.0, gamma_subpath=2.5, sigma_u=7.0,
        l_aod_max=2, l_aoa_max=2,
        mu_l_zod=-7.3, sigma_l_zod=3.8, mu_l_zoa=7.4, sigma_l_zoa=3.8,
        sigma_phi_aod=23.5, sigma_theta_aod=16.0,
        sigma_phi_aoa=19.3, sigma_theta_aoa=14.5,
        ple=1.2, sigma_sf=0.0,
    ),
    Scenario.GHZ28_NLOS: ScenarioParams(
        n_c_max=None, lambda_c=3.4, beta_s=0.6, mu_s=4.1,
        cluster_delay_family="exponential", mu_tau=12.1, sigma_tau=None,
        mu_rho=15.7, mti=DEFAULT_MTI_NS,
        gamma_cluster=20.1, sigma_z=7.0, gamma_subpath=5.0, sigma_u=8.0,
        l_aod_max=2, l_aoa_max=3,
        mu_l_zod=-5.5, sigma_l_zod=2.9, mu_l_zoa=5.5, sigma_l_zoa=2.9,
        sigma_phi_aod=31.6, sigma_theta_aod=15.6,
        sigma_phi_aoa=25.5, sigma_theta_aoa=14.6,
        ple=2.8, sigma_sf=0.0,
    ),
    Scenario.GHZ140_LOS: ScenarioParams(
        n_c_max=4, lambda_c=None, beta_s=0.8, mu_s=1.0,
        cluster_delay_family="exponential", mu_tau=18.6, sigma_tau=None,
        mu_rho=2.2, mti=DEFAULT_MTI_NS,
        gamma_cluster=6.0, sigma_z=3.0, gamma_subpath=1.4, sigma_u=5.0,
        l_aod_max=2, l_aoa_max=2,
        mu_l_zod=-6.8, sigma_l_zod=4.9, mu_l_zoa=7.4, sigma_l_zoa=4.5,
        sigma_phi_aod=4.8, sigma_theta_aod=4.2,
        sigma_phi_aoa=4.8, sigma_theta_aoa=4.3,
        ple=2.0, sigma_sf=0.0,  # ple is a placeholder, no published 140 GHz LOS fit
    ),
    Scenario.GHZ140_NLOS: ScenarioParams(
        n_c_max=None, lambda_c=1.3, beta_s=1.0, mu_s=1.0,
        cluster_delay_family="exponential", mu_tau=23.5, sigma_tau=None,
        mu_rho=2.2, mti=DEFAULT_MTI_NS,
        gamma_cluster=13.4, sigma_z=5.0, gamma_subpath=2.0, sigma_u=6.0,
        l_aod_max=2, l_aoa_max=2,
        mu_l_zod=-2.5, sigma_l_zod=2.7, mu_l_zoa=4.8, sigma_l_zoa=2.8,
        sigma_phi_aod=5.1, sigma_theta_aod=4.1,
        sigma_phi_aoa=5.4, sigma_theta_aoa=4.2,
        ple=3.0, sigma_sf=0.0,  # ple is a placeholder, no published 140 GHz NLOS fit
    ),
}

# the override schema: each parameter's annotation, such as "int | None"
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ScenarioParams)}


def lookup_params(scenario: Scenario) -> ScenarioParams:
    """Return the built-in parameter set for one scenario (pure, total)."""
    return _TABLE[scenario]


def params_table() -> dict[str, dict]:
    """Dump all four scenario parameter sets keyed by scenario label."""
    return {s.value: dataclasses.asdict(lookup_params(s)) for s in ALL_SCENARIOS}


def apply_overrides(params: ScenarioParams, overrides: Mapping[str, object]) -> ScenarioParams:
    """Replace named fields of a parameter set, re-validating the result.

    Values may be strings (as parsed from config files or CLI flags);
    they are coerced to the field's type. Raises one ConfigError listing
    every unknown key and every unparsable or non-finite value, in the
    order given; else one naming the first parameter invariant that the
    combined parameters violate.
    """
    if not overrides:
        return params
    coerced: dict[str, object] = {}
    violations = []
    for key, raw in overrides.items():
        if key not in _FIELD_TYPES:
            violations.append(f"unknown parameter {key!r}")
            continue
        try:
            coerced[key] = _coerce_field(key, raw)
        except (TypeError, ValueError, OverflowError) as exc:
            violations.append(f"bad value for {key!r}: {exc}")
    if violations:
        raise ConfigError(*violations)
    try:
        return dataclasses.replace(params, **coerced)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _coerce_field(key: str, raw: object):
    kind = _FIELD_TYPES[key]
    if kind.endswith("| None") and (raw is None or (isinstance(raw, str) and raw.lower() in ("none", "na"))):
        return None
    if kind == "str":
        return str(raw).strip().lower()
    if isinstance(raw, bool):
        raise TypeError(f"{raw!r} is a flag, not a number")
    if kind.startswith("int"):
        return int(str(raw))
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


# what errors="surrogateescape" decodes each byte that is not UTF-8 to
_UNDECODED = re.compile("[\udc80-\udcff]")


def undecodable(path, lineno: int, line: str) -> str | None:
    """The error naming line `lineno` of `path` if `line`, as read with
    errors="surrogateescape", holds a byte that is not UTF-8, else None:
    every line of a text file a user gives is UTF-8."""
    bad = not line.isascii() and _UNDECODED.search(line)
    return f"{path}:{lineno}: byte 0x{ord(bad[0]) - 0xDC00:02x} is not UTF-8" if bad else None


def parse_override_file(path) -> dict[str, str]:
    """Read `key = value` lines; '#' starts a comment, blank lines ignored,
    and a leading UTF-8 byte-order mark is skipped. One ConfigError names
    every line that is not UTF-8 or `key = value`."""
    overrides: dict[str, str] = {}
    violations = []
    lines = Path(path).read_text(encoding="utf-8-sig", errors="surrogateescape").split("\n")
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        key, is_set, value = text.partition("=")
        bad = undecodable(path, lineno, line) or (
            text and not is_set and f"{path}:{lineno}: expected key=value, got {text!r}")
        if bad:
            violations.append(bad)
        elif is_set:
            overrides[key.strip()] = value.strip()
    if violations:
        raise ConfigError(*violations)
    return overrides


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one simulation run.

    `distance_m` is either a fixed separation or a (min, max) pair, in
    which case every drop samples its own distance uniformly. Overrides
    apply on top of the scenario's built-in parameter table. An `out_dir`
    of None is the working directory.
    """

    scenario: Scenario
    distance_m: float | tuple = 10.0
    tx_power_dbm: float = 0.0
    num_drops: int = 1
    master_seed: int = 1
    workers: int = 1
    overrides: Mapping[str, object] = dataclasses.field(default_factory=dict)
    out_dir: str | PurePath | None = None
    outputs: tuple = ()

    def distance_range(self) -> tuple[float, float] | None:
        if isinstance(self.distance_m, tuple):
            return self.distance_m
        return None


VALID_OUTPUTS = ("jsonl", "pdp", "pas", "summary", "cdf")


def _is_number(value) -> bool:
    """An int or a finite float; a bool is a flag, not a number."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def validate_config(config: SimConfig) -> SimConfig:
    """Check every SimConfig constraint, raising the full violation list.

    Returns the config (with overrides normalized) on success; raises
    one ConfigError with a message per violated constraint, and no
    other exception, whatever the field values.
    """
    violations = []

    scenario_ok = isinstance(config.scenario, Scenario)
    if not scenario_ok:
        violations.append(f"scenario must be one of ALL_SCENARIOS, got {config.scenario!r}")

    distance = config.distance_m
    distances = distance if isinstance(distance, tuple) else (distance,)
    if isinstance(distance, tuple) and not (
            len(distance) == 2 and all(map(_is_number, distance)) and distance[0] < distance[1]):
        violations.append(f"distance range must be (min, max) with min < max, got {distance}")
    for d in distances:
        if not (_is_number(d) and MIN_DISTANCE_M <= d <= MAX_DISTANCE_M):
            violations.append(f"distance {d!r} m outside [{MIN_DISTANCE_M}, {MAX_DISTANCE_M}] m")

    if not _is_number(config.tx_power_dbm):
        violations.append(f"tx_power_dbm must be a finite number, got {config.tx_power_dbm!r}")
    elif not MIN_TX_POWER_DBM <= config.tx_power_dbm <= MAX_TX_POWER_DBM:
        violations.append(f"tx_power_dbm {config.tx_power_dbm!r} outside "
                          f"[{MIN_TX_POWER_DBM}, {MAX_TX_POWER_DBM}] dBm")

    if not (_is_count(config.master_seed) and 0 <= config.master_seed < 2**64):
        violations.append(
            f"master_seed must be an unsigned 64-bit integer, got {config.master_seed!r}")

    for name in ("num_drops", "workers"):
        value = getattr(config, name)
        if not _is_count(value):
            violations.append(f"{name} must be an integer, got {value!r}")
        elif value < 1:
            violations.append(f"{name} must be >= 1, got {value!r}")

    if not (config.out_dir is None or isinstance(config.out_dir, (str, PurePath))):
        violations.append(f"out_dir must be a path or None, got {config.out_dir!r}")

    if not isinstance(config.outputs, (tuple, list)):
        violations.append(f"outputs must be a sequence, got {config.outputs!r}")
    else:
        for out in config.outputs:
            if out not in VALID_OUTPUTS:
                violations.append(f"unknown output {out!r}, expected one of {VALID_OUTPUTS}")

    overrides = {}
    if not isinstance(config.overrides, Mapping):
        violations.append(f"overrides must be a mapping, got {config.overrides!r}")
    else:
        overrides = dict(config.overrides)
        if scenario_ok:
            try:
                apply_overrides(lookup_params(config.scenario), overrides)
            except ConfigError as exc:
                violations.extend(exc.violations)

    if violations:
        raise ConfigError(*violations)
    return dataclasses.replace(config, overrides=overrides)


def resolved_params(config: SimConfig) -> ScenarioParams:
    """Scenario parameters with the config's overrides applied."""
    return apply_overrides(lookup_params(config.scenario), config.overrides)
