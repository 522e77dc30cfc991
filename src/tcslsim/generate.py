"""Omnidirectional channel drop generation.

A drop is one statistical realization of the channel: subpaths grouped
into time clusters (delay structure) and assigned to spatial lobes
(angular structure). Generation runs a fixed sequence of draws, each on
its own labeled substream, so adding or reordering later steps can never
perturb the values produced by earlier ones:

    distance -> shadow -> num_clusters -> num_subpaths -> intra_delay
    -> cluster_delay -> cluster_power -> subpath_power -> phase
    -> num_lobes -> lobe_angle -> angle_offset

Every per-subpath quantity is drawn for the whole drop in one call and
stored as one flat array, clusters one after another; `cluster_start`
marks where each cluster begins. Powers are stored only as fractions of
the total received power. The fractions never touch the link budget, so
delay- and angle-spread statistics computed from them are bit-identical
across transmit power and distance changes; the mW values are derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .pathloss import SPEED_OF_LIGHT_M_PER_NS, LinkBudget, link_budget
from .randcore import (
    CompositeSubpath,
    DiscreteUniform,
    Exponential,
    Lognormal,
    Normal,
    PoissonShifted,
    RandomStream,
    StreamFamily,
    Uniform,
)
from .scenario import Scenario, ScenarioParams, SimConfig, resolved_params

SUBSTREAM_LABELS = (
    "distance", "shadow", "num_clusters", "num_subpaths", "intra_delay",
    "cluster_delay", "cluster_power", "subpath_power", "phase",
    "num_lobes", "lobe_angle", "angle_offset",
)

# Per-subpath fields stored under the same name in each JSON cluster;
# `power_fractions` is stored as `subpath_power_fraction`, next to the
# derived `subpath_power_mw`.
_SUBPATH_ARRAYS = (
    ("intra_delays_ns", float), ("phase_rad", float),
    ("aod_az_deg", float), ("aod_el_deg", float), ("aoa_az_deg", float), ("aoa_el_deg", float),
    ("aod_lobe_index", np.int64), ("aoa_lobe_index", np.int64),
)


@dataclass(frozen=True)
class SpatialLobe:
    """A main direction of departure or arrival."""

    side: str            # 'aod' or 'aoa'
    index: int           # 1-based lobe number
    mean_az_deg: float   # within the lobe's sector [360(i-1)/L, 360i/L)
    mean_el_deg: float   # elevation above horizon, positive up

    @property
    def mean_zenith_deg(self) -> float:
        return 90.0 - self.mean_el_deg


@dataclass
class ChannelDrop:
    """One realization of the omnidirectional channel.

    Per-subpath arrays hold one entry per subpath, cluster 1's subpaths
    first, then cluster 2's, and so on; within a cluster, subpaths are in
    ascending intra-cluster delay and the first intra delay is exactly
    zero. `cluster_start[n]` is the index of the first subpath of cluster
    n + 1. It is the one place cluster membership lives: cluster sizes,
    subpath excess delays and the nested JSON form are all derived from it.
    Powers are kept as shares of the received power; `powers_mw()` scales
    them by `link.rx_power_mw`.
    """

    scenario: Scenario
    distance_m: float
    link: LinkBudget
    aod_lobes: list
    aoa_lobes: list
    master_seed: int
    drop_index: int
    # per cluster
    cluster_start: np.ndarray            # index of the cluster's first subpath
    cluster_delays_ns: np.ndarray        # excess delay of the cluster's first subpath
    cluster_power_fractions: np.ndarray  # share of the received power
    # per subpath
    intra_delays_ns: np.ndarray          # delay after the cluster's first subpath
    power_fractions: np.ndarray          # share of the received power
    phase_rad: np.ndarray
    aod_az_deg: np.ndarray
    aod_el_deg: np.ndarray
    aoa_az_deg: np.ndarray
    aoa_el_deg: np.ndarray
    aod_lobe_index: np.ndarray           # 1-based
    aoa_lobe_index: np.ndarray

    @property
    def num_clusters(self) -> int:
        return len(self.cluster_start)

    @property
    def num_subpaths(self) -> int:
        return len(self.intra_delays_ns)

    @property
    def propagation_delay_ns(self) -> float:
        """First-arrival time assuming a free-space line path."""
        return self.distance_m / SPEED_OF_LIGHT_M_PER_NS

    def cluster_sizes(self) -> np.ndarray:
        return np.diff(self.cluster_start, append=self.num_subpaths)

    def excess_delays_ns(self) -> np.ndarray:
        return np.repeat(self.cluster_delays_ns, self.cluster_sizes()) + self.intra_delays_ns

    def absolute_delays_ns(self) -> np.ndarray:
        return self.propagation_delay_ns + self.excess_delays_ns()

    def powers_mw(self) -> np.ndarray:
        return self.power_fractions * self.link.rx_power_mw

    def to_dict(self) -> dict:
        rx_mw = self.link.rx_power_mw
        subpath = {name: getattr(self, name).tolist() for name, _ in _SUBPATH_ARRAYS}
        subpath["subpath_power_mw"] = self.powers_mw().tolist()
        subpath["subpath_power_fraction"] = self.power_fractions.tolist()
        starts = self.cluster_start.tolist()
        clusters = []
        for n, (first, end) in enumerate(zip(starts, starts[1:] + [self.num_subpaths])):
            cluster = {name: values[first:end] for name, values in subpath.items()}
            cluster.update(
                index=n + 1,
                excess_delay_ns=float(self.cluster_delays_ns[n]),
                power_mw=float(self.cluster_power_fractions[n] * rx_mw),
                power_fraction=float(self.cluster_power_fractions[n]),
            )
            clusters.append(cluster)
        return {
            "scenario": self.scenario.label(),
            "drop_index": self.drop_index,
            "master_seed": self.master_seed,
            "distance_m": self.distance_m,
            "link": {
                "frequency_hz": self.link.frequency_hz,
                "distance_m": self.link.distance_m,
                "tx_power_dbm": self.link.tx_power_dbm,
                "fspl_1m_db": self.link.fspl_1m_db,
                "shadow_fading_db": self.link.shadow_fading_db,
                "path_loss_db": self.link.path_loss_db,
                "rx_power_dbm": self.link.rx_power_dbm,
                "rx_power_mw": self.link.rx_power_mw,
            },
            "aod_lobes": [
                {"index": l.index, "mean_az_deg": l.mean_az_deg, "mean_el_deg": l.mean_el_deg}
                for l in self.aod_lobes
            ],
            "aoa_lobes": [
                {"index": l.index, "mean_az_deg": l.mean_az_deg, "mean_el_deg": l.mean_el_deg}
                for l in self.aoa_lobes
            ],
            "clusters": clusters,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChannelDrop":
        """Inverse of to_dict; the mW values are re-derived from the fractions."""
        clusters = data["clusters"]

        def flat(name, dtype):
            return np.array([v for c in clusters for v in c[name]], dtype=dtype)

        sizes = [len(c["intra_delays_ns"]) for c in clusters]
        return cls(
            scenario=Scenario.parse(data["scenario"]),
            distance_m=data["distance_m"],
            link=LinkBudget(**data["link"]),
            aod_lobes=[SpatialLobe("aod", l["index"], l["mean_az_deg"], l["mean_el_deg"])
                       for l in data["aod_lobes"]],
            aoa_lobes=[SpatialLobe("aoa", l["index"], l["mean_az_deg"], l["mean_el_deg"])
                       for l in data["aoa_lobes"]],
            master_seed=data["master_seed"],
            drop_index=data["drop_index"],
            cluster_start=np.cumsum([0] + sizes[:-1], dtype=np.int64),
            cluster_delays_ns=np.array([c["excess_delay_ns"] for c in clusters], dtype=float),
            cluster_power_fractions=np.array([c["power_fraction"] for c in clusters], dtype=float),
            power_fractions=flat("subpath_power_fraction", float),
            **{name: flat(name, dtype) for name, dtype in _SUBPATH_ARRAYS},
        )


# --- generation steps -------------------------------------------------------

def draw_num_time_clusters(params: ScenarioParams, stream: RandomStream) -> int:
    """Number of time clusters: discrete uniform (LOS) or shifted Poisson (NLOS)."""
    if params.n_c_max is not None:
        return int(stream.sample(DiscreteUniform(1, params.n_c_max)))
    return int(stream.sample(PoissonShifted(params.lambda_c)))


def draw_num_subpaths(params: ScenarioParams, stream: RandomStream, num_clusters: int) -> np.ndarray:
    """Per-cluster subpath counts from the composite distribution, each >= 1."""
    return stream.sample(CompositeSubpath(params.beta_s, params.mu_s), num_clusters)


def sort_from_first(values) -> np.ndarray:
    """Ascending order re-anchored at the earliest value (first entry 0)."""
    ordered = np.sort(np.asarray(values, dtype=float))
    return ordered - ordered[0]


def wrap_azimuth_deg(angle_deg):
    return angle_deg % 360.0


def cluster_delay_spec(params: ScenarioParams):
    if params.cluster_delay_family == "lognormal":
        return Lognormal(params.mu_tau, params.sigma_tau)
    return Exponential(params.mu_tau)


def place_cluster_delays(draws, last_intra_delays, mti: float) -> np.ndarray:
    """Lay out cluster start times from raw delay draws.

    The draws are sorted and re-anchored at the smallest one; cluster n
    then starts `mti` plus its sorted offset after the last subpath of
    cluster n-1 (`last_intra_delays[n-1]` after that cluster's start),
    which guarantees every inter-cluster gap is at least the void
    interval.
    """
    deltas = sort_from_first(draws)
    tau = np.zeros(len(deltas))
    for n in range(1, len(deltas)):
        prev_end = tau[n - 1] + last_intra_delays[n - 1]
        tau[n] = prev_end + (mti + deltas[n])
    return tau


def cluster_power_fractions(params: ScenarioParams, stream: RandomStream,
                            cluster_delays_ns: np.ndarray) -> np.ndarray:
    """Per-cluster share of total power: exponential decay with lognormal
    shadowing, normalized to sum to one."""
    n = len(cluster_delays_ns)
    z_db = stream.sample(Normal(0.0, params.sigma_z), n)
    raw = np.exp(-cluster_delays_ns / params.gamma_cluster) * 10.0 ** (z_db / 10.0)
    return raw / raw.sum()


def draw_subpath_phases(stream: RandomStream, count: int) -> np.ndarray:
    """Independent phases, uniform on [0, 2*pi)."""
    return stream.sample(Uniform(0.0, 2.0 * math.pi), count)


def draw_num_spatial_lobes(params: ScenarioParams, stream: RandomStream) -> tuple[int, int]:
    """Independent lobe counts for departure and arrival (AOD drawn first)."""
    l_aod = int(stream.sample(DiscreteUniform(1, params.l_aod_max)))
    l_aoa = int(stream.sample(DiscreteUniform(1, params.l_aoa_max)))
    return l_aod, l_aoa


def draw_lobe_mean_angles(params: ScenarioParams, stream: RandomStream,
                          num_lobes: int, side: str) -> list:
    """Lobe mean directions: azimuth uniform within the lobe's sector,
    elevation normal around the side's mean tilt, clamped to +/-90.

    All azimuths are drawn before all elevations.
    """
    u = stream.uniform(num_lobes)
    sector = 360.0 / num_lobes
    azimuths = (np.arange(num_lobes) + u) * sector
    mu_l, sigma_l = params.lobe_elevation_params(side)
    elevations = np.clip(stream.sample(Normal(mu_l, sigma_l), num_lobes), -90.0, 90.0)
    return [
        SpatialLobe(side, i + 1, float(azimuths[i]), float(elevations[i]))
        for i in range(num_lobes)
    ]


def draw_subpath_angle_offsets(params: ScenarioParams, stream: RandomStream,
                               count: int, aod_lobes: list, aoa_lobes: list):
    """Assign every subpath a lobe per side and scatter it around the
    lobe mean: azimuth offsets wrap modulo 360, elevation offsets clamp
    to +/-90.

    Draw order: AOD lobe picks, AOA lobe picks, then the four offset
    vectors (AOD az, AOD el, AOA az, AOA el).
    """
    i_aod = stream.sample(DiscreteUniform(1, len(aod_lobes)), count)
    j_aoa = stream.sample(DiscreteUniform(1, len(aoa_lobes)), count)
    dphi_aod = stream.sample(Normal(0.0, params.sigma_phi_aod), count)
    dtheta_aod = stream.sample(Normal(0.0, params.sigma_theta_aod), count)
    dphi_aoa = stream.sample(Normal(0.0, params.sigma_phi_aoa), count)
    dtheta_aoa = stream.sample(Normal(0.0, params.sigma_theta_aoa), count)

    aod_az_means = np.array([l.mean_az_deg for l in aod_lobes])
    aod_el_means = np.array([l.mean_el_deg for l in aod_lobes])
    aoa_az_means = np.array([l.mean_az_deg for l in aoa_lobes])
    aoa_el_means = np.array([l.mean_el_deg for l in aoa_lobes])

    aod_az = wrap_azimuth_deg(aod_az_means[i_aod - 1] + dphi_aod)
    aod_el = np.clip(aod_el_means[i_aod - 1] + dtheta_aod, -90.0, 90.0)
    aoa_az = wrap_azimuth_deg(aoa_az_means[j_aoa - 1] + dphi_aoa)
    aoa_el = np.clip(aoa_el_means[j_aoa - 1] + dtheta_aoa, -90.0, 90.0)
    return i_aod, j_aoa, aod_az, aod_el, aoa_az, aoa_el


def generate_drop(config: SimConfig, params: ScenarioParams | None = None,
                  drop_index: int = 0) -> ChannelDrop:
    """Run the full generation sequence for one drop."""
    if params is None:
        params = resolved_params(config)
    streams = StreamFamily(config.master_seed, drop_index)

    d_range = config.distance_range()
    if d_range is not None:
        distance_m = float(streams.substream("distance").sample(Uniform(*d_range)))
    else:
        distance_m = float(config.distance_m)

    link = link_budget(config, params, streams.substream("shadow"), distance_m=distance_m)

    n_clusters = draw_num_time_clusters(params, streams.substream("num_clusters"))
    sizes = draw_num_subpaths(params, streams.substream("num_subpaths"), n_clusters)
    ends = np.cumsum(sizes)
    cluster_start = ends - sizes
    total_subpaths = int(ends[-1])
    cluster_of = np.repeat(np.arange(n_clusters), sizes)

    # each cluster's intra delays are its own draws, sorted and
    # re-anchored at the cluster's earliest one (sort_from_first)
    rho = streams.substream("intra_delay").sample(Exponential(params.mu_rho), total_subpaths)
    rho = rho[np.lexsort((rho, cluster_of))]
    intra = rho - rho[cluster_start][cluster_of]

    cluster_draws = streams.substream("cluster_delay").sample(cluster_delay_spec(params), n_clusters)
    tau = place_cluster_delays(cluster_draws, intra[ends - 1], params.mti)
    cluster_frac = cluster_power_fractions(params, streams.substream("cluster_power"), tau)

    u_db = streams.substream("subpath_power").sample(Normal(0.0, params.sigma_u), total_subpaths)
    raw = np.exp(-intra / params.gamma_subpath) * 10.0 ** (u_db / 10.0)
    # each cluster is normalized by its own raw.sum(): replay depends on
    # the summation order, which a segmented sum does not promise to keep
    cluster_raw = np.array([raw[s:e].sum() for s, e in zip(cluster_start.tolist(), ends.tolist())])
    power_fractions = cluster_frac[cluster_of] * (raw / cluster_raw[cluster_of])

    phases = draw_subpath_phases(streams.substream("phase"), total_subpaths)

    l_aod, l_aoa = draw_num_spatial_lobes(params, streams.substream("num_lobes"))
    lobe_stream = streams.substream("lobe_angle")
    aod_lobes = draw_lobe_mean_angles(params, lobe_stream, l_aod, "aod")
    aoa_lobes = draw_lobe_mean_angles(params, lobe_stream, l_aoa, "aoa")

    i_aod, j_aoa, aod_az, aod_el, aoa_az, aoa_el = draw_subpath_angle_offsets(
        params, streams.substream("angle_offset"), total_subpaths, aod_lobes, aoa_lobes)

    return ChannelDrop(
        scenario=config.scenario,
        distance_m=distance_m,
        link=link,
        aod_lobes=aod_lobes,
        aoa_lobes=aoa_lobes,
        master_seed=config.master_seed,
        drop_index=drop_index,
        cluster_start=cluster_start,
        cluster_delays_ns=tau,
        cluster_power_fractions=cluster_frac,
        intra_delays_ns=intra,
        power_fractions=power_fractions,
        phase_rad=phases,
        aod_az_deg=aod_az,
        aod_el_deg=aod_el,
        aoa_az_deg=aoa_az,
        aoa_el_deg=aoa_el,
        aod_lobe_index=i_aod,
        aoa_lobe_index=j_aoa,
    )


def generate_drops(config: SimConfig, params: ScenarioParams | None = None,
                   start: int = 0, count: int | None = None) -> Iterator[ChannelDrop]:
    """Yield drops for consecutive drop indices."""
    if params is None:
        params = resolved_params(config)
    if count is None:
        count = config.num_drops
    for idx in range(start, start + count):
        yield generate_drop(config, params, idx)
