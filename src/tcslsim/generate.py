"""Omnidirectional channel drop generation.

A drop is one statistical realization of the channel: subpaths grouped
into time clusters (delay structure) and assigned to spatial lobes
(angular structure). Every quantity is drawn on its own labeled
substream of the drop, so adding or reordering later steps can never
perturb the values produced by earlier ones.

`generate_batch` draws a block of consecutive drops in three stages,
each one Philox call over the block's streams (`randcore`) followed by
CDF inversions over the whole block:

    1. per drop: distance (ranged configs only), shadow, num_clusters,
       num_lobes (AOD, then AOA);
    2. per cluster: num_subpaths, cluster_delay, cluster_power;
    3. per subpath and per lobe: intra_delay, subpath_power, phase,
       lobe_angle (two per lobe) and angle_offset (six per subpath).

The block is the unit: `generate_batch` returns a `DropBlock`, whose
per-cluster and per-subpath quantities are flat arrays over the whole
block, drops one after another, clusters one after another within a
drop; `cluster_start` marks where each cluster begins and per-drop
offsets where each drop does. Metrics and the per-drop files read those
arrays directly, and a single drop (`generate_drop`) is a block of one.

Powers are stored only as fractions of the total received power. The
fractions never touch the link budget, so delay- and angle-spread
statistics computed from them are bit-identical across transmit power
and distance changes; the mW values are derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .pathloss import SPEED_OF_LIGHT_M_PER_NS, link_budget
from .randcore import (
    composite_subpath,
    derive_keys,
    discrete_uniform,
    exponential,
    lognormal,
    normal,
    poisson_shifted,
    stream_uniforms,
    uniform,
)
from .scenario import Scenario, ScenarioParams, SimConfig, resolved_params, validate_config

# Drops per generate_batch call when generating many: enough to spread
# its per-call cost thin, few enough to bound memory whatever the run size.
BLOCK_DROPS = 256

SIDES = ("aod", "aoa")


@dataclass
class DropBlock:
    """Consecutive drops as flat arrays: the unit that generation,
    metrics and the per-drop files work on; a single drop is a block of
    one.

    Per-cluster and per-subpath arrays hold the block's clusters and
    subpaths drop after drop, each drop's clusters in order and each
    cluster's subpaths in ascending intra-cluster delay, the first of
    them exactly zero. `cluster_start` indexes the block's subpaths and
    is the one place cluster membership lives: cluster sizes, excess
    delays and the drops.jsonl nesting are derived from it. Drop d's
    share runs from `cluster_offsets[d]`, `subpath_offsets[d]` and
    `lobe_offsets[side][d]` to the next entry; each ends in the block's
    total. Per-drop columns are lists. Powers are kept as shares of each
    drop's received power; `powers_mw()` scales them by its
    `rx_power_mw`.
    """

    scenario: Scenario
    master_seed: int
    # per drop
    drop_index: list
    distance_m: list
    link: list                           # LinkBudget of each drop
    cluster_offsets: np.ndarray          # (drops + 1,)
    subpath_offsets: np.ndarray          # (drops + 1,)
    # per lobe, each side's lobes drop after drop; keyed 'aod', 'aoa'
    lobe_offsets: dict                   # (drops + 1,) each
    lobe_az_deg: dict                    # lobe i of L within [360(i-1)/L, 360i/L)
    lobe_el_deg: dict                    # above the horizon, positive up
    # per cluster
    cluster_start: np.ndarray            # index of the cluster's first subpath in the block
    cluster_delays_ns: np.ndarray        # excess delay of the cluster's first subpath
    cluster_power_fractions: np.ndarray  # share of the drop's received power
    # per subpath
    intra_delays_ns: np.ndarray          # delay after the cluster's first subpath
    power_fractions: np.ndarray          # share of the drop's received power
    phase_rad: np.ndarray
    aod_az_deg: np.ndarray
    aod_el_deg: np.ndarray
    aoa_az_deg: np.ndarray
    aoa_el_deg: np.ndarray
    aod_lobe_index: np.ndarray           # 1-based
    aoa_lobe_index: np.ndarray

    def __len__(self) -> int:
        return len(self.drop_index)

    @property
    def num_clusters(self) -> np.ndarray:
        """Clusters of each drop."""
        return np.diff(self.cluster_offsets)

    @property
    def num_subpaths(self) -> np.ndarray:
        """Subpaths of each drop."""
        return np.diff(self.subpath_offsets)

    @property
    def propagation_delay_ns(self) -> np.ndarray:
        """First-arrival time of each drop, assuming a free-space line path."""
        return np.array(self.distance_m) / SPEED_OF_LIGHT_M_PER_NS

    def subpath_drops(self) -> np.ndarray:
        """Each subpath's drop, by its position in the block."""
        return np.repeat(np.arange(len(self)), self.num_subpaths)

    def cluster_sizes(self) -> np.ndarray:
        return np.append(self.cluster_start[1:], self.subpath_offsets[-1]) - self.cluster_start

    def excess_delays_ns(self) -> np.ndarray:
        """Each subpath's cluster delay plus its intra-cluster delay."""
        return np.repeat(self.cluster_delays_ns, self.cluster_sizes()) + self.intra_delays_ns

    def powers_mw(self) -> np.ndarray:
        rx_mw = np.array([link.rx_power_mw for link in self.link])
        return self.power_fractions * np.repeat(rx_mw, self.num_subpaths)


def _offsets(lengths) -> np.ndarray:
    """Where each of segments of `lengths` laid end to end begins, and
    their total."""
    return np.append(0, np.cumsum(lengths, dtype=np.int64))


# --- generation ------------------------------------------------------------

def cluster_counts(params: ScenarioParams, u) -> np.ndarray:
    """Numbers of time clusters from uniforms: discrete uniform (LOS) or
    shifted Poisson (NLOS)."""
    if params.n_c_max is not None:
        return discrete_uniform(u, 1, params.n_c_max)
    return poisson_shifted(u, params.lambda_c)


def cluster_delays(params: ScenarioParams, u) -> np.ndarray:
    """Raw cluster delay draws (ns) from uniforms, before `place_cluster_delays`."""
    if params.cluster_delay_family == "lognormal":
        return lognormal(u, params.mu_tau, params.sigma_tau)
    return exponential(u, params.mu_tau)


def sort_from_first(values) -> np.ndarray:
    """Ascending order along the last axis, re-anchored at the earliest
    value (first entry 0)."""
    ordered = np.sort(np.asarray(values, dtype=float), axis=-1)
    return ordered - ordered[..., :1]


def place_cluster_delays(draws, last_intra_delays, mti: float) -> np.ndarray:
    """Lay out cluster start times from raw delay draws, one drop per row.

    Each row's draws are sorted and re-anchored at the smallest one;
    cluster n then starts `mti` plus its sorted offset after the last
    subpath of cluster n-1 (`last_intra_delays[..., n-1]` after that
    cluster's start), so every inter-cluster gap is at least the void
    interval. Rows padded with +inf past their drop's cluster count give
    infinite entries there. The recurrence keeps its association,
    `(tau + last) + (mti + delta)`, which replay depends on.
    """
    deltas = sort_from_first(draws)
    last = np.asarray(last_intra_delays, dtype=float)
    tau = np.zeros_like(deltas)
    for n in range(1, deltas.shape[-1]):
        tau[..., n] = (tau[..., n - 1] + last[..., n - 1]) + (mti + deltas[..., n])
    return tau


def lobe_mean_angles(params: ScenarioParams, side: str, counts: np.ndarray,
                     u_az: np.ndarray, u_el: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean directions of one side's lobes for a block of drops.

    `counts[d]` is drop d's lobe count; lobes are laid out drop after
    drop, one azimuth and one elevation uniform each. Lobe i of L has
    its azimuth uniform within its sector [360(i-1)/L, 360i/L) and its
    elevation normal around the side's mean tilt, clamped to +/-90.
    """
    drop, index = _ragged(counts)
    azimuths = (index + u_az) * (360.0 / counts[drop])
    mu_l, sigma_l = params.lobe_elevation_params(side)
    elevations = np.clip(normal(u_el, mu_l, sigma_l), -90.0, 90.0)
    return azimuths, elevations


def _ragged(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For segments of `lengths` laid end to end: each element's segment
    and its index within that segment."""
    segment = np.repeat(np.arange(len(lengths)), lengths)
    return segment, np.arange(len(segment)) - (np.cumsum(lengths) - lengths)[segment]


def _slices(lengths: np.ndarray) -> list:
    """The slice of each segment of `lengths` laid end to end."""
    ends = np.cumsum(lengths).tolist()
    return [slice(end - n, end) for end, n in zip(ends, lengths.tolist())]


def _segment_sums(values: np.ndarray, slices: list) -> np.ndarray:
    """`values[a:b].sum()` of each segment. Replay depends on the
    summation order of each sum, which a segmented reduction does not
    promise to keep."""
    return np.array([values[s].sum() for s in slices])


def _stage_uniforms(master_seed: int, drops: range, layout: dict) -> list:
    """The uniforms of several labelled streams of a block of drops,
    from one Philox call. `layout` maps each label to the lengths of the
    runs of draws each drop makes on it, in stream order (an int, or one
    length per drop); returns, per label, one array per run, drop after
    drop."""
    lengths = np.zeros((len(layout), len(drops), max(map(len, layout.values()))), dtype=np.int64)
    for i, runs in enumerate(layout.values()):
        for r, n in enumerate(runs):
            lengths[i, :, r] = n
    u = stream_uniforms(derive_keys(master_seed, drops, layout), lengths.sum(axis=2).ravel())
    starts = np.cumsum(lengths).reshape(lengths.shape) - lengths
    return [[u[np.repeat(starts[i, :, r], lengths[i, :, r]) + _ragged(lengths[i, :, r])[1]]
             for r in range(len(runs))] for i, runs in enumerate(layout.values())]


def generate_batch(config: SimConfig, start: int, count: int) -> DropBlock:
    """Generate drops `start` to `start + count - 1` of a validated
    config at once, as one block. Each drop reads only its own streams,
    from position 0, so it is the same in any block. The scenario's
    parameters, with the config's overrides applied, are resolved once
    per call."""
    params = resolved_params(config)
    seed = config.master_seed
    drops = range(start, start + count)

    # stage 1: a fixed number of draws per drop
    d_range = config.distance_range()
    (u_shadow,), (u_clusters,), (u_aod, u_aoa), *u_distance = _stage_uniforms(
        seed, drops, {"shadow": [1], "num_clusters": [1], "num_lobes": [1, 1],
                      **({"distance": [1]} if d_range else {})})
    distances = (uniform(u_distance[0][0], *d_range).tolist() if d_range
                 else [float(config.distance_m)] * count)
    shadow_db = normal(u_shadow, 0.0, params.sigma_sf).tolist()
    n_clusters = cluster_counts(params, u_clusters)
    lobe_counts = {"aod": discrete_uniform(u_aod, 1, params.l_aod_max),
                   "aoa": discrete_uniform(u_aoa, 1, params.l_aoa_max)}

    # stage 2: per-cluster draws
    (u_sizes,), (u_cluster_delay,), (u_cluster_power,) = _stage_uniforms(
        seed, drops, {"num_subpaths": [n_clusters], "cluster_delay": [n_clusters],
                      "cluster_power": [n_clusters]})
    sizes = composite_subpath(u_sizes, params.beta_s, params.mu_s)
    n_subpaths = np.add.reduceat(sizes, np.cumsum(n_clusters) - n_clusters)

    # stage 3: per-subpath and per-lobe draws. lobe_angle holds a drop's
    # AOD azimuths, AOD elevations, AOA azimuths and AOA elevations;
    # angle_offset its AOD and AOA lobe picks, then its AOD az, AOD el,
    # AOA az and AOA el offsets.
    l_aod, l_aoa = lobe_counts.values()
    (u_rho,), (u_subpath_power,), (u_phase,), u_lobe, u_offset = _stage_uniforms(
        seed, drops, {"intra_delay": [n_subpaths], "subpath_power": [n_subpaths],
                      "phase": [n_subpaths], "lobe_angle": [l_aod, l_aod, l_aoa, l_aoa],
                      "angle_offset": [n_subpaths] * 6})

    # each cluster's intra delays are its own draws, sorted and
    # re-anchored at the cluster's earliest one (sort_from_first)
    cluster_of, _ = _ragged(sizes)
    cluster_end = np.cumsum(sizes)
    cluster_start = cluster_end - sizes
    rho = exponential(u_rho, params.mu_rho)
    rho = rho[np.lexsort((rho, cluster_of))]
    intra = rho - rho[cluster_start][cluster_of]

    drop_of_cluster, cluster_number = _ragged(n_clusters)
    padded = np.full((count, int(n_clusters.max())), np.inf)
    padded[drop_of_cluster, cluster_number] = cluster_delays(params, u_cluster_delay)
    last_intra = np.zeros_like(padded)
    last_intra[drop_of_cluster, cluster_number] = intra[cluster_end - 1]
    tau = place_cluster_delays(padded, last_intra, params.mti)[drop_of_cluster, cluster_number]

    z_db = normal(u_cluster_power, 0.0, params.sigma_z)
    raw = np.exp(-tau / params.gamma_cluster) * 10.0 ** (z_db / 10.0)
    cluster_frac = raw / _segment_sums(raw, _slices(n_clusters))[drop_of_cluster]

    u_db = normal(u_subpath_power, 0.0, params.sigma_u)
    raw = np.exp(-intra / params.gamma_subpath) * 10.0 ** (u_db / 10.0)
    cluster_raw = _segment_sums(raw, _slices(sizes))
    subpath = {
        "intra_delays_ns": intra,
        "power_fractions": cluster_frac[cluster_of] * (raw / cluster_raw[cluster_of]),
        "phase_rad": uniform(u_phase, 0.0, 2.0 * math.pi),
    }

    # each subpath picks a lobe of its drop per side and is scattered
    # around the lobe mean: azimuths wrap modulo 360, elevations clamp
    drop_of_subpath, _ = _ragged(n_subpaths)
    lobe_offsets, lobe_az, lobe_el = {}, {}, {}
    for k, (side, counts) in enumerate(lobe_counts.items()):
        az, el = lobe_mean_angles(params, side, counts, u_lobe[2 * k], u_lobe[2 * k + 1])
        lobe_offsets[side], lobe_az[side], lobe_el[side] = _offsets(counts), az, el
        span = counts[drop_of_subpath]
        index = 1 + np.minimum((u_offset[k] * span).astype(np.int64), span - 1)
        lobe = (np.cumsum(counts) - counts)[drop_of_subpath] + index - 1
        d_az = normal(u_offset[2 + 2 * k], 0.0, params.sigma_phi(side))
        d_el = normal(u_offset[3 + 2 * k], 0.0, params.sigma_theta(side))
        subpath[f"{side}_lobe_index"] = index
        subpath[f"{side}_az_deg"] = (az[lobe] + d_az) % 360.0
        subpath[f"{side}_el_deg"] = np.clip(el[lobe] + d_el, -90.0, 90.0)

    return DropBlock(
        scenario=config.scenario,
        master_seed=seed,
        drop_index=list(drops),
        distance_m=distances,
        link=[link_budget(config, params, shadow, distance)
              for shadow, distance in zip(shadow_db, distances)],
        cluster_offsets=_offsets(n_clusters),
        subpath_offsets=_offsets(n_subpaths),
        lobe_offsets=lobe_offsets,
        lobe_az_deg=lobe_az,
        lobe_el_deg=lobe_el,
        cluster_start=cluster_start,
        cluster_delays_ns=tau,
        cluster_power_fractions=cluster_frac,
        **subpath,
    )


def generate_drop(config: SimConfig, drop_index: int = 0) -> DropBlock:
    """Run the full generation sequence for one drop: a block of one.

    One call pays a whole block's set-up, about 20 times the per-drop
    cost of `generate_drops`; loop over that, or take the blocks of
    `generate_batch`, not over this.
    """
    return generate_batch(validate_config(config), drop_index, 1)


def generate_drops(config: SimConfig, start: int = 0,
                   count: int | None = None) -> Iterator[DropBlock]:
    """Blocks of at most BLOCK_DROPS drops for consecutive drop indices,
    each generated as the iterator is read; the config is checked at the
    call."""
    config = validate_config(config)
    if count is None:
        count = config.num_drops
    end = start + count
    return (generate_batch(config, first, min(BLOCK_DROPS, end - first))
            for first in range(start, end, BLOCK_DROPS))
