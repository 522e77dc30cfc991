"""Omnidirectional channel drop generation.

A drop is one statistical realization of the channel: subpaths grouped
into time clusters (delay structure) and assigned to spatial lobes
(angular structure). Every quantity is drawn on its own labeled
substream of the drop, so adding or reordering later steps can never
perturb the values produced by earlier ones.

`generate_batch` draws a block of consecutive drops from one key
derivation (`derive_keys`) in three stages, each one Philox call over
the block's streams (`randcore`) followed by CDF inversions:

    1. per drop: num_clusters, shadow, num_lobes (AOD, then AOA) and
       distance (ranged configs only);
    2. per cluster: num_subpaths, cluster_delay, cluster_power;
    3. per subpath and per lobe: intra_delay, subpath_power, phase,
       lobe_angle (two per lobe) and angle_offset (six per subpath).

The delays and power shares (`DelayProfile`) read only the six streams
of PROFILE_LABELS, the first of each stage's list, and are drawn first,
by one generator body over the configs' drops laid end to end, config
after config, in which only the inverse-CDF transforms run per config,
each on its slice; the block's body drives it with its one config, and
`delay_profiles` runs it alone, which is all a delay spread needs.

The block is the unit: `generate_batch` returns a `DropBlock`, whose
per-cluster and per-subpath quantities are flat arrays over the whole
block, drops one after another, clusters one after another within a
drop; `cluster_start` marks where each cluster begins and per-drop
offsets where each drop does. Metrics and the per-drop files read those
arrays directly, and a single drop (`generate_drop`) is a block of one.

Powers are stored only as fractions of the total received power. The
fractions never touch the link budget, so delay- and angle-spread
statistics computed from them are bit-identical across transmit power
and distance changes; the mW values are derived. The exps, powers and
sums are `randcore`'s primitives, whose table says which are portable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

import numpy as np

from .errors import InvalidParamsError
from .pathloss import SPEED_OF_LIGHT_M_PER_NS, link_budget
from .randcore import (
    composite_subpath,
    derive_keys,
    discrete_uniform,
    exp,
    exp10,
    exponential,
    lognormal,
    normal,
    poisson_shifted,
    profile_sums,
    stream_uniforms,
    uniform,
)
from .scenario import Scenario, ScenarioParams, SimConfig, resolved_params, validate_config

# Drops per generate_batch call when generating many: enough to spread
# its per-call cost thin, few enough to bound memory whatever the run size.
BLOCK_DROPS = 256

SIDES = ("aod", "aoa")

PROFILE_LABELS = ("num_clusters", "num_subpaths", "cluster_delay", "cluster_power",
                  "intra_delay", "subpath_power")
# the labelled streams every drop reads; a ranged config reads "distance"
# too. A delay spread reads only the six of PROFILE_LABELS (a drop's
# delays and power shares, `DelayProfile`), and `reproduce` draws only
# those; angular-spread medians would need the other five again, a cost
# to take on purpose.
STREAM_LABELS = PROFILE_LABELS + ("shadow", "num_lobes", "phase", "lobe_angle", "angle_offset")


@dataclass
class DelayProfile:
    """The delays and power shares of consecutive drops as flat arrays:
    all that a delay spread reads, drawn from the PROFILE_LABELS streams
    alone (`delay_profiles`). A `DropBlock` is one with its angles,
    phases and link budget added.

    Per-cluster and per-subpath arrays hold the block's clusters and
    subpaths drop after drop, each drop's clusters in order and each
    cluster's subpaths in ascending intra-cluster delay, the first of
    them exactly zero. `cluster_start` indexes the block's subpaths and
    is the one place cluster membership lives: cluster sizes, excess
    delays and the drops.jsonl nesting are derived from it. Drop d's
    share runs from `cluster_offsets[d]` and `subpath_offsets[d]` to the
    next entry; each ends in the block's total. Powers are kept as
    shares of each drop's received power.
    """

    cluster_offsets: np.ndarray          # (drops + 1,)
    subpath_offsets: np.ndarray          # (drops + 1,)
    # per cluster
    cluster_start: np.ndarray            # index of the cluster's first subpath in the block
    cluster_delays_ns: np.ndarray        # excess delay of the cluster's first subpath
    cluster_power_fractions: np.ndarray  # share of the drop's received power
    # per subpath
    intra_delays_ns: np.ndarray          # delay after the cluster's first subpath
    power_fractions: np.ndarray          # share of the drop's received power

    def __len__(self) -> int:
        return len(self.subpath_offsets) - 1

    @property
    def num_clusters(self) -> np.ndarray:
        """Clusters of each drop."""
        return np.diff(self.cluster_offsets)

    @property
    def num_subpaths(self) -> np.ndarray:
        """Subpaths of each drop."""
        return np.diff(self.subpath_offsets)

    def subpath_drops(self) -> np.ndarray:
        """Each subpath's drop, by its position in the block."""
        return np.repeat(np.arange(len(self)), self.num_subpaths)

    def cluster_sizes(self) -> np.ndarray:
        return np.append(self.cluster_start[1:], self.subpath_offsets[-1]) - self.cluster_start

    def excess_delays_ns(self) -> np.ndarray:
        """Each subpath's cluster delay plus its intra-cluster delay."""
        return np.repeat(self.cluster_delays_ns, self.cluster_sizes()) + self.intra_delays_ns


@dataclass
class DropBlock(DelayProfile):
    """Consecutive drops as flat arrays: the unit that generation,
    metrics and the per-drop files work on; a single drop is a block of
    one.

    The delay profile's arrays (`DelayProfile`) with each drop's lobes,
    each subpath's phase, angles and lobes, and the per-drop columns.
    Drop d's lobes of a side run from `lobe_offsets[side][d]` to the
    next entry. Per-drop columns are lists of Python numbers, the link
    budget among them (`pathloss.link_budget`); the transmit power is
    the block's, as configured, and the frequency and the 1 m
    free-space loss follow from `scenario`. `powers_mw()` scales the
    power shares by each drop's `rx_power_mw`.
    """

    scenario: Scenario
    master_seed: int
    tx_power_dbm: float                  # as configured: an int stays an int
    # per drop
    drop_index: list
    distance_m: list
    shadow_fading_db: list
    path_loss_db: list
    rx_power_dbm: list
    rx_power_mw: list
    # per lobe, each side's lobes drop after drop; keyed 'aod', 'aoa'
    lobe_offsets: dict                   # (drops + 1,) each
    lobe_az_deg: dict                    # lobe i of L within [360(i-1)/L, 360i/L)
    lobe_el_deg: dict                    # above the horizon, positive up
    # per subpath
    phase_rad: np.ndarray
    aod_az_deg: np.ndarray
    aod_el_deg: np.ndarray
    aoa_az_deg: np.ndarray
    aoa_el_deg: np.ndarray
    aod_lobe_index: np.ndarray           # 1-based
    aoa_lobe_index: np.ndarray

    @property
    def propagation_delay_ns(self) -> np.ndarray:
        """First-arrival time of each drop, assuming a free-space line path."""
        return np.array(self.distance_m) / SPEED_OF_LIGHT_M_PER_NS

    def powers_mw(self) -> np.ndarray:
        return self.power_fractions * np.repeat(self.rx_power_mw, self.num_subpaths)


def ragged(lengths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For segments of `lengths` laid end to end: where each segment
    begins, each element's segment and its index within that segment."""
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    segment = np.repeat(np.arange(len(lengths)), lengths)
    return starts, segment, np.arange(len(segment)) - np.repeat(starts, lengths)


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


def sort_from_first(values, lengths) -> np.ndarray:
    """Each segment of `lengths` laid end to end in `values`, in
    ascending order and re-anchored at its earliest value (first entry 0).

    One sort of all values, then one of (segment, rank) integer keys:
    the order of a lexsort by segment and value, several times faster.
    """
    starts, segment, _ = ragged(lengths)
    values = np.asarray(values, dtype=float)
    order, n = np.argsort(values), len(values)
    ordered = values[order[np.sort(segment[order] * n + np.arange(n)) % n]]
    return ordered - ordered[starts[segment]]


def place_cluster_delays(draws, last_intra_delays, lengths, mti) -> np.ndarray:
    """Lay out cluster start times from raw delay draws, the drops'
    clusters end to end, `lengths[d]` of drop d.

    Each drop's draws are sorted and re-anchored at the smallest one;
    cluster n then starts `mti` (one void interval, or one a cluster)
    plus its sorted offset after the last subpath of cluster n-1
    (`last_intra_delays` of that cluster after its start), so every
    inter-cluster gap is at least the void interval. The recurrence keeps
    its association, `(tau + last) + (mti + delta)`, which replay needs.
    """
    number = ragged(lengths)[2]
    deltas = sort_from_first(draws, lengths)
    last = np.asarray(last_intra_delays, dtype=float)
    mti = np.broadcast_to(mti, deltas.shape)
    tau = np.zeros_like(deltas)
    for n in range(1, number.max(initial=0) + 1):
        at = np.flatnonzero(number == n)  # cluster n of each drop that has one
        tau[at] = (tau[at - 1] + last[at - 1]) + (mti[at] + deltas[at])
    return tau


def lobe_mean_angles(params: ScenarioParams, side: str, counts: np.ndarray,
                     u_az: np.ndarray, u_el: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean directions of one side's lobes for a block of drops.

    `counts[d]` is drop d's lobe count; lobes are laid out drop after
    drop, one azimuth and one elevation uniform each. Lobe i of L has
    its azimuth uniform within its sector [360(i-1)/L, 360i/L) and its
    elevation normal around the side's mean tilt, clamped to +/-90.
    """
    _, drop, index = ragged(counts)
    azimuths = (index + u_az) * (360.0 / counts[drop])
    mu_l, sigma_l = params.lobe_elevation_params(side)
    elevations = np.clip(normal(u_el, mu_l, sigma_l), -90.0, 90.0)
    return azimuths, elevations


def _stage_uniforms(keys: dict, count: int, copies: int, layout: dict) -> list:
    """The uniforms of labelled streams of `copies` of the block's `count`
    drops laid end to end (a copy a config), from one Philox call over
    their `keys`. `layout` maps a label to the lengths of the runs of
    draws each drop makes on it, in stream order (an int, or one per
    drop); returns, per label, one array per run, drop after drop. A
    (label, drop) stream is computed once, to the longest read of its
    copies, and holds each read as a prefix; equal runs share one index."""
    totals = np.array([np.broadcast_to(sum(runs), copies * count).reshape(copies, count)
                       .max(axis=0) for runs in layout.values()])  # each stream's longest read
    u = stream_uniforms(np.concatenate([keys[label] for label in layout]), totals.ravel())
    # each stream's start in u, for each drop of every copy
    firsts = np.tile((np.cumsum(totals) - totals.ravel()).reshape(totals.shape), copies)
    within = {}  # id of a run's lengths: each draw's index within its drop's run

    def read(first, runs):  # a label's runs, each drop after drop
        out = []
        # a run starts in each drop's stream after the drop's earlier runs
        for n, start in zip(runs, accumulate(runs[:-1], initial=first)):
            if np.isscalar(n):  # n draws of every drop
                out.append(u[(start[:, None] + np.arange(n)).ravel()])
            else:  # a drop's k-th draw of the run is at its start plus k
                if id(n) not in within:
                    within[id(n)] = ragged(n)[2]
                out.append(u[np.repeat(start, n) + within[id(n)]])
        return out

    return [read(first, runs) for first, runs in zip(firsts, layout.values())]


def generate_batch(config: SimConfig, start: int, count: int) -> DropBlock:
    """Generate drops `start` to `start + count - 1` of a validated
    config as one block. Each drop reads only its own streams, from
    position 0, so it is the same in any block. The scenario's
    parameters, with the config's overrides applied, are resolved once
    per call. `count` must be at least 1.

    Overrides at the edge of the float range can make a delay or its
    square, a power share or an azimuth inf or NaN, which no metric and
    no JSON number can hold, or a received power 0 or inf in mW, which
    would scale every subpath power to it; such a block is refused with
    an InvalidParamsError that names the first drop concerned and the
    parameters that feed the quantity. Subpath powers that underflow to
    0 and elevations clamped at +/-90 degrees are kept.
    """
    labels = STREAM_LABELS + ("distance",) * bool(config.distance_range())
    return _lockstep(_drop_block, (config,), start, count, labels)


def delay_profiles(configs, start: int, count: int) -> list:
    """The delay profile of drops `start` to `start + count - 1` of each
    config, as `generate_batch` takes them, with its refusals of delays
    and power shares: equal in every bit to their blocks' arrays, from
    the six PROFILE_LABELS streams alone. The configs, of one seed, are
    one pass over their drops laid end to end, config after config, one
    Philox call a stage serving them all; only the inverse-CDF
    transforms run per config, on its slice."""
    return _lockstep(_delay_profile, configs, start, count, PROFILE_LABELS)


@np.errstate(all="ignore")  # what overflows or is undefined is refused at the end
def _lockstep(body, configs, start: int, count: int, labels):
    """What the generator `body(configs, start, count)` returns: one
    body over the configs' drops laid end to end, whose stage layouts
    are each served by one Philox call over the `labels` streams of the
    block, whose keys are derived once."""
    if count < 1:
        raise InvalidParamsError(f"count must be at least 1, got {count}")
    if not configs:
        raise InvalidParamsError("no config to generate drops of")
    seeds = {config.master_seed for config in configs}
    if len(seeds) > 1:
        raise InvalidParamsError(f"configs of master seeds {sorted(seeds)} share no stream keys")
    keys = dict(zip(labels, derive_keys(min(seeds), range(start, start + count), labels)
                    .reshape(len(labels), count, 2)))  # {label: the drops' Philox keys}
    body = body(configs, start, count)
    layout = next(body)
    try:
        while True:
            layout = body.send(_stage_uniforms(keys, count, len(configs), layout))
    except StopIteration as end:
        return end.value


def _refuse_unless_finite(start: int, count: int, checks) -> None:
    """Refuse the block at the first config's first (quantity, values,
    drop of each value, parameters) of `checks` that holds a value not
    finite. Drop j of the configs' drops laid end to end is drop
    `start + j % count` of config `j // count`."""
    found = [(int(drop_of[finite.argmin()]), quantity, names)  # each check's first drop
             for quantity, values, drop_of, names in checks
             if not (finite := np.isfinite(values)).all()]
    if found:
        drop, quantity, names = min(found, key=lambda check: check[0] // count)
        raise InvalidParamsError(
            f"{quantity} of drop {start + drop % count} are not finite; check {names}")


def _delay_profile(configs, start: int, count: int):
    """A generator that yields each stage's {label: runs} layout of the
    PROFILE_LABELS streams of the configs' drops laid end to end, is sent
    its uniforms, and returns each config's DelayProfile. Only the
    inverse-CDF transforms run per config, on its slice, with its scalar
    parameters."""
    resolved = [resolved_params(config) for config in configs]

    def each(bounds, values, transform):  # transform(params, slice) of each config, end to end
        return np.concatenate([transform(params, values[a:b])
                               for params, a, b in zip(resolved, bounds, bounds[1:])])

    drops = list(range(0, len(configs) * count + 1, count))  # each config's first, and the end

    # stage 1: one draw per drop
    (u_clusters,), = yield {"num_clusters": [1]}
    n_clusters = each(drops, u_clusters, cluster_counts)
    first_cluster, drop_of_cluster, _ = ragged(n_clusters)
    clusters = np.append(first_cluster, len(drop_of_cluster))[drops].tolist()

    # stage 2: per-cluster draws
    (u_sizes,), (u_cluster_delay,), (u_cluster_power,) = yield {
        "num_subpaths": [n_clusters], "cluster_delay": [n_clusters], "cluster_power": [n_clusters]}
    sizes = each(clusters, u_sizes, lambda p, u: composite_subpath(u, p.beta_s, p.mu_s))
    n_subpaths = np.add.reduceat(sizes, first_cluster)

    # stage 3: per-subpath draws
    (u_rho,), (u_subpath_power,) = yield {
        "intra_delay": [n_subpaths], "subpath_power": [n_subpaths]}

    # each cluster's intra delays are its own draws, sorted and
    # re-anchored at the cluster's earliest one
    cluster_start, cluster_of, _ = ragged(sizes)
    subpaths = np.append(cluster_start, len(cluster_of))[clusters].tolist()
    intra = sort_from_first(each(subpaths, u_rho, lambda p, u: exponential(u, p.mu_rho)), sizes)
    last_intra = intra[cluster_start + sizes - 1]
    tau = place_cluster_delays(each(clusters, u_cluster_delay, cluster_delays), last_intra,
                               n_clusters, np.repeat([p.mti for p in resolved], np.diff(clusters)))

    z_db = each(clusters, u_cluster_power, lambda p, u: normal(u, 0.0, p.sigma_z))
    raw_cluster = each(clusters, tau, lambda params, tau: exp(-tau / params.gamma_cluster))
    raw_cluster *= exp10(z_db / 10.0)
    u_db = each(subpaths, u_subpath_power, lambda p, u: normal(u, 0.0, p.sigma_u))
    raw_subpath = each(subpaths, intra, lambda params, intra: exp(-intra / params.gamma_subpath))
    raw_subpath *= exp10(u_db / 10.0)
    # each drop's total of its clusters, then each cluster's of its subpaths
    totals = profile_sums(np.concatenate((raw_cluster, raw_subpath)),
                          np.concatenate((n_clusters, sizes)))[0]
    cluster_frac = raw_cluster / totals[drop_of_cluster]
    power_fractions = cluster_frac[cluster_of] * (raw_subpath / totals[drops[-1] + cluster_of])

    first_subpath, drop_of_subpath, _ = ragged(n_subpaths)
    ends = tau + last_intra  # each cluster's last excess delay
    _refuse_unless_finite(start, count, (
        ("intra-cluster delays", intra, drop_of_subpath, "mu_rho"),
        ("squared excess delays", ends * ends, drop_of_cluster,
         "mu_tau, sigma_tau, mti and mu_rho"),
        ("cluster power shares", cluster_frac, drop_of_cluster, "gamma_cluster and sigma_z"),
        ("subpath power shares", power_fractions, drop_of_subpath,
         "gamma_subpath and sigma_u")))
    offsets = np.append(first_cluster, len(tau)), np.append(first_subpath, len(intra))
    return [DelayProfile(  # each config's slices, in the order of DelayProfile's fields
        offsets[0][d:d + count + 1] - c, offsets[1][d:d + count + 1] - s,
        cluster_start[c:c_end] - s, tau[c:c_end], cluster_frac[c:c_end], intra[s:s_end],
        power_fractions[s:s_end],
    ) for d, c, c_end, s, s_end in zip(drops, clusters, clusters[1:], subpaths, subpaths[1:])]


def _send_on(profile, layout: dict, u: list) -> tuple:
    """Send `profile` its uniforms of a stage, the first of `u`, whose
    runs its `layout` names; returns what it yields or returns next and
    the rest of `u`."""
    try:
        return profile.send(u[:len(layout)]), u[len(layout):]
    except StopIteration as end:
        return end.value, u[len(layout):]


def _drop_block(configs, start: int, count: int):
    """A generator that yields each stage's {label: runs} layout, is
    sent its uniforms, and returns the DropBlock of its one config: the
    stages of `_delay_profile`, each with the labels of the angles,
    phases and link budget added."""
    (config,) = configs
    params = resolved_params(config)
    drops = range(start, start + count)
    d_range = config.distance_range()
    profile = _delay_profile(configs, start, count)

    # stage 1: a fixed number of draws per drop
    layout = next(profile)
    layout, ((u_shadow,), (u_aod, u_aoa), *u_distance) = _send_on(profile, layout, (yield {
        **layout, "shadow": [1], "num_lobes": [1, 1], **({"distance": [1]} if d_range else {})}))
    distances = (uniform(u_distance[0][0], *d_range).tolist() if d_range
                 else [float(config.distance_m)] * count)
    shadow_db = normal(u_shadow, 0.0, params.sigma_sf).tolist()
    lobe_counts = {"aod": discrete_uniform(u_aod, 1, params.l_aod_max),
                   "aoa": discrete_uniform(u_aoa, 1, params.l_aoa_max)}

    # stage 2: the profile's per-cluster draws alone
    layout, _ = _send_on(profile, layout, (yield layout))

    # stage 3: per-subpath and per-lobe draws. lobe_angle holds a drop's
    # AOD azimuths, AOD elevations, AOA azimuths and AOA elevations;
    # angle_offset its AOD and AOA lobe picks, then its AOD az, AOD el,
    # AOA az and AOA el offsets.
    (n_subpaths,), (l_aod, l_aoa) = layout["intra_delay"], lobe_counts.values()
    (delays,), ((u_phase,), u_lobe, u_offset) = _send_on(profile, layout, (yield {
        **layout, "phase": [n_subpaths], "lobe_angle": [l_aod, l_aod, l_aoa, l_aoa],
        "angle_offset": [n_subpaths] * 6}))
    subpath = {"phase_rad": uniform(u_phase, 0.0, 2.0 * math.pi)}

    # each subpath picks a lobe of its drop per side and is scattered
    # around the lobe mean: azimuths wrap modulo 360, elevations clamp
    drop_of_subpath = delays.subpath_drops()
    lobe_offsets, lobe_az, lobe_el = {}, {}, {}
    for k, (side, counts) in enumerate(lobe_counts.items()):
        az, el = lobe_mean_angles(params, side, counts, u_lobe[2 * k], u_lobe[2 * k + 1])
        lobe_offsets[side] = np.append(ragged(counts)[0], len(az))
        lobe_az[side], lobe_el[side] = az, el
        span = counts[drop_of_subpath]
        index = 1 + np.minimum((u_offset[k] * span).astype(np.int64), span - 1)
        lobe = lobe_offsets[side][drop_of_subpath] + index - 1
        d_az = normal(u_offset[2 + 2 * k], 0.0, params.sigma_phi(side))
        d_el = normal(u_offset[3 + 2 * k], 0.0, params.sigma_theta(side))
        subpath[f"{side}_lobe_index"] = index
        subpath[f"{side}_az_deg"] = (az[lobe] + d_az) % 360.0
        subpath[f"{side}_el_deg"] = np.clip(el[lobe] + d_el, -90.0, 90.0)

    # elevations are clamped, so only the azimuths can overflow or be undefined
    _refuse_unless_finite(start, count, (
        (f"{side} azimuths", subpath[f"{side}_az_deg"], drop_of_subpath, f"sigma_phi_{side}")
        for side in SIDES))

    path_loss_db, rx_power_dbm, rx_power_mw = link_budget(config, params, shadow_db, distances)
    usable = [0.0 < power_mw < math.inf for power_mw in rx_power_mw]
    if not all(usable):
        i = usable.index(False)
        raise InvalidParamsError(
            f"received power {rx_power_dbm[i]} dBm of drop {start + i} is outside the float "
            f"range in mW; check tx_power_dbm, ple and sigma_sf")
    return DropBlock(
        **vars(delays),
        scenario=config.scenario,
        master_seed=config.master_seed,
        tx_power_dbm=config.tx_power_dbm,
        drop_index=list(drops),
        distance_m=distances,
        shadow_fading_db=shadow_db,
        path_loss_db=path_loss_db,
        rx_power_dbm=rx_power_dbm,
        rx_power_mw=rx_power_mw,
        lobe_offsets=lobe_offsets,
        lobe_az_deg=lobe_az,
        lobe_el_deg=lobe_el,
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
