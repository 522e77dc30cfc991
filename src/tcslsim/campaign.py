"""Monte Carlo campaign orchestration, file emission and the
validation-table reproduction.

A campaign is one pass over its drops. `run_campaign` steps through them
BLOCK_DROPS at a time in index order; each block is generated once and
turned into its DropRecords and the rows of every per-drop file asked
for, in-process or in a fork-pool worker. The parent appends the
records and writes the rows before it takes the next block, then writes
the aggregate files, and moves every file into place only once the run
has succeeded. `reproduce_report` makes one such pass for all four
scenarios and computes only their RMS delay spreads
(`stats.delay_spreads`, not the angular spreads of `drop_metrics`). A
delay spread reads only a drop's delays and power shares, drawn from
six streams (`generate.PROFILE_LABELS`: num_clusters, num_subpaths,
cluster_delay, cluster_power, intra_delay and subpath_power), so
`reproduce_report` draws only those: `generate.delay_profiles` draws
each block's profiles in one pass over the four scenarios' drops laid
end to end, from keys derived once for the six labels, with one Philox
call per stage; only the inverse-CDF transforms run per scenario. It
draws no shadow, lobe, phase or angle and computes no link budget,
writes no file and builds no DropRecord. Medians of angular spreads
(ROADMAP item 7) would need the angle streams drawn again, a cost to
price on purpose.

The block is the unit: records come from a `DropBlock`'s per-drop
columns and its metrics, and the drops.jsonl, pdp.csv and pas.csv rows
from its flat arrays. A drops.jsonl `link` object holds the drop's
distance and link-budget columns, the block's transmit power as
configured, and the frequency and 1 m free-space loss of its scenario.

drops.jsonl holds one JSON object per drop and line, its keys in sorted
order at every level, as `json.dumps(sort_keys=True)` writes them:

    aoa_lobes, aod_lobes  [{index (from 1), mean_az_deg, mean_el_deg}]
    clusters              [{aoa_az_deg, aoa_el_deg, aoa_lobe_index,
                            aod_az_deg, aod_el_deg, aod_lobe_index,
                            excess_delay_ns, index (from 1),
                            intra_delays_ns, phase_rad, power_fraction,
                            power_mw, subpath_power_fraction,
                            subpath_power_mw}]
    distance_m, drop_index
    link                  {distance_m, frequency_hz, fspl_1m_db,
                           path_loss_db, rx_power_dbm, rx_power_mw,
                           shadow_fading_db, tx_power_dbm}
    master_seed, scenario (the label, such as "28GHz-NLOS")

A cluster's keys other than its index, excess delay (of its first
subpath) and power hold one entry per subpath, in ascending intra-
cluster delay. Delays are in ns, angles in degrees (azimuth from 0 to
360, elevation from -90 to 90, positive up), phases in radians,
distances in m, powers in mW or dBm, gains and losses in dB and the
frequency in Hz; a power fraction is a share of the drop's received
power. Each float is written in the bytes of Python's shortest
round-trip `repr`, and every value is finite (`generate_batch` refuses
a block otherwise), so each row is strict JSON. Those bytes come from
one `orjson.dumps` of each slice of drops (the same shortest digits,
by Ryu), and from `repr` itself for the magnitudes whose exponent
orjson lays out otherwise (`_float_texts`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import importlib
import itertools
import json
import multiprocessing
import operator
import os
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import orjson

from . import __version__
from .generate import BLOCK_DROPS, SIDES, DropBlock, delay_profiles, generate_batch, ragged
from .pathloss import fspl_1m
from .randcore import log10
from .scenario import ALL_SCENARIOS, SimConfig, validate_config
from .stats import GRID_CELLS, METRIC_NAMES, build_pas, delay_spreads, drop_metrics, summarize

CSV_FLOAT = "%.9g"  # 9 significant digits keeps sums within 1e-9 relative


@dataclass(frozen=True)
class DropRecord:
    """Per-drop scalar metrics collected during a campaign."""

    drop_index: int
    distance_m: float
    rx_power_dbm: float
    num_clusters: int
    num_subpaths: int
    rms_ds_ns: float
    as_aod_az_deg: float
    as_aod_el_deg: float
    as_aoa_az_deg: float
    as_aoa_el_deg: float


@dataclass
class CampaignResult:
    config: SimConfig
    records: list
    aggregates: dict
    provenance: dict
    paths: dict = field(default_factory=dict)  # {kind: path} of the files written


def _config_payload(config: SimConfig) -> dict:
    """Everything that determines campaign content.

    Worker count and output settings are presentation, not content, so
    they do not participate.
    """
    return {
        "scenario": config.scenario.value,
        "distance_m": list(config.distance_m) if isinstance(config.distance_m, tuple)
        else config.distance_m,
        "tx_power_dbm": config.tx_power_dbm,
        "num_drops": config.num_drops,
        "master_seed": config.master_seed,
        "overrides": {k: config.overrides[k] for k in sorted(config.overrides)},
    }


def config_digest(config: SimConfig) -> str:
    """Hash of the campaign content payload (`summary.json`'s config block)."""
    blob = json.dumps(_config_payload(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# --- per-drop and aggregate file contents -------------------------------------

# Each formatter takes a DropBlock and returns the text of its drops'
# rows, drop after drop. Values become text in C-level passes: one
# %-template over a run of rows, filled in from the `.tolist()` of its
# columns, writes every float of a run at once, and a row's template
# joins texts already made. drops.jsonl's floats are texts made before
# that (`_float_texts`): one `orjson.dumps` of a slice's float columns
# laid end to end writes their shortest round-trip digits (Ryu), and
# `repr` writes the few whose layout orjson writes otherwise, so each
# text is `repr`'s.

JSONL_SLICE_DROPS = 16  # drops.jsonl is formatted this many drops at a time

# a drops.jsonl cluster, each list of one value per subpath as "[%s]",
# and which of its fields, in order, is such a list
_CLUSTER = ('{"aoa_az_deg": [%s], "aoa_el_deg": [%s], "aoa_lobe_index": [%s], '
            '"aod_az_deg": [%s], "aod_el_deg": [%s], "aod_lobe_index": [%s], '
            '"excess_delay_ns": %s, "index": %d, "intra_delays_ns": [%s], "phase_rad": [%s], '
            '"power_fraction": %s, "power_mw": %s, "subpath_power_fraction": [%s], '
            '"subpath_power_mw": [%s]}')
_PER_SUBPATH = np.array([spec == "[%s]" for spec in re.findall(r"\[%s\]|%[sd]", _CLUSTER)])
_LOBE = '{"index": %d, "mean_az_deg": %s, "mean_el_deg": %s}'


def _float_texts(columns) -> list:
    """The text `repr` writes of each value of `columns`, float arrays
    of at least one value in all: an object array of str per column.

    orjson writes the same shortest round-trip digits as `repr` but lays
    out some exponents otherwise: it writes 1e-5 <= |x| < 1e-4 as a
    decimal, a one-digit exponent unpadded ("1e-6", not "1e-06") and a
    positive one unsigned ("1e16", not "1e+16"). The values it writes
    with those exponents, 1e-9 <= |x| < 1e-4 and |x| >= 1e16, take `repr`
    itself. Those bounds are exact: shortest digits parse back to their
    double, so a double below a power of ten has digits below it.
    """
    flat = np.concatenate(columns)
    text = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    texts = np.array(text[1:-1].split(","), object)
    size = np.abs(flat)
    relaid = ((size >= 1e-9) & (size < 1e-4)) | (size >= 1e16)
    texts[relaid] = [repr(value) for value in flat[relaid].tolist()]
    return np.split(texts, np.cumsum([len(column) for column in columns[:-1]]))


@functools.cache
def _cluster_item(size: int) -> str:
    """The %-template of a drops.jsonl cluster of `size` subpaths."""
    return _CLUSTER.replace("[%s]", f"[{', '.join(['%s'] * size)}]")


def _last_flags(offsets) -> list:
    """For items laid out in groups that begin at `offsets`, its last
    entry their count, whether each item is the last of its group."""
    last = np.zeros(offsets[-1], bool)
    last[np.asarray(offsets[1:]) - 1] = True
    return last.tolist()


def _group_texts(items, last: list, values) -> list:
    """The text of each group of items, by the groups' `_last_flags`:
    each item's %-template in `items` filled in from `values` in turn,
    joined by ", " within its group. No group is empty."""
    layout = "".join(map(operator.add, items, map((", ", "\n").__getitem__, last)))
    return (layout % tuple(values)).split("\n")[:-1]


def _interleaved(columns) -> tuple:
    """The values of `columns`, lists of one length, row after row."""
    return tuple(itertools.chain.from_iterable(zip(*columns)))


def _filled(row: str, columns) -> str:
    """The %-template `row` filled in with each row of `columns`, lists
    of one length, in one pass."""
    return (row * len(columns[0])) % _interleaved(columns)


def _jsonl_rows(block: DropBlock) -> str:
    # each row is written from templates whose keys are in sorted order,
    # each float by its `_float_texts` text and each list as the texts of
    # its numbers joined by ", ": the bytes of json.dumps(sort_keys=True),
    # which the finite values of a block allow. The text is made
    # JSONL_SLICE_DROPS drops at a time, which bounds what it holds.
    cluster_starts = [*block.cluster_start.tolist(), int(block.subpath_offsets[-1])]
    first_cluster = block.cluster_offsets.tolist()
    last_cluster = _last_flags(first_cluster)
    sizes = block.cluster_sizes()
    # the values of each _CLUSTER field, per subpath or per cluster
    fields = (block.aoa_az_deg, block.aoa_el_deg, block.aoa_lobe_index, block.aod_az_deg,
              block.aod_el_deg, block.aod_lobe_index, block.cluster_delays_ns,
              ragged(block.num_clusters)[2] + 1, block.intra_delays_ns, block.phase_rad,
              block.cluster_power_fractions,
              block.cluster_power_fractions * np.repeat(block.rx_power_mw, block.num_clusters),
              block.power_fractions, block.powers_mw())
    floats = [k for k, column in enumerate(fields) if column.dtype.kind == "f"]
    lobes = [(block.lobe_offsets[side].tolist(), _last_flags(block.lobe_offsets[side]),
              (ragged(np.diff(block.lobe_offsets[side]))[2] + 1).tolist(),
              block.lobe_az_deg[side], block.lobe_el_deg[side]) for side in ("aoa", "aod")]
    row = ('{"aoa_lobes": [%s], "aod_lobes": [%s], "clusters": [%s], "distance_m": %s, '
           '"drop_index": %d, "link": {"distance_m": %s, '
           f'"frequency_hz": {block.scenario.frequency_hz!r}, '
           f'"fspl_1m_db": {fspl_1m(block.scenario.frequency_hz)!r}, '
           '"path_loss_db": %s, "rx_power_dbm": %s, "rx_power_mw": %s, "shadow_fading_db": %s, '
           f'"tx_power_dbm": {block.tx_power_dbm!r}}}, "master_seed": {block.master_seed!r}, '
           f'"scenario": {json.dumps(block.scenario.value)}}}\n')
    drops = (block.distance_m, block.path_loss_db, block.rx_power_dbm, block.rx_power_mw,
             block.shadow_fading_db)

    def rows(d: int, e: int) -> str:  # of drops d .. e - 1
        a, b = first_cluster[d], first_cluster[e]
        p, q = cluster_starts[a], cluster_starts[b]
        columns = [column[p:q] if per_subpath else column[a:b]
                   for column, per_subpath in zip(fields, _PER_SUBPATH)]
        runs = [(offsets[d], offsets[e]) for offsets, *_ in lobes]
        # the texts of the slice's floats, from one call: the float
        # cluster fields, each side's lobe means and the drop columns
        texts = iter(_float_texts([*(columns[k] for k in floats),
                                   *(column[i:j] for (i, j), (*_, az, el) in zip(runs, lobes)
                                     for column in (az, el)),
                                   *(column[d:e] for column in drops)]))
        for k in floats:
            columns[k] = next(texts)
        # each cluster's values in the order of its template: a run of
        # its subpaths' values for a per-subpath field, else one value
        lengths = np.where(_PER_SUBPATH, sizes[a:b, None], 1)
        starts = np.cumsum(lengths).reshape(lengths.shape) - lengths
        cluster, within = ragged(sizes[a:b])[1:]
        values = np.empty(lengths.sum(), object)
        for field, (column, per_subpath) in enumerate(zip(columns, _PER_SUBPATH)):
            if per_subpath:
                values[starts[cluster, field] + within] = column
            else:
                values[starts[:, field]] = column
        clusters = _group_texts(map(_cluster_item, sizes[a:b].tolist()), last_cluster[a:b],
                                values.tolist())
        lobe_texts = [_group_texts(itertools.repeat(_LOBE), last[i:j], _interleaved(
                          [index[i:j], next(texts).tolist(), next(texts).tolist()]))
                      for (i, j), (_, last, index, *_) in zip(runs, lobes)]
        distance, *link = (next(texts).tolist() for _ in drops)
        return _filled(row, [*lobe_texts, clusters, distance, block.drop_index[d:e], distance,
                             *link])

    return "".join([rows(d, min(d + JSONL_SLICE_DROPS, len(block)))
                    for d in range(0, len(block), JSONL_SLICE_DROPS)])


def _pdp_rows(block: DropBlock) -> str:
    per_drop = block.num_subpaths
    excess = block.excess_delays_ns()
    powers = block.powers_mw()
    # each subpath's cluster in the block, its cluster's number in its
    # drop and its own number in its cluster, from 0
    _, cluster, subpath_number = ragged(block.cluster_sizes())
    cluster_number = ragged(block.num_clusters)[2]
    with np.errstate(divide="ignore"):  # a share that underflowed to 0 mW is -inf dBm
        powers_dbm = 10.0 * log10(powers)
    absolute = np.repeat(block.propagation_delay_ns, per_drop) + excess
    columns = (np.repeat(block.drop_index, per_drop), cluster_number[cluster] + 1,
               subpath_number + 1, excess, absolute, powers, powers_dbm)
    return _filled(f"%d,%d,%d,{CSV_FLOAT},{CSV_FLOAT},{CSV_FLOAT},{CSV_FLOAT}\n",
                   [c.tolist() for c in columns])


def _pas_rows(block: DropBlock) -> str:
    columns = []
    for rank, side in enumerate(SIDES):
        pas = build_pas(block, side)
        occupied = pas.power_mw > 0
        drop = pas.cells[occupied] // GRID_CELLS
        columns.append((2 * drop + rank, np.asarray(block.drop_index)[drop],
                        np.full(len(drop), rank), *(a[occupied] for a in pas.angles()),
                        pas.power_mw[occupied]))
    key, *columns = map(np.concatenate, zip(*columns))
    # each drop's aod rows, then its aoa rows
    drop_id, rank, az, el, power = (c[np.argsort(key, kind="stable")].tolist() for c in columns)
    return _filled(f"%d,%s,%d,%d,{CSV_FLOAT}\n",
                   [drop_id, list(map(SIDES.__getitem__, rank)), az, el, power])


def _summary_text(result: CampaignResult) -> str:
    body = {
        "provenance": dict(result.provenance),
        "created_at": datetime.now(timezone.utc).isoformat(),  # only nondeterministic field
        "config": _config_payload(result.config),
        "metrics": {
            name: {"count": s.count, "median": s.median, "mean": s.mean}
            for name, s in result.aggregates.items()
        },
    }
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def _cdf_text(result: CampaignResult) -> str:
    return "".join(_filled(f"{name},{CSV_FLOAT},{CSV_FLOAT}\n", [
        result.aggregates[name].cdf_grid.tolist(), result.aggregates[name].cdf_probs.tolist()])
        for name in METRIC_NAMES)


# kind -> (file name, header, text of a block's rows)
DROP_FILES = {
    "jsonl": ("drops.jsonl", "", _jsonl_rows),
    "pdp": ("pdp.csv", "drop_id,cluster_idx,subpath_idx,excess_delay_ns,absolute_delay_ns,"
                       "power_mw,power_dbm\n", _pdp_rows),
    "pas": ("pas.csv", "drop_id,side,az_deg,el_deg,power_mw\n", _pas_rows),
}

# kind -> (file name, header, text from the campaign's aggregates)
RESULT_FILES = {
    "summary": ("summary.json", "", _summary_text),
    "cdf": ("cdf.csv", "metric,value,cdf_prob\n", _cdf_text),
}


@contextlib.contextmanager
def _staged_files(out_dir, outputs):
    """Open a file with its header for each kind in `outputs`, under a
    temporary name in `out_dir` (a path, or None for '.').

    Yields ({kind: open file}, {kind: final path}). On a clean exit every
    file is moved into place with os.replace; on an exception every
    temporary file is removed, so no output is left half-written, and
    so is each directory made for them that is left empty.
    """
    out_dir = Path(out_dir or ".")
    tables = {**DROP_FILES, **RESULT_FILES}
    kinds = [kind for kind in tables if kind in outputs]
    made = []  # the directories mkdir makes, deepest first
    if kinds:
        made = list(itertools.takewhile(lambda d: not d.exists(), (out_dir, *out_dir.parents)))
        out_dir.mkdir(parents=True, exist_ok=True)
    paths = {kind: out_dir / tables[kind][0] for kind in kinds}
    temps = {kind: out_dir / f".{tables[kind][0]}.{os.getpid()}.tmp" for kind in kinds}
    files = {}
    try:
        for kind in kinds:
            files[kind] = open(temps[kind], "w", encoding="utf-8")
            files[kind].write(tables[kind][1])
        yield files, paths
        for fh in files.values():
            fh.close()
        for kind in kinds:
            os.replace(temps[kind], paths[kind])
    except BaseException:
        for fh in files.values():
            fh.close()
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        with contextlib.suppress(OSError):  # stops at the first that is not empty
            for directory in made:
                directory.rmdir()
        raise


def _write_result_files(files: dict, result: CampaignResult) -> None:
    for kind, (_, _, text) in RESULT_FILES.items():
        if kind in files:
            files[kind].write(text(result))


# --- the campaign pass --------------------------------------------------------

def _record_chunk(config: SimConfig, start: int, count: int) -> tuple:
    """Generate drops start .. start + count - 1 as one block.

    Returns their DropRecords, from the block's columns and one
    `drop_metrics` call, and {kind: text} of their rows in each per-drop
    file in `config.outputs`.
    """
    block = generate_batch(config, start, count)
    texts = {kind: rows(block)
             for kind, (_, _, rows) in DROP_FILES.items() if kind in config.outputs}
    metrics = drop_metrics(block)
    records = list(map(DropRecord, block.drop_index, block.distance_m, block.rx_power_dbm,
                       block.num_clusters.tolist(), block.num_subpaths.tolist(),
                       *(metrics[name] for name in METRIC_NAMES)))
    return records, texts


def _record_task(task: tuple) -> tuple:
    return _record_chunk(*task)


def _map_blocks(stack: contextlib.ExitStack, task, head, num_drops: int, workers: int):
    """`task((head, start, count))` of each block of drops in order, in-process
    or by the `imap` of a fork pool forked now and closed by `stack`."""
    tasks = [(head, start, min(BLOCK_DROPS, num_drops - start))
             for start in range(0, num_drops, BLOCK_DROPS)]
    workers = min(workers, len(tasks))
    if workers == 1:
        return map(task, tasks)
    importlib.import_module("scipy.special")  # randcore.ndtri's, once, not in each worker
    return stack.enter_context(multiprocessing.get_context("fork").Pool(workers)).imap(task, tasks)


def run_campaign(config: SimConfig) -> CampaignResult:
    """Generate all drops once, compute per-drop metrics, aggregate them
    and write the files named in `config.outputs`.

    Blocks of BLOCK_DROPS drops are mapped by `_map_blocks`, so records
    and files are identical for any worker count. The written paths are
    on `CampaignResult.paths`.
    """
    config = validate_config(config)
    records = []
    with contextlib.ExitStack() as stack:
        # forked before any output file is open
        blocks = _map_blocks(stack, _record_task, config, config.num_drops, config.workers)
        files, paths = stack.enter_context(
            _staged_files(config.out_dir, config.outputs))
        for block_records, texts in blocks:
            records.extend(block_records)
            for kind, text in texts.items():
                files[kind].write(text)

        aggregates = {
            name: summarize([getattr(r, name) for r in records]) for name in METRIC_NAMES
        }
        provenance = {
            "master_seed": config.master_seed,
            "config_hash": config_digest(config),
            "version": __version__,
        }
        result = CampaignResult(config=config, records=records, aggregates=aggregates,
                                provenance=provenance, paths=paths)
        _write_result_files(files, result)
    return result


def emit_outputs(result: CampaignResult, blocks, out_dir=None, outputs=None) -> dict:
    """Write the requested files of a finished campaign; returns {kind: path}.

    `blocks` is an iterable of `DropBlock`s holding the campaign's drops
    in index order, such as `generate_drops` yields; the per-drop files
    are written in one pass over it, with the row formatters
    `run_campaign` uses, so the bytes are the same.
    """
    outputs = result.config.outputs if outputs is None else outputs
    with _staged_files(out_dir or result.config.out_dir, outputs) as (files, paths):
        for block in blocks:
            for kind, (_, _, rows) in DROP_FILES.items():
                if kind in files:
                    files[kind].write(rows(block))
        _write_result_files(files, result)
    return paths


# --- validation-table reproduction -------------------------------------------

REPRODUCE_SEED = 20210928
REPRODUCE_DROPS = 10000
REPRODUCE_DISTANCE_M = 10.0

# Reference omnidirectional RMS delay spread medians (ns) for the model
# and for the underlying measurements, with the acceptance tolerance on
# the simulated median.
REFERENCE_RMS_DS = {
    "28GHz-LOS": {"simulated": 13.9, "measured": 17.9, "tolerance": 0.25},
    "28GHz-NLOS": {"simulated": 12.5, "measured": 13.5, "tolerance": 0.15},
    "140GHz-LOS": {"simulated": 3.2, "measured": 3.1, "tolerance": 0.15},
    "140GHz-NLOS": {"simulated": 5.9, "measured": 5.7, "tolerance": 0.15},
}


@dataclass
class ReproRow:
    scenario: str
    simulated_median_ns: float
    reference_simulated_ns: float
    reference_measured_ns: float
    tolerance: float
    passed: bool


@dataclass
class ReproReport:
    rows: list
    num_drops: int
    master_seed: int

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_text(self) -> str:
        lines = [
            f"validation medians: {self.num_drops} drops per scenario, seed {self.master_seed}",
            f"{'scenario':<14}{'sim median':>12}{'ref sim':>10}{'ref meas':>10}{'tol':>7}  status",
        ]
        for r in self.rows:
            lines.append(
                f"{r.scenario:<14}{r.simulated_median_ns:>9.3f} ns"
                f"{r.reference_simulated_ns:>7.1f} ns{r.reference_measured_ns:>7.1f} ns"
                f"{r.tolerance:>6.0%}  {'PASS' if r.passed else 'FAIL'}"
            )
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "num_drops": self.num_drops,
            "master_seed": self.master_seed,
            "rows": [dataclasses.asdict(r) for r in self.rows],
        }


def _spread_task(task: tuple) -> list:
    """Each config's RMS delay spreads of the block, from its delay
    profiles drawn in one pass over the configs' drops laid end to end
    and reduced in one grouped pass."""
    return delay_spreads(delay_profiles(*task))


def reproduce_report(num_drops: int = REPRODUCE_DROPS, master_seed: int = REPRODUCE_SEED,
                     workers: int = 1) -> ReproReport:
    """Re-simulate every scenario and compare median RMS delay spread
    against the reference values, in one pass over blocks of drops. It
    draws only the six streams a delay spread reads (num_clusters,
    num_subpaths, cluster_delay, cluster_power, intra_delay and
    subpath_power), each block's in one pass over the four scenarios'
    drops laid end to end, with only the inverse-CDF transforms run per
    scenario (`delay_profiles`), and computes delay spreads only, two dot
    products per drop and scenario; it writes no file and builds no
    DropRecord. A check of angular-spread medians would draw the angle
    streams and call the angular part of `drop_metrics` on purpose, and
    pay for both."""
    configs = tuple(validate_config(SimConfig(
        scenario=scenario, distance_m=REPRODUCE_DISTANCE_M, num_drops=num_drops,
        master_seed=master_seed, workers=workers)) for scenario in ALL_SCENARIOS)
    with contextlib.ExitStack() as stack:
        blocks = list(_map_blocks(stack, _spread_task, configs, num_drops, workers))
    rows = []
    for config, *columns in zip(configs, *blocks):  # a config's column of each block
        ref = REFERENCE_RMS_DS[config.scenario.value]
        median = summarize(np.concatenate(columns)).median
        passed = abs(median - ref["simulated"]) <= ref["tolerance"] * ref["simulated"]
        rows.append(ReproRow(
            scenario=config.scenario.value, simulated_median_ns=median,
            reference_simulated_ns=ref["simulated"], reference_measured_ns=ref["measured"],
            tolerance=ref["tolerance"], passed=passed))
    return ReproReport(rows=rows, num_drops=num_drops, master_seed=master_seed)
