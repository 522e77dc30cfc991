"""Monte Carlo campaign orchestration, file emission and the
validation-table reproduction.

A campaign is one pass over its drops. `run_campaign` steps through them
BLOCK_DROPS at a time in index order; each block is generated once and
turned into its DropRecords and the rows of every per-drop file asked
for, in-process or in a fork-pool worker. The parent appends the
records and writes the rows before it takes the next block, then writes
the aggregate files, and moves every file into place only once the run
has succeeded.

The block is the unit: records come from a `DropBlock`'s per-drop
columns and its metrics, and the drops.jsonl, pdp.csv and pas.csv rows
from its flat arrays.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import multiprocessing
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .generate import BLOCK_DROPS, SIDES, DropBlock, generate_batch
from .scenario import ALL_SCENARIOS, Scenario, SimConfig, validate_config
from .stats import GRID_CELLS, METRIC_NAMES, build_pas, drop_metrics, summarize

CSV_FLOAT = "{:.9g}"  # 9 significant digits keeps sums within 1e-9 relative


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
# rows, drop after drop.

# Per-subpath arrays stored under the same name in each JSON cluster
_JSONL_SUBPATH = ("intra_delays_ns", "phase_rad", "aod_az_deg", "aod_el_deg",
                  "aoa_az_deg", "aoa_el_deg", "aod_lobe_index", "aoa_lobe_index")


def _jsonl_rows(block: DropBlock) -> str:
    # the short cluster and lobe columns become Python lists at once,
    # the subpath columns one drop at a time
    subpath = {name: getattr(block, name) for name in _JSONL_SUBPATH}
    subpath["subpath_power_mw"] = block.powers_mw()
    subpath["subpath_power_fraction"] = block.power_fractions
    starts = [*block.cluster_start.tolist(), int(block.subpath_offsets[-1])]
    delays = block.cluster_delays_ns.tolist()
    fractions = block.cluster_power_fractions.tolist()
    first_cluster = block.cluster_offsets.tolist()
    lobes = {side: (block.lobe_offsets[side].tolist(), block.lobe_az_deg[side].tolist(),
                    block.lobe_el_deg[side].tolist()) for side in SIDES}
    label = block.scenario.value
    rows = []
    for d, link in enumerate(block.link):
        a, b = first_cluster[d:d + 2]
        p = starts[a]
        columns = {name: values[p:starts[b]].tolist() for name, values in subpath.items()}
        drop = {
            "scenario": label,
            "drop_index": block.drop_index[d],
            "master_seed": block.master_seed,
            "distance_m": block.distance_m[d],
            "link": dict(vars(link)),  # every LinkBudget field
            "clusters": [
                {**{name: values[starts[n] - p:starts[n + 1] - p]
                    for name, values in columns.items()},
                 "index": n - a + 1,
                 "excess_delay_ns": delays[n],
                 "power_mw": fractions[n] * link.rx_power_mw,
                 "power_fraction": fractions[n]}
                for n in range(a, b)],
        }
        for side, (offsets, az, el) in lobes.items():
            drop[f"{side}_lobes"] = [
                {"index": i - offsets[d] + 1, "mean_az_deg": az[i], "mean_el_deg": el[i]}
                for i in range(offsets[d], offsets[d + 1])]
        rows.append(json.dumps(drop, sort_keys=True) + "\n")
    return "".join(rows)


def _pdp_rows(block: DropBlock) -> str:
    sizes = block.cluster_sizes()
    per_drop = block.num_subpaths
    excess = block.excess_delays_ns()
    powers = block.powers_mw()
    # each subpath's cluster in the block, its cluster's number in its
    # drop and its own number in its cluster, from 1
    cluster = np.repeat(np.arange(len(sizes)), sizes)
    first_cluster = np.repeat(block.cluster_offsets[:-1], block.num_clusters)
    with np.errstate(divide="ignore"):  # a share that underflowed to 0 mW is -inf dBm
        powers_dbm = 10.0 * np.log10(powers)
    columns = zip(np.repeat(block.drop_index, per_drop).tolist(),
                  (cluster - first_cluster[cluster] + 1).tolist(),
                  (np.arange(len(excess)) - block.cluster_start[cluster] + 1).tolist(),
                  *(map(CSV_FLOAT.format, c.tolist()) for c in (
                      excess, np.repeat(block.propagation_delay_ns, per_drop) + excess,
                      powers, powers_dbm)))
    return "".join(f"{d},{c},{k},{e},{a},{p},{db}\n" for d, c, k, e, a, p, db in columns)


def _pas_rows(block: DropBlock) -> str:
    rows, order = [], []
    for rank, side in enumerate(SIDES):
        pas = build_pas(block, side)
        occupied = pas.power_mw > 0
        drop = pas.cells[occupied] // GRID_CELLS
        az, el = (a[occupied].tolist() for a in pas.angles())
        rows.extend(f"{d},{side},{a},{e},{CSV_FLOAT.format(p)}\n" for d, a, e, p in zip(
            np.asarray(block.drop_index)[drop].tolist(), az, el, pas.power_mw[occupied].tolist()))
        order.append(2 * drop + rank)
    # each drop's aod rows, then its aoa rows
    return "".join([rows[i] for i in np.argsort(np.concatenate(order), kind="stable").tolist()])


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
    return "".join(f"{name},{CSV_FLOAT.format(v)},{CSV_FLOAT.format(p)}\n"
                   for name in METRIC_NAMES
                   for v, p in zip(result.aggregates[name].cdf_grid,
                                   result.aggregates[name].cdf_probs))


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
def _staged_files(out_dir: Path, outputs):
    """Open a file with its header for each kind in `outputs`, under a
    temporary name in `out_dir`.

    Yields ({kind: open file}, {kind: final path}). On a clean exit every
    file is moved into place with os.replace; on an exception every
    temporary file is removed, so no output is left half-written.
    """
    tables = {**DROP_FILES, **RESULT_FILES}
    kinds = [kind for kind in tables if kind in outputs]
    if kinds:
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
    finally:
        for fh in files.values():
            fh.close()
        for temp in temps.values():
            temp.unlink(missing_ok=True)


def _write_result_files(files: dict, result: CampaignResult) -> None:
    for kind, (_, _, text) in RESULT_FILES.items():
        if kind in files:
            files[kind].write(text(result))


def _out_dir(out_dir) -> Path:
    return Path(out_dir or os.environ.get("TCSLSIM_OUT_DIR", "."))


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
    records = list(map(DropRecord, block.drop_index, block.distance_m,
                       [link.rx_power_dbm for link in block.link],
                       block.num_clusters.tolist(), block.num_subpaths.tolist(),
                       *(metrics[name] for name in METRIC_NAMES)))
    return records, texts


def _record_task(task: tuple) -> tuple:
    return _record_chunk(*task)


def run_campaign(config: SimConfig) -> CampaignResult:
    """Generate all drops once, compute per-drop metrics, aggregate them
    and write the files named in `config.outputs`.

    Blocks of BLOCK_DROPS drops are mapped in index order, in-process for
    one worker and by a fork pool's `imap` for more; the parent consumes
    one block at a time, so records and files are identical for any
    worker count. The written paths are on `CampaignResult.paths`.
    """
    config = validate_config(config)
    n = config.num_drops
    tasks = [(config, start, min(BLOCK_DROPS, n - start)) for start in range(0, n, BLOCK_DROPS)]
    workers = min(config.workers, len(tasks))
    records = []
    with contextlib.ExitStack() as stack:
        mapper = map
        if workers > 1:  # forked before any output file is open
            mapper = stack.enter_context(multiprocessing.get_context("fork").Pool(workers)).imap
        files, paths = stack.enter_context(
            _staged_files(_out_dir(config.out_dir), config.outputs))
        for block_records, texts in mapper(_record_task, tasks):
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
    with _staged_files(_out_dir(out_dir or result.config.out_dir), outputs) as (files, paths):
        for block in blocks:
            for kind, (_, _, rows) in DROP_FILES.items():
                if kind in files:
                    files[kind].write(rows(block))
        _write_result_files(files, result)
    return paths


# --- validation-table reproduction -------------------------------------------

REPRODUCE_SEED = 20210928
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


def reproduce_report(num_drops: int = 10000, master_seed: int = REPRODUCE_SEED,
                     workers: int = 1) -> ReproReport:
    """Re-simulate every scenario and compare median RMS delay spread
    against the reference values."""
    rows = []
    for scenario in ALL_SCENARIOS:
        config = SimConfig(scenario=scenario, distance_m=REPRODUCE_DISTANCE_M,
                           num_drops=num_drops, master_seed=master_seed, workers=workers)
        result = run_campaign(config)
        ref = REFERENCE_RMS_DS[scenario.value]
        median = result.aggregates["rms_ds_ns"].median
        passed = abs(median - ref["simulated"]) <= ref["tolerance"] * ref["simulated"]
        rows.append(ReproRow(
            scenario=scenario.value,
            simulated_median_ns=median,
            reference_simulated_ns=ref["simulated"],
            reference_measured_ns=ref["measured"],
            tolerance=ref["tolerance"],
            passed=passed,
        ))
    return ReproReport(rows=rows, num_drops=num_drops, master_seed=master_seed)
