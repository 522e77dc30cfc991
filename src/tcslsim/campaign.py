"""Monte Carlo campaign orchestration, file emission and the
validation-table reproduction."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .generate import BLOCK_DROPS, generate_batch
from .scenario import (
    ALL_SCENARIOS,
    Scenario,
    SimConfig,
    resolved_params,
    validate_config,
)
from .stats import Summary, build_pas, drop_metrics, summarize

METRIC_NAMES = ("rms_ds_ns", "as_aod_az_deg", "as_aod_el_deg", "as_aoa_az_deg", "as_aoa_el_deg")

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

    def metric_values(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


def _config_payload(config: SimConfig) -> dict:
    """Everything that determines campaign content.

    Worker count and output settings are presentation, not content, so
    they do not participate.
    """
    return {
        "scenario": config.scenario.label(),
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


def drop_record(drop) -> DropRecord:
    return DropRecord(
        drop_index=drop.drop_index,
        distance_m=drop.distance_m,
        rx_power_dbm=drop.link.rx_power_dbm,
        num_clusters=drop.num_clusters,
        num_subpaths=drop.num_subpaths,
        **drop_metrics(drop),
    )


def _record_chunk(config: SimConfig, start: int, count: int) -> list:
    params = resolved_params(config)
    return [drop_record(drop) for first in range(start, start + count, BLOCK_DROPS)
            for drop in generate_batch(config, params, first,
                                       min(BLOCK_DROPS, start + count - first))]


def run_campaign(config: SimConfig) -> CampaignResult:
    """Generate all drops, compute per-drop metrics and aggregate them.

    Fan-out across workers is by contiguous drop-index chunks; records
    are reassembled in index order, so the result is identical for any
    worker count.
    """
    config = validate_config(config)
    n = config.num_drops
    workers = min(config.workers, n)
    if workers > 1:
        bounds = np.linspace(0, n, workers + 1).astype(int)
        tasks = [(config, int(s), int(e - s)) for s, e in zip(bounds[:-1], bounds[1:]) if e > s]
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            chunks = pool.starmap(_record_chunk, tasks)
        records = [rec for chunk in chunks for rec in chunk]
    else:
        records = _record_chunk(config, 0, n)

    aggregates = {
        name: summarize([getattr(r, name) for r in records]) for name in METRIC_NAMES
    }
    provenance = {
        "master_seed": config.master_seed,
        "config_hash": config_digest(config),
        "version": __version__,
    }
    return CampaignResult(config=config, records=records, aggregates=aggregates,
                          provenance=provenance)


# --- file emission ----------------------------------------------------------

def emit_outputs(result: CampaignResult, drops, config: SimConfig | None = None,
                 out_dir=None, outputs=None) -> dict:
    """Write the requested campaign files; returns {kind: path}.

    `drops` is an iterable of the campaign's drops in index order (they
    can be regenerated deterministically). All per-drop files are
    written in a single pass over it.
    """
    config = config or result.config
    outputs = tuple(outputs if outputs is not None else config.outputs)
    out_dir = Path(out_dir or config.out_dir or os.environ.get("TCSLSIM_OUT_DIR", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    per_drop = [kind for kind in ("jsonl", "pdp", "pas") if kind in outputs]
    handles = {}
    try:
        if "jsonl" in per_drop:
            paths["jsonl"] = out_dir / "drops.jsonl"
            handles["jsonl"] = open(paths["jsonl"], "w", encoding="utf-8")
        if "pdp" in per_drop:
            paths["pdp"] = out_dir / "pdp.csv"
            handles["pdp"] = open(paths["pdp"], "w", encoding="utf-8")
            handles["pdp"].write(
                "drop_id,cluster_idx,subpath_idx,excess_delay_ns,absolute_delay_ns,power_mw,power_dbm\n")
        if "pas" in per_drop:
            paths["pas"] = out_dir / "pas.csv"
            handles["pas"] = open(paths["pas"], "w", encoding="utf-8")
            handles["pas"].write("drop_id,side,az_deg,el_deg,power_mw\n")
        if per_drop:
            for drop in drops:
                if "jsonl" in handles:
                    handles["jsonl"].write(json.dumps(drop.to_dict(), sort_keys=True) + "\n")
                if "pdp" in handles:
                    _write_pdp_rows(handles["pdp"], drop)
                if "pas" in handles:
                    _write_pas_rows(handles["pas"], drop)
    finally:
        for fh in handles.values():
            fh.close()

    if "summary" in outputs:
        paths["summary"] = out_dir / "summary.json"
        _write_summary(paths["summary"], result)
    if "cdf" in outputs:
        paths["cdf"] = out_dir / "cdf.csv"
        _write_cdf(paths["cdf"], result)
    return paths


def _write_pdp_rows(fh, drop) -> None:
    powers = drop.powers_mw()
    columns = zip(drop.excess_delays_ns().tolist(), drop.absolute_delays_ns().tolist(),
                  powers.tolist(), (10.0 * np.log10(powers)).tolist())
    for cluster, size in enumerate(drop.cluster_sizes().tolist(), start=1):
        for subpath in range(1, size + 1):
            fh.write(f"{drop.drop_index},{cluster},{subpath},"
                     + ",".join(map(CSV_FLOAT.format, next(columns))) + "\n")


def _write_pas_rows(fh, drop) -> None:
    for side in ("aod", "aoa"):
        pas = build_pas(drop, side)
        occupied = pas.power_mw > 0
        az, el = (a[occupied].tolist() for a in pas.angles())
        prefix = f"{drop.drop_index},{side},"
        fh.write("".join(f"{prefix}{a},{e},{CSV_FLOAT.format(p)}\n"
                         for a, e, p in zip(az, el, pas.power_mw[occupied].tolist())))


def _write_summary(path: Path, result: CampaignResult) -> None:
    body = {
        "provenance": dict(result.provenance),
        "created_at": datetime.now(timezone.utc).isoformat(),  # only nondeterministic field
        "config": _config_payload(result.config),
        "metrics": {
            name: {"count": s.count, "median": s.median, "mean": s.mean}
            for name, s in result.aggregates.items()
        },
    }
    path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_cdf(path: Path, result: CampaignResult) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("metric,value,cdf_prob\n")
        for name in METRIC_NAMES:
            summary = result.aggregates[name]
            for v, p in zip(summary.cdf_grid, summary.cdf_probs):
                fh.write(f"{name},{CSV_FLOAT.format(v)},{CSV_FLOAT.format(p)}\n")


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
        ref = REFERENCE_RMS_DS[scenario.label()]
        median = result.aggregates["rms_ds_ns"].median
        passed = abs(median - ref["simulated"]) <= ref["tolerance"] * ref["simulated"]
        rows.append(ReproRow(
            scenario=scenario.label(),
            simulated_median_ns=median,
            reference_simulated_ns=ref["simulated"],
            reference_measured_ns=ref["measured"],
            tolerance=ref["tolerance"],
            passed=passed,
        ))
    return ReproReport(rows=rows, num_drops=num_drops, master_seed=master_seed)
