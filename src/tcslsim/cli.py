"""Command-line front end.

Subcommands:
    generate    run a Monte Carlo campaign and write output files
    analyze     partition and fit channels from exported CSV files
    reproduce   re-simulate the validation table of median delay spreads
    params      dump the built-in scenario parameter tables
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from .analysis import (
    cluster_delay_samples,
    compare_distributions,
    extract_spatial_lobes,
    fit_poisson_shifted,
    partition_time_clusters,
)
from .campaign import REPRODUCE_SEED, reproduce_report, run_campaign
from .errors import ChannelSimError, ConfigValidationError
from .scenario import (
    ALL_SCENARIOS,
    DEFAULT_MTI_NS,
    Scenario,
    SimConfig,
    params_table,
    parse_override_file,
)
from .stats import PowerAngularSpectrum

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tcslsim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run a simulation campaign")
    gen.add_argument("--scenario", required=True,
                     help="e.g. 28GHz-LOS, 28GHz-NLOS, 140GHz-LOS, 140GHz-NLOS")
    gen.add_argument("--distance", default="10",
                     help="T-R separation in meters, fixed ('10') or a range ('5:45')")
    gen.add_argument("--drops", type=int, default=1)
    gen.add_argument("--seed", type=int, default=1, help="master seed (printed in all outputs)")
    gen.add_argument("--tx-power-dbm", type=float, default=0.0)
    gen.add_argument("--out-dir", default=None,
                     help="output directory (default: $TCSLSIM_OUT_DIR or '.')")
    gen.add_argument("--format", default="summary",
                     help="comma list of outputs: jsonl,pdp,pas,summary,cdf")
    gen.add_argument("--workers", type=int, default=1)
    gen.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                     help="override a scenario parameter (repeatable)")
    gen.add_argument("--override-file", default=None,
                     help="file of KEY=VALUE lines overriding scenario parameters")

    ana = sub.add_parser("analyze", help="cluster and fit exported channel files")
    ana.add_argument("--pdp", default=None, help="PDP CSV file (schema of 'generate --format pdp')")
    ana.add_argument("--pas", default=None, help="PAS CSV file (schema of 'generate --format pas')")
    ana.add_argument("--mti", type=float, default=DEFAULT_MTI_NS)
    ana.add_argument("--slt-db", type=float, default=-10.0)
    ana.add_argument("--out", default=None, help="write the report JSON here instead of stdout")

    rep = sub.add_parser("reproduce", help="re-simulate the validation medians table")
    rep.add_argument("--drops", type=int, default=10000)
    rep.add_argument("--seed", type=int, default=REPRODUCE_SEED)
    rep.add_argument("--workers", type=int, default=1)

    par = sub.add_parser("params", help="dump the scenario parameter tables")
    par.add_argument("--scenario", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "reproduce":
            return _cmd_reproduce(args)
        if args.command == "params":
            return _cmd_params(args)
    except ConfigValidationError as exc:
        for violation in exc.violations:
            print(f"error: {violation}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ChannelSimError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _parse_distance(text: str):
    if ":" in text:
        lo, hi = text.split(":", 1)
        return (float(lo), float(hi))
    return float(text)


def _parse_overrides(args) -> dict:
    overrides: dict[str, str] = {}
    if args.override_file:
        overrides.update(parse_override_file(args.override_file))
    for item in args.override:
        if "=" not in item:
            raise ConfigValidationError([ValueError(f"--override expects KEY=VALUE, got {item!r}")])
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _cmd_generate(args) -> int:
    config = SimConfig(
        scenario=Scenario.parse(args.scenario),
        distance_m=_parse_distance(args.distance),
        tx_power_dbm=args.tx_power_dbm,
        num_drops=args.drops,
        master_seed=args.seed,
        workers=args.workers,
        overrides=_parse_overrides(args),
        out_dir=args.out_dir,
        outputs=tuple(s.strip() for s in args.format.split(",") if s.strip()),
    )
    result = run_campaign(config)
    config = result.config

    print(f"scenario {config.scenario.label()}  drops {config.num_drops}  "
          f"master_seed {config.master_seed}")
    print(f"config_hash {result.provenance['config_hash']}")
    ds = result.aggregates["rms_ds_ns"]
    print(f"rms delay spread: median {ds.median:.3f} ns  mean {ds.mean:.3f} ns")
    for name in ("as_aoa_az_deg", "as_aod_az_deg"):
        agg = result.aggregates[name]
        print(f"{name}: median {agg.median:.3f} deg")
    for kind, path in result.paths.items():
        print(f"wrote {kind}: {path}")
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    report = reproduce_report(num_drops=args.drops, master_seed=args.seed,
                              workers=args.workers)
    sys.stdout.write(report.to_text())
    return EXIT_OK


def _cmd_params(args) -> int:
    table = params_table()
    if args.scenario:
        label = Scenario.parse(args.scenario).label()
        table = {label: table[label]}
    print(json.dumps(table, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    if not args.pdp and not args.pas:
        raise ConfigValidationError([ValueError("analyze needs --pdp and/or --pas")])
    for flag, value in (("--mti", args.mti), ("--slt-db", args.slt_db)):
        if not math.isfinite(value):
            raise ConfigValidationError([ValueError(f"{flag} must be finite, got {value}")])
    report: dict = {}
    if args.pdp:
        report["pdp"] = _analyze_pdp(Path(args.pdp), args.mti)
    if args.pas:
        report["pas"] = _analyze_pas(Path(args.pas), args.slt_db)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote report: {args.out}")
    else:
        print(text)
    return EXIT_OK


def _csv_rows(path: Path, columns: dict):
    """Yield (line number, the values of `columns`) for each data row of
    an exported CSV file.

    `columns` maps each column name to the type of its values, int,
    float or str; floats must be finite. Raises ValueError naming the
    file and line when the header lacks one of `columns`, a row has
    another field count than the header, or a value does not convert.
    """
    converters = [_finite_float if kind is float else kind for kind in columns.values()]
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        missing = [name for name in columns if name not in header]
        if missing:
            raise ValueError(f"{path}:1: header lacks column(s) {', '.join(missing)}")
        pick = operator.itemgetter(*map(header.index, columns))
        for lineno, line in enumerate(fh, start=2):
            row = line.strip().split(",")
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            fields = pick(row)
            try:
                values = [convert(field) for convert, field in zip(converters, fields)]
            except ValueError:
                raise _bad_value(path, lineno, columns, converters, fields) from None
            yield lineno, values


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _bad_value(path: Path, lineno: int, columns: dict, converters, fields) -> ValueError:
    """The error for the first field of a row that does not convert."""
    for (name, kind), convert, field in zip(columns.items(), converters, fields):
        try:
            convert(field)
        except ValueError:
            what = "an int" if kind is int else "a finite float"
            return ValueError(f"{path}:{lineno}: column {name}: {field!r} is not {what}")
    raise AssertionError("every field of the row converts")


def _analyze_pdp(path: Path, mti_ns: float) -> dict:
    """Partition every drop in a PDP CSV and fit the cluster statistics."""
    taps = defaultdict(list)
    columns = {"drop_id": int, "excess_delay_ns": float, "power_mw": float}
    for _, (drop_id, delay, _power) in _csv_rows(path, columns):
        taps[drop_id].append(delay)

    cluster_counts = []
    intra = []
    inter = []
    for drop_id in sorted(taps):
        delays = np.array(sorted(taps[drop_id]))
        starts = partition_time_clusters(delays, mti_ns).starts
        cluster_counts.append(len(starts))
        drop_intra, drop_inter = cluster_delay_samples(delays, starts, mti_ns)
        intra.extend(drop_intra)
        inter.extend(drop_inter)

    out = {
        "num_drops": len(taps),
        "mti_ns": mti_ns,
        "num_clusters": _fit_dict(fit_poisson_shifted(cluster_counts)),
    }
    if len(intra) >= 20:
        out["intra_cluster_delay_ns"] = [_fit_dict(r) for r in compare_distributions(intra)]
    if len(inter) >= 20:
        out["inter_cluster_offset_ns"] = [_fit_dict(r) for r in compare_distributions(inter)]
    return out


def _analyze_pas(path: Path, slt_db: float) -> dict:
    """Extract spatial lobes for every (drop, side) in a PAS CSV."""
    spectra: dict = defaultdict(dict)  # (drop, side) -> {flat cell: mW}
    columns = {"drop_id": int, "side": str, "az_deg": int, "el_deg": int, "power_mw": float}
    for lineno, (drop_id, side, az, el, power) in _csv_rows(path, columns):
        if not -90 <= el <= 90:
            raise ValueError(f"{path}:{lineno}: el_deg {el} outside -90..90")
        cell = PowerAngularSpectrum.cell_index(az, el)
        cells = spectra[(drop_id, side)]
        cells[cell] = cells.get(cell, 0.0) + power

    counts = defaultdict(list)
    for (drop_id, side), cells in sorted(spectra.items()):
        flat = sorted(cells)
        pas = PowerAngularSpectrum(side=side, cells=np.array(flat, dtype=np.int64),
                                   power_mw=np.array([cells[c] for c in flat]))
        lobes = extract_spatial_lobes(pas, slt_db)
        counts[side].append(lobes.num_lobes)
    return {
        "slt_db": slt_db,
        "lobe_counts": {
            side: {
                "num_drops": len(vals),
                "mean": float(np.mean(vals)),
                "histogram": {str(k): int(v) for k, v in
                              zip(*np.unique(vals, return_counts=True))},
            }
            for side, vals in sorted(counts.items())
        },
    }


def _fit_dict(report) -> dict:
    out = {
        "family": report.family,
        "params": report.params,
        "log_likelihood": report.log_likelihood,
        "n_samples": report.n_samples,
    }
    out.update(report.extras)
    return out


if __name__ == "__main__":
    sys.exit(main())
