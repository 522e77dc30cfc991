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
from .errors import ChannelSimError, ConfigError, InvalidParamsError
from .scenario import (
    ALL_SCENARIOS,
    DEFAULT_MTI_NS,
    Scenario,
    SimConfig,
    numbered_lines,
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


# one parser per process: a parser is a web of reference cycles that only
# the garbage collector frees, and a process that calls `main` again and
# again would keep such garbage between the arrays `analyze` allocates,
# growing its heap
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "reproduce":
            return _cmd_reproduce(args)
        if args.command == "params":
            return _cmd_params(args)
    except ConfigError as exc:
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
            raise ValueError(f"--override expects KEY=VALUE, got {item!r}")
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

    print(f"scenario {config.scenario.value}  drops {config.num_drops}  "
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
        label = Scenario.parse(args.scenario).value
        table = {label: table[label]}
    print(json.dumps(table, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    if not args.pdp and not args.pas:
        raise ValueError("analyze needs --pdp and/or --pas")
    for flag, value in (("--mti", args.mti), ("--slt-db", args.slt_db)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
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


# the columns `analyze` reads from each exported CSV file, with their
# types, and the bounds their values must keep
PDP_COLUMNS = {"drop_id": int, "excess_delay_ns": float, "power_mw": float}
PAS_COLUMNS = {"drop_id": int, "side": str, "az_deg": int, "el_deg": int, "power_mw": float}
PAS_BOUNDS = {"el_deg": (-90, 90), "power_mw": (0.0, math.inf)}

# np.loadtxt types of the columns; a fixed-width str field cuts a longer
# str, which goes to the row walk
_STR_WIDTH = 8
_BLOCK_DTYPES = {int: np.int64, float: np.float64, str: f"U{_STR_WIDTH}"}


def _read_csv(path: Path, columns: dict, bounds: dict) -> list:
    """The values of `columns` in an exported CSV file as one array per
    column, rows in file order.

    The rules are those of `_csv_rows`. The file is parsed in one C pass
    by `np.loadtxt`, which checks every row's field count but refuses
    some text the rules accept (`1_0`, non-ASCII digits, ints beyond
    int64) and accepts some they refuse (blank lines, non-finite
    floats). So the block is kept only when it has one row per line and
    every value passes the rules; otherwise `_csv_rows` reads the file,
    and either gives the values or raises the error of its first bad
    line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            body = fh.read()
    except UnicodeDecodeError:
        header, body = [], ""  # the row walk names the line
    newlines = body.count("\n")
    # np.loadtxt skips blank lines, and warns when they are all there is
    if len(body) > newlines and all(name in header for name in columns):
        dtype = [(f"f{i}", "U1") for i in range(len(header))]
        for name, kind in columns.items():
            dtype[header.index(name)] = (name, _BLOCK_DTYPES[kind])
        try:
            block = np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=1, comments=None,
                               quotechar=None, ndmin=1, encoding="utf-8")
        except ValueError:
            block = None
        if (block is not None and len(block) == newlines + (not body.endswith("\n"))
                and all(_follows_rules(block[name], kind, bounds.get(name), body)
                        for name, kind in columns.items())):
            return [block[name] for name in columns]
    values = list(zip(*(row for _, row in _csv_rows(path, columns, bounds)))) or [()] * len(columns)
    return [_column(v, kind) for v, kind in zip(values, columns.values())]


def _follows_rules(column: np.ndarray, kind, bound, body: str) -> bool:
    """Whether a column parsed by np.loadtxt holds what `_csv_rows` reads."""
    ok = True
    if kind is float:
        ok = np.isfinite(column).all()
    elif kind is str:  # a U field drops trailing NULs; the row walk strips a line's ends
        ok = ("\x00" not in body and (np.strings.str_len(column) < _STR_WIDTH).all()
              and (np.strings.strip(column) == column).all())
    if bound is not None:
        ok = ok and ((column >= bound[0]) & (column <= bound[1])).all()
    return bool(ok)


def _column(values: tuple, kind) -> np.ndarray:
    """An array of values from `_csv_rows`; ints beyond int64 and strs stay
    Python objects."""
    if kind is str:
        return np.array(values, dtype=object)
    try:
        return np.array(values, dtype=np.int64 if kind is int else np.float64)
    except OverflowError:
        return np.array(values, dtype=object)


def _csv_rows(path: Path, columns: dict, bounds: dict):
    """Yield (line number, the values of `columns`) for each data row of
    an exported CSV file.

    `columns` maps each column name to the type of its values, int,
    float or str; floats must be finite, and a number column named in
    `bounds` must lie within its (low, high). Raises ValueError naming
    the file and line when a byte is not UTF-8, the header lacks one of
    `columns`, a row has another field count than the header, or a value
    does not convert or lies out of bounds.
    """
    converters = [_finite_float if kind is float else kind for kind in columns.values()]
    checks = [(list(columns).index(name), name, low, high)
              for name, (low, high) in bounds.items()]
    lines = numbered_lines(path)
    header = next(lines, (1, ""))[1].strip().split(",")
    missing = [name for name in columns if name not in header]
    if missing:
        raise ValueError(f"{path}:1: header lacks column(s) {', '.join(missing)}")
    pick = operator.itemgetter(*map(header.index, columns))
    for lineno, line in lines:
        row = line.strip().split(",")
        if len(row) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        fields = pick(row)
        try:
            values = [convert(field) for convert, field in zip(converters, fields)]
        except ValueError:
            raise _bad_value(path, lineno, columns, converters, fields) from None
        for i, name, low, high in checks:
            if not low <= values[i] <= high:
                raise ValueError(f"{path}:{lineno}: {name} {values[i]} outside {low}..{high}")
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
    """Partition every drop in a PDP CSV and fit the cluster statistics.

    The file is analysed as one block: its taps are sorted by (drop,
    delay) once and partitioned in one pass.
    """
    drop_id, delay, _power = _read_csv(path, PDP_COLUMNS, {})
    drop = np.unique(drop_id, return_inverse=True)[1]
    order = np.lexsort((delay, drop))
    delays = delay[order]
    drop_starts = np.flatnonzero(np.diff(drop[order], prepend=-1))
    starts = partition_time_clusters(delays, mti_ns, drop_starts).starts
    first_clusters = np.searchsorted(starts, drop_starts)
    intra, inter = cluster_delay_samples(delays, starts, mti_ns)
    inter = np.delete(inter, first_clusters[1:] - 1)  # the gaps across drop starts

    out = {
        "num_drops": len(drop_starts),
        "mti_ns": mti_ns,
        "num_clusters": _fit_dict(fit_poisson_shifted(np.diff(first_clusters,
                                                              append=len(starts)))),
    }
    if len(intra) >= 20:
        out["intra_cluster_delay_ns"] = [_fit_dict(r) for r in compare_distributions(intra)]
    if len(inter) >= 20:
        out["inter_cluster_offset_ns"] = [_fit_dict(r) for r in compare_distributions(inter)]
    return out


def _analyze_pas(path: Path, slt_db: float) -> dict:
    """Count the spatial lobes of every (drop, side) spectrum in a PAS CSV.

    The file is analysed as one block per side: all of a side's
    spectra are summed and labelled at once.
    """
    drop_id, side, az, el, power = _read_csv(path, PAS_COLUMNS, PAS_BOUNDS)
    ids, drop = np.unique(drop_id, return_inverse=True)
    cells = np.asarray(PowerAngularSpectrum.cell_index(az, el), dtype=np.int64)
    lobe_counts = {}
    for name in sorted(set(side.tolist())):
        rows = side == name
        pas = PowerAngularSpectrum.from_deposits(name, drop[rows], cells[rows], power[rows])
        try:
            lobe_counts[name] = extract_spatial_lobes(pas, slt_db).counts
        except InvalidParamsError as exc:  # spectrum k is the k-th smallest drop_id's
            raise ValueError(f"{path}: drop_id {ids[exc.spectrum]}, side {name}: {exc}") from None
    return {
        "slt_db": slt_db,
        "lobe_counts": {
            name: {
                "num_drops": len(counts),
                "mean": float(np.mean(counts)),
                "histogram": {str(k): int(v) for k, v in
                              zip(*np.unique(counts, return_counts=True))},
            }
            for name, counts in lobe_counts.items()
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
