"""Command-line front end.

Subcommands:
    generate    run a Monte Carlo campaign and write output files
    analyze     partition and fit channels from exported CSV files
    reproduce   re-simulate the validation table of median delay spreads
    params      dump the built-in scenario parameter tables
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    DEFAULT_SLT_DB,
    MIN_FIT_SAMPLES,
    cluster_delay_samples,
    compare_distributions,
    extract_spatial_lobes,
    fit_poisson_shifted,
    partition_time_clusters,
)
from .campaign import REPRODUCE_DROPS, REPRODUCE_SEED, reproduce_report, run_campaign
from .errors import ChannelSimError, ConfigError, InvalidParamsError
from .generate import SIDES
from .scenario import (
    DEFAULT_MTI_NS,
    Scenario,
    SimConfig,
    params_table,
    parse_override_file,
    undecodable,
    validate_config,
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
                     help="output directory (default: '.')")
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
    ana.add_argument("--slt-db", type=float, default=DEFAULT_SLT_DB)
    ana.add_argument("--out", default=None, help="write the report JSON here instead of stdout")

    rep = sub.add_parser("reproduce", help="re-simulate the validation medians table")
    rep.add_argument("--drops", type=int, default=REPRODUCE_DROPS)
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
    try:
        return tuple(map(float, text.split(":", 1))) if ":" in text else float(text)
    except ValueError:
        raise ValueError(f"--distance expects meters, D or MIN:MAX, got {text!r}") from None


def _parsed(errors: list, parse, *args):
    """`parse(*args)`, or None with its error's messages added to `errors`."""
    try:
        return parse(*args)
    except ConfigError as exc:
        errors.extend(exc.violations)
    except ValueError as exc:
        errors.append(str(exc))
    return None


def _cmd_generate(args) -> int:
    errors = []  # of every flag and of the config, raised as one ConfigError
    scenario = _parsed(errors, Scenario.parse, args.scenario)
    distance = _parsed(errors, _parse_distance, args.distance)
    overrides = (_parsed(errors, parse_override_file, args.override_file) or {}
                 if args.override_file else {})
    for item in args.override:
        if "=" not in item:
            errors.append(f"--override expects KEY=VALUE, got {item!r}")
            continue
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    config = SimConfig(
        # stand-ins for what failed; overrides are checked against the scenario
        scenario=scenario or Scenario.GHZ28_LOS,
        distance_m=SimConfig.distance_m if distance is None else distance,
        tx_power_dbm=args.tx_power_dbm,
        num_drops=args.drops,
        master_seed=args.seed,
        workers=args.workers,
        overrides=overrides if scenario else {},
        out_dir=args.out_dir,
        outputs=tuple(s.strip() for s in args.format.split(",") if s.strip()),
    )
    config = _parsed(errors, validate_config, config)
    if errors:
        raise ConfigError(*errors)
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
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        _replace_file(Path(args.out), text + "\n")
        print(f"wrote report: {args.out}")
    else:
        print(text)
    return EXIT_OK


def _replace_file(path: Path, text: str) -> None:
    """Write `text` to `path` by way of a temporary file in its directory
    moved into place with os.replace, so that a failed write leaves no
    partial file and whatever `path` held before intact."""
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temp.write_text(text, encoding="utf-8")
        os.replace(temp, path)
    except OSError as exc:  # named by `path`, not by the temporary file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        temp.unlink(missing_ok=True)


# the columns `analyze` reads from each exported CSV file, with their
# kinds, and the bounds their values must keep
PDP_COLUMNS = {"drop_id": int, "excess_delay_ns": float, "power_mw": float}
PAS_COLUMNS = {"drop_id": int, "side": str, "az_deg": int, "el_deg": int, "power_mw": float}
PAS_BOUNDS = {"el_deg": (-90, 90), "power_mw": (0.0, math.inf)}
# each kind's np.loadtxt type, the test its parsed values pass and what
# a value that passes is; a longer side reads as a U4 text that is none
_KINDS = {int: (np.int64, lambda values: True, "an int"),
          float: (np.float64, np.isfinite, "a finite float"),
          str: ("U4", lambda values: np.isin(values, SIDES), " or ".join(sorted(SIDES)))}
_loadtxt = functools.partial(np.loadtxt, delimiter=",", comments=None, quotechar=None, ndmin=1,
                             encoding="utf-8")


def _read_csv(path: Path, columns: dict, bounds: dict) -> list:
    """The values of `columns` in an exported CSV file as one array per
    column, rows in file order.

    `columns` maps each name to its kind, int, float or str, and
    `bounds` a number column to its (low, high). The grammar is what
    `generate` writes: UTF-8 lines (after an optional byte-order mark),
    a header naming every column read, then one row a line with the
    header's field count. An int is what np.loadtxt parses as int64
    (ASCII digits, an optional sign), a float is finite as it parses it
    (ASCII, no `_`), and whitespace may surround either. A str is
    exactly aoa or aod; a number is in bounds.

    The text is read once, np.loadtxt parses the file once and the rules
    past it run as arrays; a row's text is checked only if the file holds
    a NUL, which a str field drops, or a byte that is not UTF-8, which
    np.loadtxt refuses even in a column not read. A ValueError names the
    first bad line, the first row a rule flags in the longest run of
    first rows that parses row for line (the whole file or
    `_parsed_prefix`'s) or the row after it, and checks only that line.
    """
    head, _, body = path.read_text(encoding="utf-8-sig", errors="surrogateescape").partition("\n")
    header = head.strip().split(",")
    missing = ", ".join(name for name in columns if name not in header)
    bad = undecodable(path, 1, head) or missing and f"{path}:1: header lacks column(s) {missing}"
    if bad:
        raise ValueError(bad)
    dtype = [(f"f{i}", "U1") for i in range(len(header))]
    for name, kind in columns.items():
        dtype[header.index(name)] = (name, _KINDS[kind][0])
    try:
        block = (_loadtxt(path, dtype=dtype, skiprows=1) if body.strip("\n")
                 else np.zeros(0, dtype))  # np.loadtxt warns of a file of blank lines
    except ValueError:  # a row np.loadtxt does not parse, or a byte that is not UTF-8
        block = None
    # np.loadtxt skips a blank line
    whole = (block is not None
             and len(block) == body.count("\n") + bool(body) - body.endswith("\n"))
    prefix = block if whole else _parsed_prefix(body, dtype)
    kept = np.ones(len(prefix), bool)  # row i is the i-th line after the header
    for name, kind in columns.items():
        kept &= _KINDS[kind][1](prefix[name])
    for name, (low, high) in bounds.items():
        kept &= (prefix[name] >= low) & (prefix[name] <= high)
    if "\x00" in body or undecodable(path, 2, body):  # the body as one line
        texts = [header.index(name) for name, kind in columns.items() if kind is str]
        kept[[i for i, row in enumerate(body.split("\n")[:len(prefix)])
              if undecodable(path, i + 2, row)
              or "\x00" in row and any("\x00" in row.split(",")[j] for j in texts)]] = False
    if kept.all() and whole:
        return [block[name] for name in columns]
    i = len(prefix) if kept.all() else kept.argmin()
    _first_bad_line(path, i + 2, body.split("\n", i + 1)[i], header, columns, bounds)


def _parsed_prefix(body: str, dtype) -> np.ndarray:
    """As one array, the longest run of `body`'s first rows that holds
    no blank row and that np.loadtxt parses row for row. Rows parse one
    by one, so it is found chunk by chunk from the end of the last good
    one, chunks doubling until one fails and then halving within it:
    rows[:good] parse, rows[:bad] do not, and each row is parsed about
    twice at most."""
    rows = body.removesuffix("\n").split("\n")
    parts, good, step = [np.zeros(0, dtype)], 0, 1
    bad = next((i for i, row in enumerate(rows) if not row), len(rows)) + 1
    while bad - good > 1:
        stop = min(good + step, bad - 1)
        try:
            parts.append(_loadtxt(rows[good:stop], dtype=dtype))
        except ValueError:
            bad = stop
        else:
            good = stop
        step = 2 * step if bad > len(rows) else (bad - good) // 2
    return np.concatenate(parts)


def _first_bad_line(path: Path, lineno: int, line: str, header, columns, bounds) -> None:
    """Raise the ValueError naming line `lineno` of `path`, `line`, by the
    first rule of `_read_csv` it breaks, in order: UTF-8, the field
    count, each field, then the bounds once every field parses."""
    fields = line.split(",")
    bad = undecodable(path, lineno, line) or (len(fields) != len(header) and (
        f"{path}:{lineno}: expected {len(header)} fields, got {len(fields)}"))
    if bad:
        raise ValueError(bad)
    row = {}
    for name, kind in columns.items():
        i = header.index(name)
        dtype, test, what = _KINDS[kind]
        try:  # a str is its text; a U array would drop its trailing NULs
            row[name] = (np.array(fields[i:i + 1], dtype=object) if kind is str
                         else _loadtxt([line], dtype=dtype, usecols=i))
            kept = np.all(test(row[name]))
        except ValueError:
            kept = False
        if not kept:
            raise ValueError(f"{path}:{lineno}: column {name}: {fields[i]!r} is not {what}")
    for name, (low, high) in bounds.items():
        if not low <= row[name][0] <= high:
            raise ValueError(f"{path}:{lineno}: {name} {row[name][0]} outside {low}..{high}")


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
    if len(intra) >= MIN_FIT_SAMPLES:
        out["intra_cluster_delay_ns"] = [_fit_dict(r) for r in compare_distributions(intra)]
    if len(inter) >= MIN_FIT_SAMPLES:
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
    for name in sorted(SIDES):
        rows = side == name
        if not rows.any():
            continue
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
    """A FitReport's fields, without those it leaves unset."""
    return {k: v for k, v in vars(report).items() if v is not None}


if __name__ == "__main__":
    sys.exit(main())
