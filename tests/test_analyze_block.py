"""`analyze` reads and analyses each file as one block.

Three references pin it: `grammar_read`, an oracle written here from
the `cli._read_csv` docstring, which decides what an exported CSV may
hold and which error names a bad one; `plain_rows`, a reader of the
files `generate` writes by `str.split` with `int` and `float`; and the
per-drop and per-(drop, side) loops `analyze` ran before, kept here and
fed by `plain_rows`. A property that holds under any grammar checks
where an error points.
"""

import contextlib
import io
import json
import math
import random
import re
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tcslsim import cli
from tcslsim.analysis import (
    cluster_delay_samples,
    compare_distributions,
    extract_spatial_lobes,
    fit_poisson_shifted,
    partition_time_clusters,
)
from tcslsim.stats import PowerAngularSpectrum

from conftest import SCENARIO_LABELS


# --- the per-drop loops, as the reference -----------------------------------

def plain_rows(path: Path, columns: dict):
    """Yield the values of `columns` in each row of a CSV file in the
    form `generate` writes, read with str.split and int or float."""
    header, *lines = path.read_text().split("\n")[:-1]
    index = [header.split(",").index(name) for name in columns]
    for line in lines:
        fields = line.split(",")
        yield [kind(fields[i]) for i, kind in zip(index, columns.values())]


def per_drop_pdp(path: Path, mti_ns: float) -> dict:
    taps = defaultdict(list)
    for drop_id, delay, _power in plain_rows(path, cli.PDP_COLUMNS):
        taps[drop_id].append(delay)
    cluster_counts, intra, inter = [], [], []
    for drop_id in sorted(taps):
        delays = np.array(sorted(taps[drop_id]))
        starts = partition_time_clusters(delays, mti_ns).starts
        cluster_counts.append(len(starts))
        drop_intra, drop_inter = cluster_delay_samples(delays, starts, mti_ns)
        intra.extend(drop_intra)
        inter.extend(drop_inter)
    out = {"num_drops": len(taps), "mti_ns": mti_ns,
           "num_clusters": cli._fit_dict(fit_poisson_shifted(cluster_counts))}
    if len(intra) >= 20:
        out["intra_cluster_delay_ns"] = [cli._fit_dict(r) for r in compare_distributions(intra)]
    if len(inter) >= 20:
        out["inter_cluster_offset_ns"] = [cli._fit_dict(r) for r in compare_distributions(inter)]
    return out


def per_spectrum_pas(path: Path, slt_db: float) -> dict:
    spectra: dict = defaultdict(dict)  # (drop, side) -> {flat cell: mW}
    for drop_id, side, az, el, power in plain_rows(path, cli.PAS_COLUMNS):
        cells = spectra[(drop_id, side)]
        cell = PowerAngularSpectrum.cell_index(az, el)
        cells[cell] = cells.get(cell, 0.0) + power
    counts = defaultdict(list)
    for (drop_id, side), cells in sorted(spectra.items()):
        flat = sorted(cells)
        pas = PowerAngularSpectrum(side=side, cells=np.array(flat, dtype=np.int64),
                                   power_mw=np.array([cells[c] for c in flat]))
        counts[side].append(extract_spatial_lobes(pas, slt_db).num_lobes)
    return {"slt_db": slt_db, "lobe_counts": {
        side: {"num_drops": len(vals), "mean": float(np.mean(vals)),
               "histogram": {str(k): int(v) for k, v in zip(*np.unique(vals, return_counts=True))}}
        for side, vals in sorted(counts.items())}}


def report_text(pdp: dict, pas: dict) -> str:
    return json.dumps({"pdp": pdp, "pas": pas}, indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def exports(tmp_path_factory):
    """pdp.csv and pas.csv of 60 drops at 2 to 40 m for each scenario."""
    root = tmp_path_factory.mktemp("exports")
    for seed, label in enumerate(SCENARIO_LABELS, start=3):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["generate", "--scenario", label, "--distance", "2:40",
                             "--drops", "60", "--seed", str(seed), "--format", "pdp,pas",
                             "--out-dir", str(root / label)]) == 0
    return root


def rewrite_rows(src: Path, dst: Path, rng: random.Random, drop_id, duplicate: float = 0.0):
    """Copy a CSV with its data rows shuffled, a share of them written
    twice and each drop id d replaced by drop_id(d)."""
    header, *rows = src.read_text().splitlines()
    rows = [row for row in rows for _ in range(2 if rng.random() < duplicate else 1)]
    rng.shuffle(rows)
    rows = [f"{drop_id(int(r.split(',', 1)[0]))},{r.split(',', 1)[1]}" for r in rows]
    dst.write_text("\n".join([header, *rows]) + "\n")


@pytest.mark.parametrize("label", SCENARIO_LABELS)
def test_block_reports_equal_the_per_drop_loops(exports, label):
    pdp, pas = exports / label / "pdp.csv", exports / label / "pas.csv"
    for mti in (2.5, 6.0, 25.0):
        for slt in (-3.0, -10.0, -30.0):
            assert (report_text(cli._analyze_pdp(pdp, mti), cli._analyze_pas(pas, slt))
                    == report_text(per_drop_pdp(pdp, mti), per_spectrum_pas(pas, slt)))


@pytest.mark.parametrize("label", SCENARIO_LABELS)
@pytest.mark.parametrize("drop_id", [lambda d: d - 1,
                                     lambda d: -2**63 + d - 1 if d % 2 else 2**63 - 1 - d],
                         ids=["from-minus-one", "int64-edges"])
def test_block_reports_equal_the_per_drop_loops_on_reordered_and_repeated_rows(
        exports, tmp_path, label, drop_id):
    rng = random.Random(label)
    pdp, pas = tmp_path / "pdp.csv", tmp_path / "pas.csv"
    rewrite_rows(exports / label / "pdp.csv", pdp, rng, drop_id)
    # a repeated PAS row deposits its power into its cell twice
    rewrite_rows(exports / label / "pas.csv", pas, rng, drop_id, duplicate=0.3)
    for mti, slt in ((2.5, -3.0), (6.0, -10.0), (25.0, -30.0)):
        assert (report_text(cli._analyze_pdp(pdp, mti), cli._analyze_pas(pas, slt))
                == report_text(per_drop_pdp(pdp, mti), per_spectrum_pas(pas, slt)))


def test_an_export_is_read_in_one_pass_without_the_row_walk(exports, monkeypatch):
    def refuse(*args):
        raise AssertionError("the line walk ran on an exported file")
    monkeypatch.setattr(cli, "_first_bad_line", refuse)
    for label in SCENARIO_LABELS:
        cli._analyze_pdp(exports / label / "pdp.csv", 6.0)
        cli._analyze_pas(exports / label / "pas.csv", -10.0)


# --- the block reader against the grammar --------------------------------------

# text of one field: values the grammar takes, and text it refuses,
# some of which Python's int or float takes (digit separators, non-ASCII
# digits, a float as an int, numbers past int64 or float64, whitespace,
# NUL and other controls)
TRICKY = ["1_0", "٣", "１２", "5.0", "1e3", "nan", "+nan", "-inf", "Infinity", "1e500",
          "-1e999", "1e-400", "0x1p3", "", " ", " 7", "7 ", "\t7", "7\x0b", "+3", "-0", "-0.0",
          "\x1c", "\xa0", "\x00", "2\x00", "9223372036854775807", "9223372036854775808",
          "-9223372036854775808", "-9223372036854775809", "123456789012345678901234567890",
          "1_0.5", "\u2028", "7\x85"]
INTS = st.one_of(st.sampled_from(TRICKY), st.integers().map(str))
FLOATS = st.one_of(st.sampled_from(TRICKY), st.floats().map(str), st.floats().map(repr))
SIDES = st.one_of(st.sampled_from(["abcdefg", "abcdefgh", "abcdefghi", "a long side", " aoa",
                                   "aoa ", "\taoa", "aoa\x1c", "a\x00", "\x00", "a\x00b"]),
                  st.text(st.characters(blacklist_characters=",\n\r"), max_size=10))
FIELDS = {int: INTS, float: FLOATS, str: SIDES}

SCHEMAS = {"pdp": (cli.PDP_COLUMNS, {}), "pas": (cli.PAS_COLUMNS, cli.PAS_BOUNDS)}


@st.composite
def csv_files(draw):
    """(schema name, file text): a header with the schema's columns, in
    any order and among other columns, then valid rows with a few edits.

    An edit puts tricky text into a field of one type, or an el_deg
    field, takes a field from a row or adds one, blanks a line or fills
    it with spaces, or ends the file in a blank line.
    """
    schema = draw(st.sampled_from(sorted(SCHEMAS)))
    columns, _ = SCHEMAS[schema]
    names = draw(st.permutations(list(columns) + ["extra"] * draw(st.integers(0, 2))))
    extra = st.sampled_from(["1", "x", "", "٣", " "])
    plain = {int: st.integers(-400, 400).map(str), float: st.floats(0.0, 1e3).map(repr),
             str: st.sampled_from(["aoa", "aod"]),
             "el_deg": st.integers(-90, 90).map(str), None: extra}
    rows = [[draw(plain["el_deg" if name == "el_deg" else columns.get(name)]) for name in names]
            for _ in range(draw(st.integers(0, 5)))]
    end = ""
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        edit = draw(st.sampled_from([int, float, str, "el_deg", "pop", "append", "blank",
                                     "end"]))
        if len(row) != len(names):  # edited already
            continue
        if edit in (int, float, str, "el_deg"):
            picks = [name for name in names if edit in (name, columns.get(name))] or names
            i = names.index(draw(st.sampled_from(picks)))
            kind = columns.get(names[i])
            row[i] = draw(st.one_of(st.integers(-200, 200).map(str), INTS)
                          if names[i] == "el_deg" else FIELDS[kind] if kind else extra)
        elif edit == "pop":
            row.pop()
        elif edit == "append":
            row.append("1")
        elif edit == "blank":
            row[:] = [draw(st.sampled_from(["", "   "]))]
        else:
            end = draw(st.sampled_from(["\n", " "]))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    lines = [",".join(names), *(",".join(row) for row in rows)]
    final = draw(st.sampled_from(["", newline]))
    return schema, newline.join(lines) + final + end.replace("\n", newline)


def outcome(read):
    try:
        return "ok", read()
    except ValueError as exc:
        return "error", str(exc)


def exact(values) -> list:
    """Values compared bit for bit: a float by its hex text, so -0.0 and
    0.0 differ, anything else with its type."""
    return [(type(v).__name__, v.hex() if isinstance(v, float) else v) for v in values]


# --- the grammar, as the `cli._read_csv` docstring states it ------------------

WHAT = {int: "an int", float: "a finite float", str: "aoa or aod"}


def grammar_value(kind, text: str):
    """The value of a field of `kind` by the grammar, or None."""
    if kind is str:
        return text if text in ("aoa", "aod") else None
    number = text.strip()  # whitespace around a number
    if kind is int:
        value = int(number) if re.fullmatch("[+-]?[0-9]+", number) else None
        return value if value is not None and -2**63 <= value < 2**63 else None
    if not number.isascii() or "_" in number:
        return None
    try:
        value = float(number)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def grammar_read(path: Path, text: str, columns: dict, bounds: dict) -> list:
    """The values of `columns` in a file holding `text`, one list per
    column, or the ValueError naming the first line that breaks the
    grammar."""
    lines = list(io.StringIO(text, newline=None))  # universal newlines, as a file reads
    header = (lines[0] if lines else "").strip().split(",")
    missing = [name for name in columns if name not in header]
    if missing:
        raise ValueError(f"{path}:1: header lacks column(s) {', '.join(missing)}")
    values = {name: [] for name in columns}
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.removesuffix("\n").split(",")
        if len(fields) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(fields)}")
        row = {}
        for name, kind in columns.items():
            field = fields[header.index(name)]
            row[name] = grammar_value(kind, field)
            if row[name] is None:
                raise ValueError(f"{path}:{lineno}: column {name}: {field!r} is not {WHAT[kind]}")
        for name, (low, high) in bounds.items():
            if not low <= row[name] <= high:
                raise ValueError(f"{path}:{lineno}: {name} {row[name]} outside {low}..{high}")
        for name in columns:
            values[name].append(row[name])
    return list(values.values())


PAS = "drop_id,side,az_deg,el_deg,power_mw\n0,aod,1,5,1e-06\n"
PDP = "drop_id,cluster_idx,excess_delay_ns,power_mw\n0,1,0,1e-06\n"


@given(case=csv_files())
@example(case=("pdp", PDP + "0,1,nan,1e-06\n"))
@example(case=("pdp", PDP + "0,1,1e500,1e-06\n"))
@example(case=("pas", PAS + "1_0,aoa,1,5,1e-06\n"))
@example(case=("pas", PAS + "0,aoa,٣,5,1e-06\n"))
@example(case=("pas", PAS + "0,aoa,1,5.0,1e-06\n"))
@example(case=("pas", PAS + " 0,aoa,\t1 ,5, 1e-06 \n"))
@example(case=("pdp", PDP + "\n0,1,2,1e-06\n"))
@example(case=("pdp", PDP + "0,1,2,1e-06\n\n"))
@example(case=("pdp", PDP.replace("\n", "\r\n") + "0,1,2,1e-06\r\n"))
@example(case=("pdp", PDP.replace("\n", "\r") + "0,1,2,1e-06\r"))
@example(case=("pdp", PDP[:PDP.index("\n") + 1]))
@example(case=("pdp", PDP[:PDP.index("\n")]))
@example(case=("pdp", PDP[:PDP.index("\n") + 1] + "\n\n"))
@example(case=("pas", PAS + "0,aoa,1,5\n"))
@example(case=("pas", PAS + "0,aoa,1,5,1e-06,1\n"))
@example(case=("pas", PAS + "0,a long side,1,5,1e-06\n"))
@example(case=("pas", PAS + "0,aoa\x00,1,5,1e-06\n"))
@example(case=("pas", PAS + "0,aoax,1,5,1e-06\n"))
@example(case=("pas", "drop_id,az_deg,el_deg,power_mw,side\n0,1,5,1e-06,aoa \n"))
@example(case=("pas", "drop_id,extra,side,az_deg,el_deg,power_mw\n0,\x00,aoa,1,5,1e-06\n"))
@example(case=("pdp", PDP + "9223372036854775808,1,2,1e-06\n"))
@example(case=("pdp", PDP + "-9223372036854775808,1,2,1e-06\n9223372036854775807,1,2,0\n"))
@example(case=("pas", PAS + "0,aoa,1,-91,1e-06\n"))
@example(case=("pas", PAS + "0,aoa,1,100,1e-06\n0,aoa,1,5,1e-06\n0,aoa,1,5,x\n"))
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_block_reader_reads_by_the_grammar(tmp_path_factory, case):
    schema, text = case
    columns, bounds = SCHEMAS[schema]
    path = tmp_path_factory.getbasetemp() / f"grammar-{schema}.csv"
    path.write_bytes(text.encode("utf-8"))
    want = outcome(lambda: grammar_read(path, text, columns, bounds))
    block = outcome(lambda: cli._read_csv(path, columns, bounds))
    assert block[0] == want[0], (block, want)
    if want[0] == "error":
        assert block[1] == want[1]
        return
    assert len(block[1]) == len(columns)
    for array, values in zip(block[1], want[1]):
        assert exact(array.tolist()) == exact(values)


@given(case=csv_files())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_an_error_names_the_line_where_the_file_goes_bad(tmp_path_factory, case):
    # whatever the grammar: the lines before line N read, and line N
    # alone after them is refused with the same message
    schema, text = case
    columns, bounds = SCHEMAS[schema]
    path = tmp_path_factory.getbasetemp() / f"cut-{schema}.csv"

    def read(lines: list):
        path.write_bytes("".join(lines).encode("utf-8"))
        return outcome(lambda: cli._read_csv(path, columns, bounds))

    lines = list(io.StringIO(text, newline=""))  # each with its own line end
    result = read(lines)
    if result[0] == "ok":
        return
    lineno = int(re.match(f"{re.escape(str(path))}:([0-9]+): ", result[1])[1])
    assert read(lines[:lineno]) == result
    if lineno > 1:
        assert read(lines[:lineno - 1])[0] == "ok"


@pytest.mark.parametrize("lines, message", [
    # out of bounds on line 3 before a bad float on line 5
    (["0,aoa,1,5,1e-06", "0,aoa,2,100,1e-06", "0,aoa,3,5,1e-06", "0,aoa,4,5,x"],
     "{path}:3: el_deg 100 outside -90..90"),
    # a bad float on line 3 before a short row on line 4 and a blank line 5
    (["0,aoa,1,5,1e-06", "0,aoa,2,5,inf", "0,aoa,3,5", "", "0,aoa,4,5,1e-06"],
     "{path}:3: column power_mw: 'inf' is not a finite float"),
    # a blank line 3 before an int np.loadtxt refuses on line 4
    (["0,aoa,1,5,1e-06", "", "0,aoa,2.5,5,1e-06"], "{path}:3: expected 5 fields, got 1"),
    # an int with a digit separator on line 2, then a bad one on line 3
    (["1_0,aoa,1,5,1e-06", "0,aoa,٣,5.0,1e-06"], "{path}:2: column drop_id: '1_0' is not an int"),
    # a side that is no side on line 3 before a bad int on line 4
    (["0,aod,1,5,1e-06", "0,AOA,1,5,1e-06", "0,aoa,x,5,1e-06"],
     "{path}:3: column side: 'AOA' is not aoa or aod"),
])
def test_the_first_bad_line_in_file_order_names_itself(tmp_path, lines, message):
    path = tmp_path / "pas.csv"
    path.write_text("\n".join(["drop_id,side,az_deg,el_deg,power_mw", *lines]) + "\n")
    with pytest.raises(ValueError) as exc:
        cli._read_csv(path, cli.PAS_COLUMNS, cli.PAS_BOUNDS)
    assert str(exc.value) == message.format(path=path)


@pytest.mark.parametrize("header, row, side", [
    # whitespace or a control at either end of a side
    ("side,drop_id,az_deg,el_deg,power_mw", " aoa,0,1,5,1e-06", " aoa"),
    ("drop_id,az_deg,el_deg,power_mw,side", "0,1,5,1e-06,aoa\t", "aoa\t"),
    ("drop_id,az_deg,el_deg,power_mw,side", "0,1,5,1e-06,aoa\x1c", "aoa\x1c"),
    ("drop_id,side,az_deg,el_deg,power_mw", "0, aoa ,1,5,1e-06", " aoa "),
    # longer than a side, and a side with a trailing NUL
    ("drop_id,side,az_deg,el_deg,power_mw", "0,a long side,1,5,1e-06", "a long side"),
    ("drop_id,side,az_deg,el_deg,power_mw", "0,aoa\x00,1,5,1e-06", "aoa\x00"),
])
def test_a_side_other_than_aoa_or_aod_is_refused_on_its_line(tmp_path, header, row, side):
    path = tmp_path / "pas.csv"
    good = ",".join({"drop_id": "0", "side": "aod", "az_deg": "1", "el_deg": "5",
                     "power_mw": "1e-06"}[name] for name in header.split(","))
    path.write_text(f"{header}\n{good}\n{row}\n")
    with pytest.raises(ValueError) as exc:
        cli._read_csv(path, cli.PAS_COLUMNS, cli.PAS_BOUNDS)
    assert str(exc.value) == f"{path}:3: column side: {side!r} is not aoa or aod"


@pytest.mark.parametrize("row, message", [
    ("1_0,aoa,1,5,1e-06", "column drop_id: '1_0' is not an int"),
    ("0,aoa,٣,5,1e-06", "column az_deg: '٣' is not an int"),
    ("0,aoa,1,１２,1e-06", "column el_deg: '１２' is not an int"),
    (f"{2**70},aoa,1,5,1e-06", f"column drop_id: '{2**70}' is not an int"),
    (f"{2**63},aoa,1,5,1e-06", f"column drop_id: '{2**63}' is not an int"),
    (f"{-2**63 - 1},aoa,1,5,1e-06", f"column drop_id: '{-2**63 - 1}' is not an int"),
    ("0,aoa,1,5,2_5", "column power_mw: '2_5' is not a finite float"),
    ("0,aoa,1,5,٣", "column power_mw: '٣' is not a finite float"),
])
def test_text_python_reads_as_a_number_and_loadtxt_does_not_is_refused_on_its_line(
        tmp_path, row, message):
    path = tmp_path / "pas.csv"
    path.write_text(f"drop_id,side,az_deg,el_deg,power_mw\n0,aod,1,5,1e-06\n{row}\n")
    with pytest.raises(ValueError) as exc:
        cli._read_csv(path, cli.PAS_COLUMNS, cli.PAS_BOUNDS)
    assert str(exc.value) == f"{path}:3: {message}"


def test_a_bad_line_before_a_byte_that_is_not_utf8_names_itself(tmp_path):
    path = tmp_path / "pas.csv"
    path.write_bytes(b"drop_id,side,az_deg,el_deg,power_mw\n0,aod,1,5,1e-06\n"
                     b"0,aod,1,5,nan\n0,aod,1,5,\xff\n")
    with pytest.raises(ValueError) as exc:
        cli._read_csv(path, cli.PAS_COLUMNS, cli.PAS_BOUNDS)
    assert str(exc.value) == f"{path}:3: column power_mw: 'nan' is not a finite float"
