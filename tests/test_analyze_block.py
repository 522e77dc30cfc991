"""`analyze` reads and analyses each file as one block.

Two references pin it: the row walk `cli._csv_rows`, whose rules decide
what an exported CSV may hold and which error names a bad one, and the
per-drop and per-(drop, side) loops `analyze` ran before, kept here.
"""

import contextlib
import io
import json
import random
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

def per_drop_pdp(path: Path, mti_ns: float) -> dict:
    taps = defaultdict(list)
    for _, (drop_id, delay, _power) in cli._csv_rows(path, cli.PDP_COLUMNS, {}):
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
    for lineno, (drop_id, side, az, el, power) in cli._csv_rows(path, cli.PAS_COLUMNS, {}):
        if not -90 <= el <= 90:
            raise ValueError(f"{path}:{lineno}: el_deg {el} outside -90..90")
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
@pytest.mark.parametrize("drop_id", [lambda d: d - 1, lambda d: (1 - d) * (2**64 + 1)],
                         ids=["from-minus-one", "beyond-int64"])
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
        raise AssertionError("the row walk ran on an exported file")
    monkeypatch.setattr(cli, "_csv_rows", refuse)
    for label in SCENARIO_LABELS:
        cli._analyze_pdp(exports / label / "pdp.csv", 6.0)
        cli._analyze_pas(exports / label / "pas.csv", -10.0)


# --- the block reader against the row rules -----------------------------------

# text of one field: values each reader takes, and text they may read
# apart (digit separators, non-ASCII digits, a float as an int, numbers
# past int64 or float64, whitespace, NUL and other controls)
TRICKY = ["1_0", "٣", "１２", "5.0", "1e3", "nan", "+nan", "-inf", "Infinity", "1e500",
          "-1e999", "1e-400", "0x1p3", "", " ", " 7", "7 ", "\t7", "7\x0b", "+3", "-0", "-0.0",
          "\x1c", "\xa0", "\x00", "2\x00", "9223372036854775807", "9223372036854775808",
          "-9223372036854775809", "123456789012345678901234567890"]
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
@example(case=("pas", PAS + "0,aoa,1,5\n"))
@example(case=("pas", PAS + "0,aoa,1,5,1e-06,1\n"))
@example(case=("pas", PAS + "0,a long side,1,5,1e-06\n"))
@example(case=("pas", PAS + "0,aoa\x00,1,5,1e-06\n"))
@example(case=("pas", "drop_id,az_deg,el_deg,power_mw,side\n0,1,5,1e-06,aoa \n"))
@example(case=("pdp", PDP + "9223372036854775808,1,2,1e-06\n"))
@example(case=("pas", PAS + "0,aoa,1,-91,1e-06\n"))
@example(case=("pas", PAS + "0,aoa,1,100,1e-06\n0,aoa,1,5,1e-06\n0,aoa,1,5,x\n"))
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_block_reader_reads_what_the_row_walk_reads(tmp_path_factory, case):
    schema, text = case
    columns, bounds = SCHEMAS[schema]
    path = tmp_path_factory.getbasetemp() / f"differential-{schema}.csv"
    path.write_bytes(text.encode("utf-8"))
    rows = outcome(lambda: [row for _, row in cli._csv_rows(path, columns, bounds)])
    block = outcome(lambda: cli._read_csv(path, columns, bounds))
    assert block[0] == rows[0], (block, rows)
    if rows[0] == "error":
        assert block[1] == rows[1]
        return
    assert len(block[1]) == len(columns)
    for i, array in enumerate(block[1]):
        assert exact(array.tolist()) == exact([row[i] for row in rows[1]])


@pytest.mark.parametrize("lines, message", [
    # out of bounds on line 3 before a bad float on line 5
    (["0,aoa,1,5,1e-06", "0,aoa,2,100,1e-06", "0,aoa,3,5,1e-06", "0,aoa,4,5,x"],
     "{path}:3: el_deg 100 outside -90..90"),
    # a bad float on line 3 before a short row on line 4 and a blank line 5
    (["0,aoa,1,5,1e-06", "0,aoa,2,5,inf", "0,aoa,3,5", "", "0,aoa,4,5,1e-06"],
     "{path}:3: column power_mw: 'inf' is not a finite float"),
    # a blank line 3 before an int the row rules refuse on line 4
    (["0,aoa,1,5,1e-06", "", "0,aoa,2.5,5,1e-06"], "{path}:3: expected 5 fields, got 1"),
    # an int only the row walk takes on line 2, then a bad one on line 3
    (["1_0,aoa,1,5,1e-06", "0,aoa,٣,5.0,1e-06"], "{path}:3: column el_deg: '5.0' is not an int"),
])
def test_the_first_bad_line_in_file_order_names_itself(tmp_path, lines, message):
    path = tmp_path / "pas.csv"
    path.write_text("\n".join(["drop_id,side,az_deg,el_deg,power_mw", *lines]) + "\n")
    with pytest.raises(ValueError) as exc:
        cli._read_csv(path, cli.PAS_COLUMNS, cli.PAS_BOUNDS)
    assert str(exc.value) == message.format(path=path)


@pytest.mark.parametrize("header, row, side", [
    # the row walk strips each line's ends, so a str first or last in it
    ("side,drop_id,az_deg,el_deg,power_mw", " aoa,0,1,5,1e-06", "aoa"),
    ("drop_id,az_deg,el_deg,power_mw,side", "0,1,5,1e-06,aoa\t", "aoa"),
    ("drop_id,az_deg,el_deg,power_mw,side", "0,1,5,1e-06,aoa\x1c", "aoa"),
    ("drop_id,side,az_deg,el_deg,power_mw", "0, aoa ,1,5,1e-06", " aoa "),
    # longer than the block's str field, and with a trailing NUL
    ("drop_id,side,az_deg,el_deg,power_mw", "0,a long side,1,5,1e-06", "a long side"),
    ("drop_id,side,az_deg,el_deg,power_mw", "0,aoa\x00,1,5,1e-06", "aoa\x00"),
])
def test_a_side_reads_as_the_row_walk_reads_it(tmp_path, header, row, side):
    path = tmp_path / "pas.csv"
    path.write_text(f"{header}\n{row}\n")
    assert [values[1] for _, values in cli._csv_rows(path, cli.PAS_COLUMNS, {})] == [side]
    assert cli._read_csv(path, cli.PAS_COLUMNS, cli.PAS_BOUNDS)[1].tolist() == [side]


def test_text_only_the_row_walk_takes_reads_as_it_does(tmp_path):
    path = tmp_path / "pas.csv"
    path.write_text("drop_id,side,az_deg,el_deg,power_mw\n"
                    "1_0,aoa,٣,5,1e-06\n"
                    f"{2**70},a long side,-1,-90,2.5\n")
    drop_id, side, az, el, power = cli._read_csv(path, cli.PAS_COLUMNS, cli.PAS_BOUNDS)
    assert drop_id.tolist() == [10, 2**70] and side.tolist() == ["aoa", "a long side"]
    assert az.tolist() == [3, -1] and el.tolist() == [5, -90] and power.tolist() == [1e-06, 2.5]
    report = cli._analyze_pas(path, -10.0)["lobe_counts"]
    assert sorted(report) == ["a long side", "aoa"]
