"""The command line, and the names the benchmark in perfbench/ looks up.

The benchmark drives tcslsim from outside: it replaces `cli.run_campaign`
and `cli.reproduce_report` to capture their results, calls
`emit_outputs` on the pre-built drop blocks of `generate_drops` and
wraps the functions and methods named below to time each layer. A name
it cannot find turns its metrics absent rather than failing, so these
tests pin the names and call shapes.
Functions one module imports from another are wrapped where they are
imported, so a call across modules is timed as its own span.
"""

import contextlib
import dataclasses
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tcslsim as t
from tcslsim import analysis, campaign, cli, generate, pathloss, stats
from tcslsim.campaign import emit_outputs, run_campaign
from tcslsim.generate import generate_drop, generate_drops
from tcslsim.randcore import RandomStream, exponential


def test_generate_has_no_pdp_bin_flag():
    with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
        cli.build_parser().parse_args(["generate", "--scenario", "28GHz-LOS",
                                       "--pdp-bin-ns", "0.5"])


def test_commands_call_campaign_entry_points_through_the_cli_module(tmp_path, monkeypatch):
    captured = {}
    for name in ("run_campaign", "reproduce_report"):
        def capture(*args, _original=getattr(cli, name), _name=name, **kwargs):
            captured[_name] = result = _original(*args, **kwargs)
            return result
        monkeypatch.setattr(cli, name, capture)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["generate", "--scenario", "140GHz-LOS", "--drops", "3",
                         "--format", "summary", "--out-dir", str(tmp_path)]) == 0
        cli.main(["reproduce", "--drops", "3", "--seed", "1", "--workers", "1"])
    assert len([dataclasses.astuple(r) for r in captured["run_campaign"].records]) == 3
    assert len(captured["reproduce_report"].to_dict()["rows"]) == 4


def test_emit_outputs_takes_drops_and_keyword_destination(tmp_path):
    config = t.validate_config(t.SimConfig(scenario=t.Scenario.parse("28GHz-NLOS"),
                                           distance_m=(5.0, 45.0), num_drops=3, master_seed=1))
    result = run_campaign(config)
    drops = list(generate_drops(config))
    for fmt in ("jsonl", "pdp", "pas", "summary", "cdf"):
        paths = emit_outputs(result, drops, out_dir=tmp_path / fmt, outputs=(fmt,))
        assert paths[fmt].stat().st_size > 0


def test_drop_and_stream_names_used_for_per_layer_counts():
    config = t.SimConfig(scenario=t.Scenario.parse("28GHz-LOS"), distance_m=(5.0, 45.0),
                         master_seed=7)
    assert config.distance_range() == (5.0, 45.0)
    drop = generate_drop(config, 3)  # a block of one
    assert len(drop) == 1 and 1 <= drop.num_clusters[0] <= drop.num_subpaths[0]
    for side in ("aod", "aoa"):
        assert np.diff(drop.lobe_offsets[side])[0] >= 1
    stream = RandomStream(7, 3, "x")
    assert 0.0 <= stream.uniform() < 1.0
    assert stream.uniform(4).shape == (4,)
    assert stream.sample(exponential, 1.0, size=2).shape == (2,)


@pytest.mark.parametrize("module, name", [
    ("cli", "main"), ("cli", "_analyze_pdp"), ("cli", "_analyze_pas"),
    ("campaign", "_record_chunk"), ("generate", "generate_drop"), ("generate", "generate_batch"),
])
def test_wrapped_functions_exist(module, name):
    assert callable(getattr(importlib.import_module(f"tcslsim.{module}"), name))


def test_campaign_generates_through_generate_batch_imported_from_generate():
    assert campaign.generate_batch is generate.generate_batch


def test_cross_module_calls_use_the_names_the_benchmark_wraps():
    # a per-layer metric is absent when its module no longer binds the name
    assert campaign.drop_metrics is stats.drop_metrics
    assert campaign.summarize is stats.summarize
    assert generate.link_budget is pathloss.link_budget
    assert cli.partition_time_clusters is analysis.partition_time_clusters
    assert cli.fit_poisson_shifted is analysis.fit_poisson_shifted
    assert cli.compare_distributions is analysis.compare_distributions
    # analysis.clusters_per_drop reads num_clusters off the partition
    assert cli.partition_time_clusters(np.array([0.0, 1.0, 20.0]), 6.0).num_clusters == 2


def test_pas_paths_call_across_modules_at_the_names_the_benchmark_wraps():
    # stats.build_pas_us_per_grid and analysis.lobes_us_per_grid/lobes_per_grid
    assert campaign.build_pas is stats.build_pas
    assert cli.extract_spatial_lobes is analysis.extract_spatial_lobes
    assert cli.PowerAngularSpectrum is stats.PowerAngularSpectrum
    cell = cli.PowerAngularSpectrum.cell_index(5, 0)
    pas = cli.PowerAngularSpectrum(side="aoa", cells=np.array([cell]), power_mw=np.array([2.0]))
    lobes = cli.extract_spatial_lobes(pas)
    assert lobes.num_lobes == 1 and lobes.lobes[0].cells.tolist() == [[5, 0]]


def test_importing_the_cli_loads_no_scipy_stats_optimize_or_ndimage(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["generate", "--scenario", "28GHz-NLOS", "--drops", "20",
                         "--format", "pdp,pas", "--out-dir", str(tmp_path)]) == 0
    src = str(Path(t.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    report = tmp_path / "report.json"
    code = ("import sys, tcslsim.cli\n"
            "def loaded():\n"
            "    print(sorted(m for m in sys.modules if m.split('.')[:2]"
            " in (['scipy', 'stats'], ['scipy', 'optimize'], ['scipy', 'ndimage'],"
            " ['scipy', 'sparse'])))\n"
            "loaded()\n"
            f"assert tcslsim.cli.main(['analyze', '--pdp', {str(tmp_path / 'pdp.csv')!r},"
            f" '--pas', {str(tmp_path / 'pas.csv')!r}, '--out', {str(report)!r}]) == 0\n"
            "loaded()\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines() == ["[]", f"wrote report: {report}", "[]"]
    # both fits ran: the cluster-count fit and the delay-family comparison
    pdp = json.loads(report.read_text())["pdp"]
    assert pdp["num_clusters"]["family"] == "poisson_shifted"
    assert {r["family"] for r in pdp["intra_cluster_delay_ns"]} == {"exponential", "lognormal"}


def test_traced_commands_report_every_layer_metric(tmp_path):
    # the benchmark's traced run wraps every layer boundary and JSON-dumps
    # the spans; a name no longer bound drops its metrics (None here), and
    # an observed value that is not a Python number fails the dump
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["generate", "--scenario", "28GHz-NLOS", "--distance", "5:45",
                         "--drops", "20", "--format", "pdp,pas", "--out-dir", str(tmp_path)]) == 0
    rows = sum(len(p.read_text().splitlines()) - 1
               for p in (tmp_path / "pdp.csv", tmp_path / "pas.csv"))
    root = Path(t.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(root / "src"), str(root / "perfbench"), os.environ.get("PYTHONPATH")))))
    code = f"""
import contextlib, io, json
import layers, spans
from tcslsim import cli
recorder = spans.Recorder()
layers.install(recorder)
for argv, drops, rows in (
        (["analyze", "--pdp", {str(tmp_path / "pdp.csv")!r}, "--pas", {str(tmp_path / "pas.csv")!r},
          "--out", {str(tmp_path / "report.json")!r}], 20, {rows}),
        (["reproduce", "--drops", "5", "--seed", "1"], 20, 0)):
    recorder.spans = []
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    json.dumps(recorder.spans, allow_nan=False)
    metrics = layers.command_metrics([recorder.spans], recorder.installed, drops, rows)
    json.dumps(metrics, allow_nan=False)
    print(argv[0], sorted(name for name, value in metrics.items() if value is None))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["analyze []", "reproduce []"]


@pytest.mark.parametrize("flag, value", [
    ("--mti", "nan"), ("--mti", "inf"), ("--slt-db", "nan"), ("--slt-db", "inf"),
    ("--slt-db", "-inf"),
])
def test_analyze_rejects_a_non_finite_flag(tmp_path, flag, value):
    path = tmp_path / "in.csv"
    path.write_text("\n".join(ANALYZE_INPUTS["--pas"]) + "\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["analyze", "--pas", str(path), f"{flag}={value}"])
    assert rc == cli.EXIT_VALIDATION
    assert f"error: {flag} must be finite, got {float(value)}" in err.getvalue()
    assert out.getvalue() == ""


@pytest.mark.parametrize("el_deg", [-100, -91, 91, 180])
def test_analyze_rejects_pas_elevations_outside_the_grid(tmp_path, el_deg):
    path = tmp_path / "pas.csv"
    path.write_text("drop_id,side,az_deg,el_deg,power_mw\n"
                    "0,aoa,10,5,1e-06\n"
                    f"0,aoa,11,{el_deg},2e-06\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["analyze", "--pas", str(path)])
    assert rc == cli.EXIT_VALIDATION
    assert f"el_deg {el_deg} " in err.getvalue()
    assert f"{path}:3:" in err.getvalue()


@pytest.mark.parametrize("bad_row", ["", "0,aoa,11,5"])
def test_analyze_rejects_pas_rows_with_missing_fields(tmp_path, bad_row):
    path = tmp_path / "pas.csv"
    path.write_text(f"drop_id,side,az_deg,el_deg,power_mw\n0,aoa,10,5,1e-06\n{bad_row}\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["analyze", "--pas", str(path)])
    assert rc == cli.EXIT_VALIDATION
    assert f"{path}:3: expected 5 fields" in err.getvalue()


@pytest.mark.parametrize("cls, method", [
    (RandomStream, "__init__"), (RandomStream, "uniform"), (RandomStream, "sample"),
])
def test_wrapped_methods_are_defined_on_their_class(cls, method):
    assert method in vars(cls)


# a valid header and row of each exported CSV that `analyze` reads
ANALYZE_INPUTS = {
    "--pdp": ("drop_id,cluster_idx,subpath_idx,excess_delay_ns,absolute_delay_ns,power_mw,"
              "power_dbm", "0,1,1,0,33.4,1e-06,-60"),
    "--pas": ("drop_id,side,az_deg,el_deg,power_mw", "0,aoa,10,5,1e-06"),
}


def _analyze(flag, path):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["analyze", flag, str(path)])
    return rc, err.getvalue()


@pytest.mark.parametrize("flag, column", [("--pdp", "excess_delay_ns"), ("--pas", "el_deg")])
def test_analyze_rejects_a_header_without_a_required_column(tmp_path, flag, column):
    header, row = ANALYZE_INPUTS[flag]
    names = header.split(",")
    keep = [i for i, name in enumerate(names) if name != column]
    path = tmp_path / "in.csv"
    path.write_text(",".join(names[i] for i in keep) + "\n"
                    + ",".join(row.split(",")[i] for i in keep) + "\n")
    rc, err = _analyze(flag, path)
    assert rc == cli.EXIT_VALIDATION
    assert f"{path}:1: header lacks column(s) {column}" in err


@pytest.mark.parametrize("flag", sorted(ANALYZE_INPUTS))
def test_analyze_names_the_line_of_a_blank_trailing_row(tmp_path, flag):
    header, row = ANALYZE_INPUTS[flag]
    path = tmp_path / "in.csv"
    path.write_text(f"{header}\n{row}\n\n")
    rc, err = _analyze(flag, path)
    assert rc == cli.EXIT_VALIDATION
    assert f"{path}:3: expected {header.count(',') + 1} fields, got 1" in err


@pytest.mark.parametrize("flag, column, value", [
    ("--pdp", "drop_id", "q"), ("--pdp", "power_mw", "nan"),
    ("--pas", "power_mw", "x"), ("--pas", "power_mw", "nan"),
])
def test_analyze_names_the_line_and_column_of_a_bad_value(tmp_path, flag, column, value):
    header, row = ANALYZE_INPUTS[flag]
    fields = row.split(",")
    fields[header.split(",").index(column)] = value
    path = tmp_path / "in.csv"
    path.write_text(f"{header}\n{row}\n{','.join(fields)}\n")
    rc, err = _analyze(flag, path)
    assert rc == cli.EXIT_VALIDATION
    what = "an int" if column == "drop_id" else "a finite float"
    assert f"{path}:3: column {column}: {value!r} is not {what}" in err


@pytest.mark.filterwarnings("error")  # as under python -W error
def test_analyze_refuses_a_cell_whose_power_overflows_without_a_warning(tmp_path):
    # two 1e308 deposits into one cell sum to inf
    header, row = ANALYZE_INPUTS["--pas"]
    path = tmp_path / "pas.csv"
    path.write_text(f"{header}\n{row}\n0,aoa,11,5,1e308\n0,aoa,11,5,1e308\n")
    rc, err = _analyze("--pas", path)
    assert rc == cli.EXIT_VALIDATION
    assert err == f"error: {path}: drop_id 0, side aoa: spectrum power must be finite\n"


@pytest.mark.parametrize("power, message", [
    ("0.0", "spectrum has no power"), ("1e308", "spectrum power must be finite")])
def test_analyze_names_the_file_side_and_drop_of_a_refused_spectrum(tmp_path, power, message):
    # drop 7's aoa spectrum holds no power, or a cell of two 1e308
    # deposits; its aod spectrum and drop 3's spectra are sound
    path = tmp_path / "pas.csv"
    path.write_text("drop_id,side,az_deg,el_deg,power_mw\n"
                    "7,aod,10,5,1e-06\n3,aoa,10,5,1e-06\n"
                    f"7,aoa,11,5,{power}\n7,aoa,11,5,{power}\n3,aod,10,5,1e-06\n")
    rc, err = _analyze("--pas", path)
    assert rc == cli.EXIT_VALIDATION
    assert err == f"error: {path}: drop_id 7, side aoa: {message}\n"


@pytest.mark.filterwarnings("error")  # as under python -W error
@pytest.mark.parametrize("slt_db", ["3083", "4000", "1e308"])
def test_analyze_keeps_no_cell_under_a_threshold_above_every_peak(tmp_path, slt_db):
    # 10 ** (slt_db / 10) overflows a float from about 3,083 dB on, and
    # the threshold of a 1e300 mW peak from about 83 dB on
    header, row = ANALYZE_INPUTS["--pas"]
    path = tmp_path / "pas.csv"
    path.write_text(f"{header}\n{row}\n1,aod,10,5,1e300\n")
    reports = []
    for value in (slt_db, "3000"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
            assert cli.main(["analyze", "--pas", str(path), "--slt-db", value]) == 0
        assert err.getvalue() == ""
        reports.append(json.loads(out.getvalue())["pas"])
    assert reports[0]["slt_db"] == float(slt_db)
    assert reports[0]["lobe_counts"] == reports[1]["lobe_counts"] == {
        side: {"histogram": {"0": 1}, "mean": 0.0, "num_drops": 1} for side in ("aod", "aoa")}


@pytest.mark.parametrize("tx_power_dbm", ["4000", "-4000", "1000.5", "-1e308"])
def test_generate_refuses_a_tx_power_outside_its_range(tmp_path, tx_power_dbm):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["generate", "--scenario", "28GHz-LOS", f"--tx-power-dbm={tx_power_dbm}",
                       "--format", "pdp,pas,summary", "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_VALIDATION
    assert err.getvalue() == (f"error: tx_power_dbm {float(tx_power_dbm)!r} outside "
                              "[-1000.0, 1000.0] dBm\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error")  # as under python -W error
@pytest.mark.parametrize("tx_power_dbm", ["-1000", "1000"])
@pytest.mark.parametrize("scenario", ["28GHz-NLOS", "140GHz-LOS"])
def test_generate_at_the_bounds_of_the_tx_power_range_warns_of_nothing(tmp_path, tx_power_dbm,
                                                                       scenario):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main(["generate", "--scenario", scenario, "--distance", "1:50",
                         "--drops", "300", "--tx-power-dbm", tx_power_dbm,
                         "--format", "jsonl,pdp,pas,summary", "--out-dir", str(tmp_path)]) == 0
    assert err.getvalue() == ""
    _, _, power, _ = cli._read_csv(tmp_path / "pdp.csv", {
        "drop_id": int, "excess_delay_ns": float, "power_mw": float, "power_dbm": float}, {})
    assert (power > 0).all()  # and every column finite, or _read_csv refuses it
    rows = (tmp_path / "pas.csv").read_text().splitlines()[1:]
    assert {int(row.split(",")[0]) for row in rows} == set(range(300))


@pytest.mark.parametrize("power", ["-1.0", "-1e-300", "-inf"])
def test_analyze_refuses_a_negative_pas_power(tmp_path, power):
    header, row = ANALYZE_INPUTS["--pas"]
    path = tmp_path / "pas.csv"
    path.write_text(f"{header}\n{row}\n0,aoa,11,5,{power}\n")
    rc, err = _analyze("--pas", path)
    assert rc == cli.EXIT_VALIDATION
    what = ("column power_mw: '-inf' is not a finite float" if power == "-inf"
            else f"power_mw {float(power)} outside 0.0..inf")
    assert err == f"error: {path}:3: {what}\n"


@pytest.mark.parametrize("flag", sorted(ANALYZE_INPUTS))
@pytest.mark.parametrize("line", [1, 3])
def test_analyze_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, flag, line):
    header, row = ANALYZE_INPUTS[flag]
    lines = [header.encode(), row.encode(), row.encode(), b"x"]  # line 4 holds a bad row
    lines[line - 1] = b"\xff" + lines[line - 1]
    path = tmp_path / "in.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    rc, err = _analyze(flag, path)
    assert rc == cli.EXIT_VALIDATION
    assert err == f"error: {path}:{line}: byte 0xff is not UTF-8\n"


def test_generate_names_the_line_of_an_override_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "o.cfg"
    path.write_bytes("mu_rho = 4.0  # café\n".encode() + b"# caf\xe9\nsigma_u = 2.0\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["generate", "--scenario", "28GHz-NLOS", "--override-file", str(path),
                       "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_VALIDATION
    assert err.getvalue() == f"error: {path}:2: byte 0xe9 is not UTF-8\n"


def _generate(tmp_path, *argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["generate", *argv, "--out-dir", str(tmp_path)])
    return rc, out.getvalue(), err.getvalue()


# configuration errors: the exact stderr, one `error:` line per violation
# in the order found, exit code 1 and nothing on stdout or on disk
@pytest.mark.parametrize("argv, stderr", [
    (["--scenario", "28GHz-LOS", "--override", "foo"],
     "error: --override expects KEY=VALUE, got 'foo'\n"),
    (["--scenario", "28GHz-LOS", "--drops", "0", "--distance", "0.5"],
     "error: distance 0.5 m outside [1.0, 50.0] m\nerror: num_drops must be >= 1, got 0\n"),
    (["--scenario", "28GHz-LOS", "--override", "mu_bogus=1"],
     "error: unknown parameter 'mu_bogus'\n"),
    (["--scenario", "28GHz-LOS", "--override", "beta_s=2"],
     "error: beta_s must be in [0, 1]\n"),
    (["--scenario", "28GHz-LOS", "--override", "mu_rho=x", "--drops", "0"],
     "error: num_drops must be >= 1, got 0\n"
     "error: bad value for 'mu_rho': could not convert string to float: 'x'\n"),
    (["--scenario", "60GHz-LOS"], "error: unrecognized scenario '60GHz-LOS'\n"),
])
def test_generate_prints_each_config_error(tmp_path, argv, stderr):
    assert _generate(tmp_path, *argv) == (cli.EXIT_VALIDATION, "", stderr)
    assert list(tmp_path.iterdir()) == []


def test_generate_names_the_line_of_a_bad_override_file_line(tmp_path):
    path = tmp_path / "o.cfg"
    path.write_text("mu_rho = 4.0\nsigma_u 2\n")
    assert _generate(tmp_path, "--scenario", "28GHz-LOS", "--override-file", str(path)) == (
        cli.EXIT_VALIDATION, "", f"error: {path}:2: expected key=value, got 'sigma_u 2'\n")


@pytest.mark.parametrize("argv, stderr", [
    (["analyze"], "error: analyze needs --pdp and/or --pas\n"),
    (["params", "--scenario", "60GHz-LOS"], "error: unrecognized scenario '60GHz-LOS'\n"),
])
def test_other_commands_print_their_config_error(argv, stderr):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert (rc, out.getvalue(), err.getvalue()) == (cli.EXIT_VALIDATION, "", stderr)


@pytest.mark.filterwarnings("error")  # as under python -W error
@pytest.mark.parametrize("override", ["gamma_cluster=0.01", "ple=310"])
def test_generate_writes_a_zero_mw_subpath_as_minus_inf_dbm(tmp_path, override):
    # a late cluster's share of the power underflows to 0.0: a legal draw
    rc, _, err = _generate(tmp_path, "--scenario", "28GHz-NLOS", "--override", override,
                           "--drops", "50", "--format", "pdp")
    assert (rc, err) == (cli.EXIT_OK, "")
    rows = (tmp_path / "pdp.csv").read_text().splitlines()[1:]
    assert any(row.endswith(",0,-inf") for row in rows)
