import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tcslsim as t
from tcslsim import campaign, cli, generate, stats
from tcslsim.campaign import (
    CSV_FLOAT,
    DROP_FILES,
    _cdf_text,
    _float_texts,
    _jsonl_rows,
    _pas_rows,
    _pdp_rows,
    config_digest,
    emit_outputs,
    run_campaign,
)
from tcslsim.generate import BLOCK_DROPS, generate_batch

from conftest import (
    SCENARIO_LABELS,
    assert_same_text,
    drop_slices,
    drops_alone,
    make_config,
    reference_cdf_rows,
    reference_jsonl_rows,
    reference_pdp_rows,
    reference_reproduce,
)

ALL_OUTPUTS = ("jsonl", "pdp", "pas", "summary", "cdf")

# sha256 of the per-drop files `tcslsim generate` writes, pinned so that
# any change to generation or emission that is not bit-identical shows.
GOLDEN = {
    "28GHz-NLOS-5-45m": (
        ["--scenario", "28GHz-NLOS", "--distance", "5:45", "--seed", "3", "--drops", "30"],
        {"drops.jsonl": "4592eec4646bf0b9f1fdb9b40fee99e8673156888ad01e7a81b0a654e2f8cc51",
         "pdp.csv": "e0828451a3cc4a4737cc219928ea60fb35252cc0c3f3740a0810487bd797b73e",
         "pas.csv": "55483e947305eeff548a6ab5631cec95982262f2adaaf01c309a2c6e4dcee41a"}),
    "140GHz-LOS-10m": (
        ["--scenario", "140GHz-LOS", "--seed", "20210928", "--drops", "30"],
        {"drops.jsonl": "eb318cc826a41ce4be2123f3071eed13a24b85ef3ff655d4a53c791d8313d568",
         "pdp.csv": "52ca7fb4ad1280d206dd906651c7511e9a8c4af788ec36a6676fb638015d446d",
         "pas.csv": "2dd3df727c144ef92d1c1a6b6d73fe12bb1e7e677823fbf827ad0da134bdc02f"}),
    "28GHz-LOS-10m": (
        ["--scenario", "28GHz-LOS", "--seed", "7", "--drops", "30"],
        {"drops.jsonl": "552778c674cfdea637dc757c9a534240984f5ac17cba975a32fe08151e820d00",
         "pdp.csv": "9ef6ab242baf27644b4ce746544a6f15eacbd2b5969de5a4c1e5d40b67d73d23",
         "pas.csv": "a5c12a38c388459f5d03e0387721823f7bd30dcdfacf7f8b32ac97f7cb2f9440"}),
    "140GHz-NLOS-2-30m": (
        ["--scenario", "140GHz-NLOS", "--distance", "2:30", "--seed", "11", "--drops", "30"],
        {"drops.jsonl": "1493ec8907e02611f2961b2fea60be5408a3a9875c3ca233029b3879af58f38d",
         "pdp.csv": "d25511f2bc3973a392103ac04a355f4477f515d2b4c6213d8122d0fcf659c3fc",
         "pas.csv": "a7c0be0f7466bb85b25004a6c0646edeb9d3581d5b9a0b9c6c129ade482e9c65"}),
    # the only case with shadow fading and a nonzero transmit power, so
    # that the link budget's arithmetic is pinned too
    "28GHz-LOS-10m-shadowed-23.5dBm": (
        ["--scenario", "28GHz-LOS", "--seed", "7", "--drops", "30", "--tx-power-dbm", "23.5",
         "--override", "sigma_sf=4.5"],
        {"drops.jsonl": "26aa2c6158a98e3e57f99918cdd32c28fa17bc59ae476d0311411f7028f31925",
         "pdp.csv": "84589a5511a2ae281e4beafd62a3fd446e886aa762026c7cc5e01093b6c84356",
         "pas.csv": "00c462e20e8f99cb518660e6fbe052af27dbde8535ac0ead58e44914e800495b"}),
}


# sha256 of the `tcslsim analyze --pdp --pas` report on those files
ANALYZE_GOLDEN = {
    "28GHz-NLOS-5-45m": "4ca90bedd8d918e64ef0c0c4bfbe850df96427d2ec7e35c8c3f4c73e461bda02",
    "140GHz-LOS-10m": "8d8f6c2ea475b774a9d5ef5b633b2099134accd2381a984049c85004ffc18a45",
}


# sha256 of cdf.csv and of summary.json's `metrics` block (as
# json.dumps(..., sort_keys=True)) for the GOLDEN configurations, so any
# change to the per-drop metrics that is not bit-identical shows
METRICS_GOLDEN = {
    "28GHz-NLOS-5-45m": ("51c778444397776bb549825ecc78acc128bee44e915bd02bfd41f4b2ec5b7cdb",
                         "fc0c4b1316bf82e672c46a2b9990edcde7e15fc4a45ec27e5abd4e1bd3d72e8b"),
    "140GHz-LOS-10m": ("d2ee6c822d4c9ccbc4c38a681eb2eeba263c40280f585eb3577c766cfe2d796a",
                       "d3eb8b784362ae354896e221fadcdebe5b553026af2d46ac16389c4ad90745b0"),
}

# repr of the four `tcslsim reproduce --drops 300` medians (ns), default seed
REPRODUCE_300_MEDIANS = {
    "28GHz-LOS": "12.28110260426729",
    "28GHz-NLOS": "11.652491266916012",
    "140GHz-LOS": "2.991942328012532",
    "140GHz-NLOS": "5.1038017833997795",
}


def _generate(out_dir, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["generate", *argv, "--format", "jsonl,pdp,pas", "--out-dir", str(out_dir)])


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_generated_files_match_golden_digests(tmp_path, label):
    argv, digests = GOLDEN[label]
    assert _generate(tmp_path, argv) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("label", sorted(ANALYZE_GOLDEN))
def test_analyze_report_matches_golden_digest(tmp_path, label):
    assert _generate(tmp_path, GOLDEN[label][0]) == 0
    report = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["analyze", "--pdp", str(tmp_path / "pdp.csv"),
                       "--pas", str(tmp_path / "pas.csv"), "--out", str(report)])
    assert rc == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == ANALYZE_GOLDEN[label]


@pytest.mark.parametrize("label", sorted(METRICS_GOLDEN))
def test_metric_files_match_golden_digests(tmp_path, label):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["generate", *GOLDEN[label][0], "--format", "summary,cdf",
                         "--out-dir", str(tmp_path)]) == 0
    cdf, metrics = METRICS_GOLDEN[label]
    assert hashlib.sha256((tmp_path / "cdf.csv").read_bytes()).hexdigest() == cdf
    body = json.loads((tmp_path / "summary.json").read_text())["metrics"]
    assert hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest() == metrics


def test_reproduce_medians_match_their_recorded_repr():
    report = campaign.reproduce_report(num_drops=300)
    assert {r.scenario: repr(r.simulated_median_ns) for r in report.rows} == REPRODUCE_300_MEDIANS


@pytest.mark.parametrize("seed", [campaign.REPRODUCE_SEED, 11])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("num_drops", [1, BLOCK_DROPS, 2 * BLOCK_DROPS + 41])
def test_reproduce_report_equals_one_campaign_per_scenario(num_drops, workers, seed):
    report = campaign.reproduce_report(num_drops=num_drops, master_seed=seed, workers=workers)
    assert report.to_dict() == reference_reproduce(num_drops, seed, workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_reproduce_computes_no_angular_spread(monkeypatch, workers):
    # the medians are of delay spreads: no phasor and no angular spread is computed
    expected = reference_reproduce(300, campaign.REPRODUCE_SEED, workers)

    def refuse(*args):
        raise AssertionError("reproduce computed an angular spread")

    def no_link_budget(*args):
        raise AssertionError("reproduce computed a link budget")

    monkeypatch.setattr(stats, "_angular_spreads", refuse)
    monkeypatch.setattr(stats, "phasors", refuse)
    monkeypatch.setattr(generate, "link_budget", no_link_budget)
    assert campaign.reproduce_report(num_drops=300, workers=workers).to_dict() == expected


@pytest.mark.parametrize("seed", [campaign.REPRODUCE_SEED, 13])
@pytest.mark.parametrize("workers", [1, 2])
def test_reproduce_spreads_equal_those_of_generated_blocks(monkeypatch, seed, workers):
    # each scenario's column of spreads, as its median is taken of it, is
    # delay_spreads of the blocks generate_batch makes, in every bit
    columns = []

    def recording(values, _original=campaign.summarize):
        columns.append(values)
        return _original(values)

    monkeypatch.setattr(campaign, "summarize", recording)
    n = 2 * BLOCK_DROPS + 41
    campaign.reproduce_report(num_drops=n, master_seed=seed, workers=workers)
    assert len(columns) == len(t.ALL_SCENARIOS)
    for scenario, column in zip(t.ALL_SCENARIOS, columns):
        config = t.validate_config(t.SimConfig(
            scenario=scenario, distance_m=campaign.REPRODUCE_DISTANCE_M, num_drops=n,
            master_seed=seed))
        blocks = [generate_batch(config, start, min(BLOCK_DROPS, n - start))
                  for start in range(0, n, BLOCK_DROPS)]
        expected = [stats.delay_spreads([block])[0] for block in blocks]
        assert column.tobytes() == np.concatenate(expected).tobytes()


def counted_key_derivations(monkeypatch) -> list:
    """The drops of each `derive_keys` call generation makes from now on."""
    calls = []

    def counting(master_seed, drops, labels, _original=generate.derive_keys):
        calls.append(drops)
        return _original(master_seed, drops, labels)

    monkeypatch.setattr(generate, "derive_keys", counting)
    return calls


def test_reproduce_derives_each_blocks_keys_once_per_call(monkeypatch):
    # one derivation per block serves all four scenarios, and nothing is
    # kept for the next call
    calls = counted_key_derivations(monkeypatch)
    n = 2 * BLOCK_DROPS + 41
    blocks = [range(0, BLOCK_DROPS), range(BLOCK_DROPS, 2 * BLOCK_DROPS),
              range(2 * BLOCK_DROPS, n)]
    campaign.reproduce_report(num_drops=n)
    assert calls == blocks
    campaign.reproduce_report(num_drops=n)
    assert calls == blocks + blocks


def counted_philox_calls(monkeypatch) -> list:
    """The stream keys of each `stream_uniforms` call generation makes
    from now on, as bytes, one list per call."""
    calls = []

    def counting(keys, counts, _original=generate.stream_uniforms):
        calls.append([key.tobytes() for key in keys])
        return _original(keys, counts)

    monkeypatch.setattr(generate, "stream_uniforms", counting)
    return calls


def test_reproduce_computes_each_stream_once_per_block_for_all_scenarios(monkeypatch):
    # one Philox call per stage serves the four scenarios, and each of
    # the six (label, drop) streams a delay spread reads is computed in
    # exactly one of them; no other stream is
    calls = counted_philox_calls(monkeypatch)
    n = 2 * BLOCK_DROPS + 41
    campaign.reproduce_report(num_drops=n)
    blocks = [range(0, BLOCK_DROPS), range(BLOCK_DROPS, 2 * BLOCK_DROPS),
              range(2 * BLOCK_DROPS, n)]
    assert len(calls) == 3 * len(blocks)
    for b, drops in enumerate(blocks):
        keys = [key for call in calls[3 * b:3 * b + 3] for key in call]
        expected = generate.derive_keys(campaign.REPRODUCE_SEED, drops, generate.PROFILE_LABELS)
        assert sorted(keys) == sorted(key.tobytes() for key in expected)


def test_reproduce_reduces_each_blocks_four_scenarios_in_one_grouped_pass(monkeypatch):
    calls = []

    def counting(weights, lengths, columns, _original=stats.profile_sums):
        calls.append((len(lengths), len(columns)))
        return _original(weights, lengths, columns)

    monkeypatch.setattr(stats, "profile_sums", counting)
    campaign.reproduce_report(num_drops=2 * BLOCK_DROPS + 41)
    scenarios = len(t.ALL_SCENARIOS)
    assert calls == [(scenarios * BLOCK_DROPS, 2)] * 2 + [(scenarios * 41, 2)]


def test_reproduce_lays_out_each_blocks_four_scenarios_once(monkeypatch):
    # the cluster delays and the power totals of a block's four scenarios
    # are one call each, their drops laid end to end
    calls = {"place_cluster_delays": [], "profile_sums": []}
    for name, log in calls.items():
        def counting(*args, _original=getattr(generate, name), _log=log):
            _log.append(args)
            return _original(*args)
        monkeypatch.setattr(generate, name, counting)
    campaign.reproduce_report(num_drops=2 * BLOCK_DROPS + 41)
    scenarios = len(t.ALL_SCENARIOS)
    # place_cluster_delays(draws, last_intra_delays, lengths, mti): lengths a drop
    assert [len(args[2]) for args in calls["place_cluster_delays"]] == [
        scenarios * BLOCK_DROPS, scenarios * BLOCK_DROPS, scenarios * 41]
    assert len(calls["profile_sums"]) == 3


@pytest.mark.parametrize("distance", ["10", "5:45"])
def test_generate_derives_each_blocks_keys_once(tmp_path, monkeypatch, distance):
    calls = counted_key_derivations(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["generate", "--scenario", "28GHz-NLOS", "--distance", distance,
                         "--drops", str(2 * BLOCK_DROPS + 41), "--out-dir", str(tmp_path)]) == 0
    assert [len(drops) for drops in calls] == [BLOCK_DROPS, BLOCK_DROPS, 41]


def dense_pas_rows(block) -> str:
    """PAS rows as a dense-grid writer produced them: for each drop,
    deposit every subpath into a (360, 181) grid, then write its
    positive cells in row-major order."""
    rows = []
    powers = block.powers_mw()
    for index, (_, p) in zip(block.drop_index, drop_slices(block)):
        for side in ("aod", "aoa"):
            grid = np.zeros((360, 181))
            az = np.rint(getattr(block, f"{side}_az_deg")[p]).astype(np.int64) % 360
            el = np.clip(np.rint(getattr(block, f"{side}_el_deg")[p]).astype(np.int64), -90, 90)
            np.add.at(grid, (az, el + 90), powers[p])
            for a, e in np.argwhere(grid > 0):
                rows.append(f"{index},{side},{a},{e - 90},{CSV_FLOAT % grid[a, e]}\n")
    return "".join(rows)


# (first drop, drops) of the blocks each writer is checked on: one drop,
# a whole block, one drop more, and sizes that are no multiple of the
# drops.jsonl writer's slice of drops
BLOCK_CASES = ((0, 1), (3, BLOCK_DROPS), (BLOCK_DROPS + 9, BLOCK_DROPS + 1), (11, 65),
               (17, 100), (0, 200))


def test_pas_writer_matches_the_dense_grid_writer(scenario_label):
    cfg = make_config(scenario_label, distance_m=(2.0, 40.0), master_seed=41)
    for start, count in BLOCK_CASES:
        block = generate_batch(cfg, start, count)
        assert_same_text(_pas_rows(block), dense_pas_rows(block),
                         f"pas.csv rows of drops {start}-{start + count - 1}")


def per_drop_pas_rows(drop) -> str:
    """PAS rows of a block of one as a per-drop writer produced them:
    one `build_pas` per side, the drop's aod rows, then its aoa rows."""
    rows = []
    for side in ("aod", "aoa"):
        pas = t.build_pas(drop, side)
        occupied = pas.power_mw > 0
        az, el = (a[occupied].tolist() for a in pas.angles())
        rows.extend(f"{drop.drop_index[0]},{side},{a},{e},{CSV_FLOAT % p}\n"
                    for a, e, p in zip(az, el, pas.power_mw[occupied].tolist()))
    return "".join(rows)


@pytest.mark.parametrize("distance", [10.0, (5.0, 45.0)])
def test_block_rows_equal_the_rows_of_its_drops_generated_alone(scenario_label, distance):
    cfg = make_config(scenario_label, distance_m=distance, master_seed=43)
    for start, count in ((0, BLOCK_DROPS), (BLOCK_DROPS + 5, 1)):
        block = generate_batch(cfg, start, count)
        drops = drops_alone(cfg, start, count)
        assert_same_text(_pas_rows(block), "".join(map(per_drop_pas_rows, drops)),
                         "pas per drop")
        for kind, (_, _, rows) in DROP_FILES.items():
            assert_same_text(rows(block), "".join(map(rows, drops)), kind)


def test_a_fork_pool_imports_scipy_special_before_it_forks(tmp_path):
    # in a fresh interpreter the pool's parent draws nothing, so only the
    # import before the fork puts scipy.special in its modules; without it
    # each worker would import scipy.special again
    src = str(Path(t.__file__).resolve().parents[1])
    code = ("import dataclasses, sys\n"
            "from tcslsim import Scenario, SimConfig\n"
            "from tcslsim.campaign import run_campaign\n"
            "config = SimConfig(scenario=Scenario.parse('140GHz-LOS'),"
            f" num_drops={2 * BLOCK_DROPS + 9}, master_seed=3, workers=2)\n"
            "pooled = run_campaign(config)\n"
            "print('scipy.special' in sys.modules)\n"
            "one = run_campaign(dataclasses.replace(config, workers=1))\n"
            "print(one.records == pooled.records, len(one.records))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                         text=True, check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                             filter(None, (src, os.environ.get("PYTHONPATH"))))))
    assert out.stdout.splitlines() == ["True", f"True {2 * BLOCK_DROPS + 9}"]


def test_records_identical_for_one_and_two_workers(tmp_path):
    # two workers take alternate blocks, and the last block is partial
    n = 2 * BLOCK_DROPS + 41
    config = t.SimConfig(scenario=t.Scenario.parse("28GHz-NLOS"), distance_m=(5.0, 45.0),
                         num_drops=n, master_seed=5, outputs=ALL_OUTPUTS)
    one = run_campaign(dataclasses.replace(config, out_dir=str(tmp_path / "one")))
    two = run_campaign(dataclasses.replace(config, workers=2, out_dir=str(tmp_path / "two")))
    assert len(one.records) == n
    assert one.records == two.records
    assert one.provenance == two.provenance
    for idx in (0, BLOCK_DROPS - 1, BLOCK_DROPS, n // 2, n - 1):
        assert one.records[idx:idx + 1] == campaign._record_chunk(config, idx, 1)[0]
    assert sorted(one.paths) == sorted(two.paths) == sorted(ALL_OUTPUTS)
    for name in ("drops.jsonl", "pdp.csv", "pas.csv", "cdf.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
    metrics = [json.dumps(json.loads((tmp_path / d / "summary.json").read_text())["metrics"])
               for d in ("one", "two")]
    assert metrics[0] == metrics[1]


@pytest.mark.parametrize("workers", [1, 2])
def test_generate_makes_each_drop_once(tmp_path, monkeypatch, workers):
    made = multiprocessing.get_context("fork").Value("i", 0)  # shared with pool workers

    def counting(*args, _original=generate.generate_batch):
        drops = _original(*args)
        with made.get_lock():
            made.value += len(drops)
        return drops

    monkeypatch.setattr(generate, "generate_batch", counting)
    monkeypatch.setattr(campaign, "generate_batch", counting)
    drops = BLOCK_DROPS + 7
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["generate", "--scenario", "28GHz-NLOS", "--drops", str(drops),
                         "--format", ",".join(ALL_OUTPUTS), "--workers", str(workers),
                         "--out-dir", str(tmp_path)]) == 0
    assert made.value == drops


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_run_leaves_no_output_file(tmp_path, monkeypatch, workers):
    def failing(config, start, count, _original=campaign._record_chunk):
        if start == BLOCK_DROPS:
            raise RuntimeError("second block failed")
        return _original(config, start, count)

    monkeypatch.setattr(campaign, "_record_chunk", failing)
    config = t.SimConfig(scenario=t.Scenario.parse("140GHz-LOS"), num_drops=3 * BLOCK_DROPS,
                         workers=workers, out_dir=str(tmp_path), outputs=ALL_OUTPUTS)
    with pytest.raises(RuntimeError, match="second block failed"):
        run_campaign(config)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("seed", [1, 3, 4])
def test_a_received_power_outside_the_float_range_is_refused(tmp_path, workers, seed):
    # sigma_sf 1000 dB draws shadowing whose received power in mW
    # overflows to inf or underflows to 0 (-inf dBm rows)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["generate", "--scenario", "28GHz-LOS", "--override", "sigma_sf=1000",
                       "--drops", "300", "--seed", str(seed), "--format", "pdp",
                       "--workers", str(workers), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert err.getvalue().startswith("error: received power ")
    assert " of drop " in err.getvalue()
    for name in ("tx_power_dbm", "ple", "sigma_sf"):
        assert name in err.getvalue()
    assert list(tmp_path.iterdir()) == []


def test_no_out_dir_writes_to_the_working_directory_whatever_the_environment(
        tmp_path, monkeypatch):
    # no environment variable chooses another directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TCSLSIM_OUT_DIR", str(tmp_path / "elsewhere"))
    result = run_campaign(t.SimConfig(scenario=t.Scenario.parse("28GHz-LOS"),
                                      outputs=("summary",)))
    assert result.paths == {"summary": Path("summary.json")}
    assert list(tmp_path.iterdir()) == [tmp_path / "summary.json"]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_refused_run_removes_the_directories_it_made(tmp_path, workers):
    (tmp_path / "kept").mkdir()
    for out_dir in (tmp_path / "out" / "deeper", tmp_path / "kept" / "made"):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(["generate", "--scenario", "28GHz-LOS", "--drops", str(BLOCK_DROPS + 20),
                           "--override", "sigma_phi_aoa=1e308", "--format", "jsonl",
                           "--workers", str(workers), "--out-dir", str(out_dir)])
        assert rc == 1
    assert list(tmp_path.iterdir()) == [tmp_path / "kept"]
    assert list((tmp_path / "kept").iterdir()) == []


def _strict_json(line):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(line, parse_constant=refuse)


# overrides whose draws overflow, with the parameters the refusal names
NON_FINITE = {
    "mu_tau=1e308": ("mu_tau", "sigma_tau", "mti"),
    "mti=1e308": ("mu_tau", "mti"),
    "sigma_phi_aod=1e308": ("sigma_phi_aod",),
    "mu_rho=1e308": ("mu_rho",),
    "sigma_z=1e308": ("sigma_z",),
    "sigma_u=1e308": ("sigma_u",),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("override", sorted(NON_FINITE))
def test_draws_outside_the_float_range_are_refused(tmp_path, workers, override):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["generate", "--scenario", "28GHz-NLOS", "--override", override,
                       "--drops", str(BLOCK_DROPS + 20), "--format", "jsonl,pdp,summary",
                       "--workers", str(workers), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert "are not finite" in err.getvalue()
    for name in NON_FINITE[override]:
        assert name in err.getvalue()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("overrides", [["sigma_theta_aod=1e308", "sigma_theta_aoa=1e308"],
                                       ["ple=310", "sigma_sf=0"]])
def test_clamped_angles_and_vanishing_powers_are_written_as_strict_json(
        tmp_path, workers, overrides):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["generate", "--scenario", "28GHz-NLOS",
                         *(a for o in overrides for a in ("--override", o)),
                         "--drops", str(BLOCK_DROPS + 20), "--format", "jsonl,summary",
                         "--workers", str(workers), "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "drops.jsonl").read_text().splitlines()
    assert len(lines) == BLOCK_DROPS + 20
    drops = [_strict_json(line) for line in lines]
    _strict_json((tmp_path / "summary.json").read_text())
    if "ple=310" in overrides:
        assert 0.0 in (p for d in drops for c in d["clusters"] for p in c["subpath_power_mw"])
    else:
        assert {90.0, -90.0} <= {e for d in drops for c in d["clusters"]
                                 for e in c["aod_el_deg"] + c["aoa_el_deg"]}


def _edge_floats() -> np.ndarray:
    """Floats that blocks seldom hold, each of both signs: every power
    of two and of ten with its neighbours 1 ulp away, both ends of the
    1e-5 decade, each side of `_float_texts`' handoffs to `repr`, the
    subnormals' ends and zero."""
    powers = np.array([2.0 ** k for k in range(-1074, 1024)]
                      + [float(f"1e{k}") for k in range(-323, 309)])
    handoffs = np.array([1e-5, 1e-4, 1e-9, 1e16, 9.9e-11, 9.9e15, 5e-324,
                         2.2250738585072009e-308, 2.2250738585072014e-308,
                         1.7976931348623157e308])
    edges = np.concatenate([powers, handoffs, [0.0]])
    # 1 ulp down of each, and up of each but the largest double and zero
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges[:-2], np.inf)])
    return np.concatenate([edges, -edges])


def _random_floats(count: int, seed: int) -> np.ndarray:
    """`count` random bit patterns read as doubles, the finite ones."""
    bits = np.random.default_rng(seed).integers(0, 2**64, count, dtype=np.uint64, endpoint=False)
    floats = bits.view(np.float64)
    return floats[np.isfinite(floats)]


@pytest.mark.parametrize("values", [
    pytest.param(_edge_floats, id="edges"),
    *(pytest.param(functools.partial(_random_floats, 125_000, seed), id=f"random-{seed}")
      for seed in range(8)),
])
def test_float_texts_are_the_reprs_of_the_values(values):
    """`_float_texts` writes `repr` of every double, whatever orjson
    writes: a change of its layout outside the handoffs fails here."""
    values = values()
    cuts = sorted(np.random.default_rng(len(values)).integers(0, len(values), 5).tolist())
    columns = np.split(values, [0, *cuts])  # an empty column first
    texts = _float_texts(columns)
    assert [len(text) for text in texts] == [len(column) for column in columns]
    expected = list(map(repr, values.tolist()))
    got = np.concatenate(texts).tolist()
    assert got == expected, next((g, e) for g, e in zip(got, expected) if g != e)


def assert_reference_jsonl_rows(block):
    """`_jsonl_rows(block)` equals `reference_jsonl_rows(block)`; line n
    of a failure is the block's n-th drop."""
    assert_same_text(_jsonl_rows(block), reference_jsonl_rows(block),
                     f"drops.jsonl rows of drops {block.drop_index[0]}-{block.drop_index[-1]}")


def assert_reference_pdp_rows(block):
    """`_pdp_rows(block)` equals `reference_pdp_rows(block)`."""
    assert_same_text(_pdp_rows(block), reference_pdp_rows(block),
                     f"pdp.csv rows of drops {block.drop_index[0]}-{block.drop_index[-1]}")


@pytest.mark.parametrize("distance", [10.0, (5.0, 45.0)])
def test_jsonl_writer_matches_json_dumps(scenario_label, distance):
    cfg = make_config(scenario_label, distance_m=distance, master_seed=47)
    for start, count in BLOCK_CASES:
        block = generate_batch(cfg, start, count)
        assert_reference_jsonl_rows(block)


@pytest.mark.parametrize("distance", [10.0, (5.0, 45.0)])
def test_pdp_writer_matches_the_per_subpath_rows(scenario_label, distance):
    cfg = make_config(scenario_label, distance_m=distance, master_seed=47)
    for start, count in BLOCK_CASES:
        assert_reference_pdp_rows(generate_batch(cfg, start, count))


@pytest.mark.parametrize("distance", [10.0, (5.0, 45.0)])
def test_cdf_writer_matches_the_per_value_rows(scenario_label, distance):
    for num_drops in (1, BLOCK_DROPS + 1):
        result = run_campaign(make_config(scenario_label, distance_m=distance,
                                          num_drops=num_drops, master_seed=47))
        assert_same_text(_cdf_text(result), reference_cdf_rows(result.aggregates), "cdf.csv")


ZERO_SIGMAS = {name: "0" for name in (
    "sigma_tau", "sigma_z", "sigma_u", "sigma_l_zod", "sigma_l_zoa", "sigma_phi_aod",
    "sigma_theta_aod", "sigma_phi_aoa", "sigma_theta_aoa", "sigma_sf")}


@pytest.mark.parametrize("label, overrides", [
    ("28GHz-NLOS", {"beta_s": "0"}),
    ("28GHz-LOS", {"n_c_max": "1"}),
    ("140GHz-NLOS", {"l_aod_max": "1", "l_aoa_max": "1"}),
    ("28GHz-LOS", ZERO_SIGMAS),
    ("28GHz-NLOS", {"ple": "310", "sigma_sf": "0"}),
])
def test_jsonl_writer_matches_json_dumps_at_edge_overrides(label, overrides):
    cfg = make_config(label, master_seed=53, overrides=overrides)
    block = generate_batch(cfg, 0, 64)
    if "ple" in overrides:
        assert (block.powers_mw() == 0.0).any()
    assert_reference_jsonl_rows(block)


@pytest.mark.parametrize("label, overrides", [
    ("28GHz-NLOS", {"beta_s": "0"}),
    ("28GHz-LOS", {"n_c_max": "1"}),
    ("140GHz-NLOS", {"l_aod_max": "1", "l_aoa_max": "1"}),
    ("28GHz-LOS", ZERO_SIGMAS),
    ("28GHz-NLOS", {"ple": "310", "sigma_sf": "0"}),
    ("28GHz-NLOS", {"gamma_cluster": "0.01"}),
])
def test_csv_writers_match_their_references_at_edge_overrides(label, overrides):
    cfg = make_config(label, num_drops=65, master_seed=53, overrides=overrides)
    block = generate_batch(cfg, 0, 65)
    assert_reference_pdp_rows(block)
    assert_same_text(_pas_rows(block), dense_pas_rows(block), "pas.csv rows")
    # a share that underflows to 0 mW is written as -inf dBm
    underflows = "ple" in overrides or "gamma_cluster" in overrides
    assert (block.powers_mw() == 0.0).any() == underflows
    assert (",0,-inf\n" in _pdp_rows(block)) == underflows
    result = run_campaign(cfg)
    assert_same_text(_cdf_text(result), reference_cdf_rows(result.aggregates), "cdf.csv")


def test_jsonl_writer_matches_json_dumps_for_an_int_transmit_power():
    block = generate_batch(make_config("140GHz-LOS", tx_power_dbm=30), 0, 20)
    assert block.tx_power_dbm == 30 and isinstance(block.tx_power_dbm, int)
    assert_reference_jsonl_rows(block)


@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       start=st.integers(min_value=0, max_value=2**40),
       label=st.sampled_from(SCENARIO_LABELS))
@settings(max_examples=300, deadline=None)
def test_jsonl_writer_matches_json_dumps_at_any_seed_and_start(seed, start, label):
    block = generate_batch(make_config(label, distance_m=(1.0, 50.0), master_seed=seed),
                           start, 24)
    assert_reference_jsonl_rows(block)
    assert_reference_pdp_rows(block)


def test_summary_config_block_is_the_hashed_payload(tmp_path):
    config = t.validate_config(t.SimConfig(scenario=t.Scenario.parse("140GHz-NLOS"),
                                           distance_m=(2.0, 30.0), num_drops=2,
                                           overrides={"mu_rho": "3.0"}))
    result = run_campaign(config)
    paths = emit_outputs(result, [], out_dir=tmp_path, outputs=("summary",))
    body = json.loads(paths["summary"].read_text())
    digest = hashlib.sha256(json.dumps(body["config"], sort_keys=True).encode()).hexdigest()
    assert digest == body["provenance"]["config_hash"] == config_digest(config)
    assert sorted(body["config"]) == ["distance_m", "master_seed", "num_drops", "overrides",
                                      "scenario", "tx_power_dbm"]
    presentation = dataclasses.replace(config, workers=2, outputs=("pdp",), out_dir="x")
    assert config_digest(presentation) == config_digest(config)
