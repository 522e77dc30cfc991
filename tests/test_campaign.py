import contextlib
import dataclasses
import hashlib
import io
import json
import multiprocessing

import numpy as np
import pytest

import tcslsim as t
from tcslsim import campaign, cli, generate
from tcslsim.campaign import (
    CSV_FLOAT,
    DROP_FILES,
    _pas_rows,
    config_digest,
    emit_outputs,
    run_campaign,
)
from tcslsim.generate import BLOCK_DROPS, generate_batch

from conftest import drop_slices, drops_alone, make_config

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
                rows.append(f"{index},{side},{a},{e - 90},{CSV_FLOAT.format(grid[a, e])}\n")
    return "".join(rows)


def test_pas_writer_matches_the_dense_grid_writer(scenario_label):
    cfg = make_config(scenario_label, distance_m=(2.0, 40.0), master_seed=41)
    block = generate_batch(cfg, 0, 200)
    assert _pas_rows(block) == dense_pas_rows(block)


def per_drop_pas_rows(drop) -> str:
    """PAS rows of a block of one as a per-drop writer produced them:
    one `build_pas` per side, the drop's aod rows, then its aoa rows."""
    rows = []
    for side in ("aod", "aoa"):
        pas = t.build_pas(drop, side)
        occupied = pas.power_mw > 0
        az, el = (a[occupied].tolist() for a in pas.angles())
        rows.extend(f"{drop.drop_index[0]},{side},{a},{e},{CSV_FLOAT.format(p)}\n"
                    for a, e, p in zip(az, el, pas.power_mw[occupied].tolist()))
    return "".join(rows)


@pytest.mark.parametrize("distance", [10.0, (5.0, 45.0)])
def test_block_rows_equal_the_rows_of_its_drops_generated_alone(scenario_label, distance):
    cfg = make_config(scenario_label, distance_m=distance, master_seed=43)
    for start, count in ((0, BLOCK_DROPS), (BLOCK_DROPS + 5, 1)):
        block = generate_batch(cfg, start, count)
        drops = drops_alone(cfg, start, count)
        assert _pas_rows(block) == "".join(map(per_drop_pas_rows, drops))
        for kind, (_, _, rows) in DROP_FILES.items():
            assert rows(block) == "".join(map(rows, drops)), kind


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
    # overflows (an OverflowError) or underflows to 0 (-inf dBm rows)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["generate", "--scenario", "28GHz-LOS", "--override", "sigma_sf=1000",
                       "--drops", "300", "--seed", str(seed), "--format", "pdp",
                       "--workers", str(workers), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert err.getvalue().startswith("error: received power ")
    for name in ("tx_power_dbm", "ple", "sigma_sf"):
        assert name in err.getvalue()
    assert list(tmp_path.iterdir()) == []


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
