import contextlib
import dataclasses
import hashlib
import io
import json

import pytest

import tcslsim as t
from tcslsim import cli
from tcslsim.campaign import config_digest, drop_record, emit_outputs, run_campaign
from tcslsim.generate import BLOCK_DROPS

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
}


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_generated_files_match_golden_digests(tmp_path, label):
    argv, digests = GOLDEN[label]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["generate", *argv, "--format", "jsonl,pdp,pas", "--out-dir", str(tmp_path)])
    assert rc == 0
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_records_identical_for_one_and_two_workers():
    # two workers split the drops mid-block; each worker's chunk spans blocks
    n = 2 * BLOCK_DROPS + 41
    config = t.SimConfig(scenario=t.Scenario.parse("28GHz-NLOS"), distance_m=(5.0, 45.0),
                         num_drops=n, master_seed=5)
    one = run_campaign(config)
    two = run_campaign(dataclasses.replace(config, workers=2))
    assert len(one.records) == n
    assert one.records == two.records
    assert one.provenance == two.provenance
    params = t.resolved_params(config)
    for idx in (0, BLOCK_DROPS - 1, BLOCK_DROPS, n // 2, n - 1):
        assert one.records[idx] == drop_record(t.generate_drop(config, params, idx))


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
