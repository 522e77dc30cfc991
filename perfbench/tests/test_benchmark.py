"""The benchmark end to end: declared metrics, traced layer coverage and
repeatable digests."""

import json
import subprocess
import sys

import layers
import run
from harness import Harness
from workloads import WORKLOADS

BENCH = run.HERE


def test_benchmark_json_declares_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS


def test_traced_command_covers_every_layer_it_runs(tmp_path):
    harness = Harness(BENCH.parent, tmp_path)
    result = harness.command(["generate", "--scenario", "28GHz-NLOS", "--distance", "5:45",
                              "--drops", "20", "--format", "jsonl,pdp,pas,summary",
                              "--out-dir", "{rep}/out"], "28GHz-NLOS", 0, 2, trace=True)
    batches = run.traced_rep_batches(result["dir"])[1]
    assert layers.self_time_residual_ns(batches) == 0
    metrics = layers.command_metrics(batches, set(result["installed"]), drops=20, rows=0)
    assert metrics["generate.calls_per_drop"] == 2.0   # records, then files
    assert metrics["randcore.streams_per_drop"] == 12.0
    assert metrics["generate.drop_us.n"] == 40
    for layer in ("randcore", "pathloss", "generate", "stats", "campaign", "cli", "scenario"):
        assert metrics[f"{layer}.self_ms"] > 0, layer


def _invoke(workload):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "0", "--trace", "0"],
                          capture_output=True, text=True, cwd=BENCH.parent, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert json.loads(lines[-1])["correct"] is True
    return [line for line in lines if line.startswith(("content_hash", "digest", "  drops"))]


def test_two_invocations_give_identical_digests():
    first = _invoke("export")
    assert any(line.startswith("digest export.pas.csv") for line in first)
    assert _invoke("export") == first
