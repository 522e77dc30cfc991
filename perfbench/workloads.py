"""The benchmark's workloads: the command each one times, the inputs it
prepares from the seed, and how its outputs are checked.

Why these three:

reproduce  generation-bound: randcore and generate take most of the
           time, over all four scenarios (3.6 to 14.4 subpaths a drop),
           so both per-call and per-subpath costs show.
export     emission-bound and write-heavy on the densest scenario; today
           every drop is generated twice, once for the records and once
           for the files. The distance range draws a distance per drop.
analyze    the read side of export's files with no generation; PAS lobe
           labelling dominates, so file-format changes that help export
           but slow parsing show here.

A fourth workload, the fork pool on the cheapest drop, did not repeat
within its bound on a shared 2-vCPU machine, since it needs both CPUs;
the traced run still times that path (campaign.fanout_efficiency) and
checks that its records equal those of one worker.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

SCENARIOS = ("28GHz-LOS", "28GHz-NLOS", "140GHz-LOS", "140GHz-NLOS")

# Drops per repetition: each repetition takes about a second here, so a
# run's median rests on several of them.
REPRODUCE_DROPS = 250       # per scenario
EXPORT_DROPS = 600
ANALYZE_DROPS = 300
FANOUT_DROPS = 1000
FANOUT_WORKERS = 2

EXPORT_CONFIG = ["--scenario", "28GHz-NLOS", "--distance", "5:45"]
EXPORT_FILES = ("drops.jsonl", "pdp.csv", "pas.csv", "cdf.csv")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def summary_metrics_sha256(out_dir: Path) -> str:
    """Digest of summary.json's metrics block; the rest of the file holds
    a creation time."""
    return sha256_json(json.loads((out_dir / "summary.json").read_text())["metrics"])


def count_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1  # header


@dataclass
class Workload:
    name: str
    drops: int                  # drops one repetition completes
    setup_scenario: str         # configuration resolved during set-up

    def prepare(self, harness, seed: int) -> dict:
        """Inputs and references made once per invocation, untimed."""
        return {"rows": 0}

    def argv(self, seed: int, prepared: dict) -> list:
        raise NotImplementedError

    def check(self, sample: dict, prepared: dict) -> tuple:
        """(digests, errors) of one repetition's outputs."""
        raise NotImplementedError


class Reproduce(Workload):
    def argv(self, seed, prepared):
        return ["reproduce", "--drops", str(REPRODUCE_DROPS), "--seed", str(seed),
                "--workers", "1"]

    def check(self, sample, prepared):
        errors = []
        report = sample.get("report")
        if report is None:
            return {}, ["reproduce_report was not called"]
        rows = report["rows"]
        if [r["scenario"] for r in rows] != list(SCENARIOS):
            errors.append(f"rows {[r['scenario'] for r in rows]}, expected {SCENARIOS}")
        printed = [line.split()[-1] for line in sample["stdout"].splitlines()
                   if line.split() and line.split()[0] in SCENARIOS]
        if printed != ["PASS" if r["passed"] else "FAIL" for r in rows]:
            errors.append(f"printed statuses {printed} disagree with the report")
        for r in rows:
            ref = r["reference_simulated_ns"]
            within = abs(r["simulated_median_ns"] - ref) <= r["tolerance"] * ref
            if within != r["passed"]:
                errors.append(f"{r['scenario']}: median {r['simulated_median_ns']!r} "
                              f"marked {'PASS' if r['passed'] else 'FAIL'}")
        digests = {"report": sha256_json(report)}
        digests.update({f"median.{r['scenario']}": repr(r["simulated_median_ns"]) for r in rows})
        return digests, errors


class Export(Workload):
    def argv(self, seed, prepared):
        return ["generate", *EXPORT_CONFIG, "--drops", str(EXPORT_DROPS), "--seed", str(seed),
                "--format", "jsonl,pdp,pas,summary,cdf", "--workers", "1",
                "--out-dir", "{rep}/out"]

    def check(self, sample, prepared):
        out = sample["dir"] / "out"
        digests = {name: sha256_file(out / name) for name in EXPORT_FILES}
        digests["summary.metrics"] = summary_metrics_sha256(out)
        return digests, []


class Analyze(Workload):
    def prepare(self, harness, seed):
        made = harness.command(["generate", *EXPORT_CONFIG, "--drops", str(ANALYZE_DROPS),
                                "--seed", str(seed), "--format", "pdp,pas", "--workers", "1",
                                "--out-dir", "{rep}/out"], self.setup_scenario, 0, 1)
        inputs = made["reps"][0]["dir"] / "out"
        return {"pdp": inputs / "pdp.csv", "pas": inputs / "pas.csv",
                "rows": count_rows(inputs / "pdp.csv") + count_rows(inputs / "pas.csv")}

    def argv(self, seed, prepared):
        return ["analyze", "--pdp", str(prepared["pdp"]), "--pas", str(prepared["pas"]),
                "--out", "{rep}/report.json"]

    def check(self, sample, prepared):
        report = sample["dir"] / "report.json"
        drops = json.loads(report.read_text())["pdp"]["num_drops"]
        errors = [] if drops == self.drops else [f"report covers {drops} drops"]
        return {"report": sha256_file(report)}, errors


def fanout_argv(seed: int, workers: int) -> list:
    """The fork-pool configuration on the cheapest drop, timed by the
    traced run at 1 and FANOUT_WORKERS workers."""
    return ["generate", "--scenario", "140GHz-LOS", "--drops", str(FANOUT_DROPS),
            "--seed", str(seed), "--format", "summary", "--workers", str(workers),
            "--out-dir", "{rep}/out"]


WORKLOADS = {
    "reproduce": Reproduce("reproduce", 4 * REPRODUCE_DROPS, "28GHz-LOS"),
    "export": Export("export", EXPORT_DROPS, "28GHz-NLOS"),
    "analyze": Analyze("analyze", ANALYZE_DROPS, "28GHz-NLOS"),
}

# The content hash: canonical drops.jsonl for seeds {1, 20210928} x the
# four scenarios at 10 m, plus one distance-range configuration.
CONTENT_HASH_DROPS = 20
CONTENT_HASH_CONFIGS = [
    (f"{scenario}@{seed}", ["--scenario", scenario, "--seed", str(seed),
                            "--drops", str(CONTENT_HASH_DROPS)])
    for seed in (1, 20210928) for scenario in SCENARIOS
] + [("28GHz-NLOS@1:5-45m", ["--scenario", "28GHz-NLOS", "--seed", "1", "--distance", "5:45",
                             "--drops", str(CONTENT_HASH_DROPS)])]


def content_hash(digests: dict) -> str:
    """One digest over the per-configuration drops.jsonl digests."""
    return sha256_json([[label, digests[label]] for label, _ in CONTENT_HASH_CONFIGS])
