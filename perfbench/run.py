"""tcslsim benchmark.

Usage, from the root of a tcslsim checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of reproduce, export, analyze (see workloads.py). N
is the master seed the program receives. A fresh interpreter imports
tcslsim from the checkout's src/ and calls `tcslsim.cli.main(argv)`
repeatedly until S seconds have passed.

--trace 0 reports the end-to-end metrics: drops_per_s and
cpu_ms_per_drop (user+sys of the command and its pool workers), both
medians over the repetitions; setup_s, the median over the run's fresh
interpreters of the time from their start until the CLI is imported
and a configuration resolved; and peak_rss_mb, the larger of the
command's process and its largest worker.

Other tenants of a shared machine slow it by up to 2x for minutes at a
time, far more than any bound worth having. So each interpreter also
times a fixed calibration loop (child.probe_s) next to every repetition
and after set-up, and every time above is scaled by REFERENCE_PROBE_S
over that probe time: it reads as on the idle reference machine. Span
times in the traced run are not scaled. --trace 1 runs the command untraced and then
traced, for S/2 seconds each, and reports the per-layer metrics
(layers.PER_LAYER_UNITS).

Every repetition's outputs are checked: repetitions must agree, and for
a seed in recorded.json they must equal the recorded digests. The
content hash of canonical drops.jsonl files over fixed seeds is checked
on every invocation. The last line of stdout is one JSON object with
"correct", "attempted", "failed" and "metrics".
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import layers
from harness import ChildFailed, Harness
from spans import load_batches
from workloads import (CONTENT_HASH_CONFIGS, FANOUT_DROPS, FANOUT_WORKERS, WORKLOADS,
                       content_hash, fanout_argv)

HERE = Path(__file__).resolve().parent
RECORDED = HERE / "recorded.json"
MIN_REPS = 3
# child.probe_s() on an idle 2-vCPU machine of the kind the baseline was
# measured on. Every timing is scaled by REFERENCE_PROBE_S / the probe
# time measured next to it, so it reads as on that machine when idle.
REFERENCE_PROBE_S = 0.0081
SETUP_RUNS = 4      # set-up samples per run, counting every fresh interpreter
EMIT_DROPS = 100
EMIT_REPEATS = 3

END_TO_END_UNITS = {"drops_per_s": "1/s", "cpu_ms_per_drop": "ms", "setup_s": "s",
                    "peak_rss_mb": "MiB"}


def load_recorded() -> dict:
    if RECORDED.exists():
        return json.loads(RECORDED.read_text())
    return {"content_hash": None, "content_digests": {}, "workloads": {}}


class Checker:
    """Counts checked operations and keeps the first digests of a run."""

    def __init__(self, workload, prepared: dict, recorded):
        self.workload = workload
        self.prepared = prepared
        self.recorded = recorded
        self.digests = None
        self.attempted = 0
        self.errors: list = []

    def check(self, sample: dict, errors: list = ()) -> None:
        self.attempted += 1
        errors = list(errors)
        if sample["rc"] != 0:
            errors.append(f"exit code {sample['rc']}")
        try:
            digests, found = self.workload.check(sample, self.prepared)
        except (OSError, KeyError, ValueError) as exc:
            digests, found = None, [f"unreadable output: {exc!r}"]
        errors += found
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            errors.append("outputs differ between repetitions")
        if self.recorded is not None and digests != self.recorded:
            errors.append("outputs differ from the recorded ones")
        if errors:
            self.errors.append(f"{sample['dir'].name}: " + "; ".join(errors))
        shutil.rmtree(sample["dir"], ignore_errors=True)


def check_content_hash(harness: Harness, recorded: dict, checker: Checker):
    result = harness.step({"mode": "hash", "configs": CONTENT_HASH_CONFIGS, "out_dir": "{dir}"},
                          "hash")
    digests = result["digests"]
    value = content_hash(digests)
    checker.attempted += 1
    if recorded["content_hash"] is not None and value != recorded["content_hash"]:
        checker.errors.append(f"content hash {value} != recorded {recorded['content_hash']}")
    return value, digests


def calibrated(seconds: float, probe: float) -> float:
    """`seconds` scaled to the idle reference machine; see REFERENCE_PROBE_S."""
    return seconds * REFERENCE_PROBE_S / probe


def throughput(drops: int, rep: dict) -> float:
    return drops / calibrated(rep["run_s"], rep["probe_s"])


def timed_run(harness, workload, seed, seconds, prepared, checker) -> dict:
    result = harness.command(workload.argv(seed, prepared), workload.setup_scenario,
                             seconds, MIN_REPS)
    while len(harness.setup_samples) < SETUP_RUNS:
        harness.setup_time(workload.setup_scenario)
    reps = result["reps"]
    metrics = {
        "drops_per_s": statistics.median(throughput(workload.drops, r) for r in reps),
        "cpu_ms_per_drop": statistics.median(calibrated(r["cpu_s"], r["probe_s"]) * 1e3
                                             / workload.drops for r in reps),
        "setup_s": statistics.median(calibrated(*sample) for sample in harness.setup_samples),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    for rep in reps:
        checker.check(rep)
    return metrics


def traced_rep_batches(directory: Path) -> dict:
    """{repetition: [its own spans, then its pool workers' span batches]}."""
    by_rep: dict = {}
    for tag, spans in load_batches(directory / "spans-main.jsonl"):
        by_rep[tag] = [spans]
    for path in sorted(directory.glob("spans-*.jsonl")):
        if path.name != "spans-main.jsonl":
            for tag, spans in load_batches(path):
                by_rep[tag].append(spans)
    return by_rep


def traced_run(harness, workload, seed, seconds, prepared, checker) -> dict:
    argv = workload.argv(seed, prepared)
    untraced = harness.command(argv, workload.setup_scenario, seconds / 2, MIN_REPS)
    traced = harness.command(argv, workload.setup_scenario, seconds / 2, MIN_REPS, trace=True)
    by_rep = traced_rep_batches(traced["dir"])
    per_rep = []
    for idx, rep in enumerate(traced["reps"]):
        batches = by_rep[idx]
        residual = layers.self_time_residual_ns(batches)
        per_rep.append(layers.command_metrics(batches, set(traced["installed"]), workload.drops,
                                              prepared["rows"]))
        checker.check(rep, [f"layer self times miss the wall time by {residual} ns"]
                      if residual else [])
    for rep in untraced["reps"]:
        checker.check(rep)

    metrics = {}
    for name in per_rep[0]:
        values = [m[name] for m in per_rep if m[name] is not None]
        if values:
            metrics[name] = statistics.median(values)
    traced_dps = statistics.median(throughput(workload.drops, r) for r in traced["reps"])
    untraced_dps = statistics.median(throughput(workload.drops, r) for r in untraced["reps"])
    metrics["trace.overhead_pct"] = 100.0 * (untraced_dps / traced_dps - 1.0)

    emit = harness.step({"mode": "emit", "scenario": "28GHz-NLOS", "distance": "5:45",
                         "drops": EMIT_DROPS, "seed": seed, "repeats": EMIT_REPEATS,
                         "out_dir": "{dir}"}, "emit")
    for fmt in ("jsonl", "pdp", "pas"):
        if fmt in emit:
            metrics[f"campaign.emit_us_per_drop.{fmt}"] = emit[fmt]["seconds"] * 1e6 / EMIT_DROPS
            metrics[f"campaign.bytes_per_drop.{fmt}"] = emit[fmt]["bytes"] / EMIT_DROPS
    for fmt in ("summary", "cdf"):
        if fmt in emit:
            metrics[f"campaign.emit_ms.{fmt}"] = emit[fmt]["seconds"] * 1e3

    rates, records = {}, {}
    for workers in (1, FANOUT_WORKERS):
        result = harness.command(fanout_argv(seed, workers), "140GHz-LOS", 0, MIN_REPS)
        rates[workers] = statistics.median(throughput(FANOUT_DROPS, r) for r in result["reps"])
        records[workers] = {r.get("records_sha256") for r in result["reps"]}
    metrics["campaign.fanout_efficiency"] = rates[FANOUT_WORKERS] / (FANOUT_WORKERS * rates[1])
    checker.attempted += 1
    if len(records[1]) != 1 or records[1] != records[FANOUT_WORKERS]:
        checker.errors.append(f"fan-out records differ from one worker's: {records}")

    imports = [layers.parse_importtime(harness.import_times()) for _ in range(SETUP_RUNS)]
    for package in ("tcslsim", "scipy"):
        metrics[f"setup.import_ms.{package}"] = statistics.median(i[package] for i in imports)
    return metrics


def record(recorded: dict, name: str, seed: int, digests: dict, content: tuple) -> None:
    recorded["content_hash"], recorded["content_digests"] = content[0], content[1]
    recorded["workloads"].setdefault(name, {})[str(seed)] = digests
    RECORDED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests in recorded.json as the reference")
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "tcslsim" / "__init__.py").is_file():
        print(f"error: no tcslsim sources under {root / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    recorded = load_recorded()
    expected = None if args.record else (
        recorded["workloads"].get(workload.name, {}).get(str(args.seed)))

    (root / ".bench_build").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=root / ".bench_build"))
    try:
        harness = Harness(root, work)
        # first, so that it also compiles the bytecode before any timing
        checker = Checker(workload, {}, expected)
        content = check_content_hash(harness, recorded, checker)
        checker.prepared = workload.prepare(harness, args.seed)
        run = traced_run if args.trace else timed_run
        metrics = run(harness, workload, args.seed, args.seconds, checker.prepared, checker)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = layers.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for error in checker.errors:
        print(f"FAILED {error}")
    if recorded["content_hash"] is None:
        status = "not recorded"
    else:
        status = "matches recorded" if content[0] == recorded["content_hash"] else "MISMATCH"
    print(f"content_hash {content[0]} ({status})")
    if expected is None or args.record:
        for label, digest in content[1].items():
            print(f"  drops.jsonl {label} {digest}")
    for key, value in (checker.digests or {}).items():
        print(f"digest {workload.name}.{key} {value}")
    for name, value in metrics.items():
        print(f"{workload.name} {name} {value:.6g} {units[name]}")
    if args.record and not checker.errors:
        record(recorded, workload.name, args.seed, checker.digests, content)

    failed = len(checker.errors)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
