"""One benchmark step in a fresh interpreter.

Usage: python child.py SPEC.json

SPEC.json holds {"mode": ..., "result": path, ...}; the step writes its
findings as JSON to `result`. Modes:

command  set the CLI up, then time repetitions of
         `tcslsim.cli.main(argv)`; with "trace" set, record spans at
         every layer boundary
setup    only set the CLI up
hash     write canonical drops.jsonl files through the CLI and hash them
emit     time `emit_outputs` for one format at a time on pre-built drops

The set-up point is recorded on CLOCK_MONOTONIC, which the parent
process shares, so the parent can measure set-up from the moment it
started this interpreter.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import sha256_file


def _cpu_s(who=resource.RUSAGE_SELF) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def probe_s() -> float:
    """Seconds one pass of a fixed calibration loop takes right now.

    The loop mixes what tcslsim spends its time on (small numpy calls,
    dict and string work, sha256 and a 360x181 grid) but runs no
    tcslsim code, so a change to the program cannot move it while
    another tenant's load on the machine moves both alike.
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0.0
    x = np.arange(64.0)
    grid = np.zeros((360, 181))
    for i in range(2000):
        acc += float(np.sqrt(x + i).sum())
        grid[i % 360, i % 181] += 1.0
        item = {"a": i, "b": [i, i + 1]}
        acc += item["a"] + len(str(i)) + len(hashlib.sha256(b"%d" % i).digest())
    acc += float((grid > 0).sum())
    return time.perf_counter() - start


def _ready(scenario: str):
    """Import the CLI and resolve a configuration: the set-up a user
    pays before the first drop."""
    import tcslsim.cli as cli
    from tcslsim.scenario import Scenario, SimConfig, resolved_params, validate_config

    resolved_params(validate_config(SimConfig(scenario=Scenario.parse(scenario))))
    return cli


def _cpu_with_children_s() -> float:
    return _cpu_s() + _cpu_s(resource.RUSAGE_CHILDREN)


def run_command(spec: dict) -> dict:
    """Call `cli.main` repeatedly, each repetition in its own directory
    ("{rep}" in argv), until `seconds` have passed and at least
    `min_reps` repetitions are done."""
    cli = _ready(spec["setup_scenario"])
    ready = time.monotonic()
    probes = [probe_s()]

    recorder = None
    if spec["trace"]:
        import layers
        from spans import Recorder

        recorder = Recorder(flush_dir=Path(spec["dir"]))
        layers.install(recorder)
    main = cli.main

    captured = {}
    for name in ("reproduce_report", "run_campaign"):
        original = getattr(cli, name)

        def capture(*args, _original=original, _name=name, **kwargs):
            captured[_name] = result = _original(*args, **kwargs)
            return result
        setattr(cli, name, capture)

    reps = []
    while len(reps) < spec["min_reps"] or time.monotonic() - ready < spec["seconds"]:
        rep_dir = Path(spec["dir"]) / f"rep{len(reps)}"
        rep_dir.mkdir()
        argv = [a.replace("{rep}", str(rep_dir)) for a in spec["argv"]]
        captured.clear()
        if recorder is not None:
            recorder.tag = len(reps)
        out = io.StringIO()
        cpu_start = _cpu_with_children_s()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = main(argv)
        run_s = time.perf_counter() - start
        cpu_s = _cpu_with_children_s() - cpu_start

        probes.append(probe_s())
        (rep_dir / "stdout.txt").write_text(out.getvalue())
        rep = {"rc": rc, "run_s": run_s, "cpu_s": cpu_s, "dir": str(rep_dir),
               "probe_s": (probes[-2] + probes[-1]) / 2}
        if "reproduce_report" in captured:
            rep["report"] = captured["reproduce_report"].to_dict()
        if "run_campaign" in captured:
            records = [dataclasses.astuple(r) for r in captured["run_campaign"].records]
            rep["records_sha256"] = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        if recorder is not None:
            recorder.write(Path(spec["dir"]) / "spans-main.jsonl")
            recorder.spans = []
        reps.append(rep)

    # the larger of this process and its largest reaped child, in KiB
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {"ready_monotonic": ready, "probe_s": probes[0], "peak_rss_mb": peak_kib / 1024,
           "reps": reps}
    if recorder is not None:
        out["installed"] = sorted(recorder.installed)
    return out


def run_setup(spec: dict) -> dict:
    _ready(spec["setup_scenario"])
    ready = time.monotonic()
    return {"ready_monotonic": ready, "probe_s": probe_s()}


def run_hash(spec: dict) -> dict:
    """Digest of the canonical drops.jsonl of each configuration."""
    cli = _ready("28GHz-LOS")
    ready = time.monotonic()
    probe = probe_s()
    digests = {}
    for label, argv in spec["configs"]:
        out_dir = Path(spec["out_dir"]) / label
        rc = cli.main(["generate", *argv, "--format", "jsonl", "--out-dir", str(out_dir)])
        if rc != 0:
            raise SystemExit(f"generate {argv} exited {rc}")
        digests[label] = sha256_file(out_dir / "drops.jsonl")
    return {"ready_monotonic": ready, "probe_s": probe, "digests": digests}


def run_emit(spec: dict) -> dict:
    """Median time and size of each output format on pre-built drops.

    Returns {} when this version of tcslsim no longer offers the calls
    used here; the metrics are then absent.
    """
    _ready(spec["scenario"])
    try:
        from tcslsim.campaign import emit_outputs, run_campaign
        from tcslsim.generate import generate_drops
        from tcslsim.scenario import Scenario, SimConfig, validate_config

        low, high = (float(x) for x in spec["distance"].split(":"))
        config = validate_config(SimConfig(
            scenario=Scenario.parse(spec["scenario"]), distance_m=(low, high),
            num_drops=spec["drops"], master_seed=spec["seed"]))
        result = run_campaign(config)
        drops = list(generate_drops(config))
        out = {}
        for fmt in ("jsonl", "pdp", "pas", "summary", "cdf"):
            times = []
            for rep in range(spec["repeats"]):
                out_dir = Path(spec["out_dir"]) / f"{fmt}-{rep}"
                start = time.perf_counter()
                paths = emit_outputs(result, drops, out_dir=out_dir, outputs=(fmt,))
                times.append(time.perf_counter() - start)
            out[fmt] = {"seconds": statistics.median(times), "bytes": paths[fmt].stat().st_size}
    except (ImportError, TypeError) as exc:
        print(f"emission metrics absent: {exc!r}", file=sys.stderr)
        return {}
    return out


MODES = {"command": run_command, "setup": run_setup, "hash": run_hash, "emit": run_emit}


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = MODES[spec["mode"]](spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
