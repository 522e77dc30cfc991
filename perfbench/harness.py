"""Runs benchmark steps in fresh interpreters inside a work directory."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 120


class ChildFailed(RuntimeError):
    pass


class Harness:
    """Starts child interpreters that import tcslsim from `src` only."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.src = root / "src"
        self.work = work
        self.env = dict(os.environ)
        self.env.pop("TCSLSIM_OUT_DIR", None)
        self.env["PYTHONPATH"] = str(self.src)
        self._serial = 0
        self.setup_samples: list = []   # (set-up s, probe s) of every step that reports one

    def new_dir(self, tag: str) -> Path:
        self._serial += 1
        path = self.work / f"{self._serial:04d}-{tag}"
        path.mkdir(parents=True)
        return path

    def run(self, argv: list, cwd: Path) -> tuple:
        """Run `argv` to completion; returns (monotonic start, stdout, stderr)."""
        with open(cwd / "stdout.txt", "w") as out, open(cwd / "stderr.txt", "w") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=cwd)
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        stdout = (cwd / "stdout.txt").read_text()
        stderr = (cwd / "stderr.txt").read_text()
        if proc.returncode != 0:
            raise ChildFailed(f"{' '.join(map(str, argv[1:]))} exited {proc.returncode}:\n"
                              f"{stderr[-2000:]}")
        return start, stdout, stderr

    def step(self, spec: dict, tag: str) -> dict:
        """Run one child.py step in a new directory and return its result,
        with the directory, the step's stdout and, for a command, its
        set-up time. "{dir}" in the spec's strings and lists of strings
        stands for that directory."""
        cwd = self.new_dir(tag)

        def fill(value):
            if isinstance(value, str):
                return value.replace("{dir}", str(cwd))
            if isinstance(value, list):
                return [fill(v) for v in value]
            return value

        spec = {key: fill(value) for key, value in spec.items()}
        spec["result"] = str(cwd / "result.json")
        (cwd / "spec.json").write_text(json.dumps(spec))
        start, stdout, _ = self.run([sys.executable, str(CHILD), str(cwd / "spec.json")], cwd)
        result = json.loads((cwd / "result.json").read_text())
        result.update(dir=cwd, stdout=stdout)
        if "ready_monotonic" in result:
            result["setup_s"] = result["ready_monotonic"] - start
            self.setup_samples.append((result["setup_s"], result["probe_s"]))
        return result

    def command(self, argv: list, setup_scenario: str, seconds: float, min_reps: int,
                trace: bool = False) -> dict:
        """Time repetitions of `tcslsim.cli.main(argv)` in one fresh
        interpreter; "{rep}" in argv stands for each repetition's own
        directory. Each repetition in result["reps"] carries its directory
        and captured stdout."""
        result = self.step({"mode": "command", "argv": argv, "setup_scenario": setup_scenario,
                            "seconds": seconds, "min_reps": min_reps, "trace": trace,
                            "dir": "{dir}"}, "trace" if trace else "cmd")
        for rep in result["reps"]:
            rep["dir"] = Path(rep["dir"])
            rep["stdout"] = (rep["dir"] / "stdout.txt").read_text()
        return result

    def setup_time(self, setup_scenario: str) -> float:
        """Seconds from starting an interpreter until the CLI is set up."""
        return self.step({"mode": "setup", "setup_scenario": setup_scenario}, "setup")["setup_s"]

    def import_times(self) -> str:
        """stderr of `python -X importtime -c 'import tcslsim.cli'`."""
        cwd = self.new_dir("importtime")
        _, _, stderr = self.run([sys.executable, "-X", "importtime", "-c", "import tcslsim.cli"],
                                cwd)
        return stderr
