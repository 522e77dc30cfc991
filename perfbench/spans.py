"""In-memory span recording and self-time arithmetic.

A span is one call across a layer boundary, kept as the list
``[name, start_ns, end_ns, parent, value]``: ``parent`` is the index of
the enclosing span in the same list (-1 for a root) and ``value`` is an
optional number taken from the call's result by an observer. Spans stay
in memory and are written out after each repetition of the traced
command, outside its timing.

A forked worker process starts with an empty recorder and writes its
spans each time its outermost span closes, because pool workers are
terminated rather than left to exit on their own.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict
from pathlib import Path


class Recorder:
    """Records nested spans for the calls it wraps."""

    def __init__(self, flush_dir: Path | None = None):
        self.spans: list = []
        self.stack: list = []
        self.flush_dir = flush_dir
        self.main_pid = os.getpid()
        self.installed: set = set()
        self.tag = 0  # written with each batch; forked workers inherit it
        os.register_at_fork(after_in_child=self._reset_in_child)

    def _reset_in_child(self):
        self.spans = []
        self.stack = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self.stack[-1] if self.stack else -1, None])
        self.stack.append(idx)
        self.spans[idx][1] = time.perf_counter_ns()
        return idx

    def _close(self, idx: int, value) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        span[4] = value
        self.stack.pop()
        if not self.stack and self.flush_dir is not None and os.getpid() != self.main_pid:
            self.write(self.flush_dir / f"spans-{os.getpid()}.jsonl")
            self.spans = []

    def wrap(self, fn, name: str, observe=None):
        """Return `fn` wrapped so that each call records a span `name`.

        `observe(args, result)` may return a value stored on the span.
        A generator function records one span per item it produces.
        """
        self.installed.add(name)
        rec = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    idx = rec._open(name)
                    try:
                        item = next(items)
                    except StopIteration:
                        rec._close(idx, None)
                        return
                    except BaseException:
                        rec._close(idx, None)
                        raise
                    rec._close(idx, None)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec._close(idx, None)
                raise
            rec._close(idx, observe(args, result) if observe else None)
            return result
        return wrapper

    def write(self, path: Path) -> None:
        """Append this process's spans to `path` as one JSON line."""
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"pid": os.getpid(), "tag": self.tag, "spans": self.spans})
                     + "\n")


def load_batches(path: Path) -> list:
    """Read the (tag, spans) batches of a JSON-lines span file."""
    with open(path, "r", encoding="utf-8") as fh:
        return [(batch["tag"], batch["spans"]) for batch in map(json.loads, fh)]


def self_times(spans: list) -> list:
    """Each span's duration minus the part its direct children cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once, so the result never goes negative.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        run_start = run_end = None
        for j in sorted(children[i], key=lambda k: spans[k][1]):
            lo, hi = max(spans[j][1], start), min(spans[j][2], end)
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def layer_of(name: str) -> str:
    """Layer of a span name such as 'randcore.RandomStream.sample'."""
    return name.split(".", 1)[0]
