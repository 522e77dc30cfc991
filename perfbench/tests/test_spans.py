"""Span recording and self-time arithmetic."""

import os

import pytest

import layers
from spans import Recorder, load_batches, self_times


def span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("cli.main", 0, 100, -1),
        span("campaign.run_campaign", 10, 40, 0),
        span("generate.generate_drop", 15, 25, 1),
        span("stats.summarize", 50, 90, 0),
    ]
    assert self_times(spans) == [30, 20, 10, 40]
    assert sum(self_times(spans)) == 100


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        span("a.root", 0, 100, -1),
        span("b.x", 10, 50, 0),
        span("b.y", 30, 60, 0),       # overlaps b.x
        span("b.z", 90, 120, 0),      # runs past the parent's end
        span("b.w", 200, 210, 0),     # wholly outside
    ]
    assert self_times(spans)[0] == 100 - (60 - 10) - (100 - 90)
    assert all(t >= 0 for t in self_times(spans))


def test_recorder_nests_calls_and_generator_items():
    rec = Recorder()
    inner = rec.wrap(lambda x: x + 1, "generate.inner")
    items = rec.wrap(_two_items, "generate.items")
    outer = rec.wrap(lambda: [inner(v) for v in items()], "campaign.outer")
    assert outer() == [2, 3]
    names = [s[0] for s in rec.spans]
    assert names.count("generate.items") == 3   # two items and the exhausting call
    assert names.count("generate.inner") == 2
    assert all(s[3] == 0 for s in rec.spans[1:])
    assert all(s[1] <= s[2] for s in rec.spans)
    assert rec.stack == []


def _two_items():
    yield 1
    yield 2


def test_recorder_closes_span_when_call_raises():
    rec = Recorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap(boom, "cli.boom")()
    assert rec.stack == [] and rec.spans[0][2] >= rec.spans[0][1]


def test_written_batches_read_back(tmp_path):
    rec = Recorder()
    rec.wrap(lambda: None, "cli.main", observe=lambda args, result: 7)()
    rec.write(tmp_path / "spans.jsonl")
    rec.tag = 1
    rec.write(tmp_path / "spans.jsonl")
    batches = load_batches(tmp_path / "spans.jsonl")
    assert [tag for tag, _ in batches] == [0, 1] and batches[0][1][0][4] == 7


def test_layer_self_times_add_up_to_the_wall_time():
    main = [
        span("cli.main", 0, 1000, -1),
        span("campaign.run_campaign", 100, 900, 0),
        span("generate.generate_drop", 200, 500, 1),
        span("randcore.RandomStream.sample", 250, 300, 2),
        span("stats.drop_metrics", 600, 700, 1),
    ]
    worker = [span("campaign._record_chunk", 0, 400, -1),
              span("generate.generate_drop", 10, 300, 0)]
    installed = {s[0] for s in main + worker}
    metrics = layers.command_metrics([main, worker], installed, drops=2, rows=0)
    layer_total = sum(metrics[f"{layer}.self_ms"] for layer in layers.LAYERS)
    assert layer_total == pytest.approx(metrics["trace.wall_ms"])
    assert layers.self_time_residual_ns([main, worker]) == 0
    assert metrics["generate.calls_per_drop"] == 1.0
    assert metrics["campaign.self_ms"] == pytest.approx((800 - 300 - 100) / 1e6)
    # per-drop figures include the worker's drop, self times only the main process
    assert metrics["generate.self_us_per_drop"] == pytest.approx((250 + 290) / 2 / 1e3)
    assert metrics["stats.summarize_ms"] is None  # never wrapped: absent


def test_parse_importtime_takes_outermost_package_entries():
    # (depth, self us, cumulative us, module), in -X importtime's post-order
    entries = [
        (3, 100, 100, "scipy._lib"),
        (2, 200, 300, "scipy"),
        (3, 50, 50, "scipy.special._ufuncs"),
        (2, 70, 120, "scipy.special"),
        (2, 10, 10, "numpy"),
        (1, 30, 460, "tcslsim.randcore"),
        (0, 40, 500, "tcslsim"),
        (0, 20, 20, "tcslsim.cli"),
    ]
    stderr = "import time: self [us] | cumulative | imported package\n" + "\n".join(
        f"import time: {own:>9} | {cum:>10} | {'  ' * depth}{name}"
        for depth, own, cum, name in entries)
    totals = layers.parse_importtime(stderr)
    assert totals["scipy"] == pytest.approx((300 + 120) / 1e3)
    assert totals["tcslsim"] == pytest.approx((500 + 20) / 1e3)


def test_forked_child_starts_with_no_spans(tmp_path):
    rec = Recorder(flush_dir=tmp_path)
    work = rec.wrap(lambda: os.getpid(), "campaign._record_chunk")
    work()
    pid = os.fork()
    if pid == 0:
        try:
            work()
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    batches = load_batches(tmp_path / f"spans-{pid}.jsonl")
    assert len(batches) == 1 and len(batches[0][1]) == 1
    assert len(rec.spans) == 1   # the parent keeps its own span only
