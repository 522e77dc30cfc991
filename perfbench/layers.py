"""Where the traced run records spans in tcslsim, and the per-layer
metrics it derives from them.

The layers are the modules of ``src/tcslsim``. A span is recorded around
every call from one module into a function of another, at the name the
caller looks up: ``campaign`` binds ``drop_metrics`` at import, so the
wrapper replaces ``campaign.drop_metrics``. Calls inside one module stay
unwrapped; their time is that layer's self time. A few more entry points
are wrapped by hand (`EXTRA_FUNCTIONS`, `METHODS`). A name a later
version no longer has is skipped, and the metrics that need it are
reported as absent.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict

from spans import layer_of, self_times

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS = {
    "randcore.streams_per_drop": "count",
    "randcore.sample_calls_per_drop": "count",
    "randcore.uniforms_per_drop": "count",
    "randcore.self_us_per_drop": "us",
    "randcore.self_ms": "ms",
    "generate.drop_us.p50": "us",
    "generate.drop_us.p99": "us",
    "generate.drop_us.n": "count",
    "generate.self_us_per_drop": "us",
    "generate.calls_per_drop": "count",
    "generate.subpaths_per_drop": "count",
    "generate.self_ms": "ms",
    "pathloss.link_budget_us_per_drop": "us",
    "pathloss.self_ms": "ms",
    "stats.drop_metrics_us_per_drop": "us",
    "stats.summarize_ms": "ms",
    "stats.build_pas_us_per_grid": "us",
    "stats.self_ms": "ms",
    "campaign.emit_us_per_drop.jsonl": "us",
    "campaign.emit_us_per_drop.pdp": "us",
    "campaign.emit_us_per_drop.pas": "us",
    "campaign.emit_ms.summary": "ms",
    "campaign.emit_ms.cdf": "ms",
    "campaign.bytes_per_drop.jsonl": "count",
    "campaign.bytes_per_drop.pdp": "count",
    "campaign.bytes_per_drop.pas": "count",
    "campaign.fanout_efficiency": "ratio",
    "campaign.self_ms": "ms",
    "analysis.partition_us_per_drop": "us",
    "analysis.lobes_us_per_grid": "us",
    "analysis.fit_ms": "ms",
    "analysis.clusters_per_drop": "count",
    "analysis.lobes_per_grid": "count",
    "analysis.self_ms": "ms",
    "scenario.self_ms": "ms",
    "cli.parse_us_per_row": "us",
    "cli.self_ms": "ms",
    "setup.import_ms.tcslsim": "ms",
    "setup.import_ms.scipy": "ms",
    "trace.wall_ms": "ms",
    "trace.overhead_pct": "%",
}

LAYERS = ("randcore", "pathloss", "generate", "stats", "campaign", "analysis",
          "cli", "scenario")

# (module, name) of same-module calls that are layer entry points too:
# the traced root, the worker root of the fork pool, the regeneration in
# generate_drops and the CSV parsing in analyze.
EXTRA_FUNCTIONS = (
    ("cli", "main"),
    ("cli", "_analyze_pdp"),
    ("cli", "_analyze_pas"),
    ("campaign", "_record_chunk"),
    ("generate", "generate_drop"),
)

# (module, class, method) called from other modules.
METHODS = (
    ("randcore", "RandomStream", "__init__"),
    ("randcore", "RandomStream", "uniform"),
    ("randcore", "RandomStream", "sample"),
    ("randcore", "StreamFamily", "substream"),
)


def uniforms_for_drop(num_clusters: int, num_subpaths: int, num_aod_lobes: int,
                      num_aoa_lobes: int, ranged_distance: bool) -> int:
    """Uniform draws one drop consumes, from its structure alone.

    One uniform per variate: the distance (ranged configs only), the
    shadow fading, the cluster count, three per cluster (subpath count,
    cluster delay, cluster power), nine per subpath (intra delay,
    subpath power, phase and six lobe-pick/offset draws), the two lobe
    counts and two per lobe (azimuth, elevation).
    """
    return (int(ranged_distance) + 2 + 3 * num_clusters + 9 * num_subpaths
            + 2 + 2 * (num_aod_lobes + num_aoa_lobes))


def _observe_drop(args, drop):
    config = args[0]
    return [drop.num_subpaths, uniforms_for_drop(
        drop.num_clusters, drop.num_subpaths, len(drop.aod_lobes), len(drop.aoa_lobes),
        config.distance_range() is not None)]


OBSERVERS = {
    "generate.generate_drop": _observe_drop,
    "analysis.partition_time_clusters": lambda args, part: part.num_clusters,
    "analysis.extract_spatial_lobes": lambda args, lobes: lobes.num_lobes,
}


def install(recorder) -> None:
    """Wrap every layer boundary of tcslsim with spans of `recorder`."""
    modules = {name: importlib.import_module(f"tcslsim.{name}") for name in LAYERS}
    wrapped: dict = {}

    def wrapper_for(fn):
        if id(fn) not in wrapped:
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
            wrapped[id(fn)] = recorder.wrap(fn, name, OBSERVERS.get(name))
        return wrapped[id(fn)]

    for mod_name, module in modules.items():
        for attr, value in list(vars(module).items()):
            if (callable(value) and not isinstance(value, type)
                    and getattr(value, "__module__", "").startswith("tcslsim.")
                    and value.__module__ != module.__name__):
                setattr(module, attr, wrapper_for(value))
    for mod_name, attr in EXTRA_FUNCTIONS:
        module = modules[mod_name]
        if hasattr(module, attr):
            setattr(module, attr, wrapper_for(getattr(module, attr)))
    for mod_name, cls_name, attr in METHODS:
        cls = getattr(modules[mod_name], cls_name, None)
        if cls is not None and attr in vars(cls):
            setattr(cls, attr, wrapper_for(vars(cls)[attr]))


def _percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def command_metrics(batches: list, installed: set, drops: int, rows: int) -> dict:
    """Per-layer metrics of one traced command.

    `batches[0]` holds the spans of the command's own process; later
    batches come from fork-pool workers. Layer self times (`*.self_ms`)
    cover the command's process only, so together they add up to its
    wall time; the per-drop and per-call figures include the workers.
    Returns {metric: value or None}, None marking an absent metric.
    """
    count = defaultdict(int)
    total = defaultdict(int)          # summed duration per span name, ns
    name_self = defaultdict(int)      # summed self time per span name, all processes
    main_self = defaultdict(int)      # self time per layer, command process only
    drop_ns = []
    values = defaultdict(list)
    for b, spans in enumerate(batches):
        for span, own in zip(spans, self_times(spans)):
            name = span[0]
            count[name] += 1
            total[name] += span[2] - span[1]
            name_self[name] += own
            if b == 0:
                main_self[layer_of(name)] += own
            if name == "generate.generate_drop":
                drop_ns.append(span[2] - span[1])
            if span[4] is not None:
                values[name].append(span[4])

    layer_self = defaultdict(int)
    for name, own in name_self.items():
        layer_self[layer_of(name)] += own

    def have(*names):
        return all(n in installed for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    gen = count["generate.generate_drop"]
    drop_values = values["generate.generate_drop"]
    drop_us = [d / 1e3 for d in drop_ns]
    root = batches[0][0] if batches and batches[0] else None
    analyze_parse = ("cli._analyze_pdp", "cli._analyze_pas")
    fits = ("analysis.fit_poisson_shifted", "analysis.compare_distributions")

    metrics = {
        "randcore.streams_per_drop": ratio(count["randcore.RandomStream.__init__"], gen)
        if have("randcore.RandomStream.__init__") else None,
        "randcore.sample_calls_per_drop": ratio(count["randcore.RandomStream.sample"], gen)
        if have("randcore.RandomStream.sample") else None,
        "randcore.uniforms_per_drop": ratio(sum(v[1] for v in drop_values), gen),
        "randcore.self_us_per_drop": ratio(layer_self["randcore"], gen) / 1e3,
        "generate.drop_us.p50": statistics.median(drop_us) if drop_us else 0.0,
        "generate.drop_us.p99": _percentile(drop_us, 0.99) if drop_us else 0.0,
        "generate.drop_us.n": gen,
        "generate.self_us_per_drop": ratio(layer_self["generate"], gen) / 1e3,
        "generate.calls_per_drop": ratio(gen, drops),
        "generate.subpaths_per_drop": ratio(sum(v[0] for v in drop_values), gen),
        "pathloss.link_budget_us_per_drop": ratio(layer_self["pathloss"], gen) / 1e3
        if have("pathloss.link_budget") else None,
        "stats.drop_metrics_us_per_drop": ratio(total["stats.drop_metrics"],
                                                count["stats.drop_metrics"]) / 1e3
        if have("stats.drop_metrics") else None,
        "stats.summarize_ms": total["stats.summarize"] / 1e6
        if have("stats.summarize") else None,
        "stats.build_pas_us_per_grid": ratio(total["stats.build_pas"],
                                             count["stats.build_pas"]) / 1e3
        if have("stats.build_pas") else None,
        "analysis.partition_us_per_drop": ratio(total["analysis.partition_time_clusters"],
                                                count["analysis.partition_time_clusters"]) / 1e3
        if have("analysis.partition_time_clusters") else None,
        "analysis.lobes_us_per_grid": ratio(total["analysis.extract_spatial_lobes"],
                                            count["analysis.extract_spatial_lobes"]) / 1e3
        if have("analysis.extract_spatial_lobes") else None,
        "analysis.fit_ms": sum(total[n] for n in fits) / 1e6 if have(*fits) else None,
        "analysis.clusters_per_drop": ratio(sum(values["analysis.partition_time_clusters"]),
                                            len(values["analysis.partition_time_clusters"]))
        if have("analysis.partition_time_clusters") else None,
        "analysis.lobes_per_grid": ratio(sum(values["analysis.extract_spatial_lobes"]),
                                         len(values["analysis.extract_spatial_lobes"]))
        if have("analysis.extract_spatial_lobes") else None,
        "cli.parse_us_per_row": ratio(sum(name_self[n] for n in analyze_parse), rows) / 1e3
        if have(*analyze_parse) else None,
        "trace.wall_ms": (root[2] - root[1]) / 1e6 if root else 0.0,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = main_self[layer] / 1e6
    return metrics


def self_time_residual_ns(batches: list) -> int:
    """Root duration minus the summed self times of the command's
    process; zero when every span nests inside the root."""
    spans = batches[0]
    return (spans[0][2] - spans[0][1]) - sum(self_times(spans))


def parse_importtime(stderr: str) -> dict:
    """Cumulative import times (ms) from `python -X importtime` output.

    'tcslsim' is the total of the outermost tcslsim modules, 'scipy' of
    the outermost scipy modules wherever they are imported from.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, int(cumulative), name.strip()))
    totals = {"tcslsim": 0.0, "scipy": 0.0}
    path: list = []
    for depth, cumulative, name in reversed(entries):  # parents precede children
        del path[depth:]
        for package in totals:
            own = name == package or name.startswith(package + ".")
            if own and not any(a == package or a.startswith(package + ".") for a in path):
                totals[package] += cumulative / 1e3
        path.append(name)
    return totals
