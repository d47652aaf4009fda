"""Per-layer metrics from the spans of one traced invocation.

A span's self time is its duration minus the part of its interval that its
child spans cover. Children opened in the two pool threads of a build
overlap, so their union is taken. Spans of different pool threads overlap
too, so a layer's self time summed over threads is thread time, and the
self times of a traced run can add up to more than its wall time.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

# per-layer metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "sampler.accumulate_s": ("sampler.accumulate_block",),
    "sampler.coins_s": ("sampler.live_rows",),
    "sampler.label_s": ("sampler.connected_components",),
    "sampler.build_s": ("sampler.build_ensemble",),
    "sampler.insert_s": ("sampler.add_edge_incremental",),
    "sampler.write_access_csv_s": ("sampler.write_access_csv",),
    "heuristics.select_s": ("heuristics.select",),
    "heuristics.loop_s": ("heuristics.run_augmentation",),
    "evaluation.bundle_s": ("evaluation.metrics_bundle",),
    "evaluation.signature_s": ("evaluation.signature_distances",),
    "advantage.report_s": ("advantage.advantage_report", "advantage.write_advantage_csv"),
    "advantage.control_s": ("advantage.access_centrality",),
    "graphs.load_s": ("graphs.load_edge_list", "graphs.largest_connected_component"),
    "graphs.write_edges_s": ("graphs.write_edge_list",),
    "cli.self_s": ("cli.main", "cli.on_step"),
    "trace.hook_s": ("trace.hook",),
}

COUNT_METRICS = (
    "sampler.build_calls",
    "sampler.blocks",
    "sampler.rows_fragmented",
    "sampler.rows_giant",
    "sampler.live_edges",
    "sampler.pair_updates",
    "sampler.insert_calls",
    "sampler.insert_merge_rows",
    "sampler.insert_pair_updates",
    "sampler.access_csv_bytes",
    "heuristics.select_calls",
    "evaluation.bundles",
    "advantage.control_builds",
)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


def _percentile(values: list[float], q: int) -> float:
    """q-th percentile (linear interpolation); 0.0 when there are no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Self times (s), exact counts and step percentiles of one traced run."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def parent_name(s):
        p = by_id.get(s["parent"])
        return p["name"] if p else None

    out: dict[str, float] = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(selfs[s["id"]] for name in names for s in by_name[name])

    builds = by_name["sampler.build_ensemble"]
    blocks = by_name["sampler.accumulate_block"]
    inserts = by_name["sampler.add_edge_incremental"]
    out["sampler.build_calls"] = len(builds)
    out["sampler.blocks"] = len(blocks)
    out["sampler.rows_giant"] = sum(s["rows_giant"] for s in blocks)
    out["sampler.rows_fragmented"] = sum(s["rows"] - s["rows_giant"] for s in blocks)
    out["sampler.live_edges"] = sum(
        s["live"] for s in by_name["sampler.live_rows"]
        if parent_name(s) == "sampler.accumulate_block"
    )
    out["sampler.pair_updates"] = sum(s["pair_updates"] for s in blocks)
    out["sampler.insert_calls"] = len(inserts)
    out["sampler.insert_merge_rows"] = sum(s["merge_rows"] for s in inserts)
    out["sampler.insert_pair_updates"] = sum(s["pair_updates"] for s in inserts)
    out["sampler.access_csv_bytes"] = sum(s["bytes"] for s in by_name["sampler.write_access_csv"])
    out["sampler.labels_mb"] = max((s["labels_bytes"] for s in builds), default=0) / 1e6
    out["sampler.counters_mb"] = max((s["counters_bytes"] for s in builds), default=0) / 1e6
    out["heuristics.select_calls"] = len(by_name["heuristics.select"])
    out["evaluation.bundles"] = len(by_name["evaluation.metrics_bundle"])
    out["advantage.control_builds"] = sum(
        1 for s in builds if parent_name(s) == "advantage.access_centrality"
    )

    # one augmentation step runs from the end of one on_step callback to the
    # start of the next, so the callback's bundle and JSON writes are excluded
    steps = sorted(by_name["cli.on_step"], key=lambda s: s["start"])
    step_ms = [(b["start"] - a["end"]) * 1e3 for a, b in zip(steps, steps[1:])]
    out["heuristics.step_ms.p50"] = _percentile(step_ms, 50)
    out["heuristics.step_ms.p90"] = _percentile(step_ms, 90)
    return out


def consistency_problems(spans: list[dict]) -> list[str]:
    """Checks that the trace itself is well formed."""
    problems = []
    if sum(1 for s in spans if s["parent"] is None) != 1:
        problems.append("trace does not have exactly one root span")
    for s in spans:
        if s["name"] == "sampler.accumulate_block" and (
            s["rows"] - s["rows_giant"] != s["rows_fragmented_by_labels"]
        ):
            problems.append(f"block span {s['id']}: sampler and labels disagree on the regime")
    return problems
