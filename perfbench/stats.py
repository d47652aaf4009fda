"""Summaries of repeated measurements and the parent-vs-change verdict.

The verdict follows the benchmark's rules for a change that claims a gain:
at least ten pairs of parent and change runs, alternating which runs first;
a gain needs the change to win at least nine tenths of all pairs (ties count
for neither) and the medians to differ by more than the parent's own
interquartile spread; every other metric must be no worse than the bound
in BENCHMARK.json, and is "unresolved" when the parent's spread is wider
than that bound, unless every change run beats every parent run.
"""
from __future__ import annotations

import statistics

GAIN_WIN_SHARE = 0.9
MIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics.quantiles`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "count": len(values), "samples": list(values)}


def compare_metric(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Verdict for one end-to-end metric from paired runs (pair i = parent[i], change[i])."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    improvement = sign * (pmed - cmed)
    parent_iqr = pq3 - pq1
    worse_share = -improvement / pmed
    spread_share = parent_iqr / pmed
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    gain = (len(parent) >= MIN_PAIRS and wins >= GAIN_WIN_SHARE * len(parent)
            and improvement > parent_iqr)
    if gain:
        verdict = "gain"
    elif spread_share > bound and not all_better:
        verdict = "unresolved"
    elif worse_share > bound:
        verdict = "regression"
    else:
        verdict = "no-regression"
    return {
        "verdict": verdict,
        "pairs": len(parent),
        "wins": wins,
        "losses": losses,
        "ties": len(parent) - wins - losses,
        "parent": {"median": pmed, "q1": pq1, "q3": pq3},
        "change": {"median": cmed, "q1": cq1, "q3": cq3},
        "improvement": improvement,
        "parent_iqr": parent_iqr,
        "worse_share": worse_share,
        "parent_spread_share": spread_share,
        "bound": bound,
    }
