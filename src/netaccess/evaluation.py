"""Evaluation reports: advantage gaps, distribution summaries, signature
distances, and the metric bundle that gathers them for one estimate."""
from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from .advantage import broadcast_all, influence_all, welfare
from .sampler import AccessEstimate, triu_bands

logger = logging.getLogger(__name__)

SIGNATURE_WARN_NODES = 2000


@dataclass(frozen=True)
class GapReport:
    """Max-min spread of a per-node measure. ``relative`` is None when the
    minimum is zero (undefined)."""

    name: str
    absolute: float
    relative: float | None
    argmin: int
    argmax: int


@dataclass(frozen=True)
class DistributionSummary:
    count: int
    minimum: float
    p1: float
    p5: float
    p25: float
    p50: float
    p75: float
    p95: float
    p99: float
    maximum: float
    mean: float


def gap_report(values: np.ndarray, name: str) -> GapReport:
    """Absolute (max-min) and relative ((max-min)/min) gaps with
    lexicographically smallest arg ties."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("gap report needs at least 2 values")
    amin = int(np.argmin(values))
    amax = int(np.argmax(values))
    lo = float(values[amin])
    hi = float(values[amax])
    absolute = hi - lo
    relative = (absolute / lo) if lo > 0 else None
    return GapReport(name=name, absolute=absolute, relative=relative, argmin=amin, argmax=amax)


def distribution_summary(values: np.ndarray) -> DistributionSummary:
    """Percentiles by linear interpolation on the sorted multiset."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot summarize an empty multiset")
    qs = np.percentile(values, [1, 5, 25, 50, 75, 95, 99], method="linear")
    return DistributionSummary(
        count=int(values.size),
        minimum=float(values.min()),
        p1=float(qs[0]),
        p5=float(qs[1]),
        p25=float(qs[2]),
        p50=float(qs[3]),
        p75=float(qs[4]),
        p95=float(qs[5]),
        p99=float(qs[6]),
        maximum=float(values.max()),
        mean=float(values.mean()),
    )


def signature_distances(
    est: AccessEstimate,
    metric: str = "L1",
    sample_pairs: int | None = None,
    seed: int = 0,
) -> tuple[DistributionSummary, tuple[int, int], float]:
    """Pairwise distances between access signatures (full p rows).

    Exact mode compares all C(n,2) pairs, an O(n^3) pass; above
    ``SIGNATURE_WARN_NODES`` nodes a cost warning is logged and
    ``sample_pairs`` offers a seeded uniform pair sample instead. Returns
    (summary, lexicographically smallest max pair, max distance).
    """
    if metric not in ("L1", "L2"):
        raise ValueError(f"metric must be L1 or L2, got {metric!r}")
    n = est.n
    p = est.counters / float(est.R)
    scipy_metric = "cityblock" if metric == "L1" else "euclidean"
    if sample_pairs is not None:
        rng = np.random.default_rng([seed, 0x7369676E])
        iu = np.empty(sample_pairs, dtype=np.int64)
        ju = np.empty(sample_pairs, dtype=np.int64)
        for t in range(sample_pairs):
            a = int(rng.integers(n))
            b = int(rng.integers(n - 1))
            if b >= a:
                b += 1
            iu[t], ju[t] = min(a, b), max(a, b)
        diffs = p[iu] - p[ju]
        if metric == "L1":
            d = np.abs(diffs).sum(axis=1)
        else:
            d = np.sqrt((diffs * diffs).sum(axis=1))
        best = int(np.argmax(d))
        return distribution_summary(d), (int(iu[best]), int(ju[best])), float(d[best])
    if n > SIGNATURE_WARN_NODES:
        logger.warning(
            "signature distances on n=%d nodes is an O(n^3) computation; "
            "consider sample_pairs mode",
            n,
        )
    # imported here: scipy.spatial costs every command ~7 MB at start-up
    from scipy.spatial.distance import pdist

    d = pdist(p, metric=scipy_metric)
    best = int(np.argmax(d))
    # condensed index -> (i, j) with i < j, row-major, so the first argmax
    # is the lexicographically smallest maximizing pair
    i = int(n - 2 - np.floor(np.sqrt(-8 * best + 4 * n * (n - 1) - 7) / 2.0 - 0.5))
    j = int(best + i + 1 - n * (n - 1) // 2 + (n - i) * ((n - i) - 1) // 2)
    return distribution_summary(d), (i, j), float(d[best])


def metrics_bundle(
    est: AccessEstimate,
    orig_ids: np.ndarray,
    config_echo: dict,
    k: int = 0,
    signature_metric: str = "L1",
    sample_pairs: int | None = None,
    seed: int = 0,
) -> dict:
    """One JSON-ready evaluation snapshot for an estimate."""
    b = broadcast_all(est)
    infl = influence_all(est)
    w, pair = welfare(est)
    gb = gap_report(b, "broadcast")
    gi = gap_report(infl, "influence")
    # one expression, so the all-pairs values are freed before the
    # signature distances allocate theirs
    access_summary = asdict(distribution_summary(np.concatenate(
        [est.counters[lo:hi][mask] / float(est.R) for lo, hi, mask in triu_bands(est.n)]
    )))
    sig_summary, sig_pair, sig_max = signature_distances(
        est, metric=signature_metric, sample_pairs=sample_pairs, seed=seed
    )

    def gap_dict(gr: GapReport) -> dict:
        return {
            "absolute": gr.absolute,
            "relative": gr.relative,
            "argmin_node": int(orig_ids[gr.argmin]),
            "argmax_node": int(orig_ids[gr.argmax]),
        }

    return {
        "config": config_echo,
        "k": k,
        "welfare": {
            "value": w,
            "pair": [int(orig_ids[pair[0]]), int(orig_ids[pair[1]])],
        },
        "min_broadcast": float(b.min()),
        "min_influence": float(infl.min()),
        "gaps": {"broadcast": gap_dict(gb), "influence": gap_dict(gi)},
        "access_distribution": access_summary,
        "signature_distance": {
            "metric": signature_metric,
            "sampled_pairs": sample_pairs,
            "summary": asdict(sig_summary),
            "max_pair": [int(orig_ids[sig_pair[0]]), int(orig_ids[sig_pair[1]])],
            "max_value": sig_max,
        },
    }
