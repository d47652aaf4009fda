"""Evaluation reports: advantage gaps, distribution summaries, signature
distances, and the metric bundle that gathers them for one estimate.

Signature distances read counter rows in bands of ``_bands.band_rows(n)``
rows, n float64 cells each (the cdist bands of a cached update and the
chunks of sampled pairs), so their buffers hold about ``_bands.CELLS``
cells whatever n is."""
from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from ._bands import band_rows
from .advantage import broadcast_all, influence_all, welfare
from .sampler import AccessEstimate, triu_bands

logger = logging.getLogger(__name__)

SIGNATURE_WARN_NODES = 2000
_SCIPY_METRICS = {"L1": "cityblock", "L2": "sqeuclidean"}
# share of the nodes above which a cover's update costs about as much as
# recomputing every pair (2 |S| n^2 against n^3 / 2 row operations)
_UPDATE_SHARE = 0.25


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


@dataclass
class SignatureCache:
    """What an exact ``signature_distances`` call keeps for the next call on
    the same run: the int32 counters it read and their pairwise distances in
    counter units (condensed, as ``pdist`` orders them). Empty until the
    first call; one cache serves one metric and one node count."""

    metric: str | None = None
    counters: np.ndarray | None = None
    d: np.ndarray | None = None


def _cover(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Sorted nodes S whose rows and columns hold every entry in which the
    symmetric matrices ``old`` and ``new`` differ: the shortest prefix of
    the nodes in descending order of changed entries (ties to the lower
    node) that leaves no change between two nodes outside it."""
    n = len(old)
    changed = old != new
    order = np.argsort(-changed.sum(axis=1), kind="stable")
    changed = changed[order][:, order]
    # a change between ranks i < j is covered once rank i is taken, so the
    # prefix ends after the last rank with a change to a later rank
    last = n - 1 - np.argmax(changed[:, ::-1], axis=1)
    ranks = np.flatnonzero(changed.any(axis=1) & (last > np.arange(n)))
    return np.sort(order[: ranks[-1] + 1 if len(ranks) else 0])


def _counter_distances(
    counters: np.ndarray, metric: str, cache: SignatureCache | None
) -> np.ndarray:
    """Condensed pairwise L1 or squared L2 distances between the rows of
    ``counters`` as float64, updated in ``cache`` where it holds the
    distances of earlier counters of the same shape and metric.

    Only the pairs that touch the cover S of the changed counters
    (``_cover``) are recomputed, as rows of S against every node; every
    other pair differs only in S's columns, so it adds the new minus the old
    distance over those columns. A cover of more than ``_UPDATE_SHARE`` of
    the nodes (where that costs about as much as all pairs) is recomputed in
    full."""
    # imported here: scipy.spatial costs every command ~7 MB at start-up
    from scipy.spatial.distance import cdist, pdist

    n = len(counters)
    scipy_metric = _SCIPY_METRICS[metric]
    if cache is not None and cache.metric == metric and cache.counters.shape == counters.shape:
        s = _cover(cache.counters, counters)
        if len(s) <= _UPDATE_SHARE * n:
            d = cache.d
            if len(s):
                d += pdist(counters[:, s].astype(np.float64), scipy_metric)
                d -= pdist(cache.counters[:, s].astype(np.float64), scipy_metric)
                s_rows = counters[s].astype(np.float64)
                rows = np.empty((len(s), n))
                step = band_rows(n)
                for lo in range(0, n, step):
                    band = counters[lo : lo + step].astype(np.float64)
                    rows[:, lo : lo + step] = cdist(s_rows, band, scipy_metric)
                # pair (i, j), i < j, sits at starts[i] + j - i - 1
                starts = np.arange(n) * (2 * n - np.arange(n) - 1) // 2
                for row, i in zip(rows, s.tolist()):
                    d[starts[i] : starts[i] + n - i - 1] = row[i + 1 :]
                    d[starts[:i] + i - np.arange(i) - 1] = row[:i]
                np.copyto(cache.counters, counters)
            return d
        # freed before the full pass allocates its own
        cache.metric = cache.counters = cache.d = None
    d = pdist(counters.astype(np.float64), scipy_metric)
    if cache is not None:
        cache.metric, cache.counters, cache.d = metric, counters.copy(), d
    return d


def signature_distances(
    est: AccessEstimate,
    metric: str = "L1",
    sample_pairs: int | None = None,
    seed: int = 0,
    cache: SignatureCache | None = None,
) -> tuple[DistributionSummary, tuple[int, int], float]:
    """Pairwise distances between access signatures (full p rows).

    The distances are taken between counter rows, as float64 sums of
    integers: D = sum |c_ik - c_jk| (L1) or sum (c_ik - c_jk)^2 (L2), reported
    as D / R or sqrt(D) / R. Every partial sum is an integer, so D is exact
    while n * R < 2**53 (L1) or n * R**2 < 2**53 (L2) and each reported value
    is the correctly rounded distance of the rows of p; at R a power of two
    that equals the distance of the rows of ``counters / R`` bit for bit.

    Exact mode compares all C(n,2) pairs, an O(n^3) pass; above
    ``SIGNATURE_WARN_NODES`` nodes a cost warning is logged. Given a
    ``cache`` it keeps the counters and D for the next call, which then
    recomputes only the pairs touching the nodes whose counters changed
    (``_counter_distances``), with the same D. Without the exactness bound
    nothing is cached. ``sample_pairs`` instead compares a seeded uniform
    sample of pairs, with the same formula on the same counters, so a
    sampled pair's value equals its exact-mode value; it reads no cache.
    Returns (summary, lexicographically smallest max pair, max distance).
    """
    if metric not in ("L1", "L2"):
        raise ValueError(f"metric must be L1 or L2, got {metric!r}")
    n = est.n
    counters = est.counters
    if sample_pairs is not None:
        iu, ju = _sample_pairs(n, sample_pairs, seed)
        raw = np.empty(sample_pairs)
        # a chunk of pairs' row differences holds about _bands.CELLS cells
        step = band_rows(n)
        for lo in range(0, sample_pairs, step):
            diff = counters[iu[lo : lo + step]].astype(np.float64)
            diff -= counters[ju[lo : lo + step]]
            if metric == "L1":
                np.abs(diff, out=diff)
            else:
                diff *= diff
            raw[lo : lo + step] = diff.sum(axis=1)
        d = _scaled(raw, est.R, metric)
        best = int(np.argmax(d))
        return distribution_summary(d), (int(iu[best]), int(ju[best])), float(d[best])
    if n > SIGNATURE_WARN_NODES:
        logger.warning(
            "signature distances on n=%d nodes is an O(n^3) computation; "
            "consider sample_pairs mode",
            n,
        )
    exact = n * (est.R if metric == "L1" else est.R**2) < 2**53
    d = _scaled(_counter_distances(counters, metric, cache if exact else None), est.R, metric)
    best = int(np.argmax(d))
    # condensed index -> (i, j) with i < j, row-major, so the first argmax
    # is the lexicographically smallest maximizing pair
    i = int(n - 2 - np.floor(np.sqrt(-8 * best + 4 * n * (n - 1) - 7) / 2.0 - 0.5))
    j = int(best + i + 1 - n * (n - 1) // 2 + (n - i) * ((n - i) - 1) // 2)
    return distribution_summary(d), (i, j), float(d[best])


def _sample_pairs(n: int, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` seeded uniform pairs of distinct nodes as (i, j), i < j."""
    rng = np.random.default_rng([seed, 0x7369676E])
    # one call draws the stream of alternating scalar draws a < n, b < n - 1
    a, b = rng.integers(np.tile([n, n - 1], count)).reshape(-1, 2).T
    b = b + (b >= a)
    return np.minimum(a, b), np.maximum(a, b)


def _scaled(raw: np.ndarray, R: int, metric: str) -> np.ndarray:
    """Distances of p rows from counter-unit sums: D / R or sqrt(D) / R."""
    return (raw if metric == "L1" else np.sqrt(raw)) / float(R)


def metrics_bundle(
    est: AccessEstimate,
    orig_ids: np.ndarray,
    config_echo: dict,
    k: int = 0,
    signature_metric: str = "L1",
    sample_pairs: int | None = None,
    seed: int = 0,
    cache: SignatureCache | None = None,
) -> dict:
    """One JSON-ready evaluation snapshot for an estimate; ``cache`` is
    handed to ``signature_distances``."""
    b = broadcast_all(est)
    infl = influence_all(est)
    w, pair = welfare(est)
    gb = gap_report(b, "broadcast")
    gi = gap_report(infl, "influence")
    access = np.empty(est.n * (est.n - 1) // 2)
    pos = 0
    for lo, hi, mask in triu_bands(est.n):
        band = est.counters[lo:hi][mask]
        np.divide(band, float(est.R), out=access[pos : pos + len(band)])
        pos += len(band)
    access_summary = asdict(distribution_summary(access))
    # freed before the signature distances allocate theirs
    del access, band
    sig_summary, sig_pair, sig_max = signature_distances(
        est, metric=signature_metric, sample_pairs=sample_pairs, seed=seed, cache=cache
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
