"""All-pairs information-access estimation via coupled live-edge sampling.

For undirected cascades with a uniform transmission probability alpha, the
set of nodes a seed informs is exactly the seed's connected component in the
random subgraph that keeps each edge independently with probability alpha.
One ensemble of R such subgraphs therefore estimates every pairwise access
probability at once: p_ij is the fraction of samples in which i and j land
in the same component.

The live/dead coin for (sample r, edge e) is a pure function of
(seed, r, canonical edge key), so ensembles are coupled: adding an edge can
only merge components, never split them, and an incrementally updated
ensemble is bit-identical to one rebuilt from scratch on the larger graph.
The coin is live iff the mixed hash h, read as the uniform draw
(h >> 11) * 2**-53, lies below alpha; it is tested as the equivalent
integer rule h < ceil(alpha * 2**53) << 11. A build records its coins
packed one bit per edge (``Coins``), and the build of a subgraph, such as
control's removal of a node's edges, labels those instead of drawing again:
the subgraph's own draw would give the same coins for its edges.

Samples are labelled in blocks, as one disjoint union per block. A graph's
edges are sorted by eu, so the block's live edges in row-major order have
sorted sources and are handed to scipy as a CSR matrix without conversion.

Co-occurrence is counted as a sparse product G^T G, where G is 0/1 with one
row per group of nodes and one column per node. In a fragmented sample (sum
of squared component sizes at most n^2/2) every component is a group. In any
other sample the first largest component is the giant: it is counted through
its complement, one group of the nodes outside it, beside the other
components. Inserting an edge adds A^T B and its transpose, A and B being the
two sides it merges in each sample. Counters are 32-bit, so R < 2**31.

The exact oracle labels all 2^m coin outcomes in chunks like sample blocks
and adds their one-hot product weighted by each outcome's probability.
"""
from __future__ import annotations

import concurrent.futures
import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .graphs import Graph

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_BLOCK = 512
ORACLE_EDGE_CAP = 20
_ORACLE_CHUNK = 1 << 14  # masks per labelling call; bounds the oracle's memory

ESTIMATE_MAGIC = b"ACE1"


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer; stateless 64-bit mixing of a fresh uint64 array
    in place (returned for chaining)."""
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= _M1
        z ^= z >> np.uint64(27)
        z *= _M2
        z ^= z >> np.uint64(31)
    return z


def _edge_keys(eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Canonical 64-bit edge keys (u << 32) | v; ascending for a Graph's edges."""
    return (eu.astype(np.uint64) << np.uint64(32)) | ev.astype(np.uint64)


def _edge_hashes(seed: int, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Per-edge 64-bit base hash from the seed and canonical (u, v) key."""
    return _mix64(_mix64(np.array([seed], dtype=np.uint64)) ^ _mix64(_edge_keys(eu, ev)))


def _live_rows(edge_hash: np.ndarray, r_lo: int, r_hi: int, alpha: float) -> np.ndarray:
    """Boolean (r_hi-r_lo, m) live matrix for samples r_lo..r_hi-1.

    Edge e is live in sample r iff u = (h >> 11) * 2**-53 < alpha, h being
    the mixed hash. alpha * 2**53 is exact, so that is the integer test
    h < ceil(alpha * 2**53) << 11, which fits 64 bits for alpha in (0, 1)."""
    ridx = np.arange(r_lo + 1, r_hi + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h = _mix64(edge_hash[None, :] + _GOLDEN * ridx[:, None])
    return h < np.uint64(math.ceil(alpha * 2**53) << 11)


def validate_alpha(alpha: float) -> float:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in the open interval (0,1), got {alpha}")
    return float(alpha)


@dataclass(frozen=True)
class Coins:
    """Every live/dead coin of one build, recorded so a subgraph's build can
    label the same samples without drawing them again.

    A coin depends only on (seed, edge key, sample), so the build of any
    subgraph of the drawn edges, at the same alpha, seed and R, would draw
    exactly these coins for its edges. ``packed`` holds the (R, m) live
    matrix over the edges with ascending keys ``keys``, packed along edges
    with np.packbits; the drawing build fills it block by block.
    """

    alpha: float
    seed: int
    keys: np.ndarray
    hashes: np.ndarray
    packed: np.ndarray


@dataclass
class SampleEnsemble:
    """R coupled live-edge samples stored as per-sample component labels.

    ``labels[r]`` assigns each node its component label in sample r (label
    values are arbitrary but consistent within a row). ``edges`` tracks the
    current canonical edge set: incremental insertion rejects duplicates
    against it and adds to it, so it is the augmented graph's edge set.
    ``coins`` are the coins the samples were labelled from; insertion draws
    the new edge's coins itself and does not add them.
    """

    n: int
    R: int
    seed: int
    alpha: float
    labels: np.ndarray
    edges: set[tuple[int, int]]
    coins: Coins


@dataclass
class AccessEstimate:
    """Symmetric co-occurrence counters; p_ij = counters_ij / R, p_ii = 1."""

    n: int
    R: int
    counters: np.ndarray

    @property
    def p(self) -> np.ndarray:
        return self.counters / float(self.R)


def _label_rows(n: int, eu: np.ndarray, ev: np.ndarray, live: np.ndarray) -> tuple[int, np.ndarray]:
    """Label the rows of a (b, m) live matrix as one disjoint union, row r on
    nodes r*n..r*n+n-1: (number of components, b*n labels unique across rows).

    eu must be non-decreasing, as a Graph's canonical edges are: the row-major
    live entries then have sorted sources r*n + eu[e], so they are already a
    CSR matrix, built here without scipy's COO conversion and checks."""
    b = live.shape[0]
    rows, cols = np.nonzero(live)
    rows *= n
    src = eu[cols]
    src += rows
    indptr = np.zeros(b * n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=b * n), out=indptr[1:])
    del src
    dst = ev[cols]
    dst += rows
    del rows, cols  # free the int64 offsets before the matrix is built
    index = np.int32 if max(b * n, len(dst)) < 2**31 else np.int64
    g = csr_matrix(
        (np.ones(len(dst)), dst.astype(index), indptr.astype(index)), shape=(b * n, b * n)
    )
    del dst, indptr
    return connected_components(g, directed=False)


def _accumulate_block(
    n: int,
    eu: np.ndarray,
    ev: np.ndarray,
    coins: Coins,
    cols: np.ndarray | None,
    r_lo: int,
    r_hi: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Label one block of samples and count its pairs as G^T G.

    With ``cols`` None the block's coins are drawn and recorded in
    ``coins``; otherwise its recorded coins are unpacked and only the edge
    columns ``cols`` (the edges eu, ev) are kept.

    G has one row per component of a fragmented sample, one per non-giant
    component of a giant sample, and one per giant sample holding the nodes
    outside its giant. Returns (G^T G, per-node outside-giant counts, the
    block's component labels, number of giant samples). Labels are unique
    across the block's rows. All pieces combine across blocks by integer
    addition, so the result is independent of block scheduling.
    """
    b = r_hi - r_lo
    if cols is None:
        live = _live_rows(coins.hashes, r_lo, r_hi, coins.alpha)
        coins.packed[r_lo:r_hi] = np.packbits(live, axis=1)
    else:
        bits = np.unpackbits(coins.packed[r_lo:r_hi], axis=1, count=len(coins.keys))
        live = bits.view(bool)[:, cols]
    n_comp, flat = _label_rows(n, eu, ev, live)
    lab = flat.astype(np.int32).reshape(b, n)
    counts = np.bincount(flat)[lab]
    giant = counts.sum(axis=1) > n * n / 2
    giant_label = lab[np.arange(b), counts.argmax(axis=1)]
    in_giant = giant[:, None] & (lab == giant_label[:, None])
    outside = giant[:, None] & ~in_giant
    # one group per counted component, then one per row for its outside set
    out_r, out_i = np.nonzero(outside)
    groups = np.concatenate([lab[~in_giant], n_comp + out_r])
    nodes = np.concatenate([np.nonzero(~in_giant)[1], out_i])
    members = csr_matrix(
        (np.ones(len(groups), dtype=np.int32), (groups, nodes)), shape=(n_comp + b, n)
    )
    same = (members.T @ members).toarray()
    row_out = outside.sum(axis=0, dtype=np.int32)
    return same, row_out, lab, int(giant.sum())


def build_ensemble(
    g: Graph,
    alpha: float,
    R: int,
    seed: int,
    workers: int = 1,
    coins: Coins | None = None,
) -> tuple[SampleEnsemble, AccessEstimate]:
    """Build R live-edge samples and the resulting access counters.

    Cost is O(R m) for coins plus near-linear component labeling per sample.
    Results are bit-identical for any ``workers`` value: blocks are disjoint
    and partial counters merge by integer addition. The coins drawn are kept
    as ``ens.coins``. Passing the coins of an earlier build at the same
    alpha, R and seed on a graph holding all of g's edges labels those
    instead of drawing again; the result is identical to a fresh build.
    """
    alpha = validate_alpha(alpha)
    if R < 1:
        raise ValueError(f"R must be at least 1, got {R}")
    if R >= 2**31:
        raise ValueError("R must fit 32-bit counters (R < 2**31)")
    if not (0 <= seed < 2**64):
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    n = g.n
    # taken before the n x n arrays exist: a first build of g.edge_set
    # among them raised peak RSS by ~12 MB through heap fragmentation
    edges = set(g.edge_set)
    keys = _edge_keys(g.eu, g.ev)
    if coins is None:
        packed = np.empty((R, (g.m + 7) // 8), dtype=np.uint8)
        coins = Coins(alpha, seed, keys, _edge_hashes(seed, g.eu, g.ev), packed)
        cols = None
    else:
        cols = np.searchsorted(coins.keys, keys)
        if not (
            (coins.alpha, coins.seed, len(coins.packed)) == (alpha, seed, R)
            and (cols < len(coins.keys)).all()
            and np.array_equal(coins.keys[cols], keys)
        ):
            raise ValueError("coins were drawn for another alpha, seed, R or edge set")
    blocks = [(lo, min(lo + _BLOCK, R)) for lo in range(0, R, _BLOCK)]

    def run(block: tuple[int, int]):
        return _accumulate_block(n, g.eu, g.ev, coins, cols, block[0], block[1])

    same = np.zeros((n, n), dtype=np.int64)
    row_out = np.zeros(n, dtype=np.int64)
    rc = 0
    labels = np.empty((R, n), dtype=np.int32)
    # summing each block as map yields it keeps only unsummed blocks in memory
    with concurrent.futures.ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        for (lo, hi), (psame, pout, plab, prc) in zip(blocks, pool.map(run, blocks)):
            same += psame
            row_out += pout
            rc += prc
            labels[lo:hi] = plab

    counters = same + (rc - row_out[:, None] - row_out[None, :])
    np.fill_diagonal(counters, R)
    counters = counters.astype(np.int32)
    ens = SampleEnsemble(
        n=n, R=R, seed=seed, alpha=alpha, labels=labels, edges=edges, coins=coins
    )
    return ens, AccessEstimate(n=n, R=R, counters=counters)


def add_edge_incremental(
    ens: SampleEnsemble, est: AccessEstimate, e: tuple[int, int]
) -> tuple[SampleEnsemble, AccessEstimate]:
    """Insert edge e into every sample whose coin is live.

    In each live sample where the endpoints lie in different components the
    components merge and every cross pair's counter increments: the delta is
    A^T B plus its transpose, with one row of A (B) per merging sample
    marking u's (v's) component. Counters are therefore non-decreasing, and
    the updated state equals a from-scratch build on the augmented graph
    with the same seed (same coin function). Mutates and returns (ens, est).
    """
    u, v = e
    if u > v:
        u, v = v, u
    if u == v:
        raise ValueError(f"self-loop ({u},{v})")
    if not (0 <= u < ens.n and 0 <= v < ens.n):
        raise ValueError(f"edge ({u},{v}) out of range for n={ens.n}")
    if (u, v) in ens.edges:
        raise ValueError(f"edge ({u},{v}) already present")

    eh = _edge_hashes(ens.seed, np.array([u]), np.array([v]))
    live = _live_rows(eh, 0, ens.R, ens.alpha)[:, 0]
    lab = ens.labels
    merge_rows = np.flatnonzero(live & (lab[:, u] != lab[:, v]))
    sub = lab[merge_rows]
    side_a = sub == sub[:, [u]]
    side_b = sub == sub[:, [v]]
    cross = (csr_matrix(side_a, dtype=np.int32).T @ csr_matrix(side_b, dtype=np.int32)).toarray()
    est.counters += cross
    est.counters += cross.T
    lab[merge_rows] = np.where(side_b, sub[:, [u]], sub)
    ens.edges.add((u, v))
    return ens, est


def exact_access_oracle(g: Graph, alpha: float) -> np.ndarray:
    """Exact p matrix by enumerating all 2^m live-edge subsets.

    Bit e of a mask is edge e's coin. Each chunk of masks is labelled like
    a sample block and adds M^T W M, M holding one one-hot row per component
    and W each mask's probability alpha^k (1-alpha)^(m-k). Access probability
    computation is #P-hard in general, so this is gated at m <= ORACLE_EDGE_CAP.
    Exact to floating precision; p is exactly symmetric with a unit diagonal.
    """
    alpha = validate_alpha(alpha)
    m = g.m
    if m > ORACLE_EDGE_CAP:
        raise ValueError(f"exact oracle refuses m={m} > cap={ORACLE_EDGE_CAP} edges")
    n = g.n
    p = np.zeros((n, n))
    for lo in range(0, 1 << m, _ORACLE_CHUNK):
        masks = np.arange(lo, min(lo + _ORACLE_CHUNK, 1 << m), dtype=np.int64)
        live = (masks[:, None] >> np.arange(m)) & 1 == 1
        k = live.sum(axis=1)
        weights = alpha ** k * (1.0 - alpha) ** (m - k)
        n_comp, flat = _label_rows(n, g.eu, g.ev, live)
        nodes = np.tile(np.arange(n), len(masks))
        members = csr_matrix((np.ones(len(flat)), (flat, nodes)), shape=(n_comp, n))
        weighted = csr_matrix((np.repeat(weights, n), (flat, nodes)), shape=(n_comp, n))
        p += (weighted.T @ members).toarray()
    # mirror the upper triangle: the product's rounding need not be symmetric
    p = np.triu(p, k=1)
    p = p + p.T
    np.fill_diagonal(p, 1.0)
    return p


def stability_check(
    g: Graph,
    alpha: float,
    R: int,
    reps: int,
    base_seed: int,
    workers: int = 1,
) -> tuple[float, float]:
    """Estimate reps times with consecutive seeds and measure fluctuation.

    Returns (max_dev, mean_dev): the maximum and the mean, over all node
    pairs, of the max-minus-min estimate across repetitions.
    """
    if reps < 2:
        raise ValueError(f"reps must be at least 2, got {reps}")
    pmin = None
    pmax = None
    for rep in range(reps):
        _, est = build_ensemble(g, alpha, R, base_seed + rep, workers=workers)
        p = est.p
        pmin = p if pmin is None else np.minimum(pmin, p)
        pmax = p if pmax is None else np.maximum(pmax, p)
    off = ~np.eye(g.n, dtype=bool)
    dev = (pmax - pmin)[off]
    return float(dev.max()), float(dev.mean())


def write_access_csv(p: np.ndarray, orig_ids: np.ndarray, path: str) -> None:
    """CSV "i,j,p" over original ids with i<j, each value exactly f"{p:.6f}".

    Each distinct float64 bit pattern of p (at most R+1 for an estimate) is
    formatted once; keying on bits, not values, keeps -0.0 apart from 0.0.
    Rows are written one at a time and looked up in that table by
    searchsorted, so no all-pairs index or string list is held in memory."""
    bits = np.ascontiguousarray(p, dtype=np.float64).view(np.uint64)
    keys = np.unique(bits)
    table = [f"{v:.6f}\n" for v in keys.view(np.float64).tolist()]
    ids = orig_ids.tolist()
    heads = [f"{b}," for b in ids]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i,j,p\n")
        for i, a in enumerate(ids):
            lead = f"{a},"
            idx = np.searchsorted(keys, bits[i, i + 1 :]).tolist()
            fh.write("".join([lead + h + table[k] for h, k in zip(heads[i + 1 :], idx)]))


def save_estimate(est: AccessEstimate, orig_ids: np.ndarray, alpha: float, seed: int, path: str) -> None:
    """Binary dump: magic 'ACE1', then little-endian header
    (version u32, n u32, R u32, alpha f64, seed u64), original ids as u32[n],
    and the strict upper triangle of the counters as u32, row-major."""
    n = est.n
    if len(orig_ids) and int(orig_ids.max()) >= 2**32:
        raise ValueError("original ids above 2**32-1 do not fit the binary format")
    iu, ju = np.triu_indices(n, k=1)
    tri = est.counters[iu, ju].astype("<u4")
    with open(path, "wb") as fh:
        fh.write(ESTIMATE_MAGIC)
        fh.write(struct.pack("<IIIdQ", 1, n, est.R, alpha, seed))
        fh.write(orig_ids.astype("<u4").tobytes())
        fh.write(tri.tobytes())


def load_estimate(path: str) -> tuple[AccessEstimate, np.ndarray, float, int]:
    """Read a binary dump; returns (estimate, orig_ids, alpha, seed).

    Raises ValueError naming the problem on a bad magic or header field, a
    truncated file, trailing bytes, a repeated original id, or a pair
    counter above R."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != ESTIMATE_MAGIC:
        raise ValueError(f"not an access-estimate file: bad magic {data[:4]!r}")
    if len(data) < 32:
        raise ValueError(f"truncated estimate file: {len(data)} bytes, header needs 32")
    version, n, R, alpha, seed = struct.unpack_from("<IIIdQ", data, 4)
    if version != 1:
        raise ValueError(f"unsupported estimate file version {version}")
    if n < 1:
        raise ValueError(f"estimate file header: n must be at least 1, got {n}")
    if not (1 <= R < 2**31):
        raise ValueError(f"estimate file header: R must lie in [1, 2**31), got {R}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"estimate file header: alpha must lie in (0,1), got {alpha}")
    n_pairs = n * (n - 1) // 2
    expected = 32 + 4 * n + 4 * n_pairs
    if len(data) < expected:
        raise ValueError(f"truncated estimate file: {len(data)} bytes, n={n} needs {expected}")
    if len(data) > expected:
        raise ValueError(
            f"estimate file has {len(data) - expected} trailing bytes after {expected}"
        )
    orig_ids = np.frombuffer(data, dtype="<u4", count=n, offset=32).astype(np.int64)
    seen = set()
    for v in orig_ids.tolist():
        if v in seen:
            raise ValueError(f"estimate file repeats original id {v}")
        seen.add(v)
    tri = np.frombuffer(data, dtype="<u4", count=n_pairs, offset=32 + 4 * n)
    # checked as u32: a count of 2**31 or more would wrap negative in int32
    if n_pairs and int(tri.max()) > R:
        raise ValueError(f"estimate file pair counter {int(tri.max())} exceeds R={R}")
    tri = tri.astype(np.int32)
    counters = np.zeros((n, n), dtype=np.int32)
    iu, ju = np.triu_indices(n, k=1)
    counters[iu, ju] = tri
    counters[ju, iu] = tri
    np.fill_diagonal(counters, R)
    return AccessEstimate(n=n, R=R, counters=counters), orig_ids, alpha, seed
