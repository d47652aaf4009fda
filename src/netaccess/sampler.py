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
integer rule h < ceil(alpha * 2**53) << 11. A build draws the coins of
exactly the edges it labels; a subgraph's own draw gives the same coins
for its edges as the full graph's would.

Samples are drawn in blocks of 512 and each block is labelled as the
disjoint union of its samples, a piece of consecutive samples at a time: a
piece holds at most ``_bands.CELLS`` nodes plus live edges (or, on an
earlier ensemble, gathered earlier labels), so a worker's labelling buffers
do not grow with the block. Each piece's labels are counted on from the
components of the pieces before it. scipy numbers components in the order
of their smallest node, so the block's labels are those of one call on the
whole union, unique across its rows. A graph's edges are sorted by eu, so a
piece's live edges in row-major order have sorted sources and are handed to
scipy as a CSR matrix without conversion.

The coin draw does not depend on alpha, so at a1 <= a2 every sample's live
edges at a1 are a subset of its live edges at a2, and its components at a1
refine those at a2 (the nesting Newman and Ziff use for percolation sweeps,
PRL 85, 4104, 2000). A build can therefore start from an earlier ensemble
of the same graph or a subgraph at the same seed and R and a lower or equal
alpha: it still draws its own coins, but labels each block on the quotient
graph of the earlier block's components, which only the live edges between
different earlier components enter. At equal alpha the earlier ensemble's
edges have the same coins, so each of its live edges already lies inside one
of its components: only the edges outside it can join components, and only
their coins are drawn and labelled. Control labels the graph and each
node's removal this way, on one ensemble of the graph without every
queried node's edges. The counters are identical to a fresh build's, and
so are the labels unless insertion relabelled the earlier ensemble.

Co-occurrence is counted from groups of nodes: G is 0/1 with one row per
group and one column per node, and G^T is built as a CSR matrix straight
from the block's labels, one row per node listing its groups. In a
fragmented sample (sum of squared component sizes at most n^2/2) every
component of two or more nodes is a group: a lone node would add only to
the diagonal, which is R anyway. In any other sample the first
largest component is the giant: it is counted through its complement, one
group of the nodes outside it, beside the other components of two or more
nodes. The sizes come from one table per block, indexed by label: a row's
labels are one range and the rows come in order, so each sample's sum of
squared sizes is one slice of the squared table, summed by
``np.add.reduceat`` at the rows' least labels. A giant holds more than n/2
nodes (the sum of squares is at most the largest size times n), so it is
the only component of its sample that large and no two can tie. Which
group, if any, each node joins is then one gather from a per-label table.
Transposing G^T lists each group's members in node order, and transposing
back gives each entry (node i, group g) its slot in that list: its partners
are the members after it, the nodes j > i of g, so a block counts each
pair i < j of a group once and never a node with itself. A build has one
n x n accumulator, shared by its workers: a block adds its pairs to it a
band of node rows at a time, under one lock. Each entry of the band expands
to its partners, each pair (i, j) becomes the cell (i - lo) * (n - lo) +
j - lo of the band's rows and their columns from lo on, and one
``np.bincount`` counts them; a row costs n (at least its share of the
counts) plus its partners, and a band at most ``_bands.CELLS`` unless it is
a single row. Integer addition is exact and commutes, so the order in which
bands and blocks arrive does not change a counter. After the last block the
build finishes the counters and mirrors the upper triangle into the lower
one, once, a square tile at a time. Inserting an edge adds A^T B and its
transpose, A and B being the two sides it merges in each sample. Counters
are 32-bit, so R < 2**31, and a build accumulates them in 32 bits: every
partial sum lies in [-R, R].

The access summary and control read the pairs i < j in row bands of at
most ``_bands.CELLS`` pairs (``triu_bands``), never an all-pairs index. An
estimate's access values are the R + 1 fractions c/R, so ``access.csv``
is written from the counters through a table of those values formatted
once. Its rows are assembled in bands of rows of one id width, at most
``_bands.CELLS`` / 4 cells each; a band's columns are cut into runs of one
id width, and each run is filled as one array of fixed-width records (row id,
column id, value), so a row is one slice of the band's buffer. Only a
value table whose entries differ in width (a float matrix holding nan,
inf, -0.0 or huge values) pads its values, with 0 bytes dropped from each
row before it is written.

Every bounded loop here (coin chunks, labelling pieces, counting bands,
mirror tiles, pair bands, ``access.csv`` bands) cuts its work against the
one bound ``_bands.CELLS``, read when the loop starts.

The exact oracle labels all 2^m coin outcomes in chunks like sample blocks
and adds their one-hot product weighted by each outcome's probability.
"""
from __future__ import annotations

import concurrent.futures
import contextlib
import itertools
import math
import struct
import threading
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from ._bands import band_rows, pieces, tile_side
from .graphs import Graph

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
# samples per block: the unit of work handed to a worker and of the label
# ranges (``SampleEnsemble``), so it fixes how labels are numbered, not only
# how much is held; not a working-set bound
_BLOCK = 512
ORACLE_EDGE_CAP = 20
# masks per oracle labelling call: the chunks fix the order in which p's
# float terms are summed, so a bound cut from CELLS would change its bits
_ORACLE_CHUNK = 1 << 14

ESTIMATE_MAGIC = b"ACE1"


def _mix64(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer; stateless 64-bit mixing of a fresh uint64 array
    in place (returned for chaining). ``tmp``, a uint64 array of z's shape,
    holds the shifted words, so that no temporary is allocated."""
    if tmp is None:
        tmp = np.empty_like(z)
    with np.errstate(over="ignore"):
        z ^= np.right_shift(z, np.uint64(30), out=tmp)
        z *= _M1
        z ^= np.right_shift(z, np.uint64(27), out=tmp)
        z *= _M2
        z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def _edge_hashes(seed: int, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Per-edge 64-bit base hash from the seed and canonical edge key (u << 32) | v."""
    keys = (eu.astype(np.uint64) << np.uint64(32)) | ev.astype(np.uint64)
    return _mix64(_mix64(np.array([seed], dtype=np.uint64)) ^ _mix64(keys))


def _live_rows(edge_hash: np.ndarray, r_lo: int, r_hi: int, alpha: float) -> np.ndarray:
    """Boolean (r_hi-r_lo, m) live matrix for samples r_lo..r_hi-1.

    Edge e is live in sample r iff u = (h >> 11) * 2**-53 < alpha, h being
    the mixed hash. alpha * 2**53 is exact, so that is the integer test
    h < ceil(alpha * 2**53) << 11, which fits 64 bits for alpha in (0, 1).
    The hashes are mixed a chunk of rows at a time, in place in two uint64
    buffers reused by every chunk (a row costs 2m cells of the bound), and
    each chunk's test is written into the result."""
    m = len(edge_hash)
    live = np.empty((r_hi - r_lo, m), dtype=bool)
    threshold = np.uint64(math.ceil(alpha * 2**53) << 11)
    step = min(band_rows(2 * m), r_hi - r_lo)
    # one allocation for both buffers: two of their own measured ~3 MB more
    # peak RSS on estimate-sweep (heap layout, not live bytes)
    h, tmp = np.empty((2, step, m), dtype=np.uint64)
    for lo in range(r_lo, r_hi, step):
        k = min(step, r_hi - lo)
        ridx = np.arange(lo + 1, lo + k + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            np.add(edge_hash[None, :], _GOLDEN * ridx[:, None], out=h[:k])
        _mix64(h[:k], tmp[:k])
        np.less(h[:k], threshold, out=live[lo - r_lo : lo - r_lo + k])
    return live


def validate_alpha(alpha: float) -> float:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in the open interval (0,1), got {alpha}")
    return float(alpha)


@dataclass
class SampleEnsemble:
    """R coupled live-edge samples stored as per-sample component labels.

    ``labels[r]`` assigns each node its component label in sample r. Within
    one labelling block of ``_BLOCK`` samples each row's labels lie in one
    range of ids, and the ranges follow the row order without overlapping:
    a fresh build numbers them 0, 1, ... with no id unused. A build from
    ``below`` relies on rows not sharing a label, and counting relies on the
    ranges, which make each row's components one slice of the block's
    component-size table. Insertion keeps both: it only relabels a merged
    component to another label of its own row, so it can leave unused ids
    inside a row's range, which a build from it keeps as empty components.
    ``graph`` is the graph the samples are drawn on: incremental insertion
    rejects an edge it has and replaces it by the graph with that edge, so
    after insertions it is the augmented graph.
    """

    n: int
    R: int
    seed: int
    alpha: float
    labels: np.ndarray
    graph: Graph


@dataclass
class AccessEstimate:
    """Symmetric co-occurrence counters; p_ij = counters_ij / R, p_ii = 1."""

    n: int
    R: int
    counters: np.ndarray


def _label_rows(n: int, eu: np.ndarray, ev: np.ndarray, live: np.ndarray) -> tuple[int, np.ndarray]:
    """Label the rows of a (b, m) live matrix as one disjoint union, row r on
    nodes r*n..r*n+n-1: (number of components, b*n labels unique across rows).

    eu must be non-decreasing, as a Graph's canonical edges are: the row-major
    live entries then have sorted sources r*n + eu[e], so they are already a
    CSR matrix, built here without scipy's COO conversion and checks."""
    b, m = live.shape
    # flat indices of the live entries, row-major: np.nonzero would unravel
    # them through a second index array; each row's offset is removed here
    per_row = np.count_nonzero(live, axis=1)
    cols = np.flatnonzero(live)
    cols -= np.repeat(np.arange(b) * m, per_row)
    rows = np.repeat(np.arange(b) * n, per_row)
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


def _merge_rows(
    prev: np.ndarray, eu: np.ndarray, ev: np.ndarray, live: np.ndarray
) -> tuple[int, np.ndarray]:
    """``_label_rows`` for a live matrix whose components are unions of the
    components labelled ``prev``: (b, n) labels of an earlier labelling of
    the same rows, unique across rows as a block's labels are.

    The live edges between different earlier components become edges
    between earlier labels, counted from the smallest one, and the
    components of that quotient graph are composed with ``prev``. scipy
    numbers components in the order of their smallest node, so for an
    earlier labelling that scipy made, quotient components come in the
    order of their smallest node too and the result equals ``_label_rows``
    label for label."""
    prev = prev - prev.min()
    # np.take keeps the gathers row-major like ``live``; prev[:, eu] would
    # not, and every elementwise step below would then run strided
    src = np.take(prev, eu, axis=1)
    dst = np.take(prev, ev, axis=1)
    cross = src != dst
    cross &= live
    src = src[cross]
    dst = dst[cross]
    del cross
    k = int(prev.max()) + 1
    quotient = csr_matrix((np.ones(len(src)), (src, dst)), shape=(k, k))
    del src, dst
    n_comp, merged = connected_components(quotient, directed=False)
    return n_comp, merged[prev.ravel()]


def triu_bands(n: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Row bands (lo, hi, mask) of an n x n matrix m's strict upper triangle:
    ``m[lo:hi][mask]`` are the band's pairs i < j in row-major order, at
    most the bound (``_bands.CELLS``) unless it is a single row. Each mask
    is fresh."""
    for lo, hi in pieces(np.arange(n - 1, -1, -1)):
        yield lo, hi, np.arange(n) > np.arange(lo, hi)[:, None]


def _accumulate_block(
    n: int,
    eu: np.ndarray,
    ev: np.ndarray,
    hashes: np.ndarray,
    alpha: float,
    r_lo: int,
    r_hi: int,
    prev: np.ndarray | None = None,
    same: np.ndarray | None = None,
    lock: contextlib.AbstractContextManager = contextlib.nullcontext(),
) -> tuple[None, np.ndarray | None, np.ndarray, int]:
    """Draw the coins of one block of samples for the edges eu, ev (base
    hashes ``hashes``), label the block and, given the n x n accumulator
    ``same``, add its pairs i < j to it.

    With ``prev`` None the block is labelled afresh; otherwise ``prev``
    holds an earlier, finer labelling of the same samples and the block is
    labelled on its components (``_merge_rows``). Either way the rows are
    labelled in pieces of at most ``_bands.CELLS`` nodes plus live edges or
    gathered ``prev`` cells, each piece's labels counted on from the
    components of the pieces before it: that is the labelling of the whole
    block in one call, label for label.

    G has one column per node and one row per counted group: each
    component of two or more nodes except the giants, and one group per
    giant sample holding the nodes outside its giant. Each entry of G^T,
    node i in group g, expands to its partners, the members j > i of g, and
    each pair adds one to ``same[i, j]``: a band of node rows at a time,
    its pairs counted by one ``np.bincount`` of their cells, a row costing
    n plus its partners and a band at most ``_bands.CELLS`` unless it is a
    single row, and each addition holds ``lock``. When the block returns,
    ``same`` holds only pairs i < j: nothing is added to its lower triangle
    or its diagonal, which ``build_ensemble`` fills. Returns (None, per-node
    outside-giant counts, the block's component labels, number of giant
    samples); without ``same`` nothing
    is counted and the counts are None. Labels are unique across the
    block's rows. Blocks add integers, so a build does not depend on block
    scheduling.
    """
    b = r_hi - r_lo
    live = _live_rows(hashes, r_lo, r_hi, alpha)
    lab = np.empty((b, n), dtype=np.int32)
    n_comp = 0
    # a row costs its nodes plus its live edges or gathered prev cells
    cost = n + (live.sum(axis=1) if prev is None else np.full(b, len(eu)))
    for lo, hi in pieces(cost):
        if prev is None:
            k, flat = _label_rows(n, eu, ev, live[lo:hi])
        else:
            k, flat = _merge_rows(prev[r_lo + lo : r_lo + hi], eu, ev, live[lo:hi])
        lab[lo:hi] = flat.reshape(hi - lo, n)
        lab[lo:hi] += n_comp
        n_comp += k
    del live
    # each row's labels are one range and the rows come in order, so a row's
    # components are one slice of the size table, starting at its least label
    sizes = np.bincount(lab.ravel(), minlength=n_comp)
    starts = lab.min(axis=1)
    giant = np.add.reduceat(sizes * sizes, starts) > n * n / 2
    rc = int(giant.sum())
    if same is None:
        return None, None, lab, rc
    # per label: 1 for a counted component (two or more nodes, not a giant),
    # 2 for a giant, 0 otherwise
    kind = (sizes > 1).view(np.uint8)
    if rc:
        # a giant is the only component of its row with more than n/2 nodes
        big = np.flatnonzero(2 * sizes > n)
        kind[big[giant[np.searchsorted(starts, big, side="right") - 1]]] = 2
    # gathered row-major, before the n x 2b index matrix exists
    node_kind = kind[lab]
    del sizes, kind
    keep = np.empty((n, 2 * b), dtype=bool)
    np.equal(node_kind.T, 1, out=keep[:, :b])
    # a node lies outside the giant of a giant sample unless it is in it
    np.not_equal(node_kind.T, 2, out=keep[:, b:])
    keep[:, b:] &= giant
    del node_kind
    # G^T row by row, one per node: its counted components in sample order,
    # then the outside group of each giant sample it lies outside
    cols = np.empty((n, 2 * b), dtype=np.int32)
    cols[:, :b] = lab.T
    cols[:, b:] = n_comp + np.arange(b, dtype=np.int32)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    row_out = keep[:, b:].sum(axis=1, dtype=np.int32)
    groups = cols[keep]
    del cols, keep
    nnz = len(groups)
    # one transpose lists each group's members in node order, and the one
    # back gives each G^T entry its slot in that list: a row of G^T lists
    # its groups in ascending order, so the entries come back in order
    members = csr_matrix(
        (np.ones(nnz, dtype=np.int8), groups, indptr), shape=(n, n_comp + b)
    ).T.tocsr()
    del groups
    members.data = np.arange(nnz, dtype=np.int32 if nnz < 2**31 else np.int64)
    back = members.T.tocsr()
    nodes, ends = members.indices, members.indptr[1:]
    del members
    # an entry's partners are its group's members from the slot after its own
    first = back.data
    first += 1
    partners = ends[back.indices]
    partners -= first
    del back, ends
    # a row costs n, at least its share of the band's counts, and its
    # partners; a row's own partners, fewer than 2b * n, are summed in the
    # partners' type
    work = np.zeros(n, dtype=np.int64)
    filled = np.flatnonzero(np.diff(indptr))
    if len(filled):
        work[filled] = np.add.reduceat(partners, indptr[filled], dtype=partners.dtype)
    for lo, hi in pieces(n + work):
        e0, e1 = indptr[lo], indptr[hi]
        cnt = partners[e0:e1]
        total = int(work[lo:hi].sum())
        itype = np.int32 if max(nnz, total, (hi - lo) * n) < 2**31 else np.int64
        # the slots of the band's partners: each entry's run from its first
        # partner on, the runs laid end to end
        at = first[e0:e1].astype(itype)
        at[1:] -= np.cumsum(cnt[:-1], dtype=itype)
        at = np.repeat(at, cnt)
        at += np.arange(total, dtype=itype)
        # each pair's cell (i - lo) * w + j - lo in the band's counts, which
        # hold the w = n - lo columns from its first row on: every j > i >= lo
        w = n - lo
        keys = nodes[at].astype(itype, copy=False)
        del at
        keys += np.repeat(np.arange(-lo, (hi - lo) * w - lo, w, dtype=itype), work[lo:hi])
        band = np.bincount(keys, minlength=(hi - lo) * w).reshape(hi - lo, w)
        del keys
        with lock:
            same[lo:hi, lo:] += band
        del band
    return None, row_out, lab, rc


def build_ensemble(
    g: Graph,
    alpha: float,
    R: int,
    seed: int,
    workers: int = 1,
    below: SampleEnsemble | None = None,
    count: bool = True,
) -> tuple[SampleEnsemble, AccessEstimate]:
    """Build R live-edge samples and the resulting access counters.

    Cost is O(R m) for coins plus near-linear component labeling per sample.
    Results are bit-identical for any ``workers`` value: blocks are disjoint
    and add their pairs to one shared accumulator by integer addition.
    Passing an earlier ensemble ``below`` of g or a subgraph of g (same n,
    R and seed, alpha at most this one) labels each block on below's
    components, which the coupling makes a refinement of this build's; the
    counters and the label partition are identical to a fresh build's. At
    below's own alpha only g's edges outside below can join two of its
    components, so only their coins are drawn and labelled. Blocks count
    the pairs i < j only; once they are all in, the counters are finished
    and mirrored into the lower triangle in one pass of square tiles cut
    by ``_bands.CELLS``. With ``count`` False the pairs are not counted:
    only the ensemble is built, nothing is mirrored, and the
    estimate's counters are an empty (0, 0) array.
    """
    alpha = validate_alpha(alpha)
    if R < 1:
        raise ValueError(f"R must be at least 1, got {R}")
    if R >= 2**31:
        raise ValueError("R must fit 32-bit counters (R < 2**31)")
    if not (0 <= seed < 2**64):
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    n = g.n
    eu, ev = g.eu, g.ev
    prev = None
    if below is not None:
        if not (
            (below.n, below.seed, below.R) == (n, seed, R)
            and below.alpha <= alpha
            and g.has_edges(below.graph.eu, below.graph.ev).all()
        ):
            raise ValueError(
                "below was built for another n, seed or R, a higher alpha or edges outside g"
            )
        prev = below.labels
        if below.alpha == alpha:
            # below's edges have the same coins here, and each live one
            # already joins nodes of one of below's components
            fresh = ~below.graph.has_edges(eu, ev)
            eu, ev = eu[fresh], ev[fresh]
    hashes = _edge_hashes(seed, eu, ev)
    blocks = [(lo, min(lo + _BLOCK, R)) for lo in range(0, R, _BLOCK)]

    same = np.zeros((n, n) if count else (0, 0), dtype=np.int32)
    lock = threading.Lock()

    def run(block: tuple[int, int]):
        return _accumulate_block(
            n, eu, ev, hashes, alpha, block[0], block[1], prev, same if count else None, lock
        )

    row_out = np.zeros(n, dtype=np.int32)
    rc = 0
    labels = np.empty((R, n), dtype=np.int32)
    with concurrent.futures.ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        for (lo, hi), (_, pout, plab, prc) in zip(blocks, pool.map(run, blocks)):
            labels[lo:hi] = plab
            if count:
                row_out += pout
                rc += prc

    # counters = same + rc - out_i - out_j for the pairs i < j, finished in
    # place and mirrored a square tile at a time: every partial sum lies in
    # [-R, R], so int32 holds it
    counters = same
    if count:
        col_add = rc - row_out
        # a cell costs three: the tile's, its temporary's and its mirror's
        side = tile_side(3)
        for a in range(0, n, side):
            for c in range(a, n, side):
                tile = counters[a : a + side, c : c + side]
                if c == a:
                    tile += tile.T  # its lower triangle and diagonal are 0
                tile += col_add[None, c : c + side] - row_out[a : a + side, None]
                if c != a:
                    counters[c : c + side, a : a + side] = tile.T
        np.fill_diagonal(counters, R)
    ens = SampleEnsemble(n=n, R=R, seed=seed, alpha=alpha, labels=labels, graph=g)
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
    # raises on a self-loop, an id out of range or an edge already present
    graph = ens.graph.with_edges([e])
    u, v = min(e), max(e)

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
    ens.graph = graph
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
    pairs, of the max-minus-min estimate across repetitions, each the
    correctly rounded quotient of its exact integer counter value.
    """
    if reps < 2:
        raise ValueError(f"reps must be at least 2, got {reps}")
    if g.n < 2:
        raise ValueError(f"stability needs at least 2 nodes, got n={g.n}")
    # extremes of the counters, not of their quotients: the spreads are
    # integers, so both results are one exact division each
    cmin = cmax = None
    for rep in range(reps):
        counters = build_ensemble(g, alpha, R, base_seed + rep, workers=workers)[1].counters
        if cmin is None:
            cmin, cmax = counters, counters.copy()
        else:
            np.minimum(cmin, counters, out=cmin)
            np.maximum(cmax, counters, out=cmax)
        del counters  # freed before the next rep is built
    # every rep's diagonal is R, so the spread's diagonal is 0 and the
    # maximum and sum over all cells are those over the off-diagonal pairs
    diff = np.subtract(cmax, cmin, out=cmax)
    return int(diff.max()) / R, int(diff.sum(dtype=np.int64)) / (R * g.n * (g.n - 1))


def _padded(strings: list[str]) -> np.ndarray:
    """ASCII strings as the rows of a uint8 matrix, right-padded with 0 bytes."""
    return np.array([s.encode() for s in strings]).view(np.uint8).reshape(len(strings), -1)


def _value_codes(values: AccessEstimate | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes, table): an n x n integer matrix and the padded formatted values
    it indexes, table[codes[i, j]] being f"{p_ij:.6f}\n".

    An estimate's p takes only the values c/R, so its codes are the counters
    and its table formats c = 0..R, exactly as ``counters / float(R)`` would
    print (both divisions are correctly rounded). That table is built only
    when it is shorter than the matrix. Otherwise each distinct float64 bit
    pattern of p is formatted once; keying on bits, not values, keeps -0.0
    apart from 0.0."""
    if isinstance(values, AccessEstimate) and values.R < values.counters.size:
        R = values.R
        return values.counters, _padded([f"{c / R:.6f}\n" for c in range(R + 1)])
    p = values.counters / float(values.R) if isinstance(values, AccessEstimate) else values
    bits = np.ascontiguousarray(p, dtype=np.float64).view(np.uint64)
    keys, codes = np.unique(bits, return_inverse=True)
    table = _padded([f"{v:.6f}\n" for v in keys.view(np.float64).tolist()])
    return codes.reshape(bits.shape), table


def write_access_csv(
    values: AccessEstimate | np.ndarray, orig_ids: np.ndarray, path: str
) -> None:
    """CSV "i,j,p" over original ids with i<j, each value exactly f"{p:.6f}",
    from an estimate or any n x n matrix p with one id per row.

    Rows are assembled in bands of rows whose heads f"{id}," have one width,
    as many rows of n cells as the bound holds at four elements a cell (at
    least one; ``_bands.band_rows``). A band's
    columns j > lo (its first row) are cut into the runs of equal head width
    in node order, one run per digit count when the ids ascend, as every
    Graph's do. Each run is a view of the band's uint8 buffer as packed
    records (row head, column head, value), filled by three assignments: the
    band's row heads, the run's column heads and the values looked up in the
    table of ``_value_codes``. Each row is then written with one ``write``
    from its column i+1; the cells j <= i of the band's diagonal block are
    filled and skipped. When the table's entries differ in width (a float
    matrix holding nan, inf, -0.0 or huge values) the value fields keep
    their 0 padding, and each row's 0 bytes, never an output byte, are
    dropped before its write. No all-pairs buffer is held.

    Raises ValueError, before the file is opened, unless the values form an
    n x n matrix for the n ids."""
    shape = np.shape(values.counters if isinstance(values, AccessEstimate) else values)
    n = len(orig_ids)
    if shape != (n, n):
        raise ValueError(
            f"access values must be an n x n matrix for n ids: got shape {shape} and {n} ids"
        )
    codes, table = _value_codes(values)
    vw = table.shape[1]
    vals = table.view(f"S{vw}")[:, 0]
    padded = not table.all()  # entries of unequal width, ending in 0 bytes
    # (start, stop, width, heads): the runs of equal head width in node order
    runs = []
    for w, group in itertools.groupby((f"{b},".encode() for b in orig_ids.tolist()), len):
        heads = np.array(list(group))
        a = runs[-1][1] if runs else 0
        runs.append((a, a + len(heads), w, heads))
    # a cell's record and the copies made to fill it weigh about four elements
    band = band_rows(4 * n)
    with open(path, "wb") as fh:
        fh.write(b"i,j,p\n")
        for a, b, wi, row_heads in runs:
            for lo in range(a, min(b, n - 1), band):
                hi = min(lo + band, b, n - 1)
                # the band's columns j > lo, cut at the runs
                cols = [(max(c, lo + 1), d, wj, heads[max(lo + 1 - c, 0) :])
                        for c, d, wj, heads in runs if d > lo + 1]
                size = sum((d - c) * (wi + wj + vw) for c, d, wj, _ in cols)
                buf = np.empty((hi - lo, size), dtype=np.uint8)
                starts = []  # row i's offset of its column i+1
                off = 0
                for c, d, wj, col_heads in cols:
                    rec = wi + wj + vw
                    cells = buf[:, off : off + (d - c) * rec].view(
                        [("hi", f"S{wi}"), ("hj", f"S{wj}"), ("v", f"S{vw}")]
                    )
                    # row heads repeated and values taken into contiguous arrays:
                    # numpy copies a bytes field from a source broadcast along
                    # the row, and gathers one by fancy indexing, several times
                    # slower
                    cells["hi"] = np.repeat(row_heads[lo - a : hi - a], d - c).reshape(
                        hi - lo, d - c
                    )
                    cells["hj"] = col_heads
                    cells["v"] = np.take(vals, codes[lo:hi, c:d])
                    starts.extend(range(off, off + (min(d, hi + 1) - c) * rec, rec))
                    off += (d - c) * rec
                flat = memoryview(buf).cast("B")
                for r, s in enumerate(starts):
                    if padded:
                        row = buf[r, s:]
                        fh.write(row[row != 0])
                    else:
                        fh.write(flat[r * size + s : (r + 1) * size])


def save_estimate(est: AccessEstimate, orig_ids: np.ndarray, alpha: float, seed: int, path: str) -> None:
    """Binary dump: magic 'ACE1', then little-endian header
    (version u32, n u32, R u32, alpha f64, seed u64), original ids as u32[n],
    and the strict upper triangle of the counters as u32, row-major."""
    n = est.n
    if len(orig_ids) and int(orig_ids.max()) >= 2**32:
        raise ValueError("original ids above 2**32-1 do not fit the binary format")
    with open(path, "wb") as fh:
        fh.write(ESTIMATE_MAGIC)
        fh.write(struct.pack("<IIIdQ", 1, n, est.R, alpha, seed))
        fh.write(orig_ids.astype("<u4").tobytes())
        # row by row: no all-pairs index or value array is built
        for i in range(n - 1):
            fh.write(est.counters[i, i + 1 :].astype("<u4").tobytes())


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
    counters = np.empty((n, n), dtype=np.int32)
    start = 0
    for i in range(n - 1):
        row = tri[start : start + n - 1 - i]
        counters[i, i + 1 :] = row
        counters[i + 1 :, i] = row
        start += n - 1 - i
    np.fill_diagonal(counters, R)
    return AccessEstimate(n=n, R=R, counters=counters), orig_ids, alpha, seed
