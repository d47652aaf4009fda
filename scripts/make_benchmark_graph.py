"""Generate the benchmark graph used by the experiment scripts and tests.

Construction: a connected near-regular core (one high-degree hub, everything
else degree 9 or 10, exact degree sequence via stub matching with repair
swaps) plus a pendant path attached at a core node chosen so the full graph
hits the target diameter. The core keeps estimated access probabilities
tightly concentrated, while the pendant path contributes a small set of
poorly connected nodes whose welfare an augmentation run can visibly move.

Defaults give n=1133, m=5451, max degree 71, diameter 8. Deterministic for a
fixed seed; some seeds admit no valid attachment point and are rejected.
Hop distances come from ``netaccess.graphs.distance_matrix``, so the package
must be importable (installed, or ``src`` on PYTHONPATH).
"""
import argparse
import os
import sys

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from netaccess.graphs import Graph, distance_matrix


def config_graph(seed: int, degs: list[int]) -> list[tuple[int, int]]:
    """Connected simple graph with this exact degree sequence.

    Stub matching, then double swaps to clear self-loops and multi-edges,
    then degree-preserving swaps to merge components.
    """
    rng = np.random.default_rng(seed)
    n = len(degs)
    stubs = np.repeat(np.arange(n), degs)
    for _ in range(200):
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        edges = set()
        bad = []
        for a, b in pairs:
            a, b = int(a), int(b)
            if a == b or (min(a, b), max(a, b)) in edges:
                bad.append((a, b))
            else:
                edges.add((min(a, b), max(a, b)))
        elist = list(edges)
        guard = 0
        while bad and guard < 500_000:
            guard += 1
            a, b = bad.pop()
            i = int(rng.integers(len(elist)))
            c, d = elist[i]
            e1 = (min(a, c), max(a, c))
            e2 = (min(b, d), max(b, d))
            if a == c or b == d or e1 in edges or e2 in edges:
                bad.append((a, b))
                continue
            edges.remove((c, d))
            edges.add(e1)
            edges.add(e2)
            elist[i] = e1
            elist.append(e2)
        if bad:
            continue
        for _ in range(200):
            eu = np.array([e[0] for e in edges])
            ev = np.array([e[1] for e in edges])
            g = coo_matrix((np.ones(len(eu)), (eu, ev)), shape=(n, n))
            ncomp, lab = connected_components(g, directed=False)
            if ncomp == 1:
                return sorted(edges)
            sizes = np.bincount(lab)
            main = int(np.argmax(sizes))
            elist = sorted(edges)
            small_edges = [e for e in elist if lab[e[0]] != main]
            main_edges = [e for e in elist if lab[e[0]] == main]
            moved = False
            for a, b in small_edges:
                j = int(rng.integers(len(main_edges)))
                c, d = main_edges[j]
                e1 = (min(a, c), max(a, c))
                e2 = (min(b, d), max(b, d))
                if e1 in edges or e2 in edges:
                    continue
                edges.remove((a, b))
                edges.remove((c, d))
                edges.add(e1)
                edges.add(e2)
                moved = True
                break
            if not moved:
                break
    raise RuntimeError("could not realize the degree sequence as a connected simple graph")


def _graph(n: int, edges: list[tuple[int, int]]) -> Graph:
    """A netaccess Graph over nodes 0..n-1 from sorted (a, b) edges with a < b."""
    eu, ev = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    return Graph(n=n, eu=eu, ev=ev, orig_ids=np.arange(n))


def make_graph(
    seed: int,
    n: int = 1133,
    m: int = 5451,
    hub_deg: int = 71,
    path_len: int = 4,
    diameter: int = 8,
):
    """Core-plus-pendant-path graph; returns (edges, core_diam, attach_node).

    Returns None when the core has no valid attachment point (a non-hub node
    of eccentricity diameter - path_len) for this seed.
    """
    n_core = n - path_len
    m_core = m - path_len
    rest = 2 * m_core - hub_deg
    n10 = rest - 9 * (n_core - 1)
    degs = [hub_deg] + [10] * n10 + [9] * (n_core - 1 - n10)
    assert sum(degs) == 2 * m_core and len(degs) == n_core
    edges = config_graph(seed, degs)
    ecc = distance_matrix(_graph(n_core, edges)).max(axis=1)
    core_diam = int(ecc.max())
    target = diameter - path_len
    # node 0 is the hub; attaching there would bump its degree past hub_deg
    cands = [int(c) for c in np.flatnonzero(ecc == target) if c != 0]
    if not cands:
        return None
    u0 = cands[0]
    full = list(edges)
    prev = u0
    for i in range(path_len):
        nxt = n_core + i
        full.append((prev, nxt))
        prev = nxt
    return sorted(full), core_diam, u0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="data/bench1133.edges")
    ap.add_argument("--n", type=int, default=1133)
    ap.add_argument("--m", type=int, default=5451)
    ap.add_argument("--hub-deg", type=int, default=71)
    ap.add_argument("--path-len", type=int, default=4)
    ap.add_argument("--diameter", type=int, default=8)
    args = ap.parse_args()

    out = make_graph(args.seed, args.n, args.m, args.hub_deg, args.path_len, args.diameter)
    if out is None:
        print(f"seed {args.seed}: no valid attachment point; try another seed", file=sys.stderr)
        return 1
    edges, core_diam, u0 = out

    g = _graph(args.n, edges)
    deg = np.bincount(np.concatenate([g.eu, g.ev]), minlength=args.n)
    diam = int(distance_matrix(g).max())
    vals, counts = np.unique(deg, return_counts=True)
    print(
        f"n={args.n} m={len(edges)} maxdeg={int(deg.max())} diam={diam} "
        f"core_diam={core_diam} attach={u0} "
        f"deg_counts={dict(zip(vals.tolist(), counts.tolist()))}"
    )
    if diam != args.diameter:
        print(f"diameter {diam} != target {args.diameter}; try another seed", file=sys.stderr)
        return 1

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(f"# benchmark graph seed={args.seed}\n")
        for a, b in edges:
            fh.write(f"{a} {b}\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
