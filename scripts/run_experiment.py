"""Sweep every augmentation heuristic over a budget grid on one graph.

Each heuristic runs once, at its largest budget, with a shared seed. Every
smaller budget's trajectory is a prefix of that run, so the row for budget
k is read from the run's ``on_step`` callback after k steps (k/2 for the
paired kinds), and the k=0 row from its first call. A row records welfare,
the worst broadcast, the broadcast gap and the welfare gain; ``seconds`` is
the shared run's elapsed time when that budget was reached. Results land in
one CSV plus a JSON echo of the run parameters.

Example:
    python3 scripts/run_experiment.py --input data/bench1133.edges \
        --alpha 0.4 --budgets 0,50,100,200 --out results/sweep
"""
import argparse
import csv
import json
import os
import time

import netaccess as na

def _cell(est, t0: float) -> dict:
    b = na.broadcast_all(est)
    return {
        "welfare": na.welfare(est)[0],
        "min_broadcast": float(b.min()),
        "broadcast_gap": float(b.max() - b.min()),
        "seconds": round(time.perf_counter() - t0, 2),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--input", default="data/bench1133.edges")
    ap.add_argument("--alpha", type=float, default=0.4)
    ap.add_argument("--R", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budgets", default="0,50,100,200")
    ap.add_argument("--kinds", default=",".join(na.HEURISTIC_KINDS))
    ap.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    ap.add_argument("--out", default="results/sweep")
    args = ap.parse_args(argv)

    budgets = [int(b) for b in args.budgets.split(",")]
    kinds = args.kinds.split(",")
    g = na.largest_connected_component(na.load_edge_list(args.input))
    os.makedirs(args.out, exist_ok=True)

    rows = []
    for kind in kinds:
        kind_budgets = [k for k in budgets if k % 2 == 0 or kind not in na.PAIRED_KINDS]
        # the paired kinds spend two edges of the budget per step
        step_of = {k: k // 2 if kind in na.PAIRED_KINDS else k for k in kind_budgets}
        steps = set(step_of.values()) | {0}
        cells, current = {}, {}
        t0 = time.perf_counter()

        def on_step(steps_done, added_total, est):
            current["est"] = est
            if steps_done in steps:
                cells[steps_done] = _cell(est, t0)

        na.run_augmentation(
            g, kind, max(kind_budgets, default=0), args.alpha, args.R, args.seed,
            workers=args.workers, on_step=on_step,
        )
        # budgets past an early termination (graph became complete) end in
        # the final state
        for s in steps - cells.keys():
            cells[s] = _cell(current["est"], t0)
        w0 = cells[0]["welfare"]
        for k in kind_budgets:
            cell = cells[step_of[k]]
            rows.append({"kind": kind, "k": k, **cell, "welfare_gain": cell["welfare"] - w0})
            print(f"{kind:10s} k={k:4d} welfare={cell['welfare']:.4f} "
                  f"gain={cell['welfare'] - w0:+.4f}")

    # the initial state is the same for every heuristic
    gap0 = cells[0]["broadcast_gap"]
    b0_min = cells[0]["min_broadcast"]
    fields = ["kind", "k", "welfare", "min_broadcast", "broadcast_gap", "welfare_gain", "seconds"]
    with open(os.path.join(args.out, "sweep.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    with open(os.path.join(args.out, "params.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "input": args.input,
                "alpha": args.alpha,
                "R": args.R,
                "seed": args.seed,
                "budgets": budgets,
                "kinds": kinds,
                "initial_welfare": w0,
                "initial_broadcast_gap": gap0,
                "initial_relative_gap": gap0 / b0_min if b0_min > 0 else None,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    print(f"wrote {args.out}/sweep.csv")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
