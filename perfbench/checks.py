"""Output checks for one benchmark invocation.

Two kinds of check feed the benchmark's failure count:

* digests: for the default seed, the SHA-256 of every primary output file
  must equal the digest recorded in ``digests.json``. These files must stay
  byte-identical across optimisations of the program.
* invariants, for any seed: welfare along the augmentation trace never
  drops, each ``metrics_k{K}.json`` and ``run_summary.json`` agree with the
  trace, and every probability lies in [0, 1].

``metrics_k*.json`` is never hashed, because it is expected to gain fields.
"""
from __future__ import annotations

import csv
import glob
import hashlib
import json
import os
import re

DEFAULT_SEED = 0
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# one access.csv row, p written with six decimals and within [0, 1]; a regex
# pass over the file is several times faster than parsing every float
_ACCESS_ROW = re.compile(rb"^\d+,\d+,(?:0\.\d{6}|1\.000000)$", re.M)
_ACCESS_HEADER = b"i,j,p\n"


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def hashed_files(outdir: str) -> dict[str, str]:
    """Digest of every primary output under ``outdir``, keyed by relative path."""
    names = ("access.csv", "advantage.csv", "trace.csv", "augmented.edges", "control.csv")
    found = {}
    for root, _, files in os.walk(outdir):
        for name in files:
            if name in names:
                path = os.path.join(root, name)
                found[os.path.relpath(path, outdir).replace(os.sep, "/")] = sha256_file(path)
    return dict(sorted(found.items()))


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _unit_interval(value: str) -> bool:
    return 0.0 <= float(value) <= 1.0


def _check_estimate_dir(d: str, problems: list[str]) -> None:
    adv_path = os.path.join(d, "advantage.csv")
    acc_path = os.path.join(d, "access.csv")
    for path in (adv_path, acc_path):
        if not os.path.isfile(path):
            problems.append(f"missing {os.path.relpath(path)}")
            return
    with open(adv_path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["node", "broadcast", "influence"]:
        problems.append(f"{adv_path}: bad header {rows[0]}")
        return
    n = len(rows) - 1
    if not all(_unit_interval(r[1]) and _unit_interval(r[2]) for r in rows[1:]):
        problems.append(f"{adv_path}: broadcast or influence outside [0, 1]")
    with open(acc_path, "rb") as fh:
        data = fh.read()
    if not data.startswith(_ACCESS_HEADER):
        problems.append(f"{acc_path}: bad header")
        return
    count = data.count(b"\n") - 1
    if count != n * (n - 1) // 2:
        problems.append(f"{acc_path}: {count} pairs for n={n}")
    valid = sum(1 for _ in _ACCESS_ROW.finditer(data, len(_ACCESS_HEADER)))
    if valid != count:
        problems.append(f"{acc_path}: {count - valid} rows with p outside [0, 1] or malformed")


def _check_augment_dir(d: str, problems: list[str]) -> None:
    trace_path = os.path.join(d, "trace.csv")
    summary_path = os.path.join(d, "run_summary.json")
    for path in (trace_path, summary_path, os.path.join(d, "augmented.edges")):
        if not os.path.isfile(path):
            problems.append(f"missing {os.path.basename(path)}")
            return
    with open(trace_path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    welfare = [r["welfare"] for r in rows]
    values = [float(w) for w in welfare]
    if any(b < a for a, b in zip(values, values[1:])):
        problems.append("trace.csv: welfare decreases")
    if not all(_unit_interval(r[c]) for r in rows for c in ("welfare", "min_broadcast", "min_influence")):
        problems.append("trace.csv: a value lies outside [0, 1]")
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    if summary["edges_added"] != len(rows):
        problems.append(f"run_summary.json: edges_added {summary['edges_added']} != {len(rows)} trace rows")
    final = summary["final_welfare"]
    if rows and (final is None or f"{final:.6f}" != welfare[-1]):
        problems.append(f"run_summary.json: final_welfare {final} != last trace row {welfare[-1]}")
    bundles = glob.glob(os.path.join(d, "metrics_k*.json"))
    if not bundles:
        problems.append("no metrics_k*.json")
    for path in bundles:
        k = int(re.fullmatch(r"metrics_k(\d+)\.json", os.path.basename(path)).group(1))
        with open(path, encoding="utf-8") as fh:
            w = json.load(fh)["welfare"]["value"]
        if not 0.0 <= w <= 1.0:
            problems.append(f"metrics_k{k}.json: welfare {w} outside [0, 1]")
        if k == 0:
            if values and w > values[0]:
                problems.append(f"metrics_k0.json: welfare {w} above the first trace row")
        elif k > len(rows) or f"{w:.6f}" != welfare[k - 1]:
            problems.append(f"metrics_k{k}.json: welfare {w} does not match trace row {k}")


def _check_control_dir(d: str, nodes: list[int], problems: list[str]) -> None:
    path = os.path.join(d, "control.csv")
    if not os.path.isfile(path):
        problems.append("missing control.csv")
        return
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["node"]) for r in rows] != nodes:
        problems.append(f"control.csv: nodes {[r['node'] for r in rows]} != {nodes}")
    if not all(_unit_interval(r["cent_star"]) and _unit_interval(r["max_pair_control"]) for r in rows):
        problems.append("control.csv: a control value lies outside [0, 1]")


def check_outputs(argv: list[str], outdir: str, digests: dict[str, str] | None) -> list[str]:
    """Return the problems found in the outputs of ``netaccess <argv>``.

    ``digests`` maps relative output paths to SHA-256 digests; pass None for
    seeds that have no recorded digests, so only the invariants are checked.
    """
    problems: list[str] = []
    command = argv[0]
    if command == "estimate":
        alphas = argv[argv.index("--alpha") + 1].split(",")
        dirs = [outdir] if len(alphas) == 1 else [
            os.path.join(outdir, f"alpha_{float(a):g}") for a in alphas
        ]
        for d in dirs:
            _check_estimate_dir(d, problems)
    elif command == "augment":
        _check_augment_dir(outdir, problems)
    elif command == "control":
        nodes = [int(t) for t in argv[argv.index("--nodes") + 1].split(",")]
        _check_control_dir(outdir, nodes, problems)
    else:
        problems.append(f"no output check for command {command!r}")
    if digests is not None:
        got = hashed_files(outdir)
        if set(got) != set(digests):
            problems.append(f"output files {sorted(got)} != recorded {sorted(digests)}")
        for rel, want in digests.items():
            if rel in got and got[rel] != want:
                problems.append(f"{rel}: digest differs from the recorded one")
    return problems
