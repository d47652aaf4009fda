"""Command-line interface tying ingestion, estimation, augmentation, and
evaluation into reproducible runs.

Every run writes a manifest.json (full config echo, input content hash, tool
version, peak resident memory) next to its outputs, and all primary outputs
are byte-deterministic for a fixed config and input, independent of worker
count. Exit code 2 marks config validation failures (the message names the
offending field), exit 1 runtime failures.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import resource
import sys
from dataclasses import asdict, dataclass, replace
from typing import get_type_hints

import numpy as np

from . import __version__
from .advantage import access_centrality, advantage_report, write_advantage_csv
from .evaluation import SignatureCache, metrics_bundle
from .graphs import Graph, largest_connected_component, load_edge_list, write_edge_list
from .heuristics import HEURISTIC_KINDS, PAIRED_KINDS, run_augmentation, write_trace_csv
from .sampler import (
    ORACLE_EDGE_CAP,
    AccessEstimate,
    build_ensemble,
    exact_access_oracle,
    load_estimate,
    save_estimate,
    stability_check,
    write_access_csv,
)

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Invalid run configuration; carries the offending field name."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


@dataclass(frozen=True)
class RunConfig:
    """Full configuration of one CLI run, echoed into every manifest."""

    command: str
    input: str | None = None
    alpha: float = 0.4
    R: int = 10_000
    k: int = 0
    heuristic: str = "bc-chord"
    seed: int = 0
    eval_every: int = 10
    output_dir: str = "."
    lcc: bool = True
    workers: int = 0  # 0 means all available cores
    exact: bool = False
    sample_pairs: int | None = None
    signature_metric: str = "L1"
    reps: int = 10
    nodes: str | None = None
    estimate_in: str | None = None
    estimate_out: str | None = None

    def validate(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError("alpha", f"must lie in (0,1), got {self.alpha}")
        if self.R < 1:
            raise ConfigError("R", f"must be at least 1, got {self.R}")
        if self.R >= 2**31:
            raise ConfigError("R", "must be below 2**31 (32-bit counters)")
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed", f"must lie in [0, 2**64), got {self.seed}")
        if self.k < 0:
            raise ConfigError("k", f"must be non-negative, got {self.k}")
        if self.heuristic not in HEURISTIC_KINDS:
            raise ConfigError(
                "heuristic", f"unknown kind {self.heuristic!r}; choose from {HEURISTIC_KINDS}"
            )
        if self.heuristic in PAIRED_KINDS and self.k % 2 != 0:
            raise ConfigError("k", f"{self.heuristic} needs an even budget, got {self.k}")
        if self.eval_every < 1:
            raise ConfigError("eval_every", f"must be at least 1, got {self.eval_every}")
        if self.workers < 0:
            raise ConfigError("workers", f"must be non-negative, got {self.workers}")
        if self.reps < 2:
            raise ConfigError("reps", f"must be at least 2, got {self.reps}")
        if self.command == "stability" and self.seed + self.reps - 1 >= 2**64:
            # repetition i runs at seed + i
            raise ConfigError(
                "seed", f"stability runs seeds {self.seed}..{self.seed + self.reps - 1}, "
                "which must lie below 2**64"
            )
        if self.signature_metric not in ("L1", "L2"):
            raise ConfigError("signature_metric", f"must be L1 or L2, got {self.signature_metric}")
        if self.sample_pairs is not None and self.sample_pairs < 1:
            raise ConfigError("sample_pairs", "must be at least 1 when given")

    def effective_workers(self) -> int:
        return self.workers if self.workers > 0 else (os.cpu_count() or 1)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(obj: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out(cfg: RunConfig, name: str) -> str:
    """Path of output file ``name``; the output directory is made on first use,
    so a run that fails before writing anything leaves none behind."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, name)


def _config_echo(cfg: RunConfig, input_sha: str | None) -> dict:
    echo = asdict(cfg)
    echo["input_sha256"] = input_sha
    return echo


def _finish(cfg: RunConfig, input_sha: str | None, summary: str) -> None:
    """Every command's ending: manifest.json beside its outputs, then the
    one stdout line ``<command>: <summary> -> <output dir>``."""
    manifest = {
        "command": cfg.command,
        "config": _config_echo(cfg, input_sha),
        "input_sha256": input_sha,
        # the process's peak so far; Linux reports ru_maxrss in KiB
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "version": __version__,
    }
    _write_json(manifest, _out(cfg, "manifest.json"))
    print(f"{cfg.command}: {summary} -> {cfg.output_dir}")


def _load_graph(cfg: RunConfig, min_nodes: int = 2) -> tuple[Graph, str]:
    """The input graph (its largest component unless --no-lcc) and its
    hash. A graph of fewer than ``min_nodes`` nodes is refused before any
    work or output: the sampling commands need a pair."""
    if cfg.input is None:
        raise ConfigError("input", "an input edge list is required")
    sha = _sha256(cfg.input)
    with open(cfg.input, "rb") as fh:
        g = load_edge_list(fh.read())
    if cfg.lcc:
        g = largest_connected_component(g)
    _require_nodes(cfg, g.n, min_nodes)
    return g, sha


def _require_nodes(cfg: RunConfig, n: int, min_nodes: int) -> None:
    if n < min_nodes:
        raise ValueError(f"{cfg.command} needs at least {min_nodes} nodes, got n={n}")


def _write_bundle(
    cfg: RunConfig,
    input_sha: str,
    est: AccessEstimate,
    orig_ids: np.ndarray,
    k: int,
    cache: SignatureCache | None = None,
) -> dict:
    bundle = metrics_bundle(
        est,
        orig_ids,
        _config_echo(cfg, input_sha),
        k=k,
        signature_metric=cfg.signature_metric,
        sample_pairs=cfg.sample_pairs,
        seed=cfg.seed,
        cache=cache,
    )
    _write_json(bundle, _out(cfg, f"metrics_k{k}.json"))
    return bundle


def _cmd_estimate(runs: list[RunConfig]) -> None:
    """Every alpha of the sweep on one loaded graph. An alpha at or above the
    previous one is labelled on the previous alpha's components; each alpha
    is written and finished before the next is built, so at most two
    ensembles are alive at once."""
    g, sha = _load_graph(runs[0])
    ens = None
    for cfg in runs:
        below = ens if ens is not None and ens.alpha <= cfg.alpha else None
        # each ensemble and estimate is dropped once nothing needs it, so the
        # next build does not hold it (a few MB of RSS each)
        ens = None
        ens, est = build_ensemble(
            g, cfg.alpha, cfg.R, cfg.seed, workers=cfg.effective_workers(), below=below
        )
        below = None
        write_access_csv(est, g.orig_ids, _out(cfg, "access.csv"))
        write_advantage_csv(advantage_report(est), g.orig_ids, _out(cfg, "advantage.csv"))
        if cfg.estimate_out:
            save_estimate(est, g.orig_ids, cfg.alpha, cfg.seed, cfg.estimate_out)
        est = None
        _finish(cfg, sha, f"n={g.n} m={g.m} alpha={cfg.alpha} R={cfg.R}")


def _cmd_augment(cfg: RunConfig) -> None:
    g, sha = _load_graph(cfg)
    est = None  # the run's estimate; every on_step passes it, updated in place
    last_k = -1  # the k of the last metrics bundle written
    # the last bundle's signature distances, updated where the counters changed
    cache = SignatureCache()

    def bundle(k: int) -> None:
        nonlocal last_k
        if k != last_k:
            last_k = k
            _write_bundle(cfg, sha, est, g.orig_ids, k, cache)

    def on_step(steps_done: int, added_total: int, step_est: AccessEstimate) -> None:
        # the first call, before any step, writes metrics_k0.json
        nonlocal est
        est = step_est
        if steps_done % cfg.eval_every == 0:
            bundle(added_total)

    trace, augmented = run_augmentation(
        g,
        cfg.heuristic,
        cfg.k,
        cfg.alpha,
        cfg.R,
        cfg.seed,
        workers=cfg.effective_workers(),
        on_step=on_step,
    )
    added = len(trace.edges_added)
    bundle(added)
    cache = None  # freed: no bundle follows

    write_trace_csv(trace, g.orig_ids, _out(cfg, "trace.csv"))
    write_edge_list(augmented, _out(cfg, "augmented.edges"))
    skipped = [e for rec in trace.steps for e in rec.events]
    final_welfare = trace.steps[-1].welfare if trace.steps else None
    run_summary = {
        "heuristic": trace.kind,
        "budget": trace.k,
        "edges_added": added,
        "center": int(g.orig_ids[trace.center]) if trace.center is not None else None,
        "early_termination": trace.early_termination,
        "skipped_events": skipped,
        "final_welfare": final_welfare,
    }
    _write_json(run_summary, _out(cfg, "run_summary.json"))
    _finish(cfg, sha, f"{cfg.heuristic} k={cfg.k} added={added} final_welfare={final_welfare}")


def _cmd_evaluate(cfg: RunConfig) -> None:
    if cfg.estimate_in:
        sha = _sha256(cfg.estimate_in)
        est, orig_ids, alpha, _ = load_estimate(cfg.estimate_in)
        _require_nodes(cfg, est.n, 2)
        # the dump fixes alpha and R; this run's echo reports them
        cfg = replace(cfg, alpha=alpha, R=est.R)
    else:
        g, sha = _load_graph(cfg)
        orig_ids = g.orig_ids
        _, est = build_ensemble(g, cfg.alpha, cfg.R, cfg.seed, workers=cfg.effective_workers())
    bundle = _write_bundle(cfg, sha, est, orig_ids, 0)
    _finish(cfg, sha, f"welfare={bundle['welfare']['value']}")


def _cmd_oracle(cfg: RunConfig) -> None:
    g, sha = _load_graph(cfg, min_nodes=1)
    p = exact_access_oracle(g, cfg.alpha)
    write_access_csv(p, g.orig_ids, _out(cfg, "access.csv"))
    _finish(cfg, sha, f"n={g.n} m={g.m} exact matrix")


def _cmd_stability(cfg: RunConfig) -> None:
    g, sha = _load_graph(cfg)
    max_dev, mean_dev = stability_check(
        g, cfg.alpha, cfg.R, cfg.reps, cfg.seed, workers=cfg.effective_workers()
    )
    _write_json(
        {
            "alpha": cfg.alpha,
            "R": cfg.R,
            "reps": cfg.reps,
            "base_seed": cfg.seed,
            "max_dev": max_dev,
            "mean_dev": mean_dev,
        },
        _out(cfg, "stability.json"),
    )
    _finish(cfg, sha, f"max_dev={max_dev:.6f} mean_dev={mean_dev:.6f}")


def _cmd_control(cfg: RunConfig) -> None:
    g, sha = _load_graph(cfg, min_nodes=1)
    if cfg.nodes is not None:
        try:
            requested = [int(tok) for tok in cfg.nodes.split(",")]
        except ValueError:
            raise ConfigError("nodes", f"expected comma-separated integers, got {cfg.nodes!r}")
        dense_nodes = []
        top = int(g.orig_ids[-1])
        for orig in requested:
            # clamped into the id range, so numpy sees an int64; an id out of
            # range matches none there
            d = int(np.searchsorted(g.orig_ids, min(max(orig, 0), top)))
            if int(g.orig_ids[d]) != orig:
                raise ConfigError("nodes", f"node {orig} not present in the graph")
            if d in dense_nodes:
                raise ConfigError("nodes", f"node {orig} is listed more than once")
            dense_nodes.append(d)
    # a node's control needs a pair of other nodes; checked after --nodes,
    # a config error, and before the all-nodes warning
    _require_nodes(cfg, g.n, 3)
    if cfg.nodes is None:
        dense_nodes = list(range(g.n))
        logger.warning(
            "control over all %d nodes counts %d estimates; pass --nodes to restrict",
            g.n,
            g.n + 1,
        )
    reports = access_centrality(
        g,
        cfg.alpha,
        dense_nodes,
        R=cfg.R,
        seed=cfg.seed,
        exact=cfg.exact,
        workers=cfg.effective_workers(),
    )
    with open(_out(cfg, "control.csv"), "w", encoding="utf-8") as fh:
        fh.write("node,cent_star,max_pair_control,raw_sum\n")
        for rep in reports:
            fh.write(
                f"{int(g.orig_ids[rep.node])},{rep.cent_star:.6f},"
                f"{rep.max_pair_control:.6f},{rep.raw_sum:.6f}\n"
            )
    _finish(cfg, sha, f"{len(dense_nodes)} node(s)")


def _each(command):
    """A command that runs each alpha of a sweep on its own, afresh."""

    def run_all(runs: list[RunConfig]) -> None:
        for cfg in runs:
            command(cfg)

    return run_all


# each command takes the sweep's runs, one per alpha
_COMMANDS = {
    "estimate": _cmd_estimate,
    "augment": _each(_cmd_augment),
    "evaluate": _each(_cmd_evaluate),
    "oracle": _each(_cmd_oracle),
    "stability": _each(_cmd_stability),
    "control": _each(_cmd_control),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netaccess",
        description="Access-probability estimation, advantage measures, and "
        "welfare-maximizing edge augmentation for undirected networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", help="edge-list file (two ints per line, '#' comments)")
        p.add_argument(
            "--alpha",
            help="transmission probability in (0,1); a comma-separated list runs once per value",
        )
        p.add_argument("--R", type=int, help="samples per estimation (default 10000)")
        p.add_argument("--seed", type=int, help="base seed (default 0)")
        p.add_argument("--workers", type=int, help="worker threads (default: all cores)")
        p.add_argument("--output-dir", help="output directory (default: current)")
        p.add_argument("--config", help="JSON config file; explicit flags override it")
        p.add_argument(
            "--no-lcc",
            dest="lcc",
            action="store_const",
            const=False,
            help="skip largest-connected-component extraction",
        )

    p_est = sub.add_parser("estimate", help="build an ensemble, export access + advantage")
    common(p_est)
    p_est.add_argument("--estimate-out", help="also save the binary estimate dump here")

    p_aug = sub.add_parser("augment", help="run an augmentation heuristic")
    common(p_aug)
    p_aug.add_argument("--heuristic", help=f"one of {', '.join(HEURISTIC_KINDS)}")
    p_aug.add_argument("--k", type=int, help="edge budget (default 0)")
    p_aug.add_argument(
        "--eval-every", type=int, help="metrics bundle every this many steps (default 10)"
    )

    p_ev = sub.add_parser("evaluate", help="metrics bundle from a graph or stored estimate")
    common(p_ev)
    p_ev.add_argument("--estimate-in", help="binary estimate dump to evaluate")
    for p in (p_aug, p_ev):
        p.add_argument("--sample-pairs", type=int, help="sampled signature-distance pairs")
        p.add_argument("--signature-metric", choices=("L1", "L2"))

    p_or = sub.add_parser("oracle", help=f"exact matrix by enumeration (m <= {ORACLE_EDGE_CAP})")
    common(p_or)

    p_st = sub.add_parser("stability", help="repeat estimation and report deviations")
    common(p_st)
    p_st.add_argument("--reps", type=int, help="repetitions (default 10)")

    p_ct = sub.add_parser("control", help="access-centrality report (costly: re-estimates per node)")
    common(p_ct)
    p_ct.add_argument("--nodes", help="comma-separated original ids (default: all, with a warning)")
    p_ct.add_argument("--exact", action="store_const", const=True, help="use the exact oracle (small m)")

    return parser


# the JSON types a config file may give each field; alpha may also be a
# comma-separated list
_FILE_TYPES = {**get_type_hints(RunConfig), "alpha": int | float | str}
del _FILE_TYPES["command"]


def _read_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            values = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ConfigError("config", f"{path} is not valid JSON: {exc}")
    if not isinstance(values, dict):
        raise ConfigError("config", f"{path} must hold a JSON object")
    unknown = set(values) - set(_FILE_TYPES)
    if unknown:
        raise ConfigError("config", f"unknown config file keys: {sorted(unknown)}")
    for name, value in values.items():
        expected = _FILE_TYPES[name]
        # bool is an int subclass, so only a bool field takes true/false
        if not isinstance(value, expected) or (isinstance(value, bool) and expected is not bool):
            type_name = getattr(expected, "__name__", expected)
            raise ConfigError(name, f"config file value {value!r} is not {type_name}")
    return values


def _merge_config(args: argparse.Namespace) -> list[RunConfig]:
    """One validated config per alpha: the config file's values, then the
    flags given over them, with RunConfig's defaults for the rest. Every run
    is validated before any starts; with more than one alpha each run writes
    to its own ``alpha_{a:g}`` subdirectory, and alphas that print alike
    there are a config error."""
    values = _read_config_file(args.config) if args.config else {}
    values.update((k, v) for k, v in vars(args).items() if k in _FILE_TYPES and v is not None)
    if args.command == "evaluate" and values.get("estimate_in"):
        if values.get("input"):
            raise ConfigError("estimate_in", "give either --estimate-in or --input, not both")
        if {"alpha", "R"} & values.keys():
            raise ConfigError("estimate_in", "the dump fixes alpha and R; do not also give alpha or R")
    alpha_raw = values.pop("alpha", None)
    cfg = RunConfig(command=args.command, **values)
    if alpha_raw is None:
        alphas = [cfg.alpha]
    else:
        tokens = [str(alpha_raw)] if isinstance(alpha_raw, (int, float)) else alpha_raw.split(",")
        try:
            alphas = [float(tok) for tok in tokens]
        except ValueError:
            raise ConfigError("alpha", f"could not parse {alpha_raw!r} as float(s)")
    if cfg.estimate_out and len(alphas) > 1:
        raise ConfigError(
            "estimate_out",
            f"a sweep of {len(alphas)} alphas would write every dump to the one path "
            f"{cfg.estimate_out}; give a single alpha",
        )
    if len(alphas) == 1:
        runs = [replace(cfg, alpha=alphas[0])]
    else:
        runs = [
            replace(cfg, alpha=a, output_dir=os.path.join(cfg.output_dir, f"alpha_{a:g}"))
            for a in alphas
        ]
    seen: dict[str, float] = {}
    for run in runs:
        run.validate()
        if run.output_dir in seen:
            raise ConfigError(
                "alpha",
                f"{seen[run.output_dir]!r} and {run.alpha!r} share the output "
                f"directory {run.output_dir}",
            )
        seen[run.output_dir] = run.alpha
    return runs


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        runs = _merge_config(args)
        _COMMANDS[args.command](runs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
