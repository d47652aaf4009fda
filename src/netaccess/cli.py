"""Command-line interface tying ingestion, estimation, augmentation, and
evaluation into reproducible runs.

Every run writes a manifest.json (full config echo, input content hash, tool
version) next to its outputs, and all primary outputs are byte-deterministic
for a fixed config and input, independent of worker count. Exit code 2 marks
config validation failures (the message names the offending field), exit 1
runtime failures.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, replace
from typing import get_type_hints

import numpy as np

from . import __version__
from .advantage import access_centrality, advantage_report, write_advantage_csv
from .evaluation import metrics_bundle
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
        "version": __version__,
    }
    _write_json(manifest, _out(cfg, "manifest.json"))
    print(f"{cfg.command}: {summary} -> {cfg.output_dir}")


def _load_graph(cfg: RunConfig) -> tuple[Graph, str]:
    if cfg.input is None:
        raise ConfigError("input", "an input edge list is required")
    sha = _sha256(cfg.input)
    with open(cfg.input, "rb") as fh:
        g = load_edge_list(fh.read())
    if cfg.lcc:
        g = largest_connected_component(g)
    return g, sha


def _write_bundle(
    cfg: RunConfig, input_sha: str, est: AccessEstimate, orig_ids: np.ndarray, k: int
) -> dict:
    bundle = metrics_bundle(
        est,
        orig_ids,
        _config_echo(cfg, input_sha),
        k=k,
        signature_metric=cfg.signature_metric,
        sample_pairs=cfg.sample_pairs,
        seed=cfg.seed,
    )
    _write_json(bundle, _out(cfg, f"metrics_k{k}.json"))
    return bundle


def _cmd_estimate(cfg: RunConfig) -> None:
    g, sha = _load_graph(cfg)
    _, est = build_ensemble(g, cfg.alpha, cfg.R, cfg.seed, workers=cfg.effective_workers())
    write_access_csv(est.p, g.orig_ids, _out(cfg, "access.csv"))
    write_advantage_csv(advantage_report(est), g.orig_ids, _out(cfg, "advantage.csv"))
    if cfg.estimate_out:
        save_estimate(est, g.orig_ids, cfg.alpha, cfg.seed, cfg.estimate_out)
    _finish(cfg, sha, f"n={g.n} m={g.m} alpha={cfg.alpha} R={cfg.R}")


def _cmd_augment(cfg: RunConfig) -> None:
    g, sha = _load_graph(cfg)
    est = None  # the run's estimate; every on_step passes it, updated in place
    last_k = -1  # the k of the last metrics bundle written

    def bundle(k: int) -> None:
        nonlocal last_k
        if k != last_k:
            last_k = k
            _write_bundle(cfg, sha, est, g.orig_ids, k)

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
        # the dump fixes alpha and R; this run's echo reports them
        cfg = replace(cfg, alpha=alpha, R=est.R)
    else:
        g, sha = _load_graph(cfg)
        orig_ids = g.orig_ids
        _, est = build_ensemble(g, cfg.alpha, cfg.R, cfg.seed, workers=cfg.effective_workers())
    bundle = _write_bundle(cfg, sha, est, orig_ids, 0)
    _finish(cfg, sha, f"welfare={bundle['welfare']['value']}")


def _cmd_oracle(cfg: RunConfig) -> None:
    g, sha = _load_graph(cfg)
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
    g, sha = _load_graph(cfg)
    if cfg.nodes:
        try:
            requested = [int(tok) for tok in cfg.nodes.split(",")]
        except ValueError:
            raise ConfigError("nodes", f"expected comma-separated integers, got {cfg.nodes!r}")
        dense_nodes = []
        for orig in requested:
            if orig not in g.label_map:
                raise ConfigError("nodes", f"node {orig} not present in the graph")
            if g.label_map[orig] in dense_nodes:
                raise ConfigError("nodes", f"node {orig} is listed more than once")
            dense_nodes.append(g.label_map[orig])
    else:
        dense_nodes = list(range(g.n))
        logger.warning(
            "control over all %d nodes requires %d full estimations; "
            "pass --nodes to restrict",
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


_COMMANDS = {
    "estimate": _cmd_estimate,
    "augment": _cmd_augment,
    "evaluate": _cmd_evaluate,
    "oracle": _cmd_oracle,
    "stability": _cmd_stability,
    "control": _cmd_control,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netaccess",
        description="Access-probability estimation, advantage measures, and "
        "welfare-maximizing edge augmentation for undirected networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_input: bool = True) -> None:
        if needs_input:
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
    p_aug.add_argument("--sample-pairs", type=int, help="sampled signature-distance pairs")
    p_aug.add_argument("--signature-metric", choices=("L1", "L2"))

    p_ev = sub.add_parser("evaluate", help="metrics bundle from a graph or stored estimate")
    common(p_ev)
    p_ev.add_argument("--estimate-in", help="binary estimate dump to evaluate")
    p_ev.add_argument("--sample-pairs", type=int)
    p_ev.add_argument("--signature-metric", choices=("L1", "L2"))

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


def _merge_config(args: argparse.Namespace) -> tuple[RunConfig, list[float]]:
    """The run's config and its alphas: the config file's values, then the
    flags given over them, with RunConfig's defaults for the rest."""
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
        return cfg, [cfg.alpha]
    tokens = [str(alpha_raw)] if isinstance(alpha_raw, (int, float)) else alpha_raw.split(",")
    try:
        return cfg, [float(tok) for tok in tokens]
    except ValueError:
        raise ConfigError("alpha", f"could not parse {alpha_raw!r} as float(s)")


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        cfg, alphas = _merge_config(args)
        for alpha in alphas:
            output_dir = cfg.output_dir
            if len(alphas) > 1:
                output_dir = os.path.join(output_dir, f"alpha_{alpha:g}")
            run = replace(cfg, alpha=alpha, output_dir=output_dir)
            run.validate()
            _COMMANDS[run.command](run)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
