"""Benchmark of the netaccess CLI on the bench1133 graph.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--scale full|smoke]
    python3 perfbench/run.py compare --parent DIR --change DIR --workload NAME [--pairs 10]
    python3 perfbench/run.py record-digests

Every invocation of the program is ``netaccess.cli.main(argv)`` in a fresh
child interpreter (``child.py``), one after another. The workload seed is
passed to the CLI as ``--seed``; the program receives nothing else from the
benchmark. Each invocation's outputs are checked (``checks.py``) and a
failed check counts as a failed invocation.

``--trace 0`` repeats untraced invocations for ``--seconds``, each after one
set-up-only child, and reports the end-to-end metrics as medians. ``--trace
1`` first times ``build_ensemble`` with one and two workers, then alternates
untraced and traced invocations for ``--seconds`` (at least one untraced and
two traced); it reports the per-layer metrics (``layers.py``) as medians over
the traced invocations and fails if their exact counts differ between traced
invocations. ``--scale smoke`` runs every workload at R=64 (k=4), for the
benchmark's own tests: ``python3 -m pytest perfbench/tests -q``.

Every run writes ``perfbench/out/<run id>/result.json`` with provenance and
every sample; traced invocations keep their span dumps beside it. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.

``record-digests`` records, from the tree this benchmark sits in, the
SHA-256 of the primary outputs at the default seed (``digests.json``).
``compare`` runs this benchmark on two source trees (each holding ``src/``
and ``data/``) in alternating pairs on seeds 1..pairs, and gives each
end-to-end metric a verdict by the rules in ``stats.py``.
"""
from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import checks
import layers
import stats

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
INPUT = os.path.join("data", "bench1133.edges")

# R and k are chosen so that one invocation takes 2-6 s on 2 cores and a run
# of --seconds holds several invocations. Every workload passes --workers 2;
# R=1024 is two 512-sample blocks, one per worker thread, which also keeps
# the peak RSS of a run steadier than R=2048 does.
WORKLOADS = {
    # every sample is fragmented; per-component accumulation dominates, and
    # two blocks run on the two worker threads
    "estimate-fragmented": {
        "full": ["estimate", "--alpha", "0.1", "--R", "1024", "--workers", "2"],
        "smoke": ["estimate", "--alpha", "0.1", "--R", "64", "--workers", "2"],
    },
    # every sample holds a giant component; coins, labelling and three
    # access.csv writes dominate; the only comma-list alpha sweep
    "estimate-sweep": {
        "full": ["estimate", "--alpha", "0.4,0.6,0.8", "--R", "1024", "--workers", "2"],
        "smoke": ["estimate", "--alpha", "0.4,0.6,0.8", "--R", "64", "--workers", "2"],
    },
    # the ensemble is written, not built: incremental insertion, all-pairs
    # shortest-path selection, center selection, metrics bundles and the
    # k=0 rebuild
    "augment-diameter": {
        "full": ["augment", "--heuristic", "diam-both", "--k", "12", "--eval-every", "3",
                 "--alpha", "0.4", "--R", "1024", "--workers", "2"],
        "smoke": ["augment", "--heuristic", "diam-both", "--k", "4", "--eval-every", "1",
                  "--alpha", "0.4", "--R", "64", "--workers", "2"],
    },
    # coupled removal: two builds per node for the hub, a core node and a
    # pendant-path node
    "control-nodes": {
        "full": ["control", "--nodes", "0,500,1130", "--alpha", "0.4", "--R", "1024",
                 "--workers", "2"],
        "smoke": ["control", "--nodes", "0,500,1130", "--alpha", "0.4", "--R", "64",
                  "--workers", "2"],
    },
}

# Bounded end-to-end metrics. cpu_s is the user+system time of cli.main over
# all threads. wall_s is measured and reported too, and bounded in compare,
# but it is not among these: on a two-core virtual machine whose second core
# is taken away for minutes at a time, the wall time of a two-thread run
# swings between about CPU time / 1.4 and CPU time, further than any bound
# allows. CPU time does not depend on the second core being free; it still
# follows the machine's speed, which drifts by about 10% over minutes.
# Traced runs report the untraced wall time as the per-layer metric
# cli.wall_s.
END_TO_END_UNITS = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_INVOCATION = ("wall_s", "cpu_s", "peak_rss_mb")


def per_layer_units() -> dict[str, str]:
    units = {"cli.wall_s": "s"}
    units.update({name: "s" for name in layers.SELF_TIME_METRICS})
    units.update({name: "count" for name in layers.COUNT_METRICS})
    units["sampler.access_csv_bytes"] = "bytes"
    units.update({
        "sampler.labels_mb": "MB",
        "sampler.counters_mb": "MB",
        "heuristics.step_ms.p50": "ms",
        "heuristics.step_ms.p90": "ms",
        "sampler.scaling_w2": "ratio",
        "trace.overhead_s": "s",
    })
    return units


class MissingTree(Exception):
    """The directory does not hold the program's source and input."""


def check_tree(root: str) -> None:
    for rel in (os.path.join("src", "netaccess", "cli.py"), INPUT):
        if not os.path.isfile(os.path.join(root, rel)):
            raise MissingTree(f"{os.path.join(root, rel)} not found")


def workload_argv(workload: str, scale: str, seed: int, root: str, outdir: str) -> list[str]:
    cmd, *rest = WORKLOADS[workload][scale]
    return [cmd, "--input", os.path.join(root, INPUT), *rest,
            "--seed", str(seed), "--output-dir", outdir]


def invoke(root: str, argv: list[str], workdir: str, tag: str, mode: str, trace: bool,
           timeout: float) -> dict:
    """Run child.py once; return its report, or a dict with an ``error``."""
    report_path = os.path.join(workdir, f"{tag}.json")
    spec = {"src": os.path.join(root, "src"), "input": argv[argv.index("--input") + 1],
            "argv": argv, "report": report_path, "mode": mode, "trace": trace}
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            cwd=workdir, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("exit_code", 0) != 0:
        report["error"] = f"cli.main returned {report['exit_code']}: {proc.stderr.strip()[-2000:]}"
    return report


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git(root: str, *args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def source_digest(root: str) -> str:
    """SHA-256 over the program's source files and the input, with their paths."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "netaccess")
    paths = [os.path.join(src, f) for f in sorted(os.listdir(src)) if f.endswith(".py")]
    for path in paths + [os.path.join(root, INPUT)]:
        h.update(os.path.relpath(path, root).encode())
        h.update(checks.sha256_file(path).encode())
    return h.hexdigest()


def provenance(root: str, versions: dict | None) -> dict:
    commit = status = None
    top = _git(root, "rev-parse", "--show-toplevel")
    # a checkout without its own .git must not report an enclosing repository
    if top and os.path.realpath(top.strip()) == os.path.realpath(root):
        commit = _git(root, "rev-parse", "HEAD")
        status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "versions": versions,
        "benchmark_python": sys.version.split()[0],
        "git_commit": commit.strip() if commit else None,
        "git_dirty": None if status is None else bool(status.strip()),
        "source_sha256": source_digest(root),
        "root": os.path.relpath(root, REPO) if root.startswith(REPO) else root,
    }


def _problems(report: dict, argv: list[str], outdir: str, digests: dict | None,
              recorded_argv: list[str]) -> list[str]:
    """Everything wrong with one CLI invocation: its exit, its outputs, its trace."""
    if "error" in report:
        return [report["error"]]
    problems = []
    want = None
    if digests is not None:
        if digests.get("argv") != recorded_argv:
            problems.append("no digests recorded for this workload's argv")
        want = digests.get("files", {})
    problems += checks.check_outputs(argv, outdir, want)
    if "spans" in report:
        problems += layers.consistency_problems(report["spans"])
    return problems


def _trace_metrics(traced: list[dict], untraced: list[dict], scaling: dict) -> dict:
    """Per-layer metrics: medians over the traced invocations, plus the
    worker scaling and the tracing overhead."""
    per_run = [layers.layer_metrics(r["spans"]) for r in traced]
    metrics = {name: stats.summary([m[name] for m in per_run]) for name in per_run[0]}
    metrics["sampler.scaling_w2"] = stats.summary(
        [scaling["build_w1_s"] / scaling["build_w2_s"]])
    traced_wall = stats.quartiles([r["wall_s"] for r in traced])[1]
    untraced_wall = stats.quartiles([r["wall_s"] for r in untraced])[1]
    metrics["trace.overhead_s"] = stats.summary([traced_wall - untraced_wall])
    metrics["cli.wall_s"] = stats.summary([r["wall_s"] for r in untraced])
    return metrics


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> dict:
    """One benchmark run of the program in ``root``; returns the result record."""
    check_tree(root)
    os.makedirs(OUT, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    run_dir = tempfile.mkdtemp(
        prefix=f"{workload}-seed{seed}-trace{int(trace)}-{scale}-{stamp}-", dir=OUT)
    recorded_argv = WORKLOADS[workload][scale]
    digests = None
    if seed == checks.DEFAULT_SEED:
        digests = checks.load_digests().get(f"{scale}/{workload}", {})
    start = time.perf_counter()
    hard_stop = start + 165.0
    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[dict] = []
    failures: list[dict] = []
    attempted = 0
    scaling = None
    if trace:
        attempted += 1
        scaling = invoke(root, workload_argv(workload, scale, seed, root, run_dir), run_dir,
                         "scaling", "scaling", False, timeout=120.0)
        if "error" in scaling:
            failures.append({"invocation": "scaling", "problems": [scaling["error"]]})
    i = 0
    cycle = 0.0
    while not failures:
        cycle_start = time.perf_counter()
        want_trace = trace and i % 2 == 1
        enough = untraced and (not trace or len(traced) >= 2)
        # stop when another cycle would more likely end past --seconds than before it
        if enough and cycle_start - start + cycle / 2 >= seconds:
            break
        if not trace:
            # the machine's speed drifts over seconds, so set-up-only children
            # are spread over the whole run rather than bunched at its start
            tag = f"{i:03d}-setup"
            attempted += 1
            report = invoke(root, workload_argv(workload, scale, seed, root, run_dir),
                            run_dir, tag, "setup", False, timeout=60.0)
            if "error" in report:
                failures.append({"invocation": tag, "problems": [report["error"]]})
                break
            setups.append(report)
            os.remove(os.path.join(run_dir, f"{tag}.json"))
        tag = f"{i:03d}-{'traced' if want_trace else 'plain'}"
        outdir = os.path.join(run_dir, f"{tag}-out")
        argv = workload_argv(workload, scale, seed, root, outdir)
        attempted += 1
        report = invoke(root, argv, run_dir, tag, "cli", want_trace,
                        timeout=max(5.0, hard_stop - time.perf_counter()))
        problems = _problems(report, argv, outdir, digests, recorded_argv)
        shutil.rmtree(outdir, ignore_errors=True)
        if problems:
            failures.append({"invocation": tag, "argv": argv, "problems": problems})
        else:
            report["argv"] = argv
            (traced if want_trace else untraced).append(report)
            if not want_trace:
                # traced reports stay as the span dumps
                os.remove(os.path.join(run_dir, f"{tag}.json"))
        i += 1
        cycle = time.perf_counter() - cycle_start

    metrics: dict[str, dict] = {}
    extra: dict = {}
    if not failures and not trace:
        for name in PER_INVOCATION:
            metrics[name] = stats.summary([r[name] for r in untraced])
        metrics["setup_s"] = stats.summary([r["setup_s"] for r in setups + untraced])
        extra["setup_only_s"] = [r["setup_s"] for r in setups]
    if not failures and trace:
        counts = [{k: layers.layer_metrics(r["spans"])[k] for k in layers.COUNT_METRICS}
                  for r in traced]
        if any(c != counts[0] for c in counts[1:]):
            failures.append({"invocation": "traced", "problems": [
                f"exact counts differ between traced invocations: {counts}"]})
        else:
            metrics = _trace_metrics(traced, untraced, scaling)
            extra["scaling"] = {k: scaling[k] for k in ("build_w1_s", "build_w2_s")}
            self_times = {k: metrics[k]["median"] for k in layers.SELF_TIME_METRICS}
            total = sum(self_times.values())
            wall = stats.quartiles([r["wall_s"] for r in traced])[1]
            extra["self_time_share"] = {k: v / total for k, v in self_times.items()}
            extra["self_time_over_traced_wall"] = {k: v / wall for k, v in self_times.items()}

    reports = untraced + traced
    result = {
        "workload": workload,
        "scale": scale,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "argv": recorded_argv,
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures,
        "run_dir": os.path.relpath(run_dir, REPO),
        "provenance": provenance(root, reports[0]["versions"] if reports else None),
        "invocations": [
            {k: r[k] for k in ("argv", "setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
            | {"traced": "spans" in r}
            for r in reports
        ],
        "metrics": metrics,
        **extra,
    }
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return result


def final_line(result: dict) -> dict:
    units = per_layer_units() if result["trace"] else END_TO_END_UNITS
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name]["median"], "unit": units[name]}
                    for name in units if name in result["metrics"]},
    }


def cmd_run(args: argparse.Namespace) -> int:
    result = run_workload(REPO, args.workload, args.seed, args.seconds, bool(args.trace),
                          args.scale)
    for f in result["failures"]:
        print(f"FAILED {f['invocation']}: {'; '.join(f['problems'])}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:32s} median {m['median']:.6g}  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}"
              f"  n={m['count']}")
    print(f"result: {os.path.join(result['run_dir'], 'result.json')}")
    print(json.dumps(final_line(result)))
    return 0 if result["failed"] == 0 else 1


def cmd_compare(args: argparse.Namespace) -> int:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    # wall_s is compared too, under the widest bound, since alternating
    # pairs see the same machine state on both sides
    compared = [{"name": "wall_s", "better": "lower",
                 "bound": max(m["bound"] for m in spec["end_to_end"])}] + spec["end_to_end"]
    values = {side: {m["name"]: [] for m in compared} for side in sides}
    runs = []
    for pair in range(args.pairs):
        seed = pair + 1
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_workload(sides[side], args.workload, seed, args.seconds, False,
                                  args.scale)
            runs.append({"pair": pair, "side": side, "seed": seed,
                         "result": os.path.join(result["run_dir"], "result.json")})
            # a failed run ends the comparison: no verdict counts then
            if result["failed"]:
                print(f"{side} failed on seed {seed}: {result['failures']}", file=sys.stderr)
                return 1
            for name in values[side]:
                values[side][name].append(result["metrics"][name]["median"])
    verdicts = {
        m["name"]: stats.compare_metric(values["parent"][m["name"]], values["change"][m["name"]],
                                        m["better"], m["bound"])
        for m in compared
    }
    report = {"workload": args.workload, "sides": sides, "values": values,
              "verdicts": verdicts, "runs": runs}
    os.makedirs(OUT, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = os.path.join(OUT, f"compare-{args.workload}-{stamp}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    for name, v in verdicts.items():
        print(f"{name:12s} {v['verdict']:14s} parent {v['parent']['median']:.6g} "
              f"change {v['change']['median']:.6g} wins {v['wins']}/{v['pairs']} "
              f"ties {v['ties']} parent spread {v['parent_spread_share']:.3f} bound {v['bound']}")
    print(f"report: {os.path.relpath(path, REPO)}")
    print(json.dumps({"workload": args.workload,
                      "verdicts": {k: v["verdict"] for k, v in verdicts.items()}}))
    return 0


def cmd_record_digests(args: argparse.Namespace) -> int:
    """Record the default seed's output digests of the tree this benchmark sits in."""
    check_tree(REPO)
    os.makedirs(OUT, exist_ok=True)
    recorded = {}
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        for scale in ("full", "smoke"):
            for workload in WORKLOADS:
                outdir = os.path.join(work, f"{scale}-{workload}")
                argv = workload_argv(workload, scale, checks.DEFAULT_SEED, REPO, outdir)
                report = invoke(REPO, argv, work, f"{scale}-{workload}", "cli", False, 600.0)
                problems = [report["error"]] if "error" in report else checks.check_outputs(
                    argv, outdir, None)
                if problems:
                    print(f"{scale}/{workload}: {problems}", file=sys.stderr)
                    return 1
                recorded[f"{scale}/{workload}"] = {"argv": WORKLOADS[workload][scale],
                                                   "files": checks.hashed_files(outdir)}
                print(f"{scale}/{workload}: {len(recorded[f'{scale}/{workload}']['files'])} files")
    with open(checks.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("--parent", required=True, help="tree with the parent's src/ and data/")
        p.add_argument("--change", required=True, help="tree with the change's src/ and data/")
        p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
        p.add_argument("--pairs", type=int, default=10)
        p.add_argument("--seconds", type=float, default=None,
                       help="run length (default: run_seconds of BENCHMARK.json)")
        p.add_argument("--scale", choices=("full", "smoke"), default="full")
        args = p.parse_args(argv[1:])
        if args.seconds is None:
            with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
                args.seconds = json.load(fh)["run_seconds"]
        handler = cmd_compare
    elif argv[:1] == ["record-digests"]:
        args = argparse.Namespace()
        handler = cmd_record_digests
    else:
        p = argparse.ArgumentParser(prog="run.py")
        p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--seconds", type=float, required=True)
        p.add_argument("--trace", type=int, choices=(0, 1), required=True)
        p.add_argument("--scale", choices=("full", "smoke"), default="full")
        args = p.parse_args(argv)
        handler = cmd_run
    try:
        return handler(args)
    except MissingTree as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
