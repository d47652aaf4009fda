"""One benchmark invocation, run in a fresh interpreter by ``run.py``.

    python3 child.py SPEC_JSON

SPEC_JSON holds ``src`` (the program's source tree), ``input`` (the edge
list), ``argv`` (the ``netaccess`` command line), ``report`` (where to write
the result), ``mode`` (``setup``, ``cli`` or ``scaling``) and ``trace``
(bool).

Set-up is timed first: importing ``netaccess.cli`` and loading the input
with ``load_edge_list`` + ``largest_connected_component``; ``setup`` mode
stops there. ``cli`` mode then times ``cli.main(argv)``, with the span
tracer installed when ``trace`` is set. ``scaling`` mode times
``build_ensemble`` with one and with two workers on the argv's first alpha
and R.
"""
import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    import netaccess.cli as cli

    module_file = os.path.realpath(cli.__file__)
    if not module_file.startswith(src + os.sep):
        print(f"netaccess imported from {module_file}, not from {src}", file=sys.stderr)
        return 3
    with open(spec["input"], "rb") as fh:
        g = cli.largest_connected_component(cli.load_edge_list(fh.read()))
    setup_s = time.perf_counter() - T0

    import numpy
    import scipy

    report = {
        "setup_s": setup_s,
        "n": g.n,
        "m": g.m,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    argv = spec["argv"]
    if spec["mode"] == "scaling":
        from netaccess.sampler import build_ensemble

        alpha = float(argv[argv.index("--alpha") + 1].split(",")[0])
        R = int(argv[argv.index("--R") + 1])
        seed = int(argv[argv.index("--seed") + 1])
        walls = {}
        for workers in (1, 2):
            t = time.perf_counter()
            build_ensemble(g, alpha, R, seed, workers=workers)
            walls[workers] = time.perf_counter() - t
        report["build_w1_s"] = walls[1]
        report["build_w2_s"] = walls[2]
    elif spec["mode"] == "cli":
        tracer = None
        if spec["trace"]:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        t = time.perf_counter()
        c = time.process_time()
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.span("cli.main"):
                code = cli.main(argv)
        report["wall_s"] = time.perf_counter() - t
        report["cpu_s"] = time.process_time() - c
        report["exit_code"] = code
        if tracer is not None:
            report["spans"] = tracer.spans
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
