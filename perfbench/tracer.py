"""In-memory span tracer installed around the program's layer boundaries.

The wrappers live here, in the benchmark, not in the program: each one is
installed on the name in the namespace that calls it (``cli`` imports its
collaborators by name, ``heuristics`` and ``advantage`` import
``build_ensemble`` by name, and ``sampler._accumulate_block`` resolves
``_live_rows`` and ``connected_components`` through the module globals).

A span records its name, start, end, parent and thread. Spans opened in a
pool thread, whose own stack is empty, attach to the enclosing
``build_ensemble`` span. Count hooks run in child spans named
``trace.hook``, so their cost falls into no layer's self time.
"""
from __future__ import annotations

import contextlib
import itertools
import os
import threading
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._build_span: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1] if stack else self._build_span,
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
        }
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``module.attr`` by a traced call.

        ``before(args, kwargs)`` runs ahead of the call and its result is
        handed to ``after(record, args, kwargs, result, state)``, which adds
        counts to the span record.
        """
        fn = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            state = None
            if before is not None:
                with tracer.span("trace.hook"):
                    state = before(args, kwargs)
            with tracer.span(name) as record:
                result = fn(*args, **kwargs)
            if after is not None:
                with tracer.span("trace.hook"):
                    after(record, args, kwargs, result, state)
            return result

        traced.__wrapped__ = fn
        setattr(module, attr, traced)

    def wrap_build(self, module) -> None:
        """Trace ``module.build_ensemble`` and make it the parent of pool-thread spans."""
        fn = module.build_ensemble
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span("sampler.build_ensemble") as record:
                outer = tracer._build_span
                tracer._build_span = record["id"]
                try:
                    ens, est = fn(*args, **kwargs)
                finally:
                    tracer._build_span = outer
            record["labels_bytes"] = int(ens.labels.nbytes)
            record["counters_bytes"] = int(est.counters.nbytes)
            return ens, est

        traced.__wrapped__ = fn
        module.build_ensemble = traced

    def wrap_on_step(self, on_step):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span("cli.on_step"):
                return on_step(*args, **kwargs)

        return traced


def _block_counts(record, args, kwargs, result, state) -> None:
    import numpy as np

    _, _, lab, giant_rows = result
    b, n = lab.shape
    # block labels are unique across the block's rows (one labelling of the
    # disjoint union), so one bincount gives every component size
    sizes = np.bincount(lab.ravel())
    per_node = sizes[lab]
    sq = per_node.sum(axis=1, dtype=np.int64)
    fragmented = sq <= n * n / 2
    outside = (n - per_node.max(axis=1)).astype(np.int64)
    record["rows"] = int(b)
    record["rows_giant"] = int(giant_rows)
    record["rows_fragmented_by_labels"] = int(fragmented.sum())
    record["pair_updates"] = int(sq[fragmented].sum() + (outside[~fragmented] ** 2).sum())


def _live_counts(record, args, kwargs, result, state) -> None:
    record["live"] = int(result.sum())


def _insert_before(args, kwargs):
    ens, est, (u, v) = args
    lab = ens.labels
    return lab[:, u] != lab[:, v], int(est.counters.sum(dtype="int64"))


def _insert_counts(record, args, kwargs, result, state) -> None:
    ens, est, (u, v) = args
    split_before, total_before = state
    lab = ens.labels
    record["merge_rows"] = int((split_before & (lab[:, u] == lab[:, v])).sum())
    record["pair_updates"] = (int(est.counters.sum(dtype="int64")) - total_before) // 2


def _csv_bytes(record, args, kwargs, result, state) -> None:
    record["bytes"] = os.path.getsize(args[2])


def install(tracer: Tracer) -> None:
    """Install every wrapper; the program's modules must already be imported."""
    from netaccess import advantage, cli, evaluation, heuristics, sampler

    w = tracer.wrap
    w(sampler, "_accumulate_block", "sampler.accumulate_block", after=_block_counts)
    w(sampler, "_live_rows", "sampler.live_rows", after=_live_counts)
    w(sampler, "connected_components", "sampler.connected_components")
    for module in (cli, heuristics, advantage):
        tracer.wrap_build(module)
    w(heuristics, "add_edge_incremental", "sampler.add_edge_incremental",
      before=_insert_before, after=_insert_counts)
    for attr in ("_diameter_pair", "_min_pair_candidate", "_current_broadcast", "select_center"):
        w(heuristics, attr, "heuristics.select")
    w(evaluation, "signature_distances", "evaluation.signature_distances")
    w(cli, "load_edge_list", "graphs.load_edge_list")
    w(cli, "largest_connected_component", "graphs.largest_connected_component")
    w(cli, "write_edge_list", "graphs.write_edge_list")
    w(cli, "write_access_csv", "sampler.write_access_csv", after=_csv_bytes)
    w(cli, "advantage_report", "advantage.advantage_report")
    w(cli, "write_advantage_csv", "advantage.write_advantage_csv")
    w(cli, "metrics_bundle", "evaluation.metrics_bundle")
    w(cli, "access_centrality", "advantage.access_centrality")

    run_augmentation = cli.run_augmentation

    def traced_run(*args, **kwargs):
        if kwargs.get("on_step") is not None:
            kwargs["on_step"] = tracer.wrap_on_step(kwargs["on_step"])
        with tracer.span("heuristics.run_augmentation"):
            return run_augmentation(*args, **kwargs)

    traced_run.__wrapped__ = run_augmentation
    cli.run_augmentation = traced_run
