import numpy as np
import pytest

import netaccess as na
from netaccess import AccessEstimate
from netaccess.graphs import argmax_pair, distance_matrix
from netaccess.heuristics import resolve_collision

PATH6 = b"0 1\n1 2\n2 3\n3 4\n4 5\n"


def _canon(edges):
    return {(min(u, v), max(u, v)) for u, v in edges}


# --- center selection -----------------------------------------------------


def test_select_center_star_hub():
    g = na.load_edge_list(b"0 1\n0 2\n0 3\n")
    _, est = na.build_ensemble(g, 0.5, 2000, 0)
    assert na.select_center(est) == 0


def test_select_center_path_middle():
    g = na.load_edge_list(b"0 1\n1 2\n")
    _, est = na.build_ensemble(g, 0.5, 2000, 0)
    assert na.select_center(est) == 1


def test_select_center_tie_takes_first():
    counters = np.full((4, 4), 3, dtype=np.int32)
    np.fill_diagonal(counters, 9)
    est = AccessEstimate(n=4, R=9, counters=counters)
    assert na.select_center(est) == 0


# --- collision resolution -------------------------------------------------


def test_collision_center_kind_walks_to_next_non_neighbor():
    g = na.load_edge_list(b"0 1\n0 2\n0 3\n")
    order = np.array([0, 1, 2, 3])  # descending initial broadcast
    rng = np.random.default_rng(0)
    resolved = resolve_collision("bc-one", (1, 0), g, order, rng)
    assert resolved == (1, 2)


def test_collision_center_kind_skips_when_saturated():
    g = na.load_edge_list(b"0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")  # K4
    order = np.array([0, 1, 2, 3])
    rng = np.random.default_rng(0)
    assert resolve_collision("infl", (1, 0), g, order, rng) is None


def test_collision_redraw_skips_on_a_complete_graph():
    # no edge is legal on K4, so a redraw could never end
    g = na.load_edge_list(b"0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    for kind in ("rand", "bc-chord", "diam-chord"):
        for cand in ((0, 1), (2, 2)):
            rng = np.random.default_rng(0)
            assert resolve_collision(kind, cand, g, np.array([0, 1, 2, 3]), rng) is None


def test_collision_redraw_finds_the_only_legal_edge():
    # path 0-1-2: the only absent edge is (0,2), any redraw must land there
    g = na.load_edge_list(b"0 1\n1 2\n")
    rng = np.random.default_rng(5)
    resolved = resolve_collision("rand", (1, 1), g, np.array([1, 0, 2]), rng)
    assert tuple(sorted(resolved)) == (0, 2)


def test_collision_legal_candidate_passes_through():
    g = na.load_edge_list(b"0 1\n1 2\n")
    rng = np.random.default_rng(0)
    assert resolve_collision("bc-chord", (0, 2), g, np.array([1, 0, 2]), rng) == (0, 2)


# --- run validation -------------------------------------------------------


def test_unknown_kind_rejected():
    g = na.load_edge_list(PATH6)
    with pytest.raises(ValueError, match="kind"):
        na.run_augmentation(g, "nope", 2, 0.5, 100, 0)


def test_negative_budget_rejected():
    g = na.load_edge_list(PATH6)
    with pytest.raises(ValueError):
        na.run_augmentation(g, "rand", -1, 0.5, 100, 0)


@pytest.mark.parametrize("kind", ["bc-both", "diam-both"])
def test_paired_kinds_need_even_budget(kind):
    g = na.load_edge_list(PATH6)
    with pytest.raises(ValueError, match="even"):
        na.run_augmentation(g, kind, 3, 0.5, 100, 0)


def test_complete_graph_rejected():
    g = na.load_edge_list(b"0 1\n0 2\n1 2\n")
    with pytest.raises(ValueError, match="complete"):
        na.run_augmentation(g, "rand", 2, 0.5, 100, 0)


def test_zero_budget_is_a_no_op():
    g = na.load_edge_list(PATH6)
    trace, aug = na.run_augmentation(g, "bc-chord", 0, 0.5, 200, 0)
    assert trace.steps == []
    assert trace.edges_added == []
    assert aug.m == g.m


# --- heuristic behavior ---------------------------------------------------


def test_bc_chord_first_edge_joins_path_endpoints():
    g = na.load_edge_list(PATH6)
    trace, _ = na.run_augmentation(g, "bc-chord", 2, 0.5, 4000, 0)
    assert _canon(trace.steps[0].edges) == {(0, 5)}


def test_diam_chord_first_edge_joins_diameter_pair():
    g = na.load_edge_list(PATH6)
    trace, _ = na.run_augmentation(g, "diam-chord", 1, 0.5, 500, 0)
    assert _canon(trace.steps[0].edges) == {(0, 5)}


DIAMETER_FIXTURES = {
    "tree": b"0 1\n0 2\n1 3\n1 4\n2 5\n5 6\n",
    "cycle": b"0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n0 7\n",
    # two components and an isolated node, as `--no-lcc` keeps them
    "disconnected": b"0 1\n1 2\n3 4\n4 5\n5 6\n7 7\n",
}


@pytest.mark.parametrize("text", DIAMETER_FIXTURES.values(), ids=DIAMETER_FIXTURES.keys())
def test_diameter_steps_take_the_recomputed_farthest_pair(text):
    g = na.load_edge_list(text)
    alpha, R, seed = 0.5, 300, 0
    trace, _ = na.run_augmentation(g, "diam-chord", 5, alpha, R, seed)
    added = []
    for rec in trace.steps:
        assert rec.edges == [argmax_pair(distance_matrix(g.with_edges(added)))]
        added += rec.edges

    _, est = na.build_ensemble(g, alpha, R, seed)
    order = np.lexsort((np.arange(g.n), -na.broadcast_all(est)))
    trace, _ = na.run_augmentation(g, "diam-both", 6, alpha, R, seed)
    c = trace.center
    added = []
    for rec in trace.steps:
        expect = []
        for x in argmax_pair(distance_matrix(g.with_edges(added))):
            h = g.with_edges(added + expect)
            e = (min(x, c), max(x, c))
            if x == c or h.has_edge(x, c):
                e = resolve_collision("diam-both", (x, c), h, order, None)
            if e is not None:
                expect.append(e)
        assert rec.edges == expect
        added += rec.edges
    assert len(added) == 6


def test_bc_both_step_connects_both_endpoints_to_center():
    # path 0-1-2-3-4: center is the middle node, weak pair the two ends
    g = na.load_edge_list(b"0 1\n1 2\n2 3\n3 4\n")
    trace, _ = na.run_augmentation(g, "bc-both", 2, 0.5, 4000, 0)
    assert trace.center == 2
    assert _canon(trace.steps[0].edges) == {(0, 2), (2, 4)}


def test_diam_both_step_connects_both_endpoints_to_center():
    g = na.load_edge_list(b"0 1\n1 2\n2 3\n3 4\n")
    trace, _ = na.run_augmentation(g, "diam-both", 2, 0.5, 4000, 0)
    assert trace.center == 2
    assert _canon(trace.steps[0].edges) == {(0, 2), (2, 4)}


def test_center_kinds_record_center_others_none():
    g = na.load_edge_list(PATH6)
    for kind in ("bc-one", "bc-both", "infl", "diam-both"):
        budget = 2
        trace, _ = na.run_augmentation(g, kind, budget, 0.5, 500, 0)
        assert trace.center is not None
    for kind in ("rand", "bc-chord", "diam-chord"):
        trace, _ = na.run_augmentation(g, kind, 1, 0.5, 500, 0)
        assert trace.center is None


def test_saturated_center_step_records_skip():
    # K4 minus (2,3): both weak endpoints collide with the center; the first
    # resolves to the missing edge, the second then has nowhere to go
    g = na.load_edge_list(b"0 1\n0 2\n0 3\n1 2\n1 3\n")
    trace, aug = na.run_augmentation(g, "bc-both", 2, 0.5, 2000, 0)
    assert _canon(trace.steps[0].edges) == {(2, 3)}
    assert len(trace.steps[0].events) == 1
    assert "skipped" in trace.steps[0].events[0]
    assert aug.is_complete()


def test_returned_graph_is_the_start_plus_the_traced_edges():
    # a path has room for every step; on K4 minus an edge steps collide,
    # skip and stop at completion
    for text in (PATH6, b"0 1\n0 2\n0 3\n1 2\n1 3\n"):
        g = na.load_edge_list(text)
        for kind in na.HEURISTIC_KINDS:
            trace, aug = na.run_augmentation(g, kind, 4, 0.5, 300, 1)
            expect = g.with_edges(trace.edges_added)
            assert np.array_equal(aug.eu, expect.eu) and np.array_equal(aug.ev, expect.ev)
            assert aug.n == g.n and np.array_equal(aug.orig_ids, g.orig_ids)


def test_welfare_never_decreases_any_heuristic():
    g = na.load_edge_list(PATH6)
    for kind in na.HEURISTIC_KINDS:
        trace, _ = na.run_augmentation(g, kind, 4, 0.45, 1500, 2)
        ws = [s.welfare for s in trace.steps]
        assert all(b >= a for a, b in zip(ws, ws[1:])), kind


def test_early_termination_on_completion():
    g = na.load_edge_list(b"0 1\n1 2\n")
    trace, aug = na.run_augmentation(g, "bc-chord", 10, 0.5, 300, 0)
    assert aug.is_complete()
    assert trace.early_termination is not None
    assert len(trace.edges_added) == 1


def test_added_edges_are_new_and_present_in_result():
    g = na.load_edge_list(PATH6)
    trace, aug = na.run_augmentation(g, "rand", 5, 0.5, 400, 3)
    added = _canon(trace.edges_added)
    assert len(added) == 5
    for u, v in added:
        assert not g.has_edge(u, v)
        assert aug.has_edge(u, v)
    assert aug.m == g.m + 5


def test_run_is_deterministic():
    g = na.load_edge_list(PATH6)
    for kind in ("rand", "bc-chord", "infl"):
        t1, _ = na.run_augmentation(g, kind, 4, 0.5, 800, 7)
        t2, _ = na.run_augmentation(g, kind, 4, 0.5, 800, 7)
        assert [s.edges for s in t1.steps] == [s.edges for s in t2.steps]
        assert [s.welfare for s in t1.steps] == [s.welfare for s in t2.steps]


def test_different_seeds_differ():
    g = na.load_edge_list(PATH6)
    t1, _ = na.run_augmentation(g, "rand", 4, 0.5, 300, 0)
    t2, _ = na.run_augmentation(g, "rand", 4, 0.5, 300, 1)
    assert [s.edges for s in t1.steps] != [s.edges for s in t2.steps]


def test_trace_metadata_echo():
    g = na.load_edge_list(PATH6)
    trace, _ = na.run_augmentation(g, "bc-one", 3, 0.4, 600, 9)
    assert trace.kind == "bc-one"
    assert trace.k == 3
    assert trace.alpha == 0.4
    assert trace.R == 600
    assert trace.seed == 9


def test_on_step_callback_sees_running_totals():
    g = na.load_edge_list(PATH6)
    calls = []
    na.run_augmentation(
        g, "bc-both", 4, 0.5, 300, 0, on_step=lambda s, a, est: calls.append((s, a))
    )
    # one call before the first step, then one after each step
    assert [c[0] for c in calls] == [0, 1, 2]
    totals = [c[1] for c in calls]
    assert totals == sorted(totals)
    assert totals[0] == 0 and totals[-1] == 4


def test_on_step_first_call_is_the_initial_estimate():
    g = na.load_edge_list(PATH6)
    seen = []
    na.run_augmentation(
        g, "bc-chord", 2, 0.5, 300, 1,
        on_step=lambda s, a, est: seen.append((s, a, est.counters.copy())),
    )
    _, est0 = na.build_ensemble(g, 0.5, 300, 1)
    assert seen[0][:2] == (0, 0)
    assert np.array_equal(seen[0][2], est0.counters)


def test_step_metrics_match_estimate_state():
    # per-step welfare equals a coupled rebuild on the graph so far
    g = na.load_edge_list(PATH6)
    trace, _ = na.run_augmentation(g, "bc-chord", 3, 0.5, 1000, 4)
    sofar = []
    for rec in trace.steps:
        sofar.extend(rec.edges)
        _, est = na.build_ensemble(g.with_edges(sofar), 0.5, 1000, 4)
        w, _ = na.welfare(est)
        assert rec.welfare == w
        assert rec.min_broadcast == na.broadcast_all(est).min()
        assert rec.min_influence == na.influence_all(est).min()


# --- trace csv ------------------------------------------------------------


def test_trace_csv_layout(tmp_path):
    g = na.load_edge_list(b"10 20\n20 30\n30 40\n40 50\n")
    trace, _ = na.run_augmentation(g, "bc-both", 2, 0.5, 500, 0)
    out = tmp_path / "trace.csv"
    na.write_trace_csv(trace, g.orig_ids, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "step,u,v,welfare,min_broadcast,min_influence"
    assert len(lines) == 1 + 2  # paired step emits one row per edge
    for line in lines[1:]:
        parts = line.split(",")
        assert parts[0] == "0"
        u, v = int(parts[1]), int(parts[2])
        assert u < v and u in (10, 20, 30, 40, 50) and v in (10, 20, 30, 40, 50)
        float(parts[3]), float(parts[4]), float(parts[5])


def test_trace_csv_bytes_identical_across_workers(tmp_path):
    g = na.load_edge_list(PATH6)
    blobs = []
    for i, workers in enumerate((1, 4)):
        trace, _ = na.run_augmentation(g, "bc-chord", 4, 0.5, 1200, 0, workers=workers)
        out = tmp_path / f"trace{i}.csv"
        na.write_trace_csv(trace, g.orig_ids, str(out))
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
