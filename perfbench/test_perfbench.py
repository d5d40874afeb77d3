"""Tests of the benchmark harness itself: output checks, span arithmetic,
seed handling and the run cap.  Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import benchwork  # noqa: E402
import run  # noqa: E402
import spantrace  # noqa: E402


def _sweep_pass(reference, tmp_path, rows=None):
    inputs = benchwork.make_inputs("sweep", 0, reference, str(tmp_path),
                                   shuffle=False)
    rows = reference["rows"] if rows is None else rows
    result = {"status": "ok", "rc": 0, "stdout": json.dumps(rows),
              "stderr": "", "items": []}
    return inputs, result


def test_reference_outputs_pass_their_own_check(tmp_path):
    ref = benchwork.load_reference("sweep")
    inputs, result = _sweep_pass(ref, tmp_path)
    chk = benchwork.check_pass(inputs, result, ref)
    outcomes = [o for _, o, _ in chk["outcomes"]]
    assert len(outcomes) == 76
    assert outcomes.count(benchwork.BUDGET) == 2
    assert outcomes.count(benchwork.OK) == 74
    assert (chk["alpha_solved"], chk["budget_stops"]) == (74, 2)


def test_tampered_reference_cell_is_flagged(tmp_path):
    ref = benchwork.load_reference("sweep")
    tampered = copy.deepcopy(ref)
    tampered["rows"][5]["T"] += 1
    inputs, result = _sweep_pass(ref, tmp_path)
    chk = benchwork.check_pass(inputs, result, tampered)
    wrong = [(n, why) for n, o, why in chk["outcomes"]
             if o == benchwork.WRONG]
    assert len(wrong) == 1
    assert wrong[0][0] == benchwork.row_key(ref["rows"][5])
    tally = run.judge(inputs, [result], tampered)
    assert tally["wrong"] == 1 and tally["attempted"] == 76


def test_stats_and_verify_tampering_is_flagged(tmp_path):
    ref = benchwork.load_reference("stats")
    inputs = benchwork.make_inputs("stats", 0, ref, str(tmp_path))
    items = [{"name": n, "rc": 0, "stdout": json.dumps(out), "stderr": ""}
             for n, out in ref["items"].items()]
    assert all(o == benchwork.OK for _, o, _ in benchwork.check_pass(
        inputs, {"items": items}, ref)["outcomes"])
    name = benchwork.graph_item_name(2, (4,), (4,), 2)
    bad = copy.deepcopy(ref)
    bad["items"][name]["Delta"] += 3
    outcomes = dict((n, o) for n, o, _ in benchwork.check_pass(
        inputs, {"items": items}, bad)["outcomes"])
    assert outcomes[name] == benchwork.WRONG
    assert sum(o == benchwork.WRONG for o in outcomes.values()) == 1

    vref = benchwork.load_reference("verify")
    vin = benchwork.make_inputs("verify", 0, vref, str(tmp_path))
    reports = [{"name": n, "error": None,
                "report": {"ok": True, "checked": s["checked"],
                           "alpha_solved": s["alpha_solved"]}}
               for n, s in vref["suites"].items()]
    chk = benchwork.check_pass(vin, {"items": reports}, vref)
    assert all(o == benchwork.OK for _, o, _ in chk["outcomes"])
    assert (chk["alpha_solved"], chk["budget_stops"]) == (74, 2)
    reports[0]["report"]["checked"] += 1
    chk = benchwork.check_pass(vin, {"items": reports}, vref)
    assert [o for _, o, _ in chk["outcomes"]].count(benchwork.WRONG) == 1


def test_newly_solved_alpha_must_reach_greedy():
    ref = next(r for r in benchwork.load_reference("sweep")["rows"]
               if r["alpha"] == benchwork.NOT_COMPUTED)
    row = dict(ref, notes=[])
    row["alpha"] = ref["greedy"]
    assert benchwork.check_sweep_row(row, ref)[0] == benchwork.OK
    row["alpha"] = ref["greedy"] - 1
    assert benchwork.check_sweep_row(row, ref)[0] == benchwork.WRONG
    # a cell other than alpha and its note may not change
    row = dict(ref, alpha=ref["greedy"], notes=[], D=ref["D"] + 1)
    assert benchwork.check_sweep_row(row, ref)[0] == benchwork.WRONG


def test_gf257_reference_is_the_hamming_closed_form():
    out = benchwork.load_reference("stats")["items"][
        benchwork.graph_item_name(257, (1, 1), (1, 1), 1)]
    assert out["num_vertices"] == 257 ** 2 and out["D"] == 512
    assert out["T"] == 65280
    assert 3 * out["Delta"] == out["T"] * out["num_vertices"]


def test_self_times_on_a_synthetic_span_tree():
    # root [0,10] has children a [1,4] and b [5,9]; b has child c [6,8]
    spans = [["root", 0.0, 10.0, -1, "ok", None],
             ["a", 1.0, 4.0, 0, "ok", None],
             ["b", 5.0, 9.0, 0, "ok", None],
             ["c", 6.0, 8.0, 2, "ok", None]]
    assert spantrace.self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    assert spantrace.outermost_seconds(spans, lambda n: n in "bc") == 4.0
    assert spantrace.outermost_seconds(spans, lambda n: n == "c") == 2.0


def test_tracer_records_nesting_and_restores_bindings():
    import srklab
    from srklab import graphlab, make_params, verify
    original = graphlab.exact_T
    spec = graphlab.PowerGraphSpec(make_params(2, (2,), (2,)), 1)
    tracer = spantrace.Tracer()
    tracer.install(srklab)
    try:
        assert graphlab.exact_T is not original
        graphlab.graph_stats(spec)
    finally:
        tracer.uninstall()
    assert graphlab.exact_T is original
    assert verify.SUITES["marsaglia"] is verify.suite_marsaglia
    names = [s[0] for s in tracer.spans]
    assert names[0] == "graphlab.graph_stats"
    T = tracer.spans[names.index("graphlab.exact_T")]
    ball = tracer.spans[names.index("graphlab.ball_digits")]
    assert tracer.spans[T[3]][0] == "graphlab.graph_stats"
    assert tracer.spans[ball[3]] is T and ball[5] == {"rows": 9}
    m = spantrace.layer_metrics(tracer.dump(), [])
    assert m["graphlab.exact_T.pairs"] == 36 and m["counting.calls"] > 0


def _traced(fn):
    import srklab
    tracer = spantrace.Tracer()
    tracer.install(srklab)
    try:
        result = fn()
    finally:
        tracer.uninstall()
    return result, spantrace.work_counts(
        spantrace.layer_metrics(tracer.dump(), []))


def test_seed_changes_pairs_and_order_but_no_count(tmp_path, monkeypatch):
    from srklab import verify
    for workload in ("sweep", "stats"):
        ref = benchwork.load_reference(workload)
        a = benchwork.item_names(benchwork.make_inputs(
            workload, 1, ref, str(tmp_path)))
        b = benchwork.item_names(benchwork.make_inputs(
            workload, 2, ref, str(tmp_path)))
        assert a != b and sorted(a) == sorted(b)
        assert a == benchwork.item_names(benchwork.make_inputs(
            workload, 1, ref, str(tmp_path)))

    seen = {}

    def marsaglia(seed):
        pairs = seen.setdefault(seed, [])
        original = verify.Matrix

        def record(rows, cols, entries, field):
            if rows == 4:
                pairs.append(entries)
            return original(rows, cols, entries, field)

        verify.Matrix = record
        try:
            return verify.SUITES["marsaglia"](random_pairs=40, seed=seed)
        finally:
            verify.Matrix = original

    rep1, counts1 = _traced(lambda: marsaglia(1))
    rep2, counts2 = _traced(lambda: marsaglia(2))
    assert seen[1] != seen[2] and len(seen[1]) == len(seen[2]) == 80
    assert rep1["checked"] == rep2["checked"] == 256 + 40
    assert counts1 == counts2 and counts1["gf.rank.calls"] > 0

    # a small sweep in two seed orders does the same work, each in a
    # fresh traced worker as in a benchmark run
    monkeypatch.chdir(ROOT)
    small = {"rows": [r for r in benchwork.load_reference("sweep")["rows"]
                      if r["V"] <= 64]}
    counts = []
    for seed in (1, 2):
        inputs = benchwork.make_inputs("sweep", seed, small, str(tmp_path))
        path, trace = tmp_path / "inputs.json", tmp_path / "trace.json"
        path.write_text(json.dumps(inputs))
        rec = run.spawn([str(path), "trace", str(trace)], 60)
        assert rec["status"] == "ok" and rec["rc"] == 0
        counts.append(spantrace.work_counts(spantrace.layer_metrics(
            json.loads(trace.read_text()), [])))
    assert counts[0] == counts[1]
    assert counts[0]["gf.rank.calls"] > 0
    assert counts[0]["graphlab.max_independent_set.solved"] == len(
        small["rows"])


def test_item_tail_percentile():
    assert run.item_tail(list(range(76))) == (65, "p86.8")
    assert run.item_tail(list(range(15))) == (14, "max")


def test_run_cap_kills_a_pass_and_fails_its_items(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    ref = benchwork.load_reference("stats")
    inputs = benchwork.make_inputs("stats", 0, ref, str(tmp_path))
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps(inputs))
    rec = run.spawn([str(path), "run"], 0.3)
    assert rec["status"] == "killed"
    tally = run.judge(inputs, [rec], ref)
    assert tally["attempted"] == tally["error"] == len(inputs["items"])


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = run.end_to_end(
        [{"status": "ok", "wall_s": 1.0, "elapsed_s": 1.1, "peak_rss_mb": 1.0,
          "items": [{"seconds": 0.5}]}], [0.2],
        {"attempted": 1, "ok": 1, "error": 0, "wrong": 0})
    assert sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"])
    layer = spantrace.layer_metrics(
        {"spans": [], "calls": {}, "seconds": {}, "suites": {}},
        sorted(benchwork.load_reference("verify")["suites"]))
    layer_names = set(layer) | {"trace.overhead_s", "trace.counts_match"}
    assert layer_names == {m["name"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
