"""Acceptance suite: the ten release criteria, one test per criterion.

The verdict lines (one per criterion) are printed by the terminal-summary
hook in conftest.py at the end of the run.
"""

import json
import math
import time
from collections import Counter
from itertools import combinations

from srklab.gf import enumerate_matrices, field_make, rank
from srklab.graphlab import (PowerGraphSpec, exact_T, graph_stats,
                             max_independent_set, verify_cayley)
from srklab.ramsey import (RamseyTable, hamming_gv_code_lb,
                           hamming_to_ramsey_lb, reevaluate)
from srklab.space import (enumerate_space, make_params, min_distance,
                          srk_distance, wt_preservation_check)
from srklab import bounds, counting, verify


def test_criterion_01_rank_counts():
    start = time.monotonic()
    for q in (2, 3):
        F = field_make(q)
        for n, m in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            hist = Counter(rank(M) for M in enumerate_matrices(n, m, F))
            for r in range(min(n, m) + 1):
                assert hist.get(r, 0) == counting.count_rank_matrices(n, m, r, q)
    assert counting.count_rank_matrices(2, 2, 0, 2) == 1
    assert counting.count_rank_matrices(2, 2, 1, 2) == 9
    assert counting.count_rank_matrices(2, 2, 2, 2) == 6
    assert time.monotonic() - start < 5.0


def test_criterion_02_q_identity():
    start = time.monotonic()
    for q in (2, 3):
        for n in range(1, 7):
            for i in range(n + 1):
                for j in range(n + 1):
                    total = sum(counting.Q_closed(i, j, c, n, q)
                                for c in range(j + 1))
                    assert total == counting.square_rank_count(n, j, q)
    rep = verify.SUITES["q-identity"]()  # adds the exhaustive fixed-X oracle
    assert rep["ok"], rep
    assert time.monotonic() - start < 30.0


def test_criterion_03_marsaglia():
    rep = verify.suite_marsaglia(random_pairs=100_000, seed=0)
    assert rep["ok"], rep
    assert rep["checked"] == 256 + 100_000


def test_criterion_04_bridge():
    iso = wt_preservation_check(make_params(2, (1, 1), (2, 2)))
    assert iso["ok"] and iso["expect_equality"] and iso["injective"]
    assert iso["checked"] == 16
    ineq = wt_preservation_check(make_params(2, (1, 2), (2, 2)))
    assert ineq["ok"] and not ineq["expect_equality"] and ineq["injective"]
    assert ineq["checked"] == 64


def test_criterion_05_cayley():
    for params in verify.default_sweep():
        if params.size() > 1024:
            continue
        for k in range(1, params.max_weight + 1):
            spec = PowerGraphSpec(params, k)
            rep = verify_cayley(spec, sample_size=8)
            assert rep["ok"], rep
            assert rep["degrees_checked"] == params.size()
            assert rep["expected_degree"] == counting.ball_volume(params, k) - 1
            stats = graph_stats(spec)
            assert 3 * stats.Delta == stats.T * stats.num_vertices


def _brute_alpha(params, k):
    """Independent oracle: scan all vertex subsets, largest first."""
    elems = list(enumerate_space(params))
    V = len(elems)

    def independent(subset):
        return all(srk_distance(elems[i], elems[j]) > k
                   for i, j in combinations(subset, 2))

    for size in range(V, 0, -1):
        if any(independent(s) for s in combinations(range(V), size)):
            return size
    return 0


def test_criterion_06_alpha():
    start = time.monotonic()
    cases = [
        (make_params(2, (1, 1), (1, 1)), 1, 2),
        (make_params(2, (1, 1, 1), (1, 1, 1)), 1, 4),
        (make_params(2, (2,), (2,)), 1, 4),
    ]
    for params, k, expect in cases:
        size, witness = max_independent_set(PowerGraphSpec(params, k))
        assert size == expect
        assert _brute_alpha(params, k) == expect
        assert len(witness) == size
        if size >= 2:
            assert min_distance(witness) >= k + 1
    assert time.monotonic() - start < 60.0


def test_criterion_07_gv_chain():
    rep = verify.suite_gv_chain()
    assert rep["ok"], rep
    assert rep["alpha_solved"] > 0


def test_criterion_08_T_bounds():
    sq = make_params(2, (2,), (2,))
    T = exact_T(PowerGraphSpec(sq, 1))
    assert T <= counting.T_upper(sq, 1) == 108
    cube = graph_stats(PowerGraphSpec(make_params(2, (1, 1, 1), (1, 1, 1)), 2))
    assert (cube.D, cube.T, cube.Delta) == (6, 12, 32)
    for params in verify.default_sweep():
        if params.n[0] != params.m[0]:
            continue
        for k in range(1, params.n[0] + 1):
            if counting.ball_volume(params, k) > 20_000:
                continue
            assert (exact_T(PowerGraphSpec(params, k))
                    <= counting.T_upper(params, k))


def test_criterion_09_eps_table():
    start = time.monotonic()
    rows = []
    for n in (2, 3):
        params = make_params(2, (n,), (n,))
        for k in range(1, n + 1):
            stats = graph_stats(PowerGraphSpec(params, k))
            rows.append((n, k, stats.D, stats.T, stats.eps_star))
            if 1 <= stats.T < stats.D ** 2:
                assert stats.eps_star > 0
            if stats.T == 0:
                assert math.isinf(stats.eps_star)
    assert len(rows) == 5
    assert time.monotonic() - start < 300.0


def test_criterion_10_ramsey():
    table = RamseyTable.from_json({"entries": [
        {"k": 3, "r": 2, "s": 1, "lo": 6, "hi": 6, "source": "user table"}]})
    code_lb = hamming_gv_code_lb(5, 2, 2)  # q = R(3;2,1) - 1
    assert code_lb == 3
    db = hamming_to_ramsey_lb(3, 2, 1, N=2, d=2, table=table, code_lb=code_lb)
    assert db.target == (3, 4, 2)
    assert db.kind == "lower"
    assert db.value == 4
    assert reevaluate(db)
    # the whole derivation is reproducible, step for step
    again = hamming_to_ramsey_lb(3, 2, 1, N=2, d=2, table=table,
                                 code_lb=code_lb)
    assert json.dumps(db.to_json(), sort_keys=True) == \
        json.dumps(again.to_json(), sort_keys=True)
