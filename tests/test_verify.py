"""The batched Marsaglia suite against the pair-by-pair scalar loop it
replaced: same seeded pairs, same per-pair ranks, same count and the
same first counterexample; and the stacked fixed-X oracle of the
q-identity suite against the scalar-rank count it replaced."""

import inspect
import weakref
from collections import Counter

import numpy as np
import pytest

from srklab import bounds, cli, graphlab, verify
from srklab.gf import (Matrix, col_space_intersection_dim,
                       enumerate_matrices, field_make, rank,
                       row_space_intersection_dim)

CHUNK = verify.MARSAGLIA_CHUNK
EXHAUSTIVE = 16 * 16  # the 2x2 GF(2) pairs checked before the random ones


def _scalar_pairs(random_pairs, seed):
    """The random pairs as the scalar loop drew them: one 16-entry draw
    for X, then one for Y."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(random_pairs):
        xe = tuple(int(v) for v in rng.integers(0, 3, size=16))
        ye = tuple(int(v) for v in rng.integers(0, 3, size=16))
        out.append((xe, ye))
    return out


def _recorded_pairs(monkeypatch, random_pairs, seed):
    """Run the suite and return its report and the 4x4 pairs it built."""
    built = []
    original = verify.Matrix

    def record(rows, cols, entries, field):
        if rows == 4:
            built.append(entries)
        return original(rows, cols, entries, field)

    monkeypatch.setattr(verify, "Matrix", record)
    rep = verify.suite_marsaglia(random_pairs=random_pairs, seed=seed)
    monkeypatch.setattr(verify, "Matrix", original)
    return rep, list(zip(built[0::2], built[1::2]))


@pytest.mark.parametrize("random_pairs", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1,
                                          2500])
def test_chunked_draws_equal_the_scalar_draws(monkeypatch, random_pairs):
    for seed in (0, 7, 12):
        rep, pairs = _recorded_pairs(monkeypatch, random_pairs, seed)
        assert pairs == _scalar_pairs(random_pairs, seed)
        assert rep["ok"] and rep["checked"] == EXHAUSTIVE + random_pairs


def test_at_most_one_pair_of_matrix_objects_is_alive(monkeypatch):
    """The 4x4 Matrix objects are made one pair at a time and dropped
    before the next pair: never more than two alive at a construction."""
    random_pairs, seed = 2 * CHUNK + 5, 4
    built, alive = [], []
    live = weakref.WeakSet()
    original = verify.Matrix

    def record(rows, cols, entries, field):
        mat = original(rows, cols, entries, field)
        if rows == 4:
            built.append(entries)
            live.add(mat)
            alive.append(len(live))
        return mat

    monkeypatch.setattr(verify, "Matrix", record)
    rep = verify.suite_marsaglia(random_pairs=random_pairs, seed=seed)
    assert rep["ok"] and rep["checked"] == EXHAUSTIVE + random_pairs
    assert len(alive) == 2 * random_pairs and max(alive) <= 2
    assert list(zip(built[0::2], built[1::2])) == _scalar_pairs(random_pairs,
                                                                seed)


def test_batched_ranks_equal_scalar_ranks():
    F3 = field_make(3)
    pairs = _scalar_pairs(2048, seed=5)
    draw = np.array(pairs).reshape(len(pairs), 2, 4, 4)
    got = np.stack(verify._marsaglia_ranks(draw[:, 0], draw[:, 1], F3),
                   axis=1)
    assert got.dtype == np.int64
    want = []
    for xe, ye in pairs:
        X, Y = Matrix(4, 4, xe, F3), Matrix(4, 4, ye, F3)
        want.append([rank(X), rank(Y), rank(X.sub(Y)),
                     col_space_intersection_dim(X, Y),
                     row_space_intersection_dim(X, Y)])
    assert got.tolist() == want
    # the sample is not all full-rank pairs
    assert len({tuple(w) for w in want}) > 5


def test_counterexample_is_the_first_failing_pair_in_draw_order(monkeypatch):
    """A kernel_rank that overstates rk [X | Y] for pair i of the second
    chunk makes exactly that pair fail.  Each chunk ranks the five kernel
    stacks X, Y, X^T, Y^T, X - Y in one call, then ker X^T & ker Y^T
    (rk [X | Y]), then ker X & ker Y (rk [X ; Y])."""
    i = 37
    calls = []
    original = verify.kernel_rank

    def faulty(ker, F, k):
        ranks = original(ker, F, k)
        calls.append(len(ker))
        if len(calls) == 5:  # [X | Y] of the second chunk
            ranks[i] += 10
        return ranks

    monkeypatch.setattr(verify, "kernel_rank", faulty)
    seed = 3
    rep = verify.suite_marsaglia(random_pairs=3 * CHUNK, seed=seed)
    assert not rep["ok"]
    assert rep["checked"] == EXHAUSTIVE + CHUNK + i + 1
    xe, ye = _scalar_pairs(CHUNK + i + 1, seed)[-1]
    assert rep["counterexample"] == {"X": xe, "Y": ye}
    # two chunks ranked; the third never was
    assert calls == [5 * CHUNK, CHUNK, CHUNK] * 2


def test_marsaglia_ranks_refuse_a_row_rank_that_is_no_column_rank(
        monkeypatch):
    """rk X is read from ker X and from ker X^T; a kernel stack whose
    ker X^T of one pair belongs to another matrix (a valid kernel, of a
    power-of-q size) makes the two reads differ: ArithmeticError."""
    F3 = field_make(3)
    draw = np.array(_scalar_pairs(64, seed=9)).reshape(64, 2, 4, 4)
    X, Y = draw[:, 0], draw[:, 1]
    original = verify.kernel_stack
    rX = verify._marsaglia_ranks(X, Y, F3)[0]
    assert rX[5] > 0

    def swapped(A, F):
        ker = original(A, F)
        ker[2 * len(X) + 5] = original(np.zeros((1, 4, 4), np.int64), F)[0]
        return ker

    monkeypatch.setattr(verify, "kernel_stack", swapped)
    with pytest.raises(ArithmeticError, match="column rank"):
        verify._marsaglia_ranks(X, Y, F3)


def _scalar_fixed_x_histogram(n, i):
    """The exhaustive fixed-X count by scalar rank, pair by pair:
    (rk Y, dim(col X ∩ col Y)) over every n x n GF(2) matrix Y, with
    X = diag(1^i, 0^(n-i))."""
    F2 = field_make(2)
    ent = [0] * (n * n)
    for d in range(i):
        ent[d * n + d] = 1
    X = Matrix(n, n, tuple(ent), F2)
    return Counter((rank(Y), col_space_intersection_dim(X, Y))
                   for Y in enumerate_matrices(n, n, F2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fixed_x_histogram_equals_the_scalar_count(n):
    for i in range(n + 1):
        hist = verify._fixed_x_histogram(n, i)
        assert hist.shape == (n + 1, n + 1)
        want = _scalar_fixed_x_histogram(n, i)
        assert {(j, c): int(hist[j, c]) for j in range(n + 1)
                for c in range(n + 1) if hist[j, c]} == dict(want)


def test_every_default_sweep_space_is_within_the_suites_vertex_budget():
    """The cayley and gv-chain suites build every sweep space's adjacency
    with the default vertex budget and skip none; the triangles suite's
    balls, none larger than its space, are all within the default ball
    budget."""
    assert all(p.size() <= 1024 for p in verify.default_sweep())
    assert 1024 <= graphlab.DEFAULT_MAX_VERTICES
    assert 1024 <= graphlab.DEFAULT_MAX_BALL


def test_gv_chain_evaluates_the_default_reports_rows(monkeypatch, capsys):
    """gv-chain reads its chain from the very rows the default report
    prints: the same 76 (params, d) rows, in the same order, with the same
    budgets (200,000 search nodes)."""
    calls = []
    real = bounds.bound_report

    def recorded(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(dict(bound.arguments))
        return real(*args, **kwargs)

    monkeypatch.setattr(bounds, "bound_report", recorded)
    assert cli.main(["report", "--format", "json"]) == 0
    capsys.readouterr()
    report = calls.copy()
    calls.clear()
    assert verify.suite_gv_chain()["ok"]
    assert calls == report and len(calls) == 76
    assert {c["max_nodes"] for c in calls} == {200_000}
    assert {(c["params"], c["d"]) for c in calls} == {
        (p, d) for p in verify.default_sweep()
        for d in range(2, p.max_weight + 2)}
