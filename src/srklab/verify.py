"""Named verification suites: every finite formula checked against an
independent brute-force oracle.  Each suite returns a report dict with
``ok``, a count of checks, and the first counterexample on failure."""

from __future__ import annotations

from collections import Counter, deque
from itertools import islice, repeat

import numpy as np

from .gf import (Matrix, enumerate_matrices, field_make, rank, kernel_stack,
                 kernel_rank, digit_rows, col_space_intersection_dim,
                 row_space_intersection_dim)
from .space import make_params, wt_preservation_check
from . import bounds, counting, graphlab

# Branch-and-bound nodes of each exact-alpha attempt on the default sweep:
# the gv-chain suite and ``srklab report`` on the built-in sweep stop there.
SWEEP_MAX_NODES = 200_000


def default_sweep():
    """The curated small-instance grid driving reports and sweep suites;
    every instance has |V| <= 1024."""
    out = []
    for q, shapes in [
        (2, [((1,), (1,)), ((1,), (2,)), ((2,), (2,)), ((2,), (3,)),
             ((3,), (3,)),
             ((1, 1), (1, 1)), ((1, 1, 1), (1, 1, 1)),
             ((1,) * 4, (1,) * 4), ((1,) * 5, (1,) * 5),
             ((1,) * 6, (1,) * 6), ((1,) * 7, (1,) * 7),
             ((1, 1), (2, 2)), ((1, 2), (2, 2)), ((1, 1), (1, 2)),
             ((2, 1), (2, 2)), ((1, 1, 1), (2, 2, 2)), ((2, 2), (2, 2))]),
        (3, [((1,), (1,)), ((1,), (2,)), ((2,), (2,)),
             ((1, 1), (1, 1)), ((1, 1, 1), (1, 1, 1)),
             ((1,) * 4, (1,) * 4), ((1,) * 5, (1,) * 5),
             ((1, 1), (2, 2)), ((1, 2), (1, 2))]),
    ]:
        for n, m in shapes:
            out.append(make_params(q, n, m))
    return out


def _report(name, checked, counterexample=None, extra=None):
    rep = {"suite": name, "checked": checked,
           "ok": counterexample is None,
           "counterexample": counterexample}
    if extra:
        rep.update(extra)
    return rep


def suite_rank_distribution():
    """Exhaustive rank histograms vs the closed-form counts."""
    checked = 0
    for q in (2, 3):
        F = field_make(q)
        for n, m in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            hist = Counter(rank(M) for M in enumerate_matrices(n, m, F))
            for r in range(min(n, m) + 1):
                expect = counting.count_rank_matrices(n, m, r, q)
                checked += 1
                if hist.get(r, 0) != expect:
                    return _report("rank-distribution", checked,
                                   {"q": q, "shape": (n, m), "r": r,
                                    "enumerated": hist.get(r, 0),
                                    "formula": expect})
    return _report("rank-distribution", checked)


def _fixed_x_histogram(n: int, i: int) -> np.ndarray:
    """Over GF(2), X = diag(1^i, 0^(n-i)) and every n x n matrix Y: the
    (n+1, n+1) array whose entry (j, c) counts the Y with rk Y = j and
    dim(col X ∩ col Y) = c, both read from one ``_marsaglia_ranks`` call
    over all Y."""
    Y = digit_rows(2, n * n).reshape(-1, n, n)
    X = np.broadcast_to(np.diag(np.arange(n) < i).astype(Y.dtype), Y.shape)
    _, rY, _, c, _ = _marsaglia_ranks(X, Y, field_make(2))
    return np.bincount(rY * (n + 1) + c,
                       minlength=(n + 1) ** 2).reshape(n + 1, n + 1)


def suite_q_identity():
    """sum_c Q(i,j,c) = M(j) for i,j <= n <= 6, q in {2,3}; and Q against
    exhaustive fixed-X counting for n in {2,3}, q = 2."""
    checked = 0
    for q in (2, 3):
        for n in range(1, 7):
            for i in range(n + 1):
                for j in range(n + 1):
                    total = sum(counting.Q_closed(i, j, c, n, q)
                                for c in range(j + 1))
                    checked += 1
                    if total != counting.square_rank_count(n, j, q):
                        return _report("q-identity", checked,
                                       {"q": q, "n": n, "i": i, "j": j,
                                        "sum_Q": total})
    for n in (2, 3):
        for i in range(n + 1):
            hist = _fixed_x_histogram(n, i).tolist()
            for j in range(n + 1):
                for c in range(j + 1):
                    checked += 1
                    if hist[j][c] != counting.Q_closed(i, j, c, n, 2):
                        return _report("q-identity", checked,
                                       {"oracle": "exhaustive", "n": n,
                                        "i": i, "j": j, "c": c,
                                        "enumerated": hist[j][c]})
    return _report("q-identity", checked)


# Random Marsaglia pairs are drawn and ranked this many at a time: enough
# to amortise the per-row numpy passes of kernel_stack, few enough that the
# pass's peak memory stays near that of a pair-by-pair loop.
MARSAGLIA_CHUNK = 1024


def _marsaglia_ranks(X, Y, F):
    """rk X, rk Y, rk(X - Y), c = dim(col X ∩ col Y) and
    r = dim(row X ∩ row Y) for (N, n, n) stacks X, Y over the prime field
    F, as int64 arrays: kernel_rank returns uint8, on which a negative
    difference would wrap around instead of failing the check.  X - Y is
    the field's ``sub_array``, which does not wrap on unsigned entries.

    One ``kernel_stack`` call gives the kernels of X, Y, X^T, Y^T and
    X - Y; rk [X | Y] is read from ker X^T & ker Y^T and rk [X ; Y] from
    ker X & ker Y, every kernel certified by ``kernel_rank``.  rk X and
    rk Y are read twice, from ker X and ker X^T; a mismatch raises
    ArithmeticError."""
    N, n = X.shape[:2]
    ker = kernel_stack(np.concatenate((X, Y, X.transpose(0, 2, 1),
                                       Y.transpose(0, 2, 1),
                                       F.sub_array(X, Y))), F)
    ranks = kernel_rank(ker, F, n).astype(np.int64)
    rX, rY, rXt, rYt, rD = ranks.reshape(5, N)
    kX, kY, kXt, kYt = ker.reshape(5, N, -1)[:4]
    rXY = kernel_rank(kXt & kYt, F, n)
    rXoverY = kernel_rank(kX & kY, F, n)
    if not (np.array_equal(rX, rXt) and np.array_equal(rY, rYt)):
        raise ArithmeticError("a row rank differs from its column rank")
    return rX, rY, rD, rX + rY - rXY, rX + rY - rXoverY


def suite_marsaglia(random_pairs: int = 100_000, seed: int = 0):
    """rk(X - Y) >= rk X + rk Y - c - r, exhaustively on 2x2 GF(2) pairs
    (scalar ``rank``) and on seeded random 4x4 GF(3) pairs.  The random
    pairs are drawn and ranked in stacks of ``MARSAGLIA_CHUNK`` with
    ``kernel_stack``; the draws are the same as one
    ``rng.integers(0, 3, size=16)`` per matrix, X before Y, so the pairs,
    the count and the first counterexample do not depend on the chunking."""
    checked = 0
    F2 = field_make(2)
    all22 = list(enumerate_matrices(2, 2, F2))
    for X in all22:
        for Y in all22:
            c = col_space_intersection_dim(X, Y)
            r = row_space_intersection_dim(X, Y)
            checked += 1
            if rank(X.sub(Y)) < rank(X) + rank(Y) - c - r:
                return _report("marsaglia", checked,
                               {"X": X.entries, "Y": Y.entries})
    F3 = field_make(3)
    rng = np.random.default_rng(seed)
    for start in range(0, random_pairs, MARSAGLIA_CHUNK):
        n = min(MARSAGLIA_CHUNK, random_pairs - start)
        draw = rng.integers(0, 3, size=(n, 2, 16))
        # field indices in uint8: an eighth of the bytes to stack and code
        stacks = draw.reshape(n, 2, 4, 4).astype(np.uint8)
        rX, rY, rD, c, r = _marsaglia_ranks(stacks[:, 0], stacks[:, 1], F3)
        bad = np.flatnonzero(rD < rX + rY - c - r)
        # X0, Y0, X1, Y1, ...: two Matrix objects per pair, in draw order,
        # made one at a time (zip builds each entry tuple straight from the
        # columns' lists) and dropped up to the first failing pair, so no
        # chunk of them outlives its construction
        mats = map(Matrix, repeat(4), repeat(4),
                   zip(*draw.reshape(2 * n, 16).T.tolist()), repeat(F3))
        i = int(bad[0]) if bad.size else n
        deque(islice(mats, 2 * i), maxlen=0)
        if bad.size:
            X, Y = islice(mats, 2)
            return _report("marsaglia", checked + start + i + 1,
                           {"X": X.entries, "Y": Y.entries})
    return _report("marsaglia", checked + max(random_pairs, 0))


def _weight_suite(name, instances):
    """``wt_preservation_check`` on each instance, its checks summed."""
    checked = 0
    for params in instances:
        rep = wt_preservation_check(params)
        checked += rep["checked"]
        if not rep["ok"]:
            return _report(name, checked, rep)
    return _report(name, checked)


def suite_isometry():
    """Weight preservation srk = wt_H(f(.)) on all-rows-1 instances."""
    return _weight_suite("isometry", (make_params(2, (1, 1), (2, 2)),
                                      make_params(2, (1, 1, 1), (2, 2, 2)),
                                      make_params(3, (1, 1), (2, 2))))


def suite_bridge_inequality():
    """srk <= wt_H(f(.)) and injectivity on mixed-shape instances."""
    return _weight_suite("bridge-inequality",
                         (make_params(2, (1, 2), (2, 2)),
                          make_params(2, (2,), (2,)),
                          make_params(2, (2, 1), (2, 2))))


def default_walk():
    """The rows of the default report, in the order it evaluates them."""
    return bounds.sweep_walk([(p, "all") for p in default_sweep()])


def suite_cayley():
    """Degree regularity and translation invariance across the sweep."""
    checked = 0
    for _, params, d in default_walk():
        spec = graphlab.PowerGraphSpec(params, d - 1)
        rep = graphlab.verify_cayley(spec, sample_size=16)
        checked += rep["degrees_checked"] + rep["translations_checked"]
        if not rep["ok"]:
            return _report("cayley", checked, rep)
    return _report("cayley", checked)


def suite_triangles():
    """3*Delta = T*|V| as an exact integer identity, plus T <= T_upper
    for leading-square-block instances."""
    checked = 0
    for _, params, d in default_walk():
        k = d - 1
        stats = graphlab.graph_stats(graphlab.PowerGraphSpec(params, k))
        checked += 1
        if 3 * stats.Delta != stats.T * stats.num_vertices:
            return _report("triangles", checked,
                           {"params": params.describe(), "k": k})
        if params.n[0] == params.m[0] and k <= params.n[0]:
            cap = counting.T_upper(params, k)
            checked += 1
            if stats.T > cap:
                return _report("triangles", checked,
                               {"params": params.describe(), "k": k,
                                "T": stats.T, "T_upper": cap})
    return _report("triangles", checked)


def suite_gv_chain():
    """gv <= greedy <= alpha and the average class size of the greedy
    partition >= the GV floor, on the very rows the default report prints
    (``bounds.bound_report`` within ``SWEEP_MAX_NODES``; alpha where the
    solver finishes, which certifies its own witness); the lex classes
    of ``graphlab.greedy_partition``, which certifies that they cover V
    once each at minimum distance >= d, must be the report's."""
    checked = alpha_solved = 0
    for _, params, d in default_walk():
        rep = bounds.bound_report(params, d, max_nodes=SWEEP_MAX_NODES)
        classes = graphlab.greedy_partition(
            graphlab.PowerGraphSpec(params, d - 1))
        where = {"params": params.describe(), "d": d}
        greedy = rep.greedy_code_size
        checked += 1
        if not rep.gv <= greedy:
            return _report("gv-chain", checked,
                           {**where, "gv": rep.gv, "greedy": greedy})
        if rep.exact_alpha != bounds.NOT_COMPUTED:
            alpha_solved += 1
            checked += 1
            if not greedy <= rep.exact_alpha:
                return _report("gv-chain", checked,
                               {**where, "greedy": greedy,
                                "alpha": rep.exact_alpha})
        if (len(classes), len(classes[0])) != (rep.num_classes, greedy):
            return _report("gv-chain", checked,
                           {**where, "reason": "classes are not the report's"})
        floor = int(rep.gv_exact_ratio)
        checked += 1
        if rep.avg_class_size < floor:
            return _report("gv-chain", checked,
                           {**where, "avg": rep.avg_class_size,
                            "gv_floor": floor})
    return _report("gv-chain", checked, extra={"alpha_solved": alpha_solved})


SUITES = {
    "rank-distribution": suite_rank_distribution,
    "q-identity": suite_q_identity,
    "marsaglia": suite_marsaglia,
    "isometry": suite_isometry,
    "bridge-inequality": suite_bridge_inequality,
    "cayley": suite_cayley,
    "triangles": suite_triangles,
    "gv-chain": suite_gv_chain,
}
