import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from srklab.gf import (BudgetError, FieldSpec, enumerate_matrices,
                       field_from_order, rank)
from srklab.graphlab import (PowerGraphSpec, SolverBudgetError,
                             adjacency_masks, exact_T, gabidulin_indices,
                             graph_stats, greedy_partition, kernel_indices,
                             max_independent_set, verify_cayley)
from srklab.space import (SrkCode, enumerate_space, make_params, min_distance,
                          srk_distance, srk_weight)
from srklab.verify import default_sweep
from srklab import bounds, counting, gf, graphlab, scheme, verify


# -- independent oracles ----------------------------------------------------

def _brute_edges(params, k):
    """All adjacency pairs by direct pairwise distance computation."""
    elems = list(enumerate_space(params))
    adj = set()
    for i, x in enumerate(elems):
        for j in range(i + 1, len(elems)):
            if 1 <= srk_distance(x, elems[j]) <= k:
                adj.add((i, j))
    return elems, adj

def _brute_alpha(params, k):
    """Maximum independent set size by scanning all vertex subsets."""
    elems, adj = _brute_edges(params, k)
    V = len(elems)
    for size in range(V, 0, -1):
        for subset in combinations(range(V), size):
            pairs = combinations(subset, 2)
            if all(pr not in adj for pr in pairs):
                return size
    return 0

def _brute_T(params, k):
    """Triangles through the zero vertex / edges in its neighborhood."""
    zero = next(iter(enumerate_space(params)))
    nbhd = [x for x in enumerate_space(params)
            if 1 <= srk_weight(x) <= k]
    total = 0
    for i in range(len(nbhd)):
        for j in range(i + 1, len(nbhd)):
            if 1 <= srk_distance(nbhd[i], nbhd[j]) <= k:
                total += 1
    assert srk_weight(zero) == 0
    return total

def _scalar_gabidulin(params, d):
    """The Gabidulin code word by word: every coefficient tuple of
    f = sum_{i < n-d+1} a_i x^(q^i) over GF(q^m), evaluated at g_j =
    alpha^j with scalar field operations."""
    (n, m), = params.block_shapes()
    dim, q = n - d + 1, params.q
    E = gf.field_make(q, m)
    frob = []   # frob[j][i] = g_j^(q^i), with g_j = alpha^j encoded as q^j
    for j in range(n):
        row = [q ** j]
        for _ in range(dim - 1):
            row.append(E.pow(row[-1], q))
        frob.append(row)
    out = []
    for coeffs in product(range(E.q), repeat=dim):
        digits = []   # row j holds the coefficients of f(g_j)
        for j in range(n):
            c = 0
            for a, g in zip(coeffs, frob[j]):
                c = E.add(c, E.mul(a, g))
            digits += gf.int_digits(c, q, m)
        out.append(gf.digits_int(digits[::-1], q))
    return out


CUBE = make_params(2, (1, 1, 1), (1, 1, 1))


def test_power_k_validation():
    with pytest.raises(ValueError):
        PowerGraphSpec(CUBE, 0)


def test_exact_T_examples():
    assert exact_T(PowerGraphSpec(CUBE, 1)) == 0
    assert exact_T(PowerGraphSpec(CUBE, 2)) == 12
    assert exact_T(PowerGraphSpec(make_params(2, (2,), (2,)), 1)) == 18
    assert exact_T(PowerGraphSpec(make_params(2, (1, 2), (2, 2)), 1)) == 21
    assert exact_T(PowerGraphSpec(make_params(3, (1, 1), (1, 1)), 1)) == 2


@pytest.mark.parametrize("q,n,m,k", [
    (2, (1, 1), (1, 1), 1),
    (2, (1, 1), (2, 1), 1),
    (2, (2,), (2,), 1),
    (3, (1, 1), (1, 1), 1),
    (2, (1, 1, 1), (1, 1, 1), 2),
    (2, (1, 2), (2, 2), 2),
])
def test_exact_T_against_brute_force(q, n, m, k):
    params = make_params(q, n, m)
    assert exact_T(PowerGraphSpec(params, k)) == _brute_T(params, k)


def test_cube_stats():
    stats = graph_stats(PowerGraphSpec(CUBE, 1))
    assert (stats.num_vertices, stats.D, stats.T, stats.Delta) == (8, 3, 0, 0)
    assert math.isinf(stats.eps_star)
    stats2 = graph_stats(PowerGraphSpec(CUBE, 2))
    assert (stats2.num_vertices, stats2.D, stats2.T, stats2.Delta) == (8, 6, 12, 32)
    assert stats2.to_json()["eps_star"] == pytest.approx(
        2 - math.log(12) / math.log(6))
    assert graph_stats(PowerGraphSpec(CUBE, 1)).to_json()["eps_star"] == "inf"


def test_a_radius_past_the_largest_weight_counts_the_whole_space_once():
    """GF(2) 2x2 has largest weight 2: at k = 3000 the record counts the
    ball of radius 2, so the stats are those of k = 2, at the same small
    traced peak: T counted at radius 3000 would bincount 3001^2 slots."""
    params = make_params(2, (2,), (2,))
    want = graph_stats(PowerGraphSpec(params, 2))
    assert (want.D, want.T) == (15, 105)
    graphlab._tables.cache_clear()
    tracemalloc.start()
    try:
        got = graph_stats(PowerGraphSpec(params, 3000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert graphlab._tables(params).radius == 2
    assert peak < 1 << 20


def test_stats_identity_3Delta_eq_TV():
    for q, n, m, k in [(2, (2,), (2,), 1), (3, (1, 1), (1, 1), 1),
                       (2, (1, 2), (2, 2), 2)]:
        s = graph_stats(PowerGraphSpec(make_params(q, n, m), k))
        assert 3 * s.Delta == s.T * s.num_vertices
        assert s.D == counting.degree_D(make_params(q, n, m), k)


def test_mis_examples():
    size, code = max_independent_set(PowerGraphSpec(CUBE, 2))
    assert size == 2
    assert min_distance(code) >= 3
    size2, code2 = max_independent_set(PowerGraphSpec(CUBE, 1))
    assert size2 == 4
    assert min_distance(code2) >= 2
    size3, code3 = max_independent_set(
        PowerGraphSpec(make_params(2, (2,), (2,)), 1))
    assert size3 == 4
    assert min_distance(code3) >= 2


@pytest.mark.parametrize("q,n,m,k", [
    (2, (1, 1), (1, 1), 1),
    (2, (1, 1), (2, 1), 1),
    (3, (1, 1), (1, 1), 1),
    (2, (2,), (2,), 1),
    (2, (1, 1, 1), (1, 1, 1), 2),
])
def test_mis_against_brute_force(q, n, m, k):
    params = make_params(q, n, m)
    size, code = max_independent_set(PowerGraphSpec(params, k))
    assert size == _brute_alpha(params, k)
    assert len(code) == size
    if size >= 2:
        assert min_distance(code) >= k + 1


def test_mis_deterministic():
    spec = PowerGraphSpec(make_params(2, (2,), (2,)), 1)
    a = max_independent_set(spec)
    b = max_independent_set(spec)
    assert a == b


def test_solver_node_budget():
    spec = PowerGraphSpec(make_params(2, (1, 2), (2, 2)), 1)
    with pytest.raises(SolverBudgetError):
        max_independent_set(spec, max_nodes=0)


def test_vertex_budget():
    spec = PowerGraphSpec(make_params(2, (3, 3), (3, 3)), 1)
    with pytest.raises(BudgetError):
        max_independent_set(spec, max_vertices=4096)


def test_greedy_gv_code_cube():
    code = greedy_partition(PowerGraphSpec(CUBE, 1))[0]
    assert len(code) == 4
    assert min_distance(code) >= 2


def test_greedy_meets_sphere_covering_floor():
    for q, n, m, k in [(2, (2,), (2,), 1), (2, (1, 2), (2, 2), 1),
                       (3, (1, 1), (1, 1), 1), (2, (1, 1, 1), (1, 1, 1), 2)]:
        params = make_params(q, n, m)
        code = greedy_partition(PowerGraphSpec(params, k))[0]
        V = params.size()
        ball = counting.ball_volume(params, k)
        assert len(code) >= -(-V // ball)
        assert min_distance(code) >= k + 1


def test_greedy_partition_cube():
    classes = greedy_partition(PowerGraphSpec(CUBE, 1))
    assert sorted(len(c) for c in classes) == [4, 4]


def test_greedy_partition_properties():
    params = make_params(2, (1, 2), (2, 2))
    k = 1
    classes = greedy_partition(PowerGraphSpec(params, k))
    seen = set()
    for c in classes:
        for w in c.words:
            idx = w.index()
            assert idx not in seen
            seen.add(idx)
        if len(c) >= 2:
            assert min_distance(c) >= k + 1
    assert len(seen) == params.size()
    D = counting.degree_D(params, k)
    assert len(classes) <= D + 1


def test_greedy_partition_order_policies_agree_on_coverage():
    params = make_params(3, (1, 1), (1, 1))
    spec = PowerGraphSpec(params, 1)
    for policy in ("lex", "weight-then-lex"):
        classes = greedy_partition(spec, order_policy=policy)
        assert sum(len(c) for c in classes) == params.size()
    with pytest.raises(ValueError):
        greedy_partition(spec, order_policy="random")


def test_verify_cayley():
    rep = verify_cayley(PowerGraphSpec(make_params(2, (2,), (2,)), 1))
    assert rep["ok"]
    assert rep["expected_degree"] == 9
    assert rep["degrees_checked"] == 16
    assert rep["translations_checked"] == 64
    rep2 = verify_cayley(PowerGraphSpec(make_params(3, (1, 2), (2, 2)), 2),
                         sample_size=16)
    assert rep2["ok"]


@pytest.mark.parametrize("q,n,m", [(4, (2,), (2,)), (4, (1, 1), (1, 2)),
                                   (8, (1,), (2,)), (8, (1, 1), (1, 1)),
                                   (9, (1,), (2,)), (9, (1, 1), (1, 2))])
def test_verify_cayley_over_extension_fields(q, n, m):
    # the draws have one seed, so every k checks the same triples: 32 for
    # each k, summed over all k
    params = make_params(q, n, m)
    samples = 32 * params.max_weight
    for k in range(1, params.max_weight + 1):
        rep = verify_cayley(PowerGraphSpec(params, k), sample_size=samples)
        assert rep["degree_violations"] == []
        assert rep["translation_violations"] == []
        assert rep["ok"]
        assert rep["degrees_checked"] == params.size()
        assert rep["translations_checked"] == samples
        assert rep["expected_degree"] == counting.degree_D(params, k)


def test_gf257_stats_use_wide_digits():
    stats = graph_stats(PowerGraphSpec(make_params(257, (1, 1), (1, 1)), 1))
    assert (stats.num_vertices, stats.D, stats.T) == (257 ** 2, 512, 65280)


@pytest.mark.parametrize("q,n,m,k,alpha", [
    (2, (3,), (3,), 1, 64),          # MRD size, met by the LP bound
    (3, (1,) * 5, (1,) * 5, 2, 18),  # A_3(5, 3)
])
def test_mis_closes_formerly_budget_stopped_rows(q, n, m, k, alpha):
    result = max_independent_set(PowerGraphSpec(make_params(q, n, m), k),
                                 max_nodes=200_000)
    assert result.alpha == alpha
    assert result.lb <= alpha <= result.ub
    assert len(result.witness) == alpha
    assert min_distance(result.witness) >= k + 1


def test_mis_result_unpacks_and_reports_the_search():
    result = max_independent_set(PowerGraphSpec(make_params(2, (3,), (3,)), 1))
    size, code = result
    assert (size, code) == (result.alpha, result.witness)
    # the Gabidulin seed meets the LP bound 64
    assert (result.nodes, result.lb, result.ub) == (1, 64, 64)


_MIS_IMPORTS_SCRIPT = """
import sys
import numpy
before = "numpy.ma" in sys.modules
from srklab import graphlab, make_params
spec = graphlab.PowerGraphSpec(make_params(2, (2, 2), (2, 2)), 2)
result = graphlab.max_independent_set(spec)
print(before, result.alpha, result.lb < result.ub, "numpy.ma" in sys.modules)
"""


def test_mis_does_not_import_numpy_ma():
    """A plain np.unique imports numpy.ma on numpy 2.x, ~30 ms once per
    process; the search's per-class loop (reached here: lb 4 < ub 10)
    must not pay it.  Skipped where ``import numpy`` loads numpy.ma."""
    src = str(pathlib.Path(graphlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _MIS_IMPORTS_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, alpha, branched, after = proc.stdout.split()
    if before == "True":
        pytest.skip("import numpy already loads numpy.ma")
    assert (alpha, branched, after) == ("9", "True", "False")


def test_solver_budget_error_carries_bounds():
    spec = PowerGraphSpec(make_params(3, (1,) * 7, (1,) * 7), 2)
    with pytest.raises(SolverBudgetError) as info:
        max_independent_set(spec, max_nodes=100)
    exc = info.value
    assert str(exc) == "exceeded 100 branch-and-bound nodes"
    assert exc.nodes == 101
    assert (exc.lb, exc.ub, exc.ub_source) == (82, 145, "lp")


@pytest.mark.parametrize("q,n,m,k,alpha,nodes,lb,ub,source,witness", [
    # (q, n, m, k, alpha, nodes, lb, ub, ub_source, witness)
    (2, (2, 2), (2, 2), 2, 9, 31, 4, 10, "lp",
     [0, 22, 93, 100, 115, 142, 184, 201, 239])])
def test_branching_searches_are_pinned(q, n, m, k, alpha, nodes, lb, ub,
                                       source, witness):
    """The default-sweep spec whose search branches: the node count and
    the witness follow the colouring's branch order and bounds, so a
    change to either shows here."""
    result = max_independent_set(PowerGraphSpec(make_params(q, n, m), k))
    assert (result.alpha, result.nodes, result.lb, result.ub,
            result.ub_source) == (alpha, nodes, lb, ub, source)
    assert list(result.witness.indices) == witness


@pytest.mark.parametrize("N", [3, 4, 5])
def test_kernel_seed_closes_the_sweeps_d2_rows_at_the_root(N):
    """GF(3)^N at k = 1: the kernel seed, here the code of the words whose
    entries sum to 0, meets the LP's 3^(N-1) at the root, where the
    greedy classes fall short."""
    alpha = 3 ** (N - 1)
    result = max_independent_set(
        PowerGraphSpec(make_params(3, (1,) * N, (1,) * N), 1))
    assert (result.alpha, result.nodes, result.lb, result.ub,
            result.ub_source) == (alpha, 1, alpha, alpha, "lp")
    assert list(result.witness.indices) == [
        v for v in range(3 ** N) if sum(gf.int_digits(v, 3, N)) % 3 == 0]


def test_a_budget_stop_after_branching_is_pinned():
    """GF(2)^8 at k = 2 stops after 500 nodes; by then the branching has
    raised lb from the seed's 16 to 19, below the LP's 25."""
    spec = PowerGraphSpec(make_params(2, (1,) * 8, (1,) * 8), 2)
    with pytest.raises(SolverBudgetError) as info:
        max_independent_set(spec, max_nodes=500)
    exc = info.value
    assert (exc.nodes, exc.lb, exc.ub, exc.ub_source) == (501, 19, 25, "lp")


@pytest.mark.parametrize("q,n,m,alpha", [
    (7, (1, 1, 1), (1, 1, 1), 49), (3, (1, 2), (2, 2), 81),
    (2, (2, 2), (3, 3), 512)])
def test_kernel_seed_has_distance_2_and_closes_the_search(q, n, m, alpha):
    """|V| / q^M words at distance 2, M = max m_i, which meet the LP: the
    search ends at the root."""
    params = make_params(q, n, m)
    indices = kernel_indices(params, 2)
    assert len(set(indices)) == len(indices) == params.size() // q ** max(m)
    assert min_distance(SrkCode(params, tuple(indices))) == 2
    result = max_independent_set(PowerGraphSpec(params, 1))
    assert (result.alpha, result.nodes, result.lb, result.ub) \
        == (alpha, 1, alpha, alpha)
    assert list(result.witness.indices) == indices


def test_kernel_seed_scope():
    assert kernel_indices(make_params(4, (2,), (2,)), 2) is None
    assert kernel_indices(make_params(9, (1, 1), (1, 2)), 2) is None
    assert kernel_indices(make_params(2, (1, 1, 1), (1, 1, 1)), 3) is None
    assert kernel_indices(make_params(3, (2,), (2,)), 1) is None


def test_a_dependent_kernel_seed_is_refused(monkeypatch):
    # vertices 0 and 1 differ in one entry: adjacent at k = 1
    spec = PowerGraphSpec(make_params(3, (1, 1), (1, 2)), 1)
    monkeypatch.setattr(graphlab, "kernel_indices", lambda params, d: [0, 1])
    with pytest.raises(ArithmeticError, match="kernel code"):
        max_independent_set(spec)


def test_largest_lex_class_seeds_the_search():
    # the largest class of the lex partition of GF(3)^5 at k = 2 has
    # A_3(5, 3) = 18 words and meets the LP bound: no branching
    spec = PowerGraphSpec(make_params(3, (1,) * 5, (1,) * 5), 2)
    classes = greedy_partition(spec)
    result = max_independent_set(spec)
    assert max(len(c) for c in classes) == 18 > len(classes[0])
    assert (result.nodes, result.lb, result.ub) == (1, 18, 18)
    assert result.witness == max(classes, key=len)
    assert min_distance(result.witness) >= 3


def test_a_dependent_seed_class_is_refused(monkeypatch):
    # a class of all 16 vertices is the largest, and no code of distance 2
    spec = PowerGraphSpec(make_params(2, (2,), (2,)), 1)
    real = graphlab._adjacency

    def with_full_class(spec):
        adj = real(spec)
        return adj._replace(lex=adj.lex + ((1 << 16) - 1,))

    monkeypatch.setattr(graphlab, "_adjacency", with_full_class)
    with pytest.raises(ArithmeticError):
        max_independent_set(spec)


def test_a_dependent_gabidulin_seed_is_refused(monkeypatch):
    # vertices 0 and 1 differ in one entry: adjacent at k = 1
    spec = PowerGraphSpec(make_params(2, (2,), (2,)), 1)
    monkeypatch.setattr(graphlab, "gabidulin_indices", lambda params, d: [0, 1])
    with pytest.raises(ArithmeticError, match="Gabidulin code"):
        max_independent_set(spec)


def test_a_witness_below_the_distance_is_refused(monkeypatch):
    monkeypatch.setattr(graphlab, "min_distance", lambda *codes: 1)
    with pytest.raises(ArithmeticError, match="distance contract"):
        max_independent_set(PowerGraphSpec(CUBE, 1))


@pytest.mark.parametrize("q,n,m,d", [
    (2, 3, 3, 2), (2, 2, 3, 2), (3, 2, 2, 2), (2, 3, 3, 3), (5, 2, 2, 2),
    (3, 2, 3, 2), (7, 2, 2, 2), (7, 1, 2, 1), (2, 3, 3, 1), (3, 2, 2, 1)])
def test_gabidulin_seed_is_an_independent_set(q, n, m, d):
    params = make_params(q, (n,), (m,))
    indices = gabidulin_indices(params, d)
    assert len(set(indices)) == len(indices) == q ** (m * (n - d + 1))
    assert set(indices) == set(_scalar_gabidulin(params, d))
    if d >= 2:   # no power graph at k = 0; every set has distance >= 1
        masks = adjacency_masks(PowerGraphSpec(params, d - 1))
        bits = sum(1 << v for v in indices)
        assert all(masks[v] & bits == 0 for v in indices)
    code = SrkCode(params, tuple(indices))
    assert min_distance(code) >= d


def test_gabidulin_seed_scope():
    assert gabidulin_indices(make_params(2, (1, 1), (2, 2)), 2) is None
    assert gabidulin_indices(make_params(4, (2,), (2,)), 2) is None
    assert gabidulin_indices(make_params(2, (2,), (2,)), 3) is None


def test_the_gabidulin_seed_ends_a_search_at_the_root():
    """GF(2) 3x5 at d = 3: the Gabidulin code's 32 words meet the LP bound
    at the root.  Without it the search spends its whole default budget of
    2,000,000 nodes and stops at 20 <= alpha <= 32."""
    spec = PowerGraphSpec(make_params(2, (3,), (5,)), 2)
    result = max_independent_set(spec, max_vertices=1 << 15)
    assert (result.alpha, result.nodes, result.lb, result.ub,
            result.ub_source) == (32, 1, 32, 32, "lp")
    graphlab._tables.cache_clear()


def _reference_sweep_rows():
    path = (pathlib.Path(__file__).resolve().parent.parent
            / "perfbench" / "reference" / "sweep.json")
    rows = json.loads(path.read_text())["rows"]
    return [(r["q"], tuple(int(x) for x in r["n"].split("|")),
             tuple(int(x) for x in r["m"].split("|")), r["d"], r["alpha"])
            for r in rows if r["V"] <= 256 and isinstance(r["alpha"], int)]


@pytest.mark.parametrize("q,n,m,d,alpha", _reference_sweep_rows())
def test_mis_matches_reference_sweep(q, n, m, d, alpha):
    params = make_params(q, n, m)
    size, code = max_independent_set(PowerGraphSpec(params, d - 1),
                                     max_nodes=200_000)
    assert size == alpha
    assert len(code) == size
    if size >= 2:
        assert min_distance(code) >= d
    assert graphlab.code_size(params, d, max_nodes=200_000) == alpha
    assert graphlab.code_size(params, 1) == params.size()


def test_code_size_keeps_the_solver_budgets():
    params = make_params(2, (1, 2), (2, 2))
    with pytest.raises(SolverBudgetError):
        graphlab.code_size(params, 2, max_nodes=0)
    with pytest.raises(BudgetError):
        graphlab.code_size(params, 2, max_vertices=63)
    assert graphlab.code_size(params, 1, max_vertices=63) == 64


# -- orbit-reduced T, batched rank tables, table-free field arithmetic -----

def _pairwise_T(spec):
    """The O(S^2) count of T over the nonzero ball of ``_recursive_ball``,
    with its own q x q subtraction table."""
    F = spec.params.field
    tab = graphlab._tables(spec.params)
    sub = np.array([[F.sub(a, b) for b in range(F.q)] for a in range(F.q)])
    rows = _recursive_ball(spec)[1:]
    total = 0
    for i in range(rows.shape[0] - 1):
        w = tab.weights_of(sub[rows[i + 1:], rows[i]])
        total += int(np.count_nonzero(w <= spec.k))
    return total


def _recursive_ball(spec):
    """Ball rows by recursion over the blocks, in canonical order."""
    tab = graphlab._tables(spec.params)
    per_block = [(gf.digit_rows(tab.q, ln), ranks)
                 for off, ln, ranks in tab.blocks]
    rows = []

    def rec(bi, prefix, rem):
        if bi == len(per_block):
            rows.append(prefix)
            return
        digs, ranks = per_block[bi]
        for idx in np.nonzero(ranks <= rem)[0]:
            rec(bi + 1, prefix + tuple(digs[idx]), rem - int(ranks[idx]))

    rec(0, (), spec.k)
    return np.array(rows, dtype=tab.dtype)


ORBIT_CASES = [
    (4, (2,), (2,), 1), (4, (1, 1), (2, 2), 1), (4, (1, 2), (2, 2), 2),
    (8, (1, 1), (2, 2), 1), (8, (1, 1, 1), (1, 1, 1), 2),
    (9, (2,), (2,), 1), (9, (1, 1), (1, 2), 1), (9, (1, 1, 1), (1, 1, 1), 2),
    (2, (2, 2), (2, 2), 1), (2, (2, 2), (2, 3), 2), (2, (2, 2, 1), (2, 2, 2), 2),
    (3, (1, 1, 1, 1), (2, 2, 1, 1), 2), (2, (1,) * 8, (1,) * 8, 3),
]


@pytest.mark.parametrize("q,n,m,k", ORBIT_CASES)
def test_orbit_T_matches_pairwise_count(q, n, m, k):
    spec = PowerGraphSpec(make_params(q, n, m), k)
    assert exact_T(spec) == _pairwise_T(spec)


@pytest.mark.parametrize("q,n,m,k", ORBIT_CASES)
def test_vectorised_ball_equals_recursive_ball(q, n, m, k):
    spec = PowerGraphSpec(make_params(q, n, m), k)
    ball = graphlab.ball_digits(spec)
    ref = _recursive_ball(spec)
    assert ball.dtype == ref.dtype
    assert not ref[0].any()
    assert np.array_equal(ball, ref[1:])


def _reference_stats_items():
    path = (pathlib.Path(__file__).resolve().parent.parent
            / "perfbench" / "reference" / "stats.json")
    items = json.loads(path.read_text())["items"]
    out = []
    for name, ref in items.items():
        if not name.startswith("graph-stats "):
            continue
        args = dict(part.split("=") for part in name.split()[1:])
        out.append((int(args["q"]),
                    tuple(int(x) for x in args["n"].split(",")),
                    tuple(int(x) for x in args["m"].split(",")),
                    int(args["k"]), ref["T"]))
    return out


def test_reference_stats_cover_thirteen_graphs():
    assert len(_reference_stats_items()) == 13


@pytest.mark.parametrize("q,n,m,k,T", _reference_stats_items())
def test_orbit_T_matches_reference_stats(q, n, m, k, T):
    assert exact_T(PowerGraphSpec(make_params(q, n, m), k)) == T


def test_orbit_T_certificate_catches_a_broken_orbit(monkeypatch):
    spec = PowerGraphSpec(make_params(2, (1, 2), (2, 2)), 2)
    real = graphlab._profile_classes

    def merged(params, digits):
        # one label for every row: the rows are not one orbit
        return np.zeros(len(real(params, digits)), dtype=np.int64)

    monkeypatch.setattr(graphlab, "_profile_classes", merged)
    graphlab._tables.cache_clear()   # a cached record has its T_k
    with pytest.raises(ArithmeticError):
        exact_T(spec)


def _small_shapes(q):
    return [(n, m) for n in range(1, 13) for m in range(1, 13)
            if q ** (n * m) <= 4096]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 256])
def test_batched_rank_table_matches_scalar_rank(q):
    """Every matrix of every block shape with q^(n*m) <= 2^12, against
    Gaussian elimination, which shares no code with the kernel tables."""
    F = field_from_order(q)
    for n, m in _small_shapes(q):
        table = graphlab._block_rank_table(n, m, F.p, F.e)
        scalar = [rank(M) for M in enumerate_matrices(n, m, F)]
        assert table.tolist() == scalar, (q, n, m)


def test_cached_rank_tables_are_read_only():
    """Every record of the process shares a cached table."""
    for n, m in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        table = graphlab._block_rank_table(n, m, 2, 1)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1


def _unique_profile_classes(params, digits):
    """The orbit labels numbered by np.unique over the key rows."""
    R = graphlab._tables(params).block_ranks(digits)
    key = np.concatenate([R.sum(axis=1, keepdims=True)]
                         + [np.sort(R[:, list(g)], axis=1)
                            for _, g in params.shape_groups()], axis=1)
    return np.unique(key, axis=0, return_inverse=True)[1].ravel()


def test_profile_classes_number_the_orbits_as_unique_does():
    """The lexsort numbering equals np.unique's on the ball and co-ball
    rows of every radius of every default-sweep space, and of a space
    whose two shape groups interleave; no rows give no labels."""
    spaces = default_sweep() + [make_params(2, (1, 2, 1), (2, 2, 2))]
    assert len(spaces[-1].shape_groups()) == 2
    for params in spaces:
        tab = graphlab._tables(params)
        for k in range(1, params.max_weight):
            for rows in (tab.ball(k), tab.coball(k)):
                got = graphlab._profile_classes(params, rows)
                want = _unique_profile_classes(params, rows)
                assert got.dtype == np.int64
                assert np.array_equal(got, want), (params, k)
    params = make_params(3, (2, 1), (2, 2))
    empty = np.zeros((0, params.total_dim), dtype=np.uint8)
    got = graphlab._profile_classes(params, empty)
    assert got.dtype == np.int64 and got.shape == (0,)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 257])
def test_table_free_add_and_diff_match_the_field(q):
    F = field_from_order(q)
    tab = graphlab._tables(make_params(q, (1,), (1,)))
    a = np.arange(q, dtype=tab.dtype)
    diff = F.sub_array(a[:, None], a[None, :])
    add = F.add_array(a[:, None], a[None, :])
    assert diff.dtype == add.dtype == tab.dtype
    assert diff.tolist() == [[F.sub(x, y) for y in range(q)] for x in range(q)]
    assert add.tolist() == [[F.add(x, y) for y in range(q)] for x in range(q)]


def test_gf4096_hamming_stats_need_no_field_tables():
    stats = graph_stats(PowerGraphSpec(make_params(4096, (1, 1), (1, 1)), 1))
    assert stats.num_vertices == 4096 ** 2 and stats.D == 2 * 4095
    assert stats.T == 2 * 4095 * 4094 // 2
    assert field_from_order(4096)._mul is None


@pytest.mark.parametrize("q", [65521, 65536])
def test_largest_fields_hamming_T(q):
    spec = PowerGraphSpec(make_params(q, (1, 1), (1, 1)), 1)
    assert exact_T(spec, max_ball=2 * q) == (q - 1) * (q - 2)


def test_adjacency_masks_built_once_per_spec():
    spec = PowerGraphSpec(make_params(2, (1, 2), (2, 2)), 1)
    graphlab._adjacency.cache_clear()
    masks = adjacency_masks(spec, 4096)
    assert isinstance(masks, tuple)
    bounds.bound_report(spec.params, 2)
    # one build serves the masks, the greedy partition (its masks and lex
    # classes) and the MIS (its masks and the record behind them)
    info = graphlab._adjacency.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 4, 1)
    adj = graphlab._adjacency(spec)
    assert graphlab._Adjacency._fields == ("masks", "lex")
    assert adj.masks is masks
    assert [sum(1 << i for i in c.indices)
            for c in greedy_partition(spec)] == list(adj.lex)
    graphlab._adjacency.cache_clear()
    assert graphlab._adjacency.cache_info().currsize == 0


def test_adjacency_masks_cache_ignores_how_the_budget_is_passed():
    spec = PowerGraphSpec(make_params(2, (1, 2), (2, 2)), 1)
    graphlab._adjacency.cache_clear()
    masks = adjacency_masks(spec, 4096)
    assert adjacency_masks(spec) is masks
    assert adjacency_masks(spec, max_vertices=64) is masks
    info = graphlab._adjacency.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    with pytest.raises(BudgetError):   # a cached build does not lift it
        adjacency_masks(spec, 63)


def _count_ball_builds(monkeypatch) -> list:
    """A list that gets one (params, radius) entry per ball enumerated."""
    builds = []
    enumerate_ball = graphlab._enumerate_ball

    def counted(params, radius):
        builds.append((params, radius))
        return enumerate_ball(params, radius)

    monkeypatch.setattr(graphlab, "_enumerate_ball", counted)
    return builds


def test_one_nonzero_ball_serves_exact_T_and_the_masks(monkeypatch):
    """A report enumerates each spec's ball once, for exact_T and the mask
    build alike; each still checks its own budget against the shared,
    read-only build."""
    builds = _count_ball_builds(monkeypatch)
    graphlab._tables.cache_clear()
    graphlab._adjacency.cache_clear()
    specs = [PowerGraphSpec(make_params(2, (1, 2), (2, 2)), 1),
             PowerGraphSpec(make_params(3, (2,), (2,)), 1)]
    for spec in specs:
        bounds.bound_report(spec.params, spec.k + 1)
    assert len(builds) == len(specs)
    spec = specs[-1]
    assert not graphlab.ball_digits(spec).flags.writeable
    vol = counting.ball_volume(spec.params, spec.k)
    with pytest.raises(BudgetError):
        exact_T(spec, vol - 1)
    with pytest.raises(BudgetError):
        adjacency_masks(spec, spec.params.size() - 1)
    assert exact_T(spec, vol) == graph_stats(spec).T
    assert len(builds) == len(specs)


def test_a_verify_pass_enumerates_each_ball_once(monkeypatch):
    """The triangles suite (exact_T) and the gv-chain suite (the report's
    rows) each walk the 76 sweep specs as the report does, each space from
    its largest d down; the first enumerates one ball per space, at its
    largest radius, and the second reads the 26 records it left."""
    builds = _count_ball_builds(monkeypatch)
    graphlab._tables.cache_clear()
    graphlab._adjacency.cache_clear()
    assert verify.suite_triangles()["ok"] and verify.suite_gv_chain()["ok"]
    assert len(builds) == 26 and graphlab._tables.cache_info().currsize == 26
    assert set(builds) == {(p, p.max_weight) for p in default_sweep()}


def test_a_cached_ball_still_checks_its_budget():
    """The full-budget call caches the ball; a smaller budget is still
    refused.  The cached rows are read-only and start after the zero row."""
    spec = PowerGraphSpec(make_params(3, (1, 2), (1, 2)), 1)
    vol = counting.ball_volume(spec.params, spec.k)
    ball = graphlab.ball_digits(spec, vol)
    assert graphlab.ball_digits(spec) is ball and len(ball) == vol - 1
    with pytest.raises(BudgetError):
        graphlab.ball_digits(spec, vol - 1)
    assert not ball.flags.writeable and ball.any(axis=1).all()
    with pytest.raises(ValueError):
        ball[0, 0] = 1


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_T_from_one_record_matches_fresh_counts(monkeypatch, order):
    """On every space of the default sweep, T_k read from the ball record
    of the largest radius asked so far equals exact_T on fresh caches
    (a record of radius k) and the spectral T, whatever order the radii
    are asked in; asked from the top down, each space builds one ball."""
    fresh = {}
    for params in default_sweep():
        for k in range(1, params.max_weight + 1):
            graphlab._tables.cache_clear()
            fresh[params, k] = exact_T(PowerGraphSpec(params, k))
    builds = _count_ball_builds(monkeypatch)
    graphlab._tables.cache_clear()
    rng = np.random.default_rng(21)
    for params in default_sweep():
        ks = list(range(1, params.max_weight + 1))
        if order == "descending":
            ks.reverse()
        elif order == "shuffled":
            rng.shuffle(ks)
        for k in ks:
            T = exact_T(PowerGraphSpec(params, k))
            assert T == fresh[params, k] == scheme.spectral_T(params, k), \
                (params.describe(), k, order)
    want = {"ascending": len(fresh), "descending": 26}.get(order)
    assert len(builds) == want if want else 26 < len(builds) < len(fresh)
    graphlab._tables.cache_clear()


def test_a_smaller_radius_reads_the_larger_record():
    """A record of radius K serves k < K with the rows of weight <= k, in
    canonical order, read-only and cached; a larger radius replaces it."""
    params = make_params(3, (1, 2), (1, 2))
    graphlab._tables.cache_clear()
    whole = graphlab._tables(params).ball(3)
    tab = graphlab._tables(params)
    for k in (1, 2):
        spec = PowerGraphSpec(params, k)
        rows = graphlab.ball_digits(spec)
        assert graphlab.ball_digits(spec) is rows and not rows.flags.writeable
        assert rows.tolist() == whole[tab.weights_of(whole) <= k].tolist()
        assert len(rows) == counting.ball_volume(params, k) - 1
    assert graphlab._tables(params).radius == 3
    graphlab._tables.cache_clear()
    graphlab._tables(params).ball(1)
    graphlab._tables(params).ball(2)
    assert graphlab._tables(params).radius == 2
    graphlab._tables.cache_clear()


def test_clearing_the_space_records_drops_every_per_space_build(
        monkeypatch):
    """After ``_tables.cache_clear()`` the next ball, T and weight
    histogram of a space each rerun their build once; repeat calls rerun
    none.  T_1, counted first on the ball of radius 2, is T_1."""
    calls = []
    for name in ("_enumerate_ball", "_profile_classes", "_weight_rows"):
        monkeypatch.setattr(graphlab, name, lambda *args, _name=name,
                            _real=getattr(graphlab, name): (
                                calls.append(_name), _real(*args))[1])
    params = make_params(2, (1, 2), (2, 2))
    spec, spec1 = PowerGraphSpec(params, 2), PowerGraphSpec(params, 1)
    steps = [("_enumerate_ball", lambda: graphlab.ball_digits(spec)),
             ("_profile_classes", lambda: exact_T(spec1)),
             ("_weight_rows", lambda: graphlab._tables(params).histogram)]
    for _ in range(2):
        graphlab._tables.cache_clear()
        for name, step in steps:
            calls.clear()
            first = step()
            assert calls == [name]
            assert step() is first and calls == [name]
        assert exact_T(spec1) == scheme.spectral_T(params, 1)
    graphlab._tables.cache_clear()


def test_greedy_codes_are_the_class_masks():
    for policy in ("lex", "weight-then-lex"):
        spec = PowerGraphSpec(make_params(2, (1, 2), (2, 2)), 1)
        masks = graphlab.greedy_class_masks(spec, order_policy=policy)
        codes = greedy_partition(spec, order_policy=policy)
        assert [c.indices for c in codes] == [
            tuple(graphlab._bits(bits)) for bits in masks]


# -- batched adjacency rows --------------------------------------------------

def _per_vertex_masks(spec, vertices=None):
    """Neighbour bitmasks one vertex at a time (of every vertex, or of
    ``vertices``): u is a neighbour of v iff 1 <= srk(u - v) <= k."""
    tab = graphlab._tables(spec.params)
    digits = gf.digit_rows(spec.params.q, spec.params.total_dim)
    masks = []
    for v in range(digits.shape[0]) if vertices is None else vertices:
        w = tab.weights_of(spec.params.field.sub_array(digits, digits[v]))
        adj = (w >= 1) & (w <= spec.k)
        masks.append(sum(1 << int(u) for u in np.flatnonzero(adj)))
    return tuple(masks)


@pytest.mark.parametrize("q,n,m", [
    (2, (2,), (3,)), (2, (1, 2), (2, 2)), (3, (2,), (2,)),
    (3, (1, 1, 1), (1, 1, 2)), (4, (1,), (3,)), (4, (1, 1), (1, 2)),
    (9, (1,), (2,)), (9, (1, 1), (1, 1)), (8, (1, 1), (1, 2)),
    (257, (1,), (1,))])
@pytest.mark.parametrize("chunk", [None, 1, 100])
def test_batched_adjacency_masks_match_per_vertex_oracle(monkeypatch, q, n,
                                                         m, chunk):
    if chunk is not None:
        monkeypatch.setattr(graphlab, "_ROW_CHUNK", chunk)
    params = make_params(q, n, m)
    graphlab._tables.cache_clear()   # rebuilt in this chunk size
    for k in range(1, params.max_weight + 1):
        spec = PowerGraphSpec(params, k)
        graphlab._adjacency.cache_clear()
        assert adjacency_masks(spec, 4096) == _per_vertex_masks(spec)
        rep = verify_cayley(spec, sample_size=0)
        assert rep["degrees_checked"] == params.size()
        assert rep["ok"]
    graphlab._adjacency.cache_clear()


def test_translated_masks_match_the_distance_path_at_4096_vertices():
    spec = PowerGraphSpec(make_params(2, (1,) * 12, (1,) * 12), 2)
    graphlab._adjacency.cache_clear()
    masks = adjacency_masks(spec)
    assert len(masks) == 4096
    sample = sorted(np.random.default_rng(7).choice(4096, 64, replace=False)
                    .tolist())
    assert [masks[v] for v in sample] == list(_per_vertex_masks(spec, sample))
    graphlab._adjacency.cache_clear()


def test_dense_masks_from_the_coball_match_the_per_vertex_oracle(
        monkeypatch):
    """Each of the 50 sweep specs with 2|B*| > |V| - 1 translates its
    co-ball, the vectors of weight > k, and takes the complements: its
    masks equal the masks found one vertex at a time.  The 26 complete
    graphs (k = max_weight) have an empty co-ball and translate nothing."""
    translated = []
    real = graphlab._translates
    monkeypatch.setattr(graphlab, "_translates", lambda params, rows: (
        translated.append(len(rows)), real(params, rows))[1])
    dense = complete = 0
    for params in default_sweep():
        V = params.size()
        for k in range(1, params.max_weight + 1):
            spec = PowerGraphSpec(params, k)
            B = counting.ball_volume(params, k) - 1
            if 2 * B <= V - 1:
                continue
            dense += 1
            complete += B == V - 1
            translated.clear()
            graphlab._adjacency.cache_clear()
            assert adjacency_masks(spec) == _per_vertex_masks(spec)
            assert translated == ([V - 1 - B] if B < V - 1 else [])
    assert (dense, complete) == (50, 26)
    graphlab._adjacency.cache_clear()


def test_translated_chunks_stay_within_the_row_budget(monkeypatch):
    """Every ``add_array`` output and every chunk's neighbour indices hold
    at most max(chunk, |B*|) (vertex, ball row) pairs, and the chunks
    cover the space in order.  One 1 x 1 block over GF(1024) splits at
    h = 0, and forms no q x |B*| table either (q |B*| is above every
    bound tried); at k = 1 it is the complete graph."""
    real = FieldSpec.add_array
    pairs = []

    def recording(self, a, b):
        out = real(self, a, b)
        pairs.append(out.shape[:2])
        return out

    monkeypatch.setattr(FieldSpec, "add_array", recording)
    for q, n, k, D in [(3, (1,) * 6, 2, 72), (1024, (1,), 1, 1023)]:
        spec = PowerGraphSpec(make_params(q, n, n), k)
        V = spec.params.size()
        ball = graphlab._tables(spec.params).ball(k)
        want = (_per_vertex_masks(spec) if q == 3 else
                tuple(((1 << V) - 1) ^ 1 << v for v in range(V)))
        for chunk in (graphlab._ROW_CHUNK, 100, 1):
            monkeypatch.setattr(graphlab, "_ROW_CHUNK", chunk)
            pairs.clear()
            covered = 0
            for start, nbr in graphlab._translates(spec.params, ball):
                assert start == covered and nbr.shape[1] == D
                assert nbr.size <= max(chunk, D)
                covered += len(nbr)
            assert covered == V
            graphlab._adjacency.cache_clear()
            assert adjacency_masks(spec) == want
            assert pairs and all(d == D for _, d in pairs)
            assert all(r * d <= max(chunk, D) for r, d in pairs)
    graphlab._adjacency.cache_clear()


@pytest.mark.parametrize("q,n,m,k,cols", [
    (3, (1, 1, 1), (1, 1, 1), 1, slice(None)),
    (2, (1,) * 4, (1,) * 4, 1, slice(None)),
    (2, (3,), (3,), 2, slice(None)),
    (2, (1,) * 4, (1,) * 4, 1, slice(-1, None))])
def test_a_wrong_sum_breaks_the_translated_masks(monkeypatch, q, n, m, k,
                                                 cols):
    """1 + 1 miscomputed in the coordinates ``cols`` (as 0 over GF(3), as
    1 over GF(2)) makes two translates of the ball collide or a vertex
    its own neighbour; broken in the last coordinate of GF(2)^4 alone,
    only the loop shows (v + e_4 = v, the other rows stay distinct).
    GF(2) 3 x 3 at k = 2 is dense: its 168-row co-ball (the rank-3
    matrices) is what is translated."""
    real = FieldSpec.add_array

    def broken(self, a, b):
        out = real(self, a, b)
        a, b = np.broadcast_arrays(a, b)
        bad = np.zeros(out.shape, dtype=bool)
        bad[..., cols] = (a == 1)[..., cols] & (b == 1)[..., cols]
        out[bad] = 0 if self.q == 3 else 1
        return out

    monkeypatch.setattr(FieldSpec, "add_array", broken)
    graphlab._adjacency.cache_clear()
    with pytest.raises(ArithmeticError):
        adjacency_masks(PowerGraphSpec(make_params(q, n, m), k))
    graphlab._adjacency.cache_clear()


def test_verify_cayley_does_not_read_the_adjacency_masks(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify_cayley read the masks")

    monkeypatch.setattr(graphlab, "adjacency_masks", refuse)
    monkeypatch.setattr(graphlab, "_adjacency", refuse)
    rep = verify_cayley(PowerGraphSpec(make_params(3, (1, 1), (1, 2)), 1))
    assert rep["ok"] and rep["degrees_checked"] == 27


@pytest.mark.parametrize("policy", ["lex", "weight-then-lex"])
def test_greedy_partition_class_zero_is_the_greedy_code_on_the_sweep(policy):
    """Class 0 is the greedy code: scanning in the policy's order, a vertex
    is kept iff none of its neighbours (the per-vertex oracle) was."""
    specs = [PowerGraphSpec(p, d - 1) for p in default_sweep()
             for d in range(2, p.max_weight + 2)]
    assert len(specs) == 76
    for spec in specs:
        classes = greedy_partition(spec, order_policy=policy)
        nbrs = _per_vertex_masks(spec)
        order = range(len(nbrs))
        if policy == "weight-then-lex":
            w = [srk_weight(v) for v in enumerate_space(spec.params)]
            order = sorted(order, key=w.__getitem__)
        kept = 0
        for v in order:
            if nbrs[v] & kept == 0:
                kept |= 1 << v
        assert classes[0].indices == tuple(
            v for v in range(len(nbrs)) if kept >> v & 1), spec
        if policy == "lex":
            # the report's greedy columns come from the lex partition
            rep = bounds.bound_report(spec.params, spec.k + 1,
                                      max_nodes=200_000)
            assert (rep.greedy_code_size, rep.num_classes) == (
                kept.bit_count(), len(classes)), spec


def _first_fit(masks, order) -> list:
    """First fit vertex by vertex, as class bitmasks: each vertex, in
    ``order``, joins the first class holding none of its neighbours."""
    class_bits = []
    for v in order:
        m = masks[v]
        for ci, bits in enumerate(class_bits):
            if m & bits == 0:
                class_bits[ci] = bits | (1 << v)
                break
        else:
            class_bits.append(1 << v)
    return class_bits


@pytest.mark.parametrize("policy", ["lex", "weight-then-lex"])
def test_greedy_classes_grown_one_at_a_time_are_first_fit(policy):
    """The partition grown one class at a time is the first-fit partition
    of the policy's order, vertex by vertex: on every default-sweep spec,
    on GF(2) 3 x 4 at k = 1 and on GF(3)^7 at k = 2."""
    specs = [PowerGraphSpec(p, d - 1) for p in default_sweep()
             for d in range(2, p.max_weight + 2)]
    specs += [PowerGraphSpec(make_params(2, (3,), (4,)), 1),
              PowerGraphSpec(make_params(3, (1,) * 7, (1,) * 7), 2)]
    for spec in specs:
        masks = adjacency_masks(spec)
        order = range(len(masks))
        if policy == "weight-then-lex":
            w = [srk_weight(v) for v in enumerate_space(spec.params)]
            order = sorted(order, key=w.__getitem__)
        classes = greedy_partition(spec, order_policy=policy)
        assert [sum(1 << v for v in c.indices) for c in classes] \
            == _first_fit(masks, order), spec
    graphlab._adjacency.cache_clear()


def test_greedy_procedures_refuse_past_their_budgets():
    spec = PowerGraphSpec(make_params(2, (1, 1), (1, 2)), 1)
    with pytest.raises(BudgetError):
        greedy_partition(spec, max_vertices=4)
    with pytest.raises(ValueError):
        greedy_partition(spec, order_policy="random")
    rep = bounds.bound_report(spec.params, 2, max_vertices=4)
    assert rep.greedy_code_size == rep.num_classes == bounds.NOT_COMPUTED
    assert any(n.startswith("greedy procedures skipped") for n in rep.notes)


def _refused_partition(monkeypatch, corrupt, message):
    """Corrupt the class bitmasks where they are made: greedy_partition,
    in both orders, and the gv-chain suite must then raise
    ArithmeticError."""
    real = graphlab.greedy_class_masks
    spec = PowerGraphSpec(make_params(2, (1, 1, 1), (1, 1, 1)), 1)
    with monkeypatch.context() as m:
        m.setattr(graphlab, "greedy_class_masks",
                  lambda *args, **kwargs: corrupt(real(*args, **kwargs)))
        for policy in ("lex", "weight-then-lex"):
            with pytest.raises(ArithmeticError, match=message):
                greedy_partition(spec, order_policy=policy)
        with pytest.raises(ArithmeticError, match=message):
            verify.suite_gv_chain()


def test_gv_chain_refuses_classes_that_overlap(monkeypatch):
    # vertex 1 (weight 1) is never in class 0, which holds vertex 0.  Its
    # class taking vertex 0 instead keeps the bit counts summing to |V|
    # but covers 0 twice and 1 never; vertex 1 joining class 0 as well
    # covers every vertex, 1 twice
    for corrupt in (lambda classes: tuple(c ^ 3 if c & 2 else c
                                          for c in classes),
                    lambda classes: (classes[0] | 2,) + classes[1:]):
        _refused_partition(monkeypatch, corrupt, "does not cover the space")


def test_gv_chain_refuses_a_class_with_a_close_pair(monkeypatch):
    # first fit left the lowest vertex of class 1 out of class 0 because
    # it has a neighbour there; moving it to class 0 keeps a partition
    # whose class 0 holds a pair at distance <= k
    def moved(classes):
        low = classes[1] & -classes[1]
        rest = classes[1] ^ low
        return (classes[0] | low,) + ((rest,) if rest else ()) + classes[2:]

    _refused_partition(monkeypatch, moved, "violates distance contract")


def test_gv_chain_refuses_classes_that_are_not_the_reports(monkeypatch):
    # splitting the largest class keeps a partition whose classes keep
    # their distance, but not the partition whose classes the report counts
    real = graphlab.greedy_partition

    def split(spec, *args, **kwargs):
        classes = real(spec, *args, **kwargs)
        big = max(range(len(classes)), key=lambda i: len(classes[i]))
        if len(classes[big]) < 2:
            return classes
        first, *rest = classes[big].indices
        return (classes[:big] + [SrkCode(spec.params, (first,)),
                                 SrkCode(spec.params, rest)]
                + classes[big + 1:])

    monkeypatch.setattr(graphlab, "greedy_partition", split)
    rep = verify.suite_gv_chain()
    assert not rep["ok"]
    assert rep["counterexample"]["reason"] == "classes are not the report's"


def test_weight_chunks_stay_within_the_row_budget():
    params = make_params(3, (1,) * 6, (1,) * 6)   # 729 vertices, 44 a chunk
    digits = gf.digit_rows(params.q, params.total_dim)
    shapes = [w.shape for w in graphlab._weight_rows(params, digits)]
    assert len(shapes) == 17 and sum(r for r, _ in shapes) == 729
    assert all(r * c <= graphlab._ROW_CHUNK for r, c in shapes)


def test_verify_cayley_reports_a_wrong_degree(monkeypatch):
    spec = PowerGraphSpec(make_params(2, (1, 2), (2, 2)), 1)
    real = graphlab._weight_rows

    def one_edge_short(params, digits):
        # the first neighbour of vertex 3 moves out to distance k + 1
        for i, w in enumerate(real(params, digits)):
            if i == 0:
                w = w.copy()
                w[3, np.flatnonzero(w[3] == 1)[0]] = 2
            yield w

    monkeypatch.setattr(graphlab, "_weight_rows", one_edge_short)
    graphlab._tables.cache_clear()
    rep = verify_cayley(spec, sample_size=0)
    graphlab._tables.cache_clear()
    assert not rep["ok"]
    assert rep["degree_violations"] == [{"vertex": 3,
                                         "degree": rep["expected_degree"] - 1}]
    assert rep["degrees_checked"] == 64


@pytest.mark.parametrize("params", [
    *default_sweep(), make_params(4, (1, 1), (1, 2)),
    make_params(8, (1, 1), (1, 2)), make_params(9, (1,), (2,))],
    ids=lambda p: p.describe())
def test_histogram_degrees_equal_the_boolean_sweep(params):
    """For every k, the degrees read from the weight histogram equal those
    of a boolean adjacency sweep on the distances, one vertex at a time."""
    tab = graphlab._tables(params)
    digits = gf.digit_rows(params.q, params.total_dim)
    hist = graphlab._tables(params).histogram
    assert not hist.flags.writeable
    for v in range(0, len(digits), max(1, len(digits) // 64)):
        w = tab.weights_of(params.field.sub_array(digits, digits[v]))
        for k in range(1, params.max_weight + 1):
            assert hist[v, 1:k + 1].sum() == np.count_nonzero(
                (w >= 1) & (w <= k))
    for k in range(1, params.max_weight + 1):
        rep = verify_cayley(PowerGraphSpec(params, k), sample_size=4)
        assert rep["ok"] and rep["degrees_checked"] == params.size()


def test_a_weight_row_that_miscounts_is_refused(monkeypatch):
    params = make_params(2, (1, 2), (2, 2))
    real = graphlab._weight_rows

    def out_of_range(params, digits):
        # a weight past max_weight would be counted in the next row
        for w in real(params, digits):
            w = w.copy()
            w[0, 0] = params.max_weight + 1
            yield w

    monkeypatch.setattr(graphlab, "_weight_rows", out_of_range)
    graphlab._tables.cache_clear()
    with pytest.raises(ArithmeticError):
        graphlab._tables(params).histogram
    graphlab._tables.cache_clear()
