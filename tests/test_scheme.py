import ast
import hashlib
import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

import srklab
from srklab import counting, gf, graphlab, scheme
from srklab.graphlab import (PowerGraphSpec, SolverBudgetError, exact_T,
                             graph_stats, max_independent_set)
from srklab.space import make_params
from srklab.verify import default_sweep

REPO = pathlib.Path(__file__).resolve().parent.parent


# -- the bilinear-forms eigenmatrix -----------------------------------------

GRID = [(n, m, q) for q in (2, 3, 4, 5, 7) for n in range(1, 5)
        for m in range(n, 6)]


@pytest.mark.parametrize("n,m,q", GRID)
def test_eigenmatrix_identities_and_orthogonality(n, m, q):
    P = scheme.eigenmatrix(n, m, q)
    v = [counting.count_rank_matrices(n, m, a, q) for a in range(n + 1)]
    N = q ** (n * m)
    assert list(P[0]) == v
    assert [row[0] for row in P] == [1] * (n + 1)
    assert all(sum(row) == 0 for row in P[1:])
    # self-dual: multiplicities are the valencies, P^2 = N * I and
    # sum_i v_i P_a(i) P_b(i) = N v_a [a == b]
    for a in range(n + 1):
        for b in range(n + 1):
            assert sum(P[a][i] * P[i][b] for i in range(n + 1)) == \
                N * (a == b)
            assert sum(v[i] * P[i][a] * P[i][b] for i in range(n + 1)) == \
                N * v[a] * (a == b)


@pytest.mark.parametrize("q,n,m", [(2, 1, 1), (2, 1, 3), (2, 2, 2), (2, 2, 3),
                                   (2, 3, 3), (2, 2, 4), (3, 1, 2), (3, 2, 2),
                                   (3, 2, 3)])
def test_eigenmatrix_equals_character_sums(q, n, m):
    """P_a(i) = sum over rank-a X of w^(tr(Y^T X)) for a fixed rank-i Y and
    w a primitive p-th root of unity, counted over the whole block."""
    F = make_params(q, (n,), (m,)).field
    X = gf.digit_rows(q, n * m).astype(np.int64)
    ranks = graphlab._block_rank_table(n, m, F.p, F.e)
    P = scheme.eigenmatrix(n, m, q)
    for i in range(n + 1):
        Y = np.zeros((n, m), dtype=np.int64)
        Y[range(i), range(i)] = 1
        tr = X @ Y.ravel() % q
        for a in range(n + 1):
            hits = np.bincount(tr[ranks == a], minlength=q)
            # the sum is an integer, so every nonzero residue is hit alike
            assert len(set(hits[1:].tolist())) == 1
            assert P[i][a] == int(hits[0]) - int(hits[1])


def test_eigenmatrix_check_raises_without_assert(monkeypatch):
    monkeypatch.setattr(counting, "count_rank_matrices",
                        lambda n, m, r, q: 1)
    with pytest.raises(ArithmeticError):
        scheme.eigenmatrix.__wrapped__(2, 3, 5)
    with pytest.raises(ValueError):
        scheme.eigenmatrix(3, 2, 2)


def test_symmetrised_classes_are_the_profile_orbits():
    params = make_params(2, (1, 1, 2, 2), (1, 1, 2, 2))
    S = scheme.symmetrised_scheme(params)
    # {0,1} multisets of the two 1x1 blocks times {0,1,2} of the two 2x2
    assert len(S.weights) == 3 * 6
    digits = gf.digit_rows(params.q, params.total_dim)
    labels = graphlab._profile_classes(params, digits)
    sizes = sorted(np.bincount(labels).tolist())
    assert sorted(S.valencies) == sizes


# -- spectral T --------------------------------------------------------------

def _reference_stats_items():
    ref = json.loads((REPO / "perfbench" / "reference" / "stats.json")
                     .read_text())
    out = []
    for name, item in ref["items"].items():
        if not name.startswith("graph-stats"):
            continue
        args = dict(tok.split("=") for tok in name.split()[1:])
        out.append((int(args["q"]),
                    tuple(int(x) for x in args["n"].split(",")),
                    tuple(int(x) for x in args["m"].split(",")),
                    int(args["k"]), item["T"]))
    return out


@pytest.mark.parametrize("q,n,m,k,T", _reference_stats_items())
def test_spectral_T_matches_reference_stats(q, n, m, k, T):
    assert scheme.spectral_T(make_params(q, n, m), k) == T


def _sweep_specs():
    return [(p, d - 1) for p in default_sweep()
            for d in range(2, p.max_weight + 2)]


def test_spectral_T_matches_exact_T_on_the_sweep():
    specs = _sweep_specs()
    assert len(specs) == 76
    for params, k in specs:
        assert scheme.spectral_T(params, k) == \
            exact_T(PowerGraphSpec(params, k)), (params.describe(), k)


def test_spectral_T_beyond_the_max_weight_is_the_complete_graphs():
    """From the max weight on, the power graph is complete: T is the
    number of pairs of the |V| - 1 nonzero vectors."""
    for params in (make_params(2, (1, 2), (2, 2)), make_params(3, (2,), (2,))):
        V = params.size()
        for k in (params.max_weight, params.max_weight + 2):
            assert scheme.spectral_T(params, k) == (V - 1) * (V - 2) // 2 \
                == exact_T(PowerGraphSpec(params, k))


@pytest.mark.parametrize("n", [6, 9, 12, 15])
def test_spectral_T_under_T_upper_beyond_the_ball_budget(n):
    params = make_params(2, (n,), (n,))
    k = n // 3
    assert counting.ball_volume(params, k) > graphlab.DEFAULT_MAX_BALL
    assert 0 < scheme.spectral_T(params, k) <= counting.T_upper(params, k)


def test_spectral_identity_failure_raises(monkeypatch):
    params = make_params(2, (2, 2), (2, 2))
    S = scheme.symmetrised_scheme(params)
    bent = [list(row) for row in S.P]
    bent[1][1] += 1
    monkeypatch.setattr(scheme, "symmetrised_scheme",
                        lambda p: scheme.Scheme(S.weights,
                                                tuple(map(tuple, bent))))
    with pytest.raises(ArithmeticError):
        scheme.spectral_T(params, 1)


def test_spectral_walk_identity_checks_the_degree(monkeypatch):
    # only sum m theta^2 = |V| D can see a wrong degree: the cubic sum and
    # so T are unchanged
    monkeypatch.setattr(counting, "degree_D", lambda params, k: 1)
    with pytest.raises(ArithmeticError, match="walk counts"):
        scheme.spectral_T(make_params(2, (2, 2), (2, 2)), 1)


def test_graph_stats_cross_checks_spectral_T(monkeypatch):
    spec = PowerGraphSpec(make_params(2, (1, 2), (2, 2)), 1)
    T = graph_stats(spec).T
    monkeypatch.setattr(scheme, "spectral_T", lambda params, k: T + 1)
    with pytest.raises(ArithmeticError):
        graph_stats(spec)


# -- the Delsarte LP bound ---------------------------------------------------

@pytest.mark.parametrize("q,n,m,d,value", [
    (2, (1,) * 12, (1,) * 12, 3, Fraction(2048, 7)),
    (3, (1,) * 5, (1,) * 5, 3, 18),
    (2, (3,), (3,), 2, 64),
    (2, (4,), (4,), 3, 256),
    (2, (2, 2), (3, 3), 2, 512),
    (2, (2, 2), (2, 2), 3, 10),
])
def test_delsarte_lp_values(q, n, m, d, value):
    assert scheme.delsarte_lp(make_params(q, n, m), d).value == value


def _reference_alphas():
    rows = json.loads((REPO / "perfbench" / "reference" / "sweep.json")
                      .read_text())["rows"]
    return [(make_params(r["q"], [int(x) for x in r["n"].split("|")],
                         [int(x) for x in r["m"].split("|")]), r["d"],
             r["alpha"]) for r in rows if isinstance(r["alpha"], int)]


def test_delsarte_lp_bounds_every_reference_alpha():
    rows = _reference_alphas()
    assert len(rows) == 74
    for params, d, alpha in rows:
        lp = scheme.delsarte_lp(params, d)
        assert alpha <= lp.value, (params.describe(), d)
        assert scheme.check_dual(params, d, lp.dual) == lp.value


def _small_spaces(max_size: int):
    """Every space over q in {2, 3, 4, 5, 7} with |V| <= max_size, one per
    multiset of block shapes n_i x m_i (n_i <= m_i)."""
    out = []
    for q in (2, 3, 4, 5, 7):
        L = 0   # the largest total dimension with q^L <= max_size
        while q ** (L + 1) <= max_size:
            L += 1
        shapes = [(n, m) for n in range(1, L + 1) for m in range(n, L + 1)
                  if n * m <= L]

        def grow(start, left, blocks):
            if blocks:
                out.append(make_params(q, [n for n, _ in blocks],
                                       [m for _, m in blocks]))
            for i in range(start, len(shapes)):
                if shapes[i][0] * shapes[i][1] <= left:
                    grow(i, left - shapes[i][0] * shapes[i][1],
                         blocks + [shapes[i]])
        grow(0, L, [])
    return out


def test_lp_bound_never_exceeds_the_anticode_bound():
    """Delsarte's clique-coclique inequality: floor(LP) <= |V| // |A| for
    the anticode A of diameter k = d - 1 that holds every vector supported
    on min(k, sum n_i) rows of the widest blocks, q^e vectors.  This is
    why the exact search needs no clique bound besides the LP."""
    rows = 0
    for params in _small_spaces(1024):
        widest = sorted(zip(params.m, params.n), reverse=True)
        for d in range(2, params.max_weight + 2):
            left, e = d - 1, 0
            for m, n in widest:
                e += min(left, n) * m
                left -= min(left, n)
            lp = scheme.delsarte_lp(params, d).value
            assert math.floor(lp) <= params.size() // params.q ** e, \
                (params.describe(), d)
            rows += 1
    assert rows == 937


@pytest.mark.parametrize("tamper", ["shrink", "truncate"])
def test_tampered_dual_is_rejected(tamper):
    params = make_params(3, (1,) * 5, (1,) * 5)
    y = list(scheme.delsarte_lp(params, 3).dual)
    if tamper == "shrink":
        j = next(i for i, v in enumerate(y) if v > 0)
        y[j] -= Fraction(1, 1000)
    else:
        y = y[:-1]
    with pytest.raises(ArithmeticError):
        scheme.check_dual(params, 3, y)


# SHA-256 of one line per default-sweep (space, d) pair, d = 2..max+1:
# "<describe> <d> <value> <dual as a list of strings>", as the rational
# simplex gave them before the LP was solved in integers
_SWEEP_LP_SHA256 = \
    "ec223528f05a6b58f3f4222b37fc72a30ca635cfd06b059ea23cfaf423500f7d"


def test_sweep_lp_bounds_are_pinned():
    lines = []
    for params in default_sweep():
        for d in range(2, params.max_weight + 2):
            lp = scheme.delsarte_lp(params, d)
            lines.append(f"{params.describe()} {d} {lp.value} "
                         f"{[str(y) for y in lp.dual]}\n")
    assert len(lines) == 76
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == _SWEEP_LP_SHA256


def test_a_dual_over_a_wrong_denominator_is_rejected():
    """The dual's entries over their common denominator pass; the same
    numerators over any larger denominator leave a tight class constraint
    short and are refused."""
    params = make_params(3, (1,) * 5, (1,) * 5)
    lp = scheme.delsarte_lp(params, 3)
    den = math.lcm(*(y.denominator for y in lp.dual))
    Y = [y * den for y in lp.dual]
    assert all(x.denominator == 1 for x in Y) and any(Y)
    assert scheme.check_dual(params, 3, [x / den for x in Y]) == lp.value
    for wrong in (den + 1, 2 * den):
        with pytest.raises(ArithmeticError):
            scheme.check_dual(params, 3, [x / wrong for x in Y])


def test_negative_dual_entry_is_rejected():
    # eigenspace row 1 of two 2x2 blocks at d = 3 has no positive
    # coefficient, so lowering its y keeps every class constraint >= 1
    # while the claimed bound drops below the true LP value
    params = make_params(2, (2, 2), (2, 2))
    far, v, rows = scheme._lp_rows(params, 3)
    assert all(c <= 0 for c in rows[1])
    y = list(scheme.delsarte_lp(params, 3).dual)
    y[1] -= 1
    assert y[1] < 0
    assert all(sum(yi * row[col] for yi, row in zip(y, rows)) >= v[col]
               for col in range(len(far)))
    with pytest.raises(ArithmeticError):
        scheme.check_dual(params, 3, y)


def test_simplex_reports_unbounded():
    with pytest.raises(ArithmeticError):
        scheme._simplex_max([[Fraction(-1)]], [1])


# -- the LP bound in the exact MIS ------------------------------------------

def test_lp_bound_stops_the_gf3_hamming_search_early():
    result = max_independent_set(
        PowerGraphSpec(make_params(3, (1,) * 5, (1,) * 5), 2),
        max_nodes=200_000)
    assert result.alpha == result.ub == 18
    assert result.ub_source == "lp"
    assert result.nodes <= 4_100


def test_budget_stop_reports_the_lp_bound():
    spec = PowerGraphSpec(make_params(2, (1,) * 12, (1,) * 12), 2)
    with pytest.raises(SolverBudgetError) as info:
        max_independent_set(spec, max_nodes=10)
    exc = info.value
    assert str(exc) == "exceeded 10 branch-and-bound nodes"
    assert (exc.ub, exc.ub_source) == (292, "lp")
    assert exc.lb <= 256


@pytest.mark.parametrize("q,n,m,k,source", [
    (2, (3,), (3,), 1, "lp"),
    (2, (1,) * 6, (1,) * 6, 2, "lp"),
    (2, (1,) * 7, (1,) * 7, 4, "colouring"),
])
def test_mis_names_its_bound(q, n, m, k, source):
    result = max_independent_set(PowerGraphSpec(make_params(q, n, m), k))
    assert result.ub_source == source
    with pytest.raises(SolverBudgetError) as info:
        max_independent_set(PowerGraphSpec(make_params(q, n, m), k),
                            max_nodes=0)
    assert info.value.ub_source is None


def test_no_assert_statements_in_the_package():
    root = pathlib.Path(srklab.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(root.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
