import math
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, strategies as st

from srklab.counting import (P_upper, Q_closed, T_upper, ball_volume,
                             count_rank_matrices, degree_D, epsilon_star,
                             gaussian_binomial, rank_distribution,
                             square_rank_count, subspace_intersection_count,
                             weight_enumerator)
from srklab.gf import enumerate_matrices, field_make, rank
from srklab.space import make_params
from srklab import counting


# -- independent oracles ----------------------------------------------------

def _brute_subspace_count(n, k, q):
    """Count k-dim subspaces of GF(q)^n by enumerating row spaces of all
    k x n matrices (GF(p) only needed here)."""
    F = field_make(q)
    spans = set()
    for M in enumerate_matrices(k, n, F):
        if rank(M) != k:
            continue
        # span = set of all linear combinations of the rows
        vecs = set()
        rows = [M.row(r) for r in range(k)]
        for coeffs in product(range(q), repeat=k):
            v = [0] * n
            for c, row in zip(coeffs, rows):
                for i, x in enumerate(row):
                    v[i] = F.add(v[i], F.mul(c, x))
            vecs.add(tuple(v))
        spans.add(frozenset(vecs))
    return len(spans)


def test_gaussian_binomial_examples():
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(2, 3, 2) == 0


def test_gaussian_binomial_against_brute_force():
    for n in range(1, 5):
        for k in range(n + 1):
            assert gaussian_binomial(n, k, 2) == _brute_subspace_count(n, k, 2)
    assert gaussian_binomial(3, 1, 3) == _brute_subspace_count(3, 1, 3)
    assert gaussian_binomial(3, 2, 3) == _brute_subspace_count(3, 2, 3)


def test_gaussian_column_matches_gaussian_binomial():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(41):
            assert counting.gaussian_column(n, q) == \
                [gaussian_binomial(n, k, q) for k in range(n + 1)]
    with pytest.raises(ValueError):
        counting.gaussian_column(-1, 2)
    with pytest.raises(ValueError):
        counting.gaussian_column(3, 1)


@given(st.integers(0, 12), st.integers(0, 12), st.sampled_from([2, 3, 4, 5]))
def test_gaussian_binomial_symmetry(n, k, q):
    if k <= n:
        assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)
    else:
        assert gaussian_binomial(n, k, q) == 0


def test_count_rank_matrices_examples():
    assert count_rank_matrices(2, 2, 0, 2) == 1
    assert count_rank_matrices(2, 2, 1, 2) == 9
    assert count_rank_matrices(2, 2, 2, 2) == 6
    with pytest.raises(ValueError):
        count_rank_matrices(2, 2, 3, 2)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (2, 3), (3, 4), (4, 4)])
def test_rank_count_total(n, m, q):
    assert sum(count_rank_matrices(n, m, r, q)
               for r in range(min(n, m) + 1)) == q ** (n * m)


def test_square_rank_count_matches_general_formula():
    for q in (2, 3):
        for n in range(1, 5):
            for k in range(n + 1):
                assert square_rank_count(n, k, q) == count_rank_matrices(n, n, k, q)


def test_rank_distribution_against_enumeration():
    F = field_make(2)
    hist = Counter(rank(M) for M in enumerate_matrices(2, 3, F))
    dist = rank_distribution(2, 3, 2)
    assert list(dist) == [hist[r] for r in range(3)]
    assert dist[0] == 1
    assert sum(dist) == 2 ** 6


def test_space_size_examples():
    assert make_params(2, (1, 1), (1, 1)).size() == 4
    assert make_params(2, (2,), (2,)).size() == 16
    assert make_params(3, (1, 2), (2, 2)).size() == 729


def test_ball_volume_examples():
    assert ball_volume(make_params(3, (2, 1), (2, 2)), 0) == 1
    assert ball_volume(make_params(2, (2,), (2,)), 1) == 10
    assert ball_volume(make_params(2, (1, 1), (1, 1)), 2) == 4


def test_ball_volume_monotone_and_saturating():
    params = make_params(2, (1, 2), (2, 2))
    vols = [ball_volume(params, k) for k in range(params.max_weight + 2)]
    assert all(a <= b for a, b in zip(vols, vols[1:]))
    assert vols[params.max_weight] == params.size()
    assert vols[-1] == params.size()


def test_ball_volume_counts_only_the_rank_classes_it_reads(monkeypatch):
    """A ball of radius 1 in GF(2) 300 x 300 needs the rank-0 and rank-1
    classes only: a count of any higher rank class fails the test."""
    one = count_rank_matrices(300, 300, 1, 2)
    real = counting.count_rank_matrices

    def low_ranks_only(n, m, r, q):
        assert r < 2, f"rank class {r} of {n} x {m} was counted"
        return real(n, m, r, q)

    monkeypatch.setattr(counting, "count_rank_matrices", low_ranks_only)
    counting._weight_counts.cache_clear()
    assert ball_volume(make_params(2, (300,), (300,)), 1) == 1 + one
    assert ball_volume(make_params(2, (300, 300), (300, 300)), 1) == 1 + 2 * one


def test_degree_examples():
    assert degree_D(make_params(2, (1, 1), (1, 1)), 1) == 2
    assert degree_D(make_params(2, (2,), (2,)), 1) == 9
    assert degree_D(make_params(2, (1, 1, 1), (1, 1, 1)), 2) == 6


def test_Q_closed_examples():
    assert Q_closed(1, 1, 1, 2, 2) == 3
    assert Q_closed(1, 1, 0, 2, 2) == 6
    assert Q_closed(1, 2, 2, 2, 2) == 0  # j - c > n - i branch via binomial
    with pytest.raises(ValueError):
        Q_closed(1, 1, 2, 2, 2)


def test_Q_vanishes_when_ambient_too_small():
    # j - c > n - i forces the second Gaussian binomial to vanish
    assert Q_closed(1, 2, 0, 3, 2) > 0
    assert Q_closed(2, 2, 0, 3, 2) == 0


def test_Q_sum_identity():
    for q in (2, 3):
        for n in range(1, 7):
            for i in range(n + 1):
                for j in range(n + 1):
                    assert (sum(Q_closed(i, j, c, n, q) for c in range(j + 1))
                            == square_rank_count(n, j, q))


def _Q_closed_formula(i, j, c, n, q):
    """The product formula Q_closed used before it shared
    subspace_intersection_count: q^((i-c)(j-c)) [i c]_q [n-i j-c]_q
    prod_{l<j} (q^n - q^l)."""
    out = (q ** ((i - c) * (j - c)) * gaussian_binomial(i, c, q)
           * gaussian_binomial(n - i, j - c, q))
    for ell in range(j):
        out *= q ** n - q ** ell
    return out


def test_Q_closed_equals_the_product_formula():
    for q in (2, 3):
        for n in range(1, 7):
            for i in range(n + 1):
                for j in range(n + 1):
                    for c in range(j + 1):
                        assert (Q_closed(i, j, c, n, q)
                                == _Q_closed_formula(i, j, c, n, q))
    assert Q_closed(1, 3, 2, 4, 2) == 0  # c > i


def test_subspace_intersection_examples():
    assert subspace_intersection_count(2, 1, 1, 1, 2) == 1
    assert subspace_intersection_count(2, 1, 1, 0, 2) == 2
    for q in (2, 3):
        for n in range(1, 6):
            for i in range(n + 1):
                for j in range(n + 1):
                    total = sum(subspace_intersection_count(n, i, j, c, q)
                                for c in range(min(i, j) + 1))
                    assert total == gaussian_binomial(n, j, q)


def test_P_upper_examples():
    assert P_upper(1, 1, 2, 2, 2) == 162
    assert P_upper(1, 1, 0, 2, 2) == 54
    with pytest.raises(ValueError):
        P_upper(1, 2, 2, 2, 2)
    with pytest.raises(ValueError):
        P_upper(2, 2, 5, 4, 2)


def test_T_upper_examples():
    params = make_params(2, (2,), (2,))
    assert T_upper(params, 1) == 108
    with pytest.raises(ValueError):
        T_upper(make_params(2, (1, 2), (2, 2)), 1)  # leading block not square
    # t = 1 means an empty tail product (prefactor q^0 = 1)
    tail = make_params(2, (2, 1), (2, 1))
    assert T_upper(tail, 1) == 108 * 2 ** (2 * 1)


def test_epsilon_star():
    assert epsilon_star(6, 36) == pytest.approx(0.0, abs=1e-12)
    assert epsilon_star(5, 1) == pytest.approx(2.0, abs=1e-12)
    assert epsilon_star(6, 12) == pytest.approx(2 - math.log(12) / math.log(6),
                                                rel=1e-12)
    assert math.isinf(epsilon_star(6, 0))
    with pytest.raises(ValueError):
        epsilon_star(1, 5)


def test_weight_enumerator_matches_block_product():
    params = make_params(2, (1, 2), (2, 2))
    coeffs = weight_enumerator(params)
    assert sum(coeffs) == params.size()
    assert coeffs[0] == 1
