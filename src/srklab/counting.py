"""Exact closed-form combinatorics: Gaussian binomials, rank counts,
ball volumes, and the pair/intersection counts feeding the triangle
bound on the power graph.

Everything here is arbitrary-precision integer arithmetic; every division
in a closed form is checked to be exact.  The single floating-point
surface is `epsilon_star`.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .space import SrkParams


def _exact_div(num: int, den: int) -> int:
    quot, rem = divmod(num, den)
    if rem != 0:
        raise ArithmeticError(
            f"non-exact division {num}/{den}; closed form violated")
    return quot


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n; 0 when k > n."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if q < 2:
        raise ValueError("q must be at least 2")
    if k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return _exact_div(num, den)


def gaussian_column(n: int, q: int) -> list:
    """[n, k]_q for k = 0..n by the recurrence [n, k+1] = [n, k] *
    (q^(n-k) - 1) / (q^(k+1) - 1), each division checked exact."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if q < 2:
        raise ValueError("q must be at least 2")
    column = [1]
    for k in range(n):
        column.append(_exact_div(column[-1] * (q ** (n - k) - 1),
                                 q ** (k + 1) - 1))
    return column


@lru_cache(maxsize=None)
def count_rank_matrices(n: int, m: int, r: int, q: int) -> int:
    """Number of n x m matrices over GF(q) of rank exactly r."""
    if r < 0 or r > min(n, m):
        raise ValueError(f"rank {r} out of range for {n}x{m}")
    out = gaussian_binomial(n, r, q)
    for i in range(r):
        out *= q ** m - q ** i
    return out


@lru_cache(maxsize=None)
def square_rank_count(n: int, k: int, q: int) -> int:
    """M: count of n x n rank-k matrices via the product formula
    prod (q^n - q^l)^2 / (q^k - q^l), checked exact."""
    if k < 0 or k > n:
        raise ValueError(f"rank {k} out of range for {n}x{n}")
    num = 1
    den = 1
    for ell in range(k):
        num *= (q ** n - q ** ell) ** 2
        den *= q ** k - q ** ell
    return _exact_div(num, den)


def rank_distribution(n: int, m: int, q: int) -> tuple:
    """Per-block rank histogram: entry r = #n x m matrices of rank r."""
    return tuple(count_rank_matrices(n, m, r, q)
                 for r in range(min(n, m) + 1))


@lru_cache(maxsize=None)
def _weight_counts(params: SrkParams, top: int) -> tuple:
    """coeffs[w] = number of vectors of sum-rank weight w for w <= top: the
    per-block rank distributions convolved up to degree top, so no rank
    class above top is counted; cached, as balls, degrees and GV read it."""
    q = params.q
    acc = [1]
    for ni, mi in params.block_shapes():
        dist = [count_rank_matrices(ni, mi, r, q)
                for r in range(min(ni, mi, top) + 1)]
        nxt = [0] * min(len(acc) + len(dist) - 1, top + 1)
        for a, ca in enumerate(acc):
            for b, cb in enumerate(dist[:top + 1 - a]):
                nxt[a + b] += ca * cb
        acc = nxt
    return tuple(acc)


def weight_enumerator(params: SrkParams) -> tuple:
    """coeffs[w] = number of vectors of sum-rank weight w, for every w."""
    return _weight_counts(params, params.max_weight)


def ball_volume(params: SrkParams, k: int) -> int:
    """|{X : srk(X) <= k}|; reaches the space size at k = sum min(n_i,m_i)."""
    if k < 0:
        raise ValueError("radius must be nonnegative")
    return sum(_weight_counts(params, min(k, params.max_weight)))


def degree_D(params: SrkParams, k: int) -> int:
    """Degree of the (vertex-transitive) k-th power graph: ball minus center."""
    if k < 1:
        raise ValueError("power k must be at least 1")
    return ball_volume(params, k) - 1


def Q_closed(i: int, j: int, c: int, n: int, q: int) -> int:
    """For fixed rank-i X in GF(q)^{n x n}: number of rank-j Y whose column
    space meets col(X) in dimension exactly c."""
    if c > j:
        raise ValueError("c must not exceed j")
    if not (0 <= c and j <= n and 0 <= i <= n):
        raise ValueError("arguments out of range")
    if c > i:
        return 0  # no c-dim subspace of an i-dim column space
    out = subspace_intersection_count(n, i, j, c, q)
    for ell in range(j):
        out *= q ** n - q ** ell
    return out


def subspace_intersection_count(n: int, i: int, j: int, c: int, q: int) -> int:
    """Number of j-dim subspaces V of GF(q)^n with dim(U ∩ V) = c for a
    fixed i-dim subspace U."""
    if not (0 <= c <= min(i, j) <= n):
        raise ValueError("need 0 <= c <= min(i,j) <= n")
    return (q ** ((i - c) * (j - c))
            * gaussian_binomial(i, c, q)
            * gaussian_binomial(n - i, j - c, q))


def P_upper(i: int, j: int, k: int, n: int, q: int) -> int:
    """Upper bound on the number of pairs (X, Y) of ranks (i, j) with
    rk(X-Y) <= k: M(i) * 2 * sum_{c >= ceil((i+j-k)/2)} Q(i,j,c)."""
    if j > i:
        raise ValueError("requires i >= j")
    if i + j < k:
        raise ValueError("requires i + j >= k")
    c_lo = max(0, -((k - i - j) // 2))  # ceil((i+j-k)/2)
    total = sum(Q_closed(i, j, c, n, q) for c in range(c_lo, j + 1))
    return square_rank_count(n, i, q) * 2 * total


def T_upper(params: SrkParams, k: int) -> int:
    """Upper bound on the edge count inside one vertex's neighborhood of
    the k-th power graph, for spaces whose leading block is square n x n.
    Summands with i + j < k fall back to the trivial pair count M(i)M(j)."""
    n0, m0 = params.n[0], params.m[0]
    if n0 != m0:
        raise ValueError("leading block must be square")
    if not 1 <= k <= n0:
        raise ValueError("requires 1 <= k <= n")
    q = params.q
    tail_exp = 2 * sum(ni * mi for ni, mi in params.block_shapes()[1:])
    total = 0
    for i in range(1, k + 1):
        for j in range(1, i + 1):
            if i + j >= k:
                total += P_upper(i, j, k, n0, q)
            else:
                total += (square_rank_count(n0, i, q)
                          * square_rank_count(n0, j, q))
    return 2 * q ** tail_exp * total


def epsilon_star(D: int, T: int) -> float:
    """The epsilon with T = D^(2 - epsilon); +inf when T = 0
    (triangle-free neighborhoods are the best case)."""
    if D < 2:
        raise ValueError("requires D >= 2")
    if T < 0:
        raise ValueError("T must be nonnegative")
    if T == 0:
        return math.inf
    return 2.0 - math.log(T) / math.log(D)
