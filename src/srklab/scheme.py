"""The association scheme of the sum-rank space, in exact integers.

Each n x m block (n <= m) is Delsarte's bilinear-forms scheme: its
classes are the ranks 0..n and its eigenmatrix has the closed form of
``eigenmatrix``.  The sum-rank space is the product of its blocks'
schemes.  The maps fixing 0 (block maps X_i -> A_i X_i B_i and
permutations of equal-shape blocks) merge its classes into the
rank-profile orbits that ``graphlab._profile_classes`` labels: one
multiset of block ranks per group of equal-shape blocks.  The merged
scheme gives

- ``spectral_T``: the triangle count T from the eigenvalues of the power
  graph, 2T|V| = sum_I m_I theta_I^3;
- ``delsarte_lp``: Delsarte's linear-programming upper bound on the size
  of a code of minimum distance d, solved in integer variables by a
  fraction-free (Bareiss) simplex and accepted only after its dual
  vector is re-checked in integers over a common denominator.

The scheme is self-dual, so eigenspaces are indexed like classes and the
multiplicity of eigenspace I is the valency v_I.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb, lcm, prod

from .space import SrkParams
from . import counting


@lru_cache(maxsize=None)
def eigenmatrix(n: int, m: int, q: int) -> tuple:
    """P[i][a] = P_a(i), the eigenvalue of the rank-a relation of the n x m
    bilinear-forms scheme over GF(q) on eigenspace i (Delsarte 1978):
    P_a(i) = sum_j (-1)^(a-j) q^(jm + C(a-j, 2)) [n-j, n-a]_q [n-i, j]_q.

    Checked on every build: row 0 holds the rank counts (valencies) and
    every other row sums to 0; a failure raises ArithmeticError."""
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got {n}x{m}")
    gb = counting.gaussian_binomial
    P = tuple(
        tuple(sum((-1) ** (a - j) * q ** (j * m + comb(a - j, 2))
                  * gb(n - j, n - a, q) * gb(n - i, j, q)
                  for j in range(a + 1))
              for a in range(n + 1))
        for i in range(n + 1))
    if list(P[0]) != [counting.count_rank_matrices(n, m, a, q)
                      for a in range(n + 1)]:
        raise ArithmeticError(f"eigenmatrix row 0 of {n}x{m} over GF({q}) "
                              "is not the rank distribution")
    if any(sum(row) != 0 for row in P[1:]):
        raise ArithmeticError(f"eigenmatrix of {n}x{m} over GF({q}) has a "
                              "nonzero row sum beyond row 0")
    return P


@lru_cache(maxsize=None)
def _group_matrix(n: int, m: int, q: int, g: int):
    """Classes of g equal n x m blocks (rank multisets as sorted tuples)
    and G[I][A] = sum over the arrangements a of A of prod_b P[I_b][a_b],
    for I fixed as its sorted tuple."""
    P = eigenmatrix(n, m, q)
    classes = list(combinations_with_replacement(range(n + 1), g))
    G = []
    for I in classes:
        # ranks of the blocks so far, as a multiset -> sum of products
        acc = {(): 1}
        for i in I:
            nxt = defaultdict(int)
            for part, val in acc.items():
                for a in range(n + 1):
                    nxt[tuple(sorted(part + (a,)))] += val * P[i][a]
            acc = nxt
        G.append(tuple(acc[A] for A in classes))
    return classes, tuple(G)


@dataclass(frozen=True)
class Scheme:
    """The symmetrised scheme of one parameter set: ``weights[A]`` is the
    sum-rank weight of class A, ``P[I][A]`` its eigenvalue on eigenspace
    I; class 0 is {0} and ``P[0]`` holds the valencies."""

    weights: tuple
    P: tuple

    @property
    def valencies(self) -> tuple:
        return self.P[0]


@lru_cache(maxsize=32)
def symmetrised_scheme(params: SrkParams) -> Scheme:
    """The product of the blocks' schemes with the classes merged into
    rank-profile orbits.  P_A(I) = prod over groups of the group values;
    the valencies are checked to sum to |V|."""
    parts = [_group_matrix(n, m, params.q, len(blocks))
             for (n, m), blocks in params.shape_groups()]
    index = list(product(*[range(len(classes)) for classes, _ in parts]))
    weights = tuple(sum(sum(classes[a]) for (classes, _), a in zip(parts, A))
                    for A in index)
    P = tuple(tuple(prod(G[i][a] for (_, G), i, a in zip(parts, I, A))
                    for A in index)
              for I in index)
    if sum(P[0]) != params.size():
        raise ArithmeticError(f"valencies of {params.describe()} sum to "
                              f"{sum(P[0])}, not |V|")
    return Scheme(weights, P)


def spectral_T(params: SrkParams, k: int) -> int:
    """T of the k-th power graph from its spectrum.  The graph's eigenvalue
    on eigenspace I is theta_I = sum of P_A(I) over the classes of weight
    1..k, with multiplicity m_I = v_I; closed walks of length 3 give
    2T|V| = sum_I m_I theta_I^3.  The walks of length 0, 1 and 2 are
    checked first (|V|, 0 and |V| D); any failed identity or non-exact
    division raises ArithmeticError."""
    S = symmetrised_scheme(params)
    V = params.size()
    D = counting.degree_D(params, k)
    near = [A for A, w in enumerate(S.weights) if 1 <= w <= k]
    theta = [sum(row[A] for A in near) for row in S.P]
    mult = S.valencies
    walks = [sum(mI * t ** e for mI, t in zip(mult, theta)) for e in range(4)]
    if walks[:3] != [V, 0, V * D]:
        raise ArithmeticError(f"spectrum of {params.describe()} at k={k} "
                              f"gives walk counts {walks[:3]}, expected "
                              f"{[V, 0, V * D]}")
    if walks[3] % (2 * V):
        raise ArithmeticError(f"closed 3-walks {walks[3]} not divisible "
                              f"by 2|V| = {2 * V}")
    return walks[3] // (2 * V)


@dataclass(frozen=True)
class LpBound:
    """A proven bound alpha <= ``value`` = 1 + sum(``dual``); ``dual``
    holds one y_I >= 0 per eigenspace I != 0 of the symmetrised scheme."""

    value: Fraction
    dual: tuple


def _lp_rows(params: SrkParams, d: int):
    """The LP in the scaled variables x'_A = x_A / v_A, all integers: the
    classes ``far`` of weight >= d, their valencies v_A (the objective is
    sum_A v_A x'_A) and, per eigenspace I != 0, the coefficients -P_A(I)
    of the constraint sum_A -P_A(I) x'_A <= 1."""
    S = symmetrised_scheme(params)
    far = [A for A, w in enumerate(S.weights) if w >= d]
    v = [S.valencies[A] for A in far]
    rows = [[-row[A] for A in far] for row in S.P[1:]]
    return far, v, rows


def check_dual(params: SrkParams, d: int, dual) -> Fraction:
    """Re-check a dual vector of the LP in exact arithmetic and return the
    bound 1 + sum(dual) it proves.  With the entries over a common
    denominator, y = Y / den, it needs Y >= 0 and, for every class A of
    weight >= d, sum_I Y_I (-P_A(I)) >= den v_A; then weak duality gives
    |C| - 1 = sum_A x_A <= sum_A x_A sum_I y_I (-P_A(I)/v_A) <= sum_I y_I
    for the inner distribution x of any code C of minimum distance >= d.
    Raises ArithmeticError otherwise."""
    far, v, rows = _lp_rows(params, d)
    y = [Fraction(x) for x in dual]
    if len(y) != len(rows):
        raise ArithmeticError(f"dual vector has {len(y)} entries, the LP "
                              f"has {len(rows)} constraints")
    den = lcm(*(x.denominator for x in y))
    Y = [x.numerator * (den // x.denominator) for x in y]
    if any(x < 0 for x in Y):
        raise ArithmeticError("dual vector has a negative entry")
    for col, A in enumerate(far):
        lhs = sum(x * row[col] for x, row in zip(Y, rows))
        if lhs < den * v[col]:
            raise ArithmeticError(f"dual constraint of class {A} is "
                                  f"{Fraction(lhs, den * v[col])} < 1")
    return 1 + Fraction(sum(Y), den)


def _simplex_max(rows, c):
    """max c.x subject to rows.x <= 1, x >= 0, for integer rows and c, by
    the tableau simplex with Bland's rule (no cycling; min-ratio ties go
    to the lowest basis index).  The origin is feasible, so no phase 1 is
    needed.  Fraction-free: the tableau is held as integers over the
    common denominator ``den``, the last pivot, and a pivot on p divides
    each new entry p x - g y exactly by the old ``den`` (Bareiss).  Every
    pivot is positive, so the signs of the entries are those of the
    rational tableau, and the pivots are the same.  Returns (optimum,
    dual y) as Fractions or raises ArithmeticError if the LP is
    unbounded."""
    nv, nr = len(c), len(rows)
    tab = [list(row) + [int(r == i) for r in range(nr)] + [1]
           for i, row in enumerate(rows)]
    obj = list(c) + [0] * (nr + 1)
    basis = list(range(nv, nv + nr))
    den = 1
    while True:
        enter = next((j for j in range(nv + nr) if obj[j] > 0), None)
        if enter is None:
            return (Fraction(-obj[-1], den),
                    [Fraction(-obj[nv + i], den) for i in range(nr)])
        leave = None
        for i, row in enumerate(tab):
            if row[enter] > 0:
                # row[-1] / row[enter] against the best ratio so far
                if leave is None:
                    leave = i
                    continue
                best = tab[leave]
                lhs, rhs = row[-1] * best[enter], best[-1] * row[enter]
                if lhs < rhs or lhs == rhs and basis[i] < basis[leave]:
                    leave = i
        if leave is None:
            raise ArithmeticError("Delsarte LP is unbounded")
        piv = tab[leave]
        p = piv[enter]
        for row in tab + [obj]:
            if row is not piv:
                g = row[enter]
                if g:
                    row[:] = [(p * x - g * y) // den for x, y in zip(row, piv)]
                elif p != den:
                    row[:] = [p * x // den for x in row]
        den = p
        basis[leave] = enter


def delsarte_lp(params: SrkParams, d: int) -> LpBound:
    """Delsarte's LP bound on codes of minimum sum-rank distance d:
    maximise 1 + sum x_A over the classes A of weight >= d subject to
    x >= 0 and 1 + sum_A x_A P_A(I)/v_A >= 0 for every eigenspace I.
    Averaging a code's inner distribution over the maps fixing 0 keeps it
    feasible, so the symmetrised LP bounds every code.  It is solved in
    the integer variables of ``_lp_rows``, whose optimum and dual are
    those of x; the dual vector is returned only after ``check_dual``
    accepts it."""
    if d < 1:
        raise ValueError("distance must be at least 1")
    far, v, rows = _lp_rows(params, d)
    opt, dual = _simplex_max(rows, v)
    value = check_dual(params, d, dual)
    if value != 1 + opt:
        raise ArithmeticError(f"dual bound {value} differs from the primal "
                              f"optimum {1 + opt}")
    return LpBound(value, tuple(dual))
