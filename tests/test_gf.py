import dataclasses
import tracemalloc

import numpy as np
import pytest

from srklab import counting, gf
from srklab.gf import (BudgetError, FieldError, FieldSpec, Matrix, ShapeError,
                       col_space_intersection_dim,
                       digit_dtype, digit_index, digit_rows, digits_int,
                       enumerate_matrices, field_make, field_from_order,
                       factor_prime_power, index_digits, int_digits,
                       kernel_rank, kernel_stack, rank,
                       rank_table, row_space_intersection_dim)


def test_prime_field_modulus():
    F = field_make(2, 1)
    assert (F.p, F.e, F.q) == (2, 1, 2)
    assert F.modulus == (0, 1)  # the polynomial x


def test_gf4_modulus_is_unique_irreducible_quadratic():
    F = field_make(2, 2)
    assert F.modulus == (1, 1, 1)  # x^2 + x + 1


# The lex-smallest monic irreducible of every non-prime field p^e <= 2^16,
# constant coefficient first: element indices, and so every table and
# every output over an extension field, depend on it.
_MODULI = {
    (2, 2): (1, 1, 1), (2, 3): (1, 0, 1, 1), (2, 4): (1, 0, 0, 1, 1),
    (2, 5): (1, 0, 0, 1, 0, 1), (2, 6): (1, 0, 0, 0, 0, 1, 1),
    (2, 7): (1, 0, 0, 0, 0, 0, 1, 1), (2, 8): (1, 0, 0, 0, 1, 1, 0, 1, 1),
    (2, 9): (1, 0, 0, 0, 0, 0, 0, 0, 1, 1),
    (2, 10): (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (2, 11): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1),
    (2, 12): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (2, 13): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1),
    (2, 14): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    (2, 15): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1),
    (2, 16): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1),
    (3, 2): (1, 0, 1), (3, 3): (1, 0, 2, 1), (3, 4): (1, 0, 1, 1, 1),
    (3, 5): (1, 0, 0, 0, 2, 1), (3, 6): (1, 0, 0, 0, 1, 1, 1),
    (3, 7): (1, 0, 0, 0, 0, 1, 2, 1), (3, 8): (1, 0, 0, 0, 0, 1, 1, 0, 1),
    (3, 9): (1, 0, 0, 0, 0, 0, 2, 1, 0, 1),
    (3, 10): (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1), (5, 2): (1, 1, 1),
    (5, 3): (1, 0, 1, 1), (5, 4): (1, 0, 1, 1, 1), (5, 5): (1, 0, 0, 0, 4, 1),
    (5, 6): (1, 0, 0, 0, 1, 1, 1), (7, 2): (1, 0, 1), (7, 3): (1, 0, 1, 1),
    (7, 4): (1, 0, 0, 1, 1), (7, 5): (1, 0, 0, 0, 3, 1), (11, 2): (1, 0, 1),
    (11, 3): (1, 0, 4, 1), (11, 4): (1, 0, 0, 4, 1), (13, 2): (1, 3, 1),
    (13, 3): (1, 0, 4, 1), (13, 4): (1, 0, 0, 1, 1), (17, 2): (1, 1, 1),
    (17, 3): (1, 0, 3, 1), (19, 2): (1, 0, 1), (19, 3): (1, 0, 1, 1),
    (23, 2): (1, 0, 1), (23, 3): (1, 0, 3, 1), (29, 2): (1, 1, 1),
    (29, 3): (1, 0, 2, 1), (31, 2): (1, 0, 1), (31, 3): (1, 0, 3, 1),
    (37, 2): (1, 3, 1), (37, 3): (1, 0, 5, 1), (41, 2): (1, 1, 1),
    (43, 2): (1, 0, 1), (47, 2): (1, 0, 1), (53, 2): (1, 1, 1),
    (59, 2): (1, 0, 1), (61, 2): (1, 5, 1), (67, 2): (1, 0, 1),
    (71, 2): (1, 0, 1), (73, 2): (1, 3, 1), (79, 2): (1, 0, 1),
    (83, 2): (1, 0, 1), (89, 2): (1, 1, 1), (97, 2): (1, 3, 1),
    (101, 2): (1, 1, 1), (103, 2): (1, 0, 1), (107, 2): (1, 0, 1),
    (109, 2): (1, 6, 1), (113, 2): (1, 1, 1), (127, 2): (1, 0, 1),
    (131, 2): (1, 0, 1), (137, 2): (1, 1, 1), (139, 2): (1, 0, 1),
    (149, 2): (1, 1, 1), (151, 2): (1, 0, 1), (157, 2): (1, 3, 1),
    (163, 2): (1, 0, 1), (167, 2): (1, 0, 1), (173, 2): (1, 1, 1),
    (179, 2): (1, 0, 1), (181, 2): (1, 5, 1), (191, 2): (1, 0, 1),
    (193, 2): (1, 3, 1), (197, 2): (1, 1, 1), (199, 2): (1, 0, 1),
    (211, 2): (1, 0, 1), (223, 2): (1, 0, 1), (227, 2): (1, 0, 1),
    (229, 2): (1, 5, 1), (233, 2): (1, 1, 1), (239, 2): (1, 0, 1),
    (241, 2): (1, 5, 1), (251, 2): (1, 0, 1),
}


def test_every_extension_field_modulus_is_pinned():
    fields = [(p, e) for p in range(2, 257) if gf.is_prime(p)
              for e in range(2, 17) if p ** e <= gf.MAX_FIELD_SIZE]
    assert len(fields) == len(_MODULI) == 93
    assert {f: field_make(*f).modulus for f in fields} == _MODULI


def test_nonprime_p_rejected():
    with pytest.raises(FieldError):
        field_make(4, 1)


def test_field_too_large_rejected():
    with pytest.raises(FieldError):
        field_make(2, 17)


@pytest.mark.parametrize("make", [
    lambda: FieldSpec(2, 10 ** 9), lambda: FieldSpec(2, 100000),
    lambda: FieldSpec(10 ** 18 + 3, 1), lambda: field_from_order(10 ** 18 + 3)])
def test_a_huge_field_is_refused_before_it_is_factored(make):
    """The size is checked before any power, primality test or factoring,
    so these return at once, each with a FieldError."""
    with pytest.raises(ValueError) as exc:
        make()
    assert type(exc.value) is FieldError


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(5) == (5, 1)
    assert factor_prime_power(65536) == (2, 16)
    assert factor_prime_power(65537) == (65537, 1)
    assert factor_prime_power(4294967311) == (4294967311, 1)
    assert factor_prime_power(2 ** 64) == (2, 64)
    for bad in (-4, 0, 1, 6, 12, 1000, 2 ** 64 * 3):
        with pytest.raises(FieldError, match="not a prime power"):
            factor_prime_power(bad)
    # no factor up to 2^20, and above 2^40: refused, even a prime power
    for big in (10 ** 18 + 3, 1048583 ** 2):
        with pytest.raises(FieldError, match="cannot certify"):
            factor_prime_power(big)
    assert [n for n in range(-2, 30) if gf.is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_axioms_exhaustive(q):
    F = field_from_order(q)
    els = range(F.q)
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_rank_examples():
    F2, F3 = field_make(2), field_make(3)
    assert rank(Matrix(2, 2, (0,) * 4, F2)) == 0
    assert rank(Matrix(3, 3, (1, 0, 0, 0, 1, 0, 0, 0, 1), F3)) == 3
    assert rank(Matrix(2, 2, (1, 1, 1, 1), F2)) == 1


@pytest.mark.parametrize("q,maxdim", [(2, 3), (3, 2)])
def test_rank_equals_transpose_rank_exhaustive(q, maxdim):
    F = field_from_order(q)
    for r in range(1, maxdim + 1):
        for c in range(1, maxdim + 1):
            for M in enumerate_matrices(r, c, F):
                assert rank(M) == rank(M.transpose())


def test_rank_transpose_3x3_gf3():
    F = field_make(3)
    for M in enumerate_matrices(3, 3, F):
        assert rank(M) == rank(M.transpose())


def test_col_space_intersection_examples():
    F = field_make(2)
    X = Matrix(2, 2, (1, 0, 0, 0), F)
    Y = Matrix(2, 2, (0, 0, 0, 1), F)
    assert col_space_intersection_dim(X, Y) == 0
    assert col_space_intersection_dim(X, X) == rank(X)
    assert col_space_intersection_dim(X, Matrix(2, 2, (0,) * 4, F)) == 0


def test_col_space_intersection_symmetric():
    F = field_make(2)
    mats = list(enumerate_matrices(2, 2, F))
    for X in mats:
        for Y in mats:
            assert (col_space_intersection_dim(X, Y)
                    == col_space_intersection_dim(Y, X))


def test_row_space_intersection_examples():
    F = field_make(2)
    X = Matrix(2, 2, (1, 1, 0, 0), F)
    Y = Matrix(2, 2, (1, 0, 0, 0), F)
    assert row_space_intersection_dim(X, Y) == 0
    assert row_space_intersection_dim(X, X) == rank(X)


def test_enumerate_matrices_counts_and_order():
    F2 = field_make(2)
    ms = list(enumerate_matrices(1, 1, F2))
    assert [m.entries for m in ms] == [(0,), (1,)]
    assert len(list(enumerate_matrices(2, 2, F2))) == 16
    assert len(list(enumerate_matrices(2, 2, field_make(3)))) == 81


def test_enumerate_budget():
    with pytest.raises(BudgetError):
        list(enumerate_matrices(4, 4, field_make(3)))   # 3^16 > 2^20


def _digitwise_add(F, a, b):
    """a + b in GF(p^e), one base-p coefficient at a time."""
    p, e = F.p, F.e
    return digits_int([(x + y) % p for x, y in
                       zip(int_digits(a, p, e), int_digits(b, p, e))], p)


def _digitwise_neg(F, a):
    """-a in GF(p^e), one base-p coefficient at a time."""
    return digits_int([-c % F.p for c in int_digits(a, F.p, F.e)], F.p)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 27, 32, 49, 64, 81,
                               121, 128, 256])
def test_vectorised_tables_match_raw_arithmetic(q):
    F = field_from_order(q)
    els = range(q)
    assert F._add == [[_digitwise_add(F, a, b) for b in els] for a in els]
    assert F._mul == [[F._mul_raw(a, b) for b in els] for a in els]
    assert F._neg == [_digitwise_neg(F, a) for a in els]
    assert all(_digitwise_add(F, a, F.neg(a)) == 0 for a in els)
    assert all(F._mul_raw(a, F.inv(a)) == 1 for a in els if a)


@pytest.mark.parametrize("p,e", [(3, 7), (1031, 1)])
def test_scalar_ops_without_tables_match_digitwise_arithmetic(p, e):
    """Fields above q = 1024 keep no add or neg table: their scalar add,
    neg and sub are the array ops on one element, checked against the
    coefficient-wise sums on 300 seeded pairs."""
    F = field_make(p, e)
    assert F._add is None and F._neg is None
    rng = np.random.default_rng(F.q)
    for a, b in rng.integers(0, F.q, size=(300, 2)).tolist():
        assert type(F.add(a, b)) is type(F.neg(a)) is int
        assert F.add(a, b) == _digitwise_add(F, a, b)
        assert F.neg(a) == _digitwise_neg(F, a)
        assert F.sub(a, b) == _digitwise_add(F, a, _digitwise_neg(F, b))


def test_large_fields_build_quickly_without_full_tables():
    F = field_make(2, 10)
    assert F._mul is not None and F.mul(F.inv(3), 3) == 1
    big = field_make(2, 12)
    assert big._mul is None
    assert big.mul(big.inv(5), 5) == 1


@pytest.mark.parametrize("p,e", [(2, 12), (3, 7), (2, 16)])
def test_fields_without_tables_on_seeded_samples(p, e):
    """Every product goes through the polynomial reduction here: the
    field laws, inverses and Fermat's little theorem on a sample."""
    F = field_make(p, e)
    assert F._mul is None and F._inv is None
    rng = np.random.default_rng(F.q)
    edges = [1, p - 1, p, F.q - 1]
    a, b, c = (edges + rng.integers(1, F.q, size=60).tolist()
               for _ in range(3))
    for x, y, z in zip(a, b[::-1], c[1:] + c[:1]):
        assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
        assert F.add(F.add(x, y), z) == F.add(x, F.add(y, z))
        assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
        assert F.mul(x, F.inv(x)) == 1
        assert F.pow(x, F.q) == x
        assert F.pow(x, F.q - 1) == 1
    assert F.pow(0, F.q) == 0 and F.pow(0, 0) == 1


def test_kernel_rank_matches_scalar_rank():
    rng = np.random.default_rng(3)
    for q, rows, cols in [(3, 4, 4), (4, 3, 5), (9, 3, 3), (5, 1, 4),
                          (7, 4, 1), (2, 5, 3)]:
        F = field_from_order(q)
        A = rng.integers(0, q, size=(300, rows, cols))
        A[:40] = 0
        A[40:80, 1:] = A[40:80, :1]      # rank <= 1
        got = kernel_rank(kernel_stack(A, F), F, cols)
        assert got.dtype == np.uint8
        assert got.tolist() == _scalar_ranks(A, F)


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("rows,cols", [(4, 4), (4, 8)])
def test_kernel_rank_matches_scalar_rank_on_marsaglia_shapes(q, rows, cols):
    """The 4x4 X and 4x8 [X | Y] of the Marsaglia suite, which are too
    large for the exhaustive block-table test, with low-rank members mixed
    in, ranked as that suite ranks them: from the AND of the kernels of
    the transposed 4x4 halves, which lie in GF(q)^4."""
    rng = np.random.default_rng(17 + q + cols)
    F = field_from_order(q)
    A = rng.integers(0, q, size=(600, rows, cols))
    A[:20] = 0
    A[100:250, 2:] = A[100:250, :2]             # rank <= 2
    A[250:350, 1:] = A[250:350, :1]             # rank <= 1
    A[350:450, :, 3:] = A[350:450, :, 2:3]      # columns 2.. repeat
    halves = [kernel_stack(A[:, :, j:j + rows].transpose(0, 2, 1), F)
              for j in range(0, cols, rows)]
    got = kernel_rank(np.bitwise_and.reduce(halves), F, rows)
    want = _scalar_ranks(A, F)
    assert got.tolist() == want
    assert set(want) == set(range(5))


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 257, 4096])
def test_array_sub_and_add_match_scalar_ops(q):
    F = field_from_order(q)
    if q <= 16:
        a, b = (x.ravel() for x in np.meshgrid(range(q), range(q)))
    else:
        rng = np.random.default_rng(q)
        a, b = rng.integers(0, q, size=(2, 3000))
        edges = [0, 1, F.p - 1, q - 1]
        a = np.concatenate([a, np.repeat(edges, 4)])
        b = np.concatenate([b, np.tile(edges, 4)])
    for dtype in (np.min_scalar_type(q - 1), np.int64):
        x, y = a.astype(dtype), b.astype(dtype)
        diff, total = F.sub_array(x, y), F.add_array(x, y)
        assert diff.dtype == total.dtype == dtype
        pairs = list(zip(a.tolist(), b.tolist()))
        assert diff.tolist() == [F.sub(s, t) for s, t in pairs]
        assert total.tolist() == [F.add(s, t) for s, t in pairs]
    # broadcasting a row against a stack, as the graph layer does
    x = a[:8].astype(np.int64)
    assert F.sub_array(x[None, :], x[:, None]).tolist() == [
        [F.sub(s, t) for s in x.tolist()] for t in x.tolist()]


def _scalar_ranks(A, F):
    rows, cols = A.shape[1:]
    return [rank(Matrix(rows, cols, tuple(int(x) for x in a.ravel()), F))
            for a in A]


def _stack_of_each_rank(F, rng, count, rows, cols):
    """count members of each rank 0..min(rows, cols) (with high
    probability): products U V of random rows x r and r x cols factors,
    summed with the field tables."""
    add, mul = np.array(F._add), np.array(F._mul)
    out = []
    for r in range(min(rows, cols) + 1):
        U = rng.integers(0, F.q, size=(count, rows, r))
        V = rng.integers(0, F.q, size=(count, r, cols))
        C = np.zeros((count, rows, cols), dtype=np.int64)
        for t in range(r):
            C = add[C, mul[U[:, :, t, None], V[:, None, t, :]]]
        out.append(C)
    return np.concatenate(out)


def _block_shapes_up_to_2_16(q):
    return [(n, m) for n in range(1, 17) for m in range(1, 17)
            if q ** (n * m) <= 1 << 16]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 256])
def test_rank_table_on_every_block_shape_up_to_2_16(q):
    """The table of every block shape with q^(n*m) <= 2^16 (GF(16) 2x2
    included): its rank histogram is the closed-form count, and the m x n
    table read at the transposed indices is the same."""
    F = field_from_order(q)
    for n, m in _block_shapes_up_to_2_16(q):
        got = rank_table(n, m, F)
        assert got.dtype == np.uint8
        assert np.bincount(got, minlength=min(n, m) + 1).tolist() == [
            counting.count_rank_matrices(n, m, r, q)
            for r in range(min(n, m) + 1)], (n, m)
        A = digit_rows(q, n * m).reshape(-1, n, m)
        At = A.transpose(0, 2, 1).reshape(len(A), -1)
        assert np.array_equal(rank_table(m, n, F)[digit_index(At, q)], got)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 256])
def test_rank_table_matches_scalar_rank_on_a_sample_up_to_2_16(q):
    """A seeded sample of every block shape with q^(n*m) <= 2^16, read from
    its table at the sample's indices, agrees with the scalar rank, which
    shares no kernel code with the table (every matrix up to 2^12 is
    compared in test_graphlab)."""
    F = field_from_order(q)
    rng = np.random.default_rng(q)
    for n, m in _block_shapes_up_to_2_16(q):
        got = rank_table(n, m, F)
        A = digit_rows(q, n * m).reshape(-1, n, m)
        sample = rng.choice(len(A), size=min(len(A), 64), replace=False)
        assert got[sample].tolist() == _scalar_ranks(A[sample], F), (n, m)


@pytest.mark.parametrize("n,m", [(2, 10), (10, 2)])
def test_rank_table_of_2_20_matrices_is_built_in_chunks(n, m):
    """GF(2) 2x10, the largest tabulated block: the closed-form rank
    histogram, at a traced peak that only chunks of _KERNEL_WORDS words
    keep low (13.8 MB; one chunk of 2^19 words peaks at 24.5 MB)."""
    F = field_make(2)
    tracemalloc.start()
    try:
        got = rank_table(n, m, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got) == 1 << 20
    assert np.bincount(got).tolist() == [
        counting.count_rank_matrices(n, m, r, 2) for r in range(3)]
    assert peak < 16 << 20


def test_kernel_stack_index_dtypes():
    F2, F9 = field_make(2), field_make(3, 2)
    rng = np.random.default_rng(5)
    # GF(2) 10x10 has row codes up to 1023, beyond uint8
    for F, rows, cols in [(F2, 10, 10), (F2, 10, 6), (F9, 3, 3)]:
        A = _stack_of_each_rank(F, rng, 6, rows, cols)
        want = _scalar_ranks(A, F)
        for dtype in (np.uint8, np.uint16, np.int64):
            got = kernel_rank(kernel_stack(A.astype(dtype), F), F, cols)
            assert got.dtype == np.uint8 and got.tolist() == want


def test_kernel_stack_rejects_entries_outside_the_field():
    """A 3 in GF(3) would give the row (0, 3) the code of (1, 0)."""
    F3, F4 = field_make(3), field_make(2, 2)
    for A, F in [([[[0, 3], [0, 0]]], F3), ([[[1, -1], [0, 1]]], F3),
                 ([[[0, 0, 3]]], F3), ([[[4, 0], [0, 1]]], F4)]:
        with pytest.raises(FieldError):
            kernel_stack(np.array(A), F)
    with pytest.raises(FieldError):
        kernel_stack(np.ones((2, 2, 2)), F3)   # floats are not field indices


def test_kernel_stack_refuses_an_orthogonality_table_beyond_its_budget():
    """kernel_stack never transposes: its kernels lie in GF(q)^cols."""
    assert gf.MAX_ORTH_SPACE == 1 << 10
    F2, F3 = field_make(2), field_make(3)
    with pytest.raises(BudgetError):
        kernel_stack(np.zeros((1, 11, 11), dtype=np.uint8), F2)
    with pytest.raises(BudgetError):
        kernel_stack(np.zeros((1, 3, 2), dtype=np.uint8), field_make(2, 6))
    with pytest.raises(BudgetError):
        kernel_stack(np.zeros((1, 1, 7), dtype=np.uint8), F3)   # 3^7
    # q^cols = 2^10 is still tabulated
    ker = kernel_stack(np.eye(10, dtype=np.uint8)[None], F2)
    assert kernel_rank(ker, F2, 10).tolist() == [10]
    assert kernel_stack(np.zeros((1, 1, 6), dtype=np.uint8), F3).shape == (
        1, 12)


def test_popcount16_is_the_bit_count_of_every_uint16():
    table = gf._POPCOUNT16
    assert table.shape == (1 << 16,)
    assert table.tolist() == [bin(x).count("1") for x in range(1 << 16)]
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 1


def test_kernel_rank_counts_every_word_of_a_kernel():
    """GF(3)^4 has 81 vectors, two uint64 words a kernel: the zero matrix
    (81 vectors) and the identity (the zero vector) rank 0 and 4, and one
    bit flipped in either kernel's second word is caught."""
    F3 = field_make(3)
    A = np.stack([np.zeros((4, 4), np.uint8), np.eye(4, dtype=np.uint8)])
    ker = kernel_stack(A, F3)
    assert ker.shape == (2, 2)
    assert kernel_rank(ker, F3, 4).tolist() == [0, 4]
    for i, bit in ((0, 5), (1, 20)):
        bad = ker.copy()
        bad[i, 1] ^= np.uint64(1 << bit)
        with pytest.raises(ArithmeticError, match=f"kernel {i} "):
            kernel_rank(bad, F3, 4)


def test_rank_table_certifies_every_kernel_size(monkeypatch):
    """A corrupted orthogonality table, or a patched kernel, gives a
    kernel whose size is no power of q: ArithmeticError, not a rank."""
    F3 = field_make(3)
    ker = kernel_stack(np.zeros((3, 2, 2), dtype=np.uint8), F3)
    assert kernel_rank(ker, F3, 2).tolist() == [0, 0, 0]
    ker[1, 0] ^= np.uint64(1 << 4)      # kernel 1 loses one vector
    with pytest.raises(ArithmeticError, match="kernel 1 "):
        kernel_rank(ker, F3, 2)
    table = gf._orthogonality_table(3, 1, 2).copy()
    table[0, 0] ^= np.uint64(1 << 4)    # the zero row loses one vector
    monkeypatch.setattr(gf, "_orthogonality_table", lambda p, e, k: table)
    with pytest.raises(ArithmeticError):
        rank_table(2, 2, F3)


def _brute_kernel_bits(A, F):
    """Bit b of row i is set iff M_i b = 0, for every b of GF(q)^cols in
    index order, by the scalar field operations."""
    vecs = digit_rows(F.q, A.shape[2]).tolist()
    out = np.zeros((len(A), len(vecs)), dtype=bool)
    for i, M in enumerate(A.tolist()):
        for b, v in enumerate(vecs):
            dots = []
            for row in M:
                s = 0
                for x, y in zip(row, v):
                    s = F.add(s, F.mul(x, y))
                dots.append(s)
            out[i, b] = not any(dots)
    return out


@pytest.mark.parametrize("q,shapes", [
    (2, [(3, 5), (5, 3), (2, 7)]),
    (3, [(2, 4), (4, 2), (3, 3)]),
    (4, [(2, 3), (4, 2)]),
    (9, [(2, 3), (3, 2)]),
])
def test_kernel_stack_is_the_brute_force_nullspace(q, shapes):
    """Wide and tall stacks, every rank present: the bitsets are the right
    kernels {b : M b = 0}, with no bit set past q^cols, and kernel_rank
    gives cols - log_q of their sizes, the scalar rank."""
    F = field_from_order(q)
    rng = np.random.default_rng(30 + q)
    for rows, cols in shapes:
        A = _stack_of_each_rank(F, rng, 4, rows, cols)
        ker = kernel_stack(A, F)
        assert ker.dtype == np.uint64 and ker.shape == (len(A),
                                                        -(-q ** cols // 64))
        bits = np.unpackbits(ker.view(np.uint8), axis=1,
                             bitorder="little").astype(bool)
        assert not bits[:, q ** cols:].any()
        assert np.array_equal(bits[:, :q ** cols], _brute_kernel_bits(A, F))
        got = kernel_rank(ker, F, cols)
        assert got.dtype == np.uint8
        assert got.tolist() == _scalar_ranks(A, F)


@pytest.mark.parametrize("q,rows,other,cols", [
    (2, 3, 4, 5), (3, 2, 3, 4), (4, 2, 2, 3), (9, 1, 2, 3)])
def test_anded_kernels_rank_the_stacked_matrices(q, rows, other, cols):
    """ker X & ker Y is the kernel of [X ; Y]: its rank is the scalar
    rank of the stacked matrices."""
    F = field_from_order(q)
    rng = np.random.default_rng(40 + q)
    X = _stack_of_each_rank(F, rng, 8, rows, cols)
    Y = rng.permutation(_stack_of_each_rank(F, rng, 8, other, cols))
    n = min(len(X), len(Y))
    X, Y = X[:n], Y[:n]
    got = kernel_rank(kernel_stack(X, F) & kernel_stack(Y, F), F, cols)
    want = _scalar_ranks(np.concatenate((X, Y), axis=1), F)
    assert got.tolist() == want
    assert len(set(want)) > 1


def test_matrix_stays_a_frozen_dataclass():
    F3 = field_make(3)
    M = Matrix(2, 2, (1, 2, 0, 1), F3)
    assert M == Matrix(2, 2, (1, 2, 0, 1), F3)
    assert M != Matrix(2, 2, (1, 2, 0, 2), F3)
    assert hash(M) == hash(Matrix(2, 2, (1, 2, 0, 1), F3))
    assert repr(M) == ("Matrix(rows=2, cols=2, entries=(1, 2, 0, 1), "
                       "field=FieldSpec(p=3, e=1))")
    assert [f.name for f in dataclasses.fields(M)] == [
        "rows", "cols", "entries", "field"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        M.rows = 4
    with pytest.raises(ShapeError):
        Matrix(2, 2, (1, 2, 0), F3)
    with pytest.raises(ShapeError):
        Matrix(rows=1, cols=2, entries=(), field=F3)
    wide = dataclasses.replace(M, rows=1, cols=4)
    assert wide == Matrix(1, 4, (1, 2, 0, 1), F3) and rank(wide) == 1
    with pytest.raises(ShapeError):
        dataclasses.replace(M, rows=3)


# -- the digit codec --------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 257, 65536])
def test_digit_index_round_trip_most_significant_first(q):
    length = 3
    rng = np.random.default_rng(q)
    idx = np.concatenate([[0, 1, q - 1, q, q ** length - 1],
                          rng.integers(0, q ** length, size=195)])
    digits = index_digits(idx, q, length)
    assert digits.dtype == digit_dtype(q) and digits.shape == (200, length)
    assert digits.tolist() == [[i // q ** (length - 1 - j) % q
                                for j in range(length)] for i in idx.tolist()]
    assert digit_index(digits, q).tolist() == idx.tolist()
    # leading axes are kept, and a single row gives a single index
    assert digit_index(digits.reshape(10, 20, length), q).tolist() == \
        idx.reshape(10, 20).tolist()
    assert digit_index(digits[4], q) == q ** length - 1
    assert digit_rows(q, 1).ravel().tolist() == list(range(q))


def test_digit_index_overflow_bound_is_2_to_the_63():
    top = (1 << 63) - 1
    assert digit_index(np.ones(63, dtype=np.uint8), 2) == top
    assert index_digits(top, 2, 63).tolist() == [1] * 63
    assert digit_index(np.full(3, 65535, dtype=np.uint16), 65536) == (1 << 48) - 1
    with pytest.raises(OverflowError):
        digit_index(np.ones(64, dtype=np.uint8), 2)
    with pytest.raises(OverflowError):
        index_digits(0, 2, 64)
    with pytest.raises(OverflowError):
        digit_index(np.zeros((1, 4), dtype=np.uint16), 65536)


@pytest.mark.parametrize("base", [2, 3, 4, 257, 65536])
def test_int_digits_round_trip_least_significant_first(base):
    length = 4
    for value in (0, 1, base - 1, base, 123456789 % base ** length,
                  base ** length - 1):
        digits = int_digits(value, base, length)
        assert digits == [value // base ** j % base for j in range(length)]
        assert digits_int(digits, base) == value
    # only the low `length` digits are kept
    assert int_digits(base ** length + 5, base, length) == \
        int_digits(5, base, length)
