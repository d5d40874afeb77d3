"""Exact finite-field arithmetic and dense matrices over GF(p^e).

Field elements are dense indices in [0, q).  The index encodes the
coefficient vector of the residue polynomial in base p (low degree first),
so 0 is the additive identity and 1 the multiplicative identity.  For small
fields full add/mul tables are precomputed; larger fields fall back to
on-the-fly polynomial arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

MAX_FIELD_SIZE = 1 << 16
# Full q x q tables only while they stay small; beyond this, element ops
# go through polynomial arithmetic (still exact, just slower).
_TABLE_ENTRY_LIMIT = 1 << 20

DEFAULT_ENUM_BUDGET = 1 << 20


class FieldError(ValueError):
    """Invalid field construction or element operation."""


class ShapeError(ValueError):
    """Matrix dimensions do not conform."""


class BudgetError(RuntimeError):
    """An enumeration would exceed its configured budget."""


def _prime_factors(n: int):
    """The distinct prime factors of n, ascending ([] for n < 2)."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


# -- polynomial helpers over GF(p); coefficient lists, low degree first --


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a, b, p):
    """The remainder of a modulo b != 0 over GF(p), trimmed."""
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    inv_lead = pow(b[-1], p - 2, p)
    while a and len(a) >= len(b):
        c = (a[-1] * inv_lead) % p
        shift = len(a) - len(b)
        for j, bj in enumerate(b):
            a[shift + j] = (a[shift + j] - c * bj) % p
        a = _poly_trim(a)
    return a


def _poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_mod(out, mod, p)


def _is_irreducible(coeffs, p) -> bool:
    """Trial division of a monic polynomial of degree e >= 2 over GF(p),
    low degree first, by every monic polynomial of degree 1..e//2."""
    if coeffs[0] == 0:
        return False  # divisible by x: the lex-first candidates, undivided
    e = len(coeffs) - 1
    return all(_poly_mod(coeffs, low + (1,), p)
               for deg in range(1, e // 2 + 1)
               for low in product(range(p), repeat=deg))


def _smallest_irreducible(p: int, e: int):
    """Monic degree-e irreducible over GF(p), lexicographically smallest
    when the constant-upward coefficient tuple is compared."""
    if e == 1:
        # the polynomial x; any monic linear works, x is lex-smallest
        return (0, 1)
    for low in product(range(p), repeat=e):
        cand = list(low) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise FieldError(f"no irreducible polynomial found for GF({p}^{e})")


def _sub_mod(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """(x - y) mod p for arrays with entries in [0, p); unsigned dtypes
    are fine, since only the branch without wrap-around is kept."""
    return np.where(x < y, x + (p - y), x - y)


def _add_mod(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """(x + y) mod p for arrays with entries in [0, p)."""
    return np.where(x < p - y, x + y, x - (p - y))


# -- the digit codec: Python ints least significant digit first (the
# coefficients of a field element), numpy rows most significant digit
# first (the canonical index of a vector) --


def int_digits(value: int, base: int, length: int) -> list:
    """The low ``length`` base-``base`` digits of value, least significant
    first."""
    out = []
    for _ in range(length):
        out.append(value % base)
        value //= base
    return out


def digits_int(digits, base: int) -> int:
    """Inverse of ``int_digits``: the integer whose base-``base`` digits,
    least significant first, are ``digits``."""
    value = 0
    for d in reversed(digits):
        value = value * base + d
    return value


def digit_dtype(q: int):
    """Smallest unsigned dtype holding every field index of GF(q)."""
    return np.uint8 if q <= 256 else np.uint16


@lru_cache(maxsize=None)
def _radix(q: int, length: int) -> np.ndarray:
    """Place values q^(length-1), ..., q, 1 as int64, read-only."""
    if q ** length > 1 << 63:
        raise OverflowError(f"GF({q})^{length} has more than 2^63 vectors, "
                            f"beyond an int64 index")
    radix = q ** np.arange(length - 1, -1, -1, dtype=np.int64)
    radix.flags.writeable = False
    return radix


def digit_index(digits: np.ndarray, q: int) -> np.ndarray:
    """Canonical indices of the rows (last axis) of a digit array: base q,
    first digit most significant.  OverflowError when q^length > 2^63."""
    return digits.astype(np.int64) @ _radix(q, digits.shape[-1])


def index_digits(idx, q: int, length: int) -> np.ndarray:
    """Inverse of ``digit_index``: the (..., length) digit rows of an
    index array, in the smallest dtype holding GF(q)."""
    idx = np.asarray(idx, dtype=np.int64)
    digits = np.empty(idx.shape + (length,), dtype=digit_dtype(q))
    for pos, place in enumerate(_radix(q, length).tolist()):
        digits[..., pos] = idx // place % q
    return digits


def digit_rows(q: int, length: int) -> np.ndarray:
    """(q^length, length) digit rows of every vector of GF(q)^length, in
    index order."""
    return index_digits(np.arange(q ** length), q, length)


class FieldSpec:
    """GF(p^e) with deterministic modulus and table-driven arithmetic."""

    def __init__(self, p: int, e: int):
        if e < 1:
            raise FieldError("exponent must be >= 1")
        # e <= 16 first, so that p ** e stays small for any p
        if e > 16 or p ** e > MAX_FIELD_SIZE:
            raise FieldError(f"field size {p}^{e} exceeds {MAX_FIELD_SIZE}")
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        q = p ** e
        self.p = p
        self.e = e
        self.q = q
        self.modulus = _smallest_irreducible(p, e)
        self._add = None
        self._mul = None
        self._neg = None
        self._inv = None
        if q * q <= _TABLE_ENTRY_LIMIT:
            self._build_tables()

    def _mul_raw(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        p, e = self.p, self.e
        return digits_int(_poly_mulmod(int_digits(a, p, e), int_digits(b, p, e),
                                       self.modulus, p), p)

    def _primitive_element(self) -> int:
        """Smallest generator of the multiplicative group (order q-1)."""
        q = self.q
        factors = _prime_factors(q - 1)
        for g in range(1, q):
            if all(self.pow(g, (q - 1) // r) != 1 for r in factors):
                return g
        raise FieldError(f"GF({q}) has no primitive element")

    def coefficients(self, a) -> list:
        """Base-p coefficient arrays of an index array, low degree first."""
        p = self.p
        return [a // p ** j % p for j in range(self.e)]

    def _coefficientwise(self, a, b, op) -> np.ndarray:
        if self.p == 2:
            return a ^ b
        if self.e == 1:
            return op(a, b, self.p)
        out = 0
        for j, (x, y) in enumerate(zip(self.coefficients(a),
                                       self.coefficients(b))):
            out = out + op(x, y, self.p) * self.p ** j
        return out

    def sub_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Entry-wise a - b of index arrays (broadcasting), computed on the
        base-p coefficients, so no q x q table is needed."""
        return self._coefficientwise(a, b, _sub_mod)

    def add_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Entry-wise a + b of index arrays (broadcasting)."""
        return self._coefficientwise(a, b, _add_mod)

    def _build_tables(self):
        """Full tables: add and neg coefficient-wise, mul through discrete
        logs to a primitive element g (q-1 calls of ``_mul_raw``)."""
        q = self.q
        a = np.arange(q, dtype=np.int64)
        add = self.add_array(a[:, None], a[None, :])
        neg = self.sub_array(np.zeros_like(a), a)
        g = self._primitive_element()
        exp = [1]
        for _ in range(q - 2):
            exp.append(self._mul_raw(exp[-1], g))
        exp = np.array(exp, dtype=np.int64)
        if not np.array_equal(np.sort(exp), np.arange(1, q)):
            raise ArithmeticError(f"{g} does not generate GF({q})^*")
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        mul = np.zeros((q, q), dtype=np.int64)
        mul[1:, 1:] = exp[(log[1:, None] + log[None, 1:]) % (q - 1)]
        inv = np.zeros(q, dtype=np.int64)
        inv[1:] = exp[-log[1:] % (q - 1)]
        self._add = add.tolist()
        self._mul = mul.tolist()
        self._neg = neg.tolist()
        self._inv = inv.tolist()

    def add(self, a: int, b: int) -> int:
        if self._add is not None:
            return self._add[a][b]
        return int(self.add_array(a, b))

    def neg(self, a: int) -> int:
        if self._neg is not None:
            return self._neg[a]
        return int(self.sub_array(0, a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._mul is not None:
            return self._mul[a][b]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("0 has no multiplicative inverse")
        if self._inv is not None:
            return self._inv[a]
        return self.pow(a, self.q - 2)  # the group of units has order q-1

    def pow(self, a: int, n: int) -> int:
        """a^n for n >= 0, by square-and-multiply on ``mul``."""
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((self.p, self.e))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, e={self.e})"


@lru_cache(maxsize=None)
def field_make(p: int, e: int = 1) -> FieldSpec:
    """Deterministic GF(p^e); same (p, e) always yields the same modulus."""
    return FieldSpec(p, e)


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split a prime power q into (p, e); raises FieldError otherwise.
    Trial division runs only to 2^20: a q with no factor up to there is
    prime if q < 2^40, and refused as uncertified if not."""
    if q < 2:
        raise FieldError(f"{q} is not a prime power")
    p = next((f for f in range(2, min(math.isqrt(q), 1 << 20) + 1)
              if q % f == 0), q)
    if p == q and q >= 1 << 40:
        raise FieldError(f"cannot certify {q} as a prime power: "
                         f"it has no factor up to 2^20")
    rest, e = q, 0
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise FieldError(f"{q} is not a prime power")
    return p, e


def field_from_order(q: int) -> FieldSpec:
    if q > MAX_FIELD_SIZE:
        raise FieldError(f"field size {q} exceeds {MAX_FIELD_SIZE}")
    p, e = factor_prime_power(q)
    return field_make(p, e)


@dataclass(frozen=True)
class Matrix:
    """Dense row-major matrix over a FieldSpec; immutable."""

    rows: int
    cols: int
    entries: tuple
    field: FieldSpec

    def __init__(self, rows: int, cols: int, entries: tuple, field: FieldSpec):
        # Written out instead of the generated frozen __init__, which sets
        # each field through object.__setattr__: the Marsaglia suite makes
        # ~200k of these a pass, one pair at a time, and drops each pair
        # before the next.
        if len(entries) != rows * cols:
            raise ShapeError("entry count does not match rows*cols")
        d = self.__dict__
        d["rows"] = rows
        d["cols"] = cols
        d["entries"] = entries
        d["field"] = field

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r * self.cols + c]

    def row(self, r: int):
        return self.entries[r * self.cols:(r + 1) * self.cols]

    def sub(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch in subtraction")
        F = self.field
        return Matrix(self.rows, self.cols,
                      tuple(F.sub(a, b) for a, b in zip(self.entries, other.entries)),
                      F)

    def transpose(self) -> "Matrix":
        ent = tuple(self.entries[r * self.cols + c]
                    for c in range(self.cols) for r in range(self.rows))
        return Matrix(self.cols, self.rows, ent, self.field)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ShapeError("row count mismatch in hstack")
        ent = []
        for r in range(self.rows):
            ent.extend(self.row(r))
            ent.extend(other.row(r))
        return Matrix(self.rows, self.cols + other.cols, tuple(ent), self.field)


def rank(M: Matrix) -> int:
    """Rank by exact Gaussian elimination over the matrix's field."""
    F = M.field
    rows = [list(M.row(r)) for r in range(M.rows)]
    nrows, ncols = M.rows, M.cols
    rk = 0
    for col in range(ncols):
        pivot = next((r for r in range(rk, nrows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        inv = F.inv(rows[rk][col])
        prow = rows[rk]
        for r in range(rk + 1, nrows):
            v = rows[r][col]
            if v:
                factor = F.mul(v, inv)
                row_r = rows[r]
                for c in range(col, ncols):
                    row_r[c] = F.sub(row_r[c], F.mul(factor, prow[c]))
        rk += 1
        if rk == nrows:
            break
    return rk


# Largest space GF(q)^k whose orthogonality table kernel_stack builds, k
# the column count (rank_stack transposes, so k = min(rows, cols)): every
# tabulated block shape (q^(k*k) <= 2^20) and the 4x4 GF(3) Marsaglia
# stacks (81) fit.
MAX_ORTH_SPACE = 1 << 10
# Kernel bitset words (and row digits) held at once by rank_stack and
# rank_table, 2 MB each: a stack or table is ranked in chunks.
_KERNEL_WORDS = 1 << 18
_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)
# Bit counts of every uint16, read-only: entry (hi << 8) | lo is the count
# of hi plus that of lo, one outer add of the byte table.
_POPCOUNT16 = np.add.outer(_POPCOUNT8, _POPCOUNT8).ravel()
_POPCOUNT16.flags.writeable = False


@lru_cache(maxsize=None)
def _orthogonality_table(p: int, e: int, k: int) -> np.ndarray:
    """Row a is the set {b : a . b == 0} of GF(p^e)^k as a bitset of
    uint64 words (bit b of the row), a and b indexed by their digit-row
    codes; built from the field's mul and add tables, read-only."""
    F = field_make(p, e)
    dtype = digit_dtype(F.q)
    add = np.array(F._add, dtype=dtype)
    mul = np.array(F._mul, dtype=dtype)
    vec = digit_rows(F.q, k)
    dot = np.zeros((F.q ** k, F.q ** k), dtype=dtype)
    for i in range(k):
        dot = add[dot, mul[vec[:, i, None], vec[None, :, i]]]
    words = -(-F.q ** k // 64)
    bits = np.zeros((F.q ** k, 64 * words), dtype=bool)
    bits[:, :F.q ** k] = dot == 0
    table = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
    table.flags.writeable = False
    return table


def _field_index_stack(A, F: FieldSpec) -> np.ndarray:
    """A as an array of field indices of GF(q): FieldError for a
    non-integer dtype or an entry outside [0, q), whose row code would
    alias another vector."""
    A = np.asarray(A)
    if A.dtype.kind not in "biu":
        raise FieldError(f"field indices must be integers, not {A.dtype}")
    if A.size and (A.min() < 0 or A.max() >= F.q):
        raise FieldError(f"entry outside [0, {F.q}) for GF({F.q})")
    return A


def kernel_stack(A, F: FieldSpec) -> np.ndarray:
    """Kernels {b in GF(q)^cols : M b = 0} of a stack of matrices: A is an
    (N, rows, cols) array of field indices with rows >= 1.  Returns an
    (N, words) uint64 array whose row i is the kernel of matrix i as a
    bitset over the digit-row codes of GF(q)^cols.

    Each row of a matrix selects the bitset of the vectors orthogonal to
    it from a cached orthogonality table, and the kernel is their AND, so
    the AND of two kernels is the kernel of the two matrices stacked.  An
    entry outside [0, q) raises FieldError, and q^cols > ``MAX_ORTH_SPACE``
    raises BudgetError."""
    A = _field_index_stack(A, F)
    k = A.shape[2]
    if F.q ** k > MAX_ORTH_SPACE:
        raise BudgetError(f"GF({F.q})^{k} exceeds the orthogonality table "
                          f"budget {MAX_ORTH_SPACE}")
    orth = _orthogonality_table(F.p, F.e, k)
    code = digit_index(A, F.q)
    # np.take copies whole table rows, several times faster than orth[idx]
    ker = np.take(orth, code[:, 0], axis=0)
    for i in range(1, A.shape[1]):
        np.bitwise_and(ker, np.take(orth, code[:, i], axis=0), out=ker)
    return ker


def kernel_rank(ker: np.ndarray, F: FieldSpec, k: int) -> np.ndarray:
    """Ranks k - log_q |kernel| of matrices with k columns from their
    kernel bitsets (``kernel_stack``, or ANDs of its rows), as an (N,)
    uint8 array.  As a certificate, each |kernel| must be q^j with
    j <= k, else ArithmeticError."""
    q = F.q
    # |kernel| counted 16 bits at a time
    counts = np.take(_POPCOUNT16, ker.view(np.uint16))
    size = counts.sum(axis=1, dtype=np.int64)
    nullity = np.full(q ** k + 1, -1, dtype=np.int64)
    nullity[q ** np.arange(k + 1)] = np.arange(k + 1)
    j = nullity[size]
    if (j < 0).any():
        bad = int(np.flatnonzero(j < 0)[0])
        raise ArithmeticError(f"kernel {bad} of the stack has {size[bad]} "
                              f"vectors, not a power of {q}")
    return (k - j).astype(np.uint8)


def rank_stack(A, F: FieldSpec):
    """Ranks of a stack of matrices: A is an (N, rows, cols) array of
    field indices.  Returns an (N,) uint8 array.

    The stack is transposed when cols > rows, so that with
    k = min(rows, cols) every kernel lies in GF(q)^k; then it is ranked in
    chunks, each by ``kernel_stack`` and ``kernel_rank``
    (rank = k - log_q |kernel|, every kernel size certified a power of
    q).  An entry outside [0, q) raises FieldError, and q^k >
    ``MAX_ORTH_SPACE`` raises BudgetError."""
    A = np.asarray(A)
    N, nrows, ncols = A.shape
    if min(nrows, ncols) <= 1:
        return _field_index_stack(A, F).any(axis=(1, 2)).astype(np.uint8)
    if ncols > nrows:
        A = A.transpose(0, 2, 1)
        nrows, ncols = ncols, nrows
    words = -(-F.q ** ncols // 64)
    step = max(1, _KERNEL_WORDS // max(words, nrows * ncols))
    # kernel_stack checks each chunk; an empty stack is one empty chunk
    return np.concatenate([
        kernel_rank(kernel_stack(A[s:s + step], F), F, ncols)
        for s in range(0, max(N, 1), step)])


def rank_table(rows: int, cols: int, F: FieldSpec) -> np.ndarray:
    """Ranks of every rows x cols matrix over F, as a uint8 array indexed
    by canonical digit index.  A matrix is a tuple of lines of GF(q)^k,
    k = min(rows, cols) (its columns when cols > rows, as ``rank_stack``
    transposes), and its kernel is the AND of their orthogonality-table
    rows: the product over the lines after the first is built once, then
    ANDed with chunks of the first line's codes, each of at most
    ``_KERNEL_WORDS`` words for any table of up to 2^20 matrices and
    ranked by ``kernel_rank``."""
    q = F.q
    if min(rows, cols) <= 1:
        return (np.arange(q ** (rows * cols)) > 0).astype(np.uint8)
    k, lines = min(rows, cols), max(rows, cols)
    orth = _orthogonality_table(F.p, F.e, k)
    words = orth.shape[1]
    tail = orth
    for _ in range(lines - 2):
        tail = (tail[:, None] & orth).reshape(-1, words)
    step = max(1, _KERNEL_WORDS // tail.size)
    ranks = np.concatenate([
        kernel_rank((orth[s:s + step, None] & tail).reshape(-1, words), F, k)
        for s in range(0, len(orth), step)])
    if cols > rows:
        # axis j*rows + i of the digit grid holds entry (i, j)
        ranks = ranks.reshape((q,) * (rows * cols)).transpose(
            np.arange(rows * cols).reshape(cols, rows).T.ravel()).ravel()
    return ranks


def col_space_intersection_dim(X: Matrix, Y: Matrix) -> int:
    """dim(col X ∩ col Y) = rk X + rk Y - rk [X | Y]."""
    if X.rows != Y.rows:
        raise ShapeError("column spaces live in different ambient spaces")
    return rank(X) + rank(Y) - rank(X.hstack(Y))


def row_space_intersection_dim(X: Matrix, Y: Matrix) -> int:
    if X.cols != Y.cols:
        raise ShapeError("row spaces live in different ambient spaces")
    return col_space_intersection_dim(X.transpose(), Y.transpose())


def enumerate_matrices(rows: int, cols: int, field: FieldSpec):
    """All q^(rows*cols) matrices exactly once, lexicographic entry order;
    BudgetError beyond DEFAULT_ENUM_BUDGET of them."""
    total = field.q ** (rows * cols)
    if total > DEFAULT_ENUM_BUDGET:
        raise BudgetError(f"{total} matrices exceed enumeration budget "
                          f"{DEFAULT_ENUM_BUDGET}")
    for ent in product(range(field.q), repeat=rows * cols):
        yield Matrix(rows, cols, ent, field)
