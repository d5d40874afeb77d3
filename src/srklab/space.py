"""The ambient sum-rank space: tuples of matrices, weight/distance,
enumeration, codes, and the bridge map into Hamming space over GF(q^m).

Canonical serialization order of a vector: blocks in order, entries
row-major, field indices; the induced integer index (first entry most
significant, base q) drives every deterministic greedy procedure.  The
index and the base-q coefficients of GF(q^m) elements are read and
written only through the digit codec of ``gf`` (``int_digits``/
``digits_int`` on ints, ``digit_index``/``index_digits`` on numpy rows).
A code is the sorted tuple of its words' indices; vector objects are
built only when ``SrkCode.words`` is asked for.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .gf import (BudgetError, FieldSpec, Matrix, ShapeError, digit_dtype,
                 digit_index, digits_int, field_make, index_digits,
                 int_digits, rank, DEFAULT_ENUM_BUDGET)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_ints(obj: dict, ints=(), lists=()):
    """ValueError unless each key of ``ints`` that obj has is an int and
    each key of ``lists`` that it has is a list of ints (bools are not
    ints here)."""
    for key in ints:
        if key in obj and not _is_int(obj[key]):
            raise ValueError(f"{key} is {obj[key]!r}, not an integer")
    for key in lists:
        if key in obj and not (isinstance(obj[key], list)
                               and all(map(_is_int, obj[key]))):
            raise ValueError(f"{key} is {obj[key]!r}, not a list of integers")


def _check_keys(obj: dict, allowed, what: str):
    """ValueError if obj has a key that ``allowed`` does not name."""
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; "
                         f"choose from {sorted(allowed)}")


@dataclass(frozen=True)
class SrkParams:
    """Parameters (q; n_1..n_t; m_1..m_t) of a space F_q^{n x m}."""

    field: FieldSpec
    n: tuple
    m: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", tuple(map(operator.index, self.n)))
        object.__setattr__(self, "m", tuple(map(operator.index, self.m)))
        if len(self.n) != len(self.m) or not self.n:
            raise ValueError("n and m must be nonempty tuples of equal length")
        offsets, groups = [0], {}
        for i, (ni, mi) in enumerate(zip(self.n, self.m)):
            if ni < 1 or mi < 1:
                raise ValueError("block dimensions must be positive")
            if mi < ni:
                raise ValueError(
                    f"m_i >= n_i required for every block (got {ni}x{mi})")
            offsets.append(offsets[-1] + ni * mi)
            groups.setdefault((ni, mi), []).append(i)
        # The block layout once per (frozen) space, outside the fields, so
        # equality and hashing see (field, n, m) only.
        object.__setattr__(self, "_offsets", tuple(offsets))
        object.__setattr__(self, "_groups", tuple(
            (shape, tuple(blocks)) for shape, blocks in groups.items()))

    @cached_property
    def _size(self) -> int:
        """|V|, computed when first asked, not when the space is built: a
        ball volume of a huge space never needs it."""
        return self.q ** self.total_dim

    @property
    def t(self) -> int:
        return len(self.n)

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def total_dim(self) -> int:
        return self._offsets[-1]

    @property
    def max_weight(self) -> int:
        return sum(min(ni, mi) for ni, mi in zip(self.n, self.m))

    def size(self) -> int:
        return self._size

    def block_shapes(self):
        return list(zip(self.n, self.m))

    def block_offsets(self) -> tuple:
        """The digit offset of each block, then the total dimension."""
        return self._offsets

    def shape_groups(self) -> tuple:
        """((n_i, m_i), block indices) per shape, first appearance first."""
        return self._groups

    def describe(self) -> str:
        return (f"q={self.q} n=({','.join(map(str, self.n))}) "
                f"m=({','.join(map(str, self.m))})")


def make_params(q: int, n, m) -> SrkParams:
    from .gf import field_from_order
    return SrkParams(field_from_order(q), tuple(n), tuple(m))


@dataclass(frozen=True)
class SrkVector:
    params: SrkParams
    blocks: tuple

    def __post_init__(self):
        if len(self.blocks) != self.params.t:
            raise ShapeError("wrong number of blocks")
        for blk, (ni, mi) in zip(self.blocks, self.params.block_shapes()):
            if (blk.rows, blk.cols) != (ni, mi):
                raise ShapeError(f"block shape {blk.rows}x{blk.cols}, "
                                 f"expected {ni}x{mi}")

    def sub(self, other: "SrkVector") -> "SrkVector":
        if self.params != other.params:
            raise ShapeError("vectors from different spaces")
        return SrkVector(self.params,
                         tuple(a.sub(b) for a, b in zip(self.blocks, other.blocks)))

    def serialize(self) -> tuple:
        """Flat entry tuple in canonical order."""
        out = []
        for b in self.blocks:
            out.extend(b.entries)
        return tuple(out)

    def index(self) -> int:
        return digits_int(self.serialize()[::-1], self.params.q)


def _split_blocks(params: SrkParams, digits) -> list:
    """A word's entries in canonical order, cut into one slice per block."""
    off = params.block_offsets()
    return [digits[a:b] for a, b in zip(off, off[1:])]


def vector_from_digits(params: SrkParams, digits) -> SrkVector:
    return SrkVector(params, tuple(
        Matrix(ni, mi, tuple(ent), params.field)
        for (ni, mi), ent in zip(params.block_shapes(),
                                 _split_blocks(params, digits))))


def vector_from_index(params: SrkParams, idx: int) -> SrkVector:
    return vector_from_digits(params,
                              int_digits(idx, params.q, params.total_dim)[::-1])


def srk_weight(x: SrkVector) -> int:
    return sum(rank(b) for b in x.blocks)


def srk_distance(x: SrkVector, y: SrkVector) -> int:
    return srk_weight(x.sub(y))


def enumerate_space(params: SrkParams):
    """Every vector exactly once, ascending canonical index; BudgetError
    beyond DEFAULT_ENUM_BUDGET of them."""
    total = params.size()
    if total > DEFAULT_ENUM_BUDGET:
        raise BudgetError(f"space of size {total} exceeds budget "
                          f"{DEFAULT_ENUM_BUDGET}")
    L = params.total_dim
    for digits in product(range(params.q), repeat=L):
        yield vector_from_digits(params, digits)


@dataclass(frozen=True)
class HammingVector:
    """Vector over the extension field GF(q^m); entries are integers in
    [0, q^m) encoding coefficient vectors base q over the ground field."""

    base_field: FieldSpec
    ext_degree: int
    entries: tuple

    def hamming_weight(self) -> int:
        return sum(1 for e in self.entries if e != 0)


def f_map(x: SrkVector) -> HammingVector:
    """Row-wise expansion of each block into GF(q^m), m = max m_i, in the
    polynomial basis (1, alpha, ..., alpha^{m-1}), alpha a root of the
    canonical degree-m modulus: row (a_0, ..., a_{m_i - 1}) maps to
    a_0 + a_1 alpha + ..., whose coefficient encoding is the row read as
    base-q digits, low degree first.  Blocks with m_i < m behave as if
    right-padded with zero columns.  Output length N = sum n_i."""
    params = x.params
    q = params.q
    return HammingVector(params.field, max(params.m), tuple(
        digits_int(blk.row(r), q) for blk in x.blocks for r in range(blk.rows)))


def wt_preservation_check(params: SrkParams) -> dict:
    """Exhaustively check srk(X) <= wt_H(f(X)); equality is additionally
    required when n = (1,...,1) and all m_i coincide.  Also records
    injectivity of f over the swept space."""
    expect_equality = all(ni == 1 for ni in params.n) and len(set(params.m)) == 1
    violations = []
    images = set()
    injective = True
    checked = 0
    for x in enumerate_space(params):
        w = srk_weight(x)
        img = f_map(x)
        wh = img.hamming_weight()
        if w > wh or (expect_equality and w != wh):
            violations.append({"vector": x.serialize(), "srk": w, "wt_h": wh})
        if img.entries in images:
            injective = False
        images.add(img.entries)
        checked += 1
    return {
        "params": params.describe(),
        "checked": checked,
        "expect_equality": expect_equality,
        "violations": violations,
        "injective": injective,
        "ok": not violations and injective,
    }


@dataclass(frozen=True)
class SrkCode:
    """A nonempty set of vectors in a common space, held as their canonical
    indices in ascending order; ``words`` builds the vectors on demand."""

    params: SrkParams
    indices: tuple

    def __post_init__(self):
        idxs = tuple(sorted(map(operator.index, self.indices)))
        if not idxs:
            raise ValueError("a code is a nonempty subset")
        if len(set(idxs)) != len(idxs):
            raise ValueError("duplicate codewords")
        V = self.params.size()
        if idxs[0] < 0 or idxs[-1] >= V:
            raise ValueError(f"codeword index outside [0, {V})")
        object.__setattr__(self, "indices", idxs)

    @classmethod
    def of(cls, params: SrkParams, words) -> "SrkCode":
        """The code of a collection of vectors of the space ``params``."""
        if any(w.params != params for w in words):
            raise ShapeError("vectors from different spaces")
        return cls(params, tuple(w.index() for w in words))

    @property
    def words(self) -> tuple:
        return tuple(vector_from_index(self.params, i) for i in self.indices)

    def __len__(self):
        return len(self.indices)


# Most pairs held at once by min_distance; bounds its pair arrays' memory.
_PAIR_CHUNK = 1 << 16


def _pair_chunks(sizes):
    """Index arrays (i, j) of the pairs i < j of rows in one group, for
    consecutive groups of ``sizes`` rows: group by group, row by row, at
    most _PAIR_CHUNK pairs at a time."""
    sizes = np.asarray(sizes, dtype=np.int64)
    rows = np.arange(sizes.sum(), dtype=np.int64)
    after = np.repeat(np.cumsum(sizes), sizes) - rows - 1  # partners of i
    start = np.cumsum(after) - after  # pairs before row i
    total = int(after.sum())
    for s in range(0, total, _PAIR_CHUNK):
        k = np.arange(s, min(s + _PAIR_CHUNK, total), dtype=np.int64)
        i = np.searchsorted(start, k, side="right") - 1
        yield i, k - start[i] + i + 1


def _index_rows(indices: list, params: SrkParams) -> np.ndarray:
    """The digit rows of vector indices: one ``index_digits`` call where
    every index of the space fits an int64, one ``int_digits`` per index
    where q^L is larger."""
    q, L = params.q, params.total_dim
    if L < 64 and q ** L <= 1 << 63:   # q >= 2, so L >= 64 never fits
        return index_digits(np.array(indices, dtype=np.int64), q, L)
    return np.array([int_digits(i, q, L)[::-1] for i in indices],
                    dtype=digit_dtype(q))


def min_distance(*codes: SrkCode) -> int:
    """Smallest sum-rank distance between two words of one code, over all
    the codes given: the classes of a partition are certified in one call,
    and a code of one word (no pair) adds nothing.

    The differences of the pairs inside each code are taken on one digit
    array read from the codes' indices, one chunk of pairs at a time, and
    each distinct difference of a block shape is ranked once with the
    scalar `rank` (one memo per shape, local to this call: a difference
    has the same rank in every block of its shape); a pair's distance is
    the sum of its blocks' ranks.  The blocks of one shape find their
    distinct differences together, once a chunk: by a count of their keys
    where there are no more keys than pairs, and by one `np.unique` over
    the rows otherwise.  The rank tables of the graph layer are not used,
    since they build the adjacency whose codes this certifies."""
    codes = [c for c in codes if len(c) >= 2]
    if not codes:
        raise ValueError("minimum distance needs a code of at least two "
                         "codewords")
    params = codes[0].params
    if any(c.params != params for c in codes):
        raise ShapeError("codes from different spaces")
    F = params.field
    digits = _index_rows([i for c in codes for i in c.indices], params)
    off = params.block_offsets()
    # per block shape: the digit columns of its blocks and one rank memo
    groups = [(ni, mi, np.array([c for b in blocks
                                 for c in range(off[b], off[b + 1])]), {})
              for (ni, mi), blocks in params.shape_groups()]
    q, best = params.q, params.max_weight
    for i, j in _pair_chunks([len(c) for c in codes]):
        P = len(i)
        diff = F.sub_array(digits[i], digits[j])
        dist = np.zeros(P, dtype=np.int64)
        for ni, mi, cols, memo in groups:
            ln = ni * mi
            size = q ** ln
            block = diff[:, cols].reshape(P, -1, ln)
            if size <= P:   # no more keys than pairs: count them
                keys = digit_index(block, q)
                uniq = np.flatnonzero(np.bincount(keys.ravel(),
                                                  minlength=size))
                diffs = index_digits(uniq, q, ln).tolist()
            else:
                uniq, inv = np.unique(block.reshape(-1, ln), axis=0,
                                      return_inverse=True)
                diffs = uniq.tolist()
            ranks = np.empty(len(diffs), dtype=np.int64)
            for u, row in enumerate(diffs):
                key = tuple(row)
                r = memo.get(key)
                if r is None:
                    r = memo[key] = rank(Matrix(ni, mi, key, F))
                ranks[u] = r
            if size <= P:
                lookup = np.zeros(size, dtype=np.int64)
                lookup[uniq] = ranks
                dist += lookup[keys].sum(axis=1)
            else:
                dist += ranks[inv.ravel()].reshape(P, -1).sum(axis=1)
        best = min(best, int(dist.min()))
        if best == 1:
            return 1
    return best


def code_to_json(code: SrkCode) -> dict:
    p = code.params
    return {
        "q": p.q,
        "p": p.field.p,
        "e": p.field.e,
        "n": list(p.n),
        "m": list(p.m),
        "words": [_split_blocks(p, int_digits(i, p.q, p.total_dim)[::-1])
                  for i in code.indices],
    }


def _word_index(word, params: SrkParams) -> int:
    """Canonical index of one word read from a code file: t blocks, block i
    a list of n_i * m_i integers in [0, q)."""
    shapes, q = params.block_shapes(), params.q
    if not isinstance(word, (list, tuple)) or len(word) != len(shapes):
        raise ValueError(f"word {word!r} does not have {len(shapes)} blocks")
    digits = []
    for ent, (ni, mi) in zip(word, shapes):
        if not isinstance(ent, (list, tuple)) or len(ent) != ni * mi:
            raise ValueError(f"block {ent!r} does not have {ni * mi} entries")
        for x in ent:
            if not (_is_int(x) and 0 <= x < q):
                raise ValueError(f"field entry {x!r} is not an integer "
                                 f"in [0, {q})")
        digits += ent
    return digits_int(digits[::-1], q)


def code_from_json(data: dict) -> SrkCode:
    """The code of a code file (``code_to_json``); ValueError unless it is
    an object of ints q, p, e, lists of ints n, m and a list of words."""
    if not (isinstance(data, dict)
            and set(data) == {"q", "p", "e", "n", "m", "words"}
            and isinstance(data["words"], list)):
        raise ValueError("a code file is an object of q, p, e, n, m and "
                         "a list of words")
    _check_ints(data, ("q", "p", "e"), ("n", "m"))
    fld = field_make(data["p"], data["e"])
    if fld.q != data["q"]:
        raise ValueError("inconsistent q, p, e in code file")
    params = SrkParams(fld, tuple(data["n"]), tuple(data["m"]))
    return SrkCode(params, tuple(_word_index(w, params)
                                 for w in data["words"]))


def save_code(code: SrkCode, path) -> None:
    with open(path, "w") as fh:
        json.dump(code_to_json(code), fh, indent=1, sort_keys=True)
