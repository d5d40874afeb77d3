import json
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srklab.counting import ball_volume, weight_enumerator
from srklab import gf, space
from srklab.gf import BudgetError, Matrix, ShapeError, field_make
from srklab.space import (SrkCode, SrkParams, SrkVector,
                          code_from_json,
                          code_to_json, enumerate_space,
                          f_map, make_params, min_distance, srk_distance, srk_weight, vector_from_digits,
                          vector_from_index, wt_preservation_check)


def _vec(params, *block_rows):
    F = params.field
    return SrkVector(params, tuple(
        Matrix(len(rows), len(rows[0]), tuple(x for r in rows for x in r), F)
        for rows in block_rows))


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(2, (2,), (1,))  # m_i < n_i
    with pytest.raises(ValueError):
        make_params(2, (1, 1), (1,))
    p = make_params(2, (1, 2), (2, 2))
    assert p.t == 2 and p.total_dim == 6 and p.max_weight == 3
    with pytest.raises(TypeError):
        SrkParams(field_make(2), (1.9,), (2,))


def test_a_space_computes_its_size_when_first_asked():
    """|V| = 2^900000000 here: building the space and reading a ball
    volume must not form it, only size() does."""
    p = make_params(2, (30000,), (30000,))
    assert ball_volume(p, 1) == 1 + (2 ** 30000 - 1) ** 2
    assert "_size" not in vars(p)
    small = make_params(2, (1, 2), (2, 2))
    assert small.size() == 64 and vars(small)["_size"] == 64
    assert small == make_params(2, (1, 2), (2, 2))
    assert hash(small) == hash(make_params(2, (1, 2), (2, 2)))


def test_srk_weight_examples():
    p = make_params(2, (2,), (2,))
    assert srk_weight(vector_from_index(p, 0)) == 0
    ident = _vec(p, [[1, 0], [0, 1]])
    assert srk_weight(ident) == 2
    p2 = make_params(2, (2, 1), (2, 2))
    x = _vec(p2, [[1, 1], [1, 1]], [[1, 0]])
    assert srk_weight(x) == 2


def test_srk_distance_examples():
    p = make_params(2, (2,), (2,))
    x = _vec(p, [[1, 0], [0, 1]])
    assert srk_distance(x, x) == 0
    assert srk_distance(x, vector_from_index(p, 0)) == srk_weight(x)


def test_srk_distance_is_metric_exhaustive():
    p = make_params(2, (1, 1), (2, 1))  # 8-element space
    elems = list(enumerate_space(p))
    for x in elems:
        for y in elems:
            d = srk_distance(x, y)
            assert d == srk_distance(y, x)
            assert (d == 0) == (x == y)
            for z in elems:
                assert d <= srk_distance(x, z) + srk_distance(z, y)


# extension fields with mixed block shapes, including equal-shape blocks
EXTENSION_PARAMS = [make_params(4, (1, 2), (3, 2)),
                    make_params(4, (2, 2), (2, 2)),
                    make_params(8, (2, 1), (2, 3)),
                    make_params(9, (1, 1, 2), (1, 2, 2))]


@st.composite
def _extension_triples(draw):
    params = draw(st.sampled_from(EXTENSION_PARAMS))
    digits = st.lists(st.integers(0, params.q - 1),
                      min_size=params.total_dim, max_size=params.total_dim)
    x, y, z = (vector_from_digits(params, draw(digits)) for _ in range(3))
    if draw(st.booleans()):
        y = x
    return x, y, z


@settings(max_examples=150, deadline=None)
@given(_extension_triples())
def test_srk_distance_axioms_over_extension_fields(xyz):
    x, y, z = xyz
    d = srk_distance(x, y)
    assert 0 <= d <= x.params.max_weight
    assert (d == 0) == (x == y)
    assert d == srk_distance(y, x)
    assert d <= srk_distance(x, z) + srk_distance(z, y)
    assert srk_distance(x.sub(z), y.sub(z)) == d

def test_object_enumerators_check_the_enumeration_budget():
    """2^21 vectors are over gf.DEFAULT_ENUM_BUDGET = 2^20."""
    p = make_params(2, (1,) * 21, (1,) * 21)
    for walk in (lambda: next(enumerate_space(p)),
                 lambda: wt_preservation_check(p)):
        with pytest.raises(BudgetError):
            walk()


@pytest.mark.parametrize("q,n,m", [(2, (1, 2), (2, 2)), (3, (1, 1), (2, 1)),
                                   (2, (2, 1), (2, 2))])
def test_sphere_sizes_match_weight_enumerator(q, n, m):
    p = make_params(q, n, m)
    sizes = Counter(srk_weight(x) for x in enumerate_space(p))
    assert (tuple(sizes[w] for w in range(p.max_weight + 1))
            == weight_enumerator(p))


def test_canonical_index_round_trip():
    p = make_params(3, (1, 2), (2, 2))
    for idx in (0, 1, 5, 728):
        assert vector_from_index(p, idx).index() == idx


# GF(4) and GF(257) spaces of mixed block shapes
MIXED_SHAPES = [(4, (1, 2), (3, 2)), (4, (2, 1, 1), (2, 3, 1)),
                (257, (1, 1), (2, 1)), (257, (1,), (3,))]


@pytest.mark.parametrize("q,n,m", MIXED_SHAPES)
def test_canonical_index_round_trip_on_mixed_shapes(q, n, m):
    p = make_params(q, n, m)
    L = p.total_dim
    rng = np.random.default_rng(q + L)
    for idx in [0, 1, q, p.size() - 1] + rng.integers(0, p.size(), 50).tolist():
        x = vector_from_index(p, idx)
        assert x.serialize() == tuple(idx // q ** (L - 1 - j) % q
                                      for j in range(L))
        assert x.index() == idx


def test_f_map_examples():
    p = make_params(2, (1,), (2,))
    x = _vec(p, [[1, 0]])
    img = f_map(x)
    assert img.entries == (1,)  # 1*1 + 0*alpha
    p2 = make_params(2, (1, 1), (2, 2))
    x2 = _vec(p2, [[1, 1]], [[0, 1]])
    img2 = f_map(x2)
    # 1 + alpha encodes as 3, alpha as 2 in base-2 digit encoding
    assert img2.entries == (3, 2)
    assert f_map(vector_from_index(p2, 0)).entries == (0, 0)


def _basis_expansion(x):
    """f(x) by field arithmetic: row (a_0, a_1, ...) of a block maps to
    sum_j a_j alpha^j, alpha^j having the base-q coefficients of q^j,
    summed coefficient by coefficient with F.add and F.mul; short rows
    are zero-padded."""
    F, q, m = x.params.field, x.params.q, max(x.params.m)
    basis = [[q ** j // q ** i % q for i in range(m)] for j in range(m)]
    out = []
    for blk in x.blocks:
        for r in range(blk.rows):
            acc = [0] * m
            for j in range(blk.cols):
                acc = [F.add(a, F.mul(blk[r, j], d))
                       for a, d in zip(acc, basis[j])]
            out.append(sum(a * q ** i for i, a in enumerate(acc)))
    return tuple(out)


@pytest.mark.parametrize("q,n,m", [
    (2, (1, 2), (2, 3)), (2, (2, 1, 1), (2, 1, 3)), (3, (1, 1), (1, 2)),
    (3, (2,), (2,)), (4, (1, 1), (2, 1)), (9, (1, 1), (1, 2)),
])
def test_f_map_is_the_polynomial_basis_expansion(q, n, m):
    p = make_params(q, n, m)
    V = p.size()
    rng = np.random.default_rng(V)
    idxs = ({0, V - 1} | set(rng.integers(0, V, 200).tolist())
            if V > 300 else range(V))
    for idx in idxs:
        x = vector_from_index(p, idx)
        img = f_map(x)
        assert (img.base_field, img.ext_degree) == (p.field, max(m))
        assert img.entries == _basis_expansion(x)


def test_f_map_padding_for_unequal_m():
    p = make_params(2, (1, 1), (1, 2))
    x = _vec(p, [[1]], [[0, 1]])
    img = f_map(x)
    assert len(img.entries) == 2
    assert img.entries[0] == 1  # short block embedded as constants
    assert img.entries[1] == 2  # alpha


def test_wt_preservation_equality_case():
    rep = wt_preservation_check(make_params(2, (1, 1), (2, 2)))
    assert rep["ok"] and rep["expect_equality"] and rep["checked"] == 16


def test_wt_preservation_inequality_case():
    p = make_params(2, (2,), (2,))
    rep = wt_preservation_check(p)
    assert rep["ok"] and not rep["expect_equality"]
    # a rank-1 matrix whose image still has full Hamming weight
    x = _vec(p, [[1, 0], [1, 0]])
    assert srk_weight(x) == 1
    assert f_map(x).hamming_weight() == 2


def test_min_distance_examples():
    p = make_params(2, (1, 1, 1), (1, 1, 1))
    elems = {v.serialize(): v for v in enumerate_space(p)}
    parity = SrkCode.of(p, tuple(elems[s] for s in
                                 [(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)]))
    assert min_distance(parity) == 2
    whole = SrkCode.of(p, tuple(elems.values()))
    assert min_distance(whole) == 1
    x = elems[(1, 1, 0)]
    two = SrkCode.of(p, (elems[(0, 0, 0)], x))
    assert min_distance(two) == srk_weight(x)
    with pytest.raises(ValueError):
        min_distance(SrkCode.of(p, (x,)))


# -- min_distance against a pairwise oracle ----------------------------------

def _pairwise_min_distance(code):
    """Oracle: the smallest srk_distance over every pair of words."""
    return min(srk_distance(x, y) for x, y in combinations(code.words, 2))


def _distinct_block_differences(code):
    """Distinct block differences over the pairs of a code, counted once
    per block shape: a difference has one rank in every block of its
    shape."""
    return sum(len({x.blocks[b].sub(y.blocks[b]).entries
                    for x, y in combinations(code.words, 2) for b in blocks})
               for _, blocks in code.params.shape_groups())


def _random_code(params, size, seed):
    """Seeded random code; most blocks are drawn from a pool of three, so
    block differences repeat across pairs."""
    rng = np.random.default_rng(seed)
    shapes = params.block_shapes()
    pools = [rng.integers(0, params.q, size=(3, ni * mi)) for ni, mi in shapes]
    words = {}
    while len(words) < size:
        digits = []
        for pool in pools:
            row = (pool[rng.integers(3)] if rng.random() < 0.7
                   else rng.integers(0, params.q, size=pool.shape[1]))
            digits.extend(row.tolist())
        words.setdefault(tuple(digits), vector_from_digits(params, digits))
    return SrkCode.of(params, tuple(words.values()))


MIN_DISTANCE_PARAMS = [make_params(2, (2, 1), (2, 3)),
                       make_params(2, (1, 1, 1, 1), (1, 1, 1, 1)),
                       make_params(3, (1, 2), (2, 2)),
                       *EXTENSION_PARAMS]


@pytest.mark.parametrize("params", MIN_DISTANCE_PARAMS,
                         ids=lambda p: p.describe())
@pytest.mark.parametrize("seed", range(4))
def test_min_distance_equals_pairwise_oracle(params, seed):
    size = min(2 + 9 * seed, params.size())
    code = _random_code(params, size, seed)
    assert min_distance(code) == _pairwise_min_distance(code)


def test_min_distance_on_a_field_without_tables():
    params = make_params(4096, (1, 2), (1, 2))
    assert params.field._mul is None
    for seed in range(3):
        code = _random_code(params, 12, seed)
        assert min_distance(code) == _pairwise_min_distance(code)


def test_min_distance_without_an_int64_block_key():
    # q^(nm) >= 2^63: block differences are compared as rows
    params = make_params(2, (1, 8), (1, 8))
    code = _random_code(params, 10, 5)
    assert min_distance(code) == _pairwise_min_distance(code)
    # in an 8x9 GF(2) block, a difference supported on the first eight
    # entries would wrap to the zero difference's key modulo 2^64; the
    # first pair has the zero difference there, so a wrapped key would
    # give the pairs with that difference rank 0 and distance 0
    params = make_params(2, (8, 1), (9, 1))
    zero = [0] * 73
    code = SrkCode.of(params, (vector_from_digits(params, zero),
                               vector_from_digits(params, zero[:-1] + [1]),
                               vector_from_digits(params, [1] * 8 + zero[8:])))
    assert min_distance(code) == _pairwise_min_distance(code) == 1


@pytest.mark.parametrize("q,n,m,vectorised", [
    (2, (7,), (9,), True),     # 2^63 words: the largest int64 codec
    (2, (8,), (8,), False),    # 2^64
    (3, (3, 2), (10, 2), True),   # 3^34
    (3, (4,), (10,), False),   # 3^40 > 2^63 > 3^39
    (5, (1, 2), (2, 2), True)])
def test_min_distance_decodes_indices_on_both_sides_of_int64(
        monkeypatch, q, n, m, vectorised):
    """One ``index_digits`` call where q^L fits an int64, one scalar
    ``int_digits`` per index otherwise; both give the rows whose digits
    read back (``digits_int``) as the indices, and min_distance equals
    the pairwise oracle on either path."""
    params = make_params(q, n, m)
    L, size = params.total_dim, params.size()
    indices = [0, 1, size // 5, size // 3 + 1, size - 2, size - 1]
    calls = []
    real = space.index_digits
    monkeypatch.setattr(space, "index_digits", lambda idx, *args: (
        calls.append(args), real(idx, *args))[1])
    rows = space._index_rows(indices, params)
    assert bool(calls) == vectorised
    assert rows.shape == (len(indices), L) and rows.dtype == np.uint8
    assert [gf.digits_int(r[::-1], q) for r in rows.tolist()] == indices
    code = SrkCode(params, tuple(indices))
    assert min_distance(code) == _pairwise_min_distance(code)


def test_min_distance_ranks_each_distinct_block_difference_once(monkeypatch):
    calls = []

    def counted(M):
        calls.append(M)
        return rank(M)

    rank = space.rank
    monkeypatch.setattr(space, "rank", counted)
    for params in MIN_DISTANCE_PARAMS:
        # distance >= 2, so no chunk stops early at distance 1
        kept = []
        for w in _random_code(params, min(40, params.size()), 11).words:
            if all(srk_distance(w, v) >= 2 for v in kept):
                kept.append(w)
        code = SrkCode.of(params, tuple(kept))
        expected = _distinct_block_differences(code)
        d = _pairwise_min_distance(code)
        assert len(code) > 7 and d >= 2
        for chunk in (space._PAIR_CHUNK, 7):
            monkeypatch.setattr(space, "_PAIR_CHUNK", chunk)
            calls.clear()
            assert min_distance(code) == d
            assert len(calls) == expected


def test_min_distance_pair_chunks_cover_every_pair_once(monkeypatch):
    """Rows come in consecutive groups (the codes of one call): every pair
    inside a group appears once, in order, and no pair across groups."""
    monkeypatch.setattr(space, "_PAIR_CHUNK", 4)
    for sizes in ([2], [3], [7], [10], [1, 3, 4, 1], [5, 5], [1, 1], [3, 7]):
        starts = np.cumsum([0] + sizes).tolist()
        want = [(o + a, o + b) for o, n in zip(starts, sizes)
                for a, b in combinations(range(n), 2)]
        pairs = [(int(i), int(j)) for I, J in space._pair_chunks(sizes)
                 for i, j in zip(I, J)]
        assert pairs == want
        assert all(len(I) <= 4 for I, _ in space._pair_chunks(sizes))


@pytest.mark.parametrize("params", MIN_DISTANCE_PARAMS,
                         ids=lambda p: p.describe())
def test_min_distance_of_several_codes_equals_pairwise_oracle(monkeypatch,
                                                              params):
    codes = [_random_code(params, min(size, params.size()), seed)
             for seed, size in enumerate((2, 1, 12, 5))]
    want = min(_pairwise_min_distance(c) for c in codes if len(c) >= 2)
    for chunk in (space._PAIR_CHUNK, 3):
        monkeypatch.setattr(space, "_PAIR_CHUNK", chunk)
        assert min_distance(*codes) == want


def test_min_distance_ignores_a_close_pair_across_two_codes():
    p = make_params(2, (1, 1, 1), (1, 1, 1))
    elems = {v.serialize(): v for v in enumerate_space(p)}
    a = SrkCode.of(p, (elems[(0, 0, 0)], elems[(1, 1, 1)]))
    b = SrkCode.of(p, (elems[(0, 0, 1)], elems[(1, 1, 0)]))
    # 000 and 001 are at distance 1, but lie in different codes
    assert srk_distance(elems[(0, 0, 0)], elems[(0, 0, 1)]) == 1
    assert min_distance(a, b) == min_distance(a) == min_distance(b) == 3
    assert min_distance(a, SrkCode.of(p, (elems[(0, 1, 1)],))) == 3


def test_min_distance_needs_a_code_of_two_words():
    p = make_params(2, (1, 1), (2, 1))
    one, other = SrkCode(p, (0,)), SrkCode(p, (5,))
    for codes in ((), (one,), (one, other)):
        with pytest.raises(ValueError):
            min_distance(*codes)
    foreign = SrkCode(make_params(2, (1, 1), (1, 2)), (0, 1))
    with pytest.raises(ShapeError):
        min_distance(SrkCode(p, (0, 1)), foreign)


def test_min_distance_stops_at_one(monkeypatch):
    p = make_params(5, (1, 1, 1), (1, 1, 1))
    whole = SrkCode.of(p, tuple(enumerate_space(p)))
    # all five field elements are block differences of the whole space ...
    assert _distinct_block_differences(whole) == 5
    calls = []
    rank = space.rank
    monkeypatch.setattr(space, "rank", lambda M: calls.append(M) or rank(M))
    monkeypatch.setattr(space, "_PAIR_CHUNK", 2)
    assert min_distance(whole) == 1
    # ... but the first chunk, (000, 001) and (000, 002), already has
    # distance 1: its blocks, all of one shape, differ by only three
    # elements, each ranked once, and no later chunk is ranked
    assert len(calls) == 3


def test_min_distance_rejects_a_word_from_another_space():
    # a code holds indices, so the foreign word is refused when the code
    # is built, before min_distance can see it
    p = make_params(2, (1, 1), (2, 1))
    x = vector_from_index(p, 1)
    for other in (make_params(2, (1, 1), (1, 2)), make_params(3, (1, 1), (2, 1))):
        with pytest.raises(ShapeError):
            SrkCode.of(p, (vector_from_index(p, 0), x,
                           vector_from_index(other, 2)))


def test_code_json_round_trip():
    p = make_params(2, (1, 2), (2, 2))
    words = tuple(vector_from_index(p, i) for i in (0, 7, 63, 21))
    code = SrkCode.of(p, words)
    data = code_to_json(code)
    text = json.dumps(data)
    back = code_from_json(json.loads(text))
    assert back == code
    assert [w.index() for w in back.words] == sorted(w.index() for w in words)


def test_code_json_rejects_entries_outside_the_field():
    data = {"q": 2, "p": 2, "e": 1, "n": [1], "m": [2], "words": [[[7, 3]]]}
    with pytest.raises(ValueError):
        code_from_json(data)
    for bad in (1.0, "1", True, -1):
        data["words"] = [[[0, bad]]]
        with pytest.raises(ValueError):
            code_from_json(data)
    data["words"] = [[[0, 1]]]
    assert code_from_json(data).words[0].serialize() == (0, 1)


_CODE_FILE = {"q": 2, "p": 2, "e": 1, "n": [1], "m": [2],
              "words": [[[0, 1]]]}


@pytest.mark.parametrize("bad", [
    {**_CODE_FILE, **change} for change in (
        {"n": [1.9]}, {"n": [True]}, {"n": "1"}, {"m": [2.0]}, {"q": 2.0},
        {"p": 2.0}, {"e": True}, {"e": 1.0}, {"q": 4}, {"words": 5},
        {"name": "c"})] + [
    {k: v for k, v in _CODE_FILE.items() if k != key} for key in _CODE_FILE
] + [[_CODE_FILE]] + [
    # fields too large: refused before p ** e or a primality test
    {**_CODE_FILE, **change} for change in (
        {"e": 10 ** 9}, {"e": 100000}, {"p": 10 ** 18 + 3},
        {"p": 10 ** 18 + 3, "q": 10 ** 18 + 3})])
def test_code_json_refuses_a_malformed_header(bad):
    """Integers are ints (bools are not), n and m lists of them, and the
    keys are exactly those ``code_to_json`` writes; a cached GF(2) does
    not let p = 2.0 through."""
    field_make(2, 1)
    assert code_from_json(_CODE_FILE).indices == (1,)
    with pytest.raises(ValueError):
        code_from_json(bad)


def test_code_json_rejects_a_wrong_block_or_entry_count():
    data = {"q": 2, "p": 2, "e": 1, "n": [1], "m": [2],
            "words": [[[0, 1], [1, 1, 1]]]}   # a second block in a 1-block space
    with pytest.raises(ValueError):
        code_from_json(data)
    for bad in ([], [[0]], [[0, 1, 1]], [0, 1], [[[0], [1]]], 5):
        data["words"] = [bad]
        with pytest.raises(ValueError):
            code_from_json(data)
    data.update(n=[1, 1], m=[2, 1], words=[[[0, 1]], [[1, 0], [1]]])
    with pytest.raises(ValueError):
        code_from_json(data)
    data["words"] = [[[0, 1], [1]], [[1, 0], [0]]]
    assert code_from_json(data).indices == (3, 4)


def test_code_json_format_is_blocks_of_entries_in_canonical_order():
    code = SrkCode(make_params(2, (1, 2), (2, 2)), (63, 7, 0, 21))
    assert code_to_json(code) == {
        "q": 2, "p": 2, "e": 1, "n": [1, 2], "m": [2, 2],
        "words": [[[0, 0], [0, 0, 0, 0]], [[0, 0], [0, 1, 1, 1]],
                  [[0, 1], [0, 1, 0, 1]], [[1, 1], [1, 1, 1, 1]]]}


def test_code_rejects_empty_duplicate_and_out_of_range_indices():
    p = make_params(3, (1, 1), (2, 1))   # 27 vectors
    assert SrkCode(p, (26, 0, 5)).indices == (0, 5, 26)
    assert SrkCode(p, np.array([4, 2])).indices == (2, 4)
    for bad in ((), (1, 5, 1), (-1, 3), (27,), (0, 100)):
        with pytest.raises(ValueError):
            SrkCode(p, bad)
    with pytest.raises(TypeError):
        SrkCode(p, (1.0, 2))
    foreign = vector_from_index(make_params(3, (1, 1), (1, 2)), 2)
    with pytest.raises(ShapeError):
        SrkCode.of(p, (vector_from_index(p, 1), foreign))
    with pytest.raises(ValueError):
        SrkCode.of(p, ())
    with pytest.raises(ValueError):
        SrkCode.of(p, (vector_from_index(p, 4), vector_from_index(p, 4)))


@pytest.mark.parametrize("q,n,m", MIXED_SHAPES)
def test_code_words_round_trip_on_mixed_shapes(q, n, m):
    p = make_params(q, n, m)
    rng = np.random.default_rng(q + p.total_dim)
    idxs = sorted({0, p.size() - 1, *rng.integers(0, p.size(), 40).tolist()})
    words = [vector_from_index(p, i) for i in idxs]
    code = SrkCode.of(p, words[::-1])
    assert code.indices == tuple(idxs)
    assert code.words == tuple(words)
    assert SrkCode.of(p, code.words) == code
    assert code_from_json(json.loads(json.dumps(code_to_json(code)))) == code
