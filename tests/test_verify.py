"""The batched Marsaglia suite against the pair-by-pair scalar loop it
replaced: same seeded pairs, same per-pair ranks, same count and the
same first counterexample."""

import numpy as np
import pytest

from srklab import verify
from srklab.gf import (Matrix, col_space_intersection_dim, field_make, rank,
                       row_space_intersection_dim)

CHUNK = verify.MARSAGLIA_CHUNK
EXHAUSTIVE = 16 * 16  # the 2x2 GF(2) pairs checked before the random ones


def _scalar_pairs(random_pairs, seed):
    """The random pairs as the scalar loop drew them: one 16-entry draw
    for X, then one for Y."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(random_pairs):
        xe = tuple(int(v) for v in rng.integers(0, 3, size=16))
        ye = tuple(int(v) for v in rng.integers(0, 3, size=16))
        out.append((xe, ye))
    return out


def _recorded_pairs(monkeypatch, random_pairs, seed):
    """Run the suite and return its report and the 4x4 pairs it built."""
    built = []
    original = verify.Matrix

    def record(rows, cols, entries, field):
        if rows == 4:
            built.append(entries)
        return original(rows, cols, entries, field)

    monkeypatch.setattr(verify, "Matrix", record)
    rep = verify.suite_marsaglia(random_pairs=random_pairs, seed=seed)
    monkeypatch.setattr(verify, "Matrix", original)
    return rep, list(zip(built[0::2], built[1::2]))


@pytest.mark.parametrize("random_pairs", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1,
                                          2500])
def test_chunked_draws_equal_the_scalar_draws(monkeypatch, random_pairs):
    for seed in (0, 7, 12):
        rep, pairs = _recorded_pairs(monkeypatch, random_pairs, seed)
        assert pairs == _scalar_pairs(random_pairs, seed)
        assert rep["ok"] and rep["checked"] == EXHAUSTIVE + random_pairs


def test_batched_ranks_equal_scalar_ranks():
    F3 = field_make(3)
    pairs = _scalar_pairs(2048, seed=5)
    draw = np.array(pairs).reshape(len(pairs), 2, 4, 4)
    got = np.stack(verify._marsaglia_ranks(draw[:, 0], draw[:, 1], F3),
                   axis=1)
    assert got.dtype == np.int64
    want = []
    for xe, ye in pairs:
        X, Y = Matrix(4, 4, xe, F3), Matrix(4, 4, ye, F3)
        want.append([rank(X), rank(Y), rank(X.sub(Y)),
                     col_space_intersection_dim(X, Y),
                     row_space_intersection_dim(X, Y)])
    assert got.tolist() == want
    # the sample is not all full-rank pairs
    assert len({tuple(w) for w in want}) > 5


def test_counterexample_is_the_first_failing_pair_in_draw_order(monkeypatch):
    """A rank_stack that overstates rk [X | Y] for pair i of the second
    chunk makes exactly that pair fail."""
    i = 37
    calls = []
    original = verify.rank_stack

    def faulty(A, F):
        ranks = original(A, F)
        if A.shape[1:] == (4, 8):
            calls.append(A.shape[0])
            if len(calls) == 3:  # [X | Y] of the second chunk
                ranks[i] += 10
        return ranks

    monkeypatch.setattr(verify, "rank_stack", faulty)
    seed = 3
    rep = verify.suite_marsaglia(random_pairs=3 * CHUNK, seed=seed)
    assert not rep["ok"]
    assert rep["checked"] == EXHAUSTIVE + CHUNK + i + 1
    xe, ye = _scalar_pairs(CHUNK + i + 1, seed)[-1]
    assert rep["counterexample"] == {"X": xe, "Y": ye}
    assert len(calls) == 4  # the third chunk was never ranked

