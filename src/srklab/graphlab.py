"""The sum-rank Cayley power graph as an implicit graph: exact local
statistics (D, T, Delta), exact independence number, and greedy
partitions of the space into codes.

Vertices are identified with canonical vector indices.  All heavy loops
run over numpy digit tables with per-block rank lookup tables, so no
explicit edge list is ever built.  Three caches hold every build: the
rank table of each block shape (``_block_rank_table``), one record per
space (``_tables``, a ``SpaceTables``) and one adjacency record per spec
(``_adjacency``: the neighbour bitmask ints and the lex first-fit
partition), which the MIS solver and the greedy partition read.  One
first-fit routine (``_greedy_classes``) colours both partition orders and
every candidate set of the exact search, for its bounds and branch order.

- The rank table of a block shape (``gf.rank_table``) ranks the kernels
  of all its matrices, ANDs of orthogonality-table rows made in chunks
  of at most ``gf._KERNEL_WORDS`` words.
- Field addition and subtraction act on the base-p coefficients of the
  digits (XOR for p = 2), so no q x q table is built and the graph layer
  works for every field up to GF(2^16).
- Digit rows and vertex indices convert through the codec of ``gf``
  (``digit_index``/``index_digits``, ``int_digits``), the one place that
  knows the canonical order.
- ``ball_digits`` returns the nonzero ball in canonical order, read from
  the space's record: the ball at the largest radius asked so far, built
  block by block with numpy index arithmetic, with each row's weight; the
  ball of a smaller radius is its rows of weight <= k.
- ``_adjacency`` translates the nonzero ball B* by every vertex, or the
  co-ball (the vectors of weight > k) where that is smaller, and then
  takes each row's complement.
- ``exact_T`` counts neighbours for one ball vector per rank-profile orbit
  of the maps fixing 0, the orbits the MIS search branches on; a second
  member of each orbit is counted as a check.  One labelling of the ball
  and one distance pass per orbit member give T for every radius up to
  the ball's.  ``verify_cayley`` reads the weight histogram of the whole
  space from the same record.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .gf import (BudgetError, digit_dtype, digit_index, digit_rows,
                 field_make, index_digits, int_digits, rank_table)
from .space import SrkCode, SrkParams, min_distance
from . import counting, scheme

DEFAULT_MAX_VERTICES = 4096
DEFAULT_MAX_BALL = 20000
# Difference rows weighed, or (vertex, ball row) translate indices formed,
# at once when building weight or adjacency rows; larger chunks buy
# little speed for much more memory.
_ROW_CHUNK = 1 << 15
# Full enumeration of a single block's matrix space; blocks beyond this
# size make even ball-only statistics infeasible here.
MAX_BLOCK_SPACE = 1 << 20


@dataclass(frozen=True)
class PowerGraphSpec:
    """Gamma(F_q^{n x m})^k: adjacency(x, y) iff 1 <= srk(x - y) <= k."""

    params: SrkParams
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("power k must be at least 1")


@dataclass(frozen=True)
class GraphStats:
    num_vertices: int
    D: int
    T: int
    Delta: int
    eps_star: float

    def to_json(self) -> dict:
        eps = "inf" if math.isinf(self.eps_star) else self.eps_star
        return {"num_vertices": self.num_vertices, "D": self.D, "T": self.T,
                "Delta": self.Delta, "eps_star": eps}


@lru_cache(maxsize=None)
def _block_rank_table(ni: int, mi: int, p: int, e: int):
    """ranks[idx] for every block matrix, idx = canonical digit index,
    read-only: every record of the process shares it."""
    F = field_make(p, e)
    size = F.q ** (ni * mi)
    if size > MAX_BLOCK_SPACE:
        raise BudgetError(f"block space of size {size} too large to tabulate")
    ranks = rank_table(ni, mi, F)
    ranks.flags.writeable = False
    return ranks


class SpaceTables:
    """The one record of a parameter set.  Built at once: the rank table of
    each block shape (field addition and subtraction need no table, since
    both act on the base-p coefficients of the field indices one by one).
    Built when first asked, each kept until ``_tables.cache_clear()``:

    - the nonzero ball at the largest radius asked so far (``radius``):
      its digit rows in canonical order and the weight of each, both
      read-only, replaced only when a larger radius is asked; the rows of
      weight <= k (``ball``) and T_k (``triangles``) for every k <= radius;
    - the weight of every vertex (``weights``), which gives the co-ball
      (``coball``) and the weight layers of the greedy partition;
    - the weight histogram of the whole space (``histogram``)."""

    def __init__(self, params: SrkParams):
        F = params.field
        self.params = params
        self.q = F.q
        self.dtype = digit_dtype(F.q)
        off = params.block_offsets()
        self.blocks = [(off[i], ni * mi, _block_rank_table(ni, mi, F.p, F.e))
                       for i, (ni, mi) in enumerate(params.block_shapes())]
        self.radius = -1   # no ball yet

    def block_ranks(self, digits: np.ndarray) -> np.ndarray:
        """(N, t) ranks of the blocks of each row of a (N, L) digit array."""
        return np.stack([ranks[digit_index(digits[:, off:off + ln], self.q)]
                         for off, ln, ranks in self.blocks], axis=1)

    def weights_of(self, digits: np.ndarray) -> np.ndarray:
        """Sum-rank weights of row vectors of a (N, L) digit array."""
        return self.block_ranks(digits).sum(axis=1, dtype=np.int64)

    def ball(self, k: int) -> np.ndarray:
        """The nonzero ball of radius k: the rows of weight <= k of the
        space's ball, read-only; a count other than the nonzero ball
        volume raises ArithmeticError.  A report that asks each space's
        largest radius first enumerates one ball per space."""
        if k > self.radius:
            self.rows, self.weight = _enumerate_ball(self.params, k)
            self.radius, self._within = k, {k: self.rows}
            self._triangles = None
        rows = self._within.get(k)
        if rows is None:
            rows = self.rows[self.weight <= k]
            if len(rows) != (vol := counting.ball_volume(self.params, k) - 1):
                raise ArithmeticError(f"{len(rows)} ball rows have weight "
                                      f"<= {k}, the volume is {vol + 1}")
            rows.flags.writeable = False
            self._within[k] = rows
        return rows

    def triangles(self, k: int) -> int:
        """T_k, read from T_0..T_radius, which are counted once a ball.

        The maps fixing 0 (``_profile_classes``) preserve the metric and
        each ball, and are transitive on each orbit, so the count c_k(X)
        of X's neighbours in B*_k is constant on an orbit and T_k = 1/2 *
        sum over the orbits of weight <= k of |orbit| * c_k(rep).  One
        distance pass from X over the rows gives c_k(X) for every k at
        once, as the rows of weight <= k at distance <= k.  As a
        certificate, c_k is also computed on a second member of each
        orbit that has one; a disagreement or an odd sum, at any k,
        raises ArithmeticError."""
        self.ball(k)
        if self._triangles is not None:
            return self._triangles[k]
        rows, weight = self.rows, self.weight
        W = self.radius + 1
        sub = self.params.field.sub_array
        slot = weight * W

        def close(i: int) -> list:
            """c_k(rows[i]) for k = 0..radius."""
            dist = self.weights_of(sub(rows, rows[i]))
            near = dist < W
            hist = np.bincount(slot[near] + dist[near], minlength=W * W)
            counts = hist.reshape(W, W).cumsum(axis=0).cumsum(axis=1)
            return (np.diagonal(counts) - 1).tolist()   # not rows[i] itself

        label = _profile_classes(self.params, rows)
        _, first, size = np.unique(label, return_index=True,
                                   return_counts=True)
        last = len(label) - 1 - np.unique(label[::-1], return_index=True)[1]
        total = [0] * W
        for i, j, n in zip(first.tolist(), last.tolist(), size.tolist()):
            w = int(weight[i])
            c = close(i)
            if j != i and (cj := close(j))[w:] != c[w:]:
                raise ArithmeticError(f"rows {i} and {j} of one orbit have "
                                      f"{c} and {cj} neighbours in the balls")
            for r in range(w, W):
                total[r] += n * c[r]
        if any(t % 2 for t in total):
            raise ArithmeticError(f"odd neighbour sum over a ball: {total}")
        self._triangles = [t // 2 for t in total]
        return self._triangles[k]

    @cached_property
    def weights(self) -> np.ndarray:
        """The weight of every vertex, by index, read-only (the caller
        checks the vertex budget)."""
        weight = self.weights_of(digit_rows(self.q, self.params.total_dim))
        weight.flags.writeable = False
        return weight

    def coball(self, k: int) -> np.ndarray:
        """The digit rows of the co-ball of radius k, the vectors of
        weight > k, in canonical order; a count other than |V| minus the
        ball volume raises ArithmeticError."""
        idx = np.flatnonzero(self.weights > k)
        vol = counting.ball_volume(self.params, k)
        if len(idx) != self.params.size() - vol:
            raise ArithmeticError(f"{len(idx)} vectors have weight > {k}, "
                                  f"the ball volume is {vol}")
        return index_digits(idx, self.q, self.params.total_dim)

    @cached_property
    def histogram(self) -> np.ndarray:
        """hist[v, w] = #{u : srk(u - v) = w} over the whole space,
        read-only: one pass over the distance path serves the degree sweep
        of every k (the caller checks the vertex budget).  A row that does
        not count |V| vertices raises ArithmeticError."""
        params = self.params
        digits = digit_rows(self.q, params.total_dim)
        V = len(digits)
        W = params.max_weight + 1
        parts = []
        for w in _weight_rows(params, digits):
            slot = w + W * np.arange(len(w))[:, None]
            parts.append(np.bincount(slot.ravel(), minlength=len(w) * W)
                         .reshape(len(w), W))
        hist = np.concatenate(parts)
        if (hist.sum(axis=1) != V).any():
            raise ArithmeticError(f"a weight row does not count {V} vertices")
        hist.flags.writeable = False
        return hist


@lru_cache(maxsize=32)
def _tables(params: SrkParams) -> SpaceTables:
    """The record of a space; it holds all 26 spaces of the default sweep,
    so the verify suites that walk the sweep one after the other read the
    balls the first one built.  ``_tables.cache_clear()`` drops every
    per-space build."""
    return SpaceTables(params)


def ball_digits(spec: PowerGraphSpec,
                max_ball: int = DEFAULT_MAX_BALL) -> np.ndarray:
    """B*, the digit rows of every nonzero vector with srk weight <= k in
    canonical order; BudgetError when the ball of radius k has more than
    max_ball vectors.  The rows are read-only and shared: the space's
    record (``SpaceTables.ball``) serves every call the budget admits."""
    vol = counting.ball_volume(spec.params, spec.k)
    if vol > max_ball:
        raise BudgetError(f"ball volume {vol} exceeds budget {max_ball}")
    return _tables(spec.params).ball(spec.k)


def _enumerate_ball(params: SrkParams, radius: int):
    """(rows, weight) of the nonzero ball of ``radius``, in canonical
    order; a row count other than the ball volume raises
    ArithmeticError."""
    tab = _tables(params)
    # Rows as per-block matrix indices, one block at a time: each partial
    # row is followed by every block matrix of rank <= the weight it has
    # left, in ascending index order, which keeps the rows in canonical
    # order.
    left = np.array([radius], dtype=np.int64)
    picks = []
    for off, ln, ranks in tab.blocks:
        allowed = [np.flatnonzero(ranks <= r) for r in range(radius + 1)]
        start = np.cumsum([0] + [len(a) for a in allowed])
        counts = np.diff(start)[left]
        parent = np.repeat(np.arange(len(left)), counts)
        pos = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts,
                                                  counts)
        idx = np.concatenate(allowed)[start[left[parent]] + pos]
        picks = [pick[parent] for pick in picks] + [idx]
        left = left[parent] - ranks[idx]
    rows = np.concatenate([index_digits(idx, tab.q, ln)
                           for (off, ln, ranks), idx in zip(tab.blocks, picks)],
                          axis=1)
    vol = counting.ball_volume(params, radius)
    if rows.shape[0] != vol:
        raise ArithmeticError(
            f"ball enumeration gives {rows.shape[0]} vectors, volume is {vol}")
    # the zero vector is the first row in canonical order
    rows, weight = rows[1:], radius - left[1:]
    rows.flags.writeable = weight.flags.writeable = False
    return rows, weight


def exact_T(spec: PowerGraphSpec, max_ball: int = DEFAULT_MAX_BALL) -> int:
    """Edges inside the neighborhood of 0: unordered pairs {X, Y} of
    distinct nonzero ball elements with srk(X - Y) <= k.  Valid for every
    vertex by transitivity.  Read from the space's record, which counts T
    for every radius up to its ball's (``SpaceTables.triangles``); the
    budget is checked against the ball of radius k."""
    ball_digits(spec, max_ball)
    return _tables(spec.params).triangles(spec.k)


def graph_stats(spec: PowerGraphSpec,
                max_ball: int = DEFAULT_MAX_BALL) -> GraphStats:
    params, k = spec.params, spec.k
    V = params.size()
    D = counting.degree_D(params, k)
    T = exact_T(spec, max_ball)
    if (spectral := scheme.spectral_T(params, k)) != T:
        raise ArithmeticError(f"ball count T = {T} differs from the "
                              f"spectral T = {spectral}")
    delta3 = T * V
    if delta3 % 3 != 0:
        raise ArithmeticError("T*|V| not divisible by 3; transitivity broken")
    Delta = delta3 // 3
    eps = math.inf if T == 0 else counting.epsilon_star(D, T)
    return GraphStats(V, D, T, Delta, eps)


def adjacency_masks(spec: PowerGraphSpec,
                    max_vertices: int = DEFAULT_MAX_VERTICES) -> tuple:
    """Per-vertex neighbour bitmasks over the whole (budgeted) space: the
    masks of the spec's adjacency record (``_adjacency``), its one copy of
    the graph, built once whatever budget admitted it; BudgetError when
    |V| exceeds max_vertices."""
    if (V := spec.params.size()) > max_vertices:
        raise BudgetError(f"|V| = {V} exceeds vertex budget {max_vertices}")
    return _adjacency(spec).masks


class _Adjacency(NamedTuple):
    """The adjacency of one spec: ``masks[v]`` is the bitmask int of v's
    neighbours (bit u is set iff u is a neighbour of v) and ``lex`` holds
    the class bitmasks of the lex first-fit partition."""

    masks: tuple
    lex: tuple


def _translates(params: SrkParams, rows: np.ndarray):
    """Indices of the translates v + b of the rows b of ``rows`` (the
    nonzero ball or the co-ball, R), a chunk of vertices at a time: yields
    (start, nbr) with nbr[i, j] the index of (start + i) + rows[j].  Split
    each vertex index at digit h as v = v_hi q^h + v_lo; then
    index(v + b) = high[v_hi, b] + low[v_lo, b], where ``low`` (q^h, |R|)
    indexes the sums of the low prefixes and the rows' last h digits, and
    ``high`` indexes those of the chunk's high prefixes and the rows'
    first L - h digits, times q^h.  h starts at L // 2 and drops until
    q^h |R| <= ``_ROW_CHUNK``, and a chunk is a run of whole high
    prefixes, so no array holds more than max(``_ROW_CHUNK``, |R|)
    (vertex, row) pairs."""
    q, L = params.q, params.total_dim
    D = len(rows)
    add = params.field.add_array
    h = L // 2
    while h and q ** h * D > _ROW_CHUNK:
        h -= 1
    split, lo = L - h, q ** h

    def table(first: int, stop: int, cols: slice) -> np.ndarray:
        """Indices of the prefixes first..stop-1 plus each row's digits
        in ``cols``: a (stop - first, |R|) array."""
        width = cols.stop - cols.start
        prefixes = index_digits(np.arange(first, stop), q, width)
        return digit_index(add(prefixes[:, None, :], rows[None, :, cols]), q)

    low = table(0, lo, slice(split, L))
    step = max(1, _ROW_CHUNK // (lo * D))   # high prefixes a chunk
    top = q ** split
    for hi in range(0, top, step):
        high = table(hi, min(hi + step, top), slice(0, split)) * lo
        yield hi * lo, (high[:, None, :] + low).reshape(-1, D)


@lru_cache(maxsize=1)
def _adjacency(spec: PowerGraphSpec) -> _Adjacency:
    """The latest spec's adjacency record, so the greedy partition, its
    lex classes and the MIS share one build; callers check the vertex
    budget first (``adjacency_masks``).  The graph is a Cayley graph, so
    the neighbours of v are v + B*, B* the nonzero ball of radius k.  A
    dense graph (2|B*| > |V| - 1) translates the co-ball C instead, the
    nonzero vectors of weight > k, and takes each row's complement without
    v itself; the complete graph has an empty co-ball and translates
    nothing.  The lex classes grow one class at a time
    (``_greedy_classes``)."""
    params = spec.params
    V = params.size()
    tab = _tables(params)
    ball = tab.ball(spec.k)  # |B*| < |V|, in the vertex budget
    full = (1 << V) - 1
    if 2 * len(ball) <= V - 1:
        masks = tuple(_translated_masks(params, ball))
    else:
        masks = tuple(full ^ m ^ (1 << v) for v, m in
                      enumerate(_translated_masks(params, tab.coball(spec.k))))
    return _Adjacency(masks, tuple(_greedy_classes(masks, [full])))


def _translated_masks(params: SrkParams, rows: np.ndarray) -> list:
    """The bitmask ints of v + ``rows`` for every vertex v, read from two
    half-digit tables a chunk at a time (``_translates``), so no
    difference is ranked.  As a check, each mask must have exactly
    len(rows) bits and no loop; a wrong sum or index encoding breaks one
    of these and raises ArithmeticError.  Each checked chunk becomes mask
    ints at once."""
    V = params.size()
    if not len(rows):
        return [0] * V
    masks = []
    for start, nbr in _translates(params, rows):
        idx = np.arange(len(nbr))
        adj = np.zeros((len(nbr), V), dtype=bool)
        adj[idx[:, None], nbr] = True
        if (np.count_nonzero(adj) != nbr.size
                or adj[idx, start + idx].any()):
            raise ArithmeticError(
                f"a translate at vertices {start}..{start + len(nbr) - 1} "
                f"does not have {len(rows)} distinct vertices other than "
                f"its own")
        masks += _row_masks(adj)
    return masks


def _weight_rows(params: SrkParams, digits: np.ndarray):
    """Weight rows of the vertices in order, a chunk of vertices at a time
    with at most ``_ROW_CHUNK`` difference rows each: row v of a chunk
    holds srk(u - v) for every vertex u.  The distance path: the degree
    sweep of ``verify_cayley`` reads it as a check of the graph that does
    not read the translated masks."""
    tab = _tables(params)
    V, L = digits.shape
    step = max(1, _ROW_CHUNK // V)
    for start in range(0, V, step):
        block = digits[start:start + step]
        diff = params.field.sub_array(digits[None, :, :], block[:, None, :])
        yield tab.weights_of(diff.reshape(-1, L)).reshape(len(block), V)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SolverBudgetError(BudgetError):
    """The exact solver exceeded its node budget; no answer is reported.
    ``nodes``, ``lb`` and ``ub`` record where the search stopped: it had
    an independent set of size lb and a proof that alpha <= ub, which
    ``ub_source`` names ("lp" or "colouring")."""

    def __init__(self, message: str, nodes=None, lb=None, ub=None,
                 ub_source=None):
        super().__init__(message)
        self.nodes, self.lb, self.ub = nodes, lb, ub
        self.ub_source = ub_source


DEFAULT_MAX_NODES = 2_000_000


@dataclass(frozen=True)
class MisResult:
    """Exact independence number with a witness code of that size, whose
    minimum distance the solver has checked to be >= k+1.

    ``nodes`` counts the search nodes charged to the budget (the root is
    node 1); ``lb`` and ``ub`` are the bounds proven before branching (the
    seed codes: the largest class of the lex greedy partition and, where
    they apply, the Gabidulin code and the d = 2 kernel code; the Delsarte
    LP and colouring bounds), so ``lb == ub`` means the answer needed no
    branching; ``ub_source`` names the bound that gave ub ("lp" or
    "colouring").  Unpacks as ``alpha, witness``."""

    alpha: int
    witness: SrkCode
    nodes: int
    lb: int
    ub: int
    ub_source: str

    def __iter__(self):
        return iter((self.alpha, self.witness))


class _Search:
    """One exact MIS run: a single node budget over every sub-search, the
    best independent set so far (size lb) and the proven bound ub, with
    the name of the bound that gave it."""

    def __init__(self, max_nodes: int, num_vertices: int):
        self.max_nodes = max_nodes
        self.nodes = 0
        self.lb = 0
        self.best = 0   # vertex bitmask of an independent set of size lb
        self.ub = num_vertices
        self.ub_source = None

    def tick(self):
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise SolverBudgetError(
                f"exceeded {self.max_nodes} branch-and-bound nodes",
                nodes=self.nodes, lb=self.lb, ub=self.ub,
                ub_source=self.ub_source)

    def bound(self, ub: int, source: str):
        """Take a proven upper bound if it is below ub."""
        if ub < self.ub:
            self.ub, self.ub_source = ub, source

    def offer(self, size: int, bits: int):
        if size > self.lb:
            self.lb, self.best = size, bits

    def clique(self, nbr, verts, base_size: int, base_bits: int):
        """Colouring branch and bound (Tomita's MCQ, explicit stack) for
        cliques of ``nbr`` that extend the independent set ``base_bits``;
        local vertex i is vertex ``verts[i]`` of the graph.  A frame holds
        its candidates' first-fit classes (``_greedy_classes``) as the bits
        not yet tried, emptied classes dropped from the end: it branches
        from the last class to the first, each class from its highest
        vertex down, and is dropped once r_size + (classes left) <= best,
        since every vertex left has colour at most that count.  Records
        every improvement on lb and returns early once lb reaches ub."""
        best = self.lb - base_size
        target = self.ub - base_size
        frames = []   # [r_size, r_set, P, classes]
        r_size, r_set, P = 0, 0, (1 << len(nbr)) - 1
        while True:
            self.tick()
            if P:
                frames.append([r_size, r_set, P, _greedy_classes(nbr, [P])])
            elif r_size > best:
                best = r_size
                self.offer(base_size + best, base_bits | _index_bits(
                    verts[i] for i in _bits(r_set)))
                if best >= target:
                    return
            while frames:
                f = frames[-1]
                classes = f[3]
                if not classes or f[0] + len(classes) <= best:
                    frames.pop()
                    continue
                v = classes[-1].bit_length() - 1
                classes[-1] ^= 1 << v
                if not classes[-1]:
                    classes.pop()
                r_size, r_set, P = f[0] + 1, f[1] | (1 << v), f[2] & nbr[v]
                f[2] &= ~(1 << v)
                break
            else:
                return


def _row_masks(mat: np.ndarray) -> list:
    """Bitmask ints of a boolean matrix's rows: bit j of int i is mat[i, j]."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def gabidulin_indices(params: SrkParams, d: int):
    """Canonical indices of the Gabidulin code of minimum rank distance d
    in a single n x m block (n <= m) over a prime field GF(q), or None
    where it does not apply (several blocks, q not prime, d > n).

    Codewords are (f(g_1), ..., f(g_n)) for the q-linearized polynomials
    f = sum_{i < n-d+1} a_i x^(q^i) over GF(q^m), evaluated at g_j =
    alpha^j; entry j becomes row j through its coefficient vector.  It is
    the GF(q)-span of the m(n-d+1) words f = alpha^b x^(q^i): every GF(q)
    combination of their digit rows, q^(m(n-d+1)) words, the
    Singleton-type maximum (an MRD code)."""
    if params.t != 1 or params.field.e != 1 or d < 1:
        return None
    (n, m), = params.block_shapes()
    dim = n - d + 1
    if dim < 1:
        return None
    q = params.q
    E = field_make(q, m)
    # basis word (i, b) is f = alpha^b x^(q^i): row j holds the
    # coefficients of alpha^b g_j^(q^i), with alpha^b encoded as q^b
    basis = np.array([[c for j in range(n) for c in int_digits(
        E.mul(q ** b, E.pow(q ** j, q ** i)), q, m)]
        for i in range(dim) for b in range(m)], dtype=np.int64)
    words = digit_rows(q, dim * m).astype(np.int64) @ basis % q
    return digit_index(words, q).tolist()


def kernel_indices(params: SrkParams, d: int):
    """Canonical indices of a linear code of minimum distance 2 and
    |V| / q^M words, M = max m_i, over a prime field GF(q), or None where
    it does not apply (d != 2, q not prime).

    Row j of block i is read as r_ij(x) in GF(q)[x]/(f) = GF(q^M), f the
    modulus of ``field_make(q, M)``, and the code is the kernel of
    H(X) = sum_i sum_j x^j r_ij(x).  A rank-1 block u v^T maps to
    u(x) v(x), a product of two nonzero polynomials of degree < M (since
    n_i <= m_i <= M), so no vector of weight 1 is in the kernel; H is
    onto (row 0 of a block with m_i = M alone reaches every residue).
    The kernel is read from one product of the digit rows of the space
    with H; a count other than |V| / q^M raises ArithmeticError."""
    if params.field.e != 1 or d != 2:
        return None
    q, M = params.q, max(params.m)
    E = field_make(q, M)
    xpow = [1]   # x^s mod f for s <= 2M - 2, with x encoded as q
    for _ in range(2 * M - 2):
        xpow.append(E.mul(xpow[-1], q))
    # row (i, j, c) of H^T: the coefficients of x^(j + c), the image of
    # the unit vector at entry (j, c) of block i
    Ht = np.array([int_digits(xpow[j + c], q, M)
                   for ni, mi in params.block_shapes()
                   for j in range(ni) for c in range(mi)], dtype=np.int64)
    syndromes = digit_rows(q, params.total_dim).astype(np.int64) @ Ht % q
    words = np.flatnonzero(~syndromes.any(axis=1))
    if len(words) * q ** M != params.size():
        raise ArithmeticError(f"the kernel has {len(words)} words, not "
                              f"|V| / {q}^{M}")
    return words.tolist()


def _profile_classes(params: SrkParams, digits: np.ndarray) -> np.ndarray:
    """Orbit label of every row of a digit array under the block maps
    X_i -> A_i X_i B_i and the permutations of equal-shape blocks, which
    all fix 0: its rank profile, sorted within each group of equal-shape
    blocks.  Labels are numbered 0, 1, ... in ascending (weight, profile)
    order, a new one wherever a row of one lexsort of the keys differs
    from the row before it."""
    R = _tables(params).block_ranks(digits)
    key = np.concatenate([R.sum(axis=1, keepdims=True)]
                         + [np.sort(R[:, list(g)], axis=1)
                            for _, g in params.shape_groups()], axis=1)
    order = np.lexsort(key.T[::-1])
    rows = key[order]
    new = np.zeros(len(key), dtype=np.int64)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    label = np.empty_like(new)
    label[order] = np.cumsum(new)
    return label


def _independent(masks, bits: int, what: str):
    """ArithmeticError unless the vertex set ``bits`` is independent."""
    if any(masks[v] & bits for v in _bits(bits)):
        raise ArithmeticError(f"{what} is not an independent set")


def _index_bits(indices) -> int:
    """Bitmask of a collection of vertex indices."""
    bits = 0
    for v in indices:
        bits |= 1 << v
    return bits


def max_independent_set(spec: PowerGraphSpec,
                        max_vertices: int = DEFAULT_MAX_VERTICES,
                        max_nodes: int = DEFAULT_MAX_NODES) -> MisResult:
    """Exact independence number of the power graph together with a
    witness code of minimum distance >= k+1.

    The graph is a Cayley graph, so some maximum independent set holds
    vertex 0, and the maps fixing 0 (``_profile_classes``) move any
    non-neighbour of 0 onto the representative of its class.  Hence
    alpha = max over classes c of 2 + omega(non-neighbours of 0 and of
    rep(c) in classes >= c), each found by a colouring branch and bound
    in the complement graph.  The search starts from the largest class of
    the lex greedy partition (``greedy_partition``; class 0, the lex
    greedy code, is never larger), for one block over a prime field the
    Gabidulin code (``gabidulin_indices``) and, at k = 1 over a prime
    field, the kernel code of |V| / q^M words (``kernel_indices``), each
    checked independent on the masks; it stops as soon as lb meets
    ub = min(the Delsarte LP bound with its dual re-checked
    (``scheme.delsarte_lp``), the colouring bounds of the classes).
    Delsarte's clique-coclique inequality keeps the LP bound at or below
    |V| // |A| for every anticode A of diameter k, so no clique bound is
    needed besides it.  The complement matrix is unpacked from the masks;
    all sub-searches share one budget of ``max_nodes``.
    The alpha returned is certified: the witness's minimum distance is
    recomputed by ``space.min_distance``, which does not read the masks,
    and one below k+1 raises ArithmeticError."""
    params, k = spec.params, spec.k
    masks = adjacency_masks(spec, max_vertices)
    V = len(masks)
    search = _Search(max_nodes, V)
    search.tick()   # the root, before any bound is consulted

    largest = max(_adjacency(spec).lex, key=int.bit_count)
    _independent(masks, largest, "greedy partition class")
    search.offer(largest.bit_count(), largest)
    for seed, what in ((gabidulin_indices(params, k + 1), "Gabidulin code"),
                       (kernel_indices(params, k + 1), "kernel code")):
        if seed is not None:
            seed_bits = _index_bits(seed)
            _independent(masks, seed_bits, what)
            search.offer(len(seed), seed_bits)
    search.bound(math.floor(scheme.delsarte_lp(params, k + 1).value), "lp")

    subs = []
    if search.lb < search.ub:
        rows = b"".join(m.to_bytes((V + 7) // 8, "little") for m in masks)
        comp = np.unpackbits(np.frombuffer(rows, np.uint8).reshape(V, -1),
                             axis=1, count=V, bitorder="little") == 0
        np.fill_diagonal(comp, False)
        outside = np.flatnonzero(comp[0])
        label = _profile_classes(params, index_digits(outside, params.q,
                                                      params.total_dim))
        for c in np.flatnonzero(np.bincount(label)):
            later = outside[label >= c]
            rep = outside[label == c][0]
            cand = later[comp[rep, later]].tolist()
            # by descending degree in the complement: ascending number of
            # neighbours among the candidates (the masks hold no loop)
            bits = _index_bits(cand)
            cand.sort(key=lambda v: (masks[v] & bits).bit_count())
            nbr = _row_masks(comp[np.ix_(cand, cand)])
            bound = 2 + len(_greedy_classes(nbr, [(1 << len(nbr)) - 1]))
            subs.append((bound, int(rep), cand, nbr))
        search.bound(max((b for b, *_ in subs), default=1), "colouring")
    start = search.lb, search.ub, search.ub_source
    for j, (bound, rep, verts, nbr) in enumerate(subs):
        search.bound(max([search.lb] + [b for b, *_ in subs[j:]]),
                     "colouring")
        if search.lb >= search.ub:
            break
        if bound > search.lb:
            search.clique(nbr, verts, 2, 1 | 1 << rep)
    witness = SrkCode(params, tuple(_bits(search.best)))
    if len(witness) >= 2 and min_distance(witness) < k + 1:
        raise ArithmeticError("MIS witness violates distance contract")
    return MisResult(search.lb, witness, search.nodes, *start)


def code_size(params: SrkParams, d: int,
              max_vertices: int = DEFAULT_MAX_VERTICES,
              max_nodes: int = DEFAULT_MAX_NODES) -> int:
    """A(d), the largest size of a code of minimum distance >= d: |V| for
    d <= 1, otherwise the certified alpha of the power graph at k = d - 1
    (``max_independent_set``, with its budgets)."""
    if d <= 1:
        return params.size()
    spec = PowerGraphSpec(params, d - 1)
    return max_independent_set(spec, max_vertices, max_nodes).alpha


def _greedy_classes(masks, layers) -> list:
    """First-fit colouring as class bitmasks, for the vertex order that
    scans the bitmasks ``layers`` in turn, each in ascending index (each
    vertex, in that order, joins the first class holding none of its
    neighbours).  Grown one class at a time: class c takes, in that order,
    each vertex left over from the classes before it that has no
    neighbour in c so far, which by induction on c is the class first fit
    gives.  Each pick drops the vertex and its neighbours from the layer
    being scanned: one pick per vertex in all.  Serves the greedy
    partition in both orders and, with ``masks`` the complement's rows of
    a candidate set and one layer, the colouring of each node of the exact
    search (``_Search.clique``)."""
    todo = 0   # the vertices in no class yet
    for layer in layers:
        todo |= layer
    classes = []
    while todo:
        bits = near = 0   # the class so far and its neighbours
        for layer in layers:
            avail = layer & todo & ~near
            while avail:
                low = avail & -avail
                m = masks[low.bit_length() - 1]
                bits |= low
                near |= m
                avail = (avail ^ low) & ~m
        classes.append(bits)
        todo ^= bits
    return classes


def greedy_class_masks(spec: PowerGraphSpec,
                       max_vertices: int = DEFAULT_MAX_VERTICES,
                       order_policy: str = "lex") -> tuple:
    """The classes of the greedy partition (``greedy_partition``) as
    vertex bitmasks, class 0 first."""
    masks = adjacency_masks(spec, max_vertices)
    if order_policy == "lex":
        return _adjacency(spec).lex
    if order_policy == "weight-then-lex":
        params = spec.params
        w = _tables(params).weights
        layers = _row_masks(w == np.arange(params.max_weight + 1)[:, None])
        return tuple(_greedy_classes(masks, layers))
    raise ValueError(f"unknown order policy {order_policy!r}")


def greedy_partition(spec: PowerGraphSpec,
                     max_vertices: int = DEFAULT_MAX_VERTICES,
                     order_policy: str = "lex"):
    """Greedy colouring: first fit, scanning vertices in ascending index
    ("lex") or ascending weight, then index, partitions the space into
    codes of minimum distance >= k+1 (singletons allowed); at most D+1
    classes.  Class 0 is the greedy sphere-covering code: a vertex joins
    it iff it is at distance > k from every vertex that joined before it,
    so it has at least ceil(|V| / ball_volume) words.  The codes are read
    from the class bitmasks (``greedy_class_masks``) and certified before
    they are returned: the bitmasks must cover V once (bit counts summing
    to |V|, OR of every vertex), and one ``space.min_distance`` call,
    which does not read the masks, must find distance >= k+1 in every
    class; else ArithmeticError."""
    classes = greedy_class_masks(spec, max_vertices, order_policy)
    V = spec.params.size()
    if (sum(b.bit_count() for b in classes) != V
            or reduce(operator.or_, classes, 0) != (1 << V) - 1):
        raise ArithmeticError("greedy partition does not cover the space once")
    codes = [SrkCode(spec.params, tuple(_bits(bits))) for bits in classes]
    if any(len(c) >= 2 for c in codes) and min_distance(*codes) <= spec.k:
        raise ArithmeticError("greedy partition violates distance contract")
    return codes


def verify_cayley(spec: PowerGraphSpec, sample_size: int = 64) -> dict:
    """Degree-regularity sweep (full, on spaces within
    ``DEFAULT_MAX_VERTICES``) and sampled translation-invariance checks
    of adjacency.  Degrees are read from the weight histogram of the
    space (``SpaceTables.histogram``, one build per space serves every k).
    The samples x, y, z come from ``default_rng(0)`` as one (sample_size,
    3, L) array, which on numpy 2.4 gives the same draws as three
    ``rng.integers(0, q, size=L)`` calls a sample, and are weighed at once."""
    params, k = spec.params, spec.k
    tab = _tables(params)
    F = params.field
    D = counting.degree_D(params, k)
    report = {"params": params.describe(), "k": k, "expected_degree": D,
              "degree_violations": [], "translation_violations": [],
              "degrees_checked": 0, "translations_checked": 0}
    if params.size() <= DEFAULT_MAX_VERTICES:
        degrees = tab.histogram[:, 1:k + 1].sum(axis=1)
        report["degrees_checked"] = len(degrees)
        report["degree_violations"] = [
            {"vertex": v, "degree": int(degrees[v])}
            for v in np.flatnonzero(degrees != D).tolist()]
    rng = np.random.default_rng(0)
    S = max(sample_size, 0)
    x, y, z = rng.integers(0, params.q, size=(S, 3, params.total_dim)
                           ).astype(tab.dtype).transpose(1, 0, 2)
    dxy = tab.weights_of(F.sub_array(x, y))
    dxyz = tab.weights_of(F.sub_array(F.add_array(x, z), F.add_array(y, z)))
    adj_before = (dxy >= 1) & (dxy <= k)
    adj_after = (dxyz >= 1) & (dxyz <= k)
    report["translations_checked"] = S
    report["translation_violations"] = [
        {"x": x[i].tolist(), "y": y[i].tolist(), "z": z[i].tolist()}
        for i in np.flatnonzero(adj_before != adj_after).tolist()]
    report["ok"] = (not report["degree_violations"]
                    and not report["translation_violations"])
    return report
