"""Bound evaluators, per-instance comparison reports and the walk of a
sweep's rows.

The GV quotient is kept both as an exact rational and as its ceiling (the
claimed code size).  The triangle-based lower bound and the log-improved
value are evaluated literally; at desk scale they are usually weaker than
GV and are reported without adjudication.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .gf import BudgetError
from .space import SrkParams
from . import counting, graphlab

NOT_COMPUTED = "not computed"


def gv_lower(params: SrkParams, d: int) -> int:
    """Sphere-covering bound: ceil(|V| / ball_volume(d-1))."""
    return math.ceil(gv_exact_ratio(params, d))


def gv_exact_ratio(params: SrkParams, d: int) -> Fraction:
    if d < 1:
        raise ValueError("distance must be at least 1")
    return Fraction(params.size(), counting.ball_volume(params, d - 1))


def aks_alpha_lower(num_vertices: int, D: int, Delta: int) -> float:
    """|V|/(10D) * (log2 D - 1/2 log2(Delta/|V|)); for Delta = 0 the log
    term is dropped (triangle-free reading)."""
    if D < 1:
        raise ValueError("D must be at least 1")
    if Delta < 0:
        raise ValueError("Delta must be nonnegative")
    lead = num_vertices / (10.0 * D)
    if Delta == 0:
        return lead * math.log2(D)
    return lead * (math.log2(D) - 0.5 * math.log2(Delta / num_vertices))


def improved_gv_value(eps: float, num_vertices: int, D: int) -> float:
    """eps * |V| / (20 D) * log2 D, with eps supplied externally."""
    if not 0 < eps <= 2:
        raise ValueError("eps must lie in (0, 2]")
    if D < 1:
        raise ValueError("D must be at least 1")
    return eps * num_vertices / (20.0 * D) * math.log2(D)


@dataclass
class BoundReport:
    params: SrkParams
    d: int
    V: int
    ball: int
    gv: int
    gv_exact_ratio: Fraction
    aks_lower: object = "n/a"          # float or "n/a"
    improved_gv: object = "n/a"        # float or "n/a"
    exact_alpha: object = NOT_COMPUTED  # int or NOT_COMPUTED
    greedy_code_size: object = NOT_COMPUTED
    num_classes: object = NOT_COMPUTED
    avg_class_size: object = NOT_COMPUTED
    D: object = NOT_COMPUTED
    T: object = NOT_COMPUTED
    Delta: object = NOT_COMPUTED
    eps_star: object = NOT_COMPUTED    # float, "inf" or NOT_COMPUTED
    triangle_free: bool = False
    notes: list = field(default_factory=list)

    CSV_COLUMNS = ["q", "p", "e", "n", "m", "d", "V", "ball", "gv", "greedy",
                   "alpha", "classes", "avg_class", "D", "T", "Delta",
                   "eps_star", "aks"]

    def to_row(self) -> dict:
        p = self.params
        return {
            "q": p.q, "p": p.field.p, "e": p.field.e,
            "n": "|".join(map(str, p.n)), "m": "|".join(map(str, p.m)),
            "d": self.d, "V": self.V, "ball": self.ball, "gv": self.gv,
            "greedy": self.greedy_code_size, "alpha": self.exact_alpha,
            "classes": self.num_classes, "avg_class": self.avg_class_size,
            "D": self.D, "T": self.T, "Delta": self.Delta,
            "eps_star": self.eps_star, "aks": self.aks_lower,
        }

    def to_json(self) -> dict:
        row = self.to_row()
        row["gv_exact_ratio"] = [self.gv_exact_ratio.numerator,
                                 self.gv_exact_ratio.denominator]
        row["improved_gv"] = self.improved_gv
        row["triangle_free"] = self.triangle_free
        row["notes"] = self.notes
        return row


def bound_report(params: SrkParams, d: int, *,
                 max_vertices: int = graphlab.DEFAULT_MAX_VERTICES,
                 max_ball: int = graphlab.DEFAULT_MAX_BALL,
                 max_nodes: int = graphlab.DEFAULT_MAX_NODES,
                 improved_eps=None) -> BoundReport:
    """Evaluate every bound whose budget allows; sub-bounds that do not
    fit are recorded as 'not computed' rather than failing the report.
    The greedy columns come from the class bitmasks of the lex-order
    greedy partition (``graphlab.greedy_class_masks``): class 0 is the
    greedy code, and the classes count the partition."""
    ratio = gv_exact_ratio(params, d)
    V = params.size()
    ball = counting.ball_volume(params, d - 1)
    rep = BoundReport(params=params, d=d, V=V, ball=ball,
                      gv=math.ceil(ratio), gv_exact_ratio=ratio)
    k = d - 1
    if k == 0:
        # distance 1: the whole space is a code
        rep.exact_alpha = V
        rep.greedy_code_size = V
        rep.num_classes = 1
        rep.avg_class_size = V if V > sys.float_info.max else float(V)
        return rep

    spec = graphlab.PowerGraphSpec(params, k)
    try:
        stats = graphlab.graph_stats(spec, max_ball)
        rep.D, rep.T, rep.Delta = stats.D, stats.T, stats.Delta
        rep.eps_star = "inf" if math.isinf(stats.eps_star) else stats.eps_star
        rep.triangle_free = stats.T == 0
        rep.aks_lower = aks_alpha_lower(V, stats.D, stats.Delta)
        if improved_eps is not None:
            rep.improved_gv = improved_gv_value(improved_eps, V, stats.D)
    except BudgetError as exc:
        rep.notes.append(f"graph stats skipped: {exc}")

    try:
        classes = graphlab.greedy_class_masks(spec, max_vertices)
        rep.greedy_code_size = classes[0].bit_count()
        rep.num_classes = len(classes)
        rep.avg_class_size = V / rep.num_classes
    except BudgetError as exc:
        rep.notes.append(f"greedy procedures skipped: {exc}")

    try:
        rep.exact_alpha = graphlab.max_independent_set(
            spec, max_vertices, max_nodes).alpha
    except BudgetError as exc:
        rep.notes.append(f"exact alpha skipped: {exc}")

    return rep


def sweep_walk(instances) -> list:
    """The rows of a sweep as (i, params, d), i the row's place in the
    report: each (params, distances) instance's d in turn, "all" meaning
    2..max_weight+1.  They are walked space by space, each from its
    largest d down, since a space's record keeps the ball of the largest
    radius asked so far and reads each smaller one from it."""
    rows = [(params, d) for params, ds in instances
            for d in (range(2, params.max_weight + 2) if ds == "all" else ds)]
    first = {}
    for params, _ in rows:
        first.setdefault(params, len(first))
    order = sorted(range(len(rows)),
                   key=lambda i: (first[rows[i][0]], -rows[i][1]))
    return [(i, *rows[i]) for i in order]
