"""Inequality chains linking code sizes to set-coloring Ramsey numbers.

Known Ramsey values are external inputs (a JSON table with free-text
source strings); nothing here hardcodes literature values.  Every derived
bound carries an ordered derivation trace whose steps can be replayed
bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .space import SrkParams, _is_int, make_params
from . import bounds, counting, graphlab


class TableError(KeyError):
    """Missing or inexact Ramsey table entry."""


@dataclass(frozen=True)
class RamseyTable:
    """Known bounds lo <= R(k;r,s) <= hi, keyed by (k, r, s)."""

    entries: dict
    sources: dict

    @classmethod
    def from_json(cls, data: dict) -> "RamseyTable":
        """ValueError unless data is an object whose ``entries`` is a list
        of objects with integer ``k r s lo hi`` (bools are not integers
        here) and, where given, a string ``source``, no two with the same
        (k, r, s)."""
        if not (isinstance(data, dict)
                and isinstance(data.get("entries"), list)):
            raise ValueError(f"table must be an object with a list of "
                             f"entries, got {data!r}")
        entries = {}
        sources = {}
        for ent in data["entries"]:
            if not isinstance(ent, dict):
                raise ValueError(f"table entry {ent!r} is not an object")
            for name in ("k", "r", "s", "lo", "hi"):
                x = ent.get(name)
                if not _is_int(x):
                    raise ValueError(
                        f"table entry field {name!r} is {x!r}, not an integer")
            if not isinstance(ent.get("source", ""), str):
                raise ValueError(f"table entry source {ent['source']!r} "
                                 f"is not a string")
            key = (ent["k"], ent["r"], ent["s"])
            lo, hi = ent["lo"], ent["hi"]
            if lo > hi:
                raise ValueError(f"table entry {key} has lo > hi")
            if not (key[0] >= 3 and key[1] > key[2] >= 1):
                raise ValueError(f"table entry {key} violates k>=3, r>s>=1")
            if key in entries:
                raise ValueError(f"table has two entries for R{key}")
            entries[key] = (lo, hi)
            sources[key] = ent.get("source", "")
        return cls(entries, sources)

    @classmethod
    def load(cls, path) -> "RamseyTable":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def exact(self, k: int, r: int, s: int) -> int:
        key = (k, r, s)
        if key not in self.entries:
            raise TableError(f"no table entry for R{key}")
        lo, hi = self.entries[key]
        if lo != hi:
            raise TableError(f"table entry for R{key} is not exact: [{lo},{hi}]")
        return lo


@dataclass(frozen=True)
class ChainConfig:
    """The non-constructive constants of the asymptotic statements; all
    supplied by the user, never derived here."""

    eps: float = 0.5
    c: float = 1.0
    c_prime: float = 1.0
    log_base: float = 2.0

    def __post_init__(self):
        values = (self.eps, self.c, self.c_prime, self.log_base)
        if not all(math.isfinite(x) and x > 0 for x in values) \
                or self.log_base == 1:
            raise ValueError("eps, c, c', log_base must be finite and "
                             "positive, and log_base must not be 1")


@dataclass
class DerivedBound:
    target: object          # (k, r, s) tuple or a descriptive string
    kind: str               # "lower" | "upper"
    value: object           # int or float
    derivation: list
    flags: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {"target": list(self.target) if isinstance(self.target, tuple)
                else self.target,
                "kind": self.kind, "value": self.value,
                "derivation": self.derivation, "flags": self.flags}


# -- replayable derivation rules; each maps frozen inputs to one output --


def _rule_code_to_ramsey_lower(inp: dict):
    # a code of size A with pairwise distance >= d forbids a certain
    # set-coloring, so R(k; N*a, d*b) must exceed A
    return inp["code_lb"] + 1


def _cap_exponent(inp: dict) -> float:
    r, s = inp["r"], inp["s"]
    return (inp["c_prime"] * inp["k"] * (r - s) ** 2 / r
            * math.log(r / min(s, r - s)) / math.log(inp["log_base"]))


def _rule_ramsey_exponential_cap(inp: dict):
    exponent = _cap_exponent(inp)  # floats end below 2^1024
    return 2.0 ** exponent if exponent < 1024 else math.inf


def _rule_zero_rate_upper(inp: dict):
    try:
        code_term = (1.0 + inp["eps"]) * inp["code_value"]
    except OverflowError:  # math.inf past the float range
        code_term = math.inf
    return max(code_term, inp["eps"] * inp["d"])


_RULES = {
    "code-to-ramsey-lower": _rule_code_to_ramsey_lower,
    "ramsey-exponential-cap": _rule_ramsey_exponential_cap,
    "zero-rate-upper": _rule_zero_rate_upper,
}


def reevaluate(derived: DerivedBound) -> bool:
    """Replay every derivation step; True iff each output matches
    bit-exactly."""
    for step in derived.derivation:
        rule = _RULES[step["rule"]]
        if rule(step["inputs"]) != step["output"]:
            return False
    return True


def _lower_step(inputs: dict, code_lb: int, cap: int) -> dict:
    """The code-to-ramsey-lower step from the code bound ``code_lb``;
    ValueError unless 1 <= code_lb <= cap, an upper bound on the size of
    every code the chain reads."""
    if code_lb < 1:
        raise ValueError(f"code bound {code_lb} is below 1")
    if code_lb > cap:
        raise ValueError(f"code bound {code_lb} exceeds the cap {cap}")
    return {"rule": "code-to-ramsey-lower",
            "inputs": {**inputs, "code_lb": code_lb}, "output": code_lb + 1}


def hamming_to_ramsey_lb(k: int, a: int, b: int, N: int, d: int,
                         table: RamseyTable, code_lb: int) -> DerivedBound:
    """From a size-lower-bound on A_q(N, d) with q = R(k;a,b) - 1, deduce
    R(k; N*a, d*b) >= code_lb + 1; ValueError unless code_lb lies in
    [1, q^(N-d+1)], the Singleton bound on A_q(N, d)."""
    if not b < a:
        raise ValueError("requires b < a")
    if not 1 <= d <= N:
        raise ValueError("requires 1 <= d <= N")
    R_ab = table.exact(k, a, b)
    q = R_ab - 1
    # for q >= 2, q^e > code_lb once e reaches code_lb's bit length
    cap = q ** min(N - d + 1, code_lb.bit_length())
    step = _lower_step({"k": k, "a": a, "b": b, "N": N, "d": d, "q": q,
                        "R(k;a,b)": R_ab}, code_lb, cap)
    return DerivedBound(target=(k, N * a, d * b), kind="lower",
                        value=code_lb + 1, derivation=[step])


def hamming_gv_code_lb(q: int, N: int, d: int) -> int:
    """GV lower bound on A_q(N, d) via the all-1x1 sum-rank instance;
    q must be a prime power."""
    params = make_params(q, (1,) * N, (1,) * N)
    return bounds.gv_lower(params, d)


def srk_to_ramsey_lb(params: SrkParams, d: int, k: int, a: int, b: int,
                     table: RamseyTable, srk_lb: int,
                     config: ChainConfig = ChainConfig()) -> DerivedBound:
    """Sum-rank variant: under q^m = R(k;a,b) - 1 with m = max m_i, a
    lower bound on the sum-rank code size pushes up R(k; N*a, d*b); the
    exponential cap on the same Ramsey number is evaluated for the
    configured c' and reported alongside.  ValueError unless 1 <= srk_lb
    <= |V| // V((d-1)//2), the sphere-packing bound."""
    if not b < a:
        raise ValueError("requires b < a")
    m = max(params.m)
    N = sum(params.n)
    if not 1 <= d <= N:
        raise ValueError("requires 1 <= d <= N")
    R_ab = table.exact(k, a, b)
    qm = params.q ** m
    if qm != R_ab - 1:
        raise TableError(
            f"q^m = {qm} does not match R(k;a,b) - 1 = {R_ab - 1}")
    r, s = N * a, d * b
    if not (k >= 3 and r > s >= 1):
        raise ValueError("requires k >= 3 and r > s >= 1")
    lower_step = _lower_step(
        {"k": k, "a": a, "b": b, "N": N, "d": d, "q^m": qm, "R(k;a,b)": R_ab},
        srk_lb, params.size() // counting.ball_volume(params, (d - 1) // 2))
    cap_inputs = {"k": k, "r": r, "s": s, "c_prime": config.c_prime,
                  "log_base": config.log_base}
    cap = _rule_ramsey_exponential_cap(cap_inputs)
    cap_step = {"rule": "ramsey-exponential-cap", "inputs": cap_inputs,
                "output": cap}
    out = DerivedBound(target=(k, r, s), kind="lower", value=srk_lb + 1,
                       derivation=[lower_step, cap_step])
    out.flags.append(f"exponential cap for c'={config.c_prime}: {cap}")
    if (cap < srk_lb if cap < math.inf
            else math.log2(srk_lb) > _cap_exponent(cap_inputs)):
        out.flags.append("inconsistent: configured cap below the code bound")
    return out


def ramsey_upper_from_srk(params: SrkParams, t: int, d: int,
                          config: ChainConfig, srk_value_fn) -> DerivedBound:
    """Zero-rate-threshold upper bound: with m' = min m_i and
    j = (1 - 1/q^{m'}) t - d + 1,
    R(q^{m'}+1; t, d) <= max((1+eps) A(d - c j), eps d).  Validity is
    conditional on the existential constants; the fractional distance
    d - c j is ceiled (conservative) and flagged."""
    m_prime = min(params.m)
    qm = params.q ** m_prime
    threshold = (1 - 1 / qm) * t
    if d > threshold:
        raise ValueError(f"requires d <= (1 - 1/q^m') t = {threshold}")
    j = threshold - d + 1
    d_eff = d - config.c * j
    if d_eff < 1:
        raise ValueError(f"d - c*j = {d_eff} below 1; chain not applicable")
    d_ceil = math.ceil(d_eff)
    flags = []
    if d_ceil != d_eff:
        flags.append(f"distance d - c*j = {d_eff} ceiled to {d_ceil}")
    code_value = srk_value_fn(params, d_ceil)
    inputs = {"eps": config.eps, "c": config.c, "t": t, "d": d, "j": j,
              "d_effective": d_ceil, "code_value": code_value}
    value = _rule_zero_rate_upper(inputs)
    step = {"rule": "zero-rate-upper", "inputs": inputs, "output": value}
    out = DerivedBound(target=(qm + 1, t, d), kind="upper", value=value,
                       derivation=[step], flags=flags)
    out.flags.append("conditional on the existential constants eps, c")
    return out


def zero_rate_instance_check(params: SrkParams, k: int, j: int,
                             max_vertices: int = graphlab.DEFAULT_MAX_VERTICES,
                             max_nodes: int = graphlab.DEFAULT_MAX_NODES) -> dict:
    """Validate the zero-rate precondition j <= sqrt(N (k-1)/(q^m - 1)),
    compute the distance (1 - 1/q^m)(N - j), and the exact code size at
    that distance (``graphlab.code_size``; "not computed (...)" with the
    solver's budget message).  The polynomial asymptotic itself is out of
    reach here and is not claimed."""
    m = max(params.m)
    N = sum(params.n)
    qm = params.q ** m
    report = {"params": params.describe(), "k": k, "j": j, "N": N, "q^m": qm}
    # exact comparison: j <= sqrt(N (k-1) / (qm-1))  <=>  j^2 (qm-1) <= N (k-1)
    cond = j * j * (qm - 1) <= N * (k - 1)
    report["j_condition_holds"] = cond
    dist = Fraction(qm - 1, qm) * (N - j)
    report["distance"] = float(dist)
    report["distance_below_N"] = dist < N
    d_int = math.ceil(dist)
    report["distance_ceiled"] = d_int
    report["distance_was_fractional"] = (dist != d_int)
    if not cond:
        report["status"] = "precondition failed"
        return report
    if d_int < 1:
        report["status"] = "degenerate distance"
        return report
    try:
        report["exact_A"] = graphlab.code_size(params, d_int, max_vertices,
                                               max_nodes)
    except graphlab.BudgetError as exc:
        report["exact_A"] = f"not computed ({exc})"
    report["status"] = "ok"
    return report
