import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import srklab
from srklab.bounds import (NOT_COMPUTED, aks_alpha_lower, bound_report,
                           gv_exact_ratio, gv_lower, improved_gv_value)
from srklab.space import make_params
from srklab import counting


def test_gv_lower_examples():
    cube = make_params(2, (1, 1, 1), (1, 1, 1))
    assert gv_lower(cube, 1) == 8
    assert gv_lower(cube, 2) == 2
    assert gv_lower(cube, 3) == 2  # ceil(8/7)
    sq = make_params(2, (2,), (2,))
    assert gv_lower(sq, 2) == 2  # ceil(16/10)
    with pytest.raises(ValueError):
        gv_lower(cube, 0)


def test_gv_exact_ratio():
    cube = make_params(2, (1, 1, 1), (1, 1, 1))
    assert gv_exact_ratio(cube, 2) == Fraction(8, 4)
    assert gv_exact_ratio(cube, 3) == Fraction(8, 7)
    sq = make_params(2, (2,), (2,))
    assert gv_exact_ratio(sq, 2) == Fraction(16, 10)
    r = gv_exact_ratio(sq, 2)
    assert gv_lower(sq, 2) == -(-r.numerator // r.denominator)


def test_aks_alpha_lower():
    # Delta = 0 drops the log correction
    assert aks_alpha_lower(8, 3, 0) == pytest.approx(8 / 30 * math.log2(3))
    val = aks_alpha_lower(8, 6, 32)
    expect = 8 / 60 * (math.log2(6) - 0.5 * math.log2(32 / 8))
    assert val == pytest.approx(expect)
    with pytest.raises(ValueError):
        aks_alpha_lower(8, 0, 0)
    with pytest.raises(ValueError):
        aks_alpha_lower(8, 3, -1)


def test_improved_gv_value():
    assert improved_gv_value(1.0, 100, 4) == pytest.approx(100 / 80 * 2.0)
    assert improved_gv_value(2.0, 100, 4) == pytest.approx(100 / 40 * 2.0)
    with pytest.raises(ValueError):
        improved_gv_value(0.0, 100, 4)
    with pytest.raises(ValueError):
        improved_gv_value(2.5, 100, 4)


def test_bound_report_distance_one():
    params = make_params(2, (2,), (2,))
    rep = bound_report(params, 1)
    assert rep.exact_alpha == 16
    assert rep.greedy_code_size == 16
    assert rep.num_classes == 1
    assert rep.gv == 16
    assert rep.avg_class_size == 16.0 and isinstance(rep.avg_class_size, float)


def test_bound_report_distance_one_past_the_float_range():
    # the one class is the whole space, 2^1100 words: kept exact
    rep = bound_report(make_params(2, (1,) * 1100, (1,) * 1100), 1)
    assert rep.avg_class_size == 2 ** 1100


def test_bound_report_cube():
    cube = make_params(2, (1, 1, 1), (1, 1, 1))
    rep = bound_report(cube, 2)
    assert rep.V == 8 and rep.ball == 4
    assert rep.gv == 2
    assert rep.exact_alpha == 4
    assert rep.greedy_code_size == 4
    assert rep.num_classes == 2
    assert rep.avg_class_size == pytest.approx(4.0)
    assert (rep.D, rep.T, rep.Delta) == (3, 0, 0)
    assert rep.triangle_free
    assert rep.eps_star == "inf"
    assert rep.gv <= rep.greedy_code_size <= rep.exact_alpha
    assert not rep.notes


def test_bound_report_with_improved_eps():
    sq = make_params(2, (2,), (2,))
    rep = bound_report(sq, 2, improved_eps=0.5)
    assert rep.improved_gv == pytest.approx(
        improved_gv_value(0.5, 16, rep.D))
    assert rep.exact_alpha == 4
    assert rep.eps_star == pytest.approx(counting.epsilon_star(9, 18))


def test_bound_report_budget_refusal():
    big = make_params(2, (2, 2, 2), (2, 2, 2))
    rep = bound_report(big, 2, max_vertices=256)
    assert rep.exact_alpha == NOT_COMPUTED
    assert rep.greedy_code_size == NOT_COMPUTED
    assert rep.notes  # each skipped stage leaves a note
    # the purely arithmetic quantities are still present
    assert rep.gv == gv_lower(big, 2)
    assert isinstance(rep.D, int)


def test_bound_report_solver_refusal():
    sq = make_params(2, (1, 2), (2, 2))
    rep = bound_report(sq, 2, max_nodes=0)
    assert rep.exact_alpha == NOT_COMPUTED
    assert any("alpha" in note for note in rep.notes)
    assert rep.greedy_code_size != NOT_COMPUTED


def test_bound_report_serialization():
    cube = make_params(2, (1, 1, 1), (1, 1, 1))
    rep = bound_report(cube, 2)
    row = rep.to_row()
    assert set(row) == set(rep.CSV_COLUMNS)
    assert row["n"] == "1|1|1" and row["m"] == "1|1|1"
    js = rep.to_json()
    assert js["gv_exact_ratio"] == [2, 1]
    assert js["triangle_free"] is True


_OPTIMIZED_SCRIPT = """
import sys
from srklab import bounds, counting, graphlab, make_params
assert False, "asserts must be stripped"
rep = bounds.bound_report(make_params(2, (2,), (2,)), 2)
print(sys.flags.optimize, rep.exact_alpha, rep.D, rep.T)
volume = counting.ball_volume
counting.ball_volume = lambda params, k: volume(params, k) + 1
graphlab._tables.cache_clear()  # the report above cached this ball
try:
    graphlab.ball_digits(graphlab.PowerGraphSpec(make_params(2, (2,), (2,)), 1))
except ArithmeticError:
    print("volume check raised")
"""


def test_bound_report_under_python_O():
    src = str(pathlib.Path(srklab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["1 4 9 18", "volume check raised"]
