import json
import math

import pytest

from srklab.ramsey import (ChainConfig, RamseyTable, TableError,
                           hamming_gv_code_lb, hamming_to_ramsey_lb,
                           ramsey_upper_from_srk, reevaluate,
                           srk_to_ramsey_lb, zero_rate_instance_check)
from srklab.space import make_params
from srklab import bounds, graphlab


TABLE_DATA = {
    "entries": [
        {"k": 3, "r": 2, "s": 1, "lo": 6, "hi": 6, "source": "classical"},
        {"k": 4, "r": 2, "s": 1, "lo": 18, "hi": 18, "source": "classical"},
        {"k": 3, "r": 3, "s": 1, "lo": 13, "hi": 17, "source": "survey"},
    ]
}


@pytest.fixture
def table():
    return RamseyTable.from_json(TABLE_DATA)


def test_table_load_and_exact(table, tmp_path):
    assert table.exact(3, 2, 1) == 6
    assert table.exact(4, 2, 1) == 18
    assert table.sources[(3, 2, 1)] == "classical"
    with pytest.raises(TableError):
        table.exact(5, 2, 1)  # missing
    with pytest.raises(TableError):
        table.exact(3, 3, 1)  # interval, not exact
    path = tmp_path / "table.json"
    path.write_text(json.dumps(TABLE_DATA))
    assert RamseyTable.load(path).entries == table.entries


def test_table_validation():
    bad_interval = {"entries": [{"k": 3, "r": 2, "s": 1, "lo": 7, "hi": 6}]}
    with pytest.raises(ValueError):
        RamseyTable.from_json(bad_interval)
    bad_key = {"entries": [{"k": 2, "r": 2, "s": 1, "lo": 1, "hi": 1}]}
    with pytest.raises(ValueError):
        RamseyTable.from_json(bad_key)
    bad_rs = {"entries": [{"k": 3, "r": 1, "s": 1, "lo": 1, "hi": 1}]}
    with pytest.raises(ValueError):
        RamseyTable.from_json(bad_rs)
    good = {"k": 3, "r": 2, "s": 1, "lo": 6, "hi": 6}
    missing_hi = {key: v for key, v in good.items() if key != "hi"}
    for bad in ({"entries": 5}, {}, [1], {"entries": [5]}, 7, None,
                {"entries": {"k": 3}}, {"entries": [missing_hi]},
                {"entries": [{**good, "lo": 6.0}]},
                {"entries": [{**good, "hi": True}]},
                {"entries": [{**good, "source": 1}]},
                # a repeated (k, r, s): the later entry would win silently
                {"entries": [good, {**good, "lo": 7, "hi": 7}]}):
        with pytest.raises(ValueError):
            RamseyTable.from_json(bad)
    table = RamseyTable.from_json({"entries": [good, {
        **good, "r": 3, "lo": 10, "hi": 12, "source": "bounds"}]})
    assert table.entries == {(3, 2, 1): (6, 6), (3, 3, 1): (10, 12)}
    assert table.sources == {(3, 2, 1): "", (3, 3, 1): "bounds"}


def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(eps=0.0)
    with pytest.raises(ValueError):
        ChainConfig(c=-1.0)
    nan, inf = float("nan"), float("inf")
    for bad in ({"eps": nan}, {"eps": inf}, {"c": nan}, {"c": -inf},
                {"c_prime": inf}, {"c_prime": 0}, {"log_base": 1},
                {"log_base": 1.0}, {"log_base": 0}, {"log_base": -2.0},
                {"log_base": inf}, {"log_base": nan}):
        with pytest.raises(ValueError):
            ChainConfig(**bad)
    assert ChainConfig(eps=1e-9, c=3, c_prime=1e300, log_base=0.5).log_base == 0.5


def test_hamming_gv_code_lb():
    # q = 5, N = 2, d = 1: whole space
    assert hamming_gv_code_lb(5, 2, 1) == 25
    # q = 5, N = 2, d = 2: ceil(25 / (1 + 2*4)) = 3
    assert hamming_gv_code_lb(5, 2, 2) == 3


def test_hamming_to_ramsey_lb(table):
    code_lb = hamming_gv_code_lb(5, 3, 2)  # q = R(3;2,1) - 1 = 5
    assert code_lb == 10  # ceil(125 / 13)
    db = hamming_to_ramsey_lb(3, 2, 1, N=3, d=2, table=table, code_lb=code_lb)
    assert db.target == (3, 6, 2)
    assert db.kind == "lower"
    assert db.value == code_lb + 1 == 11
    assert reevaluate(db)
    js = db.to_json()
    assert js["target"] == [3, 6, 2] and js["value"] == 11


def test_hamming_to_ramsey_lb_validation(table):
    with pytest.raises(ValueError):
        hamming_to_ramsey_lb(3, 2, 2, N=3, d=2, table=table, code_lb=5)
    with pytest.raises(ValueError):
        hamming_to_ramsey_lb(3, 2, 1, N=3, d=2, table=table, code_lb=0)
    with pytest.raises(ValueError):
        hamming_to_ramsey_lb(3, 2, 1, N=2, d=3, table=table, code_lb=5)


def test_code_bounds_are_capped_where_codes_end(table):
    # Singleton: A_5(2, 2) <= 5
    assert hamming_to_ramsey_lb(3, 2, 1, N=2, d=2, table=table,
                                code_lb=5).value == 6
    with pytest.raises(ValueError):
        hamming_to_ramsey_lb(3, 2, 1, N=2, d=2, table=table, code_lb=6)
    assert hamming_to_ramsey_lb(3, 2, 1, N=40, d=1, table=table,
                                code_lb=5 ** 40).value == 5 ** 40 + 1
    with pytest.raises(ValueError):
        hamming_to_ramsey_lb(3, 2, 1, N=40, d=1, table=table,
                             code_lb=5 ** 40 + 1)
    # 5^(10^9) has ~2.3e9 bits; the cap never computes it
    assert hamming_to_ramsey_lb(3, 2, 1, N=10 ** 9, d=1, table=table,
                                code_lb=5 ** 40).value == 5 ** 40 + 1
    # sphere packing at d = 3: 125 // V(1) = 125 // 13 = 9
    params = make_params(5, (1, 1, 1), (1, 1, 1))
    assert srk_to_ramsey_lb(params, d=3, k=3, a=2, b=1, table=table,
                            srk_lb=9).value == 10
    for srk_lb in (0, 10):
        with pytest.raises(ValueError):
            srk_to_ramsey_lb(params, d=3, k=3, a=2, b=1, table=table,
                             srk_lb=srk_lb)


def test_reevaluate_detects_tampering(table):
    db = hamming_to_ramsey_lb(3, 2, 1, N=3, d=2, table=table, code_lb=3)
    assert reevaluate(db)
    db.derivation[0]["output"] += 1
    assert not reevaluate(db)


def test_srk_to_ramsey_lb(table):
    # q^m = 5 with q = 5, m = 1, matching R(3;2,1) - 1
    params = make_params(5, (1, 1, 1), (1, 1, 1))
    lb = bounds.gv_lower(params, 2)
    db = srk_to_ramsey_lb(params, d=2, k=3, a=2, b=1, table=table, srk_lb=lb)
    assert db.target == (3, 6, 2)
    assert db.value == lb + 1
    assert len(db.derivation) == 2
    assert db.derivation[1]["rule"] == "ramsey-exponential-cap"
    assert reevaluate(db)
    assert any("exponential cap" in f for f in db.flags)


def test_srk_to_ramsey_lb_field_mismatch(table):
    params = make_params(4, (1, 1, 1), (1, 1, 1))  # q^m = 4 != 5
    with pytest.raises(TableError):
        srk_to_ramsey_lb(params, d=2, k=3, a=2, b=1, table=table, srk_lb=2)


def test_srk_to_ramsey_inconsistency_flag(table):
    params = make_params(5, (1, 1, 1), (1, 1, 1))
    cfg = ChainConfig(c_prime=1e-6)
    db = srk_to_ramsey_lb(params, d=2, k=3, a=2, b=1, table=table,
                          srk_lb=25, config=cfg)
    assert any("inconsistent" in f for f in db.flags)


@pytest.mark.parametrize("c_prime,inconsistent", [(0.04, True),
                                                  (0.045, False)])
def test_inconsistency_flag_past_the_float_range(table, c_prime,
                                                 inconsistent):
    # r = 1000, s = 2: the cap is 2^1071.6 at c' = 0.04 and 2^1205.5 at
    # c' = 0.045, both past the float range, around the code bound 2^1100
    params = make_params(5, (1,) * 500, (1,) * 500)
    db = srk_to_ramsey_lb(params, d=2, k=3, a=2, b=1, table=table,
                          srk_lb=2 ** 1100,
                          config=ChainConfig(c_prime=c_prime))
    assert db.derivation[1]["output"] == math.inf
    assert reevaluate(db)
    assert any("inconsistent" in f for f in db.flags) == inconsistent


def test_exponential_cap_value(table):
    params = make_params(5, (1, 1, 1), (1, 1, 1))
    db = srk_to_ramsey_lb(params, d=2, k=3, a=2, b=1, table=table, srk_lb=3)
    cap_step = db.derivation[1]
    r, s = 6, 2
    expect = 2.0 ** (1.0 * 3 * (r - s) ** 2 / r
                     * math.log(r / min(s, r - s)) / math.log(2.0))
    assert cap_step["output"] == expect  # bit-exact replay contract


def test_ramsey_upper_from_srk():
    params = make_params(2, (1, 1, 1, 1), (1, 1, 1, 1))
    cfg = ChainConfig(eps=0.5, c=1.0)
    # j = (1 - 1/2)*8 - 4 + 1 = 1, effective distance 4 - 1*1 = 3
    db = ramsey_upper_from_srk(params, t=8, d=4, config=cfg,
                               srk_value_fn=lambda p, d: bounds.gv_lower(p, d))
    assert db.kind == "upper"
    assert db.target == (3, 8, 4)  # q^{m'} + 1 = 3
    assert db.derivation[0]["inputs"]["d_effective"] == 3
    assert reevaluate(db)
    assert any("conditional" in f for f in db.flags)


def test_ramsey_upper_preconditions():
    params = make_params(2, (1, 1), (1, 1))
    cfg = ChainConfig(eps=0.5, c=1.0)
    with pytest.raises(ValueError):
        # d above the zero-rate threshold
        ramsey_upper_from_srk(params, t=4, d=3, config=cfg,
                              srk_value_fn=lambda p, d: 1)


def test_zero_rate_instance_check():
    params = make_params(2, (1, 1, 1), (1, 1, 1))
    rep = zero_rate_instance_check(params, k=3, j=1)
    assert rep["j_condition_holds"]  # 1 * 1 <= 3 * 2
    assert rep["distance"] == pytest.approx(1.0)  # (1/2) * (3 - 1)
    assert rep["status"] == "ok"
    assert rep["exact_A"] == 8  # d = 1 means the whole space
    rep2 = zero_rate_instance_check(params, k=2, j=2)
    assert not rep2["j_condition_holds"]  # 4 * 1 > 3 * 1
    assert rep2["status"] == "precondition failed"


def test_zero_rate_instance_past_the_vertex_budget():
    # GF(2)^13: 8192 vertices, above the default vertex budget of 4096
    params = make_params(2, (1,) * 13, (1,) * 13)
    rep = zero_rate_instance_check(params, k=13, j=12)
    assert rep["distance_ceiled"] == 1
    assert rep["exact_A"] == 8192   # d = 1 needs no graph
    rep = zero_rate_instance_check(params, k=13, j=10)
    assert rep["distance_ceiled"] == 2
    assert rep["exact_A"] == ("not computed (|V| = 8192 exceeds vertex "
                              f"budget {graphlab.DEFAULT_MAX_VERTICES})")


def test_zero_rate_instance_exact_alpha():
    params = make_params(2, (1, 1, 1, 1), (1, 1, 1, 1))
    rep = zero_rate_instance_check(params, k=4, j=1)
    # distance (1/2) * 3 = 1.5 -> ceiled to 2
    assert rep["distance_was_fractional"]
    assert rep["distance_ceiled"] == 2
    assert rep["exact_A"] == 8  # even-weight code is optimal at d = 2


@pytest.mark.parametrize("field,value", [
    ("lo", 6.7), ("hi", 6.0), ("k", "3"), ("r", True), ("s", None)])
def test_table_rejects_non_integer_fields(field, value):
    entry = {"k": 3, "r": 2, "s": 1, "lo": 6, "hi": 6}
    entry[field] = value
    with pytest.raises(ValueError, match=field):
        RamseyTable.from_json({"entries": [entry]})
