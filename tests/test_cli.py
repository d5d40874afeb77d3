import argparse
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

import srklab
from srklab import bounds, cli, counting, graphlab, ramsey
from srklab.cli import build_parser, main
from srklab.space import code_from_json, make_params, min_distance


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_volume(capsys):
    rc, out, _ = run(capsys, "volume", "-q", "2", "-n", "2", "-m", "2", "-k", "1")
    assert rc == 0 and out.strip() == "10"


def test_count(capsys):
    rc, out, _ = run(capsys, "count", "-q", "2", "-n", "2", "-m", "2", "-r", "1")
    assert rc == 0 and out.strip() == "9"


def test_qtable(capsys):
    rc, out, _ = run(capsys, "qtable", "-q", "2", "-n", "4")
    assert rc == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert rows[2] == ["2", "35"]
    assert len(rows) == 5


def test_qtable_negative_n_is_usage_error(capsys):
    rc, out, err = run(capsys, "qtable", "-q", "2", "-n", "-1")
    assert rc == 2 and out == "" and err.startswith("error: ")


def test_graph_stats(capsys):
    rc, out, _ = run(capsys, "graph-stats", "-q", "2", "-n", "1,1,1",
                     "-m", "1,1,1", "-k", "2")
    assert rc == 0
    stats = json.loads(out)
    assert stats == {"num_vertices": 8, "D": 6, "T": 12, "Delta": 32,
                     "eps_star": stats["eps_star"]}
    assert stats["eps_star"] == pytest.approx(0.6131471927654584)


def test_alpha_with_witness(capsys, tmp_path):
    path = tmp_path / "witness.json"
    rc, out, _ = run(capsys, "alpha", "-q", "2", "-n", "2", "-m", "2",
                     "-k", "1", "-o", str(path))
    assert rc == 0 and out.strip() == "4"
    code = code_from_json(json.loads(path.read_text()))
    assert len(code) == 4
    assert min_distance(code) >= 2


def test_alpha_with_a_refused_witness_writes_no_file(capsys, tmp_path,
                                                    monkeypatch):
    monkeypatch.setattr(graphlab, "min_distance", lambda *codes: 1)
    path = tmp_path / "witness.json"
    rc, out, err = run(capsys, "alpha", "-q", "2", "-n", "2", "-m", "2",
                       "-k", "1", "-o", str(path))
    assert rc == 1 and out == ""
    assert "distance contract" in err
    assert not path.exists()


def test_partition_with_a_refused_class_writes_no_file(capsys, tmp_path,
                                                       monkeypatch):
    monkeypatch.setattr(graphlab, "min_distance", lambda *codes: 1)
    path = tmp_path / "classes.json"
    rc, out, err = run(capsys, "partition", "-q", "2", "-n", "1,1,1",
                       "-m", "1,1,1", "-k", "1", "-o", str(path))
    assert rc == 1 and out == ""
    assert "distance contract" in err
    assert not path.exists()


def test_partition(capsys):
    rc, out, _ = run(capsys, "partition", "-q", "2", "-n", "1,1,1",
                     "-m", "1,1,1", "-k", "1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["num_classes"] == 2
    assert sorted(payload["sizes"]) == [4, 4]


# SHA-256 of what ``alpha`` prints, of the file of ``alpha -o`` and of the
# files of ``partition -o`` in lex and in weight-then-lex order, per
# (q, n, m, k): a change to the graph layer that moves one witness word or
# one class member changes a digest.
_PINNED = {
    ("2", "2", "2", "1"): (
        "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d",
        "a626287c5575662146cbcb738bd604fc46f9841ab799e3852b17047ecd7edd43",
        "df3d2313fccefda7611885270806f403b46a985e936f49f987b9d7f706afa1b7",
        "d54fb579e841268948eaf9d6a09b9b4c0a384a2c8eda57df849066de99438628"),
    ("2", "3", "3", "1"): (
        "913f5d1da2feaf4deeccc9e55cbb350a20f12b3f507e87be85dbb77fdd3cb9bc",
        "eeca3d2518e0b5eb192b053e23cadb0eebc25745329333eb13e09bdd2d73e334",
        "576d8070d4e1ac278c118351a771674359dc8594b01daf443fc1bac115b224f4",
        "4198c79c9ed9ad4095219c2632e340f9189652f3a17f2463cd757868dad195db"),
    ("2", "3", "4", "1"): (
        "f16c302d5d30e1d3fbe955cf4f637f58a871adeba597922e3baad0aeeb13f656",
        "b793eb9fe22904fa06b1e868fb758d4cf5d121f30d970d2128a53a6981fb0012",
        "df84347f1ec951f25fab4dc1d50da39bd69c40f45f75c9b6aafbe7e212debceb",
        "8869d2e63a03cb6f8dd2bd9d3ca6970287f33434b4a4a1f33036546372cee3b0"),
    ("2", "1,2", "2,2", "1"): (
        "e6c21e8d260fe71882debdb339d2402a2ca7648529bc2303f48649bce0380017",
        "3aada5606f4f44b321884ceb9a56a98b46ab7f820f216a84e4566190eeaf370e",
        "9e03cf0d71eec85510f8dd63209d78aabfa08b30cc6aec8775e36b5b39f913f0",
        "4fc336ba7faa4d0ba80252cd3208195824e5d40c950fa71ffe197ab8c0eb3413"),
    ("2", "2,2", "2,2", "2"): (
        "2e6d31a5983a91251bfae5aefa1c0a19d8ba3cf601d0e8a706b4cfa9661a6b8a",
        "477f221c77740d97a4e9b6128233ef814caac3c2991af659fa02fa645eff8eab",
        "ce8d140c9e30efbaea599e3ed7554e3b4ce5fba7db9406ebca8669841491712f",
        "226fdfe85910b31ecd168065f101042f6d35eac674143377b132d448e6106002"),
    ("2", "1,1,1,1,1,1,1", "1,1,1,1,1,1,1", "2"): (
        "e6c21e8d260fe71882debdb339d2402a2ca7648529bc2303f48649bce0380017",
        "d14f1e73881dd06decc8ea42edb0c26071e660c8299bec0761aef2a7311ae5ac",
        "92024b309e19f4d58f8dcde2f1762b4eb8ec5aad0ce95bdee8fd87127e7ec435",
        "92024b309e19f4d58f8dcde2f1762b4eb8ec5aad0ce95bdee8fd87127e7ec435"),
    ("3", "1,1,1,1,1", "1,1,1,1,1", "2"): (
        "7ee29791fc17e986b97128845622b077fb45e349fdb80523fac9dba879b4ad60",
        "fcd85a831e2d59fa6aa8e6dd4b98f103c1e8c2e5ec2f9c79f3f5d0c407cacfa8",
        "4f4554287f4cf10c01fbaa19688394594e13fbd3982e654ec128f6c184281fe4",
        "beb51a28901f6b79190f9cfaa306c1ae839de822da8d8297b0375e67d5cc1105"),
    ("3", "1,1", "2,2", "1"): (
        "2e6d31a5983a91251bfae5aefa1c0a19d8ba3cf601d0e8a706b4cfa9661a6b8a",
        "5325c7210efbd59b537d6dffc004cd70ddcb7a83979bb8df03bdee2b17fb5121",
        "18a0ace7ea6eb6fbfe57074a70caeff786cff8708a687e06097edc9ee07c8fcf",
        "18a0ace7ea6eb6fbfe57074a70caeff786cff8708a687e06097edc9ee07c8fcf"),
    ("4", "1,1", "2,2", "1"): (
        "e6c21e8d260fe71882debdb339d2402a2ca7648529bc2303f48649bce0380017",
        "b0f3ead2d6e1dbb8c8ad90bb29e18fe027bca166eec39eb203b6bd1ca59ef2ab",
        "16e97ddef2d8e65c8ed429d1cbc2979e294bc7091b764085b0997a1d003d9f81",
        "16e97ddef2d8e65c8ed429d1cbc2979e294bc7091b764085b0997a1d003d9f81"),
}


@pytest.mark.parametrize("q,n,m,k", list(_PINNED))
def test_alpha_and_partition_outputs_are_pinned(capsys, tmp_path, q, n, m, k):
    spec = ["-q", q, "-n", n, "-m", m, "-k", k]
    witness, lex, weight = (tmp_path / name for name in
                            ("alpha.json", "lex.json", "weight.json"))
    rc, out, _ = run(capsys, "alpha", *spec, "-o", str(witness))
    assert rc == 0
    for path, order in ((lex, "lex"), (weight, "weight-then-lex")):
        assert run(capsys, "partition", *spec, "--order", order,
                   "-o", str(path))[0] == 0
    digests = [hashlib.sha256(data).hexdigest() for data in
               (out.encode(), *(p.read_bytes() for p in (witness, lex,
                                                        weight)))]
    assert digests == list(_PINNED[q, n, m, k])


def test_gv(capsys):
    rc, out, _ = run(capsys, "gv", "-q", "2", "-n", "2", "-m", "2", "-d", "2")
    assert rc == 0 and out.strip() == "2"


def test_bad_field_order_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "volume", "-q", "6", "-n", "1", "-m", "1", "-k", "1")
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["count", "-q", "6", "-n", "2", "-m", "2", "-r", "1"],
    ["qtable", "-q", "6", "-n", "3"],
    ["qtable", "-q", "1", "-n", "3"],
    ["graph-stats", "-q", "2", "-n", "1,1", "-m", "1,1", "-k", "0"],
    ["alpha", "-q", "2", "-n", "1,1", "-m", "1,1", "-k", "0"],
    ["partition", "-q", "2", "-n", "1,1", "-m", "1,1", "-k", "0"],
])
def test_bad_field_order_or_power_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")


_BIG_PRIME = 10 ** 18 + 3   # no factor up to 2^20, above 2^40


def test_a_huge_field_order_is_refused_at_once(capsys, tmp_path):
    """Refused by the size check before any factoring: a space's order in
    an option, a sweep config and a chain file each exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(["graph-stats", "-q", str(_BIG_PRIME), "-n", "1", "-m", "1",
              "-k", "1"])
    assert exc.value.code == 2
    assert "exceeds 65536" in capsys.readouterr().err
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(
        {"instances": [{"q": _BIG_PRIME, "n": [1], "m": [1]}]}))
    rc, out, err = run(capsys, "report", "--config", str(cfg_path))
    assert rc == 2 and out == "" and "exceeds 65536" in err
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps({**_SRK, "q": _BIG_PRIME}))
    rc, out, err = run(capsys, "ramsey", str(chain_path),
                       str(_write_table(tmp_path)))
    assert rc == 2 and out == "" and "exceeds 65536" in err


@pytest.mark.parametrize("q,count", [
    (4294967311, 4294967310), (2 ** 64, 2 ** 64 - 1)])
def test_count_takes_a_prime_power_above_the_field_limit(capsys, q, count):
    assert run(capsys, "count", "-q", str(q), "-n", "1", "-m", "1",
               "-r", "1") == (0, f"{count}\n", "")


@pytest.mark.parametrize("cmd", [["count", "-n", "1", "-m", "1", "-r", "1"],
                                 ["qtable", "-n", "2"]])
def test_count_refuses_an_order_it_cannot_certify(capsys, cmd):
    with pytest.raises(SystemExit) as exc:
        main([cmd[0], "-q", str(_BIG_PRIME), *cmd[1:]])
    assert exc.value.code == 2
    assert "cannot certify" in capsys.readouterr().err


def test_swapped_nm_hint(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["volume", "-q", "2", "-n", "3", "-m", "2", "-k", "1"])
    assert exc.value.code == 2
    assert "swap n and m" in capsys.readouterr().err


def test_budget_exceeded_is_compute_error(capsys):
    rc, _, err = run(capsys, "alpha", "-q", "2", "-n", "3,3", "-m", "3,3",
                     "-k", "1", "--max-vertices", "1024")
    assert rc == 1
    assert "budget exceeded" in err


def test_solver_budget_is_compute_error(capsys):
    rc, _, err = run(capsys, "alpha", "-q", "2", "-n", "1,2", "-m", "2,2",
                     "-k", "1", "--max-nodes", "0")
    assert rc == 1
    assert "budget exceeded" in err


_CUBE = ["-q", "2", "-n", "1,1,1", "-m", "1,1,1", "-k", "1"]


@pytest.mark.parametrize("argv,flag", [
    (["graph-stats", *_CUBE], "--max-vertices"),
    (["graph-stats", *_CUBE], "--max-nodes"),
    (["alpha", *_CUBE], "--max-ball"),
    (["partition", *_CUBE], "--max-ball"),
    (["partition", *_CUBE], "--max-nodes"),
    (["ramsey", "chain.json", "table.json"], "--max-ball"),
])
def test_a_budget_the_command_does_not_read_is_a_usage_error(capsys, argv,
                                                             flag):
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag,value", [
    (["alpha", "-q", "2", "-n", "2", "-m", "2", "-k", "1"], "--max-nodes",
     "-5"),
    (["partition", *_CUBE], "--max-vertices", "-1"),
    (["graph-stats", *_CUBE], "--max-ball", "-3"),
])
def test_a_negative_budget_is_a_usage_error(capsys, argv, flag, value):
    """A negative budget is refused as a usage error (exit 2), not run
    into a budget error (exit 1); zero stays a valid budget."""
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    assert f"a budget must be >= 0, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flags", [
    (["graph-stats", *_CUBE], ["--max-ball"]),
    (["alpha", *_CUBE], ["--max-vertices", "--max-nodes"]),
    (["partition", *_CUBE], ["--max-vertices"]),
    (["report"], ["--max-vertices", "--max-ball", "--max-nodes"]),
    (["ramsey", "chain.json", "table.json"], ["--max-vertices", "--max-nodes"]),
])
def test_each_command_parses_the_budgets_it_reads(argv, flags):
    extra = [x for i, f in enumerate(flags) for x in (f, str(7 + i))]
    args = build_parser().parse_args(argv + extra)
    assert [getattr(args, f[2:].replace("-", "_")) for f in flags] == \
        list(range(7, 7 + len(flags)))


def test_budget_flags_still_bound_graph_stats_and_partition(capsys):
    # the cube's ball of radius 1 holds 4 vectors; its space has 8
    rc, _, err = run(capsys, "graph-stats", *_CUBE, "--max-ball", "3")
    assert rc == 1 and "budget exceeded" in err
    rc, out, _ = run(capsys, "graph-stats", *_CUBE, "--max-ball", "4")
    assert rc == 0 and json.loads(out)["D"] == 3
    rc, _, err = run(capsys, "partition", *_CUBE, "--max-vertices", "7")
    assert rc == 1 and "budget exceeded" in err
    rc, out, _ = run(capsys, "partition", *_CUBE, "--max-vertices", "8")
    assert rc == 0 and json.loads(out)["num_classes"] == 2


def test_one_parser_dispatches_each_subcommand_by_name(capsys, monkeypatch):
    """The parser is built once per process; each subcommand names a
    callable ``cmd_<name>`` ("-" read as "_"), which ``main`` looks up at
    call time, so a handler rebound after a first call is the one run."""
    parser = build_parser()
    assert parser is build_parser()
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    assert len(sub.choices) == 10
    for name in sub.choices:
        assert callable(getattr(cli, "cmd_" + name.replace("-", "_")))
    gv = ["gv", "-q", "2", "-n", "2", "-m", "2", "-d", "2"]
    assert run(capsys, *gv)[:2] == (0, "2\n")
    monkeypatch.setattr(cli, "cmd_gv", lambda args: print("stand-in", args.d) or 7)
    assert run(capsys, *gv)[:2] == (7, "stand-in 2\n")


def test_the_shared_parser_keeps_no_state_between_calls(capsys):
    count = ["count", "-q", "2", "-n", "2", "-m", "2", "-r", "1"]
    assert run(capsys, *count) == (0, "9\n", "")
    for argv in ([], ["bogus"], ["alpha"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()
    rc, _, err = run(capsys, "graph-stats", *_CUBE, "--max-ball", "3")
    assert rc == 1 and "budget exceeded" in err
    # a budget given once is not the next call's default
    rc, out, _ = run(capsys, "graph-stats", *_CUBE)
    assert rc == 0 and json.loads(out)["D"] == 3
    assert run(capsys, *count) == (0, "9\n", "")


def test_report_with_config_csv(capsys, tmp_path):
    cfg = {"instances": [{"q": 2, "n": [1, 1, 1], "m": [1, 1, 1], "d": [2, 3]},
                         {"q": 2, "n": [2], "m": [2], "d": [2]}]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    rc, out, _ = run(capsys, "report", "--config", str(cfg_path))
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    cube_d2 = rows[0]
    assert (cube_d2["V"], cube_d2["gv"], cube_d2["alpha"]) == ("8", "2", "4")
    assert int(cube_d2["gv"]) <= int(cube_d2["greedy"]) <= int(cube_d2["alpha"])
    sq = rows[2]
    assert (sq["q"], sq["n"], sq["m"], sq["alpha"]) == ("2", "2", "2", "4")


def test_report_json_to_file(capsys, tmp_path):
    cfg = {"instances": [{"q": 3, "n": [1, 1], "m": [1, 1], "d": [2]}]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "report.json"
    rc, _, _ = run(capsys, "report", "--config", str(cfg_path),
                   "--format", "json", "--out", str(out_path))
    assert rc == 0
    payload = json.loads(out_path.read_text())
    assert len(payload) == 1
    assert payload[0]["V"] == 9
    assert payload[0]["alpha"] == 3  # MDS-like: q^{t-d+1}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_out_writes_the_bytes_of_stdout(capsys, tmp_path, fmt):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"instances": [
        {"q": 2, "n": [1, 1, 1], "m": [1, 1, 1], "d": [2, 3]}]}))
    rc, out, _ = run(capsys, "report", "--config", str(cfg_path),
                     "--format", fmt)
    out_path = tmp_path / f"report.{fmt}"
    rc2, printed, _ = run(capsys, "report", "--config", str(cfg_path),
                          "--format", fmt, "--out", str(out_path))
    assert rc == rc2 == 0 and printed == "" and out.count("\n") > 2
    assert out_path.read_bytes() == out.encode()


def _report_rows(capsys, monkeypatch, *argv) -> tuple:
    """The rows of ``report --format json`` and the number of balls it
    enumerated."""
    builds = []
    enumerate_ball = graphlab._enumerate_ball
    monkeypatch.setattr(graphlab, "_enumerate_ball", lambda params, radius: (
        builds.append(radius), enumerate_ball(params, radius))[1])
    graphlab._tables.cache_clear()
    rc, out, _ = run(capsys, "report", "--format", "json", *argv)
    assert rc == 0
    return json.loads(out), len(builds)


def test_a_report_builds_one_ball_per_space(capsys, monkeypatch, tmp_path):
    """The default report and the same 76 rows shuffled in a config each
    enumerate 26 balls, one per space, and give the same rows."""
    rows, builds = _report_rows(capsys, monkeypatch)
    assert len(rows) == 76 and builds == 26
    order = [(r["q"], r["n"], r["m"], r["d"]) for r in rows]
    random.Random(5).shuffle(order)
    cfg = {"instances": [{"q": q, "n": [int(x) for x in n.split("|")],
                          "m": [int(x) for x in m.split("|")], "d": [d]}
                         for q, n, m, d in order],
           "budgets": {"max_nodes": 200_000}}
    path = tmp_path / "shuffled.json"
    path.write_text(json.dumps(cfg))
    shuffled, builds = _report_rows(capsys, monkeypatch, "--config", str(path))
    assert builds == 26
    assert [(r["q"], r["n"], r["m"], r["d"]) for r in shuffled] == order
    key = {(r["q"], r["n"], r["m"], r["d"]): r for r in rows}
    assert all(key[r["q"], r["n"], r["m"], r["d"]] == r for r in shuffled)
    graphlab._tables.cache_clear()


def test_a_report_labels_only_the_coballs_it_branches_on(capsys,
                                                         monkeypatch):
    """Outside the balls, the exact search labels only the co-ball of 0 of
    a space whose search branches: a default report labels two, the 29
    vectors of weight >= 5 in GF(2)^7 and the 144 of weight >= 3 in GF(2)
    (2,2)x(2,2)."""
    labelled = []
    profile_classes = graphlab._profile_classes

    def counted(params, digits):
        if digits is not getattr(graphlab._tables(params), "rows", None):
            labelled.append((params.describe(), len(digits)))
        return profile_classes(params, digits)

    monkeypatch.setattr(graphlab, "_profile_classes", counted)
    graphlab._tables.cache_clear()
    rc, out, _ = run(capsys, "report", "--format", "json")
    assert rc == 0 and len(json.loads(out)) == 76
    assert labelled == [("q=2 n=(1,1,1,1,1,1,1) m=(1,1,1,1,1,1,1)", 29),
                        ("q=2 n=(2,2) m=(2,2)", 144)]
    graphlab._tables.cache_clear()


def test_report_bad_config(capsys, tmp_path):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{not json")
    rc, _, err = run(capsys, "report", "--config", str(cfg_path))
    assert rc == 2
    assert "bad sweep config" in err


def test_verify_single_suite(capsys):
    rc, out, _ = run(capsys, "verify", "rank-distribution")
    assert rc == 0
    assert out.startswith("rank-distribution: pass")


def test_verify_unknown_suite(capsys):
    rc, _, err = run(capsys, "verify", "no-such-suite")
    assert rc == 2
    assert "unknown suite" in err


def _write_table(tmp_path):
    table = {"entries": [
        {"k": 3, "r": 2, "s": 1, "lo": 6, "hi": 6, "source": "classical"}]}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    return path


def test_ramsey_hamming_chain(capsys, tmp_path):
    table_path = _write_table(tmp_path)
    chain = {"chain": "hamming", "k": 3, "a": 2, "b": 1, "N": 3, "d": 2}
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(chain))
    rc, out, _ = run(capsys, "ramsey", str(chain_path), str(table_path))
    assert rc == 0
    payload = json.loads(out)
    assert payload["target"] == [3, 6, 2]
    assert payload["kind"] == "lower"
    assert payload["value"] == 11  # GV gives 10, chain adds one


def test_ramsey_chain_determinism(capsys, tmp_path):
    table_path = _write_table(tmp_path)
    chain = {"chain": "srk", "q": 5, "n": [1, 1, 1], "m": [1, 1, 1],
             "d": 2, "k": 3, "a": 2, "b": 1}
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(chain))
    outs = [run(capsys, "ramsey", str(chain_path), str(table_path))
            for _ in range(2)]
    assert outs[0] == outs[1]
    assert outs[0][0] == 0


def test_ramsey_inapplicable_chain(capsys, tmp_path):
    table_path = _write_table(tmp_path)
    chain = {"chain": "srk", "q": 4, "n": [1, 1, 1], "m": [1, 1, 1],
             "d": 2, "k": 3, "a": 2, "b": 1}  # q^m = 4 != 5
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(chain))
    rc, _, err = run(capsys, "ramsey", str(chain_path), str(table_path))
    assert rc == 2
    assert "chain does not apply" in err


def test_ramsey_zero_rate_check(capsys, tmp_path):
    table_path = _write_table(tmp_path)
    chain = {"chain": "zero-rate-check", "q": 2, "n": [1, 1, 1],
             "m": [1, 1, 1], "k": 3, "j": 1}
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(chain))
    rc, out, _ = run(capsys, "ramsey", str(chain_path), str(table_path))
    assert rc == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["exact_A"] == 8


_HAMMING = {"chain": "hamming", "k": 3, "a": 2, "b": 1, "N": 3, "d": 2}
# q^m = 5 = R(3;2,1) - 1, so this chain applies to the test table
_SRK = {"chain": "srk", "q": 5, "n": [1, 1, 1], "m": [1, 1, 1], "d": 2,
        "k": 3, "a": 2, "b": 1}
_ZERO_RATE = {"chain": "zero-rate-upper", "q": 2, "n": [1] * 6,
              "m": [1] * 6, "t": 6, "d": 2}


@pytest.mark.parametrize("chain", [
    [1, 2],
    "hamming",
    {**_HAMMING, "N": True},
    {**_HAMMING, "N": "2"},
    {**_HAMMING, "N": [1, 2]},
    {**_HAMMING, "code_lb": 1.5},
    {**_HAMMING, "code_lb": False},
    {**_SRK, "srk_lb": 2.5},
    {**_ZERO_RATE, "n": "111111"},
    {**_ZERO_RATE, "m": [1, 1, 1, 1, 1, 1.0]},
    {**_ZERO_RATE, "t": 6.0},
    {**_ZERO_RATE, "config": {"c": 0.5, "gamma": 1}},
    {**_ZERO_RATE, "config": {"c": "0.5"}},
    {**_ZERO_RATE, "config": {"c": True}},
    {**_ZERO_RATE, "config": [["c", 0.5]]},
    {**_ZERO_RATE, "config": {"eps": float("nan")}},
    {**_ZERO_RATE, "config": {"c": float("inf")}},
    {**_SRK, "config": {"log_base": 1}},
    {**_SRK, "config": {"c_prime": float("inf")}},
    {**_HAMMING, "config": {"log_base": 0}},
])
def test_malformed_ramsey_chain_is_usage_error(capsys, tmp_path, chain):
    table_path = _write_table(tmp_path)
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(chain))
    rc, out, err = run(capsys, "ramsey", str(chain_path), str(table_path))
    assert rc == 2 and out == ""
    assert "bad input file" in err


@pytest.mark.parametrize("chain", [
    # |V| = 125 and d = 2: the sphere-packing bound is 125 words
    {**_SRK, "srk_lb": 1000},
    {**_SRK, "srk_lb": -3},
    # A_5(2, 2) <= 5, the Singleton bound
    {**_HAMMING, "N": 2, "code_lb": 1000},
    {**_HAMMING, "N": 2, "code_lb": 0},
])
def test_ramsey_chain_refuses_a_code_bound_no_code_reaches(capsys, tmp_path,
                                                          chain):
    table_path = _write_table(tmp_path)
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(chain))
    rc, out, err = run(capsys, "ramsey", str(chain_path), str(table_path))
    assert rc == 2 and out == ""
    assert "chain does not apply" in err


@pytest.mark.parametrize("table", [
    {"entries": 5},
    {},
    [1],
    {"entries": [5]},
    {"entries": [{"k": 3, "r": 2, "s": 1, "lo": 6}]},
    {"entries": [{"k": 3, "r": 2, "s": 1, "lo": 6, "hi": "6"}]},
    {"entries": [{"k": 3, "r": 2, "s": 1, "lo": 6, "hi": 6, "source": 2}]},
    {"entries": [{"k": 3, "r": 2, "s": 1, "lo": 6, "hi": 6},
                 {"k": 3, "r": 2, "s": 1, "lo": 7, "hi": 7}]},
])
def test_malformed_ramsey_table_is_usage_error(capsys, tmp_path, table):
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(table))
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(_HAMMING))
    rc, out, err = run(capsys, "ramsey", str(chain_path), str(table_path))
    assert rc == 2 and out == ""
    assert "bad input file" in err


@pytest.mark.parametrize("chain,code_value", [
    # d - c*j = 2 - 0.5 * 2 = 1: the whole space, 2^6
    ({**_ZERO_RATE, "config": {"c": 0.5}}, 64),
    # d - c*j = 2 - 0.25 * 5/3, ceiled to 2: A_3(4, 2) = 27
    ({"chain": "zero-rate-upper", "q": 3, "n": [1] * 4, "m": [1] * 4,
      "t": 4, "d": 2, "config": {"c": 0.25}}, 27),
])
def test_ramsey_zero_rate_upper_reads_the_code_size(capsys, tmp_path, chain,
                                                   code_value):
    table_path = _write_table(tmp_path)
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(chain))
    rc, out, _ = run(capsys, "ramsey", str(chain_path), str(table_path))
    assert rc == 0
    payload = json.loads(out)
    assert payload["derivation"][0]["inputs"]["code_value"] == code_value
    assert payload["value"] == 1.5 * code_value


# every answer below has more than the 4,300 digits that CPython prints
# by default; exact integers are printed whole
def test_volume_prints_an_answer_past_the_digit_limit(capsys):
    rc, out, err = run(capsys, "volume", "-q", "2", "-n", "30000",
                       "-m", "30000", "-k", "1")
    assert (rc, err) == (0, "")
    want = counting.ball_volume(make_params(2, (30000,), (30000,)), 1)
    assert out == f"{want}\n" and len(out) > 4301


def test_count_prints_an_answer_past_the_digit_limit(capsys):
    rc, out, err = run(capsys, "count", "-q", "2", "-n", "200", "-m", "200",
                       "-r", "200")
    assert (rc, err) == (0, "")
    assert out == f"{counting.count_rank_matrices(200, 200, 200, 2)}\n"


def test_qtable_prints_answers_past_the_digit_limit(capsys):
    rc, out, err = run(capsys, "qtable", "-q", "2", "-n", "300")
    assert (rc, err) == (0, "")
    assert out == "".join(f"{k} {counting.gaussian_binomial(300, k, 2)}\n"
                          for k in range(301))


def test_report_prints_a_row_past_the_digit_limit(capsys, tmp_path):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(
        {"instances": [{"q": 2, "n": [1], "m": [15000], "d": [2]}]}))
    rc, out, err = run(capsys, "report", "--config", str(cfg_path))
    assert (rc, err) == (0, "")
    p = make_params(2, (1,), (15000,))
    row = next(csv.DictReader(io.StringIO(out)))
    assert (row["V"], row["ball"], row["gv"]) == (
        str(p.size()), str(counting.ball_volume(p, 1)),
        str(bounds.gv_lower(p, 2)))


@pytest.mark.parametrize("chain,value", [
    # 60 blocks: the cap's exponent is ~2,056, past the float range
    ({**_SRK, "n": [1] * 60, "m": [1] * 60},
     bounds.gv_lower(make_params(5, (1,) * 60, (1,) * 60), 2) + 1),
    # d - c*j = 4 - 3 * 1 = 1: the whole space, 2^1100, past the float range
    ({"chain": "zero-rate-upper", "q": 2, "n": [1] * 1100, "m": [1] * 1100,
      "t": 8, "d": 4, "config": {"c": 3.0}}, math.inf),
], ids=["srk", "zero-rate-upper"])
def test_ramsey_float_rules_yield_inf_past_the_float_range(capsys, tmp_path,
                                                           chain, value):
    table_path = _write_table(tmp_path)
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(chain))
    rc, out, err = run(capsys, "ramsey", str(chain_path), str(table_path))
    assert (rc, err) == (0, "")
    payload = json.loads(out)
    assert payload["value"] == value
    assert math.inf in [step["output"] for step in payload["derivation"]]
    assert not any("inconsistent" in f for f in payload["flags"])
    assert ramsey.reevaluate(ramsey.DerivedBound(
        tuple(payload["target"]), payload["kind"], payload["value"],
        payload["derivation"]))


@pytest.mark.parametrize("budgets", [
    {"max_nodez": 10}, {"max_nodes": 1.5}, {"max_ball": "20000"},
    {"max_vertices": True}, [["max_nodes", 10]], {"max_nodes": -1}])
def test_report_bad_budget_is_usage_error(capsys, tmp_path, budgets):
    cfg = {"instances": [{"q": 2, "n": [1], "m": [1], "d": [2]}],
           "budgets": budgets}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    rc, out, err = run(capsys, "report", "--config", str(cfg_path))
    assert rc == 2 and out == ""
    assert "bad sweep config" in err


def test_report_known_budget_is_used(capsys, tmp_path):
    cfg = {"instances": [{"q": 2, "n": [1, 2], "m": [2, 2], "d": [2]}],
           "budgets": {"max_nodes": 0}}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    rc, out, _ = run(capsys, "report", "--config", str(cfg_path),
                     "--format", "json")
    assert rc == 0
    assert json.loads(out)[0]["alpha"] == "not computed"


_REPLAY_SCRIPT = """
import sys
from srklab import cli, ramsey
assert False, "asserts must be stripped"
ramsey.reevaluate = lambda derived: False
sys.exit(cli.main(sys.argv[1:]))
"""


def test_ramsey_replay_mismatch_is_compute_error_under_python_O(tmp_path):
    table_path = _write_table(tmp_path)
    chain = {"chain": "hamming", "k": 3, "a": 2, "b": 1, "N": 3, "d": 2}
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(chain))
    src = str(pathlib.Path(srklab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _REPLAY_SCRIPT, "ramsey",
         str(chain_path), str(table_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "derivation replay mismatch" in proc.stderr


@pytest.mark.parametrize("inst", [
    {"q": 2, "n": [1, 1], "m": [1, 1], "d": [2.7]},
    {"q": 2, "n": [1, 1], "m": [1, 1], "d": [True]},
    {"q": 2, "n": "12", "m": [1, 2]},
    {"q": 2, "n": [1, 1], "m": [1, 1], "d": [0]},
    {"q": 2, "n": [1, 1], "m": [1, 1], "d": 3},
    {"q": 2.0, "n": [1], "m": [1]},
    {"q": True, "n": [1], "m": [1]},
    {"q": 2, "n": [True], "m": [1]},
    {"q": 2, "n": [1], "m": [1.0]},
    {"q": 2, "n": [1], "m": [1], "d": "some"},
    {"q": 6, "n": [1], "m": [1]},
    {"q": 2, "n": [], "m": []},
    [2, [1], [1]],
    {"q": 2, "n": [1, 2], "m": [2, 2], "dd": [2]},
])
def test_report_bad_instance_is_usage_error(capsys, tmp_path, inst):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"instances": [inst]}))
    rc, out, err = run(capsys, "report", "--config", str(cfg_path))
    assert rc == 2 and out == ""
    assert "bad sweep config" in err


@pytest.mark.parametrize("cfg", [
    {"instances": {"q": 2, "n": [1], "m": [1]}},
    {"instances": "all"},
    [{"q": 2, "n": [1], "m": [1]}],
    {"d": [0], "instances": [{"q": 2, "n": [1], "m": [1]}]},
    {"instances": [{"q": 2, "n": [1, 2], "m": [2, 2], "d": [2]}],
     "budget": {"max_nodes": 0}},
    {"instances": [{"q": 2, "n": [1], "m": [1], "d": [2]}], "d": "bogus"},
    {"instances": [], "d": 7},
])
def test_report_bad_config_shape_is_usage_error(capsys, tmp_path, cfg):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    rc, out, err = run(capsys, "report", "--config", str(cfg_path))
    assert rc == 2 and out == ""
    assert "bad sweep config" in err


def test_report_config_d_all_and_top_level_d(capsys, tmp_path):
    cfg = {"d": [3], "instances": [{"q": 2, "n": [1, 1, 1], "m": [1, 1, 1]},
                                   {"q": 2, "n": [1, 1], "m": [1, 1],
                                    "d": "all"}]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    rc, out, _ = run(capsys, "report", "--config", str(cfg_path))
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["n"], r["d"]) for r in rows] == [
        ("1|1|1", "3"), ("1|1", "2"), ("1|1", "3")]
