"""Command-line surface: parameter parsing, sweeps, report emission, and
the verification-suite runner.

Exit codes: 0 success, 1 computational failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys

from .gf import BudgetError, FieldError, factor_prime_power
from .space import (_check_ints, _check_keys, _is_int, code_to_json,
                    make_params, save_code)
from . import bounds, counting, graphlab, ramsey, verify

USAGE_ERROR = 2
COMPUTE_ERROR = 1


def _parse_int_list(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _budget(text: str) -> int:
    """A --max-* value: an integer >= 0 (0 admits no work)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"a budget must be >= 0, got {value}")
    return value


def _check_field_order(q: int):
    """Exit with a usage error unless q is a prime power (``count`` and
    ``qtable``; ``make_params`` checks the order of a space)."""
    try:
        factor_prime_power(q)
    except FieldError as exc:
        raise SystemExit(_usage(f"bad field order: {exc}"))


def _params_from_args(args):
    try:
        return make_params(args.q, args.n, args.m)
    except ValueError as exc:
        hint = ""
        if "m_i >= n_i" in str(exc):
            hint = " (the space assumes every m_i >= n_i; swap n and m?)"
        raise SystemExit(_usage(f"bad parameters: {exc}{hint}"))


def _spec_from_args(args):
    params = _params_from_args(args)
    try:
        return graphlab.PowerGraphSpec(params, args.k)
    except ValueError as exc:
        raise SystemExit(_usage(f"bad parameters: {exc}"))


def _usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return USAGE_ERROR


def _add_params_args(sp, with_k=True):
    sp.add_argument("-q", type=int, required=True, help="field order (prime power)")
    sp.add_argument("-n", type=_parse_int_list, required=True,
                    help="comma-separated row counts, e.g. 2,1,1")
    sp.add_argument("-m", type=_parse_int_list, required=True,
                    help="comma-separated column counts, e.g. 2,2,2")
    if with_k:
        sp.add_argument("-k", type=int, required=True, help="radius / graph power")


BUDGETS = ("max_vertices", "max_ball", "max_nodes")


def _add_budget_args(sp, *names):
    """One --max-* option for each budget the subcommand reads."""
    for name in names:
        sp.add_argument("--" + name.replace("_", "-"), type=_budget,
                        default=getattr(graphlab, "DEFAULT_" + name.upper()))


def cmd_volume(args) -> int:
    params = _params_from_args(args)
    if args.k < 0:
        return _usage("radius must be nonnegative")
    print(counting.ball_volume(params, args.k))
    return 0


def cmd_count(args) -> int:
    _check_field_order(args.q)
    try:
        print(counting.count_rank_matrices(args.rows, args.cols, args.r, args.q))
    except ValueError as exc:
        return _usage(str(exc))
    return 0


def cmd_qtable(args) -> int:
    _check_field_order(args.q)
    if args.n < 0:
        return _usage("n must be nonnegative")
    for k, value in enumerate(counting.gaussian_column(args.n, args.q)):
        print(k, value)
    return 0


def cmd_graph_stats(args) -> int:
    stats = graphlab.graph_stats(_spec_from_args(args), args.max_ball)
    print(json.dumps(stats.to_json(), sort_keys=True))
    return 0


def cmd_alpha(args) -> int:
    size, witness = graphlab.max_independent_set(
        _spec_from_args(args), args.max_vertices, args.max_nodes)
    print(size)
    if args.out:
        save_code(witness, args.out)
    return 0


def cmd_partition(args) -> int:
    spec = _spec_from_args(args)
    classes = graphlab.greedy_partition(spec, args.max_vertices, args.order)
    sizes = [len(c) for c in classes]
    print(json.dumps({"num_classes": len(classes), "sizes": sizes,
                      "avg_size": spec.params.size() / len(classes)}))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump([code_to_json(c) for c in classes], fh, indent=1,
                      sort_keys=True)
    return 0


def cmd_gv(args) -> int:
    params = _params_from_args(args)
    if args.d < 1:
        return _usage("distance must be at least 1")
    print(bounds.gv_lower(params, args.d))
    return 0


def _distances(ds):
    """ds; ValueError unless "all" or a list of ints >= 1 (bools are not)."""
    if ds != "all" and not (isinstance(ds, list) and all(
            _is_int(d) and d >= 1 for d in ds)):
        raise ValueError(f"d is {ds!r}, not 'all' or a list of integers >= 1")
    return ds


def _config_instance(inst, default_d):
    """(params, distances) of one sweep-config instance; ValueError unless
    its keys are among q, n, m and d, q is an int, n and m are lists of
    ints and d passes ``_distances``."""
    if not isinstance(inst, dict):
        raise ValueError(f"instance {inst!r} is not an object")
    _check_keys(inst, ("q", "n", "m", "d"), "instance")
    _check_ints(inst, ("q",), ("n", "m"))
    return (make_params(inst["q"], inst["n"], inst["m"]),
            _distances(inst.get("d", default_d)))


def _sweep_from_config(args):
    budgets = {name: getattr(args, name) for name in BUDGETS}
    if not args.config:
        budgets["max_nodes"] = min(budgets["max_nodes"],
                                   verify.SWEEP_MAX_NODES)
        return verify.default_walk(), budgets
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config must be an object, got {cfg!r}")
    _check_keys(cfg, ("instances", "budgets", "d"), "config")
    given = cfg.get("budgets", {})
    if not isinstance(given, dict):
        raise ValueError(f"budgets must be an object, got {given!r}")
    for key, value in given.items():
        if key not in budgets:
            raise ValueError(f"unknown budget {key!r}; "
                             f"choose from {sorted(budgets)}")
        if not _is_int(value) or value < 0:
            raise ValueError(f"budget {key!r} is {value!r}, "
                             "not an integer >= 0")
        budgets[key] = value
    if not isinstance(cfg["instances"], list):
        raise ValueError(f"instances must be a list, got {cfg['instances']!r}")
    default_d = _distances(cfg.get("d", "all"))
    instances = [_config_instance(inst, default_d)
                 for inst in cfg["instances"]]
    return bounds.sweep_walk(instances), budgets


def cmd_report(args) -> int:
    try:
        walk, budgets = _sweep_from_config(args)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        return _usage(f"bad sweep config: {exc}")
    reports = [None] * len(walk)
    for i, params, d in walk:
        reports[i] = bounds.bound_report(params, d, **budgets)
    with (open(args.out, "w", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        if args.format == "json":
            out.write(json.dumps([r.to_json() for r in reports], indent=1,
                                 sort_keys=True) + "\n")
        else:
            writer = csv.DictWriter(out, bounds.BoundReport.CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(r.to_row() for r in reports)
    return 0


def cmd_verify(args) -> int:
    names = sorted(verify.SUITES) if args.suite == "all" else [args.suite]
    if any(n not in verify.SUITES for n in names):
        return _usage(f"unknown suite {args.suite!r}; "
                      f"choose from {sorted(verify.SUITES)} or 'all'")
    failed = False
    for name in names:
        rep = verify.SUITES[name]()
        status = "pass" if rep["ok"] else "FAIL"
        print(f"{name}: {status} ({rep['checked']} checks)")
        if not rep["ok"]:
            print(json.dumps(rep["counterexample"], default=str, indent=1))
            failed = True
    return COMPUTE_ERROR if failed else 0


def _load_chain(path) -> dict:
    """The chain object of a chain file, its config read into a
    ``ChainConfig``; ValueError unless its integer fields are ints, n and
    m are lists of ints and its config maps ``ChainConfig`` fields to
    numbers that the config accepts."""
    with open(path) as fh:
        chain = json.load(fh)
    if not isinstance(chain, dict):
        raise ValueError(f"chain must be an object, got {chain!r}")
    _check_ints(chain, ("k", "a", "b", "N", "d", "q", "t", "j", "code_lb",
                        "srk_lb"), ("n", "m"))
    cfg = chain.get("config", {})
    fields = {f.name for f in dataclasses.fields(ramsey.ChainConfig)}
    if not (isinstance(cfg, dict) and all(
            key in fields and isinstance(value, (int, float))
            and not isinstance(value, bool) for key, value in cfg.items())):
        raise ValueError(f"config is {cfg!r}, not an object of numbers "
                         f"keyed by {sorted(fields)}")
    chain["config"] = ramsey.ChainConfig(**cfg)
    return chain


def _run_ramsey_chain(chain: dict, table: ramsey.RamseyTable, args):
    kind = chain["chain"]
    cfg = chain["config"]
    if kind == "hamming":
        k, a, b, N, d = (chain[x] for x in ("k", "a", "b", "N", "d"))
        code_lb = chain.get("code_lb")
        if code_lb is None:
            q = table.exact(k, a, b) - 1
            code_lb = ramsey.hamming_gv_code_lb(q, N, d)
        return ramsey.hamming_to_ramsey_lb(k, a, b, N, d, table, code_lb)
    if kind not in ("srk", "zero-rate-upper", "zero-rate-check"):
        raise ValueError(f"unknown chain kind {kind!r}")
    params = make_params(chain["q"], chain["n"], chain["m"])
    if kind == "srk":
        d, k, a, b = (chain[x] for x in ("d", "k", "a", "b"))
        srk_lb = chain.get("srk_lb")
        if srk_lb is None:
            srk_lb = bounds.gv_lower(params, d)
        return ramsey.srk_to_ramsey_lb(params, d, k, a, b, table, srk_lb, cfg)
    if kind == "zero-rate-upper":
        return ramsey.ramsey_upper_from_srk(
            params, chain["t"], chain["d"], cfg,
            lambda p, d: graphlab.code_size(p, d, args.max_vertices,
                                            args.max_nodes))
    return ramsey.zero_rate_instance_check(
        params, chain["k"], chain["j"], args.max_vertices, args.max_nodes)


def cmd_ramsey(args) -> int:
    try:
        chain = _load_chain(args.chain_file)
        table = ramsey.RamseyTable.load(args.table_file)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        return _usage(f"bad input file: {exc}")
    try:
        result = _run_ramsey_chain(chain, table, args)
    except (ramsey.TableError, KeyError, ValueError) as exc:
        return _usage(f"chain does not apply: {exc}")
    payload = result.to_json() if isinstance(result, ramsey.DerivedBound) else result
    if isinstance(result, ramsey.DerivedBound) and not ramsey.reevaluate(result):
        print("error: derivation replay mismatch", file=sys.stderr)
        return COMPUTE_ERROR
    print(json.dumps(payload, sort_keys=True, default=str))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="srklab",
        description="Exact workbench for sum-rank-metric codes, their Cayley "
                    "power graphs, GV-type bounds, and Ramsey chains.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("volume", help="ball volume V(k)")
    _add_params_args(sp)
    sp.set_defaults(func=cmd_volume)

    sp = sub.add_parser("count", help="number of rank-r matrices")
    sp.add_argument("-q", type=int, required=True)
    sp.add_argument("-n", dest="rows", type=int, required=True)
    sp.add_argument("-m", dest="cols", type=int, required=True)
    sp.add_argument("-r", type=int, required=True)
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("qtable", help="Gaussian binomial column")
    sp.add_argument("-q", type=int, required=True)
    sp.add_argument("-n", type=int, required=True)
    sp.set_defaults(func=cmd_qtable)

    sp = sub.add_parser("graph-stats", help="exact |V|, D, T, Delta, eps*")
    _add_params_args(sp)
    _add_budget_args(sp, "max_ball")
    sp.set_defaults(func=cmd_graph_stats)

    sp = sub.add_parser("alpha", help="exact independence number + witness")
    _add_params_args(sp)
    _add_budget_args(sp, "max_vertices", "max_nodes")
    sp.add_argument("-o", "--out", help="write witness code JSON here")
    sp.set_defaults(func=cmd_alpha)

    sp = sub.add_parser("partition", help="greedy partition into codes")
    _add_params_args(sp)
    _add_budget_args(sp, "max_vertices")
    sp.add_argument("--order", choices=["lex", "weight-then-lex"], default="lex")
    sp.add_argument("-o", "--out", help="write classes JSON here")
    sp.set_defaults(func=cmd_partition)

    sp = sub.add_parser("gv", help="Gilbert-Varshamov lower bound")
    _add_params_args(sp, with_k=False)
    sp.add_argument("-d", type=int, required=True)
    sp.set_defaults(func=cmd_gv)

    sp = sub.add_parser("report", help="bound comparison table over a sweep")
    _add_budget_args(sp, *BUDGETS)
    sp.add_argument("--config", help="sweep config JSON (default: built-in sweep)")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--out", help="output path (default: stdout)")
    sp.set_defaults(func=cmd_report)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("suite", help="suite name or 'all'")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("ramsey", help="evaluate a Ramsey inequality chain")
    sp.add_argument("chain_file")
    sp.add_argument("table_file")
    _add_budget_args(sp, "max_vertices", "max_nodes")
    sp.set_defaults(func=cmd_ramsey)

    return ap


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # print exact ints whole
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        rc = args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return COMPUTE_ERROR
    except Exception as exc:  # computational failure, not a usage error
        print(f"error: {exc}", file=sys.stderr)
        return COMPUTE_ERROR
    return rc


if __name__ == "__main__":
    sys.exit(main())
