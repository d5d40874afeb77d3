"""The three workloads of the srklab benchmark.

* ``sweep``  -- ``srklab report --format json`` through ``cli.main`` on a
  generated ``--config`` holding the 76 rows of ``verify.default_sweep()``
  in seed-shuffled order.  Dominated by the exact MIS search.
* ``stats``  -- single ``graph-stats`` and ``ramsey`` queries through
  ``cli.main`` in seed-shuffled order.  Dominated by ``exact_T``; no MIS.
* ``verify`` -- every suite of ``verify.SUITES`` in ``verify all`` order,
  called in-process; ``suite_marsaglia`` gets the workload seed.

The parent process makes the inputs from the seed (``make_inputs``) and
checks the outputs against the seed reference outputs in ``reference/``
(``check_pass``); a worker process runs one pass (``setup``, ``run_pass``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
import traceback

WORKLOADS = ("sweep", "stats", "verify")
HERE = os.path.dirname(os.path.abspath(__file__))
NOT_COMPUTED = "not computed"
SWEEP_MAX_NODES = 200_000

# (q, n, m, k) of the graph-stats queries: large balls, Hamming-like
# shapes, extension fields, and GF(257), which exposes the q > 256 defect.
_H12 = (1,) * 12
STATS_GRAPHS = [
    (2, (4,), (4,), 2), (3, (3,), (3,), 2), (4, (2,), (3,), 2),
    (2, (2, 2), (4, 4), 2), (2, (3,), (4,), 2),
    (2, _H12, _H12, 2), (2, _H12, _H12, 3), (2, _H12, _H12, 4),
    (8, (1, 1), (2, 2), 1), (9, (2,), (2,), 1), (16, (1, 1), (2, 2), 1),
    (256, (1, 1), (1, 1), 1), (257, (1, 1), (1, 1), 1),
]
RAMSEY_TABLE = {"entries": [{"k": 3, "r": 2, "s": 1, "lo": 6, "hi": 6,
                             "source": "classical"}]}
RAMSEY_CHAINS = {
    "ramsey hamming": {"chain": "hamming", "k": 3, "a": 2, "b": 1, "N": 2,
                       "d": 2},
    "ramsey srk": {"chain": "srk", "q": 5, "n": [1, 1, 1], "m": [1, 1, 1],
                   "d": 2, "k": 3, "a": 2, "b": 1},
}


def _csv(xs) -> str:
    return ",".join(map(str, xs))


def graph_item_name(q, n, m, k) -> str:
    return f"graph-stats q={q} n={_csv(n)} m={_csv(m)} k={k}"


def row_key(row: dict) -> str:
    """Key of a ``report`` JSON row: q, n, m and d."""
    return f"q={row['q']} n={row['n']} m={row['m']} d={row['d']}"


def load_reference(workload: str) -> dict:
    with open(os.path.join(HERE, "reference", f"{workload}.json")) as fh:
        return json.load(fh)


# -- inputs (parent side) --


def make_inputs(workload: str, seed: int, reference: dict, workdir: str,
                shuffle: bool = True) -> dict:
    """The inputs of one run; files the program reads go into ``workdir``.
    The same seed gives the same inputs."""
    rng = random.Random(seed)
    if workload == "sweep":
        rows = [(r["q"], r["n"].split("|"), r["m"].split("|"), r["d"])
                for r in reference["rows"]]
        if shuffle:
            rng.shuffle(rows)
        instances = [{"q": q, "n": [int(x) for x in n],
                      "m": [int(x) for x in m], "d": [d]}
                     for q, n, m, d in rows]
        config = os.path.join(workdir, "sweep.json")
        with open(config, "w") as fh:
            json.dump({"instances": instances,
                       "budgets": {"max_nodes": SWEEP_MAX_NODES}}, fh)
        params = sorted({(i["q"], tuple(i["n"]), tuple(i["m"]))
                         for i in instances})
        return {"workload": workload, "seed": seed,
                "argv": ["report", "--format", "json", "--config", config],
                "rows": [row_key({"q": q, "n": "|".join(n),
                                  "m": "|".join(m), "d": d})
                         for q, n, m, d in rows],
                "params": [list(p) for p in params]}
    if workload == "stats":
        table = os.path.join(workdir, "ramsey-table.json")
        with open(table, "w") as fh:
            json.dump(RAMSEY_TABLE, fh)
        items = []
        for q, n, m, k in STATS_GRAPHS:
            items.append({"name": graph_item_name(q, n, m, k),
                          "argv": ["graph-stats", "-q", str(q), "-n", _csv(n),
                                   "-m", _csv(m), "-k", str(k)],
                          "params": [q, list(n), list(m)]})
        for name, chain in RAMSEY_CHAINS.items():
            path = os.path.join(workdir, name.replace(" ", "-") + ".json")
            with open(path, "w") as fh:
                json.dump(chain, fh)
            items.append({"name": name, "argv": ["ramsey", path, table],
                          "params": None})
        if shuffle:
            rng.shuffle(items)
        return {"workload": workload, "seed": seed, "items": items}
    if workload == "verify":
        return {"workload": workload, "seed": seed,
                "suites": sorted(reference["suites"]),
                "marsaglia_seed": seed}
    raise ValueError(f"unknown workload {workload!r}")


def item_names(inputs: dict) -> list:
    if inputs["workload"] == "sweep":
        return list(inputs["rows"])
    if inputs["workload"] == "stats":
        return [i["name"] for i in inputs["items"]]
    return list(inputs["suites"])


# -- one pass (worker side) --


def setup(inputs: dict) -> None:
    """Build the workload's parameter sets and fields.  Block rank tables
    are left to the pass: a CLI user pays for them on every run."""
    from srklab import make_params, verify
    if inputs["workload"] == "sweep":
        for q, n, m in inputs["params"]:
            make_params(q, n, m)
    elif inputs["workload"] == "stats":
        for item in inputs["items"]:
            if item["params"]:
                make_params(*item["params"])
    else:
        verify.default_sweep()


def _call_cli(argv):
    from srklab import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = -1
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def run_pass(inputs: dict) -> dict:
    """Run every item once; item times come from ``time.perf_counter``."""
    clock = time.perf_counter
    workload = inputs["workload"]
    if workload == "sweep":
        from srklab import bounds
        report = bounds.bound_report
        times = []

        def timed_report(*args, **kwargs):
            t0 = clock()
            try:
                return report(*args, **kwargs)
            finally:
                times.append(clock() - t0)

        bounds.bound_report = timed_report
        try:
            rc, out, err = _call_cli(inputs["argv"])
        finally:
            bounds.bound_report = report
        return {"rc": rc, "stdout": out, "stderr": err,
                "items": [{"name": k, "seconds": t}
                          for k, t in zip(inputs["rows"], times)]}
    if workload == "stats":
        items = []
        for item in inputs["items"]:
            t0 = clock()
            rc, out, err = _call_cli(item["argv"])
            items.append({"name": item["name"], "seconds": clock() - t0,
                          "rc": rc, "stdout": out, "stderr": err})
        return {"items": items}
    from srklab import verify
    items = []
    for name in inputs["suites"]:
        kwargs = {"seed": inputs["marsaglia_seed"]} if name == "marsaglia" else {}
        t0 = clock()
        try:
            rep, error = verify.SUITES[name](**kwargs), None
        except Exception:
            rep, error = None, traceback.format_exc()
        items.append({"name": name, "seconds": clock() - t0,
                      "report": rep, "error": error})
    return {"items": items}


# -- output checks (parent side) --

OK, BUDGET, ERROR, WRONG = "ok", "budget", "error", "wrong"


def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def check_sweep_row(row: dict, ref: dict):
    """(outcome, reason) of one report row against its reference row.
    Every reference cell must be equal, except that an alpha the seed left
    "not computed" may become an integer that is at least the greedy code
    size, and its "exact alpha skipped" note may then go."""
    newly_solved = ref["alpha"] == NOT_COMPUTED and _int(row.get("alpha"))
    for key, want in ref.items():
        got = row.get(key)
        if key == "alpha" and newly_solved:
            if not (_int(row.get("greedy")) and got >= row["greedy"]):
                return WRONG, f"alpha {got} below greedy {row.get('greedy')}"
            continue
        if key == "notes" and newly_solved:
            want = [n for n in want if not n.startswith("exact alpha skipped")]
        if got != want:
            return WRONG, f"{key}: got {got!r}, reference {want!r}"
    return (BUDGET if row.get("alpha") == NOT_COMPUTED else OK), ""


def _graph_identity(out: dict) -> bool:
    return 3 * out["Delta"] == out["T"] * out["num_vertices"]


def check_pass(inputs: dict, result: dict, reference: dict) -> dict:
    """Outcome of every item of one pass, plus the MIS tallies."""
    workload = inputs["workload"]
    outcomes = []
    alpha_solved = budget_stops = 0
    if workload == "sweep":
        names = inputs["rows"]
        refs = {row_key(r): r for r in reference["rows"]}
        rows = None
        if result.get("rc") == 0:
            try:
                rows = json.loads(result["stdout"])
            except ValueError:
                rows = None
        if not isinstance(rows, list) or len(rows) != len(names):
            why = f"report failed (rc {result.get('rc')}): " \
                  f"{result.get('stderr', '')[-300:]}"
            outcomes = [(n, ERROR, why) for n in names]
        else:
            for name, row in zip(names, rows):
                if not isinstance(row, dict) or row_key(row) != name:
                    outcomes.append((name, WRONG, "row out of order"))
                    continue
                outcome, why = check_sweep_row(row, refs[name])
                outcomes.append((name, outcome, why))
                alpha_solved += _int(row.get("alpha"))
                budget_stops += row.get("alpha") == NOT_COMPUTED
    elif workload == "stats":
        for item in result["items"]:
            name, rc = item["name"], item["rc"]
            want = reference["items"][name]
            if rc == 1 and item["stderr"].startswith("budget exceeded"):
                outcomes.append((name, BUDGET, item["stderr"].strip()))
                continue
            if rc != 0:
                outcomes.append((name, ERROR, item["stderr"].strip()[-300:]))
                continue
            try:
                got = json.loads(item["stdout"])
            except ValueError:
                outcomes.append((name, WRONG, "output is not JSON"))
                continue
            bad = [k for k in want if got.get(k) != want[k]]
            if bad:
                outcomes.append((name, WRONG, f"cells differ: {bad}"))
            elif name.startswith("graph-stats") and not _graph_identity(got):
                outcomes.append((name, WRONG, "3*Delta != T*|V|"))
            else:
                outcomes.append((name, OK, ""))
    else:
        refs = reference["suites"]
        for item in result["items"]:
            name, rep = item["name"], item["report"]
            if rep is None:
                outcomes.append((name, ERROR, (item["error"] or "")[-300:]))
                continue
            # gv-chain makes one more check for each extra alpha solved
            want = refs[name]
            got_solved = rep.get("alpha_solved", 0)
            extra_checks = got_solved - want["alpha_solved"]
            if not rep.get("ok"):
                outcomes.append((name, WRONG, "suite not ok"))
            elif extra_checks < 0 \
                    or rep["checked"] != want["checked"] + extra_checks:
                outcomes.append((name, WRONG,
                                 f"checked {rep['checked']}, reference "
                                 f"{want['checked']}"))
            else:
                outcomes.append((name, OK, ""))
            if name == "gv-chain":
                alpha_solved = got_solved
                budget_stops = reference["mis_attempts"] - got_solved
    return {"outcomes": outcomes, "alpha_solved": alpha_solved,
            "budget_stops": budget_stops}


def closed_form_hamming_stats(q: int, t: int) -> dict:
    """graph-stats of GF(q)^t (all blocks 1x1) at k=1: the Hamming graph
    H(t, q).  D = t(q-1), T = t(q-1)(q-2)/2, Delta = T|V|/3."""
    V = q ** t
    D = t * (q - 1)
    T = t * (q - 1) * (q - 2) // 2
    return {"num_vertices": V, "D": D, "T": T, "Delta": T * V // 3,
            "eps_star": 2.0 - math.log(T) / math.log(D)}
