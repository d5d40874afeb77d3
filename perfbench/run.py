"""srklab benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload {sweep,stats,verify} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; srklab is imported from ``src``.
Every pass of the workload runs in a fresh single-threaded interpreter
(``worker.py``), one at a time, as a closed loop: the items of a pass are
sent back to back.  With ``--trace 0`` the run starts passes while the next
one is expected to end within S seconds (at least one pass) and reports the
end-to-end metrics of BENCHMARK.json as medians over passes; ``setup_s`` is
the median over the passes' set-ups and extra set-up-only processes.  With
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics, the tracing overhead and whether the work counts repeat
the reference counts.  Both modes check every output against the seed
reference outputs in ``perfbench/reference``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its unit and the machine and run record, which is
also appended to ``perfbench/out/results.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import benchwork
import spantrace

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
# A run is stopped here: a pass still running is killed and its items
# count as failed, so a regressed solver cannot hang the caller.
RUN_CAP_S = 165.0
SETUP_ONLY = 4  # set-up-only processes per untraced run, besides the passes
_KEEP_OUT_OF_WORKER = ("SRK_MAX_VERTICES", "PYTHONPATH")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in _KEEP_OUT_OF_WORKER}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def spawn(cmd_args, timeout: float) -> dict:
    """Run one worker to completion or until ``timeout``; the record
    always has ``status``: ok, killed or crashed."""
    load_before = loadavg()
    t0 = now()
    cmd = [sys.executable, WORKER, cmd_args[0], repr(t0)] + cmd_args[1:]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(timeout, 0.1), env=worker_env())
    except subprocess.TimeoutExpired:
        rec = {"status": "killed", "elapsed_s": now() - t0}
    else:
        lines = proc.stdout.strip().splitlines()
        try:
            rec = json.loads(lines[-1]) if proc.returncode == 0 else None
        except (IndexError, ValueError):
            rec = None
        if isinstance(rec, dict):
            rec["status"] = "ok"
        else:
            rec = {"status": "crashed", "rc": proc.returncode,
                   "stderr": proc.stderr[-2000:]}
        rec["elapsed_s"] = now() - t0
    rec["loadavg_before"], rec["loadavg_after"] = load_before, loadavg()
    return rec


def item_tail(times):
    """The highest percentile with at least ten items beyond it, when that
    lies above the median; otherwise (ten or fewer items beyond the
    median) the slowest item.  Returns (value, label)."""
    xs = sorted(times)
    n = len(xs)
    if n > 20:
        return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f}"
    return xs[-1], "max"


def machine_record(root: str, args) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "commit": git_commit(root),
            "source_sha256": source_digest(os.path.join(root, "src"))}


def git_commit(root: str):
    """HEAD of a git checkout read from .git, or None outside one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for ln in fh:
                    if ln.rstrip().endswith(" " + ref):
                        return ln.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def judge(inputs: dict, passes: list, reference: dict) -> dict:
    """Check every pass; a killed or crashed pass fails all its items."""
    tally = {"attempted": 0, "ok": 0, "budget": 0, "error": 0, "wrong": 0,
             "alpha_solved": [], "budget_stops": [], "problems": []}
    for p in passes:
        if p["status"] == "ok":
            chk = benchwork.check_pass(inputs, p, reference)
            tally["alpha_solved"].append(chk["alpha_solved"])
            tally["budget_stops"].append(chk["budget_stops"])
            outcomes = chk["outcomes"]
        else:
            why = f"pass {p['status']} after {p['elapsed_s']:.1f} s"
            outcomes = [(n, benchwork.ERROR, why)
                        for n in benchwork.item_names(inputs)]
        for name, outcome, why in outcomes:
            tally["attempted"] += 1
            tally[outcome] += 1
            if outcome in (benchwork.ERROR, benchwork.WRONG):
                tally["problems"].append(f"{outcome}: {name}: {why}")
    return tally


def end_to_end(passes: list, setups: list, tally: dict) -> dict:
    done = [p for p in passes if p["status"] == "ok"]
    att = tally["attempted"]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(
            [p.get("wall_s", p["elapsed_s"]) for p in passes]),
        "peak_rss_mb": statistics.median(
            [p["peak_rss_mb"] for p in done] or [0.0]),
        "ok_frac": (att - tally["error"] - tally["wrong"]) / att,
        "answered_frac": tally["ok"] / att,
    }


def item_times(passes: list) -> str:
    """Per-item latency of each completed pass: item count, median and
    tail.  Printed, not part of the result: with 8 to 76 heterogeneous
    items a pass, their run-to-run spread is wider than any bound."""
    out = []
    for p in passes:
        if p["status"] == "ok" and p.get("items"):
            secs = [i["seconds"] for i in p["items"]]
            tail, label = item_tail(secs)
            out.append(f"{len(secs)} items, p50 "
                       f"{statistics.median(secs) * 1e3:.4g} ms, {label} "
                       f"{tail * 1e3:.6g} ms")
    return "; ".join(out) or "-"


def per_layer(untraced: dict, traced: dict, trace_path: str,
              reference: dict, suite_names) -> tuple:
    with open(trace_path) as fh:
        trace = json.load(fh)
    m = spantrace.layer_metrics(trace, suite_names)
    m["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    diffs = spantrace.count_mismatches(spantrace.work_counts(m),
                                       reference["counts"])
    m["trace.counts_match"] = 0 if diffs else 1
    return m, diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=benchwork.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = now()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "srklab", "__init__.py")):
        print("error: run from the root of an srklab checkout "
              "(src/srklab is missing)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    reference = benchwork.load_reference(args.workload)
    workdir = os.path.join(HERE, "out", args.workload)
    os.makedirs(workdir, exist_ok=True)
    inputs = benchwork.make_inputs(args.workload, args.seed, reference,
                                   workdir)
    inputs_path = os.path.join(workdir, "inputs.json")
    with open(inputs_path, "w") as fh:
        json.dump(inputs, fh)
    record = machine_record(root, args)
    record["loadavg_before"] = loadavg()

    def left() -> float:
        return started + RUN_CAP_S - now()

    passes, setups = [], []
    if args.trace:
        trace_path = os.path.join(workdir, f"trace-seed{args.seed}.json")
        passes.append(spawn([inputs_path, "run"], left()))
        if passes[0]["status"] == "ok":
            passes.append(spawn([inputs_path, "trace", trace_path], left()))
    else:
        for _ in range(SETUP_ONLY):
            s = spawn([inputs_path, "setup"], left())
            if s["status"] != "ok":
                passes.append(s)
                break
            setups.append(s["setup_s"])
        window = now()
        while not passes or passes[-1]["status"] == "ok":
            t0 = now()
            passes.append(spawn([inputs_path, "run"], left()))
            if now() - window + (now() - t0) > args.seconds:
                break
    setups += [p["setup_s"] for p in passes if p["status"] == "ok"]
    record["loadavg_after"] = loadavg()
    versions = next((p["versions"] for p in passes if "versions" in p), {})
    record.update(versions)

    tally = judge(inputs, passes, reference)
    failed = tally["error"] + tally["wrong"]
    correct = tally["wrong"] == 0 and any(p["status"] == "ok" for p in passes)
    e2e = end_to_end(passes, setups or [0.0], tally)
    suite_names = sorted(benchwork.load_reference("verify")["suites"])
    if args.trace:
        wanted = spec["per_layer"]
        if len(passes) == 2 and passes[1]["status"] == "ok":
            metrics, diffs = per_layer(passes[0], passes[1], trace_path,
                                       reference, suite_names)
        else:
            metrics, diffs = {m["name"]: 0 for m in wanted}, {}
    else:
        wanted, metrics, diffs = spec["end_to_end"], e2e, {}
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        print(f"error: metrics {sorted(set(names) ^ set(metrics))} do not "
              "match BENCHMARK.json", file=sys.stderr)
        return 2

    n_att = tally["attempted"]
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(passes)} pass(es), {len(setups)} set-up(s)")
    for m in wanted:
        print(f"  {m['name']:<44} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(f"  item times: {item_times(passes)}")
    print(f"  alpha_solved {tally['alpha_solved']}  "
          f"budget_stops {tally['budget_stops']}  "
          f"failed_frac {failed}/{n_att} = {failed / n_att:.4f}")
    for line in tally["problems"][:20]:
        print(f"  {line}")
    for name, (want, got) in diffs.items():
        print(f"  work count {name}: reference {want}, measured {got}")
    record["passes"] = [{k: p.get(k) for k in
                         ("status", "setup_s", "wall_s", "cpu_s", "elapsed_s",
                          "peak_rss_mb", "loadavg_before", "loadavg_after")}
                        for p in passes]
    record["setup_samples"] = setups
    print("record " + json.dumps(record, sort_keys=True))
    result = {"correct": correct, "attempted": n_att, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]} for m in wanted}}
    with open(os.path.join(HERE, "out", "results.jsonl"), "a") as fh:
        fh.write(json.dumps({"record": record, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
