"""Regenerate the seed reference outputs and work counts in
perfbench/reference/ from the program in ``src``.

    python3 perfbench/make_reference.py

Run it from the root of a checkout of the commit whose outputs are the
reference.  Each workload runs once untraced (outputs) and once traced
(work counts), with its items in canonical order.  The GF(257) stats item
fails at the reference commit (q > 256 overflows a uint8 table), so its
reference is the closed form for the Hamming graph H(2, 257).
"""

import json
import os
import sys

import benchwork
import run
import spantrace


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    from srklab import verify

    sweep = verify.default_sweep()
    seed_refs = {
        "sweep": {"rows": [{"q": p.q, "n": "|".join(map(str, p.n)),
                            "m": "|".join(map(str, p.m)), "d": d}
                           for p in sweep
                           for d in range(2, p.max_weight + 2)]},
        "stats": {"items": {}},
        "verify": {"suites": {name: {} for name in sorted(verify.SUITES)}},
    }
    outdir = os.path.join(run.HERE, "reference")
    for workload in benchwork.WORKLOADS:
        workdir = os.path.join(run.HERE, "out", workload)
        os.makedirs(workdir, exist_ok=True)
        inputs = benchwork.make_inputs(workload, 0, seed_refs[workload],
                                       workdir, shuffle=False)
        inputs_path = os.path.join(workdir, "inputs.json")
        with open(inputs_path, "w") as fh:
            json.dump(inputs, fh)
        trace_path = os.path.join(workdir, "trace-reference.json")
        plain = run.spawn([inputs_path, "run"], run.RUN_CAP_S)
        traced = run.spawn([inputs_path, "trace", trace_path], run.RUN_CAP_S)
        if plain["status"] != "ok" or traced["status"] != "ok":
            print(f"{workload}: worker failed: {plain} {traced}",
                  file=sys.stderr)
            return 1
        ref = {}
        if workload == "sweep":
            ref["rows"] = json.loads(plain["stdout"])
        elif workload == "stats":
            ref["items"] = {}
            for item in plain["items"]:
                if item["name"] == benchwork.graph_item_name(
                        257, (1, 1), (1, 1), 1):
                    out = benchwork.closed_form_hamming_stats(257, 2)
                elif item["rc"] == 0:
                    out = json.loads(item["stdout"])
                else:
                    print(f"stats item {item['name']} failed: "
                          f"{item['stderr']}", file=sys.stderr)
                    return 1
                ref["items"][item["name"]] = out
        else:
            ref["suites"] = {}
            for item in plain["items"]:
                rep = item["report"]
                if rep is None or not rep["ok"]:
                    print(f"suite {item['name']} failed", file=sys.stderr)
                    return 1
                ref["suites"][item["name"]] = {
                    "checked": rep["checked"],
                    "alpha_solved": rep.get("alpha_solved", 0)}
            ref["mis_attempts"] = sum(p.max_weight for p in sweep
                                      if p.size() <= 1024)
        with open(trace_path) as fh:
            metrics = spantrace.layer_metrics(json.load(fh),
                                              sorted(verify.SUITES))
        ref["counts"] = spantrace.work_counts(metrics)
        with open(os.path.join(outdir, f"{workload}.json"), "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: reference written "
              f"({plain['wall_s']:.1f} s untraced, "
              f"{traced['wall_s']:.1f} s traced)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
