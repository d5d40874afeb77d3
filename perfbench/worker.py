"""One pass of a benchmark workload in a fresh, single-threaded interpreter.

    python3 perfbench/worker.py INPUTS_JSON SPAWNED MODE [TRACE_OUT]

runs from the root of a checkout and imports srklab from its ``src``.
SPAWNED is the parent's CLOCK_MONOTONIC reading when it started this
process, so ``setup_s`` covers interpreter start, ``import srklab`` and
``benchwork.setup``.  MODE is ``setup`` (set up and exit), ``run`` (one
pass) or ``trace`` (one pass with spans, written to TRACE_OUT).  The last
line of standard output is a JSON object with the measurements.
"""

import json
import os
import resource
import sys
import time


def main(argv) -> int:
    inputs_path, spawned, mode = argv[1], float(argv[2]), argv[3]
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import srklab
    if not os.path.abspath(srklab.__file__).startswith(src + os.sep):
        print(f"srklab imported from {srklab.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import benchwork
    import spantrace

    tracer = None
    if mode == "trace":
        tracer = spantrace.Tracer()
        tracer.install(srklab)
    with open(inputs_path) as fh:
        inputs = json.load(fh)
    benchwork.setup(inputs)
    result = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - spawned}
    if mode != "setup":
        t0, c0 = time.perf_counter(), time.process_time()
        result.update(benchwork.run_pass(inputs))
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - c0
    if tracer is not None:
        with open(argv[4], "w") as fh:
            json.dump(tracer.dump(), fh)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": sys.modules["numpy"].__version__}
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
