"""In-memory span tracer for the srklab layers, and the per-layer metrics
computed from its spans.

``Tracer.install`` rebinds every public function of the srklab modules to
a timing wrapper in every module namespace that holds it, so names imported
across modules (``graphlab.rank``, ``space.rank``, ``verify.rank``,
``bounds.min_distance``) are wrapped as well.  The program itself is not
edited: all spans are recorded from the benchmark's side of each call.

A span is ``[name, start, end, parent, status, work]``: ``parent`` is the
index of the enclosing span or -1, ``status`` is ``"ok"`` or the name of
the exception the call raised, and ``work`` holds counts read from the
result (rows of a ball, classes of a partition, checks of a suite).
Functions called up to ~10^6 times in one pass (``HOT``) keep a call count
and an aggregate time instead of one span per call; their time stays in
the self time of the span that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

MODULES = ("gf", "space", "counting", "graphlab", "bounds", "ramsey",
           "verify", "cli")

# Called up to ~10^6 times a pass: these keep a call count and an aggregate
# time instead of spans.  A module in HOT_MODULES is one group, so nested
# calls inside it (counting -> counting) are timed once.
HOT = {"gf.rank", "gf.col_space_intersection_dim",
       "gf.row_space_intersection_dim", "space.srk_weight",
       "space.srk_distance", "space.vector_from_index",
       "space.vector_from_digits", "space.f_map"}
HOT_MODULES = {"counting"}

# Classes whose constructor is a layer boundary worth a span.
CLASS_SPANS = (("graphlab", "SpaceTables"),)


def _spec_key(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return f"{spec.params.describe()} k={spec.k}"


# name -> f(args, kwargs, result) -> dict of work counts stored on the span
PROBES = {
    "graphlab.ball_digits": lambda a, kw, r: {"rows": int(r.shape[0])},
    "graphlab.greedy_partition": lambda a, kw, r: {"classes": len(r)},
    "graphlab.adjacency_masks": lambda a, kw, r: {"spec": _spec_key(a, kw)},
}


def _suite_probe(args, kwargs, result):
    return {"checked": int(result["checked"])}


class Tracer:
    """Records spans and hot-call aggregates for one worker process."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans = []
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.suites = {}
        self._open = []
        self._depth = Counter()
        self._wrapped = {}
        self._patched = []

    # -- wrappers --

    def _span_wrapper(self, fn, name, probe):
        spans, stack, clock = self.spans, self._open, self.clock
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, "ok", None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if probe is not None:
                rec[5] = probe(args, kwargs, result)
            return result

        return traced

    def _hot_wrapper(self, fn, name, group):
        calls, seconds, depth, clock = (self.calls, self.seconds, self._depth,
                                        self.clock)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            if depth[group]:
                return fn(*args, **kwargs)
            depth[group] = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[group] += clock() - t0
                depth[group] = 0

        return counted

    def wrap(self, fn, name, probe=None):
        """The traced stand-in for ``fn``; one per function."""
        key = id(fn)
        if key not in self._wrapped:
            module = name.split(".")[0]
            if module in HOT_MODULES or name in HOT:
                group = module if module in HOT_MODULES else name
                w = self._hot_wrapper(fn, name, group)
            else:
                w = self._span_wrapper(fn, name, probe or PROBES.get(name))
            self._wrapped[key] = (fn, w)  # fn kept alive: its id stays unique
        return self._wrapped[key][1]

    # -- installation --

    def install(self, package):
        """Rebind the public functions of ``package``'s layer modules."""
        mods = {m: importlib.import_module(f"{package.__name__}.{m}")
                for m in MODULES}
        # Suites first, so that the wrapper of each suite carries its probe.
        suites = mods["verify"].SUITES
        for key, fn in list(suites.items()):
            name = "verify." + fn.__name__
            self.suites[key] = name
            self._patch(suites, key, self.wrap(fn, name, _suite_probe))
        for mod in mods.values():
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                name = _public_function_name(obj, package.__name__)
                if attr.startswith("_") or name is None:
                    continue
                self._patch(ns, attr, self.wrap(obj, name))
        for mod_name, cls_name in CLASS_SPANS:
            cls = getattr(mods[mod_name], cls_name)
            init = self.wrap(cls.__init__, f"{mod_name}.{cls_name}")
            self._patched.append((cls, "__init__", cls.__init__))
            cls.__init__ = init

    def _patch(self, namespace: dict, key, value):
        self._patched.append((namespace, key, namespace[key]))
        namespace[key] = value

    def uninstall(self):
        """Restore every binding ``install`` replaced."""
        for target, key, original in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "calls": dict(self.calls),
                "seconds": dict(self.seconds), "suites": self.suites}


def _public_function_name(obj, package: str):
    """``module.function`` for a function defined in ``package``, else
    None.  Generator functions are skipped: a wrapper would time only the
    creation of the generator."""
    if isinstance(obj, type) or not callable(obj):
        return None
    module = getattr(obj, "__module__", "") or ""
    if not module.startswith(package + "."):
        return None
    target = getattr(obj, "__wrapped__", obj)
    if inspect.isgeneratorfunction(target):
        return None
    return f"{module.rsplit('.', 1)[1]}.{obj.__name__}"


# -- analysis of a dumped trace --


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _ancestor_names(spans, i):
    p = spans[i][3]
    while p >= 0:
        yield spans[p][0]
        p = spans[p][3]


def outermost_seconds(spans, match) -> float:
    """Wall time inside spans whose name satisfies ``match``, counting
    nested matching spans once."""
    total = 0.0
    for i, s in enumerate(spans):
        if match(s[0]) and not any(match(a) for a in _ancestor_names(spans, i)):
            total += s[2] - s[1]
    return total


def _of(spans, name):
    return [s for s in spans if s[0] == name]


def layer_metrics(trace: dict, suite_names) -> dict:
    """Per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    spans, calls, secs = trace["spans"], trace["calls"], trace["seconds"]
    selfs = self_times(spans)

    def total(name):
        return outermost_seconds(spans, lambda n: n == name)

    def self_sum(match):
        return sum(t for s, t in zip(spans, selfs) if match(s[0]))

    m = {}
    m["gf.field_make.s"] = total("gf.field_make")
    m["gf.rank.calls"] = calls.get("gf.rank", 0)
    m["gf.rank.s"] = secs.get("gf.rank", 0.0)
    m["graphlab.SpaceTables.s"] = total("graphlab.SpaceTables")

    balls = _of(spans, "graphlab.ball_digits")
    m["graphlab.ball_digits.s"] = total("graphlab.ball_digits")
    m["graphlab.ball_digits.rows"] = sum((s[5] or {}).get("rows", 0)
                                         for s in balls)
    m["graphlab.exact_T.s"] = total("graphlab.exact_T")
    pairs = 0
    for i, s in enumerate(spans):
        if s[0] == "graphlab.ball_digits" and s[3] >= 0 \
                and spans[s[3]][0] == "graphlab.exact_T" and s[5]:
            S = s[5]["rows"]
            pairs += S * (S - 1) // 2
    m["graphlab.exact_T.pairs"] = pairs

    mis = _of(spans, "graphlab.max_independent_set")
    stopped = [s for s in mis if s[4] == "SolverBudgetError"]
    mis_s = total("graphlab.max_independent_set")
    stopped_s = sum(s[2] - s[1] for s in stopped)
    m["graphlab.max_independent_set.s"] = mis_s
    m["graphlab.max_independent_set.solved"] = sum(s[4] == "ok" for s in mis)
    m["graphlab.max_independent_set.budget_stops"] = len(stopped)
    m["graphlab.max_independent_set.stopped_s"] = stopped_s
    m["graphlab.max_independent_set.wasted_frac"] = \
        stopped_s / mis_s if mis_s > 0 else 0.0

    masks = _of(spans, "graphlab.adjacency_masks")
    specs = {s[5]["spec"] for s in masks if s[5]}
    m["graphlab.adjacency_masks.calls"] = len(masks)
    m["graphlab.adjacency_masks.s"] = total("graphlab.adjacency_masks")
    m["graphlab.adjacency_masks.builds_per_spec"] = \
        len(masks) / len(specs) if specs else 0.0

    m["graphlab.greedy_gv_code.s"] = total("graphlab.greedy_gv_code")
    m["graphlab.greedy_partition.s"] = total("graphlab.greedy_partition")
    m["graphlab.greedy_partition.classes"] = sum(
        (s[5] or {}).get("classes", 0)
        for s in _of(spans, "graphlab.greedy_partition"))
    m["graphlab.verify_cayley.s"] = total("graphlab.verify_cayley")

    m["space.min_distance.s"] = total("space.min_distance")
    # srk_distance is called only from min_distance, once per pair
    m["space.min_distance.pairs"] = calls.get("space.srk_distance", 0)

    m["counting.calls"] = sum(v for k, v in calls.items()
                              if k.startswith("counting."))
    m["counting.s"] = secs.get("counting", 0.0)
    m["bounds.bound_report.self_s"] = self_sum(
        lambda n: n == "bounds.bound_report")
    m["ramsey.s"] = outermost_seconds(spans, lambda n: n.startswith("ramsey."))

    for key in suite_names:
        name = trace["suites"].get(key)
        runs = _of(spans, name) if name else []
        m[f"verify.{key}.s"] = total(name) if name else 0.0
        m[f"verify.{key}.checked"] = sum((s[5] or {}).get("checked", 0)
                                         for s in runs)
    m["cli.main.self_s"] = self_sum(lambda n: n.startswith("cli."))
    return m


# Per-layer metrics that count work; they must repeat exactly across runs
# and seeds of the same program.
COUNT_SUFFIXES = (".rows", ".pairs", ".calls", ".solved", ".budget_stops",
                  ".checked", ".builds_per_spec", ".classes")


def work_counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}


def count_mismatches(counts: dict, reference: dict) -> dict:
    """name -> (reference, measured) for every count that differs."""
    keys = set(counts) | set(reference)
    return {k: (reference.get(k), counts.get(k)) for k in sorted(keys)
            if counts.get(k) != reference.get(k)}
