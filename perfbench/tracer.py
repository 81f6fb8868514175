"""Per-layer tracing from outside the program.

Each layer is a pinclasses module; `_patterns` is labelled `patterns`, since
metric names start with a letter.  `Tracer.install` wraps the public
functions listed in LAYERS once and rebinds that one wrapper wherever the
package holds the original: the defining module and every module that did
``from .x import y``.  A wrapper records a span (name, start, end, parent,
op id), aggregates calls, busy time and self time, and feeds the counters
below.  Constructors get count-only hooks, which record no span.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
from collections import Counter, defaultdict
from math import comb

LAYERS = {
    "pipeline": (
        "describe",
        "amended_G",
        "class_gf",
        "closure_gf",
        "interior_gf",
        "complete_class_gf",
        "finite_closure_gf",
        "growth_rate",
    ),
    "oracle": (
        "enumerate_class_subset",
        "enumerate_class_composition",
        "enumerate_pin_permutations",
    ),
    "classify": (
        "verify_tables",
        "all_pin_words",
        "overcount_series",
        "collision_group",
        "is_decomposable_word",
    ),
    "pinword": ("enumerate_pin_factors", "is_recurrent"),
    "pimap": ("pi_map", "diagram_points", "all_point_quadrants", "point_quadrant"),
    "cperm": (
        "centred_pattern",
        "is_box_indecomposable",
        "box_sum",
        "one_quadrant",
        "subpatterns",
    ),
    "patterns": ("subset_patterns",),
    "series": ("seq", "RatGF.coeffs", "Poly.gcd"),
}

# counter name -> (module, class, method) whose every call is counted
CONSTRUCTOR_COUNTS = {
    "pinword.words_built": ("pinword", "PinWord", "__init__"),
    "cperm.perms_built": ("cperm", "CentredPerm", "__init__"),
    "series.ratgf_built": ("series", "RatGF", "__init__"),
    "series.poly_evals": ("series", "Poly", "__call__"),
}

# Which wrapped functions each workload must call, and which it must never
# call.  A rebinding the tracer missed would otherwise read as "0 s here".
MUST_CALL = {
    "specs": (
        "pipeline.describe",
        "pipeline.amended_G",
        "pipeline.interior_gf",
        "pipeline.complete_class_gf",
        "pipeline.finite_closure_gf",
        "pipeline.growth_rate",
        "classify.overcount_series",
        "classify.is_decomposable_word",
        "pinword.enumerate_pin_factors",
        "pinword.is_recurrent",
        "pimap.pi_map",
        "pimap.diagram_points",
        "cperm.is_box_indecomposable",
        "cperm.one_quadrant",
        "series.seq",
        "series.RatGF.coeffs",
        "series.Poly.gcd",
    ),
    "tables": (
        "classify.verify_tables",
        "classify.all_pin_words",
        "pimap.pi_map",
        "pimap.diagram_points",
        "cperm.centred_pattern",
        "cperm.is_box_indecomposable",
    ),
    "census": (
        "oracle.enumerate_class_subset",
        "oracle.enumerate_class_composition",
        "oracle.enumerate_pin_permutations",
        "patterns.subset_patterns",
        "cperm.box_sum",
        "classify.all_pin_words",
        "pipeline.class_gf",
        "pipeline.complete_class_gf",
    ),
}
MUST_NOT_CALL = {
    "specs": (
        "oracle.enumerate_class_subset",
        "oracle.enumerate_class_composition",
        "oracle.enumerate_pin_permutations",
        "patterns.subset_patterns",
        "cperm.box_sum",
        "classify.verify_tables",
    ),
    "tables": (
        "pipeline.describe",
        "pipeline.amended_G",
        "pipeline.growth_rate",
        "oracle.enumerate_class_subset",
        "oracle.enumerate_class_composition",
        "oracle.enumerate_pin_permutations",
        "patterns.subset_patterns",
        "cperm.box_sum",
        "classify.overcount_series",
        "pinword.enumerate_pin_factors",
        "series.seq",
    ),
    "census": (
        "pipeline.describe",
        "pipeline.interior_gf",
        "pipeline.finite_closure_gf",
        "classify.verify_tables",
    ),
}

ROOT = "cli"  # the span around one whole cli.main call

# Counters fed from call arguments and results, then the constructor counts.
COUNTERS = (
    "pimap.points_placed",
    "patterns.subsets_scanned",
    "patterns.distinct_patterns",
    "patterns.segments_tried",
    "oracle.perms_retained",
    "classify.words_scanned",
) + tuple(CONSTRUCTOR_COUNTS)


def package_modules():
    import pinclasses

    names = [f"pinclasses.{m.name}" for m in pkgutil.iter_modules(pinclasses.__path__)]
    return [pinclasses] + [importlib.import_module(n) for n in names]


class Tracer:
    """Spans and counters of one pass, kept in memory until `write`."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, op, start, end)
        self._stack: list[list] = []  # [id, name, start, child time]
        self._next_id = 0
        self._depth: Counter = Counter()
        self.op = None
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.rebound: dict[str, list[str]] = {}

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._depth[name] += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self._depth[name] -= 1
        if not self._depth[name]:  # outermost call of a recursion: busy time
            self.busy[name] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child
        self.spans.append((sid, parent[0] if parent else None, name, self.op, start, end))

    def run_op(self, op: int, fn, *args):
        """Call fn(*args) as op number `op`, under a root span."""
        self.op = op
        self._enter(ROOT)
        try:
            return fn(*args)
        finally:
            self._exit()

    def _wrap(self, name: str, fn, after=None):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters fed from arguments and results ---------------------------

    def _after_hooks(self) -> dict:
        c = self.counts

        def points(args, pts):
            c["pimap.points_placed"] += len(pts) - 1

        def subsets(args, table):
            n_points, n_max = len(args[0]), args[2]
            c["patterns.segments_tried"] += 1
            c["patterns.subsets_scanned"] += sum(
                comb(n_points - 1, k) for k in range(1, n_max + 1)
            )
            c["patterns.distinct_patterns"] += sum(
                len(table[k]) for k in range(1, n_max + 1)
            )

        def retained(args, census):
            c["oracle.perms_retained"] += sum(census.counts)

        def words(args, result):
            c["classify.words_scanned"] += len(result)

        return {
            "pimap.diagram_points": points,
            "patterns.subset_patterns": subsets,
            "oracle.enumerate_class_subset": retained,
            "oracle.enumerate_class_composition": retained,
            "oracle.enumerate_pin_permutations": retained,
            "classify.all_pin_words": words,
        }

    def _count_only(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every LAYERS function and rebind it across the package."""
        modules = package_modules()
        by_name = {m.__name__.rpartition(".")[2].lstrip("_"): m for m in modules}
        hooks = self._after_hooks()
        for layer, functions in LAYERS.items():
            for qual in functions:
                name = f"{layer}.{qual}"
                owner = by_name[layer]
                if "." in qual:  # a method: rebind on its class
                    cls_name, attr = qual.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, attr, self._wrap(name, cls.__dict__[attr]))
                    self.rebound[name] = [f"{layer}.{cls_name}"]
                    continue
                original = getattr(owner, qual)
                wrapper = self._wrap(name, original, hooks.get(name))
                places = []
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            places.append(f"{module.__name__}.{attr}")
                self.rebound[name] = places
        for counter, (layer, cls_name, attr) in CONSTRUCTOR_COUNTS.items():
            cls = getattr(by_name[layer], cls_name)
            setattr(cls, attr, self._count_only(counter, cls.__dict__[attr]))

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls, busy and self seconds, plus counters."""
        return {
            "calls": dict(self.calls),
            "busy_s": dict(self.busy),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "rebound": self.rebound,
            "spans": len(self.spans),
        }

    def write(self, path, meta: dict) -> None:
        """Write every span, one JSON array per line, after a header line."""
        with open(path, "w", encoding="utf-8") as fh:
            header = {"meta": meta, "columns": ["id", "parent", "name", "op", "start", "end"]}
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(passes: list[dict], statistic) -> dict[str, float]:
    """Per-layer metric values from traced-pass summaries.

    Counts repeat exactly from pass to pass, so the first pass gives them;
    times take `statistic` (the median) over passes.
    """
    calls, counts = passes[0]["calls"], passes[0]["counts"]

    def seconds(kind: str, names) -> float:
        return statistic([sum(p[kind].get(n, 0.0) for n in names) for p in passes])

    out: dict[str, float] = {}
    for layer, functions in LAYERS.items():
        for qual in functions:
            name = f"{layer}.{qual}"
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.busy_s"] = seconds("busy_s", [name])
            out[f"{name}.self_s"] = seconds("self_s", [name])
    for layer, functions in LAYERS.items():
        out[f"{layer}.self_s"] = seconds("self_s", [f"{layer}.{q}" for q in functions])
    out[f"{ROOT}.self_s"] = seconds("self_s", [ROOT])
    for counter in COUNTERS:
        out[counter] = counts.get(counter, 0)
    scanned = counts.get("patterns.subsets_scanned", 0)
    retained = counts.get("oracle.perms_retained", 0)
    specs = calls.get("pipeline.amended_G", 0)
    out["patterns.yield"] = counts.get("patterns.distinct_patterns", 0) / scanned if scanned else 0.0
    out["oracle.box_sums_per_retained"] = calls.get("cperm.box_sum", 0) / retained if retained else 0.0
    out["classify.overcount_series.calls_per_spec"] = (
        calls.get("classify.overcount_series", 0) / specs if specs else 0.0
    )
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("yield", "per_retained")):
        return "ratio"
    if name.endswith("per_spec"):
        return "count/spec"
    return "count"


def coverage_problems(workload: str, calls: dict) -> list[str]:
    """Violations of MUST_CALL / MUST_NOT_CALL for one workload."""
    problems = [
        f"{name} recorded 0 calls on {workload}, which must use it"
        for name in MUST_CALL[workload]
        if not calls.get(name)
    ]
    problems += [
        f"{name} recorded {calls[name]} calls on {workload}, which must not use it"
        for name in MUST_NOT_CALL[workload]
        if calls.get(name)
    ]
    return problems
