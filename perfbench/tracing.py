"""Spans and counts around altbase's layers, installed from outside the package.

Nothing here is imported by an untraced run.  `install()` wraps each
layer's public functions at every module that binds them (the package
binds names with `from ... import`, so patching only the defining module
would miss most calls), wraps methods on their classes, and returns the
Recorder that holds the spans.

A span is (name, start ns, end ns, parent span, job).  Spans are kept in
flat arrays while the run lasts and written out when it ends; a layer's
self time is its spans' durations minus the durations of their direct
child spans.  Count-only wrappers add a counter and no span, so their time
stays in the enclosing span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name, index of the argument that must be fresh)
FUNCTIONS = (
    ("altbase.cli", "main", "cli.main", None),
    ("altbase.words", "check_parry", "words.check_parry", None),
    ("altbase.words", "parse_word", "words.parse_word", None),
    ("altbase.numerics.polynomials", "faddeev_leverrier", "polynomials.faddeev_leverrier", None),
    ("altbase.numerics.polynomials", "refine_root_bisect", "polynomials.refine_root_bisect", None),
    ("altbase.numerics.polynomials", "isolate_dominant", "polynomials.isolate_dominant", None),
    ("altbase.numerics.polynomials", "sturm_chain", "polynomials.sturm", None),
    ("altbase.numerics.polynomials", "sturm_count", "polynomials.sturm", None),
    ("altbase.numerics.polynomials", "int_poly_gcd", "polynomials.int_poly_gcd", None),
    ("altbase.perron", "periodic_fixed_point", "perron.periodic_fixed_point", None),
    ("altbase.perron", "build_parry_matrices", "perron.build_parry_matrices", None),
    ("altbase.synthesis", "synthesize_periodic", "synthesis.synthesize_periodic", None),
    ("altbase.synthesis", "certify", "synthesis.certify", 1),
    ("altbase.synthesis", "verify_value_one", "synthesis.verify_value_one", 0),
    ("altbase.expansion", "val_up", "expansion.val_up", 0),
    ("altbase.coding", "faithful_coding", "coding.faithful_coding", 0),
    ("altbase.coding", "enumerate_b_integers", "coding.enumerate_b_integers", 0),
    ("altbase.coding", "gap_table", "coding.gap_table", 0),
    ("altbase.coding", "gap_substitution", "coding.gap_substitution", 0),
    ("altbase.coding", "sadic_limit", "coding.sadic_limit", None),
    ("altbase.coding", "base_from_directive", "coding.base_from_directive", None),
)

# (module, class, methods, span name prefix); `self` must be fresh
METHODS = (
    ("altbase.numerics.algebraic", "RealAlgebraicField",
     ("mul", "reduce", "is_zero", "inv", "enclosure", "sign"), "algebraic"),
    ("altbase.perron", "MatrixSeq", ("rotation_product", "primitive_rotation"), "perron"),
    ("altbase.bases", "AlternateBase", ("refine",), "bases.AlternateBase"),
)

# (module, class, methods, counter name)
COUNTED = (
    ("altbase.numerics.intervals", "IntervalReal", ("add", "sub", "mul", "div"),
     "intervals.interval_ops"),
    ("altbase.numerics.intervals", "Dyadic", ("as_fraction",), "intervals.as_fraction"),
    ("altbase.numerics.polynomials", "IntPoly", ("eval_dyadic_sign",),
     "polynomials.eval_dyadic_sign"),
)

# Binding sites that must end up wrapped: "module.attribute".
REQUIRED_SITES = (
    "altbase.perron.faddeev_leverrier",
    "altbase.perron.isolate_dominant",
    "altbase.synthesis.periodic_fixed_point",
    "altbase.coding.periodic_fixed_point",
    "altbase.cli.synthesize_periodic",
    "altbase.cli.certify",
    "altbase.cli.faithful_coding",
    "altbase.cli.check_parry",
    "altbase.synthesis.check_parry",
    "altbase.numerics.algebraic.sturm_chain",
    "altbase.numerics.algebraic.int_poly_gcd",
)

# Objects that hold refinable state; each must live within one job.
FRESH_CLASSES = (
    ("altbase.numerics.algebraic", "RealAlgebraicField"),
    ("altbase.bases", "AlternateBase"),
)

_TAG = "_perfbench_job"


class Recorder:
    """Span arrays, counters and per-job facts of one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.stack = [-1]
        self.job = -1
        self.counts: Counter = Counter()
        self._counts_before: Counter = Counter()
        self.job_counts: dict[int, Counter] = {}
        self.maxima: Counter = Counter()
        self.reused: set[str] = set()
        self.rebound: list[str] = []
        self._job_fields: list = []
        self._job_shifts: set = set()

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def begin_job(self, job: int) -> None:
        self.job = job
        self._counts_before = Counter(self.counts)

    def end_job(self) -> None:
        for field in self._job_fields:
            self._max("algebraic.degree_final_max", field.degree)
        self.counts["coding.gap_table.distinct_shifts"] += len(self._job_shifts)
        self.job_counts[self.job] = self.counts - self._counts_before
        self._job_fields = []
        self._job_shifts = set()
        self.job = -1

    def _max(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def _check_fresh(self, obj, name: str) -> None:
        owner = getattr(obj, _TAG, self.job)
        if owner != self.job:
            self.reused.add(name)

    # -- wrappers ------------------------------------------------------------

    def span(self, fn, name: str, fresh_arg=None, after=None):
        """Wrap fn in a span; `after(args, kwargs, result)` may record counts."""
        nid = self.name_id(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, jobs, stack = self.span_parent, self.span_job, self.stack
        clock = time.perf_counter_ns
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if fresh_arg is not None and len(args) > fresh_arg:
                rec._check_fresh(args[fresh_arg], name)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(rec.job)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counter(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks for derived counts ------------------------------------------------

    def _after_faddeev(self, args, kwargs, result):
        self._max("polynomials.charpoly_degree_max", result[0].degree)

    def _after_fixed_point(self, args, kwargs, result):
        self._max("perron.matrix_k_max", args[0].k)

    def _after_is_zero(self, args, kwargs, result):
        if result:
            self.counts["algebraic.is_zero.true"] += 1

    def _after_enumerate(self, args, kwargs, result):
        self.counts["coding.b_integers"] += len(result)

    def _after_gap_table(self, args, kwargs, result):
        base = args[0]
        m = args[1] if len(args) > 1 else kwargs.get("m", 0)
        self._job_shifts.add((id(base), m % base.p))

    def _fresh_init(self, cls_name, init):
        rec = self

        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            setattr(obj, _TAG, rec.job)
            if cls_name == "RealAlgebraicField":
                rec._max("algebraic.degree_built_max", obj.degree)
                rec._job_fields.append(obj)

        return wrapper

    # -- output -----------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans: a JSON header line, then the five arrays."""
        header = {"names": self.names, "count": len(self.span_start),
                  "arrays": ["name:H", "start:q", "end:q", "parent:i", "job:i"]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_start, self.span_end,
                        self.span_parent, self.span_job):
                arr.tofile(f)


def _rebind(original, wrapper, rec: Recorder) -> None:
    """Point every altbase module attribute bound to `original` at `wrapper`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "altbase" or mod_name.startswith("altbase.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                rec.rebound.append(f"{mod_name}.{attr}")


def install() -> Recorder:
    """Wrap altbase (already imported) and return the recorder."""
    rec = Recorder()
    hooks = {
        "polynomials.faddeev_leverrier": rec._after_faddeev,
        "perron.periodic_fixed_point": rec._after_fixed_point,
        "coding.enumerate_b_integers": rec._after_enumerate,
        "coding.gap_table": rec._after_gap_table,
    }
    for mod_name, attr, name, fresh_arg in FUNCTIONS:
        original = getattr(sys.modules[mod_name], attr)
        _rebind(original, rec.span(original, name, fresh_arg, hooks.get(name)), rec)
    for mod_name, cls_name, methods, prefix in METHODS:
        cls = getattr(sys.modules[mod_name], cls_name)
        for meth in methods:
            after = rec._after_is_zero if (prefix, meth) == ("algebraic", "is_zero") else None
            setattr(cls, meth, rec.span(cls.__dict__[meth], f"{prefix}.{meth}", 0, after))
    for mod_name, cls_name, methods, name in COUNTED:
        cls = getattr(sys.modules[mod_name], cls_name)
        for meth in methods:
            setattr(cls, meth, rec.counter(cls.__dict__[meth], name))
    for mod_name, cls_name in FRESH_CLASSES:
        cls = getattr(sys.modules[mod_name], cls_name)
        cls.__init__ = rec._fresh_init(cls_name, cls.__dict__["__init__"])
    return rec


def missing_sites(rec: Recorder) -> list[str]:
    return [s for s in REQUIRED_SITES if s not in rec.rebound]


def load_spans(path: str):
    """Read a file written by Recorder.dump: (names, five arrays)."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        n = header["count"]
        arrays = []
        for spec in header["arrays"]:
            arr = array(spec.split(":")[1])
            arr.fromfile(f, n)
            arrays.append(arr)
    return header["names"], arrays


def self_times(names, arrays):
    """Per span name: (span count, summed self time in seconds)."""
    span_name, start, end, parent, _ = arrays
    n = len(start)
    child = [0] * n
    for i in range(n):
        par = parent[i]
        if par >= 0:
            child[par] += end[i] - start[i]
    count = [0] * len(names)
    self_ns = [0] * len(names)
    for i in range(n):
        nid = span_name[i]
        count[nid] += 1
        self_ns[nid] += end[i] - start[i] - child[i]
    return {names[k]: (count[k], self_ns[k] / 1e9) for k in range(len(names))}
