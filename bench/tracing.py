"""Spans around the program's layer functions, recorded from outside.

`Tracer.install` replaces each hooked function with a timing wrapper in
every thicken module that imported it (for example thicken.retraction.project
and thicken.complexes.min_enclosing_ball), so calls between layers are
caught where they happen. Spans (name, start, end, parent) stay in memory.
A hook whose function no longer exists is recorded as absent and its
metrics are left out. The wrappers keep one call stack, so the program must
run single-threaded, as it does with its default worker count.
"""
from __future__ import annotations

import statistics
import sys
import time

# span name -> (defining module, function name)
FUNCTIONS = {
    "shapes.project": ("thicken.shapes", "project"),
    "shapes.sample_rng": ("thicken.shapes", "sample_rng"),
    "shapes.distance_to_shape": ("thicken.shapes", "distance_to_shape"),
    "complexes.is_vr_simplex": ("thicken.complexes", "is_vr_simplex"),
    "complexes.is_cech_simplex_ambient": ("thicken.complexes", "is_cech_simplex_ambient"),
    "complexes.is_cech_simplex_intrinsic": ("thicken.complexes", "is_cech_simplex_intrinsic"),
    "complexes.min_enclosing_ball": ("thicken.complexes", "min_enclosing_ball"),
    "transport.wasserstein1": ("thicken.transport", "wasserstein1"),
    "thickening.make_thickening_point": ("thicken.thickening", "make_thickening_point"),
}
EXACT_KERNELS = ("complexes.is_vr_simplex", "complexes.is_cech_simplex_ambient",
                 "complexes.is_cech_simplex_intrinsic")

# lemma checker -> suite; check_cech_simplex_lemma's suite follows its flavor
CELLS = {
    "check_convex_lemma": "Convex",
    "check_vr_tub_lemma": "VrTub",
    "check_vr_simplex_lemma": "VrSimplex",
    "check_cech_radius_lemma": "CechRadius",
    "check_cech_tub_lemma": "CechTub",
    "check_cech_simplex_lemma": None,
    "check_empty_ball": "EmptyBall",
    "check_federer": "FedererLipschitz",
}
CELL = "retraction.cell."

# Per workload: the functions it calls, and the suites its campaigns run.
# Functions a workload never calls are left out; so are the exact VR and
# intrinsic kernels on the campaigns, where the bound shortcuts decide every
# trial (exact_calls_per_op shows it).
REPORTED = {
    "campaign-vr": (("shapes.project", "shapes.sample_rng", "shapes.distance_to_shape"),
                    ("Convex", "VrTub", "VrSimplex", "EmptyBall", "FedererLipschitz")),
    "campaign-cech": (("shapes.project", "shapes.sample_rng", "shapes.distance_to_shape",
                       "complexes.is_cech_simplex_ambient", "complexes.min_enclosing_ball"),
                      ("CechRadius", "CechTub", "CechSimplexAmbient", "CechSimplexIntrinsic")),
    "homotopy": (("shapes.project", "shapes.distance_to_shape", "complexes.is_vr_simplex",
                  "transport.wasserstein1", "thickening.make_thickening_point"), ()),
    "transport-large": (("transport.wasserstein1",), ()),
}


def _cech_suite(args, kwargs):
    flavor = kwargs.get("flavor", args[5] if len(args) > 5 else "ambient")
    return CELL + ("CechSimplexAmbient" if flavor == "ambient" else "CechSimplexIntrinsic")


class Tracer:
    """Spans of the hooked functions, recorded while installed."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.points = 0        # points requested from shapes.sample_rng
        self.absent = []
        self._stack = []
        self._patched = []     # (module, attribute, original)

    def _wrap(self, fn, name=None, name_of=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts_points = name == "shapes.sample_rng"

        def traced(*args, **kwargs):
            span = [name or name_of(args, kwargs), 0.0, 0.0, stack[-1] if stack else -1]
            if counts_points:
                self.points += int(args[1] if len(args) > 1 else kwargs["count"])
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def install(self):
        hooks = [(name, mod, attr, None) for name, (mod, attr) in FUNCTIONS.items()]
        hooks += [(CELL + suite if suite else None, "thicken.retraction", fn,
                   None if suite else _cech_suite) for fn, suite in CELLS.items()]
        modules = [m for k, m in sys.modules.items() if k == "thicken" or k.startswith("thicken.")]
        for name, mod, attr, name_of in hooks:
            fn = getattr(sys.modules.get(mod), attr, None)
            if fn is None:
                self.absent.append(f"{mod}.{attr}")
                continue
            wrapper = self._wrap(fn, name, name_of)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, fn))

    def remove(self):
        for m, key, fn in reversed(self._patched):
            setattr(m, key, fn)
        self._patched.clear()


def summarize(workload: str, tracer: Tracer, ops: int, elapsed: float,
              slowdown: float) -> dict:
    """Per-layer metrics of one traced pass of `ops` operations over `elapsed`
    seconds; `slowdown` is untraced over traced ops/s. {name: (value, unit)}."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_time, cell_times = {}, {}, {}
    cell_total = cell_self = 0.0
    exact = 0
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + (end - start - child[i])
        if name.startswith(CELL):
            cell_times.setdefault(name[len(CELL):], []).append(end - start)
            cell_total += end - start
            cell_self += end - start - child[i]
        elif name in EXACT_KERNELS and parent >= 0 and spans[parent][0].startswith(CELL):
            exact += 1

    out = {}
    functions, suites = REPORTED[workload]
    for name in functions:
        if "%s.%s" % FUNCTIONS[name] in tracer.absent:
            continue
        out[f"{workload}.{name}.calls_per_op"] = (calls.get(name, 0) / ops, "calls/op")
        out[f"{workload}.{name}.self_share"] = (self_time.get(name, 0.0) / elapsed, "share")
    for suite in suites:
        if suite in cell_times:
            out[f"{workload}.retraction.cell_s.{suite}"] = (statistics.median(cell_times[suite]), "s")
    if suites:
        if cell_total:
            out[f"{workload}.retraction.loop_self_share"] = (cell_self / cell_total, "share")
        out[f"{workload}.shapes.sample_rng.points_per_op"] = (tracer.points / ops, "points/op")
        out[f"{workload}.complexes.exact_calls_per_op"] = (exact / ops, "calls/op")
    out[f"{workload}.trace_overhead_pct"] = (100.0 * (slowdown - 1.0), "%")
    return out
