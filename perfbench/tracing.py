"""Per-layer call tracing from outside the program.

`install()` replaces the public functions of each abelint module, and a few
hot methods, with wrappers; `uninstall()` puts the originals back.  A module
that imported a name directly (`from .linalg import solve_linear`) is
patched under that name too, and the call is recorded with that module as
its site, so `division.solve_linear` and `operators.solve_linear` stay
apart.  Only the traced run imports this module.

Spans (name, site, start, end, parent span, job) of the functions in SPANS
are kept in memory and written out by `write_spans`.  The hot arithmetic in
TIMED is timed and counted but not logged, and COUNTED is only counted, so
that memory stays bounded.  Self time is a call's duration minus the time
of the wrapped calls nested in it.  Durations leave out the time the
reference clock's probes took inside the call.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# module -> its public functions that the workloads call
SPANS = {
    "parsing": ["parse_poly", "parse_operator", "parse_complex"],
    "serialize": ["dumps", "loads"],
    "division": ["divide_two_form", "divide_one_form"],
    "linalg": ["solve_linear"],
    "picard_fuchs": ["derive_pfaffian", "restrict_to_pencil", "size_report"],
    "operators": ["reduce_to_scalar", "standard_form", "affine_slope",
                  "pullback", "reflect", "lclm", "symmetrize",
                  "invariant_slope_sampled"],
    "counting": ["count_zeros", "continue_solution", "variation_of_argument",
                 "monodromy", "is_quasiunipotent", "var_arg_bound",
                 "annulus_zero_bound", "count_region_partition"],
    "integrals": ["abelian_integral"],
    "slits": ["build_slits", "is_admissible", "regions"],
    "ratfunc": ["ratfunc_lcm_den"],
    "polynomials": ["poly_lcm"],
}
# (module, class, attributes, layer name)
TIMED = [
    ("polynomials", "MultiPoly", ("__mul__", "__rmul__"), "polynomials.mul"),
    ("polynomials", "MultiPoly", ("gcd",), "polynomials.gcd"),
    ("ratfunc", "RatFunc", ("__init__",), "ratfunc.new"),
]
COUNTED = [
    ("qi", "GaussianRational", ("__mul__", "__rmul__"), "qi.mul"),
    ("operators", "DiffOperator", ("companion_rhs",), "counting.rhs_evals"),
    ("picard_fuchs", "LinearODESystem", ("eval",), "counting.rhs_evals"),
    ("integrals", "LevelCurve", ("project",), "integrals.project"),
]


class Tracer:
    def __init__(self, clock):
        self.clock = clock   # a clock.RefClock; its probe_s is left out
        self.active = False
        self.job = -1
        self.stack = []      # one [child_time, span_id] frame per open call
        self.stats = {}      # (name, site) -> [calls, s, self_s, failed]
        self.depth = {}      # name -> [open calls], for inclusive time
        self.spans = []      # (id, name, site, start, end, parent, job)
        self.next_id = 0
        self._patched = []   # (owner, attribute, original)

    # -- wrappers -----------------------------------------------------------
    def _stat(self, name, site):
        return self.stats.setdefault((name, site), [0, 0.0, 0.0, 0])

    def _timed(self, fn, name, site, log):
        tracer = self
        stat = self._stat(name, site)
        depth = self.depth.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if log:
                span_id = tracer.next_id
                tracer.next_id += 1
            else:
                span_id = parent[1] if parent else -1
            frame = [0.0, span_id]
            stack.append(frame)
            depth[0] += 1
            p0 = tracer.clock.probe_s
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat[3] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[0] -= 1
                d = t1 - t0 - (tracer.clock.probe_s - p0)
                stat[0] += 1
                if depth[0] == 0:         # recursion counts once in `s`
                    stat[1] += d
                stat[2] += d - frame[0]
                if parent is not None:
                    parent[0] += d
                if log:
                    tracer.spans.append((span_id, name, site, t0, t1,
                                         parent[1] if parent else -1, tracer.job))
        return wrapper

    def _counted(self, fn, name):
        tracer = self
        stat = self._stat(name, "")

        def wrapper(*args, **kwargs):
            if tracer.active:
                stat[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- install / remove ---------------------------------------------------
    def install(self):
        mods = {name: importlib.import_module(f"abelint.{name}")
                for name in set(SPANS) | {m for m, *_ in TIMED + COUNTED}}
        users = [m for key, m in sys.modules.items()
                 if key.startswith("abelint.") and m is not None]
        for layer, names in SPANS.items():
            for fname in names:
                orig = getattr(mods[layer], fname)
                for user in users:
                    if user.__dict__.get(fname) is orig:
                        site = user.__name__.rsplit(".", 1)[1]
                        self._patch(user, fname, self._timed(
                            orig, f"{layer}.{fname}", site, log=True))
        for table, timed in ((TIMED, True), (COUNTED, False)):
            for mod, cls_name, attrs, name in table:
                cls = getattr(mods[mod], cls_name)
                raw = cls.__dict__[attrs[0]]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                new = (self._timed(fn, name, mod, log=False) if timed
                       else self._counted(fn, name))
                for attr in attrs:
                    self._patch(cls, attr, staticmethod(new) if is_static else new)

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- results ------------------------------------------------------------
    def totals(self):
        """name -> {calls, s, self_s, failed, sites: {site: calls}}."""
        out = {}
        for (name, site), (calls, s, self_s, failed) in self.stats.items():
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "failed": 0, "sites": {}})
            agg["calls"] += calls
            agg["s"] += s
            agg["self_s"] += self_s
            agg["failed"] += failed
            agg["sites"][site] = agg["sites"].get(site, 0) + calls
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, site, t0, t1, parent, job in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "site": site,
                                     "start": t0, "end": t1, "parent": parent,
                                     "job": job}) + "\n")
