"""The benchmark's workloads: seeded inputs, the jobs that run on them, and
the check of each job's output.

A workload is a list of jobs, one pass.  Every job takes text input through
`parse_poly`, `parse_operator`, `parse_complex` or `loads`, as the command
line does, and returns what a caller would print.  Library functions are
looked up on their modules at call time, so the traced run sees its
wrappers.  Contours keep at least MARGIN from every known zero and singular
point, because a count on a contour through a zero is undefined.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import checks

from abelint import (counting, division, integrals, operators, parsing,
                     picard_fuchs, ratfunc, serialize, slits)

MARGIN = 0.05

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
CIRCLE = "x1^2/2 + x2^2/2"
ELLIPTIC = "x2^2/2 + x1^3 - x1"
CIRCLE_A = {"type": "matrix", "rows": 1, "cols": 1, "data": [[
    {"type": "ratfunc",
     "num": {"type": "poly", "vars": ["t"], "terms": [[[0], "1"]]},
     "den": {"type": "poly", "vars": ["t"], "terms": [[[1], "1"]]}}]]}


@dataclass
class Job:
    """One timed call; `check(out)` returns (ok, info) and is never timed."""
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    info: dict = field(default_factory=dict)


def _num(x: float) -> str:
    """A float as a decimal literal the abelint parser reads exactly."""
    return f"{x:.17f}"


def _cnum(z: complex) -> str:
    sign = "-" if z.imag < 0 else "+"
    return f"{_num(z.real)} {sign} {_num(abs(z.imag))}i"


def _coef(c) -> str:
    """An exact complex coefficient (re, im) of Fractions as parser text."""
    re, im = c
    if im == 0:
        return f"({re})"
    return f"(({re}) + ({im})*i)"


def _circle(center_text, radius):
    return slits.Circle(parsing.parse_complex(center_text), radius)


def _clear(zeros, center, radius):
    return all(abs(abs(z - center) - radius) >= MARGIN for z in zeros)


# ---------------------------------------------------------------------------
# derive: Hamiltonian -> Pfaffian system -> A(t) -> scalar operator


def random_hamiltonian(rng, n=2):
    """Acceptance criterion 01's generator, as text: x1^(n+1) + x2^(n+1)
    plus rational terms of lower degree, each present with probability 1/2."""
    terms = [f"x1^{n + 1}", f"x2^{n + 1}"]
    for a1 in range(n + 1):
        for a2 in range(n + 1 - a1):
            if rng.random() < 0.5:
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                terms.append(f"({c})*x1^{a1}*x2^{a2}")
    return " + ".join(terms)


def _derive(text):
    """`abelint derive-pf --hamiltonian TEXT --pencil 0`, with Q^(s) derived
    for s = (0, 0) only: the pencil restriction reads no other, so A(t) is
    the same as with the default s_list, at a tenth of the cost for n = 2."""
    H0 = parsing.parse_poly(text, ("x1", "x2"))
    H = division.Hamiltonian.from_x_poly(H0)
    system = picard_fuchs.derive_pfaffian(H, s_list=[(0, 0)])
    ode = picard_fuchs.restrict_to_pencil(system, free_term_value=0)
    out = {"n": H.n, "ell": H.ell, "size": picard_fuchs.size_report(system),
           "A": ode.A}
    return system, serialize.dumps(out)


def _load_system(text):
    """X' = A X from JSON holding an 'A' matrix, as `abelint reduce --system`."""
    A = serialize.loads(text)["A"]
    return picard_fuchs.LinearODESystem(A, ratfunc.ratfunc_lcm_den(A.flatten()))


def _reduce(text):
    """`abelint reduce --system FILE`."""
    D = operators.reduce_to_scalar(_load_system(text))
    return serialize.dumps({"order": D.order, "operator": D})


def _check_A(expected):
    def check(out):
        A = json.loads(out[1])["A"]
        return checks.matrix_equal(A, expected), {
            "ell": A["rows"], "t_degree": checks.matrix_t_degree(A)}
    return check


def _check_identities(out):
    system, text = out
    A = json.loads(text)["A"]
    return system.check_identities(), {"ell": A["rows"],
                                       "t_degree": checks.matrix_t_degree(A)}


def _check_circle_operator(out):
    """The operator must kill X(t) = 2 pi t: p0(t) * 1 + p1(t) * t = 0."""
    op = json.loads(out)["operator"]
    cs = [checks.univariate(c) for c in op["coeffs"]]
    ok = len(cs) == 2 and bool(cs[0])
    if ok:
        for k in range(checks.degree(cs[0]) + checks.degree(cs[1]) + 2):
            t = Fraction(k + 1, 3)
            p0, p1 = checks.peval(cs[0], t), checks.peval(cs[1], t)
            ok = ok and (p0[0] + p1[0] * t, p0[1] + p1[1] * t) == (0, 0)
    return ok, {"order": len(cs) - 1, "t_degree": checks.operator_t_degree(op)}


def _check_elliptic_operator(A):
    def check(out):
        op = json.loads(out)["operator"]
        res = checks.scalar_residual(op, A)
        # order and t-degree are fingerprints: a lower order is not a failure
        return res <= 1e-6, {"order": len(op["coeffs"]) - 1,
                             "t_degree": checks.operator_t_degree(op),
                             "residual": res}
    return check


def _annulus(op_text, r_in, r_out, y0_fn):
    """`abelint bound` on an annulus plus the empirical zero count of one
    solution by the argument principle on both boundary circles."""
    D = (serialize.loads(op_text) if op_text.lstrip().startswith("{")
         else parsing.parse_operator(op_text))
    inner, outer = _circle("0", r_in), _circle("0", r_out)
    ab = counting.annulus_zero_bound(D, inner, outer)
    wind = []
    for c in (outer, inner):
        z0 = c.point_at(0.0)
        y0 = np.array([parsing.parse_complex(_cnum(v)) for v in y0_fn(z0)])
        wind.append(counting.count_zeros(D, counting.ContourPath.from_circle(c),
                                         y0=y0))
    return {"bound": ab.value, "order": ab.order, "empirical": wind[0] - wind[1]}


def _check_annulus(r_in, r_out, zeros):
    expected = sum(1 for z in zeros if r_in < abs(z) < r_out)

    def check(out):
        ok = out["empirical"] == expected and out["bound"] >= out["empirical"]
        return ok, {"bounds": [(out["bound"], out["empirical"])],
                    "order": out["order"]}
    return check


def derive(seed):
    """Six CLI calls.  On the circle, `derive-pf`, `reduce` and `bound`, each
    reading the previous call's output as text; `derive-pf` on the elliptic
    and on a seeded n=2 Hamiltonian; `reduce` of the stored elliptic A(t).
    Only the random Hamiltonian depends on the seed.  Sorted by cost, the
    circle's bound is the median job and the elliptic reduction the slowest,
    both fixed inputs."""
    rng = random.Random(seed)
    elliptic_A = checks.load_json(os.path.join(DATA, "elliptic_A.json"))
    elliptic_text = json.dumps({"A": elliptic_A})
    random_text = random_hamiltonian(rng)
    box = {}

    def derive_circle():
        box["system"] = _derive(CIRCLE)
        return box["system"]

    def reduce_circle():
        box["operator"] = _reduce(box["system"][1])
        return box["operator"]

    def bound_circle():
        # the operator just derived; its solutions c t vanish only at 0
        op = json.dumps(json.loads(box["operator"])["operator"])
        return _annulus(op, 0.5, 2.0, lambda z: [z])

    return [
        Job("derive-circle", derive_circle, _check_A(CIRCLE_A)),
        Job("reduce-circle", reduce_circle, _check_circle_operator),
        Job("bound-circle", bound_circle, _check_annulus(0.5, 2.0, [0j])),
        Job("derive-elliptic", lambda: _derive(ELLIPTIC), _check_A(elliptic_A)),
        Job("derive-random", lambda: _derive(random_text), _check_identities,
            {"hamiltonian": random_text}),
        Job("reduce-elliptic", lambda: _reduce(elliptic_text),
            _check_elliptic_operator(elliptic_A)),
    ]


# ---------------------------------------------------------------------------
# bound: certified annulus bounds, invariant slopes, region partitions


SIN_ZEROS = [k * math.pi for k in range(-4, 5)]


def _slope(op_text):
    """`abelint slope --operator TEXT`."""
    rep = operators.invariant_slope_sampled(parsing.parse_operator(op_text))
    return {"affine": rep.affine, "samples": dict(rep.samples),
            "estimate": rep.invariant_estimate}


def _check_slope(out):
    """For a real operator the identity chart across R symmetrizes to the
    operator itself, so that sample equals the affine slope exactly."""
    ok = out["samples"].get("id/R") == out["affine"] and \
        out["estimate"] >= float(out["affine"])
    return ok, {"affine": str(out["affine"]), "samples": len(out["samples"])}


def _partition(offset):
    """Region counts for e^t, a solution of D - 1, on the slit system of
    {a, a + pi}.  An order-one operator keeps the certified bounds of the
    punctured disks cheap; the region machinery does the same work as for
    any operator."""
    pts = [parsing.parse_complex(_num(offset)),
           parsing.parse_complex(_num(offset + math.pi))]
    system = slits.build_slits(pts)
    y0 = np.array([cmath.exp(counting._basepoint(system))])
    return counting.count_region_partition(parsing.parse_operator("D - 1"), system, y0)


def _check_partition(res):
    """e^t has no zeros: every region counts 0, and every certified bound
    is at least that."""
    pairs = [(r["certified_bound"], r["empirical"]) for r in res["regions"]
             if r["certified_bound"] is not None]
    ok = (res["total_bounded_empirical"] == 0 and bool(pairs)
          and all(r["empirical"] == 0 for r in res["regions"])
          and all(b >= 0 for b, _ in pairs))
    return ok, {"bounds": pairs, "regions": len(res["regions"])}


def bound(seed):
    """Three jobs; the median job is the slope and the 95th percentile the
    annulus bound."""
    offset = random.Random(seed).uniform(0.28, 0.32)
    return [
        Job("partition-exp", lambda: _partition(offset), _check_partition,
            {"offset": offset}),
        Job("slope-readme", lambda: _slope("(t^2-1)*D^2 + t*D - 1"), _check_slope),
        Job("annulus-sin", lambda: _annulus("D^2 + 1", 0.5, 4.0,
                                            lambda z: [cmath.sin(z), cmath.cos(z)]),
            _check_annulus(0.5, 4.0, SIN_ZEROS)),
    ]


# ---------------------------------------------------------------------------
# count: many small numeric jobs
#
# Each maker gets the workload's generator and u in [0, 1), the quantile of
# the parameter that sets the job's cost.  The u of one kind are the midpoints
# of COUNT_PER_KIND equal strata, so every seed gives the same job sizes and
# the seed sets only the rest of the inputs (roots, centres, phases, points).


# Equal shares: each of the eight kinds of job gets the same number, since
# no record of how users mix them exists.  12 is a multiple of the 2, 3 and
# 6 strata the makers below use.
COUNT_PER_KIND = 12


def _poly_job(rng, u):
    deg = 1 + int(6 * u)
    while True:
        roots = [(Fraction(rng.randint(-16, 16), 8), Fraction(rng.randint(-16, 16), 8))
                 for _ in range(deg)]
        center = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        radius = rng.uniform(0.5, 3.0)
        zs = [complex(float(a), float(b)) for a, b in roots]
        if _clear(zs, center, radius):
            break
    coeffs = [(Fraction(1), Fraction(0))]      # expand prod (t - r), ascending
    for r in roots:
        nxt = [(Fraction(0), Fraction(0))] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            rc = (-(c[0] * r[0] - c[1] * r[1]), -(c[0] * r[1] + c[1] * r[0]))
            nxt[k] = (nxt[k][0] + rc[0], nxt[k][1] + rc[1])
            nxt[k + 1] = (nxt[k + 1][0] + c[0], nxt[k + 1][1] + c[1])
        coeffs = nxt
    text = " + ".join(f"{_coef(c)}*t^{k}" for k, c in enumerate(coeffs) if c != (0, 0))
    expected = sum(1 for z in zs if abs(z - center) < radius)
    ctext = _cnum(center)

    def run():
        """`abelint count --poly TEXT --center C --radius R`."""
        p = parsing.parse_poly(text, ("t",))
        loop = counting.ContourPath.from_circle(_circle(ctext, radius))
        return counting.count_zeros(lambda z: p.eval_complex({"t": z}), loop)
    return Job("poly", run, lambda n: (n == expected, {}))


def _sincos_job(rng, u):
    """y = sin(t - phase) solves D^2 + 1 and vanishes at phase + k pi."""
    radius = 0.5 + u
    while True:
        phase = rng.uniform(0, math.pi)
        center = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        zeros = [phase + k * math.pi for k in range(-3, 4)]
        if _clear(zeros, center, radius):
            break
    expected = sum(1 for z in zeros if abs(z - center) < radius)
    z0 = center + radius
    y0 = ";".join(_cnum(v) for v in (cmath.sin(z0 - phase), cmath.cos(z0 - phase)))
    ctext = _cnum(center)

    def run():
        """`abelint count --operator "D^2 + 1" --center C --radius R --y0 Y`."""
        D = parsing.parse_operator("D^2 + 1")
        y = np.array([parsing.parse_complex(v) for v in y0.split(";")])
        loop = counting.ContourPath.from_circle(_circle(ctext, radius))
        return counting.count_zeros(D, loop, y0=y)
    return Job("sincos", run, lambda n: (n == expected, {}))


def _monodromy_job(rng, u):
    """The solution t^(p/q) of q t D - p comes back times e^(2 pi i p/q)."""
    radius = 0.5 + 1.5 * u
    q = rng.randint(2, 6)
    p = rng.randint(1, q - 1)
    order = q // math.gcd(p, q)
    target = cmath.exp(2j * math.pi * p / q)

    def run():
        """`abelint monodromy --operator "q*t*D - p" --radius R`."""
        D = parsing.parse_operator(f"{q}*t*D - {p}")
        M = counting.monodromy(D, counting.ContourPath.from_circle(_circle("0", radius)))
        return M, counting.is_quasiunipotent(M)

    def check(out):
        M, (qu, orders) = out
        return abs(M[0, 0] - target) <= 1e-8 and qu and orders == [order], {}
    return Job("monodromy", run, check)


def _slits_job(rng, u):
    k = 10 + int(11 * u)
    pts = []
    while len(pts) < k:
        p = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if all(abs(p - q) > 1e-3 for q in pts):
            pts.append(p)
    spec = "; ".join(_cnum(p) for p in pts)

    def run():
        """`abelint slits --points SPEC`."""
        zs = [parsing.parse_complex(s) for s in spec.split(";")]
        system = slits.build_slits(zs)
        return system, slits.is_admissible(system)

    def check(out):
        system, ok = out
        return ok and len(system.circles) <= 3 * k, {}
    return Job("slits", run, check)


def _continue_job(rng, u, A_text):
    """Elliptic A(t) continued from t = 0.1 to t = -0.1 through a seeded
    midpoint; A is analytic for |t| < 2/sqrt(27), so the path does not matter."""
    mid = complex(0.0, rng.choice((-1, 1)) * (0.05 + 0.15 * u))
    x_start = checks.elliptic_periods(0.1).astype(complex)

    def run():
        path = counting.ContourPath.from_points([0.1, mid, -0.1])
        return counting.continue_solution(_load_system(A_text), path, x_start)

    def check(X):
        ref = checks.elliptic_periods(-0.1)
        err = float(np.max(np.abs(X - ref)) / np.max(np.abs(ref)))
        return err <= 1e-8, {"error": err}
    return Job("continue", run, check)


def _periods_job(rng, u, A_text):
    """Zeros of w = I10(s) I00 - I00(s) I10 inside |t| = r.  w vanishes at the
    real level s and, by Petrov's theorem, nowhere else in the disk.  The
    zero sits 0.07 inside or outside the circle, alternately."""
    r = (0.15, 0.25, 0.3)[int(3 * u)]
    inside = int(6 * u) % 2 == 0
    s = rng.choice((-1, 1)) * (r - 0.07 if inside else r + 0.07)
    Xs = checks.elliptic_periods(s)
    combo = np.array([Xs[2], 0.0, -Xs[0], 0.0], dtype=complex)
    y0 = checks.elliptic_periods(r).astype(complex)
    expected = 1 if abs(s) < r else 0

    def run():
        loop = counting.ContourPath.from_circle(slits.Circle(0j, r))
        return counting.count_zeros(_load_system(A_text), loop, y0=y0, combo=combo)
    return Job("periods", run, lambda n: (n == expected, {}))


def _integral_job(rng, u):
    # the cost jumps with the number of step halvings the quadrature needs,
    # which changes erratically with t, so the levels are fixed
    ttext = ("-0.2", "0", "0.2")[int(3 * u)]

    def run():
        """`abelint integrate --hamiltonian ELLIPTIC --t T --seed 0.5+1i`."""
        H0 = parsing.parse_poly(ELLIPTIC, ("x1", "x2"))
        seed = parsing.parse_complex("0.5+1i")
        return integrals.abelian_integral(
            H0, parsing.parse_complex(ttext).real, (seed.real, seed.imag),
            division.basis_exponents(2))

    def check(vals):
        ref = checks.elliptic_periods(float(Fraction(ttext)))
        err = float(np.max(np.abs(np.array(vals) - ref)) / np.max(np.abs(ref)))
        return err <= 1e-7, {"error": err}
    return Job("integral", run, check)


def _vararg_job(rng, u):
    """`count` of y = sin(t - phase) on a circle around the zero at t = phase,
    with the certified variation-of-argument bound along the circle, which
    bounds the zeros inside.  The other zeros, phase + k pi, stay outside.
    The bound depends only on the radius, which is fixed per stratum."""
    radius = (1.0, 2.0)[int(2 * u)]
    phase = rng.uniform(0, math.pi)
    center = complex(phase + rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
    z0 = center + radius
    y0 = ";".join(_cnum(v) for v in (cmath.sin(z0 - phase), cmath.cos(z0 - phase)))
    ctext = _cnum(center)

    def run():
        D = parsing.parse_operator("D^2 + 1")
        y = np.array([parsing.parse_complex(v) for v in y0.split(";")])
        circle = _circle(ctext, radius)
        n = counting.count_zeros(D, counting.ContourPath.from_circle(circle), y0=y)
        arc = slits.Arc(circle.center, circle.radius, 0.0, 2 * math.pi)
        return n, counting.var_arg_bound(D, arc, D.leading_roots()).value

    def check(out):
        n, turns = out
        return n == 1 and turns >= n, {"bounds": [(turns, n)]}
    return Job("vararg", run, check)


def count(seed):
    rng = random.Random(seed)
    A_text = json.dumps({"A": checks.load_json(os.path.join(DATA, "elliptic_A.json"))})
    makers = {"poly": _poly_job, "sincos": _sincos_job,
              "monodromy": _monodromy_job, "slits": _slits_job,
              "continue": lambda r, u: _continue_job(r, u, A_text),
              "periods": lambda r, u: _periods_job(r, u, A_text),
              "integral": _integral_job, "vararg": _vararg_job}
    n = COUNT_PER_KIND
    jobs = []
    for make in makers.values():
        strata = [(i + 0.5) / n for i in range(n)]
        jobs += [make(rng, u) for u in strata]
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"derive": derive, "bound": bound, "count": count}
