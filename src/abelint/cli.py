"""Command line interface.

Subcommands: derive-pf, reduce, slope, slits, monodromy, count, integrate,
bound.  All structured output is JSON on stdout (exact rationals as strings);
floats are printed with %.12g.  Exit codes: 0 ok, 2 parse/input error
(argparse rejects a non-finite --pencil or --t, a radius, --theta or
--size that is not finite and positive, and a --headline below 1),
3 numeric tolerance failure or float overflow,
4 domain error (degenerate input, open curve), 5 not quasiunipotent.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .counting import (ContourPath, annulus_zero_bound, count_zeros,
                       headline_bound, is_quasiunipotent, monodromy)
from .division import Hamiltonian, basis_exponents
from .errors import AbelintError, ParseError
from .integrals import abelian_integral, critical_values
from .operators import DiffOperator, invariant_slope_sampled, reduce_to_scalar
from .parsing import parse_complex, parse_operator, parse_poly
from .picard_fuchs import derive_pfaffian, restrict_to_pencil, size_report
from .serialize import dumps, loads
from .slits import THETA, Circle, build_slits, is_admissible, svg_export


def _fmt(x):
    if isinstance(x, float):
        return float("%.12g" % x)
    return x


def _finite(text):
    """argparse type: a finite float."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _positive(text):
    """argparse type: a finite, positive float."""
    x = _finite(text)
    if x <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return x


def _positive_int(text):
    """argparse type: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return n


def _emit(obj):
    print(dumps(obj))


def _load_operator(args):
    if getattr(args, "operator", None):
        return parse_operator(args.operator)
    if getattr(args, "operator_file", None):
        obj = loads(open(args.operator_file).read())
        if not isinstance(obj, DiffOperator):
            raise ParseError("file does not contain an operator")
        return obj
    raise ParseError("provide --operator or --operator-file")


def _parse_points(spec):
    pts = []
    for part in spec.split(";"):
        part = part.strip()
        if part:
            pts.append(parse_complex(part))
    if not pts:
        raise ParseError("no points given")
    return pts


def cmd_derive_pf(args):
    H0 = parse_poly(args.hamiltonian, ("x1", "x2"))
    H = Hamiltonian.from_x_poly(H0)
    system = derive_pfaffian(H)
    out = {"n": H.n, "ell": H.ell, "size": size_report(system)}
    if args.pencil is not None:
        ode = restrict_to_pencil(system, free_term_value=args.pencil)
        out["A"] = ode.A
        out["singular"] = ode.singular_poly
        out["singular_points"] = [[z.real, z.imag] for z in ode.singular_points]
    else:
        out["Pstar0"] = system.Pstar0
        out["Q00"] = system.Q[(0, 0)]
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(dumps(out))
        print(f"wrote {args.output}")
    else:
        _emit(out)
    return 0


def cmd_reduce(args):
    if args.system:
        data = loads(open(args.system).read())
        if not isinstance(data, dict) or "A" not in data:
            raise ParseError("system file must contain an 'A' matrix")
        from .picard_fuchs import LinearODESystem
        from .ratfunc import ratfunc_lcm_den
        A = data["A"]
        ode = LinearODESystem(A, ratfunc_lcm_den(A.flatten()))
    else:
        H0 = parse_poly(args.hamiltonian, ("x1", "x2"))
        system = derive_pfaffian(Hamiltonian.from_x_poly(H0))
        ode = restrict_to_pencil(system, free_term_value=args.pencil or 0)
    D = reduce_to_scalar(ode)
    _emit({"order": D.order, "operator": D, "display": str(D)})
    return 0


def cmd_slope(args):
    D = _load_operator(args)
    rep = invariant_slope_sampled(D)
    _emit({"affine_slope": rep.affine,
           "sampled": [_fmt(v) for v in rep.samples],
           "invariant_estimate": _fmt(rep.invariant_estimate)})
    return 0


def cmd_slits(args):
    pts = _parse_points(args.points)
    system = build_slits(pts, args.theta)
    ok = is_admissible(system)
    out = {"system": system, "admissible": ok,
           "normalized_length": _fmt(system.total_normalized_length()),
           "num_circles": len(system.circles),
           "num_segments": len(system.segments)}
    if args.svg:
        svg_export(system, args.svg)
        out["svg"] = args.svg
    _emit(out)
    return 0


def cmd_monodromy(args):
    D = _load_operator(args)
    center = parse_complex(args.center)
    loop = ContourPath.from_circle(Circle(center, args.radius))
    M = monodromy(D, loop)
    qu, orders = is_quasiunipotent(M)
    eigs = np.linalg.eigvals(M)
    _emit({"matrix": [[[_fmt(v.real), _fmt(v.imag)] for v in row] for row in M],
           "eigenvalues": [[_fmt(z.real), _fmt(z.imag)] for z in eigs],
           "quasiunipotent": qu, "orders": orders})
    return 0


def cmd_count(args):
    center = parse_complex(args.center)
    loop = ContourPath.from_circle(Circle(center, args.radius))
    if args.poly:
        p = parse_poly(args.poly, ("t",))
        n = count_zeros(lambda z: p.eval_complex({"t": z}), loop)
    else:
        D = _load_operator(args)
        if not args.y0:
            raise ParseError("--y0 initial data required for operator sources")
        y0 = np.array([parse_complex(v) for v in args.y0.split(";")])
        if len(y0) != D.order:
            raise ParseError(f"--y0 needs {D.order} values")
        n = count_zeros(D, loop, y0=y0)
    _emit({"zeros": n})
    return 0


def cmd_integrate(args):
    H0 = parse_poly(args.hamiltonian, ("x1", "x2"))
    seed = parse_complex(args.seed)
    n = max(int(H0.total_degree()) - 1, 1)
    alphas = basis_exponents(n)
    vals = abelian_integral(H0, args.t, (seed.real, seed.imag), alphas,
                            rel_tol=args.rel_tol)
    _emit({"t": _fmt(args.t),
           "alphas": [list(a) for a in alphas],
           "integrals": [_fmt(v) for v in vals],
           "critical_values": [_fmt(v) for v in critical_values(H0)]})
    return 0


def cmd_bound(args):
    if args.headline is not None:
        rep = headline_bound(args.headline, size_s=args.size)
        _emit({"kind": rep.kind, **{k: _fmt(v) for k, v in rep.details.items()}})
        return 0
    if args.inner_radius is None or args.outer_radius is None:
        raise ParseError("provide --inner-radius and --outer-radius, or --headline")
    D = _load_operator(args)
    inner = Circle(parse_complex(args.inner_center), args.inner_radius)
    outer = Circle(parse_complex(args.outer_center), args.outer_radius)
    ab = annulus_zero_bound(D, inner, outer)
    _emit({"order": ab.order, "B": ab.B, "bound": ab.value,
           "quasiunipotent": ab.quasiunipotent, "orders": ab.orders})
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="abelint",
        description="Picard-Fuchs derivation and zero counting for period "
                    "integrals of polynomial level curves.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("derive-pf", help="derive the exact Pfaffian system")
    p.add_argument("--hamiltonian", required=True,
                   help="polynomial in x1, x2, e.g. 'x2^2/2 + x1^3 - x1'")
    p.add_argument("--pencil", type=_finite, default=None,
                   help="restrict the free term to c0 - t and emit A(t)")
    p.add_argument("--output", help="write JSON to this file")
    p.set_defaults(fn=cmd_derive_pf)

    p = sub.add_parser("reduce", help="scalar operator for the first basis entry")
    p.add_argument("--hamiltonian", help="polynomial in x1, x2")
    p.add_argument("--pencil", type=_finite, default=0.0)
    p.add_argument("--system", help="JSON file with an 'A' matrix")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("slope", help="affine slope of an operator")
    p.add_argument("--operator", help="e.g. '(t^2-1)*D^2 + t*D - 1'")
    p.add_argument("--operator-file")
    p.set_defaults(fn=cmd_slope)

    p = sub.add_parser("slits", help="admissible slit system for point sets")
    p.add_argument("--points", required=True,
                   help="semicolon-separated complex points, e.g. '0; 1; 2+i'")
    p.add_argument("--theta", type=_positive, default=THETA,
                   help=f"scale separation at which a cluster splits (default {THETA})")
    p.add_argument("--svg", help="write an SVG drawing to this file")
    p.set_defaults(fn=cmd_slits)

    p = sub.add_parser("monodromy", help="monodromy along a circle")
    p.add_argument("--operator")
    p.add_argument("--operator-file")
    p.add_argument("--center", default="0")
    p.add_argument("--radius", type=_positive, required=True)
    p.set_defaults(fn=cmd_monodromy)

    p = sub.add_parser("count", help="zeros inside a circle (argument principle)")
    p.add_argument("--poly", help="polynomial in t")
    p.add_argument("--operator")
    p.add_argument("--operator-file")
    p.add_argument("--y0", help="semicolon-separated initial data at angle 0")
    p.add_argument("--center", default="0")
    p.add_argument("--radius", type=_positive, required=True)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("integrate", help="period integrals over a real oval")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--t", type=_finite, required=True)
    p.add_argument("--seed", required=True, help="point near the oval, e.g. '0.5+1i'")
    p.add_argument("--rel-tol", type=_positive, default=1e-8)
    p.set_defaults(fn=cmd_integrate)

    p = sub.add_parser("bound", help="certified annulus bound or growth budget")
    p.add_argument("--operator")
    p.add_argument("--operator-file")
    p.add_argument("--inner-center", default="0")
    p.add_argument("--inner-radius", type=_positive)
    p.add_argument("--outer-center", default="0")
    p.add_argument("--outer-radius", type=_positive)
    p.add_argument("--headline", type=_positive_int, default=None,
                   help="print the doubly exponential budget for this n")
    p.add_argument("--size", type=_positive, default=None)
    p.set_defaults(fn=cmd_bound)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except AbelintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
