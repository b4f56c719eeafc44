"""JSON round-trip for exact objects; rationals are encoded as strings.

Every encoded object carries a "type" tag.  Fractions become "p/q" strings,
Gaussian rationals "a/b+c/di" strings, complex numbers [re, im] pairs, so
the files stay diffable and language-agnostic.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .division import Hamiltonian
from .errors import ParseError
from .linalg import FieldMatrix
from .operators import DiffOperator
from .picard_fuchs import FREE_TERM, LinearODESystem, PfaffianSystem
from .polynomials import MultiPoly
from .qi import GaussianRational
from .ratfunc import RatFunc
from .slits import Arc, Circle, Segment, SlitSystem


def _enc_coef(c):
    if isinstance(c, GaussianRational):
        return {"re": str(c.re), "im": str(c.im)}
    return str(Fraction(c))


def _dec_coef(v):
    if isinstance(v, dict):
        return GaussianRational(Fraction(v["re"]), Fraction(v["im"]))
    return Fraction(v)


def encode(obj):
    """Encode supported objects into plain JSON-ready structures."""
    if isinstance(obj, MultiPoly):
        return {"type": "poly", "vars": list(obj.vars),
                "terms": [[list(e), _enc_coef(c)] for e, c in sorted(obj.terms.items())]}
    if isinstance(obj, RatFunc):
        return {"type": "ratfunc", "num": encode(obj.num), "den": encode(obj.den)}
    if isinstance(obj, FieldMatrix):
        return {"type": "matrix", "rows": obj.rows, "cols": obj.cols,
                "data": [[encode(e) for e in row] for row in obj.data]}
    if isinstance(obj, DiffOperator):
        return {"type": "operator", "coeffs": [encode(c) for c in obj.coeffs]}
    if isinstance(obj, Circle):
        return {"type": "circle", "center": [obj.center.real, obj.center.imag],
                "radius": obj.radius}
    if isinstance(obj, Segment):
        return {"type": "segment", "z0": [obj.z0.real, obj.z0.imag],
                "z1": [obj.z1.real, obj.z1.imag]}
    if isinstance(obj, Arc):
        return {"type": "arc", "center": [obj.center.real, obj.center.imag],
                "radius": obj.radius, "a0": obj.a0, "a1": obj.a1}
    if isinstance(obj, SlitSystem):
        return {"type": "slit-system",
                "circles": [encode(c) for c in obj.circles],
                "segments": [encode(s) for s in obj.segments],
                "points": [[p.real, p.imag] for p in obj.points]}
    if isinstance(obj, PfaffianSystem):
        return {"type": "pfaffian-system",
                "hamiltonian": encode(obj.H.poly + MultiPoly.var(FREE_TERM, obj.H.poly.vars)),
                "lvars": [FREE_TERM],
                "free_var": FREE_TERM,
                "Pstar": encode(obj.Pstar),
                "etas": [[encode(e1), encode(e2)] for e1, e2 in obj.etas],
                "Q": [[list(s), encode(M)] for s, M in sorted(obj.Q.items())]}
    if isinstance(obj, LinearODESystem):
        return {"type": "ode-system", "A": encode(obj.A),
                "singular": encode(obj.singular_poly)}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, GaussianRational):
        return _enc_coef(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {k: encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(v) for v in obj]
    raise ParseError(f"cannot encode {type(obj).__name__}")


def decode(data):
    """Inverse of encode for tagged structures; plain data passes through."""
    if isinstance(data, dict) and "type" in data:
        t = data["type"]
        if t == "poly":
            return MultiPoly(tuple(data["vars"]),
                             {tuple(e): _dec_coef(c) for e, c in data["terms"]})
        if t == "ratfunc":
            return RatFunc(decode(data["num"]), decode(data["den"]))
        if t == "matrix":
            return FieldMatrix([[decode(e) for e in row] for row in data["data"]])
        if t == "operator":
            return DiffOperator([decode(c) for c in data["coeffs"]])
        if t == "circle":
            return Circle(complex(*data["center"]), data["radius"])
        if t == "segment":
            return Segment(complex(*data["z0"]), complex(*data["z1"]))
        if t == "arc":
            return Arc(complex(*data["center"]), data["radius"],
                       data["a0"], data["a1"])
        if t == "pfaffian-system":
            H = decode(data["hamiltonian"])
            H = Hamiltonian(H - MultiPoly.var(FREE_TERM, H.vars))
            etas = [(decode(e1), decode(e2)) for e1, e2 in data["etas"]]
            Q = {tuple(s): decode(M) for s, M in data["Q"]}
            return PfaffianSystem(H, decode(data["Pstar"]), etas, Q)
        if t == "ode-system":
            return LinearODESystem(decode(data["A"]), decode(data["singular"]))
        if t == "slit-system":
            return SlitSystem([decode(c) for c in data["circles"]],
                              [decode(s) for s in data["segments"]],
                              [complex(*p) for p in data["points"]])
        raise ParseError(f"unknown type tag {t!r}")
    if isinstance(data, dict):
        return {k: decode(v) for k, v in data.items()}
    if isinstance(data, list):
        return [decode(v) for v in data]
    return data


def dumps(obj, **kw):
    kw.setdefault("indent", 2)
    return json.dumps(encode(obj), **kw)


def loads(text):
    """decode(JSON text); malformed JSON or encoded data raises ParseError."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    try:
        return decode(data)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed data: {type(exc).__name__}: {exc}") from None
