"""Exact polynomial arithmetic against a sympy oracle, plus norm properties."""

import ast
import pathlib
import random
from fractions import Fraction

import numpy as np
import sympy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelint.errors import NumericOverflow, UnsupportedInput
from abelint.polynomials import MultiPoly, integer_parts, poly_lcm, primitive_parts
from abelint.qi import GaussianRational

V = ("x", "y")


def rand_poly(rng, vars=V, deg=4, terms=5, span=9, gaussian=False):
    def q():
        return Fraction(rng.randint(-span, span), rng.randint(1, span))

    d = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, deg) for _ in vars)
        d[e] = GaussianRational(q(), q()) if gaussian else q()
    return MultiPoly(vars, d)


def to_sym(p):
    syms = sympy.symbols(" ".join(p.vars)) if len(p.vars) > 1 else \
        (sympy.Symbol(p.vars[0]),)
    expr = 0
    for e, c in p.terms.items():
        if isinstance(c, GaussianRational):
            term = sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)
        else:
            term = sympy.Rational(c.numerator, c.denominator)
        for s, k in zip(syms, e):
            term *= s ** k
        expr += term
    return sympy.expand(expr)


def test_ring_axioms_against_sympy():
    rng = random.Random(1)
    for _ in range(25):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert to_sym(a * (b + c)) == sympy.expand(to_sym(a) * (to_sym(b) + to_sym(c)))
        assert to_sym(a * b) == sympy.expand(to_sym(a) * to_sym(b))
        assert to_sym(a - a).is_zero


def test_diff_and_eval():
    rng = random.Random(2)
    for _ in range(10):
        p = rand_poly(rng)
        x, y = sympy.symbols("x y")
        assert to_sym(p.diff("x")) == sympy.expand(sympy.diff(to_sym(p), x))
        pt = {"x": 0.3 + 0.1j, "y": -1.2}
        ours = p.eval_complex(pt)
        theirs = complex(to_sym(p).subs({x: pt["x"], y: pt["y"]}))
        assert abs(ours - theirs) < 1e-9 * max(abs(theirs), 1)


def test_divmod_exact():
    rng = random.Random(3)
    for _ in range(15):
        a = rand_poly(rng, deg=3)
        b = rand_poly(rng, deg=2)
        if b.is_zero():
            continue
        prod = a * b
        assert prod.divexact(b) == a


def test_gcd_oracle():
    rng = random.Random(4)
    # Q[x, y], then Q(i)[t] (the path of pullbacks and symmetrizations),
    # then Q(i)[x, y]
    cases = [(V, False)] * 10 + [(("t",), True)] * 10 + [(V, True)] * 4
    for vars, gaussian in cases:
        g = rand_poly(rng, vars, deg=2, terms=3, gaussian=gaussian)
        a = rand_poly(rng, vars, deg=2, terms=3, gaussian=gaussian) * g
        b = rand_poly(rng, vars, deg=2, terms=3, gaussian=gaussian) * g
        if a.is_zero() or b.is_zero():
            continue
        ours = MultiPoly.gcd(a, b)
        theirs = sympy.gcd(to_sym(a), to_sym(b))
        # gcds agree up to a constant: both must divide each other
        q1 = sympy.simplify(to_sym(ours) / theirs)
        assert q1.is_constant()


def test_gcd_of_coprime_gaussian_is_one():
    # rem(t, t - i) = i: a Gaussian unit, whose primitive part is 1
    t = MultiPoly.var("t")
    ti = t - GaussianRational(0, 1)
    assert MultiPoly.gcd(t, ti) == 1
    assert poly_lcm(t, ti) == t * ti


def test_univariate_rational_gcd_is_primitive_euclidean_remainder():
    """Over Q the primitive part with positive leading coefficient is unique,
    so the ring gcd and the last Euclidean remainder give the same result."""
    rng = random.Random(7)
    T = ("t",)
    for k in range(30):
        a = rand_poly(rng, T, deg=4, terms=4)
        b = rand_poly(rng, T, deg=4, terms=4)
        if k % 2:
            g = rand_poly(rng, T, deg=3, terms=3)
            a, b = a * g, b * g
        if a.shrink().vars != T or b.shrink().vars != T:
            continue
        f, h = a.poly, b.poly
        r = MultiPoly._new(T, f.ring.dup_euclidean_prs(f, h)[-1])
        expect = MultiPoly.const(1, T) if r.is_constant() else r.primitive()[1]
        ours = MultiPoly.gcd(a, b)
        assert ours == expect and list(ours.poly.items()) == list(expect.poly.items())


def test_lcm_divisible():
    rng = random.Random(5)
    for _ in range(8):
        a = rand_poly(rng, deg=2, terms=3)
        b = rand_poly(rng, deg=2, terms=3)
        if a.is_zero() or b.is_zero():
            continue
        l = poly_lcm(a, b)
        # divexact raises ValueError on an inexact division
        assert l.divexact(a) * a == l
        assert l.divexact(b) * b == l


def test_primitive_normalization():
    rng = random.Random(6)
    for _ in range(20):
        p = rand_poly(rng)
        if p.is_zero():
            continue
        c, prim = p.primitive()
        assert prim * c == p
        assert prim.poly.LC > 0
        assert primitive_parts((prim,))[0] == 1


coef = st.fractions(min_value=-10, max_value=10, max_denominator=10)


@st.composite
def polys(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    terms = {}
    for _ in range(n):
        e = (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
        terms[e] = draw(coef)
    return MultiPoly(V, terms)


@given(polys(), polys())
@settings(max_examples=200, deadline=None)
def test_norm_multiplicative(p, q):
    assert (p * q).l1_norm() <= p.l1_norm() * q.l1_norm()


def test_gaussian_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(3))
    b = GaussianRational(Fraction(-2), Fraction(1, 5))
    assert (a * b) / b == a
    assert (a + b) - b == a
    assert a * a.conjugate() == GaussianRational(a.re ** 2 + a.im ** 2, 0)
    assert complex(a) == 0.5 + 3j


def test_primitive_parts_joint_content_and_sign():
    x = MultiPoly.var("x", V)
    y = MultiPoly.var("y", V)
    zero = MultiPoly.zero(V)
    i = GaussianRational(0, 1)
    # the sign comes from the first nonzero entry, the content from all
    c, parts = primitive_parts([zero, x * Fraction(-2, 3), y * Fraction(4, 9)])
    assert c == Fraction(-2, 9)
    assert parts == [zero, x * 3, y * -2]
    # over Q(i) a Gaussian lead is divided out first, then the positive
    # content that the real and imaginary parts share
    c, (p,) = primitive_parts([x * (i * Fraction(-3, 2)) + Fraction(9, 4)])
    assert c == i * Fraction(-3, 4)
    assert p == x * 2 + i * 3
    assert primitive_parts([zero]) == (0, [zero])


gauss_coef = st.builds(GaussianRational, coef, coef)


@st.composite
def gaussian_polys(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    terms = {(draw(st.integers(0, 3)), draw(st.integers(0, 3))): draw(gauss_coef)
             for _ in range(n)}
    return MultiPoly(V, terms)


@given(st.lists(gaussian_polys(), min_size=1, max_size=3),
       gauss_coef.filter(bool))
@settings(max_examples=200, deadline=None)
def test_primitive_parts_ignore_gaussian_scalars(ps, lam):
    """Every Gaussian multiple of a list has the same parts, term order
    included, and the returned scalar restores the input."""
    c, parts = primitive_parts(ps)
    c_lam, parts_lam = primitive_parts([p * lam for p in ps])
    assert parts_lam == parts
    assert [list(p.poly.items()) for p in parts_lam] == [list(p.poly.items()) for p in parts]
    assert [p * c for p in parts] == ps
    assert c_lam == c * lam


def test_only_polynomials_imports_sympy():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "abelint"
    importers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if any(n == "sympy" or n.startswith("sympy.") for n in names):
                importers.add(path.name)
    assert importers == {"polynomials.py"}


def test_univar_roots_of_huge_coefficients():
    t = MultiPoly.var("t")
    p = MultiPoly.const(10 ** 400) * (t - 1) * (t - 2)
    roots = sorted(p.univar_roots("t"), key=lambda z: z.real)
    assert np.allclose(roots, [1, 2], rtol=0, atol=1e-12)
    # Q(i) coefficients near 1e450 too
    q = MultiPoly.const(GaussianRational(3, 4) * 10 ** 450) * (t - 1) * (t - GaussianRational(0, 2))
    roots = sorted(q.univar_roots("t"), key=lambda z: z.imag)
    assert np.allclose(roots, [1, 2j], rtol=0, atol=1e-12)
    # nonzero coefficients that all underflow to 0.0, real and Q(i)
    p = MultiPoly.const(Fraction(1, 10 ** 400)) * (t - 1) * (t - 2)
    roots = sorted(p.univar_roots("t"), key=lambda z: z.real)
    assert np.allclose(roots, [1, 2], rtol=0, atol=1e-12)
    q = MultiPoly.const(GaussianRational(Fraction(3, 10 ** 450), Fraction(-4, 10 ** 450))) \
        * (t - 1) * (t - GaussianRational(0, 2))
    roots = sorted(q.univar_roots("t"), key=lambda z: z.imag)
    assert np.allclose(roots, [1, 2j], rtol=0, atol=1e-12)
    # in range: the plain float coefficients, bit for bit
    r = MultiPoly.const(Fraction(3, 7)) * (t - 1) * (t - Fraction(1, 3))
    expect = np.roots([complex(float(c), 0) for c in reversed(r.univar_coeffs("t"))])
    assert np.array_equal(r.univar_roots("t"), expect)


def test_univar_roots_beyond_the_float_range_raise():
    """Coefficients that span more than the float range leave the leading one
    at 0.0 after scaling: the roots are out of reach, and no root is dropped
    in silence."""
    t = MultiPoly.var("t")
    for p in (t - 10 ** 400, MultiPoly.const(Fraction(1, 10 ** 400)) * t + 1):
        with pytest.raises(NumericOverflow, match="float range"):
            p.univar_roots("t")


def test_univar_coeffs_in_a_larger_ring():
    """A polynomial in t stored over (t, x1, x2), as a system loaded from
    JSON stores its entries, gives the coefficients of its shrunk form; one
    that uses x1 is not univariate in t."""
    vs = ("t", "x1", "x2")
    t = MultiPoly.var("t", vs)
    i = MultiPoly.const(GaussianRational(0, 1), vs)
    for p in (t ** 3 * Fraction(2, 3) - 5, i * t + 1, MultiPoly.const(7, vs), MultiPoly.zero(vs),
              t * i):
        got, want = p.univar_coeffs("t"), p.shrink().univar_coeffs("t")
        assert got == want and list(map(type, got)) == list(map(type, want))
    assert MultiPoly.zero(vs).univar_coeffs("t") == [0]
    with pytest.raises(UnsupportedInput, match="not univariate in t"):
        (t + MultiPoly.var("x1", vs)).univar_coeffs("t")


def _over_integers(p):
    return not p.poly.ring.domain.is_Field


def test_integer_parts_and_their_ring_operations():
    """integer_parts scales jointly by the positive rational content, and
    sums, products, derivatives, exact quotients and gcds of the parts stay
    over Z or Z[i]."""
    t = MultiPoly.var("t")
    I = GaussianRational(0, 1)
    p = t * Fraction(2, 3) - Fraction(4, 9)
    g = t * t * (Fraction(1, 3) + I) + Fraction(1, 9)
    c, (a, b) = integer_parts([p, g])
    assert c == Fraction(1, 9)
    assert a == p * 9 and b == g * 9
    assert not a.has_gaussian() and b.has_gaussian()
    results = [a + b, a - b, a * b, a * 3, b * I, b.diff("t"), (a * b).divexact(a),
               (a * a).divexact(a * 2), (a * 6).divexact(2), b.divexact(I),
               MultiPoly.gcd(a * b, a * a), (a - a) ** 0]
    assert all(_over_integers(r) for r in results)
    assert results[-1] == 1
    # the parts of all-zero input
    assert integer_parts([MultiPoly.zero(("t",))])[0] == 1


def test_integer_ring_division_never_truncates():
    """An exact quotient that Z or Z[i] does not hold is the quotient over Q
    or Q(i): (2t + 3) / 4 is t/2 + 3/4, not sympy's truncated 0."""
    t = MultiPoly.var("t")
    I = GaussianRational(0, 1)
    _, (p,) = integer_parts([2 * t + 3])
    _, (q,) = integer_parts([(2 * t + 3) * (1 + I)])
    assert _over_integers(p) and _over_integers(q)
    assert p.divexact(4) == t * Fraction(1, 2) + Fraction(3, 4)
    assert p.divexact(4 * t + 6) == Fraction(1, 2)
    assert q.divexact(2) == (t + Fraction(3, 2)) * (1 + I)
    assert q.divexact(2 * I) == (t + Fraction(3, 2)) * (1 - I)
    assert not _over_integers(p.divexact(4)) and not _over_integers(q.divexact(2))
    with pytest.raises(ValueError):
        p.divexact(t + 1)
    with pytest.raises(ValueError):
        q.divexact(t)



def test_lift_matches_set_ring_and_keeps_term_order(monkeypatch):
    """Moving a polynomial to more variables, to fewer unused ones, or to a
    larger domain gives sympy's `set_ring` result with the same stored term
    order, without calling it."""
    from sympy.polys.domains import QQ, QQ_I, ZZ_I
    from sympy.polys.rings import PolyElement

    from abelint import polynomials

    rng = random.Random(7)
    cases = []
    for gaussian in (False, True):
        p = rand_poly(rng, ("x", "z"), gaussian=gaussian)
        q = integer_parts([p])[1][0]
        field = QQ_I if gaussian else QQ
        cases += [(p, ("a", "x", "y", "z"), field), (q, ("x", "z"), field),
                  (q, ("x", "y", "z"), field), (p.extend(("w",)), ("x", "z"), field)]
    cases.append((integer_parts([rand_poly(rng)])[1][0], V, ZZ_I))
    expected = [p.poly.set_ring(polynomials._ring(vs, dom)) for p, vs, dom in cases]
    monkeypatch.setattr(PolyElement, "set_ring", None)
    for (p, vs, dom), ref in zip(cases, expected):
        got = polynomials._in_ring(p, vs, dom)
        assert got.ring is ref.ring
        assert list(got.items()) == list(ref.items())
