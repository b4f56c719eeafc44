"""Parser: exactness, grammar corners, reserved names."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelint.errors import ParseError
from abelint import parsing
from abelint.parsing import (MAX_POWER_BITS, MAX_POWER_PRODUCTS, MAX_POWER_TERMS,
                             parse_complex, parse_number, parse_operator, parse_poly)
from abelint.polynomials import MultiPoly
from abelint.qi import GaussianRational


def test_decimals_are_exact():
    p = parse_poly("0.125*x1 + 0.2", ("x1",))
    assert p.terms[(1,)] == Fraction(1, 8)
    assert p.terms[(0,)] == Fraction(1, 5)


def test_implicit_multiplication():
    a = parse_poly("2x1(x1+1)", ("x1",))
    b = parse_poly("2*x1^2 + 2*x1", ("x1",))
    assert (a - b).is_zero()


def test_gaussian_constants():
    c = parse_number("3/4 + 2i")
    assert c == GaussianRational(Fraction(3, 4), Fraction(2))
    assert parse_complex("1 - 0.5i") == 1 - 0.5j


def test_decimal_exponents_are_exact():
    assert parse_number("1e-300") == Fraction(1, 10 ** 300)
    assert parse_number("2.5E2") == 250
    assert parse_number("3e+2 - 1.2e-1i") == GaussianRational(300, Fraction(-3, 25))
    assert parse_complex("1e-3") == 0.001
    # a name keeps its digits and letters; 3e1x2 is 30 x2
    assert parse_poly("x1e2 + 1", ("x1e2",)) == MultiPoly.var("x1e2") + 1
    assert parse_poly("3e1x2") == parse_poly("30*x2")
    with pytest.raises(ParseError, match="unknown variable 'e'"):
        parse_number("2e")


def test_operator_coefficients():
    D = parse_operator("(t^2-1)*D^2 + t*D - 1")
    assert D.order == 2
    t = MultiPoly.var("t")
    one = MultiPoly.const(Fraction(1), ("t",))
    assert D.coeffs[0] == t * t - one
    assert D.coeffs[1] == t
    assert D.coeffs[2] == -one


def test_reserved_D():
    with pytest.raises(ParseError):
        parse_poly("D + 1", ("D",))
    with pytest.raises(ParseError):
        parse_poly("x1 + D", ("x1",))


def test_parse_errors():
    for bad in ["x1 +", "(x1", "x1^x1", "x1^-2", "1/x1", "@", "x1//2"]:
        with pytest.raises(ParseError):
            parse_poly(bad, ("x1",))
    with pytest.raises(ParseError):
        parse_operator("0*D")


def test_unknown_variable():
    with pytest.raises(ParseError):
        parse_poly("x1 + y", ("x1",))


def _value(parse, text):
    """(type, value) of a parse, or the message of its ParseError."""
    try:
        v = parse(text)
    except ParseError as exc:
        return ("error", str(exc))
    return (type(v), v)


def _poly_constant(text):
    """A constant expression parsed as a polynomial over no variables: the
    reference for `parse_number`."""
    return parse_poly(text, ()).terms.get((), Fraction(0))


_atoms = st.sampled_from(["0", "1", "2", "3/4", "0.5", "1e-2", "7", "i", "x", "e"])
_exponents = st.sampled_from(["0", "1", "2", "3", "5", "-1", "1.5"])


def _expressions():
    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/", " "]), inner).map(
                lambda t: f"{t[0]}{t[1]}{t[2]}"),
            st.tuples(inner, _exponents).map(lambda t: f"({t[0]})^{t[1]}"),
            inner.map(lambda e: f"-({e})"),
            inner.map(lambda e: f"({e})"))
    return st.recursive(_atoms, extend, max_leaves=8)


@settings(max_examples=400, deadline=None)
@given(_expressions())
def test_parse_number_matches_polynomial_constant(text):
    assert _value(parse_number, text) == _value(_poly_constant, text)


def test_parse_number_values_and_errors():
    assert _value(parse_number, "i^2") == (Fraction, Fraction(-1))
    assert _value(parse_number, "(1+i)^4") == (Fraction, Fraction(-4))
    assert parse_number("(1/2 + i)^3") == GaussianRational(Fraction(-11, 8), Fraction(-1, 4))
    assert parse_number("0^0") == 1 and parse_number("10^400") == 10 ** 400
    for text in ["y + 1", "1/0", "2/(i - i)", "2^-1", "2^1.5", "(1", "2^i"]:
        assert _value(parse_number, text) == _value(_poly_constant, text)
        with pytest.raises(ParseError):
            parse_number(text)


def test_powers_are_capped_before_they_are_built(monkeypatch):
    """A power that would add more than MAX_POWER_BITS bits to its base's
    coefficients is refused before it is computed, also through nested
    powers: 3^1000000000 would be an integer of about 200 MB.  A power of
    a monomial with coefficient 1 adds none."""
    cap = MAX_POWER_BITS
    assert parse_number(f"2^{cap}") == 2 ** cap
    assert parse_poly(f"(t+1)^{cap}", ("t",)).total_degree() == cap
    assert parse_poly("t^100000000", ("t",)).total_degree() == 10 ** 8
    assert parse_number("0^100000") == 0
    built = []
    for cls in (parsing._Parser, parsing._ScalarParser):
        def spy(self, base, k, raise_to=cls.raise_to):
            built.append(k)
            return raise_to(self, base, k)
        monkeypatch.setattr(cls, "raise_to", spy)

    def poly(text):
        return parse_poly(text, ("t",))

    for parse, text, refused in [
            (parse_number, "3^1000000000", 10 ** 9),
            (parse_number, f"2^{cap + 1}", cap + 1),
            (parse_number, f"(10^{cap // 4})^2", 2),
            (parse_number, f"(1+i)^{cap + 1}", cap + 1),
            (poly, f"(t+1)^{cap + 1}", cap + 1),
            (poly, f"(t/2 + 1/2)^{cap + 1}", cap + 1),
            (parse_operator, f"(2*t)^{cap + 1}*D + 1", cap + 1),
            (parse_operator, "3^1000000000*D + 1", 10 ** 9)]:
        built.clear()
        with pytest.raises(ParseError, match="bits"):
            parse(text)
        assert refused not in built


def test_powers_are_capped_by_their_terms_and_products(monkeypatch):
    """A polynomial power whose result could have more than MAX_POWER_TERMS
    terms, or whose expansion could take more than MAX_POWER_PRODUCTS term
    products, is refused before it is built.  The term bound is the smaller
    of the multinomial count and the count of monomials of the result's
    degree, and it holds on the powers that are built."""
    built = []

    def spy(self, base, k, raise_to=parsing._Parser.raise_to):
        built.append(k)
        return raise_to(self, base, k)

    monkeypatch.setattr(parsing._Parser, "raise_to", spy)
    assert parse_poly("(x1+x2+1)^20").nterms() == 231
    assert parse_poly("(t+1)^10000", ("t",)).nterms() == 10001
    for text in ("x1+x2+1", "x1^3 + x2", "x1*x2 + x1^2 - 3", "x1+x2+x1^2+x2^2+x1*x2+1"):
        base = parse_poly(text)
        for e in (2, 3, 7):
            assert parse_poly(f"({text})^{e}").nterms() <= parsing._power_size(base, e)[0]
    for text, refused, cap in [("(x1+x2+1)^1000", 1000, "terms"),
                               ("(x1+x2+1)^2000", 2000, "terms"),
                               ("(x1+x2+x1^2+x2^2+1)^60", 60, "products"),
                               ("((x1+x2+1)^10)^11", 11, "products")]:
        built.clear()
        with pytest.raises(ParseError, match=cap):
            parse_poly(text)
        assert refused not in built
    assert parsing._power_size(parse_poly("(x1+x2+1)"), 1000)[0] > MAX_POWER_TERMS
    assert parsing._power_size(parse_poly("x1+x2+x1^2+x2^2+1"), 60)[1] > MAX_POWER_PRODUCTS
