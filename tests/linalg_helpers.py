"""Rows of rational functions cleared into the polynomial rows that
`linalg.solve_linear` takes, for the tests that build their systems over
Q(t) or Q(i)(t)."""

from abelint.ratfunc import ratfunc_lcm_den


def clear_rows(rows):
    """Scale each row of RatFunc by the lcm of its denominators -> MultiPoly
    rows; the clearing multiplies each numerator by a cofactor and cancels
    no gcd."""
    out = []
    for row in rows:
        den = ratfunc_lcm_den(row)
        out.append([e.cleared(den) for e in row])
    return out
