"""The Dormand-Prince 8(5,3) integrator that continuation and oval
quadrature share (Hairer, Norsett and Wanner, Solving Ordinary Differential
Equations I, 2nd ed., 1993, II.10).

The tableau below is the one of `scipy.integrate.DOP853`, bit for bit, so
`solve` takes the steps `solve_ivp(method="DOP853")` takes: the initial step
of scipy's `select_initial_step` and the step-size control of its
`RungeKutta._step_impl`.  The step runs on a list of Python scalars (real or
complex), through a function generated once per state length with every
sum written out, because numpy's per-call cost dominates on states of a few
entries; `None` for the length takes the step on numpy arrays instead, and
only that step imports numpy, so the scalar steps run without it.

A caller may hand the right-hand side in as source lines, a `Derivative`:
the generated step then writes the derivative into every stage instead of
calling a function per stage, builds stage sums only for the components
that the derivative reads, and `rhs_function` makes the standalone
right-hand side, for the first evaluation and the initial step, from the
same lines.  Continuation writes in dY = dz A(z) Y with the entries of
A(z) computed in the stage and the products by its exact zeros left out,
oval quadrature its unit tangent and integrand sums, so that a stage
calls only exp (on an Arc) or hypot.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache, partial
from typing import NamedTuple

from .errors import NumericOverflow, ToleranceNotMet
from .polynomials import _generate, _sum

# scipy.integrate.DOP853.C, .A (row s holds A[s][:s]; the rest is 0), .B,
# .E3 and .E5, as the shortest decimals that read back to the same floats
C = [0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
     0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
     0.6512820512820513, 0.6, 0.8571428571428571, 1.0]
A = [
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636],
]
B = [0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259]
E3 = [-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
      1.8915178993145003, -5.801203960010585, -0.4226823213237919,
      -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0]
E5 = [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
      -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
      0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0]
# the step-size exponent -1 / (error estimator order 7 + 1)
EXPONENT = -1 / 8
# step-size control of scipy's RungeKutta solvers
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10


class Derivative(NamedTuple):
    """The right-hand side F(s, y) of dy/ds = F(s, y) as source lines, which
    `step_function` writes into each stage and `rhs_function` into a
    function of (s, y).  The lines read the time s, the components u_i for
    i in `reads` and the names in `params`, whose values are bound once per
    use, after the `setup` lines have run on them; they write component i of
    F to the name `{k}i`, for every i, with k a format field.  Names of
    their own must differ from the step's: t, h, s, y, f, fun, rtol, atol,
    y_i, u_i, k*_i, g_i, a, b, sc, e5, e3, n5, n3, y_new, f_new, sqrt,
    maximum and the tableau's b0, b1, ..."""
    params: tuple
    setup: tuple
    reads: tuple
    lines: tuple


@lru_cache(maxsize=256)
def step_function(n, rhs=None):
    """step(fun, t, h, y, f, rtol, atol) -> (y_new, f_new, err): one
    Dormand-Prince 8(5,3) step, as scipy's `rk_step` and
    `DOP853._estimate_error_norm` take it, on a list y of n Python scalars,
    with f = fun(t, y), f_new = fun(t + h, y_new) and err the error norm.
    Every stage sum is written out, without the tableau's zeros, with the
    tableau as closure constants b0, b1, ..., and so is every component;
    n = None takes the step on numpy arrays instead.

    With a Derivative rhs, each stage computes fun from rhs.lines written
    into the step instead of calling fun, which the step then does not
    read, and builds stage sums only for the components in rhs.reads;
    step_function(n, rhs) is then bind(*values of rhs.params) -> step."""
    consts = {}     # value -> its name in the source

    def const(c):
        return consts.setdefault(c, f"b{len(consts)}")

    def comb(coeffs, i):
        """sum_j coeffs[j] * (stage j at component i), without zeros."""
        return _sum(f"{const(c)} * k{j}_{i}" for j, c in enumerate(coeffs) if c)

    def vector(expr):
        """Source of the state with component i at expr(i)."""
        return expr("") if n is None else "[" + ", ".join(map(expr, range(n))) + "]"

    def unpack(name):
        return f"{name}_ " if n is None else "".join(f"{name}_{i}, " for i in range(n))

    def derivative(time, k):
        """The lines of rhs at the time source, writing to names k + i."""
        return [f"s = {time}", *(line.format(k=k) for line in rhs.lines)]

    lines = [f"{unpack('y')}= y", f"{unpack('k0')}= f"]
    for s in range(1, len(C)):
        time = f"t + {const(C[s])} * h"
        if rhs is None:
            arg = vector(lambda i: f"y_{i} + ({comb(A[s], i)}) * h")
            lines.append(f"{unpack(f'k{s}')}= fun({time}, {arg})")
        else:
            lines += [f"u_{i} = y_{i} + ({comb(A[s], i)}) * h" for i in rhs.reads]
            lines += derivative(time, f"k{s}_")
    if rhs is None:
        lines += [f"y_new = {vector(lambda i: f'y_{i} + h * ({comb(B, i)})')}",
                  "f_new = fun(t + h, y_new)",
                  f"{unpack('u')}= y_new"]
    else:
        lines += [f"u_{i} = y_{i} + h * ({comb(B, i)})" for i in range(n)]
        lines += derivative("t + h", "g_")
        lines += [f"y_new = [{', '.join(f'u_{i}' for i in range(n))}]",
                  f"f_new = [{', '.join(f'g_{i}' for i in range(n))}]"]
    if n is None:
        lines += ["sc = atol + maximum(abs(y_), abs(u_)) * rtol",
                  f"e5 = ({comb(E5, '')}) / sc",
                  f"e3 = ({comb(E3, '')}) / sc",
                  "n5 = e5.real @ e5.real + e5.imag @ e5.imag",
                  "n3 = e3.real @ e3.real + e3.imag @ e3.imag"]
    else:
        lines.append("n5 = n3 = 0.0")
        for i in range(n):
            lines += [f"a = abs(y_{i})", f"b = abs(u_{i})",
                      "sc = atol + (a if a > b else b) * rtol",
                      f"e5 = ({comb(E5, i)}) / sc",
                      f"e3 = ({comb(E3, i)}) / sc",
                      "n5 = n5 + e5.real * e5.real + e5.imag * e5.imag",
                      "n3 = n3 + e3.real * e3.real + e3.imag * e3.imag"]
    lines += ["if n5 == 0 and n3 == 0:",
              "    return y_new, f_new, 0.0",
              "return y_new, f_new, h * n5 / sqrt((n5 + 0.01 * n3) * len(y))"]
    params, setup = (rhs.params, rhs.setup) if rhs else ((), ())
    make = _generate(["sqrt", "maximum", *consts.values(), *params], setup,
                     "step", "fun, t, h, y, f, rtol, atol", lines)
    maximum = None
    if n is None:   # only the array step calls numpy
        from numpy import maximum
    bound = partial(make, math.sqrt, maximum, *consts)
    return bound if rhs else bound()


@lru_cache(maxsize=256)
def rhs_function(n, rhs):
    """bind(*values of rhs.params) -> fun(s, y): the right-hand side of the
    Derivative rhs on a list y of n Python scalars, from the lines that
    `step_function(n, rhs)` writes into its stages."""
    unpack = "".join(f"u_{i}, " if i in rhs.reads else "_, " for i in range(n))
    lines = [f"{unpack}= y", *(line.format(k="k_") for line in rhs.lines),
             f"return [{', '.join(f'k_{i}' for i in range(n))}]"]
    return _generate(rhs.params, rhs.setup, "rhs", "s, y", lines)


def _rms(xs, scale):
    """scipy's `norm(x / scale)`: the root mean square of |x_i / scale_i|."""
    q = [x / c for x, c in zip(xs, scale)]
    return math.sqrt(sum(v.real * v.real + v.imag * v.imag for v in q)) / len(q) ** 0.5


def _initial_step(fun, y, f, max_step, rtol, atol, end):
    """scipy's `select_initial_step` forward on [0, end], for f = fun(0, y)."""
    scale = [atol + abs(v) * rtol for v in y]
    d0, d1 = _rms(y, scale), _rms(f, scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, end)
    f1 = fun(h0, [v + h0 * dv for v, dv in zip(y, f)])
    # an h0 that underflowed to 0 makes scipy's d2 inf or nan, and its step 0
    d2 = _rms([b - a for a, b in zip(f, f1)], scale) / h0 if h0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -EXPONENT
    return min(100 * h0, h1, end, max_step)


def solve(fun, y, max_step, rtol, atol, end=1.0, stop=None, step=None):
    """The state at s = end of dy/ds = fun(s, y) from y at s = 0, a list of
    Python scalars or a numpy array, by the steps of
    `scipy.integrate.solve_ivp(fun, (0, end), y, method="DOP853", rtol=rtol,
    atol=atol, max_step=max_step)`.  end may be math.inf.

    With `stop`, stop(s, y, f, h, y_new) is called after every accepted
    step from (s, y) with f = fun(s, y) to y_new at s + h; the first value
    other than None it returns is returned instead.  `step` replaces the
    step of `step_function` for the length of y, with the step that
    `step_function(len(y), rhs)` binds for a Derivative rhs of fun.  A
    non-finite stage makes the error norm non-finite; that, a complex
    beyond the float range or a non-finite end state raises
    NumericOverflow, and a step below ten float spacings raises
    ToleranceNotMet."""
    if step is None:
        step = step_function(len(y) if isinstance(y, list) else None)
    try:
        f = fun(0.0, y)
        h_abs = _initial_step(fun, y, f, max_step, rtol, atol, end)
        t = 0.0
        while t < end:
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            h_abs = min_step if h_abs < min_step else min(h_abs, max_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise ToleranceNotMet(f"integrator failed: step below {min_step} at s = {t}")
                t_new = min(t + h_abs, end)
                h_abs = h = t_new - t
                y_new, f_new, err = step(fun, t, h, y, f, rtol, atol)
                if err < 1:
                    factor = MAX_FACTOR if err == 0 else min(MAX_FACTOR, SAFETY * err ** EXPONENT)
                    h_abs *= min(1, factor) if rejected else factor
                    break
                if not math.isfinite(err):
                    raise NumericOverflow(f"integration left the float range at s = {t}")
                h_abs *= max(MIN_FACTOR, SAFETY * err ** EXPONENT)
                rejected = True
            if stop is not None:
                out = stop(t, y, f, h, y_new)
                if out is not None:
                    return out
            t, y, f = t_new, y_new, f_new
    except OverflowError as exc:    # abs of a complex beyond the float range
        raise NumericOverflow(f"integration left the float range: {exc}") from None
    if not all(map(cmath.isfinite, y)):
        raise NumericOverflow("integration left the float range")
    return y
