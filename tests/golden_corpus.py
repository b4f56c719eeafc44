"""A fixed, seeded corpus of CLI inputs whose stdout is pinned by SHA-256.

The corpus covers the exact layers end to end: `slope` and `bound` on real
and Gaussian operators of orders 1-3, with annuli centred on and off the
real axis (so both the direct-sum search in the operator's own chart and
the realified search of a complex reflection run), `reduce --hamiltonian`
and `derive-pf` without `--pencil` and at the pencils 0, 1/2 and -3 on
Hamiltonians of degree n + 1 for n = 1, 2, 3, and `derive-pf` at the same
four pencils on Hamiltonians whose principal parts are not regular but
whose critical points are isolated, and on one Hamiltonian with n = 4.  It
also covers the numeric commands: `count` on operators and on polynomials,
`monodromy` and `integrate`.  `golden_hashes.json` maps each case to its
exit code and the SHA-256 of its stdout; `test_golden.py` replays it in
process.  The cases in SLOW (`reduce` at n = 4, about 5 minutes) carry the
`slow` marker, which the default run deselects; run them with

    PYTHONPATH=src python -m pytest tests/test_golden.py -m slow

Record the hashes again, after a change that moves an output on purpose,
with

    PYTHONPATH=src python tests/golden_corpus.py --record

(which runs the slow cases too) and list every moved case, with the reason,
in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HASHES = Path(__file__).with_name("golden_hashes.json")

SEED = 20261020


def _coefficient(rng, gaussian):
    """A small nonzero rational, with an imaginary part when gaussian."""
    re = f"{rng.choice([-3, -2, -1, 1, 2, 3])}/{rng.randint(1, 3)}"
    if not gaussian:
        return f"({re})"
    return f"({re} + {rng.choice([-2, -1, 1, 2])}/{rng.randint(1, 2)}*i)"


def _poly(rng, gaussian, degree):
    """A random polynomial in t of the given degree, as parser text."""
    terms = []
    for e in range(degree, -1, -1):
        if e == degree or rng.random() < 0.6:
            c = _coefficient(rng, gaussian and rng.random() < 0.7)
            terms.append(f"{c}*t^{e}" if e else c)
    return " + ".join(terms)


def _operator(rng, order, gaussian):
    """p0 D^k + ... + pk with random coefficients of degree at most 2."""
    lead = rng.choice(["1", "(t - 7)", "(t^2 + 49)", "(t + 6 - 2*i)" if gaussian else "(t + 8)"])
    parts = [f"({lead})*D^{order}"]
    for j in range(order - 1, -1, -1):
        p = _poly(rng, gaussian, rng.randint(0, 2))
        parts.append(f"({p})*D^{j}" if j else f"({p})")
    return " + ".join(parts)


# (inner centre, inner radius, outer centre, outer radius): concentric on the
# real axis, concentric off it, and nested but not concentric
ON_AXIS = ("0", "0.5", "0", "1.5")
OFF_AXIS = ("1/2+1/2*i", "0.5", "1/2+1/2*i", "1.5")
NESTED = ("1/5*i", "0.5", "0", "2")

# Euler-type operators: a regular singular point at 0 with rational local
# exponents, so the monodromy around it is quasiunipotent
EULER = ["t*D - 1/2", "t^2*D^2 + t*D - 1/4", "2*t*D^2 + D + (1 + i)*t"]

# (operator, annulus) for `bound`: small operators whose bound stays in the
# float range (exit 0), real and Gaussian of orders 1-3; the last, a
# Gaussian order-3 case, needs the scaled norms of `affine_slope` after its
# symmetrization
BOUNDS = [("D + t", ON_AXIS), ("D + t", OFF_AXIS), ("D + t", NESTED),
          ("D - i*t + 1/2", ON_AXIS), ("D - i*t + 1/2", OFF_AXIS),
          ("t*D - 1/2", ON_AXIS),
          ("(t-7)*D^2 + D + 1", ON_AXIS),
          ("(t^2+49)*D^2 + 1/2*t*D - 1", ON_AXIS),
          ("(t^2+49)*D^2 + 1/2*t*D - 1", NESTED),
          ("t^2*D^2 + t*D - 1/4", ON_AXIS), ("t^2*D^2 + t*D - 1/4", NESTED),
          ("D^2 + i/4*D + 1/4", NESTED),
          ("D^3 + t*D + 1", ON_AXIS),
          ("D^3 + i/4*D + 1/8", OFF_AXIS)]

HAMILTONIANS = ["x1^2 + x2^2", "x1^2 + 3*x2^2 + x1*x2 - x2",
                "x2^2/2 + x1^3 - x1", "x1^3 + x2^3 - x1*x2 + 2*x1",
                "x1^3 + x2^3 + i*x1*x2 - x1",
                "x1^4 + x2^4 + x1*x2 - x1"]

# principal parts that are not regular, with isolated critical points, and
# one H with n = 4: `derive-pf` only, since `reduce` is too slow at n = 4
DERIVE_ONLY = ["x1^3 + x2^2 + x1*x2", "x1^2*x2 + x2^2 + x1", "(x1+x2)^3 + x1^2 - x2",
               "x1^4 + x2^2 + x1*x2^2 - x1", "x1^5+x2^5+x1*x2^2-x2"]

# `derive-pf` without `--pencil`, then at each of these pencil values
PENCILS = ["1/2", "-3"]

# (operator, y0, centre, radius) for `count --operator`: real and Gaussian,
# with a zero coefficient and with constant coefficients
COUNT_OPERATORS = [("D^2 + 1", "1;0", "0", "2"),
                   ("(t^2+4)*D^2 + t*D + 1", "1;0.5i", "0", "1"),
                   ("D^3 + t*D + 1", "1;0;-1", "1/4", "1.5"),
                   ("D - i*t + 1/2", "1+i", "0", "1.5"),
                   ("(1 + i)*D^2 + i*t*D + 1/3", "1;i", "1/2-1/4*i", "1")]
# (polynomial, centre, radius) for `count --poly`
COUNT_POLYS = [("t^3 - 1/8", "0", "1"), ("(t-2)*(t^2+1/4)", "0", "1"),
               ("(t - i/2)^2*(t + 3/2)", "1/4", "1"),
               # coefficients that all round to 0, or all overflow
               ("1e-400*(t^2+1/4)", "0", "1"), ("10^400*(t-1/2)", "0", "1")]
# (operator, centre, radius) for `monodromy`: around regular singular points
# and around none
MONODROMY = [("t*D - 1/2", "0", "1"), ("t^2*D^2 + t*D - 1/4", "0", "0.5"),
             ("2*t*D^2 + D + (1 + i)*t", "0", "0.5"), ("D^2 + 1", "1+i", "2")]
# (H, level, seed) for `integrate`
INTEGRATE = [("x2^2/2 + x1^3 - x1", "0.1", "0.5+1i"),
             ("x1^4 + x2^4 + x1*x2 - x1", "1", "1+0.5i"),
             ("x1^2 + 3*x2^2 + x1*x2 - x2", "0.5", "0.8+0.2i")]

# cases too slow for the default run, under the `slow` marker
SLOW = {"reduce/x4": ["reduce", "--hamiltonian", "x1^5+x2^5+x1*x2^2-x2"]}


def cases():
    """{name: argv} for every case of the corpus."""
    rng = random.Random(SEED)
    out = {}
    for order in (1, 2, 3):
        for gaussian in (False, True):
            text = _operator(rng, order, gaussian)
            out[f"slope/o{order}{'g' if gaussian else 'r'}"] = ["slope", "--operator", text]
    for i, text in enumerate(EULER):
        out[f"slope/euler{i}"] = ["slope", "--operator", text]
    for i, (text, (ic, ir, oc, orad)) in enumerate(BOUNDS):
        out[f"bound/{i:02d}"] = ["bound", "--operator", text, "--inner-center", ic,
                                 "--inner-radius", ir, "--outer-center", oc,
                                 "--outer-radius", orad]
    for i, H in enumerate(HAMILTONIANS):
        out[f"reduce/h{i}"] = ["reduce", "--hamiltonian", H]
        out[f"derive-pf/h{i}"] = ["derive-pf", "--hamiltonian", H, "--pencil", "0"]
    for i, H in enumerate(DERIVE_ONLY):
        out[f"derive-pf/x{i}"] = ["derive-pf", "--hamiltonian", H, "--pencil", "0"]
    for tag, hams in (("h", HAMILTONIANS), ("x", DERIVE_ONLY)):
        for i, H in enumerate(hams):
            out[f"derive-pf/{tag}{i}/system"] = ["derive-pf", "--hamiltonian", H]
            for c in PENCILS:
                out[f"derive-pf/{tag}{i}/pencil={c}"] = ["derive-pf", "--hamiltonian", H,
                                                         "--pencil", c]
    for i, (text, y0, c, r) in enumerate(COUNT_OPERATORS):
        out[f"count/op{i}"] = ["count", "--operator", text, "--y0", y0, "--center", c,
                               "--radius", r]
    for i, (text, c, r) in enumerate(COUNT_POLYS):
        out[f"count/poly{i}"] = ["count", "--poly", text, "--center", c, "--radius", r]
    for i, (text, c, r) in enumerate(MONODROMY):
        out[f"monodromy/{i}"] = ["monodromy", "--operator", text, "--center", c, "--radius", r]
    for i, (H, t, seed) in enumerate(INTEGRATE):
        out[f"integrate/{i}"] = ["integrate", "--hamiltonian", H, "--t", t, "--seed", seed]
    out.update(SLOW)
    return out


def run_case(argv):
    """(exit code, SHA-256 of stdout) of one CLI call in process."""
    from abelint.cli import main

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def record():
    table = {}
    for name, argv in cases().items():
        code, digest = run_case(argv)
        table[name] = {"argv": argv, "exit": code, "sha256": digest}
    lines = [f" {json.dumps(name)}: {json.dumps(case)}" for name, case in table.items()]
    HASHES.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/golden_corpus.py --record")
    record()
