"""CLI subcommands and exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from abelint.cli import main
from abelint.parsing import MAX_POWER_BITS
from abelint.serialize import dumps


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_poly(capsys):
    code, out, _ = run(capsys, "count", "--poly", "t^3 - 1", "--radius", "2")
    assert code == 0
    assert json.loads(out)["zeros"] == 3


def test_count_needs_closed_data(capsys):
    code, _, err = run(capsys, "count", "--operator", "D - 1", "--radius", "1")
    assert code == 2
    assert "y0" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "count", "--poly", "t^^", "--radius", "1")
    assert code == 2


def test_zero_on_path_exit_code(capsys):
    code, _, err = run(capsys, "count", "--poly", "t - 1", "--radius", "1")
    assert code == 3


# stdout of `slope --operator "(t^2-1)*D^2 + t*D - 1"`: the 15 sampled
# slopes pass through pullback, symmetrize and standard_form over Q and Q(i)
SLOPE_GOLDEN = """\
{
  "affine_slope": "1/2",
  "sampled": [
    [
      "id/R",
      "1/2"
    ],
    [
      "id/unit-circle",
      "27/4"
    ],
    [
      "id/imag-axis",
      "1/2"
    ],
    [
      "shift+1/R",
      "2/3"
    ],
    [
      "shift+1/unit-circle",
      "369/58"
    ],
    [
      "shift+1/imag-axis",
      "4"
    ],
    [
      "scale2/R",
      "4/5"
    ],
    [
      "scale2/unit-circle",
      "6"
    ],
    [
      "scale2/imag-axis",
      "4/5"
    ],
    [
      "invert/R",
      "3/2"
    ],
    [
      "invert/unit-circle",
      "27/4"
    ],
    [
      "invert/imag-axis",
      "3/2"
    ],
    [
      "rot-i/R",
      "1/2"
    ],
    [
      "rot-i/unit-circle",
      "27/4"
    ],
    [
      "rot-i/imag-axis",
      "1/2"
    ]
  ],
  "invariant_estimate": 6.75
}
"""


def test_slope(capsys):
    code, out, _ = run(capsys, "slope", "--operator", "(t^2-1)*D^2 + t*D - 1")
    assert code == 0
    assert json.loads(out)["affine_slope"] == "1/2"
    assert out == SLOPE_GOLDEN


# sha256 of the stdout of exact and certified outputs, recorded before the
# pullback and the relation search moved to integer coefficients; each runs
# through pullback, lclm and symmetrize or through the relation search
STDOUT_SHA256 = {
    "slope-readme": (
        ("slope", "--operator", "(t^2-1)*D^2 + t*D - 1"),
        "72fb5fe633264152f7fadc0a1f35208ae720b1f81db942ee79029759d72095cf"),
    "slope-elliptic": (
        ("slope", "--operator", "(108*t^2-16)*D^2 + 15"),
        "435fe25cde61e47b6c5ab1c233a0cab7c044da0c505c99005604c7c1dce08aa5"),
    "slope-gaussian-poles": (
        ("slope", "--operator", "(t^2+4)*D^2 + t*D + 1"),
        "604d4db3bfac7b3c177d8742a0a3450e4387f30175b1fdd12a3751ec26f43f4f"),
    "bound-gaussian-poles": (
        ("bound", "--operator", "(t^2+4)*D^2 + t*D + 1",
         "--inner-radius", "0.5", "--outer-radius", "1.5"),
        "8c7d3b8c4cc21435e2ea3bdaee7255f05567b2363035744c6aa98f254da96d95"),
    "bound-sin": (
        ("bound", "--operator", "D^2 + 1", "--inner-radius", "0.5", "--outer-radius", "4"),
        "cc98982f644da1b6d76a525f192b51864386fb7518a13d61fe8624669d0c1bb8"),
    "reduce-elliptic": (
        ("reduce", "--hamiltonian", "x2^2/2 + x1^3 - x1"),
        "b41eb4bfa38844edf2ce4ffc7da29bb76fc7781a7f39c84a69a65014517df68a"),
}


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_stdout_is_unchanged(capsys, name):
    args, digest = STDOUT_SHA256[name]
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("operator", ["D^2 + 1e300*t", "D^2 + 10^400*t"])
def test_slope_beyond_the_float_range(capsys, operator):
    # the exact slopes are fine; their float estimate is beyond the range
    code, out, err = run(capsys, "slope", "--operator", operator)
    assert code == 3 and out == ""
    assert "float range" in err and "Traceback" not in err


def test_monodromy(capsys):
    code, out, _ = run(capsys, "monodromy", "--operator", "t*D - 1/2",
                       "--radius", "1")
    assert code == 0
    data = json.loads(out)
    assert data["quasiunipotent"] is True and data["orders"] == [2]


def test_monodromy_through_a_singular_point(capsys):
    """|t - 1| = 1 passes through the pole t = 0 of t*D - 1: exit 3, not a
    matrix."""
    code, out, err = run(capsys, "monodromy", "--operator", "t*D - 1",
                         "--center", "1", "--radius", "1")
    assert code == 3 and out == ""
    assert "singular locus" in err


def test_slits_svg(capsys, tmp_path):
    svg = tmp_path / "out.svg"
    code, out, _ = run(capsys, "slits", "--points", "0; 1; 2+i",
                       "--svg", str(svg))
    assert code == 0
    data = json.loads(out)
    assert data["admissible"] is True
    assert svg.exists()


def test_slits_theta(capsys):
    """A smaller scale separation splits {0, 1} from {100, 101} sooner."""
    counts = []
    for theta in ((), ("--theta", "0.001")):
        code, out, _ = run(capsys, "slits", "--points", "0; 1; 100; 101", *theta)
        assert code == 0
        counts.append(json.loads(out)["num_circles"])
    assert counts == [7, 5]


def test_derive_pf_circle(capsys):
    code, out, _ = run(capsys, "derive-pf", "--hamiltonian",
                       "x1^2/2 + x2^2/2", "--pencil", "0")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 1 and data["ell"] == 1


def test_reduce_circle(capsys):
    code, out, _ = run(capsys, "reduce", "--hamiltonian", "x1^2/2 + x2^2/2")
    assert code == 0
    assert json.loads(out)["display"] == "(t)D + (-1)"


def test_reduce_elliptic_tracks_first_period(capsys):
    code, out, _ = run(capsys, "reduce", "--hamiltonian", "x2^2/2 + x1^3 - x1")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 2
    assert data["display"] == "(108*t^2 + -16)D^2 + (15)"
    # coefficients are univariate in t, as schemas/operator.schema.json says
    assert all(c["vars"] == ["t"] for c in data["operator"]["coeffs"])


def test_reduce_system_file_is_univariate(capsys, elliptic, tmp_path):
    # the system file `derive-pf --pencil 0` writes: its A(t) entries still
    # carry x1 and x2 from the derivation
    path = tmp_path / "system.json"
    path.write_text(dumps({"A": elliptic.ode.A}))
    code, out, _ = run(capsys, "reduce", "--system", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["display"] == "(108*t^2 + -16)D^2 + (15)"
    assert all(c["vars"] == ["t"] for c in data["operator"]["coeffs"])


@pytest.mark.parametrize("cmd", ["derive-pf", "reduce"])
def test_degree_one_hamiltonian_is_degenerate(capsys, cmd):
    # x-degree 1 leaves an empty form basis (n = 0)
    code, out, err = run(capsys, cmd, "--hamiltonian", "x1")
    assert code == 4
    assert out == ""
    assert "form basis is empty" in err


def test_count_poly_overflow(capsys):
    # |t^100000000| on |t| = 2 is beyond the float range
    code, _, err = run(capsys, "count", "--poly", "t^100000000", "--radius", "2")
    assert code == 3
    assert "float range" in err


def test_bound_headline(capsys):
    code, out, _ = run(capsys, "bound", "--headline", "3")
    assert code == 0
    data = json.loads(out)
    assert data["ell"] == 9 and data["m"] == 14


def test_bound_headline_overflow(capsys):
    code, out, err = run(capsys, "bound", "--headline", "1000000")
    assert code == 3 and out == ""
    assert "float range" in err


def test_environment_cannot_weaken_quasiunipotence(capsys, tmp_path, monkeypatch):
    """The multiplier of t*D - i is e^(-2 pi), off the unit circle, whatever
    a process environment holds: the tolerances are module constants."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"qu_tol": 1.0}))
    monkeypatch.setenv("ABELINT_CONFIG", str(cfg))
    code, out, _ = run(capsys, "bound", "--operator", "t*D - i",
                       "--inner-radius", "0.5", "--outer-radius", "2")
    assert code == 5 and out == ""


def test_bound_annulus(capsys):
    code, out, _ = run(capsys, "bound", "--operator", "t*D - 1",
                       "--inner-radius", "0.5", "--outer-radius", "2")
    assert code == 0
    data = json.loads(out)
    assert data["bound"] == (2 * data["order"] + 1) * (2 * data["B"] + 1)
    # the larger circle given as --inner: the same annulus, the same bound
    code, out, _ = run(capsys, "bound", "--operator", "t*D - 1",
                       "--inner-radius", "2", "--outer-radius", "0.5")
    assert code == 0
    assert json.loads(out) == data


def test_bound_non_concentric_annulus_either_order(capsys):
    small = ("1+i", "0.5")
    big = ("0.5+0.5i", "3")
    outs = []
    for (ci, ri), (co, ro) in [(small, big), (big, small)]:
        code, out, _ = run(capsys, "bound", "--operator", "t*D - 1",
                           "--inner-center", ci, "--inner-radius", ri,
                           "--outer-center", co, "--outer-radius", ro)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    # the outer circle's distance to the singular locus is the exact one;
    # sampling the circle at 128 points overestimated it by 1.4e-7
    assert json.loads(outs[0])["B"] == 36696668673652


def test_bound_huge_leading_coefficient(capsys):
    # the symmetrized operator's leading coefficients reach 1e451 here
    code, out, err = run(capsys, "bound", "--operator", "3*t*D - 1",
                         "--inner-center", "0.2i", "--inner-radius", "0.5",
                         "--outer-center", "0.1", "--outer-radius", "3")
    assert code in (0, 3)
    assert "Traceback" not in err
    if code == 3:
        assert out == "" and "float range" in err


@pytest.mark.parametrize("circles", [
    ("--inner-center", "5", "--inner-radius", "1", "--outer-radius", "2"),
    ("--inner-radius", "2", "--outer-radius", "2"),
])
def test_bound_circles_not_nested(capsys, circles):
    code, out, err = run(capsys, "bound", "--operator", "D-1", *circles)
    assert code == 2 and out == ""
    assert "not strictly nested" in err


@pytest.mark.parametrize("radii", [
    ("--inner-radius", "1e-300", "--outer-radius", "1e300"),
    ("--inner-radius", "1e300", "--outer-radius", "1e301"),
])
def test_bound_chart_scale_below_resolution(capsys, radii):
    # a chart scale below the 1e-12 resolution of the rational charts rounded
    # to 0 and ended in a "degenerate Moebius map" traceback
    code, out, err = run(capsys, "bound", "--operator", "t*D-1", *radii)
    assert code == 3 and out == ""
    assert "chart scale" in err and "Traceback" not in err


def test_count_leaving_the_float_range_exits_promptly():
    # every companion value on this circle is non-finite; the integrator
    # used to keep stepping on them for more than 30 s
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    res = subprocess.run([sys.executable, "-m", "abelint.cli", "count", "--operator",
                          "D^2+t^3", "--radius", "1e100", "--y0", "1;0"],
                         env=env, capture_output=True, text=True, timeout=10)
    assert res.returncode == 3 and res.stdout == ""
    assert "float range" in res.stderr and "Traceback" not in res.stderr


def test_count_initial_step_underflow(capsys):
    # the first step estimate underflows to 0 on this circle; continuation
    # must still end in exit 3, as with scipy's solve_ivp
    code, out, err = run(capsys, "count", "--operator", "D^2 + 1", "--radius", "1e200",
                         "--y0", "1;0")
    assert code == 3 and out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["count", "--operator", "t^400*D + 1", "--center", "0", "--radius", "0.01",
     "--y0", "1"],
    ["monodromy", "--operator", "t^400*D + 1", "--radius", "0.01"],
])
def test_leading_coefficient_underflow(capsys, args):
    # 0.01^400 rounds to 0 on the circle, so -1 / t^400 has no float value
    code, out, err = run(capsys, *args)
    assert code == 3 and out == ""
    assert "leading coefficient rounds to 0" in err


def test_scientific_notation_arguments(capsys):
    # a decimal exponent is read as a number, not as a variable e...
    code, out, err = run(capsys, "count", "--operator", "D^2 + 1", "--radius", "2",
                         "--y0", "1e-300;0")
    assert (code, json.loads(out)["zeros"]) == (0, 1) and err == ""
    code, out, _ = run(capsys, "count", "--operator", "D^2 + 1", "--radius", "2",
                       "--y0", "1;0", "--center", "1e-3")
    assert (code, json.loads(out)["zeros"]) == (0, 1)
    code, out, _ = run(capsys, "integrate", "--hamiltonian", "x2^2/2 + x1^3 - x1",
                       "--t", "0.1", "--seed", "1e0")
    expect = run(capsys, "integrate", "--hamiltonian", "x2^2/2 + x1^3 - x1",
                 "--t", "0.1", "--seed", "1")
    assert (code, out) == expect[:2] and code == 0
    # beyond the float range, or an exponent past the interpreter's digit
    # limit on integers: exit 2 at once
    for center in ("1e400", "1e99999999"):
        code, out, err = run(capsys, "count", "--operator", "D^2 + 1", "--radius", "2",
                             "--y0", "1;0", "--center", center)
        assert code == 2 and out == "" and "Traceback" not in err


def test_cli_import_skips_scipy():
    # the DOP853 tableau is in abelint itself; scipy (about 1 s to import)
    # is a test dependency only
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    runs = [
        ["integrate", "--hamiltonian", "x2^2/2 + x1^3 - x1", "--t", "0.1", "--seed", "0.5+1i"],
        ["monodromy", "--operator", "t*D - 1/2", "--radius", "1"],
        ["count", "--operator", "D^2 + 1", "--radius", "2", "--y0", "1;0"],
    ]
    code = ("import sys, abelint.cli\n"
            "loaded = ['scipy' in sys.modules]\n"
            f"for argv in {runs!r}:\n"
            "    assert abelint.cli.main(argv) == 0\n"
            "    loaded.append('scipy' in sys.modules)\n"
            "print(loaded)")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip().splitlines()[-1] == str([False] * 4)


@pytest.mark.parametrize("args, code, message", [
    # no two passes agree to 1e-30, and the pass tolerance stops at 100 eps
    (("x2^2/2 + x1^3 - x1", "0.1", "0.5+1i", "--rel-tol", "1e-30"), 3,
     "did not self-converge"),
    (("x1^2 - x2^2", "1", "1"), 4, "did not close"),
])
def test_integrate_fails_promptly(args, code, message):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    hamiltonian, t, seed, *rest = args
    res = subprocess.run([sys.executable, "-m", "abelint.cli", "integrate",
                          "--hamiltonian", hamiltonian, "--t", t, "--seed", seed, *rest],
                         env=env, capture_output=True, text=True, timeout=10)
    assert res.returncode == code and res.stdout == ""
    assert message in res.stderr and "Traceback" not in res.stderr


def test_integrate_circle(capsys):
    code, out, _ = run(capsys, "integrate", "--hamiltonian",
                       "x1^2/2 + x2^2/2", "--t", "0.5", "--seed", "1")
    assert code == 0
    data = json.loads(out)
    import math
    assert abs(data["integrals"][0] - math.pi) < 1e-6


def test_slope_large_gaussian_coefficients(capsys):
    # |c|^2 = 2e400 is beyond the float range, |c| is not
    code, out, _ = run(capsys, "slope", "--operator",
                       "(10^200*(1+i))*t*D + 10^160*(1+i)")
    assert code == 0
    assert json.loads(out)["affine_slope"] == pytest.approx(1e-40)
    # here |c| itself is beyond it
    code, _, err = run(capsys, "slope", "--operator", "(10^400*(1+i))*D + 1")
    assert code == 3
    assert "float range" in err


@pytest.mark.parametrize("args", [
    ("reduce", "--hamiltonian", "x1^2/2 + x2^2/2", "--pencil", "nan"),
    ("derive-pf", "--hamiltonian", "x1^2/2 + x2^2/2", "--pencil", "inf"),
    ("integrate", "--hamiltonian", "x1^2/2 + x2^2/2", "--t", "-inf", "--seed", "1"),
    ("count", "--poly", "t", "--radius", "-1"),
    ("count", "--poly", "t", "--radius", "0"),
    ("monodromy", "--operator", "t*D - 1/2", "--radius", "nan"),
    ("bound", "--operator", "t*D - 1", "--inner-radius", "0.5", "--outer-radius", "inf"),
    ("bound", "--operator", "t*D - 1", "--inner-radius", "-0.5", "--outer-radius", "2"),
    ("slits", "--points", "0; 1", "--theta", "nan"),
    ("slits", "--points", "0; 1", "--theta", "0"),
    ("slits", "--points", "0; 1", "--theta", "-1"),
    ("bound", "--headline", "3", "--size", "nan"),
    ("bound", "--headline", "0"),
    ("bound", "--headline", "-3"),
    ("integrate", "--hamiltonian", "x1^2/2 + x2^2/2", "--t", "0.1", "--seed", "1",
     "--rel-tol", "nan"),
    ("integrate", "--hamiltonian", "x1^2/2 + x2^2/2", "--t", "0.1", "--seed", "1",
     "--rel-tol", "0"),
    ("integrate", "--hamiltonian", "x1^2/2 + x2^2/2", "--t", "0.1", "--seed", "1",
     "--rel-tol", "-1"),
])
def test_nonfinite_or_nonpositive_floats_rejected(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ("monodromy", "--radius", "1"),
    ("bound", "--inner-radius", "0.5", "--outer-radius", "2"),
    ("count", "--radius", "1", "--y0", "1"),
    ("slope",),
])
@pytest.mark.parametrize("operator", ["7", "0*D + 1"])
def test_order_zero_operator_rejected(capsys, args, operator):
    code, out, err = run(capsys, args[0], "--operator", operator, *args[1:])
    assert code == 2 and out == ""
    assert "order 0" in err


def test_annulus_bound_needs_both_radii(capsys):
    for radii in ((), ("--inner-radius", "0.5"), ("--outer-radius", "2")):
        code, _, err = run(capsys, "bound", "--operator", "t*D - 1", *radii)
        assert code == 2
        assert "--inner-radius and --outer-radius" in err


@pytest.mark.parametrize("args", [
    ["count", "--operator", "D - 1", "--radius", "1", "--y0", "3^1000000000"],
    ["slope", "--operator", "3^1000000000*D + 1"],
    ["slope", "--operator", f"(t+1)^{MAX_POWER_BITS + 1}*D + 1"]])
def test_huge_powers_exit_2(capsys, args):
    """A power that would add more than MAX_POWER_BITS bits is an input
    error, refused before its value is built."""
    code, _, err = run(capsys, *args)
    assert code == 2 and "bits" in err
