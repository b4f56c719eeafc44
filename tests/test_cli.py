"""CLI subcommands and exit codes."""

import json

import pytest

from abelint.cli import main


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


def test_slope(capsys):
    code, out, _ = run(capsys, "slope", "--operator", "(t^2-1)*D^2 + t*D - 1")
    assert code == 0
    assert json.loads(out)["affine_slope"] == "1/2"


def test_monodromy(capsys):
    code, out, _ = run(capsys, "monodromy", "--operator", "t*D - 1/2",
                       "--radius", "1")
    assert code == 0
    data = json.loads(out)
    assert data["quasiunipotent"] is True and data["orders"] == [2]


def test_slits_svg(capsys, tmp_path):
    svg = tmp_path / "out.svg"
    code, out, _ = run(capsys, "slits", "--points", "0; 1; 2+i",
                       "--svg", str(svg))
    assert code == 0
    data = json.loads(out)
    assert data["admissible"] is True
    assert svg.exists()


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


def test_bound_headline(capsys):
    code, out, _ = run(capsys, "bound", "--headline", "3")
    assert code == 0
    data = json.loads(out)
    assert data["ell"] == 9 and data["m"] == 14


def test_bound_annulus(capsys):
    code, out, _ = run(capsys, "bound", "--operator", "t*D - 1",
                       "--inner-radius", "0.5", "--outer-radius", "2")
    assert code == 0
    data = json.loads(out)
    assert data["bound"] == (2 * data["order"] + 1) * (2 * data["B"] + 1)


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
])
def test_nonfinite_or_nonpositive_floats_rejected(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_annulus_bound_needs_both_radii(capsys):
    for radii in ((), ("--inner-radius", "0.5"), ("--outer-radius", "2")):
        code, _, err = run(capsys, "bound", "--operator", "t*D - 1", *radii)
        assert code == 2
        assert "--inner-radius and --outer-radius" in err
