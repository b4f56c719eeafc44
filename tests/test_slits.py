"""Slit geometry: invariance, admissibility, and the oracle sandwich."""

import cmath
import math
import random

import pytest

from abelint.errors import UnsupportedInput
from abelint.slits import (Arc, Circle, Segment, SlitSystem, build_slits,
                           cluster_diameter_upper, is_admissible,
                           normalized_length, regions, svg_export)
from abelint.slits import GEOM_TOL, _seg_crosses_circle
from slit_oracle import brute_force_cluster_diameter


def rand_points(rng, k, spread=10.0):
    pts = []
    while len(pts) < k:
        p = complex(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
        if all(abs(p - q) > 1e-3 for q in pts):
            pts.append(p)
    return pts


def apply_sim(system_points, a, b):
    return [a * p + b for p in system_points]


def test_normalized_length_definition():
    pts = [0j, 4 + 0j]
    c = Circle(0j, 1.0)      # circle-to-set distance is min(1, 3) = 1
    assert abs(normalized_length(c, pts) - 1.0) < 1e-15
    s = Segment(2 + 1j, 2 + 3j)  # length 2, distance to {0,4} = sqrt5
    assert abs(normalized_length(s, pts) - 2 / math.sqrt(5)) < 1e-12
    a = Arc(0j, 2.0, 0.0, math.pi)  # arclength 2pi, set distance 2
    assert abs(normalized_length(a, pts) - 0.5) < 1e-12


def test_build_slits_admissible_small():
    for pts in ([0j], [0j, 1 + 0j], [0j, 1j, 1 + 0j], [0j, 1 + 0j, 100 + 0j]):
        system = build_slits(pts)
        assert is_admissible(system)
        assert len(system.circles) <= 3 * len(pts)


def test_build_slits_admissible_random():
    rng = random.Random(30)
    for _ in range(25):
        k = rng.randint(1, 10)
        pts = rand_points(rng, k)
        system = build_slits(pts)
        assert is_admissible(system)
        assert len(system.circles) <= 3 * k


def test_punctures_in_leaf_circles():
    pts = [0j, 1 + 0j, 50 + 0j]
    system = build_slits(pts)
    regs = regions(system)
    punctured = [r for r in regs if r.kind == "punctured-disk"]
    assert len(punctured) == 3
    got = sorted((r.punctures[0] for r in punctured),
                 key=lambda z: (z.real, z.imag))
    assert got == sorted(pts, key=lambda z: (z.real, z.imag))


def test_similarity_invariance():
    rng = random.Random(31)
    pts = rand_points(rng, 5)
    base, _ = cluster_diameter_upper(pts)
    for _ in range(20):
        ang = rng.uniform(0, 2 * math.pi)
        a = rng.uniform(0.1, 10.0) * cmath.exp(1j * ang)
        b = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        moved, _ = cluster_diameter_upper(apply_sim(pts, a, b))
        assert abs(moved - base) <= 1e-12 * max(abs(base), 1.0)


def test_oracle_sandwich():
    rng = random.Random(32)
    for _ in range(5):
        k = rng.randint(2, 3)
        pts = rand_points(rng, k, spread=5.0)
        bf, _ = brute_force_cluster_diameter(pts)
        ub, _ = cluster_diameter_upper(pts)
        assert bf <= ub + 1e-12
        assert ub <= 4 * bf + 1e-12


def test_at_velocity_is_the_point_and_its_derivative():
    for piece in (Arc(0.5 - 1j, 2.0, 0.3, -4.0), Segment(1 + 2j, -0.5 + 0.25j)):
        for s in (0.0, 0.37, 1.0):
            z, dz = piece.at_velocity(s)
            assert z == piece.at(s)
            h = 1e-6
            fd = (piece.at(s + h) - piece.at(s - h)) / (2 * h)
            assert abs(dz - fd) < 1e-6 * piece.length()


def test_segment_distance_to_a_set():
    """`Segment.dist_to_set` is, bit for bit, the least distance from each
    point to its projection on the segment clamped to the ends, also for a
    segment of length 0 and an empty set."""
    def dist(seg, p):
        d = seg.z1 - seg.z0
        L2 = abs(d) ** 2
        if L2 == 0:
            return abs(p - seg.z0)
        s = min(1.0, max(0.0, ((p - seg.z0).real * d.real + (p - seg.z0).imag * d.imag) / L2))
        return abs(p - (seg.z0 + s * d))
    rng = random.Random(11)
    for _ in range(50):
        z0, z1 = (complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(2))
        pts = rand_points(rng, rng.randint(1, 12), spread=4.0)
        for seg in (Segment(z0, z1), Segment(z0, z0)):
            assert seg.dist_to_set(pts).hex() == min(dist(seg, p) for p in pts).hex()
            assert seg.dist_to_point(pts[0]) == dist(seg, pts[0])
    assert Segment(0j, 1 + 0j).dist_to_set([]) == math.inf


def test_inadmissible_examples():
    # two circles crossed by nothing but both containing a point: the region
    # between two disjoint circles inside a third is an annulus only if the
    # slit structure connects them; a slit cycle is rejected
    c_out = Circle(0j, 10.0)
    c1 = Circle(-3 + 0j, 1.0)
    c2 = Circle(3 + 0j, 1.0)
    s1 = Segment(-2 + 0j, 2 + 0j)
    s2 = Segment(-3 + 1j, 3 + 1j)
    bad = SlitSystem([c_out, c1, c2], [s1, s2], [-3 + 0j, 3 + 0j])
    assert not is_admissible(bad)  # two slits close a cycle


def test_shallow_chord_crosses_circle():
    """A chord 1e-4 below the top of the unit circle crosses it twice, in a
    stretch shorter than a sampling step along the segment."""
    assert _seg_crosses_circle(Segment(-5.03 + 0.9999j, 4.97 + 0.9999j),
                               Circle(0j, 1.0), GEOM_TOL)
    assert not _seg_crosses_circle(Segment(-5.03 + 1.0001j, 4.97 + 1.0001j),
                                   Circle(0j, 1.0), GEOM_TOL)


def test_slit_through_a_shallow_chord_is_rejected():
    y = 0.9999
    cut = Segment(5 - math.sqrt(400 - y * y) + 1j * y, 10 - math.sqrt(1 - y * y) + 1j * y)
    system = SlitSystem([Circle(5 + 0j, 20.0), Circle(0j, 1.0), Circle(10 + 0j, 1.0)],
                        [cut, Segment(-1 + 0j, -15 + 0j)], [0j, 10 + 0j])
    assert not is_admissible(system)
    with pytest.raises(UnsupportedInput, match="crosses circle 1"):
        regions(system)


def test_region_classification():
    c_out = Circle(0j, 10.0)
    c_in = Circle(0j, 1.0)
    system = SlitSystem([c_out, c_in], [], [0j])
    regs = regions(system)
    kinds = sorted(r.kind for r in regs)
    # inside c_in: punctured disk; between: annulus; outside: unbounded
    assert kinds == ["annulus", "punctured-disk", "simply-connected"]


def test_svg_export(tmp_path):
    system = build_slits([0j, 1 + 0j])
    out = tmp_path / "slits.svg"
    svg_export(system, str(out))
    data = out.read_text()
    assert data.startswith("<svg") and "circle" in data


def test_brute_force_rejects_large_sets():
    with pytest.raises(UnsupportedInput):
        brute_force_cluster_diameter([0j, 1j, 2j, 3j])
