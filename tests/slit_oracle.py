"""Brute-force reference for cluster diameters: a grid search over small
admissible slit systems, the oracle that the constructive clustering of
`abelint.slits` is checked against (test_slits and acceptance criterion 8)."""

import itertools

from abelint.errors import UnsupportedInput
from abelint.slits import (GEOM_TOL, Circle, SlitSystem, _diameter, _nesting,
                           _region_mst_segments, cluster_diameter_upper,
                           is_admissible)


def brute_force_cluster_diameter(points):
    """Grid search over small admissible systems; returns (value, system).

    The candidate grid is seeded with the constructive system, so the result
    never exceeds cluster_diameter_upper.
    """
    pts = [complex(p) for p in points]
    if len(pts) > 3:
        raise UnsupportedInput("brute force supports at most 3 points")
    upper_val, upper_sys = cluster_diameter_upper(pts)

    # candidate inner circles per point
    def nearest_other(p):
        return min((abs(p - q) for q in pts if q != p), default=2.0)

    inner_cands = []
    for p in pts:
        sep = nearest_other(p)
        cands = [Circle(p, f * sep) for f in (1 / 3, 1 / 2.5, 1 / 2.2, 1 / 2)]
        for c in upper_sys.circles:
            if abs(c.center - p) < 1e-12 and all(
                    abs(q - p) > c.radius for q in pts if q != p):
                cands.append(c)
        inner_cands.append(cands)

    # candidate enclosing circles
    extra = list(upper_sys.circles)
    centers = [sum(pts) / len(pts)] + [(a + b) / 2 for i, a in enumerate(pts)
                                       for b in pts[i + 1:]]
    diam = _diameter(pts) or 1.0
    for c in centers:
        reach = max(abs(c - p) for p in pts)
        for f in [1.3, 1.8, 2.5, 1.0 + diam / max(reach, 1e-12)]:
            extra.append(Circle(c, reach * f))

    best = (upper_val, upper_sys)
    for inner_combo in itertools.product(*inner_cands):
        for k in range(2):   # at most one circle beyond the inner ones
            for extras in itertools.combinations(extra, k):
                circles = list(inner_combo) + list(extras)
                sys_try = _try_system(circles, pts)
                if sys_try is None:
                    continue
                val = sys_try.total_normalized_length()
                if val < best[0]:
                    best = (val, sys_try)
    return best


def _try_system(circles, pts):
    """Route minimal slits for a candidate circle family; None if invalid."""
    scale = max(c.radius for c in circles)
    tol = GEOM_TOL * scale
    segments = []
    try:
        children, roots, _, host_pts = _nesting(circles, pts, tol)
        # unbounded region: glue multiple roots together (annulus allowed)
        if host_pts[None]:
            return None
        if len(roots) > 1:
            kid_circles = [circles[i] for i in roots]
            big = Circle(sum(c.center for c in kid_circles) / len(kid_circles),
                         1e9 * max(c.radius for c in kid_circles))
            segs = _region_mst_segments(big, kid_circles, pts, circles, tol)
            segments.extend(segs)
        for i in range(len(circles)):
            kids = children[i]
            if host_pts[i] and kids:
                return None
            if host_pts[i] and len(host_pts[i]) > 1:
                return None
            if not kids:
                continue
            if len(kids) == 1 and not host_pts[i]:
                continue  # annulus, no slits needed
            kid_circles = [circles[k] for k in kids]
            segs = _region_mst_segments(circles[i], kid_circles, pts, circles, tol)
            # leave the parent out when the children alone glue to one blob
            segments.extend(segs)
    except UnsupportedInput:
        return None
    system = SlitSystem(list(circles), segments, pts)
    if not is_admissible(system):
        return None
    return system
