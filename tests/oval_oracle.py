"""Reference area and perimeter of a star-shaped oval {H = t}: the polar
trapezoid rule about an interior point, the oracle that the oval tracer of
`abelint.integrals` is checked against on non-convex ovals (test_integrals).

H and its gradient are plain float functions, independent of abelint's
kernels.  Each ray from the centre meets the oval once, at the radius
r(theta) that bisection finds; the trapezoid rule on the periodic integrands
1/2 r^2 (area) and sqrt(r^2 + r'^2) (perimeter) converges geometrically in
the number of rays.
"""

import math


def _radius(H, t, center, theta):
    """The r > 0 with H(center + r (cos theta, sin theta)) = t, by doubling
    then bisection to the last float."""
    c, s = math.cos(theta), math.sin(theta)

    def f(r):
        return H(center[0] + r * c, center[1] + r * s) - t

    if f(0.0) >= 0:
        raise ValueError("the centre is not inside the oval")
    lo, hi = 0.0, 1.0
    while f(hi) < 0:
        lo, hi = hi, 2 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid


def polar_area_perimeter(H, grad, t, center, rays=2048):
    """(area, perimeter) of the oval {H = t} around `center`, star-shaped
    about it, by the trapezoid rule over `rays` equally spaced angles."""
    area = length = 0.0
    for k in range(rays):
        theta = 2 * math.pi * k / rays
        c, s = math.cos(theta), math.sin(theta)
        r = _radius(H, t, center, theta)
        gx, gy = grad(center[0] + r * c, center[1] + r * s)
        # r' from H(center + r(theta) e(theta)) = t
        dr = -r * (-gx * s + gy * c) / (gx * c + gy * s)
        area += 0.5 * r * r
        length += math.hypot(r, dr)
    step = 2 * math.pi / rays
    return area * step, length * step

