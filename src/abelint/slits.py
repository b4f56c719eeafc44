"""Slit systems: normalized lengths, admissibility, constructive clustering.

A slit system for a finite point set T is a collection of circles and
straight segments whose complement consists of simply connected regions and
annuli only (a disk punctured at a single point of T counts as an annulus).
The cost of a piece is its normalized length: |arc| / (2 pi dist(arc, T)) for
circular arcs and |seg| / dist(seg, T) for segments, both invariant under
similarity maps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import UnsupportedInput

THETA = 0.1        # scale-separation threshold of the clustering
GEOM_TOL = 1e-9    # relative tolerance of the geometric checks


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float

    def dist_to_point(self, p: complex) -> float:
        return abs(abs(p - self.center) - self.radius)

    def contains(self, p: complex, tol=0.0) -> bool:
        return abs(p - self.center) < self.radius - tol

    def length(self):
        return 2 * math.pi * self.radius

    def point_at(self, angle):
        return self.center + self.radius * complex(math.cos(angle), math.sin(angle))


@dataclass(frozen=True)
class Segment:
    z0: complex
    z1: complex

    def length(self):
        return abs(self.z1 - self.z0)

    def at(self, s):
        """The point at parameter s in [0, 1]."""
        return self.z0 + s * (self.z1 - self.z0)

    def velocity(self, s):
        """d/ds of at(s)."""
        return self.z1 - self.z0

    def dist_to_point(self, p: complex) -> float:
        d = self.z1 - self.z0
        L2 = abs(d) ** 2
        if L2 == 0:
            return abs(p - self.z0)
        s = ((p - self.z0).real * d.real + (p - self.z0).imag * d.imag) / L2
        s = min(1.0, max(0.0, s))
        return abs(p - (self.z0 + s * d))


@dataclass(frozen=True)
class Arc:
    """Circular arc, angles in radians, traversed from a0 to a1."""

    center: complex
    radius: float
    a0: float
    a1: float

    def length(self):
        return abs(self.a1 - self.a0) * self.radius

    def at(self, s):
        """The point at parameter s in [0, 1]."""
        a = self.a0 + s * (self.a1 - self.a0)
        return self.center + self.radius * cmath.exp(1j * a)

    def velocity(self, s):
        """d/ds of at(s)."""
        a = self.a0 + s * (self.a1 - self.a0)
        return self.radius * (self.a1 - self.a0) * 1j * cmath.exp(1j * a)

    def dist_to_point(self, p: complex) -> float:
        v = p - self.center
        ang = math.atan2(v.imag, v.real)
        lo, hi = min(self.a0, self.a1), max(self.a0, self.a1)
        for a in (ang, ang + 2 * math.pi, ang - 2 * math.pi):
            if lo <= a <= hi:
                return abs(abs(v) - self.radius)
        d0 = abs(p - (self.center + self.radius * complex(math.cos(self.a0), math.sin(self.a0))))
        d1 = abs(p - (self.center + self.radius * complex(math.cos(self.a1), math.sin(self.a1))))
        return min(d0, d1)


def _dist_to_set(piece, points):
    """Exact distance from piece to the nearest of points (a sequence or an
    array), inf for none."""
    return min((piece.dist_to_point(complex(p)) for p in points), default=float("inf"))


def normalized_length(piece, points) -> float:
    """Similarity-invariant cost of a circle, arc, or segment w.r.t. T."""
    d = _dist_to_set(piece, points)
    if d == 0:
        return float("inf")
    if isinstance(piece, Circle):
        return piece.radius / d
    if isinstance(piece, Arc):
        return piece.length() / (2 * math.pi * d)
    if isinstance(piece, Segment):
        return piece.length() / d
    raise UnsupportedInput(f"unsupported piece type {type(piece).__name__}")


@dataclass
class SlitSystem:
    circles: list
    segments: list
    points: list

    def total_normalized_length(self) -> float:
        return (sum(normalized_length(c, self.points) for c in self.circles) +
                sum(normalized_length(s, self.points) for s in self.segments))


@dataclass
class Region:
    kind: str                 # "simply-connected" | "annulus" | "punctured-disk"
    outer: object             # Circle or None for the unbounded region
    inner: list               # children circles (holes)
    segments: list            # slits inside this region
    punctures: list           # T points inside


def _forest(circles, tol):
    """parent[i] = index of smallest circle strictly containing circle i."""
    parent = [None] * len(circles)
    for i, ci in enumerate(circles):
        best = None
        for j, cj in enumerate(circles):
            if i == j:
                continue
            if abs(ci.center - cj.center) + ci.radius < cj.radius + tol:
                if best is None or cj.radius < circles[best].radius:
                    best = j
        parent[i] = best
    return parent


def _nesting(circles, pts, tol):
    """(children, roots, innermost, hosted) of a circle family.

    The circles must be pairwise disjoint or strictly nested (else
    UnsupportedInput).  children[i] and roots form the nesting forest,
    innermost(p) is the smallest circle containing p (None outside all of
    them), and hosted maps each circle index, or None, to its points of pts.
    """
    for i in range(len(circles)):
        for j in range(i + 1, len(circles)):
            ci, cj = circles[i], circles[j]
            d = abs(ci.center - cj.center)
            if d > ci.radius + cj.radius + tol:
                continue
            if d + ci.radius < cj.radius - tol or d + cj.radius < ci.radius - tol:
                continue
            raise UnsupportedInput(f"circles {i} and {j} intersect or touch")
    parent = _forest(circles, tol)
    children = {i: [] for i in range(len(circles))}
    roots = []
    for i, par in enumerate(parent):
        if par is None:
            roots.append(i)
        else:
            children[par].append(i)

    def innermost(p):
        best = None
        for i, c in enumerate(circles):
            if c.contains(p, tol) and (best is None or c.radius < circles[best].radius):
                best = i
        return best

    hosted = {i: [] for i in range(len(circles))}
    hosted[None] = []
    for p in pts:
        hosted[innermost(p)].append(p)
    return children, roots, innermost, hosted


def _find(uf, a):
    """Root of a in the union-find parent list uf, halving paths on the way."""
    while uf[a] != a:
        uf[a] = uf[uf[a]]
        a = uf[a]
    return a


def _seg_endpoint_circle(p, circles, tol):
    for i, c in enumerate(circles):
        if abs(abs(p - c.center) - c.radius) <= tol:
            return i
    return None


def _seg_crosses_circle(seg: Segment, c: Circle, tol) -> bool:
    """True if the open segment meets the circle away from its endpoints:
    |z0 + s d - center|^2 = r^2 has two roots and one lies in (eps, 1 - eps)."""
    d = seg.z1 - seg.z0
    L = abs(d)
    if L == 0:
        return False
    w = seg.z0 - c.center
    # L^2 s^2 + 2 b s + C = 0 has the roots q / L^2 and C / q, q != 0
    b = (w * d.conjugate()).real
    C = (abs(w) - c.radius) * (abs(w) + c.radius)
    disc = b * b - L * L * C
    if disc <= 0:
        return False
    q = -(b + math.copysign(math.sqrt(disc), b))
    eps = tol / max(L, tol)
    return any(eps < s < 1 - eps for s in (q / (L * L), C / q))


def regions(system: SlitSystem):
    """Classify the complement; raises UnsupportedInput on invalid geometry."""
    circles = system.circles
    pts = system.points
    scale = max([c.radius for c in circles] + [1e-300])
    tol = GEOM_TOL * scale
    children, roots, innermost, region_pts = _nesting(circles, pts, tol)
    for p in pts:
        for i, c in enumerate(circles):
            if c.dist_to_point(p) <= tol:
                raise UnsupportedInput(f"point {p} lies on circle {i}")

    # segments: both endpoints on circles, interior crossing nothing
    region_segs = {i: [] for i in range(len(circles))}
    region_segs[None] = []
    seg_edges = {i: [] for i in range(len(circles))}
    seg_edges[None] = []
    for si, seg in enumerate(system.segments):
        e0 = _seg_endpoint_circle(seg.z0, circles, tol * 10)
        e1 = _seg_endpoint_circle(seg.z1, circles, tol * 10)
        if e0 is None or e1 is None:
            raise UnsupportedInput(f"segment {si} endpoint not on any circle")
        for ci, c in enumerate(circles):
            if ci in (e0, e1):
                continue
            if _seg_crosses_circle(seg, c, tol):
                raise UnsupportedInput(f"segment {si} crosses circle {ci}")
        mid = (seg.z0 + seg.z1) / 2
        host = innermost(mid)
        allowed = set(children.get(host, roots if host is None else []))
        if host is not None:
            allowed.add(host)
        else:
            allowed = set(roots)
        if e0 not in allowed or e1 not in allowed:
            raise UnsupportedInput(f"segment {si} does not join boundary circles of its region")
        region_segs[host].append(seg)
        seg_edges[host].append((e0, e1))
        for p in pts:
            if seg.dist_to_point(p) <= tol:
                raise UnsupportedInput(f"point {p} lies on segment {si}")

    out = []

    def classify(host, outer, kids):
        segs = region_segs[host]
        edges = seg_edges[host]
        punct = region_pts[host]
        verts = list(kids) + ([host] if host is not None else [])
        if not kids and not segs:
            if host is None:
                if punct:
                    raise UnsupportedInput("points of T in the unbounded region")
                if len(roots) > 1:
                    raise UnsupportedInput("multiple unconnected outermost circles")
                return Region("simply-connected", None, [], [], [])
            if len(punct) == 0:
                return Region("simply-connected", outer, [], [], [])
            if len(punct) == 1:
                return Region("punctured-disk", outer, [], [], punct)
            raise UnsupportedInput("disk contains more than one point of T")
        if punct:
            raise UnsupportedInput("points of T float in a multiply connected region")
        # connectivity after slitting: holes glued along segments
        idx = {v: k for k, v in enumerate(verts)}
        uf = list(range(len(verts)))
        cycle = False
        for (u, v) in edges:
            ru, rv = _find(uf, idx[u]), _find(uf, idx[v])
            if ru == rv:
                cycle = True
            else:
                uf[ru] = rv
        comps = len({_find(uf, k) for k in range(len(verts))})
        if cycle:
            raise UnsupportedInput("slit segments form a cycle")
        if comps == 1:
            return Region("simply-connected", outer, [circles[k] for k in kids],
                          segs, [])
        if comps == 2 and not segs and len(kids) == 1:
            return Region("annulus", outer, [circles[k] for k in kids], [], [])
        if comps == 2:
            # everything glued into a single blob leaves one annular gap
            return Region("annulus", outer, [circles[k] for k in kids], segs, [])
        raise UnsupportedInput(f"region has {comps} boundary components after slitting")

    out.append(classify(None, None, roots))
    for i in range(len(circles)):
        out.append(classify(i, circles[i], children[i]))
    return out


def is_admissible(system: SlitSystem) -> bool:
    try:
        regions(system)
        return True
    except UnsupportedInput:
        return False


# ---------------------------------------------------------------------------
# constructive clustering


def _mst_gap_groups(points, theta):
    """Split points at the largest multiplicative gap of MST edge lengths.

    Returns a list of groups (lists of points); a single group means no
    qualifying scale separation was found.
    """
    n = len(points)
    if n <= 1:
        return [list(points)]
    # Prim MST edge lengths
    in_tree = [False] * n
    dist = [float("inf")] * n
    dist[0] = 0.0
    edges = []
    best_edge = [None] * n
    for _ in range(n):
        u = min((i for i in range(n) if not in_tree[i]), key=lambda i: dist[i])
        in_tree[u] = True
        if best_edge[u] is not None:
            edges.append((dist[u], best_edge[u], u))
        for v in range(n):
            if not in_tree[v]:
                d = abs(points[u] - points[v])
                if d < dist[v]:
                    dist[v] = d
                    best_edge[v] = u
    lengths = sorted(e[0] for e in edges)
    # largest multiplicative gap between consecutive MST lengths
    factor_needed = max(1.0 / theta, 5.0 * n)
    best_ratio, cut = 1.0, None
    for a, b in zip(lengths, lengths[1:]):
        if a > 0 and b / a > best_ratio:
            best_ratio, cut = b / a, math.sqrt(a * b)
    if cut is None or best_ratio < factor_needed:
        return [list(points)]
    # union-find over short edges
    uf = list(range(n))
    for (w, u, v) in edges:
        if w < cut:
            uf[_find(uf, u)] = _find(uf, v)
    groups = {}
    for i in range(n):
        groups.setdefault(_find(uf, i), []).append(points[i])
    return list(groups.values())


@dataclass
class _Node:
    circle: Circle
    children: list = field(default_factory=list)
    point: complex = None  # for leaves


def _build_node(points, sep_outside, center_cap, theta):
    """Recursive cluster node: circle of radius sep/3 (capped to fit parent)."""
    centroid = sum(points) / len(points)
    if len(points) == 1:
        r = sep_outside / 3 if math.isfinite(sep_outside) else 1.0
        r = min(r, center_cap) if center_cap else r
        return _Node(Circle(points[0], r), point=points[0])
    r = sep_outside / 3 if math.isfinite(sep_outside) else \
        max(abs(p - centroid) for p in points) + _diameter(points)
    if center_cap:
        r = min(r, center_cap)
    node = _Node(Circle(centroid, r))
    groups = _mst_gap_groups(points, theta)
    if len(groups) == 1:
        groups = [[p] for p in points]
    for g in groups:
        rest = [p for p in points if p not in g]
        sep = min((abs(p - q) for p in g for q in rest), default=float("inf"))
        gc = sum(g) / len(g)
        cap = (r - abs(gc - centroid)) / 2
        node.children.append(_build_node(g, sep, cap, theta))
    return node


def _diameter(points):
    return max((abs(p - q) for p in points for q in points), default=0.0)


def _connect_segment(inner: Circle, outer_or_sib: Circle, nested: bool):
    if nested:
        # shortest segment from inner circle to enclosing circle boundary
        d = inner.center - outer_or_sib.center
        u = d / abs(d) if abs(d) > 0 else complex(1, 0)
        return Segment(inner.center + inner.radius * u,
                       outer_or_sib.center + outer_or_sib.radius * u)
    d = outer_or_sib.center - inner.center
    u = d / abs(d)
    return Segment(inner.center + inner.radius * u,
                   outer_or_sib.center - outer_or_sib.radius * u)


def _region_mst_segments(parent: Circle, kids, points, other_circles, tol):
    """Minimum-cost slits joining all child circles (parent optional vertex)."""
    n = len(kids)
    if n == 0:
        return []
    cand = []
    for i in range(n):
        for j in range(i + 1, n):
            seg = _connect_segment(kids[i], kids[j], nested=False)
            cand.append((normalized_length(seg, points), i, j, seg, {kids[i], kids[j]}))
        seg = _connect_segment(kids[i], parent, nested=True)
        cand.append((normalized_length(seg, points), i, n, seg, {kids[i], parent}))
    cand.sort(key=lambda e: e[0])

    def crosses(seg, exclude):
        for c in other_circles:
            if c in exclude:
                continue
            if _seg_crosses_circle(seg, c, tol):
                return True
        return False

    # Kruskal over kids (+ parent as optional extra vertex)
    uf = list(range(n + 1))
    chosen = []
    for (w, i, j, seg, exclude) in cand:
        if _find(uf, i) == _find(uf, j):
            continue
        if crosses(seg, exclude):
            continue
        uf[_find(uf, i)] = _find(uf, j)
        chosen.append(seg)
        comps = {_find(uf, k) for k in range(n)}
        if len(comps) == 1:
            break
    comps = {_find(uf, k) for k in range(n)}
    if len(comps) > 1:
        raise UnsupportedInput("could not route slits without crossings")
    return chosen


def build_slits(points, theta=THETA) -> SlitSystem:
    """Constructive admissible slit system with at most 3|T| circles; theta
    is the scale separation at which a cluster splits."""
    pts = [complex(p) for p in points]
    if not pts:
        raise UnsupportedInput("empty point set")
    if len(set(pts)) != len(pts):
        raise UnsupportedInput("duplicate points in T")
    root = _build_node(pts, float("inf"), None, theta)
    circles = []
    segments = []
    scale = max(root.circle.radius, 1e-300)
    tol = GEOM_TOL * scale

    all_nodes = []

    def collect(node):
        all_nodes.append(node)
        for ch in node.children:
            collect(ch)

    collect(root)
    all_circles = [nd.circle for nd in all_nodes]

    def walk(node):
        circles.append(node.circle)
        if node.children:
            kid_circles = [ch.circle for ch in node.children]
            segments.extend(_region_mst_segments(
                node.circle, kid_circles, pts, all_circles, tol))
            for ch in node.children:
                walk(ch)

    if root.children:
        walk(root)
    else:
        # single point: inner circle + outer circle + one connecting slit
        inner = root.circle
        outer = Circle(inner.center, max(1.0 + inner.radius, 3 * inner.radius))
        circles.extend([outer, inner])
        segments.append(_connect_segment(inner, outer, nested=True))
    system = SlitSystem(circles, segments, pts)
    return system


def cluster_diameter_upper(points):
    """(total normalized length, system) for the constructive slit system."""
    system = build_slits(points)
    return system.total_normalized_length(), system


# ---------------------------------------------------------------------------
# brute force reference


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

    import itertools

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


# ---------------------------------------------------------------------------
# export


def svg_export(system: SlitSystem, path):
    xs = [c.center.real for c in system.circles] + [p.real for p in system.points]
    ys = [c.center.imag for c in system.circles] + [p.imag for p in system.points]
    rs = max(c.radius for c in system.circles) if system.circles else 1.0
    x0, x1 = min(xs) - rs, max(xs) + rs
    y0, y1 = min(ys) - rs, max(ys) + rs
    w = x1 - x0 or 1.0
    h = y1 - y0 or 1.0
    size = 640
    sc = size / max(w, h)

    def X(x):
        return (x - x0) * sc

    def Y(y):
        return (y1 - y) * sc

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">']
    for c in system.circles:
        lines.append(f'<circle cx="{X(c.center.real):.3f}" cy="{Y(c.center.imag):.3f}" '
                     f'r="{c.radius * sc:.3f}" fill="none" stroke="black"/>')
    for s in system.segments:
        lines.append(f'<line x1="{X(s.z0.real):.3f}" y1="{Y(s.z0.imag):.3f}" '
                     f'x2="{X(s.z1.real):.3f}" y2="{Y(s.z1.imag):.3f}" stroke="red"/>')
    for p in system.points:
        lines.append(f'<circle cx="{X(p.real):.3f}" cy="{Y(p.imag):.3f}" r="3" fill="blue"/>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
