"""Signed Radon measures on intervals and rectangles, plus test functions.

1D measures carry an absolutely continuous density, finitely many atoms and
an optional singular-continuous part realized as an explicit monotone ladder
(Cantor-Vitali family).  2D measures carry an absolutely continuous part
supported on geometric patches and surface parts carried by curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NonFiniteValue
from .quadrature import (_circle_points, _segment_points, _weighted_sum,
                         adaptive_simpson, adaptive_simpson_many,
                         circle_integral_many, polar_quad_many,
                         polygon_quad_many, segment_integral_many)

__all__ = [
    "SingularLadder",
    "RadonMeasure1D",
    "RadonMeasure2D",
    "Circle",
    "Segment",
    "DiscPatch",
    "PolygonPatch",
    "TestFunction1D",
    "TestFunction2D",
]


# ---------------------------------------------------------------------------
# Singular ladders (Cantor-Vitali family)


@dataclass(frozen=True)
class SingularLadder:
    """Monotone continuous ladder F with F' = 0 a.e., F(a)=0, F(b)=1.

    ``removed`` is the fraction of each construction interval removed in the
    middle at every level (1/3 gives the classical ladder).  ``depth`` is the
    construction depth used for exact Stieltjes summation.
    """

    interval: tuple
    removed: float = 1.0 / 3.0
    depth: int = 18
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if not (0.0 < self.removed < 1.0):
            raise ValueError("removed fraction must be in (0, 1)")
        if self.interval[1] <= self.interval[0]:
            raise ValueError("carrier interval must be non-degenerate")

    @property
    def side(self):
        return 0.5 * (1.0 - self.removed)

    @property
    def mass(self):
        """The ladder's rise 2^-depth over each retained interval."""
        return 0.5 ** self.depth

    def evaluate(self, x):
        """Ladder value in [0, 1]; clamps outside the carrier."""
        xk, vk = self.knots()
        return np.interp(np.asarray(x, dtype=float), xk, vk)

    def inverse(self, t):
        """Right-continuous inverse: x in the carrier with F(x) = t."""
        a0, b0 = self.interval
        t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0).copy()
        s = self.side
        y = np.zeros_like(t)
        length = np.ones_like(t)
        for _ in range(self.depth):
            hi = t >= 0.5
            t = np.where(hi, 2.0 * t - 1.0, 2.0 * t)
            y[hi] += (1.0 - s) * length[hi]
            length *= s
        y += length * t
        return a0 + y * (b0 - a0)

    def _build(self):
        if "midpoints" in self._cache:
            return
        s = self.side
        lo = np.array([0.0])
        val = np.array([0.0])
        length = 1.0
        mass = 1.0
        for _ in range(self.depth):
            lo = np.stack([lo, lo + (1.0 - s) * length], axis=1).ravel()
            val = np.stack([val, val + 0.5 * mass], axis=1).ravel()
            length *= s
            mass *= 0.5
        a0, b0 = self.interval
        w = b0 - a0
        # the leaf ends and their values, interleaved: the leaves are
        # [x[2i], x[2i + 1]] and the plateaus, the gaps between consecutive
        # leaves, [x[2i + 1], x[2i + 2]], so together they tile the carrier;
        # the values k mass and (k + 1) mass are exact dyadic rationals.
        # Built in place, so that at most one 2^depth temporary is alive.
        xk = np.empty(2 * lo.size)
        xk[0::2] = lo
        xk[1::2] = lo + length
        del lo
        xk *= w
        xk += a0
        vk = np.empty(xk.size)
        vk[0::2] = val
        vk[1::2] = val + mass
        del val
        self._cache["knots"] = (xk, vk)
        # set last: _build() tests for this key
        self._cache["midpoints"] = 0.5 * (xk[0::2] + xk[1::2])

    def knots(self):
        """(x, F(x)) at the ends of the 2^depth retained intervals
        (leaves), interleaved in order along the carrier.  F is linear on
        each leaf and constant on each plateau between two leaves."""
        self._build()
        return self._cache["knots"]

    def midpoints(self):
        """Midpoints 0.5 (lo + hi) of the 2^depth retained intervals."""
        self._build()
        return self._cache["midpoints"]


# ---------------------------------------------------------------------------
# 1D measures


@dataclass(frozen=True)
class RadonMeasure1D:
    interval: tuple
    ac_density: object = None
    ac_breakpoints: tuple = ()
    atoms: tuple = ()  # ((x, w), ...) strictly increasing locations
    ladder: SingularLadder = None
    ladder_scale: float = 0.0
    ladder_density: object = None  # optional density along the carrier

    def __post_init__(self):
        xs = [a[0] for a in self.atoms]
        if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
            raise ValueError("atom locations must be strictly increasing")
        a, b = self.interval
        if any(not (a <= x <= b) for x in xs):
            raise ValueError("atoms must lie inside the domain interval")

    # -- integration

    def _ladder_terms(self):
        """(leaf midpoints, their weights) of the ladder part, or None."""
        if self.ladder is None or self.ladder_scale == 0.0:
            return None
        mid = self.ladder.midpoints()
        w = np.full(mid.shape, self.ladder.mass * self.ladder_scale)
        if self.ladder_density is not None:
            w = w * np.asarray(self.ladder_density(mid), dtype=float)
        return mid, w

    def integrate_detailed(self, g, tol=1e-9):
        """Returns (integral of g against the measure, error estimate)."""
        a, b = self.interval
        value = 0.0
        err = 0.0
        if self.ac_density is not None:
            dens = self.ac_density
            integrand = lambda x: np.asarray(g(x), dtype=float) * \
                np.asarray(dens(x), dtype=float)
            value += adaptive_simpson(integrand, a, b, tol=tol,
                                      breakpoints=self._ac_breaks())
            err += tol
        if self.atoms:
            xs = np.array([x for x, _ in self.atoms])
            ws = np.array([w for _, w in self.atoms])
            gv = np.asarray(g(xs), dtype=float)
            if not np.all(np.isfinite(gv)):
                raise NonFiniteValue("g non-finite at an atom location")
            value += float(np.dot(gv, ws))
        lt = self._ladder_terms()
        if lt is not None:
            mid, w = lt
            gv = np.asarray(g(mid), dtype=float)
            if not np.all(np.isfinite(gv)):
                raise NonFiniteValue("g non-finite on the ladder carrier")
            value += _weighted_sum(gv, w)
            # analytic tail bound for Lipschitz g: halving-interval argument
            span = self.ladder.interval[1] - self.ladder.interval[0]
            err += abs(self.ladder_scale) * span * \
                (2.0 * self.ladder.side) ** self.ladder.depth
        if not np.isfinite(value):
            raise NonFiniteValue("non-finite integral value")
        return value, err

    def integrate(self, g, tol=1e-9):
        return self.integrate_detailed(g, tol=tol)[0]

    def total_mass(self, tol=1e-9):
        return self.integrate(lambda x: np.ones_like(np.asarray(x, float)),
                              tol=tol)

    def _ac_breaks(self):
        """The Gauss-Kronrod breakpoints of the ac part: the density's own
        breakpoints and the atoms."""
        return tuple(self.ac_breakpoints) + tuple(x for x, _ in self.atoms)

    # -- variation / restriction

    def variation(self):
        dens = self.ac_density
        abs_dens = None if dens is None else (
            lambda x, _d=dens: np.abs(np.asarray(_d(x), dtype=float)))
        ldens = self.ladder_density
        abs_ldens = None if ldens is None else (
            lambda x, _d=ldens: np.abs(np.asarray(_d(x), dtype=float)))
        return RadonMeasure1D(
            self.interval,
            ac_density=abs_dens,
            ac_breakpoints=self.ac_breakpoints,
            atoms=tuple((x, abs(w)) for x, w in self.atoms),
            ladder=self.ladder,
            ladder_scale=abs(self.ladder_scale),
            ladder_density=abs_ldens,
        )

    def restrict(self, window, closed_right=False):
        """The measure on [lo, hi), or on [lo, hi] if closed_right, for
        window (lo, hi) cut to the interval, carried by the interval
        [lo, hi]: the density needs no mask there, and its integrals
        have no jump at the window's ends.  The ladder part is kept by
        leaf midpoint in [lo, hi)."""
        lo = max(window[0], self.interval[0])
        hi = min(window[1], self.interval[1])
        if hi < lo or (hi == lo and not closed_right):
            return RadonMeasure1D((lo, lo))
        atoms = [(x, w) for x, w in self.atoms
                 if lo <= x < hi or (closed_right and x == hi)]
        ladder = self.ladder
        scale = self.ladder_scale
        ldens = self.ladder_density
        if ladder is not None and scale != 0.0:
            # keep increments whose midpoints fall in the window
            prev = ldens

            def windowed(x, _p=prev):
                base = np.ones_like(np.asarray(x, float)) if _p is None \
                    else np.asarray(_p(x), dtype=float)
                inside = (np.asarray(x) >= lo) & (np.asarray(x) < hi)
                return np.where(inside, base, 0.0)

            ldens = windowed
        return RadonMeasure1D((lo, hi), ac_density=self.ac_density,
                              ac_breakpoints=tuple(
                                  p for p in self.ac_breakpoints
                                  if lo <= p <= hi),
                              atoms=tuple(atoms),
                              ladder=ladder, ladder_scale=scale,
                              ladder_density=ldens)

    def variation_masses(self, windows):
        """|mu|(E) for each window E, with the bits of
        variation().restrict(E).total_mass(), from one variation(): the
        |density| of every window in one adaptive_simpson_many call, owner
        k on the interval of window k, and the |ladder density| evaluated
        once at the leaf midpoints and summed under each window's [lo, hi)
        mask."""
        var = self.variation()
        lt = var._ladder_terms()
        rest = replace(var, ladder=None, ladder_scale=0.0, ladder_density=None)
        cuts = [rest.restrict(E) for E in windows]
        ac = np.zeros(len(cuts))
        if var.ac_density is not None:
            ac = adaptive_simpson_many(
                lambda x, _: np.asarray(var.ac_density(x), dtype=float),
                [c.interval[0] for c in cuts], [c.interval[1] for c in cuts],
                breakpoints=var._ac_breaks())
        out = []
        for cut, ac_mass in zip(cuts, ac.tolist()):
            # the sums of cut.total_mass(), in its order
            value = 0.0
            if cut.ac_density is not None:
                value += ac_mass
            if cut.atoms:
                value += float(np.dot(np.ones(len(cut.atoms)),
                                      [w for _, w in cut.atoms]))
            if lt is not None:
                mid, w = lt
                keep = (mid >= cut.interval[0]) & (mid < cut.interval[1])
                value += float(np.sum(np.where(keep, w, 0.0)))
            if not np.isfinite(value):
                raise NonFiniteValue("non-finite integral value")
            out.append(value)
        return out


# ---------------------------------------------------------------------------
# 2D measures


@dataclass(frozen=True)
class Circle:
    center: tuple
    radius: float

    @property
    def length(self):
        return 2.0 * np.pi * self.radius

    def point_at(self, s):
        return _circle_points(np.asarray(self.center, dtype=float),
                              self.radius, np.asarray(s, dtype=float))

    def interior_normal(self, pts):
        """The unit normal at points pts of the circle, into its disc."""
        return _disc_normal(np.asarray(pts, dtype=float), self.center)

    def sample(self, n):
        th = (np.arange(n) + 0.5) * (2.0 * np.pi / n)
        return self.point_at(th), np.full(n, self.length / n)


@dataclass(frozen=True)
class Segment:
    p0: tuple
    p1: tuple

    @property
    def length(self):
        return float(np.hypot(self.p1[0] - self.p0[0], self.p1[1] - self.p0[1]))

    def point_at(self, s):
        return _segment_points(np.asarray(self.p0, float),
                               np.asarray(self.p1, float),
                               np.asarray(s, dtype=float))

    @property
    def normal(self):
        """The left unit normal of p0 -> p1, inward on a ccw polygon."""
        d = np.asarray(self.p1, dtype=float) - np.asarray(self.p0, dtype=float)
        n = np.array([-d[1], d[0]])
        return n / np.linalg.norm(n)

    def interior_normal(self, pts):
        """``normal`` at each of the points pts."""
        return np.broadcast_to(self.normal, np.shape(pts))

    def sample(self, n):
        s = (np.arange(n) + 0.5) / n
        return self.point_at(s), np.full(n, self.length / n)


@dataclass(frozen=True)
class DiscPatch:
    center: tuple
    r_outer: float
    r_inner: float = 0.0
    r_breaks: tuple = ()


@dataclass(frozen=True)
class PolygonPatch:
    vertices: tuple


# the batched driver of each kind of part, and the fields it takes per part
_BATCHED = {
    DiscPatch: (polar_quad_many, ("center", "r_inner", "r_outer", "r_breaks")),
    PolygonPatch: (polygon_quad_many, ("vertices",)),
    Circle: (circle_integral_many, ("center", "radius")),
    Segment: (segment_integral_many, ("p0", "p1")),
}


def _integrate_parts(g, parts, tol):
    """The integrals of g(., k) over the patches and curves parts[k]: the
    one way the package integrates over 2D parts.  The parts of each kind
    go to one batched driver, whose g(points, owner) gets the points of
    many parts in one call, or a lone part's points in their grid shape."""
    out = np.zeros(len(parts))
    kinds = [type(part) for part in parts]
    for kind in dict.fromkeys(kinds):
        driver, names = _BATCHED[kind]
        idx = np.array([k for k, t in enumerate(kinds) if t is kind])
        out[idx] = driver(lambda x, j, idx=idx: g(x, idx[j]),
                          *([getattr(parts[k], name) for k in idx]
                            for name in names), tol=tol)
    return out


def _per_owner(fs):
    """g(points, owner) = fs[owner](points), for parts that carry their own
    integrand: a call with one owner passes its points as they are (a lone
    owner's grid keeps its shape), and one with several passes each run of
    points of one owner, in order, as a view."""
    def g(p, k):
        k = np.broadcast_to(k, p.shape[:-1])
        if (k == k.flat[0]).all():
            return fs[k.flat[0]](p)
        shape, k, p = k.shape, k.ravel(), p.reshape(-1, 2)
        ends = [*(np.flatnonzero(k[1:] != k[:-1]) + 1).tolist(), k.size]
        return np.concatenate([fs[k[i]](p[i:j]) for i, j in zip(
            [0, *ends[:-1]], ends)]).reshape(shape)
    return g


@dataclass(frozen=True)
class RadonMeasure2D:
    rect: tuple  # ((x0, x1), (y0, y1))
    ac_parts: tuple = ()       # ((patch, density(pts)), ...)
    surface_parts: tuple = ()  # ((curve, density(pts)), ...)
    mask: object = None        # optional box ((x0,x1),(y0,y1)) restriction

    def integrate(self, g, tol=1e-9):
        if self.mask is not None:
            return self._masked_integrals(g, (self.mask,))[0]
        parts = self.ac_parts + self.surface_parts
        dens = _per_owner([d for _, d in parts])
        value = sum(_integrate_parts(
            lambda p, k: (np.asarray(g(p), dtype=float)
                          * np.asarray(dens(p, k), dtype=float)),
            [part for part, _ in parts], tol).tolist(), 0.0)
        if not np.isfinite(value):
            raise NonFiniteValue("non-finite 2D integral")
        return value

    def _masked_integrals(self, g, boxes):
        """Fixed-grid integrals of g over each half-open box
        ((x0,x1),(y0,y1)): 256 grid lines per patch, 8192 points per
        curve.  Each part's integrand is evaluated once on its grid and
        then summed under every box; the shared scheme keeps mass-bound
        comparisons consistent between a measure and its variation."""
        values = [0.0] * len(boxes)
        parts = [(p, d, 256) for p, d in self.ac_parts] + \
            [(c, d, 8192) for c, d in self.surface_parts]
        for part, dens, n in parts:
            pts, inside, total = _part_grid(part, n)
            vals = np.asarray(g(pts), dtype=float) \
                * np.asarray(dens(pts), dtype=float)
            for i, box in enumerate(boxes):
                keep = _in_box(pts, box)
                if inside is not None:
                    keep = keep & inside
                values[i] += total(np.where(keep, vals, 0.0))
        if not np.all(np.isfinite(values)):
            raise NonFiniteValue("non-finite 2D integral")
        return values

    def total_mass(self, tol=1e-9):
        return self.integrate(lambda p: np.ones(np.shape(p)[:-1]), tol=tol)

    def variation(self):
        absolute = lambda parts: tuple(
            (part, lambda p, d=d: np.abs(np.asarray(d(p), float)))
            for part, d in parts)
        return replace(self, ac_parts=absolute(self.ac_parts),
                       surface_parts=absolute(self.surface_parts))

    def _meets_rect(self, box):
        (x0, x1), (y0, y1) = box
        (rx0, rx1), (ry0, ry1) = self.rect
        return not (x1 <= rx0 or x0 >= rx1 or y1 <= ry0 or y0 >= ry1)

    def restrict(self, box):
        if not self._meets_rect(box):
            return RadonMeasure2D(self.rect)
        return replace(self, mask=box)

    def variation_masses(self, boxes):
        """[variation().restrict(E).total_mass() for E in boxes], from one
        variation() and one evaluation of each part's grid."""
        boxes = list(boxes)
        hit = [E for E in boxes if self._meets_rect(E)]
        found = iter(self.variation()._masked_integrals(
            lambda p: np.ones(np.shape(p)[:-1]), hit))
        return [next(found) if self._meets_rect(E) else 0.0 for E in boxes]


def _per_kind(circle, k, on_circle, on_segment):
    """on_circle() where circle[k], on_segment() elsewhere, for points of
    the Circles and Segments k; each called only if some k needs it."""
    if circle.all():
        return on_circle()
    if not circle.any():
        return on_segment()
    return np.where(circle[k][..., None], on_circle(), on_segment())


def _disc_normal(p, center):
    """The interior normal at points p of the discs centred at center."""
    d = p - center
    r = np.hypot(d[..., 0], d[..., 1])
    safe = np.where(r > 0, r, 1.0)
    return -d / safe[..., None]


def _on_curves(curves):
    """normal(pts, k), the interior normal at points pts of the Circles and
    Segments curves[k], for arrays pts and k that broadcast together."""
    circle = np.array([isinstance(c, Circle) for c in curves])
    a = np.array([c.center if isinstance(c, Circle) else c.p0
                  for c in curves], dtype=float)
    # a segment's interior normal is constant
    n = np.array([(0.0, 0.0) if isinstance(c, Circle) else c.normal
                  for c in curves], dtype=float)
    return lambda pts, k: _per_kind(
        circle, k, lambda: _disc_normal(pts, a[k]),
        lambda: np.broadcast_to(n[k], pts.shape))


def _part_grid(part, n):
    """(points, inside, total) of the fixed grid a masked integral sums
    over: an n x 2n midpoint polar grid on a disc patch, an n x n midpoint
    grid on a polygon's bounding box (``inside`` marks the polygon; None for
    the other parts), or the n-point sample of a curve.  ``total`` maps the
    masked integrand values on the points to the integral."""
    if isinstance(part, DiscPatch):
        r = np.linspace(part.r_inner, part.r_outer, n + 1)
        rm = 0.5 * (r[:-1] + r[1:])
        dr = np.diff(r)
        th = (np.arange(2 * n) + 0.5) * (2.0 * np.pi / (2 * n))
        dth = 2.0 * np.pi / (2 * n)
        pts = np.empty((th.size, rm.size, 2))
        pts[..., 0] = part.center[0] + rm[None, :] * np.cos(th)[:, None]
        pts[..., 1] = part.center[1] + rm[None, :] * np.sin(th)[:, None]
        w = (rm * dr)[None, :] * dth
        return pts, None, lambda v: float(np.sum(v * w))
    if isinstance(part, PolygonPatch):
        verts = np.asarray(part.vertices, dtype=float)
        x0, y0 = verts.min(axis=0)
        x1, y1 = verts.max(axis=0)
        xs = np.linspace(x0, x1, n + 1)
        ys = np.linspace(y0, y1, n + 1)
        xm = 0.5 * (xs[:-1] + xs[1:])
        ym = 0.5 * (ys[:-1] + ys[1:])
        X, Y = np.meshgrid(xm, ym, indexing="ij")
        pts = np.stack([X, Y], axis=-1)
        cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
        return (pts, _points_in_polygon(pts, verts),
                lambda v: float(np.sum(v) * cell))
    pts, w = part.sample(n)
    return pts, None, lambda v: float(np.dot(w, v))


def _in_box(pts, box):
    (x0, x1), (y0, y1) = box
    p = np.asarray(pts, dtype=float)
    return ((p[..., 0] >= x0) & (p[..., 0] < x1)
            & (p[..., 1] >= y0) & (p[..., 1] < y1))


def _points_in_polygon(pts, verts):
    x = pts[..., 0]
    y = pts[..., 1]
    inside = np.zeros(x.shape, dtype=bool)
    n = verts.shape[0]
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        # horizontal edges (y0 == y1) never satisfy the crossing test,
        # so the guarded denominator does not affect the result
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = ((y0 > y) != (y1 > y)) & \
                (x < (x1 - x0) * (y - y0) / (y1 - y0) + x0)
        inside ^= cond
    return inside


# ---------------------------------------------------------------------------
# Test functions


def _smooth(t):
    """The C^1 ramp 3t^2 - 2t^3 of t clipped to [0, 1]."""
    t = np.clip(t, 0.0, 1.0)
    return 3.0 * t * t - 2.0 * t ** 3


def _dsmooth(t):
    """The derivative of _smooth, 0 outside (0, 1)."""
    inside = (t > 0.0) & (t < 1.0)
    return np.where(inside, 6.0 * t * (1.0 - t), 0.0)


@dataclass(frozen=True)
class TestFunction1D:
    evaluate: object
    gradient: object
    support: tuple
    sup_norm: float
    breakpoints: tuple = ()  # kinks of the gradient, for quadrature seeding

    def __call__(self, x):
        return self.evaluate(x)

    @staticmethod
    def bump(a, b):
        """Quartic bump on (a, b), max value 1."""
        c = 0.5 * (a + b)
        h = 0.5 * (b - a)

        def ev(x):
            s = (np.asarray(x, dtype=float) - c) / h
            return np.where(np.abs(s) < 1.0, (1.0 - s * s) ** 2, 0.0)

        def gr(x):
            s = (np.asarray(x, dtype=float) - c) / h
            return np.where(np.abs(s) < 1.0, -4.0 * s * (1.0 - s * s) / h, 0.0)

        return TestFunction1D(ev, gr, (a, b), 1.0, breakpoints=(a, b))

    @staticmethod
    def plateau(a, p, q, b):
        """C^1 bump equal to 1 on [p, q], supported on (a, b)."""
        assert a < p <= q < b

        def ev(x):
            x = np.asarray(x, dtype=float)
            up = _smooth((x - a) / (p - a))
            down = _smooth((b - x) / (b - q))
            return np.where(x < p, up, np.where(x > q, down, 1.0))

        def gr(x):
            x = np.asarray(x, dtype=float)
            up = _dsmooth((x - a) / (p - a)) / (p - a)
            down = -_dsmooth((b - x) / (b - q)) / (b - q)
            return np.where(x < p, up, np.where(x > q, down, 0.0))

        return TestFunction1D(ev, gr, (a, b), 1.0, breakpoints=(a, p, q, b))


def _radial_profile(r0, r1, r2, r3):
    """C^1 profile of r: rises on [r0,r1], 1 on [r1,r2], falls on [r2,r3]."""

    def psi(r):
        r = np.asarray(r, dtype=float)
        if r0 == r1:
            up = np.ones_like(r)
        else:
            up = _smooth((r - r0) / (r1 - r0))
        down = _smooth((r3 - r) / (r3 - r2))
        out = np.where(r < r1, up, np.where(r > r2, down, 1.0))
        return np.where((r < r0) | (r > r3), 0.0, out)

    def dpsi(r):
        r = np.asarray(r, dtype=float)
        if r0 == r1:
            up = np.zeros_like(r)
        else:
            up = _dsmooth((r - r0) / (r1 - r0)) / (r1 - r0)
        down = -_dsmooth((r3 - r) / (r3 - r2)) / (r3 - r2)
        out = np.where(r < r1, up, np.where(r > r2, down, 0.0))
        return np.where((r < r0) | (r > r3), 0.0, out)

    return psi, dpsi


@dataclass(frozen=True)
class TestFunction2D:
    evaluate: object
    gradient: object
    support: tuple  # ("disc", center, r) | ("annulus", center, r0, r1) | ("box", xr, yr)
    sup_norm: float
    radial_breaks: tuple = ()  # radii of profile kinks, for quadrature seeding

    def __call__(self, pts):
        return self.evaluate(pts)

    @staticmethod
    def radial(center, r_plateau, r_out, r_in0=0.0, r_in1=0.0):
        """Radial plateau bump; annular when r_in0 < r_in1."""
        psi, dpsi = _radial_profile(r_in0, r_in1, r_plateau, r_out)
        cx, cy = center

        def ev(pts):
            p = np.asarray(pts, dtype=float)
            r = np.hypot(p[..., 0] - cx, p[..., 1] - cy)
            return psi(r)

        def gr(pts):
            p = np.asarray(pts, dtype=float)
            dx = p[..., 0] - cx
            dy = p[..., 1] - cy
            r = np.hypot(dx, dy)
            safe = np.where(r > 0.0, r, 1.0)
            fac = dpsi(r) / safe
            return np.stack([fac * dx, fac * dy], axis=-1)

        if r_in1 > r_in0:
            support = ("annulus", center, r_in0, r_out)
        else:
            support = ("disc", center, r_out)
        return TestFunction2D(ev, gr, support, 1.0,
                              radial_breaks=(r_in0, r_in1, r_plateau, r_out))

    @staticmethod
    def box(xr, yr, margin=0.25):
        """Product of 1D plateau bumps; equals 1 on the inner box."""
        fx = TestFunction1D.plateau(xr[0], xr[0] + margin, xr[1] - margin, xr[1])
        fy = TestFunction1D.plateau(yr[0], yr[0] + margin, yr[1] - margin, yr[1])

        def ev(pts):
            p = np.asarray(pts, dtype=float)
            return fx.evaluate(p[..., 0]) * fy.evaluate(p[..., 1])

        def gr(pts):
            p = np.asarray(pts, dtype=float)
            gx = fx.gradient(p[..., 0]) * fy.evaluate(p[..., 1])
            gy = fx.evaluate(p[..., 0]) * fy.gradient(p[..., 1])
            return np.stack([gx, gy], axis=-1)

        return TestFunction2D(ev, gr, ("box", tuple(xr), tuple(yr)), 1.0)
