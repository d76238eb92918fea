"""BV functions built from explicit decompositions.

1D functions are sums of a piecewise-C^1 part, finitely many jumps and an
optional singular-continuous (ladder) part.  2D functions are either smooth
radial profiles or piecewise constants on discs/polygons, so every derived
quantity stays exactly representable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateLevel
from .measures import (Circle, RadonMeasure1D, RadonMeasure2D, Segment,
                       DiscPatch, PolygonPatch, SingularLadder)
from .quadrature import (_brent_roots, _weighted_sum, adaptive_simpson_many,
                         gauss_nodes)

# Plateau and leaf intervals of a ladder are integrated this many at a time,
# which bounds the arrays an integrand builds per node (for example a
# t-quadrature per node) to a few megabytes.
_CANTOR_BLOCK = 4096

__all__ = [
    "Piecewise1D",
    "JumpPoint",
    "CantorPart",
    "BvFunction1D",
    "SmoothRadialBv2D",
    "PiecewiseConstantBv2D",
    "Disc",
    "PolygonRegion",
    "gradient_measure",
]


# ---------------------------------------------------------------------------
# Piecewise-C^1 absolutely continuous parts


@dataclass(frozen=True)
class Piecewise1D:
    """Piecewise-C^1 function: one vectorized pair (f, df) of value and
    derivative, and the sorted breaks where it may lose smoothness, both
    ends of the domain included."""

    breaks: tuple
    f: object
    df: object

    def evaluate(self, x):
        return np.asarray(self.f(np.asarray(x, dtype=float)), dtype=float)

    def derivative(self, x):
        return np.asarray(self.df(np.asarray(x, dtype=float)), dtype=float)

    @staticmethod
    def constant(domain, c):
        return Piecewise1D(tuple(domain),
                           lambda x, _c=float(c): np.full(np.shape(x), _c),
                           lambda x: np.zeros(np.shape(x)))


@dataclass(frozen=True)
class JumpPoint:
    location: float
    u_minus: float
    u_plus: float
    nu: int  # +1 / -1, pointing from the u_minus side to the u_plus side

    def __post_init__(self):
        if not self.u_plus > self.u_minus:
            raise ValueError("jump must satisfy u_plus > u_minus")
        if self.nu not in (-1, 1):
            raise ValueError("nu must be +-1")

    @property
    def height(self):
        return self.u_plus - self.u_minus

    @property
    def left_value(self):
        return self.u_minus if self.nu == 1 else self.u_plus

    @property
    def right_value(self):
        return self.u_plus if self.nu == 1 else self.u_minus

    @staticmethod
    def from_sides(x0, left, right):
        """Normalize so that the stored pair satisfies u_plus > u_minus."""
        if right > left:
            return JumpPoint(x0, left, right, 1)
        if left > right:
            return JumpPoint(x0, right, left, -1)
        raise ValueError("degenerate jump with equal one-sided values")


@dataclass(frozen=True)
class CantorPart:
    scale: float
    ladder: SingularLadder

    def evaluate(self, x):
        return self.scale * self.ladder.evaluate(x)


# ---------------------------------------------------------------------------
# 1D BV functions


@dataclass(frozen=True)
class BvFunction1D:
    domain: tuple
    ac: Piecewise1D = None
    jumps: tuple = ()
    cantor: CantorPart = None

    def __post_init__(self):
        a, b = self.domain
        xs = [j.location for j in self.jumps]
        if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
            raise ValueError("jump locations must be strictly increasing")
        if any(not (a < x < b) for x in xs):
            raise ValueError("jump locations must be interior to the domain")
        if self.ac is not None and not np.all(
                np.diff([a, *self.ac.breaks[1:-1], b]) > 0):
            raise ValueError("ac breaks must increase strictly inside the "
                             "domain")
        if self.cantor is not None and not (
                a <= self.cantor.ladder.interval[0]
                and self.cantor.ladder.interval[1] <= b):
            raise ValueError("the Cantor carrier must lie in the domain")
        if self.ac is not None:
            # the absolutely continuous part must really be continuous;
            # discontinuities belong in explicit JumpPoint entries
            for p in self.ac.breaks[1:-1]:
                h = 1e-9 * (b - a)
                left, right = self.ac.evaluate(np.array([p - h, p + h]))
                if abs(right - left) > 1e-6:
                    raise ValueError(
                        f"ac part is discontinuous at {p}; use a JumpPoint")

    # -- evaluation

    def _base(self, x):
        """Everything except the jump steps."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        if self.ac is not None:
            out = out + self.ac.evaluate(x)
        if self.cantor is not None:
            out = out + self.cantor.evaluate(x)
        return out

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        out = self._base(x)
        for j in self.jumps:
            out = out + (j.right_value - j.left_value) * (x > j.location)
        return out

    def ac_derivative(self, x):
        if self.ac is None:
            return np.zeros(np.shape(x))
        return self.ac.derivative(x)

    def breakpoints(self):
        pts = [j.location for j in self.jumps]
        if self.ac is not None:
            pts.extend(self.ac.breaks[1:-1])
        if self.cantor is not None:
            pts.extend(self.cantor.ladder.interval)
        return tuple(sorted(set(pts)))

    def sup_norm(self):
        lo, hi = self.value_range()
        return max(abs(lo), abs(hi))

    def value_range(self):
        """(min, max) over the level grid's values and the jump sides."""
        vals = [s for j in self.jumps for s in (j.u_minus, j.u_plus)]
        for *_, v, _ in self._level_grid:
            vals += [float(v.min()), float(v.max())]
        return min(vals), max(vals)

    # -- precise representatives

    def jump_at(self, x):
        """The jump within 1e-12 of x, or None."""
        for j in self.jumps:
            if abs(j.location - x) <= 1e-12:
                return j
        return None

    # -- gradient measure

    def gradient_measure(self):
        ac_density = None
        bps = ()
        if self.ac is not None:
            ac_density = self.ac.derivative
            bps = tuple(self.ac.breaks[1:-1])
        atoms = tuple((j.location, j.height * j.nu) for j in self.jumps)
        ladder = None
        scale = 0.0
        if self.cantor is not None:
            ladder = self.cantor.ladder
            scale = self.cantor.scale
        return RadonMeasure1D(self.domain, ac_density=ac_density,
                              ac_breakpoints=bps, atoms=atoms,
                              ladder=ladder, ladder_scale=scale)

    # -- level sets

    def level_breaks(self):
        """Values of t at which the structure of {u > t} can change: the
        jump sides, the value range, and per segment of the level grid its
        end values and the values where it turns."""
        vals = {s for j in self.jumps for s in (j.u_minus, j.u_plus)}
        for *_, v, _ in self._level_grid:
            dv = np.diff(v)
            turn = np.flatnonzero(dv[:-1] * dv[1:] < 0) + 1
            vals.update(v[[0, -1, *turn]].tolist())
        vals.update(self.value_range())
        return tuple(sorted(vals))

    def _jump_offset(self, x):
        """The jump steps at or left of x: u = _base + this just right of
        x, and on the jump-free segment that starts at x."""
        return float(sum(j.right_value - j.left_value
                         for j in self.jumps if j.location <= x))

    @cached_property
    def _level_grid(self):
        """Per jump-free segment: (lo, hi, grid, u on it, the jump offset).
        The grid is 1201 equal steps plus each local extremum of u, polished
        from a turn of the steps to a root of u'; u on it (one-sided at the
        ends) is _base + offset, as the crossing polish evaluates it."""
        pts = sorted({self.domain[0], *self.breakpoints(), self.domain[1]})
        out = []
        for lo, hi in zip(pts[:-1], pts[1:]):
            xs = np.linspace(lo, hi, 1201)
            dv = np.diff(self._base(xs))
            turn = np.flatnonzero(dv[:-1] * dv[1:] < 0)
            ext = _brent_roots(lambda z, _: self.ac_derivative(z), xs[turn],
                               xs[turn + 2], xtol=1e-13)
            xs = np.unique(np.append(xs, ext[~np.isnan(ext)]))
            offset = self._jump_offset(lo)
            out.append((lo, hi, xs, self._base(xs) + offset, offset))
        return out

    def level_crossings_many(self, ts):
        """Interior crossings of every level of ``ts``: arrays (owner, x,
        nu) sorted by owner (the index into ts), then x.  A grid cell where
        u - t changes sign (0 counting as positive) brackets a crossing.
        DegenerateLevel if u is within 1e-13 of a level on more than a
        tenth of a segment's grid."""
        ts = np.asarray(ts, dtype=float)
        owner = [np.flatnonzero((j.u_minus < ts) & (ts < j.u_plus))
                 for j in self.jumps]
        x = [np.full(k.size, j.location) for k, j in zip(owner, self.jumps)]
        nu = [np.full(k.size, j.nu) for k, j in zip(owner, self.jumps)]
        brackets = []
        for lo, hi, xs, v, offset in self._level_grid:
            flat = np.count_nonzero(np.abs(v - ts[:, None]) < 1e-13, axis=1)
            if np.any(flat > v.size // 10):
                raise DegenerateLevel(
                    f"level {ts[np.argmax(flat > v.size // 10)]} coincides "
                    f"with a plateau of u on [{lo}, {hi}]")
            above = v >= ts[:, None]
            k, cell = np.nonzero(above[:, :-1] != above[:, 1:])
            owner.append(k)
            nu.append(np.where(above[k, cell], -1, 1))
            brackets.append((xs[cell], xs[cell + 1], np.full(k.size, offset)))
        lo_x, hi_x, offset = (np.concatenate(b) for b in zip(*brackets))
        level = ts[np.concatenate(owner[len(self.jumps):])]
        x.append(_brent_roots(
            lambda z, i: self._base(z) + offset[i] - level[i],
            lo_x, hi_x, xtol=1e-13))
        if np.isnan(x[-1]).any():
            raise DegenerateLevel("a level crossing bracket lost its sign "
                                  "change: the level touches u")
        owner, x, nu = (np.concatenate(a) for a in (owner, x, nu))
        order = np.lexsort((nu, x, owner))
        return owner[order], x[order], nu[order]

    def level_intervals(self, ts):
        """The intervals whose union is {u > t}, for every level of ``ts``:
        arrays (owner, lo, hi) sorted by owner, then lo."""
        ts = np.asarray(ts, dtype=float)
        a, b = self.domain
        owner, hi, _ = self.level_crossings_many(ts)
        # each crossing ends an interval, and b ends the last one of a level
        owner = np.concatenate([owner, np.arange(ts.size)])
        order = np.argsort(owner, kind="stable")
        owner, hi = owner[order], np.append(hi, np.full(ts.size, b))[order]
        lo = np.where(np.diff(owner, prepend=-1) != 0, a, np.roll(hi, 1))
        eps = 1e-9 * (b - a)
        keep = (hi - lo >= eps) & (self.evaluate(0.5 * (lo + hi)) > ts[owner])
        owner, lo, hi = owner[keep], lo[keep], hi[keep]
        # an interval that starts where the one before it ends (a
        # degenerate split) merges into it
        first = np.ones(lo.size + 1, dtype=bool)
        first[1:-1] = (owner[1:] != owner[:-1]) | (np.abs(hi[:-1] - lo[1:])
                                                    >= eps)
        return owner[first[:-1]], lo[first[:-1]], hi[first[1:]]

    # -- composed integration handling the ladder part

    def integrate_composed(self, hs, lo=None, hi=None, tol=1e-9,
                           extra_breaks=(), share=lambda x: ()):
        """[int h(x, u(x), *share(x)) dx for h in hs], exact over ladder
        plateaus; each h broadcasts over numpy arrays.  u and ``share`` (phi
        and its gradient, say) are evaluated once per node set for the whole
        stack, each h only at the nodes of its own integrals."""
        a, b = self.domain
        lo = a if lo is None else max(lo, a)
        hi = b if hi is None else min(hi, b)
        if hi <= lo:
            return [0.0] * len(hs)
        pts = sorted(set([lo, hi] + [p for p in self.breakpoints()
                                     if lo < p < hi]
                         + [p for p in extra_breaks if lo < p < hi]))
        ca, cb = (self.cantor.ladder.interval if self.cantor is not None
                  else (np.inf, -np.inf))
        segs = [(s0, s1, s0 >= ca - 1e-12 and s1 <= cb + 1e-12)
                for s0, s1 in zip(pts[:-1], pts[1:])]
        k = len(hs)

        def fn(x, own):
            # owner j integrates hs[j % k] over Gauss-Kronrod segment j // k
            which, uv, shared = own % k, self.evaluate(x), share(x)
            out = np.empty(x.shape)
            for i, h in enumerate(hs):
                m = which == i
                out[m] = h(x[m], uv[m], *(s[m] for s in shared))
            return out

        ends = np.repeat([(s0, s1) for s0, s1, c in segs if not c], k,
                         axis=0).reshape(-1, 2)
        kronrod = iter(adaptive_simpson_many(fn, ends[:, 0], ends[:, 1],
                                             tol).reshape(-1, k))
        totals = [0.0] * k
        for s0, s1, cantor in segs:
            seg = self._cantor_segment_integral(hs, s0, s1, share) \
                if cantor else next(kronrod)
            totals = [t + float(v) for t, v in zip(totals, seg)]
        return totals

    def _cantor_segment_integral(self, hs, s0, s1, share):
        cp = self.cantor
        lad = cp.ladder
        offset = self._jump_offset(s0)

        def base(x):
            out = np.full(np.shape(x), offset)
            if self.ac is not None:
                out = out + self.ac.evaluate(x)
            return out

        totals = [0.0] * len(hs)
        xk, vk = lad.knots()
        ck = np.clip(xk, s0, s1)
        # plateaus: u is smooth there (base + constant ladder value), so
        # 6-point Gauss; leaves: midpoint rule (1-point Gauss) at the
        # value of the leaf midpoint, error O(side^depth)
        rules = ((ck[1:-1:2], ck[2::2], vk[1:-1:2], 0.0, 6),
                 (ck[0::2], ck[1::2], vk[0::2], 0.5 * lad.mass, 1))
        for clo, chi, val, shift, n in rules:
            keep = chi > clo
            clo, chi, val = clo[keep], chi[keep], val[keep] + shift
            for i in range(0, clo.size, _CANTOR_BLOCK):
                blk = slice(i, i + _CANTOR_BLOCK)
                xs, w = gauss_nodes(clo[blk], chi[blk], n)
                uvals = base(xs) + cp.scale * val[blk, None]
                shared = share(xs)
                for j, h in enumerate(hs):
                    hv = np.asarray(h(xs, uvals, *shared), dtype=float)
                    totals[j] += float(np.sum(hv * w))
        return totals


# ---------------------------------------------------------------------------
# Regions


# A 2D region gives its boundary as curves of measures (Circles or
# Segments), each with its interior_normal, and its integration patch.


@dataclass(frozen=True)
class Disc:
    center: tuple
    radius: float

    def boundary(self):
        return (Circle(self.center, self.radius),)

    def patch(self, phi=None):
        """The disc's DiscPatch, cut to a concentric radial phi's support."""
        r_in = 0.0
        r_out = self.radius
        breaks = ()
        if phi is not None and phi.support[0] in ("disc", "annulus") \
                and tuple(phi.support[1]) == tuple(self.center):
            if phi.support[0] == "annulus":
                r_in = min(phi.support[2], r_out)
            r_out = min(r_out, phi.support[-1])
            breaks = tuple(b for b in phi.radial_breaks if r_in < b < r_out)
        return DiscPatch(self.center, r_out, r_inner=r_in, r_breaks=breaks)

    def perimeter(self):
        return 2.0 * np.pi * self.radius

    def interior_normal(self, pts):
        return Circle(self.center, self.radius).interior_normal(pts)

    def boundary_distance(self, pts):
        d = np.asarray(pts, dtype=float) - np.asarray(self.center, float)
        return np.abs(np.hypot(d[..., 0], d[..., 1]) - self.radius)

    def contains(self, pts):
        p = np.asarray(pts, dtype=float)
        d = p - np.asarray(self.center, dtype=float)
        return np.hypot(d[..., 0], d[..., 1]) < self.radius


@dataclass(frozen=True)
class PolygonRegion:
    vertices: tuple  # counter-clockwise

    def boundary(self):
        """The edges, counter-clockwise: the interior is on their left."""
        v = np.asarray(self.vertices, dtype=float)
        return tuple(Segment(tuple(p0), tuple(p1))
                     for p0, p1 in zip(v, np.roll(v, -1, axis=0)))

    def patch(self, phi=None):
        """The PolygonPatch of the polygon, whatever phi is."""
        return PolygonPatch(tuple(tuple(v) for v in self.vertices))

    def perimeter(self):
        return sum(seg.length for seg in self.boundary())

    def interior_normal(self, pts):
        """Interior normal of the edge nearest to each point."""
        return self._nearest_edge(pts)[1]

    def boundary_distance(self, pts):
        return self._nearest_edge(pts)[0]

    def _nearest_edge(self, pts):
        """(distance to the nearest edge, its interior normal) per point."""
        p = np.asarray(pts, dtype=float)
        best = np.full(p.shape[:-1], np.inf)
        out = np.zeros(p.shape)
        for seg in self.boundary():
            p0 = np.asarray(seg.p0)
            d = np.asarray(seg.p1) - p0
            s = np.clip(np.dot(p - p0, d) / np.dot(d, d), 0, 1)
            dist = np.linalg.norm(p - (p0 + s[..., None] * d), axis=-1)
            closer = dist < best
            best = np.where(closer, dist, best)
            out = np.where(closer[..., None], seg.interior_normal(p), out)
        return best, out

    def contains(self, pts):
        from .measures import _points_in_polygon
        return _points_in_polygon(np.asarray(pts, dtype=float),
                                  np.asarray(self.vertices, dtype=float))


# ---------------------------------------------------------------------------
# 2D BV functions


@dataclass(frozen=True)
class SmoothRadialBv2D:
    """u(x) = profile(|x - center|), zero outside the support radius.

    The profile must be C^1, strictly decreasing on (0, support_radius) and
    vanish at the support radius, so every level set is a disc.
    """

    rect: tuple
    center: tuple
    profile: object
    dprofile: object
    support_radius: float

    def evaluate(self, pts):
        p = np.asarray(pts, dtype=float)
        r = np.hypot(p[..., 0] - self.center[0], p[..., 1] - self.center[1])
        return np.where(r < self.support_radius,
                        np.asarray(self.profile(r), dtype=float), 0.0)

    def gradient(self, pts):
        p = np.asarray(pts, dtype=float)
        dx = p[..., 0] - self.center[0]
        dy = p[..., 1] - self.center[1]
        r = np.hypot(dx, dy)
        safe = np.where(r > 0, r, 1.0)
        fac = np.where(r < self.support_radius,
                       np.asarray(self.dprofile(r), dtype=float), 0.0) / safe
        return np.stack([fac * dx, fac * dy], axis=-1)

    def max_value(self):
        return float(self.profile(0.0))

    def radius_of_level(self, t):
        ((disc, _),) = self.level_regions_many(np.array([t], dtype=float))[0]
        return disc.radius

    def level_breaks(self):
        return self.value_range()

    def level_regions_many(self, ts):
        """For every level t of ts, ((region, sign), ...) whose union,
        signed, is {u > t}: one disc, the radii polished together."""
        radii = _brent_roots(
            lambda r, k: np.asarray(self.profile(r), dtype=float) - ts[k],
            np.zeros(ts.size), np.full(ts.size, float(self.support_radius)),
            xtol=1e-14)
        # NaN: the profile does not cross t on [0, support_radius]
        bad = ts[~((0.0 < ts) & (ts < self.max_value())) | np.isnan(radii)]
        if bad.size:
            raise DegenerateLevel(f"level {bad[0]} outside the profile range")
        return [((Disc(self.center, r), 1.0),) for r in radii.tolist()]

    def sup_norm(self):
        return abs(self.max_value())

    def value_range(self):
        return 0.0, self.max_value()


@dataclass(frozen=True)
class PiecewiseConstantBv2D:
    """Finitely many disjoint constant regions over a zero background."""

    rect: tuple
    regions: tuple  # ((Disc | PolygonRegion, value), ...)
    background: float = 0.0

    def __post_init__(self):
        if self.background != 0.0:
            raise ValueError("only zero background is supported")

    def evaluate(self, pts):
        p = np.asarray(pts, dtype=float)
        out = np.full(p.shape[:-1], self.background)
        for region, val in self.regions:
            out = np.where(region.contains(p), val, out)
        return out

    def gradient(self, pts):
        p = np.asarray(pts, dtype=float)
        return np.zeros(p.shape[:-1] + (2,))

    def sup_norm(self):
        return max([abs(self.background)] +
                   [abs(v) for _, v in self.regions])

    def value_range(self):
        vals = [self.background] + [v for _, v in self.regions]
        return min(vals), max(vals)

    def level_breaks(self):
        return tuple(sorted({self.background, *(v for _, v in self.regions)}))

    def level_regions_many(self, ts):
        """For every level t of ts, ((region, sign), ...) for the regions
        whose jump range holds t: sign +1 where {u > t} is the region, -1
        where it is the complement (a negative value)."""
        return [tuple((region, 1.0 if v >= 0 else -1.0)
                      for region, v in self.regions
                      if min(v, 0.0) < t < max(v, 0.0))
                for t in ts.tolist()]


# ---------------------------------------------------------------------------
# Module-level operations


def gradient_measure(u):
    if isinstance(u, BvFunction1D):
        return u.gradient_measure()
    if isinstance(u, SmoothRadialBv2D):
        grad = u.gradient

        def density(pts):
            g = np.asarray(grad(pts), dtype=float)
            return np.hypot(g[..., 0], g[..., 1])

        patch = DiscPatch(u.center, u.support_radius)
        return RadonMeasure2D(u.rect, ac_parts=((patch, density),))
    if isinstance(u, PiecewiseConstantBv2D):
        parts = tuple(
            (curve, lambda p, _h=abs(val - u.background):
             np.full(np.shape(p)[:-1], _h))
            for region, val in u.regions for curve in region.boundary())
        return RadonMeasure2D(u.rect, surface_parts=parts)
    raise TypeError(f"unsupported BV function {type(u)!r}")


def _crossing_slices(u, boundary):
    """The slicer of a 1D u that sums ``boundary(xs, nu, ts)`` over the
    crossings of each level, in order."""
    def slices(ts):
        owner, xs, nu = u.level_crossings_many(ts)
        out = np.zeros(ts.shape)
        np.add.at(out, owner, boundary(xs, nu, ts[owner]))
        return out
    return slices


def _coarea_rhs(u, slices, ladder_slice, tol):
    """int dt of a slice functional of {u > t} over the level range of u.

    The t-panels lie between consecutive ``u.level_breaks()`` (1D or 2D),
    each pulled in at both ends by 1e-10 times the span of the breaks.
    ``slices(ts)`` gives the slices at an array of ordinary levels and may
    raise DegenerateLevel at a plateau level; the panels are the owners of
    one adaptive_simpson_many call, so one call of slices gets the levels
    of every panel still refining.  Over the level range of a 1D
    ladder the single crossing x(t) jumps at every dyadic level, so those
    panels follow the dyadic grid and use 2-point Gauss in t;
    ``ladder_slice(xs, nu, ts)`` gets all of their nodes at once: the
    crossings xs (from the ladder inverse), the normal nu of {u > t} there
    and the levels ts.
    """
    depth = 13
    breaks = u.level_breaks()
    pad = 1e-10 * (breaks[-1] - breaks[0])
    cantor_range = _cantor_level_range(u)
    parts = []     # per panel: its Gauss sum, or None for an adaptive panel
    ends = []      # the adaptive (Gauss-Kronrod 7/15) panels
    for t0, t1 in zip(breaks[:-1], breaks[1:]):
        if t1 - t0 < 1e-13:
            continue
        tm = 0.5 * (t0 + t1)
        if cantor_range is not None \
                and cantor_range[0] <= tm <= cantor_range[1]:
            lo_val, hi_val = cantor_range
            span = hi_val - lo_val
            f0 = (t0 - lo_val) / span
            f1 = (t1 - lo_val) / span
            n = 2 ** depth
            j0 = int(np.ceil(f0 * n - 1e-12))
            j1 = int(np.floor(f1 * n + 1e-12))
            edges_f = np.concatenate([[f0], np.arange(j0, j1 + 1) / n, [f1]])
            edges_f = np.unique(np.clip(edges_f, f0, f1))
            fn, wn = (v.ravel() for v in gauss_nodes(edges_f[:-1],
                                                     edges_f[1:], 2))
            wn = wn * span
            # ladder fraction of the crossing at level t: invert the
            # monotone map
            increasing = u.cantor.scale > 0
            xs = u.cantor.ladder.inverse(fn if increasing else 1.0 - fn)
            vals = ladder_slice(xs, 1.0 if increasing else -1.0,
                                lo_val + fn * span)
            parts.append(_weighted_sum(wn, vals))
            continue
        parts.append(None)
        ends.append((t0 + pad, t1 - pad))
    ends = np.reshape(ends, (-1, 2))
    kronrod = iter(adaptive_simpson_many(lambda ts, _: slices(ts), ends[:, 0],
                                         ends[:, 1], tol=tol).tolist())
    total = 0.0
    for part in parts:
        total += next(kronrod) if part is None else part
    return total


def _cantor_level_range(u):
    if not isinstance(u, BvFunction1D) or u.cantor is None:
        return None
    # u at the carrier's ends, one-sided: off the grid of its end segments
    ca, cb = u.cantor.ladder.interval
    va = next(float(v[0]) for lo, _, _, v, _ in u._level_grid if lo == ca)
    vb = next(float(v[-1]) for _, hi, _, v, _ in u._level_grid if hi == cb)
    return (min(va, vb), max(va, vb))
