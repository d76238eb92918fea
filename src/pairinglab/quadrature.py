"""Quadrature utilities used across the package.

All integrand callables are expected to be numpy-vectorized: they receive
arrays of abscissae and return arrays of the same shape (2D integrands
receive arrays of shape (..., 2)).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import NonFiniteValue, ToleranceNotMet

__all__ = [
    "adaptive_simpson",
    "adaptive_simpson_many",
    "find_sign_changes",
    "integrate_abs",
    "aitken",
    "polar_quad",
    "polygon_quad",
    "circle_integral",
    "segment_integral",
]


@lru_cache(maxsize=64)
def _leggauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_nodes(a, b, n):
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _leggauss(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * x, half * w


def _clean_breakpoints(a, b, breakpoints):
    pts = [a, b]
    for p in breakpoints:
        if a < p < b:
            pts.append(float(p))
    pts = np.array(sorted(set(pts)))
    return pts


def adaptive_simpson(f, a, b, tol=1e-9, breakpoints=(), max_nodes=2_000_000):
    """Adaptive composite Simpson with interval bisection.

    Mandatory breakpoints seed the initial panels so that known kinks never
    sit inside a panel.  Intervals are processed in batches so that ``f``
    is always called on arrays.
    """
    if b <= a:
        return 0.0
    pts = _clean_breakpoints(a, b, breakpoints)
    lo = pts[:-1]
    hi = pts[1:]
    mid = 0.5 * (lo + hi)
    all_x = np.concatenate([lo, mid, hi])
    vals = np.asarray(f(all_x), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValue("integrand produced non-finite values")
    n = lo.size
    flo, fmid, fhi = vals[:n], vals[n : 2 * n], vals[2 * n :]
    S = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    total_len = b - a
    result = 0.0
    nodes_used = all_x.size
    # state arrays for pending intervals
    while lo.size:
        m1 = 0.5 * (lo + mid)
        m2 = 0.5 * (mid + hi)
        fm = np.asarray(f(np.concatenate([m1, m2])), dtype=float)
        if not np.all(np.isfinite(fm)):
            raise NonFiniteValue("integrand produced non-finite values")
        nodes_used += fm.size
        k = lo.size
        f1, f2 = fm[:k], fm[k:]
        Sl = (mid - lo) / 6.0 * (flo + 4.0 * f1 + fmid)
        Sr = (hi - mid) / 6.0 * (fmid + 4.0 * f2 + fhi)
        err = np.abs(Sl + Sr - S)
        budget = tol * np.maximum((hi - lo) / total_len, 1e-300)
        done = (err <= budget) | (hi - lo < 1e-14 * total_len)
        result += float(np.sum((Sl + Sr + (Sl + Sr - S) / 15.0)[done]))
        keep = ~done
        if nodes_used > max_nodes:
            raise ToleranceNotMet(
                f"adaptive Simpson stalled: {int(keep.sum())} intervals above "
                f"tolerance after {nodes_used} evaluations"
            )
        # split the remaining intervals
        lo2 = np.concatenate([lo[keep], mid[keep]])
        hi2 = np.concatenate([mid[keep], hi[keep]])
        mid2 = np.concatenate([m1[keep], m2[keep]])
        flo2 = np.concatenate([flo[keep], fmid[keep]])
        fhi2 = np.concatenate([fmid[keep], fhi[keep]])
        fmid2 = np.concatenate([f1[keep], f2[keep]])
        S2 = np.concatenate([Sl[keep], Sr[keep]])
        lo, mid, hi, flo, fmid, fhi, S = lo2, mid2, hi2, flo2, fmid2, fhi2, S2
    return result


def adaptive_simpson_many(f, a, b, tol=1e-9, breakpoints=(),
                          max_nodes=2_000_000):
    """Independent adaptive Simpson integrals over the intervals [a_k, b_k].

    Owner k gets, to the bit, what ``adaptive_simpson`` gives on [a_k, b_k]
    with the same arguments: the same initial panels and budget, and its
    own node count against max_nodes.  ``f(x, owner)`` gets the nodes of
    every owner still refining in one call.  An empty interval gives 0.0.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    result = np.zeros(a.shape)
    panels = [(k, _clean_breakpoints(a[k], b[k], breakpoints))
              for k in np.flatnonzero(b > a)]
    if not panels:
        return result
    lo, hi, own = (np.concatenate(v) for v in zip(*(
        (p[:-1], p[1:], np.full(p.size - 1, k)) for k, p in panels)))
    span = b - a
    mid = 0.5 * (lo + hi)
    flo, fmid, fhi = np.asarray(f(np.concatenate([lo, mid, hi]), np.tile(
        own, 3)), dtype=float).reshape(3, -1)
    S = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
    nodes_used = 3 * np.bincount(own, minlength=a.size)
    if not np.all(np.isfinite([flo, fmid, fhi])):
        raise NonFiniteValue("integrand produced non-finite values")
    while lo.size:
        m1 = 0.5 * (lo + mid)
        m2 = 0.5 * (mid + hi)
        f1, f2 = np.asarray(f(np.concatenate([m1, m2]), np.tile(own, 2)),
                            dtype=float).reshape(2, -1)
        if not np.all(np.isfinite([f1, f2])):
            raise NonFiniteValue("integrand produced non-finite values")
        nodes_used += 2 * np.bincount(own, minlength=a.size)
        Sl = (mid - lo) / 6.0 * (flo + 4.0 * f1 + fmid)
        Sr = (hi - mid) / 6.0 * (fmid + 4.0 * f2 + fhi)
        err = np.abs(Sl + Sr - S)
        budget = tol * np.maximum((hi - lo) / span[own], 1e-300)
        done = (err <= budget) | (hi - lo < 1e-14 * span[own])
        result += _owner_sums((Sl + Sr + (Sl + Sr - S) / 15.0)[done],
                              own[done], a.size)
        keep = ~done
        over = np.flatnonzero(nodes_used > max_nodes)
        if over.size:
            k = over[0]
            raise ToleranceNotMet(
                f"adaptive Simpson stalled: {np.sum(keep & (own == k))} "
                f"intervals above tolerance after {nodes_used[k]} "
                f"evaluations")
        # the left halves of the remaining intervals, then the right halves
        lo, mid, hi, flo, fmid, fhi, S = np.concatenate(
            [np.array([lo, m1, mid, flo, f1, fmid, Sl])[:, keep],
             np.array([mid, m2, hi, fmid, f2, fhi, Sr])[:, keep]], axis=1)
        own = np.tile(own[keep], 2)
    return result


def _owner_sums(vals, owner, n):
    """Per owner, np.sum of its entries of vals in order: np.add.at for
    fewer than 8 terms, which np.sum too adds left to right."""
    out = np.zeros(n)
    count = np.bincount(owner, minlength=n)
    short = count[owner] < 8
    np.add.at(out, owner[short], vals[short])
    for k in np.flatnonzero(count >= 8):
        out[k] = np.sum(vals[owner == k])
    return out


_BRENT_RTOL = 4 * np.finfo(float).eps   # scipy brentq's default rtol
_BRENT_MAXITER = 100                     # and its default step cap


def _brent_roots(g, a, b, xtol):
    """Roots of g(., k) in the brackets [a_k, b_k], polished together.

    Each open bracket takes the safeguarded secant / inverse quadratic
    steps of Brent (1973), step for step as scipy's ``brentq``, and stops
    within xtol + _BRENT_RTOL |x|.  A bracket whose ends, evaluated here,
    have the same sign gets NaN; ToleranceNotMet if a bracket is still
    open after _BRENT_MAXITER steps."""
    n = a.size
    if not n:
        return np.zeros(0)
    f = g(np.concatenate([a, b]), np.concatenate([np.arange(n)] * 2))
    root = np.where(f[:n] == 0, a, b)
    act = np.flatnonzero((f[:n] != 0) & (f[n:] != 0))
    same = np.signbit(f[:n][act]) == np.signbit(f[n:][act])
    root[act[same]] = np.nan
    act = act[~same]
    # rows xpre, xcur, xblk, fpre, fcur, fblk, spre, scur of open brackets
    state = np.zeros((8, act.size))
    state[[0, 1, 3, 4]] = a[act], b[act], f[:n][act], f[n:][act]
    for _ in range(_BRENT_MAXITER):
        xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = state
        flip = (fpre != 0) & (fcur != 0) \
            & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk, spre, scur = np.where(
            flip, [xpre, fpre, xcur - xpre, xcur - xpre],
            [xblk, fblk, spre, scur])
        # the better end becomes xcur, the other end of the bracket xblk
        xpre, xcur, xblk, fpre, fcur, fblk = np.where(
            np.abs(fblk) < np.abs(fcur), [xcur, xblk, xcur, fcur, fblk, fcur],
            [xpre, xcur, xblk, fpre, fcur, fblk])
        delta = (xtol + _BRENT_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        root[act[done]] = xcur[done]
        if done.all():
            return root
        with np.errstate(divide="ignore", invalid="ignore"):
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(xpre == xblk,
                            -fcur * (xcur - xpre) / (fcur - fpre),
                            -fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
        good = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                & (2 * np.abs(stry)
                   < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
        spre, scur = np.where(good, [scur, stry], sbis)
        step = np.where(np.abs(scur) > delta, scur,
                        np.where(sbis > 0, delta, -delta))
        act, state = act[~done], np.array(
            [xcur, xcur + step, xblk, fcur, fcur, fblk, spre, scur])[:, ~done]
        state[4] = g(state[1], act)
    raise ToleranceNotMet(f"root polish: {act.size} brackets still open "
                          f"after {_BRENT_MAXITER} steps")


def find_sign_changes(f, a, b, breakpoints=(), grid=4001):
    """Locate the zeros of ``f`` by dense sampling plus Brent refinement."""
    pts = _clean_breakpoints(a, b, breakpoints)
    roots = []
    for lo, hi in zip(pts[:-1], pts[1:]):
        npts = max(16, int(grid * (hi - lo) / (b - a)))
        x = np.linspace(lo, hi, npts)
        s = np.sign(np.asarray(f(x), dtype=float))
        idx = np.nonzero(s[:-1] * s[1:] < 0)[0]
        r = _brent_roots(lambda z, _: np.asarray(f(z), dtype=float), x[idx],
                         x[idx + 1], xtol=1e-14)
        roots.extend(r[~np.isnan(r)].tolist())
    return sorted(roots)


def integrate_abs(f, a, b, tol=1e-9, breakpoints=(), grid=4001):
    """Integrate ``|f|`` by splitting at sign changes of ``f``."""
    roots = find_sign_changes(f, a, b, breakpoints=breakpoints, grid=grid)
    bps = list(breakpoints) + roots
    val = adaptive_simpson(lambda x: np.abs(f(x)), a, b, tol=tol,
                           breakpoints=bps)
    return val


def aitken(seq):
    """Aitken delta-squared acceleration; returns the accelerated tail value.

    Falls back to the last raw element when the sequence is too short or the
    denominators degenerate.
    """
    s = np.asarray(seq, dtype=float)
    if s.size < 3:
        return float(s[-1])
    while s.size >= 3:
        d1 = s[1:-1] - s[:-2]
        d2 = s[2:] - 2.0 * s[1:-1] + s[:-2]
        with np.errstate(divide="ignore", invalid="ignore"):
            acc = s[:-2] - d1 * d1 / d2
        ok = np.isfinite(acc)
        if not ok.any():
            return float(s[-1])
        s = acc[ok]
        if s.size == 1:
            return float(s[-1])
        # one extra pass usually suffices; avoid noise amplification
        if np.abs(np.diff(s)).max() < 1e-15 * (1.0 + np.abs(s[-1])):
            return float(s[-1])
    return float(s[-1])


# ---------------------------------------------------------------------------
# 2D quadrature


def _settled(values, tol, what):
    """The first of the successive refinements ``values`` that lies within
    tol * (1 + |value|) of the one before it."""
    prev = None
    for cur in values:
        if prev is not None and abs(cur - prev) <= tol * (1.0 + abs(cur)):
            return cur
        prev = cur
    raise ToleranceNotMet(f"{what} did not converge")


def _polar_value(f, center, r_edges, ntheta, nr):
    gx, gw = _leggauss(8)
    # theta panels
    tedges = np.linspace(0.0, 2.0 * np.pi, ntheta + 1)
    tmid = 0.5 * (tedges[:-1] + tedges[1:])
    thalf = 0.5 * np.diff(tedges)
    tn = (tmid[:, None] + thalf[:, None] * gx[None, :]).ravel()
    tw = (thalf[:, None] * gw[None, :]).ravel()
    # radial panels
    redges = []
    for lo, hi in zip(r_edges[:-1], r_edges[1:]):
        redges.append(np.linspace(lo, hi, nr + 1))
    rn_list, rw_list = [], []
    for e in redges:
        lo, hi = e[:-1], e[1:]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        rn_list.append((mid[:, None] + half[:, None] * gx[None, :]).ravel())
        rw_list.append((half[:, None] * gw[None, :]).ravel())
    rn = np.concatenate(rn_list)
    rw = np.concatenate(rw_list)
    pts = np.empty((tn.size, rn.size, 2))
    pts[..., 0] = center[0] + rn[None, :] * np.cos(tn)[:, None]
    pts[..., 1] = center[1] + rn[None, :] * np.sin(tn)[:, None]
    vals = np.asarray(f(pts), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValue("2D integrand produced non-finite values")
    return float(np.einsum("i,j,ij->", tw, rw * rn, vals))


def polar_quad(f, center, r0, r1, r_breaks=(), tol=1e-9):
    """Integrate f over the annulus r0 <= |x-center| <= r1 in polar form.

    ``f`` receives an array of points of shape (..., 2).
    """
    if r1 <= r0:
        return 0.0
    center = np.asarray(center, dtype=float)
    edges = [r0, r1] + [r for r in r_breaks if r0 < r < r1]
    edges = sorted(set(edges))
    return _settled((_polar_value(f, center, edges, 4 << k, 1 << k)
                     for k in range(8)), tol, "polar quadrature")


def _triangle_value(f, tris, n):
    # Duffy transform on each triangle: collapsed tensor Gauss
    gx, gw = _leggauss(n)
    xi = 0.5 * (gx + 1.0)
    wi = 0.5 * gw
    XI, ETA = np.meshgrid(xi, xi, indexing="ij")
    W = np.outer(wi, wi) * XI  # jacobian of duffy map
    u = XI * (1.0 - ETA)
    v = XI * ETA
    v0 = tris[:, 0]
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    area2 = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    pts = (v0[:, None, None, :]
           + u[None, :, :, None] * e1[:, None, None, :]
           + v[None, :, :, None] * e2[:, None, None, :])
    vals = np.asarray(f(pts), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValue("2D integrand produced non-finite values")
    return float(np.einsum("t,ij,tij->", area2, W, vals))


def _subdivide(tris):
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab = 0.5 * (a + b)
    bc = 0.5 * (b + c)
    ca = 0.5 * (c + a)
    return np.concatenate([
        np.stack([a, ab, ca], axis=1),
        np.stack([ab, b, bc], axis=1),
        np.stack([ca, bc, c], axis=1),
        np.stack([ab, bc, ca], axis=1),
    ])


def polygon_quad(f, vertices, tol=1e-9, n=8):
    """Integrate f over a simple polygon via fan triangulation + Duffy Gauss."""
    verts = np.asarray(vertices, dtype=float)
    centroid = verts.mean(axis=0)
    tris = np.stack([
        np.broadcast_to(centroid, (verts.shape[0], 2)),
        verts,
        np.roll(verts, -1, axis=0),
    ], axis=1)
    levels = accumulate(range(5), lambda t, _: _subdivide(t), initial=tris)
    return _settled((_triangle_value(f, t, n) for t in levels), tol,
                    "polygon quadrature")


def _break_edges(a, b, breaks, npanels):
    """Panel edges on [a, b] honoring interior breakpoints."""
    cuts = [a] + sorted(p for p in breaks if a < p < b) + [b]
    parts = []
    for lo, hi in zip(cuts, cuts[1:]):
        n = max(1, int(round(npanels * (hi - lo) / (b - a))))
        parts.append(np.linspace(lo, hi, n + 1)[:-1])
    return np.concatenate(parts + [np.asarray([b])])


def _line_integral(g, point_at, a, b, jacobian, breaks, npanels, tol, what):
    """int_a^b g(point_at(s)) jacobian ds by panel Gauss, the panel count
    doubling from ``npanels`` until two successive values agree."""
    gx, gw = _leggauss(8)

    def value(npanels):
        edges = _break_edges(a, b, breaks, npanels)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        s = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
        w = (half[:, None] * gw[None, :]).ravel() * jacobian
        return float(np.dot(w, np.asarray(g(point_at(s)), dtype=float)))

    return _settled((value(npanels << k) for k in range(11)), tol, what)


def circle_integral(g, center, radius, tol=1e-10, theta_breaks=()):
    """Line integral over a circle; ``g`` receives points of shape (..., 2)."""
    center = np.asarray(center, dtype=float)
    return _line_integral(
        g, lambda th: np.stack([center[0] + radius * np.cos(th),
                                center[1] + radius * np.sin(th)], axis=-1),
        0.0, 2.0 * np.pi, radius, theta_breaks, 4, tol, "circle integral")


def segment_integral(g, p0, p1, tol=1e-10, s_breaks=()):
    """Line integral over the segment [p0, p1]."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    length = float(np.linalg.norm(p1 - p0))
    if length == 0.0:
        return 0.0
    return _line_integral(
        g, lambda s: p0[None, :] + s[:, None] * (p1 - p0)[None, :],
        0.0, 1.0, length, s_breaks, 1, tol, "segment integral")
