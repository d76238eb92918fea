"""Quadrature utilities used across the package.

All integrand callables are expected to be numpy-vectorized: they receive
arrays of abscissae and return arrays of the same shape.  The batched
drivers call f(x, owner) with the owner of each abscissa; 2D integrands
receive points of shape (..., 2).  The one adaptive 1D driver,
adaptive_simpson_many, refines on the embedded Gauss-Kronrod 7/15 pair
(Kronrod 1965; QUADPACK's QAG rule); it keeps the name it had when it
was a Simpson loop.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import accumulate

import numpy as np

from .errors import NonFiniteValue, ToleranceNotMet

__all__ = [
    "adaptive_simpson",
    "adaptive_simpson_many",
    "gauss_nodes",
    "t_integral",
    "find_sign_changes",
    "aitken",
    "polar_quad_many",
    "polygon_quad_many",
    "circle_integral_many",
    "segment_integral_many",
]


@lru_cache(maxsize=64)
def _leggauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_nodes(a, b, n):
    """n-point Gauss-Legendre nodes and weights on the panels [a, b], a
    and b arrays of panel ends (or numbers): both on a new last axis."""
    x, w = _leggauss(n)
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


def t_integral(fn, lo, hi, *rows, kinks=(), n=24):
    """Vectorized int_lo^hi fn(t, *rows) dt, signed by hi - lo, by n-point
    Gauss on the panels between lo, the t-kinks inside and hi.

    ``lo`` and ``hi`` broadcast together; ``rows`` are arrays whose leading
    axes are theirs (points and their data, such as phi there).  The
    leading rows are walked in blocks of at most _T_BLOCK t-nodes: ``fn``
    receives the nodes of a block, of shape lo[blk].shape + (m,), and the
    same block of each of ``rows``, and returns the integrand on the nodes,
    with the values of a vector integrand on one more trailing axis.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                 np.asarray(hi, dtype=float))
    cuts = [float(kk) for kk in sorted(kinks)]
    per_row = n * (len(cuts) + 1) * int(np.prod(lo.shape[1:]))
    step = max(1, _T_BLOCK // per_row)
    blocks = ([Ellipsis] if lo.ndim == 0 else
              [slice(i, i + step) for i in range(0, lo.shape[0], step)])
    out = []
    for blk in blocks:
        a = np.minimum(lo[blk], hi[blk])
        b = np.maximum(lo[blk], hi[blk])
        edges = np.stack([a] + [np.clip(np.full_like(a, kk), a, b)
                                for kk in cuts] + [b], axis=-1)
        t, w = (v.reshape(a.shape + (-1,))
                for v in gauss_nodes(edges[..., :-1], edges[..., 1:], n))
        vals = np.asarray(fn(t, *(r[blk] for r in rows)), dtype=float)
        sign = np.where(hi[blk] >= lo[blk], 1.0, -1.0)
        if vals.ndim > t.ndim:  # vector integrand
            w, sign = w[..., None], sign[..., None]
        out.append(sign * np.sum(w * vals, axis=a.ndim))
    return out[0] if lo.ndim == 0 else np.concatenate(out)


def _weighted_sum(w, v):
    """sum(w * v) by numpy's pairwise summation.  Unlike np.dot, it never
    calls BLAS, whose threaded dot product (above ~10^4 terms) wakes a
    helper thread and splits the sum by the thread count, so the bits
    would depend on the machine's cores."""
    return float(np.sum(w * v))


def _clean_breakpoints(a, b, breakpoints):
    pts = [a, b]
    for p in breakpoints:
        if a < p < b:
            pts.append(float(p))
    pts = np.array(sorted(set(pts)))
    return pts


# Gauss-Kronrod 7/15 on [-1, 1] (Kronrod 1965; QUADPACK's qk15): the 15
# Kronrod nodes, their weights, and the embedded 7-point Gauss weights on
# the same nodes (0.0 on the Kronrod-only ones)
_GK_X = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993945, -0.5860872354676911, -0.4058451513773972,
    -0.20778495500789848, 0.0, 0.20778495500789848, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993945, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126])
_K15_W = np.array([
    0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
    0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
    0.20443294007529889, 0.20948214108472782, 0.20443294007529889,
    0.19035057806478542, 0.1690047266392679, 0.14065325971552592,
    0.10479001032225019, 0.06309209262997856, 0.022935322010529224])
_G7_W = np.array([
    0.0, 0.1294849661688697, 0.0, 0.27970539148927664, 0.0,
    0.3818300505051189, 0.0, 0.4179591836734694, 0.0, 0.3818300505051189,
    0.0, 0.27970539148927664, 0.0, 0.1294849661688697, 0.0])


def adaptive_simpson(f, a, b, tol=1e-9, breakpoints=(), max_nodes=2_000_000):
    """Adaptive Gauss-Kronrod 7/15 over [a, b]: adaptive_simpson_many with
    one owner."""
    return float(adaptive_simpson_many(lambda x, _: f(x), [a], [b], tol,
                                       breakpoints, max_nodes)[0])


def adaptive_simpson_many(f, a, b, tol=1e-9, breakpoints=(),
                          max_nodes=2_000_000):
    """Independent adaptive Gauss-Kronrod 7/15 integrals over the
    intervals [a_k, b_k].

    Owner k halves the panels between the breakpoints inside [a_k, b_k]
    until each panel's |K15 - G7| meets its share tol * width / (b_k - a_k)
    of the budget, or the panel is narrower than 1e-14 (b_k - a_k); a
    finished panel adds its K15.  Each owner counts its own nodes against
    max_nodes.  ``f(x, owner)`` gets the 15 nodes of every open panel of
    every owner in one call.  K15 and G7 are row-wise np.sum, never a
    BLAS product, so an owner gets the same bits alone as in a batch.  An
    empty interval gives 0.0.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    result = np.zeros(a.shape)
    panels = [(k, _clean_breakpoints(a[k], b[k], breakpoints))
              for k in np.flatnonzero(b > a)]
    if not panels:
        return result
    lo, hi, own = (np.concatenate(v) for v in zip(*(
        (p[:-1], p[1:], np.full(p.size - 1, k)) for k, p in panels)))
    span = (b - a)[own]
    # the total bounds each owner's count: count owners past max_nodes
    total, uncounted = 0, []
    count = np.zeros(a.size, dtype=int)
    while lo.size:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        vals = np.asarray(f((mid[:, None] + half[:, None] * _GK_X).ravel(),
                            np.repeat(own, _GK_X.size)), dtype=float)
        if not np.isfinite(vals).all():
            raise NonFiniteValue("integrand produced non-finite values")
        vals = vals.reshape(-1, _GK_X.size)
        K = half * np.sum(vals * _K15_W, axis=-1)
        err = np.abs(K - half * np.sum(vals * _G7_W, axis=-1))
        total += _GK_X.size * own.size
        uncounted.append(own)
        budget = tol * np.maximum((hi - lo) / span, 1e-300)
        done = (err <= budget) | (hi - lo < 1e-14 * span)
        result += _owner_sums(K[done], own[done], a.size)
        keep = ~done
        if total > max_nodes:
            count += _GK_X.size * np.bincount(np.concatenate(uncounted),
                                              minlength=a.size)
            uncounted = []
            over = np.flatnonzero(count > max_nodes)
            if over.size:
                k = over[0]
                raise ToleranceNotMet(
                    f"adaptive Gauss-Kronrod stalled: "
                    f"{np.count_nonzero(keep & (own == k))} intervals above "
                    f"tolerance after {count[k]} evaluations")
        # per row: [left halves, right halves] of the remaining panels
        lo, hi, span, own = np.array(
            [[lo, mid], [mid, hi], [span, span], [own, own]])[..., keep] \
            .reshape(4, -1)
        own = own.astype(int)
    return result


def _owner_sums(vals, owner, n):
    """Per owner, np.sum of its entries of vals in order: np.add.at for
    fewer than 8 terms, which np.sum too adds left to right."""
    if n == 1:
        return vals.sum()
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


def find_sign_changes(f, a, b, breakpoints=()):
    """Locate the zeros of ``f`` by dense sampling (4001 points over [a, b],
    at least 16 per piece between breakpoints) plus Brent refinement.  A
    sample where f is exactly 0 between samples of opposite sign is a
    root as it stands."""
    pts = _clean_breakpoints(a, b, breakpoints)
    roots = []
    for lo, hi in zip(pts[:-1], pts[1:]):
        npts = max(16, int(4001 * (hi - lo) / (b - a)))
        x = np.linspace(lo, hi, npts)
        s = np.sign(np.asarray(f(x), dtype=float))
        idx = np.nonzero(s[:-1] * s[1:] < 0)[0]
        r = _brent_roots(lambda z, _: np.asarray(f(z), dtype=float), x[idx],
                         x[idx + 1], xtol=1e-14)
        roots.extend(r[~np.isnan(r)].tolist())
        roots.extend(x[1:-1][(s[1:-1] == 0) & (s[:-2] * s[2:] < 0)].tolist())
    return sorted(roots)


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


_T_BLOCK = 1 << 16   # points per integrand call of a planar batch (and
                     # t-nodes per call in t_integral)


def _estimates(f, steps):
    """(owner, value(f at its points)) for the steps (owner, (points,
    value)), in order.  f is called once per run of consecutive owners with
    at most _T_BLOCK points together, or of one owner with more, and a
    run's points are let go before the next run is built."""
    run, size = [], 0
    for k, (pts, value) in steps:
        if run and size + pts.size // 2 > _T_BLOCK:
            yield from _evaluate(f, run)
            run, size = [], 0
        run.append((k, pts, value))
        size += pts.size // 2
    if run:
        yield from _evaluate(f, run)


def _evaluate(f, run):
    """(owner, value(f at its points)) for a run of (owner, points, value),
    from one call of f.  Several owners get their points flattened and
    concatenated, with one owner per point; a lone owner gets its points as
    they are, with its owner in an array that broadcasts against them."""
    if len(run) == 1:
        ((k, pts, value),) = run
        yield k, value(np.asarray(f(pts, np.full((1,) * (pts.ndim - 1), k)),
                                  dtype=float))
        return
    sizes = [pts.size // 2 for _, pts, _ in run]
    v = np.asarray(f(np.concatenate([pts.reshape(-1, 2) for _, pts, _ in run]),
                     np.repeat([k for k, _, _ in run], sizes)), dtype=float)
    for (k, pts, value), x in zip(run, np.split(v, np.cumsum(sizes)[:-1])):
        yield k, value(x.reshape(pts.shape[:-1]))


def _settle_many(f, refine, todo, n, tol):
    """The settled values of n owners' successive refinements.

    refine(j, ks) gives refinement j of each owner of ks, in order, as
    (points of shape (..., 2), value), where value maps f at the points to
    the estimate; it raises ToleranceNotMet when there is no refinement j.
    The owners not in todo get 0.0.  Each pass evaluates f on the points of
    the owners still refining (_estimates).  An owner settles at the first
    value within tol * (1 + |value|) of the one before it and drops out of
    later passes."""
    out = np.zeros(n)
    prev = {}
    todo, j = list(todo), 0
    while todo:
        rest = []
        for k, cur in _estimates(f, zip(todo, refine(j, todo))):
            if k in prev and abs(cur - prev[k]) <= tol * (1.0 + abs(cur)):
                out[k] = cur
            else:
                prev[k] = cur
                rest.append(k)
        todo, j = rest, j + 1
    return out


def _owned(owner, ks):
    """The mask of the rows whose owner (owner[i] for row i) is in ks."""
    keep = np.zeros(owner.max() + 1, dtype=bool)
    keep[ks] = True
    return keep[owner]


def _spans(owner, ks, size):
    """(start, end) of the entries of each owner of ks, in order, when the
    rows (owner[i] for row i, sorted) hold size entries each."""
    ends = np.cumsum(np.bincount(owner)[ks] * size).tolist()
    return zip([0, *ends[:-1]], ends)


def _area_value(spec, *operands):
    """einsum(spec, *operands), the integrand values last."""
    if not np.all(np.isfinite(operands[-1])):
        raise NonFiniteValue("2D integrand produced non-finite values")
    return float(np.einsum(spec, *operands))


@lru_cache(maxsize=16)
def _theta_nodes(ntheta):
    """8-point Gauss weights on ntheta equal panels of [0, 2 pi], and the
    cosines and sines of the nodes as columns."""
    tedges = np.linspace(0.0, 2.0 * np.pi, ntheta + 1)
    tn, tw = (v.ravel() for v in gauss_nodes(tedges[:-1], tedges[1:], 8))
    return tw, np.cos(tn)[:, None], np.sin(tn)[:, None]


def _polar_points(center, rn, cos, sin):
    pts = np.empty((cos.size, rn.size, 2))
    pts[..., 0] = center[0] + rn[None, :] * cos
    pts[..., 1] = center[1] + rn[None, :] * sin
    return pts


def polar_quad_many(f, center, r0, r1, r_breaks, tol=1e-9):
    """The integrals of f over the annuli r0[k] <= |x - center[k]| <= r1[k]
    in polar form, 8-point Gauss on equal theta panels and on radial panels
    between each annulus' breaks r_breaks[k], both doubling until settled
    (_settle_many): f(points, owner) gets the points of many annuli in one
    call."""
    center = np.asarray(center, dtype=float).reshape(-1, 2)
    # (owner, lo, hi) of the radial segments between each annulus' edges
    seg = np.array([(k, lo, hi) for k, (a, b, br)
                    in enumerate(zip(r0, r1, r_breaks)) if a < b
                    for e in [sorted({a, b, *(r for r in br if a < r < b)})]
                    for lo, hi in zip(e, e[1:])]).reshape(-1, 3)
    own = seg[:, 0].astype(int)

    def refine(j, ks):
        if j == 8:
            raise ToleranceNotMet("polar quadrature did not converge")
        tw, cos, sin = _theta_nodes(4 << j)
        on = _owned(own, ks)
        # 1 << j radial panels on each segment, 8 Gauss nodes on a panel
        e = np.linspace(seg[on, 1], seg[on, 2], (1 << j) + 1, axis=-1)
        rn, rw = (v.ravel() for v in gauss_nodes(e[:, :-1], e[:, 1:], 8))
        return ((_polar_points(center[k], rn[i0:i1], cos, sin),
                 partial(_area_value, "i,j,ij->", tw, rw[i0:i1] * rn[i0:i1]))
                for k, (i0, i1) in zip(ks, _spans(own[on], ks, 8 << j)))

    return _settle_many(f, refine, dict.fromkeys(own.tolist()), len(center),
                        tol)


def _triangle_grid(tris, n):
    # Duffy transform on each triangle: collapsed tensor Gauss
    xi, wi = gauss_nodes(0.0, 1.0, n)
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
    return pts, partial(_area_value, "t,ij,tij->", area2, W)


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


def _fan(vertices):
    verts = np.asarray(vertices, dtype=float)
    centroid = verts.mean(axis=0)
    return np.stack([
        np.broadcast_to(centroid, (verts.shape[0], 2)),
        verts,
        np.roll(verts, -1, axis=0),
    ], axis=1)


def polygon_quad_many(f, polygons, tol=1e-9, n=8):
    """The integrals of f over the simple polygons with the vertex lists
    polygons, settled together: Duffy-transformed Gauss on fan triangles,
    subdivided up to five times."""
    levels = [accumulate(range(5), lambda t, _: _subdivide(t),
                         initial=_fan(v)) for v in polygons]

    def refine(j, ks):
        if j == 6:
            raise ToleranceNotMet("polygon quadrature did not converge")
        return (_triangle_grid(next(levels[k]), n) for k in ks)

    return _settle_many(f, refine, range(len(polygons)), len(polygons), tol)


def _line_many(g, point_at, a, b, jacobian, breaks, npanels, tol, what,
               todo):
    """int_a^b g(point_at(s, k), k) jacobian[k] ds for the owners k of todo,
    by 8-point Gauss on panels that honor the breakpoints breaks[k], the
    panel count doubling from ``npanels``, settled together."""
    # (owner, lo, width) of the parts of [a, b] between each owner's breaks
    piece = np.array([(k, lo, hi - lo) for k in todo
                      for cuts in [[a, *sorted(p for p in breaks[k]
                                               if a < p < b), b]]
                      for lo, hi in zip(cuts, cuts[1:])]).reshape(-1, 3)
    own = piece[:, 0].astype(int)

    def refine(j, ks):
        if j == 11:
            raise ToleranceNotMet(f"{what} did not converge")
        on = _owned(own, ks)
        lo, width = piece[on, 1], piece[on, 2]
        # on each piece the first n of np.linspace(lo, hi, n + 1), n in
        # proportion to its width, and b after an owner's last piece
        n = np.maximum(1, np.rint((npanels << j) * width / (b - a)))
        n = n.astype(int)
        i = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        edge = i * np.repeat(width / n, n) + np.repeat(lo, n)
        k = np.repeat(own[on], n)
        nxt = np.where(np.append(k[1:] != k[:-1], True), b,
                       np.append(edge[1:], b))
        s, w = (v.ravel() for v in gauss_nodes(edge, nxt, 8))
        w = w * np.repeat(jacobian[k], 8)
        return ((point_at(s[i0:i1], kk),
                 lambda vals, w=w[i0:i1]: float(np.dot(w, vals)))
                for kk, (i0, i1) in zip(ks, _spans(k, ks, 8)))

    return _settle_many(g, refine, todo, len(breaks), tol)


def _circle_points(center, radius, theta):
    return np.stack([center[..., 0] + radius * np.cos(theta),
                     center[..., 1] + radius * np.sin(theta)], axis=-1)


def _segment_points(p0, p1, s):
    return p0 + s[..., None] * (p1 - p0)


def circle_integral_many(g, center, radius, theta_breaks, tol=1e-10):
    """The line integrals of g over the circles (center[k], radius[k]),
    each with its angle breaks theta_breaks[k], settled together:
    g(points, owner)."""
    center = np.asarray(center, dtype=float).reshape(-1, 2)
    radius = np.asarray(radius, dtype=float).reshape(-1)
    return _line_many(g, lambda s, k: _circle_points(center[k], radius[k], s),
                      0.0, 2.0 * np.pi, radius, theta_breaks, 4, tol,
                      "circle integral", range(radius.size))


def segment_integral_many(g, p0, p1, s_breaks, tol=1e-10):
    """The line integrals of g over the segments [p0[k], p1[k]], each with
    its breaks s_breaks[k] in (0, 1), settled together: g(points, owner).
    A segment of length 0 gives 0.0."""
    p0 = np.asarray(p0, dtype=float).reshape(-1, 2)
    p1 = np.asarray(p1, dtype=float).reshape(-1, 2)
    length = np.array([float(np.linalg.norm(q - p)) for p, q in zip(p0, p1)])
    return _line_many(g, lambda s, k: _segment_points(p0[k], p1[k], s),
                      0.0, 1.0, length, s_breaks, 1, tol, "segment integral",
                      np.flatnonzero(length > 0.0))

