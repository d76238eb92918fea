"""The pairing between t-dependent fields and BV functions.

Three independent constructions of the same measure are provided: the
distributional definition through the primitive B(x, t), the integral
representation through cylindrical averages of b, and the normal-trace
form through level-set boundaries.  The check functions compare them and
verify the coarea, chain-rule, Lipschitz and approximation statements.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bv import (Disc, FinitePerimeterSet1D, FinitePerimeterSet2D,
                 PiecewiseConstantBv2D, PolygonRegion, SmoothRadialBv2D,
                 _coarea_rhs_1d)
from .bv import gradient_measure as bv_gradient_measure
from .errors import (BoundViolated, CylAverageDiverged, FormMismatch,
                     CrossValidationMismatch, NoApparentConvergence,
                     NonFiniteValue)
from .fields import FieldB, mollify
from .measures import (Circle, DiscPatch, PolygonPatch, RadonMeasure1D,
                       RadonMeasure2D, Segment, _density_sign_breaks)
from .quadrature import _leggauss, adaptive_simpson, aitken, polar_quad

__all__ = [
    "CylAverage",
    "NormalTrace",
    "PairingMeasure",
    "cylindrical_average",
    "normal_trace",
    "pairing_distributional",
    "pairing_by_representation",
    "pairing_by_traces",
    "coarea_pairing_check",
    "coarea_variation_check",
    "chain_rule_check",
    "lipschitz_comparison_check",
    "approximation_convergence_check",
    "mass_bound_check",
    "jump_theta",
]


@dataclass(frozen=True)
class CylAverage:
    value: float
    table: tuple     # 1D: ((r, average), ...); 2D: ((rho, inner limit), ...)
    converged: bool
    message: str = ""


@dataclass(frozen=True)
class NormalTrace:
    points: tuple    # sample points on the oriented set
    normals: tuple
    values: tuple    # trace density at the sample points
    converged: bool
    diagnostics: tuple = ()


@dataclass(frozen=True)
class PairingMeasure:
    measure: object          # RadonMeasure1D or RadonMeasure2D
    theta: object            # density against |Du| on its support
    provenance: str          # distributional | representation | coarea | traces

    def integrate(self, phi, tol=1e-9):
        return self.measure.integrate(phi, tol=tol)


# ---------------------------------------------------------------------------
# Per-element t-quadrature int_0^{u} g(t) dt


def elementwise_t_integral(fn, uv, kinks=(), n=24):
    """Vectorized int_0^{uv} fn(t) dt with panel splits at fixed t-kinks.

    ``fn`` receives nodes of shape uv.shape + (m,) and may return either the
    same shape (scalar integrand) or an extra trailing component axis.
    """
    uv = np.asarray(uv, dtype=float)
    lo = np.minimum(uv, 0.0)
    hi = np.maximum(uv, 0.0)
    edges = [lo]
    for kk in sorted(kinks):
        edges.append(np.clip(np.full_like(uv, float(kk)), lo, hi))
    edges.append(hi)
    edges = np.stack(edges, axis=-1)
    gx, gw = _leggauss(n)
    a = edges[..., :-1]
    b = edges[..., 1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = (mid[..., None] + half[..., None] * gx).reshape(uv.shape + (-1,))
    w = (half[..., None] * gw).reshape(uv.shape + (-1,))
    vals = np.asarray(fn(nodes), dtype=float)
    sgn = np.where(uv >= 0.0, 1.0, -1.0)
    if vals.ndim == nodes.ndim + 1:     # vector-valued integrand
        return sgn[..., None] * np.sum(w[..., None] * vals, axis=-2)
    return sgn * np.sum(w * vals, axis=-1)


# ---------------------------------------------------------------------------
# Cylindrical averages


def _interval_average(field, t, x, r, n=12):
    """Average of b(., t) over (x - r, x + r), symmetric two-panel Gauss."""
    gx, gw = _leggauss(n)
    left = x - 0.5 * r + 0.5 * r * gx
    right = x + 0.5 * r + 0.5 * r * gx
    vals = np.asarray(field.eval(np.concatenate([left, right]),
                                 np.full(2 * n, float(t))), dtype=float)
    return 0.25 * float(np.dot(np.concatenate([gw, gw]), vals))


def _cylinder_average(field, t, nu, x, r, rho, n=10):
    """Average of b(., t) . nu over the cylinder C_{r, rho}(x, nu)."""
    nu = np.asarray(nu, dtype=float)
    perp = np.array([-nu[1], nu[0]])
    gx, gw = _leggauss(n)
    # two symmetric panels in each direction so odd integrands cancel exactly
    s = np.concatenate([-0.5 * r + 0.5 * r * gx, 0.5 * r + 0.5 * r * gx])
    y = np.concatenate([-0.5 * rho + 0.5 * rho * gx,
                        0.5 * rho + 0.5 * rho * gx])
    ws = np.concatenate([gw, gw]) * 0.25
    pts = (x[None, None, :] + s[:, None, None] * nu
           + y[None, :, None] * perp)
    vals = np.asarray(field.eval(pts, float(t)), dtype=float)
    dotted = vals[..., 0] * nu[0] + vals[..., 1] * nu[1]
    return float(ws @ dotted @ ws)


def cylindrical_average(field: FieldB, t, nu, x, r0=0.25, rho0=0.25,
                        depth=24, threshold=1e-7) -> CylAverage:
    """Double-limit average of b_t . nu over shrinking cylinders at x.

    The inner radius r shrinks first at fixed rho, then rho shrinks; both
    run over geometric sequences of ratio 1/2 with Aitken acceleration of
    the last five terms only: the first cylinders may still contain a
    singular point of the field, and their terms would bias the limit.
    """
    if field.dim == 1:
        x = float(np.asarray(x).reshape(()))
        nu = float(nu)
        raw, table = [], []
        ext_prev = None
        for i in range(depth):
            r = r0 * 0.5 ** i
            raw.append(_interval_average(field, t, x, r))
            table.append((r, raw[-1] * nu))
            ext = aitken(raw[-5:])
            if ext_prev is not None and abs(ext - ext_prev) <= threshold \
                    and i >= 3:
                return CylAverage(ext * nu, tuple(table), True)
            ext_prev = ext
        return CylAverage(ext_prev * nu, tuple(table), False,
                          "inner limit did not settle within depth")

    x = np.asarray(x, dtype=float).reshape(2)
    outer_raw, table = [], []
    ext_prev = None
    for j in range(depth):
        rho = rho0 * 0.5 ** j
        inner_raw = []
        inner_prev = None
        inner_val = None
        for i in range(depth):
            r = r0 * 0.5 ** i
            inner_raw.append(_cylinder_average(field, t, nu, x, r, rho))
            inner_val = aitken(inner_raw[-5:])
            if inner_prev is not None \
                    and abs(inner_val - inner_prev) <= 0.1 * threshold \
                    and i >= 3:
                break
            inner_prev = inner_val
        outer_raw.append(inner_val)
        table.append((rho, inner_val))
        ext = aitken(outer_raw[-5:])
        if ext_prev is not None and abs(ext - ext_prev) <= threshold \
                and j >= 2:
            return CylAverage(ext, tuple(table), True)
        ext_prev = ext
    return CylAverage(ext_prev, tuple(table), False,
                      "outer limit did not settle within depth")


def _required_cyl(field, t, nu, x, threshold=1e-10):
    res = cylindrical_average(field, t, nu, x, threshold=threshold)
    if not res.converged:
        # fall back to the looser default threshold before giving up
        res = cylindrical_average(field, t, nu, x)
        if not res.converged:
            raise CylAverageDiverged(
                f"average at x={x}, t={t} did not converge: {res.message}")
    return res.value


def jump_theta(field: FieldB, x0, u_minus, u_plus, nu, tol=1e-9,
               genuine=True):
    """The averaged density over a jump: mean of q(b_t, nu)(x0) on (u-, u+).

    By convention the average over an empty range (u+ = u-) is the value at
    that single level.
    """
    if u_plus == u_minus:
        if genuine:
            return _required_cyl(field, u_minus, nu, x0)
        return _fast_q(field, np.asarray([x0]), nu, u_minus)[0]
    if genuine:
        # the genuine double limit, t-averaged by adaptive Simpson
        def integrand(ts):
            ts = np.atleast_1d(np.asarray(ts, dtype=float))
            return np.array([_required_cyl(field, float(t), nu, x0)
                             for t in ts])
    else:
        x0a = np.asarray(x0, dtype=float)

        def integrand(ts):
            ts = np.asarray(np.atleast_1d(ts), dtype=float)
            if field.dim == 1:
                xs = np.full(ts.shape, float(x0a))
                return _fast_q(field, xs, nu, ts)
            xs = np.broadcast_to(x0a, ts.shape + (2,))
            nub = np.broadcast_to(np.asarray(nu, dtype=float),
                                  ts.shape + (2,))
            return _fast_q(field, xs, nub, ts)

    total = adaptive_simpson(integrand, u_minus, u_plus, tol=tol,
                             breakpoints=[k for k in field.t_kinks
                                          if u_minus < k < u_plus])
    return total / (u_plus - u_minus)


def _fast_q(field, x, nu, t):
    """q(b_t, nu)(x) at points of x-continuity of the field: b(x, t) . nu."""
    v = np.asarray(field.eval(x, t), dtype=float)
    if field.dim == 1:
        return v * nu
    nu = np.asarray(nu, dtype=float)
    return v[..., 0] * nu[..., 0] + v[..., 1] * nu[..., 1]


# ---------------------------------------------------------------------------
# Normal traces


def normal_trace(field: FieldB, t, sigma, nsample=24) -> NormalTrace:
    """Trace of the normal component of b_t on an oriented boundary.

    ``sigma`` is a FinitePerimeterSet (1D or 2D); traces are genuine
    cylindrical averages taken with the interior normal.
    """
    diag = []
    if isinstance(sigma, FinitePerimeterSet1D):
        pts, nus, vals = [], [], []
        for x, nu in sigma.boundary:
            res = cylindrical_average(field, t, nu, x)
            pts.append(x)
            nus.append(nu)
            vals.append(res.value)
            diag.append(res.converged)
        return NormalTrace(tuple(pts), tuple(nus), tuple(vals),
                           all(diag), tuple(diag))
    region = sigma.region if isinstance(sigma, FinitePerimeterSet2D) \
        else sigma
    pts, nus, vals = [], [], []
    if isinstance(region, Disc):
        thetas = 2.0 * np.pi * (np.arange(nsample) + 0.5) / nsample
        for th in thetas:
            p = np.array([region.center[0] + region.radius * np.cos(th),
                          region.center[1] + region.radius * np.sin(th)])
            nu = region.interior_normal(p)
            res = cylindrical_average(field, t, nu, p)
            pts.append(tuple(p))
            nus.append(tuple(nu))
            vals.append(res.value)
            diag.append(res.converged)
    elif isinstance(region, PolygonRegion):
        edges = region.edges()
        per_edge = max(2, nsample // len(edges))
        for p0, p1 in edges:
            nu = region.edge_interior_normal(p0, p1)
            p0 = np.asarray(p0)
            p1 = np.asarray(p1)
            for s in (np.arange(per_edge) + 0.5) / per_edge:
                p = p0 + s * (p1 - p0)
                res = cylindrical_average(field, t, nu, p)
                pts.append(tuple(p))
                nus.append(tuple(nu))
                vals.append(res.value)
                diag.append(res.converged)
    else:
        raise TypeError(f"unsupported boundary {type(region)!r}")
    return NormalTrace(tuple(pts), tuple(nus), tuple(vals),
                       all(diag), tuple(diag))


# ---------------------------------------------------------------------------
# Distributional route


def _patch_for_region(region, phi):
    """Integration patch for a 2D region, clipped to the support of phi
    when the geometry allows it (concentric radial test functions)."""
    if isinstance(region, Disc):
        r_in = 0.0
        r_out = region.radius
        breaks = ()
        if phi is not None and phi.support[0] in ("disc", "annulus") \
                and tuple(phi.support[1]) == tuple(region.center):
            if phi.support[0] == "annulus":
                r_in = min(phi.support[2], r_out)
            r_out = min(r_out, phi.support[-1])
            breaks = tuple(b for b in phi.radial_breaks if r_in < b < r_out)
        return DiscPatch(region.center, r_out, r_inner=r_in, r_breaks=breaks)
    if isinstance(region, PolygonRegion):
        return PolygonPatch(tuple(tuple(v) for v in region.vertices))
    raise TypeError(f"unsupported region {type(region)!r}")


def _patches(u, phi):
    """(patch, u on the patch) pairs covering the support of a 2D u.

    Outside them u = 0, and every integrand h(x, u(x)) built on the
    primitive B(x, 0) = 0 vanishes there.
    """
    if isinstance(u, SmoothRadialBv2D):
        yield (_patch_for_region(Disc(u.center, u.support_radius), phi),
               u.evaluate)
    elif isinstance(u, PiecewiseConstantBv2D):
        for region, val in u.regions:
            yield (_patch_for_region(region, phi),
                   lambda p, _v=val: np.full(np.shape(p)[:-1], _v))
    else:
        raise TypeError(f"unsupported BV function {type(u)!r}")


def _dist_value_1d(field, u, phi, tol, numeric_t):
    lo, hi = phi.support

    if numeric_t:
        def h(x, uv):
            x = np.asarray(x, dtype=float)
            divB = elementwise_t_integral(
                lambda ts: field.div_x(x[..., None], ts), uv,
                kinks=field.t_kinks)
            B = elementwise_t_integral(
                lambda ts: field.eval(x[..., None], ts), uv,
                kinks=field.t_kinks)
            return phi(x) * divB + B * phi.gradient(x)
    else:
        def h(x, uv):
            return (phi(x) * field.div_primitive(x, uv)
                    + field.primitive(x, uv) * phi.gradient(x))

    return -u.integrate_composed(h, lo, hi, tol=tol,
                                 extra_breaks=phi.breakpoints)


def _dist_value_2d(field, u, phi, tol, numeric_t):
    if numeric_t:
        def h(pts, uv):
            pts = np.asarray(pts, dtype=float)
            divB = elementwise_t_integral(
                lambda ts: field.div_x(pts[..., None, :], ts), uv,
                kinks=field.t_kinks)
            B = elementwise_t_integral(
                lambda ts: field.eval(pts[..., None, :], ts), uv,
                kinks=field.t_kinks)
            grad = phi.gradient(pts)
            return (phi(pts) * divB + B[..., 0] * grad[..., 0]
                    + B[..., 1] * grad[..., 1])
    else:
        def h(pts, uv):
            B = np.asarray(field.primitive(pts, uv), dtype=float)
            grad = phi.gradient(pts)
            return (phi(pts) * field.div_primitive(pts, uv)
                    + B[..., 0] * grad[..., 0] + B[..., 1] * grad[..., 1])

    total = 0.0
    for patch, u_of in _patches(u, phi):
        total -= patch.integrate(lambda p: h(p, u_of(p)), tol=tol)
    return total


def pairing_distributional(field: FieldB, u, phi, tol=1e-9,
                           form_check=True):
    """<(b(., u), Du), phi> by the distributional definition.

    Also evaluates the equivalent double-integral form (t-quadrature of b
    and div b instead of the closed-form primitive) and requires agreement
    within 10x the quadrature tolerance.
    """
    if field.dim == 1:
        value = _dist_value_1d(field, u, phi, tol, numeric_t=False)
        if form_check:
            other = _dist_value_1d(field, u, phi, tol, numeric_t=True)
    else:
        value = _dist_value_2d(field, u, phi, tol, numeric_t=False)
        if form_check:
            other = _dist_value_2d(field, u, phi, tol, numeric_t=True)
    if not np.isfinite(value):
        raise NonFiniteValue("distributional pairing is not finite")
    if form_check:
        gap = abs(value - other)
        if gap > 10.0 * tol * (1.0 + abs(value)) + 1e-12:
            raise FormMismatch(
                f"primitive form {value} vs double-integral form {other} "
                f"(gap {gap:.3e})")
    return value


# ---------------------------------------------------------------------------
# Representation route


def _diffuse_normal_1d(u, x):
    """Direction of Du at a diffuse point: sign of the local derivative."""
    if u.cantor is not None:
        ca, cb = u.cantor.ladder.interval
        if ca <= x <= cb:
            d = float(u.ac_derivative(np.array([x]))[0])
            if abs(d) < 1e-14:
                return 1.0 if u.cantor.scale >= 0 else -1.0
    d = float(u.ac_derivative(np.array([x]))[0])
    return float(np.sign(d)) if d != 0.0 else 1.0


def _representation_1d(field, u, tol, genuine_jumps):
    ac_density = None
    bps = ()
    if u.ac is not None:
        def ac_density(x):
            x = np.asarray(x, dtype=float)
            return np.asarray(field.eval(x, u.evaluate(x)), float) \
                * u.ac_derivative(x)
        bps = tuple(u.ac.breaks[1:-1])
    atoms = []
    jump_avgs = {}
    for j in u.jumps:
        avg = jump_theta(field, j.location, j.u_minus, j.u_plus, j.nu,
                         tol=tol, genuine=genuine_jumps)
        jump_avgs[j.location] = avg
        atoms.append((j.location, j.height * avg))
    ladder = None
    scale = 0.0
    ladder_density = None
    if u.cantor is not None:
        ladder = u.cantor.ladder
        scale = u.cantor.scale

        def ladder_density(x):
            x = np.asarray(x, dtype=float)
            return np.asarray(field.eval(x, u.evaluate(x)), float)

    measure = RadonMeasure1D(u.domain, ac_density=ac_density,
                             ac_breakpoints=bps, atoms=tuple(atoms),
                             ladder=ladder, ladder_scale=scale,
                             ladder_density=ladder_density)

    def theta(x):
        if x in jump_avgs:
            return jump_avgs[x]
        j = u.jump_at(x)
        if j is not None:
            return jump_theta(field, j.location, j.u_minus, j.u_plus, j.nu,
                              tol=tol, genuine=genuine_jumps)
        nu = _diffuse_normal_1d(u, x)
        ut = float(u.evaluate(np.array([x]))[0])
        if field.smooth_at(x):
            return float(_fast_q(field, np.array([x]), nu, ut)[0])
        return _required_cyl(field, ut, nu, np.array([x]))

    return PairingMeasure(measure, theta, "representation")


def _representation_2d(field, u, tol):
    if isinstance(u, SmoothRadialBv2D):
        def density(pts):
            pts = np.asarray(pts, dtype=float)
            uv = u.evaluate(pts)
            b = np.asarray(field.eval(pts, uv), float)
            g = u.gradient(pts)
            return b[..., 0] * g[..., 0] + b[..., 1] * g[..., 1]

        patch = DiscPatch(u.center, u.support_radius)
        measure = RadonMeasure2D(u.rect, ac_parts=((patch, density),))

        def theta(x):
            x = np.asarray(x, dtype=float)
            g = u.gradient(x)
            n = np.hypot(g[..., 0], g[..., 1])
            nu = g / np.where(n > 0, n, 1.0)[..., None]
            return float(_fast_q(field, x, nu, u.evaluate(x)))
        return PairingMeasure(measure, theta, "representation")

    if isinstance(u, PiecewiseConstantBv2D):
        def jump_density(normal_at, val):
            # u+ = val, u- = 0 on the interior side of the boundary when
            # val > 0; nu_u is then the interior normal.  The density is the
            # integral of q(b_t, nu_u) over the jump range between 0 and val.
            sgn = 1.0 if val >= 0 else -1.0

            def density(pts):
                pts = np.asarray(pts, dtype=float)
                nu = normal_at(pts) * sgn
                return sgn * elementwise_t_integral(
                    lambda ts: _fast_q(field, pts[..., None, :],
                                       nu[..., None, :], ts),
                    np.full(pts.shape[:-1], val), kinks=field.t_kinks)
            return density

        parts = []
        thetas = []
        for region, val in u.regions:
            if isinstance(region, Disc):
                normal_at = region.interior_normal
                parts.append((region.boundary_curve(),
                              jump_density(normal_at, val)))
                thetas.append((region, val, normal_at))
            else:
                for p0, p1 in region.edges():
                    nu_edge = region.edge_interior_normal(p0, p1)
                    parts.append((Segment(p0, p1), jump_density(
                        lambda pts, _nu=nu_edge: np.broadcast_to(
                            _nu, np.shape(pts)), val)))
                thetas.append((region, val, None))
        measure = RadonMeasure2D(u.rect, surface_parts=tuple(parts))

        def theta(x):
            x = np.asarray(x, dtype=float)
            for region, val, normal_at in thetas:
                if normal_at is not None:
                    nu = normal_at(x)
                else:
                    # nearest polygon edge normal
                    best = None
                    for p0, p1 in region.edges():
                        p0 = np.asarray(p0)
                        p1 = np.asarray(p1)
                        d = p1 - p0
                        s = np.clip(np.dot(x - p0, d) / np.dot(d, d), 0, 1)
                        dist = np.linalg.norm(x - (p0 + s * d))
                        if best is None or dist < best[0]:
                            best = (dist, region.edge_interior_normal(p0, p1))
                    nu = best[1]
                nu = nu * (1.0 if val >= 0 else -1.0)
                lo, hi = (0.0, val) if val >= 0 else (val, 0.0)
                return jump_theta(field, tuple(x), lo, hi, nu, tol=tol,
                                  genuine=field.smooth_at(x))
            raise ValueError("no region")
        return PairingMeasure(measure, theta, "representation")
    raise TypeError(f"unsupported BV function {type(u)!r}")


def pairing_by_representation(field: FieldB, u, tol=1e-9,
                              genuine_jumps=True) -> PairingMeasure:
    """The pairing measure from the cylindrical-average representation.

    AC part density b(x, u(x)) . grad u; jump atoms weighted by the t-mean
    of q(b_t, nu_u); ladder part with density q(b_{u(x)}, nu_u).  Jump
    averages use the genuine double-limit averages at the stored jump
    points (``genuine_jumps=False`` switches to the continuity fast path).
    """
    if field.dim == 1:
        return _representation_1d(field, u, tol, genuine_jumps)
    return _representation_2d(field, u, tol)


# ---------------------------------------------------------------------------
# Trace route


def _trace_jump_avg_1d(field, u, j, tol):
    """Average over (u-, u+) of the trace of b_t on the boundary of {u>t},
    with the boundary point located by the level-set machinery at every
    quadrature node."""
    def integrand(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.empty(ts.shape)
        for i, t in enumerate(ts):
            crossings = u.level_crossings(float(t))
            x, nu = min(crossings, key=lambda c: abs(c[0] - j.location))
            if abs(x - j.location) > 1e-9 or nu != j.nu:
                raise CrossValidationMismatch(
                    f"level set at t={t} does not cross the stored jump "
                    f"at {j.location}")
            out[i] = _fast_q(field, np.array([x]), nu, float(t))[0] \
                if field.smooth_at(x) else _required_cyl(field, float(t),
                                                         nu, x)
        return out

    pad = 1e-9 * j.height
    total = adaptive_simpson(integrand, j.u_minus + pad, j.u_plus - pad,
                             tol=max(tol, 1e-8))
    return total / (j.height - 2.0 * pad)


def pairing_by_traces(field: FieldB, u, tol=1e-9,
                      compare_with=None) -> PairingMeasure:
    """Same measure as pairing_by_representation, built from normal traces
    on level-set boundaries; raises CrossValidationMismatch if the two
    constructions disagree."""
    rep = compare_with if compare_with is not None \
        else pairing_by_representation(field, u, tol=tol)
    if field.dim == 1:
        atoms = []
        for j in u.jumps:
            avg = _trace_jump_avg_1d(field, u, j, tol)
            atoms.append((j.location, j.height * avg))
        measure = replace(rep.measure, atoms=tuple(atoms))
        for (x_t, w_t), (x_r, w_r) in zip(atoms, rep.measure.atoms):
            if abs(w_t - w_r) > 1e-6 * (1.0 + abs(w_r)):
                raise CrossValidationMismatch(
                    f"trace atom {w_t} vs representation atom {w_r} at "
                    f"x={x_t}")
        return PairingMeasure(measure, rep.theta, "traces")
    # 2D catalog scope: single-level indicators and smooth radial profiles,
    # for which the trace form coincides with the representation densities;
    # cross-validate the surface density against genuine traces at samples
    if isinstance(u, PiecewiseConstantBv2D):
        for region, val in u.regions:
            fps = FinitePerimeterSet2D(region)
            lo, hi = (0.0, val) if val >= 0 else (val, 0.0)
            tmid = 0.5 * (lo + hi)
            tr = normal_trace(field, tmid, fps, nsample=8)
            for p, nu, v in zip(tr.points, tr.normals, tr.values):
                want = _fast_q(field, np.asarray(p),
                               np.asarray(nu), tmid)
                if abs(v - float(want)) > 1e-5:
                    raise CrossValidationMismatch(
                        f"trace {v} vs density {float(want)} at {p}")
    return PairingMeasure(rep.measure, rep.theta, "traces")


# ---------------------------------------------------------------------------
# Coarea checks


def _indicator_slice_1d(field, t, intervals, phi, tol):
    """-int_{E_t} [phi div b_t + b_t phi'] dx, clipped to supp phi."""
    lo_s, hi_s = phi.support
    total = 0.0
    for lo, hi in intervals:
        lo = max(lo, lo_s)
        hi = min(hi, hi_s)
        if hi <= lo:
            continue

        def f(x):
            return (phi(x) * np.asarray(field.div_x(x, float(t)), float)
                    + np.asarray(field.eval(x, float(t)), float)
                    * phi.gradient(x))
        total -= adaptive_simpson(f, lo, hi, tol=tol,
                                  breakpoints=phi.breakpoints)
    return total


def _coarea_rhs_2d(field, u, phi, tol, absolute):
    def slice_value(t):
        t = float(t)
        if absolute:
            if isinstance(u, SmoothRadialBv2D):
                r = u.radius_of_level(t)
                circ = Circle(u.center, r)

                def signed(pts):
                    nu = Disc(u.center, r).interior_normal(pts)
                    return _fast_q(field, pts, nu, t)

                circ = replace(circ,
                               param_breaks=_density_sign_breaks(circ, signed))

                def g(pts):
                    nu = Disc(u.center, r).interior_normal(pts)
                    return np.asarray(phi(pts), float) \
                        * np.abs(_fast_q(field, pts, nu, t))
                return circ.integrate(g)
            total = 0.0
            for region, val in u.regions:
                lo, hi = (0.0, val) if val >= 0 else (val, 0.0)
                if not (lo < t < hi):
                    continue
                sgn = 1.0 if val >= 0 else -1.0
                if isinstance(region, Disc):
                    circ = region.boundary_curve()

                    def signed(pts, _r=region):
                        return _fast_q(field, pts,
                                       _r.interior_normal(pts) * sgn, t)

                    circ = replace(circ,
                                   param_breaks=_density_sign_breaks(circ,
                                                                     signed))

                    def g(pts, _r=region):
                        nu = _r.interior_normal(pts) * sgn
                        return np.asarray(phi(pts), float) \
                            * np.abs(_fast_q(field, pts, nu, t))
                    total += circ.integrate(g)
                else:
                    for p0, p1 in region.edges():
                        nu = region.edge_interior_normal(p0, p1) * sgn
                        seg = Segment(p0, p1)

                        def signed(pts, _nu=nu):
                            nub = np.broadcast_to(_nu, np.shape(pts))
                            return _fast_q(field, pts, nub, t)

                        seg = replace(
                            seg,
                            param_breaks=_density_sign_breaks(seg, signed))

                        def g(pts, _nu=nu):
                            nub = np.broadcast_to(_nu, np.shape(pts))
                            return np.asarray(phi(pts), float) \
                                * np.abs(_fast_q(field, pts, nub, t))
                        total += seg.integrate(g)
            return total

        def f(pts):
            grad = phi.gradient(pts)
            b = np.asarray(field.eval(pts, t), float)
            return (np.asarray(phi(pts), float)
                    * np.asarray(field.div_x(pts, t), float)
                    + b[..., 0] * grad[..., 0] + b[..., 1] * grad[..., 1])

        if isinstance(u, SmoothRadialBv2D):
            r = u.radius_of_level(t)
            patch = _patch_for_region(Disc(u.center, r), phi)
            return -patch.integrate(f, tol=tol * 1e-2)
        total = 0.0
        for region, val in u.regions:
            lo, hi = (0.0, val) if val >= 0 else (val, 0.0)
            if not (lo < t < hi):
                continue
            patch = _patch_for_region(region, phi)
            total += -patch.integrate(f, tol=tol * 1e-2) \
                * (1.0 if val >= 0 else -1.0)
        return total

    vmin, vmax = u.value_range()
    t_lo = min(vmin, 0.0)
    t_hi = max(vmax, 0.0)
    breaks = {t_lo, t_hi}
    if isinstance(u, PiecewiseConstantBv2D):
        breaks |= {v for _, v in u.regions}
    pad = 1e-9 * (t_hi - t_lo)
    pts = sorted(breaks)
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        if b - a < 1e-13:
            continue

        def integrand(ts):
            ts = np.atleast_1d(np.asarray(ts, dtype=float))
            return np.array([slice_value(tv) for tv in ts])
        total += adaptive_simpson(integrand, a + pad, b - pad,
                                  tol=max(tol, 1e-8))
    return total


def coarea_pairing_check(field: FieldB, u, phi, tol=1e-9, dist=None):
    """lhs = <(b(., u), Du), phi>; rhs = int_R <(b_t, D chi_{u>t}), phi> dt.

    ``dist``, if given, is pairing_distributional(field, u, phi, tol).
    """
    if dist is None:
        dist = pairing_distributional(field, u, phi, tol=tol)
    lhs = dist
    if field.dim == 1:
        def slice_at(t):
            return _indicator_slice_1d(field, t, u.level_set(t).intervals,
                                       phi, tol=tol * 1e-2)

        def ladder_slice(xs, nu, ts):
            # the boundary (Gauss-Green) form of the slice pairing, exact
            # for the catalog's x-smooth fields
            return np.asarray(phi(xs), dtype=float) \
                * _fast_q(field, xs, nu, ts)

        rhs = _coarea_rhs_1d(u, slice_at, ladder_slice, max(tol, 1e-8))
    else:
        rhs = _coarea_rhs_2d(field, u, phi, tol, absolute=False)
    return lhs, rhs, abs(lhs - rhs)


def coarea_variation_check(field: FieldB, u, phi, tol=1e-9,
                           rep=None):
    """Same identity for the variations |.| of both measures; phi >= 0."""
    if rep is None:
        rep = pairing_by_representation(field, u, tol=tol)
    lhs = rep.measure.variation().integrate(phi, tol=tol)
    if field.dim == 1:
        def slice_at(t):
            return sum(
                float(phi(np.array([x]))[0])
                * abs(float(_fast_q(field, np.array([x]), nu, t)[0]))
                for x, nu in u.level_crossings(t))

        rhs = _coarea_rhs_1d(
            u, slice_at,
            lambda xs, nu, ts: np.asarray(phi(xs), dtype=float)
            * np.abs(_fast_q(field, xs, nu, ts)), max(tol, 1e-8))
    else:
        rhs = _coarea_rhs_2d(field, u, phi, tol, absolute=True)
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Chain rule


def chain_rule_check(field: FieldB, u, phi, tol=1e-10, dist=None):
    """Residual of Div v = (Div_x B)(x, u) L^N + (b(., u), Du) against phi,
    where v(x) = B(x, u(x)).  Each term is integrated independently.

    ``dist``, if given, is pairing_distributional(field, u, phi, tol,
    form_check=False).
    """
    if field.dim == 1:
        lo, hi = phi.support
        div_v = -u.integrate_composed(
            lambda x, uv: np.asarray(field.primitive(x, uv), float)
            * phi.gradient(x), lo, hi, tol=tol,
            extra_breaks=phi.breakpoints)
        ac_term = u.integrate_composed(
            lambda x, uv: phi(x)
            * np.asarray(field.div_primitive(x, uv), float),
            lo, hi, tol=tol, extra_breaks=phi.breakpoints)
    else:
        def hv(pts, uv):
            B = np.asarray(field.primitive(pts, uv), float)
            grad = phi.gradient(pts)
            return B[..., 0] * grad[..., 0] + B[..., 1] * grad[..., 1]

        def ha(pts, uv):
            return phi(pts) * np.asarray(field.div_primitive(pts, uv),
                                         float)
        div_v = 0.0
        ac_term = 0.0
        for patch, u_of in _patches(u, phi):
            div_v -= patch.integrate(lambda p: hv(p, u_of(p)), tol=tol)
            ac_term += patch.integrate(lambda p: ha(p, u_of(p)), tol=tol)
    if dist is None:
        dist = pairing_distributional(field, u, phi, tol=tol,
                                      form_check=False)
    return abs(div_v - ac_term - dist)


# ---------------------------------------------------------------------------
# Lipschitz comparison


def _frozen_pairing(field, u, phi, tau, tol):
    """<(b_tau, Du), phi> for the t-frozen field: primitive is b(x,tau)*s."""
    if field.dim == 1:
        lo, hi = phi.support

        def h(x, uv):
            bt = np.asarray(field.eval(x, float(tau)), float)
            dt = np.asarray(field.div_x(x, float(tau)), float)
            return uv * (phi(x) * dt + bt * phi.gradient(x))
        return -u.integrate_composed(h, lo, hi, tol=tol,
                                     extra_breaks=phi.breakpoints)

    def h(pts, uv):
        bt = np.asarray(field.eval(pts, float(tau)), float)
        dt = np.asarray(field.div_x(pts, float(tau)), float)
        grad = phi.gradient(pts)
        return uv * (phi(pts) * dt + bt[..., 0] * grad[..., 0]
                     + bt[..., 1] * grad[..., 1])
    total = 0.0
    for patch, u_of in _patches(u, phi):
        total -= patch.integrate(lambda p: h(p, u_of(p)), tol=tol)
    return total


def _diffuse_variation_1d(u, window):
    mu = u.gradient_measure()
    dd = replace(mu, atoms=())
    return dd.restrict(window).variation()


def lipschitz_comparison_check(field: FieldB, u, tau, phi, tol=1e-8,
                               dist=None):
    """lhs = |<mu_b, phi> - <mu_{b_tau}, phi>| against the Lipschitz bound
    L ||phi||_inf [ int |u~ - tau| d|D^d u| + sum_jumps int |t - tau| dt ].

    ``dist``, if given, is pairing_distributional(field, u, phi, 1e-10,
    form_check=False).
    """
    tau = float(tau)
    if dist is None:
        dist = pairing_distributional(field, u, phi, tol=1e-10,
                                      form_check=False)
    lhs = abs(dist - _frozen_pairing(field, u, phi, tau, tol=1e-10))

    L = field.lipschitz_t
    if field.dim == 1:
        var = _diffuse_variation_1d(u, phi.support)
        diffuse = var.integrate(
            lambda x: np.abs(u.evaluate(x) - tau), tol=1e-10)
        jump_term = 0.0
        for j in u.jumps:
            if phi.support[0] <= j.location <= phi.support[1]:
                jump_term += _abs_linear_integral(j.u_minus, j.u_plus, tau)
    else:
        if isinstance(u, SmoothRadialBv2D):
            # |u - tau| kinks on the circle where u crosses tau; split the
            # radial quadrature there
            lo_v, hi_v = u.value_range()
            breaks = ()
            if lo_v < tau < hi_v:
                breaks = (u.radius_of_level(tau),)

            def f(pts):
                p = np.asarray(pts, dtype=float)
                r = np.linalg.norm(p - np.asarray(u.center), axis=-1)
                return (np.abs(u.evaluate(p) - tau)
                        * np.abs(u.dprofile(r)))

            diffuse = polar_quad(f, u.center, 0.0, u.support_radius,
                                 r_breaks=breaks, tol=1e-10)
            jump_term = 0.0
        else:
            diffuse = 0.0
            jump_term = 0.0
            for region, val in u.regions:
                lo, hi = (0.0, val) if val >= 0 else (val, 0.0)
                jump_term += region.perimeter() \
                    * _abs_linear_integral(lo, hi, tau)
    rhs_bound = L * phi.sup_norm * (diffuse + jump_term)
    if lhs > rhs_bound + tol:
        raise BoundViolated(
            f"Lipschitz comparison failed: {lhs} > {rhs_bound} + {tol}")
    return lhs, rhs_bound


def _abs_linear_integral(a, b, tau):
    """int_a^b |t - tau| dt in closed form."""
    def F(t):
        return 0.5 * (t - tau) * abs(t - tau)
    return F(b) - F(a)


# ---------------------------------------------------------------------------
# Approximation by smooth fields


def approximation_convergence_check(field: FieldB, u, phi, eps_sequence,
                                    tol=1e-6, dist=None):
    """Gap table |<mu_eps, phi> - <mu, phi>| for mollified fields b_eps.

    ``dist``, if given, is the target pairing_distributional(field, u, phi,
    1e-10, form_check=False).
    """
    if dist is None:
        dist = pairing_distributional(field, u, phi, tol=1e-10,
                                      form_check=False)
    if field.dim == 1:
        window = phi.support
    elif phi.support[0] in ("disc", "annulus"):
        (cx, cy), r = phi.support[1], phi.support[-1]
        window = ((cx - r, cx + r), (cy - r, cy + r))
    else:
        window = (tuple(phi.support[1]), tuple(phi.support[2]))
    table = []
    for eps in eps_sequence:
        bk = mollify(field, eps, window=window)
        val = pairing_distributional(bk, u, phi, tol=1e-9, form_check=False)
        table.append((float(eps), abs(val - dist)))
    if table and table[-1][1] > tol:
        raise NoApparentConvergence(
            f"final mollification gap {table[-1][1]:.3e} above {tol}")
    return table


# ---------------------------------------------------------------------------
# Mass bound over Borel windows


def mass_bound_check(field: FieldB, u, windows, rep=None, slack=1e-9):
    """|mu|(E) <= ||b||_{L_inf(E x [-M, M])} |Du|(E) for each window E."""
    if rep is None:
        rep = pairing_by_representation(field, u, tol=1e-9)
    du = bv_gradient_measure(u)
    M = u.sup_norm()
    windows = list(windows)
    results = []
    for E, mu_E, du_E in zip(windows, rep.measure.variation_masses(windows),
                             du.variation_masses(windows)):
        bound = field.sup_norm(E, (-M, M)) * du_E
        ok = mu_E <= bound + slack * (1.0 + abs(bound))
        results.append({"window": E, "lhs": mu_E, "bound": bound, "ok": ok})
    return results
