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

from .bv import (BvFunction1D, Disc, PiecewiseConstantBv2D, PolygonRegion,
                 SmoothRadialBv2D, _coarea_rhs, _crossing_slices)
from .bv import gradient_measure as bv_gradient_measure
from .errors import (CylAverageDiverged, FormMismatch,
                     CrossValidationMismatch, NonFiniteValue)
from .fields import FieldB, _node_axis, _plus_dot, mollify
from .measures import (DiscPatch, RadonMeasure2D, _integrate_parts,
                       _on_curves, _per_owner)
from .quadrature import (_leggauss, adaptive_simpson, adaptive_simpson_many,
                         aitken, t_integral)

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
    converged: bool
    message: str = ""


@dataclass(frozen=True)
class NormalTrace:
    points: tuple    # sample points on the oriented set
    normals: tuple
    values: tuple    # trace density at the sample points
    converged: bool


@dataclass(frozen=True)
class PairingMeasure:
    measure: object          # RadonMeasure1D or RadonMeasure2D
    theta: object            # density against |Du| on its support

    def integrate(self, phi, tol=1e-9):
        return self.measure.integrate(phi, tol=tol)


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


def _aitken_limit(term, depth, threshold, first):
    """Limit of term(0), term(1), ... by Aitken acceleration of the last
    five terms: (limit, settled).  It settles at i >= first, once two
    successive accelerated values lie within ``threshold``."""
    raw = []
    prev = None
    for i in range(depth):
        raw.append(term(i))
        ext = aitken(raw[-5:])
        if prev is not None and abs(ext - prev) <= threshold and i >= first:
            return ext, True
        prev = ext
    return prev, False


def cylindrical_average(field: FieldB, t, nu, x,
                        threshold=1e-7) -> CylAverage:
    """Double-limit average of b_t . nu over shrinking cylinders at x.

    The inner radius r shrinks first at fixed rho, then rho shrinks; both
    run over the geometric sequences 0.25 * 0.5**i, i < 24, with Aitken
    acceleration of the last five terms only: the first cylinders may
    still contain a singular point of the field, and their terms would
    bias the limit.
    """
    depth = 24
    if field.dim == 1:
        x = float(np.asarray(x).reshape(()))
        value, settled = _aitken_limit(
            lambda i: _interval_average(field, t, x, 0.25 * 0.5 ** i),
            depth, threshold, 3)
        return CylAverage(value * float(nu), settled,
                          "" if settled else
                          "inner limit did not settle within depth")

    x = np.asarray(x, dtype=float).reshape(2)

    def inner(j):
        rho = 0.25 * 0.5 ** j
        return _aitken_limit(
            lambda i: _cylinder_average(field, t, nu, x, 0.25 * 0.5 ** i, rho),
            depth, 0.1 * threshold, 3)[0]

    value, settled = _aitken_limit(inner, depth, threshold, 2)
    return CylAverage(value, settled,
                      "" if settled else
                      "outer limit did not settle within depth")


def _required_cyl(field, t, nu, x):
    """cylindrical_average at threshold 1e-10; CylAverageDiverged if it
    does not settle."""
    res = cylindrical_average(field, t, nu, x, threshold=1e-10)
    if not res.converged:
        raise CylAverageDiverged(
            f"average at x={x}, t={t} did not converge: {res.message}")
    return res.value


def jump_theta(field: FieldB, x0, u_minus, u_plus, nu):
    """The averaged density over a jump: mean of q(b_t, nu)(x0) on (u-, u+),
    the double-limit cylindrical average at every level.

    By convention the average over an empty range (u+ = u-) is the value at
    that single level.
    """
    if u_plus == u_minus:
        return _required_cyl(field, u_minus, nu, x0)

    def integrand(ts):
        return np.array([_required_cyl(field, t, nu, x0)
                         for t in np.atleast_1d(ts).tolist()])

    total = adaptive_simpson(integrand, u_minus, u_plus, tol=1e-9,
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


def _q_1d(field, x, nu, ts):
    """q(b_t, nu)(x) at the levels ts and a 1D point x: b(x, t) nu where
    the field is smooth at x, the double-limit cylindrical average where
    it is not."""
    if field.smooth_at(x):
        return _fast_q(field, np.full(ts.shape, x), nu, ts)
    return np.array([_required_cyl(field, t, nu, x) for t in ts.tolist()])


# ---------------------------------------------------------------------------
# Normal traces


def normal_trace(field: FieldB, t, region, nsample=24) -> NormalTrace:
    """Trace of the normal component of b_t on the boundary of a region.

    ``region`` is a Disc or PolygonRegion; each of its boundary curves gets
    max(2, nsample // curves) sample points.  Traces are double-limit
    cylindrical averages taken with the interior normal.
    """
    if not isinstance(region, (Disc, PolygonRegion)):
        raise TypeError(f"unsupported boundary {type(region)!r}")
    curves = region.boundary()
    pts, nus, vals, converged = [], [], [], True
    for curve in curves:
        ps, _ = curve.sample(max(2, nsample // len(curves)))
        for p, nu in zip(ps, curve.interior_normal(ps)):
            res = cylindrical_average(field, t, nu, p)
            pts.append(tuple(p))
            nus.append(tuple(nu))
            vals.append(res.value)
            converged = converged and res.converged
    return NormalTrace(tuple(pts), tuple(nus), tuple(vals), converged)


# ---------------------------------------------------------------------------
# Distributional route


def _composed_integral(u, phi, hs, tol):
    """[int h(x, u(x), phi(x), grad phi(x)) dx over the support of phi for
    h in hs], a 1D u in one walk for the whole stack.

    A 2D u is integrated over the patches of its regions (the support disc
    of a smooth radial u), every (integrand, region) pair of the stack in
    one batched call: outside them u = 0, and every integrand built on the
    primitive B(x, 0) = 0 vanishes there.
    """
    share = lambda x: (phi(x), phi.gradient(x))
    if isinstance(u, BvFunction1D):
        return u.integrate_composed(hs, *phi.support, tol=tol,
                                    extra_breaks=phi.breakpoints,
                                    share=share)
    if isinstance(u, SmoothRadialBv2D):
        parts = ((Disc(u.center, u.support_radius), u.evaluate),)
    else:
        parts = tuple((region, lambda p, _v=val: np.full(np.shape(p)[:-1], _v))
                      for region, val in u.regions)
    vals = _integrate_parts(
        _per_owner([lambda p, h=h, u_of=u_of: h(p, u_of(p), *share(p))
                    for h in hs for _, u_of in parts]),
        [region.patch(phi) for region, _ in parts] * len(hs), tol).tolist()
    return [sum(vals[i:i + len(parts)])
            for i in range(0, len(vals), len(parts))]


def _dist_values(field, u, phi, tol, form_check):
    """<(b(., u), Du), phi> = -int [phi Div_x B + B . grad phi](x, u(x)) dx,
    with B by its closed form and, if ``form_check``, also by t-quadrature
    of b: one value per form, from one walk."""
    dim = field.dim

    def closed(x, uv, f, grad):
        return _plus_dot(dim, f * field.div_primitive(x, uv),
                         np.asarray(field.primitive(x, uv), dtype=float),
                         grad)

    def integrand(ts, x, f, grad):
        x = _node_axis(x, dim)
        return _plus_dot(dim, f[..., None] * field.div_x(x, ts),
                         np.asarray(field.eval(x, ts), dtype=float),
                         _node_axis(grad, dim))

    def numeric(x, uv, f, grad):
        return t_integral(integrand, 0.0, uv, x, f, grad,
                          kinks=field.t_kinks)

    forms = (closed, numeric) if form_check else (closed,)
    # 0.0 - I, not -I: an exactly cancelling I gives +0.0, never -0.0
    return [0.0 - v for v in _composed_integral(u, phi, forms, tol)]


def pairing_distributional(field: FieldB, u, phi, tol=1e-9,
                           form_check=True):
    """<(b(., u), Du), phi> by the distributional definition.

    With ``form_check``, also evaluates the equivalent double-integral form
    (t-quadrature of b and div b instead of the closed-form primitive), in
    the same walk, and raises FormMismatch unless the two agree within 10x
    the quadrature tolerance.  The value is the closed form's either way.
    This self-check is for library callers: the scenario checks pass
    form_check=False, and chain_rule_check compares this B-built value
    with the b-built representation instead.
    """
    value, *other = _dist_values(field, u, phi, tol, form_check)
    if not np.isfinite(value):
        raise NonFiniteValue("distributional pairing is not finite")
    if other:
        gap = abs(value - other[0])
        if gap > 10.0 * tol * (1.0 + abs(value)) + 1e-12:
            raise FormMismatch(
                f"primitive form {value} vs double-integral form {other[0]} "
                f"(gap {gap:.3e})")
    return value


# ---------------------------------------------------------------------------
# Representation route


def _diffuse_normal_1d(u, x):
    """Direction of Du at a diffuse point: sign of the local derivative,
    that of the Cantor part where u' vanishes on its carrier."""
    d = float(u.ac_derivative(np.array([x]))[0])
    if u.cantor is not None and abs(d) < 1e-14:
        ca, cb = u.cantor.ladder.interval
        if ca <= x <= cb:
            return 1.0 if u.cantor.scale >= 0 else -1.0
    return float(np.sign(d)) if d != 0.0 else 1.0


def _representation_1d(field, u):
    """Du with each part reweighted by q(b, nu_u): b(x, u(x)) on the ac and
    ladder parts, the jump average jump_theta on each atom."""
    du = u.gradient_measure()
    jump_avgs = {j.location: jump_theta(field, j.location, j.u_minus,
                                        j.u_plus, j.nu) for j in u.jumps}

    def b_of_u(x):
        return np.asarray(field.eval(x, u.evaluate(x)), float)

    ac = du.ac_density
    measure = replace(
        du, atoms=tuple((j.location, j.height * jump_avgs[j.location])
                        for j in u.jumps),
        ac_density=None if ac is None else (lambda x: b_of_u(x) * ac(x)),
        ladder_density=None if du.ladder is None else b_of_u)

    def theta(x):
        j = u.jump_at(x)
        if j is not None:
            return jump_avgs[j.location]
        ut = float(u.evaluate(np.array([x]))[0])
        return float(_q_1d(field, x, _diffuse_normal_1d(u, x),
                           np.array([ut]))[0])

    return PairingMeasure(measure, theta)


def _representation_2d(field, u):
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
        return PairingMeasure(measure, theta)

    if isinstance(u, PiecewiseConstantBv2D):
        def jump_density(curve, val):
            # u+ = val, u- = 0 on the interior side of the boundary when
            # val > 0; nu_u is then the interior normal.  The density is the
            # integral of q(b_t, nu_u) over the jump range between 0 and val.
            sgn = 1.0 if val >= 0 else -1.0

            def density(pts):
                pts = np.asarray(pts, dtype=float)
                nu = curve.interior_normal(pts) * sgn
                return sgn * t_integral(
                    lambda ts, p, n: _fast_q(field, p[..., None, :],
                                             n[..., None, :], ts),
                    0.0, np.full(pts.shape[:-1], val), pts, nu,
                    kinks=field.t_kinks)
            return density

        parts = tuple((curve, jump_density(curve, val))
                      for region, val in u.regions
                      for curve in region.boundary())
        measure = RadonMeasure2D(u.rect, surface_parts=parts)

        def theta(x):
            # the jump density of the region whose boundary is nearest to x
            x = np.asarray(x, dtype=float)
            region, val = min(u.regions,
                              key=lambda rv: rv[0].boundary_distance(x))
            nu = region.interior_normal(x) * (1.0 if val >= 0 else -1.0)
            lo, hi = (0.0, val) if val >= 0 else (val, 0.0)
            return jump_theta(field, tuple(x), lo, hi, nu)
        return PairingMeasure(measure, theta)
    raise TypeError(f"unsupported BV function {type(u)!r}")


def pairing_by_representation(field: FieldB, u) -> PairingMeasure:
    """The pairing measure from the cylindrical-average representation.

    AC part density b(x, u(x)) . grad u; jump atoms weighted by the t-mean
    of q(b_t, nu_u); ladder part with density q(b_{u(x)}, nu_u).  Every jump
    average is the double-limit cylindrical average at the stored jump
    point, at every level of its range.
    """
    if field.dim == 1:
        return _representation_1d(field, u)
    return _representation_2d(field, u)


# ---------------------------------------------------------------------------
# Trace route


def _trace_jump_avg_1d(field, u, j):
    """Average over (u-, u+) of the trace of b_t on the boundary of {u>t},
    with the boundary point located by the level-set machinery at every
    quadrature node."""
    def integrand(ts):
        owner, xs, nus = u.level_crossings_many(ts)
        hit = np.zeros(ts.shape, dtype=bool)
        hit[owner[(np.abs(xs - j.location) <= 1e-9) & (nus == j.nu)]] = True
        if not hit.all():
            raise CrossValidationMismatch(
                f"level set at t={ts[np.argmin(hit)]} does not cross the "
                f"stored jump at {j.location}")
        return _q_1d(field, j.location, j.nu, ts)

    pad = 1e-9 * j.height
    total = adaptive_simpson(integrand, j.u_minus + pad, j.u_plus - pad,
                             tol=1e-8)
    return total / (j.height - 2.0 * pad)


def pairing_by_traces(field: FieldB, u, rep) -> PairingMeasure:
    """Same measure as pairing_by_representation, built from normal traces
    on level-set boundaries; raises CrossValidationMismatch if it
    disagrees with ``rep``, which is pairing_by_representation(field, u)."""
    if field.dim == 1:
        atoms = []
        for j in u.jumps:
            avg = _trace_jump_avg_1d(field, u, j)
            atoms.append((j.location, j.height * avg))
        measure = replace(rep.measure, atoms=tuple(atoms))
        for (x_t, w_t), (x_r, w_r) in zip(atoms, rep.measure.atoms):
            if abs(w_t - w_r) > 1e-6 * (1.0 + abs(w_r)):
                raise CrossValidationMismatch(
                    f"trace atom {w_t} vs representation atom {w_r} at "
                    f"x={x_t}")
        return PairingMeasure(measure, rep.theta)
    # 2D catalog scope: single-level indicators and smooth radial profiles,
    # for which the trace form coincides with the representation densities;
    # cross-validate the surface density against cylindrical-average
    # traces at samples
    if isinstance(u, PiecewiseConstantBv2D):
        for region, val in u.regions:
            tmid = 0.5 * val
            tr = normal_trace(field, tmid, region, nsample=8)
            for p, nu, v in zip(tr.points, tr.normals, tr.values):
                want = _fast_q(field, np.asarray(p),
                               np.asarray(nu), tmid)
                if abs(v - float(want)) > 1e-5:
                    raise CrossValidationMismatch(
                        f"trace {v} vs density {float(want)} at {p}")
    return PairingMeasure(rep.measure, rep.theta)


# ---------------------------------------------------------------------------
# Coarea checks


def _level_parts(u, ts, parts_of):
    """(level, sign, parts): every part of parts_of(region) for every region
    of {u > t}, signed, for every level t of ts, with the level's index."""
    parts = [(i, sgn, part)
             for i, regions in enumerate(u.level_regions_many(ts))
             for region, sgn in regions for part in parts_of(region)]
    return (np.array([i for i, _, _ in parts], dtype=int),
            np.array([sgn for _, sgn, _ in parts]), [p for *_, p in parts])


def coarea_pairing_check(field: FieldB, u, phi, dist):
    """lhs = <(b(., u), Du), phi>; rhs = int_R <(b_t, D chi_{u>t}), phi> dt.

    ``dist`` is the lhs, pairing_distributional(field, u, phi, 1e-10,
    form_check=False): ResolvedScenario.distributional().
    """
    lhs = dist

    def integrand(x, t):
        # phi div b_t + b_t . grad phi
        return _plus_dot(field.dim, np.asarray(phi(x), float)
                         * np.asarray(field.div_x(x, t), float),
                         np.asarray(field.eval(x, t), float),
                         phi.gradient(x))

    def ladder_slice(xs, nu, ts):
        # the boundary (Gauss-Green) form of the slice pairing, exact for
        # the catalog's x-smooth fields
        return np.asarray(phi(xs), dtype=float) * _fast_q(field, xs, nu, ts)

    if isinstance(u, BvFunction1D):
        def slices(ts):
            # -int_{u > t} integrand dx, every region of every level in
            # one adaptive_simpson_many
            owner, lo, hi = u.level_intervals(ts)
            vals = adaptive_simpson_many(
                lambda x, k: integrand(x, ts[owner[k]]),
                np.maximum(lo, phi.support[0]), np.minimum(hi, phi.support[1]),
                tol=1e-11, breakpoints=phi.breakpoints)
            out = np.zeros(ts.shape)
            np.add.at(out, owner, vals)
            return 0.0 - out
    else:
        def slices(ts):
            # the same, the patches of every region of every level in one
            # batched planar driver
            level, sgn, patches = _level_parts(
                u, ts, lambda region: (region.patch(phi),))
            vals = _integrate_parts(lambda x, k: integrand(x, ts[level[k]]),
                                    patches, 1e-11)
            out = np.zeros(ts.shape)
            np.add.at(out, level, sgn * vals)
            return 0.0 - out

    rhs = _coarea_rhs(u, slices, ladder_slice, 1e-8)
    return lhs, rhs, abs(lhs - rhs)


def coarea_variation_check(field: FieldB, u, phi, rep):
    """Same identity for the variations |.| of both measures; phi >= 0.

    ``rep`` is pairing_by_representation(field, u).
    """
    lhs = rep.measure.variation().integrate(phi, tol=1e-9)

    def boundary(xs, nu, ts):
        return np.asarray(phi(xs), dtype=float) \
            * np.abs(_fast_q(field, xs, nu, ts))

    if isinstance(u, BvFunction1D):
        slices = _crossing_slices(u, boundary)
    else:
        def slices(ts):
            # the boundary curves of every region of every level in one
            # batched line integral
            level, sgn, curves = _level_parts(u, ts, lambda r: r.boundary())
            normal = _on_curves(curves)

            def q(pts, k):
                return _fast_q(field, pts, normal(pts, k) * sgn[k][..., None],
                               ts[level[k]])

            vals = _integrate_parts(
                lambda pts, k: np.asarray(phi(pts), float) * np.abs(q(pts, k)),
                curves, 1e-10)
            out = np.zeros(ts.shape)
            np.add.at(out, level, vals)
            return out

    rhs = _coarea_rhs(u, slices, boundary, 1e-8)
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Chain rule


def chain_rule_check(phi, dist, rep):
    """(lhs, rhs, residual) of the chain rule Div v = (Div_x B)(x, u) L^N
    + (b(., u), Du) against phi, where v(x) = B(x, u(x)).

    lhs = -int B(x, u) . grad phi - int phi Div_x B(x, u) is ``dist``,
    built from the primitive B: ResolvedScenario.distributional(), at tol
    1e-10.  rhs = <mu, phi>, mu the measure of ``rep``, is built from b
    and its cylindrical averages, never from B, so a primitive or
    divergence that does not match b leaves a residual.  two_route
    compares the same two quantities, at a relative tolerance (1e-6 in
    the catalog) where chain_rule has an absolute one (1e-8).
    """
    rhs = rep.integrate(phi, tol=1e-10)
    return dist, rhs, abs(dist - rhs)


# ---------------------------------------------------------------------------
# Lipschitz comparison


def _frozen_pairings(field, u, phi, taus, tol):
    """[<(b_tau, Du), phi> for tau in taus], b_tau the t-frozen field, from
    one walk: the primitive of b_tau is b(x, tau) s."""
    hs = [lambda x, uv, f, grad, _t=tau: uv * _plus_dot(
        field.dim, f * np.asarray(field.div_x(x, _t), float),
        np.asarray(field.eval(x, _t), float), grad) for tau in taus]
    return [0.0 - v for v in _composed_integral(u, phi, hs, tol)]


def _diffuse_variation_1d(u, window):
    mu = u.gradient_measure()
    dd = replace(mu, atoms=())
    return dd.variation().restrict(window)


def lipschitz_comparison_check(field: FieldB, u, taus, phi, dist):
    """[(lhs, rhs), ...] per tau of taus: lhs = |<mu_b, phi> - <mu_{b_tau},
    phi>| against the Lipschitz bound rhs = L ||phi||_inf [ int |u~ - tau|
    d|D^d u| + sum_jumps int |t - tau| dt ].  The pairings of every b_tau
    come from one walk.

    ``dist`` is <mu_b, phi>, pairing_distributional(field, u, phi, 1e-10,
    form_check=False): ResolvedScenario.distributional().
    """
    taus = [float(tau) for tau in taus]
    return [(abs(dist - frozen), bound) for frozen, bound in zip(
        _frozen_pairings(field, u, phi, taus, tol=1e-10),
        _lipschitz_bounds(field, u, taus, phi))]


def _lipschitz_bounds(field, u, taus, phi):
    """The rhs of lipschitz_comparison_check at each tau of taus."""
    if field.dim == 1:
        var = _diffuse_variation_1d(u, phi.support)
        diffuse = [var.integrate(lambda x: np.abs(u.evaluate(x) - tau),
                                 tol=1e-10) for tau in taus]
        ranges = [(1.0, j.u_minus, j.u_plus) for j in u.jumps
                  if phi.support[0] <= j.location <= phi.support[1]]
    elif isinstance(u, SmoothRadialBv2D):
        # |u - tau| kinks on the circle where u crosses tau; split the
        # radial quadrature there.  Each tau owns its disc of one call.
        lo_v, hi_v = u.value_range()
        tau = np.array(taus)

        def f(p, k):
            r = np.linalg.norm(p - np.asarray(u.center), axis=-1)
            return np.abs(u.evaluate(p) - tau[k]) * np.abs(u.dprofile(r))

        diffuse = _integrate_parts(f, [DiscPatch(
            u.center, u.support_radius, 0.0,
            (u.radius_of_level(t),) if lo_v < t < hi_v else ())
            for t in taus], 1e-10).tolist()
        ranges = []
    else:
        diffuse = [0.0] * len(taus)
        ranges = [(region.perimeter(), *sorted((0.0, val)))
                  for region, val in u.regions]
    # int |t - tau| dt over each jump range (lo, hi), times its weight w
    return [field.lipschitz_t * phi.sup_norm * (d + sum(
        (w * _abs_linear_integral(lo, hi, tau) for w, lo, hi in ranges), 0.0))
        for tau, d in zip(taus, diffuse)]


def _abs_linear_integral(a, b, tau):
    """int_a^b |t - tau| dt in closed form."""
    def F(t):
        return 0.5 * (t - tau) * abs(t - tau)
    return F(b) - F(a)


# ---------------------------------------------------------------------------
# Approximation by smooth fields


def approximation_convergence_check(field: FieldB, u, phi, eps_sequence,
                                    dist):
    """Gap table |<mu_eps, phi> - <mu, phi>| for mollified fields b_eps.

    ``dist`` is the target <mu, phi>, pairing_distributional(field, u, phi,
    1e-10, form_check=False): ResolvedScenario.distributional().
    """
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
    return table


# ---------------------------------------------------------------------------
# Mass bound over Borel windows


def mass_bound_check(field: FieldB, u, windows, rep):
    """|mu|(E) against ||b||_{L_inf(E x [-M, M])} |Du|(E) for each window E,
    mu the measure of ``rep``, pairing_by_representation(field, u).

    Each window's ``excess`` is (lhs - bound) / (1 + |bound|): the bound
    holds to a relative tolerance tol when excess <= tol.
    """
    du = bv_gradient_measure(u)
    M = u.sup_norm()
    windows = list(windows)
    results = []
    for E, mu_E, du_E in zip(windows, rep.measure.variation_masses(windows),
                             du.variation_masses(windows)):
        bound = field.sup_norm(E, (-M, M)) * du_E
        results.append({"window": E, "lhs": mu_E, "bound": bound,
                        "excess": (mu_E - bound) / (1.0 + abs(bound))})
    return results
