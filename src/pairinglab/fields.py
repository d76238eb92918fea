"""t-dependent vector fields with exact primitives and divergences.

A field carries b(x, t) together with its x-divergence, the t-primitive
B(x, t) = int_0^t b(x, s) ds and Div_x B, all as closed-form vectorized
callables.  ``make_field`` cross-checks these against finite differences
so a wrong formula fails loudly at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import AssumptionViolation, WindowTooLarge
from .quadrature import _leggauss

__all__ = [
    "FieldB",
    "make_field",
    "field_catalog",
    "truncate",
    "mollify",
    "sigma_k",
]

_SUP_BLOCK = 8192   # (x, t) sample points per magnitude call in sup_norm


# The point convention: a 1D point is a scalar, a 2D point the trailing (2,)
# axis of an array; values of b and B are shaped like points.


def _norm(v, dim):
    """|v| of values or vectors at points."""
    return np.abs(v) if dim == 1 else np.hypot(v[..., 0], v[..., 1])


def _node_axis(x, dim):
    """Points x with a new axis (for t- or kernel nodes) after their shape."""
    return x[..., None] if dim == 1 else x[..., None, :]


def _broadcast(x, t, dim):
    """(x, t) broadcast to their common shape of points."""
    if dim == 1:
        return np.broadcast_arrays(x, t)
    shape = np.broadcast_shapes(np.shape(x)[:-1], np.shape(t))
    return np.broadcast_to(x, shape + (2,)), np.broadcast_to(t, shape)


def _plus_dot(dim, acc, b, g):
    """acc + b . g, summed left to right."""
    if dim == 1:
        return acc + b * g
    return acc + b[..., 0] * g[..., 0] + b[..., 1] * g[..., 1]


@dataclass(frozen=True)
class FieldB:
    """A field b(x, t) with its structural data.

    1D evaluators map (x, t) arrays to scalars of the broadcast shape; 2D
    evaluators take points of shape (..., 2) and return vectors (..., 2)
    for b and B, scalars for the divergences.
    """

    name: str
    dim: int
    eval: object            # b(x, t)
    div_x: object           # pointwise x-divergence of b(., t)
    primitive: object       # B(x, t)
    div_primitive: object   # Div_x B(x, t)
    sigma: object           # local bound: |b(x, t)| <= sigma(x) on t_range
    lipschitz_t: float      # uniform Lipschitz constant of t -> b(x, t)
    t_range: tuple = (-4.0, 4.0)
    singular_points: tuple = ()
    reference_box: object = None
    t_kinks: tuple = ()  # t-values where b(x, .) is only Lipschitz

    def smooth_at(self, x):
        """False within 1e-6 of a singular point."""
        x = np.asarray(x, dtype=float)
        return not any(
            np.any(_norm(x - np.asarray(p, dtype=float), self.dim) < 1e-6)
            for p in self.singular_points)

    def magnitude(self, x, t):
        return _norm(np.asarray(self.eval(x, t), dtype=float), self.dim)

    def sup_norm(self, box, trange=None, n=161, nt=81):
        """Sampled sup of |b| over box x trange (box=(a,b) or ((x0,x1),(y0,y1))).

        A field with lipschitz_t == 0 does not depend on t (make_field checks
        the declared constant), so it is sampled at the single t = trange[0].
        """
        t0, t1 = trange if trange is not None else self.t_range
        ts = np.linspace(t0, t1, 1 if self.lipschitz_t == 0 else nt)
        if self.dim == 1:
            xs = np.linspace(box[0], box[1], n)
        else:
            (x0, x1), (y0, y1) = box
            gx = np.linspace(x0, x1, n)
            gy = np.linspace(y0, y1, n)
            xs = np.stack(np.meshgrid(gx, gy, indexing="ij"),
                          axis=-1).reshape(-1, 2)
        # the (x, t) sample in blocks of at most _SUP_BLOCK points, so that
        # a mollified field, which spreads each point over its kernel
        # nodes, never needs the whole sample times the nodes at once
        tb = min(len(ts), _SUP_BLOCK)
        xb = _SUP_BLOCK // tb
        maxima = [np.max(self.magnitude(xs[i:i + xb, None],
                                        ts[None, j:j + tb]))
                  for i in range(0, len(xs), xb)
                  for j in range(0, len(ts), tb)]
        return float(np.max(maxima))


# ---------------------------------------------------------------------------
# Construction-time consistency checks


def _sample_points(dim, box, rng):
    if dim == 1:
        return rng.uniform(box[0], box[1], size=40)
    (x0, x1), (y0, y1) = box
    pts = np.stack([rng.uniform(x0, x1, 40), rng.uniform(y0, y1, 40)], axis=-1)
    return pts


def _check_field(f: FieldB, box):
    rng = np.random.default_rng(7)
    xs = _sample_points(f.dim, box, rng)
    # keep probe points away from declared singularities
    for p in f.singular_points:
        xs = xs[_norm(xs - np.asarray(p, dtype=float), f.dim) > 0.2]
    t0, t1 = f.t_range
    ts = rng.uniform(t0 + 0.1, t1 - 0.1, size=xs.shape[0])
    h = 1e-5

    # dB/dt = b
    dB = (np.asarray(f.primitive(xs, ts + h), float)
          - np.asarray(f.primitive(xs, ts - h), float)) / (2 * h)
    bv = np.asarray(f.eval(xs, ts), float)
    if not np.max(np.abs(dB - bv)) <= 1e-7 * (1.0 + np.max(np.abs(bv))):
        raise AssumptionViolation(
            "primitive", f"{f.name}: dB/dt does not match b")

    # B(x, 0) = 0
    B0 = np.asarray(f.primitive(xs, np.zeros_like(ts)), float)
    if not np.max(np.abs(B0)) <= 1e-10:
        raise AssumptionViolation(
            "primitive", f"{f.name}: B(x, 0) is not zero")

    # divergence formulas against central differences
    def num_div(g):
        if f.dim == 1:
            return (np.asarray(g(xs + h, ts), float)
                    - np.asarray(g(xs - h, ts), float)) / (2 * h)
        ex = np.array([h, 0.0])
        ey = np.array([0.0, h])
        gxp = np.asarray(g(xs + ex, ts), float)
        gxm = np.asarray(g(xs - ex, ts), float)
        gyp = np.asarray(g(xs + ey, ts), float)
        gym = np.asarray(g(xs - ey, ts), float)
        return ((gxp[..., 0] - gxm[..., 0])
                + (gyp[..., 1] - gym[..., 1])) / (2 * h)

    for formula, target, clause in (
            (f.div_x, f.eval, "divergence"),
            (f.div_primitive, f.primitive, "divergence of primitive")):
        got = np.asarray(formula(xs, ts), float)
        want = num_div(target)
        scale = 1.0 + np.max(np.abs(want))
        if not np.max(np.abs(got - want)) <= 1e-5 * scale:
            raise AssumptionViolation(
                clause, f"{f.name}: closed form disagrees with finite "
                        f"differences")

    # |b(x, t)| <= sigma(x) on the declared t-range
    xrep = _node_axis(xs, f.dim)
    mags = f.magnitude(xrep, np.linspace(t0, t1, 33)[None, :])
    sig = np.asarray(f.sigma(xs), float)
    if not np.all(mags <= sig[:, None] * (1 + 1e-9) + 1e-12):
        raise AssumptionViolation(
            "local bound", f"{f.name}: |b| exceeds sigma on the t-range")

    # Lipschitz continuity in t
    t_a = rng.uniform(t0, t1, size=(xs.shape[0], 16))
    t_b = rng.uniform(t0, t1, size=(xs.shape[0], 16))
    diff = _norm(np.asarray(f.eval(xrep, t_a), float)
                 - np.asarray(f.eval(xrep, t_b), float), f.dim)
    gap = np.abs(t_a - t_b)
    if not np.all(diff <= f.lipschitz_t * gap * (1 + 1e-9) + 1e-12):
        raise AssumptionViolation(
            "lipschitz", f"{f.name}: declared Lipschitz constant too small")
    return f


def make_field(**kwargs) -> FieldB:
    """FieldB(**kwargs), checked for consistency on [-2, 2]^dim, which is
    also its reference_box unless one is given."""
    f = FieldB(**kwargs)
    box = (-2.0, 2.0) if f.dim == 1 else ((-2.0, 2.0), (-2.0, 2.0))
    if f.reference_box is None:
        f = replace(f, reference_box=box)
    # the probe's gates are written to fail on NaN, so a non-finite field
    # makes NaN arithmetic there that needs no warning of its own
    with np.errstate(invalid="ignore", over="ignore"):
        return _check_field(f, box)


# ---------------------------------------------------------------------------
# Catalog


def _const1d(c):
    c = float(c)
    return make_field(
        name=f"const({c})", dim=1,
        eval=lambda x, t: np.broadcast_to(c, np.broadcast_shapes(
            np.shape(x), np.shape(t))).copy(),
        div_x=lambda x, t: np.zeros(np.broadcast_shapes(
            np.shape(x), np.shape(t))),
        primitive=lambda x, t: c * np.asarray(t, float)
        + np.zeros(np.shape(x)),
        div_primitive=lambda x, t: np.zeros(np.broadcast_shapes(
            np.shape(x), np.shape(t))),
        sigma=lambda x: np.full(np.shape(x), abs(c)),
        lipschitz_t=0.0)


def _gt1d():
    # b(t) = 1 + 0.5 sin t, divergence free
    return make_field(
        name="gt", dim=1,
        eval=lambda x, t: (1.0 + 0.5 * np.sin(np.asarray(t, float)))
        + np.zeros(np.shape(x)),
        div_x=lambda x, t: np.zeros(np.broadcast_shapes(
            np.shape(x), np.shape(t))),
        primitive=lambda x, t: (np.asarray(t, float)
                                - 0.5 * np.cos(np.asarray(t, float)) + 0.5)
        + np.zeros(np.shape(x)),
        div_primitive=lambda x, t: np.zeros(np.broadcast_shapes(
            np.shape(x), np.shape(t))),
        sigma=lambda x: np.full(np.shape(x), 1.5),
        lipschitz_t=0.5)


def _xt1d():
    return make_field(
        name="xt", dim=1,
        eval=lambda x, t: np.asarray(x, float) * np.asarray(t, float),
        div_x=lambda x, t: np.asarray(t, float) + np.zeros(np.shape(x)),
        primitive=lambda x, t: 0.5 * np.asarray(x, float)
        * np.asarray(t, float) ** 2,
        div_primitive=lambda x, t: 0.5 * np.asarray(t, float) ** 2
        + np.zeros(np.shape(x)),
        sigma=lambda x: 4.0 * np.abs(np.asarray(x, float)),
        lipschitz_t=2.0)


def _sep1d():
    # b(x, t) = sin(x) (1 + 0.5 t)
    return make_field(
        name="sep", dim=1,
        eval=lambda x, t: np.sin(np.asarray(x, float))
        * (1.0 + 0.5 * np.asarray(t, float)),
        div_x=lambda x, t: np.cos(np.asarray(x, float))
        * (1.0 + 0.5 * np.asarray(t, float)),
        primitive=lambda x, t: np.sin(np.asarray(x, float))
        * (np.asarray(t, float) + 0.25 * np.asarray(t, float) ** 2),
        div_primitive=lambda x, t: np.cos(np.asarray(x, float))
        * (np.asarray(t, float) + 0.25 * np.asarray(t, float) ** 2),
        sigma=lambda x: 3.0 * np.abs(np.sin(np.asarray(x, float))),
        lipschitz_t=0.5)


def _tanh1d(delta=0.05):
    d = float(delta)
    return make_field(
        name=f"tanh({d})", dim=1,
        eval=lambda x, t: np.tanh(np.asarray(x, float) / d)
        + 0.0 * np.asarray(t, float),
        div_x=lambda x, t: (1.0 / d) / np.cosh(np.asarray(x, float) / d) ** 2
        + 0.0 * np.asarray(t, float),
        primitive=lambda x, t: np.tanh(np.asarray(x, float) / d)
        * np.asarray(t, float),
        div_primitive=lambda x, t: (np.asarray(t, float) / d)
        / np.cosh(np.asarray(x, float) / d) ** 2,
        sigma=lambda x: np.ones(np.shape(x)),
        lipschitz_t=0.0)


def _const2d(vx, vy):
    v = np.array([float(vx), float(vy)])
    mag = float(np.hypot(*v))

    def ev(p, t):
        shape = np.broadcast_shapes(np.shape(p)[:-1], np.shape(t))
        return np.broadcast_to(v, shape + (2,)).copy()

    return make_field(
        name=f"const2d({vx},{vy})", dim=2,
        eval=ev,
        div_x=lambda p, t: np.zeros(np.broadcast_shapes(
            np.shape(p)[:-1], np.shape(t))),
        primitive=lambda p, t: np.asarray(t, float)[..., None] * v
        + np.zeros(np.shape(p)[:-1] + (2,)),
        div_primitive=lambda p, t: np.zeros(np.broadcast_shapes(
            np.shape(p)[:-1], np.shape(t))),
        sigma=lambda p: np.full(np.shape(p)[:-1], mag),
        lipschitz_t=0.0)


def _linear2d():
    # b(x) = x, div = 2
    def ev(p, t):
        p = np.asarray(p, float)
        shape = np.broadcast_shapes(np.shape(p)[:-1], np.shape(t))
        return np.broadcast_to(p, shape + (2,)).copy()

    return make_field(
        name="linear2d", dim=2,
        eval=ev,
        div_x=lambda p, t: np.full(np.broadcast_shapes(
            np.shape(p)[:-1], np.shape(t)), 2.0),
        primitive=lambda p, t: np.asarray(p, float)
        * np.asarray(t, float)[..., None],
        div_primitive=lambda p, t: 2.0 * np.asarray(t, float)
        + np.zeros(np.shape(p)[:-1]),
        sigma=lambda p: np.hypot(np.asarray(p, float)[..., 0],
                                 np.asarray(p, float)[..., 1]),
        lipschitz_t=0.0)


def _gt2d():
    # b(x, t) = (1 + 0.5 sin t) e1, divergence free
    def ev(p, t):
        g = 1.0 + 0.5 * np.sin(np.asarray(t, float))
        shape = np.broadcast_shapes(np.shape(p)[:-1], np.shape(t))
        out = np.zeros(shape + (2,))
        out[..., 0] = g
        return out

    def prim(p, t):
        G = np.asarray(t, float) - 0.5 * np.cos(np.asarray(t, float)) + 0.5
        shape = np.broadcast_shapes(np.shape(p)[:-1], np.shape(t))
        out = np.zeros(shape + (2,))
        out[..., 0] = G
        return out

    return make_field(
        name="gt2d", dim=2,
        eval=ev,
        div_x=lambda p, t: np.zeros(np.broadcast_shapes(
            np.shape(p)[:-1], np.shape(t))),
        primitive=prim,
        div_primitive=lambda p, t: np.zeros(np.broadcast_shapes(
            np.shape(p)[:-1], np.shape(t))),
        sigma=lambda p: np.full(np.shape(p)[:-1], 1.5),
        lipschitz_t=0.5)


def _radial2d():
    # b(x) = x/|x|, div = 1/|x|: integrable but unbounded divergence
    def unit(p):
        p = np.asarray(p, float)
        r = np.hypot(p[..., 0], p[..., 1])
        safe = np.where(r > 0, r, 1.0)
        return p / safe[..., None], r

    def ev(p, t):
        u, _ = unit(p)
        shape = np.broadcast_shapes(np.shape(p)[:-1], np.shape(t))
        return np.broadcast_to(u, shape + (2,)).copy()

    return make_field(
        name="radial2d", dim=2,
        eval=ev,
        div_x=lambda p, t: 1.0 / np.hypot(
            np.asarray(p, float)[..., 0], np.asarray(p, float)[..., 1])
        + 0.0 * np.asarray(t, float),
        primitive=lambda p, t: unit(p)[0] * np.asarray(t, float)[..., None],
        div_primitive=lambda p, t: np.asarray(t, float) / np.hypot(
            np.asarray(p, float)[..., 0], np.asarray(p, float)[..., 1]),
        sigma=lambda p: np.ones(np.shape(p)[:-1]),
        lipschitz_t=0.0,
        singular_points=((0.0, 0.0),))


_CATALOG = {
    "const": lambda c=1.0: _const1d(c),
    "gt": _gt1d,
    "xt": _xt1d,
    "sep": _sep1d,
    "tanh": _tanh1d,
    "const2d": lambda vx=1.0, vy=0.5: _const2d(vx, vy),
    "linear2d": _linear2d,
    "gt2d": _gt2d,
    "radial2d": _radial2d,
}


def field_catalog(kind, **params) -> FieldB:
    if kind not in _CATALOG:
        raise KeyError(f"unknown field kind {kind!r}")
    return _CATALOG[kind](**params)


# ---------------------------------------------------------------------------
# Truncation: b^k(x, t) = sigma_k(t) b(x, t)


def sigma_k(t, k):
    """1 for |t| <= k-1, linear ramp down to 0 on (k-1, k], 0 beyond."""
    a = np.abs(np.asarray(t, dtype=float))
    return np.clip(k - a, 0.0, 1.0)


def _sigma_k_moment(t, k, integrand, antiderivative, nramp=12):
    """int_0^t sigma_k(s) g(x, s) ds, where ``antiderivative`` is G with
    dG/ds = g (used on the core where sigma_k = 1) and ``integrand`` is g
    itself (per-element Gauss nodes over the ramp segment)."""
    t = np.asarray(t, dtype=float)
    core = np.clip(t, -(k - 1.0), k - 1.0)
    ramp_hi = np.clip(t, -k, k)

    out = np.asarray(antiderivative(core), dtype=float)
    gx, gw = _leggauss(nramp)
    lo = core
    hi = ramp_hi
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[..., None] + half[..., None] * gx
    w = half[..., None] * gw
    sk = sigma_k(nodes, k)
    vals = np.asarray(integrand(nodes), dtype=float)
    if vals.shape != nodes.shape:  # vector-valued integrand
        out = out + np.sum((sk * w)[..., None] * vals, axis=-2)
    else:
        out = out + np.sum(sk * w * vals, axis=-1)
    return out


def truncate(field: FieldB, k) -> FieldB:
    """The truncated field sigma_k(t) b(x, t) with exact primitives."""
    k = float(k)
    if k < 1.0:
        raise ValueError("truncation level must be at least 1")

    dim = field.dim

    def ev(x, t):
        s = sigma_k(t, k)
        return s.reshape(s.shape + (1,) * (dim - 1)) \
            * np.asarray(field.eval(x, t), float)

    def dv(x, t):
        return sigma_k(t, k) * np.asarray(field.div_x(x, t), float)

    def moment(g, G):
        # int_0^t sigma_k(s) g(x, s) ds, with G the t-primitive of g
        def out(x, t):
            xb, tb = _broadcast(np.asarray(x, float), np.asarray(t, float),
                                dim)
            return _sigma_k_moment(
                tb, k, integrand=lambda s: g(_node_axis(xb, dim), s),
                antiderivative=lambda s: G(xb, s))
        return out

    prim = moment(field.eval, field.primitive)
    dprim = moment(field.div_x, field.div_primitive)

    sup = field.sup_norm(field.reference_box) if field.reference_box else 0.0
    return FieldB(
        name=f"{field.name}|trunc{k:g}", dim=field.dim,
        eval=ev, div_x=dv, primitive=prim, div_primitive=dprim,
        sigma=field.sigma,
        lipschitz_t=field.lipschitz_t + sup,
        t_range=field.t_range,
        singular_points=field.singular_points,
        reference_box=field.reference_box,
        t_kinks=tuple(sorted(set(field.t_kinks)
                             | {-k, -(k - 1.0), k - 1.0, k})))


# ---------------------------------------------------------------------------
# Mollification


def _bump_weights_1d(n=48):
    # Gauss discretization of the standard bump on (-1, 1), renormalized so
    # the discrete weights sum to one (constants mollify to themselves)
    gx, gw = _leggauss(n)
    rho = np.exp(-1.0 / (1.0 - gx ** 2))
    w = gw * rho
    return gx, w / w.sum()


def _bump_weights_2d(n=24):
    gx, gw = _leggauss(n)
    nx, ny = np.meshgrid(gx, gx, indexing="ij")
    r2 = nx ** 2 + ny ** 2
    rho = np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - r2, 1e-300)), 0.0)
    w = np.outer(gw, gw) * rho
    pts = np.stack([nx.ravel(), ny.ravel()], axis=-1)
    w = w.ravel()
    keep = w > 0
    return pts[keep], w[keep] / w[keep].sum()


def mollify(field: FieldB, epsilon, window=None) -> FieldB:
    """Mollify b(., t) in x at radius epsilon; primitives commute with it."""
    epsilon = float(epsilon)
    if epsilon <= 0:
        raise ValueError("mollification radius must be positive")
    if window is not None and field.reference_box is not None:
        # one (lo, hi) row per axis
        box = np.reshape(np.asarray(field.reference_box, float), (-1, 2))
        win = np.reshape(np.asarray(window, float), (-1, 2))
        if np.any(win[:, 0] - epsilon < box[:, 0]) \
                or np.any(win[:, 1] + epsilon > box[:, 1]):
            raise WindowTooLarge(
                f"radius {epsilon} spills outside the reference box")

    dim = field.dim
    nodes, weights = _bump_weights_1d() if dim == 1 else _bump_weights_2d()
    nodes = nodes * epsilon

    def smoothed(g):
        def out(x, t):
            xb, tb = _broadcast(np.asarray(x, float), np.asarray(t, float),
                                dim)
            shifted = _node_axis(xb, dim) - nodes
            vals = np.asarray(g(shifted, tb[..., None]), float)
            if vals.ndim > tb.ndim + 1:  # vector-valued g
                return np.einsum("...nd,n->...d", vals, weights)
            return vals @ weights
        return out

    def sig(x):
        shifted = _node_axis(np.asarray(x, float), dim) - nodes
        return np.max(np.asarray(field.sigma(shifted), float), axis=-1)

    return FieldB(
        name=f"{field.name}|moll{epsilon:g}", dim=field.dim,
        eval=smoothed(field.eval), div_x=smoothed(field.div_x),
        primitive=smoothed(field.primitive),
        div_primitive=smoothed(field.div_primitive),
        sigma=sig, lipschitz_t=field.lipschitz_t,
        t_range=field.t_range,
        singular_points=(),
        reference_box=field.reference_box,
        t_kinks=field.t_kinks)
