"""Independent references for the catalog's 1D scenarios without a Cantor
part.

u and phi are rebuilt here from the spec JSON (the ac types, the jumps,
``bump1d`` and ``plateau1d``), without ``pairinglab.bv`` or
``pairinglab.measures``, so that a defect shared by the routes through
``BvFunction1D`` or ``TestFunction1D`` shows.  Only the field b comes from
the package.  The reference is

    ref = int phi b(x, u) u' dx
          + sum_j phi(x_j) int_{u(x_j-)}^{u(x_j+)} b(x_j, t) dt,

each integral by QUADPACK (``scipy.integrate.quad``, epsabs 1e-14 and
epsrel 1e-13, the least epsrel that raises no roundoff warning here)
between the breakpoints.  The Cantor scenarios stay with
``tests/test_pairing.py::test_constant_field_cantor_oracle``.
"""

import math

import pytest
from scipy.integrate import quad

from pairinglab.scenarios import build_field, load_catalog

CATALOG = load_catalog()
SCENARIOS = [sid for sid, sc in sorted(CATALOG.items())
             if sc.bv_spec["kind"] == "bv1d" and "cantor" not in sc.bv_spec]


def _ac(spec):
    """(u_ac, u_ac', interior breaks) of an ac spec."""
    typ = spec["type"]
    if typ == "constant":
        return lambda x: spec["value"], lambda x: 0.0, ()
    if typ == "sinusoid":
        off, amp, freq = spec["offset"], spec["amplitude"], spec["frequency"]
        return (lambda x: off + amp * math.sin(freq * x),
                lambda x: amp * freq * math.cos(freq * x), ())
    assert typ == "ramp", typ
    x0, x1, lo, hi = spec["x0"], spec["x1"], spec["lo"], spec["hi"]
    slope = (hi - lo) / (x1 - x0)
    return (lambda x: lo + slope * (min(max(x, x0), x1) - x0),
            lambda x: slope if x0 < x < x1 else 0.0, (x0, x1))


def _phi(spec):
    """(phi, its support, its breaks) of a 1D test function spec."""
    a, b = spec["a"], spec["b"]
    if spec["kind"] == "bump1d":
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        return (lambda x: (1.0 - ((x - c) / h) ** 2) ** 2
                if abs(x - c) < h else 0.0), (a, b), ()
    assert spec["kind"] == "plateau1d", spec["kind"]
    p, q = spec["p"], spec["q"]

    def step(s):
        s = min(max(s, 0.0), 1.0)
        return s * s * (3.0 - 2.0 * s)

    def phi(x):
        if x < p:
            return step((x - a) / (p - a))
        return 1.0 if x <= q else step((b - x) / (b - q))
    return phi, (a, b), (p, q)


def _quad(f, pts):
    """int f over [pts[0], pts[-1]], one QUADPACK call per piece."""
    return sum(quad(f, s0, s1, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
               for s0, s1 in zip(pts, pts[1:]))


def reference(sc):
    b = build_field(sc.field_spec).eval
    u_ac, du, ac_breaks = _ac(sc.bv_spec["ac"])
    jumps = [(x, right - left)
             for x, left, right in sc.bv_spec.get("jumps", ())]

    def u(x):
        return u_ac(x) + sum(h for xj, h in jumps if x > xj)

    phi, (a, bb), phi_breaks = _phi(sc.phi_spec)
    pts = sorted({a, bb, *(p for p in (*ac_breaks, *phi_breaks,
                                       *(xj for xj, _ in jumps))
                           if a < p < bb)})
    diffuse = _quad(lambda x: phi(x) * float(b(x, u(x))) * du(x), pts)
    atoms = 0.0
    for xj, h in jumps:
        left = u_ac(xj) + sum(hi for xi, hi in jumps if xi < xj)
        atoms += phi(xj) * _quad(lambda t: float(b(xj, t)), [left, left + h])
    return diffuse + atoms


@pytest.mark.parametrize("sid", SCENARIOS)
def test_routes_match_the_independent_reference(sid):
    assert len(SCENARIOS) == 10
    sc = CATALOG[sid]
    ref = reference(sc)
    ctx = sc.resolve()
    dist_err = abs(ctx.distributional() - ref)
    rep_err = abs(ctx.representation().integrate(ctx.phi) - ref)
    bound = 1e-10 * (1.0 + abs(ref))
    assert dist_err <= bound and rep_err <= bound, (
        f"{sid}: ref {ref!r}, |dist - ref| = {dist_err:.3e}, "
        f"|rep - ref| = {rep_err:.3e}, bound {bound:.3e}")
