"""BV functions: evaluation, derivative measures, level sets, coarea."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.optimize import brentq

from pairinglab.bv import (BvFunction1D, CantorPart, Disc, JumpPoint,
                           Piecewise1D, PiecewiseConstantBv2D, PolygonRegion,
                           SmoothRadialBv2D, gradient_measure)
from pairinglab.errors import DegenerateLevel, SpecError, ToleranceNotMet
from pairinglab.fields import field_catalog
from pairinglab.measures import SingularLadder, _on_curves
from pairinglab.pairing import (coarea_variation_check,
                                pairing_by_representation)
from pairinglab import quadrature
from pairinglab.quadrature import _brent_roots
from pairinglab.scenarios import build_bv, load_catalog

CATALOG = load_catalog()

DOMAIN = (-2.0, 2.0)
RECT = ((-2.0, 2.0), (-2.0, 2.0))
SQUARE = PolygonRegion(((-0.8, -0.8), (0.8, -0.8), (0.8, 0.8), (-0.8, 0.8)))
TRIANGLE = PolygonRegion(((0.0, 0.0), (1.5, 0.2), (0.4, 1.1)))  # ccw


def _radial_u():
    prof = lambda r: np.clip(1.0 - r ** 2, 0.0, None) ** 2
    dprof = lambda r: np.where(r < 1.0, -4.0 * r * (1.0 - r ** 2), 0.0)
    return SmoothRadialBv2D(RECT, (0.0, 0.0), prof, dprof, 1.0)


def test_piecewise_evaluate_and_derivative():
    f = Piecewise1D(DOMAIN, lambda x: x ** 2, lambda x: 2.0 * x)
    xs = np.linspace(-1.5, 1.5, 7)
    assert np.allclose(f.evaluate(xs), xs ** 2)
    assert np.allclose(f.derivative(xs), 2.0 * xs)


def test_jump_point_orientation():
    up = JumpPoint.from_sides(0.0, 0.2, 1.2)
    down = JumpPoint.from_sides(0.0, 1.2, 0.2)
    for j in (up, down):
        assert j.u_plus > j.u_minus
        assert abs(j.height - 1.0) < 1e-15
    assert up.left_value == 0.2 and up.right_value == 1.2
    assert down.left_value == 1.2 and down.right_value == 0.2
    assert up.nu == -down.nu


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
@settings(max_examples=50, deadline=None)
def test_jump_from_sides_round_trip(a, b):
    if abs(a - b) < 1e-9:
        return
    j = JumpPoint.from_sides(0.0, a, b)
    assert abs(j.left_value - a) < 1e-15
    assert abs(j.right_value - b) < 1e-15
    assert abs(j.height - abs(b - a)) < 1e-12


def test_bv_total_variation_decomposes(u_mixed):
    # ramp contributes 0.8, cantor part 0.5, jump 0.8
    tv = u_mixed.gradient_measure().variation().total_mass()
    assert abs(tv - 2.1) < 1e-9
    g = u_mixed.gradient_measure()
    assert abs(g.total_mass() - 2.1) < 1e-9
    assert abs(g.variation().total_mass() - 2.1) < 1e-9


def test_bv_gradient_measure_signs(u_down_jump):
    g = u_down_jump.gradient_measure()
    assert abs(g.total_mass() + 1.0) < 1e-12
    assert abs(g.variation().total_mass() - 1.0) < 1e-12


def test_gradient_measure_splits_where_u_turns():
    # u' = 0.8 cos 2x vanishes at +-pi/4: |u'| kinks there, and the level
    # grid's extrema are breakpoints of Du, so one Gauss-Kronrod pass
    # gives |Du| (without them the loop halves its way to the kinks)
    du = _sine_with_jump().gradient_measure()
    assert du.ac_breakpoints == pytest.approx((-math.pi / 4, math.pi / 4),
                                              abs=1e-13)
    var = du.variation()
    calls = []
    counted = replace(var, ac_density=lambda x: calls.append(x.size)
                      or var.ac_density(x))
    assert counted.total_mass() == pytest.approx(
        0.8 * (2.0 - math.sin(4.0)) + 0.7, abs=1e-14)
    assert len(calls) == 1


def test_bv_value_range_and_sup(u_stair):
    lo, hi = u_stair.value_range()
    assert lo == pytest.approx(0.0) and hi == pytest.approx(2.5)
    assert u_stair.sup_norm() == pytest.approx(2.5)


def test_bv_cantor_endpoint_values(u_cantor):
    xs = np.array([-1.5, -0.1, 0.5, 1.2, 2.0])
    vals = u_cantor.evaluate(xs)
    assert vals[0] == 0.0 and vals[1] == 0.0
    assert abs(vals[2] - 0.5) < 1e-12
    assert vals[3] == 1.0 and vals[4] == 1.0
    tv = u_cantor.gradient_measure().variation().total_mass()
    assert abs(tv - 1.0) < 1e-12


@pytest.mark.parametrize("splits", [(), (0.2, 0.5, 0.8), (0.25, 0.5, 0.75),
                                    (0.1, 0.3, 0.61, 0.9)])
def test_bv_cantor_composed_integral_is_half(u_cantor, splits):
    # int_0^1 L = 1/2 by the symmetry L(1 - x) = 1 - L(x); the plateau Gauss
    # rule and the leaf midpoint rule are exact for u itself
    h = lambda x, uv: uv
    pts = (0.0,) + splits + (1.0,)
    total = sum(u_cantor.integrate_composed((h,), lo, hi)[0]
                for lo, hi in zip(pts[:-1], pts[1:]))
    assert abs(total - 0.5) <= 1e-14


@pytest.mark.parametrize("u_name, window", [
    ("u_cantor", (0.0, 1.0)),      # the depth-18 ladder alone (s09)
    ("u_mixed", (-1.5, -0.5)),     # the ladder of ramp + jump + ladder (s10)
    ("u_mixed", (-0.5, 1.8)),      # its Simpson segments: ramp and jump
    ("u_mixed", (-1.8, 1.8)),      # both kinds in one call
])
def test_bv_composed_stack_keeps_each_integrands_bits(
        request, field_xt, phi_bump, u_name, window):
    # one walk for a 3-stack gives each integrand the bits of its own walk
    u = request.getfixturevalue(u_name)
    hs = (lambda x, uv, f, g: field_xt.primitive(x, uv) * g,
          lambda x, uv, f, g: f * field_xt.div_primitive(x, uv),
          lambda x, uv, f, g: uv * field_xt.eval(x, 0.5) * g)
    kw = dict(tol=1e-10, extra_breaks=phi_bump.breakpoints,
              share=lambda x: (phi_bump(x), phi_bump.gradient(x)))
    stacked = u.integrate_composed(hs, *window, **kw)
    single = [u.integrate_composed((h,), *window, **kw)[0] for h in hs]
    assert len(stacked) == 3 and all(v != 0.0 for v in single)
    assert [v.hex() for v in stacked] == [v.hex() for v in single]


def _crossings(u, t):
    """Sorted list of the (x, nu) crossings of the one level t."""
    _, x, nu = u.level_crossings_many(np.array([t]))
    return list(zip(x.tolist(), nu.tolist()))


def test_bv_level_crossings_staircase(u_stair):
    cs = _crossings(u_stair, 0.5)
    assert len(cs) == 1
    assert abs(cs[0][0] + 0.5) < 1e-12
    cs = _crossings(u_stair, 2.0)
    assert len(cs) == 1
    assert abs(cs[0][0] - 0.7) < 1e-12


def _scalar_crossings(u, t):
    """Reference: per segment, the sign grid of level_crossings_many (the
    level grid of u) and one scalar brentq per sign change."""
    out = [(j.location, j.nu) for j in u.jumps if j.u_minus < t < j.u_plus]
    for _, _, xs, v, offset in u._level_grid:
        v = v - t
        s = np.where(v >= 0.0, 1.0, -1.0)
        def g(x, offset=offset):
            return float(u._base(np.array([x]))[0] + offset) - t

        for i in np.flatnonzero(s[:-1] * s[1:] < 0):
            out.append((brentq(g, xs[i], xs[i + 1], xtol=1e-13),
                        1 if v[i] < 0 else -1))
    return sorted(out)


def _sine_with_jump():
    ac = Piecewise1D(DOMAIN, lambda x: 0.5 + 0.4 * np.sin(2.0 * x),
                     lambda x: 0.8 * np.cos(2.0 * x))
    left = 0.5 + 0.4 * math.sin(0.6)
    return BvFunction1D(DOMAIN, ac=ac,
                        jumps=(JumpPoint.from_sides(0.3, left, left + 0.7),))


@pytest.mark.parametrize("u", [
    build_bv(CATALOG["s01_smooth_const"].bv_spec),
    build_bv(CATALOG["s12_smooth_sep"].bv_spec),
    build_bv(CATALOG["s14_ramp_xt"].bv_spec),
    _sine_with_jump(),
], ids=["s01", "s12", "s14", "jump+sine"])
def test_batched_crossings_match_scalar_brentq(u):
    lo, hi = u.value_range()
    ts = np.linspace(lo + 0.011, hi - 0.013, 61)
    owner, xs, nus = u.level_crossings_many(ts)
    assert np.all(np.diff(owner) >= 0)
    for k, t in enumerate(ts):
        ref = _scalar_crossings(u, t)
        mine = owner == k
        assert len(ref) == np.count_nonzero(mine) > 0
        assert [nu for _, nu in ref] == nus[mine].tolist()
        assert np.max(np.abs(xs[mine] - [x for x, _ in ref])) <= 1e-12
        assert _crossings(u, t) == list(zip(xs[mine].tolist(),
                                            nus[mine].tolist()))


def test_levels_next_to_an_extremum_cross_twice():
    u = build_bv(CATALOG["s01_smooth_const"].bv_spec)
    ts = np.array([0.9 - 1e-7, 0.1 + 1e-7])
    owner, xs, nus = u.level_crossings_many(ts)
    assert owner.tolist() == [0, 0, 1, 1]
    assert nus.tolist() == [1, -1, -1, 1]
    assert np.all(np.abs(u.evaluate(xs) - ts[owner]) < 1e-12)
    owner, lo, hi = u.level_intervals(ts[:1])
    assert owner.tolist() == [0] and hi[0] > lo[0]


def test_value_range_holds_the_extrema():
    u = build_bv(CATALOG["s01_smooth_const"].bv_spec)
    lo, hi = u.value_range()
    assert abs(lo - 0.1) <= 1e-15 and abs(hi - 0.9) <= 1e-15
    v = u.evaluate(np.linspace(*u.domain, 2_000_001))
    assert lo <= v.min() and v.max() <= hi
    assert u.sup_norm() == hi


def test_crossing_at_a_grid_value_past_two_jumps():
    # the grid values and the root polish add the same total jump offset,
    # so a level equal to a grid value still brackets its crossing
    s1, s2 = 0.3366327592946544, 0.17140402119374165
    ac = Piecewise1D(DOMAIN, lambda x: 0.1 * x,
                     lambda x: np.full(np.shape(x), 0.1))
    u = BvFunction1D(DOMAIN, ac=ac, jumps=(
        JumpPoint.from_sides(-1.0, -0.1, -0.1 + s1),
        JumpPoint.from_sides(-0.5, -0.05 + s1, -0.05 + s1 + s2)))
    owner, xs, nus = u.level_crossings_many(np.array([0.5809534471550628]))
    assert owner.tolist() == [0] and nus.tolist() == [1]
    assert abs(xs[0] - 0.7291666666666666) < 1e-12


def test_batched_crossings_raise_on_a_plateau_level():
    u = build_bv(CATALOG["s14_ramp_xt"].bv_spec)
    u.level_crossings_many(np.array([0.25, 0.5, 0.75]))
    for level in (0.0, 1.0):
        with pytest.raises(DegenerateLevel, match=f"level {level} "):
            u.level_crossings_many(np.array([0.25, level, 0.75]))


def test_batched_crossings_raise_when_a_bracket_loses_its_sign(monkeypatch):
    u = _sine_with_jump()
    u._level_grid  # the bracketing grid, cached before _base is shifted
    monkeypatch.setattr(BvFunction1D, "_base",
                        lambda self, z: np.full(np.shape(z), 10.0))
    with pytest.raises(DegenerateLevel, match="lost its sign change"):
        u.level_crossings_many(np.array([0.4, 0.6]))


def test_root_polish_never_returns_an_open_bracket(monkeypatch):
    g = lambda x, k: np.tan(x) - 1.0
    a, b = np.array([0.1, 0.2]), np.array([1.4, 1.5])
    assert np.allclose(_brent_roots(g, a, b, xtol=1e-13), math.pi / 4,
                       atol=1e-13)
    assert _brent_roots(g, a[:0], b[:0], xtol=1e-13).size == 0
    # a bracket without a sign change is NaN, the others are still polished
    r = _brent_roots(g, np.array([0.1, 0.2]), np.array([1.4, 0.3]),
                     xtol=1e-13)
    assert abs(r[0] - math.pi / 4) < 1e-13 and np.isnan(r[1])
    monkeypatch.setattr(quadrature, "_BRENT_MAXITER", 3)
    with pytest.raises(ToleranceNotMet, match="still open after 3 steps"):
        _brent_roots(g, a, b, xtol=1e-13)


def _ramp_pieces(x, x0, x1, lo, hi):
    """(value, derivative) of a ramp by three pieces: lo, the line on
    [x0, x1), hi; the first piece also below the domain, the last one
    above it and at NaN."""
    x = np.asarray(x, dtype=float)
    piece = np.searchsorted([x0, x1], x, side="right")
    slope = (hi - lo) / (x1 - x0)
    value, deriv = np.empty(x.shape), np.empty(x.shape)
    for i, (f, df) in enumerate(((lambda z: np.full(z.shape, lo), 0.0),
                                 (lambda z: lo + slope * (z - x0), slope),
                                 (lambda z: np.full(z.shape, hi), 0.0))):
        m = piece == i
        value[m], deriv[m] = f(x[m]), df
    return value, deriv


@pytest.mark.parametrize("ramp", [
    {"x0": -0.5, "x1": 1.0, "lo": 0.0, "hi": 1.0},
    {"x0": -1.3, "x1": 0.7, "lo": 0.9, "hi": -0.4},
], ids=["up", "down"])
def test_ramp_spec_matches_its_pieces(ramp):
    u = build_bv(_bv1d_spec(ac={"type": "ramp", **ramp}))
    x0, x1 = ramp["x0"], ramp["x1"]
    x = np.concatenate([[x0, x1, np.nextafter(x0, -3), np.nextafter(x1, -3),
                         -3.0, -2.0, 2.0, 2.5, np.nan],
                        np.linspace(-2.2, 2.2, 45)])
    grid = np.linspace(-2.5, 2.5, 24).reshape(4, 6)
    for pts in (x, grid, grid.T, np.float64(x0)):
        value, deriv = _ramp_pieces(pts, **ramp)
        for got, want in ((u.ac.evaluate(pts), value),
                          (u.ac.derivative(pts), deriv)):
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
    assert u.ac.evaluate(np.nan) == ramp["hi"]
    assert u.ac.breaks == (-2.0, x0, x1, 2.0)


def test_bv_level_set_indicator(u_jump):
    # {u > 0.7} = [0.3, 2]; its reduced boundary is the single point 0.3
    owner, lo, hi = u_jump.level_intervals(np.array([0.7]))
    assert owner.tolist() == [0]
    assert abs(lo[0] - 0.3) < 1e-9 and hi[0] == 2.0


def test_bv_rejects_unordered_jumps():
    with pytest.raises(ValueError):
        BvFunction1D(DOMAIN, ac=Piecewise1D.constant(DOMAIN, 0.0),
                     jumps=(JumpPoint.from_sides(0.5, 0.0, 1.0),
                            JumpPoint.from_sides(0.2, 1.0, 2.0)))


def test_bv_rejects_discontinuous_ac():
    bad = Piecewise1D((-2.0, 0.0, 2.0), lambda x: np.where(x < 0.0, 0.0, 1.0),
                      lambda x: np.zeros_like(x))
    with pytest.raises(ValueError):
        BvFunction1D(DOMAIN, ac=bad)


def _bv1d_spec(**parts):
    return {"kind": "bv1d", "domain": list(DOMAIN), **parts}


def test_bv_rejects_ac_breaks_outside_the_domain():
    # a ramp that starts left of the domain: breaks (-2, -3, 1, 2)
    spec = _bv1d_spec(ac={"type": "ramp", "x0": -3.0, "x1": 1.0,
                          "lo": 0.0, "hi": 1.0})
    with pytest.raises(SpecError, match="ac breaks must increase"):
        build_bv(spec)
    ramp = Piecewise1D((-2.0, -3.0, 1.0, 2.0), lambda x: 0.25 * (x + 3.0),
                       lambda x: np.full(np.shape(x), 0.25))
    with pytest.raises(ValueError, match="ac breaks must increase"):
        BvFunction1D(DOMAIN, ac=ramp)


def test_bv_rejects_a_cantor_carrier_outside_the_domain():
    spec = _bv1d_spec(cantor={"interval": [-3.0, -2.5], "depth": 6})
    with pytest.raises(SpecError, match="Cantor carrier must lie"):
        build_bv(spec)
    with pytest.raises(ValueError, match="Cantor carrier must lie"):
        BvFunction1D(DOMAIN, cantor=CantorPart(
            1.0, SingularLadder((1.5, 2.5), depth=6)))


def _coarea_tv(u):
    """(lhs, rhs, residual) of the coarea formula for |Du|: for b = 1 the
    representation measure is Du itself."""
    field = field_catalog("const", c=1.0)
    return coarea_variation_check(field, u, lambda x: np.ones_like(x),
                                  pairing_by_representation(field, u))


def test_coarea_tv_identity_mixed(u_mixed, u_cantor):
    # the pure ladder slices its levels through the dyadic ladder panels only
    for u, tv in ((u_mixed, 2.1), (u_cantor, 1.0)):
        lhs, rhs, res = _coarea_tv(u)
        assert abs(lhs - tv) < 1e-9
        assert res < 1e-6


def test_coarea_tv_identity_smooth(u_smooth):
    # TV of 0.5 + 0.4 sin 2x on [-2, 2]: integrate |0.8 cos 2x|
    from scipy.integrate import quad
    expect = quad(lambda x: abs(0.8 * math.cos(2.0 * x)), -2.0, 2.0,
                  points=[-math.pi / 4.0, math.pi / 4.0],
                  limit=200)[0]
    lhs, rhs, res = _coarea_tv(u_smooth)
    assert abs(lhs - expect) < 1e-7
    assert res < 1e-5


def test_indicator_1d_perimeter():
    # the indicator of (-1, 0.5): up by 1 at -1, down by 1 at 0.5
    u = BvFunction1D(DOMAIN, jumps=(JumpPoint.from_sides(-1.0, 0.0, 1.0),
                                    JumpPoint.from_sides(0.5, 1.0, 0.0)))
    tv = u.gradient_measure().variation().total_mass()
    assert abs(tv - 2.0) < 1e-12
    assert u.evaluate(np.array([0.0]))[0] == 1.0
    assert u.evaluate(np.array([1.0]))[0] == 0.0


def test_disc_region_geometry():
    d = Disc((0.0, 0.0), 1.0)
    assert abs(d.perimeter() - 2.0 * math.pi) < 1e-12
    pts = np.array([[0.5, 0.0], [1.5, 0.0]])
    inside = d.contains(pts)
    assert inside[0] and not inside[1]
    nu = d.interior_normal(np.array([[1.0, 0.0]]))
    assert np.allclose(nu[0], [-1.0, 0.0])


def test_polygon_region_geometry():
    sq = PolygonRegion(((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)))
    assert abs(sq.perimeter() - 8.0) < 1e-12
    assert sq.contains(np.array([[0.0, 0.0]]))[0]
    assert not sq.contains(np.array([[1.5, 0.0]]))[0]


def test_piecewise_constant_2d(u_disc):
    pts = np.array([[0.0, 0.0], [0.9, 0.0], [1.1, 0.0]])
    assert np.allclose(u_disc.evaluate(pts), [1.0, 1.0, 0.0])
    assert u_disc.sup_norm() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        PiecewiseConstantBv2D(u_disc.rect, u_disc.regions, background=0.5)


def test_smooth_radial_2d_levels():
    u = _radial_u()
    r = u.radius_of_level(0.25)
    assert abs(u.profile(r) - 0.25) < 1e-10
    lo, hi = u.value_range()
    assert lo == 0.0 and hi == pytest.approx(1.0)
    assert u.level_breaks() == (lo, hi)
    assert u.level_regions_many(np.array([0.25])) == [
        ((Disc((0.0, 0.0), r), 1.0),)]
    pts = np.array([[0.3, 0.4]])
    h = 1e-6
    gx = (u.evaluate(pts + [[h, 0.0]]) - u.evaluate(pts - [[h, 0.0]])) \
        / (2.0 * h)
    assert abs(gx[0] - u.gradient(pts)[0, 0]) < 1e-6


@pytest.mark.parametrize("region, npieces", [
    (Disc((0.3, -0.2), 0.9), 1), (SQUARE, 4), (TRIANGLE, 3),
], ids=["disc", "square", "triangle"])
def test_region_boundary_pieces(region, npieces):
    pieces = region.boundary()
    assert len(pieces) == npieces
    assert abs(sum(c.length for c in pieces) - region.perimeter()) < 1e-12
    for k, curve in enumerate(pieces):
        pts, _ = curve.sample(7)
        nu = curve.interior_normal(pts)
        assert np.array_equal(_on_curves(pieces)(pts, np.array(k)), nu)
        assert np.allclose(np.hypot(nu[:, 0], nu[:, 1]), 1.0)
        # the interior normal points into the region
        assert region.contains(pts + 1e-6 * nu).all()
        assert not region.contains(pts - 1e-6 * nu).any()


@pytest.mark.parametrize("region", [SQUARE, TRIANGLE],
                         ids=["square", "triangle"])
def test_polygon_interior_normal_is_nearest_edge_normal(region):
    mids, normals = [], []
    for seg in region.boundary():
        mid = seg.point_at(np.array(0.5))
        assert np.array_equal(region.interior_normal(mid),
                              seg.interior_normal(mid))
        mids.append(mid)
        normals.append(seg.interior_normal(mid))
    assert np.array_equal(region.interior_normal(np.array(mids)),
                          np.array(normals))


def test_piecewise_constant_level_regions():
    neg = PiecewiseConstantBv2D(RECT, ((SQUARE, -0.6),))
    # {u > t} for t in (-0.6, 0) is the complement of the square
    assert neg.level_regions_many(np.array([-0.3])) == [((SQUARE, -1.0),)]
    assert neg.level_regions_many(np.array([0.3])) == [()]
    assert neg.level_regions_many(np.array([-0.9])) == [()]
    assert neg.level_breaks() == (-0.6, 0.0)
    pos = PiecewiseConstantBv2D(RECT, ((Disc((0.0, 0.0), 1.0), 0.7),))
    assert pos.level_regions_many(np.array([0.3])) == [
        ((Disc((0.0, 0.0), 1.0), 1.0),)]
    assert pos.level_regions_many(np.array([-0.1])) == [()]
    assert pos.level_breaks() == (0.0, 0.7)


_ONE = lambda p: np.ones(np.shape(p)[:-1])
_ONE_X2 = lambda p: 1.0 + np.asarray(p)[..., 0] ** 2


@pytest.mark.parametrize("u, g, tv", [
    (PiecewiseConstantBv2D(RECT, ((Disc((0.0, 0.0), 1.0), 1.0),)), _ONE,
     2.0 * math.pi),
    (PiecewiseConstantBv2D(RECT, ((Disc((0.0, 0.0), 1.0), 1.0),)), _ONE_X2,
     3.0 * math.pi),
    (PiecewiseConstantBv2D(RECT, ((SQUARE, -0.6),)), _ONE, 0.6 * 6.4),
    # edges y = +-0.8 give 2 int x^2 dx = 2.048 / 3, edges x = +-0.8 2.048
    (PiecewiseConstantBv2D(RECT, ((SQUARE, -0.6),)), _ONE_X2,
     0.6 * (6.4 + 2.048 / 3.0 + 2.048)),
    # |grad u| = 4r(1 - r^2) and int of x^2 over the circle of radius r is
    # pi r^3, so 16 pi / 15 and 16 pi / 15 + 8 pi / 35
    (_radial_u(), _ONE, 16.0 * math.pi / 15.0),
    (_radial_u(), _ONE_X2, 136.0 * math.pi / 105.0),
], ids=["disc-1", "disc-1+x2", "square-1", "square-1+x2", "radial-1",
        "radial-1+x2"])
def test_coarea_tv_identity_2d(u, g, tv):
    assert abs(gradient_measure(u).variation().integrate(g) - tv) < 1e-12


@given(st.lists(st.floats(-1.8, 1.8), min_size=1, max_size=4, unique=True),
       st.floats(0.1, 2.0))
@settings(max_examples=40, deadline=None)
def test_tv_additive_over_jumps(locs, height):
    jumps = tuple(JumpPoint.from_sides(x, 0.0, height)
                  for x in sorted(locs))
    u = BvFunction1D(DOMAIN, ac=Piecewise1D.constant(DOMAIN, 0.0),
                     jumps=jumps)
    tv = u.gradient_measure().variation().total_mass()
    assert abs(tv - len(jumps) * height) < 1e-9
