"""Pairing routes, cylindrical averages, coarea/chain-rule/mass-bound checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairinglab.bv import (BvFunction1D, Disc, JumpPoint, Piecewise1D,
                           PiecewiseConstantBv2D, PolygonRegion,
                           gradient_measure)
from pairinglab.errors import BoundViolated
from pairinglab.fields import field_catalog
from pairinglab.measures import TestFunction1D
from pairinglab.scenarios import _windows_for, load_catalog
from pairinglab.pairing import (approximation_convergence_check,
                                chain_rule_check, coarea_pairing_check,
                                coarea_variation_check, cylindrical_average,
                                jump_theta, lipschitz_comparison_check,
                                mass_bound_check, normal_trace,
                                pairing_by_representation, pairing_by_traces,
                                pairing_distributional)

DOMAIN = (-2.0, 2.0)


# ---------------------------------------------------------------------------
# closed-form oracles for simple scenarios


def test_constant_field_jump_oracle(field_const, u_jump, phi_bump):
    # b = 1: the pairing is phi integrated against Du, one unit atom at 0.3
    expect = float(phi_bump(np.array([0.3]))[0])
    val = pairing_distributional(field_const, u_jump, phi_bump)
    assert abs(val - expect) < 1e-9
    rep = pairing_by_representation(field_const, u_jump)
    assert abs(rep.integrate(phi_bump) - expect) < 1e-9
    assert abs(rep.measure.total_mass() - 1.0) < 1e-10


def test_constant_field_down_jump_sign(field_const, u_down_jump, phi_bump):
    expect = -float(phi_bump(np.array([0.3]))[0])
    val = pairing_distributional(field_const, u_down_jump, phi_bump)
    assert abs(val - expect) < 1e-9


def test_gt_field_jump_atom_closed_form(field_gt, u_jump, phi_bump):
    # atom weight is the t-average of g over the jump range times the height:
    # integral over (0.2, 1.2) of 1 + 0.5 sin t dt
    atom = 1.0 + 0.5 * (math.cos(0.2) - math.cos(1.2))
    expect = atom * float(phi_bump(np.array([0.3]))[0])
    val = pairing_distributional(field_gt, u_jump, phi_bump)
    assert abs(val - expect) < 1e-8
    rep = pairing_by_representation(field_gt, u_jump)
    assert abs(rep.measure.total_mass() - atom) < 1e-9


def test_constant_field_cantor_oracle(field_const, u_cantor, phi_plateau):
    # phi is 1 on the carrier [0, 1]; the pairing mass is the cantor TV
    val = pairing_distributional(field_const, u_cantor, phi_plateau)
    assert abs(val - 1.0) < 1e-9


def test_xt_field_smooth_oracle(field_xt, u_smooth, phi_plateau):
    # b(x, t) = x t; on the plateau the pairing integrand is x u(x) u'(x)
    from scipy.integrate import quad
    f = lambda x: x * (0.5 + 0.4 * math.sin(2.0 * x)) \
        * 0.8 * math.cos(2.0 * x)
    core, _ = quad(f, -1.2, 1.2, limit=200)
    ramp = pairing_distributional(field_xt, u_smooth, phi_plateau)
    # subtract the (quadrature-evaluated) ramp contributions of phi
    lo = quad(lambda x: float(phi_plateau(np.array([x]))[0]) * f(x),
              -1.8, -1.2, limit=200)[0]
    hi = quad(lambda x: float(phi_plateau(np.array([x]))[0]) * f(x),
              1.2, 1.8, limit=200)[0]
    assert abs(ramp - (core + lo + hi)) < 1e-7


# ---------------------------------------------------------------------------
# route agreement


@pytest.mark.parametrize("kind", ["const", "gt", "xt", "sep"])
def test_three_routes_agree_on_staircase(kind, u_stair, phi_bump):
    f = field_catalog(kind)
    v1 = pairing_distributional(f, u_stair, phi_bump)
    v2 = pairing_by_representation(f, u_stair).integrate(phi_bump)
    v3 = pairing_by_traces(f, u_stair).integrate(phi_bump)
    tol = 1e-6 * (1.0 + abs(v1))
    assert abs(v1 - v2) < tol
    assert abs(v1 - v3) < tol


def test_two_routes_agree_on_disc(u_disc, phi_radial):
    f = field_catalog("linear2d")
    v1 = pairing_distributional(f, u_disc, phi_radial)
    v2 = pairing_by_representation(f, u_disc).integrate(phi_radial)
    assert abs(v1 - v2) < 1e-6 * (1.0 + abs(v1))


@pytest.mark.parametrize("region, value", [
    (Disc((0.0, 0.0), 1.0), -0.8),
    (PolygonRegion(((-0.8, -0.8), (0.8, -0.8), (0.8, 0.8), (-0.8, 0.8))),
     -0.6),
], ids=["disc", "square"])
def test_routes_agree_on_negative_2d_values(region, value, phi_radial):
    # a negative value flips the jump normal and the t-range of the density
    u = PiecewiseConstantBv2D(((-2.0, 2.0), (-2.0, 2.0)), ((region, value),))
    f = field_catalog("linear2d")
    v1 = pairing_distributional(f, u, phi_radial)
    v2 = pairing_by_representation(f, u).integrate(phi_radial)
    v3 = pairing_by_traces(f, u).integrate(phi_radial)
    assert abs(v1) > 1.0
    tol = 1e-6 * (1.0 + abs(v1))
    assert abs(v1 - v2) < tol
    assert abs(v1 - v3) < tol


@given(c=st.floats(-2.0, 2.0))
@settings(max_examples=15, deadline=None)
def test_pairing_linear_in_constant_fields(c, u_stair, phi_bump):
    if abs(c) < 1e-6:
        return
    base = pairing_distributional(field_catalog("const", c=1.0),
                                  u_stair, phi_bump)
    scaled = pairing_distributional(field_catalog("const", c=c),
                                    u_stair, phi_bump)
    assert abs(scaled - c * base) < 1e-9 * (1.0 + abs(c))


# ---------------------------------------------------------------------------
# cylindrical averages and traces


def test_cyl_average_smooth_equals_pointwise(field_gt):
    got = cylindrical_average(field_gt, 0.7, 1.0, 0.4)
    want = 1.0 + 0.5 * math.sin(0.7)
    assert got.converged
    assert abs(got.value - want) < 1e-7


def test_cyl_average_odd_symmetry_zero():
    f = field_catalog("tanh")
    got = cylindrical_average(f, 0.5, 1.0, 0.0)
    assert abs(got.value) < 1e-7
    g = field_catalog("radial2d")
    got2 = cylindrical_average(g, 0.5, (1.0, 0.0), (0.0, 0.0))
    assert abs(got2.value) < 1e-7


def test_cyl_average_near_a_singular_point():
    # 0.0053 from the origin, where radial2d is singular: the first
    # cylinders contain the origin, and extrapolating over their terms gave
    # -0.41019596 (converged) for the limit b . nu = -0.41015628
    f = field_catalog("radial2d")
    t = 0.5136295604293177
    x = (0.004554446103657739, -0.0028021761813354917)
    ang = 3.7381977576096683
    nu = (math.cos(ang), math.sin(ang))
    got = cylindrical_average(f, t, nu, x)
    want = float(np.asarray(f.eval(np.array(x), t)) @ np.array(nu))
    assert got.converged
    assert abs(got.value - want) <= 1e-9


def test_jump_theta_constant_field(field_const):
    th = jump_theta(field_const, 0.3, 0.2, 1.2, 1.0)
    assert abs(th - 1.0) < 1e-10
    th = jump_theta(field_const, 0.3, 0.2, 1.2, -1.0)
    assert abs(th + 1.0) < 1e-10


def test_normal_trace_on_unit_circle():
    from pairinglab.bv import Disc
    f = field_catalog("linear2d")
    tr = normal_trace(f, 1.0, Disc((0.0, 0.0), 1.0))
    # b = x and the interior normal is -x/|x|, so b . nu = -1 on the circle
    assert np.max(np.abs(np.asarray(tr.values) + 1.0)) < 1e-9


# ---------------------------------------------------------------------------
# theorem checks


def test_coarea_checks_staircase(field_gt, u_stair, phi_bump):
    lhs, rhs, res = coarea_pairing_check(field_gt, u_stair, phi_bump)
    assert res < 1e-6
    lhs, rhs, res = coarea_variation_check(field_gt, u_stair, phi_bump)
    assert res < 1e-5


def test_chain_rule_small_residual(field_gt, u_mixed, phi_bump):
    assert chain_rule_check(field_gt, u_mixed, phi_bump) < 1e-8


def test_lipschitz_comparison_holds(field_gt, u_jump, phi_bump):
    for tau in (-0.1, 0.5, 0.7, 1.0, 1.5):
        lhs, rhs = lipschitz_comparison_check(field_gt, u_jump, tau,
                                              phi_bump)
        assert lhs <= rhs + 1e-8


def test_lipschitz_comparison_raises_on_forced_violation(field_gt, u_jump,
                                                         phi_bump):
    with pytest.raises(BoundViolated):
        lipschitz_comparison_check(field_gt, u_jump, 0.5, phi_bump,
                                   tol=-10.0)


def test_mass_bound_windows(field_gt, u_mixed):
    windows = [(-2.0 + 0.4 * i, -1.6 + 0.4 * i) for i in range(10)]
    out = mass_bound_check(field_gt, u_mixed, windows)
    assert len(out) == 10
    assert all(r["ok"] for r in out)


@given(lo=st.floats(-2.0, 1.9), width=st.floats(0.01, 1.5))
@settings(max_examples=25, deadline=None)
def test_mass_bound_random_windows(lo, width, field_gt, u_stair):
    hi = min(lo + width, 2.0)
    out = mass_bound_check(field_gt, u_stair, [(lo, hi)])
    assert out[0]["ok"]
    assert out[0]["lhs"] <= out[0]["bound"] + 1e-9


@pytest.mark.parametrize("sid", ["s15_disc_linear2d", "s19_square_linear2d",
                                 "s20_smoothdisc_linear2d"])
def test_variation_masses_match_restricted_variations(sid):
    ctx = load_catalog()[sid].resolve()
    (x0, x1), (y0, y1) = ctx.u.rect
    boxes = [((-0.7, 0.9), (-1.2, 0.3)), ((0.1, 1.7), (-0.4, 0.6)),
             ((x1 + 0.5, x1 + 1.0), (y0, y1)),
             ((x0 - 1.0, x1 + 1.0), (y0 - 1.0, y1 + 1.0))]
    for m in (pairing_by_representation(ctx.field, ctx.u).measure,
              gradient_measure(ctx.u)):
        want = [m.restrict(E).variation().total_mass() for E in boxes]
        assert m.variation_masses(boxes) == want
        assert want[2] == 0.0 and want[3] > 0.0


@pytest.mark.parametrize("sid,lhs,bound", [
    ("s15_disc_linear2d", 0.4203107358806657, 0.7388000434281994),
    ("s17_disc_gt2d", 0.47445741487803417, 0.715926642079896),
    ("s19_square_linear2d", 4.5000000000000036, 14.328717898892506),
    ("s20_smoothdisc_linear2d", 0.12058281363918202, 0.3297881867190727)])
def test_mass_bound_2d_values_are_pinned(sid, lhs, bound):
    # the second mass window of each scenario, to the bit: --stable reports
    # of the catalog must not move when the fixed grids are reorganised
    ctx = load_catalog()[sid].resolve()
    window = _windows_for(ctx, 2)[1]
    (out,) = mass_bound_check(ctx.field, ctx.u, [window])
    assert (out["lhs"], out["bound"]) == (lhs, bound)


def test_variation_masses_1d(u_mixed, field_gt):
    windows = [(-1.7, -0.9), (-0.2, 1.4), (2.5, 3.0), (-3.0, 3.0)]
    for m in (pairing_by_representation(field_gt, u_mixed).measure,
              gradient_measure(u_mixed)):
        want = [m.restrict(E).variation().total_mass() for E in windows]
        assert m.variation_masses(windows) == want


def test_mass_bound_2d_can_fail():
    # a representation measure built under a field twice as large as the
    # one the bound is taken with must break the bound near the jump set
    ctx = load_catalog()["s15_disc_linear2d"].resolve()
    rep = pairing_by_representation(field_catalog("const2d", vx=2.0, vy=1.0),
                                    ctx.u)
    windows = [((-1.5, 1.5), (-1.5, 1.5)), ((0.5, 1.5), (-0.5, 0.5)),
               ((-0.5, 0.5), (-0.5, 0.5))]
    out = mass_bound_check(field_catalog("const2d", vx=1.0, vy=0.5), ctx.u,
                           windows, rep=rep)
    assert [r["ok"] for r in out] == [False, False, True]
    # whole circle: |mu| = int |(2, 1).nu| ds = 4 sqrt(5) against the bound
    # |(1, 0.5)| 2 pi = 7.02...
    assert out[0]["lhs"] == pytest.approx(4.0 * math.sqrt(5.0), rel=1e-6)
    assert out[0]["bound"] == pytest.approx(math.sqrt(1.25) * 2.0 * math.pi,
                                            rel=1e-6)


def test_approximation_gap_decreases(u_smooth, phi_bump):
    # sep has genuine x-curvature, so the mollification gap is O(eps^2)
    f = field_catalog("sep")
    eps = tuple(0.04 * 0.5 ** i for i in range(7))
    table = approximation_convergence_check(f, u_smooth, phi_bump, eps)
    gaps = [g for _, g in table]
    assert gaps[-1] < 1e-8
    assert gaps[-1] < 1e-3 * gaps[0]


def test_representation_theta_bounded_by_sigma(field_gt, u_mixed):
    rep = pairing_by_representation(field_gt, u_mixed)
    xs = np.linspace(-1.9, 1.9, 41)
    sig = np.asarray(field_gt.sigma(xs), float)
    for x, s in zip(xs, sig):
        assert abs(rep.theta(float(x))) <= s + 1e-9
