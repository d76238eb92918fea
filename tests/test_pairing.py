"""Pairing routes, cylindrical averages, coarea/chain-rule/mass-bound checks."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from pairinglab.bv import (BvFunction1D, Disc, JumpPoint, Piecewise1D,
                           PiecewiseConstantBv2D, PolygonRegion,
                           gradient_measure)
from pairinglab import bv as bv_module
from pairinglab import measures as measures_module
from pairinglab import pairing, quadrature
from pairinglab.errors import (AssumptionViolation, CylAverageDiverged,
                              FormMismatch)
from pairinglab.fields import FieldB, field_catalog, make_field
from pairinglab.measures import TestFunction1D, TestFunction2D
from pairinglab.scenarios import (CheckSpec, _windows_for, load_catalog,
                                  run_check)
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
    rep = pairing_by_representation(f, u_stair)
    v2 = rep.integrate(phi_bump)
    v3 = pairing_by_traces(f, u_stair, rep).integrate(phi_bump)
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
    rep = pairing_by_representation(f, u)
    v2 = rep.integrate(phi_radial)
    v3 = pairing_by_traces(f, u, rep).integrate(phi_radial)
    assert abs(v1) > 1.0
    tol = 1e-6 * (1.0 + abs(v1))
    assert abs(v1 - v2) < tol
    assert abs(v1 - v3) < tol
    # the level regions of a negative value carry sign -1 in the slices
    assert coarea_pairing_check(f, u, phi_radial, dist=v1)[2] < 1e-6
    assert coarea_variation_check(f, u, phi_radial, rep=rep)[2] < 1e-5


def test_representation_theta_uses_the_nearest_region():
    # b(x) = x; on the boundary of each disc theta is b . nu_u averaged over
    # that disc's jump range: |x| on both, for the value 1 disc (nu_u
    # inward) and the value -0.6 disc (nu_u outward) alike
    u = PiecewiseConstantBv2D(((-2.0, 2.0), (-2.0, 2.0)),
                              ((Disc((-1.2, 0.0), 0.5), 1.0),
                               (Disc((1.2, 0.0), 0.5), -0.6)))
    theta = pairing_by_representation(field_catalog("linear2d"), u).theta
    assert abs(theta((1.7, 0.0)) - 1.7) < 1e-9
    assert abs(theta((-0.7, 0.0)) - 0.7) < 1e-9


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


@pytest.mark.parametrize("kind, nu, x, message, calls", [
    ("xt", 1.0, 0.4, "inner limit did not settle within depth", 24),
    ("linear2d", (1.0, 0.0), (0.3, -0.2),
     "outer limit did not settle within depth", 24 * 24),
])
def test_cyl_average_unsettled_spends_full_depth(kind, nu, x, message, calls):
    # a negative threshold can never be met: every limit runs to depth 24
    field = field_catalog(kind)
    seen = []

    def counted(p, t):
        seen.append(1)
        return field.eval(p, t)

    got = cylindrical_average(dataclasses.replace(field, eval=counted), 0.5,
                              nu, x, threshold=-1.0)
    assert not got.converged
    assert got.message == message
    assert math.isfinite(got.value)
    assert len(seen) == calls


def test_a_strict_average_that_does_not_settle_raises(field_gt,
                                                      monkeypatch):
    # converged at the default threshold 1e-7 but not at the 1e-10 that
    # the representation asks for: no looser retry may turn it into a value
    asked = []

    def average(field, t, nu, x, threshold=1e-7):
        asked.append(threshold)
        return pairing.CylAverage(1.0, threshold >= 1e-7,
                                  "" if threshold >= 1e-7 else "unsettled")

    monkeypatch.setattr(pairing, "cylindrical_average", average)
    with pytest.raises(CylAverageDiverged, match="unsettled"):
        jump_theta(field_gt, 0.3, 0.7, 0.7, 1.0)
    assert asked == [1e-10]


def test_jump_theta_constant_field(field_const):
    th = jump_theta(field_const, 0.3, 0.2, 1.2, 1.0)
    assert abs(th - 1.0) < 1e-10
    th = jump_theta(field_const, 0.3, 0.2, 1.2, -1.0)
    assert abs(th + 1.0) < 1e-10


def _counted(monkeypatch, name):
    """Replace pairing.<name> by a wrapper that records each call's args."""
    calls = []
    real = getattr(pairing, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pairing, name, counted)
    return calls


def test_theta_near_a_jump_reads_the_stored_average(field_gt, u_jump,
                                                    monkeypatch):
    # theta within 1e-12 of a jump is the atom's average, taken once when
    # the measure is built
    calls = _counted(monkeypatch, "jump_theta")
    rep = pairing_by_representation(field_gt, u_jump)
    assert len(calls) == 1
    (j,) = u_jump.jumps
    assert rep.theta(j.location + 1e-13) == rep.theta(j.location)
    assert len(calls) == 1


def test_2d_theta_at_a_singular_point_takes_the_cylindrical_average(
        monkeypatch):
    # b = x/|x| is singular at 0, a boundary point of the disc: theta there
    # is the double-limit average of b . nu, which vanishes by symmetry
    calls = _counted(monkeypatch, "cylindrical_average")
    u = PiecewiseConstantBv2D(((-2.0, 2.0), (-2.0, 2.0)),
                              ((Disc((1.0, 0.0), 1.0), 1.0),))
    theta = pairing_by_representation(field_catalog("radial2d"), u).theta
    assert abs(theta(np.array([0.0, 0.0]))) < 1e-12
    assert calls and all(np.array_equal(x, (0.0, 0.0))
                         for *_, x in calls)


def _check_normal_trace(region, want):
    f = field_catalog("linear2d")
    for kw, count in (({"nsample": 8}, 8), ({}, 24)):
        tr = normal_trace(f, 1.0, region, **kw)
        assert len(tr.points) == len(tr.values) == count and tr.converged
        assert np.max(np.abs(np.asarray(tr.values) - want)) < 1e-9


def test_normal_trace_on_unit_circle():
    # b = x and the interior normal is -x/|x|, so b . nu = -1 on the circle
    _check_normal_trace(Disc((0.0, 0.0), 1.0), -1.0)


def test_normal_trace_on_square():
    # on each edge of the square of half-width 0.8, b . nu = -0.8
    _check_normal_trace(
        PolygonRegion(((-0.8, -0.8), (0.8, -0.8), (0.8, 0.8), (-0.8, 0.8))),
        -0.8)
    with pytest.raises(TypeError):
        normal_trace(field_catalog("linear2d"), 1.0, (0.0, 0.0))


# ---------------------------------------------------------------------------
# theorem checks


def test_coarea_checks_staircase(field_gt, u_stair, phi_bump):
    dist = pairing_distributional(field_gt, u_stair, phi_bump)
    lhs, rhs, res = coarea_pairing_check(field_gt, u_stair, phi_bump, dist)
    assert res < 1e-6
    rep = pairing_by_representation(field_gt, u_stair)
    lhs, rhs, res = coarea_variation_check(field_gt, u_stair, phi_bump, rep)
    assert res < 1e-5


def test_coarea_checks_batch_their_levels(monkeypatch):
    """On s12 the two coarea checks find the crossings of all the levels of
    an outer t-integrand call (of the one adaptive_simpson_many call of
    bv._coarea_rhs) with one batched call, and never run a scalar root
    finder."""
    ctx = load_catalog()["s12_smooth_sep"].resolve()
    dist = ctx.distributional()
    rep = pairing_by_representation(ctx.field, ctx.u)
    counts = {"outer": 0, "level_crossings_many": 0, "brentq": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    simpson = bv_module.adaptive_simpson_many
    monkeypatch.setattr(bv_module, "adaptive_simpson_many",
                        lambda f, *a, **kw: simpson(counted("outer", f),
                                                    *a, **kw))
    monkeypatch.setattr(BvFunction1D, "level_crossings_many", counted(
        "level_crossings_many", BvFunction1D.level_crossings_many))
    monkeypatch.setattr(bv_module, "brentq", counted(
        "brentq", getattr(bv_module, "brentq", scipy.optimize.brentq)),
        raising=False)
    _, _, res = coarea_pairing_check(ctx.field, ctx.u, ctx.phi, dist=dist)
    assert res < 1e-6
    _, _, res = coarea_variation_check(ctx.field, ctx.u, ctx.phi, rep=rep)
    assert res < 1e-5
    assert counts["outer"] > 0
    assert counts["level_crossings_many"] == counts["outer"]
    assert not hasattr(BvFunction1D, "level_crossings")
    assert counts["brentq"] == 0


@pytest.mark.parametrize("sid, check, batched, points", [
    ("s20_smoothdisc_linear2d", "pairing", ("_settle_many",), 1094400),
    ("s21_smoothdisc_gt2d", "variation", ("adaptive_simpson_many",), 174825),
])
def test_2d_coarea_slices_batch_their_levels(sid, check, batched, points,
                                             monkeypatch):
    """Every outer t-integrand call of a 2D coarea slice (of the one
    adaptive_simpson_many call of bv._coarea_rhs) makes one call of
    each batched driver (quadrature._settle_many settles every planar
    driver's owners); the field is evaluated at the recorded number of
    (level, point) pairs, ``points``, never at more than the block in one
    call."""
    ctx = load_catalog()[sid].resolve()
    work = {"points": 0, "largest": 0}
    counts = dict.fromkeys(batched, 0)
    slicing = []    # the counted calls under way

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if "outer" in slicing or name == "outer":
                counts[name] = counts.get(name, 0) + 1
            slicing.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                slicing.pop()
        return wrapper

    simpson = bv_module.adaptive_simpson_many
    monkeypatch.setattr(bv_module, "adaptive_simpson_many",
                        lambda f, *a, **kw: simpson(counted("outer", f),
                                                    *a, **kw))
    for name in batched:
        monkeypatch.setattr(quadrature, name,
                            counted(name, getattr(quadrature, name)))
    evaluate = ctx.field.eval

    def field_eval(x, t):
        n = np.broadcast(np.asarray(x)[..., 0], t).size
        work["points"] += n if "outer" in slicing else 0
        work["largest"] = max(work["largest"], n)
        return evaluate(x, t)

    field = dataclasses.replace(ctx.field, eval=field_eval)
    if check == "pairing":
        _, _, res = coarea_pairing_check(field, ctx.u, ctx.phi,
                                         dist=ctx.distributional())
    else:
        rep = pairing_by_representation(ctx.field, ctx.u)
        _, _, res = coarea_variation_check(field, ctx.u, ctx.phi, rep=rep)
    assert res < 1e-6
    outer = counts.pop("outer")
    assert outer > 0
    assert {name: counts.pop(name) for name in batched} \
        == dict.fromkeys(batched, outer)
    assert not any(counts.values()), counts
    assert work["points"] == points
    assert work["largest"] <= quadrature._T_BLOCK


def _dist_1e10(field, u, phi):
    """The dist that the scenario checks take:
    ResolvedScenario.distributional()."""
    return pairing_distributional(field, u, phi, tol=1e-10, form_check=False)


def test_chain_rule_small_residual(field_gt, u_mixed, phi_bump):
    rep = pairing_by_representation(field_gt, u_mixed)
    dist = _dist_1e10(field_gt, u_mixed, phi_bump)
    lhs, rhs, res = chain_rule_check(phi_bump, dist, rep)
    assert res == abs(lhs - rhs) < 1e-8
    # lhs is the B-built distributional value, rhs the b-built measure
    assert lhs == dist
    assert rhs == rep.integrate(phi_bump, tol=1e-10)


def test_lipschitz_comparison_holds(field_gt, u_jump, phi_bump):
    dist = _dist_1e10(field_gt, u_jump, phi_bump)
    for lhs, rhs in lipschitz_comparison_check(
            field_gt, u_jump, (-0.1, 0.5, 0.7, 1.0, 1.5), phi_bump, dist):
        assert lhs <= rhs + 1e-8


def test_lipschitz_comparison_fails_on_forced_violation(field_gt, u_jump,
                                                        phi_bump):
    # at tol = -10 the bound lhs <= rhs + tol cannot hold: the function
    # returns its numbers, and the check's one verdict fails on them
    dist = _dist_1e10(field_gt, u_jump, phi_bump)
    [(lhs, rhs)] = lipschitz_comparison_check(field_gt, u_jump, (0.5,),
                                              phi_bump, dist)
    assert lhs > rhs - 10.0
    ctx = load_catalog()["s04_jump_gt"].resolve()  # the same b, u and phi
    out = run_check(ctx, CheckSpec("lipschitz", -10.0, {"taus": [0.5]}))
    assert out.passed is False and "error" not in out.diagnostics
    assert out.lhs == lhs - rhs and math.isfinite(out.residual)


# (tau, <(b_tau, Du), phi>) of s09 at its five lipschitz taus, as float.hex,
# under the Gauss-Kronrod 7/15 driver: one walk per tau gives these bits
S09_FROZEN = (("-0x1.3333333333333p-2", "0x1.5aa437217b0b2p-1"),
              ("0x1.999999999999cp-4", "0x1.ab0b7bee9a2a8p-1"),
              ("0x1.0000000000000p-1", "0x1.f83e29b3626e4p-1"),
              ("0x1.ccccccccccccep-1", "0x1.1b061462e710ep+0"),
              ("0x1.4cccccccccccdp+0", "0x1.2d59c3923eff5p+0"))


def test_s09_frozen_pairings_keep_their_bits():
    ctx = load_catalog()["s09_cantor_gt"].resolve()
    lo, hi = ctx.u.value_range()
    taus = [float.fromhex(t) for t, _ in S09_FROZEN]
    assert taus == np.linspace(lo - 0.3, hi + 0.3, 5).tolist()
    vals = pairing._frozen_pairings(ctx.field, ctx.u, ctx.phi, taus, 1e-10)
    assert [v.hex() for v in vals] == [v for _, v in S09_FROZEN]


def test_mass_bound_windows(field_gt, u_mixed):
    windows = [(-2.0 + 0.4 * i, -1.6 + 0.4 * i) for i in range(10)]
    out = mass_bound_check(field_gt, u_mixed, windows,
                           pairing_by_representation(field_gt, u_mixed))
    assert len(out) == 10
    assert all(r["excess"] <= 1e-9 for r in out)


@given(lo=st.floats(-2.0, 1.9), width=st.floats(0.01, 1.5))
@settings(max_examples=25, deadline=None)
def test_mass_bound_random_windows(lo, width, field_gt, u_stair):
    hi = min(lo + width, 2.0)
    out = mass_bound_check(field_gt, u_stair, [(lo, hi)],
                           pairing_by_representation(field_gt, u_stair))
    assert out[0]["excess"] <= 1e-9
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
    (out,) = mass_bound_check(ctx.field, ctx.u, [window],
                              ctx.representation())
    assert (out["lhs"], out["bound"]) == (lhs, bound)


def test_variation_masses_1d(u_mixed, field_gt):
    windows = [(-1.7, -0.9), (-0.2, 1.4), (2.5, 3.0), (-3.0, 3.0)]
    for m in (pairing_by_representation(field_gt, u_mixed).measure,
              gradient_measure(u_mixed)):
        want = [m.restrict(E).variation().total_mass() for E in windows]
        assert m.variation_masses(windows) == want


def test_mass_bound_integrates_all_windows_in_one_simpson_call(monkeypatch):
    # s12 has 20 mass windows: the |density| of every window, for each of
    # the two measures, goes through one adaptive_simpson_many call
    ctx = load_catalog()["s12_smooth_sep"].resolve()
    windows = _windows_for(ctx, 20)
    rep = ctx.representation()
    calls = []
    simpson = quadrature.adaptive_simpson_many

    def counted(*args, **kwargs):
        calls.append(None)
        return simpson(*args, **kwargs)

    for module in (quadrature, measures_module):
        monkeypatch.setattr(module, "adaptive_simpson_many", counted)
    out = mass_bound_check(ctx.field, ctx.u, windows, rep)
    assert len(out) == 20 and all(w["excess"] <= 1e-9 for w in out)
    assert len(calls) == 2


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
    assert [r["excess"] <= 1e-9 for r in out] == [False, False, True]
    # whole circle: |mu| = int |(2, 1).nu| ds = 4 sqrt(5) against the bound
    # |(1, 0.5)| 2 pi = 7.02...
    assert out[0]["lhs"] == pytest.approx(4.0 * math.sqrt(5.0), rel=1e-6)
    assert out[0]["bound"] == pytest.approx(math.sqrt(1.25) * 2.0 * math.pi,
                                            rel=1e-6)


def test_approximation_gap_decreases(u_smooth, phi_bump):
    # sep has genuine x-curvature, so the mollification gap is O(eps^2)
    f = field_catalog("sep")
    eps = tuple(0.04 * 0.5 ** i for i in range(7))
    table = approximation_convergence_check(
        f, u_smooth, phi_bump, eps, _dist_1e10(f, u_smooth, phi_bump))
    gaps = [g for _, g in table]
    assert gaps[-1] < 1e-8
    assert gaps[-1] < 1e-3 * gaps[0]


def test_representation_theta_bounded_by_sigma(field_gt, u_mixed):
    rep = pairing_by_representation(field_gt, u_mixed)
    xs = np.linspace(-1.9, 1.9, 41)
    sig = np.asarray(field_gt.sigma(xs), float)
    for x, s in zip(xs, sig):
        assert abs(rep.theta(float(x))) <= s + 1e-9


# ---------------------------------------------------------------------------
# fields whose primitive does not match b: the library form check and
# chain_rule, the scenarios' gate, both catch them


def _mutant(field, **wrong):
    """A copy of ``field`` with the evaluators named in ``wrong`` replaced:
    wrong[name](f, x, t) is the new value, f the true evaluator."""
    kwargs = {k.name: getattr(field, k.name)
              for k in dataclasses.fields(field)}
    for name, g in wrong.items():
        kwargs[name] = lambda x, t, _f=kwargs[name], _g=g: _g(_f, x, t)
    return FieldB(**kwargs)


def _shift_t(f, x, t):
    return f(x, t) + 1e-3 * np.asarray(t, float)


def _shift_tx(f, x, t):
    return f(x, t) + 1e-3 * np.asarray(t, float)[..., None] \
        * np.asarray(x, float)


def _field_mutants(field):
    """{name: mutant} of ``field``, each with a B or Div_x B that no longer
    matches b."""
    return {
        "inconsistent": _mutant(
            field, primitive=lambda f, x, t: 1.3 * f(x, t) + 0.2,
            div_primitive=lambda f, x, t: 0.5 * f(x, t) + 0.7),
        "B_off_by_t": _mutant(
            field, primitive=_shift_tx if field.dim == 2 else _shift_t),
        "divB_off_by_t": _mutant(field, div_primitive=_shift_t),
    }


def _off_by(field, name):
    """A copy of ``field`` whose ``name`` evaluator is off by 1e-3 t.

    A 2D primitive is off by 1e-3 t x: a shift that is constant in x
    pairs to zero with the gradient of a radial phi on a concentric disc.
    """
    bad = _field_mutants(field)[
        "B_off_by_t" if name == "primitive" else "divB_off_by_t"]
    # make_field's finite-difference checks already reject a primitive
    # that does not match b; the gate must catch it on its own
    kwargs = {k.name: getattr(bad, k.name) for k in dataclasses.fields(bad)}
    with pytest.raises(AssumptionViolation):
        make_field(**kwargs)
    return bad


def _chain_rule_residual(field, u, phi, rep=None):
    if rep is None:
        rep = pairing_by_representation(field, u)
    return chain_rule_check(phi, _dist_1e10(field, u, phi), rep)[2]


# phi's gradient does not vanish on the unit disc, so the primitive itself,
# not only its divergence, enters the pairing there
PHI_SLOPE = TestFunction2D.radial((0.0, 0.0), 0.5, 1.9)


@pytest.mark.parametrize("wrong", ["primitive", "div_primitive"])
@pytest.mark.parametrize("kind", ["const", "gt"])
def test_form_check_catches_a_wrong_primitive_1d(kind, wrong, u_cantor,
                                                 u_jump, phi_plateau,
                                                 phi_bump):
    field = field_catalog(kind)
    bad = _off_by(field, wrong)
    assert u_cantor.cantor.ladder.depth == 18
    for u, phi in ((u_cantor, phi_plateau), (u_jump, phi_bump)):
        with pytest.raises(FormMismatch):
            pairing_distributional(bad, u, phi)
        # chain_rule, which the scenarios run instead, fails on it too
        assert _chain_rule_residual(bad, u, phi) > 1e-8
    pairing_distributional(field, u_jump, phi_bump)   # the right one passes
    assert _chain_rule_residual(field, u_jump, phi_bump) < 1e-12


@pytest.mark.parametrize("wrong", ["primitive", "div_primitive"])
def test_form_check_catches_a_wrong_primitive_2d(wrong, u_disc):
    field = field_catalog("linear2d")
    bad = _off_by(field, wrong)
    with pytest.raises(FormMismatch):
        pairing_distributional(bad, u_disc, PHI_SLOPE)
    assert _chain_rule_residual(bad, u_disc, PHI_SLOPE) > 1e-8
    pairing_distributional(field, u_disc, PHI_SLOPE)
    assert _chain_rule_residual(field, u_disc, PHI_SLOPE) < 1e-12


# in these 2D scenarios grad phi = 0 wherever u != 0, so B itself enters
# no pairing there, only its divergence: B off by 1e-3 t x is invisible
CHAIN_RULE_SURVIVORS = {("B_off_by_t", sid) for sid in (
    "s15_disc_linear2d", "s16_disc_const2d", "s17_disc_gt2d",
    "s19_square_linear2d", "s20_smoothdisc_linear2d", "s21_smoothdisc_gt2d")}


def test_chain_rule_kills_every_field_mutant_of_the_catalog():
    """chain_rule, at its catalog tolerance, fails on 3 field mutants of
    every shipped scenario, except the recorded 2D survivors; on those the
    library form check passes too, so chain_rule misses nothing that it
    catches."""
    survived = set()
    for sid, sc in load_catalog().items():
        ctx = sc.resolve()
        tol, = [c.tolerance for c in sc.checks if c.name == "chain_rule"]
        # the representation is built from b alone, which no mutant changes
        rep = ctx.representation()
        assert _chain_rule_residual(ctx.field, ctx.u, ctx.phi, rep) <= tol
        for name, bad in _field_mutants(ctx.field).items():
            res = _chain_rule_residual(bad, ctx.u, ctx.phi, rep)
            assert math.isfinite(res), (name, sid)
            if not res > tol:
                survived.add((name, sid))
                pairing_distributional(bad, ctx.u, ctx.phi)
    assert survived == CHAIN_RULE_SURVIVORS


# ---------------------------------------------------------------------------
# the form check: one fused, blocked t-integral per integrand call


@pytest.mark.parametrize("kinks", [(), (-1.0, 0.5)])
def test_blocked_t_integral_equals_unblocked(kinks, monkeypatch):
    rng = np.random.default_rng(7)
    x = rng.uniform(-2.0, 2.0, (700, 6))
    uv = rng.uniform(-3.0, 3.0, (700, 6))          # both signs
    assert (uv < 0).any() and (uv > 0).any()
    seen = []

    def fn(ts, xb):
        seen.append(ts.size)
        return np.sin(xb[..., None] + ts) * (1.0 + np.abs(ts - 0.5))

    def run(block):
        monkeypatch.setattr(quadrature, "_T_BLOCK", block)
        seen.clear()
        out = quadrature.t_integral(fn, 0.0, uv, x, kinks=kinks)
        assert max(seen) <= max(block, 24 * (len(kinks) + 1) * 6)
        return out, len(seen)

    default = quadrature._T_BLOCK
    whole, calls = run(1 << 40)
    assert calls == 1
    for block in (1, 1000, default):
        blocked, calls = run(block)
        assert calls > 1
        assert np.array_equal(blocked, whole)


def _panel_gauss_sum(fn, lo, hi, kinks, n):
    """int_lo^hi fn(t) dt as the sum of n-point Gauss sums on the panels
    between lo, the kinks strictly inside and hi, one panel at a time."""
    a, b = sorted((lo, hi))
    edges = [a, *(kk for kk in sorted(kinks) if a < kk < b), b]
    total = sum(np.tensordot(w, fn(t), axes=(0, 0)) for t, w in (
        quadrature.gauss_nodes(t0, t1, n) for t0, t1 in zip(edges, edges[1:])))
    return total if hi >= lo else -total


@pytest.mark.parametrize("kinks", [(), (-1.0, 0.5)])
@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
def test_t_integral_sums_the_gauss_panels(kinks, vector, monkeypatch):
    # lo != 0 and hi < lo, for a scalar and a vector integrand, blocked and
    # not, against per-panel gauss_nodes sums
    rng = np.random.default_rng(11)
    x = rng.uniform(-2.0, 2.0, (40, 3))
    lo = rng.uniform(-3.0, 3.0, (40, 3))
    hi = rng.uniform(-3.0, 3.0, (40, 3))
    assert (hi < lo).any() and (hi > lo).any() and (lo != 0).all()

    def g(t, xv):
        s = np.sin(xv + t) * (1.0 + np.abs(t - 0.5))
        return np.stack([s, np.cos(xv * t)], axis=-1) if vector else s

    got = quadrature.t_integral(lambda ts, xb: g(ts, xb[..., None]), lo, hi,
                                x, kinks=kinks, n=12)
    assert got.shape == lo.shape + ((2,) if vector else ())
    for i in np.ndindex(lo.shape):
        want = _panel_gauss_sum(lambda t: g(t, x[i]), lo[i], hi[i], kinks,
                                12)
        assert np.allclose(got[i], want, rtol=1e-13, atol=1e-14)
    monkeypatch.setattr(quadrature, "_T_BLOCK", 30)
    assert np.array_equal(quadrature.t_integral(
        lambda ts, xb: g(ts, xb[..., None]), lo, hi, x, kinks=kinks, n=12),
        got)
