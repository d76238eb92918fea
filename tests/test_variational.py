"""Functionals, recovery sequences, continuity, lsc, relaxation, blow-ups."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairinglab import bv, measures, pairing, quadrature, variational
from pairinglab.errors import AssumptionViolation
from pairinglab.fields import field_catalog
from pairinglab.pairing import pairing_by_representation
from pairinglab.quadrature import adaptive_simpson
from pairinglab.scenarios import CheckSpec, load_catalog, run_check
from pairinglab.variational import (ApproximatingSequence, Functionals,
                                    MollifiedBv1D, _kernel_cdf, _kernel_rho,
                                    blowup_density, continuity_check_Gphi,
                                    liminf_tail, lsc_check,
                                    order_relation_check, relaxation_check,
                                    sigma_k_identity_check, truncate_bv)

DOMAIN = (-2.0, 2.0)


# ---------------------------------------------------------------------------
# smoothing kernel and recovery elements


def test_kernel_normalisation():
    assert abs(_kernel_cdf(1.0) - 1.0) < 1e-15
    assert abs(_kernel_cdf(-1.0)) < 1e-15
    assert abs(_kernel_cdf(0.0) - 0.5) < 1e-15
    # quartic bump value at the center: 15/16
    assert abs(_kernel_rho(0.0) - 15.0 / 16.0) < 1e-15
    assert _kernel_rho(1.0) == 0.0


def test_kernel_cdf_is_exact_at_its_ends():
    ends = np.array([-3.0, -1.0, 1.0, 2.5])
    assert _kernel_cdf(ends).tolist() == [0.0, 0.0, 1.0, 1.0]
    assert _kernel_cdf(-1.0) == 0.0 and _kernel_cdf(1.0) == 1.0


def test_kernel_cdf_matches_the_exact_quartic():
    # against 1/2 + 15/16 (t - 2 t^3 / 3 + t^5 / 5) in exact rationals:
    # within 2 ulp of 1/2, the scale of the sum's rounding, and never
    # outside [0, 1] (the power form gave -1.1e-16 at t = -1)
    ts = np.linspace(-1.0, 1.0, 2001)
    got = _kernel_cdf(ts)
    assert got.min() >= 0.0 and got.max() <= 1.0
    half = Fraction(1, 2)
    for t, v in zip(ts.tolist(), got.tolist()):
        x = Fraction(t)
        exact = half + Fraction(15, 16) * (x - 2 * x ** 3 / 3 + x ** 5 / 5)
        assert abs(Fraction(v) - exact) <= 2 * Fraction(np.spacing(0.5))


def test_mollified_jump_midpoint_and_tails(u_jump):
    m = MollifiedBv1D(u_jump, 0.05)
    assert abs(m.value(np.array([0.3]))[0] - 0.7) < 1e-12
    xs = np.array([-1.0, 0.1, 0.6, 1.5])
    assert np.max(np.abs(m.value(xs) - u_jump.evaluate(xs))) < 1e-12


def test_mollified_derivative_consistent_with_value(u_mixed):
    m = MollifiedBv1D(u_mixed, 0.04)
    rng = np.random.default_rng(1)
    xs = rng.uniform(-1.9, 1.9, 25)
    h = 1e-7
    num = (m.value(xs + h) - m.value(xs - h)) / (2.0 * h)
    assert np.max(np.abs(num - m.derivative(xs))) < 1e-5


def _l1_gap(m, u):
    xs = np.linspace(*u.domain, 40001)
    return np.trapezoid(np.abs(m.value(xs) - u.evaluate(xs)), xs)


def test_mollified_l1_gap_shrinks(u_jump):
    gaps = [_l1_gap(MollifiedBv1D(u_jump, e), u_jump)
            for e in (0.08, 0.04, 0.02, 0.01)]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    # the L1 gap of a smoothed unit jump is O(eps)
    assert gaps[-1] < 0.01


def test_mollified_total_variation_matches_base(u_stair):
    m = MollifiedBv1D(u_stair, 0.03)
    tv = adaptive_simpson(lambda x: np.abs(m.derivative(x)), *u_stair.domain,
                          breakpoints=m.breakpoints())
    base = u_stair.gradient_measure().variation().total_mass()
    assert abs(tv - base) < 1e-6


def _dense_cantor_sum(self, x, kernel, cumulative=False):
    """Reference: the kernel summed over every leaf, for every point of
    the carrier window, as before the sum was windowed."""
    out = np.zeros(x.shape)
    lo = self.leaf_mids[0] - self.epsilon
    hi = self.leaf_mids[-1] + self.epsilon
    if cumulative:
        out[x >= hi] = self.leaf_mass * self.leaf_mids.size
    idx = np.nonzero((x > lo) & (x < hi))[0]
    for k in range(0, idx.size, 128):
        sel = idx[k:k + 128]
        out[sel] = self.leaf_mass * kernel(
            x[sel][:, None] - self.leaf_mids).sum(axis=1)
    return out


@pytest.mark.parametrize("sid", ["s08_cantor_const", "s11_mixed_tanh"])
def test_windowed_cantor_sums_match_dense(sid, monkeypatch):
    u = load_catalog()[sid].resolve().u
    a, b = u.cantor.ladder.interval
    for eps in (0.04 * 0.5 ** i for i in range(12)):   # relaxation schedule
        m = MollifiedBv1D(u, eps)
        mids = m.leaf_mids
        xs = np.concatenate([
            np.linspace(a, b, 1001),                       # carrier
            np.linspace(a - 0.3, a - 2 * eps, 5),          # outside it
            np.linspace(b + 2 * eps, b + 0.3, 5),
            mids[::max(1, mids.size // 256)] + 0.3 * eps,  # near leaves
            [mids[0] - eps, mids[0] + eps, mids[-1] - eps, mids[-1] + eps]])
        value, deriv = m.value(xs), m.derivative(xs)
        with monkeypatch.context() as mp:
            mp.setattr(MollifiedBv1D, "_cantor_sum", _dense_cantor_sum)
            ref_value, ref_deriv = m.value(xs), m.derivative(xs)
        assert np.max(np.abs(value - ref_value)) <= 1e-14, eps
        # relative; the floor covers a point at mid - eps exactly, where
        # the dense loop adds nothing and the window adds rho(-1 + ulp)
        np.testing.assert_allclose(deriv, ref_deriv, rtol=1e-14, atol=1e-14)


# ---------------------------------------------------------------------------
# functionals and order relations


def test_functionals_constant_field_jump(u_jump):
    b = field_catalog("const", c=-1.5)
    fn = Functionals(b, window=None)
    rep = pairing_by_representation(b, u_jump)
    assert abs(fn.G(rep) + 1.5) < 1e-9
    assert abs(fn.F(rep) - 1.5) < 1e-9
    assert abs(fn.Gplus(rep) - 0.0) < 1e-9


def test_functionals_reject_a_bv_function_passed_as_itself(u_jump):
    with pytest.raises(TypeError, match="pairing_by_representation"):
        Functionals(field_catalog("const", c=-1.5)).F(u_jump)


def test_functionals_g_phi_oracle(u_jump, phi_bump):
    b = field_catalog("gt")
    fn = Functionals(b, window=None)
    atom = 1.0 + 0.5 * (math.cos(0.2) - math.cos(1.2))
    expect = atom * float(phi_bump(np.array([0.3]))[0])
    rep = pairing_by_representation(b, u_jump)
    assert abs(fn.G_phi(rep, phi_bump) - expect) < 1e-8


def _order_residual(d):
    """The largest violation of the order relations among the values d,
    relative to 1 + |F|: the residual of the order_relations check."""
    f, g, gp = d["F"], d["G"], d["Gplus"]
    return max(0.0, gp - f, max(g, 0.0) - gp, abs(g) - f) / (1.0 + abs(f))


def test_order_relations_mixed(u_mixed):
    for kind in ("const", "gt", "sep"):
        b = field_catalog(kind)
        d = order_relation_check(b, pairing_by_representation(b, u_mixed))
        assert _order_residual(d) <= 1e-9
        assert d["F"] >= d["Gplus"] - 1e-9
        assert d["Gplus"] >= max(d["G"], 0.0) - 1e-9


@given(c=st.floats(-2.0, 2.0))
@settings(max_examples=12, deadline=None)
def test_order_relation_constant_fields(c, u_stair):
    b = field_catalog("const", c=c)
    d = order_relation_check(b, pairing_by_representation(b, u_stair))
    assert _order_residual(d) <= 1e-9
    assert d["F"] >= abs(d["G"]) - 1e-9


# ---------------------------------------------------------------------------
# smooth functional values


def test_liminf_tail_uses_last_values():
    vals = [10.0, 9.0, 3.0, 2.0, 1.5, 1.2, 1.1, 1.05]
    assert liminf_tail(vals) == 1.05
    assert liminf_tail([5.0]) == 5.0


# ---------------------------------------------------------------------------
# continuity, lsc, relaxation, blow-up


def test_continuity_mollified_jump(u_jump, phi_bump):
    b = field_catalog("const", c=1.0)
    eps = tuple(0.03 * 0.5 ** i for i in range(8))
    seq = ApproximatingSequence.mollified(u_jump, eps)
    res = continuity_check_Gphi(b, phi_bump, seq, u_jump,
                                pairing_by_representation(b, u_jump))
    expect = float(phi_bump(np.array([0.3]))[0])
    assert abs(res.target - expect) < 1e-9
    assert res.gaps[-1] <= 1e-5


def test_continuity_constant_sequence_exact(u_stair, phi_bump):
    b = field_catalog("gt")
    seq = ApproximatingSequence.constant(u_stair)
    res = continuity_check_Gphi(b, phi_bump, seq, u_stair,
                                pairing_by_representation(b, u_stair))
    assert max(res.gaps) < 1e-12


def test_lsc_equality_for_mollified_jump(u_jump):
    b = field_catalog("const", c=1.0)
    eps = tuple(0.03 * 0.5 ** i for i in range(8))
    seq = ApproximatingSequence.mollified(u_jump, eps)
    res = lsc_check(b, "F", seq, u_jump, pairing_by_representation(b, u_jump))
    assert res.margin >= -1e-6
    assert abs(res.margin) <= 1e-5  # equality case
    assert res.truncation_k >= u_jump.sup_norm() + 1.0
    assert res.truncation_residual <= 1e-9


def test_lsc_strict_for_oscillation(u_smooth):
    b = field_catalog("sep")
    seq = ApproximatingSequence.oscillation(u_smooth,
                                            (4, 8, 16, 32, 64, 128))
    res = lsc_check(b, "F", seq, u_smooth,
                    pairing_by_representation(b, u_smooth))
    # the added oscillation inflates the variation, so liminf > target
    assert res.margin > 0.1


def test_lsc_oscillation_rejects_jumpy_base(u_jump):
    with pytest.raises(AssumptionViolation):
        ApproximatingSequence.oscillation(u_jump, (4, 8))


def test_lsc_fails_at_impossible_tolerance(u_jump):
    b = field_catalog("const", c=1.0)
    seq = ApproximatingSequence.mollified(u_jump, (0.2, 0.1))
    res = lsc_check(b, "F", seq, u_jump, pairing_by_representation(b, u_jump))
    assert res.margin < 1.0  # margin >= -tol cannot hold at tol = -1
    # s03 is the same b and u; eps0 and count give the same sequence
    ctx = load_catalog()["s03_jump_const"].resolve()
    out = run_check(ctx, CheckSpec("lsc", -1.0, {"eps0": 0.2, "count": 2}))
    assert out.passed is False and "error" not in out.diagnostics
    assert (out.lhs, out.rhs) == (res.liminf, res.target)
    assert out.residual == max(0.0, -res.margin)


def test_lsc_judges_its_truncation_residual(monkeypatch):
    # truncating b above every |u_n| must leave F(u) alone; a truncation
    # that moves it by 1% fails the check, not just its diagnostics
    real = variational.truncate

    def times(g):
        return lambda x, t: 1.01 * np.asarray(g(x, t))

    def scaled(b, k):
        bk = real(b, k)
        return dataclasses.replace(
            bk, eval=times(bk.eval), div_x=times(bk.div_x),
            primitive=times(bk.primitive),
            div_primitive=times(bk.div_primitive))

    monkeypatch.setattr(variational, "truncate", scaled)
    sc = load_catalog()["s03_jump_const"]
    out = run_check(sc.resolve(), next(c for c in sc.checks
                                       if c.name == "lsc"))
    assert out.passed is False and "error" not in out.diagnostics
    assert out.residual == out.diagnostics["truncation_residual"] > 1e-3


def test_relaxation_jump_scenario(u_jump, phi_bump):
    b = field_catalog("gt")
    eps = tuple(0.04 * 0.5 ** i for i in range(12))
    res = relaxation_check(b, u_jump, phi_bump, DOMAIN, eps,
                           pairing_by_representation(b, u_jump))
    assert res.gap <= 1e-4
    for br in res.jump_report:
        assert br.mismatch <= 1e-3


def test_s06_relaxation_keeps_its_integrand_point_count(monkeypatch):
    """The integrand points that s06's relaxation check (its recovery
    sequence, the limit's measure and their windows) sends through the 1D
    adaptive driver stay at or below the count of the Gauss-Kronrod 7/15
    rule, 10,065; the Simpson rule before it took 655,745."""
    scenario = load_catalog()["s06_stair_xt"]
    ctx = scenario.resolve()
    points = []
    driver = quadrature.adaptive_simpson_many

    def counted(f, *args, **kwargs):
        def integrand(x, owner):
            points.append(np.size(x))
            return f(x, owner)
        return driver(integrand, *args, **kwargs)

    for module in (quadrature, bv, measures, pairing):
        monkeypatch.setattr(module, "adaptive_simpson_many", counted)
    out = run_check(ctx, next(c for c in scenario.checks
                              if c.name == "relaxation"))
    assert out.passed
    assert 0 < sum(points) <= 10_065


def test_relaxation_carrier_needs_t_independent_field(u_cantor, phi_plateau):
    eps = tuple(0.04 * 0.5 ** i for i in range(12))
    b = field_catalog("gt")
    with pytest.raises(AssumptionViolation):
        relaxation_check(b, u_cantor, phi_plateau, DOMAIN, eps,
                         pairing_by_representation(b, u_cantor))


def test_relaxation_requires_long_schedule(u_jump, phi_bump):
    b = field_catalog("const", c=1.0)
    with pytest.raises(ValueError):
        relaxation_check(b, u_jump, phi_bump, DOMAIN, (0.04, 0.02),
                         pairing_by_representation(b, u_jump))


def test_blowup_at_jump_constant_field(u_jump):
    b = field_catalog("const", c=2.0)
    radii = tuple(0.02 * 0.5 ** i for i in range(6))
    br = blowup_density(u_jump, 0.3, radii,
                        pairing_by_representation(b, u_jump))
    assert br.converged
    assert abs(br.extrapolated - 2.0) < 1e-10
    assert br.mismatch < 1e-10


def test_blowup_on_cantor_carrier(u_cantor):
    b = field_catalog("const", c=1.0)
    lad = u_cantor.cantor.ladder
    radii = tuple(1.0 * lad.side ** i for i in range(2, 8))
    br = blowup_density(u_cantor, 0.0, radii,
                        pairing_by_representation(b, u_cantor))
    assert br.converged
    assert br.mismatch < 1e-3


# ---------------------------------------------------------------------------
# truncation


def test_truncate_bv_clips_jump_function(u_stair):
    v = truncate_bv(u_stair, 2.0)
    xs = np.array([-1.0, 0.0, 1.5])
    np.testing.assert_allclose(v.evaluate(xs), [0.0, 1.0, 2.0])
    assert v.sup_norm() <= 2.0


def test_truncate_bv_rejects_cantor(u_cantor):
    with pytest.raises(AssumptionViolation):
        truncate_bv(u_cantor, 2.0)


@pytest.mark.parametrize("k", [2.0, 3.0])
def test_sigma_k_identities_staircase(k, u_stair, phi_bump):
    # staircase values reach 2.5, beyond level k - 1 for both k
    assert u_stair.sup_norm() > k - 1.0
    b = field_catalog("xt")
    d = sigma_k_identity_check(b, u_stair, k,
                               pairing_by_representation(b, u_stair),
                               phi=phi_bump)
    assert d["diffuse"] <= 1e-6
    assert d["jump"] <= 1e-6
    assert d["g_invariance"] <= 1e-6


def test_sigma_k_builds_one_truncated_representation_per_k(monkeypatch):
    # the atoms, Theta(b^k) and G^k_phi(u) come from one representation of
    # (b^k, u); the other build is that of (b^k, T_k u)
    ctx = load_catalog()["s06_stair_xt"].resolve()
    rep = ctx.representation()
    built = []
    real = variational.pairing_by_representation

    def counted(field, u, **kwargs):
        built.append(u is ctx.u)
        return real(field, u, **kwargs)

    monkeypatch.setattr(variational, "pairing_by_representation", counted)
    for k in (2.0, 3.0):
        built.clear()
        d = sigma_k_identity_check(ctx.field, ctx.u, k, rep, phi=ctx.phi)
        assert built == [True, False]
        assert max(d["diffuse"], d["jump"], d["g_invariance"]) <= 1e-6
