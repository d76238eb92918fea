"""Acceptance gate: one test per acceptance criterion, full shipped catalog.

Each criterion appears as exactly one test below, so the verbose pytest
output contains one pass/fail line per criterion.  The shipped scenario
catalog is executed once per test session and the outcomes are shared.
"""

import math
import time

import numpy as np
import pytest

from pairinglab.bv import BvFunction1D
from pairinglab.fields import field_catalog
from pairinglab.pairing import cylindrical_average
from pairinglab.scenarios import CheckSpec, load_catalog, run_check

JUMP_SCENARIOS = ("s03_jump_const", "s04_jump_gt")
CANTOR_SCENARIO = "s08_cantor_const"
MIXED_SCENARIO = "s11_mixed_tanh"


@pytest.fixture(scope="module")
def catalog_results():
    """(scenario, check) -> (outcome, seconds) over the shipped catalog."""
    results = {}
    for sid, sc in load_catalog().items():
        ctx = sc.resolve()
        for spec in sc.checks:
            t0 = time.perf_counter()
            out = run_check(ctx, spec)
            results[(sid, spec.name)] = (out, time.perf_counter() - t0)
    return results


def _all(catalog_results, check):
    return {sid: out for (sid, name), (out, _) in catalog_results.items()
            if name == check}


def test_criterion_01_two_route_agreement(catalog_results):
    outs = _all(catalog_results, "two_route")
    assert len(outs) >= 12
    for sid, out in outs.items():
        assert out.residual <= 1e-6 * (1.0 + abs(out.lhs)), sid
    elapsed = sum(dt for (sid, name), (_, dt) in catalog_results.items()
                  if name == "two_route")
    assert elapsed <= 60.0


def test_criterion_02_coarea_identities(catalog_results):
    for sid, out in _all(catalog_results, "coarea_pairing").items():
        assert out.residual <= 1e-6, sid
    for sid, out in _all(catalog_results, "coarea_variation").items():
        assert out.residual <= 1e-5, sid


def test_criterion_03_chain_rule(catalog_results):
    outs = _all(catalog_results, "chain_rule")
    assert outs
    for sid, out in outs.items():
        assert out.residual <= 1e-8, sid


def test_criterion_04_mass_bound(catalog_results):
    outs = _all(catalog_results, "mass_bound")
    assert outs
    for sid, out in outs.items():
        assert out.diagnostics["windows"] == 20, sid
        assert out.diagnostics["violations"] == 0, sid


def test_criterion_05_gauss_green_disc(catalog_results):
    out, _ = catalog_results[("s15_disc_linear2d", "gauss_green")]
    assert abs(out.lhs - (-2.0 * math.pi)) <= 1e-5
    assert out.residual <= 1e-5


def test_criterion_06_cylindrical_averages():
    # 50 random smooth points split over a 1D and a 2D scenario
    cat = load_catalog()
    for sid, pts in (("s01_smooth_const", 25), ("s18_disc_radial2d", 25)):
        ctx = cat[sid].resolve()
        out = run_check(ctx, CheckSpec("cyl_average", 1e-7,
                                       {"points": pts}))
        assert out.passed, sid
    # odd-symmetry configurations return exactly balanced averages
    odd1 = cylindrical_average(field_catalog("tanh"), 0.5, 1.0, 0.0)
    assert abs(odd1.value) <= 1e-7
    odd2 = cylindrical_average(field_catalog("radial2d"), 0.5,
                               (1.0, 0.0), (0.0, 0.0))
    assert abs(odd2.value) <= 1e-7


def test_criterion_07_lipschitz_comparison(catalog_results):
    outs = _all(catalog_results, "lipschitz")
    assert outs
    for sid, out in outs.items():
        assert len(out.diagnostics["taus"]) == 5, sid
        assert out.lhs <= 1e-8, sid  # worst lhs - rhs over the taus


def test_criterion_08_approximation(catalog_results):
    smooth = ("s01_smooth_const", "s02_smooth_xt", "s20_smoothdisc_linear2d")
    for sid in smooth:
        out, _ = catalog_results[(sid, "approximation")]
        assert out.residual <= 1e-6, sid
    out, _ = catalog_results[("s18_disc_radial2d", "approximation")]
    assert out.residual <= 1e-4


def test_criterion_09_continuity_three_modes(catalog_results):
    seen = {}
    for sid, out in _all(catalog_results, "continuity").items():
        assert out.residual <= 1e-5, sid
        seen[out.diagnostics["mode"]] = sid
    assert set(seen) == {"L1", "weak*", "L1loc"}


def test_criterion_10_lower_semicontinuity(catalog_results):
    outs = _all(catalog_results, "lsc")
    assert len(outs) >= 6
    strict = equality = False
    for sid, out in outs.items():
        margin = out.diagnostics["margin"]
        assert margin >= -1e-6, sid
        if sid == "s12_smooth_sep":  # oscillation-added sequence
            strict = margin > 1e-3
        if sid == "s03_jump_const":  # mollified indicator-type jump
            equality = abs(margin) <= 1e-5
    assert strict and equality


def test_criterion_11_relaxation_and_blowup(catalog_results):
    for sid in JUMP_SCENARIOS + (CANTOR_SCENARIO, MIXED_SCENARIO):
        out, _ = catalog_results[(sid, "relaxation")]
        assert out.residual <= 1e-4, sid
    out, _ = catalog_results[("s04_jump_gt", "blowup")]
    assert out.residual <= 1e-3


def test_criterion_12_sigma_k_truncation(catalog_results):
    cat = load_catalog()
    checked = 0
    for sid, out in _all(catalog_results, "sigma_k").items():
        assert out.residual <= 1e-6, sid
        u = cat[sid].resolve().u
        for k in (2.0, 3.0):
            assert f"k={k:g}" in out.diagnostics, sid
        checked += 1
    # the staircase scenario exceeds level k - 1 for both k values
    stair = cat["s06_stair_xt"].resolve().u
    assert isinstance(stair, BvFunction1D)
    assert stair.sup_norm() > 2.0
    assert checked >= 2


def test_catalog_overall_pass(catalog_results):
    failures = [(sid, name) for (sid, name), (out, _)
                in catalog_results.items() if not out.passed]
    assert failures == []
    # the one verdict rule, on every outcome: every catalog check converged
    assert len(catalog_results) == 196
    for key, (out, _) in catalog_results.items():
        assert out.passed == (out.residual <= out.tolerance), key
