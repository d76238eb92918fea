"""Quadrature helpers, 1D/2D Radon measures, ladders, test functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairinglab.errors import NonFiniteValue, ToleranceNotMet
from pairinglab import measures
from pairinglab.measures import (Circle, DiscPatch, PolygonPatch,
                                 RadonMeasure1D, RadonMeasure2D, Segment,
                                 SingularLadder, TestFunction1D,
                                 TestFunction2D, _density_sign_breaks_many)
from pairinglab import quadrature
from pairinglab.quadrature import (adaptive_simpson, adaptive_simpson_many,
                                   aitken, circle_integral_many,
                                   find_sign_changes,
                                   polar_quad_many, polygon_quad_many,
                                   segment_integral_many)


# ---------------------------------------------------------------------------
# quadrature


def test_adaptive_simpson_sine():
    assert abs(adaptive_simpson(np.sin, 0.0, math.pi) - 2.0) < 1e-11


def test_adaptive_simpson_with_kink_breakpoint():
    f = lambda x: np.abs(x - 0.3)
    exact = 0.5 * (0.3 ** 2 + 0.7 ** 2)
    assert abs(adaptive_simpson(f, 0.0, 1.0, breakpoints=(0.3,))
               - exact) < 1e-12


# float.hex of adaptive_simpson as the scalar Simpson loop gave it, before
# that loop became the one-owner case of adaptive_simpson_many
_SIN7 = lambda x: np.abs(np.sin(7.0 * x)) * np.exp(-x)
PINNED_SIMPSON = [
    (lambda x: np.abs(x - 0.3), 0.0, 1.0, dict(breakpoints=(0.3,)),
     "0x1.28f5c28f5c28ep-2"),
    (_SIN7, 0.0, 3.0, dict(tol=1e-9), "0x1.352b7e88b1667p-1"),
    (_SIN7, 0.0, 3.0, dict(tol=1e-11), "0x1.352b7e88b1629p-1"),
    (lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0, {},
     "0x1.fffc4ae4d639bp-2"),
    (lambda x: x, 1.0, 1.0, {}, "0x0.0p+0"),
]


@pytest.mark.parametrize("f, a, b, kw, bits", PINNED_SIMPSON,
                         ids=["kink", "sin7-1e-9", "sin7-1e-11", "cusp",
                              "empty"])
def test_adaptive_simpson_keeps_its_bits(f, a, b, kw, bits):
    value = adaptive_simpson(f, a, b, **kw)
    assert type(value) is float and value.hex() == bits


def test_adaptive_simpson_stalls_and_rejects_non_finite_values():
    with pytest.raises(ToleranceNotMet) as err:
        adaptive_simpson(lambda x: np.sign(x - 1.0 / 3.0), 0.0, 1.0,
                         max_nodes=60)
    assert str(err.value) == ("adaptive Simpson stalled: 1 intervals above "
                              "tolerance after 61 evaluations")
    for f in (lambda x: np.where(x > 0.5, np.nan, x),
              lambda x: np.where(x > 0.74, np.inf, x)):
        with pytest.raises(NonFiniteValue,
                           match="^integrand produced non-finite values$"):
            adaptive_simpson(f, 0.0, 1.0)


def _owned(x, k):
    """Owner k integrates sin((k + 1) x) + |x - 0.3|."""
    return np.sin((k + 1.0) * x) + np.abs(x - 0.3)


# float.hex of the scalar Simpson loop on owner k of _owned over
# [OWNED_A[k], OWNED_B[k]] with tol 1e-10 and breakpoints OWNED_BPS
OWNED_A = [0.0, -1.0, 0.25, 0.3, -2.0, 0.29]
OWNED_B = [1.0, 0.5, 0.26, 2.0, 3.0, 0.31]
OWNED_BPS = (0.3, -0.5, 1.5)
OWNED_BITS = ["0x1.7fd8604c5dabcp-1", "0x1.8c0edba63cfcfp-2",
              "0x1.e355d17ce2d79p-8", "0x1.926c4312a5638p+0",
              "0x1.918b3c5b2f734p+2", "0x1.408eaf23a2a42p-6"]


def test_adaptive_simpson_many_matches_each_owner(monkeypatch):
    a, b, bps = np.array(OWNED_A), np.array(OWNED_B), OWNED_BPS
    # per pass, how many panels each owner finishes: np.sum adds fewer
    # than 8 terms left to right and more in blocks, and both must match
    finished = []

    def owner_sums(vals, owner, n):
        finished.extend(np.bincount(owner).tolist())
        return owner_sums_(vals, owner, n)

    owner_sums_ = quadrature._owner_sums
    monkeypatch.setattr(quadrature, "_owner_sums", owner_sums)
    many = adaptive_simpson_many(_owned, a, b, tol=1e-10, breakpoints=bps)
    assert min(c for c in finished if c) < 8 <= max(finished)
    assert [v.hex() for v in many.tolist()] == OWNED_BITS
    for k in range(a.size):
        one = adaptive_simpson(lambda x: _owned(x, k), a[k], b[k], tol=1e-10,
                               breakpoints=bps)
        assert many[k] == one


def test_adaptive_simpson_many_empty_intervals():
    calls = []

    def f(x, k):
        calls.append(x.size)
        return _owned(x, k)

    out = adaptive_simpson_many(f, [1.0, 2.0, 0.5], [1.0, 0.0, 0.5])
    assert out.tolist() == [0.0, 0.0, 0.0] and not calls
    out = adaptive_simpson_many(_owned, [1.0, 0.0], [0.5, 1.0])
    assert out[0] == 0.0
    assert out[1].hex() == "0x1.ff037aa4fbdc5p-1"   # the scalar loop gave it


def test_adaptive_simpson_many_counts_nodes_per_owner():
    # forty cheap owners spend far more than max_nodes between them
    a, b = np.zeros(40), np.linspace(0.5, 1.0, 40)
    cheap = lambda x, k: x ** 2
    nodes = []
    out = adaptive_simpson_many(
        lambda x, k: nodes.append(x.size) or cheap(x, k), a, b,
        max_nodes=60)
    assert sum(nodes) > 60
    assert out == pytest.approx(b ** 3 / 3.0, rel=1e-14)
    # one stalling owner raises, however cheap the others are
    rng = np.random.default_rng(3)
    noisy = lambda x, k: np.where(k == 7, rng.standard_normal(x.size), x ** 2)
    with pytest.raises(ToleranceNotMet, match="stalled"):
        adaptive_simpson_many(noisy, a, b, max_nodes=2000)


def test_adaptive_simpson_many_rejects_non_finite_values():
    f = lambda x, k: np.where(k == 1, np.nan, x)
    with pytest.raises(NonFiniteValue):
        adaptive_simpson_many(f, [0.0, 0.0], [1.0, 1.0])


def test_lost_sign_changes_are_dropped_or_taken_at_the_midpoint():
    # the sampling grid sees a root at 0.5 that the polish, which evaluates
    # the bracket ends in a smaller call, does not see again
    f = lambda x: np.where(np.size(x) >= 16, x - 0.5001, 1.0)
    assert find_sign_changes(f, 0.0, 1.0) == []
    seg = Segment((0.0, 0.0), (1.0, 0.0))
    dens = lambda p, _: np.where(len(p) > 8, p[..., 0] - 0.35, 1.0)
    assert _density_sign_breaks_many([seg], dens, n=10)[0] == pytest.approx(
        (0.35,), abs=1e-15)


def test_find_sign_changes_locates_roots():
    roots = find_sign_changes(np.cos, 0.0, 2.0 * math.pi)
    expect = (math.pi / 2.0, 3.0 * math.pi / 2.0)
    assert len(roots) == 2
    assert all(abs(r - e) < 1e-9 for r, e in zip(sorted(roots), expect))


def test_find_sign_changes_takes_a_root_on_a_sample():
    # 0.0 is a node of the 4001-point grid on [-1, 1]: the samples on
    # either side have opposite signs, and no bracket straddles the root
    assert find_sign_changes(lambda x: x, -1.0, 1.0) == [0.0]
    # a zero where f touches 0 without changing sign is not a root
    assert find_sign_changes(lambda x: x * x, -1.0, 1.0) == []


def test_aitken_accelerates_geometric_tail():
    partial = np.cumsum([0.5 ** k for k in range(8)])
    assert abs(aitken(list(partial)) - 2.0) < 1e-12


def _one(many, g, *args):
    """The integral of g(points) by the batched driver many, called with
    one owner whose arguments are args."""
    return float(many(lambda p, _: g(p), *([a] for a in args))[0])


def test_polar_quad_area_and_moment():
    assert abs(_one(polar_quad_many, lambda p: np.ones(p.shape[:-1]),
                    (0.0, 0.0), 0.0, 1.0, ()) - math.pi) < 1e-10
    # int over unit disc of x^2 = pi/4
    val = _one(polar_quad_many, lambda p: p[..., 0] ** 2, (0.0, 0.0), 0.0,
               1.0, ())
    assert abs(val - math.pi / 4.0) < 1e-9


def test_polygon_quad_unit_square():
    verts = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
    val = _one(polygon_quad_many, lambda p: p[..., 0] * p[..., 1], verts)
    assert abs(val - 0.25) < 1e-10


def test_circle_integral_constant_and_kinked():
    assert abs(_one(circle_integral_many, lambda p: np.ones(p.shape[:-1]),
                    (0.0, 0.0), 2.0, ()) - 4.0 * math.pi) < 1e-9
    # |cos theta| has kinks at pi/2 and 3pi/2; breaks make it converge
    val = _one(circle_integral_many, lambda p: np.abs(p[..., 0]), (0.0, 0.0),
               1.0, (math.pi / 2.0, 3.0 * math.pi / 2.0))
    assert abs(val - 4.0) < 1e-9


def test_segment_integral_linear_density():
    val = _one(segment_integral_many, lambda p: p[..., 0], (0.0, 0.0),
               (3.0, 4.0), ())
    assert abs(val - 1.5 * 5.0) < 1e-10


@pytest.mark.parametrize("driver, args, message, calls", [
    (polar_quad_many, ((0.0, 0.0), 0.0, 1.0, ()), "polar quadrature", 8),
    (polygon_quad_many, (((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),),
     "polygon quadrature", 6),
    (circle_integral_many, ((0.0, 0.0), 1.0, ()), "circle integral", 11),
    (segment_integral_many, ((0.0, 0.0), (1.0, 1.0), ()), "segment integral",
     11),
], ids=["polar", "polygon", "circle", "segment"])
def test_planar_drivers_give_up_on_noise(driver, args, message, calls):
    # fresh noise on every call never settles: each driver spends its whole
    # refinement budget and then raises
    rng = np.random.default_rng(3)
    seen = []

    def noise(p):
        seen.append(1)
        return rng.standard_normal(np.shape(p)[:-1])

    with pytest.raises(ToleranceNotMet, match=f"^{message} did not converge$"):
        _one(driver, noise, *args)
    assert len(seen) == calls


def _planar(p, k):
    """Owner k integrates a wave that takes longer to settle as k grows."""
    k = np.broadcast_to(k, np.shape(p)[:-1])
    return np.cos(3.0 * (k + 1.0) * p[..., 0]) * np.exp(0.3 * p[..., 1])


CENTERS = ((0.0, 0.0), (0.5, -0.2), (1.0, 1.0), (0.2, 0.3))
# per driver: the batched driver and the arguments of each owner
DRIVERS = {
    "polar": (polar_quad_many,
              [(CENTERS[0], 0.0, 1.0, ()), (CENTERS[1], 0.2, 0.9, (0.5,)),
               (CENTERS[2], 0.5, 0.5, (0.1, 0.7)),        # empty annulus
               (CENTERS[3], 0.4, 1.3, (0.6, 0.9, 2.0))]),
    "polygon": (polygon_quad_many,
                [(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),),
                 (((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),),
                 (((0.0, 0.0), (2.0, 0.5), (1.0, 2.0)),)]),
    "circle": (circle_integral_many,
               [(CENTERS[0], 1.0, ()), (CENTERS[1], 0.5, (1.0,)),
                (CENTERS[2], 2.0, (0.5, 3.0)), (CENTERS[3], 0.3, (2.0,))]),
    "segment": (segment_integral_many,
                [(CENTERS[0], (1.0, 2.0), (0.4,)),
                 (CENTERS[1], (0.0, 1.5), ()),
                 (CENTERS[2], CENTERS[2], ()),            # a point
                 (CENTERS[3], (3.0, 0.3), (0.1, 0.9))]),
}


@pytest.mark.parametrize("name", sorted(DRIVERS))
@pytest.mark.parametrize("block", [None, 2000])
def test_batched_planar_drivers_match_each_owner(name, block, monkeypatch):
    # mixed geometry and breaks per owner, an empty annulus and a point
    # segment among them; owners settle after different passes; with a
    # small block the owners of a pass are split over several calls; each
    # owner gets the bits of a call with it alone
    many, owners = DRIVERS[name]
    if block is not None:
        monkeypatch.setattr(quadrature, "_T_BLOCK", block)
    passes, sizes = {}, []

    def f(p, k):
        k = np.broadcast_to(k, p.shape[:-1])
        sizes.append((k.size, np.unique(k).size))
        for owner in np.unique(k).tolist():
            passes[owner] = passes.get(owner, 0) + 1
        return _planar(p, k)

    out = many(f, *zip(*owners))
    for k, args in enumerate(owners):
        assert out[k] == _one(many, lambda p: _planar(p, k), *args)
    assert len(set(passes.values())) > 1
    limit = quadrature._T_BLOCK
    assert all(n <= limit or m == 1 for n, m in sizes)
    assert any(m > 1 for _, m in sizes)


@pytest.mark.parametrize("name, message, calls", [
    ("polar", "polar quadrature", 8), ("polygon", "polygon quadrature", 6),
    ("circle", "circle integral", 11), ("segment", "segment integral", 11),
])
def test_batched_planar_drivers_give_up_on_a_noisy_owner(name, message,
                                                         calls):
    # owner 1 never settles: the others settle and drop out, and owner 1
    # spends a lone owner's whole budget before the same error
    many, owners = DRIVERS[name]
    rng = np.random.default_rng(3)
    seen = []

    def f(p, k):
        k = np.broadcast_to(k, p.shape[:-1])
        seen.append(bool((k == 1).any()))
        return np.where(k == 1, rng.standard_normal(k.shape), _planar(p, k))

    with pytest.raises(ToleranceNotMet, match=f"^{message} did not converge$"):
        many(f, *zip(*owners))
    assert sum(seen) == calls


@pytest.mark.parametrize("name", ["polar", "polygon"])
def test_batched_area_drivers_reject_a_non_finite_owner(name):
    many, owners = DRIVERS[name]
    f = lambda p, k: np.where(np.broadcast_to(k, p.shape[:-1]) == 1, np.nan,
                              _planar(p, k))
    with pytest.raises(NonFiniteValue):
        many(f, *zip(*owners))


def test_batched_line_drivers_treat_a_nan_owner_as_the_scalar_one():
    # the line drivers have no finite check: NaN never settles, for an
    # owner alone or among others
    f = lambda p, k: np.where(np.broadcast_to(k, p.shape[:-1]) == 1, np.nan,
                              _planar(p, k))
    with pytest.raises(ToleranceNotMet, match="^circle integral did not"):
        _one(circle_integral_many, lambda p: f(p, 1), (0.0, 0.0), 1.0, ())
    with pytest.raises(ToleranceNotMet, match="^circle integral did not"):
        circle_integral_many(f, CENTERS, (1.0, 0.5, 2.0, 0.3), [()] * 4)


@pytest.mark.parametrize("curves", [
    (Circle((0.0, 0.0), 1.0), Circle((0.3, 0.1), 0.5),
     Circle((-1.0, 0.5), 2.0)),
    (Circle((0.0, 0.0), 1.0), Segment((0.0, 0.0), (1.0, 1.0)),
     Circle((0.3, 0.1), 0.5), Segment((1.0, 0.0), (0.0, 2.0))),
], ids=["circles", "mixed"])
@pytest.mark.parametrize("block", [None, 4000])
def test_batched_sign_breaks_match_each_curve(curves, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(measures, "_T_BLOCK", block)
    dens = lambda p, k: np.sin(3.0 * p[..., 0] + k) - 0.2 * p[..., 1]
    many = _density_sign_breaks_many(list(curves), dens)
    assert [len(b) for b in many] != [0] * len(curves)
    for k, curve in enumerate(curves):
        assert many[k] == _density_sign_breaks_many(
            [curve], lambda p, _: dens(p, k))[0]


# ---------------------------------------------------------------------------
# singular ladders


def test_ladder_classical_values():
    lad = SingularLadder((0.0, 1.0))
    xs = np.array([0.0, 0.5, 1.0, 1.0 / 4.0, 3.0 / 4.0])
    vals = lad.evaluate(xs)
    # F(1/4) = 1/3 and F(3/4) = 2/3 for the classical middle-thirds ladder
    expect = np.array([0.0, 0.5, 1.0, 1.0 / 3.0, 2.0 / 3.0])
    assert np.max(np.abs(vals - expect)) < 2.0 ** -lad.depth


def test_ladder_flat_on_removed_middle():
    lad = SingularLadder((0.0, 1.0))
    xs = np.linspace(1.0 / 3.0, 2.0 / 3.0, 11)
    assert np.max(np.abs(lad.evaluate(xs) - 0.5)) < 1e-12


def test_ladder_increments_mass_sums_to_one():
    lad = SingularLadder((0.0, 1.0), depth=10)
    lo, hi, _, mass = lad.increments()
    assert len(lo) == 2 ** 10
    assert abs(len(lo) * mass - 1.0) < 1e-12
    assert np.all(hi > lo)


def test_ladder_inverse_round_trip():
    lad = SingularLadder((0.0, 1.0))
    ts = np.linspace(0.01, 0.99, 23)
    back = lad.evaluate(lad.inverse(ts))
    assert np.max(np.abs(back - ts)) < 2.0 ** -lad.depth


@pytest.mark.parametrize("removed", [0.2, 1.0 / 3.0, 0.5])
@pytest.mark.parametrize("depth", [1, 2, 4, 6])
def test_ladder_self_similarity(removed, depth):
    # the recursive definition: L_d on the left (right) child interval is a
    # half-height copy of L_{d-1}, shifted by 1/2 on the right
    a, b = -0.75, 1.25
    w = b - a
    lad = SingularLadder((a, b), removed, depth)
    parent = SingularLadder((a, b), removed, depth - 1)
    s = lad.side
    y = np.concatenate([np.linspace(0.0, 1.0, 1025),
                        np.random.default_rng(7).uniform(0.0, 1.0, 4000)])
    coarse = parent.evaluate(a + w * y)
    left = lad.evaluate(a + w * s * y)
    right = lad.evaluate(a + w * (1.0 - s + s * y))
    assert np.max(np.abs(left - 0.5 * coarse)) <= 1e-14
    assert np.max(np.abs(right - (0.5 + 0.5 * coarse))) <= 1e-14


def test_ladder_clamps_outside_carrier():
    lad = SingularLadder((-1.5, -0.5), 0.4)
    assert np.all(lad.evaluate(np.array([-7.0, -1.5 - 1e-9, -1.5])) == 0.0)
    assert np.all(lad.evaluate(np.array([-0.5, -0.5 + 1e-9, 3.0])) == 1.0)


@pytest.mark.parametrize("removed", [0.2, 1.0 / 3.0])
def test_ladder_leaf_midpoints_match_increments(removed):
    lad = SingularLadder((0.3, 2.7), removed)
    lo, hi, mid_value, mass = lad.increments()
    # u is linear with slope mass / (hi - lo) on a leaf, so rounding the
    # midpoint to a float moves the value by at most slope * ulp
    slack = 4.0 * mass / (hi[0] - lo[0]) * np.spacing(2.7)
    assert np.max(np.abs(lad.evaluate(0.5 * (lo + hi)) - mid_value)) <= slack


def test_ladder_plateaus_tile_carrier_with_leaves():
    lad = SingularLadder((0.3, 2.7))
    lo, hi, mid_value, mass = lad.increments()
    plo, phi, pval = lad.plateaus()
    assert len(plo) == len(lo) - 1
    assert np.all(phi > plo) and np.all(lo[1:] == phi) and np.all(hi[:-1] == plo)
    assert np.allclose(lad.evaluate(0.5 * (plo + phi)), pval, rtol=0,
                       atol=1e-15)


@given(st.floats(0.05, 0.9))
@settings(max_examples=25, deadline=None)
def test_ladder_depth_convergence(removed):
    coarse = SingularLadder((0.0, 1.0), removed, depth=8)
    fine = SingularLadder((0.0, 1.0), removed, depth=16)
    xs = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(coarse.evaluate(xs) - fine.evaluate(xs))) < 2.0 ** -8


# ---------------------------------------------------------------------------
# 1D measures


def _mix_measure():
    return RadonMeasure1D(
        (-1.0, 1.0),
        ac_density=lambda x: np.cos(x),
        atoms=((-0.5, 2.0), (0.25, -1.0)),
        ladder=SingularLadder((0.0, 0.8)),
        ladder_scale=0.5)


def test_measure1d_total_mass_closed_form():
    m = _mix_measure()
    expect = 2.0 * math.sin(1.0) + 2.0 - 1.0 + 0.5
    assert abs(m.total_mass() - expect) < 1e-9


def test_measure1d_variation_closed_form():
    m = _mix_measure()
    expect = 2.0 * math.sin(1.0) + 2.0 + 1.0 + 0.5
    assert abs(m.variation().total_mass() - expect) < 1e-9


def test_measure1d_restrict_half_open_atom_semantics():
    m = RadonMeasure1D((-1.0, 1.0), atoms=((0.0, 1.0),))
    assert abs(m.restrict((0.0, 0.5)).total_mass() - 1.0) < 1e-14
    assert abs(m.restrict((-0.5, 0.0)).total_mass()) < 1e-14


@given(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99))
@settings(max_examples=40, deadline=None)
def test_measure1d_window_additivity(a, b):
    lo, hi = sorted((a, b))
    if hi - lo < 1e-6:
        return
    m = _mix_measure()
    left = m.restrict((-1.0, lo)).total_mass()
    mid = m.restrict((lo, hi)).total_mass()
    right = m.restrict((hi, 1.0)).total_mass()
    edge = m.restrict((1.0, 1.0 + 1e-9)).total_mass()  # right endpoint
    assert abs(left + mid + right + edge - m.total_mass()) < 1e-8


@given(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2), st.booleans(),
       st.floats(0.5, 4.0), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_measure1d_variation_commutes_with_restrict(a, b, closed_right, freq,
                                                    depth):
    # |mu|(E) is variation().restrict(E); restricting first gives the same
    # mass, but its sign scan runs on another grid, so the roots and the
    # masses may differ in the last bits
    m = RadonMeasure1D(
        (-1.0, 1.0),
        ac_density=lambda x: np.sin(freq * np.pi * x) + 0.2,
        atoms=((-0.5, 2.0), (0.25, -1.0), (0.6, 0.3)),
        ladder=SingularLadder((0.0, 0.8), depth=depth),
        ladder_scale=-0.5,
        ladder_density=lambda x: x - 0.4)
    E = tuple(sorted((a, b)))
    first = m.restrict(E, closed_right).variation().total_mass()
    then = m.variation().restrict(E, closed_right).total_mass()
    assert abs(first - then) <= 1e-12 * (1.0 + then)


# ---------------------------------------------------------------------------
# 2D measures


def test_measure2d_surface_mass_and_variation():
    circ = Circle((0.0, 0.0), 1.0)
    m = RadonMeasure2D(
        ((-2.0, 2.0), (-2.0, 2.0)),
        surface_parts=((circ, lambda p: p[..., 0]),))
    # int cos over the circle is 0; variation integrates |cos| giving 4
    assert abs(m.total_mass()) < 1e-9
    assert abs(m.variation().total_mass() - 4.0) < 1e-8


def test_measure2d_area_part_and_restrict():
    m = RadonMeasure2D(
        ((-2.0, 2.0), (-2.0, 2.0)),
        ac_parts=((DiscPatch((0.0, 0.0), 1.0),
                   lambda p: np.ones(p.shape[:-1])),))
    assert abs(m.total_mass() - math.pi) < 1e-9
    half = m.restrict(((0.0, 2.0), (-2.0, 2.0))).total_mass()
    assert abs(half - math.pi / 2.0) < 1e-3


def test_measure2d_segment_part():
    seg = Segment((0.0, 0.0), (2.0, 0.0))
    m = RadonMeasure2D(
        ((-2.0, 2.0), (-2.0, 2.0)),
        surface_parts=((seg, lambda p: p[..., 0] - 1.0),))
    assert abs(m.total_mass()) < 1e-10
    assert abs(m.variation().total_mass() - 1.0) < 1e-8


RECT = ((-2.0, 2.0), (-2.0, 2.0))
SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


@given(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5), st.floats(-2.5, 2.5),
       st.floats(-2.5, 2.5))
@settings(max_examples=20, deadline=None)
def test_measure2d_variation_commutes_with_restrict(x0, x1, y0, y1):
    m = RadonMeasure2D(
        RECT,
        ac_parts=((DiscPatch((0.2, 0.0), 1.0), lambda p: p[..., 1] - 0.3),),
        surface_parts=((Circle((0.2, 0.0), 1.0), lambda p: p[..., 0]),
                       (Segment((-1.5, -1.5), (1.5, 1.0)),
                        lambda p: np.sin(2.0 * p[..., 0]))))
    box = (tuple(sorted((x0, x1))), tuple(sorted((y0, y1))))
    assert m.restrict(box).variation().total_mass() \
        == m.variation().restrict(box).total_mass()


def test_measure2d_parts_keep_their_bits_in_one_call():
    # two parts of each kind, so that the batched drivers flatten several
    # owners into one integrand call; the sum keeps the order of the parts
    ac = ((DiscPatch((0.0, 0.0), 1.0, 0.2, (0.5,)),
           lambda p: np.cos(p[..., 0]) + p[..., 1]),
          (PolygonPatch(SQUARE), lambda p: p[..., 0] * p[..., 1] - 0.1),
          (DiscPatch((0.5, -0.2), 0.7), lambda p: np.exp(-p[..., 0])),
          (PolygonPatch(((0.0, 0.0), (2.0, 0.5), (1.0, 2.0))),
           lambda p: np.sin(p[..., 1])))
    surf = ((Circle((0.0, 0.0), 1.0), lambda p: p[..., 0] - 0.3),
            (Segment((0.0, 0.0), (1.0, 1.0), (0.4,)),
             lambda p: np.abs(p[..., 0] - 0.4)),
            (Circle((0.3, 0.1), 0.5, (1.0,)), lambda p: np.sin(3 * p[..., 1])),
            (Segment((1.0, 0.0), (0.0, 2.0)), lambda p: p[..., 1] ** 2))
    g = lambda p: 1.0 + p[..., 0] ** 2 - 0.5 * p[..., 1]
    whole = RadonMeasure2D(RECT, ac_parts=ac, surface_parts=surf)
    one_by_one = 0.0
    for part in ac:
        one_by_one += RadonMeasure2D(RECT, ac_parts=(part,)).integrate(g)
    for part in surf:
        one_by_one += RadonMeasure2D(RECT, surface_parts=(part,)).integrate(g)
    assert whole.integrate(g).hex() == one_by_one.hex()


@pytest.mark.parametrize("patch, ndim", [
    (DiscPatch((0.0, 0.0), 1.0), 3),     # (theta nodes, radial nodes, 2)
    (PolygonPatch(SQUARE), 4),            # (triangles, nodes, nodes, 2)
], ids=["disc", "polygon"])
def test_measure2d_lone_part_gets_its_points_in_grid_shape(patch, ndim):
    # a lone owner's density sees the driver's grid, not flattened points
    shapes = []

    def dens(p):
        shapes.append(p.shape)
        return np.ones(p.shape[:-1])

    m = RadonMeasure2D(RECT, ac_parts=((patch, dens),))
    assert m.integrate(lambda p: 1.0 + p[..., 0] ** 2) > 0.0
    assert shapes and all(len(s) == ndim and s[-1] == 2 for s in shapes)


# ---------------------------------------------------------------------------
# test functions


def test_bump_shape_and_gradient():
    phi = TestFunction1D.bump(-1.0, 1.0)
    assert phi(np.array([0.0]))[0] == 1.0
    assert phi(np.array([-1.0, 1.0, 2.0])).max() == 0.0
    xs = np.linspace(-0.95, 0.95, 41)
    h = 1e-6
    num = (phi(xs + h) - phi(xs - h)) / (2.0 * h)
    assert np.max(np.abs(num - phi.gradient(xs))) < 1e-7


def test_plateau_is_one_on_core():
    phi = TestFunction1D.plateau(-1.0, -0.5, 0.5, 1.0)
    xs = np.linspace(-0.5, 0.5, 21)
    assert np.max(np.abs(phi(xs) - 1.0)) == 0.0
    assert np.max(np.abs(phi.gradient(xs))) == 0.0
    assert phi(np.array([-1.0, 1.0])).max() == 0.0


def test_radial2d_plateau_and_annulus():
    phi = TestFunction2D.radial((0.0, 0.0), 1.0, 1.5)
    pts = np.array([[0.0, 0.0], [0.5, 0.5], [1.6, 0.0]])
    vals = phi(pts)
    assert vals[0] == 1.0 and vals[1] == 1.0 and vals[2] == 0.0
    ann = TestFunction2D.radial((0.0, 0.0), 1.0, 1.5, r_in0=0.1, r_in1=0.3)
    assert ann(np.array([[0.0, 0.0]]))[0] == 0.0
    assert ann(np.array([[0.5, 0.0]]))[0] == 1.0


def test_box2d_product_structure():
    phi = TestFunction2D.box((-1.0, 1.0), (-1.0, 1.0), margin=0.4)
    assert phi(np.array([[0.0, 0.0]]))[0] == 1.0
    assert phi(np.array([[1.0, 0.0]]))[0] == 0.0
    p = np.array([[-0.8, 0.1]])
    h = 1e-6
    gx = (phi(p + [[h, 0.0]]) - phi(p - [[h, 0.0]])) / (2.0 * h)
    assert abs(gx[0] - phi.gradient(p)[0, 0]) < 1e-6


def test_atoms_must_be_sorted():
    with pytest.raises(ValueError):
        RadonMeasure1D((-1.0, 1.0), atoms=((0.5, 1.0), (0.0, 1.0)))


def test_ladder_rejects_bad_removed_fraction():
    with pytest.raises(ValueError):
        SingularLadder((0.0, 1.0), removed=1.5)
