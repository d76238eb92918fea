"""Vector fields: catalog consistency, validation, truncation, mollification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairinglab import fields
from pairinglab.errors import AssumptionViolation, WindowTooLarge
from pairinglab.fields import (FieldB, field_catalog, make_field, mollify,
                               sigma_k, truncate)

KINDS_1D = ("const", "gt", "xt", "sep", "tanh")
KINDS_2D = ("const2d", "linear2d", "gt2d", "radial2d")


@pytest.mark.parametrize("kind", KINDS_1D)
def test_catalog_1d_primitive_consistency(kind):
    f = field_catalog(kind)
    rng = np.random.default_rng(3)
    xs = rng.uniform(-1.8, 1.8, 40)
    if f.singular_points:
        for p in f.singular_points:
            xs = xs[np.abs(xs - p) > 0.2]
    ts = rng.uniform(*f.t_range, size=xs.shape)
    h = 1e-6
    dB = (f.primitive(xs, ts + h) - f.primitive(xs, ts - h)) / (2.0 * h)
    assert np.max(np.abs(dB - f.eval(xs, ts))) < 1e-7
    assert np.max(np.abs(f.primitive(xs, np.zeros_like(ts)))) < 1e-12


@pytest.mark.parametrize("kind", KINDS_2D)
def test_catalog_2d_primitive_consistency(kind):
    f = field_catalog(kind)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.8, 1.8, (40, 2))
    if f.singular_points:
        for p in f.singular_points:
            d = pts - np.asarray(p)
            pts = pts[np.hypot(d[:, 0], d[:, 1]) > 0.3]
    ts = rng.uniform(*f.t_range, size=pts.shape[0])
    h = 1e-6
    dB = (np.asarray(f.primitive(pts, ts + h))
          - np.asarray(f.primitive(pts, ts - h))) / (2.0 * h)
    assert np.max(np.abs(dB - np.asarray(f.eval(pts, ts)))) < 1e-6


def test_divergence_formulas_match_finite_differences():
    f = field_catalog("linear2d")
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.5, 1.5, (20, 2))
    ts = rng.uniform(*f.t_range, size=20)
    h = 1e-5
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    num = ((np.asarray(f.eval(pts + ex, ts))[:, 0]
            - np.asarray(f.eval(pts - ex, ts))[:, 0]) / (2.0 * h)
           + (np.asarray(f.eval(pts + ey, ts))[:, 1]
              - np.asarray(f.eval(pts - ey, ts))[:, 1]) / (2.0 * h))
    assert np.max(np.abs(num - np.asarray(f.div_x(pts, ts)))) < 1e-8


def test_sigma_bound_holds_on_samples():
    for kind in KINDS_1D:
        f = field_catalog(kind)
        rng = np.random.default_rng(11)
        xs = rng.uniform(-1.9, 1.9, 60)
        sig = np.asarray(f.sigma(xs), float)
        ts = rng.uniform(*f.t_range, size=(60, 8))
        mags = np.abs(np.asarray(f.eval(xs[:, None], ts), float))
        assert np.all(mags <= sig[:, None] * (1.0 + 1e-9) + 1e-12)


def test_smooth_at_respects_singular_points():
    g = field_catalog("radial2d")
    assert not g.smooth_at(np.array([0.0, 0.0]))
    assert g.smooth_at(np.array([0.7, 0.2]))


def test_make_field_rejects_wrong_lipschitz_constant():
    base = field_catalog("gt")
    with pytest.raises(AssumptionViolation):
        make_field(name="bad", dim=1, eval=base.eval, div_x=base.div_x,
                   primitive=base.primitive,
                   div_primitive=base.div_primitive, sigma=base.sigma,
                   lipschitz_t=1e-6, t_range=base.t_range)


def test_make_field_rejects_wrong_primitive():
    base = field_catalog("gt")
    with pytest.raises(AssumptionViolation):
        make_field(name="bad", dim=1, eval=base.eval, div_x=base.div_x,
                   primitive=lambda x, t: 2.0 * np.asarray(
                       base.primitive(x, t)),
                   div_primitive=base.div_primitive, sigma=base.sigma,
                   lipschitz_t=base.lipschitz_t, t_range=base.t_range)


@pytest.mark.parametrize("kind, params", [
    ("const", {"c": math.nan}), ("const", {"c": math.inf}),
    ("tanh", {"delta": math.nan}), ("const2d", {"vx": math.nan})])
def test_make_field_rejects_non_finite_fields(kind, params):
    # a NaN error compares False with every bound, so each consistency gate
    # must be written to fail on it rather than to pass
    with pytest.raises(AssumptionViolation):
        field_catalog(kind, **params)


def test_sigma_k_profile():
    ts = np.array([0.0, 1.0, 1.5, 2.0, 3.0, -2.5])
    np.testing.assert_allclose(sigma_k(ts, 2.0),
                               [1.0, 1.0, 0.5, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(sigma_k(ts, 3.0),
                               [1.0, 1.0, 1.0, 1.0, 0.0, 0.5])


@pytest.mark.parametrize("kind", ["gt", "xt"])
def test_truncate_matches_pointwise_product(kind):
    f = field_catalog(kind)
    fk = truncate(f, 2.0)
    rng = np.random.default_rng(2)
    xs = rng.uniform(-1.8, 1.8, 30)
    ts = rng.uniform(-2.5, 2.5, 30)
    want = sigma_k(ts, 2.0) * np.asarray(f.eval(xs, ts))
    np.testing.assert_allclose(np.asarray(fk.eval(xs, ts)), want,
                               atol=1e-12)
    # the truncated primitive still differentiates back to the field
    h = 1e-6
    dB = (np.asarray(fk.primitive(xs, ts + h))
          - np.asarray(fk.primitive(xs, ts - h))) / (2.0 * h)
    assert np.max(np.abs(dB - np.asarray(fk.eval(xs, ts)))) < 1e-7


def test_truncate_2d_and_level_validation():
    f = field_catalog("linear2d")
    fk = truncate(f, 3.0)
    pts = np.array([[0.5, -0.3]])
    assert np.max(np.abs(np.asarray(fk.eval(pts, np.array([4.0]))))) == 0.0
    with pytest.raises(ValueError):
        truncate(f, 0.5)


def test_mollify_approximates_smooth_field():
    f = field_catalog("gt")
    fm = mollify(f, 0.01, window=(-1.5, 1.5))
    xs = np.linspace(-1.0, 1.0, 21)
    ts = np.full_like(xs, 0.7)
    # g(t) has no x-dependence, so mollification in x is exact
    assert np.max(np.abs(np.asarray(fm.eval(xs, ts))
                         - np.asarray(f.eval(xs, ts)))) < 1e-10


def test_mollify_rejects_oversized_window():
    f = field_catalog("gt")
    with pytest.raises(WindowTooLarge):
        mollify(f, 0.5, window=(-2.0, 2.0))


def test_sup_norm_reports_catalog_bounds():
    f = field_catalog("const", c=-1.5)
    assert abs(f.sup_norm((-2.0, 2.0)) - 1.5) < 1e-12


def _full_grid_sup(f, box, trange, n=161, nt=81):
    """Sup of |b| sampled on n points per x-axis times all nt t-values."""
    ts = np.linspace(trange[0], trange[1], nt)
    if f.dim == 1:
        xs = np.linspace(box[0], box[1], n)
        return float(np.max(f.magnitude(xs[:, None], ts[None, :])))
    (x0, x1), (y0, y1) = box
    pts = np.stack(np.meshgrid(np.linspace(x0, x1, n),
                               np.linspace(y0, y1, n), indexing="ij"), axis=-1)
    return float(np.max(f.magnitude(pts[..., None, :], ts[None, None, :])))


@pytest.mark.parametrize("kind,params", [
    ("const", {"c": -1.5}), ("tanh", {}), ("const2d", {"vx": 2.0, "vy": 1.0}),
    ("linear2d", {}), ("radial2d", {})])
def test_sup_norm_of_t_independent_field_equals_full_grid(kind, params):
    f = field_catalog(kind, **params)
    assert f.lipschitz_t == 0.0
    box = (-1.3, 0.7) if f.dim == 1 else ((-1.1, 0.4), (-0.3, 0.9))
    for trange in ((-1.7, 1.7), f.t_range):
        assert f.sup_norm(box, trange) == _full_grid_sup(f, box, trange)


def test_sup_norm_of_mollified_t_independent_field():
    # the mollifier sums through a matrix-vector product whose rounding
    # depends on the array shape, so the one-t sample may differ from the
    # 81-t sample in the last bits, and only there
    f = mollify(field_catalog("tanh"), 0.05)
    assert f.lipschitz_t == 0.0
    for box in ((0.001, 0.011), (-0.02, 0.03), (-0.5, -0.01)):
        want = _full_grid_sup(f, box, (-1.7, 1.7))
        assert 0.1 < want < 1.0
        assert f.sup_norm(box, (-1.7, 1.7)) == pytest.approx(want, rel=1e-15)


def test_sup_norm_of_t_dependent_field_samples_t():
    f = field_catalog("gt2d")
    box = ((-1.0, 1.0), (-0.5, 0.5))
    got = f.sup_norm(box, (-4.0, 4.0))
    assert got == _full_grid_sup(f, box, (-4.0, 4.0))
    # attained at the interior grid t = 1.6, not at t = -4 (1.3784...)
    assert got == pytest.approx(1.0 + 0.5 * math.sin(1.6), rel=1e-14)
    assert got - (1.0 + 0.5 * math.sin(-4.0)) > 0.12


@pytest.mark.parametrize("block", [50, 4])
def test_sup_norm_of_mollified_t_dependent_field_in_blocks(block,
                                                           monkeypatch):
    # blocks of 5 x-points by all 9 t-values, then of 1 x-point by 4 t-values;
    # the mollifier's rounding depends on the array shape, hence rel=1e-15
    f = mollify(field_catalog("gt2d"), 0.05)
    box = ((-0.6, 0.4), (-0.3, 0.5))
    want = _full_grid_sup(f, box, (-4.0, 4.0), n=21, nt=9)
    assert 1.0 < want < 1.5
    monkeypatch.setattr(fields, "_SUP_BLOCK", block)
    got = f.sup_norm(box, (-4.0, 4.0), n=21, nt=9)
    assert got == pytest.approx(want, rel=1e-15)
    g = field_catalog("gt2d")
    assert g.sup_norm(box, (-4.0, 4.0), n=21, nt=9) \
        == _full_grid_sup(g, box, (-4.0, 4.0), n=21, nt=9)


def test_sup_norm_evaluates_at_most_a_block_at_once(monkeypatch):
    f = field_catalog("gt2d")
    box = ((-1.0, 1.0), (-0.5, 0.5))
    want = _full_grid_sup(f, box, (-4.0, 4.0))
    seen = []
    magnitude = FieldB.magnitude

    def spy(self, x, t):
        seen.append(math.prod(np.broadcast_shapes(np.shape(x)[:-1],
                                                  np.shape(t))))
        return magnitude(self, x, t)

    monkeypatch.setattr(FieldB, "magnitude", spy)
    assert f.sup_norm(box, (-4.0, 4.0)) == want
    assert 0 < max(seen) <= fields._SUP_BLOCK
    assert sum(seen) == 161 * 161 * 81


@given(st.floats(-3.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_sigma_k_between_zero_and_one(t):
    for k in (2.0, 3.0):
        v = float(sigma_k(t, k))
        assert 0.0 <= v <= 1.0
        if abs(t) <= k - 1.0:
            assert v == 1.0
        if abs(t) >= k:
            assert v == 0.0
