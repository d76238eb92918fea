"""Scenario parsing, check registry, and the command line runner."""

import csv
import dataclasses
import json
import math
import os
import shutil

import numpy as np
import pytest

from pairinglab import measures, pairing, scenarios, variational
from pairinglab.bv import BvFunction1D
from pairinglab.cli import _finite_or_null, main
from pairinglab.errors import SpecError, UnknownCheck
from pairinglab.fields import FieldB, make_field
from pairinglab.scenarios import (CHECKS, CheckSpec, build_bv, load_catalog,
                                  load_scenario_file, parse_scenario,
                                  run_check, run_scenario,
                                  shipped_catalog_dir)

FAST_SCENARIO = {
    "id": "tiny_jump",
    "field": {"kind": "const", "params": {"c": 1.0}},
    "bv": {"kind": "bv1d", "domain": [-2.0, 2.0],
           "ac": {"type": "constant", "value": 0.2},
           "jumps": [[0.3, 0.2, 1.2]]},
    "phi": {"kind": "bump1d", "a": -1.8, "b": 1.8},
    "window": [-2.0, 2.0],
    "checks": [{"name": "two_route", "tolerance": 1e-6},
               {"name": "chain_rule", "tolerance": 1e-8}],
}

DISC_BV = {"kind": "bv2d", "rect": [[-2.0, 2.0], [-2.0, 2.0]],
           "shape": "disc", "center": [0.0, 0.0], "radius": 1.0,
           "value": 1.0}
SQUARE_BV = dict(DISC_BV, shape="square", half_width=0.8, value=-0.6)
RADIAL_BV = dict(DISC_BV, shape="smooth_radial", amplitude=1.0)


# ---------------------------------------------------------------------------
# parsing


def test_parse_round_trip():
    sc = parse_scenario(FAST_SCENARIO)
    assert sc.id == "tiny_jump"
    assert [c.name for c in sc.checks] == ["two_route", "chain_rule"]
    ctx = sc.resolve()
    assert ctx.field.name.startswith("const")
    assert abs(ctx.u.sup_norm() - 1.2) < 1e-12


def test_parse_rejects_bad_tolerance():
    bad = dict(FAST_SCENARIO,
               checks=[{"name": "two_route", "tolerance": 0.0}])
    with pytest.raises(SpecError):
        parse_scenario(bad)


@pytest.mark.parametrize("tol", [-1.0, math.inf, -math.inf, math.nan])
def test_parse_rejects_non_finite_or_negative_tolerance(tol):
    # an infinite or NaN tolerance would make a gate that cannot fail
    bad = dict(FAST_SCENARIO,
               checks=[{"name": "two_route", "tolerance": tol}])
    with pytest.raises(SpecError, match="finite number > 0"):
        parse_scenario(bad)


def test_parse_rejects_unknown_check_name():
    bad = dict(FAST_SCENARIO,
               checks=[{"name": "no_such_check", "tolerance": 1e-6}])
    with pytest.raises(SpecError, match="no_such_check"):
        parse_scenario(bad)


@pytest.mark.parametrize("windows", [0, -3, 2.5, True, "20", None])
def test_parse_rejects_bad_mass_bound_windows(windows):
    bad = dict(FAST_SCENARIO, checks=[{"name": "mass_bound", "tolerance": 1e-9,
                                       "params": {"windows": windows}}])
    with pytest.raises(SpecError, match="windows"):
        parse_scenario(bad)


def test_parse_accepts_one_mass_bound_window():
    ok = dict(FAST_SCENARIO, checks=[{"name": "mass_bound", "tolerance": 1e-9,
                                      "params": {"windows": 1}}])
    (out,) = run_scenario(parse_scenario(ok))
    assert out.passed and out.diagnostics["windows"] == 1


def test_parse_rejects_missing_keys():
    with pytest.raises(SpecError):
        parse_scenario({"id": "x"})


def test_resolve_rejects_unknown_kinds():
    for key, bad in (("field", {"kind": "nope"}),
                     ("bv", {"kind": "nope"}),
                     ("phi", {"kind": "nope"})):
        sc = parse_scenario(dict(FAST_SCENARIO, **{key: bad}))
        with pytest.raises(SpecError):
            sc.resolve()


@pytest.mark.parametrize("base, key, value", [
    (DISC_BV, "radius", 0.0), (DISC_BV, "radius", -1.0),
    (DISC_BV, "radius", math.inf), (DISC_BV, "radius", "1"),
    (DISC_BV, "value", 0.0), (DISC_BV, "value", math.nan),
    (SQUARE_BV, "half_width", 0.0), (SQUARE_BV, "half_width", -0.8),
    (SQUARE_BV, "value", 0),
    (RADIAL_BV, "amplitude", 0.0), (RADIAL_BV, "amplitude", -1.0),
    (RADIAL_BV, "support_radius", 0.0),
    (RADIAL_BV, "support_radius", math.nan),
])
def test_build_bv_rejects_vacuous_2d_geometry(base, key, value):
    # u = 0 passes every check with residual 0; a negative size turns the
    # region inside out
    build_bv(base)
    with pytest.raises(SpecError, match=key):
        build_bv(dict(base, **{key: value}))


def test_shipped_catalog_loads():
    cat = load_catalog()
    assert len(cat) == 21
    assert all(sid.startswith("s") for sid in cat)
    kinds = {sc.bv_spec["kind"] for sc in cat.values()}
    assert kinds == {"bv1d", "bv2d"}


def test_load_scenario_file_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(SpecError):
        load_scenario_file(p)


# ---------------------------------------------------------------------------
# check execution


def test_run_check_unknown_name():
    ctx = parse_scenario(FAST_SCENARIO).resolve()
    with pytest.raises(UnknownCheck):
        run_check(ctx, CheckSpec("no_such_check", 1e-6))


def test_run_check_lets_base_exceptions_through(monkeypatch):
    def interrupted(ctx, params, tol):
        raise KeyboardInterrupt

    monkeypatch.setitem(CHECKS, "two_route", interrupted)
    ctx = parse_scenario(FAST_SCENARIO).resolve()
    with pytest.raises(KeyboardInterrupt):
        run_check(ctx, CheckSpec("two_route", 1e-6))


def test_run_check_report_schema():
    ctx = parse_scenario(FAST_SCENARIO).resolve()
    out = run_check(ctx, CheckSpec("two_route", 1e-6))
    rep = out.to_report()
    assert set(rep) == {"scenario", "check", "lhs", "rhs", "residual",
                        "tolerance", "pass", "diagnostics"}
    assert rep["pass"] is True


def test_run_check_tiny_tolerance_forces_failure():
    ctx = parse_scenario(FAST_SCENARIO).resolve()
    out = run_check(ctx, CheckSpec("coarea_variation", 1e-30))
    assert not out.passed and out.tolerance == 1e-30


@pytest.mark.parametrize("sid, check, module, name", [
    ("s01_smooth_const", "cyl_average", pairing, "cylindrical_average"),
    ("s04_jump_gt", "blowup", variational, "blowup_density")],
    ids=["cyl_average", "blowup"])
def test_unconverged_check_fails_within_its_tolerance(sid, check, module,
                                                      name, monkeypatch):
    # the same numbers, flagged unconverged: the residual alone would pass
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: dataclasses.replace(
        real(*a, **kw), converged=False))
    sc = load_catalog()[sid]
    spec = next(c for c in sc.checks if c.name == check)
    out = run_check(sc.resolve(), spec)
    assert out.residual <= out.tolerance
    assert out.passed is False and "error" not in out.diagnostics


def test_run_check_converts_errors_to_failed_outcome():
    # t-dependent field over a Cantor carrier: the recovery-sequence
    # integrals are out of scope and must surface as a failed outcome
    spec = dict(FAST_SCENARIO, id="bad_relax",
                field={"kind": "gt"},
                bv={"kind": "bv1d", "domain": [-2.0, 2.0],
                    "cantor": {"interval": [0.0, 1.0], "scale": 1.0}},
                checks=[{"name": "relaxation", "tolerance": 1e-4}])
    outs = run_scenario(parse_scenario(spec))
    assert len(outs) == 1
    assert not outs[0].passed
    assert "AssumptionViolation" in outs[0].diagnostics["error"]


CANTOR_SCENARIO = dict(
    FAST_SCENARIO, id="tiny_cantor", field={"kind": "gt"},
    bv={"kind": "bv1d", "domain": [-2.0, 2.0],
        "cantor": {"interval": [0.0, 1.0], "scale": 1.0, "depth": 10}},
    checks=[{"name": "two_route", "tolerance": 1e-6},
            {"name": "traces_route", "tolerance": 1e-6},
            {"name": "coarea_pairing", "tolerance": 1e-6}])


@pytest.mark.parametrize("sid", ["s09_cantor_gt", "s18_disc_radial2d"])
def test_no_check_runs_the_form_check(sid, monkeypatch):
    # chain_rule gates B against b; the numeric-t form is for library
    # callers only
    calls = []
    real = pairing._dist_values

    def counted(field, u, phi, tol, form_check):
        if form_check:
            calls.append(tol)
        return real(field, u, phi, tol, form_check)

    monkeypatch.setattr(pairing, "_dist_values", counted)
    sc = load_catalog()[sid]
    ctx = sc.resolve()
    assert all(run_check(ctx, spec).passed for spec in sc.checks)
    assert calls == []


def test_a_wrong_primitive_fails_every_route_check():
    # B off by 1e-3 t: every check that compares the B-built pairing with
    # a b-built one fails on its numbers, with no error
    ctx = parse_scenario(CANTOR_SCENARIO).resolve()
    right = ctx.field.primitive
    bad = dataclasses.replace(
        ctx.field, primitive=lambda x, t: right(x, t) + 1e-3 * np.asarray(t))
    bad_ctx = dataclasses.replace(ctx, field=bad, _memo={})
    specs = [*parse_scenario(CANTOR_SCENARIO).checks,
             CheckSpec("chain_rule", 1e-8)]
    outs = [run_check(bad_ctx, spec) for spec in specs]
    assert [o.check for o in outs] == [
        "two_route", "traces_route", "coarea_pairing", "chain_rule"]
    assert not any(o.passed for o in outs)
    assert all("error" not in o.diagnostics for o in outs)
    assert all(math.isfinite(v) for o in outs
               for v in (o.lhs, o.rhs, o.residual))
    assert all(run_check(ctx, spec).passed for spec in specs)


def test_ladder_walks_once_per_node_set(monkeypatch):
    # the stack size of each ladder walk of each s09 check, the checks run
    # in catalog order on one resolved scenario: two_route walks once for
    # the scenario's one closed-form dist, which chain_rule and lipschitz
    # read too, and lipschitz once for all five taus
    walks = []
    real = BvFunction1D._cantor_segment_integral

    def counted(self, hs, *args):
        walks.append(len(hs))
        return real(self, hs, *args)

    monkeypatch.setattr(BvFunction1D, "_cantor_segment_integral", counted)
    sc = load_catalog()["s09_cantor_gt"]
    ctx = sc.resolve()
    per_check = {}
    for spec in sc.checks:
        before = len(walks)
        assert run_check(ctx, spec).passed, spec.name
        per_check[spec.name] = walks[before:]
    assert per_check == {
        "two_route": [1], "traces_route": [], "chain_rule": [],
        "coarea_pairing": [], "coarea_variation": [], "mass_bound": [],
        "lipschitz": [5], "order_relations": []}


def test_resolved_scenarios_share_no_memo(monkeypatch):
    sc = parse_scenario(FAST_SCENARIO)
    first, second = sc.resolve(), sc.resolve()
    calls = []
    real = pairing.pairing_distributional

    def counted(*args, **kwargs):
        calls.append(kwargs["tol"])
        return real(*args, **kwargs)

    monkeypatch.setattr(pairing, "pairing_distributional", counted)
    assert first.distributional() == second.distributional()
    assert first.distributional() == second.distributional()
    assert calls == [1e-10, 1e-10]


@pytest.mark.parametrize("sid", ["s09_cantor_gt", "s11_mixed_tanh",
                                 "s20_smoothdisc_linear2d"])
def test_distributional_runs_once_per_scenario(sid, monkeypatch):
    # every check of the scenario, in catalog order on one resolved
    # scenario, reads its one B-built value; approximation's mollified
    # fields are other objects and pair on their own
    fields = []
    real = pairing.pairing_distributional

    def counted(field, *args, **kwargs):
        fields.append(field)
        return real(field, *args, **kwargs)

    monkeypatch.setattr(pairing, "pairing_distributional", counted)
    sc = load_catalog()[sid]
    ctx = sc.resolve()
    assert all(run_check(ctx, spec).passed for spec in sc.checks)
    assert sum(f is ctx.field for f in fields) == 1


@pytest.mark.parametrize("sid, names", [
    ("s04_jump_gt", ("two_route", "traces_route", "coarea_variation",
                     "mass_bound")),
    ("s15_disc_linear2d", ("two_route", "traces_route", "coarea_variation",
                           "mass_bound", "gauss_green")),
])
def test_representation_is_built_once_per_scenario(sid, names, monkeypatch):
    calls = []
    real = pairing.pairing_by_representation

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(pairing, "pairing_by_representation", counted)
    sc = load_catalog()[sid]
    ctx = sc.resolve()
    specs = [c for c in sc.checks if c.name in names]
    assert [c.name for c in specs] == list(names)
    assert all(run_check(ctx, c).passed for c in specs)
    assert len(calls) == 1


@pytest.mark.parametrize("sid", ["s03_jump_const", "s06_stair_xt",
                                 "s08_cantor_const"])
def test_checks_build_their_own_representation_only_through_the_memo(
        sid, monkeypatch):
    # every check of the scenario, run in catalog order on one resolved
    # scenario, reads the representation of its (field, u) from the memo:
    # one build in all.  Measures of fields a check makes itself (lsc's
    # truncate(b, k), sigma_k's b^k) are other builds.
    sc = load_catalog()[sid]
    ctx = sc.resolve()
    own = []
    real = pairing._representation_1d

    def counted(field, u, *args):
        own.append(field is ctx.field and u is ctx.u)
        return real(field, u, *args)

    monkeypatch.setattr(pairing, "_representation_1d", counted)
    for spec in sc.checks:
        assert run_check(ctx, spec).passed, spec.name
    assert own.count(True) == 1


@pytest.mark.parametrize("sid", ["s03_jump_const", "s04_jump_gt",
                                 "s06_stair_xt"])
def test_checks_vary_each_measure_once(sid, monkeypatch):
    # |mu|(E) is variation().restrict(E): the sign scan of a measure's
    # density runs once per measure, not once per mass window or blow-up
    # radius
    sc = load_catalog()[sid]
    ctx = sc.resolve()
    calls = []
    real = measures.find_sign_changes

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(measures, "find_sign_changes", counted)
    scans = {}
    for spec in sc.checks:
        before = len(calls)
        out = run_check(ctx, spec)
        assert out.passed, spec.name
        scans[spec.name] = (len(calls) - before, out)
    # the pairing measure's and |Du|'s, for all 20 windows
    assert scans["mass_bound"][0] <= 2
    n, out = scans["relaxation"]
    blowups = sum(k.startswith("blowup_") for k in out.diagnostics)
    assert blowups >= 1 and n <= blowups
    if sid == "s04_jump_gt":
        assert scans["blowup"][0] <= 1


def test_run_scenario_overall(tmp_path):
    outs = run_scenario(parse_scenario(FAST_SCENARIO))
    assert all(o.passed for o in outs)


def test_run_scenario_that_does_not_resolve_fails_each_check():
    sc = parse_scenario(dict(FAST_SCENARIO, field={"kind": "nope"}))
    outs = run_scenario(sc)
    assert [(o.check, o.passed, o.tolerance) for o in outs] == [
        ("two_route", False, 1e-6), ("chain_rule", False, 1e-8)]
    for o in outs:
        assert o.scenario == "tiny_jump"
        assert o.diagnostics["error"].startswith("SpecError: bad field spec")


def test_non_finite_field_in_a_spec_fails_at_resolve():
    # json reads a bare NaN; the field must be rejected as such, not fail
    # each check later with an unrelated numerical error
    sc = parse_scenario(json.loads(json.dumps(dict(
        FAST_SCENARIO, field={"kind": "const", "params": {"c": math.nan}}))))
    for o in run_scenario(sc):
        assert o.diagnostics["error"].startswith("AssumptionViolation")


@pytest.mark.parametrize("sid, check, tol, rows", [
    ("s01_smooth_const", "approximation", 1e-18, 7),
    ("s03_jump_const", "continuity", 1e-18, 8),
    ("s03_jump_const", "lsc", 1e-18, 8),
    ("s03_jump_const", "relaxation", 1e-18, 12),
    ("s04_jump_gt", "lipschitz", -10.0, 0)])
def test_failing_check_keeps_its_numbers(sid, check, tol, rows):
    # the adapter's comparison is the check's one verdict: below its
    # residual the check fails with finite numbers and its table, no error
    sc = load_catalog()[sid]
    spec = next(c for c in sc.checks if c.name == check)
    out = run_check(sc.resolve(), dataclasses.replace(spec, tolerance=tol))
    assert out.passed is False and "error" not in out.diagnostics
    assert all(math.isfinite(v) for v in (out.lhs, out.rhs, out.residual))
    assert len(out.table) == rows


def test_mass_bound_verdict_follows_its_tolerance(monkeypatch):
    # halve the field's sampled sup: the bound |mu|(E) <= ||b|| |Du|(E) then
    # fails by |Du|(E)/2, within a loose tolerance but not a strict one
    ctx = load_catalog()["s03_jump_const"].resolve()
    real = FieldB.sup_norm
    monkeypatch.setattr(FieldB, "sup_norm",
                        lambda self, *a, **kw: 0.5 * real(self, *a, **kw))
    spec = CheckSpec("mass_bound", 1e-9, {"windows": 5})
    strict = run_check(ctx, spec)
    loose = run_check(ctx, dataclasses.replace(spec, tolerance=10.0))
    assert (strict.passed, loose.passed) == (False, True)
    assert strict.residual == loose.residual > 0.1


@pytest.mark.parametrize("shrink,passed", [(1.5e-9, True), (1e-6, False)])
def test_mass_bound_report_shows_the_tolerance_it_uses(monkeypatch, shrink,
                                                       passed):
    # a sup just below the true one breaks the bound by ~shrink |bound|:
    # the residual is relative to 1 + |bound|, so the verdict is exactly
    # residual <= tolerance (an absolute residual of 1.5e-9 used to pass
    # at tolerance 1e-9)
    ctx = load_catalog()["s03_jump_const"].resolve()
    real = FieldB.sup_norm
    monkeypatch.setattr(FieldB, "sup_norm",
                        lambda self, *a, **kw: (1.0 - shrink)
                        * real(self, *a, **kw))
    out = run_check(ctx, CheckSpec("mass_bound", 1e-9, {"windows": 20}))
    assert out.passed is passed
    assert out.passed == (out.residual <= out.tolerance)
    assert out.residual > 0.0 and out.lhs > 0.0
    assert (out.diagnostics["violations"] == 0) is passed


def test_order_relations_residual_is_relative_to_F(monkeypatch):
    # G just above F breaks F >= |G| by 1.5e-9 F; relative to 1 + |F| the
    # residual stays below a tolerance of 1e-9 and the verdict says so
    ctx = load_catalog()["s03_jump_const"].resolve()
    real = variational.Functionals._pair
    monkeypatch.setattr(variational.Functionals, "_pair",
                        lambda self, u: (lambda g, f: (f * (1 + 1.5e-9), f))(
                            *real(self, u)))
    spec = CheckSpec("order_relations", 1e-9, {})
    out = run_check(ctx, spec)
    assert 0.0 < out.residual <= out.tolerance and out.passed
    assert out.residual == pytest.approx(1.5e-9 * out.lhs / (1 + out.lhs),
                                         rel=1e-3)
    strict = run_check(ctx, dataclasses.replace(spec, tolerance=1e-10))
    assert strict.passed is False
    assert strict.residual == out.residual


NAN = math.nan


@pytest.mark.parametrize("check, module, name, fake", [
    ("lipschitz", pairing, "lipschitz_comparison_check",
     lambda *a, **kw: [(NAN, 0.0), (0.0, 1.0)]),
    ("mass_bound", pairing, "mass_bound_check",
     lambda *a, **kw: [{"window": (0.0, 1.0), "lhs": NAN, "bound": 1.0,
                        "excess": NAN},
                       {"window": (1.0, 2.0), "lhs": 0.5, "bound": 1.0,
                        "excess": -0.25}]),
    ("order_relations", variational.Functionals, "_pair",
     lambda self, u: (NAN, 1.0)),
    ("sigma_k", variational, "sigma_k_identity_check",
     lambda b, u, k, rep, phi=None: {"k": k, "diffuse": NAN, "jump": 0.0,
                                     "g_invariance": 0.0}),
    ("lsc", variational, "lsc_check",
     lambda *a, **kw: variational.LscResult(NAN, 1.0, NAN, (NAN,), 3.0,
                                            0.0)),
    ("cyl_average", pairing, "cylindrical_average",
     lambda *a, **kw: pairing.CylAverage(NAN, True)),
], ids=["lipschitz", "mass_bound", "order_relations", "sigma_k", "lsc",
        "cyl_average"])
def test_a_nan_fails_the_gate_and_reports_null(check, module, name, fake,
                                               monkeypatch):
    # the builtin max drops a NaN that is not its first argument: each gate
    # must fail on a NaN from its producer and report the NaN, which the
    # report writes as null.  The check runs on the first shipped scenario
    # that has it.
    scenario, spec = next((sc, c) for sc in load_catalog().values()
                          for c in sc.checks if c.name == check)
    monkeypatch.setattr(module, name, fake)
    out = run_check(scenario.resolve(), spec)
    assert out.passed is False and "error" not in out.diagnostics
    assert math.isnan(out.residual)
    assert _finite_or_null(out.to_report())["residual"] is None


# ---------------------------------------------------------------------------
# command line


def _write_fast(tmp_path, scenario=FAST_SCENARIO):
    p = tmp_path / "tiny_jump.json"
    p.write_text(json.dumps(scenario))
    return p


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def _strict_load(path):
    """A report parsed as standard JSON: NaN and Infinity are rejected."""
    return json.loads(path.read_text(), parse_constant=_no_constant)


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert len(out) == 21


def test_cli_list_of_a_file_prints_its_id(capsys):
    assert main(["list", str(S03_PATH)]) == 0
    assert capsys.readouterr().out.split() == ["s03_jump_const"]


def test_cli_list_of_a_missing_path_is_a_spec_error(tmp_path, capsys):
    missing = tmp_path / "nonexistent"
    assert main(["list", str(missing)]) == 2
    listed = capsys.readouterr()
    assert listed.out == ""
    assert main(["run", str(missing), "--out", str(tmp_path / "r")]) == 2
    assert listed.err == capsys.readouterr().err
    assert listed.err.startswith(f"spec error: cannot read {missing}")


def test_cli_run_single_scenario(tmp_path, capsys):
    p = _write_fast(tmp_path)
    outdir = tmp_path / "reports"
    code = main(["run", str(p), "--out", str(outdir)])
    assert code == 0
    rep = _strict_load(outdir / "tiny_jump.json")
    assert rep["overall_pass"] is True
    assert {c["check"] for c in rep["checks"]} == {"two_route", "chain_rule"}
    assert "timing_seconds" in rep
    with open(outdir / "aggregate.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["scenario", "check", "residual", "pass"]
    assert len(rows) == 3
    assert all(r[3] == "pass" for r in rows[1:])


def test_cli_run_stable_is_deterministic(tmp_path):
    p = _write_fast(tmp_path)
    texts = []
    for name in ("r1", "r2"):
        outdir = tmp_path / name
        assert main(["run", str(p), "--stable", "--out", str(outdir)]) == 0
        rep = _strict_load(outdir / "tiny_jump.json")
        assert "timing_seconds" not in rep
        assert "environment" not in rep
        texts.append((outdir / "tiny_jump.json").read_bytes())
    assert texts[0] == texts[1]


def test_cli_run_parse_error_exit_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["run", str(p), "--out", str(tmp_path / "r")]) == 2


def test_cli_keep_going_skips_malformed(tmp_path, capsys):
    d = tmp_path / "cat"
    d.mkdir()
    (d / "broken.json").write_text("{not json")
    (d / "tiny_jump.json").write_text(json.dumps(FAST_SCENARIO))
    outdir = tmp_path / "r"
    assert main(["run", str(d), "--keep-going", "--out", str(outdir)]) == 0
    err = capsys.readouterr().err
    assert "skipped" in err and "broken.json" in err
    assert (outdir / "tiny_jump.json").exists()


def test_cli_unknown_check_is_a_spec_error(tmp_path, capsys):
    d = tmp_path / "cat"
    d.mkdir()
    bad = dict(FAST_SCENARIO, id="a_bad",
               checks=[{"name": "no_such_check", "tolerance": 1e-6}])
    (d / "a_bad.json").write_text(json.dumps(bad))
    (d / "tiny_jump.json").write_text(json.dumps(FAST_SCENARIO))
    outdir = tmp_path / "r"
    assert main(["run", str(d), "--out", str(outdir)]) == 2
    assert not outdir.exists()
    assert main(["run", str(d), "--keep-going", "--out", str(outdir)]) == 0
    assert sorted(p.name for p in outdir.iterdir()) \
        == ["aggregate.csv", "tiny_jump.json"]
    assert "no_such_check" in capsys.readouterr().err


def _aggregate_rows(outdir):
    with open(outdir / "aggregate.csv") as fh:
        return list(csv.reader(fh))[1:]


def _catalog_dir(tmp_path, files):
    d = tmp_path / "cat"
    d.mkdir()
    for name, scenario in files.items():
        (d / name).write_text(json.dumps(scenario))
    return d


@pytest.mark.parametrize("windows", [0, -3, 2.5, True, "20"])
def test_cli_vacuous_mass_bound_windows_is_a_spec_error(windows, tmp_path,
                                                        capsys):
    bad = dict(FAST_SCENARIO, id="a_bad",
               checks=[{"name": "mass_bound", "tolerance": 1e-9,
                        "params": {"windows": windows}}])
    d = _catalog_dir(tmp_path, {"a_bad.json": bad,
                                "tiny_jump.json": FAST_SCENARIO})
    outdir = tmp_path / "r"
    assert main(["run", str(d), "--out", str(outdir)]) == 2
    assert not outdir.exists()
    assert main(["run", str(d), "--keep-going", "--out", str(outdir)]) == 0
    assert sorted(p.name for p in outdir.iterdir()) \
        == ["aggregate.csv", "tiny_jump.json"]
    assert [r[0] for r in _aggregate_rows(outdir)] == ["tiny_jump"] * 2
    err = capsys.readouterr().err
    assert "skipped" in err and "a_bad.json" in err and "windows" in err


S03_PATH = shipped_catalog_dir() / "s03_jump_const.json"


@pytest.mark.parametrize("check, params", [
    ("cyl_average", {"points": 0}),
    ("cyl_average", {"points": -5}),
    ("lipschitz", {"taus": []}),
    ("sigma_k", {"ks": []}),
], ids=["points0", "points-5", "taus", "ks"])
def test_cli_vacuous_check_params_are_spec_errors(check, params, tmp_path,
                                                  capsys):
    # each of these passed with residual 0 even under tolerance 1e-30
    bad = dict(json.loads(S03_PATH.read_text()), id="a_bad",
               checks=[{"name": check, "tolerance": 1e-30,
                        "params": params}])
    d = _catalog_dir(tmp_path, {"a_bad.json": bad,
                                "tiny_jump.json": FAST_SCENARIO})
    outdir = tmp_path / "r"
    assert main(["run", str(d), "--out", str(outdir)]) == 2
    assert not outdir.exists()
    assert main(["run", str(d), "--keep-going", "--out", str(outdir)]) == 0
    assert sorted(p.name for p in outdir.iterdir()) \
        == ["aggregate.csv", "tiny_jump.json"]
    err = capsys.readouterr().err
    assert "skipped" in err and "a_bad.json" in err
    assert next(iter(params)) in err


@pytest.mark.parametrize("check, params", [
    ("cyl_average", {"points": 2.5}),
    ("cyl_average", {"points": True}),
    ("cyl_average", {"points": "20"}),
    ("continuity", {"count": 0}),
    ("lsc", {"count": -1}),
    ("approximation", {"eps0": 0.0}),
    ("relaxation", {"eps0": -0.04}),
    ("relaxation", {"eps0": math.inf}),
    ("relaxation", {"eps0": math.nan}),
    ("relaxation", {"eps0": "0.04"}),
    ("lipschitz", {"taus": [0.5, math.nan]}),
    ("lipschitz", {"taus": 0.5}),
    ("sigma_k", {"ks": [math.inf]}),
    ("blowup", {"radii": []}),
    ("blowup", {"radii": [0.01, math.inf]}),
    ("lsc", {"sequence": "oscillation", "n_values": []}),
    ("lsc", {"sequence": "oscillation", "n_values": [4, None]}),
])
def test_parse_rejects_vacuous_check_params(check, params):
    bad = dict(FAST_SCENARIO, checks=[{"name": check, "tolerance": 1e-6,
                                       "params": params}])
    with pytest.raises(SpecError, match=list(params)[-1]):
        parse_scenario(bad)


@pytest.mark.parametrize("check, params", [
    ("cyl_average", {"points": 1}),
    ("continuity", {"count": 1}),
    ("relaxation", {"eps0": 1e-3}),
    ("lipschitz", {"taus": [0.5]}),
    ("sigma_k", {"ks": [2]}),
    ("blowup", {"radii": [0.01, 0.005, 0.0025]}),
    ("lsc", {"sequence": "oscillation", "n_values": [4]}),
])
def test_parse_accepts_minimal_check_params(check, params):
    ok = dict(FAST_SCENARIO, checks=[{"name": check, "tolerance": 1e-6,
                                      "params": params}])
    assert parse_scenario(ok).checks[0].params == params


@pytest.mark.parametrize("keep_going", [[], ["--keep-going"]])
def test_cli_unresolvable_scenario_fails_only_itself(keep_going, tmp_path):
    bad = dict(FAST_SCENARIO, id="a_bad", field={"kind": "nope"})
    d = _catalog_dir(tmp_path, {"a_bad.json": bad,
                                "tiny_jump.json": FAST_SCENARIO})
    outdir = tmp_path / "r"
    assert main(["run", str(d), "--stable", "--out", str(outdir)]
                + keep_going) == 1
    rep = _strict_load(outdir / "a_bad.json")
    assert rep["overall_pass"] is False
    assert [c["check"] for c in rep["checks"]] == ["two_route", "chain_rule"]
    for c in rep["checks"]:
        assert c["pass"] is False
        assert c["lhs"] is c["rhs"] is c["residual"] is None
        assert c["diagnostics"]["error"].startswith("SpecError: ")
        assert "nope" in c["diagnostics"]["error"]
    assert _strict_load(outdir / "tiny_jump.json")["overall_pass"] is True
    assert [(r[0], r[1], r[3]) for r in _aggregate_rows(outdir)] == [
        ("a_bad", "two_route", "fail"), ("a_bad", "chain_rule", "fail"),
        ("tiny_jump", "two_route", "pass"), ("tiny_jump", "chain_rule", "pass")]
    assert [r[2] for r in _aggregate_rows(outdir)[:2]] == ["inf", "inf"]


def test_cli_series_unresolvable_scenario_is_a_spec_error(tmp_path,
                                                         monkeypatch, capsys):
    bad = dict(FAST_SCENARIO, id="a_bad", field={"kind": "nope"})
    d = _catalog_dir(tmp_path, {"a_bad.json": bad})
    monkeypatch.setattr(scenarios, "shipped_catalog_dir", lambda: d)
    out = tmp_path / "series.csv"
    assert main(["series", "a_bad", "two_route", str(out)]) == 2
    assert not out.exists()
    assert "spec error" in capsys.readouterr().err


def test_cli_vacuous_2d_geometry_fails_each_check(tmp_path, monkeypatch):
    bad = {"id": "a_empty_disc", "field": {"kind": "linear2d"},
           "bv": dict(DISC_BV, radius=0.0),
           "phi": {"kind": "radial2d", "r_plateau": 1.2, "r_out": 1.9},
           "checks": [{"name": "two_route", "tolerance": 1e-6},
                      {"name": "coarea_pairing", "tolerance": 1e-30}]}
    d = _catalog_dir(tmp_path, {"a_empty_disc.json": bad})
    outdir = tmp_path / "r"
    assert main(["run", str(d), "--stable", "--out", str(outdir)]) == 1
    checks = _strict_load(outdir / "a_empty_disc.json")["checks"]
    assert [c["pass"] for c in checks] == [False, False]
    for c in checks:
        assert c["diagnostics"]["error"].startswith(
            "SpecError: bv2d 'radius' must be a finite number > 0")
    monkeypatch.setattr(scenarios, "shipped_catalog_dir", lambda: d)
    out = tmp_path / "series.csv"
    assert main(["series", "a_empty_disc", "two_route", str(out)]) == 2
    assert not out.exists()


def test_duplicate_scenario_ids_are_a_spec_error(tmp_path, capsys):
    first = dict(FAST_SCENARIO, checks=[{"name": "two_route",
                                         "tolerance": 1e-6}])
    second = dict(FAST_SCENARIO, checks=[{"name": "chain_rule",
                                          "tolerance": 1e-8}])
    d = _catalog_dir(tmp_path, {"a_first.json": first,
                                "b_second.json": second})
    with pytest.raises(SpecError, match="a_first.json.*b_second.json"):
        load_catalog(d)
    assert main(["list", str(d)]) == 2
    outdir = tmp_path / "r"
    assert main(["run", str(d), "--out", str(outdir)]) == 2
    assert not outdir.exists()
    err = capsys.readouterr().err
    assert "duplicate scenario id 'tiny_jump'" in err
    assert "a_first.json" in err and "b_second.json" in err
    assert main(["run", str(d), "--keep-going", "--out", str(outdir)]) == 0
    assert sorted(p.name for p in outdir.iterdir()) \
        == ["aggregate.csv", "tiny_jump.json"]
    rep = _strict_load(outdir / "tiny_jump.json")
    assert [c["check"] for c in rep["checks"]] == ["two_route"]
    assert [(r[0], r[1], r[3]) for r in _aggregate_rows(outdir)] == [
        ("tiny_jump", "two_route", "pass")]
    err = capsys.readouterr().err
    assert "skipped" in err and "b_second.json" in err


def test_cli_unexpected_exception_fails_that_check_only(tmp_path,
                                                        monkeypatch):
    def broken(ctx, params, tol):
        raise ValueError("boom")

    monkeypatch.setitem(CHECKS, "chain_rule", broken)
    d = tmp_path / "cat"
    d.mkdir()
    for sid in ("a_one", "b_two"):
        (d / f"{sid}.json").write_text(
            json.dumps(dict(FAST_SCENARIO, id=sid)))
    outdir = tmp_path / "r"
    assert main(["run", str(d), "--stable", "--out", str(outdir)]) == 1
    for sid in ("a_one", "b_two"):
        rep = _strict_load(outdir / f"{sid}.json")
        checks = {c["check"]: c for c in rep["checks"]}
        assert checks["two_route"]["pass"] is True
        failed = checks["chain_rule"]
        assert failed["pass"] is False
        assert failed["diagnostics"] == {"error": "ValueError: boom"}
        assert failed["lhs"] is failed["rhs"] is failed["residual"] is None
    with open(outdir / "aggregate.csv") as fh:
        rows = list(csv.reader(fh))
    assert [(r[1], r[3]) for r in rows[1:]] == [
        ("two_route", "pass"), ("chain_rule", "fail")] * 2
    assert rows[2][2] == "inf"


def test_cli_reports_write_non_finite_as_null(tmp_path):
    # sigma_k without g_invariance reports a NaN g_invariance and passes
    p = _write_fast(tmp_path, dict(
        FAST_SCENARIO, checks=[{"name": "sigma_k", "tolerance": 1e-6}]))
    outdir = tmp_path / "r"
    assert main(["run", str(p), "--stable", "--out", str(outdir)]) == 0
    (check,) = _strict_load(outdir / "tiny_jump.json")["checks"]
    assert check["pass"] is True
    assert check["diagnostics"]["k=2"]["g_invariance"] is None


def test_cli_run_failure_exit_1(tmp_path):
    p = _write_fast(tmp_path, dict(FAST_SCENARIO, checks=[
        {"name": "two_route", "tolerance": 1e-30},
        {"name": "chain_rule", "tolerance": 1e-30}]))
    code = main(["run", str(p), "--out", str(tmp_path / "r")])
    assert code == 1


def test_cli_no_environment_variable_scales_a_tolerance(tmp_path,
                                                        monkeypatch):
    # approximation at one eps = 0.1 leaves a residual of about 3e-4; the
    # variable that once scaled every tolerance must not let it pass
    spec = dict(FAST_SCENARIO, field={"kind": "sep"}, checks=[
        {"name": "approximation", "tolerance": 1e-6,
         "params": {"eps0": 0.1, "count": 1}}])
    p = _write_fast(tmp_path, spec)
    monkeypatch.setenv("LAB_TOL_SCALE", "1e3")
    outdir = tmp_path / "r"
    assert main(["run", str(p), "--stable", "--out", str(outdir)]) == 1
    (check,) = _strict_load(outdir / "tiny_jump.json")["checks"]
    assert check["tolerance"] == 1e-6 and check["residual"] > 1e-4


def test_cli_aggregate_csv_written_atomically(tmp_path):
    p = _write_fast(tmp_path)
    outdir = tmp_path / "r"
    assert main(["run", str(p), "--stable", "--out", str(outdir)]) == 0
    rep = _strict_load(outdir / "tiny_jump.json")
    expect = "scenario,check,residual,pass\r\n" + "".join(
        f"tiny_jump,{c['check']},{c['residual']:.6e},pass\r\n"
        for c in rep["checks"])
    assert (outdir / "aggregate.csv").read_bytes() == expect.encode()
    assert list(outdir.glob("*.tmp")) == []


def test_cli_jobs_parallel_matches_serial(tmp_path):
    d = tmp_path / "cat"
    d.mkdir()
    for sid in ("a_one", "b_two"):
        (d / f"{sid}.json").write_text(
            json.dumps(dict(FAST_SCENARIO, id=sid)))
    serial = tmp_path / "serial"
    par = tmp_path / "par"
    assert main(["run", str(d), "--stable", "--out", str(serial)]) == 0
    assert main(["run", str(d), "--stable", "--jobs", "2",
                 "--out", str(par)]) == 0
    for sid in ("a_one", "b_two"):
        assert (serial / f"{sid}.json").read_bytes() \
            == (par / f"{sid}.json").read_bytes()
    assert (serial / "aggregate.csv").read_bytes() \
        == (par / "aggregate.csv").read_bytes()


def _three_scenarios(tmp_path):
    d = tmp_path / "cat"
    d.mkdir()
    for sid in ("a_one", "b_two", "c_three"):
        (d / f"{sid}.json").write_text(
            json.dumps(dict(FAST_SCENARIO, id=sid)))
    return d


def _fail_chain_rule_of_b_two(monkeypatch, fail):
    real = CHECKS["chain_rule"]

    def check(ctx, params, tol):
        if ctx.id == "b_two":
            fail()
        return real(ctx, params, tol)

    monkeypatch.setitem(CHECKS, "chain_rule", check)


def test_cli_jobs_mixed_outcomes_match_serial(tmp_path, monkeypatch):
    def boom():
        raise ValueError("boom")

    _fail_chain_rule_of_b_two(monkeypatch, boom)
    d = _three_scenarios(tmp_path)
    serial = tmp_path / "serial"
    par = tmp_path / "par"
    assert main(["run", str(d), "--stable", "--out", str(serial)]) == 1
    assert main(["run", str(d), "--stable", "--jobs", "2",
                 "--out", str(par)]) == 1
    names = sorted(p.name for p in serial.iterdir())
    assert names == ["a_one.json", "aggregate.csv", "b_two.json",
                     "c_three.json"]
    assert sorted(p.name for p in par.iterdir()) == names
    for name in names:
        assert (serial / name).read_bytes() == (par / name).read_bytes()
    checks = _strict_load(par / "b_two.json")["checks"]
    assert [c["pass"] for c in checks] == [True, False]
    assert checks[1]["diagnostics"] == {"error": "ValueError: boom"}


def test_cli_jobs_dead_worker_fails_its_scenario(tmp_path, monkeypatch):
    # the fork start method hands the patched check to the workers
    _fail_chain_rule_of_b_two(monkeypatch, lambda: os._exit(1))
    d = _three_scenarios(tmp_path)
    outdir = tmp_path / "r"
    assert main(["run", str(d), "--stable", "--jobs", "2",
                 "--out", str(outdir)]) == 1
    assert sorted(p.name for p in outdir.iterdir()) == [
        "a_one.json", "aggregate.csv", "b_two.json", "c_three.json"]
    rep = _strict_load(outdir / "b_two.json")
    assert rep["overall_pass"] is False
    assert [c["check"] for c in rep["checks"]] == ["two_route", "chain_rule"]
    for c in rep["checks"]:
        assert c["pass"] is False
        assert c["diagnostics"]["error"].startswith("BrokenProcessPool: ")
    # the scenarios the broken pool left are run again alone: only the
    # one that kills its worker fails
    for sid in ("a_one", "c_three"):
        rep = _strict_load(outdir / f"{sid}.json")
        assert rep["overall_pass"] is True, sid
        assert all("error" not in c["diagnostics"] for c in rep["checks"])
    assert [r[3] for r in _aggregate_rows(outdir)] == [
        "pass", "pass", "fail", "fail", "pass", "pass"]
    assert [(r[0], r[1]) for r in _aggregate_rows(outdir)] == [
        (sid, name) for sid in ("a_one", "b_two", "c_three")
        for name in ("two_route", "chain_rule")]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_rejects_jobs_below_one(jobs, tmp_path, capsys):
    p = _write_fast(tmp_path)
    outdir = tmp_path / "r"
    with pytest.raises(SystemExit) as exc:
        main(["run", str(p), "--jobs", jobs, "--out", str(outdir)])
    assert exc.value.code == 2
    assert not outdir.exists()
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["1e309", "-1e309", "NaN", "0", "-1"])
def test_cli_non_finite_tolerance_is_a_spec_error(tol, tmp_path, capsys):
    d = tmp_path / "cat"
    d.mkdir()
    bad = dict(FAST_SCENARIO, id="a_bad",
               checks=[{"name": "two_route", "tolerance": 1e-6}])
    (d / "a_bad.json").write_text(
        json.dumps(bad).replace("1e-06", tol))
    (d / "tiny_jump.json").write_text(json.dumps(FAST_SCENARIO))
    outdir = tmp_path / "r"
    assert main(["run", str(d), "--out", str(outdir)]) == 2
    assert not outdir.exists()
    assert main(["run", str(d), "--keep-going", "--out", str(outdir)]) == 0
    assert sorted(p.name for p in outdir.iterdir()) \
        == ["aggregate.csv", "tiny_jump.json"]
    err = capsys.readouterr().err
    assert "skipped" in err and "a_bad.json" in err and "tolerance" in err


def test_cli_series_blowup(tmp_path, capsys):
    out = tmp_path / "series.csv"
    assert main(["series", "s04_jump_gt", "blowup", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["parameter", "value"]
    assert len(rows) > 1
    radii = [float(r[0]) for r in rows[1:]]
    assert radii == sorted(radii, reverse=True)


def test_cli_series_header_only_for_tableless_check(tmp_path):
    out = tmp_path / "series.csv"
    assert main(["series", "s01_smooth_const", "two_route", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows == [["parameter", "value"]]


def test_cli_series_failed_check_exits_1(tmp_path, capsys):
    # blowup on a u without jumps raises; the (empty) table is still
    # written, and the failure is reported, not hidden behind exit 0
    out = tmp_path / "series.csv"
    assert main(["series", "s01_smooth_const", "blowup", str(out)]) == 1
    with open(out) as fh:
        assert list(csv.reader(fh)) == [["parameter", "value"]]
    err = capsys.readouterr().err
    assert "s01_smooth_const blowup FAIL" in err and "error=" in err


def test_cli_series_writes_the_table_of_a_failing_check(tmp_path,
                                                        monkeypatch, capsys):
    # lsc's own numbers and table, with a residual above any tolerance
    real = CHECKS["lsc"]
    monkeypatch.setitem(CHECKS, "lsc", lambda *a: dataclasses.replace(
        real(*a), residual=1.0))
    out = tmp_path / "series.csv"
    assert main(["series", "s03_jump_const", "lsc", str(out)]) == 1
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["parameter", "value"]
    assert [r[0] for r in rows[1:]] == [str(i) for i in range(8)]
    err = capsys.readouterr().err
    assert "s03_jump_const lsc FAIL" in err and "error=" not in err


def test_cli_series_unknown_inputs(tmp_path, capsys):
    out = tmp_path / "series.csv"
    assert main(["series", "no_such_scenario", "blowup", str(out)]) == 2
    assert main(["series", "s01_smooth_const", "no_such_check",
                 str(out)]) == 2


def _s19_with(**changes):
    with open(shipped_catalog_dir() / "s19_square_linear2d.json") as fh:
        return dict(json.load(fh), **changes)


def test_gauss_green_on_square():
    (out,) = run_scenario(parse_scenario(_s19_with(
        checks=[{"name": "gauss_green", "tolerance": 1e-10}])))
    # int -div b = -2 over the square of side 1.6, times the value 1.5
    assert out.passed
    assert abs(out.lhs + 7.68) < 1e-12 and abs(out.rhs + 7.68) < 1e-12


@pytest.mark.parametrize("check, spec", [
    ("gauss_green", FAST_SCENARIO), ("gauss_green", _s19_with(bv=RADIAL_BV)),
    ("relaxation", _s19_with()), ("relaxation", _s19_with(bv=RADIAL_BV)),
], ids=["gauss_green-1d", "gauss_green-radial", "relaxation-square",
        "relaxation-radial"])
def test_checks_needing_regions_fail_typed(check, spec):
    spec = dict(spec, checks=[{"name": check, "tolerance": 1e-6}])
    (out,) = run_scenario(parse_scenario(spec))
    assert not out.passed
    assert out.diagnostics["error"].startswith("AssumptionViolation")


def _shipped_with(stem, **changes):
    with open(shipped_catalog_dir() / f"{stem}.json") as fh:
        return dict(json.load(fh), **changes)


def test_gauss_green_with_t_dependent_divergence():
    # b = t x: div_x b = 2t, B = t^2 x / 2 and Div_x B = t^2.  The pairing
    # of the unit disc with value 1 has total mass -int_disc Div_x B(x, 1)
    # = -pi, not -int_disc div_x b(x, 1) = -2 pi
    field = make_field(
        name="tx2d", dim=2,
        eval=lambda p, t: np.asarray(t, float)[..., None]
        * np.asarray(p, float),
        div_x=lambda p, t: 2.0 * np.asarray(t, float)
        + np.zeros(np.shape(p)[:-1]),
        primitive=lambda p, t: 0.5 * np.asarray(t, float)[..., None] ** 2
        * np.asarray(p, float),
        div_primitive=lambda p, t: np.asarray(t, float) ** 2
        + np.zeros(np.shape(p)[:-1]),
        sigma=lambda p: 4.0 * np.hypot(np.asarray(p, float)[..., 0],
                                       np.asarray(p, float)[..., 1]),
        lipschitz_t=3.0)
    ctx = dataclasses.replace(
        parse_scenario(_shipped_with("s15_disc_linear2d")).resolve(),
        field=field)
    out = run_check(ctx, CheckSpec("gauss_green", 1e-6))
    assert abs(out.lhs + math.pi) < 1e-6
    assert abs(out.rhs + math.pi) < 1e-9
    assert out.passed


@pytest.mark.parametrize("stem, params", [
    ("s01_smooth_const", {}),
    ("s03_jump_const", {"point": "cantor"}),
    ("s03_jump_const", {"index": 3}),
    ("s15_disc_linear2d", {}),
], ids=["no-jump", "no-cantor", "jump-index", "2d"])
def test_blowup_without_its_point_fails_typed(stem, params):
    spec = _shipped_with(stem, checks=[
        {"name": "blowup", "tolerance": 1e-6, "params": params}])
    (out,) = run_scenario(parse_scenario(spec))
    assert not out.passed
    assert out.diagnostics["error"].startswith("AssumptionViolation")


def test_checks_registry_is_complete():
    assert set(CHECKS) == {
        "two_route", "traces_route", "coarea_pairing", "coarea_variation",
        "chain_rule", "mass_bound", "lipschitz", "gauss_green",
        "cyl_average", "approximation", "continuity", "lsc", "relaxation",
        "blowup", "sigma_k", "order_relations"}
