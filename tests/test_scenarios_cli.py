"""Scenario parsing, check registry, and the command line runner."""

import csv
import json
import math
import os
import shutil

import pytest

from pairinglab import pairing, scenarios
from pairinglab.cli import main
from pairinglab.errors import SpecError, UnknownCheck
from pairinglab.scenarios import (CHECKS, CheckSpec, load_catalog,
                                  load_scenario_file, parse_scenario,
                                  run_check, run_scenario)

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


def test_run_check_tol_scale_can_force_failure():
    ctx = parse_scenario(FAST_SCENARIO).resolve()
    out = run_check(ctx, CheckSpec("coarea_variation", 1e-5),
                    tol_scale=1e-30)
    assert not out.passed


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


def _count_form_checks(monkeypatch, shift=0.0):
    """Count the double-integral form evaluations; ``shift`` perturbs them."""
    calls = []
    real = pairing._dist_value_1d

    def counted(field, u, phi, tol, numeric_t):
        value = real(field, u, phi, tol, numeric_t)
        if numeric_t:
            calls.append(tol)
            value += shift
        return value

    monkeypatch.setattr(pairing, "_dist_value_1d", counted)
    return calls


def test_form_check_runs_once_per_scenario(monkeypatch):
    calls = _count_form_checks(monkeypatch)
    outs = run_scenario(parse_scenario(CANTOR_SCENARIO))
    assert [o.passed for o in outs] == [True, True, True]
    assert len(calls) == 1


def test_form_mismatch_fails_every_check_that_needs_it(monkeypatch):
    calls = _count_form_checks(monkeypatch, shift=1.0)
    outs = run_scenario(parse_scenario(CANTOR_SCENARIO))
    assert [o.passed for o in outs] == [False, False, False]
    assert all("FormMismatch" in o.diagnostics["error"] for o in outs)
    assert len(calls) == 3  # a mismatch is not memoized


def test_resolved_scenarios_share_no_memo(monkeypatch):
    sc = parse_scenario(FAST_SCENARIO)
    first, second = sc.resolve(), sc.resolve()
    calls = _count_form_checks(monkeypatch)
    assert first.distributional() == second.distributional()
    assert first.distributional() == second.distributional()
    assert len(calls) == 2


def test_run_scenario_overall(tmp_path):
    outs = run_scenario(parse_scenario(FAST_SCENARIO))
    assert all(o.passed for o in outs)


def test_run_scenario_that_does_not_resolve_fails_each_check():
    sc = parse_scenario(dict(FAST_SCENARIO, field={"kind": "nope"}))
    outs = run_scenario(sc, tol_scale=2.0)
    assert [(o.check, o.passed, o.tolerance) for o in outs] == [
        ("two_route", False, 2e-6), ("chain_rule", False, 2e-8)]
    for o in outs:
        assert o.scenario == "tiny_jump"
        assert o.diagnostics["error"].startswith("SpecError: bad field spec")


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


def test_cli_run_failure_exit_1(tmp_path, monkeypatch):
    p = _write_fast(tmp_path)
    monkeypatch.setenv("LAB_TOL_SCALE", "1e-30")
    code = main(["run", str(p), "--out", str(tmp_path / "r")])
    assert code == 1


@pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1", "abc"])
def test_cli_rejects_bad_tol_scale(scale, tmp_path, monkeypatch, capsys):
    p = _write_fast(tmp_path)
    monkeypatch.setenv("LAB_TOL_SCALE", scale)
    outdir = tmp_path / "r"
    assert main(["run", str(p), "--out", str(outdir)]) == 2
    assert not outdir.exists()
    series = tmp_path / "series.csv"
    assert main(["series", "s04_jump_gt", "blowup", str(series)]) == 2
    assert not series.exists()
    err = capsys.readouterr().err
    assert err.count("LAB_TOL_SCALE") == 2


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


def test_cli_series_unknown_inputs(tmp_path, capsys):
    out = tmp_path / "series.csv"
    assert main(["series", "no_such_scenario", "blowup", str(out)]) == 2
    assert main(["series", "s01_smooth_const", "no_such_check",
                 str(out)]) == 2


def test_checks_registry_is_complete():
    assert set(CHECKS) == {
        "two_route", "traces_route", "coarea_pairing", "coarea_variation",
        "chain_rule", "mass_bound", "lipschitz", "gauss_green",
        "cyl_average", "approximation", "continuity", "lsc", "relaxation",
        "blowup", "sigma_k", "order_relations"}
