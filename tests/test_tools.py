"""Tests of the scripts in tools/: time_catalog.py on fast scenarios,
bench_pairs.py on synthetic samples."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from pairinglab.scenarios import (load_catalog, parse_scenario, run_check,
                                  shipped_catalog_dir)

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def time_catalog():
    return _load_tool("time_catalog")


def test_time_catalog_one_scenario(time_catalog, capsys):
    sid = "s05_jump2_xt"
    assert time_catalog.main(["--only", sid]) == 0
    out = capsys.readouterr().out
    checks = [c.name for c in load_catalog()[sid].checks]
    rows = [line.split() for line in out.splitlines()
            if line.startswith(sid + " ")]
    # one line per check (wall, then CPU seconds), then one total for the
    # scenario
    assert [r[1] for r in rows[:-1]] == checks
    assert all(r[3] == "s" and r[4] == "cpu" and r[6] == "s"
               and r[7] == "pass" for r in rows[:-1])
    assert rows[-1][0] == sid and len(rows) == len(checks) + 1
    assert rows[-1][2::3] == ["s", "s"] and rows[-1][3] == "cpu"
    assert f"over {len(checks)} checks, 0 failed" in out
    for col, total_col in ((2, 1), (5, 4)):
        total = sum(float(r[col]) for r in rows[:-1])
        assert total == pytest.approx(float(rows[-1][total_col]),
                                      abs=1e-3 * len(checks))
    cpu = float(rows[-1][4])
    assert cpu > 0.0
    total, peak, src = (line.split() for line in out.splitlines()[-3:])
    assert total[0] == "total" and total[3] == "cpu"
    assert float(total[4]) == pytest.approx(cpu, abs=1e-3)
    # the process's peak RSS, and no Python process fits in 1 MB
    assert peak[:2] == ["peak", "RSS"] and peak[3] == "MB"
    assert float(peak[2]) > 1.0
    # the package's line count comes last
    lines = sum(len(path.read_text().splitlines())
                for path in (TOOLS.parent / "src" / "pairinglab").glob("*.py"))
    assert src == ["src", "lines", str(lines)] and lines > 1000


def test_time_catalog_unknown_id(time_catalog):
    with pytest.raises(SystemExit, match="no_such_id"):
        time_catalog.main(["--only", "no_such_id"])
    with pytest.raises(SystemExit, match="no_such_check"):
        time_catalog.main(["--check", "no_such_check"])


def test_time_catalog_check_filter(time_catalog, capsys):
    sids = ["s05_jump2_xt", "s13_jumpneg_sep"]
    wanted = ["coarea_variation", "two_route"]
    argv = ["--only", *sids]
    for name in wanted:
        argv += ["--check", name]
    assert time_catalog.main(argv) == 0
    out = capsys.readouterr().out
    catalog = load_catalog()
    expect = [(sid, c.name) for sid in sids for c in catalog[sid].checks
              if c.name in wanted]
    rows = [tuple(line.split()[:2]) for line in out.splitlines()
            if line.endswith("pass") or " FAIL " in line]
    assert rows == expect and len(expect) == 4
    assert f"over {len(expect)} checks, 0 failed" in out


def test_time_catalog_only_flags_accumulate(time_catalog, capsys):
    sids = ["s05_jump2_xt", "s13_jumpneg_sep"]
    argv = ["--check", "two_route"]
    for sid in sids:
        argv += ["--only", sid]
    assert time_catalog.main(argv) == 0
    rows = [line.split()[:2] for line in capsys.readouterr().out.splitlines()
            if line.endswith("pass")]
    assert rows == [[sid, "two_route"] for sid in sids]


@pytest.mark.parametrize("tol, code", [(1e-5, 0), (1e-30, 1)])
def test_time_catalog_exits_quietly_into_a_closed_pipe(tmp_path, tol, code):
    # the reader is gone before the first row, so every write meets a
    # closed pipe: no traceback, and the exit code is still the verdict's
    with open(shipped_catalog_dir() / "s05_jump2_xt.json") as fh:
        spec = dict(json.load(fh), checks=[
            {"name": "coarea_variation", "tolerance": tol}])
    (tmp_path / "s05.json").write_text(json.dumps(spec))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, str(TOOLS / "time_catalog.py"), str(tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, "")


def test_time_catalog_fail_row_shows_residual_and_tolerance(time_catalog,
                                                            tmp_path, capsys):
    with open(shipped_catalog_dir() / "s03_jump_const.json") as fh:
        spec = dict(json.load(fh),
                    checks=[{"name": "continuity", "tolerance": 1e-18}])
    (tmp_path / "s03.json").write_text(json.dumps(spec))
    assert time_catalog.main([str(tmp_path)]) == 1
    want = run_check(parse_scenario(spec).resolve(),
                     parse_scenario(spec).checks[0])
    row = next(line.split() for line in capsys.readouterr().out.splitlines()
               if line.startswith("s03_jump_const "))
    assert row[1:2] + row[7:] == [
        "continuity", "FAIL", f"residual={want.residual:.3e}",
        "tolerance=1.000e-18"]


def _pairs(parent, change, name="run_s"):
    return [{"parent": {name: p}, "change": {name: c}}
            for p, c in zip(parent, change)]


LOWER = {"better": "lower", "bound": 0.25}


def test_bench_pairs_summary_on_synthetic_samples():
    summarize = _load_tool("bench_pairs").summarize
    parent = [5.0, 4.0, 6.0, 5.5, 4.5]
    change = [4.0, 4.0, 5.0, 6.0, 3.0]    # one tie, one loss, three wins
    samples = [{"parent": {"run_s": p, "rate": -p},
                "change": {"run_s": c, "rate": -c}}
               for p, c in zip(parent, change)]
    out = summarize(samples, {"run_s": LOWER,
                              "rate": {"better": "higher", "bound": 0.25}})
    run = out["run_s"]
    assert run["pairs"] == 5 and run["change_wins"] == 3
    assert run["parent"] == {"median": 5.0, "q1": 4.5, "q3": 5.5,
                             "iqr": 1.0}
    assert run["change"]["median"] == 4.0
    assert run["change"]["iqr"] == pytest.approx(1.0)
    # 3 of 5 pairs is no gain, and the parent's IQR is within the bound
    assert run["verdict"] == "no_change"
    # a higher-is-better metric wins where its value rises
    assert out["rate"]["change_wins"] == 3
    assert out["rate"]["parent"]["median"] == -5.0
    assert out["rate"]["verdict"] == "no_change"
    one = summarize(samples[:1], {"run_s": LOWER})["run_s"]
    assert one["parent"] == {"median": 5.0, "q1": 5.0, "q3": 5.0, "iqr": 0.0}
    assert one["change_wins"] == 1


@pytest.mark.parametrize("parent, change, verdict", [
    # 9 of 10 pairs, and a median gap of 2 against a parent IQR of 0.2
    ([10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.0],
     [8.0] * 9 + [10.5], "gain"),
    # the median is 30% worse, beyond the 25% bound
    ([10.0] * 4, [13.0] * 4, "worse"),
    # the parent's IQR (3) exceeds 25% of its median, and the change wins
    # 1 of 4 pairs
    ([4.0, 10.0, 16.0, 10.0], [9.0, 11.0, 15.0, 10.0], "unresolved"),
    # the same wide parent, and a change that wins every pair by 0.1
    ([4.0, 10.0, 16.0, 10.0], [3.9, 9.9, 15.9, 9.9], "unresolved"),
    # a wide parent (IQR 10 against a median of 15), but every run of the
    # change is better than every run of the parent, by less than the IQR
    ([10.0, 10.0, 20.0, 20.0], [9.9] * 4, "no_change"),
])
def test_bench_pairs_verdicts(parent, change, verdict):
    bench = _load_tool("bench_pairs")
    out = bench.summarize(_pairs(parent, change), {"run_s": LOWER})
    assert out["run_s"]["verdict"] == verdict
    # higher-is-better: the same samples negated get the same verdict
    neg = bench.summarize(_pairs([-p for p in parent], [-c for c in change]),
                          {"run_s": dict(LOWER, better="higher")})
    assert neg["run_s"]["verdict"] == verdict
    table = bench.verdict_table({"cantor1d": {"summary": out}})
    assert table.splitlines()[-1].split()[0::6] == ["cantor1d", verdict]


def _stub_perfbench(tree, body):
    (tree / "perfbench").mkdir()
    (tree / "perfbench" / "run.py").write_text(body)
    return tree


def test_bench_pairs_keeps_the_exit_code_of_an_incorrect_run(tmp_path):
    bench = _load_tool("bench_pairs")
    tree = _stub_perfbench(tmp_path, (
        "import json, sys\n"
        "print('cantor1d run_s 1.0 s')\n"
        "print(json.dumps({'correct': False, 'attempted': 16, 'failed': 2,\n"
        "                  'metrics': {'run_s': {'value': 1.0,\n"
        "                                        'unit': 's'}}}))\n"
        "sys.exit(1)\n"))
    res = bench.perfbench(tree, "cantor1d", 1, 1.0)
    assert res["exit_code"] == 1 and res["correct"] is False
    assert bench.failure(res) == "INCORRECT (exit 1, failed 2)"
    assert bench.failure(dict(res, correct=True)) == \
        "INCORRECT (exit 1, failed 2)"
    assert bench.failure(dict(res, correct=True, exit_code=0)) is None


def test_bench_pairs_names_a_run_without_a_json_result(tmp_path):
    bench = _load_tool("bench_pairs")
    tree = _stub_perfbench(tmp_path, (
        "import sys\n"
        "print('cantor1d run_s 1.0 s')\n"
        "sys.stderr.write('Traceback: worker died')\n"
        "sys.exit(3)\n"))
    with pytest.raises(RuntimeError, match=r"exit 3\)[^\n]*\n.*worker died"):
        bench.perfbench(tree, "cantor1d", 1, 1.0)


def test_bench_pairs_takes_its_workloads_from_the_benchmark(tmp_path):
    bench = _load_tool("bench_pairs")
    declared = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    workloads, metrics = bench.load_benchmark()
    assert workloads == [w["name"] for w in declared["workloads"]]
    assert list(metrics) == [m["name"] for m in declared["end_to_end"]]
    # a workload that only the benchmark file names is a choice, and the
    # default runs every declared workload in order
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "cantor1d"}, {"name": "mixed1d"}],
        "end_to_end": declared["end_to_end"]}))
    workloads, _ = bench.load_benchmark(tmp_path)
    assert bench.parse_args(["--label", "x"], workloads).workload == \
        ["cantor1d", "mixed1d"]
    assert bench.parse_args(["--label", "x", "--workload", "mixed1d"],
                            workloads).workload == ["mixed1d"]
    with pytest.raises(SystemExit):
        bench.parse_args(["--label", "x", "--workload", "jumps1d"], workloads)
