"""Tests of the benchmark's own code: the seeded generator, the output gate
and the agreement between BENCHMARK.json and what run.py prints.

    python3 -m pytest -q perfbench
"""

import csv
import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKLOADS, catalog_dir, generate  # noqa: E402


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_files(tmp_path, name):
    first = generate(WORKLOADS[name], 11, ROOT, tmp_path / "a")
    second = generate(WORKLOADS[name], 11, ROOT, tmp_path / "b")
    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


def test_seed_changes_ids_and_order_only(tmp_path):
    workload = WORKLOADS["jumps1d"]
    orders = []
    for seed in (3, 4):
        out = tmp_path / str(seed)
        expected = generate(workload, seed, ROOT, out)
        orders.append([sid for sid, _ in expected])
        for path in out.iterdir():
            spec = json.loads(path.read_text())
            base = spec["id"].rsplit("_s", 1)[0]
            shipped = json.loads((catalog_dir(ROOT) / f"{base}.json")
                                 .read_text())
            assert spec["id"] == f"{base}_s{seed}"
            assert {**spec, "id": base} == shipped
    assert [s.rsplit("_s", 1)[0] for s in orders[0]] != \
        [s.rsplit("_s", 1)[0] for s in orders[1]]


def test_seed_redraws_mass_windows(tmp_path):
    from pairinglab.scenarios import _windows_for, load_scenario_file
    windows = []
    for seed in (3, 4):
        generate(WORKLOADS["plane2d"], seed, ROOT, tmp_path / str(seed))
        path = next((tmp_path / str(seed)).glob("*_s15_disc_linear2d_*"))
        windows.append(_windows_for(load_scenario_file(path).resolve(), 20))
    assert len(windows[0]) == 20
    assert windows[0] != windows[1]


def _fake_pass(tmp_path, expected, drop=None, fail=None, exit_code=0):
    out = tmp_path / "reports"
    out.mkdir()
    rows = []
    for sid, names in expected:
        checks = [{"check": n, "pass": n != fail} for n in names
                  if n != drop]
        (out / f"{sid}.json").write_text(json.dumps({"checks": checks}))
        rows += [(sid, c["check"], "pass" if c["pass"] else "fail")
                 for c in checks]
    with open(out / "aggregate.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario", "check", "residual", "pass"])
        w.writerows((sid, name, "0", ok) for sid, name, ok in rows)
    return {"out": out, "exit_code": exit_code}


@pytest.mark.parametrize("kind,want", [
    ({}, 0),
    ({"drop": "lsc"}, 1),
    ({"fail": "mass_bound"}, 1),
    ({"exit_code": 1}, 1),
])
def test_gate_counts_missing_and_failed_checks(tmp_path, kind, want):
    expected = [("a_s1", ["two_route", "mass_bound"]),
                ("b_s1", ["lsc", "two_route"])]
    assert run.failed_checks(_fake_pass(tmp_path, expected, **kind),
                             expected) == want


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"] for m in spec["end_to_end"]} == \
        set(run.END_TO_END_UNITS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    empty = {"stats": [], "worker_busy_s": 0.0}
    layers = run.layer_metrics(empty, 1.0, 1.0, 1)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
