"""pairinglab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a pairinglab source tree.  The workload's scenario
files are generated from the shipped catalog and ``--seed`` (see
``workloads.py``) into a temporary directory under ``.perfbench_tmp/``,
which is removed at the end.  Every sample is a fresh Python process
(``child.py``); the program receives only the generated files.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median
of several fresh set-up processes; ``run_s``, ``cpu_s`` and ``peak_rss_mb``
are medians over whole ``pairinglab run --stable`` passes, repeated while
the next pass is expected to end within ``--seconds`` (at least one pass).

``--trace 1`` runs one untraced and one traced pass, requires their
reports to be byte-identical, and prints the per-layer metrics.

Every pass is gated: exit code 0, and ``aggregate.csv`` plus the
per-scenario reports list every (scenario, check) of the workload as
passing.  A failed or missing check makes the result incorrect and the
exit code 1.  The last line of standard output is the JSON result.
"""

import argparse
import csv
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import LAYERS, QUAD_DRIVERS  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SETUP_REPEATS = 3
DEADLINE_S = 170.0
CHECK_NAMES = ("two_route", "traces_route", "coarea_pairing",
               "coarea_variation", "chain_rule", "mass_bound", "lipschitz",
               "gauss_green", "cyl_average", "approximation", "continuity",
               "lsc", "relaxation", "blowup", "sigma_k", "order_relations")
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


class Sampler:
    """Starts child processes that must all end before a shared deadline."""

    def __init__(self, tmp):
        self.tmp = tmp
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def child(self, mode, *args, flags=()):
        self.count += 1
        result = self.tmp / f"result{self.count}.json"
        log = self.tmp / f"child{self.count}.log"
        cmd = [sys.executable, str(HERE / "child.py"), mode,
               *map(str, args), str(result), *flags]
        with open(log, "w") as fh:
            proc = subprocess.run(
                cmd, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT,
                timeout=max(1.0, self.deadline - time.monotonic()))
        if proc.returncode != 0:
            sys.stderr.write(log.read_text()[-4000:])
            raise RuntimeError(f"{mode} process exited with code "
                               f"{proc.returncode}")
        return json.loads(result.read_text())

    def setup(self, scenario_dir):
        return self.child("setup", scenario_dir)["setup_s"]

    def run(self, scenario_dir, jobs, trace=False):
        out = self.tmp / f"reports{self.count + 1}"
        res = self.child("run", scenario_dir, out, jobs,
                         flags=("--trace",) if trace else ())
        res["out"] = out
        return res


def failed_checks(res, expected):
    """Checks of ``expected`` that are missing or not passing in a pass."""
    out = res["out"]
    rows = []
    try:
        with open(out / "aggregate.csv", newline="") as fh:
            rows = [(r["scenario"], r["check"], r["pass"])
                    for r in csv.DictReader(fh)]
    except (OSError, KeyError, csv.Error):
        pass
    passing = {(sid, name) for sid, name, ok in rows if ok == "pass"}
    failed = 0
    for sid, names in expected:
        try:
            report = json.loads((out / f"{sid}.json").read_text())
            reported = {c["check"]: c["pass"] is True
                        for c in report["checks"]}
        except (OSError, ValueError, KeyError, TypeError):
            reported = {}
        failed += sum(not (reported.get(name) and (sid, name) in passing)
                      for name in names)
    n_expected = sum(len(names) for _, names in expected)
    if res["exit_code"] != 0 or len(rows) != n_expected:
        failed = max(failed, 1)
    return failed


def same_reports(a, b):
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    return files_a == files_b and all(
        (a / f).read_bytes() == (b / f).read_bytes() for f in files_a)


def measure(sampler, workload, scenario_dir, expected, seconds):
    # set-up samples before and after the passes meet different machine load
    setups = [sampler.setup(scenario_dir) for _ in range(SETUP_REPEATS - 1)]
    passes, failed = [], 0
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        res = sampler.run(scenario_dir, workload.jobs)
        res["wall_s"] = time.monotonic() - t0
        failed += failed_checks(res, expected)
        passes.append(res)
        slowest = max(p["wall_s"] for p in passes)
        if time.monotonic() - start + slowest > seconds:
            break
    setups.append(sampler.setup(scenario_dir))
    metrics = {"run_s": statistics.median(p["run_s"] for p in passes),
               "setup_s": statistics.median(setups),
               "cpu_s": statistics.median(p["cpu_s"] for p in passes),
               "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                                for p in passes)}
    return metrics, len(passes), failed


def layer_loc(layer):
    path = ROOT / "src" / "pairinglab" / f"{layer}.py"
    return len(path.read_text().splitlines())


def layer_metrics(export, traced_run_s, untraced_run_s, jobs):
    """Per-layer metrics from the spans of one traced pass."""
    stats = {(layer, name): dict(zip(("calls", "total", "self", "max",
                                      "count"), rest))
             for layer, name, *rest in export["stats"]}

    def get(layer, name, field):
        return stats.get((layer, name), {}).get(field, 0)

    m = {}
    for layer in LAYERS:
        mine = [(name, s) for (lay, name), s in stats.items() if lay == layer]
        # "<integrand>" spans are closures handed to quadrature, and the
        # counters carry no time: neither is a call into the layer's API
        m[f"{layer}.calls"] = sum(s["calls"] for name, s in mine
                                  if not name.startswith("<")
                                  and name != "integrand_points")
        m[f"{layer}.self_s"] = sum(s["self"] for _, s in mine)
        m[f"{layer}.loc"] = layer_loc(layer)
    # the main thread only waits while the pool's workers run scenarios
    m["cli.self_s"] = max(0.0, m["cli.self_s"] - export["worker_busy_s"])
    m["scenarios.resolve_s"] = get("scenarios", "Scenario.resolve", "total")
    for name in CHECK_NAMES:
        m[f"scenarios.check.{name}_s"] = get("scenarios", f"check.{name}",
                                             "total")
    m["measures.ladder_eval_s"] = get("measures", "SingularLadder.evaluate",
                                      "total")
    m["measures.ladder_points"] = get("measures", "ladder_points", "count")
    integrators = (("measures", "RadonMeasure1D.integrate_detailed"),
                   ("measures", "RadonMeasure2D.integrate"))
    m["measures.integrate_calls"] = sum(get(*k, "calls") for k in integrators)
    m["measures.integrate_s"] = sum(get(*k, "total") for k in integrators)
    m["bv.level_crossings_calls"] = get("bv", "BvFunction1D.level_crossings",
                                        "calls")
    m["bv.level_crossings_s"] = get("bv", "BvFunction1D.level_crossings",
                                    "total")
    m["bv.integrate_composed_s"] = get("bv", "BvFunction1D.integrate_composed",
                                       "total")
    m["fields.sup_norm_calls"] = get("fields", "FieldB.sup_norm", "calls")
    m["fields.sup_norm_s"] = get("fields", "FieldB.sup_norm", "total")
    for name in QUAD_DRIVERS:
        m[f"quadrature.{name}_calls"] = get("quadrature", name, "calls")
    m["quadrature.integrand_calls"] = get("quadrature", "integrand_points",
                                          "calls")
    m["quadrature.integrand_points"] = get("quadrature", "integrand_points",
                                           "count")
    dist_calls = get("pairing", "pairing_distributional", "calls")
    m["pairing.distributional_calls"] = dist_calls
    m["pairing.distributional_repeat_ratio"] = (
        get("pairing", "distributional_repeats", "count") / dist_calls
        if dist_calls else 0.0)
    m["pairing.t_integral_s"] = get("pairing", "elementwise_t_integral",
                                    "total")
    m["pairing.cyl_average_calls"] = get("pairing", "cylindrical_average",
                                         "calls")
    m["pairing.cyl_average_unconverged"] = get("pairing", "cyl_unconverged",
                                               "count")
    m["cli.critical_path_s"] = get("scenarios", "run_scenario", "max")
    m["cli.worker_idle_s"] = jobs * traced_run_s - get(
        "scenarios", "run_scenario", "total")
    m["trace.overhead_s"] = traced_run_s - untraced_run_s
    return m


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".loc"):
        return "lines"
    return "count"


def traced(sampler, workload, scenario_dir, expected):
    plain = sampler.run(scenario_dir, workload.jobs)
    spanned = sampler.run(scenario_dir, workload.jobs, trace=True)
    failed = failed_checks(plain, expected) + failed_checks(spanned, expected)
    identical = same_reports(plain["out"], spanned["out"])
    if not identical:
        print("traced reports differ from untraced ones", file=sys.stderr)
    metrics = layer_metrics(spanned["spans"], spanned["run_s"],
                            plain["run_s"], workload.jobs)
    return metrics, 2, failed, identical


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pairinglab" / "cli.py").is_file():
        print(f"no pairinglab source tree at {ROOT}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=base))
    try:
        scenario_dir = tmp / "scenarios"
        expected = generate(workload, args.seed, ROOT, scenario_dir)
        sampler = Sampler(tmp)
        if args.trace:
            metrics, passes, failed, identical = traced(
                sampler, workload, scenario_dir, expected)
            units = {k: layer_unit(k) for k in metrics}
        else:
            metrics, passes, failed = measure(
                sampler, workload, scenario_dir, expected, args.seconds)
            units, identical = END_TO_END_UNITS, True
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    attempted = passes * sum(len(names) for _, names in expected)
    for name, value in metrics.items():
        print(f"{workload.name:12s} {name:40s} {value:14.6g} {units[name]}")
    print(f"{workload.name:12s} {'check_fail_ratio':40s} "
          f"{failed / attempted:14.6g} ratio  ({failed} of {attempted} "
          f"checks over {passes} passes)")
    correct = failed == 0 and identical
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
