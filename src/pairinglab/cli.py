"""Command line runner for the scenario catalog.

    pairinglab run [PATH] [--keep-going] [--stable] [--jobs N] [--out DIR]
    pairinglab list [PATH]
    pairinglab series SCENARIO CHECK OUT.CSV

``run`` executes every check of every scenario found at PATH (a JSON file or
a directory of them; default: the shipped catalog), writes one report JSON
per scenario plus an aggregate CSV, and exits 0 only if everything passed.
``list`` prints the ids of the scenarios found at PATH, read as ``run``
reads them.
Exit code 2 flags scenario files that could not be parsed, among them
files that name an unknown check or give a check parameter that would leave
it nothing to test (``windows``, ``points`` or ``count`` not an integer
>= 1, ``eps0`` not a finite number > 0, an empty or non-finite ``taus``,
``ks``, ``radii`` or ``n_values``), and a file whose scenario id an earlier
file already has; with --keep-going such files are skipped with a logged
reason instead.  A scenario that parses but does not resolve fails each of
its checks with the error, and the other scenarios are still run.  Reports
are strict JSON: a non-finite number is written as null.

Every verdict follows one rule, decided once, in ``scenarios.run_check``:
a check passes iff it converged and its ``residual`` is at most the
``tolerance`` in its report.  That tolerance is the one in the check's
spec (relative, ``tol * (1 + |lhs|)``, for two_route and traces_route);
``series`` gives a check that its scenario does not list the tolerance
1e-6.  No option or environment variable scales a tolerance.  A failing
check keeps its numbers; ``series`` writes its table, prints the failure
to stderr and exits 1, as ``run`` does.

``--jobs N`` runs the scenarios in N worker processes (N must be an
integer >= 1; the default 1 runs them in this process) and writes the same
reports in the same order.  If a worker dies, each scenario the broken
pool left unfinished is run again alone in a fresh worker, so only the
scenario that kills its worker fails, with each of its checks reporting
the error; the run goes on.
"""

import argparse
import csv
import io
import json
import math
import pathlib
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .errors import PairingLabError, SpecError
from .scenarios import (CHECKS, CheckSpec, _error_outcome, load_catalog,
                        load_scenarios, run_check, run_scenario)


def _scenario_report(scenario, stable):
    """(report, outcomes) of one scenario; a module-level function so that
    a worker process can run it."""
    t0 = time.time()
    return _report(scenario, run_scenario(scenario), stable, t0)


def _report(scenario, outcomes, stable, t0):
    report = {
        "scenario": scenario.id,
        "checks": [o.to_report() for o in outcomes],
        "overall_pass": all(o.passed for o in outcomes),
    }
    if not stable:
        report["timing_seconds"] = round(time.time() - t0, 3)
        report["environment"] = {
            "python": platform.python_version(),
            "platform": platform.platform(),
        }
    return report, outcomes


def _pool_run(scenarios, stable, workers):
    """_scenario_report of each scenario from a pool of worker processes:
    its result, or the exception its future raised."""
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_scenario_report, sc, stable)
                   for sc in scenarios]
        return [fut.exception() or fut.result() for fut in futures]


def _pooled_reports(scenarios, stable, jobs):
    """_scenario_report of each scenario, in order, from worker processes.

    A check that raises fails alone inside its worker.  A dead worker
    breaks the whole pool, so each scenario that got BrokenProcessPool is
    run again in a one-worker pool of its own, one after another: only a
    scenario that kills its worker fails.  A scenario whose future raises
    fails each of its checks with that error; the others keep their
    outcomes.
    """
    t0 = time.time()
    results = _pool_run(scenarios, stable, min(jobs, len(scenarios)))
    for i, sc in enumerate(scenarios):
        if isinstance(results[i], BrokenProcessPool):
            (results[i],) = _pool_run([sc], stable, 1)
        if isinstance(results[i], BaseException):
            outcomes = [_error_outcome(sc.id, c.name, c.tolerance,
                                       results[i]) for c in sc.checks]
            # timed from the pool's start: when it ran is unknown
            results[i] = _report(sc, outcomes, stable, t0)
    return results


def _finite_or_null(obj):
    """obj with every non-finite float replaced by None, which JSON writes
    as null: NaN and Infinity are not JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _write_atomic(path, text):
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def cmd_run(args):
    try:
        scenarios, skipped = load_scenarios(args.path, args.keep_going)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    for f, reason in skipped:
        print(f"skipped {f}: {reason}", file=sys.stderr)
    if not scenarios:
        print("no scenarios found", file=sys.stderr)
        return 2
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    if args.jobs > 1:
        results = _pooled_reports(scenarios, args.stable, args.jobs)
    else:
        results = [_scenario_report(sc, args.stable) for sc in scenarios]

    all_pass = True
    rows = []
    for sc, (report, outcomes) in zip(scenarios, results):  # file order
        _write_atomic(outdir / f"{sc.id}.json",
                      json.dumps(_finite_or_null(report), indent=2,
                                 sort_keys=True, allow_nan=False) + "\n")
        for o in outcomes:
            rows.append((sc.id, o.check, f"{o.residual:.6e}",
                         "pass" if o.passed else "fail"))
            all_pass = all_pass and o.passed
            status = "pass" if o.passed else "FAIL"
            print(f"{sc.id:28s} {o.check:18s} {status}  "
                  f"residual={o.residual:.3e}")
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["scenario", "check", "residual", "pass"])
    w.writerows(rows)
    _write_atomic(outdir / "aggregate.csv", buf.getvalue())
    return 0 if all_pass else 1


def _jobs(text):
    """--jobs as an integer >= 1; argparse turns an error into exit 2."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}")
    return n


def cmd_list(args):
    try:
        cat = load_catalog(args.path)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    for sid in sorted(cat):
        print(sid)
    return 0


def cmd_series(args):
    try:
        cat = load_catalog(None)
        if args.scenario not in cat:
            print(f"unknown scenario {args.scenario!r}", file=sys.stderr)
            return 2
        scenario = cat[args.scenario]
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    spec = next((c for c in scenario.checks if c.name == args.check), None)
    if spec is None:
        if args.check not in CHECKS:
            print(f"unknown check {args.check!r}", file=sys.stderr)
            return 2
        spec = CheckSpec(args.check, 1e-6)
    try:
        ctx = scenario.resolve()
    except PairingLabError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    outcome = run_check(ctx, spec)
    out = pathlib.Path(args.output)
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["parameter", "value"])
        for param, value in outcome.table:
            w.writerow([f"{float(param):.10g}", f"{float(value):.12g}"])
    print(f"wrote {len(outcome.table)} rows to {out}")
    if outcome.passed:
        return 0
    error = outcome.diagnostics.get("error")
    print(f"{scenario.id} {outcome.check} FAIL "
          f"residual={outcome.residual:.3e}"
          + (f" error={error}" if error else ""), file=sys.stderr)
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pairinglab",
        description="run pairing verification scenarios")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute scenario checks")
    p_run.add_argument("path", nargs="?", default=None,
                       help="scenario JSON file or directory "
                            "(default: shipped catalog)")
    p_run.add_argument("--keep-going", action="store_true",
                       help="skip malformed scenario files")
    p_run.add_argument("--stable", action="store_true",
                       help="omit timing/environment stamps from reports")
    p_run.add_argument("--jobs", type=_jobs, default=1, metavar="N",
                       help="run scenarios in N worker processes "
                            "(default 1: in this process)")
    p_run.add_argument("--out", default="lab_reports",
                       help="report output directory")
    p_run.set_defaults(func=cmd_run)

    p_list = sub.add_parser("list", help="print scenario ids")
    p_list.add_argument("path", nargs="?", default=None)
    p_list.set_defaults(func=cmd_list)

    p_series = sub.add_parser("series",
                              help="emit a check's table as CSV")
    p_series.add_argument("scenario")
    p_series.add_argument("check")
    p_series.add_argument("output")
    p_series.set_defaults(func=cmd_series)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
