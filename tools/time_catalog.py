"""Time every (scenario, check) of a scenario catalog, in process.

Run from the repository root:

    python3 tools/time_catalog.py [DIR] [--only ID ...] [--check NAME ...]

DIR is a directory of scenario JSON files (default: the shipped catalog);
``--only`` (repeatable) keeps the named scenario ids, and ``--check NAME``
(repeatable) keeps the checks of that name.  The checks run as in
tests/test_acceptance.py::catalog_results: each scenario is resolved once,
then each of its checks is run with ``run_check`` and timed with
``time.perf_counter`` (wall) and ``time.process_time`` (CPU of every
thread of the process).  The output is one line per (scenario, check) with
its wall time, CPU time and outcome (a FAIL also shows the check's residual
and tolerance), then the totals per check and per scenario, the overall
total, the peak resident set size of the process (``ru_maxrss``), and
last ``src lines N``, the line count of src/pairinglab/*.py (what
``cat src/pairinglab/*.py | wc -l`` prints).  A CPU time above the wall
time means some library ran helper threads (a BLAS thread pool, say).
Exit code 0 if every check passed, 1 otherwise; if the reader closes the
output early (``| head``, say), the run still exits with that code, without
a traceback.
"""

import argparse
import os
import pathlib
import resource
import sys
import time
from collections import defaultdict

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from pairinglab.scenarios import (CHECKS, load_catalog,  # noqa: E402
                                  run_check)


def time_catalog(directory=None, only=(), checks=()):
    """[(scenario id, check name, wall seconds, CPU seconds, CheckOutcome),
    ...] in catalog order."""
    catalog = load_catalog(directory)
    for what, names, known in (("scenario id", only, catalog),
                               ("check name", checks, CHECKS)):
        missing = set(names) - set(known)
        if missing:
            raise SystemExit(f"unknown {what}(s): "
                             + ", ".join(sorted(missing)))
    rows = []
    for sid, sc in catalog.items():
        if only and sid not in only:
            continue
        ctx = sc.resolve()
        for spec in sc.checks:
            if checks and spec.name not in checks:
                continue
            t0, c0 = time.perf_counter(), time.process_time()
            out = run_check(ctx, spec)
            rows.append((sid, spec.name, time.perf_counter() - t0,
                         time.process_time() - c0, out))
    return rows


def _totals(rows, key):
    """[(name, wall, cpu), ...] summed over the rows of each row[key],
    slowest wall time first."""
    acc = defaultdict(lambda: [0.0, 0.0])
    for row in rows:
        acc[row[key]][0] += row[2]
        acc[row[key]][1] += row[3]
    return sorted(((k, *v) for k, v in acc.items()), key=lambda r: -r[1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", default=None)
    parser.add_argument("--only", nargs="+", action="extend", default=[],
                        metavar="ID")
    parser.add_argument("--check", action="append", default=[],
                        metavar="NAME")
    args = parser.parse_args(argv)
    rows = time_catalog(args.directory, args.only, args.check)
    try:
        _print(rows)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout goes nowhere from here on, so the flush at exit cannot
        # raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if all(r[4].passed for r in rows) else 1


def _print(rows):
    for sid, check, dt, cpu, out in rows:
        status = "pass" if out.passed else (
            f"FAIL  residual={out.residual:.3e} tolerance={out.tolerance:.3e}")
        print(f"{sid:24s} {check:18s} {dt:8.3f} s  cpu {cpu:8.3f} s  {status}")
    for title, key in (("check", 1), ("scenario", 0)):
        print(f"\ntotal by {title}")
        for name, dt, cpu in _totals(rows, key):
            print(f"{name:24s} {dt:8.3f} s  cpu {cpu:8.3f} s")
    print(f"\ntotal {sum(r[2] for r in rows):.3f} s  "
          f"cpu {sum(r[3] for r in rows):.3f} s over {len(rows)} checks, "
          f"{sum(not r[4].passed for r in rows)} failed")
    # ru_maxrss is in kilobytes on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak RSS {peak:.1f} MB")
    print("src lines", sum(path.read_bytes().count(b"\n")
                           for path in (SRC / "pairinglab").glob("*.py")))


if __name__ == "__main__":
    sys.exit(main())
