"""One measured pairinglab process; ``run.py`` starts a fresh one per sample.

    python3 perfbench/child.py setup SCENARIO_DIR RESULT.json
    python3 perfbench/child.py run SCENARIO_DIR OUT_DIR JOBS RESULT.json \
        [--trace]

``setup`` times ``import pairinglab`` plus parsing and resolving every
scenario file.  ``run`` times one ``pairinglab run --stable`` call through
``pairinglab.cli.main`` and records its CPU time and peak RSS; with
``--trace`` it first installs the span tracer and also writes the spans.
Either way the result goes to RESULT.json.
"""

import argparse
import json
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def _check_source(pkg):
    """Refuse to measure a pairinglab other than the one in this tree."""
    want = (ROOT / "src" / "pairinglab").resolve()
    got = pathlib.Path(pkg.__file__).resolve().parent
    if got != want:
        raise SystemExit(f"imported pairinglab from {got}, expected {want}")


def setup(scenario_dir):
    t0 = time.perf_counter()
    import pairinglab
    from pairinglab.scenarios import load_scenario_file
    for path in sorted(pathlib.Path(scenario_dir).glob("*.json")):
        load_scenario_file(path).resolve()
    setup_s = time.perf_counter() - t0
    _check_source(pairinglab)
    return {"setup_s": setup_s}


def _cpu(ru):
    return ru.ru_utime + ru.ru_stime


def run(scenario_dir, out_dir, jobs, trace):
    import pairinglab
    from pairinglab import cli
    _check_source(pairinglab)
    tracer = None
    if trace:
        from spans import Tracer, install
        tracer = Tracer()
        install(tracer)
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    code = cli.main(["run", str(scenario_dir), "--stable", "--jobs",
                     str(jobs), "--out", str(out_dir)])
    run_s = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "exit_code": code,
        "run_s": run_s,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
    }
    if tracer is not None:
        result["spans"] = tracer.export()
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("scenario_dir")
    p_setup.add_argument("result")
    p_run = sub.add_parser("run")
    p_run.add_argument("scenario_dir")
    p_run.add_argument("out_dir")
    p_run.add_argument("jobs", type=int)
    p_run.add_argument("result")
    p_run.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = setup(args.scenario_dir)
    else:
        result = run(args.scenario_dir, args.out_dir, args.jobs, args.trace)
    pathlib.Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
