"""Benchmark a change against its parent in alternating perfbench pairs.

Run from the repository root:

    python3 tools/bench_pairs.py --label NAME [--base REV] [--head REV]
        [--workload NAME ...] [--pairs N] [--seconds S] [--seed N]

Both commits are exported with ``git archive`` into fresh temporary
directories, so each side runs its own committed ``perfbench/run.py`` on its
own committed sources, and nothing is registered in the repository.  Pair i
runs ``perfbench/run.py --workload W --seed N --seconds S`` once on each
side, the parent first in even pairs and the change first in odd ones, so
slow drift of the machine falls on both sides alike.  The workloads W are
the ``workloads`` of ``BENCHMARK.json``: all of them, in order, unless
``--workload`` names some.

The record goes to ``BENCH_<label>.json``: the two commits, the machine
(nproc, Python, platform), the settings, and per workload the samples of
every pair and, for each end-to-end metric of ``BENCHMARK.json``, each
side's median and quartiles, the number of pairs the change wins (ties
count for neither side) and a verdict against the metric's ``bound``
(see ``verdict``); the verdict table is printed at the end.  Each sample
keeps its run's exit code.  A run that is incorrect or exits non-zero is
marked INCORRECT on its progress line and listed as (workload, pair, side)
before the verdict table; the exit code is then 1, else 0.
"""

import argparse
import io
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_benchmark(root=ROOT):
    """The workload names, in order, and the end-to-end metrics (name ->
    entry) that ``BENCHMARK.json`` in the directory root declares."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m for m in spec["end_to_end"]})


def parse_args(argv, workloads):
    """The command line, ``--workload`` one of workloads (by default all
    of them, in order)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--head", default="HEAD")
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    args.workload = args.workload or list(workloads)
    return args


def export(rev, dest):
    """The committed tree of ``rev`` in the directory dest; its full sha."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev],
                          check=True, capture_output=True,
                          text=True).stdout.strip()


def perfbench(tree, workload, seed, seconds):
    """The JSON result line of one perfbench run in the source tree, with
    the run's exit code as ``exit_code``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(
            f"perfbench {workload} in {tree} (exit {proc.returncode}) "
            f"printed no JSON result:\n{proc.stderr[-2000:]}") from None
    res["exit_code"] = proc.returncode
    return res


def failure(res):
    """"INCORRECT (exit N, failed K)" for a perfbench result that is
    incorrect or exited non-zero, else None."""
    if res["correct"] and res["exit_code"] == 0:
        return None
    return f"INCORRECT (exit {res['exit_code']}, failed {res['failed']})"


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else [values[0]] * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def verdict(parent, change, bound):
    """The verdict on one metric from its paired samples, signed so that
    lower is better, and its relative bound: "gain" if the change wins at
    least 9 of 10 pairs and its median is better by more than the parent's
    IQR; "worse" if its median is worse than the parent's by more than
    bound; "unresolved" if the parent's IQR exceeds bound, unless every run
    of the change is better than every run of the parent; else
    "no_change"."""
    p = _quartiles(parent)
    gap = p["median"] - statistics.median(change)      # > 0: change better
    limit = bound * abs(p["median"])
    wins = sum(c < q for q, c in zip(parent, change))
    if 10 * wins >= 9 * len(parent) and gap > p["iqr"]:
        return "gain"
    if -gap > limit:
        return "worse"
    if p["iqr"] > limit and not max(change) < min(parent):
        return "unresolved"
    return "no_change"


def summarize(samples, metrics):
    """Per metric (name -> {"better": "lower" or "higher", "bound": b}, as
    in BENCHMARK.json) of the samples [{"parent": {name: value}, "change":
    {name: value}}, ...]: each side's median, quartiles and IQR, the pairs
    the change wins, and the verdict."""
    out = {}
    for name, m in metrics.items():
        parent = [s["parent"][name] for s in samples]
        change = [s["change"][name] for s in samples]
        sign = 1.0 if m["better"] == "lower" else -1.0
        out[name] = {"parent": _quartiles(parent),
                     "change": _quartiles(change),
                     "change_wins": sum(sign * (c - p) < 0
                                        for p, c in zip(parent, change)),
                     "pairs": len(samples)}
        out[name]["verdict"] = verdict([sign * v for v in parent],
                                       [sign * v for v in change],
                                       m["bound"])
    return out


def verdict_table(workloads):
    """One line per (workload, metric) of the record's workloads: both
    medians, the relative change, the pairs won and the verdict."""
    lines = [f"{'workload':<11} {'metric':<12} {'parent':>10} "
             f"{'change':>10} {'delta':>8} {'wins':>6}  verdict"]
    for workload, rec in workloads.items():
        for name, s in rec["summary"].items():
            p, c = s["parent"]["median"], s["change"]["median"]
            delta = f"{(c - p) / abs(p):+.1%}" if p else "n/a"
            lines.append(f"{workload:<11} {name:<12} {p:>10.4g} {c:>10.4g} "
                         f"{delta:>8} {s['change_wins']:>3}/{s['pairs']:<2}"
                         f"  {s['verdict']}")
    return "\n".join(lines)


def main(argv=None):
    workloads, metrics = load_benchmark()
    args = parse_args(argv, workloads)
    record = {"label": args.label,
              "machine": {"nproc": os.cpu_count(),
                          "python": platform.python_version(),
                          "platform": platform.platform()},
              "settings": {"pairs": args.pairs, "seconds": args.seconds,
                           "seed": args.seed},
              "workloads": {}}
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: pathlib.Path(tmp) / side
                 for side in ("parent", "change")}
        record["commits"] = {side: export(rev, trees[side]) for side, rev
                             in (("parent", args.base),
                                 ("change", args.head))}
        for workload in args.workload:
            samples = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 \
                    else ("change", "parent")
                sample = {"first": order[0]}
                notes = []
                for side in order:
                    res = perfbench(trees[side], workload, args.seed,
                                    args.seconds)
                    sample[side] = {k: v["value"]
                                    for k, v in res["metrics"].items()}
                    sample[side]["failed"] = res["failed"]
                    sample[side]["exit_code"] = res["exit_code"]
                    if note := failure(res):
                        failures.append((workload, i, side))
                        notes.append(f"{side} {note}")
                samples.append(sample)
                print(workload, i, {s: sample[s]["run_s"]
                                    for s in order}, *notes, flush=True)
            record["workloads"][workload] = {
                "samples": samples, "summary": summarize(samples, metrics)}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    if failures:
        print("incorrect runs (workload, pair, side):")
        for run in failures:
            print(" ", *run)
    print(verdict_table(record["workloads"]))
    print(f"wrote {out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
