"""Benchmark workloads and the seeded scenario generator.

A workload is a selection of scenarios from the shipped catalog, run with a
given ``--jobs`` count.  ``generate`` writes the selection into a directory
as new scenario files.  Geometry, fields, check lists and tolerances are
copied unchanged; only two things depend on the seed:

* every id gets the suffix ``_s<seed>``.  The checks draw their random mass
  windows and cylindrical-average points from streams keyed by the id, so
  the seed re-draws them;
* every file name starts with a seed-shuffled rank.  The runner executes
  files in name order, so the seed permutes the run order.
"""

import json
import pathlib
import random
from dataclasses import dataclass

JUMPS_1D = ("s01_smooth_const", "s02_smooth_xt", "s03_jump_const",
            "s04_jump_gt", "s05_jump2_xt", "s06_stair_xt", "s07_stair_sep",
            "s12_smooth_sep", "s13_jumpneg_sep", "s14_ramp_xt")
PLANE_2D = ("s15_disc_linear2d", "s16_disc_const2d", "s17_disc_gt2d",
            "s18_disc_radial2d", "s19_square_linear2d",
            "s20_smoothdisc_linear2d", "s21_smoothdisc_gt2d")


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple
    jobs: int
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("cantor1d", ("s08_cantor_const", "s09_cantor_gt"), 1,
             "the two pure Cantor scenarios, serial: the only workload "
             "that runs the Cantor ladder, the catalog's dominant cost"),
    Workload("plane2d", PLANE_2D, 1,
             "the seven 2D scenarios, serial: field sup-norm sampling and "
             "the polar/circle quadrature drivers, no ladder"),
    Workload("jumps1d", JUMPS_1D, 1,
             "the ten 1D jump/smooth scenarios, serial: adaptive Simpson, "
             "piecewise evaluation and the variational sequences"),
    Workload("pool_jobs2", JUMPS_1D + PLANE_2D, 2,
             "the 17 non-Cantor scenarios with --jobs 2: the only "
             "workload that runs the runner's thread pool"),
)}


def catalog_dir(root):
    """The shipped scenario catalog inside the source tree at ``root``."""
    return pathlib.Path(root) / "src" / "pairinglab" / "data" / "scenarios"


def generate(workload, seed, root, outdir):
    """Write the workload's scenario files for ``seed`` into ``outdir``.

    Returns the expected outcomes as a list of (scenario id, [check names])
    in run order.
    """
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ranks = list(range(len(workload.scenarios)))
    random.Random(seed).shuffle(ranks)
    expected = []
    for rank, sid in sorted(zip(ranks, workload.scenarios)):
        spec = json.loads((catalog_dir(root) / f"{sid}.json").read_text())
        spec["id"] = f"{sid}_s{seed}"
        (outdir / f"{rank:02d}_{spec['id']}.json").write_text(
            json.dumps(spec, indent=2) + "\n")
        expected.append((spec["id"], [c["name"] for c in spec["checks"]]))
    return expected
