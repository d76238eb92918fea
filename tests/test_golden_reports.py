"""Byte-identity of `pairinglab run --stable` reports on a catalog subset.

The ten scenarios cover the 1D jump path under the t-dependent ``xt`` and
``sep`` fields (s05, s07), the pure Cantor u under the t-dependent ``gt``
field (s09: the depth-18 ladder sums and the dyadic coarea panels), the
disc, exact-zero and square 2D pairings (s15, s16, s19), the disc under
the t-dependent ``gt`` field (s17), the disc under the radial field with
its mollified sequence (s18: the only 2D ``relaxation`` check, through the
radial element integrals), and the smooth radial 2D u under the linear and
gt fields (s20, s21), whose coarea checks slice the disc levels of u.
A refactor
that is meant to keep the numbers must keep these files byte for byte; a
change that moves a number on purpose regenerates ``tests/golden/`` and
says which values moved and why.
"""

import pathlib
import shutil

from pairinglab.cli import main
from pairinglab.scenarios import shipped_catalog_dir

GOLDEN = pathlib.Path(__file__).parent / "golden"
SCENARIOS = ("s05_jump2_xt", "s07_stair_sep", "s09_cantor_gt",
             "s15_disc_linear2d", "s16_disc_const2d", "s17_disc_gt2d",
             "s18_disc_radial2d", "s19_square_linear2d",
             "s20_smoothdisc_linear2d", "s21_smoothdisc_gt2d")


def test_stable_reports_match_golden_bytes(tmp_path):
    src = tmp_path / "catalog"
    src.mkdir()
    for sid in SCENARIOS:
        shutil.copy(shipped_catalog_dir() / f"{sid}.json", src)
    out = tmp_path / "reports"
    assert main(["run", str(src), "--stable", "--jobs", "1",
                 "--out", str(out)]) == 0
    names = [f"{sid}.json" for sid in SCENARIOS] + ["aggregate.csv"]
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    for name in names:
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), \
            name
