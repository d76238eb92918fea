"""The numbers do not depend on how many threads BLAS may use.

Above ~10^4 terms OpenBLAS splits a dot product across its threads, so a
ladder-sized np.dot gives different bits for different thread counts.  The
ladder sums go through ``quadrature._weighted_sum`` instead; this test runs
the same script under OPENBLAS_NUM_THREADS=1 and =2 and compares the bits.
"""

import os
import pathlib
import subprocess
import sys

import pairinglab

SCRIPT = """
import numpy as np
from pairinglab.measures import RadonMeasure1D, SingularLadder
from pairinglab.pairing import pairing_by_representation
from pairinglab.scenarios import load_catalog, run_check

mu = RadonMeasure1D((-2.0, 2.0), ladder=SingularLadder((-1.0, 1.0)),
                    ladder_scale=0.7)
print("ladder", mu.integrate(np.exp).hex())
sc = load_catalog()["s08_cantor_const"]
ctx = sc.resolve()
rep = pairing_by_representation(ctx.field, ctx.u)
masses = rep.measure.variation_masses([(-1.5, 0.2), (0.1, 0.9), (-3.0, 3.0)])
print("masses", *(v.hex() for v in masses))
out = run_check(ctx, next(c for c in sc.checks if c.name == "coarea_pairing"))
print("coarea", *(float(v).hex() for v in (out.lhs, out.rhs, out.residual)))
"""


def _run(threads):
    src = str(pathlib.Path(pairinglab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_ladder_sums_are_the_same_for_one_and_two_blas_threads():
    one = _run(1)
    assert [line.split()[0] for line in one.splitlines()] == \
        ["ladder", "masses", "coarea"]
    assert _run(2) == one
