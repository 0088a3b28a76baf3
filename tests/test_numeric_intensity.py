"""The numeric integrated-intensity path, pinned bit for bit.

A model without closed forms for L(t) = int_0^t lam(s) ds and its inverse
gets composite Gauss-Legendre panels and a bracketed root solve in
``jumps.IntensityIntegral``.  The builtins both give closed forms, so no
engine digest covers this path; these pins do.  ``float.hex`` values of
the total and of the inverse at a few levels, plus digests of a small
``run_mesh_batch`` on ``test5`` with its closed forms removed.  A
subprocess check keeps scipy off the import path of the package, the
command line and the builtin models: only this path loads it.

The values depend on the quadrature nodes and the root solver of scipy
as well as on numpy's draws, so they are checked only under the series
they were generated with.  Regenerate them with
``python tests/test_numeric_intensity.py`` only for a change that is
meant to alter results, and say so.
"""

import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from importlib.metadata import version
from pathlib import Path

import numpy as np
import pytest

from jumpmc import SeedConfig, build_model, uniform_mesh
from jumpmc import controller as ctl
from jumpmc.jumps import IntensityIntegral

NUMPY_SERIES = "2.4"
SCIPY_SERIES = "1.17"

TOTAL = "0x1.62e42fefa39efp-1"
INVERSE = {
    0.05: "0x1.a403484548655p-5",
    0.3: "0x1.6641632306a56p-2",
    0.5: "0x1.4c2531c3c0d37p-1",
    0.69: "0x1.fcc848499ccb6p-1",
}
MESH_BATCH = {
    "n_jumps": "8dfad6f116f56b39a39f4c8a138c06f60df0edaa7988756bde2ad92920348c99",
    "payoff": "2d6834f21f701b461caeed16631767435bdcf37774a60ab95ea36b0d98d3e3ad",
}

pinned = pytest.mark.skipif(
    not (
        np.__version__.startswith(NUMPY_SERIES + ".")
        and version("scipy").startswith(SCIPY_SERIES + ".")
    ),
    reason=f"pinned under numpy {NUMPY_SERIES} and scipy {SCIPY_SERIES}",
)


def numeric_integral():
    return IntensityIntegral(lambda t: 1.0 / (1.0 + t), 1.0, bound=1.0)


def numeric_test5():
    """``test5`` with no closed-form integrated intensity or inverse."""
    return replace(
        build_model("test5"), intensity_integral=None, intensity_integral_inverse=None
    )


def _digest(array) -> str:
    array = np.ascontiguousarray(array)
    head = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(head + array.tobytes()).hexdigest()


def _mesh_batch_digests():
    model = numeric_test5()
    out = ctl.run_mesh_batch(model, uniform_mesh(model.horizon, 5), SeedConfig(), 0, 256)
    return {key: _digest(out[key]) for key in MESH_BATCH}


COLD_START = """
import sys
from dataclasses import replace

import jumpmc
import jumpmc.cli
from jumpmc import SeedConfig, build_model, controller, uniform_mesh


def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


model = build_model("test5")
det = uniform_mesh(model.horizon, 5)
controller.run_mesh_batch(model, det, SeedConfig(), 0, 64)
assert not scipy_loaded(), scipy_loaded()
numeric = replace(model, intensity_integral=None, intensity_integral_inverse=None)
out = controller.run_mesh_batch(numeric, det, SeedConfig(), 0, 64)
assert out["n_jumps"].sum() > 0
assert {"scipy.optimize", "scipy.special"} <= set(scipy_loaded()), scipy_loaded()
"""


def test_scipy_is_loaded_only_for_a_numeric_intensity():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pinned
def test_numeric_total_and_inverse_are_pinned():
    integral = numeric_integral()
    assert integral.total.hex() == TOTAL
    assert {s: integral.inverse(s).hex() for s in INVERSE} == INVERSE


@pinned
def test_numeric_intensity_mesh_batch_is_pinned():
    assert _mesh_batch_digests() == MESH_BATCH


if __name__ == "__main__":  # print the values, to pin them above
    integral = numeric_integral()
    sys.stdout.write(f'TOTAL = "{integral.total.hex()}"\nINVERSE = {{\n')
    for s in INVERSE:
        sys.stdout.write(f'    {s}: "{integral.inverse(s).hex()}",\n')
    sys.stdout.write("}\nMESH_BATCH = {\n")
    for key, value in _mesh_batch_digests().items():
        sys.stdout.write(f'    "{key}": "{value}",\n')
    sys.stdout.write("}\n")
