"""Pinned sha256 digests of the engines' per-row outputs.

Each digest covers one output array of a fixed-seed batch of ``test5``
realizations: its dtype, shape and raw bytes.  A change to any number,
however small, changes the digest, so a refactor or optimisation of the
engines that claims bit-identical results is checked here for good.

The digests are tied to numpy 2.4 (the Philox and ziggurat draws, the
pairwise summation order of ``np.sum`` and libm-backed ufuncs); under
another numpy version the test is skipped rather than failed.  Regenerate
them with ``python tests/test_pinned_digests.py`` only for a change that
is meant to alter results, and say so.
"""

import hashlib
import sys

import numpy as np
import pytest

from jumpmc import SeedConfig, build_model, uniform_mesh
from jumpmc import controller as ctl

NUMPY_SERIES = "2.4"

PINNED = {
    "stochastic-0.04": {
        "accepted": "4bbb9f550ae5f70b9c2a6881e50b499a2d049d0c3eb460d1bdf3271a7cea12fe",
        "levels": "18557c74d507c2c45404216bad56d6fe718f551f0e8d62999fb4257bc9dfbcb5",
        "n_a": "f32dd46968090011a499cac61897aba3f0543ea15321ea33b848919675057665",
        "n_jumps": "20175363cd19f3f4d91599875bf91be0ed9429fa4463fca57cdaa9a8df99dfc4",
        "payoff": "49c032823a4dcb5930c9708b59d3e5bfc899a470f2a13d1f36b4ed689f8ab51b",
        "r_total": "4b046fe8121d3fbf692c5358c302d6f2869b48f453b439bb4b35f465fcca2ce9",
        "signed_total": "da990d91c0dcf80f909f2b82a06a042b7edd47aae67c39457f17905b9cc4ce90",
        "work": "cc32424cb9aed6dc3847bb97a392bbaacd925334b4bd3cd54ee35ad3769e2ee4",
    },
    "stochastic-0.02": {
        "accepted": "3b1edbf9ece78d867e268df9f2794803b4f4bb1c69c4fa37e7376f66b5c92810",
        "levels": "9c315e145c106c0970ad1a9f8086e728936b6f2ca9e4d248c7917aafa632ebd8",
        "n_a": "5552d8ac0795bb2227c80b84a49359033b68c44b700d77c4d0a4886db229fd7b",
        "n_jumps": "c4b9d4156822f302c76116a0e1bebd863115489f2dba234d26e77067839921f5",
        "payoff": "dbfaa16d20fe3ec3863f85f4c9f6da9ffcb6e13b2f02a51511c86207ea95c02a",
        "r_total": "68e208aa55669b5b56949fa4d9d499e7388cbc4a50127ade5549b88a8540ce01",
        "signed_total": "53a2f626e9117de2345564aeeae0f4ea4c2501c5fb33142503ebf82eeb6abbe6",
        "work": "36282f5731aa4ae5ece05530cc8ea0efd0772e3f64b66d84beda24643fa89c72",
    },
    "mesh-density": {
        "collisions": "516945faaebc52ad5b4bddcc8bb82cdeb0d6051a69a2911632f045f74e0d2109",
        "n_a": "59c25dbaad96edb9e6cf7fa3a6cb65d2d2e73f307832fdd5a29a563d6cf3e5a4",
        "n_jumps": "5fdb98aa9ca4cce27acd942b313ee6d6f021b372addfac4857075371a965e186",
        "payoff": "bc9f30e4aeadfb1aab2c669b2d97524f6d27670b905c0cb9f8d47efc2d5d06cf",
        "r": "ec67003fade2ee7ecf09949dd56a88f0e477f031a5ec58ee0340169ebcd8a84b",
        "signed_interval": "507a551170cddf16de306fcb6b7ea8bbcbfcdf88a6b1eb6f582fbd22f8221ed5",
        "signed_total": "62f98264bbaeada51dba78c12176a5cdce233bf62866f4a42508d64468f89f3d",
    },
    "mesh-forward-40": {
        "collisions": "18d4054f55847a2629236063606544bf450ab24fb8b4a17b1d9133b57f0996d1",
        "n_a": "df62540352bf4639c55bae41f8ba3ea4b86a9d814b4b91b7f52f24bf66e8235c",
        "n_jumps": "5f94ce31c6746d058a972977be830f6c27a713755cd856a5824b4c6c07c0c57c",
        "payoff": "493969398540a98c6b4c46054e9bc57bc488c281a1ca482c46279f05aa0d985c",
    },
}


def _digest(array) -> str:
    array = np.ascontiguousarray(array)
    head = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(head + array.tobytes()).hexdigest()


def _outputs(case):
    model = build_model("test5")
    if case == "mesh-forward-40":
        # the forward-only engine of algorithm_d's Monte Carlo phase
        det = uniform_mesh(model.horizon, 40)
        return ctl.run_mesh_batch(model, det, SeedConfig(), 0, 4096, want_density=False)
    det = uniform_mesh(model.horizon, 5)
    if case == "mesh-density":
        return ctl.run_mesh_batch(
            model, det, SeedConfig(), 0, 2000, tol=0.04, want_density=True
        )
    tol = float(case.split("-")[1])
    budget = ctl.split_tolerance(tol)
    count = 1000 if tol == 0.04 else 300
    return ctl.run_stochastic_batch(
        model, det, SeedConfig(), 0, count, tol=budget.total, tol_t=budget.time,
        n_a_bar=5.0,
    )


def _digests(case):
    return {key: _digest(value) for key, value in sorted(_outputs(case).items())}


@pytest.mark.skipif(
    not np.__version__.startswith(NUMPY_SERIES + "."),
    reason=f"digests are pinned under numpy {NUMPY_SERIES}",
)
@pytest.mark.parametrize("case", sorted(PINNED))
def test_per_row_outputs_match_pinned_digests(case):
    assert _digests(case) == PINNED[case]


if __name__ == "__main__":  # print the digests, to pin them above
    sys.stdout.write("PINNED = {\n")
    for case in PINNED:
        sys.stdout.write(f'    "{case}": {{\n')
        for key, value in _digests(case).items():
            sys.stdout.write(f'        "{key}": "{value}",\n')
        sys.stdout.write("    },\n")
    sys.stdout.write("}\n")
