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
        "levels": "507588a3e06eb1e710a45c1a9c864f14ec531ecf7f00540419dc30a95a00a693",
        "n_a": "5aae7c44f33377283d05f5c59fb54893674dcc9d21916957515dc42983ddfdf3",
        "n_jumps": "447b138f543b314bf33c3099a5a2207fca6e7c772b1d3575b33656f5c8037d15",
        "payoff": "05533e465a05a4dc6b18b18c6602cee8c10571d9d43f006d868165ad02902e47",
        "r_total": "d245b5e397fd65390547f32e2b23bf56637df025b6f6a9c33f9bff1bad349fb9",
        "signed_total": "1975053c4acc8feb5f3360aa700806fc70b9329c2b1c8ea9a29ef3be0406783f",
        "work": "6cd72f1c7a628881ccdffbeaf892471d27709797bc980080abb092f301d4e9ee",
    },
    "stochastic-0.02": {
        "accepted": "3b1edbf9ece78d867e268df9f2794803b4f4bb1c69c4fa37e7376f66b5c92810",
        "levels": "8595f6d97df90a0329c272fda2bb7cba4178b4fff020438ed32b3f43bb255343",
        "n_a": "09b2611c8561ad32cc187f2d90c42f84d9a2535b1d410307e2fdaee81cae2e32",
        "n_jumps": "e9f6a29b0262886f40372bcc278d652bc256add694faeb9398eb06d4f452fe5b",
        "payoff": "e0b21862bd8974ea65f015f8b668567eb63abfbf188278148a9579ae5f99f9f1",
        "r_total": "2053c4fff392686f04f7737d50d81d0899eb1684ff51ae5c9ad9fdaf63a85073",
        "signed_total": "a142d7f6236c8485cf0820c54e589d602bf85a3a61a1a410418551bf862428e3",
        "work": "1434217b2651b2458685125de3b27f24fa2d695bc0df966e772c5494049ee380",
    },
    "mesh-density": {
        "collisions": "516945faaebc52ad5b4bddcc8bb82cdeb0d6051a69a2911632f045f74e0d2109",
        "n_a": "84c9fac22aa5d2ad0fcf1b9abae80a6f9656bae5766582d4e0db45a3f731a122",
        "n_jumps": "c937225b5194f1ec16b16d073f9df490f017b5ff43e29cf1224a574ef9a77605",
        "payoff": "8437480587e7c3bcccbea0dcf98b987e2d709771323708359ae00783d83f5f91",
        "r": "ed50b015a7c132596014f1dc3edef8bbfd58fb44a4d6716afa2cb84063810281",
        "signed_interval": "879fe779280c308bd622f7c18304a9f0515b52a814fa40dab5b6715078a564e7",
        "signed_total": "8d430761f470fa8ebc46904b4a88a6b00e10680a86814f2ba77a45b587e99f61",
    },
    "mesh-forward-40": {
        "collisions": "18d4054f55847a2629236063606544bf450ab24fb8b4a17b1d9133b57f0996d1",
        "n_a": "a50881e940909595d509fb5fef91f273f06e4c3888be1ba9f8279b766c551591",
        "n_jumps": "3d3ecc1d803fefc903d2e680f546a971f2e5a119f96ad5b95e64bf698dc9e579",
        "payoff": "fc7c3014013122b9ebf345553c4484f3b5c0934ed217268d5c0dd77863a41f49",
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
