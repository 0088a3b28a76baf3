"""Pinned sha256 digests of the command line's output bytes.

Each case runs ``jumpmc.cli.main`` in process with ``--out`` and
``--json-out`` and digests the CSV file, the JSON report and stdout.  A
change to any cell, field, format or printed line changes a digest, so a
refactor of the front end that claims byte-identical output is checked
here for good.

Like ``test_pinned_digests.py``, the digests are tied to numpy 2.4 and
the test is skipped under another numpy version.  Regenerate them with
``python tests/test_cli_digests.py`` only for a change that is meant to
alter the output, and say so.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np
import pytest

from jumpmc.cli import main

NUMPY_SERIES = "2.4"

CASES = {
    "simulate": ["simulate", "--m", "300"],
    "estimate-rhotilde": ["estimate", "--m", "500", "--density", "rhotilde"],
    "estimate-rhodef": ["estimate", "--m", "500", "--density", "rhodef"],
    "adapt-d": ["adapt-d", "--tol", "0.1"],
    "adapt-s": ["adapt-s", "--tol", "0.1", "--m", "64"],
    "adapt-s-purejump": ["adapt-s", "--tol", "0.1", "--m", "64", "--model", "purejump"],
    "verify": ["verify", "--m", "4000"],
}

PINNED = {
    "simulate": {
        "exit": 0,
        "csv": "a184b3d806210390c8eceee82e8f3160d23e93250e2051b99dcf97bc1285e879",
        "json": "e51c356ba346693ab8389dbdf656e1ce2cb33dc7442f0392105a5e64ec17d68d",
        "stdout": "7cd71dce2673dc385ebc3e3e27f73af540163ae04a73a398061a6e2ed7a7bd7b",
    },
    "estimate-rhotilde": {
        "exit": 0,
        "csv": "0177676858a131ff8b75bc5209a87900d38bb15b6566cf15228506a1230d824e",
        "json": "2ec7b5ac28e726284ea9adc5bb8cbfc6398ce72b2b123a67eff23dd09848cb5e",
        "stdout": "df4968bdea6bf615a7a8ce0b5683c43846bbeeb3c4dbff0cb4e526a8f5afe502",
    },
    "estimate-rhodef": {
        "exit": 0,
        "csv": "a656a59005cc04f2f48eb48cedc913b292a4e277c8e4183a33005c7e4f573f3b",
        "json": "036f20893d88ec8ab18b21ae40aa2810f729e3191b42e63a0993a28b8069aa31",
        "stdout": "4175ec5b8df83953ddce59fda52f8cc4fbda850b9d05dcdfce68a13dd8494130",
    },
    "adapt-d": {
        "exit": 0,
        "csv": "e3e3b140ef90c7df9ec04d3bd43d960f5267bc1607cb0733ad5877219bba56e2",
        "json": "a1795e9df41030f76f1fd8961ca7769842acafef419bd0ec7948194371c0ab38",
        "stdout": "f179da4b756e33ee9ff5b67c7d3f0306d983f4265b8862d9aedf4dd1cdccace5",
    },
    "adapt-s": {
        "exit": 0,
        "csv": "dc0eb4e3c472be238d096bbd5aeed758b8702916a3ed5e9367c44bdcb19a480d",
        "json": "b72950a1e47ee9fac02ec01e16517aefcf598ade33a8bd97c85e23b8c83fcf24",
        "stdout": "74ccd564724ca7a1f4a505d53b095e1777ad720661bc151eddf557535c0ce7f4",
    },
    "adapt-s-purejump": {
        "exit": 0,
        "csv": "59f0cd50d43d2ac09723b0c8db0434225561b712350248ce842ee5fc7733d85b",
        "json": "ae079fe3ae7cd7a76612357407469baaf336df4b8b5799cf04fa31c50ad45600",
        "stdout": "cd129e93ce2b99a43c815f6722498fefb71dc778e86db06cfda774374c949012",
    },
    "verify": {
        "exit": 0,
        "csv": "df8b258dd54f1680a3a33f2c00ff96006519a4b2fe09c64f3d75c86874c44d16",
        "json": "e94d04e1a80827669272cc3fe364ac737bd80542244f5a0307bf8c93afa5d0f8",
        "stdout": "3c5a5dafbed7620cff1c8d93b8f12733dcdd913b03d202e3e8ee9c9ac4c5b1ac",
    },
}


def _digests(case, directory):
    csv_path = os.path.join(directory, f"{case}.csv")
    json_path = os.path.join(directory, f"{case}.json")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(CASES[case] + ["--out", csv_path, "--json-out", json_path])
    with open(csv_path, "rb") as handle:
        csv_bytes = handle.read()
    with open(json_path, "rb") as handle:
        json_bytes = handle.read()
    return {
        "exit": code,
        "csv": hashlib.sha256(csv_bytes).hexdigest(),
        "json": hashlib.sha256(json_bytes).hexdigest(),
        "stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
    }


@pytest.mark.skipif(
    not np.__version__.startswith(NUMPY_SERIES + "."),
    reason=f"digests are pinned under numpy {NUMPY_SERIES}",
)
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_pinned_digests(case, tmp_path):
    assert _digests(case, str(tmp_path)) == PINNED[case]


if __name__ == "__main__":  # print the digests, to pin them above
    with tempfile.TemporaryDirectory() as directory:
        digests = {case: _digests(case, directory) for case in CASES}
    sys.stdout.write("PINNED = {\n")
    for case, values in digests.items():
        sys.stdout.write(f'    "{case}": {{\n')
        for key, value in values.items():
            sys.stdout.write(f'        "{key}": {value!r},\n'.replace("'", '"'))
        sys.stdout.write("    },\n")
    sys.stdout.write("}\n")
