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
        "csv": "ee33746a322833b370a30b62dcfccf15e508f65249fb8bf13dcdfc0a2dc14d8d",
        "json": "4a06e0c17359ec966d0766120017c86d8841700fab2bd1a287b11813464be281",
        "stdout": "4ef891e04f461cba16bda87cb127b611064cf7d1348d8389b8b1e42ffa44b97d",
    },
    "estimate-rhotilde": {
        "exit": 0,
        "csv": "6ae7c1b886571a16964d977d458f470ca54f47105116b294a1d8385aea195d59",
        "json": "165e7b813a834dd77fcb127b98b7badbd36a5ff420dfe0f1b564a0e73126fd37",
        "stdout": "4fda4d552b51c3ef16700014c2181b636b66be6e8149b4946f7b37a03af2d03c",
    },
    "estimate-rhodef": {
        "exit": 0,
        "csv": "0e7c07be67f8373285e6912aa4a08a44605953505c290db3439d04dddae0bb4c",
        "json": "63ff2a81b8faf151336c6ca377860619fac7586b044ea739ac95de03ec8a6dba",
        "stdout": "25b56a8afe3376159aad43d028bf591d739ea80e140b1a17448d0188365a6aa4",
    },
    "adapt-d": {
        "exit": 0,
        "csv": "d59e2bf2239a9cf658cc52da5011896eb63f38dcac06e143bf3890e6334bf8fd",
        "json": "d46b5fded25e3b596894c5606ad5a338a785e836b1b2de1e5c0e15b09f02bc12",
        "stdout": "eec109e2cc578e37a44f5e36dcc271a0a29b684d0a8d1d7513b29b6fdf18d604",
    },
    "adapt-s": {
        "exit": 0,
        "csv": "71880baad320e955eb5ebaffb61e96e9ae715c16f6d2df42f43833b35a4ab4eb",
        "json": "94b28a3ee3a9057fba941b95e1b3f885f41eb8f6452255c0a2ede4329c72fdd9",
        "stdout": "1fc3b5d9bc19da8f29314eba1466a26c66d12073c2b4394de709f7ecd3e613cc",
    },
    "adapt-s-purejump": {
        "exit": 0,
        "csv": "7eb0c4ba819f4305c2b92d16dbb40d18910877d0242eab43bbe38b4a48b48419",
        "json": "65004090e1903d63766682ab4c3b9ad397fc1c2770117a8bbe71f016b6b8cbac",
        "stdout": "038b543a3fd1c53acb4237db2473b3ded786e6208c7ff8a3936709e413d49084",
    },
    "verify": {
        "exit": 0,
        "csv": "c9d97ba436b7cc214b10cbb6e56d9436a2e4004b567af719edfc4d5fea81216a",
        "json": "5cdbc86f481be14ec1c06863337168e25b82dc5f2d08cb8b004f05ad42b60e4c",
        "stdout": "c349f32b1fc2ea68bb897097a090d100d926d7f48d3d60aed7585fe85c5cfebf",
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
