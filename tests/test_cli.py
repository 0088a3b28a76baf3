"""End-to-end checks of the command line interface.

Every test drives ``jumpmc.cli.main`` in process with an argv list, so exit
codes, stdout tags, and output files are exercised exactly as a shell user
would see them.
"""

import csv
import json
import re

import pytest

from jumpmc import ConvergenceError
from jumpmc import cli as climod
from jumpmc.cli import RunConfig, main

HASH_RE = re.compile(r"^[0-9a-f]{12}$")


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_simulate_writes_csv_json_and_tagged_stdout(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    jout = tmp_path / "sim.json"
    rc = main(
        ["simulate", "--m", "200", "--out", str(out), "--json-out", str(jout)]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == [
        "config", "n", "m", "estimate", "std", "e_s", "e_c",
        "mean_n_a", "min_n_a", "max_n_a", "std_n_a", "max_jumps",
    ]
    assert len(rows) == 1
    row = rows[0]
    assert HASH_RE.match(row[0])
    assert int(row[1]) == 5
    assert int(row[2]) == 200
    estimate = float(row[3])
    assert abs(estimate - 0.5) < 0.2
    # tagged stdout uses the same hash as the CSV config column
    assert f"[{row[0]}]" in capsys.readouterr().out

    payload = json.loads(jout.read_text())
    assert payload["config_hash"] == row[0]
    assert payload["estimate"] == estimate
    assert payload["config"]["m"] == 200
    assert payload["n_a"]["min"] >= 5


def test_simulate_rerun_is_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["simulate", "--m", "150", "--n", "4"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_hash_covers_inputs_not_outputs():
    base = RunConfig(command="simulate")
    assert base.hash() == RunConfig(
        command="simulate", out="x.csv", json_out="y.json", workers=4
    ).hash()
    assert base.hash() != RunConfig(command="simulate", m=101).hash()
    assert base.hash() != RunConfig(command="simulate", wiener_seed=8).hash()
    assert base.hash() != RunConfig(command="estimate").hash()


def test_unknown_model_exits_2(capsys):
    assert main(["simulate", "--model", "nope", "--m", "10"]) == 2
    assert "nope" in capsys.readouterr().err


def test_bad_tolerance_exits_2():
    assert main(["estimate", "--tol", "1.5", "--m", "10"]) == 2
    assert main(["adapt-d", "--tol", "0"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--m", "100", "--c0", "-5"],
        ["estimate", "--m", "100", "--c0", "nan"],
        ["simulate", "--m", "100", "--mch", "1"],
        ["estimate", "--m", "1"],
        ["simulate", "--m", "100", "--n", "0"],
        ["simulate", "--m", "50", "--c0", "inf"],
    ],
)
def test_statistical_and_mesh_constants_are_checked_for_every_command(argv, capsys):
    # simulate and estimate used to run with any c0 and mch
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--out", "--json-out"])
def test_output_in_a_missing_directory_exits_2_before_the_run(monkeypatch, tmp_path, capsys, flag):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(climod, "algorithm_d", no_run)
    missing = tmp_path / "missing" / "x.out"
    argv = ["adapt-d", "--tol", "0.1", "--out", str(tmp_path / "run.csv"), flag, str(missing)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: cannot write {missing}: no such directory\n"
    assert list(tmp_path.iterdir()) == []  # neither file written


@pytest.mark.parametrize("flag", ["--out", "--json-out"])
def test_output_that_is_a_directory_exits_2_before_the_run(monkeypatch, tmp_path, capsys, flag):
    # the other file of the pair used to be written before this one failed
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(climod, "algorithm_d", no_run)
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = ["adapt-d", "--tol", "0.1", "--out", str(tmp_path / "run.csv"),
            "--json-out", str(tmp_path / "run.json"), flag, str(folder)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: cannot write {folder}: is a directory\n"
    assert list(tmp_path.iterdir()) == [folder] and list(folder.iterdir()) == []


@pytest.mark.parametrize("link", [False, True])
def test_out_and_json_out_naming_one_file_exit_2_before_the_run(tmp_path, capsys, link):
    # the JSON report used to overwrite the CSV, with exit 0
    target = tmp_path / "x"
    other = tmp_path / "link" if link else target
    if link:
        other.symlink_to(target)
    assert main(["simulate", "--m", "20", "--out", str(target), "--json-out", str(other)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out and --json-out name the same file: {other}\n"
    assert not target.exists()


def test_unwritable_output_exits_2_without_a_traceback(tmp_path, capsys):
    # a name too long for the file system passes the checks made before the
    # run and then cannot be opened
    path = tmp_path / ("x" * 300)
    assert main(["simulate", "--m", "50", "--json-out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def test_convergence_failure_exits_3(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise ConvergenceError("batch cap reached")

    monkeypatch.setattr(climod, "algorithm_d", explode)
    assert main(["adapt-d", "--tol", "0.05"]) == 3
    assert "batch cap reached" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 10, "m": 50, "wiener_seed": 3}))
    out = tmp_path / "run.csv"
    rc = main(["simulate", "--config", str(cfg), "--m", "80", "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert int(rows[0][1]) == 10  # from the file
    assert int(rows[0][2]) == 80  # flag wins over the file


def test_config_file_rejections(tmp_path):
    bad_key = tmp_path / "bad_key.json"
    bad_key.write_text(json.dumps({"frobnicate": 1}))
    assert main(["simulate", "--config", str(bad_key), "--m", "10"]) == 2

    bad_type = tmp_path / "bad_type.json"
    bad_type.write_text(json.dumps({"wiener_seed": True}))
    assert main(["simulate", "--config", str(bad_type), "--m", "10"]) == 2

    not_json = tmp_path / "broken.json"
    not_json.write_text("{")
    assert main(["simulate", "--config", str(not_json), "--m", "10"]) == 2


def test_simulate_purejump_has_no_exact_error(tmp_path):
    out = tmp_path / "pj.csv"
    jout = tmp_path / "pj.json"
    rc = main(
        ["simulate", "--model", "purejump", "--m", "100",
         "--out", str(out), "--json-out", str(jout)]
    )
    assert rc == 0
    _, rows = read_csv(out)
    assert rows[0][6] == ""  # e_c column blank without a reference value
    assert json.loads(jout.read_text())["e_c"] is None


@pytest.mark.parametrize("command, rows", [("adapt-d", "iterations"), ("adapt-s", "batches")])
def test_reports_without_an_exact_value_are_strict_json(tmp_path, command, rows):
    # purejump has no reference value, so every e_c, nested rows included,
    # is unknown: null, never a bare NaN
    jout = tmp_path / "pj.json"
    argv = [command, "--model", "purejump", "--tol", "0.1", "--json-out", str(jout)]
    assert main(argv) == 0

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    payload = json.loads(jout.read_text(), parse_constant=reject)
    assert payload["e_c"] is None
    assert payload[rows] and all(row["e_c"] is None for row in payload[rows])


def test_estimate_densities_agree_on_sign(tmp_path):
    values = {}
    for density in ("rhotilde", "rhodef"):
        out = tmp_path / f"{density}.csv"
        rc = main(
            ["estimate", "--m", "600", "--density", density, "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == [
            "config", "n", "m", "estimate", "e_t", "e_s", "e_c", "efficiency",
        ]
        values[density] = float(rows[0][4])
    # both error densities should flag the same (negative) time error
    assert values["rhotilde"] < 0
    assert values["rhodef"] < 0
    assert values["rhotilde"] == pytest.approx(values["rhodef"], rel=0.5)


def test_estimate_density_changes_hash(tmp_path):
    outs = []
    for density in ("rhotilde", "rhodef"):
        out = tmp_path / f"hash_{density}.csv"
        main(["estimate", "--m", "50", "--density", density, "--out", str(out)])
        _, rows = read_csv(out)
        outs.append(rows[0][0])
    assert outs[0] != outs[1]


def test_adapt_d_rows_end_with_final(tmp_path):
    out = tmp_path / "d.csv"
    rc = main(["adapt-d", "--tol", "0.05", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == [
        "config", "iter", "n", "m", "e_c", "e_t", "e_tt", "e_ts", "e_s", "action",
    ]
    assert len(rows) >= 2
    assert rows[-1][9] == "final"
    assert rows[-2][9] == "stop"
    assert len({row[0] for row in rows}) == 1
    assert [int(row[1]) for row in rows] == list(range(1, len(rows) + 1))


def test_adapt_s_rows_track_batches(tmp_path):
    out = tmp_path / "s.csv"
    rc = main(["adapt-s", "--tol", "0.1", "--m", "64", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == [
        "config", "batch", "tol", "m", "mean_n_a", "min_n_a", "max_n_a",
        "std_n_a", "max_jumps", "e_s", "e_c", "rejected",
    ]
    assert [int(row[1]) for row in rows] == list(range(1, len(rows) + 1))
    assert int(rows[0][3]) == 64
    assert all(float(row[2]) == 0.1 for row in rows)
    assert all(float(row[4]) >= 1.0 for row in rows)


def test_verify_smoke(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    rc = main(["verify", "--m", "4000", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["config", "check", "value", "target", "status"]
    assert [row[1] for row in rows] == [
        "uniform-e_t-n5",
        "uniform-e_t-n10",
        "weak-order-ratio",
        "adapt-d-error-tol0.05",
        "adapt-s-steps-tol0.04",
        "adapt-s-error-tol0.04",
    ]
    assert all(row[4] == "PASS" for row in rows)
    assert "all 6 checks passed" in capsys.readouterr().out
