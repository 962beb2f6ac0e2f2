import json
import subprocess
import sys
import time

import pytest

from drinfeld2.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_charpoly_command(capsys):
    code, out, _ = run_cli(capsys, "charpoly", "--p", "3", "--s", "1",
                           "--P", "T", "--m", "1", "--g", "1", "--delta", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["c"] == "2"
    assert payload["mu"] == 2
    assert payload["chi"] == "T+1"
    assert payload["ordinary"] is True
    assert payload["hasse_weil_ok"] is True


def test_charpoly_rejects_zero_delta(capsys):
    code, _, err = run_cli(capsys, "charpoly", "--p", "3", "--s", "1",
                           "--P", "T", "--m", "1", "--g", "1", "--delta", "0")
    assert code == 2
    assert "delta" in err


def test_charpoly_rejects_inconsistent_n(capsys):
    code, _, err = run_cli(capsys, "charpoly", "--p", "3", "--s", "1",
                           "--P", "T^2+1", "--m", "1", "--n", "3",
                           "--g", "1", "--delta", "1")
    assert code == 2


def test_charpoly_rejects_malformed_poly(capsys):
    code, _, _ = run_cli(capsys, "charpoly", "--p", "3", "--s", "1",
                         "--P", "T^^2", "--m", "1", "--g", "1", "--delta", "1")
    assert code == 2


def test_structure_command(capsys):
    code, out, _ = run_cli(capsys, "structure", "--p", "3", "--s", "1",
                           "--P", "T", "--m", "1", "--g", "1", "--delta", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["i1"] == "T+1" and payload["i2"] == "1"
    assert payload["cyclic"] is True


def test_structure_noncyclic_instance(capsys):
    code, out, _ = run_cli(capsys, "structure", "--p", "3", "--s", "1",
                           "--P", "T", "--m", "2", "--g", "[0,0]",
                           "--delta", "[1,0]")
    assert code == 0
    payload = json.loads(out)
    assert payload["cyclic"] is False
    assert payload["criteria"]["i2_divides_c_minus_2"] is True


def test_census_command(capsys):
    code, out, _ = run_cli(capsys, "census", "--p", "3", "--s", "1",
                           "--d", "1", "--m", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["totals"]["iso_classes"] == 6
    assert payload["totals"]["supersingular_iso_classes"] == 2
    assert payload["statistics"]["C"] == {"num": "1", "den": "1"}


def test_census_csv(capsys):
    code, out, _ = run_cli(capsys, "census", "--p", "3", "--s", "1",
                           "--d", "1", "--m", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 25  # header plus 24 classes


def test_census_size_bound_no_partial_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, err = run_cli(capsys, "census", "--p", "3", "--s", "1",
                           "--d", "1", "--m", "8", "--out", str(out_path))
    assert code == 3
    assert not out_path.exists()


def test_census_outfile_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "census", "--p", "3", "--s", "1",
                             "--d", "2", "--m", "1", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_census_report_validates_against_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as resources

    code, out, _ = run_cli(capsys, "census", "--p", "3", "--s", "1",
                           "--d", "2", "--m", "1", "--hurwitz")
    assert code == 0
    schema = json.loads(resources.files("drinfeld2").joinpath(
        "schemas/census_report.schema.json").read_text())
    jsonschema.validate(json.loads(out), schema)


def test_realize_command(capsys):
    code, out, _ = run_cli(capsys, "realize", "--p", "3", "--s", "1",
                           "--P", "T", "--m", "1", "--i1", "T+1", "--i2", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["realizable"] is True
    assert payload["g"] == [1] and payload["delta"] == [1]


def test_realize_not_realizable_exit_code(capsys):
    code, out, _ = run_cli(capsys, "realize", "--p", "3", "--s", "1",
                           "--P", "T", "--m", "2", "--i1", "T^2+1",
                           "--i2", "T")
    assert code == 1
    payload = json.loads(out)
    assert payload["realizable"] is False


def test_trend_command(capsys):
    code, out, _ = run_cli(capsys, "trend", "--q", "3,5", "--d", "1", "--m", "1",
                           "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "q\tC\tC0\tC0_closed_form\tC0_closed_form_match"
    assert out.splitlines()[1] == "3\t1/1\t1/1\t1/1\tTrue"


@pytest.mark.parametrize("env,jobs", [("abc", None), (None, "0"), (None, "-3")])
def test_census_rejects_bad_jobs(capsys, monkeypatch, env, jobs):
    if env is not None:
        monkeypatch.setenv("DRINFELD2_JOBS", env)
    argv = ["census", "--p", "3", "--d", "1", "--m", "1"]
    code, out, err = run_cli(capsys, *(argv + (["--jobs", jobs] if jobs else [])))
    assert code == 2
    assert out == "" and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["census", "--p", "3", "--d", "1", "--m", "1000000000"],
    ["charpoly", "--p", "3", "--P", "T^5000000", "--m", "1", "--g", "1", "--delta", "1"],
    ["census", "--p", "3", "--d", "1", "--m", "1", "--P", "T^1000000000000"],
    ["census", "--p", "3", "--s", "1000000000", "--d", "1", "--m", "1"],
    ["census", "--p", "1000000000000000003", "--d", "1", "--m", "1"],
    ["trend", "--q", "1000000000000000003", "--d", "1", "--m", "1"],
])
def test_oversized_input_exits_3_quickly(capsys, argv):
    # each bound is checked before any big-integer work or allocation
    start = time.perf_counter()
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert time.perf_counter() - start < 1.0
    assert err.startswith("size bound exceeded")


def test_polynomial_roundtrip_through_cli(capsys):
    code, out, _ = run_cli(capsys, "charpoly", "--p", "3", "--s", "1",
                           "--P", "T^2+1", "--m", "1", "--g", "[1,1]",
                           "--delta", "[0,1]")
    assert code == 0
    payload = json.loads(out)
    from drinfeld2 import UPoly, build_tower
    fq = build_tower(3, 1, 2).fq
    assert str(UPoly.parse(fq, payload["c"])) == payload["c"]
    assert str(UPoly.parse(fq, payload["chi"])) == payload["chi"]


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "drinfeld2", "charpoly", "--p", "3", "--s", "1",
         "--P", "T", "--m", "1", "--g", "2", "--delta", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["mu"] == 1
