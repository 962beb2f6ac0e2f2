import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from drinfeld2.census import SCHEMA_VERSION
from drinfeld2.cli import main

from conftest import GRID, HURWITZ_CASES, LARGE_Q, STRETCH, hurwitz_report


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
    # schema 2 carries no literal flags: structure.classify raises unless
    # the annihilation identity, the trace bound and the height check hold
    assert payload["schema_version"] == "2"
    assert sorted(payload) == ["P", "c", "chi", "disc", "disc_imaginary", "height", "m", "mu",
                               "ordinary", "q_even_caveat", "schema_version", "supersingular"]


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



def test_malformed_poly_error_quotes_the_argument(capsys):
    code, out, err = run_cli(capsys, "charpoly", "--p", "3", "--P", "T^-1", "--m", "1",
                             "--g", "1", "--delta", "1")
    assert (code, out) == (2, "")
    assert "malformed polynomial term in 'T^-1'" in err

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


# SHA-256 of the full stdout of charpoly, structure and realize; the first input
# has disc 0 and its Frobenius is phi(T)
CLI_STDOUT_SHA256 = [
    ("charpoly --p 3 --P T --m 2 --g [0,0] --delta [1,0]",
     "b2cb0b23afe59cdde06ee62dd0ebd3cad442797061286a3628d281a7e0e06d14"),
    ("charpoly --p 2 --s 2 --P T --m 2 --g 1 --delta 3",
     "3d44c18be86eb442a58e9f0148a4627e975a6f50f0fdde5438df979c2b797b49"),
    ("charpoly --p 5 --P T^2+2 --m 1 --g 7 --delta 3",
     "c5199b74a6091df6a33a73539b983f6d2c98542db0ebdc17780db3e1ce35cd30"),
    ("structure --p 3 --P T --m 2 --g [0,0] --delta [1,0]",
     "a7adfe9289c29a217cb018ac75b3156ed2c38165b87e09da691e16353a1b1885"),
    ("structure --p 2 --P T+1 --m 3 --g 5 --delta 2",
     "782b8f509f1008d4e10349f5a64bde12ca226d520b11905e3feb34102c130165"),
    ("realize --p 3 --P T --m 1 --i1 T+1 --i2 1",
     "d43442cb0f7f6c1af17883af6c056787d03aae3f6be8a54b805ca38efb754e9e"),
    ("realize --p 2 --P T --m 13 --i1 T^13 --i2 1",
     "aad8203843e867c8f7a9056937ea3db075bb0ccfe24ce379e1e0be583cf47ee7"),
    ("realize --p 7 --P T^2+1 --m 2 --i1 T^4+T+3 --i2 1",
     "6c90fa755111ecd3466543036c89a282041960a5190d62bdc81b60b505c1a595"),
    ("realize --p 5 --P T --m 3 --i1 T^2+3*T+2 --i2 T+2",
     "fb2a144bd02d30575e57f4ca2d41058cd1f8e9b1090d921fa12e467fd4b0bd0f"),
]


@pytest.mark.parametrize("argv,digest", CLI_STDOUT_SHA256)
def test_module_commands_print_pinned_bytes(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
                           "--d", "1", "--m", "9", "--out", str(out_path))
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


@pytest.mark.parametrize("command", [
    ("census", "--p", "3", "--d", "1", "--m", "1"),
    ("charpoly", "--p", "3", "--P", "T", "--m", "1", "--g", "1", "--delta", "1")])
@pytest.mark.parametrize("target", ["missing_directory", "directory", "empty"])
def test_unwritable_out_exits_2(tmp_path, capsys, command, target):
    path = {"missing_directory": tmp_path / "missing" / "x.json", "directory": tmp_path,
            "empty": ""}[target]
    code, out, err = run_cli(capsys, *command, "--out", str(path))
    assert code == 2
    assert out == ""
    assert "cannot write %s" % (str(path) or "''") in err and "Traceback" not in err


def test_census_report_validates_against_schema(capsys, census_cache, unverified_census):
    # the CLI report, every golden report and one verified report; checks
    # admits only its named keys, and members_all_ok only when verified
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as resources

    code, out, _ = run_cli(capsys, "census", "--p", "3", "--s", "1",
                           "--d", "2", "--m", "1", "--hurwitz")
    assert code == 0
    schema = json.loads(resources.files("drinfeld2").joinpath(
        "schemas/census_report.schema.json").read_text())
    reports = ([unverified_census(*case) for case in GRID + STRETCH + [(3, 1, 7)] + LARGE_Q]
               + [hurwitz_report(unverified_census, *case) for case in HURWITZ_CASES]
               + [census_cache(3, 1, 2)])
    assert "members_all_ok" in reports[-1].checks
    for payload in [json.loads(out)] + [json.loads(r.to_json_bytes()) for r in reports]:
        jsonschema.validate(payload, schema)


def test_schema_id_names_the_schema_version():
    import importlib.resources as resources

    schema = json.loads(resources.files("drinfeld2").joinpath(
        "schemas/census_report.schema.json").read_text())
    assert schema["$id"] == "drinfeld2/census_report/%s" % SCHEMA_VERSION
    assert schema["properties"]["schema_version"] == {"const": SCHEMA_VERSION}


def test_realize_command(capsys):
    code, out, _ = run_cli(capsys, "realize", "--p", "3", "--s", "1",
                           "--P", "T", "--m", "1", "--i1", "T+1", "--i2", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["realizable"] is True
    assert payload["g"] == [1] and payload["delta"] == [1]


def test_realize_rejects_a_dangling_star(capsys):
    code, out, err = run_cli(capsys, "realize", "--p", "5", "--P", "T", "--m", "1",
                             "--i1", "T+4*", "--i2", "1")
    assert code == 2 and out == ""
    assert "malformed polynomial term" in err


def test_realize_not_realizable_exit_code(capsys):
    code, out, _ = run_cli(capsys, "realize", "--p", "3", "--s", "1",
                           "--P", "T", "--m", "2", "--i1", "T^2+1",
                           "--i2", "T")
    assert code == 1
    payload = json.loads(out)
    assert payload["realizable"] is False


@pytest.mark.parametrize("prime,m,i1,reason", [
    ("T^2", "1", "T", "reducible"),
    ("2*T", "1", "T^2", "monic"),
    ("0", "1", "T^2", "monic"),  # refused before m deg P = -1 builds a tower
])
def test_realize_rejects_an_invalid_prime(capsys, prime, m, i1, reason):
    # the prime is checked before any condition on i1 and i2 is read
    code, out, err = run_cli(capsys, "realize", "--p", "3", "--P", prime, "--m", m,
                             "--i1", i1, "--i2", "1")
    assert code == 2 and out == ""
    assert reason in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["census", "--p", "3", "--d", "1", "--m", "1", "--P", "0"],
    ["charpoly", "--p", "3", "--P", "2", "--m", "1", "--g", "1", "--delta", "1"],
    ["structure", "--p", "3", "--P", "1", "--m", "2", "--g", "1", "--delta", "1"],
    ["realize", "--p", "3", "--P", "2", "--m", "1", "--i1", "T", "--i2", "1"],
], ids=lambda argv: argv[0])
def test_a_constant_prime_is_named(capsys, argv):
    # refused by the one parser of --P, before a tower of degree m deg P
    # is built
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "--P %s is not a prime" % argv[argv.index("--P") + 1] in err
    assert "Traceback" not in err


@pytest.mark.parametrize("s,prime", [("1", "T+3"), ("2", "T+12")])
def test_census_refuses_a_coefficient_of_q_or_more(capsys, s, prime):
    # 'T+3' over F_3 ran as P = T, and 'T+12' over F_9 as T + a
    code, out, err = run_cli(capsys, "census", "--p", "3", "--s", s, "--d", "1",
                             "--m", "1", "--P", prime)
    assert code == 2 and out == ""
    assert "out of range" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,flag", [
    (["census", "--p", "３", "--d", "1", "--m", "1"], "--p"),  # ran as p = 3
    (["census", "--p", "3", "--s", "２", "--d", "1", "--m", "1"], "--s"),
    (["census", "--p", "3", "--d", "1", "--m", "1", "--jobs", "２"], "--jobs"),
    (["census", "--p", "3", "--d", "0", "--m", "1"], "--d"),  # named no flag
    (["census", "--p", "3", "--d", "1", "--m", "0"], "--m"),
    (["charpoly", "--p", "3", "--P", "T", "--m", "0", "--g", "1", "--delta", "1"], "--m"),
    (["charpoly", "--p", "3", "--P", "T", "--m", "1", "--n", "+1", "--g", "1",
      "--delta", "1"], "--n"),
    (["realize", "--p", "3", "--P", "T", "--m", "-1", "--i1", "T", "--i2", "1"], "--m"),
    (["trend", "--q", "3", "--d", " 1", "--m", "1"], "--d"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_integer_flags_take_ascii_digits_of_at_least_one(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "argument %s: expected an integer >= 1" % flag in err
    assert "Traceback" not in err


@pytest.mark.parametrize("qs", ["３", "3,５", "0", "-3", "3,,5"])
def test_trend_q_takes_ascii_digits_of_at_least_one(capsys, qs):
    # '３' ran as q = 3
    code, out, err = run_cli(capsys, "trend", "--q", qs, "--d", "1", "--m", "1")
    assert code == 2 and out == ""
    assert "expected an integer >= 1" in err and "Traceback" not in err


@pytest.mark.parametrize("P,g,delta", [("T+１", "２", "[１]"), ("T+１", "2", "1"),
                                       ("T", "２", "1"), ("T", "1", "[１]")])
def test_module_text_takes_ascii_digits(capsys, P, g, delta):
    # the first ran as P = T+1, g = 2, delta = 1 and exited 0
    code, out, err = run_cli(capsys, "charpoly", "--p", "3", "--P", P, "--m", "1",
                             "--g", g, "--delta", delta)
    assert code == 2 and out == ""
    assert "invalid input" in err and "Traceback" not in err


@pytest.mark.parametrize("i1,i2", [("T+1", "0"), ("0", "0")])
def test_realize_rejects_a_zero_invariant_factor(capsys, i1, i2):
    code, out, err = run_cli(capsys, "realize", "--p", "3", "--P", "T", "--m", "1",
                             "--i1", i1, "--i2", i2)
    assert code == 2 and out == ""
    assert "nonzero" in err and "Traceback" not in err


@pytest.mark.parametrize("g,message", [
    ("[1,2", "unterminated vector literal"),
    ("[1,2,3]", "expected a length-2 vector"),
    ("[]", "expected a length-2 vector"),
    ("[-1,0]", "coefficient -1 out of range for F_3"),
    ("9", "value 9 out of range for a field of order 9"),
    ("[0,x]", "invalid literal for int()"),
    # int() reads these as 5, [1,0], 4 and [0,0]: plain digits only
    ("0_5", "expected digits, got '0_5'"),
    ("[+1,0_0]", "expected digits, got '+1'"),
    ("+4", "expected digits, got '+4'"),
    ("[0,-0]", "expected digits, got '-0'"),
    ("[1,]", "empty entry in element text"),
    ("", "empty entry in element text"),
])
def test_element_reader_rejects_malformed_text(capsys, g, message):
    code, out, err = run_cli(capsys, "charpoly", "--p", "3", "--P", "T", "--m", "2",
                             "--g", g, "--delta", "1")
    assert code == 2 and out == ""
    assert message in err


def test_element_reader_accepts_vectors_and_digit_encodings(capsys):
    # 4 is the base-3 digit encoding of [1,1] in F_9
    outs = []
    for g in ("[1,1]", "[ 1 , 1 ]", "4"):
        code, out, err = run_cli(capsys, "charpoly", "--p", "3", "--P", "T", "--m", "2",
                                 "--g", g, "--delta", "1")
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_realize_text_writes_vectors(capsys):
    code, out, err = run_cli(capsys, "realize", "--p", "5", "--P", "T", "--m", "3",
                             "--i1", "T^2+3*T+2", "--i2", "T+2", "--format", "text")
    assert code == 0 and err == ""
    assert out == "realizable: g = [2,0,0], delta = [2,0,0]\n"


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


@pytest.mark.parametrize("env,jobs", [("abc", None), (None, "0"), (None, "-3")])
def test_trend_rejects_bad_jobs(capsys, monkeypatch, env, jobs):
    if env is not None:
        monkeypatch.setenv("DRINFELD2_JOBS", env)
    argv = ["trend", "--q", "3", "--d", "1", "--m", "1"]
    code, out, err = run_cli(capsys, *(argv + (["--jobs", jobs] if jobs else [])))
    assert code == 2
    assert out == "" and "Traceback" not in err


@pytest.mark.parametrize("target", ["missing_directory", "file_as_directory"])
def test_unwritable_out_is_rejected_before_the_census(tmp_path, capsys, target):
    # |L| = 2187 takes seconds to classify; the path is checked first
    if target == "missing_directory":
        path = "/nonexistent/x.json"
    else:
        (tmp_path / "plain").write_text("")
        path = str(tmp_path / "plain" / "x.json")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "census", "--p", "3", "--d", "1", "--m", "7",
                             "--out", path)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "cannot write %s" % path in err
    assert not os.path.exists("/nonexistent") and not os.path.exists(path)


@pytest.mark.parametrize("s", ["1", "2"])
def test_even_q_hurwitz_is_rejected_before_the_census(capsys, monkeypatch, s):
    # |L| = 8192 (q = 2) and 4096 (q = 4) would take seconds to classify
    def refuse(*args, **kwargs):
        raise AssertionError("the census ran")

    monkeypatch.setattr("drinfeld2.cli.run_census", refuse)
    m = "13" if s == "1" else "6"
    code, out, err = run_cli(capsys, "census", "--p", "2", "--s", s, "--d", "1", "--m", m,
                             "--hurwitz")
    assert code == 2 and out == ""
    assert "class-number checks require odd q" in err


@pytest.mark.parametrize("argv", [
    ["census", "--p", "3", "--d", "1", "--m", "1000000000"],
    ["charpoly", "--p", "3", "--P", "T^5000000", "--m", "1", "--g", "1", "--delta", "1"],
    ["census", "--p", "3", "--d", "1", "--m", "1", "--P", "T^1000000000000"],
    ["census", "--p", "3", "--s", "1000000000", "--d", "1", "--m", "1"],
    ["census", "--p", "1000000000000000003", "--d", "1", "--m", "1"],
    ["trend", "--q", "1000000000000000003", "--d", "1", "--m", "1"],
    ["realize", "--p", "2", "--P", "T", "--m", "14", "--i1", "T^14", "--i2", "1"],
    ["census", "--p", "2", "--d", "1", "--m", "11", "--verify-members"],
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
    # the subprocess imports the same drinfeld2 as this test, also when the
    # package is found through pytest's pythonpath rather than PYTHONPATH
    import drinfeld2

    root = os.path.dirname(os.path.dirname(os.path.abspath(drinfeld2.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "drinfeld2", "charpoly", "--p", "3", "--s", "1",
         "--P", "T", "--m", "1", "--g", "2", "--delta", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["mu"] == 1
