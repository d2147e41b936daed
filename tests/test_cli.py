"""End-to-end CLI behavior: output formats, schema, exit codes, and the
modules each subcommand loads."""
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ortho2d
from ortho2d.cli import MAX_DEGREE, MAX_POINTS, canonical_json, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -- canonical JSON --------------------------------------------------------


def test_canonical_json_round_trips_byte_identically():
    payload = {"z": [1, "2/3", None, True], "a": {"b": 0.25, "c": -7}}
    text = canonical_json(payload)
    assert canonical_json(json.loads(text)) == text
    assert text.endswith("\n")
    # keys are sorted
    assert text.index('"a"') < text.index('"z"')


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_json({"x": float("inf")})


# -- tables -----------------------------------------------------------------


def test_tables_json_disk(capsys):
    obj = run_json(capsys, "tables", "disk", "--mu", "1/2", "--max-n", "1")
    assert obj["schema"] == "ortho2d/1"
    assert obj["command"] == "tables"
    assert obj["family"] == "disk"
    assert obj["parameters"] == {"mu": "1/2"}
    assert obj["max_degree"] == 1
    t0, t1 = obj["tables"]
    assert t0["n"] == 0 and t1["n"] == 1
    assert t1["a"] == ["3/5", "2/5"]
    assert t1["c"] == ["3/8", None]
    assert t1["a1"] == [None, "-2/15"]
    assert t1["a3"] == ["3/5", "2/3"]
    assert t1["c1"] == [None, "1/4"]
    assert t1["b2"] == ["0", "0"]
    assert t0["c"] == [None] and t0["a1"] == [None]


def test_tables_json_round_trip(capsys):
    code, out, _ = run(capsys, "tables", "simplex", "--alpha", "1/2",
                       "--beta", "1/2", "--gamma", "1/2", "--max-n", "2")
    assert code == 0
    assert canonical_json(json.loads(out)) == out


def test_tables_csv(capsys):
    code, out, _ = run(capsys, "tables", "disk", "--mu", "1/2",
                       "--max-n", "1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,m,key,value"
    assert "1,0,a,3/5" in lines
    assert "1,1,c1,1/4" in lines
    # null positions are skipped entirely
    assert not any(line.endswith(",") for line in lines)


# SHA-256 of `tables --max-n 6` stdout for the pinned parameter sets, JSON
# then CSV; pins every value, every null and every "0" of the tables.
TABLE_DIGESTS = [
    ("disk", {"mu": "1/2"},
     "4f6871ad06308ec4fa3c7f55eca39fa8d6586969c3f0c13c5993cda408f0fef1",
     "e5d35642cda709e34fb3ba0c339c4f9d80358e86650e7b0e48b3e649980ce1b9"),
    ("disk", {"mu": "3/2"},
     "90f1ae1af79740b32dee3fcf45ea526a158eee6f4124b5ae50f6b902139f669b",
     "98721957dd47ee9cb6d581c4feabbb16d34d17847629effeef12312ebffe9c1c"),
    ("biangle", {"alpha": "0", "beta": "0"},
     "8096f72bfda5ae05a972a6e9357b558cf52275b4232dae90e08542c91efbd334",
     "674c55605b04e39e4e7a69457a583e25ba8e71875d3184c2e29f2479a30de432"),
    ("biangle", {"alpha": "1", "beta": "1/2"},
     "2909687155a97c8d9f4a4d6349320d5a9b478e105969a2a2c507934bf2152fb2",
     "dc3fc8b2b02b1a9ff359cb7ded40c03efc1bf0e6de8c632a27a58f1b42283429"),
    ("simplex", {"alpha": "1/2", "beta": "1/2", "gamma": "1/2"},
     "ed4076979145f9831326d7b7e3279c774e358811d0d4ac9a9cce7dc9dc095ae8",
     "1ea856801cee72340ffa1c0dd1936047168239674c1f85477b36bdf90c8620b3"),
    ("simplex", {"alpha": "0", "beta": "1", "gamma": "2"},
     "d40b5bd1a2cd309ae110759b23924d49e65bbfe91ebf4670a4891f39df60c66d",
     "c3d59638511680fe5630b2efbe3c79b0badea3eaf5f6a2aa7dc61665e74702af"),
    ("square", {"alpha": "0", "beta": "0", "gamma": "0", "delta": "0"},
     "fd0b56dea9152295e51e48f80b5765c9c7e4090e111de7b7a8fdae985dd0d67c",
     "ec9cd4614f744f28850796c45fdfd5d15c79c7be3fdd410b39af52164fb4e19e"),
    ("square", {"alpha": "1", "beta": "2", "gamma": "0", "delta": "1/2"},
     "f5aaba52334c59a71a1463db5b68edde975b46b66f232f5014e36e8048bc9463",
     "7034e340c30c7ff375ee332c737ceebe3167ebcccfce716d3ebd8f2b72c877da"),
    ("laguerre-jacobi", {"alpha": "1", "beta": "1/2"},
     "81986a1611c65d35b41481d3f48af221df51087f33c5d18ac71e2248136de62c",
     "89365c6b58f1dda7be72a8a79b5019e42162b106b4971b18dd6d337cb140f9c6"),
    ("bessel-laguerre", {"g": "5", "gamma": "2/5"},
     "f9c769623cad3297c7666ac98889afdfc7d878cd58d742f69816d13daffede62",
     "f1bb5111ef281f976443ba08eb1462ccc50b24428120ca05f1884792330748d5"),
]


@pytest.mark.parametrize("family,params,json_sha,csv_sha", TABLE_DIGESTS,
                         ids=[f"{row[0]}-{i}" for i, row
                              in enumerate(TABLE_DIGESTS)])
def test_tables_bytes_are_pinned(capsys, family, params, json_sha, csv_sha):
    flags = [f"--{k}={v}" for k, v in params.items()]
    for fmt, digest in (("json", json_sha), ("csv", csv_sha)):
        code, out, err = run(capsys, "tables", family, *flags, "--max-n",
                             "6", "--format", fmt)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_tables_bessel_laguerre_anchor(capsys):
    obj = run_json(capsys, "tables", "bessel-laguerre", "--g", "5",
                   "--gamma", "2/5", "--max-n", "0")
    assert obj["tables"][0]["b"] == ["1"]


def test_tables_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "tables", "disk", "--mu", "1/2",
                       "--output", str(target))
    assert code == 0 and out == ""
    obj = json.loads(target.read_text())
    assert obj["command"] == "tables"


# -- verify -------------------------------------------------------------------


def test_verify_passes_and_round_trips(capsys):
    code, out, _ = run(capsys, "verify", "disk", "--mu", "1/2",
                       "--max-n", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert {c["name"] for c in obj["checks"]} == {
        "cross-check", "relation-x", "relation-y",
        "orthogonality", "rank-conditions", "central-symmetry"}
    assert canonical_json(obj) == out


def test_verify_float_mode(capsys):
    code, out, _ = run(capsys, "verify", "disk", "--mu", "1/2",
                       "--max-n", "2", "--mode", "float", "--points", "4",
                       "--seed", "3")
    assert code == 0
    obj = json.loads(out)
    rel = next(c for c in obj["checks"] if c["name"] == "relation-x")
    assert rel["details"]["max_coeff_residual"] <= 1e-10


def test_verify_corrupt_exits_one(capsys):
    code, out, _ = run(capsys, "verify", "disk", "--mu", "1/2",
                       "--max-n", "1", "--corrupt")
    assert code == 1
    obj = json.loads(out)
    assert obj["passed"] is False
    cross = next(c for c in obj["checks"] if c["name"] == "cross-check")
    assert cross["status"] == "fail"
    assert cross["details"]["mismatches"] == 1


def test_verify_quasi_definiteness_exit_three(capsys):
    code, out, err = run(capsys, "verify", "square", "--alpha", "-1",
                         "--beta", "-1", "--gamma", "0", "--delta", "0",
                         "--max-n", "2")
    assert code == 3
    assert "error" in err


def test_zero_bessel_scale_exits_two_in_every_subcommand(capsys):
    errors = set()
    for command in ("tables", "moments", "verify"):
        code, out, err = run(capsys, command, "bessel-laguerre", "--g", "0",
                             "--gamma", "1")
        assert (code, out) == (2, "")
        errors.add(err)
    assert errors == {
        "error: bessel-laguerre requires a nonzero parameter g\n"}


def test_tables_quasi_definiteness_exit_three(capsys):
    code, _, err = run(capsys, "tables", "square", "--alpha", "-1",
                       "--beta", "-1", "--gamma", "0", "--delta", "0")
    assert code == 3
    assert "error" in err


# -- moments --------------------------------------------------------------------


def test_moments_json(capsys):
    obj = run_json(capsys, "moments", "disk", "--mu", "1/2",
                   "--max-h", "2", "--max-k", "2")
    values = {(mm["h"], mm["k"]): mm["value"] for mm in obj["moments"]}
    assert values[(0, 0)] == "1"
    assert values[(2, 0)] == "1/4"
    assert values[(2, 2)] == "1/24"
    assert values[(1, 0)] == "0"


def test_moments_csv(capsys):
    code, out, _ = run(capsys, "moments", "disk", "--mu", "1/2",
                       "--max-h", "1", "--max-k", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "h,k,value", "0,0,1", "0,1,0", "1,0,0", "1,1,0"]


# -- eval -----------------------------------------------------------------------


def test_eval_exact(capsys):
    obj = run_json(capsys, "eval", "disk", "--mu", "1/2",
                   "--n", "1", "--m", "1", "--x", "0.3", "--y", "0.4")
    assert obj["value"] == "2/5"
    assert obj["x"] == "3/10"


def test_eval_float(capsys):
    obj = run_json(capsys, "eval", "disk", "--mu", "1/2",
                   "--n", "1", "--m", "1", "--x", "0.3", "--y", "0.4",
                   "--mode", "float")
    assert obj["value"] == pytest.approx(0.4)
    assert obj["x"] == pytest.approx(0.3)


def test_eval_square_legendre_at_one(capsys):
    obj = run_json(capsys, "eval", "square", "--alpha", "0", "--beta", "0",
                   "--gamma", "0", "--delta", "0",
                   "--n", "2", "--m", "0", "--x", "1", "--y", "0")
    assert obj["value"] == "1"


def test_eval_rejects_bad_indices(capsys):
    code, _, err = run(capsys, "eval", "disk", "--mu", "1/2",
                       "--n", "1", "--m", "2", "--x", "0", "--y", "0")
    assert code == 2 and "error" in err


# -- usage errors -----------------------------------------------------------------


def test_missing_parameter_exits_two(capsys):
    code, _, err = run(capsys, "tables", "disk")
    assert code == 2
    assert "missing" in err


def test_extra_parameter_exits_two(capsys):
    code, _, err = run(capsys, "tables", "disk", "--mu", "1/2",
                       "--alpha", "1")
    assert code == 2
    assert "extra" in err


def test_unknown_family_exits_two(capsys):
    code, _, _ = run(capsys, "tables", "pentagon", "--mu", "1")
    assert code == 2


def test_unparseable_rational_exits_two(capsys):
    code, _, err = run(capsys, "tables", "disk", "--mu", "half")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("value", ["1e999999999", "-1e-999999999"])
def test_huge_decimal_exponent_exits_two(capsys, value):
    code, out, err = run(capsys, "tables", "disk", f"--mu={value}")
    assert code == 2 and out == "" and "exponent" in err


def test_verify_has_no_csv_format(capsys):
    code, _, _ = run(capsys, "verify", "disk", "--mu", "1/2",
                     "--format", "csv")
    assert code == 2


def test_negative_max_n_exits_two(capsys):
    code, _, err = run(capsys, "tables", "disk", "--mu", "1/2",
                       "--max-n", "-1")
    assert code == 2 and "nonnegative" in err


@pytest.mark.parametrize("argv", [
    ("tables", "disk", "--mu", "1/2", "--max-n"),
    ("verify", "disk", "--mu", "1/2", "--max-n"),
    ("moments", "disk", "--mu", "1/2", "--max-h"),
    ("moments", "disk", "--mu", "1/2", "--max-k"),
])
def test_degree_bound_above_ceiling_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv, str(MAX_DEGREE + 1))
    assert code == 2 and out == ""
    assert f"at most {MAX_DEGREE}" in err


def test_huge_max_n_exits_two_at_once(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "tables", "disk", "--mu", "1/2",
                       "--max-n", "100000")
    assert code == 2 and out == ""
    assert time.perf_counter() - start < 1.0


def test_max_n_at_the_ceiling_is_accepted(capsys):
    obj = run_json(capsys, "tables", "disk", "--mu", "1/2",
                   "--max-n", str(MAX_DEGREE))
    assert obj["max_degree"] == MAX_DEGREE


@pytest.mark.parametrize("n", [str(MAX_DEGREE + 1), "100000"])
def test_eval_degree_above_ceiling_exits_two_at_once(capsys, n):
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "disk", "--mu", "1/2", "--n", n,
                         "--m", "0", "--x", "0", "--y", "0")
    assert code == 2 and out == ""
    assert f"at most {MAX_DEGREE}" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_eval_degree_at_the_ceiling_is_accepted(capsys, mode):
    obj = run_json(capsys, "eval", "disk", "--mu", "1/2",
                   "--n", str(MAX_DEGREE), "--m", "3", "--x", "1/3",
                   "--y", "1/5", "--mode", mode)
    assert obj["n"] == MAX_DEGREE


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "tables" in out and "verify" in out


@pytest.mark.parametrize("mu, x", [("1/2", "1e400"), ("1/2", "1e300"),
                                   ("1e300", "0")])
def test_eval_float_overflow_exits_two(capsys, mu, x):
    # 1e400 overflows as a double, 1e300 squared does, and so does a
    # coefficient of P_{2,1} at mu = 1e300.
    code, out, err = run(capsys, "eval", "disk", "--mu", mu, "--n", "2",
                         "--m", "1", "--x", x, "--y", "0", "--mode", "float")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_float_overflow_exits_two(capsys):
    # at mu = 1e300 a basis coefficient overflows a double
    code, out, err = run(capsys, "verify", "disk", "--mu", "1e300",
                         "--max-n", "2", "--mode", "float")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_points_above_ceiling_exits_two_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "disk", "--mu", "1/2",
                         "--mode", "float", "--points", str(MAX_POINTS + 1))
    assert code == 2 and out == ""
    assert f"at most {MAX_POINTS}" in err
    assert time.perf_counter() - start < 1.0


def test_points_at_the_ceiling_are_accepted(capsys):
    obj = run_json(capsys, "verify", "disk", "--mu", "1/2", "--max-n", "0",
                   "--mode", "float", "--points", str(MAX_POINTS))
    assert obj["passed"] is True


# -- import laziness ---------------------------------------------------------


PACKAGE = Path(ortho2d.__file__).resolve().parent


def loaded_after(code):
    """Names of the ortho2d modules loaded once code has run in a fresh
    interpreter."""
    probe = code + ("\nimport json, sys\nprint(json.dumps(sorted(m for m in "
                    "sys.modules if m.split('.')[0] == 'ortho2d')))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    return set(json.loads(done.stdout.splitlines()[-1]))


def main_call(*argv):
    return ("from ortho2d.cli import main\n"
            f"assert main({[*argv, '--output', os.devnull]!r}) == 0")


def test_import_loads_no_submodule():
    assert loaded_after("import ortho2d") == {"ortho2d"}


def test_submodule_attribute_loads_that_module_only():
    loaded = loaded_after("import ortho2d\northo2d.ttr.build_ttr")
    assert "ortho2d.ttr" in loaded and "ortho2d.verify" not in loaded


@pytest.mark.parametrize("argv", [
    ("tables", "disk", "--mu", "1/2", "--max-n", "2"),
    ("moments", "disk", "--mu", "1/2", "--max-h", "2", "--max-k", "2"),
    ("eval", "disk", "--mu", "1/2", "--n", "2", "--m", "1", "--x", "1/2",
     "--y", "1/3", "--mode", "float"),
])
def test_tables_moments_eval_skip_the_relation_modules(argv):
    loaded = loaded_after(main_call(*argv))
    assert "ortho2d.cli" in loaded
    assert not loaded & {"ortho2d.ttr", "ortho2d.verify"}


def test_verify_loads_the_relation_modules():
    loaded = loaded_after(main_call("verify", "disk", "--mu", "1/2",
                                    "--max-n", "1"))
    assert {"ortho2d.ttr", "ortho2d.verify"} <= loaded


def test_no_module_imports_dataclasses():
    for path in sorted(PACKAGE.glob("*.py")):
        assert "dataclasses" not in path.read_text(encoding="utf-8"), path
