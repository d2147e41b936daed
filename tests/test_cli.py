"""End-to-end CLI behavior: output formats, schema, exit codes, and the
modules each subcommand loads."""
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
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


# The other subcommands, each as (command, options, exit code); the SHA-256
# of their stdout per pinned set, in this order, is in COMMAND_DIGESTS.
PINNED_COMMANDS = (
    ("moments", ("--max-h", "4", "--max-k", "5"), 0),
    ("moments", ("--max-h", "4", "--max-k", "5", "--format", "csv"), 0),
    ("eval", ("--n", "4", "--m", "2", "--x", "1/3", "--y=-2/5"), 0),
    ("eval", ("--n", "4", "--m", "2", "--x", "1/3", "--y=-2/5", "--mode",
              "float"), 0),
    ("verify", ("--max-n", "3"), 0),
    ("verify", ("--max-n", "3", "--mode", "float", "--points", "5",
                "--seed", "3"), 0),
    ("verify", ("--max-n", "3", "--corrupt"), 1),
)

COMMAND_DIGESTS = [
    (  # disk {'mu': '1/2'}
        "c0ee409512c83751728c9a15637ee84bd5b02f46dc2a495e694b7217aa39218e",
        "37dcd55faa6180367bcdeb52ae0fc020f659110a35fd76ca697494be24b224fb",
        "cf59d7e78a9c4e388a9a5eba7f9a45a98c4ad76b8da11c8febbbcce162a6bafa",
        "f7bbf935d92f1eb1cf0dd8d97cb96eaf1521441e538501eb0e76d4ad140aa24d",
        "49f4825be744188570dfd62991f595690530f06740422e49230839354ece1ca8",
        "32e65e574b8d5906175053f92e78714fbdd1a50336d3b735e3a148fbd0cd54a3",
        "a36b25321b47b59708b87b957b942e62885b561b7740c4af9ab80b7707124822",
    ),
    (  # disk {'mu': '3/2'}
        "c32a1e0e87b3e0d4bc52546ffbac294b30e1e52ef228b8a7493dd22058c684c5",
        "262e590eb2b5f98a27e5ae77da2a36aef4948807e1feafe9619e8b0d4f2bd7bf",
        "ddaeb76df7078581d79938db8ba7e8dacb5f7af9eeb5e2d6f8bbe8d685f5e27e",
        "2d28b0ffb8d710174eb47cbea595809eddfb449d5975c61e0d44143b3599600f",
        "4e30c87bb480ab82b2eec89c351ce3924ca904a6a548427586f757ff3365cc74",
        "68633c59a93bf1b527b791d9f44800b8e5f5993e1cbac9d8f081e4a3bdcf6d14",
        "1f61179dbb61ab6f760a09b3d7df654ff0668477e5982d7a93cbf11acb9a6860",
    ),
    (  # biangle {'alpha': '0', 'beta': '0'}
        "d9a1b8d747c2cace607a8286da0b38dda2292576dde7350466c50d1b1c02bc61",
        "bb619b9ee0b229ecb416dcfb29772cfd8fad57619c87681e75e4099befcadc81",
        "281061166ef395c0e879ac63e8949956da49250d7e770284b124f625399cc0fb",
        "5d004f834c1ea26474ad8f23b80442c70d5b44143c68b0420efacdf122c4a4dc",
        "19035b800bede7e61dad804eea4f89ba45362a97951f30777b3466a618933822",
        "0fb619ccd244da11ea7ec56821af6010f007f5dc0d820cc266f48df678430d9e",
        "ea77bc4116a5ae37b736b56fbf4d6dba2e37300f855f3b3b314800878971b474",
    ),
    (  # biangle {'alpha': '1', 'beta': '1/2'}
        "db2b5234f98ed09ccb57848689212e6030bc23abf10524d3ae7f7ba6af92da7b",
        "0174a02be95e6162fd85cb160e194ebeb6bd8150d7a906d680238e044993b41a",
        "3a14c593ca054ddfa6e596dca64b29a2278e0b556eded3dd864757ca9a03dd7a",
        "3248de1f215be4ecb84ef1cb56f03b9865fd14b3007e86f5fa1bee5a0be9ea00",
        "089195d4932256f1b730e5ad40afb1853e79ed591a4b48566e38caefc10f36b6",
        "e0733ed29905c955987d075728796add29f7f280e550cd5ee638b456dfd342f7",
        "f43c6509a2d76af658b0b002498953011f3e08a73a9780dfcf28c99bad77c86e",
    ),
    (  # simplex {'alpha': '1/2', 'beta': '1/2', 'gamma': '1/2'}
        "5ce87588833ced0d20ca9129d894f054e446592e5e95fcc8836dfc68501cf70e",
        "a99c3855489732758246441629afbd7e5ee679e0cebab6e4d3ccb39d720f6240",
        "3af2e4baeb18249db07ff0c9771fc73fd87ff09f98c5340b0be1cf9c983afce1",
        "408de7f2ab8f2ac34dae9439e929fecd813a010908eb7a84627bea7868cf4f02",
        "26a52ce110e5c975e396d71d2814dd365b67b51f2244c628508cd0eee99de3b5",
        "38f5699af8c15d0cdc5f30f7e3d5d25deaa795207a0ba8cc07163ae4a9f56522",
        "338a73191e075388b09b7c114214edbb52c772f999f5780319dc2d7f61d1c09b",
    ),
    (  # simplex {'alpha': '0', 'beta': '1', 'gamma': '2'}
        "ab8251e9d079681da56abdc5dab0891db3bd070b928a6b793a5e04cdf6b07315",
        "8a50b9e1eab23e902f4b86543fbbbec9efa4a535c092e5c69b2f839753125c27",
        "975c03f424923f228323e927395e770448c192f57998a61b09f0894ba082f8d6",
        "1a58a2853d8bbe799397ee950e3068a717e6cc90a0501f93ef0fcd04239be4af",
        "4117e2fcb534bd25a7933e295c0f7874781afdcb821a692936df6d7b4223b5da",
        "bb29e9267e231562c92a9e9c0099364e03a055d7621e4404208c05d326df3ec1",
        "788186233814f2f1d4f9bf33b01e464f4de348802a1a11fb6dc082ab728869ad",
    ),
    (  # square {'alpha': '0', 'beta': '0', 'gamma': '0', 'delta': '0'}
        "59eeaea8aa58d3c6c227bc65b2668a3bbba11fd6ad4161301507e7e374a9d091",
        "8b5c7565029fa4be20844d9119e698ae4bf06aeb8b24bfe0b171e2d8738f8c1c",
        "3d29bbff4c36e1c8d31ff665a58cfeaa0b75b7b5bd1487947f134c4003a4e7af",
        "1002950c4034825c253e77c4e02612eef3668c871f52738f9a57452d777867dd",
        "6fe1a6e93cf12624f057863d2c7ed3323f4a4a77a1c5b3ce292e7cfc4fdd9547",
        "b293761817e0f95e337ba9dea290347579c03e36de03e86ad8444faed31c21f6",
        "773a81239f6fba48d00f77b056789bc77f3a41a54b6b6efed068b1254336bee8",
    ),
    (  # square {'alpha': '1', 'beta': '2', 'gamma': '0', 'delta': '1/2'}
        "86348f0cc0a307c64dde2c7425856dbe45099737b6537afef9d5a7a3b79d1671",
        "5e9a0547fd4a725b245b421b5acb5795efededa9ef176a1233703489b24d5097",
        "c59d5e2a5e5a6244e10327e1f20c292be2d75ae0e1627cad53be4f05b5406f12",
        "69fbfeaf2f857f657c77af324ce3fc968c312f5ab29783a37174cd5714c6aafe",
        "59b8db9c35b6ee02b75f1f0f1117f9c4a43c72d5c74607f56fecdd78b2c1cfe3",
        "a017650b08c931d81a4b6d206349ffb8ab166c49727155df8572a9e73581ecae",
        "ed2ee18bdc5add73ab2be053ec992f38b37bde4c253d1cfafd78162fa47c3ca7",
    ),
    (  # laguerre-jacobi {'alpha': '1', 'beta': '1/2'}
        "2dff3e2702f3b8c97b98ef34242bf6b4566c7582fab0b014548016b76d24b80a",
        "cd3581b3d9d35c4da0da3f107c444b6f30d0a8c4aabcb1caf84c9fccb063340a",
        "0f139fd7a67ced532b336fcb795054af6817dfa05ccc53619c675f67917321e0",
        "ec7658e5ed420d73b3b55a413aad29bc07b83108b2485426387a1b7e86f22764",
        "a0b8ede9b9c0a50d4d524f9931a1540c7c8fac27e95773a3655b0e5977945f16",
        "63978737296212fe0f6c38aa01b5c58df326d980b49156f04a8f6e7931ac549b",
        "8b4c85080bd06454a6eecc5bd7355f8ef91b12059aa5b401ffe0c218ce1e49d3",
    ),
    (  # bessel-laguerre {'g': '5', 'gamma': '2/5'}
        "cc8a6b733df192b08c7f89c23ded7c240116e16dd23025eca7c419c4a52ae41e",
        "33d17c04bf9133d2305193c89a6d411bc3f8548853fe522aacf5684e80e326a3",
        "47e6b61634dffb4d7eba9bee9e24c659ccc8935c46a18a0fb8385876dac4a9cb",
        "2e1dc4e47690e58af7b435cc0ee7ae15c969d655f716945f060192b00fa09a55",
        "47603a94a9658fb60e486465d28b31d17229401b4aac6548255c6d0d63996b86",
        "223ca11a24c7e8701a07bb27de7e7be33ecc7c6ddf17cfc5090e2ac8a9d8ef4e",
        "9a08188a655a436e15d74a09e1453fe0fc9c4880703ab3e7d56347aebf388e12",
    ),
]


@pytest.mark.parametrize(
    "family,params,json_sha,csv_sha,command_shas",
    [(*row, shas) for row, shas in zip(TABLE_DIGESTS, COMMAND_DIGESTS)],
    ids=[f"{row[0]}-{i}" for i, row in enumerate(TABLE_DIGESTS)])
def test_tables_bytes_are_pinned(capsys, family, params, json_sha, csv_sha,
                                 command_shas):
    flags = [f"--{k}={v}" for k, v in params.items()]
    for fmt, digest in (("json", json_sha), ("csv", csv_sha)):
        code, out, err = run(capsys, "tables", family, *flags, "--max-n",
                             "6", "--format", fmt)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt
    for (command, options, exit_code), digest in zip(PINNED_COMMANDS,
                                                     command_shas):
        code, out, err = run(capsys, command, family, *flags, *options)
        assert code == exit_code and err == "", options
        assert hashlib.sha256(out.encode()).hexdigest() == digest, options


# A stand-in for gmpy2, put into sys.modules before ortho2d is imported, so
# that the mpq backend path runs where gmpy2 is not installed.  Its mpq is
# a Fraction whose arithmetic returns mpq, whose numerator and denominator
# are an int subclass (a type other than int, as mpz is) and whose repr
# differs from Fraction's.  It does not model these gmpy2 behaviours: mpz
# is no int subclass at all and mpq no Fraction subclass (isinstance
# checks against int or Fraction fail there), mpq + float gives an mpfr,
# the text of gmpy2's ZeroDivisionError differs, and mpq is C-fast.
STUB_GMPY2 = """
import sys
import types
from fractions import Fraction


class mpz(int):
    def __repr__(self):
        return f"mpz({int(self)})"


class mpq(Fraction):
    __slots__ = ()
    numerator = property(lambda self: mpz(self._numerator))
    denominator = property(lambda self: mpz(self._denominator))

    def __repr__(self):
        return f"mpq({self._numerator},{self._denominator})"


def _lift(name):
    method = getattr(Fraction, name)

    def lifted(*args):
        value = method(*args)
        return mpq(value) if type(value) is Fraction else value
    return lifted


for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
              "__neg__", "__pos__", "__abs__"):
    setattr(mpq, _name, _lift(_name))

gmpy2 = types.ModuleType("gmpy2")
gmpy2.mpq, gmpy2.mpz = mpq, mpz
sys.modules["gmpy2"] = gmpy2
"""

# Under the stand-in: the pinned CLI bytes of test_tables_bytes_are_pinned
# as SHA-256 per pinned set, the backend type of the public values and
# the three-route cross-check of the pinned systems to degree 6.
STUB_RUN = STUB_GMPY2 + """
import contextlib
import hashlib
import io
import json

from ortho2d import Scalar, catalog_id, cross_check, make_system
from ortho2d.cli import main


def sha(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


result = {"types": [], "digests": [], "cross_check": []}
for family, params in PINNED:
    flags = [f"--{k}={v}" for k, v in params.items()]
    result["digests"].append(
        [sha("tables", family, *flags, "--max-n", "6", "--format", fmt)
         for fmt in ("json", "csv")]
        + [sha(command, family, *flags, *options)
           for command, options, _ in PINNED_COMMANDS])
    cid = catalog_id(family, **params)
    system = make_system(cid)
    result["types"] += [type(v).__name__ for v in (
        Scalar.exact(1).value, cid.params[0][1], system.w_moment(0, 0),
        system.q.a(0), system.block_norm(1, 0))]
    result["cross_check"].append(cross_check(cid, 6, system=system).ok)
result["repr"] = repr(catalog_id("disk", mu="1/2"))
print(json.dumps(result))
"""


def test_the_mpq_backend_keeps_the_pinned_bytes():
    pinned = [(family, params) for family, params, _, _ in TABLE_DIGESTS]
    code = (f"PINNED = {pinned!r}\nPINNED_COMMANDS = {PINNED_COMMANDS!r}\n"
            + STUB_RUN)
    env = dict(os.environ, PYTHONPATH=str(Path(ortho2d.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=600)
    result = json.loads(done.stdout)
    assert set(result["types"]) == {"mpq"}
    assert result["repr"] == ("CatalogId(name='disk', "
                              "params=(('mu', mpq(1,2)),))")
    for got, (_, _, json_sha, csv_sha), command_shas in zip(
            result["digests"], TABLE_DIGESTS, COMMAND_DIGESTS):
        want = [(0, json_sha), (0, csv_sha)] + [
            (exit_code, digest) for (_, _, exit_code), digest
            in zip(PINNED_COMMANDS, command_shas)]
        assert [tuple(pair) for pair in got] == want
    assert all(result["cross_check"])


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


def test_a_vanishing_closed_form_denominator_shows_no_backend_repr(capsys):
    # mu = -1 makes n + mu + 1 vanish at n = 0
    code, out, err = run(capsys, "verify", "disk", "--mu", "-1")
    assert (code, out) == (3, "")
    assert err == ("error: a closed-form denominator vanished at these "
                   "parameters; the functional is not quasi-definite\n")
    assert "Fraction(" not in err and "mpq(" not in err


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


def test_tables_refuses_only_where_a_closed_form_denominator_vanishes(
        capsys):
    # tables reads only the closed forms, so it exits 0 on a functional
    # that verify refuses through the weight chain; pinned as it stands.
    flags = ("simplex", "--alpha=-1/2", "--beta=-1/2", "--gamma=-5/2",
             "--max-n", "0")
    code, out, err = run(capsys, "tables", *flags)
    assert (code, err) == (0, "")
    assert json.loads(out)["tables"][0]["a"] == ["-2"]
    code, out, err = run(capsys, "verify", *flags)
    assert (code, out) == (3, "")
    assert "<u, rho^2> vanished at ladder step 1" in err


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
    # the names are checked before any literal is parsed
    for alpha in ("1", "1/x"):
        code, _, err = run(capsys, "tables", "disk", "--mu", "1/2",
                           "--alpha", alpha)
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


def _int_digit_limit():
    """The interpreter's int-to-str digit limit; None before Python 3.10.7,
    which has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def test_an_exact_value_past_the_int_digit_limit_prints(capsys):
    limit = _int_digit_limit()
    obj = run_json(capsys, "eval", "disk", "--mu", "1/2", "--n", "5", "--m",
                   "0", "--x", "1e-1000", "--y", "0")
    assert _int_digit_limit() == limit  # restored after main returns
    x = Fraction(1, 10 ** 1000)
    want = ortho2d.make_system(ortho2d.catalog_id("disk", mu="1/2")) \
        .expand_P(5, 0).eval(x, 0)
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert len(obj["value"]) > 4300 and obj["value"] == str(want)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_the_int_digit_limit_is_restored_on_an_error_exit(capsys):
    limit = _int_digit_limit()
    code, _, _ = run(capsys, "tables", "disk", "--mu", "1/x")
    assert code == 2 and _int_digit_limit() == limit


def test_an_over_long_literal_exits_two_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "tables", "disk", "--mu", "7" * 200_000)
    assert code == 2 and out == "" and "characters" in err
    assert time.perf_counter() - start < 1.0


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


@pytest.mark.parametrize("mu, n, m, x, named", [
    ("1/2", "2", "1", "1e400", "the point (1e400, 0) overflows a double"),
    ("1/2", "2", "0", "1e300", "a power of the point (1e+300, 0.0) "
                               "overflows a double"),
    ("1e300", "2", "1", "0", "a coefficient of the (2,1) basis polynomial "
                             "overflows a double"),
    ("1/2", "4", "0", "1e77", "the (4,0) basis polynomial overflows a "
                              "double at (1e+77, 0.0)"),
], ids=["point", "power", "coefficient", "value"])
def test_eval_float_overflow_exits_two(capsys, mu, n, m, x, named):
    # 1e400 overflows as a double, 1e300 squared does (P_{2,0} holds
    # x^2), so does a coefficient of P_{2,1} at mu = 1e300 and the value
    # of P_{4,0} at 1e77; the one stderr line names what overflowed, once.
    code, out, err = run(capsys, "eval", "disk", "--mu", mu, "--n", n,
                         "--m", m, "--x", x, "--y", "0", "--mode", "float")
    assert code == 2 and out == ""
    assert err == f"error: {named}\n"


def test_eval_float_raises_each_coordinate_only_as_far_as_needed(capsys):
    # P_{2,1} = 5/2 x y holds x and y only to the first power: at
    # x = 1e200 its value 1.25e200 is a double, though x^2 is not
    exact = run_json(capsys, "eval", "disk", "--mu", "1/2", "--n", "2",
                     "--m", "1", "--x", "1e200", "--y", "1/2")
    obj = run_json(capsys, "eval", "disk", "--mu", "1/2", "--n", "2",
                   "--m", "1", "--x", "1e200", "--y", "1/2",
                   "--mode", "float")
    assert Fraction(exact["value"]) == Fraction(125, 100) * 10 ** 200
    assert obj["value"] == pytest.approx(1.25e200, rel=1e-15)
    assert (obj["x"], obj["y"]) == (1e200, 0.5)


def test_verify_float_overflow_exits_two(capsys):
    # at mu = 1e300 a basis coefficient overflows a double; the message
    # names the check, its degree and the basis polynomial
    code, out, err = run(capsys, "verify", "disk", "--mu", "1e300",
                         "--max-n", "2", "--mode", "float")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "relation-x at n = " in err and "basis polynomial" in err


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
    assert not loaded & {"ortho2d.oracle", "ortho2d.ttr", "ortho2d.verify"}


def test_verify_loads_the_relation_modules():
    loaded = loaded_after(main_call("verify", "disk", "--mu", "1/2",
                                    "--max-n", "1"))
    assert {"ortho2d.oracle", "ortho2d.ttr", "ortho2d.verify"} <= loaded


def test_no_module_imports_dataclasses():
    for path in sorted(PACKAGE.glob("*.py")):
        assert "dataclasses" not in path.read_text(encoding="utf-8"), path
