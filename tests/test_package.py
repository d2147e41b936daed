"""The package namespace, the record types, the README's Python API
example and the test settings."""
import ast
import importlib
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ortho2d
from ortho2d import (
    AdjacentDown,
    AdjacentUp,
    CatalogId,
    CheckResult,
    CrossCheckReport,
    GramBlock,
    LeadingPair,
    Mismatch,
    RankReport,
    RhoSpec,
    Scalar,
    TTRSet,
    VerifyReport,
)

RECORDS = (AdjacentDown, AdjacentUp, CatalogId, CheckResult,
           CrossCheckReport, GramBlock, LeadingPair, Mismatch, RankReport,
           RhoSpec, TTRSet, VerifyReport)


# -- namespace -----------------------------------------------------------------


def test_every_public_name_is_the_defining_modules_object():
    for name in ortho2d.__all__:
        if name == "__version__":
            continue
        value = getattr(ortho2d, name)
        module = importlib.import_module(
            f"ortho2d.{ortho2d._EXPORTS[name]}")
        assert value is getattr(module, name), name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == module.__name__, name


def test_all_is_listed_by_dir_and_has_no_duplicates():
    assert len(set(ortho2d.__all__)) == len(ortho2d.__all__)
    assert set(ortho2d.__all__) <= set(dir(ortho2d))


def test_star_import():
    namespace = {}
    exec("from ortho2d import *", namespace)
    assert set(ortho2d.__all__) <= set(namespace)
    assert namespace["make_system"] is ortho2d.make_system


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        ortho2d.nope
    assert not hasattr(ortho2d, "nope")


# -- records -------------------------------------------------------------------


def test_catalog_id_validates_and_normalizes_on_direct_construction():
    with pytest.raises(ValueError, match="unknown family"):
        CatalogId("pentagon", ())
    with pytest.raises(ValueError, match="missing"):
        CatalogId("disk", ())
    cid = CatalogId("disk", (("mu", "1/2"),))
    value = cid.params[0][1]
    assert isinstance(value, Scalar) and value == Scalar.exact("1/2")
    assert cid == CatalogId(name="disk", params=(("mu", "1/2"),))
    assert repr(cid) == "CatalogId(name='disk', params=(('mu', Scalar(1/2)),))"


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_records_are_immutable_tuples(record):
    fields = tuple(range(len(record._fields)))
    value = record._make(fields)
    assert value == fields and tuple(value) == fields
    with pytest.raises(AttributeError):
        setattr(value, record._fields[0], -1)
    with pytest.raises(AttributeError):
        value.extra = -1



# -- README example ------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_api_example_gives_its_commented_results():
    # Run the example line by line as written; an expression followed by a
    # comment line holding a Python literal must evaluate to that literal.
    text = (ROOT / "README.md").read_text()
    block = text.split("## Python API", 1)[1].split("```python\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    namespace = {}
    checked = []
    for line, after in zip(lines, lines[1:] + [""]):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            want = ast.literal_eval(after.lstrip("# ").split("#")[0])
        except (SyntaxError, ValueError):
            exec(line, namespace)
            continue
        assert eval(line, namespace) == want, line
        checked.append(want)
    assert checked == [{(1, 1): "5/2"},
                       [["3/5", "0", "0"], ["0", "2/5", "0"]],
                       True]


# -- test settings -------------------------------------------------------------

FAILING_HYPOTHESIS_TEST = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # Hypothesis reports a failure through an import that may warn; with
    # warnings as errors that must not end the session before test_passes.
    (tmp_path / "test_probe.py").write_text(FAILING_HYPOTHESIS_TEST)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
