"""The package namespace and the record types."""
import importlib
import types

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

