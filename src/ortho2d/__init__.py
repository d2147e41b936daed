"""Exact construction and verification of bivariate orthogonal polynomial
systems built from a radical factor and a ladder of univariate families,
together with the banded matrix coefficients of their two vector
three-term relations.

The namespace is lazy: ``import ortho2d`` loads no submodule, and each
public name imports its defining module on first access."""

__version__ = "0.1.0"

# Public name -> defining submodule.
_EXPORTS = {
    **dict.fromkeys((
        "FAMILY_PARAMS", "CatalogId", "CrossCheckReport", "Mismatch",
        "catalog_id", "cross_check", "make_system", "positive_definite",
    ), "catalog"),
    **dict.fromkeys((
        "closed_form_first", "closed_form_second", "closed_form_ttr",
    ), "closed_forms"),
    **dict.fromkeys((
        "BivariateSystem", "GramBlock", "RhoSpec", "assemble",
    ), "construction"),
    **dict.fromkeys((
        "BandMatrix", "ModeError", "QuasiDefinitenessError", "Scalar",
        "SparsePoly2", "TTRSet", "parse_rational", "poly_mul", "rank_exact",
    ), "numerics"),
    **dict.fromkeys((
        "RankReport", "build_ttr", "first_ttr", "rank_conditions",
        "second_ttr", "ttr_from_gram",
    ), "ttr"),
    **dict.fromkeys((
        "AdjacentDown", "AdjacentUp", "LeadingPair", "RecurrenceFamily",
        "adjacent_down", "adjacent_up", "bessel", "jacobi_shift", "jacobi_std",
        "laguerre",
    ), "univariate"),
    **dict.fromkeys((
        "CheckResult", "NotPositiveDefiniteError", "VerifyReport",
        "run_suite", "verify_central_symmetry", "verify_orthogonality",
        "verify_orthonormal_transpose", "verify_relation",
    ), "verify"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    from importlib import import_module
    if name in _EXPORTS.values():  # the submodule itself
        return import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
