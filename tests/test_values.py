"""Public values are backend rationals; a Scalar, made only by
``Scalar.exact`` and the BandMatrix reads, mixes with them exactly."""
import pytest

from ortho2d import (
    BandMatrix,
    ModeError,
    RhoSpec,
    RecurrenceFamily,
    Scalar,
    SparsePoly2,
    adjacent_down,
    adjacent_up,
    catalog_id,
    closed_form_first,
    closed_form_second,
    jacobi_std,
    make_system,
    second_ttr,
)

RATIONAL = type(Scalar.exact(1).value)


@pytest.fixture(scope="module")
def square():
    return make_system(catalog_id("square", alpha=1, beta=2, gamma=0,
                                  delta="1/2"))


@pytest.fixture(scope="module")
def disk():
    return make_system(catalog_id("disk", mu="1/2"))


def test_band_reads_and_family_values_compare_hash_and_dedupe(square):
    # with rho = 1 the raising super-band is q's a-coefficient itself
    for n in range(5):
        a_y = second_ttr(square, n)[0]
        for m in range(n + 1):
            entry, value = a_y.get(m, m + 1), square.q.a(m)
            assert isinstance(entry, Scalar) and type(value) is RATIONAL
            assert entry == value and value == entry
            assert not (entry != value or value != entry)
            assert hash(entry) == hash(value)
            assert len({entry, value}) == 1


def test_a_scalar_still_refuses_a_float():
    with pytest.raises(ModeError):
        Scalar.exact("1/2") + 0.5


@pytest.mark.parametrize("make", [
    lambda: Scalar.exact(0.5),
    lambda: catalog_id("disk", mu=0.5),
    lambda: RhoSpec.linear(0.5, 1),
    lambda: jacobi_std(0.5, 0),
    lambda: BandMatrix(1, 1, 0, 0, {(0, 0): 0.5}),
    lambda: RecurrenceFamily("f", lambda n: 1.0, lambda n: 0.0,
                             lambda n: 1.0).a(0),
], ids=["Scalar.exact", "catalog_id", "RhoSpec.linear", "jacobi_std",
        "BandMatrix", "RecurrenceFamily closure"])
def test_entry_points_refuse_a_float(make):
    with pytest.raises(ModeError):
        make()


def _scalar_family():
    """A family whose recurrence closures return Scalars."""
    return RecurrenceFamily("s", lambda n: Scalar.exact(1),
                            lambda n: Scalar.exact(0),
                            lambda n: Scalar.exact(n))


# One accessor per former public/private pair, and each other value the
# package hands out: each returns the backend rational.
ACCESSORS = {
    "a": lambda s: s.q.a(2),
    "b": lambda s: s.q.b(2),
    "c": lambda s: s.q.c(2),
    "h0": lambda s: s.q.h0,
    "leading_coeffs.k": lambda s: s.q.leading_coeffs(3).k,
    "leading_coeffs.l": lambda s: s.q.leading_coeffs(3).l,
    "norms": lambda s: s.q.norms(3),
    "moments": lambda s: s.q.moments(4)[3],
    "coeffs": lambda s: s.q.coeffs(3)[1],
    "eval": lambda s: s.q.eval(3, "1/3"),
    "params": lambda s: s.q.params["alpha"],
    "int closures": lambda s: RecurrenceFamily(
        "u", lambda n: 1, lambda n: 0, lambda n: n).norms(2),
    "Scalar closures.coeffs": lambda s: _scalar_family().coeffs(2)[0],
    "Scalar closures.moments": lambda s: _scalar_family().moments(4)[4],
    "adjacent_down": lambda s: adjacent_down(
        s.ladder(0), s.ladder(1), s.rho.s2, 2).zeta,
    "adjacent_up": lambda s: adjacent_up(
        s.ladder(0), s.ladder(1), s.rho.s2, 2).theta,
    "RhoSpec": lambda s: s.rho.s2,
    "w_moment": lambda s: s.w_moment(2, 2),
    "gram_block": lambda s: s.gram_block(2, 2).entries[1][1],
    "block_norm": lambda s: s.block_norm(2, 1),
    "moment_bilinear": lambda s: s.moment_bilinear(
        s.expand_P(2, 1), s.expand_P(2, 1)),
    "expand_P.terms": lambda s: s.expand_P(2, 1).terms[(1, 1)],
    "SparsePoly2.coeff": lambda s: s.expand_P(2, 1).coeff(0, 0),
    "SparsePoly2.eval": lambda s: SparsePoly2({(1, 1): "5/2"}).eval(2, 3),
    "CatalogId.param": lambda s: catalog_id("disk", mu="1/2").param("mu"),
    "closed_form_first": lambda s: closed_form_first(
        catalog_id("disk", mu="1/2"), 2, 1)["a"],
    "closed_form_second": lambda s: closed_form_second(
        catalog_id("disk", mu="1/2"), 2, 1)["b2"],
}


@pytest.mark.parametrize("accessor", ACCESSORS.values(), ids=ACCESSORS)
def test_public_values_are_backend_rationals(disk, accessor):
    assert type(accessor(disk)) is RATIONAL
