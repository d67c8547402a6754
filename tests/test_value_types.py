"""The value types keep the meaning their construction checks, equality
and hashing give them, and records stay plain immutable tuples that never
reach a certificate file on their own."""

from fractions import Fraction

import pytest

from defectlab.approx import TailSchema
from defectlab.artin import Claims, as_extension
from defectlab.certfile import SessionConfig, make_certificate_file, write_certificate_file
from defectlab.cuts import PLUS_INF, Cut, CutEnclosure, ExtRat
from defectlab.ffield import finite_field
from defectlab.fields import FieldDesc, listing_index, preset_field
from defectlab.series import EQUAL, MIXED, Polynomial, Series, SeriesContext, make_context

K2 = preset_field("fp_t", 2)


def _fresh_ctx():
    # equal to K2.ctx, but not the object make_context caches
    return SeriesContext(EQUAL, 2, 1, 2 ** 8, finite_field(2))


def _equal_pairs():
    ctx = _fresh_ctx()
    half, one = ExtRat(Fraction(1, 2)), ExtRat(Fraction(1))
    return {
        "ExtRat": (ExtRat(Fraction(2, 4)), half),
        "Cut": (Cut(1, True), Cut(one, True)),
        "CutEnclosure": (
            CutEnclosure(Cut(half, True), Cut(1, False)),
            CutEnclosure(Cut(ExtRat(Fraction(1, 2)), True), Cut(one, False)),
        ),
        "SeriesContext": (ctx, K2.ctx),
        "FieldDesc": (FieldDesc("fp_t", ctx), K2),
        "TailSchema": (
            TailSchema(Fraction(0), Fraction(-1, 4), "tail"),
            TailSchema(Fraction(0), Fraction(-2, 8), "tail"),
        ),
        "Polynomial": (
            Polynomial((Series.monomial(ctx, 1), Series.one(ctx))),
            Polynomial((Series.monomial(K2.ctx, 1), Series.one(K2.ctx))),
        ),
    }


@pytest.mark.parametrize("name", sorted(_equal_pairs()))
def test_equal_values_are_equal_with_equal_hashes(name):
    a, b = _equal_pairs()[name]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_unequal_values_differ():
    half = ExtRat(Fraction(1, 2))
    assert Cut(half, True) != Cut(half, False)
    assert CutEnclosure(Cut(half, False), Cut(half, True)) != CutEnclosure(Cut(half, True), Cut(half, True))
    assert make_context(EQUAL, 2) != make_context(EQUAL, 2, 1, 2 ** 9)
    assert make_context(EQUAL, 2) != make_context(MIXED, 2)
    assert preset_field("fp_t", 2) != preset_field("laurent", 2)
    assert TailSchema(Fraction(0), Fraction(-1), "a") != TailSchema(Fraction(0), Fraction(-1), "b")
    assert Polynomial((Series.one(K2.ctx),)) != Polynomial((Series.zero(K2.ctx),))
    # a value is never equal to another type's value of the same fields
    assert Cut(half, True) != (half, True)
    assert (Cut(half, True) == CutEnclosure(Cut(half, True), Cut(half, True))) is False


def test_context_equality_ignores_the_field_object():
    ctx = SeriesContext(EQUAL, 2, 1, 2 ** 8, finite_field(2, 2))
    assert ctx == K2.ctx and hash(ctx) == hash(K2.ctx)


@pytest.mark.parametrize(
    "build, exc, message",
    [
        (lambda: ExtRat(1), TypeError, "finite ExtRat requires a Fraction"),
        (lambda: ExtRat(Fraction(1), 1), ValueError, "infinite ExtRat carries no fraction"),
        (lambda: ExtRat(None, 2), ValueError, "infinite ExtRat carries no fraction"),
        (lambda: Cut(PLUS_INF, True), ValueError, "infinite cut bounds are never attained"),
        (lambda: Cut(True, False), TypeError, "bool is not a rational"),
        (
            lambda: CutEnclosure(Cut(1, True), Cut(0, True)),
            ValueError,
            "enclosure requires lo <= hi",
        ),
        (
            lambda: SeriesContext("char0", 2, 1, 256, finite_field(2)),
            ValueError,
            "unknown mode 'char0'",
        ),
        (
            lambda: SeriesContext(EQUAL, 2, 1, 0, finite_field(2)),
            ValueError,
            "D must be positive",
        ),
        (
            lambda: TailSchema(Fraction(0), Fraction(1), "t"),
            ValueError,
            "tail region [low, sup) is empty",
        ),
        (lambda: Polynomial(()), ValueError, "polynomial needs at least one coefficient"),
    ],
)
def test_construction_errors_keep_type_and_message(build, exc, message):
    with pytest.raises(Exception) as info:
        build()
    assert info.type is exc
    assert str(info.value) == message


def test_cut_converts_its_bound():
    c = Cut(Fraction(1, 3), False)
    assert type(c.bound) is ExtRat and c.bound == Fraction(1, 3)


def test_equal_field_description_hits_the_listing_cache():
    first = listing_index(K2, 1)
    hits = listing_index.cache_info().hits
    again = listing_index(FieldDesc("fp_t", _fresh_ctx()), 1)
    assert listing_index.cache_info().hits == hits + 1
    assert again is first


def test_records_are_immutable_tuples():
    cfg = SessionConfig.for_field(K2, 3)
    assert cfg == SessionConfig("equal", 2, 1, 256, 3)
    assert hash(cfg) == hash(SessionConfig("equal", 2, 1, 256, 3))
    with pytest.raises(AttributeError):
        cfg.budget = 4
    assert cfg._replace(budget=4).budget == 4 and cfg.budget == 3


@pytest.mark.parametrize("where", ["log", "provenance"])
@pytest.mark.parametrize(
    "record", [SessionConfig.for_field(K2, 3), Claims()], ids=["config", "claims"]
)
def test_records_never_reach_a_certificate_file(tmp_path, where, record):
    # the text is built before the temporary file is opened: a refused
    # record leaves neither the target nor a .cert-* file behind
    cert = as_extension(Series.monomial(K2.ctx, -1), K2, 2)
    if where == "provenance":
        cf = make_certificate_file(K2, SessionConfig.for_field(K2, 2),
                                   [cert._replace(provenance=("ok", record))])
    else:
        cf = make_certificate_file(K2, SessionConfig.for_field(K2, 2), [cert], log=("ok", record))
    with pytest.raises(TypeError):
        write_certificate_file(str(tmp_path / "out.json"), cf)
    assert list(tmp_path.iterdir()) == []
