"""Exact scalar arithmetic over Q and prime fields."""

import random
from fractions import Fraction

import pytest

from liecap import FieldSpec, GF2, GF3, GF5, QQ
from liecap.errors import FieldError


# ----------------------------------------------------------------------
# construction and validation
# ----------------------------------------------------------------------

def test_rationals_singleton_properties():
    assert QQ.is_rationals
    assert QQ.characteristic == 0
    assert QQ.zero == Fraction(0)
    assert QQ.one == Fraction(1)


def test_prime_field_properties():
    assert not GF5.is_rationals
    assert GF5.characteristic == 5
    assert GF5.zero == 0 and GF5.one == 1


def test_gf_rejects_non_primes():
    for bad in (-1, 0, 1, 4, 6, 9, 100):
        with pytest.raises(FieldError):
            FieldSpec.gf(bad)


def test_direct_construction_is_checked_like_gf():
    # GF(4) would print as a field and compute in Z/4; p = 0 would divide
    # by zero at its first use; Q with a modulus would print as Q but
    # differ from QQ
    for kind, p in (("GFp", 4), ("GFp", 0), ("Q", 5)):
        with pytest.raises(FieldError):
            FieldSpec(kind, p)
    with pytest.raises(FieldError, match="exceeds supported bound"):
        FieldSpec("GFp", 2**61 - 1)  # refused before any trial division
    assert FieldSpec("GFp", 7) == FieldSpec.gf(7)
    assert FieldSpec("Q") == QQ


def test_gf_accepts_small_primes():
    for p in (2, 3, 5, 7, 11, 13, 101):
        assert FieldSpec.gf(p).characteristic == p


def test_field_specs_are_hashable_and_comparable():
    assert FieldSpec.gf(2) == GF2
    assert GF2 != GF3
    assert QQ != GF2
    assert len({QQ, GF2, FieldSpec.gf(2), GF3}) == 3


def test_zero_and_one_are_made_once():
    assert QQ.zero is QQ.zero and QQ.one is QQ.one
    assert (QQ.zero, QQ.one, GF3.zero, GF3.one) == (0, 1, 0, 1)
    assert isinstance(QQ.one, Fraction)
    # the constants stay out of equality, hashing and repr
    assert FieldSpec.rationals() == QQ
    assert hash(FieldSpec.gf(3)) == hash(GF3)
    assert repr(GF3) == "FieldSpec(kind='GFp', p=3)"


# ----------------------------------------------------------------------
# coercion and normal form
# ----------------------------------------------------------------------

def test_coerce_fraction_reduces_over_q():
    assert QQ.coerce(Fraction(2, 4)) == Fraction(1, 2)
    assert QQ.scalar(2, 4) == Fraction(1, 2)


def test_coerce_reduces_mod_p():
    assert GF2.coerce(3) == 1
    assert GF3.coerce(-1) == 2
    assert GF5.coerce(10) == 0


def test_scalar_with_denominator_inverts_mod_p():
    # -1 * 3^{-1} over GF(5): exhaustively, 3*2 = 6 = 1, so 3^{-1} = 2
    # and -1 * 2 = -2 = 3.
    assert all((3 * x) % 5 != 1 for x in range(5) if x != 2)
    assert GF5.scalar(-1, 3) == 3


def test_scalar_halves_over_q():
    assert QQ.scalar(2, 4) == Fraction(1, 2)


def test_coerce_rejects_denominator_divisible_by_p():
    with pytest.raises((FieldError, ZeroDivisionError)):
        GF5.coerce(Fraction(1, 5))


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------

def test_inverse_over_q():
    # scalar(num, den) divides by den: the field's inverse
    assert QQ.scalar(1, 2) == Fraction(1, 2)
    assert QQ.mul(QQ.scalar(1, 2), QQ.scalar(2)) == 1


def test_inverse_identity_gf2():
    assert GF2.scalar(1, 1) == GF2.scalar(1, 3) == 1


def test_inverse_by_exhaustion_gf7():
    gf7 = FieldSpec.gf(7)
    # exhaustive search: 3*5 = 15 = 1 mod 7 and no other x works
    assert [x for x in range(1, 7) if (3 * x) % 7 == 1] == [5]
    assert gf7.scalar(1, 3) == 5


def test_inverse_of_zero_raises():
    for f in (QQ, GF2, GF5):
        with pytest.raises(ZeroDivisionError):
            f.scalar(1, 0)
    with pytest.raises(ZeroDivisionError):
        GF5.scalar(1, 5)


def test_field_axioms_exhaustive_small_fields():
    for f in (GF2, GF3, GF5, FieldSpec.gf(7)):
        elems = list(f.elements())
        assert len(elems) == f.p
        for a in elems:
            assert f.add(a, f.zero) == a
            assert f.mul(a, f.one) == a
            assert f.add(a, f.neg(a)) == f.zero
            if a != f.zero:
                assert f.mul(a, f.scalar(1, a)) == f.one
            for b in elems:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                assert f.sub(a, b) == f.add(a, f.neg(b))
                if b != f.zero:
                    assert f.mul(f.scalar(a, b), b) == a
                for c in elems:
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b),
                                                          f.mul(a, c))


def test_rational_arithmetic_spots():
    h = Fraction(1, 2)
    assert QQ.add(h, h) == 1
    assert QQ.mul(h, Fraction(2, 3)) == Fraction(1, 3)


# ----------------------------------------------------------------------
# omega: element outside {x^2 + x} in characteristic 2
# ----------------------------------------------------------------------

def test_omega_gf2():
    # {x^2 + x : x in GF(2)} = {0}, so 1 works
    assert {(x * x + x) % 2 for x in range(2)} == {0}
    assert GF2.omega() == 1


def test_omega_unavailable_outside_char_2():
    for f in (QQ, GF3, GF5):
        with pytest.raises(FieldError):
            f.omega()


# ----------------------------------------------------------------------
# parse / format round trips
# ----------------------------------------------------------------------

def test_parse_format_round_trip_q():
    for text in ("0", "1", "-1", "1/2", "-3/7", "22/7"):
        val = QQ.parse(text)
        assert QQ.format(val) == text
        assert QQ.parse(QQ.format(val)) == val


def test_format_is_canonical_q():
    assert QQ.format(QQ.parse("2/4")) == "1/2"
    assert QQ.format(QQ.parse("-2/-4")) == "1/2"
    assert QQ.format(QQ.parse("4/2")) == "2"


def test_parse_format_round_trip_gf():
    for f in (GF2, GF3, GF5):
        for a in f.elements():
            assert f.parse(f.format(a)) == a


def test_parse_fraction_notation_in_gf():
    # 1/2 over GF(5): 2^{-1} = 3 since 2*3 = 6 = 1
    assert GF5.parse("1/2") == 3


def test_parse_rejects_garbage():
    for bad in ("", "x", "1/0", "1.5", "--2", "1/2/3"):
        with pytest.raises((FieldError, ValueError, ZeroDivisionError)):
            QQ.parse(bad)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def test_json_round_trip():
    for f in (QQ, GF2, GF3, GF5, FieldSpec.gf(101)):
        assert FieldSpec.from_json(f.to_json()) == f


def test_from_json_rejects_malformed():
    for bad in ({}, {"kind": "R"}, {"kind": "GFp"}, {"kind": "GFp", "p": 4},
                {"kind": "GFp", "p": "2"}, 7, "Q"):
        with pytest.raises((FieldError, ValueError, TypeError, KeyError)):
            FieldSpec.from_json(bad)


# ----------------------------------------------------------------------
# randomness helpers
# ----------------------------------------------------------------------

def test_random_scalar_deterministic_and_in_range():
    a = [GF5.random_scalar(random.Random(12345)) for _ in range(50)]
    b = [GF5.random_scalar(random.Random(12345)) for _ in range(50)]
    assert a == b
    assert all(0 <= x < 5 for x in a)


def test_random_scalar_nonzero():
    rng = random.Random(99)
    assert all(GF2.random_scalar(rng, nonzero=True) == 1 for _ in range(20))
