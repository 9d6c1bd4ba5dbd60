from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midconv.errors import DivisionByZero, FieldMismatch, ParseError
from midconv.scalars import (FieldDescriptor, coerce, cyclotomic_polynomial, format_scalar,
                             is_prime, parse_scalar)

Q = FieldDescriptor.rational()
Z4 = FieldDescriptor.cyclotomic(4)
Z8 = FieldDescriptor.cyclotomic(8)
Z12 = FieldDescriptor.cyclotomic(12)
F25 = FieldDescriptor.finite(5, 2)
F4 = FieldDescriptor.finite(2, 2)


def test_rational_add():
    a = Q.from_fraction(Fraction(1, 2))
    b = Q.from_fraction(Fraction(1, 3))
    assert a + b == Q.from_fraction(Fraction(5, 6))


def test_zeta4_squares_to_minus_one():
    z = Z4.zeta()
    assert z * z == -Z4.one()


def test_f25_generator_squares_to_two():
    # default defining polynomial is t^2 - 2 (2 is the least non-residue mod 5)
    assert F25.poly == (3, 0, 1)
    t = F25.gen()
    assert t * t == F25.from_int(2)


def test_f4_generator_is_a_root_of_t2_plus_t_plus_1():
    # 2 has no quadratic non-residue, so the default polynomial is t^2 + t + 1
    t = F4.gen()
    assert t * t == t + F4.one()


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Q.one() / Q.zero()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        Q.one() + Z4.one()


def test_parse_examples():
    assert parse_scalar("-3/7", Q) == Q.from_fraction(Fraction(-3, 7))
    v = parse_scalar("1/2*z^3-2", Z8)
    assert v == Z8.from_fraction(Fraction(1, 2)) * Z8.zeta(3) - Z8.from_int(2)
    assert parse_scalar("z^4", Z4) == Z4.one()


def test_parse_symbol_not_in_field():
    with pytest.raises(FieldMismatch):
        parse_scalar("z", Q)
    with pytest.raises(FieldMismatch):
        parse_scalar("t", FieldDescriptor.finite(5))


def test_parse_error_has_position():
    with pytest.raises(ParseError):
        parse_scalar("1//2", Q)
    with pytest.raises(ParseError):
        parse_scalar("", Q)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", [1, 3, 4, 8, 12])
def test_zeta_relations(n):
    F = FieldDescriptor.cyclotomic(n)
    z = F.zeta()
    assert z ** n == F.one()
    phi = cyclotomic_polynomial(n)
    acc = F.zero()
    for e, c in enumerate(phi):
        acc = acc + F.from_int(c) * z ** e
    assert not acc


def test_frobenius_is_field_automorphism():
    p = 5
    elems = list(F25.elements())
    for a in elems[:10]:
        for b in elems[:10]:
            assert (a + b) ** p == a ** p + b ** p
            assert (a * b) ** p == a ** p * b ** p
    for a in elems:
        assert a ** (p * p) == a


_frac = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def _scalars(draw, field):
    if field.kind == "rational":
        return field.from_fraction(draw(_frac))
    if field.kind == "cyclotomic":
        s = field.zero()
        for e in range(field.degree):
            s = s + field.from_fraction(draw(_frac)) * field.zeta(e)
        return s
    s = field.zero()
    gen = field.gen() if field.k == 2 else field.one()
    for e in range(field.k):
        s = s + field.from_int(draw(st.integers(0, field.p - 1))) * gen ** e
    return s


# Q(zeta_n) inverts through its phi(n) - 1 nontrivial Galois conjugates; these
# orders cover phi(n) = 1, prime and prime-power n, and a non-cyclic (Z/n)^*
CYCLOTOMIC_ORDERS = (1, 2, 3, 4, 5, 7, 8, 9, 20)


@pytest.mark.parametrize(
    "field",
    [Q, Z12, F25, F4] + [FieldDescriptor.cyclotomic(n) for n in CYCLOTOMIC_ORDERS],
    ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_field_axioms(field, data):
    a = data.draw(_scalars(field))
    b = data.draw(_scalars(field))
    c = data.draw(_scalars(field))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * a.inverse() == field.one()


@pytest.mark.parametrize("field", [Q, Z8, Z12, F25, FieldDescriptor.finite(11)], ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_parse_format_round_trip(field, data):
    s = data.draw(_scalars(field))
    assert parse_scalar(format_scalar(s), field) == s


def test_embeddings():
    half = Q.from_fraction(Fraction(1, 2))
    assert coerce(half, Z12) == Z12.from_fraction(Fraction(1, 2))
    # zeta_4 -> zeta_12^3
    assert coerce(Z4.zeta(), Z12) == Z12.zeta(3)
    z8_in_z8 = Z8.zeta()
    with pytest.raises(FieldMismatch):
        coerce(z8_in_z8, Z12)     # 8 does not divide 12


def test_rational_payloads_are_fractions():
    # an int payload would reach the Q ops table, which builds Fractions only
    three, also_three = Q.from_fraction(3), Q.from_int(3)
    assert three.payload == also_three.payload
    assert type(three.payload) is Fraction and type(also_three.payload) is Fraction
    for x in (three * three, three + also_three, three - three.inverse(), -three):
        assert type(x.payload) is Fraction
    assert three * three == Q.from_int(9)
    assert three - three.inverse() == Q.from_fraction(Fraction(8, 3))


def test_immutability_and_hash():
    a = Q.from_int(3)
    with pytest.raises(AttributeError):
        a.payload = 4
    with pytest.raises(AttributeError):
        a.field = Z4
    assert len({Z12.zeta(), Z12.zeta(), Z12.zeta(2)}) == 2


# -- primality ----------------------------------------------------------------------------

def test_is_prime_matches_trial_division_and_knows_large_primes():
    def trial(n):
        return n > 1 and all(n % f for f in range(2, int(n ** 0.5) + 1))
    numbers = range(-5, 5000)
    assert [n for n in numbers if is_prime(n)] == [n for n in numbers if trial(n)]
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 89 - 1)
    assert not is_prime((2 ** 31 - 1) * (2 ** 61 - 1)) and not is_prime(3215031751)
