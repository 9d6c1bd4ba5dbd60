import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midconv.errors import DivisionByZero, FieldMismatch, ParseError
from midconv.poly import cyclotomic_polynomial, is_prime
from midconv.scalars import (UNROLL_MAX_PHI, FieldDescriptor, _cyc_normalize, _cyc_tables,
                             _looped_axpy, _looped_cyclotomic_ops, format_scalar, parse_scalar)

from conftest import SEED, conjugate_product_inverse

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


def test_q_has_one_descriptor():
    # Q(zeta_1) is Q: it prints as Q, zeta_1 is 1, and Q's text has no 'z'
    assert FieldDescriptor.cyclotomic(1) is Q
    assert str(Q) == "Q" and Q.zeta() == Q.zeta(5) == Q.one()
    with pytest.raises(FieldMismatch):
        parse_scalar("z", FieldDescriptor.cyclotomic(1))


def test_frobenius_is_field_automorphism():
    p = 5
    elems = list(F25.elements())
    for a in elems[:10]:
        for b in elems[:10]:
            assert (a + b) ** p == a ** p + b ** p
            assert (a * b) ** p == a ** p * b ** p
    for a in elems:
        assert a ** (p * p) == a


@pytest.mark.parametrize("field", [FieldDescriptor.finite(5), FieldDescriptor.finite(7),
                                   F4, FieldDescriptor.finite(3, 2), F25,
                                   FieldDescriptor.finite(7, 2),
                                   FieldDescriptor.finite(7, 2, (3, 1, 1))],
                         ids=lambda f: f"{f}-{''.join(map(str, f.poly))}")
def test_square_indices_match_the_ops_table(field):
    ops = field.ops
    elems = [x.payload for x in field.elements()]
    index = {x: i for i, x in enumerate(elems)}
    assert field.square_indices() == [index[ops.mul(x, x)] for x in elems]


@pytest.mark.parametrize("field", [Q, Z4, Z12], ids=str)
def test_square_indices_refuse_infinite_fields(field):
    with pytest.raises(FieldMismatch):
        field.square_indices()
    with pytest.raises(FieldMismatch):
        next(field.elements())


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
CYCLOTOMIC_ORDERS = (2, 3, 4, 5, 7, 8, 9, 20)


@pytest.mark.parametrize(
    "field",
    [Q, Z12, F25, F4] + [FieldDescriptor.cyclotomic(n) for n in CYCLOTOMIC_ORDERS]
    # Q(zeta_1) is built through cyclotomic(1), which hands back Q itself
    + [pytest.param(FieldDescriptor.cyclotomic(1), id="Q(zeta_1)")],
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


def test_negative_powers_are_powers_of_the_inverse():
    assert Q.from_fraction(Fraction(2, 3)) ** -3 == Q.from_fraction(Fraction(27, 8))
    assert Z12.zeta() ** -3 == Z12.zeta(9)
    assert F25.gen() ** -3 * F25.gen() ** 3 == F25.one()


def test_rational_payloads_are_canonical_in_the_q_zeta_1_layout():
    # Q runs on the compiled Q(zeta_1) kernel: ((a,), d) with d > 0 and gcd(a, d) = 1,
    # so zero is ((0,), 1) and equal values have equal payloads
    assert Q.ops.addmul.__code__.co_filename == "<Q(zeta_1) kernel>"
    three, half = Q.from_int(3), Q.from_fraction(Fraction(1, 2))
    assert Q.from_fraction(3).payload == three.payload == ((3,), 1)
    assert Q.zero().payload == ((0,), 1) and Q.one().payload == ((1,), 1)
    for x, payload in ((three * three, ((9,), 1)), (three - three.inverse(), ((8,), 3)),
                       (-three.inverse(), ((-1,), 3)), ((-three).inverse(), ((-1,), 3)),
                       (Q.from_fraction(Fraction(4, -6)), ((-2,), 3)), (half + half, ((1,), 1)),
                       (three - three, ((0,), 1)), (half * Q.zero(), ((0,), 1))):
        assert x.payload == payload


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


# -- the defining polynomial of F_{p^2} ----------------------------------------------------

def test_quadratic_defining_polynomials_are_irreducible_exactly_without_a_root():
    # the reference: t^2 + c1 t + c0 is reducible iff it is (t - r)(t - s) for r, s in F_p
    for p in filter(is_prime, range(60)):
        products = {(r * s % p, -(r + s) % p) for r in range(p) for s in range(p)}
        for c0 in range(p):
            for c1 in range(p):
                try:
                    FieldDescriptor.finite(p, 2, (c0, c1, 1))
                    reducible = False
                except ValueError:
                    reducible = True
                assert reducible == ((c0, c1) in products), (p, c0, c1)


def test_a_quadratic_field_over_a_large_prime_is_built_at_once():
    # trying every a in F_p for a root did not end in 15 s at p = 10^9 + 7;
    # -1 is a non-residue there and -5 a residue
    import time
    start = time.perf_counter()
    field = FieldDescriptor.finite(10 ** 9 + 7, 2, (1, 0, 1))
    assert field.gen() * field.gen() == -field.one()
    with pytest.raises(ValueError, match="reducible"):
        FieldDescriptor.finite(10 ** 9 + 7, 2, (5, 0, 1))
    assert time.perf_counter() - start < 1.0


# -- the sparse products of the straight-line Q(zeta_n) kernel ---------------------------

def _totient(n: int) -> int:
    return sum(math.gcd(k, n) == 1 for k in range(1, n + 1))


# every field of the straight-line kernel but Q: phi(n) >= sqrt(n / 2) bounds n
STRAIGHT_LINE_ORDERS = [n for n in range(3, 2 * UNROLL_MAX_PHI ** 2 + 1)
                        if 2 <= _totient(n) <= UNROLL_MAX_PHI]


def _sparse_operands(field, rng) -> list:
    """Payloads whose zero coordinates the kernel skips: zero, rationals over den 1 and
    den != 1, +-c zeta^e, the units +-zeta^e and 1 + zeta + .. + zeta^(k-1) for k prime to
    n, two-term, dense, and coordinates above 2^64."""
    n, phi = field.n, field.degree
    _, _, powers = _cyc_tables(n)

    def combination(terms, den=1):      # sum of c zeta^e over the (c, e) in terms, over den
        nums = [0] * phi
        for c, e in terms:
            for i, p in enumerate(powers[e % n]):
                nums[i] += c * p
        return _cyc_normalize(tuple(nums), den)

    coefficient, e = lambda: rng.choice((-7, -2, 3, 5)), rng.randrange(n)
    k = rng.choice([k for k in range(2, n) if math.gcd(k, n) == 1])
    big = rng.randint(2 ** 64, 2 ** 90)
    return [field.ops.zero,
            combination([(coefficient(), 0)]),
            combination([(coefficient(), 0)], rng.choice((2, 6, 2 ** 70 + 1))),
            combination([(coefficient(), e)], rng.choice((1, 5))),
            combination([(1, e)]), combination([(-1, rng.randrange(n))]),
            combination([(1, i) for i in range(k)]),        # (zeta^k - 1) / (zeta - 1)
            combination([(coefficient(), rng.randrange(n)), (coefficient(), rng.randrange(n))]),
            _cyc_normalize(tuple(rng.randint(-9, 9) for _ in range(phi)), rng.randint(1, 30)),
            combination([(-big, rng.randrange(n)), (coefficient(), e)], 3),
            _cyc_normalize(tuple(rng.randint(-big, big) for _ in range(phi)), 2 ** 65 + 3)]


@pytest.mark.parametrize("n", STRAIGHT_LINE_ORDERS)
def test_the_straight_line_products_equal_the_loops_on_sparse_operands(n):
    # the loops build canonical payloads, so equal results are canonical too
    field = FieldDescriptor.cyclotomic(n)
    ops, (phi, red, powers) = field.ops, _cyc_tables(n)
    assert ops.axpy.__code__.co_filename == f"<Q(zeta_{n}) kernel>"
    _, _, neg, mul, addmul = _looped_cyclotomic_ops(phi, red)
    looped_axpy = _looped_axpy(addmul)
    rng = random.Random(SEED + n)
    xs = _sparse_operands(field, rng)
    for a in xs:
        for b in xs:
            c = rng.choice(xs)
            assert ops.mul(a, b) == mul(a, b)
            assert ops.addmul(c, a, b) == addmul(c, a, b)
        # the row kernel, on pairs that repeat a column
        row = rng.sample(xs, 4)
        pairs = [(j, rng.choice(xs)) for j in (0, 2, 0, 3, 2, 0)]
        got, want = list(row), list(row)
        assert ops.axpy(got, a, pairs) is None
        looped_axpy(want, a, pairs)
        assert got == want
    # the inverses of the units +-zeta^e, read from a table
    for e in range(n):
        for u in ((powers[e], 1), neg((powers[e], 1))):
            assert ops.inv(u) == conjugate_product_inverse(field, u)
