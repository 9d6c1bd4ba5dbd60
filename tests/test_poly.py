"""The polynomial module: long division by a monic divisor and Horner evaluation
over ints, Fractions and Scalars of four fields, the first root of Phi_n that
reduce_mod sends zeta_n to, against a scan of F_{l^2}, the candidate hints
of the root search that reads them, linalg.field_roots, and the least prime
not dividing an integer, against a scan of the integers."""

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import count, zip_longest

from hypothesis import given
from hypothesis import strategies as st

from midconv.errors import NoRootInQuadratic
from midconv.linalg import field_roots
from midconv.modgroup import _cyclotomic_root_mod
from midconv.poly import (_least_prime_not_dividing, cyclotomic_polynomial, divide, horner,
                          is_prime)
from midconv.scalars import FieldDescriptor, Scalar

from conftest import F7, Q

F25 = FieldDescriptor.finite(5, 2)
Z12 = FieldDescriptor.cyclotomic(12)


def _field_elements(field):
    """Scalars from small coordinates on the basis 1, zeta, zeta^2, .. or 1, t."""
    if field.kind == "finite":
        basis = [field.one(), field.gen()] if field.k == 2 else [field.one()]
        coords = st.lists(st.integers(0, field.p - 1), min_size=field.k, max_size=field.k)
    else:
        basis = [field.one()] if field.kind == "rational" else [field.zeta(e)
                                                                for e in range(field.degree)]
        coords = st.lists(st.fractions(-9, 9, max_denominator=4),
                          min_size=len(basis), max_size=len(basis))
    return coords.map(lambda cs: reduce(lambda s, cb: s + field.from_fraction(cb[0]) * cb[1],
                                        zip(cs, basis), field.zero()))


# each ring as (its elements, zero, one): ints, Fractions and Scalars of four fields
RINGS = ([(st.integers(-50, 50), 0, 1),
          (st.fractions(-20, 20, max_denominator=9), Fraction(0), Fraction(1))]
         + [(_field_elements(f), f.zero(), f.one()) for f in (Q, F7, F25, Z12)])


def _product(a, b, zero):
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _same_polynomial(a, b, zero):
    width = max(len(a), len(b))
    return list(a) + [zero] * (width - len(a)) == list(b) + [zero] * (width - len(b))


@st.composite
def _division_cases(draw):
    """(zero, num, den) over one of RINGS, den monic of degree 0 to 4."""
    elements, zero, one = draw(st.sampled_from(RINGS))
    num = draw(st.lists(elements, max_size=9))
    den = draw(st.lists(elements, max_size=4)) + [one]
    return zero, num, den


@given(_division_cases())
def test_divide_gives_num_as_q_den_plus_r(case):
    zero, num, den = case
    q, r = divide(num, den)
    assert len(r) < len(den) and len(q) == max(len(num) - len(den) + 1, 0)
    total = [a + b for a, b in zip_longest(_product(q, den, zero), r, fillvalue=zero)]
    assert _same_polynomial(num, total, zero)


@st.composite
def _evaluation_cases(draw):
    elements, zero, _one = draw(st.sampled_from(RINGS))
    return zero, draw(st.lists(elements, min_size=1, max_size=9)), draw(elements)


@given(_evaluation_cases())
def test_horner_is_the_sum_of_the_terms(case):
    zero, coeffs, x = case
    assert horner(coeffs, x) == reduce(lambda s, ic: s + ic[1] * x ** ic[0],
                                       enumerate(coeffs), zero)


@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=9),
       st.integers(-10 ** 6, 10 ** 6), st.integers(2, 10 ** 4))
def test_horner_mod_m_is_the_sum_of_the_terms_mod_m(coeffs, x, m):
    value = horner(coeffs, x, m)
    assert value % m == sum(c * x ** i for i, c in enumerate(coeffs)) % m
    assert len(coeffs) == 1 or 0 <= value < m


def test_cyclotomic_polynomials_divide_x_n_minus_1():
    for n in range(1, 60):
        divisors = [cyclotomic_polynomial(d) for d in range(1, n + 1) if n % d == 0]
        assert list(reduce(lambda a, b: _product(a, b, 0), divisors)) == [-1] + [0] * (n - 1) + [1]


# -- the root of Phi_n that zeta_n goes to mod l ----------------------------------------

@lru_cache(maxsize=None)
def _discrete_logs(ell):
    """(F_{l^2}, its units in elements() order, the logarithm of each unit to a
    generator): a generator is the first unit whose powers reach all l^2 - 1 units."""
    field = FieldDescriptor.finite(ell, 2)
    units = [x.payload for x in field.elements()][1:]
    for g in units:
        log, x = {}, field.ops.one
        while x not in log:
            log[x], x = len(log), field.ops.mul(x, g)
        if len(log) == len(units):
            return field, units, log


def _scanned_root(n, ell):
    """The reference: the first unit of F_{l^2}, in elements() order, where Phi_n
    vanishes, as (degree, coordinates) of the least field holding it, or None.

    F_l comes first in that order, so a root in F_l is found before any other.
    Phi_n is evaluated only where x^n = 1, read off the logarithms, since Phi_n
    divides x^n - 1.
    """
    field, units, log = _discrete_logs(ell)
    phi = [field.from_int(c) for c in cyclotomic_polynomial(n)]
    x = next((x for x in units
              if log[x] * n % len(units) == 0 and not horner(phi, Scalar(field, x))), None)
    return None if x is None else (1, x[:1]) if x[1] == 0 else (2, x)


def test_the_root_of_phi_n_mod_l_is_the_first_one_a_scan_finds():
    for ell in filter(is_prime, range(80)):
        for n in range(1, 41):
            if n % ell:
                try:
                    field, root = _cyclotomic_root_mod(n, ell)
                    got = (field.k, root.coords())
                except NoRootInQuadratic:
                    got = None
                assert got == _scanned_root(n, ell), (n, ell)


# -- the candidate hints of the root search --------------------------------------

HINT_FIELDS = (Q, F7, FieldDescriptor.finite(7, 2), FieldDescriptor.cyclotomic(4), Z12)


@st.composite
def _hinted_polynomials(draw):
    """(field, f, found, extra): f a nonzero constant times linear factors of
    multiplicity 1 to 3, and perhaps a quadratic, over one of HINT_FIELDS;
    found = field_roots(f, field); extra repeats found roots, holds non-roots
    of f, or both, in any order."""
    field = draw(st.sampled_from(HINT_FIELDS))
    zero, one, elements = field.zero(), field.one(), _field_elements(field)
    roots = elements
    if field.kind == "cyclotomic":       # roots of unity too, which the search finds
        roots = st.one_of(elements, st.integers(0, 2 * field.n - 1).map(
            lambda e: field.zeta(e) if e < field.n else -field.zeta(e)))
    f = [draw(elements.filter(bool))]
    for r in draw(st.lists(roots, max_size=4)):
        for _ in range(draw(st.integers(1, 3))):
            f = _product(f, [-r, one], zero)
    if draw(st.booleans()):
        f = _product(f, draw(st.lists(elements, min_size=2, max_size=2)) + [one], zero)
    found = field_roots(f, field)
    kind = draw(st.sampled_from(["repeats", "non-roots", "both"]))
    extra = []
    if kind != "non-roots" and found[0]:
        extra += draw(st.lists(st.sampled_from([r for r, _ in found[0]]), min_size=1, max_size=6))
    if kind != "repeats":
        extra += [x for x in draw(st.lists(elements, min_size=1, max_size=4)) if horner(f, x)]
    return field, f, found, draw(st.permutations(extra))


@given(_hinted_polynomials())
def test_field_roots_read_repeated_roots_and_non_roots_among_the_hints_as_nothing(case):
    # a hinted root is deflated where it comes first, so its repeats and the
    # field's own copy of it are no longer roots; a non-root deflates nothing
    field, f, found, extra = case
    assert field_roots(f, field, extra) == found


@given(st.lists(st.sampled_from([p for p in range(2, 2000) if is_prime(p)]), max_size=400),
       st.sampled_from([1, -1]))
def test_least_prime_not_dividing_is_the_first_prime_left_out(ps, sign):
    # products of up to 400 of the primes below 2000 reach past several blocks of 64
    n = sign * math.prod(ps)
    assert _least_prime_not_dividing(n) == next(p for p in count(2) if is_prime(p) and n % p)


def test_least_prime_not_dividing_a_primorial_is_the_next_prime():
    # 311 is the 64th prime, the last of the first block; 1021 the last below the
    # sieve's first bound
    for bound in (2, 311, 313, 1021, 9767):
        primes = [p for p in range(2, bound + 1) if is_prime(p)]
        assert (_least_prime_not_dividing(math.prod(primes))
                == next(p for p in count(bound + 1) if is_prime(p)))
