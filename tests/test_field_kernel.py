"""The field kernel: interned descriptors, the checked boundary of the
payload loops (Matrix.from_rows), det by elimination, addmul against add and mul, the Q ops
against the fractions module, the sparse payload loops, and char_poly
against det(x 1 - M)."""

import hashlib
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midconv.errors import FieldMismatch
from midconv.fixtures import TUPLE_FIXTURES
from midconv.linalg import (Matrix, _echelon, _mul_rows, _sparse_rows, char_poly,
                            commutant_basis, intersect_row_spaces, kronecker, poly_eval, rank,
                            solve_coords)
from midconv.modgroup import _extend_tables, group_closure
from midconv.scalars import FieldDescriptor, Scalar, _cyc_normalize, cyclotomic_polynomial
from midconv.tuples import BraidWord, MonodromyTuple, phi_transport

from conftest import F7, Q, SEED, random_invertible, random_scalar

Z12 = FieldDescriptor.cyclotomic(12)
F25 = FieldDescriptor.finite(5, 2)
F4 = FieldDescriptor.finite(2, 2)
F49 = FieldDescriptor.finite(7, 2)
ECHELON_PIN = "5cec17a8bbf1096fdc0efa1faa3dae6bca722777ab7fd76fe49b78ddb90a4898"


# -- interning --------------------------------------------------------------------

def test_descriptors_are_interned():
    assert FieldDescriptor.finite(5, 2) is FieldDescriptor.finite(5, 2, (3, 0, 1))
    assert FieldDescriptor.finite(7) is FieldDescriptor.finite(7)
    assert FieldDescriptor.rational() is FieldDescriptor.rational()
    assert FieldDescriptor.cyclotomic(12) is FieldDescriptor.cyclotomic(12)
    assert FieldDescriptor.finite(5) is not FieldDescriptor.finite(5, 2)


@pytest.mark.parametrize("field", [Q, Z12, F7, F25], ids=str)
def test_pickled_descriptor_is_the_interned_one(field):
    assert pickle.loads(pickle.dumps(field)) is field


def test_uninterned_descriptor_still_compares_equal():
    # a descriptor built past the constructors falls back to ==
    other = FieldDescriptor("finite", p=7, k=1, poly=(0, 1))
    assert other is not F7 and other == F7
    assert Scalar(other, (3,)) == F7.from_int(3)
    assert Scalar(other, (3,)) + F7.from_int(5) == F7.one()


@pytest.mark.parametrize("field", [Q, Z12, F7, F25], ids=str)
def test_zero_and_one_are_cached_and_canonical(field):
    assert field.zero() is field.zero() and field.one() is field.one()
    assert field.zero() == field.from_int(0) and field.one() == field.from_int(1)
    assert not field.zero() and field.one()


# -- the checked boundary of the payload loops: Matrix.from_rows ----------------------

@pytest.mark.parametrize("field", [Q, F7], ids=str)
def test_payload_loops_reject_foreign_entries(field):
    # an entry of another field, or one that is no scalar, is rejected when the
    # matrix is built, so no payload loop ever sees it
    other = Q if field is not Q else F7
    one = field.one()
    for bad, exc in ((other.one(), FieldMismatch), (1.5, TypeError), (None, TypeError)):
        with pytest.raises(exc):
            Matrix.from_rows(field, [[one, bad], [one, one]])
        with pytest.raises(exc):
            Matrix.from_rows(field, [[bad]])
        with pytest.raises(exc):
            Matrix.identity(field, 2).scale(bad)
    # a matrix of another field is rejected by each function that meets it
    good, foreign = Matrix.identity(field, 2), Matrix.identity(other, 2)
    T = MonodromyTuple.from_finite_entries(field, [good])
    for call in (lambda: good @ foreign, lambda: foreign @ good, lambda: good + foreign,
                 lambda: good - foreign, lambda: kronecker(good, foreign),
                 lambda: solve_coords(good, foreign), lambda: solve_coords(foreign, good),
                 lambda: intersect_row_spaces(good, foreign),
                 lambda: commutant_basis([good], [foreign]),
                 lambda: group_closure([good, foreign]),
                 lambda: phi_transport(T, BraidWord(1, ()), Matrix.identity(other, 4))):
        with pytest.raises(FieldMismatch):
            call()


def test_products_across_declared_fields_raise():
    with pytest.raises(FieldMismatch):
        Matrix.identity(Q, 2) @ Matrix.identity(F7, 2)
    with pytest.raises(FieldMismatch):
        group_closure([Matrix.identity(F7, 2), Matrix.identity(FieldDescriptor.finite(11), 2)])


# -- det by elimination ------------------------------------------------------------

@pytest.mark.parametrize("field", [Q, Z12, F7, F25], ids=str)
def test_det_agrees_with_the_characteristic_polynomial(field, rng):
    for n in range(0, 6):
        M = Matrix.from_rows(field, [[random_scalar(field, rng) for _ in range(n)]
                                     for _ in range(n)])
        cp0 = char_poly(M)[0]
        assert M.det() == (cp0 if n % 2 == 0 else -cp0)


def test_det_sign_of_a_permutation_and_singular_matrices():
    P = Matrix.from_rows(Q, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert P.det() == Q.one()
    assert Matrix.from_rows(Q, [[0, 1], [1, 0]]).det() == -Q.one()
    assert Matrix.from_rows(Q, [[1, 2], [2, 4]]).det() == Q.zero()
    assert Matrix.zero(F7, 3, 3).det() == F7.zero()
    assert Matrix.identity(Q, 0).det() == Q.one()


# -- addmul: one multiply-accumulate per term ------------------------------------------

# F_49 twice: as F_7[t]/(t^2 - 3) and as F_7[t]/(t^2 + t + 3), so that the t coefficient
# of the defining polynomial is nonzero in odd characteristic too
KERNEL_FIELDS = ([Q, F7, F4, F49, FieldDescriptor.finite(7, 2, (3, 1, 1))]
                 + [FieldDescriptor.cyclotomic(n) for n in (3, 12, 15, 28)])


def test_the_kernel_fields_reduce_by_sparse_and_dense_cyclotomic_polynomials():
    assert [sum(map(bool, cyclotomic_polynomial(n))) for n in (3, 12, 15, 28)] == [3, 3, 7, 7]


def payloads(field):
    """Canonical payloads of `field`: zero often, sparse numerators, non-unit denominators."""
    coef = st.one_of(st.just(0), st.integers(-30, 30))
    if field.kind == "rational":
        nonzero = st.builds(Fraction, coef, st.integers(1, 12))
    elif field.kind == "finite":
        nonzero = st.tuples(*[st.integers(0, field.p - 1)] * field.k)
    else:
        nonzero = st.builds(lambda nums, den: _cyc_normalize(tuple(nums), den),
                            st.lists(coef, min_size=field.degree, max_size=field.degree),
                            st.integers(1, 12))
    return st.one_of(st.just(field.ops.zero), nonzero, nonzero, nonzero)


def is_canonical(field, x) -> bool:
    if field.kind == "rational":
        if type(x) is not Fraction:
            return False
        n, d = x.numerator, x.denominator
        ref = Fraction(n, d)
        return d > 0 and math.gcd(n, d) == 1 and x == ref and hash(x) == hash(ref)
    if field.kind == "finite":
        return (isinstance(x, tuple) and len(x) == field.k
                and all(isinstance(c, int) and 0 <= c < field.p for c in x))
    nums, den = x
    return (isinstance(nums, tuple) and len(nums) == field.degree and den > 0
            and _cyc_normalize(nums, den) == x)


def _cyclotomic_product(field, a, b):
    """a*b in Q(zeta_n) by schoolbook multiplication and long division by Phi_n."""
    (x, dx), (y, dy) = a, b
    prod = [0] * (len(x) + len(y) - 1)
    for i, s in enumerate(x):
        for j, t in enumerate(y):
            prod[i + j] += s * t
    phi = cyclotomic_polynomial(field.n)           # monic, so the division stays integral
    for top in range(len(prod) - 1, len(phi) - 2, -1):
        q = prod[top]
        for k, c in enumerate(phi):
            prod[top - len(phi) + 1 + k] -= q * c
    return _cyc_normalize(tuple(prod[:field.degree]), dx * dy)


@settings(deadline=None)
@given(st.sampled_from(KERNEL_FIELDS).flatmap(
    lambda field: st.tuples(st.just(field), *[payloads(field)] * 3)))
def test_addmul_is_add_of_mul(args):
    field, c, a, b = args
    ops = field.ops
    out = ops.addmul(c, a, b)
    if field.kind == "cyclotomic":                 # mul is addmul onto zero there
        assert ops.mul(a, b) == _cyclotomic_product(field, a, b)
    assert out == ops.add(c, ops.mul(a, b))
    assert is_canonical(field, out)
    assert ops.addmul(ops.zero, a, b) == ops.mul(a, b)
    assert ops.addmul(c, ops.zero, b) == c == ops.addmul(c, a, ops.zero)


# -- the Q kernel against the fractions module --------------------------------------------

def test_fraction_slot_layout_is_the_one_the_q_kernel_fills():
    # scalars._fraction builds Fractions by filling these two slots
    assert Fraction.__slots__ == ("_numerator", "_denominator")


@st.composite
def rational_operands(draw):
    """(c, a, b): numerators up to +-2^80, denominators up to 2^40, zero often; b shares
    a's denominator and c has a's times b's, each half of the time."""
    def fraction():
        num = st.one_of(st.just(0), st.integers(-30, 30), st.integers(-2 ** 80, 2 ** 80))
        return draw(st.builds(Fraction, num, st.one_of(st.integers(1, 12),
                                                         st.integers(1, 2 ** 40))))
    a = fraction()
    b = a + draw(st.integers(-2 ** 80, 2 ** 80)) if draw(st.booleans()) else fraction()
    if draw(st.booleans()):
        c = draw(st.integers(-2 ** 80, 2 ** 80)) + Fraction(1, a.denominator * b.denominator)
    else:
        c = fraction()
    return c, a, b


@settings(deadline=None)
@given(rational_operands())
def test_rational_ops_agree_with_fractions(args):
    c, a, b = args
    ops = Q.ops
    for got, want in ((ops.add(a, b), a + b), (ops.sub(a, b), a - b), (ops.neg(a), -a),
                      (ops.mul(a, b), a * b), (ops.addmul(c, a, b), c + a * b)):
        assert got == want and is_canonical(Q, got)
    if a:
        assert ops.inv(a) == 1 / a and is_canonical(Q, ops.inv(a))


# -- the sparse payload loops -----------------------------------------------------------

def _naive_product(ops, A, B, ncols):
    """A B by the dense formula, one add and one mul per term."""
    out = []
    for row in A:
        acc = [ops.zero] * ncols
        for a, brow in zip(row, B):
            for j, b in enumerate(brow):
                acc[j] = ops.add(acc[j], ops.mul(a, b))
        out.append(tuple(acc))
    return out


def _random_payload_rows(field, m, n, rng, zero_rows=()):
    zero = field.ops.zero
    return [[zero if i in zero_rows or rng.random() < 0.4
             else random_scalar(field, rng).payload for _ in range(n)] for i in range(m)]


@pytest.mark.parametrize("field", [Q, F7, F25, Z12], ids=str)
def test_mul_rows_keeps_zero_rows_and_empty_inner_dimensions(field, rng):
    ops = field.ops
    # B with no row: every row of A (which has no column) is ncols zeros
    assert _mul_rows(ops, [(), ()], _sparse_rows(ops, []), 3) == [(ops.zero,) * 3] * 2
    assert _mul_rows(ops, [], _sparse_rows(ops, []), 3) == []
    for _ in range(5):
        A = _random_payload_rows(field, 4, 3, rng, zero_rows=(1,))
        B = _random_payload_rows(field, 3, 5, rng, zero_rows=(rng.randrange(3),))
        expected = _naive_product(ops, A, B, 5)
        assert _mul_rows(ops, A, _sparse_rows(ops, B), 5) == expected
        assert expected[1] == (ops.zero,) * 5
    assert _sparse_rows(ops, [[ops.zero, ops.one], [ops.zero] * 2]) == [[(1, ops.one)], []]


@pytest.mark.parametrize("field", [Q, F7, F25, Z12], ids=str)
def test_filled_derived_forms_leave_equality_and_hashing_to_the_payload(field, rng):
    M = random_invertible(field, 3, rng)
    filled, fresh = Matrix(field, M.payload), Matrix(field, M.payload)
    assert filled.sparse == _sparse_rows(field.ops, M.payload)
    assert not filled.is_scalar
    assert filled.inverse() is filled.inverse()          # eliminated once, then kept
    assert filled == fresh and hash(filled) == hash(fresh)
    assert {fresh: "fresh"}[filled] == "fresh" and len({filled, fresh}) == 1
    assert fresh.inverse() == filled.inverse() and fresh.inverse() is not filled.inverse()


@pytest.mark.parametrize("field", [Q, F7, F25, Z12], ids=str)
def test_is_scalar_means_c_times_one_with_c_nonzero(field, rng):
    c = next(x for x in iter(lambda: random_scalar(field, rng), None) if x)
    for n in (1, 3):
        assert Matrix.identity(field, n).is_scalar
        assert Matrix.identity(field, n).scale(c).is_scalar
        assert not Matrix.zero(field, n, n).is_scalar
    assert not Matrix.from_rows(field, [[c, 0], [0, c + c]]).is_scalar    # diagonal, not c*1
    assert not Matrix.from_rows(field, [[1, 0], [1, 1]]).is_scalar
    assert not Matrix.from_rows(field, [[c, 0, 0]]).is_scalar              # not square


@pytest.mark.parametrize("field", [F7, F25, Z12], ids=str)
def test_row_images_with_prebuilt_sparse_rows_equal_the_product(field, rng):
    # the closure's row-id tables: rows[table[g][k]] is rows[k] times generator g
    ops = field.ops
    gens = [Matrix(field, tuple(map(tuple, _random_payload_rows(field, 4, 4, rng, zero_rows=(2,)))))
            for _ in range(2)]
    rows = list(dict.fromkeys(map(tuple, _random_payload_rows(field, 3, 4, rng, zero_rows=(0,)))))
    ids = {row: k for k, row in enumerate(rows)}
    tables = [[] for _ in gens]
    for _ in range(3):                   # each call covers the rows the last one interned
        covered = len(rows)
        _extend_tables(gens, rows, ids, tables)
        assert all(len(table) == covered for table in tables)
    assert (ops.zero,) * 4 in rows
    assert len(set(rows)) == len(rows) and all(ids[row] == k for k, row in enumerate(rows))
    for A, table in zip(gens, tables):
        for k, image in enumerate(table):
            assert (rows[image],) == (Matrix(field, (rows[k],)) @ A).payload


def _echelon_text(M):
    out = []
    for reduced in (False, True):
        ech = _echelon(M.field.ops, M.payload, reduced=reduced)
        out.append(f"{ech.pivots} {Scalar(M.field, ech.det)} "
                   + ";".join(",".join(str(Scalar(M.field, x)) for x in r) for r in ech.rows))
    out.append(str(rank(M)))
    if M.is_square():
        out.append(str(M.det()))
    return "|".join(out)


def test_echelon_det_rank_and_pivots_on_the_fixtures_are_pinned():
    # the pin was taken with the dense elimination (one sub of a mul per entry)
    mats = []
    for name in sorted(TUPLE_FIXTURES):
        T = TUPLE_FIXTURES[name]()
        for M in T.entries:
            mats += [M, M.minus_identity()]
        stacked = tuple(r for M in T.entries for r in M.minus_identity().payload)
        mats.append(Matrix(T.field, stacked))
    rng = random.Random(SEED)
    for field in (Q, F7, F49, Z12):
        for m, n in ((2, 3), (3, 4), (3, 5), (5, 3)):
            rows = [[random_scalar(field, rng) if rng.random() < 0.6 else field.zero()
                     for _ in range(n)] for _ in range(m)]
            rows[rng.randrange(m)] = [field.zero()] * n
            rows.append([a + b for a, b in zip(rows[0], rows[-1])])
            mats.append(Matrix.from_rows(field, rows))
    text = "\n".join(_echelon_text(M) for M in mats)
    assert hashlib.sha256(text.encode()).hexdigest() == ECHELON_PIN


# -- char_poly against det(x 1 - M) --------------------------------------------------------

@st.composite
def square_matrices(draw, field, max_dim=5):
    """Square matrices over `field`, some with a zero row or a zero column."""
    n = draw(st.integers(0, max_dim))
    entries = draw(st.lists(payloads(field), min_size=n * n, max_size=n * n))
    rows = [entries[i * n:(i + 1) * n] for i in range(n)]
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [field.ops.zero] * n
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = field.ops.zero
    return Matrix(field, tuple(map(tuple, rows)))


def _generator(field):
    """zeta_n, the residue of t in F_{p^2}, or p - 1 in F_p."""
    if field.kind == "cyclotomic":
        return field.zeta()
    return field.gen() if field.k == 2 else field.from_int(field.p - 1)


def _assert_char_poly_is_det(M):
    field, n = M.field, M.nrows
    cp = char_poly(M)
    assert len(cp) == n + 1 and cp[-1] == field.one()
    # two polynomials of degree n that agree at n + 1 points are equal
    for x in [field.from_int(k) for k in range(n + 1)] + [_generator(field)]:
        assert poly_eval(cp, x) == (Matrix.identity(field, n).scale(x) - M).det()


@settings(deadline=None)
@given(st.sampled_from([F7, F49, Z12]).flatmap(square_matrices))
def test_char_poly_is_det_of_x_minus_m(M):
    _assert_char_poly_is_det(M)


@pytest.mark.parametrize("field", [F7, F49, Z12], ids=str)
def test_char_poly_of_empty_single_and_zero_matrices(field):
    one, zero = field.one(), field.zero()
    assert char_poly(Matrix(field, ())) == [one]
    assert char_poly(Matrix.from_rows(field, [[3]])) == [-field.from_int(3), one]
    assert char_poly(Matrix.zero(field, 3, 3)) == [zero, zero, zero, one]
    for rows in ([[1, 0, 2], [0, 0, 0], [4, 0, 5]], [[0, 0], [_generator(field), 0]]):
        M = Matrix.from_rows(field, rows)
        _assert_char_poly_is_det(M)
