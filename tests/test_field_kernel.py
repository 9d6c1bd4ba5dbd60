"""The field kernel: interned descriptors, the checked boundary of the
payload loops (Matrix.from_rows), det by elimination, addmul against add and mul, the
axpy row kernel against the addmul loop, add and sub against per-coordinate fractions,
the coordinate read-out (rebuild, order and text), the straight-line Q(zeta_n) kernel on
both sides of its bound, the Q ops against the fractions module, the inverse of a
rational payload, the sparse payload loops, the elimination at unit pivots, and char_poly
against det(x 1 - M)."""

import hashlib
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midconv.errors import FieldMismatch
from midconv.fixtures import TUPLE_FIXTURES
from midconv.linalg import (Matrix, _echelon, _mul_rows, _sparse_rows, char_poly,
                            commutant_basis, intersect_row_spaces, kronecker, rank, solve_coords)
from midconv.modgroup import _extend_tables, group_closure
from midconv.poly import cyclotomic_polynomial, horner
from midconv.scalars import (UNROLL_MAX_PHI, FieldDescriptor, Scalar, _cyc_normalize,
                             _cyc_tables, _cyclotomic_ops, _looped_axpy, _looped_cyclotomic_ops,
                             _straight_line_cyclotomic_ops, format_scalar, parse_scalar)
from midconv.tuples import BraidWord, MonodromyTuple

from conftest import (F7, Q, SEED, conjugate_product_inverse, phi_transport, random_invertible,
                      random_scalar)

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
    assert other.from_int(3) == F7.from_int(3)
    assert other.from_int(3) + F7.from_int(5) == F7.one()


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
                 lambda: phi_transport(T, [BraidWord(1, ())], Matrix.identity(other, 4))):
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
# of the defining polynomial is nonzero in odd characteristic too.  Q(zeta_n) for n = 1
# (phi 1), 35 (phi 24, the largest phi of the straight-line kernel) and 29 (phi 28, the
# least above it, where the loops run)
CYCLOTOMIC_ORDERS = (1, 3, 12, 15, 28, 35, 29)
KERNEL_FIELDS = ([Q, F7, F4, F49, FieldDescriptor.finite(7, 2, (3, 1, 1))]
                 + [FieldDescriptor.cyclotomic(n) for n in CYCLOTOMIC_ORDERS])


def test_the_kernel_fields_reduce_by_sparse_and_dense_cyclotomic_polynomials():
    assert [sum(map(bool, cyclotomic_polynomial(n))) for n in (3, 12, 15, 28)] == [3, 3, 7, 7]


def test_the_kernel_fields_straddle_the_unroll_bound():
    phis = {n: len(cyclotomic_polynomial(n)) - 1 for n in range(1, 200)}
    assert phis[35] == max(phi for phi in phis.values() if phi <= UNROLL_MAX_PHI)
    assert phis[29] == min(phi for phi in phis.values() if phi > UNROLL_MAX_PHI)
    for n in CYCLOTOMIC_ORDERS:
        field = FieldDescriptor.cyclotomic(n)
        unrolled = field.ops.addmul.__code__.co_filename == f"<Q(zeta_{n}) kernel>"
        assert unrolled == (field.degree <= UNROLL_MAX_PHI), n


def _basis(field) -> list:
    """The basis that coords() refers to: zeta^e over Q(zeta_n), 1 and t over F_{p^2}."""
    if field.kind == "cyclotomic":
        return [field.zeta(e) for e in range(field.degree)]
    return [field.one(), field.gen()] if field.k == 2 else [field.one()]


def _from_coords(field, coords) -> Scalar:
    """The scalar with these coordinates, built by the field's arithmetic."""
    out = field.zero()
    for c, b in zip(coords, _basis(field)):
        out = out + field.from_fraction(Fraction(c)) * b
    return out


def payloads(field):
    """Canonical payloads of `field`: zero often, sparse numerators, non-unit denominators,
    and now and then a numerator or a denominator above 2^64."""
    coef = st.one_of(st.just(0), st.just(0), st.integers(-30, 30), st.integers(-30, 30),
                     st.integers(-2 ** 80, 2 ** 80))
    den = st.one_of(st.integers(1, 12), st.integers(1, 12), st.integers(1, 2 ** 70))
    if field.kind == "finite":
        nonzero = st.tuples(*[st.integers(0, field.p - 1)] * field.k).map(
            lambda cs: _from_coords(field, cs).payload)
    else:
        nonzero = st.builds(lambda nums, den: _cyc_normalize(tuple(nums), den),
                            st.lists(coef, min_size=field.degree, max_size=field.degree),
                            den)
    return st.one_of(st.just(field.ops.zero), nonzero, nonzero, nonzero)


def is_canonical(field, x) -> bool:
    """Over F_{p^k}: k int coordinates in [0, p), and the payload the field builds from
    them.  Over Q, which runs as Q(zeta_1), and Q(zeta_n): the numerators over a positive
    denominator, with no common factor."""
    if field.kind == "finite":
        coords = Scalar(field, x).coords()
        return (len(coords) == field.k
                and all(type(c) is int and 0 <= c < field.p for c in coords)
                and _from_coords(field, coords).payload == x)
    nums, den = x
    return (isinstance(nums, tuple) and len(nums) == field.degree and den > 0
            and _cyc_normalize(nums, den) == x)


def test_is_canonical_accepts_only_ints_in_range_over_f_p():
    assert all(is_canonical(F7, c) for c in range(7))
    assert all(is_canonical(F7, x.payload) for x in F7.elements())
    assert is_canonical(F7, F7.from_fraction(Fraction(-3, 2)).payload)
    for bad in (-1, 7, 10, (3,), 3.0, Fraction(3), True, None):
        assert not is_canonical(F7, bad), bad
    assert all(is_canonical(F49, x.payload) for x in F49.elements())


def _cyclotomic_product(field, a, b):
    """a*b in Q(zeta_n) by schoolbook multiplication and long division by Phi_n."""
    (x, dx), (y, dy) = a, b
    prod = [0] * (len(x) + len(y) - 1)
    for i, s in enumerate(x):
        for j, t in enumerate(y):
            prod[i + j] += s * t
    phi = cyclotomic_polynomial(field.n or 1)      # monic, so the division stays integral
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
    if field.kind != "finite":
        assert ops.mul(a, b) == _cyclotomic_product(field, a, b)
    assert out == ops.add(c, ops.mul(a, b))
    assert is_canonical(field, out)
    assert ops.addmul(ops.zero, a, b) == ops.mul(a, b)
    assert ops.addmul(c, ops.zero, b) == c == ops.addmul(c, a, ops.zero)


@settings(deadline=None)
@given(st.sampled_from([Q, FieldDescriptor.cyclotomic(3), Z12, F7, F25]).flatmap(
    lambda field: st.tuples(st.just(field), *[payloads(field)] * 3)))
def test_nonzero_is_inequality_with_the_canonical_zero(args):
    # over Q and Q(zeta_n) nonzero is the bound zero.__ne__: right only because every op
    # returns the one canonical zero, as these zeros made by cancellation and by a zero
    # operand show
    field, c, a, b = args
    ops = field.ops
    zeros = (ops.sub(a, a), ops.neg(ops.zero), ops.addmul(ops.zero, a, ops.zero),
             ops.addmul(ops.neg(ops.mul(a, b)), a, b), ops.mul(ops.zero, b))
    for x in (c, a, b, ops.addmul(c, a, ops.zero)) + zeros:
        assert ops.nonzero(x) is (x != ops.zero) is bool(Scalar(field, x))
        assert ops.nonzero(x) is any(Scalar(field, x).coords())
    assert not any(map(ops.nonzero, zeros))


# one field of each kind of table: F_p (its own loop), F_{p^2}, the straight-line Q and
# Q(zeta_12), and the looped Q(zeta_29) (the shared loop over addmul)
AXPY_FIELDS = [F7, F49, Q, Z12, FieldDescriptor.cyclotomic(29)]


@st.composite
def axpy_cases(draw):
    """(field, row, a, pairs): zero entries often, and pairs that repeat a column."""
    field = draw(st.sampled_from(AXPY_FIELDS))
    row = draw(st.lists(payloads(field), min_size=1, max_size=5))
    pairs = draw(st.lists(st.tuples(st.integers(0, len(row) - 1), payloads(field)),
                          max_size=8))
    return field, row, draw(payloads(field)), pairs


@settings(deadline=None)
@given(axpy_cases())
def test_axpy_is_the_addmul_loop(case):
    field, row, a, pairs = case
    ops = field.ops
    want = list(row)
    for j, y in pairs:
        want[j] = ops.addmul(want[j], a, y)
    got = list(row)
    assert ops.axpy(got, a, pairs) is None
    assert got == want and all(is_canonical(field, x) for x in got)


def _coordinates(field, x) -> list:
    """The coordinates of a payload over the prime field: Fractions, or ints mod p."""
    if field.kind == "finite":
        return list(Scalar(field, x).coords())
    nums, den = x
    return [Fraction(a, den) for a in nums]


@settings(deadline=None)
@given(st.sampled_from(KERNEL_FIELDS).flatmap(
    lambda field: st.tuples(st.just(field), *[payloads(field)] * 2)))
def test_add_sub_and_neg_agree_with_per_coordinate_fractions(args):
    field, a, b = args
    ops, mod = field.ops, field.p or None
    xs, ys = _coordinates(field, a), _coordinates(field, b)
    for got, want in ((ops.add(a, b), [s + t for s, t in zip(xs, ys)]),
                      (ops.sub(a, b), [s - t for s, t in zip(xs, ys)]),
                      (ops.sub(a, a), [0] * len(xs)),
                      (ops.neg(a), [-s for s in xs])):
        assert _coordinates(field, got) == [w % mod if mod else w for w in want]
        assert is_canonical(field, got)


@settings(deadline=None)
@given(st.sampled_from(KERNEL_FIELDS).flatmap(
    lambda field: st.tuples(st.just(field), st.lists(payloads(field), min_size=1, max_size=5))))
def test_the_coordinate_read_out_rebuilds_orders_and_formats_each_scalar(args):
    field, xs = args
    scalars = [Scalar(field, x) for x in xs]
    for s in scalars:
        coords = s.coords()
        assert len(coords) == field.degree
        assert _from_coords(field, coords) == s
        assert parse_scalar(format_scalar(s), field) == s
    # the reference order: per-coordinate Fractions over Q and Q(zeta_n)
    assert (sorted(scalars, key=Scalar.coords)
            == sorted(scalars, key=lambda s: _coordinates(field, s.payload)))


def _random_cyclotomic_payload(phi, rng):
    nums = [rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-2 ** 70, 2 ** 70)))
            for _ in range(phi)]
    return _cyc_normalize(tuple(nums), rng.choice((1, 1, 6, rng.randint(1, 2 ** 70))))


def test_the_generator_writes_reduction_coefficients_of_magnitude_two():
    # n = 105 is the least n whose reduction rows hold a coefficient other than 0 and
    # +-1, so its source holds r*h terms; the generator is called past the bound
    phi, red, _ = _cyc_tables(105)
    assert phi == 48 and max(abs(r) for row in red for r in row) == 2
    field = FieldDescriptor.cyclotomic(105)
    add, sub, neg, mul, addmul, axpy = _straight_line_cyclotomic_ops(105)
    loops = _looped_cyclotomic_ops(phi, red)
    looped_axpy = _looped_axpy(loops[4])
    assert mul.__code__.co_filename == axpy.__code__.co_filename == "<Q(zeta_105) kernel>"
    rng = random.Random(SEED)
    for _ in range(30):
        c, a, b = (_random_cyclotomic_payload(phi, rng) for _ in range(3))
        assert mul(a, b) == _cyclotomic_product(field, a, b) == loops[3](a, b)
        assert addmul(c, a, b) == add(c, mul(a, b)) == loops[4](c, a, b)
        for got, want in ((add(a, b), loops[0](a, b)), (sub(a, b), loops[1](a, b)),
                          (neg(a), loops[2](a))):
            assert got == want and is_canonical(field, got)
    # the generated row kernel against the loop over the loops' addmul, on a row with a
    # zero and a repeated column
    for _ in range(10):
        a = _random_cyclotomic_payload(phi, rng)
        row = [_random_cyclotomic_payload(phi, rng) for _ in range(3)] + [field.ops.zero]
        pairs = [(j, _random_cyclotomic_payload(phi, rng)) for j in (0, 3, 1, 0)]
        got, want = list(row), list(row)
        axpy(got, a, pairs)
        looped_axpy(want, a, pairs)
        assert got == want and all(is_canonical(field, x) for x in got)


@pytest.mark.parametrize("n", [997, 1000])
def test_building_a_field_above_the_unroll_bound_is_fast(n):
    # phi = 996 and 400: the loops run there; a straight-line kernel of phi = 996
    # would take seconds and gigabytes to compile
    import time
    start = time.perf_counter()
    ops, powers = _cyclotomic_ops(n), _cyc_tables(n)[2]
    assert ops.mul((powers[1], 1), (powers[1], 1)) == (powers[2], 1)
    assert time.perf_counter() - start < 1.0


# -- the Q kernel against the fractions module --------------------------------------------

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
    x, y, z = (Q.from_fraction(v).payload for v in (a, b, c))
    for got, want in ((ops.add(x, y), a + b), (ops.sub(x, y), a - b), (ops.neg(x), -a),
                      (ops.mul(x, y), a * b), (ops.addmul(z, x, y), c + a * b)):
        assert Scalar(Q, got).coords() == (want,) and is_canonical(Q, got)
    if a:
        assert Scalar(Q, ops.inv(x)).coords() == (1 / a,) and is_canonical(Q, ops.inv(x))


# -- the inverse of a rational payload ----------------------------------------------------

# Q and Q(zeta_3), Q(zeta_12) on the straight-line kernel, Q(zeta_29) on the loops
INV_FIELDS = [Q, FieldDescriptor.cyclotomic(3), Z12, FieldDescriptor.cyclotomic(29)]


# at most 200 examples, under the ci profile too, which keeps that step within its budget
@settings(deadline=None, max_examples=200)
@given(st.sampled_from(INV_FIELDS),
       st.one_of(st.integers(-30, 30), st.integers(-2 ** 80, 2 ** 80)).filter(bool),
       st.one_of(st.integers(1, 12), st.integers(1, 2 ** 70)))
def test_the_inverse_of_a_rational_payload_is_the_conjugate_product(field, num, den):
    ops = field.ops
    a = _cyc_normalize((num,) + (0,) * (field.degree - 1), den)
    got = ops.inv(a)
    assert is_canonical(field, got)
    assert ops.mul(a, got) == ops.one
    assert got == conjugate_product_inverse(field, a)


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


def _echelon_inverting_every_pivot(ops, rows, reduced=True):
    """The elimination of _echelon as it was before unit pivots were skipped: every pivot
    is inverted, its row scaled and det multiplied by it.  Returns rows, pivot columns,
    det and the pivot values."""
    nonzero, neg, mul, axpy = ops.nonzero, ops.neg, ops.mul, ops.axpy
    M = [list(r) for r in rows if any(map(nonzero, r))]
    det, piv, r0, values = ops.one, [], 0, []
    for c in range(len(M[0]) if M else 0):
        pr = next((r for r in range(r0, len(M)) if nonzero(M[r][c])), None)
        if pr is None:
            continue
        if pr != r0:
            M[r0], M[pr] = M[pr], M[r0]
            det = neg(det)
        pivot = M[r0][c]
        values.append(pivot)
        det = mul(det, pivot)
        pv = ops.inv(pivot)
        prow = M[r0] = [mul(x, pv) if nonzero(x) else x for x in M[r0]]
        pairs = [(j, y) for j, y in enumerate(prow) if nonzero(y)]
        for r in range(len(M)) if reduced else range(r0 + 1, len(M)):
            row = M[r]
            if r != r0 and nonzero(row[c]):
                axpy(row, neg(row[c]), pairs)
        piv.append(c)
        r0 += 1
        if r0 == len(M):
            break
    return M[:r0], piv, det, values


@st.composite
def unit_pivot_matrices(draw):
    """(field, rows): rows 1 at their leading column and 0 before it, mixed with drawn
    rows, so that the elimination meets pivots that are one and pivots that are not."""
    field = draw(st.sampled_from([Q, F7, F49, Z12]))
    ops = field.ops
    n = draw(st.integers(1, 5))
    rows = []
    for lead in sorted(draw(st.sets(st.integers(0, n - 1), max_size=n))):
        tail = draw(st.lists(payloads(field), min_size=n - lead - 1, max_size=n - lead - 1))
        rows.append([ops.zero] * lead + [ops.one] + tail)
    rows += draw(st.lists(st.lists(payloads(field), min_size=n, max_size=n), max_size=3))
    return field, [tuple(r) for r in draw(st.permutations(rows))]


# at most 100 examples, under the ci profile too, which keeps that step within its budget
@settings(deadline=None, max_examples=100)
@given(unit_pivot_matrices())
def test_unit_pivots_skip_the_inverse_and_change_nothing(case):
    field, rows = case
    inverted = []

    def inv(x):
        inverted.append(x)
        return field.ops.inv(x)

    ops = field.ops._replace(inv=inv)
    for reduced in (True, False):
        inverted.clear()
        ech = _echelon(ops, rows, reduced=reduced)
        *want, values = _echelon_inverting_every_pivot(field.ops, rows, reduced)
        assert [ech.rows, ech.pivots, ech.det] == want
        assert inverted == [x for x in values if x != ops.one]


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
        assert horner(cp, x) == (Matrix.identity(field, n).scale(x) - M).det()


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
