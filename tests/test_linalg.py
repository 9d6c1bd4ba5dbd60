import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midconv import linalg
from midconv.errors import DoesNotSplit, FieldMismatch, PreconditionError
from midconv.fixtures import m_tuple
from midconv.linalg import (JordanData, Matrix, _echelon, char_poly, commutant_basis,
                            field_roots, find_invertible, intersect_row_spaces, jordan_data,
                            kernel_basis, kronecker, kronecker_jordan, matrix_order, powers,
                            rank, reduced_kernel_basis, row_space_basis, solve_coords)
from midconv.scalars import FieldDescriptor

from conftest import (ENTRY_KINDS, F7, PRIMORIAL_9767, Q, SEED, entry_of_kind,
                      random_invertible, random_scalar)

Z3 = FieldDescriptor.cyclotomic(3)
Z4 = FieldDescriptor.cyclotomic(4)
Z12 = FieldDescriptor.cyclotomic(12)
F49 = FieldDescriptor.finite(7, 2)

A1 = Matrix.from_rows(Q, [[-3, -8], [2, 5]])


def test_kernel_of_zero_matrix():
    assert len(kernel_basis(Matrix.zero(Q, 2, 2))) == 2


def test_kernel_of_unipotent_fixture():
    assert len(kernel_basis(A1.minus_identity())) == 1


def test_kernel_of_identity():
    assert kernel_basis(Matrix.identity(Q, 3)) == Matrix(Q, ())


def test_char_poly_of_m1_m2():
    V = m_tuple()
    M12 = V.entries[0] @ V.entries[1]
    # (x - 1)(x^2 - 6x + 1) = x^3 - 7x^2 + 7x - 1
    assert char_poly(M12) == [Q.from_int(c) for c in (-1, 7, -7, 1)]


def test_char_poly_identity():
    cp = char_poly(Matrix.identity(Q, 3))
    assert cp == [Q.from_int(c) for c in (-1, 3, -3, 1)]


def test_char_poly_companion():
    C = Matrix.from_rows(Q, [[0, 1], [-1, 0]])
    assert char_poly(C) == [Q.from_int(c) for c in (1, 0, 1)]


def test_char_poly_matches_berkowitz_on_triangular(rng):
    # char_poly is invariant under conjugation, triangular or not
    M = Matrix.from_rows(Q, [[1, 2, 3], [0, 4, 5], [0, 0, 6]])
    S = random_invertible(Q, 3, rng)
    assert char_poly(M) == char_poly(S.inverse() @ M @ S)


@pytest.mark.parametrize("field", [Q, Z4, F7, FieldDescriptor.finite(2, 2)])
def test_char_poly_of_triangular_is_the_product_over_the_diagonal(field, rng):
    zero = field.zero()
    for lower in (False, True):
        for n in (1, 2, 4):
            rows = [[random_scalar(field, rng) if (j <= i if lower else j >= i) else zero
                     for j in range(n)] for i in range(n)]
            expected = [field.one()]
            for i in range(n):             # multiply by (x - d_i)
                shifted = [zero] + expected
                expected = [c - rows[i][i] * s for c, s in zip(shifted, expected + [zero])]
            assert char_poly(Matrix.from_rows(field, rows)) == expected


def test_jordan_reads_the_diagonal_of_a_triangular_matrix():
    # 1 +- zeta_4 are neither rational nor roots of unity, and x^2 - 2x + 2
    # is not linear, so field_roots cannot find them; jordan_data reads them
    # off the diagonal
    one, z = Z4.one(), Z4.zeta(1)
    M = Matrix.from_rows(Z4, [[one + z, one], [0, one - z]])
    assert len(field_roots(char_poly(M), Z4)[1]) == 3
    assert jordan_data(M) == JordanData.of([(one - z, 1), (one + z, 1)])


def test_jordan_of_fixture_entry():
    assert jordan_data(A1) == JordanData.of([(Q.one(), 2)])
    # independent nilpotency check
    N = A1.minus_identity()
    assert rank(N) == 1 and rank(N @ N) == 0


def test_jordan_diag_over_z4():
    i = Z4.zeta()
    M = Matrix.from_rows(Z4, [[i, 0], [0, -i]])
    assert jordan_data(M) == JordanData.of([(i, 1), (-i, 1)])


def test_jordan_minus_identity():
    M = Matrix.from_rows(Q, [[-1, 0], [0, -1]])
    assert jordan_data(M) == JordanData.of([(-Q.one(), 1), (-Q.one(), 1)])


def test_jordan_does_not_split():
    V = m_tuple()
    M12 = V.entries[0] @ V.entries[1]
    with pytest.raises(DoesNotSplit) as exc:
        jordan_data(M12)
    # the leftover factor is x^2 - 6x + 1
    assert exc.value.factor == tuple(Q.from_int(c) for c in (1, -6, 1))


def test_jordan_conjugation_invariant(rng):
    for _ in range(5):
        M = random_invertible(Q, 3, rng)
        S = random_invertible(Q, 3, rng)
        try:
            jd = jordan_data(M)
        except DoesNotSplit:
            continue
        assert jordan_data(S.inverse() @ M @ S) == jd


def jordan_block(field, alpha, n):
    """Explicit Jordan block: alpha on the diagonal, ones above it."""
    return Matrix.from_rows(field, [[alpha if i == j else int(j == i + 1) for j in range(n)]
                                    for i in range(n)])


def jordan_matrix(field, blocks):
    """The block-diagonal matrix of the J(alpha, n) for the (alpha, n) in blocks."""
    d = sum(n for _, n in blocks)
    rows, at = [], 0
    for alpha, n in blocks:
        rows += [[0] * at + list(row) + [0] * (d - at - n)
                 for row in jordan_block(field, alpha, n).rows]
        at += n
    return Matrix.from_rows(field, rows)


def _eigenvalue_pool(field):
    """Nonzero eigenvalues that the unhinted root search finds over the field."""
    if field.kind == "finite":
        return [field.from_int(a) for a in range(1, field.p)]
    pool = [field.from_int(2), field.from_fraction(Fraction(-1, 3))]
    if field.kind == "cyclotomic":
        return pool + [w for e in range(field.n) for w in (field.zeta(e), -field.zeta(e))]
    return pool + [field.one(), -field.one()]


def _no_char_poly(M):
    raise AssertionError("char_poly was called")


@pytest.mark.parametrize("field", [Q, F7, Z3], ids=str)
@settings(deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32))
def test_hinted_jordan_data_is_the_jordan_data(field, data, seed):
    # right, wrong, partial, repeated, zero or no hints: the answer is the
    # blocks the matrix was built from, with or without them; when the hints
    # hold every eigenvalue, char_poly is never called
    pool = _eigenvalue_pool(field)
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=5)
                      .filter(lambda ns: sum(ns) <= 5))
    blocks = [(data.draw(st.sampled_from(pool)), n) for n in sizes]
    hints = data.draw(st.lists(st.sampled_from(pool + [alpha for alpha, _ in blocks]
                                               + [field.zero()]), max_size=6))
    S = random_invertible(field, sum(sizes), random.Random(seed))
    M = S.inverse() @ jordan_matrix(field, blocks) @ S
    expected = JordanData.of(blocks)
    assert jordan_data(M) == expected
    with pytest.MonkeyPatch.context() as mp:
        if {alpha for alpha, _ in blocks} <= set(hints):
            mp.setattr(linalg, "char_poly", _no_char_poly)
        assert jordan_data(M, hints) == expected


@pytest.mark.parametrize("field", [Q, F7, Z3], ids=str)
def test_complete_hints_never_compute_the_characteristic_polynomial(field, rng, monkeypatch):
    one, minus = field.one(), -field.one()
    blocks = [(minus, 2), (minus, 1), (one, 1), (one, 1)]
    S = random_invertible(field, 5, rng)
    M = S.inverse() @ jordan_matrix(field, blocks) @ S
    monkeypatch.setattr(linalg, "char_poly", _no_char_poly)
    assert jordan_data(M, (minus, one)) == jordan_data(M, (one, minus, one)) \
        == JordanData.of(blocks)
    with pytest.raises(AssertionError, match="char_poly was called"):
        jordan_data(M, (minus,))


def test_hints_in_the_demo_order_take_one_rank_each_and_one_more_for_a_long_block(
        rng, monkeypatch):
    # J(-i, 2) + 2 J(-i, 1) + 3 J(1, 1), the shape of sl_demo's first entry:
    # with -i first, its second power fills the dimension and 1 needs none
    i, one = Z4.zeta(), Z4.one()
    blocks = [(-i, 2), (-i, 1), (-i, 1), (one, 1), (one, 1), (one, 1)]
    S = random_invertible(Z4, 7, rng)
    M = S.inverse() @ jordan_matrix(Z4, blocks) @ S
    ranks = []
    real_rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda P: ranks.append(P) or real_rank(P))
    assert jordan_data(M, (-i, one)) == JordanData.of(blocks)
    assert len(ranks) == 3
    ranks.clear()
    assert jordan_data(M, (one, -i)) == JordanData.of(blocks)
    assert len(ranks) == 4            # 1 first: a second power of M - 1 that drops nothing


@pytest.mark.parametrize("field, rows, order", [
    (Q, [[0, -1], [1, -1]], 3),                  # the companion matrix of x^2 + x + 1
    (F7, [[3]], 6),                              # 3 generates F_7^*
    (Z4, [[Z4.zeta(), 0], [0, -1]], 4),
], ids=["Q", "F_7", "Q(zeta_4)"])
def test_matrix_order_takes_one_product_per_power_it_reads(monkeypatch, field, rows, order):
    M = Matrix.from_rows(field, rows)
    assert list(islice(powers(M), 3)) == [M, M @ M, M @ M @ M]
    products = []
    real_matmul = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__", lambda A, B: products.append(B) or real_matmul(A, B))
    assert matrix_order(M, order) == order
    assert len(products) == order - 1
    products.clear()
    assert matrix_order(M, order - 1) is None
    assert len(products) == order - 2


def test_a_hint_of_another_field_raises():
    with pytest.raises(FieldMismatch):
        jordan_data(A1, (F7.one(),))
    with pytest.raises(FieldMismatch):
        jordan_data(A1, (Q.one(), Z4.one()))


def test_jordan_blocks_that_miss_the_ambient_dimension_raise():
    # a check that python -O keeps
    with pytest.raises(PreconditionError, match="fill dimension 2, not the ambient dimension 3"):
        JordanData.of([(Q.one(), 2)], 3)


def test_field_roots_rational():
    # (x-2)(x+1/3) * 3 = 3x^2 - 5x - 6 ... build directly
    poly = [Q.from_fraction(Fraction(-2, 3)),
            Q.from_fraction(Fraction(-5, 3)), Q.one()]
    roots, rem = field_roots(poly, Q)
    assert len(rem) == 1
    assert {r for r, _ in roots} == {Q.from_int(2), Q.from_fraction(Fraction(-1, 3))}


def test_field_roots_solves_a_linear_remainder():
    # 1 + zeta_4 is neither rational nor a root of unity, and this conjugate
    # of diag(1, 1 + zeta_4) does not carry it on its diagonal
    one, z = Z4.one(), Z4.zeta(1)
    M = Matrix.from_rows(Z4, [[one - z, z + z], [-z, z + z + one]])
    assert field_roots(char_poly(M), Z4) == ([(one, 1), (one + z, 1)], [one])
    assert jordan_data(M) == JordanData.of([(one, 1), (one + z, 1)])
    two = one + one
    assert field_roots([-two * (one + z), two], Z4) == ([(one + z, 1)], [two])


def test_field_roots_solves_a_repeated_root_off_the_candidates():
    # the infinity entry of the conjugated check-conv tuple has characteristic
    # polynomial (x - (1 - zeta_4)/2)^2; its root is the mean of the roots
    one, z = Z4.one(), Z4.zeta(1)
    alpha = (one - z) * Z4.from_fraction(Fraction(1, 2))
    M = Matrix.from_rows(Z4, [["0", "-1/2*z+1/2"], ["1/2*z-1/2", "-z+1"]])
    assert field_roots(char_poly(M), Z4) == ([(alpha, 2)], [one])
    assert jordan_data(M) == JordanData.of([(alpha, 2)])
    # over Q the candidates are complete, so the mean of x^2 - 2 is no root
    assert field_roots([Q.from_int(-2), Q.zero(), Q.one()], Q)[0] == []


@pytest.mark.parametrize("n", range(2, 13))
def test_the_candidate_stream_holds_each_root_of_unity_once(n):
    # the roots of unity of Q(zeta_n) are the 2n-th ones for odd n, the n-th ones
    # for even n; the constant polynomial 1 adds no rational candidate.  Q(zeta_1)
    # is Q, whose roots of unity +-1 come from the rational root search
    field = FieldDescriptor.cyclotomic(n)
    order = 2 * n if n % 2 else n
    stream = list(linalg._own_candidates([field.one()], field))
    assert len(stream) == len(set(stream)) == order
    assert all(x ** order == field.one() for x in stream)


@pytest.mark.parametrize("c", [2 ** 64, 2 ** 61 - 1, (2 ** 31 - 1) * (2 ** 61 - 1)],
                         ids=["2^64", "2^61-1", "(2^31-1)(2^61-1)"])
def test_rational_roots_with_a_large_constant_term_are_fast(c):
    # by l-adic lifting no divisor of c is needed: trial division up to sqrt(c)
    # would take minutes, the lifting takes milliseconds
    import time
    one = Q.one()
    start = time.perf_counter()
    roots, rem = field_roots([Q.from_int(-c), Q.zero(), one], Q)          # x^2 - c
    square = c == 2 ** 64
    assert roots == ([(Q.from_int(-2 ** 32), 1), (Q.from_int(2 ** 32), 1)] if square else [])
    assert len(rem) == (1 if square else 3)
    assert field_roots([Q.from_int(-c), one], Q) == ([(Q.from_int(c), 1)], [one])
    M = Matrix.from_rows(Q, [[0, c], [1, 0]])
    if square:
        assert str(jordan_data(M)) == f"J({-2 ** 32},1) + J({2 ** 32},1)"
    else:
        with pytest.raises(DoesNotSplit):
            jordan_data(M)
    assert time.perf_counter() - start < 1.0


def test_rational_roots_of_a_4198_digit_cubic_are_fast():
    # (x + 1)(x^2 - P): no budget bounds the prime of the lifting, and the
    # root -1 is found beside the remainder x^2 - P
    import time
    P, one = PRIMORIAL_9767, Q.one()
    start = time.perf_counter()
    roots, rem = field_roots([Q.from_int(-P), Q.from_int(-P), one, one], Q)
    assert (roots, rem) == ([(-one, 1)], [Q.from_int(-P), Q.zero(), one])
    assert time.perf_counter() - start < 1.0


def test_field_roots_strip_a_zero_leading_coordinate():
    # the coordinate polynomial of 1 + z x in 1 is [1, 0]: a constant, no root
    z = Z4.zeta(1)
    assert field_roots([Z4.one(), z], Z4) == ([(z, 1)], [z])


def test_kronecker_factors_commute(rng):
    A = random_invertible(Q, 2, rng)
    B = random_invertible(Q, 2, rng)
    I2 = Matrix.identity(Q, 2)
    assert kronecker(A, I2) @ kronecker(I2, B) == kronecker(I2, B) @ kronecker(A, I2)
    assert kronecker(A, I2) @ kronecker(I2, B) == kronecker(A, B)


def test_kronecker_scalar_factor():
    B = Matrix.from_rows(Q, [[1, 2], [3, 4]])
    minus = Matrix.from_rows(Q, [[-1]])
    assert kronecker(minus, B) == -B


def _kronecker_oracle(A, B):
    """The entrywise products a*b, row (i, k) and column (j, l) for a = A_ij, b = B_kl."""
    return Matrix.from_rows(A.field, [[a * b for a in ra for b in rb]
                                      for ra in A.rows for rb in B.rows])


@pytest.mark.parametrize("field", [Q, F7, F49, Z3], ids=str)
def test_kronecker_with_a_1x1_identity_is_the_other_factor(field):
    rng = random.Random(SEED)
    one = Matrix.identity(field, 1)
    for d in (1, 2, 3):
        for kind in ENTRY_KINDS:
            M = entry_of_kind(field, d, rng, kind)
            # when both factors are the 1 x 1 identity, the right one is returned
            assert kronecker(one, M) is M and kronecker(M, one) is (one if M == one else M)
            assert M == _kronecker_oracle(one, M) == _kronecker_oracle(M, one)
            assert len(M.moved) == rank(M.minus_identity())   # a kept form, then shared
            assert kronecker(one, M).moved is M.moved
        wide = Matrix.from_rows(field, [[rng.randint(-3, 3) for _ in range(d + 1)]
                                        for _ in range(d)])
        assert kronecker(one, wide) is wide and kronecker(wide, one) is wide
        c = one.scale(2)                           # 1 x 1, not the identity: the product
        assert kronecker(c, wide) == _kronecker_oracle(c, wide) == wide.scale(2)
        assert kronecker(wide, c) == _kronecker_oracle(wide, c)


@pytest.mark.parametrize("field", [Q, F7, F49, Z3], ids=str)
def test_the_kept_image_basis_is_the_row_space_basis_of_m_minus_1(field):
    rng = random.Random(SEED)
    for d in (1, 2, 3):
        for kind in ENTRY_KINDS:
            for _ in range(3):
                M = entry_of_kind(field, d, rng, kind)
                basis = M.moved
                assert basis == row_space_basis(M.minus_identity())
                assert len(basis) == rank(M.minus_identity())
                assert M.moved is basis                  # eliminated once
                if kind == "identity":
                    assert basis == Matrix(field, ())
                if kind == "eigenvalue 1":
                    assert len(basis) < d


def test_kronecker_diag():
    D1 = Matrix.from_rows(Q, [[2, 0], [0, 3]])
    D2 = Matrix.from_rows(Q, [[5, 0], [0, 7]])
    K = kronecker(D1, D2)
    assert [K[k, k] for k in range(4)] == [Q.from_int(c) for c in (10, 14, 15, 21)]


def test_kronecker_trace_det(rng):
    A = random_invertible(Q, 2, rng)
    B = random_invertible(Q, 3, rng)
    K = kronecker(A, B)
    assert K.trace() == A.trace() * B.trace()
    assert K.det() == A.det() ** 3 * B.det() ** 2


def test_kronecker_jordan_examples():
    one = Q.one()
    beta = Q.from_int(5)
    assert kronecker_jordan(one, 1, beta, 3) == JordanData.of([(beta, 3)])
    a, b = Q.from_int(2), Q.from_int(3)
    assert kronecker_jordan(a, 2, b, 2) == JordanData.of([(a * b, 3), (a * b, 1)])
    assert kronecker_jordan(a, 2, b, 3) == JordanData.of([(a * b, 4), (a * b, 2)])


def test_kronecker_jordan_small_oracle():
    i = Z4.zeta()
    for n1 in range(1, 4):
        for n2 in range(n1, 4):
            for a in (Z4.one(), i, -Z4.one(), -i):
                for b in (i, -i):
                    lhs = kronecker_jordan(a, n1, b, n2)
                    rhs = jordan_data(kronecker(jordan_block(Z4, a, n1),
                                                jordan_block(Z4, b, n2)))
                    assert lhs == rhs


def test_rank_nullity(rng):
    for _ in range(10):
        M = Matrix.from_rows(Q, [[rng.randint(-2, 2) for _ in range(4)] for _ in range(3)])
        assert rank(M) + len(kernel_basis(M)) == M.nrows


def _random_matrix(field, m, n, rng):
    return Matrix.from_rows(field, [[random_scalar(field, rng) for _ in range(n)]
                                    for _ in range(m)])


@pytest.mark.parametrize("field", [Q, F7, Z12], ids=str)
def test_rank_is_the_row_space_dimension(field, rng):
    for k in range(5):
        M = _random_matrix(field, 4, k, rng) @ _random_matrix(field, k, 5, rng) \
            if k else Matrix.zero(field, 4, 5)
        assert rank(M) == len(row_space_basis(M)) <= k


@pytest.mark.parametrize("field", [Q, F7, Z4], ids=str)
def test_inverse_and_singular_matrix(field, rng):
    S = random_invertible(field, 3, rng)
    assert S @ S.inverse() == Matrix.identity(field, 3)
    singular = Matrix.from_rows(field, S.rows[:2] + (tuple(a + b for a, b in zip(*S.rows[:2])),))
    with pytest.raises(PreconditionError, match="singular"):
        singular.inverse()


@pytest.mark.parametrize("field", [Q, F7, Z4], ids=str)
def test_solve_coords_solves_many_vectors_at_once(field, rng):
    basis = row_space_basis(_random_matrix(field, 3, 5, rng))
    coeffs = _random_matrix(field, 4, len(basis), rng)
    vectors = coeffs @ basis
    assert solve_coords(basis, vectors) == coeffs
    empty = Matrix(field, ())
    assert solve_coords(basis, empty) == empty
    # a unit vector at a non-pivot column of the reduced basis lies outside the span
    j = next(j for j in range(5) if all(next(c for c, x in enumerate(b) if x) != j
                                        for b in basis.rows))
    outside = Matrix.from_rows(field, [[int(c == j) for c in range(5)]])
    assert solve_coords(basis, Matrix(field, vectors.payload + outside.payload)) is None
    assert solve_coords(basis, Matrix(field, outside.payload + vectors.payload)) is None
    assert all(solve_coords(basis, Matrix(field, (v,))) is not None for v in vectors.payload)
    assert solve_coords(basis, outside) is None
    assert solve_coords(empty, Matrix.zero(field, 2, 5)) == Matrix(field, ((), ()))
    assert solve_coords(empty, outside) is None


def _oracle_coords(basis, vectors):
    """Coordinates from one reduced elimination of [basis^T | vectors^T]."""
    m, ops = len(basis), basis.field.ops
    ech = _echelon(ops, zip(*(basis.payload + vectors.payload)))
    if ech.pivots and ech.pivots[-1] >= m:
        return None
    out = []
    for t in range(m, m + len(vectors)):
        x = [ops.zero] * m
        for row, pc in zip(ech.rows, ech.pivots):
            x[pc] = row[t]
        out.append(tuple(x))
    return Matrix(basis.field, tuple(out))


@pytest.mark.parametrize("field", [Q, F7, F49, Z4], ids=str)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32), m=st.integers(1, 4), extra=st.integers(0, 3),
       echelon=st.booleans())
def test_solve_coords_agrees_with_the_transposed_elimination(field, seed, m, extra, echelon):
    rng = random.Random(seed)
    n = m + extra
    drawn = _random_matrix(field, m, n, rng)
    while rank(drawn) < m:
        drawn = _random_matrix(field, m, n, rng)
    basis = row_space_basis(drawn)
    combos = _random_matrix(field, 3, m, rng) @ basis
    if not echelon and drawn != basis:
        # a basis that is not in reduced echelon form is refused
        with pytest.raises(PreconditionError, match="reduced echelon form"):
            solve_coords(drawn, combos)
    assert solve_coords(basis, combos) == _oracle_coords(basis, combos)
    for v in _random_matrix(field, 3, n, rng).payload:
        v = Matrix(field, (v,))
        assert solve_coords(basis, v) == _oracle_coords(basis, v)
    # a unit vector outside the span exists when m < n
    units = [Matrix(field, (u,)) for u in Matrix.identity(field, n).payload]
    outside = [u for u in units if _oracle_coords(basis, u) is None]
    assert len(outside) >= extra
    for u in outside:
        assert solve_coords(basis, Matrix(field, combos.payload + u.payload)) is None
    dependent = list(basis.payload)
    dependent.insert(rng.randint(0, m), combos.payload[0])
    with pytest.raises(PreconditionError, match="reduced echelon form"):
        solve_coords(Matrix(field, tuple(dependent)), combos)


@pytest.mark.parametrize("field", [Q, F7, F49], ids=str)
def test_solve_coords_refuses_a_basis_not_in_reduced_echelon_form(field):
    rref = Matrix.from_rows(field, [[1, 0, 2, 0, 3], [0, 1, 4, 0, 5], [0, 0, 0, 1, 6]])
    v = Matrix.from_rows(field, [[2, 3, 16, 1, 27]])
    assert solve_coords(rref, v) == Matrix.from_rows(field, [[2, 3, 1]])
    a, b, c = rref.payload
    two = field.from_int(2).payload
    bad = {
        "unsorted pivots": (b, a, c),
        "a pivot other than 1": (tuple(field.ops.mul(two, x) for x in a), b, c),
        "a pivot column not clear": (tuple(map(field.ops.add, a, b)), b, c),
        "a zero row": (a, b, c, (field.ops.zero,) * 5),
    }
    for rows in bad.values():
        with pytest.raises(PreconditionError, match="reduced echelon form"):
            solve_coords(Matrix(field, rows), v)


@pytest.mark.parametrize("op", ["__add__", "__sub__"])
def test_sum_and_difference_check_the_shapes(op):
    with pytest.raises(ValueError, match="dimension mismatch"):
        getattr(Matrix.identity(Q, 2), op)(Matrix.identity(Q, 3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        getattr(Matrix.zero(Q, 2, 3), op)(Matrix.zero(Q, 3, 2))


def test_product_checks_the_shapes_unless_the_left_factor_has_no_rows():
    with pytest.raises(ValueError, match="dimension mismatch in matrix product"):
        Matrix.zero(Q, 2, 3) @ Matrix.identity(Q, 2)
    # an empty basis has no column count: its product with anything is empty
    assert Matrix(Q, ()) @ Matrix.identity(Q, 3) == Matrix(Q, ())
    assert intersect_row_spaces(Matrix(Q, ()), Matrix.identity(Q, 2)) == Matrix(Q, ())


def test_matrix_field_mismatch():
    with pytest.raises(FieldMismatch):
        Matrix.identity(Q, 2) @ Matrix.identity(Z4, 2)


def test_commutant_basis_solves_the_equations(rng):
    for field in (Q, Z4, FieldDescriptor.finite(5)):
        for _ in range(4):
            As = [random_invertible(field, 3, rng) for _ in range(2)]
            S = random_invertible(field, 3, rng)
            Bs = [S.inverse() @ A @ S for A in As]
            basis = commutant_basis(As, Bs)
            assert basis
            for X in basis:
                assert all(A @ X == X @ B for A, B in zip(As, Bs))


def test_find_invertible_falls_back_to_prefix_sums():
    basis = [Matrix.from_rows(Q, [[1, 0], [0, 0]]), Matrix.from_rows(Q, [[0, 0], [0, 1]])]
    assert not any(S.is_invertible() for S in basis)
    assert find_invertible(basis) == Matrix.identity(Q, 2)
    assert find_invertible(basis[:1]) is None


def _random_matrix(field, m, n, rng, rank_at_most=None):
    """An m x n matrix with random entries, a third of them 0; of rank <= rank_at_most if given."""
    if rank_at_most is not None:
        return (_random_matrix(field, m, rank_at_most, rng)
                @ _random_matrix(field, rank_at_most, n, rng))
    return Matrix.from_rows(field, [[random_scalar(field, rng) if rng.random() < 2 / 3
                                     else field.zero() for _ in range(n)] for _ in range(m)])


def _kernel_shapes(field, rng):
    """(label, M): no rows, no columns, zero, full row rank, nrows >> ncols, and random ranks."""
    yield "no rows", Matrix(field, ())
    yield "no columns", Matrix(field, ((),) * 3)
    yield "zero", Matrix.zero(field, 4, 3)
    yield "full row rank", random_invertible(field, 3, rng)
    yield "full row rank, wide", Matrix(field, random_invertible(field, 3, rng).payload[:2])
    yield "nrows >> ncols", _random_matrix(field, 9, 2, rng)
    for k in range(1, 4):
        yield f"rank <= {k}", _random_matrix(field, 5, 4, rng, rank_at_most=k)
        yield f"random 6 x {k}", _random_matrix(field, 6, k, rng)


@pytest.mark.parametrize("field", [Q, F7, F49, Z3], ids=str)
def test_the_reduced_kernel_is_the_reduced_form_of_kernel_basis(field, rng):
    for label, M in _kernel_shapes(field, rng):
        K = reduced_kernel_basis(M)
        assert K == row_space_basis(kernel_basis(M)), label
        assert len(K) == M.nrows - rank(M), label
        if K and M.ncols:
            assert K @ M == Matrix.zero(field, len(K), M.ncols), label


def _intersection_oracle(B1, B2):
    """Two eliminations: the kernel of [B1; B2], then the row space of its B1-part times B1."""
    coefs = kernel_basis(Matrix(B1.field, B1.payload + B2.payload))
    return row_space_basis(Matrix(B1.field, tuple(c[:len(B1)] for c in coefs.payload)) @ B1)


@pytest.mark.parametrize("field", [Q, F7, F49, Z3], ids=str)
def test_intersect_row_spaces_equals_the_two_elimination_oracle(field, rng):
    n = 4
    for _ in range(6):
        B1 = _random_matrix(field, rng.randint(1, 4), n, rng, rank_at_most=rng.randint(1, 3))
        B2 = _random_matrix(field, rng.randint(1, 4), n, rng)
        # B2 repeats its first row and holds a combination of its rows, so it is dependent
        B2 = Matrix(field, B2.payload + B2.payload[:1]
                    + (B2 + B2).payload[:1] + (B1 + B1).payload[:1])
        reduced = row_space_basis(B1)
        cases = [(B1, B2), (B2, B1), (reduced, B2), (B1, reduced), (B2, B2),
                 (Matrix(field, ()), B2), (B1, Matrix(field, ())), (B1, Matrix.zero(field, 2, n))]
        for X, Y in cases:
            meet = intersect_row_spaces(X, Y)
            assert meet == _intersection_oracle(X, Y)
            assert meet == row_space_basis(meet)
            for Z in (X, Y):
                assert solve_coords(row_space_basis(Z), meet) is not None
