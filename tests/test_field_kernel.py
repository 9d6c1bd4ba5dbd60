"""The field kernel: interned descriptors, the field-checked boundary of the
payload loops, and det by elimination."""

import pickle

import pytest

from midconv.errors import FieldMismatch
from midconv.linalg import Matrix, _echelon, char_poly, rank, solve_coords
from midconv.modgroup import group_closure
from midconv.scalars import FieldDescriptor, Scalar

from conftest import F7, Q, random_scalar

Z12 = FieldDescriptor.cyclotomic(12)
F25 = FieldDescriptor.finite(5, 2)


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


# -- the field-checked boundary of the payload loops --------------------------------

def _bad_matrices(field):
    """(mixed-field matrix, matrix with an int entry), both 2x2 over `field`."""
    other = Q if field is not Q else F7
    one = field.one()
    mixed = Matrix(field, ((one, other.one()), (one, one)))
    with_int = Matrix(field, ((one, 1), (one, one)))
    return mixed, with_int


@pytest.mark.parametrize("field", [Q, F7], ids=str)
def test_payload_loops_reject_foreign_entries(field):
    good = Matrix.identity(field, 2)
    mixed, with_int = _bad_matrices(field)
    for bad, exc in ((mixed, FieldMismatch), (with_int, TypeError)):
        with pytest.raises(exc):
            bad @ good
        with pytest.raises(exc):
            good @ bad
        with pytest.raises(exc):
            Matrix(field, good.rows[:1]) @ bad
        with pytest.raises(exc):
            Matrix(field, bad.rows[:1]) @ good
        with pytest.raises(exc):
            _echelon(bad.rows)
        with pytest.raises(exc):
            rank(bad)
        with pytest.raises(exc):
            solve_coords(good.rows, [bad.rows[0]])
        with pytest.raises(exc):
            solve_coords(bad.rows, [good.rows[0]])
        with pytest.raises(exc):
            group_closure([good, bad])


def test_products_across_declared_fields_raise():
    with pytest.raises(FieldMismatch):
        Matrix.identity(Q, 2) @ Matrix.identity(F7, 2)
    with pytest.raises(FieldMismatch):
        group_closure([Matrix.identity(F7, 2), Matrix.identity(FieldDescriptor.finite(11), 2)])


# -- det by elimination ------------------------------------------------------------

@pytest.mark.parametrize("field", [Q, Z12, F7, F25], ids=str)
def test_det_agrees_with_the_characteristic_polynomial(field, rng):
    for n in range(0, 6):
        M = Matrix(field, tuple(tuple(random_scalar(field, rng) for _ in range(n))
                                for _ in range(n)))
        cp0 = char_poly(M)[0]
        assert M.det() == (cp0 if n % 2 == 0 else -cp0)


def test_det_sign_of_a_permutation_and_singular_matrices():
    P = Matrix.from_rows(Q, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert P.det() == Q.one()
    assert Matrix.from_rows(Q, [[0, 1], [1, 0]]).det() == -Q.one()
    assert Matrix.from_rows(Q, [[1, 2], [2, 4]]).det() == Q.zero()
    assert Matrix.zero(F7, 3, 3).det() == F7.zero()
    assert Matrix.identity(Q, 0).det() == Q.one()
