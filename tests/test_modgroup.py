import pytest

from midconv.errors import BadPrime, PreconditionError
from midconv.fixtures import m_tuple
from midconv.linalg import Matrix
from midconv.modgroup import (absolutely_irreducible, group_closure,
                              group_elements, invariant_symmetric_form,
                              o3_recognition, primitivity_bound, reduce_mod)
from midconv.scalars import FieldDescriptor
from midconv.tuples import MonodromyTuple

from conftest import Q, random_invertible

Z4 = FieldDescriptor.cyclotomic(4)


def test_reduce_mod_integer_matrices():
    Vb = reduce_mod(m_tuple(), 11)
    assert Vb.field == FieldDescriptor.finite(11)
    assert Vb.entries[0].rows[0][0].payload == (10,)   # -1 mod 11


def test_reduce_mod_zeta4():
    T = MonodromyTuple.make(Z4, [Matrix.from_rows(Z4, [["z"]]),
                                 Matrix.from_rows(Z4, [["z"]]),
                                 Matrix.from_rows(Z4, [["-1"]])])
    r5 = reduce_mod(T, 5)
    assert r5.field == FieldDescriptor.finite(5)
    assert r5.entries[0].rows[0][0].payload == (2,)    # smallest root of x^2+1 mod 5
    r7 = reduce_mod(T, 7)
    assert r7.field.k == 2 and r7.field.p == 7
    root = r7.entries[0].rows[0][0]
    assert root * root == r7.field.from_int(-1)


def test_reduce_mod_bad_prime():
    half = MonodromyTuple.make(Q, [Matrix.from_rows(Q, [["1/11"]]),
                                   Matrix.from_rows(Q, [["11"]])])
    with pytest.raises(BadPrime):
        reduce_mod(half, 11)
    T = MonodromyTuple.make(Z4, [Matrix.from_rows(Z4, [["-1"]]),
                                 Matrix.from_rows(Z4, [["-1"]])])
    with pytest.raises(BadPrime):
        reduce_mod(T, 2)


def test_reduce_mod_is_a_homomorphism(rng):
    for _ in range(5):
        A = random_invertible(Q, 2, rng)
        B = random_invertible(Q, 2, rng)
        T = MonodromyTuple.from_finite_entries(Q, [A @ B])
        red = reduce_mod(T, 13)
        TA = reduce_mod(MonodromyTuple.from_finite_entries(Q, [A]), 13)
        TB = reduce_mod(MonodromyTuple.from_finite_entries(Q, [B]), 13)
        assert red.entries[0] == TA.entries[0] @ TB.entries[0]


def test_group_closure_identity():
    assert group_closure([Matrix.identity(FieldDescriptor.finite(5), 2)]) == 1
    assert group_closure([]) == 1


def test_group_elements_needs_a_generator():
    with pytest.raises(PreconditionError, match="generator"):
        group_elements([])
    F5 = FieldDescriptor.finite(5)
    assert group_elements([Matrix.identity(F5, 2)]) == [Matrix.identity(F5, 2)]


def test_group_closure_cap():
    Vb = reduce_mod(m_tuple(), 11)
    assert group_closure(list(Vb.entries), cap=100) is None


def _pairwise_closure_order(gens, cap=10000):
    """Independent oracle: saturate the set under pairwise products."""
    elems = {Matrix.identity(gens[0].field, gens[0].nrows).rows}
    elems.update(g.rows for g in gens)
    field = gens[0].field
    while True:
        current = [Matrix(field, r) for r in elems]
        new = set(elems)
        for a in current:
            for b in current:
                new.add((a @ b).rows)
        if len(new) > cap:
            return None
        if len(new) == len(elems):
            return len(elems)
        elems = new


def test_group_closure_against_pairwise_oracle():
    Vb = reduce_mod(m_tuple(), 5)
    gens = list(Vb.entries)
    assert group_closure(gens) == _pairwise_closure_order(gens) == 240
    elements = group_elements(gens)
    assert len(elements) == len({g.rows for g in elements}) == 240


def test_closure_order_divides_gl_order():
    ell = 5
    Vb = reduce_mod(m_tuple(), ell)
    n = group_closure(list(Vb.entries))
    gl = (ell ** 3 - 1) * (ell ** 3 - ell) * (ell ** 3 - ell ** 2)
    assert gl % n == 0


def test_absolutely_irreducible_examples():
    Vb = reduce_mod(m_tuple(), 5)
    assert absolutely_irreducible(list(Vb.entries))
    F5 = FieldDescriptor.finite(5)
    diag = [Matrix.from_rows(F5, [[2, 0], [0, 3]]), Matrix.from_rows(F5, [[4, 0], [0, 2]])]
    assert not absolutely_irreducible(diag)
    assert not absolutely_irreducible([Matrix.from_rows(F5, [[2, 0], [0, 2]])])


def test_primitivity_of_m_tuple_mod_11():
    Vb = reduce_mod(m_tuple(), 11)
    bound, primitive = primitivity_bound(Vb)
    assert bound >= 3
    assert primitive


def test_primitivity_precondition():
    F5 = FieldDescriptor.finite(5)
    a = Matrix.from_rows(F5, [[2, 0], [0, 3]])
    T = MonodromyTuple.from_finite_entries(F5, [a, a])
    with pytest.raises(PreconditionError):
        primitivity_bound(T)


@pytest.mark.parametrize("ell", [5, 11, 13])
def test_o3_recognition(ell):
    Vb = reduce_mod(m_tuple(), ell)
    report = o3_recognition(list(Vb.entries), ell)
    assert report.order == 2 * ell * (ell * ell - 1)
    assert report.recognized == f"O3(F_{ell})"
    assert report.invariant_gram is not None
    G = report.invariant_gram
    assert G == G.transpose() and G.is_invertible()


def test_gram_is_preserved_by_whole_closure():
    ell = 5
    Vb = reduce_mod(m_tuple(), ell)
    gens = list(Vb.entries)
    G = invariant_symmetric_form(gens)
    for g in group_elements(gens):
        assert g @ G @ g.transpose() == G


@pytest.mark.parametrize("ell", [5, 11, 13])
def test_product_of_first_two_entries_sits_in_the_nonsplit_torus(ell):
    Vb = reduce_mod(m_tuple(), ell)
    M12 = Vb.entries[0] @ Vb.entries[1]
    ident = Matrix.identity(Vb.field, 3)
    assert M12.pow(ell + 1) == ident
    assert M12.pow(ell - 1) != ident


def test_closure_mod_3_order():
    # ell = 3 is outside the range the torus argument needs; record the outcome
    Vb = reduce_mod(m_tuple(), 3)
    assert group_closure(list(Vb.entries)) == 2 * 3 * (3 * 3 - 1)
