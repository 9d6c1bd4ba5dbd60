import hashlib

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


def test_reduce_mod_bad_prime_over_a_cyclotomic_field():
    # a vanishing denominator is the same BadPrime as over Q
    Z3 = FieldDescriptor.cyclotomic(3)
    T = MonodromyTuple.from_finite_entries(Z3, [Matrix.from_rows(Z3, [["1/7"]])])
    with pytest.raises(BadPrime, match="denominator 7 vanishes mod 7"):
        reduce_mod(T, 7)


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


def test_group_closure_cap_boundary():
    gens = list(reduce_mod(m_tuple(), 5).entries)       # order 240
    assert group_closure(gens, cap=239) is None
    assert group_elements(gens, cap=239) is None
    assert group_closure(gens, cap=240) == 240
    assert len(group_elements(gens, cap=240)) == 240


@pytest.mark.parametrize("cap", [0, -3])
def test_group_closure_cap_must_be_positive(cap):
    ident = Matrix.identity(FieldDescriptor.finite(5), 2)
    with pytest.raises(PreconditionError, match="cap"):
        group_closure([ident], cap=cap)
    with pytest.raises(PreconditionError, match="cap"):
        group_closure([], cap=cap)
    with pytest.raises(PreconditionError, match="cap"):
        group_elements([ident], cap=cap)
    assert group_closure([ident], cap=1) == 1


def _elements_digest(elements):
    payloads = [[[x.payload for x in row] for row in g.rows] for g in elements]
    return hashlib.sha256(repr(payloads).encode()).hexdigest()


def _monomial_f49():
    """<diag(t, 1), swap> over F_49, t of order 12: the monomial group of order 288."""
    F49 = FieldDescriptor.finite(7, 2)
    t, one, zero = F49.gen(), F49.one(), F49.zero()
    return [Matrix.from_rows(F49, [[t, zero], [zero, one]]),
            Matrix.from_rows(F49, [[zero, one], [one, zero]])]


def _signed_permutations():
    """Signed 3 x 3 permutation matrices over Q: order 2^3 * 3! = 48."""
    cycle = Matrix.from_rows(Q, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    swap = Matrix.from_rows(Q, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    sign = Matrix.from_rows(Q, [[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    return [cycle, swap, sign]


def _monomial_z4():
    """<diag(zeta_4, 1), swap> over Q(zeta_4): order 2 * 4^2 = 32."""
    return [Matrix.from_rows(Z4, [["z", 0], [0, 1]]), Matrix.from_rows(Z4, [[0, 1], [1, 0]])]


# the closure order of group_elements is part of its contract (insertion order of
# the BFS); these digests pin it, element by element
@pytest.mark.parametrize("gens, order, digest", [
    (lambda: list(reduce_mod(m_tuple(), 3).entries), 48,
     "87301835287435811fc51fbd378ea817b1e2266ccf4009703967828eeef79721"),
    (lambda: list(reduce_mod(m_tuple(), 5).entries), 240,
     "61fb8462f20f71fda1c97120c7ccd86658a816ada414497c399fd8b2b7149be6"),
    (lambda: list(reduce_mod(m_tuple(), 7).entries), 336,
     "5d6a107a729c80cfe48d26296c759a23279c670b71e6a74126d31750280399f5"),
    (lambda: list(reduce_mod(m_tuple(), 11).entries), 2640,
     "749919579c7228139f201b585c334163e413a1910b0373a64d006cfc5930148e"),
    (_monomial_f49, 288,
     "bbbefa343ee1ff4039c61a2d9a11e86a16e9aab46a5202d46ae367415b3dccbd"),
    (_signed_permutations, 48,
     "5c06f70e9ccac34ecb5830c860ea048920e28098d79504d3361c94d7f0e8b5ba"),
    (_monomial_z4, 32,
     "116c8b5f26295aba220571644b3d490d1c710eaf3d8b173c019fe8e7f55ce06a"),
], ids=["V mod 3", "V mod 5", "V mod 7", "V mod 11", "monomial F_49",
        "signed permutations Q", "monomial Q(zeta_4)"])
def test_group_elements_order_is_pinned(gens, order, digest):
    elements = group_elements(gens())
    assert len(elements) == order
    assert _elements_digest(elements) == digest


def _three_in_gl1_f7():
    """<(3)> in GL_1(F_7): 3 is a generator of F_7^*, order 6."""
    return [Matrix.from_rows(FieldDescriptor.finite(7), [[3]])]


def test_closure_of_a_1x1_generator_lists_its_powers():
    # one row id per element: the key must stay a 1-tuple, not the bare id
    F7 = FieldDescriptor.finite(7)
    elements = group_elements(_three_in_gl1_f7())
    assert [g.rows[0][0] for g in elements] == [F7.from_int(k) for k in (1, 3, 2, 6, 4, 5)]


@pytest.mark.parametrize("gens, order", [(_three_in_gl1_f7, 6), (_monomial_f49, 288)],
                         ids=["<3> in GL_1(F_7)", "monomial F_49"])
def test_group_closure_cap_boundary_on_one_row_and_over_f49(gens, order):
    assert group_closure(gens(), cap=order - 1) is None
    assert group_elements(gens(), cap=order - 1) is None
    assert group_closure(gens(), cap=order) == order
    assert len(group_elements(gens(), cap=order)) == order


def _pairwise_closure_order(gens, cap=10000):
    """Independent oracle: saturate the set under pairwise products."""
    elems = {Matrix.identity(gens[0].field, gens[0].nrows).rows}
    elems.update(g.rows for g in gens)
    field = gens[0].field
    while True:
        current = [Matrix.from_rows(field, r) for r in elems]
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


@pytest.mark.parametrize("gens, order", [(_signed_permutations, 48), (_monomial_z4, 32)],
                         ids=["signed permutations over Q", "monomial over Q(zeta_4)"])
def test_group_closure_over_characteristic_zero_against_oracle(gens, order):
    gens = gens()
    assert group_closure(gens) == _pairwise_closure_order(gens) == order
    elements = group_elements(gens)
    assert len({g.rows for g in elements}) == order
    assert elements[0] == Matrix.identity(gens[0].field, gens[0].nrows)


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
