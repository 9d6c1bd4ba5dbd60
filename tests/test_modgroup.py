import hashlib
import operator
import random
from itertools import accumulate

import pytest

from midconv import modgroup
from midconv.errors import BadPrime, PreconditionError
from midconv.fixtures import TUPLE_FIXTURES, m_tuple
from midconv.linalg import Matrix
from midconv.modgroup import (_certified_order, absolutely_irreducible, group_closure,
                              group_elements, group_report, invariant_symmetric_form,
                              o3_recognition, primitivity_bound, reduce_mod)
from midconv.scalars import FieldDescriptor
from midconv.tuples import MonodromyTuple

from conftest import SEED, Q, check_witness, random_invertible

Z4 = FieldDescriptor.cyclotomic(4)


def test_reduce_mod_integer_matrices():
    Vb = reduce_mod(m_tuple(), 11)
    assert Vb.field == FieldDescriptor.finite(11)
    assert Vb.entries[0][0, 0] == Vb.field.from_int(-1)


def test_reduce_mod_zeta4():
    T = MonodromyTuple.make(Z4, [Matrix.from_rows(Z4, [["z"]]),
                                 Matrix.from_rows(Z4, [["z"]]),
                                 Matrix.from_rows(Z4, [["-1"]])])
    r5 = reduce_mod(T, 5)
    assert r5.field == FieldDescriptor.finite(5)
    assert r5.entries[0][0, 0] == r5.field.from_int(2)    # smallest root of x^2+1 mod 5
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


@pytest.mark.parametrize("name", ["V", "LstarL"])
@pytest.mark.parametrize("n, ell", [(3, 7), (3, 13), (4, 13)])
def test_reducing_an_embedded_tuple_is_reducing_the_tuple(name, n, ell):
    # Q is Q(zeta_1): one map reads the coordinates of both kinds, and the
    # embedding Q -> Q(zeta_n) commutes with the reduction
    T, field = TUPLE_FIXTURES[name](), FieldDescriptor.cyclotomic(n)
    embedded = MonodromyTuple.make(
        field, [Matrix.from_rows(field, [[field.from_fraction(x.coords()[0]) for x in row]
                                         for row in M.rows])
                for M in T.entries], T.points)
    assert reduce_mod(embedded, ell) == reduce_mod(T, ell)


def test_reduce_mod_maps_each_coordinate_over_its_denominator():
    # zeta_3 -> 2, the least root of t^2 + t + 1 in F_7, so (1 + zeta_3) / 2 -> 3 / 2 = 5
    Z3 = FieldDescriptor.cyclotomic(3)
    x = Matrix.from_rows(Z3, [["1/2*z+1/2"]])
    T = MonodromyTuple.from_finite_entries(Z3, [x])
    assert reduce_mod(T, 7).entries[0] == Matrix.from_rows(FieldDescriptor.finite(7), [[5]])


def test_reduce_mod_a_large_prime_is_fast():
    # zeta_3 goes to the first root of t^2 + t + 1 in F_{l^2}, (-1 + sqrt(-3)) / 2; a scan
    # of F_{l^2} for it took 2.3 s at l = 1013 and did not end in 20 s at l = 10007
    import time
    Z3, Z12 = FieldDescriptor.cyclotomic(3), FieldDescriptor.cyclotomic(12)
    T3 = MonodromyTuple.make(Z3, [Matrix.from_rows(Z3, [["z"]]),
                                  Matrix.from_rows(Z3, [["-z-1"]])])
    T12 = MonodromyTuple.make(Z12, [Matrix.from_rows(Z12, [["z"]]),
                                    Matrix.from_rows(Z12, [["z^11"]])])
    start = time.perf_counter()
    assert [str(M) for M in reduce_mod(T3, 10007).entries] == ["3194*t+5003", "6813*t+5003"]
    assert [str(M) for M in reduce_mod(T12, 1000003).entries] == ["250662*t", "455956*t"]
    assert time.perf_counter() - start < 1.0


def test_reduce_mod_into_a_quadratic_field_skips_the_prime_field_unbuilt():
    # 1000000007 is 2 mod 3, so zeta_3 needs F_{l^2}; a walk that builds the l elements of
    # F_l before its first candidate would take minutes here
    import time
    Z3 = FieldDescriptor.cyclotomic(3)
    T3 = MonodromyTuple.make(Z3, [Matrix.from_rows(Z3, [["z"]]),
                                  Matrix.from_rows(Z3, [["-z-1"]])])
    start = time.perf_counter()
    assert [str(M) for M in reduce_mod(T3, 1000000007).entries] == [
        "370415416*t+500000003", "629584591*t+500000003"]
    assert time.perf_counter() - start < 1.0


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
    text = [[[str(x) for x in row] for row in g.rows] for g in elements]
    return hashlib.sha256(repr(text).encode()).hexdigest()


def _monomial_f49():
    """<diag(t, 1), swap> over F_49, t of order 12: the monomial group of order 288."""
    F49 = FieldDescriptor.finite(7, 2)
    t, one, zero = F49.gen(), F49.one(), F49.zero()
    return [Matrix.from_rows(F49, [[t, zero], [zero, one]]),
            Matrix.from_rows(F49, [[zero, one], [one, zero]])]


_CYCLE = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
_SWAP = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
_SIGN = [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]
_FLIP = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]


def _signed_permutations(field=Q):
    """Signed 3 x 3 permutation matrices: order 2^3 * 3! = 48, S_4 x {+-1}."""
    return [Matrix.from_rows(field, rows) for rows in (_CYCLE, _SWAP, _SIGN)]


def _monomial_z4():
    """<diag(zeta_4, 1), swap> over Q(zeta_4): order 2 * 4^2 = 32."""
    return [Matrix.from_rows(Z4, [["z", 0], [0, 1]]), Matrix.from_rows(Z4, [[0, 1], [1, 0]])]


# the closure order of group_elements is part of its contract (insertion order of
# the BFS); these digests pin it, element by element, by the printed text of the entries
@pytest.mark.parametrize("gens, order, digest", [
    (lambda: list(reduce_mod(m_tuple(), 3).entries), 48,
     "52438568af3673f92aa11dde967aa0c098191b8676695e58281ab9948108efb9"),
    (lambda: list(reduce_mod(m_tuple(), 5).entries), 240,
     "90b11f29e8c56e9c2ea6290502a90a7cae8a95fdb101536a1b54e56e5c666864"),
    (lambda: list(reduce_mod(m_tuple(), 7).entries), 336,
     "96facc19b9aa503ca747a27481c49bfad9a8ed38cf656cce058458479a1ffcfa"),
    (lambda: list(reduce_mod(m_tuple(), 11).entries), 2640,
     "dd825e9c31ca48dc63737a8de53a5fb744420dc001557b8b95ce554152a3d550"),
    (_monomial_f49, 288,
     "98495fc9cbb5a471776fd1a76e0259a317492d870e42ea6314436db31226de4a"),
    (_signed_permutations, 48,
     "4e68670db1d8a20878fd6e5c75204e054808df7238bca35c50dc775281cf99bc"),
    (_monomial_z4, 32,
     "791b398d8aed8ab70a9b97aa0b9db83b689e519234314d94ffce5f7c4d23aebc"),
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
    G = invariant_symmetric_form(gens).witness
    for g in group_elements(gens):
        assert g @ G @ g.transpose() == G


@pytest.mark.parametrize("ell", [5, 11, 13])
def test_product_of_first_two_entries_sits_in_the_nonsplit_torus(ell):
    Vb = reduce_mod(m_tuple(), ell)
    M12 = Vb.entries[0] @ Vb.entries[1]
    ident = Matrix.identity(Vb.field, 3)
    powers = list(accumulate([M12] * (ell + 1), operator.matmul))    # M12^1 .. M12^(ell+1)
    assert powers[ell] == ident
    assert powers[ell - 2] != ident


def test_closure_mod_3_order():
    # ell = 3 is outside the range the torus argument needs; record the outcome
    Vb = reduce_mod(m_tuple(), 3)
    assert group_closure(list(Vb.entries)) == 2 * 3 * (3 * 3 - 1)


def _v_mod(ell):
    return list(reduce_mod(m_tuple(), ell).entries)


def _certificate(gens, ell):
    return _certified_order(gens, invariant_symmetric_form(gens).witness, ell)


@pytest.mark.parametrize("ell", [7, 11, 13, 17, 19, 23, 29, 31])
def test_the_certified_order_of_v_is_the_closure_order(ell):
    gens = _v_mod(ell)
    report = o3_recognition(gens, ell)
    assert _certificate(gens, ell) == report.order == group_closure(gens)
    assert report.absolutely_irreducible is True
    index = report.order // (ell * (ell * ell - 1) // 2)
    assert report.recognized == (f"O3(F_{ell})" if index == 4 else None)


def _seeded_words(entries, rng):
    """Two words of 1 to 4 of the entries, each factor negated with chance 0.3."""
    words = []
    for _ in range(2):
        w = Matrix.identity(entries[0].field, 3)
        for _ in range(rng.randint(1, 4)):
            f = rng.choice(entries)
            w = w @ (-f if rng.random() < 0.3 else f)
        words.append(w)
    return words


def test_the_certified_order_of_seeded_subgroups_is_the_closure_order():
    # the squares have det 1 and a square spinor norm, so indices 1, 2 and 4 all occur
    rng, indices = random.Random(SEED), set()
    for ell in (7, 11, 13, 17, 19, 23):
        entries = _v_mod(ell)
        for _ in range(6):
            words = _seeded_words(entries, rng)
            for gens in (words, [w @ w for w in words]):
                order = _certificate(gens, ell)
                if order is None:
                    assert not absolutely_irreducible(gens)
                    continue
                assert order == group_closure(gens)
                indices.add(order // (ell * (ell * ell - 1) // 2))
    assert indices == {1, 2, 4}


def _over(ell, *int_rows):
    return [Matrix.from_rows(FieldDescriptor.finite(ell), rows) for rows in int_rows]


def _icosahedral(ell):
    """<3-cycle, diag(1,-1,-1), a rotation of order 5> = A_5 in SO_3(F_ell), 5 a square."""
    half, root5 = pow(2, -1, ell), next(x for x in range(ell) if x * x % ell == 5)
    phi = (1 + root5) * half
    five = [[1, -phi, phi - 1], [phi, phi - 1, -1], [phi - 1, 1, phi]]
    return _over(ell, _CYCLE, _FLIP, [[half * c for c in row] for row in five])


@pytest.mark.parametrize("gens, ell, order", [
    (lambda: [g @ g for g in _v_mod(13)], 13, 13),
    (lambda: _signed_permutations(FieldDescriptor.finite(13)), 13, 48),
    (lambda: _over(13, _CYCLE, _FLIP), 13, 12),
    (lambda: _icosahedral(11), 11, 60),
    (lambda: _v_mod(3), 3, 48),
    (lambda: _v_mod(5), 5, 240),
], ids=["fixed line: squares of V mod 13", "S_4: signed permutations", "A_4",
        "A_5 mod 11", "V mod 3", "V mod 5"])
def test_the_certificate_does_not_conclude_and_the_closure_answers(gens, ell, order):
    gens = gens()
    assert _certificate(gens, ell) is None
    report = o3_recognition(gens, ell)
    assert report.order == group_closure(gens) == order
    assert report.absolutely_irreducible == absolutely_irreducible(gens)


def test_a_certified_report_needs_neither_the_closure_nor_the_commutant(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the certificate should have concluded")
    monkeypatch.setattr(modgroup, "group_closure", refuse)
    monkeypatch.setattr(modgroup, "absolutely_irreducible", refuse)
    for cap in (1, 100000):
        report = o3_recognition(_v_mod(19), 19, cap=cap)
        assert (report.order, report.recognized, report.absolutely_irreducible) == (
            13680, "O3(F_19)", True)


@pytest.mark.parametrize("gens", [
    lambda: _v_mod(13),
    lambda: [Matrix.identity(FieldDescriptor.finite(19, 2), 3)],
    lambda: [Matrix.identity(Q, 3)],
], ids=["F_13", "F_19^2", "Q"])
def test_o3_recognition_needs_generators_over_f_ell(gens):
    # the spinor norms are Legendre symbols mod ell: V mod 13 must not pass as ell = 19
    with pytest.raises(PreconditionError, match="over F_19"):
        o3_recognition(gens(), 19)


@pytest.mark.parametrize("ell", [2, 9])
def test_o3_recognition_needs_an_odd_prime(ell):
    gens = [Matrix.identity(FieldDescriptor.finite(2 if ell == 2 else 3), 3)]
    with pytest.raises(PreconditionError, match="odd prime"):
        o3_recognition(gens, ell)


# the swap and diagonal groups have no form that the scan finds
@pytest.mark.parametrize("gens, recognized", [
    (lambda: _over(2, _SWAP, _SWAP), None),
    (lambda: _over(5, [[2, 0, 0], [0, 1, 0], [0, 0, 1]], [[3, 0, 0], [0, 1, 0], [0, 0, 1]]),
     None),
    (lambda: _over(7, [[1, 0, 0], [0, 1, 0], [0, 0, -1]]), None),
    (lambda: _v_mod(3), "O3(F_3)"),
    (lambda: _v_mod(5), "O3(F_5)"),
    (lambda: _v_mod(13), "O3(F_13)"),
    (lambda: _over(5, [[2, 0], [0, 1]]), None),
], ids=["swap over F_2", "diag(2,1,1) over F_5", "diag(1,1,-1) over F_7", "V mod 3",
        "V mod 5", "V mod 13", "diag(2,1) over F_5"])
def test_the_group_report_agrees_with_the_direct_calls(gens, recognized):
    gens = gens()
    report = group_report(gens)
    assert report.order == group_closure(gens)
    assert report.absolutely_irreducible == absolutely_irreducible(gens)
    form = invariant_symmetric_form(gens)
    assert report.invariant_gram == form.witness
    check_witness(form, gens)
    assert report.recognized == recognized
    ell = gens[0].field.p
    assert (recognized is not None) == (report.invariant_gram is not None
                                        and report.order == 2 * ell * (ell * ell - 1))


def test_group_report_needs_a_generator():
    with pytest.raises(PreconditionError, match="generator"):
        group_report([])


def test_o3_recognition_checks_the_cap_before_the_certificate():
    with pytest.raises(PreconditionError, match="cap"):
        o3_recognition(_v_mod(19), 19, cap=0)
