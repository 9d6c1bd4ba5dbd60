import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from midconv import tuples
from midconv.convolution import ConvolutionInput, circ_tuple, sl_demo
from midconv.errors import ParseError, PreconditionError
from midconv.fixtures import kummer_minus_one, l_star_l, m_tuple, quadratic_tuple
from midconv.linalg import (Matrix, commutant_basis, find_invertible, intersect_row_spaces, rank,
                            row_space_basis, solve_coords)
from midconv.scalars import FieldDescriptor
from midconv.tuples import (BraidWord, MonodromyTuple, braid_act,
                            cohomology_spaces, equivalence, parabolic_rank_formula,
                            parse_braid_word, phi_transport,
                            pure_braid, quotient_basis, slot_images, sort_points)
from midconv.tupleio import load_tuple, save_tuple

from conftest import F7, Q, SEED, random_invertible, random_scalar, random_tuple
from test_linalg import _oracle_coords

Z3 = FieldDescriptor.cyclotomic(3)
Z4 = FieldDescriptor.cyclotomic(4)
F49 = FieldDescriptor.finite(7, 2)


def scalar_tuple(*values, points=None):
    return MonodromyTuple.from_finite_entries(
        Q, [Matrix.from_rows(Q, [[v]]) for v in values], points)


def phi_matrix(T, w):
    """The linear automorphism Phi(T, w) of V^{r+1}: its rows are the images of the e_k."""
    return phi_transport(T, w, Matrix.identity(T.field, len(T.entries) * T.dim))[0]


def _row_times(v, M):
    """The row vector v M, as a one-row Matrix product."""
    return (Matrix.from_rows(M.field, [v]) @ M).rows[0]


def test_product_relation_enforced():
    with pytest.raises(PreconditionError):
        MonodromyTuple.make(Q, [Matrix.from_rows(Q, [[2]]), Matrix.from_rows(Q, [[1]])])


def test_from_finite_entries_checks_the_product_it_formed(rng, monkeypatch):
    finite = [random_invertible(Q, 2, rng) for _ in range(3)]
    T = MonodromyTuple.from_finite_entries(Q, finite, [0, 1, 2])
    assert T == MonodromyTuple.make(Q, T.entries, [0, 1, 2])
    # a wrong entry at infinity is caught by the prod @ inf == 1 check
    monkeypatch.setattr(Matrix, "inverse", lambda self: self)
    with pytest.raises(PreconditionError, match="product relation"):
        MonodromyTuple.from_finite_entries(Q, finite)


def test_a_tuple_without_entries_is_a_precondition_error():
    with pytest.raises(PreconditionError, match="at least one entry"):
        MonodromyTuple.make(Q, [])
    with pytest.raises(PreconditionError, match="at least one entry"):
        MonodromyTuple.from_finite_entries(Q, [])


def test_points_validated():
    with pytest.raises(PreconditionError):
        scalar_tuple(-1, -1, points=[1, 1])
    with pytest.raises(PreconditionError):
        scalar_tuple(-1, -1, points=[1])


def test_braid_act_formula(rng):
    a, b, c = (random_invertible(Q, 2, rng) for _ in range(3))
    T = MonodromyTuple.from_finite_entries(Q, [a, b, c])
    out = braid_act(T, BraidWord(3, ((1, 1),)))
    assert out.entries[0] == b
    assert out.entries[1] == b.inverse() @ a @ b
    assert out.entries[2] == c
    assert out.entries[3] == T.entries[3]


def test_braid_act_moves_points_and_checks_r(rng):
    T = random_tuple(Q, 2, 3, rng, with_points=True)
    out = braid_act(T, BraidWord(3, ((2, -1),)))
    assert out.points == (T.points[0], T.points[2], T.points[1])
    with pytest.raises(PreconditionError, match="braid word has r=2"):
        braid_act(T, BraidWord(2, ((1, 1),)))


def test_braid_act_inverse_undoes(rng):
    T = random_tuple(Q, 2, 3, rng)
    w = BraidWord(3, ((2, 1),))
    assert braid_act(braid_act(T, w), w.inverse()).entries == T.entries


def test_braid_relations(rng):
    for _ in range(5):
        T = random_tuple(Q, 2, 3, rng)
        w1 = parse_braid_word("b1 b2 b1", 3)
        w2 = parse_braid_word("b2 b1 b2", 3)
        assert braid_act(T, w1).entries == braid_act(T, w2).entries
    for _ in range(3):
        T = random_tuple(Q, 2, 4, rng)
        w1 = parse_braid_word("b1 b3", 4)
        w2 = parse_braid_word("b3 b1", 4)
        assert braid_act(T, w1).entries == braid_act(T, w2).entries


def test_braid_word_grammar():
    w = parse_braid_word("b2 b1 b1 b2^-1", 3)
    assert w.letters == ((2, 1), (1, 1), (1, 1), (2, -1))
    assert str(w) == "b2 b1 b1 b2^-1"
    with pytest.raises(ParseError):
        parse_braid_word("x1", 3)
    with pytest.raises(ParseError):
        parse_braid_word("b9", 3)


def test_pure_braid_expansion():
    assert str(pure_braid(1, 2, 4)) == "b1 b1"
    assert str(pure_braid(1, 3, 4)) == "b2 b1 b1 b2^-1"


def test_pure_braid_alternate_form(rng):
    # (beta_i^2)^(beta_{i+1}^-1...beta_{j-1}^-1) = (beta_{j-1}^2)^(beta_{j-2}...beta_i)
    r = 4
    for (i, j) in [(1, 3), (1, 4), (2, 4)]:
        alt_core = BraidWord(r, ((j - 1, 1), (j - 1, 1)))
        alt_conj = BraidWord(r, tuple((k, 1) for k in range(j - 2, i - 1, -1)))
        alt = alt_core.conjugate_by(alt_conj)
        for _ in range(3):
            T = random_tuple(Q, 2, r, rng)
            assert braid_act(T, pure_braid(i, j, r)).entries == braid_act(T, alt).entries


def test_phi_rank_one_formula(rng):
    a, b, c = 3, 5, Fraction(1, 15)
    T = scalar_tuple(a, b, c)
    big = phi_matrix(T, BraidWord(3, ((1, 1),)))
    v = (Q.from_int(7), Q.from_int(11), Q.from_int(13), Q.from_int(17))
    img = _row_times(v, big)
    # (v1, v2, v3, v4) -> (v2, v2 (1 - a) + v1 b, v3, v4)
    assert img[0] == Q.from_int(11)
    assert img[1] == Q.from_fraction(11 * (1 - a) + 7 * b)
    assert img[2] == Q.from_int(13) and img[3] == Q.from_int(17)


def test_phi_cocycle_rule(rng):
    for _ in range(3):
        T = random_tuple(Q, 2, 3, rng)
        w = BraidWord(3, ((1, 1),))
        P1, T1 = phi_matrix(T, w), braid_act(T, w)
        P2 = phi_matrix(T1, w)
        P12 = phi_matrix(T, w * w)
        assert P1 @ P2 == P12


def _phi_gen_blocks(T, i):
    """Reference oracle: Phi(T, beta_i) as a dense block matrix on V^{r+1}."""
    r1, d, field = len(T.entries), T.dim, T.field
    ident = Matrix.identity(field, d)
    Ti, Ti1 = T.entries[i - 1], T.entries[i]
    mixed = ident - (Ti1.inverse() @ Ti @ Ti1)
    zero = field.zero()
    rows = []
    for bi in range(r1):
        for rr in range(d):
            row = [zero] * (r1 * d)
            if bi == i - 1:
                row[i * d: (i + 1) * d] = Ti1.rows[rr]
            elif bi == i:
                row[(i - 1) * d: i * d] = ident.rows[rr]
                row[i * d: (i + 1) * d] = mixed.rows[rr]
            else:
                row[bi * d: (bi + 1) * d] = ident.rows[rr]
            rows.append(tuple(row))
    return Matrix.from_rows(field, rows)


def _phi_word_oracle(T, w):
    """(Phi(T, w), entries of T^w): a product of _phi_gen_blocks, moves by hand."""
    entries = list(T.entries)
    big = Matrix.identity(T.field, len(entries) * T.dim)
    for i, e in w.letters:
        a, b = entries[i - 1], entries[i]
        if e > 0:
            step = _phi_gen_blocks(MonodromyTuple.make(T.field, entries), i)
            entries[i - 1], entries[i] = b, b.inverse() @ a @ b
        else:
            entries[i - 1], entries[i] = a @ b @ a.inverse(), a
            step = _phi_gen_blocks(MonodromyTuple.make(T.field, entries), i).inverse()
        big = big @ step
    return big, tuple(entries)


def _pair_cases(field, rng, i):
    """r = 3 tuples whose slots i, i+1 hold: a random pair, a scalar c*1 in
    slot i, one in slot i+1, a commuting pair without one, and a
    non-commuting pair with constant diagonals."""
    one, zero = field.one(), field.zero()
    c = next(x for x in iter(lambda: random_scalar(field, rng), None) if x)
    scalar = Matrix.identity(field, 2).scale(c)
    unipotent = Matrix.from_rows(field, [[one, one], [zero, one]])
    for pair in (None, "scalar i", "scalar i+1", "commuting", "unipotents"):
        finite = [random_invertible(field, 2, rng) for _ in range(3)]
        if pair == "scalar i":
            finite[i - 1] = scalar
        elif pair == "scalar i+1":
            finite[i] = scalar
        elif pair == "commuting":
            finite[i - 1], finite[i] = unipotent, unipotent @ unipotent
        elif pair == "unipotents":
            finite[i - 1], finite[i] = unipotent, unipotent.transpose()
        yield pair, MonodromyTuple.from_finite_entries(field, finite)


@pytest.mark.parametrize("field", [Q, F7, Z4, F49], ids=str)
def test_phi_generators_match_block_oracle(field, rng):
    # a scalar entry in slot i or i+1 makes the letter a swap of the entries;
    # any other pair, commuting or not, takes the general Hurwitz move
    for i in (1, 2):
        for pair, T in _pair_cases(field, rng, i):
            b = BraidWord(3, ((i, 1),))
            assert phi_matrix(T, b) == _phi_gen_blocks(T, i)
            prev = braid_act(T, b.inverse())
            assert phi_matrix(T, b.inverse()) == _phi_gen_blocks(prev, i).inverse()
            for w in (b, b.inverse()):
                moved = braid_act(T, w).entries
                assert moved == _phi_word_oracle(T, w)[1]
                if pair in ("scalar i", "scalar i+1", "commuting"):
                    assert moved[i - 1:i + 1] == (T.entries[i], T.entries[i - 1])
                if pair in ("scalar i", "scalar i+1"):
                    assert moved[i - 1] is T.entries[i] and moved[i] is T.entries[i - 1]


def test_loop_words_of_a_kummer_convolution_give_back_the_tensor_tuple(rng):
    # the right tuple has rank one, so each of its entries in C is c*1 and
    # every letter of a loop word delta_{i,j} acts on a commuting pair
    from midconv.convolution import _delta_word
    left = random_tuple(Q, 2, 3, rng, with_points=True)
    C = circ_tuple(ConvolutionInput(left, scalar_tuple(-1, 2, points=[20, 30])))
    spaces = cohomology_spaces(C)
    _ext, quot = quotient_basis(spaces.u_basis, spaces.e_basis)
    assert quot
    for j in (1, 2):
        for i in (1, 2, 3):
            w = _delta_word(i, j, 3, 5)
            images, TW = phi_transport(C, w, quot)
            assert TW is C
            big, entries = _phi_word_oracle(C, w)
            assert entries == C.entries
            assert images == quot @ big


def test_phi_transport_returns_a_new_checked_tuple_when_the_entries_move(rng):
    T = random_tuple(Q, 2, 3, rng, with_points=True)
    w = parse_braid_word("b1 b2^-1", 3)
    images, TW = phi_transport(T, w, Matrix(Q, ()))
    assert TW is not T and TW.entries == _phi_word_oracle(T, w)[1]
    # the same entry objects in another order of points is not T either
    two = Matrix.from_rows(Q, [[2]])
    S = MonodromyTuple.make(Q, [two, two, Matrix.from_rows(Q, [[Fraction(1, 4)]])], [0, 1])
    SW = phi_transport(S, BraidWord(2, ((1, 1),)), Matrix(Q, ()))[1]
    assert SW is not S and SW.entries == S.entries and SW.points == (1, 0)


@pytest.mark.parametrize("field", [Q, F7, Z4], ids=str)
def test_phi_of_inverse_word_is_inverse(field, rng):
    T = random_tuple(field, 2, 4, rng)
    ident = Matrix.identity(field, 5 * 2)
    for text in ("b1^-1", "b2 b1^-1 b3", "b3^-1 b2^-1 b1 b2^-1"):
        w = parse_braid_word(text, 4)
        assert phi_matrix(T, w) @ phi_matrix(braid_act(T, w), w.inverse()) == ident


def test_phi_transport_applies_phi_to_rows(rng):
    T = random_tuple(F7, 2, 3, rng)
    w = parse_braid_word("b2 b1^-1 b2", 3)
    rows = Matrix.from_rows(F7, [[random_scalar(F7, rng) for _ in range(8)] for _ in range(3)])
    images, TW = phi_transport(T, w, rows)
    assert images == rows @ phi_matrix(T, w)
    assert TW == braid_act(T, w)


def test_phi_empty_word_is_identity(rng):
    T = random_tuple(Q, 2, 3, rng)
    assert phi_matrix(T, BraidWord(3, ())) == Matrix.identity(Q, 4 * 2)


def test_phi_transport_of_no_rows_still_moves_the_tuple(rng):
    T = random_tuple(F7, 2, 3, rng, with_points=True)
    w = parse_braid_word("b2 b1^-1 b2", 3)
    assert phi_transport(T, w, Matrix(F7, ())) == (Matrix(F7, ()), braid_act(T, w))


def test_phi_transports_u_and_e(rng):
    for _ in range(3):
        T = random_tuple(F7, 2, 3, rng)
        w = parse_braid_word("b1 b2^-1 b1", 3)
        big, TW = phi_matrix(T, w), braid_act(T, w)
        s1 = cohomology_spaces(T)
        s2 = cohomology_spaces(TW)
        img_u, img_e = s1.u_basis @ big, s1.e_basis @ big
        assert len(row_space_basis(img_u)) == len(s2.u_basis)
        assert solve_coords(s2.u_basis, img_u) is not None
        assert solve_coords(s2.e_basis, img_e) is not None


def _greedy_quotient(sp):
    """The rows of u_basis outside the span of E and the earlier rows, by rank."""
    ext, quot = list(sp.e_basis.payload), []
    for u in sp.u_basis.payload:
        if rank(Matrix(sp.u_basis.field, tuple(ext) + (u,))) > len(ext):
            ext.append(u)
            quot.append(u)
    return Matrix(sp.u_basis.field, tuple(quot))


@pytest.mark.parametrize("field", [Q, F7], ids=str)
def test_quotient_basis_is_the_greedy_extension(field, rng):
    for _ in range(4):
        sp = cohomology_spaces(random_tuple(field, 2, 3, rng))
        proj, quot = quotient_basis(sp.u_basis, sp.e_basis)
        assert quot == _greedy_quotient(sp)
        assert proj.dim == (len(sp.u_basis), len(quot))
        # row j of proj writes u_j on the quotient rows, modulo E
        for u, p in zip(sp.u_basis.payload, proj.payload):
            rest = Matrix(field, (u,)) - Matrix(field, (p,)) @ quot
            assert solve_coords(sp.e_basis, rest) is not None


@settings(deadline=None)
@given(field=st.sampled_from([Q, F7, Z3]), seed=st.integers(0, 2 ** 32),
       dim=st.integers(1, 3), r=st.integers(1, 4))
def test_the_quotient_read_out_is_the_transposed_elimination(field, seed, dim, r):
    # U-coordinates read at the pivots of u_basis, projected by proj, are the
    # tail of the coordinates on E + quot that the transposed elimination finds
    rng = random.Random(seed)
    sp = cohomology_spaces(random_tuple(field, dim, r, rng))
    proj, quot = quotient_basis(sp.u_basis, sp.e_basis)
    assert quot == _greedy_quotient(sp)
    m = len(sp.u_basis)
    X = Matrix.from_rows(field, [[random_scalar(field, rng) for _ in range(m)]
                                 for _ in range(3)])
    n = (r + 1) * dim
    V = X @ sp.u_basis if m else Matrix.zero(field, 3, n)
    assert solve_coords(sp.u_basis, V) == X
    ext = Matrix(field, sp.e_basis.payload + quot.payload)
    tails = tuple(x[len(sp.e_basis):] for x in _oracle_coords(ext, V).payload)
    assert X @ proj == Matrix(field, tails)
    # E and a unit vector at a column that is no pivot of u_basis, which lies outside U
    pivots = {next(c for c, x in enumerate(u) if x) for u in sp.u_basis.rows}
    c = min(set(range(n)) - pivots)
    outside = Matrix(field, sp.e_basis.payload + Matrix.identity(field, n).payload[c:c + 1])
    with pytest.raises(PreconditionError, match="not inside U"):
        quotient_basis(sp.u_basis, outside)


@pytest.mark.parametrize("field", [Q, F7, F49, Z4], ids=str)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32), dim=st.integers(1, 3), r=st.integers(1, 3),
       trivial=st.lists(st.booleans(), min_size=3, max_size=3))
@example(seed=0, dim=2, r=2, trivial=[True] * 3)
def test_u_basis_is_h_meet_the_slot_images(field, seed, dim, r, trivial):
    # some finite entries are the identity, all of them in the trivial tuple
    rng = random.Random(seed)
    finite = [Matrix.identity(field, dim) if flag else random_invertible(field, dim, rng)
              for flag in trivial[:r]]
    T = MonodromyTuple.from_finite_entries(field, finite)
    sp = cohomology_spaces(T)
    assert sp.u_basis == intersect_row_spaces(sp.h_basis, slot_images(T.entries))


def test_cohomology_minus_ones():
    # four entries -1 whose product is already 1 (no trivial entry at infinity)
    T = MonodromyTuple.make(Q, [Matrix.from_rows(Q, [[-1]])] * 4)
    sp = cohomology_spaces(T)
    assert sp.dims == (3, 1, 3)
    assert sp.parabolic_dim == 2


def test_cohomology_trivial_tuple():
    T = scalar_tuple(1, 1, 1)
    sp = cohomology_spaces(T)
    assert len(sp.u_basis) == 0
    assert sp.parabolic_dim == 0


def test_circ_tuple_of_second_convolution_has_parabolic_dim_3():
    inp = ConvolutionInput(l_star_l(), kummer_minus_one())
    C = circ_tuple(inp)
    assert cohomology_spaces(C).parabolic_dim == 3


def test_parabolic_rank_formula_examples():
    assert parabolic_rank_formula(scalar_tuple(-1, -1, -1, -1)) == 2
    assert parabolic_rank_formula(scalar_tuple(-1, -1, 1)) == 0
    T = MonodromyTuple.from_finite_entries(Q, [Matrix.identity(Q, 3)] * 2)
    assert parabolic_rank_formula(T) == 0


@pytest.mark.parametrize("field", [Q, F7], ids=str)
def test_parabolic_formula_matches_cohomology(field, rng):
    for _ in range(25):
        dim = rng.randint(1, 3)
        r = rng.randint(2, 5)
        T = random_tuple(field, dim, r, rng)
        sp = cohomology_spaces(T)
        assert parabolic_rank_formula(T) == sp.parabolic_dim


def test_sort_points_is_a_remarking(rng):
    T = random_tuple(Q, 2, 4, rng, with_points=True)
    S = sort_points(T)
    assert list(S.points) == sorted(T.points)
    # conjugacy class multiset of finite entries is preserved
    from midconv.linalg import char_poly
    before = sorted(tuple(c.payload for c in char_poly(M)) for M in T.finite_entries())
    after = sorted(tuple(c.payload for c in char_poly(M)) for M in S.finite_entries())
    assert before == after
    assert S.infinity_entry() == T.infinity_entry()
    # sorted points take no braid move, and the tuple itself comes back
    assert sort_points(S) is S
    D = sort_points(T, descending=True)
    assert D is not T and sort_points(D, descending=True) is D


def test_tuple_io_round_trip(rng):
    from midconv.scalars import FieldDescriptor
    cases = [quadratic_tuple(), l_star_l(),
             random_tuple(F7, 2, 3, rng, with_points=True)]
    Z12 = FieldDescriptor.cyclotomic(12)
    cases.append(random_tuple(Z12, 2, 2, rng, with_points=True))
    F49 = FieldDescriptor.finite(7, 2)
    cases.append(random_tuple(F49, 2, 2, rng, with_points=True))
    cases.append(random_tuple(FieldDescriptor.finite(2, 2), 2, 2, rng, with_points=True))
    cases.append(random_tuple(Q, 2, 2, rng))               # no points line
    for T in cases:
        back = load_tuple(save_tuple(T))
        assert back.field == T.field
        assert back.entries == T.entries
        assert back.points == T.points


@pytest.mark.parametrize("text", ["finite 7 2 t^2+x+1", "finite 5 2 t^2+1/2",
                                  "finite 13 2 t^2+1.5"])
def test_defining_polynomial_is_read_by_the_scalar_term_grammar(text):
    from midconv.tupleio import parse_field
    with pytest.raises(ParseError):
        parse_field(text)


def test_cyclotomic_order_above_the_limit_is_a_parse_error():
    from midconv.tupleio import MAX_CYCLOTOMIC_ORDER, parse_field
    assert MAX_CYCLOTOMIC_ORDER == 1000
    assert parse_field("cyclotomic 1000") is FieldDescriptor.cyclotomic(1000)
    with pytest.raises(ParseError, match="above the limit 1000"):
        load_tuple("field: cyclotomic 1001\ndim: 1\nmatrix:\n1\n")


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_quadratic_field_text_round_trip(p):
    from midconv.tupleio import format_field, parse_field
    F = FieldDescriptor.finite(p, 2)
    assert parse_field(format_field(F)) is F


def test_slot_blocks_and_join_slots_undo_each_other(rng):
    from midconv.tuples import join_slots, slot_blocks
    rows = random_invertible(Q, 6, rng)
    blocks = slot_blocks(rows, 3)
    assert [B.dim for B in blocks] == [(6, 2)] * 3
    assert blocks[1].rows[0] == rows.rows[0][2:4]
    assert join_slots(blocks) == rows


# -- equivalence up to simultaneous conjugacy --------------------------------------

def test_equivalence_identity_case():
    T = MonodromyTuple.from_finite_entries(Q, [Matrix.from_rows(Q, [[-3, -8], [2, 5]]),
                                               Matrix.from_rows(Q, [[1, -4], [0, 1]])])
    verdict, S = equivalence(T, T)
    assert verdict is True
    assert all(S.inverse() @ M @ S == M for M in T.entries)


def test_equivalence_constructed(rng):
    V = m_tuple()
    S0 = random_invertible(Q, 3, rng)
    B = MonodromyTuple.make(Q, [S0.inverse() @ M @ S0 for M in V.entries])
    verdict, S = equivalence(V, B)
    assert verdict is True
    assert all(S.inverse() @ M @ S == N for M, N in zip(V.entries, B.entries))


def test_equivalence_distinguishes_spectra():
    TA = [Matrix.from_rows(Q, [[1, 0], [0, -1]])]
    TB = [Matrix.from_rows(Q, [[-1, 0], [0, -1]])]
    assert find_invertible(commutant_basis(TA, TB)) is None
    A, B = (MonodromyTuple.from_finite_entries(Q, T) for T in (TA, TB))
    assert equivalence(A, B) == (False, "characteristic polynomials of entry 1 differ")


def _conjugate_of_v():
    S0 = random_invertible(Q, 3, random.Random(SEED))
    return m_tuple(), MonodromyTuple.make(Q, [S0.inverse() @ M @ S0 for M in m_tuple().entries])


def _diagonal_pair():
    T = MonodromyTuple.make(Q, [Matrix.from_rows(Q, [[1, 0, 0], [0, 1, 0], [0, 0, c]])
                                for c in (2, Fraction(1, 2))])
    return T, T


def _unipotent_and_trivial():
    A = MonodromyTuple.make(Q, [Matrix.from_rows(Q, [[1, c], [0, 1]]) for c in (1, -1)])
    return A, MonodromyTuple.make(Q, [Matrix.identity(Q, 2)] * 2)


@pytest.mark.parametrize("pair, verdict, solves", [
    (_conjugate_of_v, True, 1),
    (lambda: (quadratic_tuple(), l_star_l()), False, 0),
    # every Hom basis matrix and prefix sum is singular, so no conjugator is found
    (_diagonal_pair, None, 3),
    # equal characteristic polynomials; dim Hom, End(A), End(B) = 2, 2, 4
    (_unipotent_and_trivial, False, 3),
], ids=["conjugate", "dims differ", "inconclusive", "commutant dims"])
def test_equivalence_solves_hom_once_and_end_only_without_a_conjugator(
        monkeypatch, pair, verdict, solves):
    calls = []

    def counted(As, Bs):
        calls.append(1)
        return commutant_basis(As, Bs)

    A, B = pair()
    monkeypatch.setattr(tuples, "commutant_basis", counted)
    assert equivalence(A, B)[0] is verdict
    assert len(calls) == solves


@pytest.mark.parametrize("pair", [
    lambda: (m_tuple(), m_tuple()),
    lambda: (sl_demo(3, 4).result,) * 2,
    _conjugate_of_v, _diagonal_pair, _unipotent_and_trivial,
], ids=["V", "demo34", "V and a conjugate", "diagonal", "unipotent and trivial"])
def test_the_commutant_over_the_finite_entries_is_the_commutant_over_all(pair):
    # equivalence solves Hom and End without the entry at infinity: same space, same basis
    A, B = pair()
    for X, Y in dict.fromkeys(((A, B), (A, A), (B, B))):     # Hom(A, B), End(A), End(B)
        assert (commutant_basis(list(X.finite_entries()), list(Y.finite_entries()))
                == commutant_basis(list(X.entries), list(Y.entries)))


def _structured_entry(field, dim, kind, rng):
    """Kind 0 the identity, 1 diagonal over 1, -1, 2, 2 upper unitriangular, 3 random."""
    if kind == 3:
        return random_invertible(field, dim, rng)

    def entry(i, j):
        if i == j:
            return rng.choice((1, -1, 2)) if kind == 1 else 1
        return rng.randint(-1, 1) if kind == 2 and i < j else 0
    return Matrix.from_rows(field, [[entry(i, j) for j in range(dim)] for i in range(dim)])


@pytest.mark.parametrize("field", [Q, F7, Z3], ids=str)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32), dim=st.integers(1, 3),
       kinds=st.lists(st.integers(0, 3), min_size=1, max_size=3),
       other=st.lists(st.integers(0, 3), min_size=1, max_size=3))
def test_equivalence_verdicts_are_sound(field, seed, dim, kinds, other):
    rng = random.Random(seed)
    A, C = (MonodromyTuple.from_finite_entries(
        field, [_structured_entry(field, dim, k, rng) for k in ks]) for ks in (kinds, other))
    S0 = random_invertible(field, dim, rng)
    B = MonodromyTuple.from_finite_entries(field, [S0.inverse() @ M @ S0
                                                   for M in A.finite_entries()])
    assert equivalence(A, B)[0] is not False
    for X, Y in ((A, B), (A, C), (C, A)):
        verdict, witness = equivalence(X, Y)
        if verdict:
            assert all(witness.inverse() @ M @ witness == N for M, N in zip(X.entries, Y.entries))
        elif verdict is False:
            assert isinstance(witness, str) and witness
        else:
            assert witness is None
