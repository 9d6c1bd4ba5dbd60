import operator
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from midconv import tuples
from midconv.convolution import ConvolutionInput, circ_tuple, sl_demo
from midconv.errors import FieldMismatch, ParseError, PreconditionError
from midconv.fixtures import kummer_minus_one, l_star_l, m_tuple, quadratic_tuple
from midconv.linalg import (Matrix, commutant_basis, find_invertible, intersect_row_spaces,
                            kernel_basis, rank,
                            row_space_basis, solve_coords)
from midconv.scalars import FieldDescriptor
from midconv.tuples import (BraidWord, MonodromyTuple, braid_act,
                            cohomology_spaces, coinvariants_dim, equivalence, invariants_dim,
                            parabolic_rank_formula,
                            parse_braid_word, phi_transport,
                            pure_braid, quotient_basis, slot_images, sort_points)
from midconv.tupleio import load_tuple, save_tuple

from conftest import (ENTRY_KINDS, F7, Q, SEED, check_witness, entry_of_kind,
                      full_coinvariants_dim, full_invariants_dim, random_invertible,
                      random_scalar, random_tuple)
from test_linalg import _oracle_coords

Z3 = FieldDescriptor.cyclotomic(3)
Z4 = FieldDescriptor.cyclotomic(4)
F49 = FieldDescriptor.finite(7, 2)


def scalar_tuple(*values, points=None):
    return MonodromyTuple.from_finite_entries(
        Q, [Matrix.from_rows(Q, [[v]]) for v in values], points)


def phi_matrix(T, w):
    """The linear automorphism Phi(T, w) of V^{r+1}: its rows are the images of the e_k."""
    return phi_transport(T, [w], Matrix.identity(T.field, len(T.entries) * T.dim))[0][0]


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
    e_basis, u_basis = cohomology_spaces(C)
    _ext, quot = quotient_basis(u_basis, e_basis)
    assert quot
    words = [_delta_word(i, j, 3, 5) for j in (2, 1) for i in (1, 2, 3)]
    for w, (images, TW) in zip(words, phi_transport(C, words, quot), strict=True):
        assert TW is C
        big, entries = _phi_word_oracle(C, w)
        assert entries == C.entries
        assert images == quot @ big


def _shared_prefix(u, v):
    return next((k for k, (x, y) in enumerate(zip(u, v)) if x != y), min(len(u), len(v)))


@pytest.mark.parametrize("field", [Q, F7, F49, Z4], ids=str)
@pytest.mark.parametrize("right_dim", [1, 2])
def test_the_walk_over_many_words_matches_the_oracle_word_for_word(field, right_dim, rng):
    # right_dim 1 makes every right entry of C a c*1 (1 among them), so each
    # letter of a loop word has a scalar partner; right_dim 2 gives general letters
    from midconv.convolution import _delta_word
    left = random_tuple(field, 2, 2, rng, with_points=True)
    one = Matrix.identity(field, right_dim)
    right = MonodromyTuple.from_finite_entries(
        field, [one, random_invertible(field, right_dim, rng)], [20, 30])
    C = circ_tuple(ConvolutionInput(left, right))
    e_basis, u_basis = cohomology_spaces(C)
    _proj, quot = quotient_basis(u_basis, e_basis)
    # the identity rows give Phi itself, with a zero row block in every slot but one
    rows = Matrix(field, quot.payload + Matrix.identity(field, 5 * C.dim).payload)
    own = [_delta_word(i, j, 2, 4) for j in (2, 1) for i in (1, 2)]
    unshared = [_delta_word(i, j, 2, 4) for i in (1, 2) for j in (1, 2)]
    assert all(_shared_prefix(u.letters, v.letters) == 0 for u, v in zip(unshared, unshared[1:]))
    w, empty = own[0], BraidWord(4, ())
    head = BraidWord(4, w.letters[:3])
    orders = [own, unshared, [w, w], [empty, w, empty], [head, w, head], [w, head, w]]
    oracle = {}
    for words in orders:
        for v, (images, TW) in zip(words, phi_transport(C, words, rows), strict=True):
            if v.letters not in oracle:
                oracle[v.letters] = _phi_word_oracle(C, v)
            big, entries = oracle[v.letters]
            assert images == rows @ big
            assert TW.entries == entries
    if right_dim == 1:
        assert all(TW is C for _images, TW in phi_transport(C, own, quot))


def test_phi_transport_rejects_rows_of_the_wrong_width(rng):
    T = random_tuple(Q, 2, 2, rng)
    w = parse_braid_word("b1", 2)
    for width in (4, 7):
        with pytest.raises(PreconditionError, match="6 columns"):
            phi_transport(T, [w], Matrix.from_rows(Q, [[1] * width]))
    (images, _TW), = phi_transport(T, [w], Matrix.from_rows(Q, [[1] * 6]))
    assert images.dim == (1, 6)


def test_phi_transport_returns_a_new_checked_tuple_when_the_entries_move(rng):
    T = random_tuple(Q, 2, 3, rng, with_points=True)
    w = parse_braid_word("b1 b2^-1", 3)
    (images, TW), = phi_transport(T, [w], Matrix(Q, ()))
    assert TW is not T and TW.entries == _phi_word_oracle(T, w)[1]
    # the same entry objects in another order of points is not T either
    two = Matrix.from_rows(Q, [[2]])
    S = MonodromyTuple.make(Q, [two, two, Matrix.from_rows(Q, [[Fraction(1, 4)]])], [0, 1])
    SW = phi_transport(S, [BraidWord(2, ((1, 1),))], Matrix(Q, ()))[0][1]
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
    (images, TW), = phi_transport(T, [w], rows)
    assert images == rows @ phi_matrix(T, w)
    assert TW == braid_act(T, w)


def _letter_oracle(entries, blocks, i, e):
    """One letter on the entries and the slot blocks (Matrices), by Matrix products alone:
    beta_i sends (X, Y) to (Y, X b + Y - Y b^-1 a b), beta_i^-1 to ((Y - X + X b) a^-1, X)."""
    a, b = entries[i - 1], entries[i]
    X, Y = blocks[i - 1], blocks[i]
    if e > 0:
        c = b.inverse() @ a @ b
        entries[i - 1], entries[i] = b, c
        blocks[i - 1], blocks[i] = Y, X @ b + Y - Y @ c
    else:
        entries[i - 1], entries[i] = a @ b @ a.inverse(), a
        blocks[i - 1], blocks[i] = (Y - X + X @ b) @ a.inverse(), X


@pytest.mark.parametrize("field", [Q, F7, F49, Z3], ids=str)
def test_phi_transport_equals_the_letter_by_letter_product_oracle(field, rng):
    # every pair of entry kinds in slots 1 and 2; three random rows, then the first
    # of them zero in slot 1, in slot 2, in both, and everywhere; one letter of
    # each sign, then a word of six letters over both generators
    d, r = 2, 3
    for kinds in ((ka, kb) for ka in ENTRY_KINDS for kb in ENTRY_KINDS):
        finite = [entry_of_kind(field, d, rng, kind)
                  for kind in kinds + (rng.choice(ENTRY_KINDS),)]
        T = MonodromyTuple.from_finite_entries(field, finite)
        full = [[random_scalar(field, rng) for _ in range((r + 1) * d)] for _ in range(3)]
        zeroed = [[field.zero() if k // d in slots else x for k, x in enumerate(full[0])]
                  for slots in ({0}, {1}, {0, 1}, {0, 1, 2, 3})]
        rows = Matrix.from_rows(field, full + zeroed)
        letters = tuple((rng.randint(1, r - 1), rng.choice((1, -1))) for _ in range(6))
        for w in (BraidWord(r, ((1, 1),)), BraidWord(r, ((1, -1),)), BraidWord(r, letters)):
            entries, blocks = list(T.entries), tuples.slot_blocks(rows, r + 1)
            for i, e in w.letters:
                _letter_oracle(entries, blocks, i, e)
            (images, TW), = phi_transport(T, [w], rows)
            assert images == tuples.join_slots(blocks), (kinds, w)
            assert TW.entries == tuple(entries), (kinds, w)


def test_phi_empty_word_is_identity(rng):
    T = random_tuple(Q, 2, 3, rng)
    assert phi_matrix(T, BraidWord(3, ())) == Matrix.identity(Q, 4 * 2)


def test_phi_transport_of_no_rows_still_moves_the_tuple(rng):
    T = random_tuple(F7, 2, 3, rng, with_points=True)
    w = parse_braid_word("b2 b1^-1 b2", 3)
    assert phi_transport(T, [w], Matrix(F7, ())) == [(Matrix(F7, ()), braid_act(T, w))]


def test_phi_transports_u_and_e(rng):
    for _ in range(3):
        T = random_tuple(F7, 2, 3, rng)
        w = parse_braid_word("b1 b2^-1 b1", 3)
        big, TW = phi_matrix(T, w), braid_act(T, w)
        e1, u1 = cohomology_spaces(T)
        e2, u2 = cohomology_spaces(TW)
        img_u, img_e = u1 @ big, e1 @ big
        assert len(row_space_basis(img_u)) == len(u2)
        assert solve_coords(u2, img_u) is not None
        assert solve_coords(e2, img_e) is not None


def _greedy_quotient(e_basis, u_basis):
    """The rows of u_basis outside the span of E and the earlier rows, by rank."""
    ext, quot = list(e_basis.payload), []
    for u in u_basis.payload:
        if rank(Matrix(u_basis.field, tuple(ext) + (u,))) > len(ext):
            ext.append(u)
            quot.append(u)
    return Matrix(u_basis.field, tuple(quot))


@pytest.mark.parametrize("field", [Q, F7], ids=str)
def test_quotient_basis_is_the_greedy_extension(field, rng):
    for _ in range(4):
        e_basis, u_basis = cohomology_spaces(random_tuple(field, 2, 3, rng))
        proj, quot = quotient_basis(u_basis, e_basis)
        assert quot == _greedy_quotient(e_basis, u_basis)
        assert proj.dim == (len(u_basis), len(quot))
        # row j of proj writes u_j on the quotient rows, modulo E
        for u, p in zip(u_basis.payload, proj.payload):
            rest = Matrix(field, (u,)) - Matrix(field, (p,)) @ quot
            assert solve_coords(e_basis, rest) is not None


@settings(deadline=None)
@given(field=st.sampled_from([Q, F7, Z3]), seed=st.integers(0, 2 ** 32),
       dim=st.integers(1, 3), r=st.integers(1, 4))
def test_the_quotient_read_out_is_the_transposed_elimination(field, seed, dim, r):
    # U-coordinates read at the pivots of u_basis, projected by proj, are the
    # tail of the coordinates on E + quot that the transposed elimination finds
    rng = random.Random(seed)
    e_basis, u_basis = cohomology_spaces(random_tuple(field, dim, r, rng))
    proj, quot = quotient_basis(u_basis, e_basis)
    assert quot == _greedy_quotient(e_basis, u_basis)
    m = len(u_basis)
    X = Matrix.from_rows(field, [[random_scalar(field, rng) for _ in range(m)]
                                 for _ in range(3)])
    n = (r + 1) * dim
    V = X @ u_basis if m else Matrix.zero(field, 3, n)
    assert solve_coords(u_basis, V) == X
    ext = Matrix(field, e_basis.payload + quot.payload)
    tails = tuple(x[len(e_basis):] for x in _oracle_coords(ext, V).payload)
    assert X @ proj == Matrix(field, tails)
    # E and a unit vector at a column that is no pivot of u_basis, which lies outside U
    pivots = {next(c for c, x in enumerate(u) if x) for u in u_basis.rows}
    c = min(set(range(n)) - pivots)
    outside = Matrix(field, e_basis.payload + Matrix.identity(field, n).payload[c:c + 1])
    with pytest.raises(PreconditionError, match="not inside U"):
        quotient_basis(u_basis, outside)


def h_basis_oracle(T):
    """H_T as the left kernel of the suffix products T_{k+2} ... T_{r+1}, stacked."""
    ident = Matrix.identity(T.field, T.dim)
    suffixes = [reduce(operator.matmul, T.entries[k + 1:], ident) for k in range(T.r + 1)]
    return kernel_basis(Matrix(T.field, tuple(row for P in suffixes for row in P.payload)))


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
    H = h_basis_oracle(T)
    # dim H_T = r dim V: the cocycle condition maps V^{r+1} onto V, its last block is 1
    assert len(H) == r * dim
    _e_basis, u_basis = cohomology_spaces(T)
    assert u_basis == intersect_row_spaces(H, slot_images(T.entries))


def test_cohomology_minus_ones():
    # four entries -1 whose product is already 1 (no trivial entry at infinity)
    T = MonodromyTuple.make(Q, [Matrix.from_rows(Q, [[-1]])] * 4)
    e_basis, u_basis = cohomology_spaces(T)
    assert (len(h_basis_oracle(T)), len(e_basis), len(u_basis)) == (3, 1, 3)
    assert len(u_basis) - len(e_basis) == 2


def test_cohomology_trivial_tuple():
    T = scalar_tuple(1, 1, 1)
    e_basis, u_basis = cohomology_spaces(T)
    assert len(u_basis) == 0
    assert len(u_basis) - len(e_basis) == 0


def test_circ_tuple_of_second_convolution_has_parabolic_dim_3():
    inp = ConvolutionInput(l_star_l(), kummer_minus_one())
    e_basis, u_basis = cohomology_spaces(circ_tuple(inp))
    assert len(u_basis) - len(e_basis) == 3


@pytest.mark.parametrize("field", [Q, F7, F49, Z3], ids=str)
def test_fixed_space_dims_equal_the_full_join_and_stack(field):
    """Every read-off (one matrix, a matrix with rk(M - 1) = d, the stacked kept
    bases) against the ranks of all d rows or columns of each M - 1."""
    rng = random.Random(SEED)
    seen = set()
    for d in (1, 2, 3):
        for n in (1, 2, 3, 4):
            for _ in range(8):
                ms = [entry_of_kind(field, d, rng, rng.choice(ENTRY_KINDS)) for _ in range(n)]
                dims = (invariants_dim(ms), coinvariants_dim(ms))
                assert dims == (full_invariants_dim(ms), full_coinvariants_dim(ms))
                path = ("one" if n == 1 else
                        "full" if any(rank(M.minus_identity()) == d for M in ms) else "ranks")
                seen.add((path, dims != (0, 0)))
    assert seen == {("one", True), ("one", False), ("full", False),
                    ("ranks", True), ("ranks", False)}


@pytest.mark.parametrize("r", [1, 2, 4])
def test_cohomology_spaces_forms_only_the_products_it_reads(monkeypatch, rng, r):
    T = random_tuple(Q, 2, r, rng)
    expected = cohomology_spaces(T)
    products = []
    real_matmul = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__", lambda A, B: products.append(B) or real_matmul(A, B))
    assert cohomology_spaces(T) == expected
    # T_{k+2} ... T_{r+1} for k = 0 .. r - 2, then S times the stack and the kernel times S
    assert len(products) == (r - 1) + 2


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
        e_basis, u_basis = cohomology_spaces(T)
        assert parabolic_rank_formula(T) == len(u_basis) - len(e_basis)


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


def _per_entry_text(T):
    """save_tuple's text with every entry formatted on its own, as the writer once did."""
    from midconv.scalars import format_scalar
    from midconv.tupleio import format_field
    lines = [f"field: {format_field(T.field)}", f"dim: {T.dim}"]
    if T.points is not None:
        lines.append("points: " + ", ".join(str(p) for p in T.points))
    for M in T.entries:
        lines.append("matrix:")
        lines += [", ".join(format_scalar(x) for x in row) for row in M.rows]
    return "\n".join(lines) + "\n"


def test_save_tuple_formats_repeated_entries_as_each_entry_alone(rng):
    Z12 = FieldDescriptor.cyclotomic(12)
    z3, one = Z12.zeta(3), Z12.one()
    # a homology of order 4 and a transvection: 0, 1 and zeta^3 repeat across the tuple
    homology = [[one, one, 0], [0, z3, 0], [0, 0, one]]
    transvection = [[one, 0, 0], [z3, one, 0], [0, 0, one]]
    cases = [MonodromyTuple.from_finite_entries(
                 Z12, [Matrix.from_rows(Z12, homology), Matrix.from_rows(Z12, transvection)],
                 [0, 1]),
             l_star_l(), random_tuple(F7, 3, 3, rng, with_points=True),
             random_tuple(F49, 2, 2, rng)]
    for T in cases:
        entries = [x for M in T.entries for row in M.payload for x in row]
        assert len(set(entries)) < len(entries)
        text = save_tuple(T)
        assert text == _per_entry_text(T)
        assert load_tuple(text) == T


@pytest.mark.parametrize("text, error", [
    ("field: cyclotomic 12\ndim: 2\nmatrix:\n1, 2x\n2x, z^3\nmatrix:\n1, 0\n0, 1\n",
     "ParseError: malformed term '2x' (at position 0)"),
    ("field: rational\ndim: 2\nmatrix:\n1, 1/0\n1/ 0, 1\nmatrix:\n1, 0\n0, 1\n",
     "ParseError: zero denominator in '1/0' (at position 0)"),
    ("field: finite 7 1\ndim: 2\nmatrix:\n1, 0\n0, 1\nmatrix:\n1/2, 3 z\n3 z, 1/2\n",
     "ParseError: non-integer coefficient 1/2 in finite field (at position 0)"),
    ("field: finite 7 1\ndim: 2\nmatrix:\n1, 2\n3 z, 1\nmatrix:\n3z, 1\n1, 3 z\n",
     "FieldMismatch: symbol 'z' not available in F_7"),
])
def test_a_repeated_bad_entry_raises_as_its_first_occurrence(text, error):
    # load_tuple parses each distinct entry once; the messages are those of the
    # entry-by-entry parse
    with pytest.raises(Exception) as info:
        load_tuple(text)
    assert f"{type(info.value).__name__}: {info.value}" == error


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


def test_a_cyclotomic_1_file_loads_as_q():
    # Q(zeta_1) is Q: the file saves as "rational", and a 'z' entry is refused
    T = l_star_l()
    text = save_tuple(T)
    assert text.startswith("field: rational\n")
    loaded = load_tuple(text.replace("field: rational", "field: cyclotomic 1"))
    assert loaded == T and str(loaded.field) == "Q" and save_tuple(loaded) == text
    with pytest.raises(FieldMismatch, match="symbol 'z' not available in Q"):
        load_tuple("field: cyclotomic 1\ndim: 1\nmatrix:\nz\nmatrix:\n1\n")


@pytest.mark.parametrize("entry", [Matrix.identity(F7, 1), Matrix.identity(Q, 2)],
                         ids=["another-field", "another-size"])
def test_make_refuses_an_entry_of_another_field_or_size(entry):
    with pytest.raises(PreconditionError, match="entries must be square over the declared field"):
        MonodromyTuple.make(Q, [Matrix.identity(Q, 1), entry])


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
    res = equivalence(T, T)
    assert res.ok is True
    check_witness(res, T, T)


def test_equivalence_constructed(rng):
    V = m_tuple()
    S0 = random_invertible(Q, 3, rng)
    B = MonodromyTuple.make(Q, [S0.inverse() @ M @ S0 for M in V.entries])
    res = equivalence(V, B)
    assert res.ok is True
    check_witness(res, V, B)


def test_equivalence_distinguishes_spectra():
    TA = [Matrix.from_rows(Q, [[1, 0], [0, -1]])]
    TB = [Matrix.from_rows(Q, [[-1, 0], [0, -1]])]
    assert find_invertible(commutant_basis(TA, TB)) is None
    A, B = (MonodromyTuple.from_finite_entries(Q, T) for T in (TA, TB))
    res = equivalence(A, B)
    assert (res.ok, res.witness) == (False, "characteristic polynomials of entry 1 differ")
    check_witness(res, A, B)


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
    res = equivalence(A, B)
    assert res.ok is verdict
    assert len(calls) == solves
    check_witness(res, A, B)


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
    assert equivalence(A, B).ok is not False
    for X, Y in ((A, B), (A, C), (C, A)):
        check_witness(equivalence(X, Y), X, Y)
