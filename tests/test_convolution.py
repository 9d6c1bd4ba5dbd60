import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from midconv import convolution, linalg
from midconv.convolution import (SL_DEMO_MAX_R, ConvolutionInput, _homology_order,
                                 circ_tuple,
                                 convolved_block, irreducibility_criterion,
                                 is_convolution_sheaf, kummer_tuple, mc_lambda, middle_convolution,
                                 predict_infinity_jordan, predict_local_jordan,
                                 rank_formula, rank_formula_applicable, sl_demo)
from midconv.errors import (DimensionInconsistency, DoesNotSplit, DomainError, FieldMismatch,
                            LambdaIsOne, PreconditionError)
from midconv.fixtures import (TUPLE_FIXTURES, kummer_minus_one, l_star_l, m_tuple,
                              quadratic_tuple)
from midconv.linalg import (JordanData, Matrix, eigenvalues, intersect_row_spaces, jordan_data,
                            kernel_basis, matrix_order, row_space_basis, solve_coords)
from midconv.modgroup import invariant_symmetric_form, reduce_mod
from midconv.scalars import FieldDescriptor
from midconv.tuples import (BraidWord, MonodromyTuple, cohomology_spaces, coinvariants_dim,
                            equivalence, induced_quotient_matrix, invariants_dim, quotient_basis,
                            sort_points)

from conftest import (ENTRY_KINDS, F7, Q, SEED, check_witness, delta_word, entry_of_kind,
                      full_coinvariants_dim, full_invariants_dim, phi_transport, random_invertible,
                      random_scalar, random_tuple)

Z3 = FieldDescriptor.cyclotomic(3)
Z4 = FieldDescriptor.cyclotomic(4)
F5 = FieldDescriptor.finite(5)
F9 = FieldDescriptor.finite(3, 2)
F11 = FieldDescriptor.finite(11)
F49 = FieldDescriptor.finite(7, 2)


def scalar_tuple(*values, points=None):
    return MonodromyTuple.from_finite_entries(
        Q, [Matrix.from_rows(Q, [[v]]) for v in values], points)


def l_input():
    return ConvolutionInput(quadratic_tuple(), quadratic_tuple())


def test_circ_of_l_and_kummer():
    inp = ConvolutionInput(quadratic_tuple(), kummer_minus_one())
    C = circ_tuple(inp)
    assert C.dim == 1
    assert [M[0, 0] for M in C.entries] == [-Q.one()] * 4


def test_circ_trivial_inputs():
    left = scalar_tuple(1, 1, points=[0, 1])
    right = scalar_tuple(1, points=[5])
    C = circ_tuple(ConvolutionInput(left, right))
    assert all(M == Matrix.identity(Q, 1) for M in C.entries)


def test_circ_dimensions():
    left = MonodromyTuple.from_finite_entries(
        Q, [Matrix.identity(Q, 2), Matrix.identity(Q, 2)], [0, 1])
    right = MonodromyTuple.from_finite_entries(Q, [Matrix.identity(Q, 3)], [4])
    C = circ_tuple(ConvolutionInput(left, right))
    assert C.dim == 6
    assert C.r == 3


def test_convolution_fixture_one():
    out = middle_convolution(l_input())
    assert out.dim == 2
    assert out.points == (Fraction(-2), Fraction(0), Fraction(2))
    assert equivalence(out, l_star_l()).ok is True
    expected = JordanData.of([(Q.one(), 2)])
    assert all(jordan_data(M) == expected for M in out.finite_entries())


def test_convolution_fixture_two():
    ll = middle_convolution(l_input())
    out = middle_convolution(ConvolutionInput(ll, kummer_minus_one()))
    assert out.dim == 3
    assert equivalence(out, m_tuple()).ok is True


def test_convolution_commutativity_invariants():
    left = scalar_tuple(-1, -1, 1, points=[-1, 1, 5])
    right = scalar_tuple(-1, -1, points=[0, 9])
    a = middle_convolution(ConvolutionInput(left, right))
    b = middle_convolution(ConvolutionInput(right, left))
    assert a.dim == b.dim
    ja = sorted((p, str(jordan_data(M))) for p, M in zip(a.points, a.finite_entries()))
    jb = sorted((p, str(jordan_data(M))) for p, M in zip(b.points, b.finite_entries()))
    assert ja == jb


def _full_word_loop_matrices(C, loops, p, u_basis, proj, quot):
    """The loop matrices by the whole loop words: every quotient row carried along
    delta_{i,j} by phi_transport, then read by one induced_quotient_matrix call."""
    moved = phi_transport(C, [delta_word(i, j, p, C.r) for i, j in loops], quot)
    for (i, j), (_images, TW) in zip(loops, moved):
        if TW.entries != C.entries:
            raise DimensionInconsistency(f"the loop braid for ({i},{j}) moves the tensor tuple")
    try:
        return induced_quotient_matrix(u_basis, [images for images, _TW in moved], proj)
    except PreconditionError as exc:
        raise DimensionInconsistency(str(exc)) from exc


def _loop_outcomes(C, p, q):
    """(read-out, full-word oracle) on C, p + q = C.r: the reprs of the loop matrices'
    payloads, or the DimensionInconsistency message; None when U/E is 0."""
    e_basis, u_basis = cohomology_spaces(C)
    proj, quot = quotient_basis(u_basis, e_basis)
    if not quot:
        return None
    loops = [(i, j) for j in range(q, 0, -1) for i in range(1, p + 1)]
    outcomes = []
    for read_out in (convolution._loop_matrices, _full_word_loop_matrices):
        try:
            outcomes.append(repr([D.payload for D in read_out(C, loops, p, u_basis, proj, quot)]))
        except DimensionInconsistency as exc:
            outcomes.append(str(exc))
    return outcomes


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from([Q, F7, F49, Z3]), seed=st.integers(0, 2 ** 32),
       n1=st.integers(1, 2), p=st.integers(1, 3), n2=st.integers(1, 2), q=st.integers(1, 2),
       identity_entry=st.booleans(), collide=st.booleans())
@example(field=Q, seed=0, n1=2, p=2, n2=2, q=2, identity_entry=True, collide=True)
@example(field=F49, seed=1, n1=2, p=3, n2=1, q=2, identity_entry=True, collide=False)
@example(field=Z3, seed=2, n1=1, p=3, n2=2, q=2, identity_entry=False, collide=True)
def test_the_loop_read_out_equals_the_full_loop_words(field, seed, n1, p, n2, q,
                                                      identity_entry, collide):
    # the read-out carries the quotient rows along g and only the correction rows
    # back along g^-1; the oracle carries every row along g beta_i^2 g^-1.  A right
    # factor of dim 2 gives general letters, an identity entry b = 1 (dX = 0),
    # and points 0, 1, ... on both sides give colliding sums x_i + y_j
    rng = random.Random(seed)
    left = MonodromyTuple.from_finite_entries(
        field, [random_invertible(field, n1, rng) for _ in range(p)], range(p))
    right = [random_invertible(field, n2, rng) for _ in range(q)]
    if identity_entry:
        right[rng.randrange(q)] = Matrix.identity(field, n2)
    right = MonodromyTuple.from_finite_entries(
        field, right, range(q) if collide else range(10, 10 * q + 1, 10))
    inp = ConvolutionInput(left, right)
    assert inp.is_generic() == (not collide or p == 1 or q == 1)
    for i, j in inp.loop_points():
        g = BraidWord(p + q, convolution._loop_prefix(i, j, p))
        assert g * BraidWord(p + q, ((i, 1), (i, 1))) * g.inverse() == delta_word(i, j, p, p + q)
    outcomes = _loop_outcomes(circ_tuple(inp), p, q)
    assert outcomes is None or outcomes[0] == outcomes[1]


@pytest.mark.parametrize("field", [Q, F7, F49, Z3], ids=str)
def test_a_non_commuting_core_pair_moves_the_tensor_tuple(field, rng):
    # in a tensor tuple every core pair commutes; in a random tuple the first
    # loop's core pair (T_1, T_3) does not, and both read-outs refuse it
    outcomes = None
    while outcomes is None:
        C = random_tuple(field, 2, 3, rng)
        outcomes = _loop_outcomes(C, 2, 1)
    assert outcomes == ["the loop braid for (1,1) moves the tensor tuple"] * 2


def test_quotient_rows_that_leave_u_fail_the_dx_check(monkeypatch):
    # e_1 added to the walked rows moves dX out of span K = im(A_1 - 1), a line
    # in V = Q^2: solve_coords' product check refuses it before any row is
    # carried back
    real_walk, real_solve = convolution._walk_words, convolution.solve_coords
    refused = []

    def leaky(entries, rows, words):
        add, one = entries[0].field.ops.add, entries[0].field.ops.one
        for states in real_walk(entries, rows, words):
            E, blocks = states[-1]
            slot = tuple((add(v[0], one),) + v[1:] for v in blocks[0])
            states[-1] = (E, (slot,) + blocks[1:])
            yield states

    def spy(K, V):
        coords = real_solve(K, V)
        refused.append(coords is None)
        return coords

    monkeypatch.setattr(convolution, "_walk_words", leaky)
    monkeypatch.setattr(convolution, "solve_coords", spy)
    inp = ConvolutionInput(l_star_l(), kummer_minus_one())
    assert len(l_star_l().entries[0].moved) == 1 < l_star_l().dim
    with pytest.raises(DimensionInconsistency, match="quotient space is not preserved"):
        middle_convolution(inp)
    assert refused == [True]


def test_mc_lambda_matches_convolution_oracle():
    L = quadratic_tuple()
    out = mc_lambda(L, Q.from_int(-1))
    oracle = middle_convolution(ConvolutionInput(L, kummer_minus_one()))
    assert out.dim == 2
    assert out.points == oracle.points
    assert equivalence(out, oracle).ok is True
    # the L*L local structure: unipotent J(1,2) at both finite points
    expected = JordanData.of([(Q.one(), 2)])
    assert all(jordan_data(M) == expected for M in out.finite_entries())


def _corpus_like_sheaves(field, rng, shapes):
    """One convolution sheaf per (dim, r): random entries, distinct points in -9..9."""
    for dim, r in shapes:
        while True:
            T = random_tuple(field, dim, r, rng)
            T = MonodromyTuple.make(field, T.entries, rng.sample(range(-9, 10), r))
            if is_convolution_sheaf(T).ok:
                yield T
                break


@pytest.mark.parametrize("field", [Q, F7, F11], ids=str)
def test_mc_lambda_is_the_convolution_with_the_kummer_sheaf(field, rng):
    # MC_lambda(T) ~ T * Kummer_lambda once the points of T ascend; both stages
    # read their U/E or W coordinates at the pivots of a reduced echelon basis
    lam = -field.one()
    kummer = kummer_tuple(field, lam)
    for T in _corpus_like_sheaves(field, rng, ((1, 3), (2, 2), (2, 4), (3, 4))):
        conv = middle_convolution(ConvolutionInput(T, kummer))
        assert equivalence(mc_lambda(sort_points(T), lam), conv).ok is True


def test_mc_lambda_rank_bookkeeping():
    # applying MC_{-1} twice brings the rank back: MC_{-1} o MC_{-1} = MC_1 = id,
    # so L (rank 1) -> rank 2 -> L again (the Dettweiler-Reiter formula gives 1)
    L = quadratic_tuple()
    once = mc_lambda(L, Q.from_int(-1))
    twice = mc_lambda(once, Q.from_int(-1))
    assert once.dim == 2
    assert twice.dim == L.dim == 1
    assert equivalence(twice, L).ok is True


def test_mc_lambda_finite_field_regression():
    # lambda A_1 A_2 = -6 = 1 in F_7: the L-space is a proper subspace of V^p
    minus = F7.from_int(-1)
    T = MonodromyTuple.from_finite_entries(
        F7, [Matrix.from_rows(F7, [[2]]), Matrix.from_rows(F7, [[3]])], [0, 1])
    once = mc_lambda(T, minus)
    # Dettweiler-Reiter: sum rk(A_i - 1) + rk(lambda A_1 A_2 - 1) - n = 2 + 0 - 1
    assert once.dim == 1
    twice = mc_lambda(once, minus)
    assert [M.rows[0][0] for M in twice.entries] \
        == [F7.from_int(v) for v in (2, 3, 6)]


def _pochhammer_matrix(A, lam, k):
    """Reference oracle: the dense B_k on V^p, identity outside block row k (0-based)."""
    field, p, d = lam.field, len(A), A[0].nrows
    ident = Matrix.identity(field, d)
    zero = field.zero()
    rows = []
    for bi in range(p):
        for rr in range(d):
            row = [zero] * (p * d)
            if bi != k:
                row[bi * d: (bi + 1) * d] = ident.rows[rr]
            else:
                for bj in range(p):
                    if bj < k:
                        blk = (A[bj] - ident).scale(lam)
                    elif bj == k:
                        blk = A[bj].scale(lam)
                    else:
                        blk = A[bj] - ident
                    row[bj * d: (bj + 1) * d] = blk.rows[rr]
            rows.append(row)
    return Matrix.from_rows(field, rows)


def _dense_mc_lambda(T, lam):
    """MC_lambda from the dense B_k: W @ B_k, then one coordinate solve per B_k."""
    field, d, p = T.field, T.dim, T.r
    A = list(T.finite_entries())
    zero = (field.zero(),)
    k_rows = [zero * (k * d) + b + zero * ((p - k - 1) * d)
              for k, M in enumerate(A) for b in row_space_basis(M.minus_identity()).rows]
    bigs = [_pochhammer_matrix(A, lam, k) for k in range(p)]
    l_rows = [row for k, big in enumerate(bigs)
              for row in big.minus_identity().rows[k * d:(k + 1) * d]]
    w = intersect_row_spaces(row_space_basis(Matrix.from_rows(field, k_rows)),
                             row_space_basis(Matrix.from_rows(field, l_rows)))
    if not w:
        return None
    entries = []
    for big in bigs:
        coords = solve_coords(w, w @ big)
        assert coords is not None, "B_k does not preserve K^perp cap L^perp"
        entries.append(coords)
    return MonodromyTuple.from_finite_entries(field, entries, T.points)


@pytest.mark.parametrize("field", [Q, F7, Z4], ids=str)
def test_mc_lambda_matches_dense_pochhammer_oracle(field, rng):
    compared = 0
    for dim, r in ((1, 2), (2, 2), (2, 3), (3, 2)):
        for lam in (-1, 2, 3):
            T = random_tuple(field, dim, r, rng, with_points=True)
            lam = field.from_int(lam)
            expected = _dense_mc_lambda(T, lam)
            if expected is None:
                with pytest.raises(PreconditionError):
                    mc_lambda(T, lam)
                continue
            assert mc_lambda(T, lam) == expected
            compared += 1
    assert compared >= 8


def _mc_lambda_outcome(T, lam):
    """mc_lambda(T, lam), or the type of the DomainError it raises."""
    try:
        return mc_lambda(T, lam)
    except DomainError as exc:
        return type(exc)


@pytest.mark.parametrize("field", [Q, F5, F9, Z3, Z4], ids=str)
def test_mc_lambda_is_unchanged_by_reducing_l_perp_first(monkeypatch, field, rng):
    # mc_lambda hands the block rows of the R_k to intersect_row_spaces unreduced;
    # their row_space_basis in their place moves no output and no error
    draws = []
    for _ in range(60):
        d, r = rng.randint(1, 3), rng.randint(1, 4)
        entries = [entry_of_kind(field, d, rng, rng.choice(ENTRY_KINDS)) for _ in range(r)]
        T = MonodromyTuple.from_finite_entries(field, entries, rng.sample(range(-9, 10), r))
        lam = random_scalar(field, rng)
        while not lam or lam.is_one():
            lam = random_scalar(field, rng)
        draws.append((T, lam, _mc_lambda_outcome(T, lam)))
    monkeypatch.setattr(convolution, "intersect_row_spaces",
                        lambda B1, B2: intersect_row_spaces(B1, row_space_basis(B2)))
    for T, lam, outcome in draws:
        assert _mc_lambda_outcome(T, lam) == outcome, (T, lam)
    assert {isinstance(outcome, MonodromyTuple) for _T, _lam, outcome in draws} == {True, False}


def test_mc_lambda_errors():
    L = quadratic_tuple()
    with pytest.raises(LambdaIsOne):
        mc_lambda(L, Q.one())
    trivial = scalar_tuple(1, 1, points=[0, 1])
    with pytest.raises(PreconditionError):
        mc_lambda(trivial, Q.from_int(-1))   # K = 0 forces rank 0


_LAMBDA_TAKERS = {
    "mc_lambda": lambda lam: mc_lambda(quadratic_tuple(), lam),
    "kummer_tuple": lambda lam: kummer_tuple(Q, lam),
    "irreducibility_criterion": lambda lam: irreducibility_criterion(quadratic_tuple(), [lam]),
    "predict_infinity_jordan": lambda lam: predict_infinity_jordan(quadratic_tuple(), lam),
}


@pytest.mark.parametrize("take", _LAMBDA_TAKERS.values(), ids=_LAMBDA_TAKERS)
@pytest.mark.parametrize("lam, error, message", [
    (Q.zero(), PreconditionError, "lambda must not be 0"),
    (Q.one(), LambdaIsOne, "lambda must not be 1"),
    (F7.from_int(-1), FieldMismatch, "lambda lives in F_7, not in Q"),
], ids=["0", "1", "F_7"])
def test_every_lambda_taker_states_the_one_precondition(take, lam, error, message):
    with pytest.raises(error, match=message):
        take(lam)


def test_rank_formula_examples():
    assert rank_formula(l_input()) == 2
    assert rank_formula(ConvolutionInput(l_star_l(), kummer_minus_one())) == 3
    assert rank_formula_applicable(l_input())


def test_rank_formula_warning_flag():
    left = scalar_tuple(1, 1, points=[0, 1])
    right = scalar_tuple(1, points=[3])
    assert not rank_formula_applicable(ConvolutionInput(left, right))


# the others of entry 1 have coinvariants and no invariants, so (**) fails at
# (1, tau = 1) while (*) is not tested there; the transposes swap the two
ONE_SIDED = [Matrix.from_rows(Q, M) for M in ([[1, 0], [0, 2]], [[1, 1], [0, 1]],
                                              [[1, 1], [0, -1]])]


def test_convolution_sheaf_conditions():
    assert is_convolution_sheaf(quadratic_tuple()).ok
    # the trivial tuple fails (*) and (**) at (1, tau = 1); (*) is reported first
    res = is_convolution_sheaf(scalar_tuple(1, 1))
    assert not res.ok and res.witness == ("*", 1, Q.one())
    # (*) holds at (1, tau = 1) but (**) does not: the fixed lines of u and
    # diag(1, -1) meet trivially, but u - 1 and diag(1, -1) - 1 share one image line
    u = Matrix.from_rows(Q, [[1, 1], [0, 1]])
    res = is_convolution_sheaf(MonodromyTuple.from_finite_entries(
        Q, [u, Matrix.from_rows(Q, [[1, 0], [0, -1]])]))
    assert not res.ok and res.witness == ("**", 1, Q.one())
    assert is_convolution_sheaf(l_star_l()).ok
    for transpose, condition in ((False, "**"), (True, "*")):
        T = MonodromyTuple.from_finite_entries(
            Q, [M.transpose() if transpose else M for M in ONE_SIDED])
        assert is_convolution_sheaf(T).witness == (condition, 1, Q.one())


def _fixed_dim_oracle(matrices):
    """dim of the joint kernel of the M - 1, by pairwise kernel intersections."""
    basis = None
    for M in matrices:
        k = kernel_basis(M.minus_identity())
        basis = k if basis is None else intersect_row_spaces(basis, k)
    return len(basis)


def _cofixed_dim_oracle(matrices):
    # sum im(M - 1) has codimension dim of its annihilator, the joint kernel
    # of the (M - 1)^T = M^T - 1
    return _fixed_dim_oracle([M.transpose() for M in matrices])


def _sheaf_witness_oracle(T):
    """The first failing (condition, i, tau), written with kernels and intersections."""
    finite, one = T.finite_entries(), T.field.one()
    for i, Ti in enumerate(finite):
        others = finite[:i] + finite[i + 1:]
        taus = {one.payload: one}
        for root, _m in eigenvalues(Ti)[0]:
            taus.setdefault(root.inverse().payload, root.inverse())
        for tau in taus.values():
            twisted = others + (Ti.scale(tau),)
            if others and _fixed_dim_oracle(twisted):
                return ("*", i + 1, tau)
            if _cofixed_dim_oracle(twisted):
                return ("**", i + 1, tau)
    return None


def _entry_with_fixed_vectors(field, d, rng, P=None):
    """A conjugate by P (random if None) of an upper-triangular matrix with diagonal
    in {1, -1, u}.

    Eigenvalue 1 is frequent, so both conditions fail on many tuples built
    from these; u is zeta over Q(zeta_n) and 2 otherwise.
    """
    one = field.one()
    u = field.zeta() if field.kind == "cyclotomic" else field.from_int(2)
    diag = [rng.choice([one, one, -one, u]) for _ in range(d)]
    U = Matrix.from_rows(field, [[diag[i] if i == j else rng.randint(0, 1) * (j > i)
                                  for j in range(d)] for i in range(d)])
    P = random_invertible(field, d, rng) if P is None else P
    return P.inverse() @ U @ P


@pytest.mark.parametrize("field", [Q, F7, FieldDescriptor.finite(5, 2),
                                   FieldDescriptor.cyclotomic(3), Z4], ids=str)
def test_convolution_sheaf_check_matches_the_kernel_oracle(field):
    rng = random.Random(SEED)
    seen = set()
    for r in range(1, 5):
        for d in range(1, 4):
            for _ in range(4):
                finite = [random_invertible(field, d, rng) if rng.random() < 0.3
                          else _entry_with_fixed_vectors(field, d, rng) for _ in range(r)]
                T = MonodromyTuple.from_finite_entries(field, finite)
                expected = _sheaf_witness_oracle(T)
                res = is_convolution_sheaf(T)
                assert (res.ok, res.witness) == (expected is None, expected)
                check_witness(res, T)
                assert invariants_dim(T.entries) == _fixed_dim_oracle(T.entries)
                assert coinvariants_dim(T.entries) == _cofixed_dim_oracle(T.entries)
                seen.add(expected[0] if expected else "ok")
    assert seen == {"ok", "*", "**"}


def _full_tau_search(T, fixed_dim=invariants_dim, cofixed_dim=coinvariants_dim):
    """(ok, witness) of the sheaf check without its shortcut: every entry's eigenvalues
    are searched and both conditions tested at every tau, by the given dimensions."""
    finite, one = T.finite_entries(), T.field.one()
    for i, Ti in enumerate(finite):
        others = finite[:i] + finite[i + 1:]
        fixed = others and fixed_dim(others)
        taus = [one] + [root.inverse() for root, _m in eigenvalues(Ti)[0]
                        if root and root != one]
        for tau in taus:
            twisted = others + (Ti.scale(tau),)
            if fixed and fixed_dim(twisted):
                return False, ("*", i + 1, tau)
            if cofixed_dim(twisted):
                return False, ("**", i + 1, tau)
    return True, None


@st.composite
def sheaf_cases(draw):
    """Seeded tuples over Q, F_7 or Q(zeta_3), r = 1 to 4.  An entry is random, has
    fixed vectors, or is triangular in a basis shared with the other such entries,
    which then often have joint invariants or coinvariants."""
    field = draw(st.sampled_from([Q, F7, FieldDescriptor.cyclotomic(3)]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    d = draw(st.integers(1, 3))
    shared = random_invertible(field, d, rng)
    make = {"random": lambda: random_invertible(field, d, rng),
            "fixed": lambda: _entry_with_fixed_vectors(field, d, rng),
            "shared": lambda: _entry_with_fixed_vectors(field, d, rng, shared)}
    kinds = draw(st.lists(st.sampled_from(sorted(make)), min_size=1, max_size=4))
    return MonodromyTuple.from_finite_entries(field, [make[kind]() for kind in kinds])


@settings(deadline=None)
@given(sheaf_cases())
@example(MonodromyTuple.from_finite_entries(Q, ONE_SIDED))
@example(MonodromyTuple.from_finite_entries(Q, [M.transpose() for M in ONE_SIDED]))
def test_the_sheaf_check_equals_the_full_tau_search(T):
    res = is_convolution_sheaf(T)
    assert (res.ok, res.witness) == _full_tau_search(T)


@pytest.mark.parametrize("field", [Q, F7, FieldDescriptor.finite(7, 2),
                                   FieldDescriptor.cyclotomic(3)], ids=str)
def test_the_sheaf_check_equals_the_full_tau_search_by_full_ranks(field):
    """The search with every fixed-space dimension taken from all rows or columns of
    each M - 1, on entries with eigenvalue 1, scalar entries and d = 1."""
    rng = random.Random(SEED)
    seen = set()
    for r in range(1, 5):
        for d in range(1, 4):
            for _ in range(5):
                kinds = [rng.choice(ENTRY_KINDS) for _ in range(r)]
                T = MonodromyTuple.from_finite_entries(
                    field, [entry_of_kind(field, d, rng, kind) for kind in kinds])
                res = is_convolution_sheaf(T)
                expected = _full_tau_search(T, full_invariants_dim, full_coinvariants_dim)
                assert (res.ok, res.witness) == expected
                seen.add(expected[1][0] if expected[1] else "ok")
    assert seen == {"ok", "*", "**"}


@pytest.mark.parametrize("name", sorted(TUPLE_FIXTURES))
def test_the_witnesses_on_the_fixtures_check_out(name):
    T = TUPLE_FIXTURES[name]()
    check_witness(is_convolution_sheaf(T), T)
    for other in sorted(TUPLE_FIXTURES):
        U = TUPLE_FIXTURES[other]()
        check_witness(equivalence(T, U), T, U)
    if T.points is not None:
        moved = MonodromyTuple.make(T.field, T.entries, [p + 1 for p in T.points])
        check_witness(equivalence(T, moved), T, moved)
    for ell in (5, 7, 13):
        gens = list(reduce_mod(T, ell).entries)
        check_witness(invariant_symmetric_form(gens), gens)


def dihedral_tuple():
    """Two reflections and two rotations of the triangle group, infinity = 1."""
    rho = Matrix.from_rows(Q, [[0, 1], [-1, -1]])
    refl = Matrix.from_rows(Q, [[0, 1], [1, 0]])
    entries = [refl, refl @ rho, rho, rho, Matrix.identity(Q, 2)]
    return MonodromyTuple.make(Q, entries)


def test_irreducibility_criterion_dihedral():
    T = dihedral_tuple()
    res = irreducibility_criterion(T, [Q.from_int(-1)])
    assert (res.ok, res.witness) == (True, 2)
    check_witness(res, T)


def test_irreducibility_criterion_inconclusive():
    res = irreducibility_criterion(quadratic_tuple(), [Q.from_int(-1)])
    assert (res.ok, res.witness) == (None, 0)
    check_witness(res, quadratic_tuple())


def test_irreducibility_criterion_precondition():
    with pytest.raises(PreconditionError):
        irreducibility_criterion(l_star_l(), [Q.from_int(-1)])


def test_convolved_block_case_table():
    minus = Q.from_int(-1)
    one = Q.one()
    i = Z4.zeta()
    # alpha = beta^-1: length grows
    assert convolved_block(minus, 1, minus) == (one, 2)
    # alpha = 1: length shrinks
    assert convolved_block(one, 2, minus) == (minus, 1)
    # generic alpha: length kept
    assert convolved_block(i, 1, Z4.from_int(-1)) == (-i, 1)
    # J(1,1) contributes nothing
    assert convolved_block(one, 1, minus) is None


def test_predict_local_jordan_on_m_fixture():
    inp = ConvolutionInput(l_star_l(), kummer_minus_one())
    table = predict_local_jordan(inp)
    out = middle_convolution(inp)
    left, right = inp.normalized()
    for (i, j), jd in table.items():
        pt = left.points[i - 1] + right.points[j - 1]
        actual = jordan_data(out.entries[out.points.index(pt)])
        assert jd == actual


@pytest.mark.parametrize("field", [Q, F7, F11], ids=str)
def test_the_local_predictions_are_the_jordan_data_of_the_convolution(field, rng):
    # the paper's local Jordan data of each D_{i,j} of T * Kummer(-1), against
    # jordan_data of the computed entry, with and without the predicted
    # eigenvalues as hints; a prediction that stops at DoesNotSplit must come
    # from an input entry whose characteristic polynomial does not split
    kummer = kummer_tuple(field, -field.one())
    shapes = [(d, r) for d in (1, 2, 3) for r in (2, 3, 4)] * 4
    matched = refused = 0
    for T in _corpus_like_sheaves(field, rng, shapes):
        inp = ConvolutionInput(T, kummer)
        try:
            table = predict_local_jordan(inp)
        except DoesNotSplit:
            assert any(len(eigenvalues(A)[1]) > 1 for A in T.finite_entries())
            refused += 1
            continue
        out = middle_convolution(inp)
        left, right = inp.normalized()
        for (i, j), jd in table.items():
            D = out.entries[out.points.index(left.points[i - 1] + right.points[j - 1])]
            hints = tuple(dict.fromkeys(alpha for alpha, _ in jd.blocks))
            assert jordan_data(D) == jd == jordan_data(D, hints)
        matched += 1
    assert matched + refused == len(shapes) and matched >= 10


def test_normalized_points_skip_the_braid_sorts(rng):
    for _ in range(4):
        inp = ConvolutionInput(random_tuple(Q, 1, 3, rng, with_points=True),
                               random_tuple(Q, 1, 2, rng, with_points=True))
        left, right = inp.normalized()
        assert inp.loop_points() == {(i, j): left.points[i - 1] + right.points[j - 1]
                                     for j in range(inp.q, 0, -1) for i in range(1, inp.p + 1)}


def test_predict_infinity_examples():
    minus = Q.from_int(-1)
    # A_inf = J(1,1) and lambda = -1 gives J(-1,2) (and nothing else, rank 2)
    assert predict_infinity_jordan(quadratic_tuple(), minus) \
        == JordanData.of([(minus, 2)])
    actual = jordan_data(mc_lambda(quadratic_tuple(), minus).infinity_entry())
    assert actual == JordanData.of([(minus, 2)])
    # blocks with alpha = lambda shrink away; fillers are J(lambda^-1, 1)
    refl = Matrix.from_rows(Q, [[0, 1], [1, 0]])
    T = MonodromyTuple.from_finite_entries(
        Q, [refl, refl, Matrix.from_rows(Q, [[-1, 0], [0, -1]])])
    assert T.infinity_entry() == -Matrix.identity(Q, 2)
    jd = predict_infinity_jordan(T, minus)
    assert all(ev == minus and ln == 1 for ev, ln in jd.blocks)
    actual = jordan_data(mc_lambda(T, minus).infinity_entry())
    assert actual == jd == JordanData.of([(minus, 1)] * 2)


def test_additivity_of_convolution_rank():
    B = quadratic_tuple()
    A = scalar_tuple(-1, 1, points=[-1, 1])
    A2 = scalar_tuple(-1, -1, points=[-1, 1])
    blocks = []
    for M1, M2 in zip(A.entries, A2.entries):
        z = Q.zero()
        blocks.append(Matrix.from_rows(Q, [[M1[0, 0], z], [z, M2[0, 0]]]))
    direct_sum = MonodromyTuple.make(Q, blocks, A.points)
    r_sum = middle_convolution(ConvolutionInput(direct_sum, B)).dim
    r1 = middle_convolution(ConvolutionInput(A, B)).dim
    r2 = middle_convolution(ConvolutionInput(A2, B)).dim
    assert r_sum == r1 + r2


@pytest.mark.parametrize("field", [Q, F7], ids=str)
def test_random_generic_convolutions_match_formula(field, rng):
    done = 0
    attempts = 0
    while done < 8 and attempts < 60:
        attempts += 1
        p = rng.randint(2, 3)
        q = 2
        lpts = rng.sample(range(0, 7), p)
        rpts = rng.sample(range(20, 30, 3), q)
        left = MonodromyTuple.from_finite_entries(
            field, [random_invertible(field, 2, rng) for _ in range(p)], lpts)
        right_vals = [rng.choice([-1, 2, 3]) for _ in range(q)]
        right = MonodromyTuple.from_finite_entries(
            field, [Matrix.from_rows(field, [[v]]) for v in right_vals], rpts)
        inp = ConvolutionInput(left, right)
        if not inp.is_generic() or not rank_formula_applicable(inp):
            continue
        expected = rank_formula(inp)
        if expected <= 0:
            continue
        out = middle_convolution(inp)
        assert out.dim == expected
        done += 1
    assert done >= 5


def test_sl_demo_m3_r4():
    rep = sl_demo(3, 4)
    assert rep.rank == rep.expected_rank == 9
    assert rep.checks_passed
    assert str(rep.field) == "Q(zeta_12)"


def test_sl_demo_m1_uses_triangle_group():
    rep = sl_demo(1, 4)
    assert rep.rank == 9 and rep.checks_passed


@pytest.mark.parametrize("m, r, digest", [
    (3, 6, "d74c0bd0aca48fbc0837b324c820dc45174303e2c207ce49ee0283fad3daa529"),
    (5, 6, "9ddf89eeb03a85bcb8c4c89c328d06f025454b68e57e4fe5c2f4adb84c2b4a45"),
    (3, 8, "b365b8436a563f9c2bca40a9edc19b97f425375588286aacb5a803cd0db8f428"),
], ids=["3-6", "5-6", "3-8"])
def test_larger_sl_demo_outputs_are_pinned(m, r, digest):
    # recorded before the coordinate solve read the pivot block and U was
    # cut out of the slot images directly
    import hashlib
    from midconv.tupleio import save_tuple
    rep = sl_demo(m, r)
    assert rep.checks_passed
    assert hashlib.sha256(save_tuple(rep.result).encode()).hexdigest() == digest


def test_sl_demo_preconditions():
    with pytest.raises(PreconditionError):
        sl_demo(4, 10)
    with pytest.raises(PreconditionError):
        sl_demo(3, 3)


def test_sl_demo_r_above_the_limit_is_refused_at_once():
    # (3,12) and (7,10) take seconds and stay allowed; r = SL_DEMO_MAX_R + 1
    # is refused before the dihedral tuple is built
    import time
    assert SL_DEMO_MAX_R >= 12
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="SL_DEMO_MAX_R"):
        sl_demo(3, SL_DEMO_MAX_R + 1)
    assert time.perf_counter() - start < 0.1


def test_kummer_tuple_shape():
    K = kummer_tuple(Q, Q.from_int(-1))
    assert K.points == (Fraction(0),)
    assert K.entries == kummer_minus_one().entries


def test_adjacent_colliding_points_are_merged_as_pinned():
    # the sums 0+3 and 2+1 collide, and their loops are adjacent in loop
    # order; the hash was recorded before the output sort was one bubble sort
    import hashlib
    from midconv.tupleio import save_tuple
    left = scalar_tuple(-1, -1, points=[0, 2])
    right = MonodromyTuple.from_finite_entries(
        Q, [Matrix.from_rows(Q, [[1, 1], [0, 1]]), Matrix.from_rows(Q, [[-1, 0], [1, -1]])],
        [1, 3])
    out = middle_convolution(ConvolutionInput(left, right))
    assert out.points == (1, 3, 5)
    assert hashlib.sha256(save_tuple(out).encode()).hexdigest() == \
        "6902b49a69657e66fe090ace8122ab87a4fe6511b30a9a6099bae0ef18433fec"


F17 = FieldDescriptor.finite(17)
Z12 = FieldDescriptor.cyclotomic(12)


@pytest.mark.parametrize("M, order", [
    (Matrix.identity(Q, 2), 1),
    (Matrix.from_rows(Q, [[-1]]), 2),
    (Matrix.from_rows(Q, [[0, 1], [1, 0]]), 2),
    (Matrix.from_rows(Q, [[0, -1], [1, -1]]), 3),
    (Matrix.from_rows(Q, [[0, -1], [1, 0]]), 4),
    (Matrix.from_rows(Z4, [[Z4.zeta(1), 0], [0, 1]]), 4),
    (Matrix.from_rows(F7, [[3]]), 6),
    (Matrix.from_rows(F17, [[2]]), 8),
    (Matrix.from_rows(F17, [[3]]), 0),                     # order 16
    (Matrix.from_rows(Z12, [[Z12.zeta(1), 0], [0, 1]]), 0),   # order 12
    (Matrix.from_rows(Q, [[1, 1], [0, 1]]), 0),            # infinite order
], ids=lambda x: str(x).replace("\n", "; ") if isinstance(x, Matrix) else str(x))
def test_the_sl_demo_order_walks_the_powers_only_off_order_4(M, order):
    # orders 1 to 8, above 8 and infinite, each read off the trace or by the walk
    assert _homology_order(M) == (matrix_order(M, 8) or 0) == order


def _homologies(field, rng):
    """(lambda, M): M = P^-1 diag(lambda, 1, 1) P for every lambda != 0 of a small
    field, or the first roots of unity and 2 over Q(zeta_n), and the transvection
    P^-1 (1 + E_01) P with lambda = 1."""
    if field.kind == "finite":
        lams = [x for x in field.elements() if x]
    else:
        lams = [field.zeta(e) for e in range(field.n or 1)] + [field.from_int(2)]
    P = random_invertible(field, 3, rng)
    for lam in lams:
        yield lam, P.inverse() @ Matrix.from_rows(field, [[lam, 0, 0], [0, 1, 0], [0, 0, 1]]) @ P
    yield field.one(), P.inverse() @ Matrix.from_rows(field, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]) @ P


@pytest.mark.parametrize("field", [Q] + [FieldDescriptor.cyclotomic(n) for n in range(3, 10)]
                         + [FieldDescriptor.finite(p) for p in (2, 3, 5, 7, 17, 29)], ids=str)
def test_the_homology_order_is_read_off_the_trace(monkeypatch, field, rng):
    # orders 1 to 8 of lambda, orders above 8, infinite order, and transvections
    # (of order p over F_p, infinite over Q(zeta_n)); only lambda = 1 walks the powers
    walked = []
    monkeypatch.setattr(convolution, "matrix_order",
                        lambda M, bound: walked.append(M) or matrix_order(M, bound))
    for lam, M in _homologies(field, rng):
        walked.clear()
        assert _homology_order(M) == (matrix_order(M, 8) or 0), lam
        assert len(walked) == (lam == field.one()), lam
    # a matrix with rk(M - 1) = 2 walks its powers: here -1, of order 2
    M = Matrix.from_rows(field, [[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    assert _homology_order(M) == (matrix_order(M, 8) or 0)


def test_mc_lambda_scales_each_entry_by_lambda_twice(monkeypatch, rng):
    T = random_tuple(Q, 2, 4, rng)
    expected = mc_lambda(T, Q.from_int(-1))
    scales = []
    real_scale = Matrix.scale
    monkeypatch.setattr(Matrix, "scale", lambda M, c: scales.append(c) or real_scale(M, c))
    assert mc_lambda(T, Q.from_int(-1)) == expected
    # lambda (A_j - 1) once for each j, and lambda A_k once for each k
    assert len(scales) == 2 * T.r


def test_sl_demo_inverts_no_matrix_twice(monkeypatch):
    calls = []                 # (M, M^-1); holding M keeps its id from being reused
    inverse = linalg.Matrix.inverse

    def recording(M):
        calls.append((M, inverse(M)))
        return calls[-1][1]

    monkeypatch.setattr(linalg.Matrix, "inverse", recording)
    assert sl_demo(3, 4).checks_passed
    first = {}
    for M, inv in calls:
        assert first.setdefault(id(M), inv) is inv, "a second elimination of one matrix"
    assert len(calls) > len(first)          # some matrix was asked twice
