"""Middle convolution of monodromy tuples.

The pipeline follows the braid-cocycle description: form the tensor
("circ") tuple of the two inputs, compute the parabolic spaces U/E of that
tuple, transport them along the pure-braid words attached to the loops
around the summed singular points, and read off the induced maps on U/E.
Everything works over any FieldDescriptor, finite fields included.

Conventions (frozen against the rank-2 and rank-3 reference tuples):
  * the left divisor is sorted ascending, the right divisor descending;
    ConvolutionInput.loop_points is the one map from a loop to its point,
  * output entries are ordered so that their product, taken left to right,
    is a positive loop around infinity; with the sorted divisors this lists
    the points of u*v in ascending order,
  * in the non-generic case, entries whose points collide are multiplied in
    that same order.

`_check_lambda` is the one precondition on a Kummer scalar lambda (in the
tuple's field, outside {0, 1}): mc_lambda, kummer_tuple,
irreducibility_criterion and predict_infinity_jordan call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import (DimensionInconsistency, FieldMismatch, LambdaIsOne,
                     PreconditionError, Verdict)
from .linalg import (JordanData, Matrix, eigenvalues, intersect_row_spaces, jordan_data,
                     kronecker, matrix_order, solve_coords)
from .modgroup import absolutely_irreducible
from .scalars import FieldDescriptor, Scalar
from .tuples import (MonodromyTuple, _braid_sort, _carry_back, _carry_letter, _walk_words,
                     cohomology_spaces, coinvariants_dim, induced_quotient_matrix,
                     invariants_dim, join_slots, quotient_basis, slot_blocks, slot_images,
                     sort_points)


@dataclass(frozen=True)
class ConvolutionInput:
    """A pair of pointed tuples over the same field."""

    left: MonodromyTuple
    right: MonodromyTuple

    def __post_init__(self):
        if self.left.field != self.right.field:
            raise FieldMismatch("convolution inputs over different fields")
        if self.left.points is None or self.right.points is None:
            raise PreconditionError("convolution inputs need point lists")

    @property
    def p(self) -> int:
        return self.left.r

    @property
    def q(self) -> int:
        return self.right.r

    def normalized(self) -> tuple[MonodromyTuple, MonodromyTuple]:
        """Left divisor ascending, right divisor descending (braid re-marking)."""
        return sort_points(self.left), sort_points(self.right, descending=True)

    def loop_points(self) -> dict[tuple[int, int], Fraction]:
        """x_i + y_j, the point of the loop delta_{i,j}, keyed (i, j) in middle_convolution's
        order (j from q down to 1, i from 1 up to p); x and y are the divisors of
        normalized(), read without its braid sorts."""
        xs, ys = sorted(self.left.points), sorted(self.right.points, reverse=True)
        return {(i, j): xs[i - 1] + ys[j - 1]
                for j in range(self.q, 0, -1) for i in range(1, self.p + 1)}

    def sums(self) -> list[Fraction]:
        return sorted({x + y for x in self.left.points for y in self.right.points})

    def is_generic(self) -> bool:
        return len(self.sums()) == self.p * self.q


def _pick_basepoint(inp: ConvolutionInput) -> Fraction:
    return Fraction(inp.sums()[-1] + 1)


def circ_tuple(inp: ConvolutionInput) -> MonodromyTuple:
    """The tensor tuple (A_i (x) 1, 1 (x) B_j, A_{p+1} (x) B_{q+1}).

    Points are (x_1, ..., x_p, y0-y_1, ..., y0-y_q) for a base fibre y0
    chosen past every point of u*v.
    """
    left, right = inp.normalized()
    n1, n2 = left.dim, right.dim
    field = left.field
    i1 = Matrix.identity(field, n1)
    i2 = Matrix.identity(field, n2)
    entries = [kronecker(A, i2) for A in left.finite_entries()]
    entries += [kronecker(i1, B) for B in right.finite_entries()]
    entries.append(kronecker(left.infinity_entry(), right.infinity_entry()))
    y0 = _pick_basepoint(inp)
    points = list(left.points) + [y0 - y for y in right.points]
    return MonodromyTuple.make(field, entries, points)


def _loop_prefix(i: int, j: int, p: int) -> tuple[tuple[int, int], ...]:
    """The letters of g, where the braid word of the loop delta_{i,j} is g beta_i^2 g^-1.

    That word is beta_{i,p+1} = (beta_i^2)^(beta_{i+1}^-1 ... beta_p^-1),
    conjugated by beta_{p+1} ... beta_{p+j-1} for j >= 2, so g is
    beta_{p+j-1}^-1 ... beta_{p+1}^-1 beta_p ... beta_{i+1}.
    """
    return (tuple((k, -1) for k in range(p + j - 1, p, -1))
            + tuple((k, 1) for k in range(p, i, -1)))


def _loop_matrices(C: MonodromyTuple, loops, p: int, u_basis: Matrix, proj: Matrix,
                   quot: Matrix) -> list[Matrix]:
    """The matrix on U/E of each loop (i, j) of `loops`, in quotient coordinates.

    The loops act on U/E by the braid cocycle Phi (Dettweiler-Wewers, Israel
    J. Math. 156, 2006), and the word of the loop (i, j) is g beta_i^2 g^-1
    (_loop_prefix).  Let (a, b) be the entries of C^g in the slots i, i+1.
    beta_i^2 moves C^g, and so the loop moves C, exactly when ab != ba,
    which raises DimensionInconsistency.  Otherwise the letters of g^-1 undo
    those of g, and Phi(C, w) = G S G^-1 with G = Phi(C, g) and S =
    Phi(C^g, beta_i^2).  S - 1 is zero outside the slots i, i+1 and sends
    their blocks (X, Y) there to (dX, -dX b), where dX = X (b - 1) - Y (a -
    1) lies in im(a - 1) cap im(b - 1) for a row of U (X, Y lie in the
    images of a - 1, b - 1, which commute with both).  On the reduced basis
    K of that intersection (a.moved when b = c*1, c != 1), dX = c K, so a
    row v of U goes to v + c R G^-1, R the rows [m, -m b] of the m in K.

    So the quotient rows walk along the prefixes g alone (_walk_words); one
    beta_i leaves X + dX in slot i+1, and a loop with dX = 0 is the
    identity.  solve_coords reads c at the pivots of K and checks dX = c K
    by a product (DimensionInconsistency if not); a K that spans V is the
    identity, and c is dX.  Only the rows R are carried back along g^-1
    (_carry_back), and one induced_quotient_matrix call reads their
    coordinates for every loop (DimensionInconsistency if one leaves U;
    the images v + c R G^-1 then lie in U too).  A quotient row is a row of
    the reduced u_basis, so its coordinates times proj are a unit row, and
    the loop's matrix is 1 + c (coordinates of R G^-1) proj.
    """
    field, d, ops = C.field, C.dim, C.field.ops
    add, sub, nonzero, one = ops.add, ops.sub, ops.nonzero, ops.one
    zrow = (ops.zero,) * d
    ident = Matrix.identity(field, len(quot))
    prefixes = [_loop_prefix(i, j, p) for i, j in loops]
    Ds, coefs, carried = [ident] * len(prefixes), [], []
    walk = _walk_words(C.entries, quot.payload, prefixes)
    for n, ((i, j), g, states) in enumerate(zip(loops, prefixes, walk)):
        entries, rows = states[-1]
        a, b = entries[i - 1], entries[i]
        if not (a.is_scalar or b.is_scalar) and a @ b != b @ a:
            raise DimensionInconsistency(f"the loop braid for ({i},{j}) moves the tensor tuple")
        pair = [rows[i - 1], rows[i]]
        _carry_letter(pair, 1, 1, (a, b), (b, a))
        delta = [tuple(map(sub, z, x)) for z, x in zip(pair[1], rows[i - 1])]
        if not any(map(nonzero, chain.from_iterable(delta))):
            continue
        K = a.moved if len(b.moved) == d else intersect_row_spaces(a.moved, b.moved)
        c = Matrix(field, tuple(delta))
        if len(K) < d:
            c = solve_coords(K, c)
            if c is None:
                raise DimensionInconsistency("quotient space is not preserved")
        R = [(zrow,) * len(K)] * len(entries)
        R[i - 1], R[i] = K.payload, (-(K @ b)).payload
        carried.append(_carry_back(g, states, R))
        coefs.append((n, c))
    try:
        images = induced_quotient_matrix(u_basis, carried, proj)
    except PreconditionError as exc:
        raise DimensionInconsistency(str(exc)) from exc
    for (n, c), P in zip(coefs, images):
        Ds[n] = Matrix(field, tuple(v[:k] + (add(v[k], one),) + v[k + 1:]
                                    for k, v in enumerate((c @ P).payload)))
    return Ds


def middle_convolution(inp: ConvolutionInput) -> MonodromyTuple:
    """The tuple of V_1 * V_2 on the points of u*v, sorted ascending.

    Raises DimensionInconsistency when the braid transport fails to preserve
    the U/E spaces of the tensor tuple (degenerate right factor).
    """
    loop_points = inp.loop_points()
    field = inp.left.field
    C = circ_tuple(inp)
    e_basis, u_basis = cohomology_spaces(C)
    proj, quot = quotient_basis(u_basis, e_basis)
    if not quot:
        raise PreconditionError("middle convolution has rank 0")
    Ds = _loop_matrices(C, list(loop_points), inp.p, u_basis, proj, quot)
    points = list(loop_points.values())
    # the bubble sort never swaps equal points, so colliding entries end up
    # adjacent in loop order; a Hurwitz move past a run of them conjugates
    # their product as it conjugates each one, so merging after sorting is
    # merging before it
    _braid_sort(Ds, points)
    merged, entries = [], []
    for pt, D in zip(points, Ds):
        if merged and merged[-1] == pt:
            entries[-1] = entries[-1] @ D
        else:
            merged.append(pt)
            entries.append(D)
    return MonodromyTuple.from_finite_entries(field, entries, merged)


# -- rank formula -----------------------------------------------------------------

def rank_formula(inp: ConvolutionInput) -> int:
    """(p+q-1) n1 n2 minus the fixed-space corrections of all local monodromies."""
    n1, n2 = inp.left.dim, inp.right.dim
    total = (inp.p + inp.q - 1) * n1 * n2
    for A in inp.left.finite_entries():
        total -= n2 * invariants_dim([A])
    for B in inp.right.finite_entries():
        total -= n1 * invariants_dim([B])
    total -= invariants_dim([kronecker(inp.left.infinity_entry(), inp.right.infinity_entry())])
    return total


def rank_formula_applicable(inp: ConvolutionInput) -> bool:
    """The formula assumes one of the two stalk stabilizers vanishes."""
    return invariants_dim(inp.left.entries) == 0 or invariants_dim(inp.right.entries) == 0


# -- Pochhammer realization of MC_lambda -------------------------------------------

def _check_lambda(lam: Scalar, field: FieldDescriptor) -> None:
    """FieldMismatch off `field`, LambdaIsOne at 1, PreconditionError at 0."""
    if lam.field != field:
        raise FieldMismatch(f"lambda lives in {lam.field}, not in {field}")
    if lam.is_one():
        raise LambdaIsOne("lambda must not be 1")
    if not lam:
        raise PreconditionError("lambda must not be 0")


def mc_lambda(T: MonodromyTuple, lam: Scalar) -> MonodromyTuple:
    """Katz's MC_lambda: the Pochhammer matrices B_k acting on W = K^perp cap L^perp.

    Vectors are rows acting on the right, so the Dettweiler-Reiter quotient
    V^p / (K + L) appears as the annihilator W inside V^p, where
    K = (+)_k ker(A_k - 1) and L = cap_k ker(B_k - 1).  K^perp confines the
    k-th slot to the row space of A_k - 1.  B_k - 1 vanishes outside block
    row k, whose blocks R_k are lambda (A_j - 1) for j < k, lambda A_k - 1
    and A_j - 1 for j > k; so L^perp is spanned by the rows of the R_k, and
    v B_k = v + v_k R_k with v_k the k-th slot of v.  The tuple induced on W,
    read at its pivots, lives on the same points; it is equivalent to T *
    kummer_tuple(lambda) when they ascend, as sort_points leaves them.
    """
    _check_lambda(lam, T.field)
    if not T.r:
        raise PreconditionError("MC_lambda needs a finite entry")
    field = T.field
    A = list(T.finite_entries())
    A1 = [M.minus_identity() for M in A]
    lam_A1 = [M.scale(lam) for M in A1]
    R = [join_slots(lam_A1[:k] + [A[k].scale(lam).minus_identity()] + A1[k + 1:])
         for k in range(len(A))]
    W = intersect_row_spaces(slot_images(A), Matrix(field, sum((Rk.payload for Rk in R), ())))
    if not W:
        raise PreconditionError("MC_lambda output has rank 0")

    images = [W + Wk @ Rk for Wk, Rk in zip(slot_blocks(W, len(A)), R)]
    try:
        entries = induced_quotient_matrix(W, images)
    except PreconditionError as exc:
        raise DimensionInconsistency(
            "Pochhammer matrix does not preserve K^perp cap L^perp "
            "(L^perp spanned by the block rows of B_k - 1)") from exc
    return MonodromyTuple.from_finite_entries(field, entries, T.points)


def kummer_tuple(field: FieldDescriptor, lam: Scalar) -> MonodromyTuple:
    """Rank-one tuple (lambda, lambda^-1) with its finite point at 0."""
    _check_lambda(lam, field)
    return MonodromyTuple.make(
        field,
        [Matrix.from_rows(field, [[lam]]), Matrix.from_rows(field, [[lam.inverse()]])],
        [0])


# -- convolution-sheaf conditions ----------------------------------------------------

def _tau_candidates(T: MonodromyTuple, i: int) -> list[Scalar]:
    """tau with ker(tau T_i - 1) possibly nonzero: 1, then the inverses of the
    other nonzero eigenvalues, which field_roots returns distinct."""
    one = T.field.one()
    return [one] + [root.inverse() for root, _m in eigenvalues(T.entries[i])[0]
                    if root and root != one]


def is_convolution_sheaf(T: MonodromyTuple) -> Verdict:
    """Check the Dettweiler-Reiter conditions (*) and (**) over the finite entries.

    With T_i replaced by tau T_i in the finite entries (the twisted tuple),
    (*) says the twisted tuple has no invariants and (**) that it has no
    coinvariants.  Both are checked for every finite i and every tau that
    could violate them (the inverses of the eigenvalues of T_i, as
    linalg.eigenvalues finds them; any other tau passes vacuously).

    The entries other than T_i bound both conditions at i, for every tau.
    The invariants of the twisted tuple are the joint fixed space of the
    others with one more entry in it, and adding an entry can only shrink
    a joint fixed space: if the others have no invariants, (*) holds at i,
    and it is not tested.  The coinvariants are V modulo the sum of the
    images of the others with one more image added, and adding rows can
    only grow that sum: if the others have no coinvariants, (**) holds at
    i.  When the others have neither, no tau can fail at i, and the
    eigenvalues of T_i are not searched for.  No failing pair is skipped,
    so the witness is the one the full search finds.

    The Verdict is True or False.  The witness of False is the first failing
    (condition, i, tau), with i ascending and tau = 1 first; at that pair (*)
    is tested before (**).  With r = 1 there is no other entry and (*) is
    not tested: it would read ker(tau T_1 - 1) = 0, which for a square
    matrix is (**), so a failure at r = 1 is reported as (**).
    """
    finite = T.finite_entries()
    method = "invariants and coinvariants of the twisted tuples"
    for i, Ti in enumerate(finite):
        others = finite[:i] + finite[i + 1:]
        fixed = others and invariants_dim(others)
        if others and not fixed and not coinvariants_dim(others):
            continue
        for tau in _tau_candidates(T, i):
            twisted = others + (Ti if tau.is_one() else Ti.scale(tau),)
            if fixed and invariants_dim(twisted):
                return Verdict(False, ("*", i + 1, tau), method)
            if coinvariants_dim(twisted):
                return Verdict(False, ("**", i + 1, tau), method)
    return Verdict(True, None, method)


def irreducibility_criterion(left: MonodromyTuple, right_scalars: list[Scalar]) -> Verdict:
    """Sufficient criterion: True when the witness (p-2) n - sum dim ker(A_i - 1) > 0, else None.

    Preconditions: the left tuple is an irreducible convolution sheaf whose
    infinity entry is the identity, and every right-hand scalar lies
    outside {0, 1}.  Genericity of the summed divisor is the caller's duty (the
    right-hand system is given by its scalars only).
    """
    field = left.field
    n = left.dim
    p = left.r
    if left.infinity_entry() != Matrix.identity(field, n):
        raise PreconditionError("criterion needs A_{p+1} = 1")
    for lam in right_scalars:
        _check_lambda(lam, field)
    if not is_convolution_sheaf(left).ok:
        raise PreconditionError("left factor is not a convolution sheaf")
    if not absolutely_irreducible(list(left.entries)):
        raise PreconditionError("left factor is not absolutely irreducible")
    margin = (p - 2) * n - sum(invariants_dim([A]) for A in left.finite_entries())
    return Verdict(True if margin > 0 else None, margin, "(p-2) n - sum dim ker(A_i - 1) > 0")


# -- local Jordan predictions ---------------------------------------------------------

def convolved_block(alpha: Scalar, length: int, beta: Scalar) -> tuple[Scalar, int] | None:
    """J(alpha, l), l >= 1, meeting a non-trivial eigenvalue beta gives J(alpha beta, l'),
    l' >= 1; J(1, 1) is the one block that vanishes, and gives None."""
    if alpha.is_one():
        return None if length == 1 else (beta, length - 1)
    return (alpha * beta, length + 1 if alpha == beta.inverse() else length)


def _padded(blocks, filler: Scalar, total: int, where: str) -> JordanData:
    """The blocks plus J(filler, 1) blocks up to the predicted rank `total`.

    Outside the hypotheses of the formulas the blocks can outgrow the rank;
    that raises PreconditionError naming `where`.
    """
    used = sum(n for _, n in blocks)
    if used > total:
        raise PreconditionError(f"{where}: the predicted blocks fill dimension {used}, "
                                f"more than the predicted rank {total}")
    return JordanData.of(blocks + [(filler, 1)] * (total - used), total)


def predict_local_jordan(inp: ConvolutionInput) -> dict[tuple[int, int], JordanData]:
    """Jordan data of each D_{i,j} of the convolution, without computing it.

    Indices refer to the normalized configuration (left divisor ascending,
    right descending), matching middle_convolution's entry at inp.loop_points()[i, j].
    """
    if not inp.is_generic():
        raise PreconditionError("local predictions need a generic divisor sum")
    left, right = inp.normalized()
    one = left.field.one()
    total = rank_formula(inp)
    a_jordans = [jordan_data(A) for A in left.finite_entries()]
    b_jordans = [jordan_data(B) for B in right.finite_entries()]
    for jd in b_jordans:
        if any(n != 1 for _, n in jd.blocks):
            raise PreconditionError("right-hand finite entries must be semisimple")
    out = {}
    for i in range(1, inp.p + 1):
        for j in range(1, inp.q + 1):
            blocks = []
            for beta, _len in b_jordans[j - 1].blocks:
                if beta == one:
                    continue
                for alpha, length in a_jordans[i - 1].blocks:
                    nb = convolved_block(alpha, length, beta)
                    if nb is not None:
                        blocks.append(nb)
            out[(i, j)] = _padded(blocks, one, total,
                                  f"local prediction at entry ({i},{j})")
    return out


def predict_infinity_jordan(T: MonodromyTuple, lam: Scalar) -> JordanData:
    """Jordan data at infinity of MC_lambda(T) from the infinity entry of T."""
    _check_lambda(lam, T.field)
    field = T.field
    one = field.one()
    lam_inv = lam.inverse()
    ainf = jordan_data(T.infinity_entry())
    blocks = []
    for alpha, length in ainf.blocks:
        if alpha == lam:
            new_len = length - 1
        elif alpha == one:
            new_len = length + 1
        else:
            new_len = length
        if new_len > 0:
            blocks.append((alpha * lam_inv, new_len))
    total = T.r * T.dim - sum(invariants_dim([A]) for A in T.finite_entries())
    total -= invariants_dim([T.infinity_entry().scale(lam_inv)])
    return _padded(blocks, lam_inv, total, "infinity prediction")


# -- the SL-realization demo ----------------------------------------------------------

# the largest r that sl_demo accepts: its cost grows faster than r^3, and on a 2-vCPU
# host under CPython 3.11 sl_demo takes 0.3 s at (3,12), 0.5 to 0.6 s at (7,10), 1.6 s
# at (15,12) and 2.2 to 2.5 s at (11,12), over Q(zeta_44)
SL_DEMO_MAX_R = 12
# phi(m) >= sqrt(m / 2), so an m above this needs r >= 2 + phi(m) > SL_DEMO_MAX_R;
# sl_demo refuses it before it lists the units mod m
SL_DEMO_MAX_M = 2 * (SL_DEMO_MAX_R - 2) ** 2


def _homology_order(M: Matrix) -> int:
    """matrix_order(M, 8), 0 for None, read off the trace when rk(M - 1) = 1 and tr M != d.

    M = 1 + N with N of rank one has N^2 = tr(N) N, so with lambda = tr(M)
    - (d - 1) = 1 + tr(N) != 1, M^k - 1 = ((lambda^k - 1) / (lambda - 1)) N:
    the order is that of lambda.  Any other M walks its powers.
    """
    lam = M.trace() - M.field.from_int(M.nrows - 1)
    if len(M.moved) != 1 or lam.is_one():
        return matrix_order(M, 8) or 0
    return next((k for k in range(1, 9) if (lam ** k).is_one()), 0)


@dataclass
class SlDemoReport:
    m: int
    r: int
    field: FieldDescriptor
    result: MonodromyTuple
    rank: int
    expected_rank: int
    first_entry_jordan_ok: bool
    second_entry_homology_order: int
    determinants_in_zeta4: bool
    checks_passed: bool


def sl_demo(m: int, r: int) -> SlDemoReport:
    """Run the two-step convolution pipeline of the SL-realization proof.

    Builds the dihedral rank-two tuple on r points, convolves with the
    quadratic Kummer sheaf, twists the first and last entries, convolves
    with the order-four Kummer-type tuple, and checks rank 4r-7 plus the
    announced local data.  m = 1 runs the same pipeline through the
    dihedral group of order six.

    The first output entry's Jordan data is read at its announced
    eigenvalues, -i first: three ranks and one product, no char_poly.  The
    second entry is announced as a homology of order 4: rk(c2 - 1) = 1 is
    read off its kept basis of im(c2 - 1), and its order off its trace.
    """
    if r > SL_DEMO_MAX_R:
        raise PreconditionError(f"r is above the limit SL_DEMO_MAX_R = {SL_DEMO_MAX_R}")
    if m < 1 or m % 2 == 0:
        raise PreconditionError("m must be odd and >= 1")
    if m > SL_DEMO_MAX_M:
        raise PreconditionError(f"m is above the limit SL_DEMO_MAX_M = {SL_DEMO_MAX_M}: "
                                "it needs r >= 2 + phi(m) > SL_DEMO_MAX_R")
    m_eff = 3 if m == 1 else m
    units = [k for k in range(1, m_eff + 1) if math.gcd(k, m_eff) == 1]
    phi = len(units)
    if r < 2 + phi:
        raise PreconditionError(f"need r >= {2 + phi}")
    lcm4 = 4 * m_eff // math.gcd(4, m_eff)
    field = FieldDescriptor.cyclotomic(lcm4)
    zeta_m = field.zeta(lcm4 // m_eff)
    zeta4 = field.zeta(lcm4 // 4)
    one = field.one()
    minus_one = -one

    def diag(a, b):
        return Matrix.from_rows(field, [[a, 0], [0, b]])

    refl = Matrix.from_rows(field, [[0, 1], [1, 0]])
    fillers = r - 1 - phi
    sign = one if fillers % 2 == 0 else minus_one
    finite = [refl, refl.scale(sign)]
    finite += [diag(zeta_m ** k, zeta_m ** (m_eff - k)) for k in units]
    finite += [diag(minus_one, minus_one)] * (fillers - 1)
    f1 = MonodromyTuple.from_finite_entries(field, finite,
                                            [Fraction(i) for i in range(1, r + 1)])
    f2 = kummer_tuple(field, minus_one)

    conv1 = middle_convolution(ConvolutionInput(f1, f2))
    if conv1.dim != 2 * r - 4:
        raise DimensionInconsistency("first convolution has unexpected rank")
    if conv1.infinity_entry() != Matrix.identity(field, conv1.dim).scale(minus_one):
        raise DimensionInconsistency("first convolution is not -1 at infinity")

    twisted_entries = [conv1.entries[0].scale(minus_one)]
    twisted_entries += list(conv1.entries[1:-1])
    twisted_entries.append(conv1.entries[-1].scale(minus_one))
    twisted = MonodromyTuple.make(field, twisted_entries, conv1.points)

    offset = Fraction(10007)
    f3 = MonodromyTuple.make(
        field,
        [Matrix.from_rows(field, [[zeta4]]), Matrix.from_rows(field, [[-zeta4]]),
         Matrix.identity(field, 1)],
        [offset, 2 * offset])

    result = middle_convolution(ConvolutionInput(twisted, f3))
    expected_rank = 4 * r - 7

    minus_i = -zeta4
    expected_c1 = JordanData.of([(minus_i, 2)] + [(minus_i, 1)] * (2 * r - 6)
                                + [(one, 1)] * (2 * r - 3))
    c1_ok = jordan_data(result.entries[0], (minus_i, one)) == expected_c1

    c2 = result.entries[1]
    c2_rank_one = len(c2.moved) == 1
    order = _homology_order(c2)

    zeta4_group = {zeta4 ** k for k in range(4)}
    dets_ok = all(A.det() in zeta4_group for A in result.finite_entries())

    passed = (result.dim == expected_rank and c1_ok and order == 4
              and c2_rank_one and dets_ok)
    return SlDemoReport(m=m, r=r, field=field, result=result, rank=result.dim,
                        expected_rank=expected_rank, first_entry_jordan_ok=c1_ok,
                        second_entry_homology_order=order,
                        determinants_in_zeta4=dets_ok, checks_passed=passed)
