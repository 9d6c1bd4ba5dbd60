"""Monodromy tuples, braid actions, cocycle automorphisms, parabolic cohomology.

A monodromy tuple is (T_1, ..., T_{r+1}) with T_1 ... T_{r+1} = 1; entry i
(i <= r) is the monodromy around the i-th finite point, the last entry the
monodromy at infinity.  Braid words act left-to-right on the first r entries
and conjugation is x^y = y^-1 x y throughout.

Braid words are applied one way: phi_transport walks a sequence of words,
carrying rows of V^{r+1} by the cocycle Phi and resuming each word after the
prefix it shares with the one before; braid_act walks one word, no rows.
A letter is one multiply-accumulate per row over the kept sparse rows of
its entries, and rows zero in both of its slots are not touched.

Fixed spaces are measured one way: invariants_dim and coinvariants_dim,
over any sequence of matrices (a tuple's entries, one entry, or the entries
with one of them scaled).  Both first read the basis of im(M - 1) that each
Matrix keeps (`Matrix.moved`, eliminated once per matrix): one matrix fixes
d - rk(M - 1) vectors and as many functionals, and a matrix with
rk(M - 1) = d leaves neither, whatever the others do.  Only otherwise is
there one more rank: of the M - 1 side by side for the invariants, of the
kept bases stacked for the coinvariants.  slot_images stacks the same kept
bases, so the sheaf check, the rank formulas, the cohomology spaces and
MC_lambda, run on one tuple, find each image im(M - 1) once.

Two tuples are compared one way: equivalence, which answers "is A ~ B up to
simultaneous conjugacy?" with a Verdict whose witness is a conjugator, a
distinguishing invariant, or nothing when it reaches no conclusion.
"""

from __future__ import annotations

import re
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain

from .errors import ParseError, PreconditionError, Verdict
from .linalg import (Matrix, _annihilator, _check_fields, char_poly, commutant_basis,
                     find_invertible, rank, reduced_kernel_basis, row_space_basis, solve_coords)
from .scalars import FieldDescriptor


@dataclass(frozen=True)
class BraidWord:
    """Word in the braid generators beta_1 .. beta_{r-1} and their inverses."""

    r: int
    letters: tuple[tuple[int, int], ...]   # (index, exponent +-1)

    def __post_init__(self):
        for i, e in self.letters:
            if not 1 <= i <= self.r - 1:
                raise PreconditionError(f"braid index {i} out of range for r={self.r}")
            if e not in (1, -1):
                raise PreconditionError("braid exponents must be +-1")

    def inverse(self) -> "BraidWord":
        return BraidWord(self.r, tuple((i, -e) for i, e in reversed(self.letters)))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.r != other.r:
            raise PreconditionError("braid words on different strand counts")
        return BraidWord(self.r, self.letters + other.letters)

    def conjugate_by(self, w: "BraidWord") -> "BraidWord":
        """x^w = w^-1 x w."""
        return w.inverse() * self * w

    def __str__(self):
        return " ".join(f"b{i}" if e == 1 else f"b{i}^-1" for i, e in self.letters)


_LETTER_RE = re.compile(r"b(\d+)(\^-1)?$")


def parse_braid_word(text: str, r: int) -> BraidWord:
    """Parse whitespace-separated letters "b<k>" / "b<k>^-1"."""
    letters = []
    for pos, tok in enumerate(text.split()):
        m = _LETTER_RE.match(tok)
        if not m:
            raise ParseError(f"bad braid letter {tok!r}", pos)
        letters.append((m.group(1), -1 if m.group(2) else 1))
    try:
        return BraidWord(r, tuple((int(i), e) for i, e in letters))
    except (PreconditionError, ValueError) as exc:  # out of range, or too long for int()
        raise ParseError(str(exc)) from exc


def pure_braid(i: int, j: int, r: int) -> BraidWord:
    """The pure braid beta_{i,j} = (beta_i^2)^(beta_{i+1}^-1 ... beta_{j-1}^-1)."""
    if not 1 <= i < j <= r:
        raise PreconditionError("pure_braid needs 1 <= i < j <= r")
    core = BraidWord(r, ((i, 1), (i, 1)))
    conj = BraidWord(r, tuple((k, -1) for k in range(i + 1, j)))
    return core.conjugate_by(conj)


@dataclass(frozen=True)
class MonodromyTuple:
    field: FieldDescriptor
    dim: int
    entries: tuple[Matrix, ...]
    points: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        self._check_shape()
        if reduce(operator.matmul, self.entries) != Matrix.identity(self.field, self.dim):
            raise PreconditionError("product relation T_1 ... T_{r+1} = 1 fails")

    def _check_shape(self) -> None:
        """Every check of __post_init__ except the product relation."""
        if len(self.entries) < 1:
            raise PreconditionError("a tuple needs at least one entry")
        if self.dim < 1:
            raise PreconditionError("a tuple needs dim >= 1")
        for M in self.entries:
            if M.field != self.field or M.dim != (self.dim, self.dim):
                raise PreconditionError("entries must be square over the declared field")
        if self.points is not None:
            if len(self.points) != self.r:
                raise PreconditionError("need one point per finite entry")
            if len(set(self.points)) != len(self.points):
                raise PreconditionError("points must be pairwise distinct")

    @property
    def r(self) -> int:
        return len(self.entries) - 1

    @staticmethod
    def make(field: FieldDescriptor, entries, points=None) -> "MonodromyTuple":
        entries = tuple(entries)
        dim = entries[0].nrows if entries else 0      # no entry: _check_shape raises
        pts = None if points is None else tuple(Fraction(p) for p in points)
        return MonodromyTuple(field, dim, entries, pts)

    @staticmethod
    def from_finite_entries(field: FieldDescriptor, finite, points=None) -> "MonodromyTuple":
        """Append the inverse of the product as the entry at infinity.

        The product relation is checked as prod @ inf == 1 on the product
        already formed, so the r+1 entries are not multiplied a second time.
        """
        finite = list(finite)
        if not finite:
            raise PreconditionError("a tuple needs at least one entry")
        dim = finite[0].nrows
        prod = reduce(operator.matmul, finite)
        inf = prod.inverse()
        if prod @ inf != Matrix.identity(field, dim):
            raise PreconditionError("product relation T_1 ... T_{r+1} = 1 fails")
        T = object.__new__(MonodromyTuple)
        T.__dict__.update(field=field, dim=dim, entries=tuple(finite) + (inf,),
                          points=None if points is None else tuple(Fraction(p) for p in points))
        T._check_shape()
        return T

    def finite_entries(self) -> tuple[Matrix, ...]:
        return self.entries[:-1]

    def infinity_entry(self) -> Matrix:
        return self.entries[-1]


def _act_gen(entries, points, i, inverse) -> None:
    """One braid generator on (list of entries, list of points or None); 1-based i.

    The Hurwitz move (a, b) -> (b, b^-1 a b), or (a, b) -> (a b a^-1, a) for
    the inverse generator.  When a or b is a scalar matrix c*1 the pair
    commutes, b^-1 a b = a and a b a^-1 = b exactly, and the move is a swap
    of the two entry objects: no inverse and no product.  Any other pair
    takes the general move, with the inverse each Matrix memoizes.
    """
    a, b = entries[i - 1], entries[i]
    if a.is_scalar or b.is_scalar:
        entries[i - 1], entries[i] = b, a
    elif not inverse:
        entries[i - 1], entries[i] = b, b.inverse() @ a @ b
    else:
        entries[i - 1], entries[i] = a @ b @ a.inverse(), a
    if points is not None:
        points[i - 1], points[i] = points[i], points[i - 1]


def _braid_sort(entries, points, descending=False) -> None:
    """Bubble the points into monotone order in place, each swap a braid generator."""
    changed = True
    while changed:
        changed = False
        for i in range(1, len(points)):
            if (points[i - 1] < points[i]) if descending else (points[i - 1] > points[i]):
                _act_gen(entries, points, i, False)
                changed = True


def braid_act(T: MonodromyTuple, w: BraidWord) -> MonodromyTuple:
    """Left-to-right action of a braid word on the first r entries.

    beta_i sends (..., g_i, g_{i+1}, ...) to (..., g_{i+1}, g_{i+1}^-1 g_i
    g_{i+1}, ...); points travel with their loops, the infinity entry is
    untouched (the action preserves the product).  It is phi_transport with
    no rows to carry, so the letters are applied by that one loop.
    """
    return phi_transport(T, [w], Matrix(T.field, ()))[0][1]


def sort_points(T: MonodromyTuple, descending: bool = False) -> MonodromyTuple:
    """Braid-bubble-sort the tuple so its points are monotone.

    Adjacent transpositions are realized by braid generators, so the result
    presents the same local system with a re-ordered marking, or is T itself
    when no generator acts (only then do the distinct points keep their order).
    """
    if T.points is None:
        raise PreconditionError("sort_points needs a tuple with points")
    entries, points = list(T.entries), list(T.points)
    _braid_sort(entries, points, descending)
    return T if tuple(points) == T.points else MonodromyTuple.make(T.field, entries, points)


# -- the cocycle automorphisms Phi ----------------------------------------------

def phi_transport(T: MonodromyTuple, words,
                  rows: Matrix) -> list[tuple[Matrix, MonodromyTuple]]:
    """One (rows Phi(T, w), T^w) per braid word w of `words`, in one walk.

    Phi composes by Phi(T, b b') = Phi(T, b) Phi(T^b, b'), and a letter
    touches only the slots i and i+1 of V^{r+1}.  The payload rows of `rows`
    (each of width (r+1) dim, or PreconditionError) are cut into r+1 slot
    blocks, carried letter by letter on payloads and joined again into each
    returned Matrix; no Scalar is built.  With (a, b) = (T_i, T_{i+1}) of the
    current tuple, beta_i sends the blocks (X, Y) of slots i, i+1 to
    (Y, X b + Y - Y b^-1 a b), with no inverse, and beta_i^-1 sends them to
    ((Y + X (b - 1)) a^-1, X), a^-1 built once per Matrix.  The entries move
    by _act_gen, so b^-1 a b is a itself when a or b is c*1.  A letter is one
    multiply-accumulate per row: the new row starts as the row y of Y and
    takes, for each nonzero x_k and y_k, one axpy by row k of the kept
    sparse rows of b and b^-1 a b (of a c*1 one pair each); for beta_i^-1
    that sum is multiplied by the sparse rows of a^-1.  A row zero in both
    slots stays zero untouched.

    The walk keeps the state (entries, points, slot blocks) after each
    letter of the previous word, and resumes each word after the longest
    prefix it shares with that word.  If every entry ends as the same object
    in its slot, with the same points, T itself is returned for the word
    (its product relation is already checked); otherwise T^w is built, and
    checked, once per word.
    """
    _check_fields(T, rows, "phi_transport")
    field, d, ops = T.field, T.dim, T.field.ops
    n = len(T.entries)
    if any(len(v) != n * d for v in rows.payload):
        raise PreconditionError(f"rows must have (r+1) dim = {n * d} columns")
    zero, nonzero, neg, sub, axpy = ops.zero, ops.nonzero, ops.neg, ops.sub, ops.axpy
    zrow = (zero,) * d
    states = [(T.entries, T.points, tuple([v[k * d:(k + 1) * d] for v in rows.payload]
                                          for k in range(n)))]
    done, out = (), []
    for w in words:
        if w.r != T.r:
            raise PreconditionError(f"braid word has r={w.r}, tuple has r={T.r}")
        shared = next((k for k, (x, y) in enumerate(zip(done, w.letters)) if x != y),
                      min(len(done), len(w.letters)))
        del states[shared + 1:]
        entries, points, blocks = states[-1]
        entries, blocks = list(entries), list(blocks)
        points = None if points is None else list(points)
        for i, e in w.letters[shared:]:
            a, b = entries[i - 1], entries[i]
            _act_gen(entries, points, i, e < 0)
            X, Y = blocks[i - 1], blocks[i]
            if X:
                B, new = b.sparse, []
                C = entries[i].sparse if e > 0 else a.inverse().sparse
                for x, y in zip(X, Y):
                    if x == zrow and y == zrow:
                        new.append(zrow)
                        continue
                    acc = list(y)
                    if e > 0:                  # X b + Y - Y C, C = b^-1 a b
                        for k, xk in enumerate(x):
                            if nonzero(xk):
                                axpy(acc, xk, B[k])
                        for k, yk in enumerate(y):
                            if nonzero(yk):
                                axpy(acc, neg(yk), C[k])
                    else:                      # (Y - X + X b) C, C = a^-1
                        for k, xk in enumerate(x):
                            if nonzero(xk):
                                acc[k] = sub(acc[k], xk)
                                axpy(acc, xk, B[k])
                        z, acc = acc, [zero] * d
                        for k, zk in enumerate(z):
                            if nonzero(zk):
                                axpy(acc, zk, C[k])
                    new.append(tuple(acc))
                blocks[i - 1], blocks[i] = (Y, new) if e > 0 else (new, X)
            states.append((tuple(entries), None if points is None else tuple(points),
                           tuple(blocks)))
        done = w.letters
        images = Matrix(field, tuple(tuple(chain(*parts)) for parts in zip(*blocks)))
        unmoved = all(M is N for M, N in zip(entries, T.entries)) and (
            points is None or tuple(points) == T.points)
        out.append((images, T if unmoved else MonodromyTuple.make(field, entries, points)))
    return out


# -- cohomology spaces -----------------------------------------------------------

def cohomology_spaces(T: MonodromyTuple) -> tuple[Matrix, Matrix]:
    """(e_basis, u_basis): echelonized bases of E_T <= U_T inside H_T <= V^{r+1}.

    H^1 = H/E and parabolic H^1_p = U/E.  H_T is cut out by v_1 (T_2...T_{r+1})
    + v_2 (T_3...T_{r+1}) + ... + v_{r+1} = 0, E_T is the space of coboundaries
    (v(T_1-1), ..., v(T_{r+1}-1)), and U_T additionally confines v_i to
    im(T_i - 1).  No basis of H_T is built: the map (v_i) -> sum_i v_i
    T_{i+1}...T_{r+1} is onto V, because its last block is the identity, so
    dim H_T = (r+1) dim V - dim V = r dim V.

    The slot images S are reduced with independent rows, so U = {c S : c S
    stacked = 0} is K S for the reduced kernel K of S stacked, and K S is
    reduced as it stands: row i of K is 0 before its leading 1 at column
    f_i, where every other row of K is 0, so row i of K S is 0 before the
    pivot column of row f_i of S, 1 there, and every other row is 0 there.
    """
    entries, field = T.entries, T.field
    # slot k holds T_{k+2} ... T_{r+1}, the last slot the identity: r - 1 products
    suffix = [Matrix.identity(field, T.dim), *accumulate(entries[:0:-1], lambda P, M: M @ P)]
    stacked = Matrix(field, tuple(row for P in reversed(suffix) for row in P.payload))
    e_basis = row_space_basis(join_slots([M.minus_identity() for M in entries]))
    S = slot_images(entries)
    u_basis = reduced_kernel_basis(S @ stacked) @ S
    return e_basis, u_basis


def slot_blocks(M: Matrix, n: int) -> list[Matrix]:
    """Split rows of V^n into n slot blocks: block k is slot k of every row of M."""
    d = M.ncols // n
    return [Matrix(M.field, tuple(v[k * d:(k + 1) * d] for v in M.payload)) for k in range(n)]


def join_slots(blocks) -> Matrix:
    """Rows of V^n from n >= 1 slot blocks with equal row counts; undoes slot_blocks."""
    return Matrix(blocks[0].field,
                  tuple(sum(parts, ()) for parts in zip(*(blk.payload for blk in blocks))))


def slot_images(entries) -> Matrix:
    """Reduced-echelon basis of (+)_k im(M_k - 1) inside V^n, n = len(entries).

    Slot k of V^n holds im(M_k - 1).  The slots are disjoint column ranges
    taken in order, so stacking the kept reduced-echelon bases M_k.moved of
    the images gives a reduced echelon form of the sum.
    """
    n, d, field = len(entries), entries[0].nrows, entries[0].field
    zero = (field.ops.zero,)
    return Matrix(field, tuple(zero * (k * d) + b + zero * ((n - k - 1) * d)
                               for k, M in enumerate(entries) for b in M.moved.payload))


def _read_off(matrices) -> int | None:
    """The fixed-space dimension that the kept bases M.moved decide, or None.

    One matrix fixes d - rk(M - 1) vectors and as many functionals.  A
    matrix with rk(M - 1) = d fixes neither, and more matrices only shrink
    a joint fixed space and grow a sum of images, so the answer is 0.
    """
    d = matrices[0].nrows
    if len(matrices) == 1:
        return d - len(matrices[0].moved)
    return 0 if any(len(M.moved) == d for M in matrices) else None


def invariants_dim(matrices) -> int:
    """dim of the joint fixed space {v : v M = v for every M} of a nonempty sequence.

    Read off the kept bases when _read_off decides it; otherwise d - rank of
    the d x nd matrix (M_1 - 1 | ... | M_n - 1), one unreduced elimination.
    """
    known = _read_off(matrices)
    if known is not None:
        return known
    return matrices[0].nrows - rank(join_slots([M.minus_identity() for M in matrices]))


def coinvariants_dim(matrices) -> int:
    """dim of V / sum_M im(M - 1) for a nonempty sequence.

    Read off the kept bases when _read_off decides it; otherwise d - rank of
    the kept bases M.moved stacked, rk(M - 1) rows each.
    """
    known = _read_off(matrices)
    if known is not None:
        return known
    return matrices[0].nrows - rank(Matrix(matrices[0].field, tuple(
        row for M in matrices for row in M.moved.payload)))


def parabolic_rank_formula(T: MonodromyTuple) -> int:
    """Ogg-Shafarevich count: sum_i rank(T_i - 1) - 2 dim V + dim V^T + dim V_T.

    Always total; agrees with dim U_T - dim E_T, the version including the
    infinity term.  The ranks are the lengths of the kept bases M.moved.
    """
    total = sum(len(M.moved) for M in T.entries)
    return total - 2 * T.dim + invariants_dim(T.entries) + coinvariants_dim(T.entries)


# -- quotient machinery shared with the convolution -------------------------------

def quotient_basis(u_basis: Matrix, e_basis: Matrix) -> tuple[Matrix, Matrix]:
    """(proj, quot): the rows of u_basis that span U/E, and the map onto them.

    quot holds each u of the reduced echelon u_basis outside span(E, earlier
    u).  u_j is left out exactly when a row of span(C), C the U-coordinates
    of E (PreconditionError if E is not in U), ends at j: a pivot of C's
    elimination with reversed columns.  That row is u_j plus rows of quot,
    so modulo E, u_j is minus the rest of it.  The reduced annihilator of C,
    read off that elimination, has one row per kept u_f, leading with 1 at
    f; proj (U- to quot-coordinates modulo E) is its transpose.
    """
    field, ops, m = u_basis.field, u_basis.field.ops, len(u_basis)
    C = solve_coords(u_basis, e_basis)
    if C is None:
        raise PreconditionError("E is not inside U")
    K = _annihilator(ops, C.payload, m)
    proj = tuple(zip(*K)) or ((),) * m
    return Matrix(field, proj), Matrix(field, tuple(u_basis.payload[v.index(ops.one)] for v in K))


def induced_quotient_matrix(basis: Matrix, image_blocks, proj=None) -> list[Matrix]:
    """One matrix per block (a Matrix) of images of the quotient rows.

    One solve_coords call reads the images' coordinates on the reduced
    echelon `basis`; proj, from quotient_basis, maps them onto the quotient
    rows, which are basis itself without it.  Raises PreconditionError if an
    image leaves span(basis): the caller treats that as a degeneracy signal.
    """
    field = basis.field
    coords = solve_coords(basis, Matrix(field, tuple(chain.from_iterable(
        block.payload for block in image_blocks))))
    if coords is None:
        raise PreconditionError("quotient space is not preserved")
    coords = iter((coords if proj is None else coords @ proj).payload)
    return [Matrix(field, tuple(next(coords) for _ in block.payload)) for block in image_blocks]


def equivalence(A: MonodromyTuple, B: MonodromyTuple) -> Verdict:
    """Decide A ~ B up to simultaneous conjugacy; the witness is S, a reason or None.

    S is a conjugator, S^-1 A_i S = B_i for every i (True); reason names an
    invariant that tells the tuples apart (False); None proves nothing.  The
    checks run in this order: the field, dim and r, and the points when both
    tuples carry them; the characteristic polynomial of each entry; then
    Hom(A, B) = {X : A_i X = X B_i}, solved once, whose basis and prefix sums
    find_invertible scans for S.  Only without S are End(A) and End(B)
    solved: a conjugator S makes the three dimensions equal, since X -> S^-1 X
    and X -> X S^-1 map Hom(A, B) onto End(B) and End(A).

    Each space is solved over the finite entries alone.  If A_i X = X B_i
    for i <= r, then the products agree, P_A X = X P_B, and so do their
    inverses, the entries at infinity: the equations of the last entry follow
    from the others, and the solution space is the same.  Its basis is read
    off the reduced echelon form of the equations' row space, which is
    unique, so the basis is the same too.  At r = 0 the one entry is solved.
    """
    if A.field != B.field or A.dim != B.dim or A.r != B.r:
        return Verdict(False, "field, dim or r differ", "invariants")
    if A.points is not None and B.points is not None and A.points != B.points:
        return Verdict(False, "points differ", "invariants")
    for k, (MA, MB) in enumerate(zip(A.entries, B.entries), start=1):
        if char_poly(MA) != char_poly(MB):
            return Verdict(False, f"characteristic polynomials of entry {k} differ", "invariants")
    a, b = (list(X.finite_entries() or X.entries) for X in (A, B))
    hom = commutant_basis(a, b)
    S = find_invertible(hom)
    if S is not None:
        return Verdict(True, S, "scan of Hom(A, B)")
    dims = [len(hom)] + [len(commutant_basis(x, x)) for x in (a, b)]
    if len(set(dims)) > 1:
        return Verdict(False, "dim Hom(A, B), dim End(A), dim End(B) = {}, {}, {}".format(*dims),
                       "invariants")
    return Verdict(None, None, "scan of Hom(A, B)")
